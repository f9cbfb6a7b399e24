"""Crowdsourcing task objects.

"We identify 2 different tasks: to collect images and to annotate
featureless surfaces" (Sec. III). Tasks carry the floor location the
participant must reach; annotation tasks additionally go through the
online labelling tool after the photos are taken.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, replace
from typing import Optional

from ..geometry import Vec2


class TaskKind(enum.Enum):
    PHOTO_COLLECTION = "photo_collection"
    ANNOTATION = "annotation"


class TaskStatus(enum.Enum):
    PENDING = "pending"
    ASSIGNED = "assigned"
    COMPLETED = "completed"
    FAILED = "failed"


@dataclass(frozen=True)
class Task:
    """One crowdsourcing task issued by the backend."""

    task_id: int
    kind: TaskKind
    location: Vec2
    created_iteration: int
    status: TaskStatus = TaskStatus.PENDING
    reissue_of: Optional[int] = None  # task id this re-attempts, if any

    def assigned(self) -> "Task":
        return replace(self, status=TaskStatus.ASSIGNED)

    def completed(self) -> "Task":
        return replace(self, status=TaskStatus.COMPLETED)

    def failed(self) -> "Task":
        return replace(self, status=TaskStatus.FAILED)

    @property
    def is_annotation(self) -> bool:
        return self.kind == TaskKind.ANNOTATION


class TaskFactory:
    """Hands out tasks with unique consecutive ids."""

    def __init__(self) -> None:
        self._counter = itertools.count(1)

    def photo_task(
        self, location: Vec2, iteration: int, reissue_of: Optional[int] = None
    ) -> Task:
        return Task(
            task_id=next(self._counter),
            kind=TaskKind.PHOTO_COLLECTION,
            location=location,
            created_iteration=iteration,
            reissue_of=reissue_of,
        )

    def annotation_task(
        self, location: Vec2, iteration: int, reissue_of: Optional[int] = None
    ) -> Task:
        return Task(
            task_id=next(self._counter),
            kind=TaskKind.ANNOTATION,
            location=location,
            created_iteration=iteration,
            reissue_of=reissue_of,
        )
