"""Participant selection and incentives — the paper's stated future work.

"In the future, we plan to integrate incentive mechanisms and
location-based participant selection into SnapTask to further improve the
efficiency in data collection" (Sec. VII). The related work it builds on
selects participants "based on their current positions, in order to
minimize incentive budgets while improving the QoI" (Zhang et al., Song
et al.) — and notes that SnapTask composes with these mechanisms because
"the participant selection mechanisms can be applied after task locations
are calculated" (Sec. VI).

This module implements that composition point: the backend calculates the
task location (Algorithm 1/4 as usual), then a :class:`SelectionPolicy`
decides *which* participant performs it, and an :class:`IncentiveLedger`
prices the work. Three policies are provided:

* ``RoundRobinPolicy`` — the baseline the paper's field test used
  ("currently we generate 1 task at a time per participant");
* ``NearestIdlePolicy`` — location-based selection: the idle participant
  closest to the task location;
* ``BudgetGreedyPolicy`` — incentive-aware selection: minimise expected
  payment (base reward + per-metre travel compensation scaled by each
  participant's rate), skipping participants whose payment would exceed
  the remaining budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import SimulationError
from ..geometry import Vec2
from ..simkit.rng import RngStream
from .participants import Participant


@dataclass
class ParticipantState:
    """A participant's whereabouts and price as seen by the selector."""

    participant: Participant
    position: Vec2
    rate_per_meter: float
    busy: bool = False
    tasks_done: int = 0
    distance_walked_m: float = 0.0

    @property
    def name(self) -> str:
        return self.participant.name


@dataclass(frozen=True)
class Payment:
    """One incentive payout."""

    participant: str
    task_id: int
    base_reward: float
    travel_compensation: float

    @property
    def total(self) -> float:
        return self.base_reward + self.travel_compensation


class IncentiveLedger:
    """Tracks incentive payments against a campaign budget."""

    def __init__(self, base_reward: float = 1.0, budget: Optional[float] = None):
        if base_reward < 0:
            raise SimulationError("base reward cannot be negative")
        self._base_reward = base_reward
        self._budget = budget
        self._payments: List[Payment] = []

    @property
    def base_reward(self) -> float:
        return self._base_reward

    @property
    def payments(self) -> List[Payment]:
        return list(self._payments)

    def total_paid(self) -> float:
        return sum(p.total for p in self._payments)

    def remaining_budget(self) -> Optional[float]:
        if self._budget is None:
            return None
        return self._budget - self.total_paid()

    def quote(self, state: ParticipantState, task_location: Vec2) -> float:
        """Expected payment for sending ``state`` to ``task_location``."""
        distance = state.position.distance_to(task_location)
        return self._base_reward + state.rate_per_meter * distance

    def affordable(self, state: ParticipantState, task_location: Vec2) -> bool:
        remaining = self.remaining_budget()
        return remaining is None or self.quote(state, task_location) <= remaining

    def pay(self, state: ParticipantState, task_id: int, distance_m: float) -> Payment:
        payment = Payment(
            participant=state.name,
            task_id=task_id,
            base_reward=self._base_reward,
            travel_compensation=state.rate_per_meter * distance_m,
        )
        remaining = self.remaining_budget()
        if remaining is not None and payment.total > remaining + 1e-9:
            raise SimulationError(
                f"payment {payment.total:.2f} exceeds remaining budget {remaining:.2f}"
            )
        self._payments.append(payment)
        return payment


class SelectionPolicy:
    """Chooses a participant for a task location."""

    name = "abstract"

    def select(
        self,
        states: Sequence[ParticipantState],
        task_location: Vec2,
        ledger: IncentiveLedger,
    ) -> Optional[ParticipantState]:
        raise NotImplementedError


class RoundRobinPolicy(SelectionPolicy):
    """Cycle through participants regardless of position (the baseline)."""

    name = "round-robin"

    def __init__(self) -> None:
        self._cursor = 0

    def select(self, states, task_location, ledger):
        idle = [s for s in states if not s.busy]
        if not idle:
            return None
        choice = idle[self._cursor % len(idle)]
        self._cursor += 1
        return choice if ledger.affordable(choice, task_location) else None


class NearestIdlePolicy(SelectionPolicy):
    """Location-based selection: the closest idle participant."""

    name = "nearest-idle"

    def select(self, states, task_location, ledger):
        idle = [
            s
            for s in states
            if not s.busy and ledger.affordable(s, task_location)
        ]
        if not idle:
            return None
        return min(idle, key=lambda s: s.position.distance_to(task_location))


class BudgetGreedyPolicy(SelectionPolicy):
    """Incentive-aware selection: minimise the expected payment."""

    name = "budget-greedy"

    def select(self, states, task_location, ledger):
        idle = [
            s
            for s in states
            if not s.busy and ledger.affordable(s, task_location)
        ]
        if not idle:
            return None
        return min(idle, key=lambda s: ledger.quote(s, task_location))


@dataclass(frozen=True)
class SelectionReport:
    """Outcome of one selection-driven campaign."""

    policy: str
    assignments: int
    unassigned: int
    total_distance_m: float
    total_paid: float
    per_participant_tasks: Dict[str, int]

    @property
    def mean_distance_m(self) -> float:
        return self.total_distance_m / self.assignments if self.assignments else 0.0


class ParticipantSelector:
    """Drives a selection policy over a stream of task locations."""

    def __init__(
        self,
        participants: Sequence[Participant],
        start_positions: Sequence[Vec2],
        policy: SelectionPolicy,
        ledger: IncentiveLedger,
        rng: Optional[RngStream] = None,
        rate_range: Tuple[float, float] = (0.05, 0.25),
    ):
        if len(participants) != len(start_positions):
            raise SimulationError("participants and start positions must align")
        if not participants:
            raise SimulationError("selector needs at least one participant")
        self._policy = policy
        self._ledger = ledger
        self._states: List[ParticipantState] = []
        for i, (participant, position) in enumerate(zip(participants, start_positions)):
            rate = (
                rng.child(f"rate-{i}").uniform(*rate_range)
                if rng is not None
                else (rate_range[0] + rate_range[1]) / 2.0
            )
            self._states.append(
                ParticipantState(
                    participant=participant, position=position, rate_per_meter=rate
                )
            )
        self._unassigned = 0

    @property
    def states(self) -> List[ParticipantState]:
        return list(self._states)

    @property
    def ledger(self) -> IncentiveLedger:
        return self._ledger

    def assign(self, task_id: int, task_location: Vec2) -> Optional[ParticipantState]:
        """Select, pay and move a participant to the task location.

        Returns None when no affordable idle participant exists; the
        caller may retry later (participants become idle on `release`).
        """
        choice = self._policy.select(self._states, task_location, self._ledger)
        if choice is None:
            self._unassigned += 1
            return None
        distance = choice.position.distance_to(task_location)
        self._ledger.pay(choice, task_id, distance)
        choice.busy = True
        choice.tasks_done += 1
        choice.distance_walked_m += distance
        choice.position = task_location
        return choice

    def release(self, state: ParticipantState) -> None:
        state.busy = False

    def report(self) -> SelectionReport:
        return SelectionReport(
            policy=self._policy.name,
            assignments=sum(s.tasks_done for s in self._states),
            unassigned=self._unassigned,
            total_distance_m=sum(s.distance_walked_m for s in self._states),
            total_paid=self._ledger.total_paid(),
            per_participant_tasks={s.name: s.tasks_done for s in self._states},
        )


def replay_task_locations(
    locations: Sequence[Vec2],
    participants: Sequence[Participant],
    start_positions: Sequence[Vec2],
    policy: SelectionPolicy,
    base_reward: float = 1.0,
    budget: Optional[float] = None,
    rng: Optional[RngStream] = None,
) -> SelectionReport:
    """Replay a campaign's task-location stream under a policy.

    Tasks are sequential (one active task at a time, matching the paper's
    "1 task at a time per participant"), so each assignment is released
    before the next — the policies differ purely in travel and price.
    """
    ledger = IncentiveLedger(base_reward=base_reward, budget=budget)
    selector = ParticipantSelector(
        participants, start_positions, policy, ledger, rng=rng
    )
    for task_id, location in enumerate(locations, start=1):
        state = selector.assign(task_id, location)
        if state is not None:
            selector.release(state)
    return selector.report()
