"""Deterministic random-number streams.

Reproducibility rule: every stochastic component (participant mobility,
feature detection, annotation noise, positioning error, ...) draws from its
own named child stream of one master seed. Adding a new component or
reordering calls inside one component never perturbs the draws seen by the
others, so experiment results are stable across refactors.
"""

from __future__ import annotations

import hashlib
from typing import Iterator, Optional, Sequence, TypeVar

import numpy as np

T = TypeVar("T")


def _digest_seed(master_seed: int, name: str) -> int:
    """Stable 64-bit seed derived from (master_seed, name)."""
    payload = f"{master_seed}:{name}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


class RngStream:
    """A named random stream backed by :class:`numpy.random.Generator`.

    The generator is built on the first draw: many streams only ever
    derive children (a photo's ``photo-<id>`` stream, for one), and a
    stream's draws depend on its seed and name alone, not on when its
    generator was built.
    """

    def __init__(self, master_seed: int, name: str):
        self._master_seed = master_seed
        self._name = name
        self._built: Optional[np.random.Generator] = None

    @property
    def _gen(self) -> np.random.Generator:
        if self._built is None:
            self._built = np.random.default_rng(_digest_seed(self._master_seed, self._name))
        return self._built

    @property
    def name(self) -> str:
        return self._name

    def child(self, suffix: str) -> "RngStream":
        """Derive an independent sub-stream, e.g. per participant or task."""
        return RngStream(self._master_seed, f"{self._name}/{suffix}")

    # -- draws ------------------------------------------------------------

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return float(self._gen.uniform(low, high))

    def normal(self, mean: float = 0.0, sigma: float = 1.0) -> float:
        return float(self._gen.normal(mean, sigma))

    def integers(self, low: int, high: int) -> int:
        """Uniform integer in [low, high)."""
        return int(self._gen.integers(low, high))

    def chance(self, probability: float) -> bool:
        """Bernoulli draw."""
        return bool(self._gen.random() < probability)

    def choice(self, options: Sequence[T]) -> T:
        if not options:
            raise ValueError("choice from empty sequence")
        return options[int(self._gen.integers(0, len(options)))]

    def weighted_choice(self, options: Sequence[T], weights: Sequence[float]) -> T:
        if len(options) != len(weights):
            raise ValueError("options and weights must align")
        w = np.asarray(weights, dtype=float)
        if w.sum() <= 0:
            raise ValueError("weights must sum to a positive value")
        idx = int(self._gen.choice(len(options), p=w / w.sum()))
        return options[idx]

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        self._gen.shuffle(items)

    def sample_mask(self, n: int, probability: float) -> np.ndarray:
        """Boolean mask of length ``n`` with iid Bernoulli(probability)."""
        return self._gen.random(n) < probability

    def normal_array(self, shape, mean: float = 0.0, sigma: float = 1.0) -> np.ndarray:
        return self._gen.normal(mean, sigma, size=shape)

    def uniform_array(self, shape, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        return self._gen.uniform(low, high, size=shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


class RngRegistry:
    """Factory handing out named top-level streams for one master seed."""

    def __init__(self, master_seed: int):
        self._master_seed = master_seed
        self._handed_out: set = set()

    @property
    def master_seed(self) -> int:
        return self._master_seed

    def stream(self, name: str) -> RngStream:
        """Create the stream ``name``; names are tracked for diagnostics."""
        self._handed_out.add(name)
        return RngStream(self._master_seed, name)

    def stream_names(self) -> Iterator[str]:
        return iter(sorted(self._handed_out))
