"""Property tests: the SfM observation table against a dict-of-set oracle.

:class:`~repro.sfm.columnar.ObservationTable` replaced three dict-of-set
indexes (feature -> pending photos, feature -> registered photos, feature
-> model cameras). Hypothesis drives random sequences of photo batches,
registrations and wavefront rounds through the table and through the
dict-of-set bookkeeping it replaced, and after every step pins, per
feature, the arrival order of its observers and which of them are
pending and which registered. Every registration also runs the
wavefront, whose ``photos_dirtied`` count must equal the oracle's.
Seed-pair selection is pinned against the dict scan it replaced, ties
included.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Set

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.sfm import FeatureColumns, ObservationTable, best_seed_pair

N_FEATURES = 12

observations = st.lists(
    st.integers(0, N_FEATURES - 1), min_size=0, max_size=8, unique=True
)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.lists(observations, min_size=1, max_size=4)),
        st.tuples(
            st.just("register"),
            st.integers(0, 1_000),
            st.lists(st.integers(0, N_FEATURES - 1), max_size=6),
        ),
        st.tuples(st.just("round")),
    ),
    max_size=25,
)


@settings(max_examples=200, deadline=None)
@given(steps=steps, id_seed=st.integers(0, 2**16))
def test_table_matches_dict_of_set_oracle(steps, id_seed):
    # Photo ids arrive in no particular order.
    ids = iter(np.random.default_rng(id_seed).permutation(10_000).tolist())
    table = ObservationTable()
    pending: Dict[int, np.ndarray] = {}
    registered: Set[int] = set()
    dirty: Set[int] = set()
    # The oracle: per feature, observers in arrival order, and the
    # pending / registered observer sets kept as the engine once kept them.
    arrival: Dict[int, List[int]] = defaultdict(list)
    oracle_pending: Dict[int, Set[int]] = defaultdict(set)
    oracle_registered: Dict[int, Set[int]] = defaultdict(set)
    oracle_dirty: Set[int] = set()

    for step in steps:
        if step[0] == "add":
            batch = [(next(ids), np.asarray(obs, dtype=np.int64)) for obs in step[1]]
            table.add([pid for pid, _ in batch], [obs for _, obs in batch])
            for pid, obs in batch:
                pending[pid] = obs
                dirty.add(pid)
                oracle_dirty.add(pid)
                for f in obs.tolist():
                    arrival[f].append(pid)
                    oracle_pending[f].add(pid)
        elif step[0] == "register":
            if not pending:
                continue
            pid = sorted(pending)[step[1] % len(pending)]
            obs = pending.pop(pid)
            registered.add(pid)
            dirty.discard(pid)
            oracle_dirty.discard(pid)
            for f in obs.tolist():
                oracle_pending[f].discard(pid)
                oracle_registered[f].add(pid)
            # The features that gained a view bit: any, seen or not.
            gained = np.unique(np.asarray(step[2], dtype=np.int64))
            wave = set().union(*(oracle_pending[f] for f in gained.tolist()))
            expected = len(wave - oracle_dirty)
            oracle_dirty |= wave
            assert table.dirty_observers(gained, pending, dirty) == expected
            assert dirty == oracle_dirty
        else:
            dirty.clear()
            oracle_dirty.clear()

        assert len(table) == sum(len(v) for v in arrival.values())
        for f in range(N_FEATURES):
            observers = table.observers(np.array([f])).tolist()
            assert observers == arrival[f]
            assert {p for p in observers if p in pending} == oracle_pending[f]
            assert {p for p in observers if p in registered} == oracle_registered[f]
        seen = sorted(f for f in arrival if arrival[f])
        assert table.observers(np.array(seen, dtype=np.int64)).tolist() == [
            p for f in seen for p in arrival[f]
        ]
        assert [g.tolist() for g in table.groups() if g.size] == [arrival[f] for f in seen]


def legacy_best_seed_pair(photos, min_matches):
    """The dict-of-set seed scan the table replaced: features iterate in
    first-seen order, each feature's observers in ascending photo id."""
    by_feature: Dict[int, Set[int]] = defaultdict(set)
    for pid, fids in photos:
        for fid in fids:
            by_feature[fid].add(pid)
    pair_counts: Dict[tuple, int] = defaultdict(int)
    for observers in by_feature.values():
        if len(observers) < 2:
            continue
        ordered = sorted(observers)[:40]
        for i in range(len(ordered)):
            for j in range(i + 1, len(ordered)):
                pair_counts[(ordered[i], ordered[j])] += 1
    best = None
    for (a, b), count in pair_counts.items():
        if count >= min_matches and (best is None or count > best[2]):
            best = (a, b, count)
    return best


@settings(max_examples=200, deadline=None)
@given(
    batches=st.lists(
        st.lists(
            st.lists(st.integers(0, 60), max_size=12, unique=True), min_size=1, max_size=6
        ),
        min_size=1,
        max_size=4,
    ),
    min_matches=st.integers(1, 4),
    id_seed=st.integers(0, 2**16),
)
def test_seed_pair_matches_the_dict_scan(batches, min_matches, id_seed):
    # Dense features are interned in first-seen order, as the engine
    # interns each photo on arrival; ties then break as the dict scan did.
    ids = iter(np.random.default_rng(id_seed).permutation(10_000).tolist())
    columns = FeatureColumns(
        lambda fids: (np.zeros((fids.shape[0], 3)), np.zeros(fids.shape[0], dtype=bool))
    )
    table = ObservationTable()
    photos = []
    for batch in batches:
        batch = [(next(ids), fids) for fids in batch]
        photos.extend(batch)
        table.add(
            [pid for pid, _ in batch],
            [columns.intern_many(np.asarray(fids, dtype=np.int64)) for _, fids in batch],
        )
    pending = {pid for pid, _ in photos}
    assert best_seed_pair(table, pending, min_matches) == legacy_best_seed_pair(
        photos, min_matches
    )
