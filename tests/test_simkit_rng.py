"""Tests for deterministic named RNG streams."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.simkit import RngRegistry, RngStream


class TestDeterminism:
    def test_same_name_same_sequence(self):
        a = RngStream(42, "mobility")
        b = RngStream(42, "mobility")
        assert [a.uniform() for _ in range(5)] == [b.uniform() for _ in range(5)]

    def test_different_names_differ(self):
        a = RngStream(42, "mobility")
        b = RngStream(42, "capture")
        assert [a.uniform() for _ in range(5)] != [b.uniform() for _ in range(5)]

    def test_different_seeds_differ(self):
        a = RngStream(1, "x")
        b = RngStream(2, "x")
        assert a.uniform() != b.uniform()

    def test_child_streams_independent_of_order(self):
        parent = RngStream(42, "root")
        # Drawing from the parent must not perturb children.
        child_before = parent.child("a").uniform()
        parent2 = RngStream(42, "root")
        parent2.uniform()
        parent2.uniform()
        child_after = parent2.child("a").uniform()
        assert child_before == child_after

    def test_nested_children(self):
        a = RngStream(7, "root").child("x").child("y")
        b = RngStream(7, "root/x/y")
        assert a.uniform() == b.uniform()


def eager_draws(stream):
    """One of every draw kind, in order."""
    return (
        stream.uniform(),
        stream.normal(),
        stream.integers(0, 1000),
        stream.normal_array((3, 2)).tolist(),
        stream.uniform_array(4).tolist(),
        stream.permutation(6).tolist(),
    )


class TestLazyGenerator:
    def eager(self, name):
        """The generator a stream built at construction would hold."""
        from repro.simkit.rng import _digest_seed

        stream = RngStream(5, name)
        stream._built = np.random.default_rng(_digest_seed(5, name))
        return stream

    def test_first_draw_builds_the_generator(self):
        stream = RngStream(5, "lazy")
        child = stream.child("c")
        assert stream._built is None and child._built is None
        stream.uniform()
        assert stream._built is not None and child._built is None

    def test_draws_equal_eager_construction(self):
        assert eager_draws(RngStream(5, "lazy")) == eager_draws(self.eager("lazy"))
        assert eager_draws(RngStream(5, "lazy").child("c")) == eager_draws(self.eager("lazy/c"))

    def test_deep_copy_of_an_unbuilt_stream(self):
        import copy

        original = RngStream(5, "lazy")
        clone = copy.deepcopy(original)
        assert clone._built is None
        assert eager_draws(clone) == eager_draws(self.eager("lazy"))
        # The copy drew on its own generator; the original starts fresh.
        assert original._built is None
        assert eager_draws(original) == eager_draws(self.eager("lazy"))

    def test_deep_copy_mid_stream(self):
        import copy

        stream = RngStream(5, "lazy")
        stream.uniform()
        clone = copy.deepcopy(stream)
        assert eager_draws(clone) == eager_draws(stream)


class TestDraws:
    def test_uniform_range(self, rng):
        values = [rng.uniform(2.0, 3.0) for _ in range(100)]
        assert all(2.0 <= v < 3.0 for v in values)

    def test_integers_range(self, rng):
        values = [rng.integers(0, 5) for _ in range(100)]
        assert set(values) <= {0, 1, 2, 3, 4}

    def test_chance_extremes(self, rng):
        assert not any(rng.chance(0.0) for _ in range(50))
        assert all(rng.chance(1.0) for _ in range(50))

    def test_choice(self, rng):
        assert rng.choice(["a"]) == "a"
        with pytest.raises(ValueError):
            rng.choice([])

    def test_weighted_choice_validates(self, rng):
        with pytest.raises(ValueError):
            rng.weighted_choice(["a", "b"], [1.0])
        with pytest.raises(ValueError):
            rng.weighted_choice(["a", "b"], [0.0, 0.0])

    def test_weighted_choice_respects_weights(self, rng):
        counts = {"common": 0, "rare": 0}
        for _ in range(500):
            counts[rng.weighted_choice(["common", "rare"], [50.0, 1.0])] += 1
        assert counts["common"] > counts["rare"] * 5

    def test_sample_mask_shape(self, rng):
        mask = rng.sample_mask(100, 0.5)
        assert mask.shape == (100,)
        assert mask.dtype == bool

    def test_normal_array(self, rng):
        arr = rng.normal_array((4, 5), 0.0, 1.0)
        assert arr.shape == (4, 5)

    def test_permutation(self, rng):
        perm = rng.permutation(10)
        assert sorted(perm.tolist()) == list(range(10))

    def test_shuffle_in_place(self, rng):
        items = list(range(20))
        rng.shuffle(items)
        assert sorted(items) == list(range(20))


class TestRegistry:
    def test_registry_tracks_names(self):
        registry = RngRegistry(11)
        registry.stream("b")
        registry.stream("a")
        assert list(registry.stream_names()) == ["a", "b"]

    def test_registry_streams_deterministic(self):
        r1, r2 = RngRegistry(11), RngRegistry(11)
        assert r1.stream("x").uniform() == r2.stream("x").uniform()
