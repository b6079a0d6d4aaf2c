"""Tests for repro.ml.rng — seeded generator helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml.rng import ensure_rng, spawn_seeds


class TestEnsureRng:
    def test_from_int(self):
        a = ensure_rng(5).random(4)
        b = ensure_rng(5).random(4)
        np.testing.assert_array_equal(a, b)

    def test_passthrough_generator(self):
        gen = np.random.default_rng(0)
        assert ensure_rng(gen) is gen

    def test_none_gives_fresh_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)


class TestSpawnSeeds:
    def test_deterministic_children(self):
        assert spawn_seeds(42, 3) == spawn_seeds(42, 3)

    def test_children_independent(self):
        a, b = (np.random.default_rng(seed) for seed in spawn_seeds(42, 2))
        assert not np.array_equal(a.random(8), b.random(8))

    def test_count_zero(self):
        assert spawn_seeds(1, 0) == []

    def test_negative_count_raises(self):
        with pytest.raises(ValueError):
            spawn_seeds(1, -1)

    def test_consumes_parent_state(self):
        parent = np.random.default_rng(9)
        before = parent.bit_generator.state["state"]["state"]
        spawn_seeds(parent, 2)
        after = parent.bit_generator.state["state"]["state"]
        assert before != after
