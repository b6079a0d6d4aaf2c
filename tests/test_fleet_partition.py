"""Partition plan: stable hashing, repair, persistence, rebalance diffs."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.fleet import PARTITION_NAME, PartitionPlan, sector_shard


class TestSectorShard:
    def test_deterministic_and_in_range(self):
        for n_shards in (1, 2, 3, 7, 16):
            shards = [sector_shard(s, n_shards) for s in range(200)]
            assert shards == [sector_shard(s, n_shards) for s in range(200)]
            assert all(0 <= shard < n_shards for shard in shards)

    def test_single_shard_maps_everything_home(self):
        assert {sector_shard(s, 1) for s in range(50)} == {0}

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ValueError):
            sector_shard(0, 0)


class TestCompute:
    def test_covers_every_sector_exactly_once(self):
        plan = PartitionPlan.compute(100, 4)
        assert plan.assignment.shape == (100,)
        assert plan.counts().sum() == 100
        union = np.concatenate([plan.sectors_of(s) for s in range(4)])
        assert sorted(union.tolist()) == list(range(100))

    def test_deterministic(self):
        a = PartitionPlan.compute(57, 5)
        b = PartitionPlan.compute(57, 5)
        assert np.array_equal(a.assignment, b.assignment)

    @pytest.mark.parametrize(
        ("n_sectors", "n_shards"),
        [(2, 2), (3, 3), (5, 5), (6, 5), (8, 7), (10, 4)],
    )
    def test_no_empty_shards_even_at_tiny_counts(self, n_sectors, n_shards):
        plan = PartitionPlan.compute(n_sectors, n_shards)
        assert (plan.counts() >= 1).all()
        # Repair must keep the table a function only of (n, k).
        again = PartitionPlan.compute(n_sectors, n_shards)
        assert np.array_equal(plan.assignment, again.assignment)

    def test_sectors_of_ascending(self):
        plan = PartitionPlan.compute(40, 3)
        for shard in range(3):
            owned = plan.sectors_of(shard)
            assert np.array_equal(owned, np.sort(owned))

    def test_sectors_of_rejects_unknown_shard(self):
        plan = PartitionPlan.compute(10, 2)
        with pytest.raises(ValueError):
            plan.sectors_of(2)

    def test_rejects_invalid_shapes(self):
        with pytest.raises(ValueError):
            PartitionPlan.compute(0, 1)
        with pytest.raises(ValueError):
            PartitionPlan.compute(10, 0)
        with pytest.raises(ValueError):
            PartitionPlan.compute(3, 4)  # more shards than sectors
        with pytest.raises(ValueError):
            PartitionPlan.compute(10, 2, generation=-1)

    def test_shard_dir_is_generation_scoped(self):
        plan = PartitionPlan.compute(10, 2, generation=3)
        assert plan.shard_dir(1) == "g0003-shard-0001"


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        plan = PartitionPlan.compute(33, 4, generation=2)
        path = plan.save(tmp_path)
        assert path.name == PARTITION_NAME
        loaded = PartitionPlan.load(tmp_path)
        assert loaded.n_sectors == 33
        assert loaded.n_shards == 4
        assert loaded.generation == 2
        assert np.array_equal(loaded.assignment, plan.assignment)

    def test_load_missing_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            PartitionPlan.load(tmp_path)

    def test_load_rejects_truncated_table(self, tmp_path):
        plan = PartitionPlan.compute(8, 2)
        path = plan.save(tmp_path)
        payload = json.loads(path.read_text())
        payload["assignment"] = payload["assignment"][:-1]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="covers"):
            PartitionPlan.load(tmp_path)

    def test_load_rejects_out_of_range_shard(self, tmp_path):
        plan = PartitionPlan.compute(8, 2)
        path = plan.save(tmp_path)
        payload = json.loads(path.read_text())
        payload["assignment"][0] = 9
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="out-of-range"):
            PartitionPlan.load(tmp_path)
