"""Tests for the Group-Count Sketch and its hierarchy (repro.sketches.gcs)."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.errors import SketchError
from repro.sketches.gcs import GroupCountSketch, HierarchicalGcs, gcs_hash_family
from repro.sketches.hashing import FourWiseHash, PairwiseHash
from repro.sketches.wavelet import WaveletGcsSketch

# (universe, shift, depth, group_buckets, item_buckets, seed)
FAMILY_KEY = (256, 2, 3, 16, 4, 9)


def _populated_sketch(seed: int = 11) -> GroupCountSketch:
    sketch = GroupCountSketch(universe=256, shift=4, depth=3, group_buckets=32,
                              item_buckets=8, seed=seed)
    # Group 3 (items 48..63) carries almost all the energy.
    items = np.array([48, 49, 50, 200], dtype=np.int64)
    deltas = np.array([100.0, -80.0, 60.0, 2.0])
    sketch.update_batch(items, deltas)
    return sketch


class TestGroupCountSketch:
    def test_group_energy_identifies_heavy_group(self):
        sketch = _populated_sketch()
        heavy = sketch.group_energy(3)
        light = sketch.group_energy(12)  # items 192..207 hold only the +2 update
        assert heavy > light
        assert heavy == pytest.approx(100**2 + 80**2 + 60**2, rel=0.5)

    def test_point_estimates_at_finest_shift(self):
        sketch = GroupCountSketch(universe=128, shift=0, depth=5, group_buckets=64,
                                  item_buckets=8, seed=5)
        sketch.update(10, 500.0)
        sketch.update(11, -3.0)
        sketch.update(90, 7.0)
        assert sketch.estimate_item(10) == pytest.approx(500.0, rel=0.05)

    def test_single_and_batch_updates_agree(self):
        a = GroupCountSketch(universe=64, shift=2, seed=3)
        b = GroupCountSketch(universe=64, shift=2, seed=3)
        updates = [(1, 5.0), (20, -2.0), (63, 8.0)]
        for item, delta in updates:
            a.update(item, delta)
        b.update_batch(np.array([u[0] for u in updates]), np.array([u[1] for u in updates]))
        for group in range(b.num_groups):
            assert a.group_energy(group) == pytest.approx(b.group_energy(group))

    def test_batch_update_matches_per_item_loops_bit_for_bit(self):
        """update_batch accumulates every cell in item order: the table equals
        per-item update() calls and a plain Python loop over the shared hash
        tables, bit for bit, repeated items and cell collisions included."""
        shape = dict(universe=4096, shift=3, depth=3, group_buckets=64,
                     item_buckets=16, seed=5)
        rng = np.random.default_rng(8)
        items = rng.integers(0, 4096, 3_000)
        items[::7] = 17
        deltas = rng.normal(0.0, 50.0, items.size)
        batched = GroupCountSketch(**shape)
        batched.update_batch(items, deltas)
        one_by_one = GroupCountSketch(**shape)
        expected = np.zeros((3, 64, 16))
        for item, delta in zip(items.tolist(), deltas.tolist()):
            one_by_one.update(item, delta)
            for row in range(3):
                bucket = batched._group_bucket[row, item >> 3]
                sub = batched._item_bucket[row, item]
                expected[row, bucket, sub] += delta * batched._item_sign[row, item]
        assert batched._table.tobytes() == expected.tobytes()
        assert one_by_one._table.tobytes() == expected.tobytes()

    def test_merge_in_place_is_linear(self):
        a = _populated_sketch(seed=21)
        b = GroupCountSketch(universe=256, shift=4, depth=3, group_buckets=32,
                             item_buckets=8, seed=21)
        b.update(48, -100.0)
        b.update(49, 80.0)
        b.update(50, -60.0)
        b.update(200, -2.0)
        a.merge_in_place(b)
        # Everything cancelled, so every group's energy estimate is zero.
        for group in range(a.num_groups):
            assert a.group_energy(group) == pytest.approx(0.0, abs=1e-9)

    def test_merge_rejects_incompatible(self):
        a = GroupCountSketch(universe=64, shift=2, seed=1)
        b = GroupCountSketch(universe=64, shift=2, seed=2)
        with pytest.raises(SketchError):
            a.merge_in_place(b)

    def test_update_validation(self):
        sketch = GroupCountSketch(universe=64, shift=2, seed=1)
        with pytest.raises(SketchError):
            sketch.update(64, 1.0)
        with pytest.raises(SketchError):
            sketch.update_batch(np.array([1, 2]), np.array([1.0]))

    def test_constructor_validation(self):
        with pytest.raises(SketchError):
            GroupCountSketch(universe=0, shift=0)
        with pytest.raises(SketchError):
            GroupCountSketch(universe=16, shift=-1)
        with pytest.raises(SketchError):
            GroupCountSketch(universe=16, shift=0, depth=0)

    def test_sizes_and_update_ops(self):
        sketch = GroupCountSketch(universe=64, shift=0, depth=2, group_buckets=8,
                                  item_buckets=4, seed=1)
        assert sketch.total_cells == 64
        sketch.update(3, 5.0)
        assert sketch.update_ops == 2
        assert sketch.nonzero_entries() == 2
        assert sketch.serialized_size_bytes() == 24

    def test_empty_batch_is_a_noop(self):
        sketch = GroupCountSketch(universe=64, shift=0, seed=1)
        sketch.update_batch(np.array([], dtype=np.int64), np.array([], dtype=float))
        assert sketch.nonzero_entries() == 0


class TestHierarchicalGcs:
    def test_constructor_levels(self):
        gcs = HierarchicalGcs(universe=4096, branching=8, depth=3, group_buckets=32,
                              item_buckets=8, seed=7)
        assert gcs.num_levels >= 4
        assert gcs.levels[0].shift == 0  # finest level first
        shifts = [level.shift for level in gcs.levels]
        assert shifts == sorted(shifts)

    def test_rejects_bad_universe_or_branching(self):
        with pytest.raises(SketchError):
            HierarchicalGcs(universe=100)
        with pytest.raises(SketchError):
            HierarchicalGcs(universe=64, branching=3)

    def test_search_finds_planted_heavy_items(self):
        gcs = HierarchicalGcs(universe=4096, branching=8, depth=3, group_buckets=64,
                              item_buckets=8, seed=13)
        heavy = {5: 900.0, 600: -750.0, 3000: 820.0}
        rng = np.random.default_rng(0)
        noise_items = rng.choice(4096, size=200, replace=False)
        for item, value in heavy.items():
            gcs.update(item, value)
        for item in noise_items:
            if int(item) not in heavy:
                gcs.update(int(item), float(rng.normal(scale=2.0)))
        found = gcs.search_top_k(3)
        assert set(found) == set(heavy)
        for item, value in heavy.items():
            assert found[item] == pytest.approx(value, rel=0.1)

    def test_search_respects_k(self):
        gcs = HierarchicalGcs(universe=256, seed=3)
        for item in range(20):
            gcs.update(item * 13 % 256, float(100 + item))
        assert len(gcs.search_top_k(5)) <= 5

    def test_significance_filter_suppresses_noise_only_results(self):
        gcs = HierarchicalGcs(universe=1024, depth=3, group_buckets=8, item_buckets=4, seed=5)
        rng = np.random.default_rng(1)
        for item in rng.choice(1024, size=400, replace=False):
            gcs.update(int(item), float(rng.normal(scale=1.0)))
        strict = gcs.search_top_k(10, significance=4.0)
        relaxed = gcs.search_top_k(10, significance=0.0)
        assert len(strict) <= len(relaxed)

    def test_merge_matches_single_sketch_of_union(self):
        kwargs = dict(universe=512, branching=4, depth=3, group_buckets=32,
                      item_buckets=8, seed=17)
        a = HierarchicalGcs(**kwargs)
        b = HierarchicalGcs(**kwargs)
        union = HierarchicalGcs(**kwargs)
        for item, value in [(3, 100.0), (200, -40.0)]:
            a.update(item, value)
            union.update(item, value)
        for item, value in [(200, -60.0), (400, 90.0)]:
            b.update(item, value)
            union.update(item, value)
        a.merge_in_place(b)
        for item in (3, 200, 400, 17):
            assert a.estimate_item(item) == pytest.approx(union.estimate_item(item))

    def test_merge_rejects_incompatible_hierarchies(self):
        a = HierarchicalGcs(universe=512, seed=1)
        b = HierarchicalGcs(universe=512, seed=2)
        with pytest.raises(SketchError):
            a.merge_in_place(b)

    def test_from_space_budget_respects_bytes(self):
        gcs = HierarchicalGcs.from_space_budget(universe=4096, bytes_per_level=8192,
                                                branching=8, depth=3)
        for level in gcs.levels:
            assert level.total_cells * 8 <= 8192 * 1.01

    def test_update_ops_and_sizes_accumulate(self):
        gcs = HierarchicalGcs(universe=256, seed=2)
        gcs.update(1, 10.0)
        assert gcs.update_ops == gcs.num_levels * gcs.depth
        assert gcs.nonzero_entries() > 0
        assert gcs.serialized_size_bytes() == gcs.nonzero_entries() * 12
        assert gcs.total_cells == sum(level.total_cells for level in gcs.levels)

    def test_search_validation(self):
        gcs = HierarchicalGcs(universe=256, seed=2)
        with pytest.raises(SketchError):
            gcs.search_top_k(0)


class TestHashFamily:
    def test_equal_parameters_share_one_read_only_family(self):
        a = GroupCountSketch(*FAMILY_KEY)
        b = GroupCountSketch(*FAMILY_KEY)
        for name in ("_group_bucket", "_item_bucket", "_item_sign"):
            assert np.shares_memory(getattr(a, name), getattr(b, name))
            with pytest.raises(ValueError):
                getattr(a, name)[0, 0] = 1
        # The counters stay private to each sketch.
        a.update(5, 3.0)
        assert not np.shares_memory(a._table, b._table)
        assert b.nonzero_entries() == 0

    @pytest.mark.parametrize("position", range(len(FAMILY_KEY)))
    def test_each_key_parameter_selects_its_own_family(self, position):
        changed = list(FAMILY_KEY)
        changed[position] += 1
        assert gcs_hash_family(*FAMILY_KEY) is gcs_hash_family(*FAMILY_KEY)
        assert gcs_hash_family(*changed) is not gcs_hash_family(*FAMILY_KEY)
        base, other = GroupCountSketch(*FAMILY_KEY), GroupCountSketch(*changed)
        assert not np.shares_memory(base._item_bucket, other._item_bucket)

    def test_family_is_drawn_from_the_seed_row_by_row(self):
        universe, shift, depth, group_buckets, item_buckets, seed = FAMILY_KEY
        family = gcs_hash_family(*FAMILY_KEY)
        rng = np.random.default_rng(seed)
        items = np.arange(universe)
        groups = np.arange(universe >> shift)
        for row in range(depth):
            group_hash, item_hash = PairwiseHash(rng=rng), PairwiseHash(rng=rng)
            sign_hash = FourWiseHash(rng=rng)
            np.testing.assert_array_equal(family.group_bucket[row],
                                          group_hash.bucket_array(groups, group_buckets))
            np.testing.assert_array_equal(family.item_bucket[row],
                                          item_hash.bucket_array(items, item_buckets))
            np.testing.assert_array_equal(family.item_sign[row], sign_hash.sign_array(items))

    def test_pickled_anchor_sketch_carries_only_its_counters(self):
        sketch = WaveletGcsSketch(u=2 ** 15, bytes_per_level=8 * 1024, seed=131)
        sketch.update_frequency_vector({1: 4.0, 77: 2.0, 30_000: 9.0})
        assert len(pickle.dumps(sketch, protocol=5)) < 64 * 1024

    def test_batched_scoring_matches_per_group_calls_bit_for_bit(self):
        for depth in (2, 3, 4):
            gcs = HierarchicalGcs(universe=1024, branching=4, depth=depth,
                                  group_buckets=16, item_buckets=8, seed=depth)
            rng = np.random.default_rng(depth)
            items = rng.choice(1024, size=300, replace=False)
            gcs.update_batch(items, rng.normal(scale=50.0, size=items.size))
            for level in gcs.levels:
                groups = np.arange(level.num_groups)
                assert level.group_energies(groups).tolist() == [
                    level.group_energy(group) for group in range(level.num_groups)]

    @pytest.mark.parametrize("beam_width", [2, 5, None])
    def test_search_keeps_the_descending_energy_then_group_order(self, beam_width):
        # Few heavy items leave most groups tied at zero energy, so the beam
        # cut falls inside a tie; the reference walk scores one group at a
        # time and sorts (energy, group) pairs in descending order.
        gcs = HierarchicalGcs(universe=512, branching=4, depth=3, group_buckets=16,
                              item_buckets=4, seed=23)
        gcs.update_batch(np.array([3, 4, 130, 131, 400]),
                         np.array([50.0, 50.0, -50.0, 50.0, 20.0]))
        k = 3
        beam = beam_width if beam_width is not None else max(4 * k, 32)
        levels = gcs.levels
        candidates = list(range(levels[-1].num_groups))
        for index in range(len(levels) - 1, 0, -1):
            scored = sorted(((levels[index].group_energy(g), g) for g in candidates),
                            reverse=True)
            ratio = (1 << levels[index].shift) >> levels[index - 1].shift
            candidates = [child for _, group in scored[:beam]
                          for child in range(group * ratio, group * ratio + ratio)
                          if child < levels[index - 1].num_groups]
        scored = sorted(((levels[0].group_energy(i), i) for i in candidates), reverse=True)
        estimates = {item: levels[0].estimate_item(item) for _, item in scored[:max(beam, k)]}
        threshold = 2.0 * gcs.noise_floor()
        ranked = sorted(((item, value) for item, value in estimates.items()
                         if abs(value) >= threshold),
                        key=lambda pair: (abs(pair[1]), -pair[0]), reverse=True)
        expected = {item: value for item, value in ranked[:k] if value != 0.0}
        assert gcs.search_top_k(k, beam_width=beam_width) == expected
