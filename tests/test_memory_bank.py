"""Memory banks: aggregation, greedy coreset, exact NN scoring, MBNK1 files."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvpad import (
    AnomalyMap2D,
    ExtractorConfig,
    FeatureGrid,
    MemoryBank,
    PhantomConfig,
    ProjectionType,
    anomaly_map,
    build_bank,
    bulk_nn_distance,
    generate_case,
    greedy_coreset,
    load_bank,
    nn_distance,
    project_case,
    save_bank,
    split_left_right,
)
from mvpad.errors import (
    DimensionMismatchError,
    ExtractorMismatchError,
    HeaderFormatError,
    InvalidArgumentError,
    PayloadSizeError,
)
from mvpad.features import extract_features
from mvpad.memory_bank import _distance_grid, _first_unique_rows, aggregate_bank, bank_filename, coreset_size
from mvpad.projection import ALL_PROJECTIONS, bilinear_sample

PT = ProjectionType.RIGHT_AXIAL


def make_grid(features, ptype=PT, extractor_hash="test-hash", patch_size=3, stride=2, canvas=None):
    features = np.asarray(features, dtype=np.float32)
    if canvas is None:
        gh, gw = features.shape[:2]
        canvas = ((gh - 1) * stride + patch_size, (gw - 1) * stride + patch_size)
    return FeatureGrid(
        ptype=ptype,
        features=features,
        extractor_hash=extractor_hash,
        patch_size=patch_size,
        stride=stride,
        canvas=canvas,
    )


def make_bank(entries, ptype=PT, extractor_hash="test-hash", coreset_frac=1.0, source_count=None):
    entries = np.asarray(entries, dtype=np.float32)
    return MemoryBank(
        ptype=ptype,
        entries=entries,
        extractor_hash=extractor_hash,
        coreset_frac=coreset_frac,
        source_count=source_count if source_count is not None else entries.shape[0],
    )


class TestAggregate:
    def test_single_grid_counts_locations(self):
        grid = make_grid(np.arange(12, dtype=np.float32).reshape(2, 2, 3))
        raw = aggregate_bank([grid])
        assert raw.shape == (4, 3)
        np.testing.assert_array_equal(raw, grid.flat())

    def test_duplicate_grids_are_retained(self):
        grid = make_grid(np.ones((2, 2, 3), dtype=np.float32))
        raw = aggregate_bank([grid, grid])
        assert raw.shape == (8, 3)

    def test_mixed_extractor_hash_rejected(self):
        a = make_grid(np.zeros((1, 1, 3)), extractor_hash="one")
        b = make_grid(np.zeros((1, 1, 3)), extractor_hash="two")
        with pytest.raises(ExtractorMismatchError):
            aggregate_bank([a, b])

    def test_mixed_ptype_rejected(self):
        a = make_grid(np.zeros((1, 1, 3)), ptype=ProjectionType.RIGHT_AXIAL)
        b = make_grid(np.zeros((1, 1, 3)), ptype=ProjectionType.LEFT_AXIAL)
        with pytest.raises(ExtractorMismatchError):
            aggregate_bank([a, b])

    def test_mixed_feature_dim_rejected(self):
        a = make_grid(np.zeros((1, 1, 3)))
        b = make_grid(np.zeros((1, 1, 4)))
        with pytest.raises(DimensionMismatchError):
            aggregate_bank([a, b])

    def test_empty_list_rejected(self):
        with pytest.raises(InvalidArgumentError):
            aggregate_bank([])


class TestGreedyCoreset:
    def test_hand_traced_one_dimensional_example(self):
        # mean of {0, 1, 10} is ~3.67, so 10 is picked first, then 0
        pts = np.array([[0.0], [1.0], [10.0]])
        np.testing.assert_array_equal(greedy_coreset(pts, 2), [2, 0])

    def test_full_size_returns_every_index(self):
        pts = np.random.default_rng(61).random((7, 3))
        assert set(greedy_coreset(pts, 7).tolist()) == set(range(7))

    def test_ties_break_to_lowest_index(self):
        pts = np.array([[0.0], [0.0], [10.0], [10.0]])
        np.testing.assert_array_equal(greedy_coreset(pts, 3), [0, 2, 1])

    def test_out_of_range_size_rejected(self):
        pts = np.zeros((3, 2))
        with pytest.raises(InvalidArgumentError):
            greedy_coreset(pts, 0)
        with pytest.raises(InvalidArgumentError):
            greedy_coreset(pts, 4)

    def test_deterministic_across_calls(self):
        pts = np.random.default_rng(62).random((50, 8), dtype=np.float32)
        np.testing.assert_array_equal(greedy_coreset(pts, 10), greedy_coreset(pts, 10))

    @staticmethod
    def covering_radius(pts, chosen):
        d = np.linalg.norm(pts[:, None, :] - pts[None, chosen, :], axis=2)
        return float(d.min(axis=1).max())

    def test_within_twice_exhaustive_optimum(self):
        rng = np.random.default_rng(63)
        for _ in range(20):
            n = int(rng.integers(4, 9))
            c = int(rng.integers(1, 4))
            pts = rng.random((n, 2))
            greedy = self.covering_radius(pts, np.asarray(greedy_coreset(pts, c)))
            optimal = min(
                self.covering_radius(pts, np.asarray(sub))
                for sub in itertools.combinations(range(n), c)
            )
            assert greedy <= 2.0 * optimal + 1e-9

    def test_coreset_size_rule(self):
        assert coreset_size(100, 0.1) == 10
        assert coreset_size(5, 0.001) == 1
        assert coreset_size(10, 1.0) == 10
        assert coreset_size(3, 0.9) == 3

    @pytest.mark.parametrize(
        "pts",
        [[[1e300], [0.0], [1.0], [5.0]], [[np.inf], [0.0], [1.0], [5.0]], [[0.0, np.nan], [1.0, 2.0]]],
    )
    def test_non_finite_points_rejected(self, pts):
        # 1e300 overflows to inf in the float32 cast
        with pytest.raises(InvalidArgumentError):
            greedy_coreset(np.asarray(pts), 2)


def _reference_coreset(points, C):
    """The greedy loop over every row, duplicates included: the selection
    the unique-row loop must reproduce."""
    pts = np.ascontiguousarray(points, dtype=np.float32)
    n = pts.shape[0]
    pts64 = pts.astype(np.float64)
    diff = pts64 - pts64.mean(axis=0)
    first = int(np.argmax(np.einsum("ij,ij->i", diff, diff)))
    selected = np.empty(C, dtype=np.int64)
    selected[0] = first
    if C == 1:
        return selected
    norms = np.einsum("ij,ij->i", pts, pts)
    min_sqdist = np.full(n, np.inf, dtype=np.float32)
    min_sqdist[first] = -1.0
    d2 = np.empty(n, dtype=np.float32)
    for k in range(1, C):
        prev = int(selected[k - 1])
        np.multiply(pts @ pts[prev], np.float32(-2.0), out=d2)
        d2 += norms
        d2 += norms[prev]
        np.minimum(min_sqdist, d2, out=min_sqdist)
        best = int(np.argmax(min_sqdist))
        selected[k] = best
        min_sqdist[best] = -1.0
    return selected


@st.composite
def lattice_coreset_case(draw):
    """Small-integer lattice points with shuffled duplicates, scaled by 1 or
    2**-20 (float32 arithmetic on them is exact), and a coreset size on
    either side of the unique count."""
    d = draw(st.integers(1, 4))
    point = st.lists(st.integers(-2, 2), min_size=d, max_size=d)
    unique = draw(st.lists(point, min_size=1, max_size=10, unique_by=tuple))
    repeats = draw(st.lists(st.sampled_from(unique), max_size=20))
    rows = draw(st.permutations(unique + repeats))
    scale = draw(st.sampled_from([1.0, 2.0**-20]))
    C = draw(st.integers(1, len(rows)))
    return scale * np.array(rows, dtype=np.float64), C, len(unique)


@pytest.fixture(scope="module")
def phantom_bank_rows():
    """Aggregated right-axial features of six small phantoms: about a third
    of the rows are exact duplicates of the zero background."""
    at = ALL_PROJECTIONS.index(PT)
    grids = []
    for seed in range(6):
        ct, mask, _ = generate_case(PhantomConfig(dims=(32, 48, 48), seed=seed, vessel_count=6))
        image, _ = project_case(ct, split_left_right(mask), canvas=(96, 96))[at]
        grids.append(extract_features(image, ExtractorConfig()))
    return grids, aggregate_bank(grids)


class TestUniqueRowCoreset:
    """greedy_coreset runs over unique rows yet selects what the full loop does."""

    @settings(max_examples=100, deadline=None)
    @given(case=lattice_coreset_case())
    def test_matches_full_loop_on_lattices(self, case):
        pts, C, n_unique = case
        got = greedy_coreset(pts, C)
        np.testing.assert_array_equal(got, _reference_coreset(pts, C))
        if C <= n_unique:
            assert np.unique(pts[got], axis=0).shape[0] == C

    def test_matches_full_loop_on_phantom_bank(self, phantom_bank_rows):
        grids, raw = phantom_bank_rows
        assert _first_unique_rows(raw).size < 0.9 * raw.shape[0]
        size = coreset_size(raw.shape[0], 0.1)
        ref = _reference_coreset(raw, size)
        np.testing.assert_array_equal(greedy_coreset(raw, size), ref)
        bank = build_bank(grids, coreset_frac=0.1)
        assert bank.entries.tobytes() == raw[ref].tobytes()

    def test_first_unique_rows_matches_numpy_unique(self, phantom_bank_rows):
        _, raw = phantom_bank_rows
        rng = np.random.default_rng(66)
        lattice = rng.integers(-2, 3, size=(500, 3)).astype(np.float64)
        for a in (raw, raw[rng.permutation(raw.shape[0])], raw.astype(np.float64), lattice, lattice[:1]):
            a = np.ascontiguousarray(a)
            _, first = np.unique(a, axis=0, return_index=True)
            np.testing.assert_array_equal(_first_unique_rows(a), np.sort(first))

    def test_first_unique_rows_tells_signed_zeros_apart(self):
        a = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [-0.0, 1.0]])
        np.testing.assert_array_equal(_first_unique_rows(a), [0, 1])


class TestBankBuild:
    def test_frac_one_keeps_every_feature_in_order(self):
        grid = make_grid(np.random.default_rng(64).random((3, 2, 4), dtype=np.float32))
        bank = build_bank([grid], coreset_frac=1.0)
        np.testing.assert_array_equal(bank.entries, grid.flat())
        assert bank.source_count == 6
        assert bank.count == 6

    def test_subsampled_bank_rows_come_from_the_raw_set(self):
        rng = np.random.default_rng(65)
        grid = make_grid(rng.random((4, 5, 3), dtype=np.float32))
        bank = build_bank([grid], coreset_frac=0.5)
        assert bank.count == 10
        assert bank.source_count == 20
        raw_rows = {tuple(r) for r in grid.flat().tolist()}
        assert all(tuple(r) in raw_rows for r in bank.entries.tolist())

    def test_invalid_frac_rejected(self):
        grid = make_grid(np.zeros((1, 1, 2)))
        with pytest.raises(InvalidArgumentError):
            build_bank([grid], coreset_frac=0.0)
        with pytest.raises(InvalidArgumentError):
            build_bank([grid], coreset_frac=1.5)

    def test_bank_validation(self):
        with pytest.raises(InvalidArgumentError):
            make_bank(np.zeros((0, 3)))
        with pytest.raises(InvalidArgumentError):
            make_bank(np.full((2, 3), np.nan))
        with pytest.raises(InvalidArgumentError):
            make_bank(np.zeros((4, 3)), source_count=2)

    def test_zero_width_entries_rejected(self):
        with pytest.raises(InvalidArgumentError):
            make_bank(np.zeros((3, 0)))


class TestNNDistance:
    def test_query_equal_to_entry_is_zero(self):
        bank = make_bank([[1.0, 2.0], [3.0, 4.0]])
        d, idx = nn_distance([3.0, 4.0], bank)
        assert d == 0.0 and idx == 1

    def test_two_candidate_hand_check(self):
        bank = make_bank([[0.0, 0.0], [1.0, 0.0]])
        d, idx = nn_distance([0.4, 0.0], bank)
        assert d == pytest.approx(0.4)
        assert idx == 0

    def test_tie_goes_to_lowest_index(self):
        bank = make_bank([[0.0], [2.0]])
        d, idx = nn_distance([1.0], bank)
        assert d == 1.0 and idx == 0

    def test_dim_mismatch_rejected(self):
        bank = make_bank([[0.0, 0.0]])
        with pytest.raises(DimensionMismatchError):
            nn_distance([1.0], bank)

    def test_matches_exhaustive_scan_exactly(self):
        rng = np.random.default_rng(66)
        for _ in range(30):
            entries = rng.random((int(rng.integers(1, 40)), 6)).astype(np.float32)
            bank = make_bank(entries)
            query = rng.random(6)
            d, idx = nn_distance(query, bank)
            # independent scan: same elementwise reduction per entry, python argmin
            best_d2, best_i = None, None
            for i in range(entries.shape[0]):
                diff = entries[i].astype(np.float64) - np.asarray(query, dtype=np.float64)
                d2 = float((diff * diff).sum())
                if best_d2 is None or d2 < best_d2:
                    best_d2, best_i = d2, i
            assert idx == best_i
            assert d == float(np.sqrt(best_d2))


class TestBulkNN:
    def test_matches_single_query_path_bitwise(self):
        rng = np.random.default_rng(67)
        entries = rng.random((300, 20), dtype=np.float32)
        entries[17] = entries[3]  # exact duplicate: tie must go to index 3
        queries = rng.random((600, 20)).astype(np.float32).astype(np.float64)
        queries[5] = entries[3]
        bank = make_bank(entries)
        d2, idx = bulk_nn_distance(queries, entries.astype(np.float32))
        for row in range(queries.shape[0]):
            d_ref, i_ref = nn_distance(queries[row], bank)
            assert idx[row] == i_ref
            assert float(np.sqrt(d2[row])) == d_ref
        assert d2[5] == 0.0 and idx[5] == 3

    def test_huge_values_fall_back_to_full_scan(self):
        entries = np.array([[1e25, 0.0], [0.0, 1e25]], dtype=np.float64)
        queries = np.array([[1e25, 1.0]], dtype=np.float64)
        d2, idx = bulk_nn_distance(queries, entries)
        assert idx[0] == 0
        assert d2[0] == 1.0

    def test_shrinking_the_bank_never_lowers_distances(self):
        rng = np.random.default_rng(68)
        entries = rng.random((80, 10))
        queries = rng.random((40, 10))
        d_full, _ = bulk_nn_distance(queries, entries)
        d_sub, _ = bulk_nn_distance(queries, entries[:20])
        assert np.all(d_sub >= d_full)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            bulk_nn_distance(np.zeros((2, 3)), np.zeros((2, 4)))


def full_scan(queries, entries):
    """The oracle: plain elementwise squared distances to every entry, argmin."""
    e = np.asarray(entries, dtype=np.float64)
    d2, idx = [], []
    for q in np.asarray(queries, dtype=np.float64):
        diff = e - q
        row = (diff * diff).sum(axis=1)
        j = int(np.argmin(row))
        d2.append(row[j])
        idx.append(j)
    return np.array(d2, dtype=np.float64), np.array(idx, dtype=np.int64)


def assert_matches_full_scan(queries, entries):
    queries = np.asarray(queries, dtype=np.float64).reshape(-1, entries.shape[1])
    d2, idx = bulk_nn_distance(queries, entries)
    ref_d2, ref_idx = full_scan(queries, entries)
    np.testing.assert_array_equal(idx, ref_idx)
    assert d2.tobytes() == ref_d2.tobytes()


NN_PROPS = settings(max_examples=60, deadline=None)


@st.composite
def lattice_nn_case(draw, dims=st.integers(1, 4), max_unique=8):
    """Small-integer lattice entries, some repeated and all shuffled, scaled
    by 1, 2**-20 or 1e25 and optionally shifted to near 1e25, with lattice or
    half-lattice queries: nearly every query ties."""
    d = draw(dims)
    point = st.lists(st.integers(-2, 2), min_size=d, max_size=d)
    unique = draw(st.lists(point, min_size=1, max_size=max_unique, unique_by=tuple))
    repeats = draw(st.lists(st.sampled_from(unique), max_size=2 * max_unique))
    rows = draw(st.permutations(unique + repeats))
    queries = draw(st.lists(st.lists(st.integers(-5, 5), min_size=d, max_size=d), max_size=12))
    scale = draw(st.sampled_from([1.0, 2.0**-20, 1e25]))
    shift = draw(st.sampled_from([0.0, 1e25]))
    entries = shift + scale * np.array(rows, dtype=np.float64)
    return shift + scale * np.array(queries, dtype=np.float64).reshape(-1, d) / 2, entries


class TestBulkNNContract:
    """bulk_nn_distance equals the full-scan oracle bit for bit on tie-heavy input."""

    @NN_PROPS
    @given(case=lattice_nn_case())
    def test_lattice_with_shuffled_duplicates(self, case):
        assert_matches_full_scan(*case)

    @NN_PROPS
    @given(case=lattice_nn_case(dims=st.just(1)))
    def test_one_dimension(self, case):
        assert_matches_full_scan(*case)

    @NN_PROPS
    @given(case=lattice_nn_case(max_unique=1))
    def test_one_entry_bank(self, case):
        queries, entries = case
        assert_matches_full_scan(queries, entries[:1])
        assert_matches_full_scan(queries, entries)  # one unique row, repeated

    @NN_PROPS
    @given(
        entries=st.lists(st.floats(-3, 3, width=32), min_size=3, max_size=30).map(
            lambda xs: np.array(xs[: len(xs) // 3 * 3], dtype=np.float32).reshape(-1, 3)
        ),
        queries=st.lists(st.floats(-3, 3), min_size=3, max_size=30).map(
            lambda xs: np.array(xs[: len(xs) // 3 * 3]).reshape(-1, 3)
        ),
    )
    def test_arbitrary_float32_banks(self, entries, queries):
        assert_matches_full_scan(queries, entries)

    def test_real_sized_bank_with_zero_background(self):
        rng = np.random.default_rng(72)
        entries = rng.random((1500, 20), dtype=np.float32)
        entries[rng.random(1500) < 0.3] = 0.0  # a third of the rows tie at the origin
        queries = rng.random((2000, 20), dtype=np.float32).astype(np.float64)
        queries[::3] = 0.0
        queries[1::7] = entries[rng.integers(0, 1500, size=queries[1::7].shape[0])]
        assert_matches_full_scan(queries, entries)

    def test_overflowing_distances_tie_to_entry_zero(self):
        entries = np.array([[1e200, 0.0], [0.0, 1e200], [1e200, 0.0]])
        queries = np.array([[1e200, 1.0], [-1e200, -1e200], [0.0, 0.0]])
        with np.errstate(over="ignore"):
            assert_matches_full_scan(queries, entries)

    @NN_PROPS
    @given(case=lattice_nn_case(), data=st.data())
    def test_signed_zero_twins_with_shuffled_duplicates(self, case, data):
        # entries that differ only in the sign of a zero are kept apart as
        # exact ties; the lowest index must still win
        queries, entries = case
        flips = data.draw(st.lists(st.booleans(), min_size=entries.size, max_size=entries.size))
        twins = np.where((entries == 0) & np.reshape(flips, entries.shape), -0.0, entries)
        mixed = np.concatenate([entries, twins, entries])[data.draw(st.permutations(range(3 * len(entries))))]
        assert_matches_full_scan(queries, mixed)

    def test_signed_zero_twins_tie_to_lowest_index(self):
        entries = np.array([[-0.0, 1.0], [0.0, 1.0], [0.0, -0.0], [-0.0, 0.0], [0.0, 0.0]])
        queries = np.array([[0.0, 1.0], [-0.0, 0.0], [0.0, 0.5], [0.25, 0.0]])
        assert_matches_full_scan(queries, entries)
        np.testing.assert_array_equal(bulk_nn_distance(queries, entries)[1], [0, 2, 0, 2])

    def test_no_queries(self):
        d2, idx = bulk_nn_distance(np.zeros((0, 2)), np.ones((3, 2)))
        assert d2.shape == idx.shape == (0,)

    def test_rejects_empty_bank_and_non_finite_input(self):
        with pytest.raises(InvalidArgumentError):
            bulk_nn_distance(np.zeros((1, 2)), np.zeros((0, 2)))
        with pytest.raises(InvalidArgumentError):
            bulk_nn_distance(np.full((1, 2), np.nan), np.zeros((1, 2)))
        with pytest.raises(InvalidArgumentError):
            bulk_nn_distance(np.zeros((1, 2)), np.full((1, 2), np.inf))

    def test_rejects_zero_width_features(self):
        with pytest.raises(InvalidArgumentError):
            bulk_nn_distance(np.zeros((2, 0)), np.zeros((3, 0)))


class TestAnomalyMap:
    def test_training_features_score_zero(self):
        rng = np.random.default_rng(69)
        grid = make_grid(rng.random((3, 3, 4), dtype=np.float32))
        bank = build_bank([grid], coreset_frac=1.0)
        amap = anomaly_map(grid, bank, smoothing_sigma=0.0)
        assert amap.score == 0.0
        assert not amap.pixels.any()

    def test_single_location_paints_constant_distance(self):
        grid = make_grid(np.array([[[1.0, 0.0]]], dtype=np.float32), patch_size=9, stride=4, canvas=(9, 9))
        bank = make_bank([[0.0, 0.0]])
        amap = anomaly_map(grid, bank, smoothing_sigma=0.0)
        np.testing.assert_array_equal(amap.pixels, np.ones((9, 9), dtype=np.float32))
        assert amap.score == 1.0

    def test_unsmoothed_score_is_max_of_distance_grid(self):
        rng = np.random.default_rng(70)
        grid = make_grid(rng.random((4, 5, 3), dtype=np.float32))
        bank = make_bank(rng.random((12, 3), dtype=np.float32))
        amap = anomaly_map(grid, bank, smoothing_sigma=0.0)
        per_loc = [nn_distance(vec, bank)[0] for vec in grid.flat()]
        assert amap.score == pytest.approx(max(per_loc), rel=1e-6)

    def test_broadcast_painting_equals_flat_coordinate_arrays(self):
        # painting with a column of rows and a row of columns equals
        # painting at the flat repeat/tile coordinate arrays, byte for byte
        rng = np.random.default_rng(73)
        grid = make_grid(rng.random((4, 7, 3), dtype=np.float32), patch_size=5, stride=3, canvas=(14, 23))
        bank = make_bank(rng.random((9, 3), dtype=np.float32))
        dgrid = _distance_grid(grid, bank)
        h, w = grid.canvas
        gi = (np.arange(h, dtype=np.float64) - 2.0) / 3
        gj = (np.arange(w, dtype=np.float64) - 2.0) / 3
        flat = bilinear_sample(dgrid, np.repeat(gi, w), np.tile(gj, h)).reshape(h, w)
        pixels = anomaly_map(grid, bank, smoothing_sigma=0.0).pixels
        assert pixels.tobytes() == flat.astype(np.float32).tobytes()

    def test_map_invariant_to_bank_entry_order(self):
        rng = np.random.default_rng(71)
        grid = make_grid(rng.random((3, 3, 4), dtype=np.float32))
        entries = rng.random((10, 4), dtype=np.float32)
        a = anomaly_map(grid, make_bank(entries))
        b = anomaly_map(grid, make_bank(entries[::-1].copy()))
        np.testing.assert_array_equal(a.pixels, b.pixels)
        assert a.score == b.score

    def test_smoothing_never_raises_the_max(self):
        rng = np.random.default_rng(72)
        grid = make_grid(rng.random((4, 4, 3), dtype=np.float32))
        bank = make_bank(rng.random((8, 3), dtype=np.float32))
        sharp = anomaly_map(grid, bank, smoothing_sigma=0.0)
        smooth = anomaly_map(grid, bank, smoothing_sigma=2.0)
        assert smooth.score <= sharp.score + 1e-6

    def test_mismatches_rejected(self):
        grid = make_grid(np.zeros((2, 2, 3)))
        with pytest.raises(ExtractorMismatchError):
            anomaly_map(grid, make_bank(np.zeros((2, 3)), ptype=ProjectionType.LEFT_CORONAL))
        with pytest.raises(ExtractorMismatchError):
            anomaly_map(grid, make_bank(np.zeros((2, 3)), extractor_hash="other"))
        with pytest.raises(DimensionMismatchError):
            anomaly_map(grid, make_bank(np.zeros((2, 5))))
        with pytest.raises(InvalidArgumentError):
            anomaly_map(grid, make_bank(np.zeros((2, 3))), smoothing_sigma=-1.0)

    def test_map_type_validates_score_and_sign(self):
        with pytest.raises(InvalidArgumentError):
            AnomalyMap2D(ptype=PT, pixels=np.ones((2, 2), dtype=np.float32), score=0.5)
        with pytest.raises(InvalidArgumentError):
            AnomalyMap2D(ptype=PT, pixels=np.full((2, 2), -1.0, dtype=np.float32), score=-1.0)


class TestBankFiles:
    def bank(self):
        rng = np.random.default_rng(73)
        return make_bank(rng.random((6, 4), dtype=np.float32), coreset_frac=0.25, source_count=24)

    def test_round_trip_bit_exact(self, tmp_path):
        bank = self.bank()
        path = tmp_path / bank_filename(bank.ptype)
        save_bank(bank, path)
        back = load_bank(path)
        np.testing.assert_array_equal(back.entries, bank.entries)
        assert back.ptype == bank.ptype
        assert back.extractor_hash == bank.extractor_hash
        assert back.coreset_frac == bank.coreset_frac
        # a re-save reproduces the file byte for byte
        path2 = tmp_path / "again.mbnk"
        save_bank(back, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_header_layout(self, tmp_path):
        path = tmp_path / "b.mbnk"
        save_bank(self.bank(), path)
        raw = path.read_bytes()
        header = json.loads(raw[: raw.find(b"\n")])
        assert list(header) == ["magic", "projection", "feature_dim", "count", "extractor_hash", "coreset_frac"]
        assert header["magic"] == "MBNK1"
        assert header["projection"] == "right_axial"
        assert header["count"] == 6 and header["feature_dim"] == 4

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "b.mbnk"
        save_bank(self.bank(), path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(PayloadSizeError):
            load_bank(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "b.mbnk"
        path.write_bytes(b'{"magic":"MVOL1"}\n')
        with pytest.raises(HeaderFormatError):
            load_bank(path)

    def test_bank_filename_convention(self):
        assert bank_filename(ProjectionType.LEFT_SAGITTAL) == "bank_left_sagittal.mbnk"
