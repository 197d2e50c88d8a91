"""Co-array analytics against brute-force and hand-enumerated references."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from coarraylab import coarray, verify
from coarraylab.coarray import (
    BITMAP_SLOTS_PER_VALUE,
    MAX_SPAN,
    REPORT_COLUMNS,
    coarray_report,
    contiguous_stats,
    difference_set,
    holes,
    report_row,
    spatial_efficiency,
    sum_difference_coarray,
    sum_set,
    weight_function,
    weight_table,
)
from coarraylab.geometry import (
    GENERATED_FAMILIES,
    POSITION_LIMIT,
    design,
    design_aulas,
    design_cotsaulas,
    design_nested,
    design_saulas,
    design_tsaulas,
    design_ula,
    from_positions,
)

position_sets = st.sets(st.integers(-40, 40), min_size=1, max_size=8)


def test_ula4_reference_values():
    arr = design_ula(4)
    assert difference_set(arr).tolist() == list(range(-3, 4))
    assert sum_set(arr).tolist() == list(range(-6, 7))
    sdc = sum_difference_coarray(arr)
    assert sdc.tolist() == list(range(-6, 7))
    assert contiguous_stats(sdc) == (13, 12)
    assert holes(sdc).size == 0
    assert spatial_efficiency(sdc) == 1.0


def test_single_sensor():
    assert difference_set([5]).tolist() == [0]
    assert sum_set([5]).tolist() == [-10, 10]
    assert contiguous_stats([0]) == (1, 0)
    assert spatial_efficiency([0]) == 1.0
    # lone sensor away from the origin: sum lags unreachable contiguously
    assert spatial_efficiency(sum_difference_coarray([5])) == 0.0


def test_contiguous_stats_requires_lag_zero():
    with pytest.raises(ValueError):
        contiguous_stats([1, 2, 3])


@pytest.mark.parametrize(
    "bad",
    [[0, np.inf], [0, np.nan], [True, False, True], np.array([True, False]), [0, 0.5], [],
     # pair sums or differences would leave int64
     [0, 2**62, 2**62 + 1], [-(2**62), 0], [-(2**63) + 1, 2**63 - 1]],
)
def test_raw_positions_follow_the_sensor_array_rule(bad):
    for enumerate_lags in (difference_set, sum_set, sum_difference_coarray, weight_table):
        with pytest.raises(ValueError):
            enumerate_lags(bad)


def test_two_argument_sets():
    assert difference_set([0, 1], [10]).tolist() == [9, 10]
    assert sum_set([0, 1], [10]).tolist() == [-11, -10, 10, 11]


def test_aulas9_difference_structure():
    arr = design_aulas(9)
    dc = difference_set(arr)
    positive = dc[dc >= 0]
    expected = [f for f in range(0, 27) if f != 24]
    assert positive.tolist() == expected
    sc = sum_set(arr)
    present = set(sc.tolist())
    assert set(range(21, 53)) <= present
    assert int(sc.max()) == 52
    sdc = sum_difference_coarray(arr)
    assert contiguous_stats(sdc) == (105, 104)
    assert holes(sdc).size == 0


# One row per array: (udofs, holes, cva, se_percent, w1, w2, w3)
TABLE_N12 = {
    "na": (95, 60, 94, 57.32, 6, 5, 4),
    "aulas": (177, 0, 176, 100.0, 3, 2, 3),
    "saulas": (189, 0, 188, 100.0, 3, 2, 3),
    "tsaulas": (185, 4, 184, 95.83, 0, 3, 1),
    "cotsaulas": (173, 0, 172, 100.0, 1, 3, 2),
}

ARRAYS_N12 = {
    "na": lambda: design_nested(6, 6),
    "aulas": lambda: design_aulas(12),
    "saulas": lambda: design_saulas(12),
    "tsaulas": lambda: design_tsaulas(12),
    "cotsaulas": lambda: design_cotsaulas(12),
}


@pytest.mark.parametrize("key", sorted(TABLE_N12))
def test_reference_metrics_at_twelve_sensors(key):
    udofs, hole_count, cva, se, w1, w2, w3 = TABLE_N12[key]
    report = coarray_report(ARRAYS_N12[key]())
    assert report.udofs == udofs
    assert report.hole_count == hole_count
    assert report.cva == cva
    assert 100.0 * report.spatial_efficiency == pytest.approx(se, abs=0.005)
    assert (report.weights[1], report.weights[2], report.weights[3]) == (w1, w2, w3)


def test_tsaulas12_hole_positions():
    report = coarray_report(design_tsaulas(12))
    assert report.hole_positions == (-95, -93, 93, 95)


def test_tsaulas5_hole_positions():
    report = coarray_report(design_tsaulas(5))
    assert report.udofs == 41
    assert report.hole_positions == (-21, 21)


def test_nested_coarray_details():
    arr = design_nested(6, 6)
    sdc = sum_difference_coarray(arr)
    assert int(sdc.max()) == 82
    hole_set = holes(sdc)
    assert hole_set.size == 60
    assert 48 in hole_set
    assert spatial_efficiency(sdc) == pytest.approx(47 / 82)


def test_weight_function_values():
    arr = design_aulas(13)
    assert weight_function(arr, 0) == 13
    assert (weight_function(arr, 1), weight_function(arr, 2), weight_function(arr, 3)) == (5, 4, 3)
    assert weight_function(arr, -2) == weight_function(arr, 2)
    assert weight_function(arr, 10_000) == 0


@pytest.mark.parametrize("lags", [[1.9], [True], [float("nan")], [2.7, True], [1, False]])
def test_weight_lags_must_be_integers(lags):
    arr = design_aulas(13)
    with pytest.raises(ValueError, match="lag"):
        weight_table(arr, lags)
    with pytest.raises(ValueError, match="lag"):
        weight_function(arr, lags[-1])


def test_weight_lags_outside_int64_overflow():
    with pytest.raises(OverflowError):
        weight_function(design_aulas(13), 2**63)


def test_weight_table_options():
    arr = design_ula(3)
    assert weight_table(arr, (0, 1, 2)) == {0: 3, 1: 2, 2: 1}
    full = weight_table(arr)
    assert sum(full.values()) == 9
    assert full[-1] == 2


def test_report_row_and_csv():
    report = coarray_report(design_saulas(12))
    row = report_row(report)
    assert row == ["SAULAs", 12, 189, 188, 0, "100.00", 3, 2, 3]
    assert len(row) == len(REPORT_COLUMNS)


def test_report_to_dict_is_json_clean():
    import json

    payload = coarray_report(design_tsaulas(9)).to_dict()
    text = json.dumps(payload)
    assert '"udofs": 113' in text


@given(position_sets)
def test_difference_set_symmetric_with_zero(points):
    dc = difference_set(sorted(points))
    assert 0 in dc
    assert np.array_equal(dc, -dc[::-1])


@given(position_sets)
def test_sum_difference_is_union(points):
    p = sorted(points)
    sdc = set(sum_difference_coarray(p).tolist())
    assert sdc == set(difference_set(p).tolist()) | set(sum_set(p).tolist())


@given(position_sets, st.integers(-30, 30))
def test_translation_moves_sums_not_differences(points, shift):
    p = sorted(points)
    q = [x + shift for x in p]
    assert np.array_equal(difference_set(p), difference_set(q))
    raw_p = np.unique([x + y for x in p for y in p])
    raw_q = np.unique([x + y for x in q for y in q])
    assert np.array_equal(raw_p + 2 * shift, raw_q)
    ss = sum_set(p)
    assert np.array_equal(ss, -ss[::-1])


@given(position_sets)
def test_weights_total_to_squared_sensor_count(points):
    p = sorted(points)
    table = weight_table(p)
    assert sum(table.values()) == len(p) ** 2
    assert table[0] == len(p)
    assert all(table[f] == table[-f] for f in table)


@given(
    st.lists(st.integers(-40, 40), min_size=1, max_size=8),
    st.lists(st.integers(-90, 90), max_size=6),
)
def test_requested_weights_match_the_full_table(points, lags):
    # repeated positions count once per pair, as in the full enumeration
    full = weight_table(points)
    assert weight_table(points, lags) == {f: full.get(f, 0) for f in lags}


@given(position_sets)
def test_contiguous_stats_shape(points):
    p = sorted(points)
    sdc = sum_difference_coarray(p)
    udofs, cva = contiguous_stats(sdc)
    assert udofs == cva + 1
    assert udofs % 2 == 1
    m = cva // 2
    present = set(sdc.tolist())
    assert all(f in present for f in range(-m, m + 1))
    if m + 1 <= sdc.max():
        assert (m + 1) not in present or -(m + 1) not in present


@given(position_sets)
def test_holes_disjoint_from_lags(points):
    p = sorted(points)
    sdc = sum_difference_coarray(p)
    hole_set = holes(sdc)
    assert not (set(hole_set.tolist()) & set(sdc.tolist()))
    assert hole_set.size + sdc.size == int(sdc.max() - sdc.min()) + 1


# ---------------------------------------------------------------------------
# Bitmap lag sets against the pure-Python set oracle
# ---------------------------------------------------------------------------


def brute_sets(points):
    """Difference, symmetric sum and union sets as Python sets of Python ints."""
    dc = {v - u for u in points for v in points}
    sums = {u + v for u in points for v in points}
    sc = sums | {-x for x in sums}
    return dc, sc, dc | sc


def brute_coarray(points):
    """Every figure of merit from Python sets of pairwise sums and differences
    (the holes are listed one by one, so keep the span small)."""
    dc, sc, sdc = brute_sets(points)
    m = 0
    while m + 1 in sdc and -(m + 1) in sdc:
        m += 1
    top = max(sdc)
    return {
        "dc": sorted(dc),
        "sc": sorted(sc),
        "sdc": sorted(sdc),
        "udofs": (2 * m + 1, 2 * m),
        "holes": [f for f in range(min(sdc), top + 1) if f not in sdc],
        "se": 1.0 if top == 0 else m / top,
    }


#: Raw geometries, repeats allowed: a few sensors spread over a reach of 3
#: (always on the bitmap), 40 (either side of the guard) or 5000 (mostly
#: past it, on np.unique).
raw_geometries = st.sampled_from([3, 40, 5000]).flatmap(
    lambda reach: st.lists(st.integers(-reach, reach), min_size=1, max_size=9)
)


@given(raw_geometries)
def test_lag_sets_match_the_python_set_oracle(points):
    want = brute_coarray(points)
    sdc = sum_difference_coarray(points)
    assert difference_set(points).tolist() == want["dc"]
    assert sum_set(points).tolist() == want["sc"]
    assert sdc.tolist() == want["sdc"]
    assert contiguous_stats(sdc) == want["udofs"]
    assert holes(sdc).tolist() == want["holes"]
    assert spatial_efficiency(sdc) == want["se"]
    # raw, repeated values in any order give the same figures
    raw = np.concatenate([sdc, sdc[::-1]])
    assert contiguous_stats(raw) == want["udofs"]
    assert holes(raw).tolist() == want["holes"]
    assert spatial_efficiency(raw) == want["se"]


@given(raw_geometries)
def test_report_matches_the_python_set_oracle(points):
    want = brute_coarray(sorted(set(points)))
    report = coarray_report(from_positions("raw", set(points)))
    assert report.dc.tolist() == want["dc"]
    assert report.sc.tolist() == want["sc"]
    assert report.sdc.tolist() == want["sdc"]
    assert (report.udofs, report.cva) == want["udofs"]
    assert list(report.hole_positions) == want["holes"]
    assert report.hole_count == len(want["holes"])
    assert report.spatial_efficiency == want["se"]


@given(raw_geometries)
def test_full_weight_table_matches_the_pair_count_oracle(points):
    want = Counter(v - u for u in points for v in points)
    assert weight_table(points) == dict(sorted(want.items()))


def test_run_all_lag_sets_take_the_bitmap_path(numpy_calls):
    reports = verify.run_all(64)
    assert len(reports) == 456 and all(r.passed for r in reports)
    assert numpy_calls["np.unique"] == 0


@pytest.mark.parametrize("past_guard", [False, True])
def test_density_guard_sits_at_its_threshold(numpy_calls, past_guard):
    # ten differences from 0 whose max - min is one short of, or exactly,
    # the guard's BITMAP_SLOTS_PER_VALUE slots per value
    top = BITMAP_SLOTS_PER_VALUE * 10 - 1 + past_guard
    values = [0, top, 3, 3, 7, 1, top - 2, 0, 5, 9]
    assert difference_set([0], values).tolist() == sorted(set(values))
    # two sensors: four differences over [-a, a]
    a = 2 * BITMAP_SLOTS_PER_VALUE - 1 + past_guard
    assert weight_table([0, a]) == {-a: 1, 0: 2, a: 1}
    # the full weight table always counts with np.unique
    assert numpy_calls["np.unique"] == 1 + past_guard


def test_sparse_raw_geometry_skips_the_bitmap(numpy_calls):
    points = [0, 10**12]
    assert difference_set(points).tolist() == [-(10**12), 0, 10**12]
    assert sum_set(points).tolist() == [-2 * 10**12, -(10**12), 0, 10**12, 2 * 10**12]
    assert contiguous_stats(sum_difference_coarray(points)) == (1, 0)
    assert spatial_efficiency(sum_difference_coarray(points)) == 0.0
    assert weight_table(points) == {-(10**12): 1, 0: 2, 10**12: 1}
    # dc, sc, two sum-difference co-arrays of three sets each, the weights
    assert numpy_calls["np.unique"] == 9


#: Caller-owned positions, and whether any set takes the np.unique path:
#: negative ones (all bitmaps), a single sensor (its sums +/-10 are two
#: values over 21 slots, past the guard) and a sparse span.
CALLER_POSITIONS = {
    "negative": ([-7, -3, 0, 2, 9], False),
    "single": ([5], True),
    "sparse": ([-2, 0, 3, 10**5], True),
}


@pytest.mark.parametrize("case", sorted(CALLER_POSITIONS))
def test_caller_arrays_are_never_written(case, numpy_calls):
    """The bitmaps offset and shift only arrays the co-array code formed
    itself: a caller's int64 positions and lags stay bit for bit as they
    were, and every figure still matches the Python-set oracle."""
    raw, sparse = CALLER_POSITIONS[case]
    points = np.array(raw, dtype=np.int64)
    other = points[::-1] * 2 + 1
    want = brute_coarray(points.tolist())
    lags = np.array(want["sdc"], dtype=np.int64)
    owned = [(x, x.copy()) for x in (points, other, lags)]
    array = from_positions(case, points)
    positions = array.positions

    assert difference_set(points).tolist() == want["dc"]
    assert difference_set(array).tolist() == want["dc"]
    pairs = [(u, v) for u in points.tolist() for v in other.tolist()]
    assert difference_set(points, other).tolist() == sorted({v - u for u, v in pairs})
    assert sum_set(points).tolist() == want["sc"]
    assert sum_set(array).tolist() == want["sc"]
    assert sum_set(points, other).tolist() == sorted({s * (u + v) for u, v in pairs
                                                      for s in (1, -1)})
    assert sum_difference_coarray(array).tolist() == want["sdc"]
    assert contiguous_stats(lags) == want["udofs"]
    assert holes(lags).tolist() == want["holes"]
    assert spatial_efficiency(lags) == want["se"]
    report = coarray_report(array)
    assert (report.dc.tolist(), report.sc.tolist(), report.sdc.tolist()) == (
        want["dc"], want["sc"], want["sdc"])
    assert list(report.hole_positions) == want["holes"]

    for given_array, before in owned:
        assert given_array.dtype == before.dtype
        assert given_array.tobytes() == before.tobytes()
    assert array.positions == positions
    assert (numpy_calls["np.unique"] > 0) == sparse


@pytest.mark.parametrize("empty_lags", [[], np.array([], dtype=np.int64)])
@pytest.mark.parametrize("figure", [holes, contiguous_stats, spatial_efficiency])
def test_empty_lag_set_is_named(figure, empty_lags):
    with pytest.raises(ValueError, match="empty lag set"):
        figure(empty_lags)


@pytest.mark.parametrize("edge", [POSITION_LIMIT - 1, -(POSITION_LIMIT - 1)])
def test_positions_inside_the_limit_enumerate_exactly(edge):
    points = [edge, -edge // 2, 0, 7]
    dc, sc, sdc = brute_sets(points)
    assert difference_set(points).tolist() == sorted(dc)
    assert sum_set(points).tolist() == sorted(sc)
    assert sum_difference_coarray(points).tolist() == sorted(sdc)
    assert contiguous_stats(sum_difference_coarray(points)) == (1, 0)
    assert weight_table(points) == dict(sorted(Counter(
        v - u for u in points for v in points).items()))
    assert from_positions("edge", points).positions == tuple(sorted(points))


@pytest.mark.parametrize("past", [False, True])
def test_holes_refuse_a_span_past_the_limit(bounded_bitmaps, past):
    raw = [0, MAX_SPAN - 1 + past]  # MAX_SPAN + past lags
    if not past:
        assert holes(raw).size == MAX_SPAN - 2
        return
    with pytest.raises(ValueError, match=rf"lag span \[0, {MAX_SPAN}\] holds {MAX_SPAN + 1} lags"):
        holes(raw)


def test_report_refuses_a_span_past_the_limit(bounded_bitmaps):
    # sensors [0, q] reach the lags [-2q, 2q]: MAX_SPAN + 1 of them
    q = MAX_SPAN // 4
    with pytest.raises(ValueError, match=rf"lag span \[{-2 * q}, {2 * q}\]"):
        coarray_report(from_positions("wide", [0, q]))


def test_sparse_descriptor_is_refused_before_any_span_sized_allocation(bounded_bitmaps):
    points = from_positions("sparse", [0, 10**10])
    with pytest.raises(ValueError, match=r"\[-20000000000, 20000000000\]"):
        coarray_report(points)
    with pytest.raises(ValueError, match="whose holes can be listed"):
        holes(sum_difference_coarray(points))
    # the figures that need no hole list still work
    assert contiguous_stats(sum_difference_coarray(points)) == (1, 0)


def test_generated_families_stay_inside_the_span_limit():
    for family in GENERATED_FAMILIES:
        for n in range(1, 1025):
            try:
                p = design(family, n).positions
            except ValueError:
                continue
            top = max(p[-1] - p[0], 2 * max(-p[0], p[-1]))
            assert 2 * top + 1 <= MAX_SPAN, (family, n)
        report = coarray_report(design(family, 1024))
        assert report.udofs > 1024
