"""Co-array analytics against brute-force and hand-enumerated references."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from coarraylab.coarray import (
    REPORT_COLUMNS,
    coarray_report,
    contiguous_stats,
    difference_set,
    holes,
    report_row,
    reports_to_csv,
    spatial_efficiency,
    sum_difference_coarray,
    sum_set,
    weight_function,
    weight_table,
)
from coarraylab.geometry import (
    design_aulas,
    design_cotsaulas,
    design_nested,
    design_saulas,
    design_tsaulas,
    design_ula,
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
    [[0, np.inf], [0, np.nan], [True, False, True], np.array([True, False]), [0, 0.5], []],
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
    text = reports_to_csv([report])
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(REPORT_COLUMNS)
    assert lines[1] == "SAULAs,12,189,188,0,100.00,3,2,3"


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
