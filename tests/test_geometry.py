"""Geometry generators: frozen position sets, parameter rules, descriptors."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from coarraylab.geometry import (
    FAMILIES,
    GENERATED_FAMILIES,
    MAX_SENSORS,
    POSITION_LIMIT,
    AulasParams,
    DesignError,
    SensorArray,
    design,
    design_aulas,
    design_cotsaulas,
    design_nested,
    design_saulas,
    design_tsaulas,
    design_ula,
    family_array,
    from_positions,
    inbuilt_shared_locations,
    load_descriptor,
    save_descriptor,
    sensor_counts,
    _integer_positions,
)

# Hand-evaluated location sets for the generated families.
FROZEN_POSITIONS = {
    ("aulas", 9): (0, 6, 12, 18, 21, 22, 23, 25, 26),
    ("aulas", 12): (0, 6, 12, 18, 24, 30, 36, 39, 40, 41, 43, 44),
    ("saulas", 9): (3, 9, 15, 21, 24, 25, 26, 28, 29),
    ("saulas", 12): (3, 9, 15, 21, 27, 33, 39, 42, 43, 44, 46, 47),
    ("tsaulas", 5): (-9, 2, 6, 8, 11),
    ("tsaulas", 9): (-26, 3, 9, 15, 21, 23, 25, 28, 30),
    ("tsaulas", 12): (-44, 3, 9, 15, 21, 27, 33, 39, 41, 43, 46, 48),
    ("cotsaulas", 9): (-20, 3, 9, 15, 17, 19, 22, 24, 25),
    ("cotsaulas", 12): (-38, 3, 9, 15, 21, 27, 33, 35, 37, 40, 42, 43),
}


@pytest.mark.parametrize(("family", "n"), sorted(FROZEN_POSITIONS))
def test_frozen_family_positions(family, n):
    assert design(family, n).positions == FROZEN_POSITIONS[(family, n)]


def test_nested_positions():
    assert design_nested(6, 6).positions == (0, 1, 2, 3, 4, 5, 6, 13, 20, 27, 34, 41)
    assert design_nested(1, 1).positions == (0, 1)


def test_ula_positions():
    assert design_ula(4).positions == (0, 1, 2, 3)
    assert design_ula(1).positions == (0,)


@pytest.mark.parametrize(
    ("builder", "lo", "hi"),
    [
        (design_aulas, 9, 40),
        (design_saulas, 9, 40),
        (design_tsaulas, 5, 40),
        (design_cotsaulas, 9, 40),
    ],
)
def test_sensor_count_equals_n(builder, lo, hi):
    for n in range(lo, hi + 1):
        assert builder(n).n == n


def test_spacing_parameter():
    assert AulasParams.for_family("aulas", 9).m == 6
    assert AulasParams.for_family("aulas", 12).m == 6
    assert AulasParams.for_family("aulas", 13).m == 8
    assert AulasParams.for_family("aulas", 16).m == 8
    assert AulasParams.for_family("aulas", 64).m == 32
    p = AulasParams.for_family("aulas", 12)
    assert (p.n1, p.n2, p.n3) == (7, 2, 1)
    assert AulasParams.for_family("cotsaulas", 12).n1 == 6


@pytest.mark.parametrize(
    "bad_call",
    [
        lambda: design_aulas(8),
        lambda: design_saulas(8),
        lambda: design_tsaulas(4),
        lambda: design_cotsaulas(8),
        lambda: design_ula(0),
        lambda: design_nested(0, 1),
        lambda: design_nested(1, 0),
        lambda: design("nope", 12),
        lambda: design("aulas", 9.5),
        lambda: design("ula", 2.5),
        lambda: design("ula", True),
        lambda: design_nested(2.5, 3),
        lambda: design_nested(True, 2),
        lambda: design_nested(2, None),
    ],
)
def test_out_of_range_parameters_raise(bad_call):
    with pytest.raises(DesignError):
        bad_call()


@pytest.mark.parametrize(
    ("bad_call", "name"),
    [(lambda: design("saulas", 12.5), "n"), (lambda: design_ula(False), "n"),
     (lambda: design_nested(2.5, 3), "n_dense"), (lambda: design_nested(3, True), "n_sparse")],
)
def test_sensor_counts_must_be_integers(bad_call, name):
    with pytest.raises(DesignError, match=f"^{name} must be an integer"):
        bad_call()


def test_integral_sensor_counts_build_the_same_array():
    assert design("saulas", 12.0) == design_saulas(12)
    assert design_nested(np.int64(6), 6.0) == design_nested(6, 6)


def test_saulas_is_a_rigid_translation():
    for n in range(9, 65):
        m = AulasParams.for_family("aulas", n).m
        shifted = tuple(p + m // 2 for p in design_aulas(n).positions)
        assert design_saulas(n).positions == shifted


def test_design_dispatch_matches_direct_builders():
    assert design("AULAS", 12).positions == design_aulas(12).positions
    assert design("ula", 7).positions == design_ula(7).positions


def test_from_positions_sorts_input():
    arr = from_positions("custom", [6, 0, 3])
    assert arr.positions == (0, 3, 6)
    assert arr.name == "custom"


def test_from_positions_accepts_integer_valued_floats():
    assert from_positions("x", [2.0, 1.0]).positions == (1, 2)


@pytest.mark.parametrize(
    "bad",
    [[], [1, 1, 2], [0.5], [True, 2], [float("nan"), 1], [float("inf")],
     [2**62], [-(2**62), 5]],
)
def test_from_positions_rejects_bad_input(bad):
    with pytest.raises(DesignError):
        from_positions("bad", bad)


def test_array_properties():
    arr = design_ula(5)
    assert arr.aperture == 4
    assert arr.spacings == (1, 1, 1, 1)
    assert design_tsaulas(5).aperture == 20


def test_translated():
    arr = design_aulas(9).translated(3)
    assert arr.positions == design_saulas(9).positions
    assert arr.name == "AULAs+3"
    assert arr.aperture == design_aulas(9).aperture


@pytest.mark.parametrize("shift", [2.5, True, float("nan"), "3"])
def test_translated_rejects_non_integer_shifts(shift):
    with pytest.raises(ValueError, match="shift"):
        design_aulas(9).translated(shift)


def test_descriptor_round_trip(tmp_path):
    path = tmp_path / "arr.json"
    original = design_cotsaulas(12)
    save_descriptor(original, path)
    loaded = load_descriptor(path)
    assert loaded == original
    data = json.loads(path.read_text())
    assert data["unit"] == "half-wavelength"


def test_descriptor_round_trip_external_geometry(tmp_path):
    # user-supplied baseline geometry, only used as a pass-through fixture
    positions = [3, 6, 9, 10, 12, 15, 20, 25, 30, 35]
    arr = from_positions("oca-sdca-10", positions)
    path = tmp_path / "oca.json"
    save_descriptor(arr, path)
    assert load_descriptor(path).positions == tuple(sorted(positions))


def test_descriptor_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(DesignError):
        load_descriptor(path)
    path.write_text(json.dumps({"positions": [1, 2]}))
    with pytest.raises(DesignError):
        load_descriptor(path)
    path.write_text(json.dumps({"name": "x", "positions": [1, 2], "unit": "meters"}))
    with pytest.raises(DesignError):
        load_descriptor(path)
    path.write_text(json.dumps([1, 2]))
    with pytest.raises(DesignError):
        load_descriptor(path)
    path.write_text(json.dumps({"name": "x", "positions": [1, 2], "units": "half-wavelength"}))
    with pytest.raises(DesignError, match="units"):
        load_descriptor(path)


def test_sensor_array_validation():
    bad_inputs = [
        (3, 3),
        (5, 1),
        (),
        (True, 2),
        (float("nan"), 1),
        (float("inf"),),
        (float("-inf"), 0),
        (0.5, 1),
        ("0", 1),
    ]
    for positions in bad_inputs:
        with pytest.raises(DesignError):
            SensorArray("x", positions)


def test_valid_int_tuples_take_the_fast_path_and_keep_the_range_check():
    positions = (-7, 0, 3, 10)
    assert SensorArray("x", positions).positions is positions
    for edge in (POSITION_LIMIT, -POSITION_LIMIT):
        with pytest.raises(DesignError, match="outside"):
            SensorArray("x", tuple(sorted((0, edge))))
    assert _integer_positions((POSITION_LIMIT - 1, 1 - POSITION_LIMIT)) == (
        POSITION_LIMIT - 1, 1 - POSITION_LIMIT)


position_items = st.one_of(
    st.integers(-(2**63), 2**63),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-50, 50).map(np.int64),
    st.integers(-50, 50).map(float),
    st.just("3"),
)


@given(st.lists(position_items, max_size=6))
def test_tuple_fast_path_agrees_with_the_item_by_item_check(items):
    """A tuple is checked exactly as the same items in a list are."""

    def outcome(values):
        try:
            result = _integer_positions(values)
        except DesignError as err:
            return "error", str(err)
        assert all(type(q) is int for q in result)
        return "ok", result

    assert outcome(tuple(items)) == outcome(list(items))


def test_inbuilt_shared_locations():
    assert inbuilt_shared_locations(design_aulas(9), design_aulas(12)) == (0, 6, 12, 18)
    assert inbuilt_shared_locations(design_saulas(9), design_saulas(10)) == (3, 9, 15, 21)
    assert inbuilt_shared_locations(design_ula(3), design_tsaulas(5)) == (2,)


@given(st.sets(st.integers(-200, 200), min_size=1, max_size=12))
def test_from_positions_always_sorted(points):
    arr = from_positions("rand", list(points))
    assert list(arr.positions) == sorted(points)
    assert arr.n == len(points)


def _aulas_params_oracle(family, n):
    """The per-family sizing rules as first written, one formula each."""
    m = 2 * ((n + 3) // 4)
    n1 = n - m if family == "cotsaulas" else n - m + 1
    n3 = m // 2 - 2 if family in ("aulas", "saulas") else m // 2 - 1
    return AulasParams(n=n, m=m, n1=n1, n2=m // 2 - 1, n3=n3)


@given(st.integers(9, 64))
def test_family_table_params_match_oracle(n):
    for family in FAMILIES:
        assert AulasParams.for_family(family, n) == _aulas_params_oracle(family, n)


def test_family_table_minimum_sizes():
    for family, spec in FAMILIES.items():
        assert design(family, spec.min_n).n == spec.min_n
        with pytest.raises(DesignError):
            design(family, spec.min_n - 1)
    with pytest.raises(DesignError):
        AulasParams.for_family("ula", 12)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_each_family_builds_its_array_from_its_params(family, monkeypatch):
    """``design`` sizes a generated array once and lays it out with
    ``family_array``, which takes the AulasParams alone: the lemma checks
    call it with the params they already hold."""
    for_family = AulasParams.for_family
    sized = []

    def sizing(name, n):
        sized.append((name, n))
        return for_family(name, n)

    monkeypatch.setattr(AulasParams, "for_family", staticmethod(sizing))
    sizes = range(FAMILIES[family].min_n, 40)
    for n in sizes:
        assert family_array(family, for_family(family, n)) == design(family, n)
    assert sized == [(family, n) for n in sizes]


@pytest.mark.parametrize("family", GENERATED_FAMILIES)
def test_sensor_counts_start_at_the_smallest_size_design_builds(family):
    sizes = sensor_counts(family, 0, 12)
    assert sizes.stop == 13 and sizes.start == (FAMILIES[family].min_n if family in FAMILIES else 1)
    assert design(family, sizes.start).n == sizes.start
    with pytest.raises(DesignError):
        design(family, sizes.start - 1)
    assert sensor_counts(family.upper(), 10, 12) == range(10, 13)
    assert sensor_counts(family, 0, 0) == range(sizes.start, 1)


@pytest.mark.parametrize(
    ("n_min", "n_max", "message"),
    [
        (10, 9, "^n_min 10 exceeds n_max 9$"),
        (9, MAX_SENSORS + 1,
         f"^n_max must be at most {MAX_SENSORS} sensors, got {MAX_SENSORS + 1}$"),
        (MAX_SENSORS + 1, MAX_SENSORS + 1, "^n_min must be at most"),
        (9.5, 12, "^n_min must be an integer"),
        (9, True, "^n_max must be an integer"),
        (9, None, "^n_max must be a number"),
    ],
)
def test_sensor_counts_rejects_bad_ranges(n_min, n_max, message):
    with pytest.raises(DesignError, match=message):
        sensor_counts("aulas", n_min, n_max)


def test_sensor_counts_rejects_an_unknown_family_as_design_does():
    for family in ("nested", "mystery"):
        with pytest.raises(DesignError) as from_design:
            design(family, 12)
        with pytest.raises(DesignError, match=f"^unknown family '{family}'") as from_counts:
            sensor_counts(family, 9, 12)
        assert str(from_counts.value) == str(from_design.value)


@pytest.mark.parametrize(
    "build",
    [*(lambda n, f=f: design(f, n) for f in GENERATED_FAMILIES),
     lambda n: design_nested(n, 1), lambda n: design_nested(1, n)],
    ids=[*GENERATED_FAMILIES, "nested-dense", "nested-sparse"],
)
def test_every_builder_stops_at_the_sensor_bound(build):
    assert build(MAX_SENSORS).n >= MAX_SENSORS
    with pytest.raises(DesignError, match=f"must be at most {MAX_SENSORS} sensors"):
        build(MAX_SENSORS + 1)
    # too large for a float; refused by the bound before anything is built
    with pytest.raises(DesignError, match=f"must be at most {MAX_SENSORS} sensors"):
        build(10**400)


# The list-based builders as first written, the oracle of the np.arange
# blocks the designs build from.


def _aulas_list(p):
    n1m, half = p.n1 * p.m, p.m // 2
    part1 = [k * p.m for k in range(p.n1)]
    part2 = [n1m - half - 1 + k for k in range(1, half + 1)]
    part3 = [n1m + k for k in range(1, half)]
    return part1 + part2 + part3


def _transformed_shifted_list(p):
    n1m, half = p.n1 * p.m, p.m // 2
    part1 = [half + k * p.m for k in range(p.n1)]
    part2 = [n1m - half + 2 * k for k in range(1, half)] + [-n1m - half + 1]
    part3 = [n1m + half - 1 + 2 * k for k in range(1, half)]
    return part1 + part2 + part3


LIST_BUILDERS = {
    "aulas": _aulas_list,
    "saulas": lambda p: [q + p.m // 2 for q in _aulas_list(p)],
    "tsaulas": _transformed_shifted_list,
    "cotsaulas": lambda p: _transformed_shifted_list(p) + [p.n1 * p.m + 3 * (p.m // 2) - 2],
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_designs_match_the_list_based_builders(family):
    """Every size from the family's smallest to MAX_SENSORS: the same name
    and the same sorted positions as the list-based builder."""
    spec = FAMILIES[family]
    for n in range(spec.min_n, MAX_SENSORS + 1):
        p = AulasParams.for_family(family, n)
        array = design(family, n)
        assert array.name == spec.display_name
        assert array.positions == tuple(sorted(LIST_BUILDERS[family](p)))


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_params_and_designs_follow_the_sensor_count_rule(family):
    for call in (AulasParams.for_family, design):
        for n, message in ((True, "^n must be an integer"),
                           (MAX_SENSORS + 1, f"^n must be at most {MAX_SENSORS} sensors")):
            with pytest.raises(DesignError, match=message):
                call(family, n)
        assert call(family, 12.0) == call(family, 12)
