"""Tests for the mutual-coupling model, matrix builder, and leakage metric."""

from __future__ import annotations

import ast
import graphlib
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from coarraylab import coupling, geometry, inputs
from coarraylab.coupling import (
    CouplingModel,
    coupling_leakage,
    coupling_matrix,
    get_preset,
    preset_names,
)


# ---------------------------------------------------------------------------
# Coefficient law
# ---------------------------------------------------------------------------


def test_zero_separation_coefficient_is_unity():
    assert CouplingModel().coefficient(0) == 1.0 + 0.0j


def test_coefficient_magnitude_decays_inversely_with_separation():
    model = CouplingModel()
    for q in range(1, 20):
        assert abs(model.coefficient(q)) == pytest.approx(0.3 / q, rel=1e-12)


def test_coefficient_phase_decreases_linearly_with_separation():
    model = CouplingModel()
    for q in range(1, 20):
        expected = math.pi / 3 - (q - 1) * math.pi / 8
        got = np.angle(model.coefficient(q))
        # compare modulo 2*pi
        assert math.cos(got - expected) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("q", [1.5, float("nan"), float("inf"), True, None, "1"])
def test_coefficient_rejects_non_integral_separations(q):
    with pytest.raises(ValueError, match="q must be"):
        CouplingModel().coefficient(q)


def test_coefficient_vanishes_beyond_band_limit():
    model = CouplingModel(band_limit=3)
    assert model.coefficient(3) != 0
    assert model.coefficient(4) == 0
    assert model.coefficient(100) == 0


def test_first_coefficients_frozen():
    model = CouplingModel()
    got = np.array([model.coefficient(q) for q in range(4)])
    expected = np.array(
        [
            1.0 + 0.0j,
            0.15000000000000002 + 0.25980762113533157j,
            0.11900300104368529 + 0.09131421435130808j,
            0.09659258262890684 + 0.02588190451025207j,
        ]
    )
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-15)


def test_large_first_coefficient_warns():
    with pytest.warns(UserWarning):
        CouplingModel(c1_magnitude=1.5)


def test_negative_magnitude_rejected():
    with pytest.raises(ValueError):
        CouplingModel(c1_magnitude=-0.1)


def test_negative_band_limit_rejected():
    with pytest.raises(ValueError):
        CouplingModel(band_limit=-1)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"c1_magnitude": float("nan")},
        {"c1_magnitude": float("inf")},
        {"c1_phase": float("nan")},
        {"phase_decrement": float("inf")},
        {"band_limit": 2.5},
        {"band_limit": float("nan")},
        {"band_limit": True},
        {"c1_magnitude": None},
        {"c1_phase": None},
        {"phase_decrement": "0.1"},
        {"band_limit": None},
    ],
)
def test_model_rejects_non_finite_or_non_integral_fields(kwargs):
    with pytest.raises(ValueError):
        CouplingModel(**kwargs)


# ---------------------------------------------------------------------------
# Matrix structure
# ---------------------------------------------------------------------------


def test_matrix_diagonal_is_unity_and_symmetric():
    arr = geometry.design_aulas(12)
    c = coupling_matrix(arr, coupling.PAPER_V)
    assert c.shape == (12, 12)
    np.testing.assert_array_equal(np.diag(c), np.ones(12))
    # entries depend only on |position difference|, so C equals its transpose
    np.testing.assert_array_equal(c, c.T)


def test_matrix_entries_follow_separation_rule():
    arr = geometry.design_ula(5)
    model = CouplingModel(band_limit=2)
    c = coupling_matrix(arr, model)
    for i in range(5):
        for j in range(5):
            sep = abs(arr.positions[i] - arr.positions[j])
            assert c[i, j] == model.coefficient(sep)
    # separations 3 and 4 exceed the band limit
    assert c[0, 3] == 0
    assert c[0, 4] == 0


@pytest.mark.parametrize(
    "model", [coupling.PAPER_V, coupling.NONE, CouplingModel(band_limit=3, c1_magnitude=0.7)]
)
@pytest.mark.parametrize("family", ["aulas", "saulas", "tsaulas", "cotsaulas"])
def test_matrix_matches_the_coefficient_vector_oracle(family, model):
    """The per-distinct-separation build against the whole coefficient
    vector c_0 .. c_max indexed by separation, byte for byte."""
    arr = geometry.design(family, 16)
    pos = arr.as_array()
    sep = np.abs(pos[:, None] - pos[None, :])
    want = np.array([model.coefficient(q) for q in range(int(sep.max()) + 1)])[sep]
    got = coupling_matrix(arr, model)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _per_separation_matrix(array, model):
    """The matrix as first built: one coefficient per distinct separation,
    mapped back through np.unique's inverse."""
    pos = array.as_array()
    sep = np.abs(pos[:, None] - pos[None, :])
    distinct, index = np.unique(sep, return_inverse=True)
    coeff = np.array([model.coefficient(q) for q in distinct.tolist()], dtype=complex)
    return coeff[index.reshape(sep.shape)]


def _leakage(c):
    """||C - diag(C)||_F / ||C||_F with the diagonal subtracted as a matrix."""
    return float(np.linalg.norm(c - np.diag(np.diag(c)), "fro") / np.linalg.norm(c, "fro"))


def _assert_matches_the_per_separation_oracle(array):
    for model in (coupling.PAPER_V, coupling.NONE, CouplingModel(band_limit=3)):
        got, want = coupling_matrix(array, model), _per_separation_matrix(array, model)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert coupling_leakage(got) == coupling_leakage(want) == _leakage(want)


@pytest.mark.parametrize("family", geometry.GENERATED_FAMILIES)
def test_matrix_matches_the_per_separation_oracle(family):
    """Byte for byte, matrices and leakage, at every size up to 80 and at
    the largest."""
    for n in [*geometry.sensor_counts(family, 0, 80), geometry.MAX_SENSORS]:
        _assert_matches_the_per_separation_oracle(geometry.design(family, n))


def test_matrix_matches_the_per_separation_oracle_on_a_sparse_geometry():
    _assert_matches_the_per_separation_oracle(
        geometry.from_positions("far", [0, 1, 2, 10**10]))


def test_matrix_takes_one_coefficient_per_separation_in_the_band(monkeypatch):
    calls = []
    coefficient = CouplingModel.coefficient

    def counting(self, q):
        calls.append(q)
        return coefficient(self, q)

    monkeypatch.setattr(CouplingModel, "coefficient", counting)
    far = 10**10
    c = coupling_matrix(geometry.from_positions("far", [0, 1, 2, far]), coupling.PAPER_V)
    assert sorted(calls) == [0, 1, 2]
    assert c[0, 3] == 0 and c[0, 1] == coefficient(coupling.PAPER_V, 1)
    # a band as wide as the far sensor's separations takes each of them once
    calls.clear()
    coupling_matrix(geometry.from_positions("far", [0, 1, 2, far]), CouplingModel(band_limit=far))
    assert sorted(calls) == [0, 1, 2, far - 2, far - 1, far]


def test_identity_preset_yields_exact_identity():
    arr = geometry.design_tsaulas(12)
    c = coupling_matrix(arr, get_preset("none"))
    np.testing.assert_array_equal(c, np.eye(12, dtype=complex))


def test_preset_names_and_lookup():
    names = preset_names()
    assert "paper-v" in names and "none" in names
    assert get_preset("paper-v") is coupling.PAPER_V
    with pytest.raises(ValueError):
        get_preset("bogus")


# ---------------------------------------------------------------------------
# Leakage metric
# ---------------------------------------------------------------------------


def test_leakage_of_identity_is_zero():
    assert coupling_leakage(np.eye(7, dtype=complex)) == 0.0


def test_leakage_formula_on_hand_matrix():
    c = np.array([[1.0, 2.0], [2.0, 1.0]], dtype=complex)
    # off-diagonal Frobenius norm = sqrt(8), total = sqrt(10)
    assert coupling_leakage(c) == pytest.approx(math.sqrt(8.0 / 10.0), rel=1e-12)


def test_leakage_rejects_zero_matrix():
    with pytest.raises(ValueError):
        coupling_leakage(np.zeros((3, 3), dtype=complex))


def test_leakage_rejects_non_square():
    with pytest.raises(ValueError):
        coupling_leakage(np.ones((2, 3), dtype=complex))


def test_leakage_holds_one_copy_of_the_matrix():
    """The off-diagonal part is the one N x N temporary."""
    c = coupling_matrix(geometry.design_saulas(256), coupling.PAPER_V)
    tracemalloc.start()
    try:
        coupling_leakage(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * c.nbytes


FROZEN_LEAKAGE = {
    # (builder, args) -> leakage of the default model, frozen from this code
    ("nested", (6, 6)): 0.3313437965,
    ("aulas", (12,)): 0.2498729549,
    ("saulas", (12,)): 0.2498729549,
    ("tsaulas", (12,)): 0.1408286000,
    ("cotsaulas", (12,)): 0.1893462929,
}


@pytest.mark.parametrize(("key", "expected"), sorted(FROZEN_LEAKAGE.items()))
def test_leakage_frozen_values(key, expected):
    family, args = key
    builders = {
        "nested": geometry.design_nested,
        "aulas": geometry.design_aulas,
        "saulas": geometry.design_saulas,
        "tsaulas": geometry.design_tsaulas,
        "cotsaulas": geometry.design_cotsaulas,
    }
    arr = builders[family](*args)
    c = coupling_matrix(arr, coupling.PAPER_V)
    assert coupling_leakage(c) == pytest.approx(expected, abs=1e-9)


def test_leakage_invariant_under_translation():
    arr = geometry.design_aulas(12)
    shifted = arr.translated(17)
    c0 = coupling_matrix(arr, coupling.PAPER_V)
    c1 = coupling_matrix(shifted, coupling.PAPER_V)
    np.testing.assert_array_equal(c0, c1)


def test_leakage_nondecreasing_in_band_limit():
    arr = geometry.design_ula(8)
    previous = 0.0
    for band in range(1, 8):
        model = CouplingModel(band_limit=band)
        value = coupling_leakage(coupling_matrix(arr, model))
        assert value >= previous - 1e-15
        previous = value
    assert previous > 0.0


def test_sparser_families_leak_less_than_dense_ula():
    model = coupling.PAPER_V
    dense = coupling_leakage(coupling_matrix(geometry.design_ula(12), model))
    for design in (geometry.design_aulas, geometry.design_tsaulas):
        sparse = coupling_leakage(coupling_matrix(design(12), model))
        assert sparse < dense


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_model_dict_round_trip():
    model = CouplingModel(
        c1_magnitude=0.25, c1_phase=0.7, phase_decrement=0.1, band_limit=9
    )
    clone = CouplingModel.from_dict(model.to_dict())
    assert clone == model


def test_from_dict_rejects_unknown_keys():
    with pytest.raises((TypeError, ValueError)):
        CouplingModel.from_dict({"c1_magnitude": 0.3, "mystery": 1})


# ---------------------------------------------------------------------------
# Module imports
# ---------------------------------------------------------------------------


def _package_imports() -> dict[str, set[str]]:
    """The package modules each module of ``coarraylab`` imports."""
    package = Path(inputs.__file__).parent
    graph = {}
    for path in package.glob("*.py"):
        imported = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                imported |= {node.module} if node.module else {a.name for a in node.names}
        graph[path.stem] = imported
    return graph


def test_module_imports_form_a_tree_rooted_at_the_input_rules():
    """``inputs`` imports no package module, every module that parses an
    integer takes the rule from it, and the package's imports, those under
    TYPE_CHECKING included, have no cycle."""
    graph = _package_imports()
    assert graph["inputs"] == set()
    for module in ("coarray", "coupling", "estimation", "geometry", "signal"):
        assert "inputs" in graph[module], module
    graph.pop("__init__")
    graphlib.TopologicalSorter(graph).prepare()  # raises CycleError on a cycle
