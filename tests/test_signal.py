"""Tests for scenario handling, snapshot simulation, extended covariance,
and virtual-array observation."""

from __future__ import annotations

import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from coarraylab import coarray, coupling, geometry, presets, signal
from coarraylab.signal import (
    ExtendedCovariance,
    Scenario,
    SNAPSHOT_MAGIC,
    exact_extended_covariance,
    extended_covariance,
    extended_lag_matrix,
    lag_plan,
    load_scenario,
    read_snapshots,
    simulate_snapshots,
    source_steering,
    steering_matrix,
    steering_vector,
    trial_rng,
    virtual_observation,
    write_snapshots,
)

EPS = np.finfo(float).eps


# ---------------------------------------------------------------------------
# Scenario validation and serialization
# ---------------------------------------------------------------------------


def test_scenario_defaults():
    sc = Scenario(angles_deg=(10.0, -20.0), snapshots=100)
    assert sc.num_sources == 2
    assert sc.powers == (1.0, 1.0)
    assert sc.nc_phases == (0.0, 0.0)
    assert sc.snr_db == 0.0
    assert sc.seed == 0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"angles_deg": (), "snapshots": 10},
        {"angles_deg": (95.0,), "snapshots": 10},
        {"angles_deg": (90.0,), "snapshots": 10},
        {"angles_deg": (-90.0,), "snapshots": 10},
        {"angles_deg": (10.0, 10.0), "snapshots": 10},
        {"angles_deg": (10.0,), "snapshots": 0},
        {"angles_deg": (10.0,), "snapshots": 10, "powers": (1.0, 2.0)},
        {"angles_deg": (10.0,), "snapshots": 10, "powers": (-0.5,)},
        {"angles_deg": (10.0,), "snapshots": 10, "nc_phases": (0.0, 0.1)},
        {"angles_deg": (float("nan"),), "snapshots": 10},
        {"angles_deg": (10.0,), "snapshots": 10, "snr_db": float("nan")},
        {"angles_deg": (10.0,), "snapshots": 10, "powers": (float("nan"),)},
        {"angles_deg": (10.0,), "snapshots": 10, "powers": (float("inf"),)},
        {"angles_deg": (10.0,), "snapshots": 10, "nc_phases": (float("nan"),)},
        {"angles_deg": (10.0,), "snapshots": 2.7},
        {"angles_deg": (10.0,), "snapshots": float("nan")},
        {"angles_deg": (10.0,), "snapshots": None},
        {"angles_deg": (10.0,), "snapshots": "10"},
        {"angles_deg": (10.0,), "snapshots": 10, "seed": 2.5},
        {"angles_deg": (10.0,), "snapshots": 10, "seed": True},
        {"angles_deg": (10.0,), "snapshots": 10, "seed": None},
        {"angles_deg": (10.0,), "snapshots": 10, "seed": float("inf")},
        {"angles_deg": (None,), "snapshots": 10},
        {"angles_deg": None, "snapshots": 10},
        {"angles_deg": (10.0,), "snapshots": 10, "powers": (None,)},
        {"angles_deg": (10.0,), "snapshots": 10, "nc_phases": (None,)},
        {"angles_deg": (10.0,), "snapshots": 10, "snr_db": "10"},
    ],
)
def test_scenario_rejects_bad_inputs(kwargs):
    with pytest.raises(ValueError):
        Scenario(**kwargs)


def test_scenario_accepts_integral_float_snapshots():
    assert Scenario(angles_deg=(10.0,), snapshots=12.0).snapshots == 12


def test_scenario_allows_zero_power_source():
    sc = Scenario(angles_deg=(10.0, 20.0), snapshots=10, powers=(1.0, 0.0))
    assert sc.powers == (1.0, 0.0)


@pytest.mark.parametrize(
    ("snr_db", "expected"),
    [(0.0, 1.0), (10.0, 0.1), (-10.0, 10.0), (None, 0.0), (float("inf"), 0.0)],
)
def test_noise_power_rule(snr_db, expected):
    sc = Scenario(angles_deg=(5.0,), snapshots=10, snr_db=snr_db)
    assert sc.noise_power == pytest.approx(expected, rel=1e-15)


def test_scenario_dict_round_trip():
    sc = Scenario(
        angles_deg=(-30.0, 0.5, 44.0),
        snapshots=512,
        snr_db=7.5,
        powers=(1.0, 0.5, 2.0),
        nc_phases=(0.0, 0.1, -0.2),
        seed=99,
    )
    assert Scenario.from_dict(sc.to_dict()) == sc


def test_scenario_from_dict_requires_core_fields():
    with pytest.raises(ValueError):
        Scenario.from_dict({"angles_deg": [1.0]})
    with pytest.raises(ValueError):
        Scenario.from_dict([1, 2, 3])
    # a misspelt key is named, not silently replaced by its default
    with pytest.raises(ValueError, match="snr_dB"):
        Scenario.from_dict({"angles_deg": [10], "snapshots": 50, "snr_dB": 30})


def test_load_scenario_plain(tmp_path):
    path = tmp_path / "sc.json"
    path.write_text(json.dumps({"angles_deg": [3.0, -8.0], "snapshots": 64}))
    sc, model = load_scenario(path)
    assert sc.angles_deg == (3.0, -8.0)
    assert model is None


def test_load_scenario_with_preset_coupling(tmp_path):
    path = tmp_path / "sc.json"
    path.write_text(
        json.dumps(
            {"angles_deg": [3.0], "snapshots": 64, "coupling": "paper-v"}
        )
    )
    _, model = load_scenario(path)
    assert model == coupling.PAPER_V


def test_load_scenario_with_inline_coupling(tmp_path):
    path = tmp_path / "sc.json"
    path.write_text(
        json.dumps(
            {
                "angles_deg": [3.0],
                "snapshots": 64,
                "coupling": {"c1_magnitude": 0.2, "band_limit": 4},
            }
        )
    )
    _, model = load_scenario(path)
    assert model.c1_magnitude == 0.2
    assert model.band_limit == 4


def test_load_scenario_rejects_garbage(tmp_path):
    path = tmp_path / "sc.json"
    path.write_text("{not json")
    with pytest.raises(ValueError):
        load_scenario(path)
    path.write_text(json.dumps({"angles_deg": [3.0], "snapshots": 64, "coupling": "nope"}))
    with pytest.raises(ValueError):
        load_scenario(path)


# ---------------------------------------------------------------------------
# Steering vectors
# ---------------------------------------------------------------------------


def test_steering_vector_closed_form_at_30_degrees():
    arr = geometry.from_positions("pair", [0, 1])
    a = steering_vector(arr, 30.0)
    np.testing.assert_allclose(a, [1.0, -1.0j], atol=1e-12)


def test_steering_vector_at_broadside_is_all_ones():
    arr = geometry.design_aulas(12)
    np.testing.assert_array_equal(steering_vector(arr, 0.0), np.ones(12))


def test_steering_vector_has_unit_modulus():
    arr = geometry.design_tsaulas(9)
    a = steering_vector(arr, -37.25)
    np.testing.assert_allclose(np.abs(a), 1.0, rtol=1e-14)


def test_steering_vector_rejects_endfire():
    arr = geometry.design_ula(4)
    with pytest.raises(ValueError):
        steering_vector(arr, 90.0)
    with pytest.raises(ValueError):
        steering_vector(arr, -93.0)


def test_steering_matrix_columns_match_vectors():
    arr = geometry.design_saulas(9)
    angles = [-41.0, 2.5, 60.0]
    a = steering_matrix(arr, angles)
    assert a.shape == (9, 3)
    for z, angle in enumerate(angles):
        np.testing.assert_array_equal(a[:, z], steering_vector(arr, angle))


# ---------------------------------------------------------------------------
# RNG streams and snapshot simulation
# ---------------------------------------------------------------------------


def test_trial_rng_is_reproducible_and_trial_dependent():
    a = trial_rng(7, 3).standard_normal(8)
    b = trial_rng(7, 3).standard_normal(8)
    c = trial_rng(7, 4).standard_normal(8)
    d = trial_rng(8, 3).standard_normal(8)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_simulate_snapshots_shape_and_determinism():
    arr = geometry.design_aulas(9)
    sc = Scenario(angles_deg=(10.0, -25.0), snapshots=50, seed=5)
    x1 = simulate_snapshots(arr, sc)
    x2 = simulate_snapshots(arr, sc)
    assert x1.shape == (9, 50)
    assert np.iscomplexobj(x1)
    np.testing.assert_array_equal(x1, x2)
    x3 = simulate_snapshots(arr, sc, trial=1)
    assert not np.array_equal(x1, x3)


def test_noiseless_coupling_is_left_multiplication():
    arr = geometry.design_saulas(12)
    sc = Scenario(angles_deg=(10.0, -25.0), snapshots=40, snr_db=None, seed=3)
    clean = simulate_snapshots(arr, sc)
    coupled = simulate_snapshots(arr, sc, coupling=coupling.PAPER_V)
    c = coupling.coupling_matrix(arr, coupling.PAPER_V)
    np.testing.assert_allclose(coupled, c @ clean, rtol=1e-12)


def test_zero_power_source_does_not_add_rank():
    arr = geometry.design_aulas(9)
    sc = Scenario(
        angles_deg=(10.0, -25.0), snapshots=60, snr_db=None, powers=(1.0, 0.0)
    )
    x = simulate_snapshots(arr, sc)
    s = np.linalg.svd(x, compute_uv=False)
    assert s[0] > 1.0
    assert s[1] < 1e-12 * s[0]


def test_sources_are_strictly_non_circular():
    # One noiseless source: every snapshot is a real multiple of the same
    # fixed complex vector, so rotating that vector away leaves real data.
    arr = geometry.design_tsaulas(9)
    phi = 0.7
    sc = Scenario(
        angles_deg=(33.0,), snapshots=200, snr_db=None, nc_phases=(phi,), seed=11
    )
    x = simulate_snapshots(arr, sc)
    v = np.exp(1j * phi) * steering_vector(arr, 33.0)
    ratios = x / v[:, None]
    np.testing.assert_allclose(ratios.imag, 0.0, atol=1e-13)
    assert np.allclose(ratios, ratios[0][None, :], rtol=1e-12, atol=1e-13)


def two_draw_snapshots(array, scenario, coupling_model=None, trial=0):
    """Oracle: the snapshots with the two noise planes drawn one call each
    and added as sqrt(p_n / 2) * (n_re + 1j * n_im)."""
    rng = trial_rng(scenario.seed, trial)
    a = steering_matrix(array, scenario.angles_deg)
    if coupling_model is not None:
        a = coupling.coupling_matrix(array, coupling_model) @ a
    p = np.asarray(scenario.powers)
    phases = np.exp(1j * np.asarray(scenario.nc_phases))
    amplitudes = rng.standard_normal((scenario.num_sources, scenario.snapshots))
    x = a @ ((np.sqrt(p) * phases)[:, None] * amplitudes)
    pn = scenario.noise_power
    if pn > 0:
        shape = (array.n, scenario.snapshots)
        noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        x = x + np.sqrt(pn / 2.0) * noise
    return x


@settings(deadline=None, max_examples=60)
@given(
    st.sets(st.integers(-30, 30), min_size=1, max_size=8),
    st.lists(st.floats(-80.0, 80.0), min_size=1, max_size=3, unique=True),
    st.sampled_from([30.0, 0.0, -10.0]),
    st.integers(1, 40),
    st.sampled_from([None, "paper-v"]),
    st.integers(0, 3),
    st.one_of(st.just(signal.NOISE_BLOCK), st.integers(1, 100)),
)
def test_one_draw_noise_is_byte_identical_to_two_draws(
    points, angles, snr_db, snapshots, coupling_name, trial, block
):
    """With every source power 0 the snapshots are the noise alone: the
    2N x T planes, drawn NOISE_BLOCK samples at a time, give the oracle's
    bytes, after the same amplitude draw from the same stream.  Small
    blocks split the rows into several draws with a partial last one."""
    arr = geometry.from_positions("rand", points)
    sc = Scenario(angles_deg=tuple(angles), snapshots=snapshots, snr_db=snr_db,
                  powers=(0.0,) * len(angles), seed=trial + 5)
    model = None if coupling_name is None else coupling.get_preset(coupling_name)
    default, signal.NOISE_BLOCK = signal.NOISE_BLOCK, block
    try:
        got = simulate_snapshots(arr, sc, coupling=model, trial=trial)
    finally:
        signal.NOISE_BLOCK = default
    want = two_draw_snapshots(arr, sc, model, trial)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    # the prebuilt C A of a many-trial caller gives the same draw
    steering = source_steering(arr, sc, model)
    shared = simulate_snapshots(arr, sc, trial=trial, steering=steering)
    assert shared.tobytes() == want.tobytes()


@settings(deadline=None, max_examples=200)
@given(
    st.sets(st.integers(-30, 30), min_size=1, max_size=8),
    st.lists(st.floats(-80.0, 80.0), min_size=1, max_size=4, unique=True),
    st.lists(st.sampled_from([0.0, 1e-3, 0.5, 1.0, 3.0, 1e3]), min_size=4, max_size=4),
    st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4),
    st.integers(1, 40),
    st.sampled_from([None, "paper-v"]),
    st.integers(0, 3),
)
def test_signal_term_matches_the_complex_product(
    points, angles, powers, phases, snapshots, coupling_name, trial
):
    """The noiseless snapshots (a c) r, drawn as planes, match the oracle's
    complex a (c r) to rounding: each entry sums Z products whose rounding
    in either order is at most a few eps of sum_z |a_z| |c_z| |r_z(t)|."""
    z = len(angles)
    arr = geometry.from_positions("rand", points)
    sc = Scenario(angles_deg=tuple(angles), snapshots=snapshots, snr_db=None,
                  powers=tuple(powers[:z]), nc_phases=tuple(phases[:z]), seed=trial + 5)
    model = None if coupling_name is None else coupling.get_preset(coupling_name)
    got = simulate_snapshots(arr, sc, coupling=model, trial=trial)
    want = two_draw_snapshots(arr, sc, model, trial)
    amplitudes = trial_rng(sc.seed, trial).standard_normal((z, snapshots))
    scale = np.abs(source_steering(arr, sc, model)) @ (
        np.sqrt(sc.powers)[:, None] * np.abs(amplitudes))
    bound = 4 * (z + 4) * EPS * scale
    assert np.all(np.abs(got.real - want.real) <= bound)
    assert np.all(np.abs(got.imag - want.imag) <= bound)


@pytest.mark.parametrize(
    "arr, preset",
    [
        (geometry.design_saulas(12), "fig12"),
        (geometry.design_saulas(12), "fig13"),
        (geometry.design_cotsaulas(12), "fig13"),
        (geometry.design_cotsaulas(32), None),
        (geometry.design_saulas(9), None),
    ],
    ids=["fig12-saulas12", "fig13-saulas12", "fig13-cotsaulas12", "cotsaulas32", "saulas9"],
)
def test_unit_power_planes_are_the_complex_product_bit_for_bit(arr, preset):
    """With unit powers and zero phases B = C A exactly, and at the preset
    and long-record shapes the real and complex products of the bundled
    BLAS sum each entry in the same order, so the planes hold the bytes of
    the complex form a (c r) plus noise: the draw behind every golden file
    and benchmark reference is unchanged.  At other shapes (one sensor, a
    few snapshots) the two products may round differently, within the
    bound above."""
    if preset is None:
        sc = Scenario(angles_deg=(-40.3, -12.1, 5.7, 22.2, 51.9), snapshots=5000,
                      snr_db=0.0, seed=7)
        model = coupling.PAPER_V
    else:
        p = presets.get_scenario_preset(preset)
        sc, model = p.scenario, p.coupling
    planes = simulate_snapshots(arr, sc, coupling=model, trial=2, planes=True)
    want = two_draw_snapshots(arr, sc, model, trial=2)
    assert planes.shape == (2 * arr.n, sc.snapshots) and planes.dtype == float
    assert planes[: arr.n].tobytes() == np.ascontiguousarray(want.real).tobytes()
    assert planes[arr.n :].tobytes() == np.ascontiguousarray(want.imag).tobytes()
    x = simulate_snapshots(arr, sc, coupling=model, trial=2)
    assert x.tobytes() == signal.snapshots_from_planes(planes).tobytes() == want.tobytes()


def test_simulate_snapshots_takes_one_source_of_the_steering():
    arr = geometry.design_aulas(9)
    sc = Scenario(angles_deg=(-20.0, 10.0, 35.0), snapshots=8)
    steering = source_steering(arr, sc, coupling.PAPER_V)
    with pytest.raises(ValueError, match="not both"):
        simulate_snapshots(arr, sc, coupling=coupling.PAPER_V, steering=steering)
    with pytest.raises(ValueError, match="shape"):
        simulate_snapshots(arr, sc, steering=steering[:, :2])
    with pytest.raises(ValueError, match="shape"):
        simulate_snapshots(geometry.design_aulas(10), sc, steering=steering)


def test_sample_covariance_converges_to_ensemble_covariance():
    arr = geometry.design_saulas(9)
    sc = Scenario(
        angles_deg=(12.0, -31.0),
        snapshots=200_000,
        snr_db=10.0,
        nc_phases=(0.3, -0.9),
        seed=17,
    )
    sample = extended_covariance(simulate_snapshots(arr, sc))
    exact = exact_extended_covariance(arr, sc)
    for got, want in ((sample.r_s, exact.r_s), (sample.r_hat, exact.r_hat)):
        rel = np.linalg.norm(got - want) / np.linalg.norm(want)
        assert rel < 0.02


# ---------------------------------------------------------------------------
# Extended covariance
# ---------------------------------------------------------------------------


def test_extended_covariance_blocks_and_stack():
    arr = geometry.design_aulas(9)
    sc = Scenario(angles_deg=(10.0,), snapshots=32, seed=2)
    ec = extended_covariance(simulate_snapshots(arr, sc))
    assert ec.n == 9
    r_so = ec.r_so
    assert r_so.shape == (18, 18)
    np.testing.assert_array_equal(r_so[:9, :9], ec.r_s)
    np.testing.assert_array_equal(r_so[:9, 9:], ec.r_hat)
    np.testing.assert_array_equal(r_so[9:, :9], np.conj(ec.r_hat))
    np.testing.assert_array_equal(r_so[9:, 9:], np.conj(ec.r_s))
    # the stacked matrix is Hermitian
    np.testing.assert_allclose(r_so, r_so.conj().T, atol=1e-13)


@settings(deadline=None)
@given(
    st.integers(1, 12),
    st.integers(1, 60),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1e-3, 1.0, 1e4]),
    st.booleans(),
)
def test_gram_covariance_matches_the_complex_products(n, t, seed, scale, real):
    rng = np.random.default_rng(seed)
    x = scale * rng.standard_normal((n, t))
    if not real:
        x = x + 1j * scale * rng.standard_normal((n, t))
    ec = extended_covariance(x)
    # the trial pipeline's route: the same Gram of the planes [Re X; Im X]
    planes = np.concatenate([x.real, np.imag(x)])
    from_planes = signal.gram_covariance(signal.planes_gram(planes))
    assert from_planes.r_s.tobytes() == ec.r_s.tobytes()
    assert from_planes.r_hat.tobytes() == ec.r_hat.tobytes()
    want_s, want_hat = reference.covariances(x)
    # each entry is a length-T dot product over T
    atol = 4 * t * EPS * np.abs(x).max() ** 2
    np.testing.assert_allclose(ec.r_s, want_s, rtol=0, atol=atol)
    np.testing.assert_allclose(ec.r_hat, want_hat, rtol=0, atol=atol)
    # both blocks come from one symmetric Gram: the symmetries are exact
    assert np.array_equal(ec.r_s, ec.r_s.conj().T)
    assert np.array_equal(ec.r_hat, ec.r_hat.T)
    assert ec.r_s.dtype == ec.r_hat.dtype == complex


def test_extended_covariance_rejects_bad_shapes():
    with pytest.raises(ValueError):
        extended_covariance(np.zeros(5, dtype=complex))
    for planes in (np.zeros(6), np.zeros((3, 4)), np.zeros((4, 4), dtype=complex)):
        with pytest.raises(ValueError, match="real 2N x T"):
            signal.planes_gram(planes)
        with pytest.raises(ValueError, match="real 2N x T"):
            signal.snapshots_from_planes(planes)
    for gram in (np.zeros(4), np.zeros((4, 6)), np.zeros((2, 3, 3))):
        with pytest.raises(ValueError, match="real 2N x 2N"):
            signal.gram_covariance(gram)
    with pytest.raises(ValueError):
        ExtendedCovariance(r_s=np.eye(3), r_hat=np.eye(4))


def test_exact_extended_covariance_single_source():
    arr = geometry.design_aulas(9)
    phi = 0.4
    sc = Scenario(
        angles_deg=(25.0,), snapshots=10, snr_db=3.0, powers=(2.0,), nc_phases=(phi,)
    )
    ec = exact_extended_covariance(arr, sc)
    a = steering_vector(arr, 25.0)
    want_rs = 2.0 * np.outer(a, a.conj()) + sc.noise_power * np.eye(9)
    want_rh = 2.0 * np.exp(2j * phi) * np.outer(a, a)
    np.testing.assert_allclose(ec.r_s, want_rs, atol=1e-14)
    np.testing.assert_allclose(ec.r_hat, want_rh, atol=1e-14)


# ---------------------------------------------------------------------------
# Virtual-array observation
# ---------------------------------------------------------------------------


def test_extended_lag_matrix_spans_sum_difference_coarray():
    for arr in (
        geometry.design_aulas(9),
        geometry.design_tsaulas(12),
        geometry.from_positions("probe", [3, 6, 9, 10, 12]),
    ):
        lags = np.unique(extended_lag_matrix(arr))
        np.testing.assert_array_equal(lags, coarray.sum_difference_coarray(arr))


@given(st.sets(st.integers(-40, 40), min_size=1, max_size=10))
def test_extended_lags_equal_sum_difference_coarray(points):
    arr = geometry.from_positions("rand", sorted(points))
    np.testing.assert_array_equal(
        np.unique(extended_lag_matrix(arr)), coarray.sum_difference_coarray(arr)
    )


@settings(deadline=None)
@given(
    st.sets(st.integers(-40, 40), min_size=1, max_size=10),
    st.lists(st.floats(-89.0, 89.0), min_size=1, max_size=4, unique=True),
    st.lists(st.floats(0.1, 10.0), min_size=4, max_size=4),
)
def test_exact_covariance_gives_ideal_virtual_observation(points, angles, powers):
    """Without noise and with zero non-circularity phases, every extended
    covariance entry at lag l is sum_z p_z exp(-j pi l sin theta_z)."""
    arr = geometry.from_positions("rand", sorted(points))
    sc = Scenario(angles_deg=tuple(angles), snapshots=1, snr_db=None,
                  powers=tuple(powers[: len(angles)]))
    vo = virtual_observation(exact_extended_covariance(arr, sc), lag_plan(arr))
    sines = np.sin(np.deg2rad(sc.angles_deg))
    ideal = np.exp(-1j * np.pi * vo.lags[:, None] * sines[None, :]) @ np.asarray(sc.powers)
    np.testing.assert_allclose(vo.values, ideal, rtol=0, atol=1e-12 * sum(sc.powers))


def random_blocks(n, seed):
    """Two unrelated complex N x N blocks: neither Hermitian nor symmetric."""
    re, im = np.random.default_rng(seed).standard_normal((2, 2, n, n))
    r_s, r_hat = re + 1j * im
    return ExtendedCovariance(r_s=r_s, r_hat=r_hat)


@settings(deadline=None)
@given(
    st.sets(st.integers(-40, 40), min_size=1, max_size=10),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
@example(points={0}, seed=1, exact=False)
@example(points={-3}, seed=2, exact=True)
@example(points={-7, -2, 0, 5}, seed=3, exact=True)
def test_planned_average_matches_the_unique_oracle(points, seed, exact):
    arr = geometry.from_positions("rand", points)
    if exact:
        rng = np.random.default_rng(seed)
        angles = tuple(np.unique(np.round(rng.uniform(-80, 80, 3), 2)))
        sc = Scenario(angles_deg=angles, snapshots=1, snr_db=5.0,
                      nc_phases=tuple(rng.uniform(-3, 3, len(angles))))
        ec = exact_extended_covariance(arr, sc)
    else:
        ec = random_blocks(arr.n, seed)
    vo = virtual_observation(ec, lag_plan(arr))
    lags, want = reference.averaged_r_so(ec, arr)
    np.testing.assert_array_equal(vo.lags, lags)
    scale = max(np.abs(ec.r_s).max(), np.abs(ec.r_hat).max())
    np.testing.assert_allclose(vo.values, want, rtol=0, atol=arr.n * EPS * scale)
    # the plan's counts are the oracle's entries per lag
    plan = lag_plan(arr)
    within = np.abs(extended_lag_matrix(arr)) <= plan.half_width
    np.testing.assert_array_equal(
        plan.counts, np.bincount((extended_lag_matrix(arr)[within] + plan.half_width))
    )


def test_lag_plan_reads_the_subarray_length_and_is_read_only():
    arr = geometry.design_saulas(12)
    plan = lag_plan(arr)
    assert plan.half_width == 94 and plan.default_length == 95
    np.testing.assert_array_equal(plan.lags, np.arange(-94, 95))
    for shared in (plan.lags, plan.index, plan.bins, plan.counts):
        assert not shared.flags.writeable


def _lag_plan_oracle(arr):
    """The lag plan the long way: uDOFs from a separate
    sum_difference_coarray pass, and the upper rows kept from the full
    2N x 2N extended_lag_matrix."""
    udofs, _ = coarray.contiguous_stats(coarray.sum_difference_coarray(arr))
    half = (udofs - 1) // 2
    upper = extended_lag_matrix(arr)[: arr.n].ravel()
    index = np.flatnonzero(np.abs(upper) <= half)
    bins = upper[index] + half
    counts = np.bincount(bins, minlength=2 * half + 1)
    counts = counts + counts[::-1]
    return np.arange(-half, half + 1, dtype=np.int64), index, bins, counts


def _assert_plan_matches_the_oracle(arr):
    plan = lag_plan(arr)
    assert plan.positions == arr.positions
    for got, want in zip((plan.lags, plan.index, plan.bins, plan.counts), _lag_plan_oracle(arr)):
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("family", geometry.GENERATED_FAMILIES)
def test_lag_plan_matches_the_full_matrix_oracle(family):
    for n in geometry.sensor_counts(family, 0, 64):
        _assert_plan_matches_the_oracle(geometry.design(family, n))


def test_lag_plan_of_nested_arrays_matches_the_full_matrix_oracle():
    for n_dense in range(1, 9):
        for n_sparse in range(1, 9):
            _assert_plan_matches_the_oracle(geometry.design_nested(n_dense, n_sparse))


@given(st.sets(st.integers(-60, 60), min_size=1, max_size=12))
@example({0})
@example({-5, 3})
def test_lag_plan_of_raw_geometries_matches_the_full_matrix_oracle(points):
    _assert_plan_matches_the_oracle(geometry.from_positions("rand", points))


def test_virtual_observation_lag_axis():
    arr = geometry.design_saulas(12)
    sc = Scenario(angles_deg=(10.0,), snapshots=16, seed=1)
    vo = virtual_observation(extended_covariance(simulate_snapshots(arr, sc)), lag_plan(arr))
    # SAULAs with 12 sensors: 189 contiguous lags, half-width 94
    assert vo.half_width == 94
    np.testing.assert_array_equal(vo.lags, np.arange(-94, 95))
    assert vo.values.shape == (189,)


def test_virtual_observation_from_ensemble_covariance_is_pure_phase():
    arr = geometry.design_saulas(12)
    theta = 20.0
    sc = Scenario(angles_deg=(theta,), snapshots=10, snr_db=None)
    vo = virtual_observation(exact_extended_covariance(arr, sc), lag_plan(arr))
    expected = np.exp(-1j * np.pi * vo.lags * np.sin(np.deg2rad(theta)))
    np.testing.assert_allclose(vo.values, expected, atol=1e-12)


def test_virtual_observation_conjugate_symmetry():
    arr = geometry.design_aulas(9)
    sc = Scenario(angles_deg=(5.0, -40.0), snapshots=300, seed=8)
    vo = virtual_observation(extended_covariance(simulate_snapshots(arr, sc)), lag_plan(arr))
    scale = np.abs(vo.values).max()
    np.testing.assert_allclose(
        vo.values, np.conj(vo.values[::-1]), atol=1e-13 * scale
    )


def test_virtual_observation_zero_lag_is_real_average_power():
    arr = geometry.design_saulas(12)  # no sensor pair straddles zero
    sc = Scenario(angles_deg=(5.0, -40.0), snapshots=128, seed=8)
    ec = extended_covariance(simulate_snapshots(arr, sc))
    vo = virtual_observation(ec, lag_plan(arr))
    zero = vo.value_at(0)
    assert zero.imag == 0.0
    assert zero.real == pytest.approx(np.mean(np.diag(ec.r_s).real), rel=1e-12)


def test_virtual_observation_value_at_bounds():
    arr = geometry.design_aulas(9)
    sc = Scenario(angles_deg=(5.0,), snapshots=16)
    vo = virtual_observation(extended_covariance(simulate_snapshots(arr, sc)), lag_plan(arr))
    with pytest.raises(ValueError):
        vo.value_at(vo.half_width + 1)
    with pytest.raises(ValueError):
        vo.value_at(-vo.half_width - 1)


@pytest.mark.parametrize("lag", [1.7, -0.5, True, float("nan"), None])
def test_virtual_observation_value_at_rejects_non_integer_lags(lag):
    vo = signal.VirtualObservation(lags=np.arange(-2, 3), values=np.arange(5, dtype=complex))
    with pytest.raises(ValueError, match="lag"):
        vo.value_at(lag)


def test_virtual_observation_rejects_size_mismatch():
    arr = geometry.design_aulas(9)
    other = geometry.design_aulas(12)
    sc = Scenario(angles_deg=(5.0,), snapshots=16)
    ec = extended_covariance(simulate_snapshots(other, sc))
    with pytest.raises(ValueError):
        virtual_observation(ec, lag_plan(arr))


# ---------------------------------------------------------------------------
# Snapshot dump format
# ---------------------------------------------------------------------------


def test_snapshot_file_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
    path = tmp_path / "snap.bin"
    write_snapshots(path, x)
    back = read_snapshots(path)
    assert back.shape == (5, 7)
    assert back.dtype == np.complex128
    np.testing.assert_array_equal(back, x.astype(np.complex64).astype(np.complex128))


@given(st.integers(1, 6), st.integers(1, 20), st.integers(0, 2**32 - 1))
@example(1, 1, 0)
@example(1, 20, 0)
@example(6, 1, 0)
def test_snapshot_dump_round_trips_as_complex64(n, t, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, t)) + 1j * rng.standard_normal((n, t))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "snap.bin"
        write_snapshots(path, x)
        back = read_snapshots(path)
    assert back.shape == (n, t)
    np.testing.assert_array_equal(back, x.astype(np.complex64))


def test_snapshot_file_header_layout(tmp_path):
    path = tmp_path / "snap.bin"
    write_snapshots(path, np.zeros((3, 4), dtype=complex))
    raw = path.read_bytes()
    assert raw[:4] == SNAPSHOT_MAGIC
    version, n, t = struct.unpack("<III", raw[4:16])
    assert (version, n, t) == (1, 3, 4)
    assert len(raw) == 16 + 8 * 3 * 4


def test_snapshot_file_rejects_corruption(tmp_path):
    path = tmp_path / "snap.bin"
    write_snapshots(path, np.zeros((3, 4), dtype=complex))
    raw = bytearray(path.read_bytes())

    bad_magic = tmp_path / "bad_magic.bin"
    bad_magic.write_bytes(b"XXXX" + bytes(raw[4:]))
    with pytest.raises(ValueError):
        read_snapshots(bad_magic)

    bad_version = tmp_path / "bad_version.bin"
    bad_version.write_bytes(bytes(raw[:4]) + struct.pack("<III", 9, 3, 4) + bytes(raw[16:]))
    with pytest.raises(ValueError):
        read_snapshots(bad_version)

    truncated = tmp_path / "trunc.bin"
    truncated.write_bytes(bytes(raw[:-8]))
    with pytest.raises(ValueError):
        read_snapshots(truncated)


def test_write_snapshots_rejects_non_matrix(tmp_path):
    with pytest.raises(ValueError):
        write_snapshots(tmp_path / "x.bin", np.zeros(5, dtype=complex))
