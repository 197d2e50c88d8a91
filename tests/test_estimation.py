"""Tests for spatial smoothing, the subspace spectrum search, peak picking,
error scoring, and the Monte-Carlo loop."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarraylab import estimation, geometry
from coarraylab.estimation import (
    MusicConfig,
    estimate_doas,
    estimate_from_snapshots,
    monte_carlo,
    music_spectrum,
    pick_peaks,
    required_subarray_length,
    rmse,
    signal_subspace,
    spatial_smoothing,
    spectrum_to_csv,
)
from coarraylab.signal import (
    Scenario,
    VirtualObservation,
    exact_extended_covariance,
    extended_covariance,
    simulate_snapshots,
    virtual_observation,
)


# ---------------------------------------------------------------------------
# Grid configuration
# ---------------------------------------------------------------------------


def test_default_config_grid():
    cfg = MusicConfig(num_sources=3)
    assert cfg.grid_points == 17999
    assert cfg.grid_start == -89.99
    assert cfg.grid_stop == 89.99
    assert cfg.grid_step == pytest.approx(0.01, rel=1e-12)
    assert cfg.error_cap_deg == pytest.approx(89.99)
    grid = cfg.grid
    assert grid.shape == (17999,)
    assert grid[0] == -89.99 and grid[-1] == 89.99


def test_for_step_builds_open_interval_grid():
    cfg = MusicConfig.for_step(55, 0.05)
    assert cfg.grid_points == 3599
    assert cfg.grid_start == -89.95
    assert cfg.grid_stop == 89.95
    assert cfg.grid_step == pytest.approx(0.05, rel=1e-12)
    assert cfg.error_cap_deg == pytest.approx(89.95)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"num_sources": 0},
        {"num_sources": 2, "grid_points": 1},
        {"num_sources": 2, "grid_start": 10.0, "grid_stop": 10.0},
        {"num_sources": 2, "grid_start": -100.0},
        {"num_sources": 2, "grid_stop": 100.0},
        {"num_sources": 2, "smoothing_length": 1},
        {"num_sources": 2, "smoothing_length": 20.5},
        {"num_sources": 2.5},
        {"num_sources": True},
        {"num_sources": float("nan")},
        {"num_sources": None},
        {"num_sources": 2, "grid_points": 100.5},
        {"num_sources": 2, "grid_points": float("inf")},
        {"num_sources": 2, "smoothing_length": float("nan")},
    ],
)
def test_config_rejects_bad_inputs(kwargs):
    with pytest.raises(ValueError):
        MusicConfig(**kwargs)


@pytest.mark.parametrize("field", ["num_sources", "grid_points", "smoothing_length"])
def test_config_names_a_non_integral_field(field):
    kwargs = {"num_sources": 2, field: 20.5}
    with pytest.raises(ValueError, match=field):
        MusicConfig(**kwargs)


def test_config_stores_integral_floats_as_ints():
    cfg = MusicConfig(num_sources=2.0, grid_points=91.0, smoothing_length=20.0)
    assert (cfg.num_sources, cfg.grid_points, cfg.smoothing_length) == (2, 91, 20)
    assert all(type(v) is int for v in (cfg.num_sources, cfg.grid_points, cfg.smoothing_length))


def test_for_step_rejects_a_step_too_fine_to_count():
    with pytest.raises(ValueError, match="does not divide"):
        MusicConfig.for_step(2, 1e-320)


def test_for_step_rejects_nonpositive_step():
    with pytest.raises(ValueError):
        MusicConfig.for_step(2, 0.0)


@pytest.mark.parametrize(("step", "points"), [(0.01, 17999), (0.05, 3599), (0.5, 359), (1.0, 179)])
def test_for_step_accepts_pitches_that_divide_180(step, points):
    assert MusicConfig.for_step(2, step).grid_points == points


@pytest.mark.parametrize("step", [0.07, 0.7, 7.0, float("nan")])
def test_for_step_rejects_pitches_that_do_not_divide_180(step):
    with pytest.raises(ValueError):
        MusicConfig.for_step(2, step)


# ---------------------------------------------------------------------------
# Spatial smoothing
# ---------------------------------------------------------------------------


def test_smoothing_hand_example():
    v = VirtualObservation(lags=np.arange(-1, 2), values=np.array([2 - 1j, 3, 2 + 1j]))
    got = spatial_smoothing(v, 2)
    expected = np.array([[7.0, 6.0 - 3.0j], [6.0 + 3.0j, 7.0]])
    np.testing.assert_array_equal(got, expected)


def test_smoothing_default_length_and_shape():
    m = 6
    v = VirtualObservation(
        lags=np.arange(-m, m + 1), values=np.ones(2 * m + 1, dtype=complex)
    )
    r = spatial_smoothing(v)
    assert r.shape == (m + 1, m + 1)


def test_smoothing_of_pure_phase_ramp_is_rank_one_steering_product():
    m = 9
    lags = np.arange(-m, m + 1)
    mu = -np.pi * np.sin(np.deg2rad(27.0))
    v = VirtualObservation(lags=lags, values=np.exp(1j * mu * lags))
    r = spatial_smoothing(v)
    a = np.exp(1j * mu * np.arange(m + 1))
    np.testing.assert_allclose(r, np.outer(a, a.conj()), atol=1e-12)
    eigvals = np.linalg.eigvalsh(r)
    assert eigvals[-1] == pytest.approx(m + 1, rel=1e-12)
    assert abs(eigvals[-2]) < 1e-12


def test_smoothing_is_hermitian_and_psd():
    rng = np.random.default_rng(4)
    m = 20
    vals = rng.standard_normal(2 * m + 1) + 1j * rng.standard_normal(2 * m + 1)
    v = VirtualObservation(lags=np.arange(-m, m + 1), values=vals)
    r = spatial_smoothing(v)
    np.testing.assert_allclose(r, r.conj().T, atol=1e-13 * np.abs(r).max())
    assert np.linalg.eigvalsh(r).min() > -1e-12 * np.abs(r).max()


def test_smoothing_rejects_bad_inputs():
    good = VirtualObservation(lags=np.arange(-2, 3), values=np.ones(5, dtype=complex))
    with pytest.raises(ValueError):
        spatial_smoothing(good, 1)
    with pytest.raises(ValueError):
        spatial_smoothing(good, 6)
    with pytest.raises(ValueError, match="subarray_len"):
        spatial_smoothing(good, 2.5)
    assert spatial_smoothing(good, 5).shape == (5, 5)  # single full window
    skew = VirtualObservation(lags=np.arange(0, 5), values=np.ones(5, dtype=complex))
    with pytest.raises(ValueError):
        spatial_smoothing(skew)


def _window_product(v, length):
    """The O(K L^2) definition of R_ss: the oracle of ``spatial_smoothing``."""
    windows = np.lib.stride_tricks.sliding_window_view(v.values, length)
    return windows.T @ windows.conj() / windows.shape[0]


@st.composite
def _virtual_observations(draw):
    """Random complex samples, not conjugate-symmetric, over lags -m..m with
    magnitudes spread over six decades, and a window length in [2, 2m+1]:
    from K = 2m windows of length 2 to one window of length 2m + 1."""
    m = draw(st.integers(1, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = 2 * m + 1
    scale = 10.0 ** rng.uniform(-3.0, 3.0, size) if draw(st.booleans()) else 1.0
    values = (rng.standard_normal(size) + 1j * rng.standard_normal(size)) * scale
    length = draw(st.one_of(st.just(2), st.just(size), st.integers(2, size)))
    return VirtualObservation(lags=np.arange(-m, m + 1), values=values), length


@settings(deadline=None, max_examples=200)
@given(_virtual_observations())
def test_smoothing_matches_the_window_product(case):
    """The diagonal recurrence accumulates at most L roundings of products
    no larger than max |v|^2 (0.32 L eps max |v|^2 seen on 3000 cases)."""
    v, length = case
    got = spatial_smoothing(v, length)
    assert got.shape == (length, length)
    bound = length * np.finfo(float).eps * np.abs(v.values).max() ** 2
    assert np.abs(got - _window_product(v, length)).max() <= bound
    np.testing.assert_array_equal(np.triu(got, 1), np.tril(got, -1).conj().T)


# ---------------------------------------------------------------------------
# Subspace spectrum
# ---------------------------------------------------------------------------


def test_spectrum_rejects_too_many_sources():
    cfg = MusicConfig(num_sources=5, grid_points=91)
    with pytest.raises(ValueError, match="insufficient uDOFs"):
        music_spectrum(np.eye(5, dtype=complex), cfg)


def test_spectrum_rejects_non_hermitian():
    cfg = MusicConfig(num_sources=1, grid_points=91)
    bad = np.eye(4, dtype=complex)
    bad[0, 1] = 1.0
    with pytest.raises(ValueError, match="Hermitian"):
        music_spectrum(bad, cfg)
    with pytest.raises(ValueError):
        music_spectrum(np.ones((2, 3), dtype=complex), cfg)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_spectrum_rejects_non_finite_covariance(bad):
    r = np.eye(6, dtype=complex)
    r[2, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        music_spectrum(r, MusicConfig(num_sources=1, grid_points=91))


def test_spectrum_of_white_covariance_is_flat():
    cfg = MusicConfig(num_sources=2, grid_start=-80, grid_stop=80, grid_points=161)
    angles, spec = music_spectrum(np.eye(10, dtype=complex), cfg)
    assert angles.shape == spec.shape == (161,)
    # every direction projects identically onto an isotropic noise subspace
    np.testing.assert_allclose(spec, 1.0 / 8.0, rtol=1e-10)


def test_spectrum_peaks_at_on_grid_sources_exactly():
    arr = geometry.design_saulas(12)
    cfg = MusicConfig.for_step(3, 0.05)
    truth = (-20.15, 0.0, 33.3)  # all multiples of the 0.05-degree pitch
    sc = Scenario(angles_deg=truth, snapshots=10, snr_db=None)
    vo = virtual_observation(exact_extended_covariance(arr, sc), arr)
    angles, spec = music_spectrum(spatial_smoothing(vo), cfg)
    estimates, under = pick_peaks(angles, spec, 3)
    assert not under
    np.testing.assert_allclose(estimates, np.sort(truth), atol=1e-9)


def _kth_maxima_tie(spectrum, k):
    """Whether the k-th and (k+1)-th highest strict local maxima lie within
    1e-9 relative of each other, so rounding may order them either way."""
    s = np.asarray(spectrum)
    heights = np.sort(s[1:-1][(s[1:-1] > s[:-2]) & (s[1:-1] > s[2:])])[::-1]
    return heights.size > k and heights[k - 1] - heights[k] <= 1e-9 * heights[k - 1]


@st.composite
def _psd_cases(draw):
    """A random Hermitian PSD matrix (L 2-120) with a source count K < L.
    Half the cases are rank-K and noiseless, built from steering vectors at
    grid angles, so the spectrum has exact nulls on the grid."""
    length = draw(st.integers(2, 120))
    k = draw(st.integers(1, length - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    config = MusicConfig.for_step(k, 0.5)
    if draw(st.booleans()):
        thetas = rng.choice(config.grid, size=k, replace=False)
        x = np.exp(-1j * np.pi * np.arange(length)[:, None]
                   * np.sin(np.deg2rad(thetas))[None, :])
        x = x * np.sqrt(rng.uniform(0.5, 2.0, size=k))
    else:
        rank = draw(st.integers(1, length))
        x = rng.standard_normal((length, rank)) + 1j * rng.standard_normal((length, rank))
    r = x @ x.conj().T
    return (r + r.conj().T) / 2, config


@settings(deadline=None, max_examples=150)
@given(_psd_cases())
def test_spectrum_matches_direct_projection(case):
    r, config = case
    k = config.num_sources
    angles, spec = music_spectrum(r, config)
    assert np.all(np.isfinite(spec)) and np.all(spec > 0)
    _, vectors = np.linalg.eigh(r)  # the oracle projects onto the same E_n
    direct = estimation._null_spectrum_direct(vectors[:, : r.shape[0] - k], angles)
    with np.errstate(divide="ignore"):
        direct_spec = 1.0 / direct
    above = direct > estimation.GUARD_FACTOR * r.shape[0] ** 2 * np.finfo(float).eps
    np.testing.assert_allclose(1.0 / spec[above], direct[above], rtol=1e-6)
    if not _kth_maxima_tie(direct_spec, k):
        np.testing.assert_array_equal(
            pick_peaks(angles, spec, k)[0], pick_peaks(angles, direct_spec, k)[0]
        )


@st.composite
def _centro_hermitian_cases(draw):
    """A centro-Hermitian PSD matrix (L 2-200) plus a noise floor sigma^2 I,
    with a source count K < L that the K-vector solver takes on where
    L >= 54: either K steering vectors at random angles, or
    (X + Pi X* Pi) / 2 for a random PSD X and the exchange matrix Pi.
    The steering phases are taken about the middle sensor, so Pi a* = a
    holds to the last bit; the unit factor this adds cancels in a a^H."""
    length = draw(st.integers(2, 200))
    most = length // estimation.SIZE_RATIO - estimation.OVERSAMPLE
    k = draw(st.integers(1, max(1, min(length - 1, most))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    config = MusicConfig.for_step(k, 0.5)
    if draw(st.booleans()):
        thetas = rng.uniform(-90.0, 90.0, size=k)
        centred = np.arange(length) - (length - 1) / 2
        x = np.exp(-1j * np.pi * centred[:, None] * np.sin(np.deg2rad(thetas))[None, :])
        x = x * np.sqrt(rng.uniform(0.5, 2.0, size=k))
        r = x @ x.conj().T
    else:
        rank = draw(st.integers(1, length))
        x = rng.standard_normal((length, rank)) + 1j * rng.standard_normal((length, rank))
        r = x @ x.conj().T
        r = (r + r[::-1, ::-1].conj()) / 2
    noise = 10.0 ** draw(st.floats(-3.0, 0.0))
    return (r + r.conj().T) / 2 + noise * np.eye(length), config


@settings(deadline=None, max_examples=150)
@given(_centro_hermitian_cases())
def test_real_form_spectrum_matches_complex_eigh(case):
    """The spectrum of noisy centro-Hermitian matrices, most of them served
    by the K-vector solver where L >= 54, against the direct projection
    onto E_n from the complex eigh."""
    r, config = case
    k = config.num_sources
    angles, spec = music_spectrum(r, config)
    assert np.all(np.isfinite(spec)) and np.all(spec > 0)
    _, vectors = np.linalg.eigh(r)
    direct = estimation._null_spectrum_direct(vectors[:, : r.shape[0] - k], angles)
    above = direct > estimation.GUARD_FACTOR * r.shape[0] ** 2 * np.finfo(float).eps
    np.testing.assert_allclose(1.0 / spec[above], direct[above], rtol=1e-6)
    if not _kth_maxima_tie(1.0 / direct, k):
        np.testing.assert_array_equal(
            pick_peaks(angles, spec, k)[0], pick_peaks(angles, 1.0 / direct, k)[0]
        )


def _subspace_distance(a, b):
    """Sine of the largest principal angle between the column spans of the
    orthonormal a and b."""
    return np.linalg.norm(a - b @ (b.conj().T @ a), 2)


def _smoothed_trial(n=12, angles=(-33.21, 4.04, 48.88), length=None):
    """R_ss of one 0 dB SAULAs(n) trial (L = 95 for n = 12)."""
    arr = geometry.design_saulas(n)
    sc = Scenario(angles_deg=angles, snapshots=500, snr_db=0.0, seed=6)
    x = simulate_snapshots(arr, sc)
    return spatial_smoothing(virtual_observation(extended_covariance(x), arr), length)


@pytest.mark.parametrize(
    ("n", "angles"),
    [(12, (-33.21, 4.04, 48.88)), (16, (-50.3, -12.7, 20.1, 61.9)), (20, (-5.55, 30.02))],
)
def test_signal_subspace_matches_complex_eigh(n, angles):
    """On noisy trials (L = 95, 159, 239) the K-vector solver serves, its
    E_s spans the eigh's signal subspace, and its top K Ritz values are the
    top K eigenvalues; the other Ritz values interlace from below."""
    k = len(angles)
    r = _smoothed_trial(n, angles)
    found = signal_subspace(r, k)
    assert found.noise is None
    assert found.signal.shape == (r.shape[0], k)
    assert found.values.shape == (k + estimation.OVERSAMPLE,)
    values, vectors = np.linalg.eigh(r)
    np.testing.assert_allclose(found.signal.conj().T @ found.signal, np.eye(k), atol=1e-13)
    assert _subspace_distance(found.signal, vectors[:, -k:]) <= 1e-11
    top = values[-found.values.size :]
    np.testing.assert_allclose(found.values[-k:], top[-k:], rtol=0, atol=1e-12 * values[-1])
    assert np.all(found.values <= top + 1e-12 * values[-1])


def test_signal_subspace_takes_the_complex_eigh_below_the_size_ratio():
    k = 3
    threshold = estimation.SIZE_RATIO * (k + estimation.OVERSAMPLE)
    small = _smoothed_trial(length=threshold - 1)
    found = signal_subspace(small, k)
    values, vectors = np.linalg.eigh(small)
    np.testing.assert_array_equal(found.values, values)
    np.testing.assert_array_equal(found.signal, vectors[:, -k:])
    np.testing.assert_array_equal(found.noise, vectors[:, :-k])
    assert signal_subspace(_smoothed_trial(length=threshold), k).noise is None


@pytest.mark.parametrize("family", ["aulas", "saulas", "tsaulas", "cotsaulas"])
def test_signal_subspace_takes_the_complex_eigh_on_noiseless_input(family):
    """Criterion 07's inputs: the iteration converges at once, but the noise
    floor is rounding, so the complex eigh decides."""
    arr = geometry.design(family, 12)
    sc = Scenario(angles_deg=(37.0,), snapshots=1, snr_db=None)
    r = spatial_smoothing(virtual_observation(exact_extended_covariance(arr, sc), arr))
    assert r.shape[0] >= estimation.SIZE_RATIO * (1 + estimation.OVERSAMPLE)
    assert estimation._ritz_subspace(r, 1) is None
    found = signal_subspace(r, 1)
    values, vectors = np.linalg.eigh(r)
    np.testing.assert_array_equal(found.signal, vectors[:, -1:])
    np.testing.assert_array_equal(found.noise, vectors[:, :-1])


def test_signal_subspace_falls_back_when_the_iteration_does_not_converge(monkeypatch):
    """Two sources 0.4 degrees apart at 0 dB need more than one iteration;
    capped at one, the solver gives up and the complex eigh serves."""
    r = _smoothed_trial(angles=(10.0, 10.4))
    assert estimation._ritz_subspace(r, 2) is not None
    monkeypatch.setattr(estimation, "MAX_ITERATIONS", 1)
    assert estimation._ritz_subspace(r, 2) is None
    found = signal_subspace(r, 2)
    values, vectors = np.linalg.eigh(r)
    np.testing.assert_array_equal(found.signal, vectors[:, -2:])
    np.testing.assert_array_equal(found.values, values)


def test_k_vector_spectrum_is_deterministic():
    """The start block is fixed, so reruns give the same bytes."""
    r = _smoothed_trial()
    assert signal_subspace(r, 3).noise is None
    cfg = MusicConfig.for_step(3, 0.05)
    first = music_spectrum(r, cfg)[1]
    again = music_spectrum(r.copy(), cfg)[1]
    assert first.tobytes() == again.tobytes()


@st.composite
def _noisy_smoothing_cases(draw):
    """A random integer geometry containing a lag-1 pair, a noisy scenario
    and either the default or an explicit smoothing length."""
    points = draw(st.sets(st.integers(-30, 30), max_size=8)) | {0, 1}
    arr = geometry.from_positions("rand", sorted(points))
    angles = draw(st.lists(st.floats(-80.0, 80.0), min_size=1, max_size=4, unique=True))
    sc = Scenario(
        angles_deg=tuple(angles),
        snapshots=draw(st.integers(1, 200)),
        snr_db=draw(st.floats(-10.0, 30.0)),
        nc_phases=tuple(draw(st.floats(0.0, np.pi)) for _ in angles),
        seed=draw(st.integers(0, 2**31 - 1)),
    )
    v = virtual_observation(extended_covariance(simulate_snapshots(arr, sc)), arr)
    m = v.half_width
    length = draw(st.one_of(st.none(), st.integers(2, 2 * m + 1)))
    return spatial_smoothing(v, length)


@settings(deadline=None, max_examples=100)
@given(_noisy_smoothing_cases())
def test_smoothed_covariance_is_centro_hermitian_to_rounding(r_ss):
    """The virtual observation is conjugate-symmetric, so R_ss = Pi R_ss* Pi
    for the exchange matrix Pi; a change that broke that symmetry would
    fail here."""
    bound = r_ss.shape[0] * np.finfo(float).eps * np.abs(r_ss).max()
    assert np.abs(r_ss - r_ss[::-1, ::-1].conj()).max() <= bound


@pytest.mark.parametrize("family", ["aulas", "saulas", "tsaulas", "cotsaulas"])
@pytest.mark.parametrize("theta", [-60.0, 0.0, 37.0])
def test_noiseless_null_peaks_exactly_at_its_grid_point(family, theta):
    """Criterion 07's cases: the null at theta is exact to 1e-26, far below
    the polynomial's rounding error, so without the guard the peak can move
    a grid step or the spectrum become infinite."""
    arr = geometry.design(family, 12)
    cfg = MusicConfig(num_sources=1)
    sc = Scenario(angles_deg=(theta,), snapshots=1, snr_db=None)
    vo = virtual_observation(exact_extended_covariance(arr, sc), arr)
    angles, spec = music_spectrum(spatial_smoothing(vo), cfg)
    assert np.all(np.isfinite(spec)) and np.all(spec > 0)
    peaks, under = pick_peaks(angles, spec, 1)
    assert not under
    assert peaks[0] == angles[np.abs(angles - theta).argmin()]


# ---------------------------------------------------------------------------
# Peak picking
# ---------------------------------------------------------------------------


def test_pick_peaks_orders_by_height_then_reports_by_angle():
    angles = np.arange(6.0)
    spectrum = np.array([0.0, 3.0, 1.0, 5.0, 2.0, 0.0])
    top, under = pick_peaks(angles, spectrum, 1)
    np.testing.assert_array_equal(top, [3.0])
    assert not under
    both, under = pick_peaks(angles, spectrum, 2)
    np.testing.assert_array_equal(both, [1.0, 3.0])
    assert not under


def test_pick_peaks_flags_underdetection():
    angles = np.arange(6.0)
    spectrum = np.array([0.0, 3.0, 1.0, 5.0, 2.0, 0.0])
    got, under = pick_peaks(angles, spectrum, 3)
    np.testing.assert_array_equal(got, [1.0, 3.0])
    assert under


def test_pick_peaks_requires_strict_maxima():
    got, under = pick_peaks(np.arange(4.0), np.array([0.0, 2.0, 2.0, 0.0]), 1)
    assert got.size == 0 and under
    got, under = pick_peaks(np.arange(4.0), np.ones(4), 1)
    assert got.size == 0 and under


def test_pick_peaks_flat_top_is_not_a_peak():
    """A plateau of equal samples has no strict maximum, so it yields no
    peak and the trial counts as under-detected."""
    got, under = pick_peaks(np.arange(5.0), np.array([0.0, 1.0, 2.0, 2.0, 0.0]), 1)
    assert got.size == 0 and under


def test_pick_peaks_ignores_grid_endpoints():
    got, under = pick_peaks(np.arange(5.0), np.array([5.0, 1.0, 0.0, 1.0, 6.0]), 1)
    assert got.size == 0 and under


def test_pick_peaks_breaks_ties_toward_lower_angle():
    angles = np.arange(5.0)
    spectrum = np.array([0.0, 5.0, 0.0, 5.0, 0.0])
    got, _ = pick_peaks(angles, spectrum, 1)
    np.testing.assert_array_equal(got, [1.0])


# ---------------------------------------------------------------------------
# RMSE scoring
# ---------------------------------------------------------------------------


def test_rmse_zero_for_perfect_estimates():
    assert rmse([(10.0, 20.0)], (10.0, 20.0)) == 0.0


def test_rmse_simple_average():
    assert rmse([(11.0, 19.0)], (10.0, 20.0)) == pytest.approx(1.0)


def test_rmse_matches_sorted_order():
    assert rmse([(20.5, 9.5)], (10.0, 20.0)) == pytest.approx(0.5)


def test_rmse_charges_cap_for_wrong_cardinality():
    cap = 89.95
    assert rmse([()], (10.0, 20.0), cap) == pytest.approx(cap)
    assert rmse([(10.0,)], (10.0, 20.0), cap) == pytest.approx(cap)
    assert rmse([(1.0, 2.0, 3.0)], (10.0, 20.0), cap) == pytest.approx(cap)


def test_rmse_mixes_good_and_missed_trials():
    cap = 89.95
    got = rmse([(10.0, 20.0), ()], (10.0, 20.0), cap)
    assert got == pytest.approx(cap / np.sqrt(2.0))


def test_rmse_rejects_empty_inputs():
    with pytest.raises(ValueError):
        rmse([], (10.0,))
    with pytest.raises(ValueError):
        rmse([(10.0,)], ())


# ---------------------------------------------------------------------------
# Full single-trial pipeline
# ---------------------------------------------------------------------------


def test_estimate_doas_recovers_three_sources():
    arr = geometry.design_saulas(12)
    cfg = MusicConfig.for_step(3, 0.05)
    sc = Scenario(
        angles_deg=(-33.21, 4.04, 48.88), snapshots=10_000, snr_db=20.0, seed=6
    )
    result = estimate_doas(arr, sc, cfg)
    assert not result.under_detected
    assert result.estimates.shape == (3,)
    assert result.angles.shape == result.spectrum.shape == (cfg.grid_points,)
    assert np.all(np.diff(result.estimates) > 0)
    assert result.per_source_error.shape == (3,)
    assert result.per_source_error.max() <= cfg.grid_step + 1e-9
    assert result.rmse_deg <= cfg.grid_step + 1e-9


@pytest.mark.parametrize("family", ["aulas", "saulas", "tsaulas", "cotsaulas"])
def test_estimate_doas_consistent_across_families(family):
    arr = geometry.design(family, 12)
    cfg = MusicConfig.for_step(3, 0.05)
    sc = Scenario(
        angles_deg=(-33.21, 4.04, 48.88), snapshots=10_000, snr_db=20.0, seed=6
    )
    result = estimate_doas(arr, sc, cfg)
    assert not result.under_detected
    assert result.per_source_error.max() <= cfg.grid_step + 1e-9


def test_estimate_from_snapshots_is_estimate_doas_after_simulation():
    arr = geometry.design_saulas(9)
    cfg = MusicConfig.for_step(2, 0.5)
    sc = Scenario(angles_deg=(-15.0, 22.0), snapshots=400, snr_db=10.0, seed=3)
    direct = estimate_doas(arr, sc, cfg, trial=1)
    split = estimate_from_snapshots(simulate_snapshots(arr, sc, trial=1), arr, sc, cfg)
    np.testing.assert_array_equal(split.spectrum, direct.spectrum)
    np.testing.assert_array_equal(split.estimates, direct.estimates)
    assert split.rmse_deg == direct.rmse_deg


def test_required_subarray_length():
    cfg = MusicConfig(num_sources=3)
    assert required_subarray_length(geometry.design_saulas(12), cfg) == 95
    assert required_subarray_length(geometry.design_ula(4), cfg) == 7
    short = MusicConfig(num_sources=3, smoothing_length=10)
    assert required_subarray_length(geometry.design_saulas(12), short) == 10


# ---------------------------------------------------------------------------
# Monte-Carlo loop
# ---------------------------------------------------------------------------


def _tiny_mc_setup():
    arr = geometry.design_aulas(9)
    cfg = MusicConfig.for_step(2, 0.1)
    sc = Scenario(angles_deg=(-15.35, 22.71), snapshots=2000, snr_db=10.0, seed=13)
    return arr, sc, cfg


def test_monte_carlo_is_deterministic():
    arr, sc, cfg = _tiny_mc_setup()
    a = monte_carlo(arr, sc, cfg, trials=3)
    b = monte_carlo(arr, sc, cfg, trials=3)
    assert a.estimates_per_trial == b.estimates_per_trial
    assert a.rmse_deg == b.rmse_deg
    assert a.detection_rate == b.detection_rate


def test_monte_carlo_trials_are_prefix_stable():
    arr, sc, cfg = _tiny_mc_setup()
    short = monte_carlo(arr, sc, cfg, trials=2)
    longer = monte_carlo(arr, sc, cfg, trials=4)
    assert longer.estimates_per_trial[:2] == short.estimates_per_trial
    assert longer.trials == 4


def test_monte_carlo_scores_easy_scenario_well():
    arr, sc, cfg = _tiny_mc_setup()
    result = monte_carlo(arr, sc, cfg, trials=4)
    assert result.detection_rate == 1.0
    assert result.rmse_deg < 0.5
    assert not result.insufficient_dofs


def test_monte_carlo_degrades_gracefully_without_enough_dofs():
    # a 4-sensor dense array cannot separate 7 sources even virtually
    arr = geometry.design_ula(4)
    cfg = MusicConfig(num_sources=7, grid_points=361)
    sc = Scenario(angles_deg=tuple(np.linspace(-60, 60, 7)), snapshots=100)
    result = monte_carlo(arr, sc, cfg, trials=3)
    assert result.insufficient_dofs
    assert result.detection_rate == 0.0
    assert result.rmse_deg == cfg.error_cap_deg
    assert result.estimates_per_trial == ((), (), ())


def test_monte_carlo_rejects_zero_trials():
    arr, sc, cfg = _tiny_mc_setup()
    with pytest.raises(ValueError):
        monte_carlo(arr, sc, cfg, trials=0)


def test_monte_carlo_result_serializes_to_json():
    arr, sc, cfg = _tiny_mc_setup()
    result = monte_carlo(arr, sc, cfg, trials=2)
    payload = json.loads(json.dumps(result.to_dict()))
    assert payload["trials"] == 2
    assert payload["insufficient_dofs"] is False
    assert len(payload["estimates_per_trial"]) == 2


# ---------------------------------------------------------------------------
# Spectrum CSV
# ---------------------------------------------------------------------------


def _row_formatted_csv(angles, spectrum):
    """The per-row formatter that ``spectrum_to_csv`` replaced: its oracle."""
    power_db = 10.0 * np.log10(spectrum / spectrum.max())
    rows = zip(angles.tolist(), power_db.tolist())
    return "angle_deg,power_db\n" + "".join(f"{a:.6f},{p:.6f}\n" for a, p in rows)


_CSV_ANGLES = st.one_of(
    st.sampled_from([-0.0, 0.0, -89.99, 89.99, -4e-7, 5e-7, -5e-7]),
    st.floats(-89.99, 89.99),
)


@settings(deadline=None, max_examples=200)
@given(st.lists(st.tuples(_CSV_ANGLES, st.floats(1e-150, 1e150)), min_size=1, max_size=40))
def test_spectrum_to_csv_matches_the_row_formatter(rows):
    """Negative zeros, the grid edges, values that round to -0.000000 and
    powers 300 decades below the peak format as the per-row f-strings did."""
    angles = np.array([a for a, _ in rows])
    spectrum = np.array([p for _, p in rows])
    assert spectrum_to_csv(angles, spectrum) == _row_formatted_csv(angles, spectrum)


def test_spectrum_to_csv_normalizes_peak():
    angles = np.array([-1.0, 0.0, 1.0])
    spectrum = np.array([0.5, 2.0, 1.0])
    text = spectrum_to_csv(angles, spectrum)
    lines = text.strip().split("\n")
    assert lines[0] == "angle_deg,power_db"
    assert lines[1] == f"{-1.0:.6f},{10 * np.log10(0.25):.6f}"
    assert lines[2] == "0.000000,0.000000"
    assert lines[3] == f"{1.0:.6f},{10 * np.log10(0.5):.6f}"
