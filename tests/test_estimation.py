"""Tests for spatial smoothing, the subspace spectrum search, peak picking,
error scoring, and the trial loop, against the reference pipeline of
``reference``."""

from __future__ import annotations

import hashlib
import json
import math
import re
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import reference
from coarraylab import estimation, geometry, nufft, presets
from coarraylab.cli import EXIT_USAGE, main
from coarraylab.coupling import PAPER_V
from coarraylab.estimation import (
    MusicConfig,
    SmoothedCovariance,
    estimate_doas,
    monte_carlo,
    music_spectrum,
    pick_peaks,
    required_subarray_length,
    rmse,
    signal_subspace,
    spectrum_to_csv,
    trial_results,
)
from coarraylab.signal import (
    ExtendedCovariance,
    Scenario,
    VirtualObservation,
    exact_extended_covariance,
    extended_covariance,
    gram_covariance,
    lag_plan,
    planes_gram,
    simulate_snapshots,
    virtual_observation,
)
from test_golden import POWER_DB_ATOL


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
    got = reference.spatial_smoothing(v, 2)
    expected = np.array([[7.0, 6.0 - 3.0j], [6.0 + 3.0j, 7.0]])
    np.testing.assert_array_equal(got, expected)


def test_smoothing_default_length_and_shape():
    m = 6
    v = VirtualObservation(
        lags=np.arange(-m, m + 1), values=np.ones(2 * m + 1, dtype=complex)
    )
    r = reference.spatial_smoothing(v)
    assert r.shape == (m + 1, m + 1)


def test_smoothing_of_pure_phase_ramp_is_rank_one_steering_product():
    m = 9
    lags = np.arange(-m, m + 1)
    mu = -np.pi * np.sin(np.deg2rad(27.0))
    v = VirtualObservation(lags=lags, values=np.exp(1j * mu * lags))
    r = reference.spatial_smoothing(v)
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
    r = reference.spatial_smoothing(v)
    np.testing.assert_allclose(r, r.conj().T, atol=1e-13 * np.abs(r).max())
    assert np.linalg.eigvalsh(r).min() > -1e-12 * np.abs(r).max()


#: Samples that do not match the five lags -2..2: too many, and 2-D.
_MISSHAPEN_SAMPLES = (np.ones(7, dtype=complex), np.ones((5, 2), dtype=complex))


def test_smoothing_rejects_bad_inputs():
    good = VirtualObservation(lags=np.arange(-2, 3), values=np.ones(5, dtype=complex))
    with pytest.raises(ValueError):
        reference.spatial_smoothing(good, 1)
    with pytest.raises(ValueError):
        reference.spatial_smoothing(good, 6)
    with pytest.raises(ValueError, match="subarray_len"):
        reference.spatial_smoothing(good, 2.5)
    assert reference.spatial_smoothing(good, 5).shape == (5, 5)  # single full window
    skew = VirtualObservation(lags=np.arange(0, 5), values=np.ones(5, dtype=complex))
    with pytest.raises(ValueError):
        reference.spatial_smoothing(skew)
    for bad in (np.nan, np.inf, -np.inf):
        values = np.ones(5, dtype=complex)
        values[1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            reference.spatial_smoothing(VirtualObservation(lags=np.arange(-2, 3), values=values))
    for values in _MISSHAPEN_SAMPLES:
        with pytest.raises(ValueError, match="one per lag"):
            reference.spatial_smoothing(VirtualObservation(lags=np.arange(-2, 3), values=values))


@st.composite
def _virtual_observations(draw, symmetric=False):
    """Random complex samples over lags -m..m with magnitudes spread over
    six decades, and a window length in [2, 2m+1]: from K = 2m windows of
    length 2 to one window of length 2m + 1.  The samples are
    conjugate-symmetric, v(-l) = conj v(l), with ``symmetric`` and
    otherwise not."""
    m = draw(st.integers(1, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = 2 * m + 1
    scale = 10.0 ** rng.uniform(-3.0, 3.0, size) if draw(st.booleans()) else 1.0
    values = (rng.standard_normal(size) + 1j * rng.standard_normal(size)) * scale
    if symmetric:
        values[m] = values[m].real
        values[:m] = values[: m : -1].conj()
    length = draw(st.one_of(st.just(2), st.just(size), st.integers(2, size)))
    return VirtualObservation(lags=np.arange(-m, m + 1), values=values), length


@settings(deadline=None, max_examples=200)
@given(_virtual_observations())
def test_smoothing_matches_the_window_product(case):
    """The windows' sample covariance, one real syrk, sums K products no
    larger than max |v|^2 per entry: against the long-double window
    product its error stayed below 0.39 L eps max |v|^2 on 6000 cases."""
    v, length = case
    got = reference.spatial_smoothing(v, length)
    assert got.shape == (length, length)
    bound = length * np.finfo(float).eps * np.abs(v.values).max() ** 2
    assert np.abs(got - reference.window_product(v, length)).max() <= bound
    np.testing.assert_array_equal(np.triu(got, 1), np.tril(got, -1).conj().T)


def _is_5_smooth(n):
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


def test_fft_length_is_the_smallest_5_smooth_length():
    for size in range(1, 3000):
        got = nufft.fft_length(size)
        assert got >= size and _is_5_smooth(got)
        assert not any(_is_5_smooth(n) for n in range(size, got))


def _conjugate_symmetric_observation(m, seed):
    """Random samples over lags -m..m with v(-l) = conj v(l)."""
    rng = np.random.default_rng(seed)
    half = rng.standard_normal(m + 1) + 1j * rng.standard_normal(m + 1)
    half[0] = half[0].real
    return VirtualObservation(lags=np.arange(-m, m + 1),
                              values=np.concatenate([half[:0:-1].conj(), half]))


@settings(deadline=None, max_examples=200)
@given(_virtual_observations(symmetric=True), st.integers(1, 6), st.integers(0, 2**32 - 1))
@example((_conjugate_symmetric_observation(30, 61), 31), 3, 31)
@example((_conjugate_symmetric_observation(30, 62), 32), 3, 32)
@example((_conjugate_symmetric_observation(94, 154), 60), 3, 60)
@example((_conjugate_symmetric_observation(94, 189), 95), 1, 95)
@example((_conjugate_symmetric_observation(95, 128), 33), 3, 33)
@example((_conjugate_symmetric_observation(95, 191), 96), 2, 96)
def test_smoothed_covariance_applies_the_window_product(case, pairs, seed):
    """The operator's one product, M x for the real form M = Q^H R_ss Q and
    a real L x 2p block x, against Q^H R_ss Q applied to x_1 + j x_2 (the
    halves of x) with R_ss the long-double window product, and against
    Y^T (Y x) / K of the gathered real form: conjugate-symmetric samples,
    the only ones the operator takes, at window lengths of either parity,
    K = L and K != L.  The FFT rounds relative to the norms of its inputs,
    so the bound is normwise per complex column z = x_1 + j x_2: the error
    stayed below 0.95 log2(F) eps ||u||^2 ||z|| / K against the window
    product and 1.5 against the real form on 3000 cases (F the FFT length,
    u the samples), and the test allows 4 for both."""
    v, length = case
    op = SmoothedCovariance(v, length)
    assert op.shape == (length, length)
    x = np.random.default_rng(seed).standard_normal((length, 2 * pairs))
    got = op @ x
    assert got.dtype == float and got.shape == x.shape
    z = x[:, :pairs] + 1j * x[:, pairs:]
    q = estimation._from_real_basis(np.eye(length))
    want = q.conj().T @ (reference.window_product(v, length) @ (q @ z))
    size = nufft.fft_length(v.values.size)
    energy = np.sum(np.abs(v.values) ** 2)
    bound = 4 * np.log2(size) * np.finfo(float).eps * energy * np.linalg.norm(z, axis=0)
    bound = np.tile(bound / op.windows, 2)
    assert np.all(np.abs(got - np.hstack([want.real, want.imag])).max(axis=0) <= bound)
    y = estimation._real_form(v.values, length)
    assert np.all(np.abs(got - y.T @ (y @ x) / op.windows).max(axis=0) <= bound)


@pytest.mark.parametrize(("m", "length"), [(30, 31), (30, 32), (94, 95), (94, 60), (95, 96),
                                           (95, 33)])
def test_real_product_is_the_real_form_times_the_block(m, length):
    """Two real columns per complex product: M x for M = Q^H R_ss Q against
    Y^T Y / K times x, for even and odd L; Q^H undoes Q."""
    v = _conjugate_symmetric_observation(m, m + length)
    op = SmoothedCovariance(v, length)
    y = estimation._real_form(v.values, length)
    x = np.random.default_rng(length).standard_normal((length, 6))
    got = op @ x
    assert got.dtype == float and got.shape == x.shape
    want = y.T @ (y @ x) / op.windows
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())
    z = x[:, :3] + 1j * x[:, 3:]
    q = estimation._from_real_basis(np.eye(length))
    np.testing.assert_allclose(q.conj().T @ (q @ z), z, rtol=0, atol=1e-15)


def test_smoothed_covariance_rejects_what_spatial_smoothing_rejects():
    """Everything the reference's dense smoothing rejects, and samples that
    are not conjugate-symmetric, which it accepts."""
    good = VirtualObservation(lags=np.arange(-2, 3), values=np.ones(5, dtype=complex))
    for length in (1, 6):
        with pytest.raises(ValueError):
            SmoothedCovariance(good, length)
    with pytest.raises(ValueError, match="subarray_len"):
        SmoothedCovariance(good, 2.5)
    skew = VirtualObservation(lags=np.arange(0, 5), values=np.ones(5, dtype=complex))
    with pytest.raises(ValueError):
        SmoothedCovariance(skew)
    for values in _MISSHAPEN_SAMPLES:
        with pytest.raises(ValueError, match="one per lag"):
            SmoothedCovariance(VirtualObservation(lags=np.arange(-2, 3), values=values))
    ramp = VirtualObservation(lags=np.arange(-2, 3), values=np.arange(5) + 0j)
    reference.spatial_smoothing(ramp)
    with pytest.raises(ValueError, match="conjugate-symmetric"):
        SmoothedCovariance(ramp)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_smoothed_covariance_rejects_non_finite_samples(bad):
    values = np.ones(9, dtype=complex)
    values[3] = bad
    v = VirtualObservation(lags=np.arange(-4, 5), values=values)
    with pytest.raises(ValueError, match="non-finite"):
        SmoothedCovariance(v)


# ---------------------------------------------------------------------------
# Subspace spectrum
# ---------------------------------------------------------------------------


def _white_observation(m):
    """v(0) = 1 and 0 at every other lag of -m..m, whose R_ss at the
    default length L = m + 1 is I / L."""
    values = np.zeros(2 * m + 1, dtype=complex)
    values[m] = 1.0
    return VirtualObservation(lags=np.arange(-m, m + 1), values=values)


def test_spectrum_rejects_too_many_sources():
    cfg = MusicConfig(num_sources=5, grid_points=91)
    white = SmoothedCovariance(_white_observation(4))
    with pytest.raises(ValueError, match="insufficient uDOFs"):
        music_spectrum(white, cfg)
    for bad in (0, -1, True, 2.5, None):
        with pytest.raises(ValueError, match="num_sources"):
            signal_subspace(white, bad)
        with pytest.raises(ValueError, match="num_sources"):
            pick_peaks(np.arange(4.0), np.array([0.0, 2.0, 1.0, 0.0]), bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_spectrum_rejects_non_finite_covariance(bad):
    """A non-finite covariance entry reaches the virtual samples, which the
    operator refuses before any spectrum is searched."""
    r = np.eye(6, dtype=complex)
    r[2, 2] = bad
    v = virtual_observation(ExtendedCovariance(r, np.zeros_like(r)),
                            lag_plan(geometry.design_ula(6)))
    with pytest.raises(ValueError, match="non-finite"):
        music_spectrum(SmoothedCovariance(v), MusicConfig(num_sources=1, grid_points=91))


def test_spectrum_of_white_covariance_is_flat():
    """E_s of the complex eigh of R_ss = I / 10: the standard basis."""
    cfg = MusicConfig(num_sources=2, grid_start=-80, grid_stop=80, grid_points=161)
    white = _white_observation(9)
    r = reference.spatial_smoothing(white)
    np.testing.assert_array_equal(r, np.eye(10) / 10)
    angles, spec = music_spectrum(SmoothedCovariance(white), cfg, reference.subspace(r, 2))
    assert angles.shape == spec.shape == (161,)
    # every direction projects identically onto an isotropic noise subspace
    np.testing.assert_allclose(spec, 1.0 / 8.0, rtol=1e-10)


def test_spectrum_peaks_at_on_grid_sources_exactly():
    arr = geometry.design_saulas(12)
    cfg = MusicConfig.for_step(3, 0.05)
    truth = (-20.15, 0.0, 33.3)  # all multiples of the 0.05-degree pitch
    sc = Scenario(angles_deg=truth, snapshots=10, snr_db=None)
    vo = virtual_observation(exact_extended_covariance(arr, sc), lag_plan(arr))
    angles, spec = music_spectrum(SmoothedCovariance(vo), cfg)
    estimates, under = pick_peaks(angles, spec, 3)
    assert not under
    np.testing.assert_allclose(estimates, np.sort(truth), atol=1e-9)


def _phasors(config):
    """z = exp(j pi sin theta) on the config's grid."""
    return np.exp(1j * np.pi * np.sin(np.deg2rad(config.grid)))


#: Grid points evaluated per block by ``_blocked_null_polynomial``; at
#: L = 2175 its two complex temporaries of about sqrt(L) rows take about
#: 0.7 MB each.
GRID_BLOCK = 2048


def _blocked_null_polynomial(coeffs, z):
    """f(z) = c_0 + 2 Re sum_{d>=1} c_d z^d at every phasor in z: the
    blocked evaluation that ``nufft.evaluate`` replaced, and its
    oracle.

    Baby steps and giant steps (Paterson & Stockmeyer, SIAM J. Comput.
    1973): with B = floor(sqrt(L - 1)) and Q = ceil((L - 1) / B),
    sum_{d>=1} c_d z^d = z sum_q (z^B)^q S_q(z), where
    S_q(z) = sum_{r<B} c_{1+qB+r} z^r.  All Q values S_q come from one
    complex matrix product of the Q x B coefficient block with the powers
    z^0 .. z^(B-1), and Horner's rule in z^B combines them in Q - 1 steps,
    so about 2 sqrt(L) passes over the grid replace Horner's L.  The grid
    is taken in equal blocks of at most GRID_BLOCK points (the last one
    padded with z = 1), so the temporaries are allocated once and stay
    small.
    """
    length = coeffs.size
    step = math.isqrt(length - 1)
    rows = -(-(length - 1) // step)
    table = np.zeros(rows * step, dtype=complex)
    table[: length - 1] = coeffs[1:]
    table = table.reshape(rows, step)

    count = -(-z.size // GRID_BLOCK)
    width = -(-z.size // count)
    padded = np.ones(count * width, dtype=complex)
    padded[: z.size] = z
    powers = np.empty((step, width), dtype=complex)
    powers[0] = 1.0
    sums = np.empty((rows, width), dtype=complex)
    giant = np.empty(width, dtype=complex)
    denom = np.empty(count * width)
    for block, out in zip(padded.reshape(count, width), denom.reshape(count, width)):
        for r in range(1, step):
            np.multiply(powers[r - 1], block, out=powers[r])
        np.matmul(table, powers, out=sums)
        np.multiply(powers[-1], block, out=giant)
        tail = sums[-1]
        for q in range(rows - 2, -1, -1):
            tail *= giant
            tail += sums[q]
        tail *= block
        np.multiply(tail.real, 2.0, out=out)
        out += coeffs[0].real
    return denom[: z.size]


def _polyval_long_double(coeffs, z):
    """c_0 + 2 Re sum_{d>=1} c_d z^d by Horner's rule in long double (the
    x87 80-bit format on x86-64): the oracle of both grid evaluations."""
    z = z.astype(np.clongdouble)
    tail = np.full(z.shape, np.clongdouble(coeffs[-1]))
    for c in coeffs[-2:0:-1]:
        tail *= z
        tail += np.clongdouble(c)
    tail *= z
    return np.longdouble(coeffs[0].real) + 2 * tail.real


@pytest.mark.parametrize(
    ("length", "step"),
    # L = 2 has B = 1; B = 4 divides L - 1 = 16; B does not divide L - 1 at
    # 95, 575 and 2175; 0.01 degrees spans 9 grid blocks, 1 degree one
    [(2, 0.01), (3, 1.0), (17, 0.01), (95, 0.01), (575, 0.01), (2175, 0.05)],
)
def test_blocked_null_polynomial_matches_a_long_double_horner(length, step):
    """The blocked evaluation within 0.7 L^2 eps, the bound GUARD_FACTOR
    assumed for it, on random and rank-K noiseless signal subspaces."""
    config = MusicConfig.for_step(1, step)
    phasors = _phasors(config)
    rng = np.random.default_rng(length)
    k_values = sorted({1, min(4, length - 1), min(55, length - 1)})
    for k in k_values:
        random = rng.standard_normal((length, k)) + 1j * rng.standard_normal((length, k))
        thetas = rng.choice(config.grid, size=k, replace=False)
        noiseless = estimation._steering(length, thetas)
        for x in (random, noiseless):
            coeffs = estimation._null_coefficients(np.linalg.qr(x)[0])
            got = _blocked_null_polynomial(coeffs, phasors)
            want = _polyval_long_double(coeffs, phasors)
            assert got.shape == config.grid.shape
            assert np.abs(got - want).max() <= 0.7 * length**2 * np.finfo(float).eps


#: pi in long double
_PI = np.longdouble("3.14159265358979323846264338327950288")


def _plan_phasors(plan):
    """exp(j omega) in long double at the points the plan evaluates,
    omega = 2 pi x / N with x = start + (offset + w - 1) / 2 mod N."""
    start = plan.start.astype(np.longdouble)
    x = start + (plan.offset.astype(np.longdouble) + nufft.KERNEL_WIDTH - 1) / 2
    return np.exp(1j * (2 * _PI / plan.size) * x)


@st.composite
def _nufft_cases(draw):
    """Null coefficients of L 2-2200 and K 1 to L - 1, and a grid.

    The subspace is random, the complement of L - K orthonormalised
    Gaussian columns when K > L / 2 so the QR stays small, or noiseless:
    K steering vectors at distinct sines -1 + 2 b / L for integers b,
    which are orthogonal, so E_s needs no QR.  The grid is a ``for_step``
    grid, a two-point one, one that runs to -90 or 90 degrees, or any
    other, most of them asymmetric."""
    length = draw(st.integers(2, 2200))
    k = draw(st.integers(1, length - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        sines = -1.0 + 2.0 * rng.choice(length, size=k, replace=False) / length
        signal = np.exp(-1j * np.pi * np.arange(length)[:, None] * sines) / np.sqrt(length)
        coeffs = estimation._null_coefficients(signal)
    else:
        width = min(k, length - k)
        x = rng.standard_normal((length, width)) + 1j * rng.standard_normal((length, width))
        coeffs = estimation._null_coefficients(np.linalg.qr(x)[0])
        if width < k:
            coeffs = -coeffs
            coeffs[0] += length
    kind = draw(st.sampled_from(["step", "two", "edge", "any"]))
    if kind == "step":
        step = draw(st.sampled_from([0.1, 0.25, 0.5, 1.0, 2.5, 10.0, 60.0]))
        return coeffs, MusicConfig.for_step(1, step)
    points = 2 if kind == "two" else draw(st.integers(2, 2000))
    start = draw(st.floats(-90.0, 89.0))
    stop = draw(st.floats(start + 0.5, 90.0))
    if kind == "edge":
        start, stop = draw(st.sampled_from([(-90.0, stop), (start, 90.0), (-90.0, 90.0)]))
    return coeffs, MusicConfig(num_sources=1, grid_start=start, grid_stop=stop,
                               grid_points=points)


@settings(deadline=None, max_examples=60)
@given(_nufft_cases())
# E_s = [1, j] / sqrt2 on the two-point grid at -90 and 90 degrees, where
# omega = -pi and pi read the same bins
@example((np.array([1.0, -0.5j]), MusicConfig(num_sources=1, grid_start=-90.0,
                                              grid_stop=90.0, grid_points=2)))
def test_nufft_null_polynomial_matches_the_horner_and_the_blocked_oracle(case):
    """The NUFFT within nufft.ERROR_BOUND ||h||_1 eps of a long-double
    Horner at the points it evaluates, and its spectrum within
    1e-5 dB of the blocked evaluation at the grid's phasors wherever the
    guard does not fire."""
    coeffs, config = case
    length = coeffs.size
    plan = config.nufft_plan(length)
    got = nufft.evaluate(coeffs, plan)
    assert got.shape == config.grid.shape
    eps = np.finfo(float).eps
    norm = abs(coeffs[0]) + 2 * np.abs(coeffs[1:]).sum()
    assert norm <= length**2
    error = np.abs(got - _polyval_long_double(coeffs, _plan_phasors(plan))).max()
    assert error <= nufft.ERROR_BOUND * norm * eps
    blocked = _blocked_null_polynomial(coeffs, _phasors(config))
    above = got >= estimation.GUARD_FACTOR * length**2 * eps
    np.testing.assert_allclose(10 * np.log10(got[above] / blocked[above]), 0.0, rtol=0, atol=1e-5)


def test_spectrum_of_the_operator_matches_the_dense_matrix():
    """One SAULAs(32) trial (L = 575): the operator's spectrum, from the
    K-vector solver, against the one of the complex eigh's E_s of the
    dense R_ss."""
    arr = geometry.design_saulas(32)
    sc = Scenario(angles_deg=(-41.2, -10.3, 17.7, 50.1), snapshots=400, snr_db=10.0, seed=1)
    v = virtual_observation(extended_covariance(simulate_snapshots(arr, sc)), lag_plan(arr))
    cfg = MusicConfig.for_step(4, 0.05)
    op = SmoothedCovariance(v)
    assert signal_subspace(op, 4).values.size == 4 + estimation.OVERSAMPLE
    _, fast = music_spectrum(op, cfg)
    _, dense = reference.nufft_spectrum(reference.spatial_smoothing(v), cfg)
    np.testing.assert_allclose(fast, dense, rtol=1e-9)
    np.testing.assert_array_equal(pick_peaks(cfg.grid, fast, 4)[0],
                                  pick_peaks(cfg.grid, dense, 4)[0])


def _strict_maxima(spectrum):
    """The grid points that ``pick_peaks`` may pick: strict local maxima,
    never an endpoint."""
    s = np.asarray(spectrum)
    mask = np.zeros(s.shape, dtype=bool)
    mask[1:-1] = (s[1:-1] > s[:-2]) & (s[1:-1] > s[2:])
    return mask


def _kth_maxima_tie(spectrum, k):
    """Whether the k-th and (k+1)-th highest strict local maxima lie within
    1e-9 relative of each other, so rounding may order them either way."""
    s = np.asarray(spectrum)
    heights = np.sort(s[_strict_maxima(s)])[::-1]
    return heights.size > k and heights[k - 1] - heights[k] <= 1e-9 * heights[k - 1]


def _noiseless_psd(length, k, seed):
    """A rank-K noiseless L x L matrix from K steering vectors at distinct
    angles of the 0.5-degree grid, so the spectrum has exact nulls on the
    grid, and its config."""
    rng = np.random.default_rng(seed)
    config = MusicConfig.for_step(k, 0.5)
    thetas = rng.choice(config.grid, size=k, replace=False)
    x = np.exp(-1j * np.pi * np.arange(length)[:, None] * np.sin(np.deg2rad(thetas))[None, :])
    x = x * np.sqrt(rng.uniform(0.5, 2.0, size=k))
    r = x @ x.conj().T
    return (r + r.conj().T) / 2, config


@st.composite
def _psd_cases(draw):
    """A random Hermitian PSD matrix (L 2-120) with a source count K < L.
    Half the cases are ``_noiseless_psd``."""
    length = draw(st.integers(2, 120))
    k = draw(st.integers(1, length - 1))
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        return _noiseless_psd(length, k, seed)
    rank = draw(st.integers(1, length))
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((length, rank)) + 1j * rng.standard_normal((length, rank))
    r = x @ x.conj().T
    return (r + r.conj().T) / 2, MusicConfig.for_step(k, 0.5)


@settings(deadline=None, max_examples=150)
@given(_psd_cases())
# sources at 30.0 and 30.5 degrees: E_s makes the first the strict maximum,
# the oracle's E_n the second
@example(_noiseless_psd(76, 65, 75))
def test_spectrum_matches_direct_projection(case):
    r, config = case
    k = config.num_sources
    angles, spec = reference.nufft_spectrum(r, config)
    assert np.all(np.isfinite(spec)) and np.all(spec > 0)
    _, vectors = np.linalg.eigh(r)  # the oracle projects onto E_n of this eigh
    direct = reference.null_spectrum_direct(vectors[:, : r.shape[0] - k], angles)
    with np.errstate(divide="ignore"):
        direct_spec = 1.0 / direct
    above = direct > estimation.GUARD_FACTOR * r.shape[0] ** 2 * np.finfo(float).eps
    np.testing.assert_allclose(1.0 / spec[above], direct[above], rtol=1e-6)
    # Two adjacent grid points can both be exact nulls on noiseless input;
    # then rounding noise picks the strict maximum, differently in E_s and
    # E_n, so the peak masks may differ there and only there.
    differ = _strict_maxima(spec) != _strict_maxima(direct_spec)
    assert not np.any(differ & above)
    if not differ.any() and not _kth_maxima_tie(direct_spec, k):
        np.testing.assert_array_equal(
            pick_peaks(angles, spec, k)[0], pick_peaks(angles, direct_spec, k)[0]
        )


@st.composite
def _centro_hermitian_cases(draw):
    """A centro-Hermitian PSD matrix (L 2-200) plus a noise floor sigma^2 I,
    with a source count K < L that the K-vector solver takes on where
    L >= 72: either K steering vectors at random angles, or
    (X + Pi X* Pi) / 2 for a random PSD X and the exchange matrix Pi.
    The steering phases are taken about the middle sensor, so Pi a* = a
    holds to the last bit; the unit factor this adds cancels in a a^H."""
    length = draw(st.integers(2, 200))
    most = length // estimation.SIZE_RATIO - estimation.SIZE_PAD
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
    """The spectrum of noisy centro-Hermitian matrices from the E_s of their
    real form Q^H R Q, the form the solvers take of every R_ss, against the
    direct projection onto E_n from the complex eigh, where the gap
    determines E_s to 1e-8."""
    r, config = case
    k = config.num_sources
    q = estimation._from_real_basis(np.eye(r.shape[0]))
    values, w = np.linalg.eigh((q.conj().T @ r @ q).real)
    subspace = estimation.Subspace(estimation._from_real_basis(w[:, -k:]), values)
    angles, spec = music_spectrum(None, config, subspace)
    assert np.all(np.isfinite(spec)) and np.all(spec > 0)
    values, vectors = np.linalg.eigh(r)
    if _davis_kahan(values, k) > 1e-8:
        return  # a gap within rounding leaves E_s, so the spectrum, undetermined
    direct = reference.null_spectrum_direct(vectors[:, : r.shape[0] - k], angles)
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


def _trial_observation(n=12, angles=(-33.21, 4.04, 48.88)):
    """The virtual observation of one 0 dB SAULAs(n) trial (m = 94 for
    n = 12)."""
    arr = geometry.design_saulas(n)
    sc = Scenario(angles_deg=angles, snapshots=500, snr_db=0.0, seed=6)
    x = simulate_snapshots(arr, sc)
    return virtual_observation(extended_covariance(x), lag_plan(arr))


def test_the_operator_keeps_one_spectrum_of_the_samples():
    """Both correlations of a product take the FFT of the samples, which
    the first product computes and later ones reuse; the real form, which
    takes no product, leaves it uncomputed."""
    v = _trial_observation()
    op = SmoothedCovariance(v)
    estimation._real_subspaces([op], 3)
    assert "_spectrum" not in vars(op)
    x = np.random.default_rng(0).standard_normal((op.length, 4))
    first = op @ x
    spectrum = vars(op)["_spectrum"]
    np.testing.assert_array_equal(spectrum, np.fft.fft(v.values, nufft.fft_length(v.values.size)))
    assert (op @ x).tobytes() == first.tobytes()
    assert vars(op)["_spectrum"] is spectrum


@pytest.mark.parametrize(
    ("n", "angles"),
    [(12, (-33.21, 4.04, 48.88)), (16, (-50.3, -12.7, 20.1, 61.9)), (20, (-5.55, 30.02))],
)
def test_signal_subspace_matches_complex_eigh(n, angles):
    """On noisy trials (L = 95, 159, 239) the K-vector solver serves the
    operator, its E_s spans the complex eigh's signal subspace of the dense
    R_ss, and its top K Ritz values are the top K eigenvalues; the other
    Ritz values interlace from below."""
    k = len(angles)
    v = _trial_observation(n, angles)
    found = signal_subspace(SmoothedCovariance(v), k)
    r = reference.spatial_smoothing(v)
    assert found.signal.shape == (r.shape[0], k)
    assert found.values.shape == (k + estimation.OVERSAMPLE,)
    values, vectors = np.linalg.eigh(r)
    np.testing.assert_allclose(found.signal.conj().T @ found.signal, np.eye(k), atol=1e-13)
    assert _subspace_distance(found.signal, vectors[:, -k:]) <= 1e-11
    top = values[-found.values.size :]
    np.testing.assert_allclose(found.values[-k:], top[-k:], rtol=0, atol=1e-12 * values[-1])
    assert np.all(found.values <= top + 1e-12 * values[-1])


def test_the_operator_takes_the_real_form_below_the_size_ratio():
    """Below SIZE_RATIO * (K + SIZE_PAD) the operator's E_s comes from
    the real form, and at that length from the iteration."""
    k = 3
    threshold = estimation.SIZE_RATIO * (k + estimation.SIZE_PAD)
    v = _trial_observation()
    small = SmoothedCovariance(v, threshold - 1)
    found = signal_subspace(small, k)
    want = next(estimation._real_subspaces([small], k))
    np.testing.assert_array_equal(found.values, want.values)
    np.testing.assert_array_equal(found.signal, want.signal)
    found = signal_subspace(SmoothedCovariance(v, threshold), k)
    assert found.values.size == k + estimation.OVERSAMPLE


def _complex_ritz_subspace(r, num_sources):
    """The complex subspace iteration that ``_ritz_subspace`` replaced: its
    oracle.  K Ritz vectors and K + OVERSAMPLE Ritz values from products of
    the dense R_ss r with complex blocks, complex QRs and a complex
    Rayleigh-Ritz eigh; None without convergence within MAX_ITERATIONS."""
    width = num_sources + estimation.OVERSAMPLE
    start = np.random.default_rng(0).standard_normal((r.shape[0], width))
    basis = np.linalg.qr(r @ start)[0]
    for _ in range(estimation.MAX_ITERATIONS):
        image = r @ basis
        values, w = np.linalg.eigh(basis.conj().T @ image)
        w = w[:, -num_sources:]
        vectors = basis @ w
        residual = np.linalg.norm(image @ w - vectors * values[-num_sources:])
        gap = values[-num_sources] - values[-num_sources - 1]
        if residual <= estimation.SUBSPACE_TOL * gap:
            return estimation.Subspace(vectors, values)
        basis = np.linalg.qr(image)[0]
    return None


@st.composite
def _iteration_cases(draw):
    """A noisy virtual observation of m 40-130, a window length L of either
    parity from 60 up, and a source count from 1 to the most that
    SIZE_RATIO lets the iteration take at that L and the 2m + 2 - L
    windows support, with K + OVERSAMPLE odd about half the time."""
    m = draw(st.integers(40, 130))
    length = draw(st.integers(60, 2 * m + 1))
    most = min(length // estimation.SIZE_RATIO - estimation.SIZE_PAD, 2 * m + 2 - length)
    k = draw(st.integers(1, max(1, most)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lags = np.arange(-m, m + 1)
    sines = np.linspace(-0.8, 0.8, k) + rng.uniform(-0.2, 0.2, k) * 1.6 / k
    values = np.exp(-1j * np.pi * lags[:, None] * sines[None, :]).sum(axis=1)
    values[m] += 10.0 ** draw(st.floats(-3.0, 0.0)) * k
    half = (rng.standard_normal(m + 1) + 1j * rng.standard_normal(m + 1)) * 0.05 * np.sqrt(k)
    half[0] = half[0].real
    noise = np.concatenate([half[:0:-1].conj(), half])
    return VirtualObservation(lags=lags, values=values + noise), length, k


@settings(deadline=None, max_examples=60)
@given(_iteration_cases())
@example((_trial_observation(), 95, 3))
def test_real_iteration_matches_the_complex_oracle(case):
    """The real-coordinate iteration against the complex one it replaced:
    both stop once their Davis-Kahan estimate of the angle to E_s is at
    most SUBSPACE_TOL, so their E_s lie within twice that of each other
    (plus the rounding of two solvers); the top K Ritz values agree, an odd
    K + OVERSAMPLE is padded by one column whose Ritz value is dropped, and
    the spectra agree to 1e-5 dB above the guard."""
    v, length, k = case
    op = SmoothedCovariance(v, length)
    want = _complex_ritz_subspace(np.asarray(reference.window_product(v, length), dtype=complex), k)
    found = estimation._ritz_subspace(op, k)
    assume(want is not None and found is not None)
    assert found.signal.shape == (length, k)
    assert found.values.shape == (k + estimation.OVERSAMPLE,)
    scale = found.values[-1]
    np.testing.assert_allclose(found.signal.conj().T @ found.signal, np.eye(k), atol=1e-13)
    values = np.linalg.eigvalsh(reference.spatial_smoothing(v, length))
    bound = 2 * estimation.SUBSPACE_TOL + _davis_kahan(values, k)
    assert _subspace_distance(found.signal, want.signal) <= bound
    np.testing.assert_allclose(found.values[-k:], want.values[-k:], rtol=0, atol=1e-12 * scale)
    config = MusicConfig.for_step(k, 0.5, smoothing_length=length)
    _, fast = music_spectrum(op, config)
    signal = want.signal
    denom = nufft.evaluate(estimation._null_coefficients(signal), config.nufft_plan(length))
    above = denom > estimation.GUARD_FACTOR * length**2 * np.finfo(float).eps
    np.testing.assert_allclose(10 * np.log10(fast[above] * denom[above]), 0.0, rtol=0, atol=1e-5)


def test_signal_subspace_falls_back_when_the_iteration_does_not_converge(monkeypatch):
    """Two sources 0.4 degrees apart at 0 dB need more than one iteration;
    capped at one, the solver gives up and the real form serves."""
    op = SmoothedCovariance(_trial_observation(angles=(10.0, 10.4)))
    assert estimation._ritz_subspace(op, 2) is not None
    monkeypatch.setattr(estimation, "MAX_ITERATIONS", 1)
    assert estimation._ritz_subspace(op, 2) is None
    found = signal_subspace(op, 2)
    want = next(estimation._real_subspaces([op], 2))
    np.testing.assert_array_equal(found.signal, want.signal)
    np.testing.assert_array_equal(found.values, want.values)


def test_iteration_converges_on_samples_near_1e100():
    """Samples near 1e100 put R_ss entries near 1e200, whose squares
    overflow: with the Ritz residual and gap taken over the top Ritz value,
    the iteration converges without a RuntimeWarning, to the real form's
    E_s within SUBSPACE_TOL (plus the rounding of the real eigh)."""
    v = _trial_observation()
    op = SmoothedCovariance(VirtualObservation(v.lags, v.values * 1e100))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        found = estimation._ritz_subspace(op, 3)
        want = next(estimation._real_subspaces([op], 3))
    assert found is not None
    bound = estimation.SUBSPACE_TOL + _davis_kahan(want.values, 3)
    assert _subspace_distance(found.signal, want.signal) <= bound


def test_k_vector_spectrum_is_deterministic():
    """The start block is fixed, so reruns give the same bytes."""
    v = _trial_observation()
    assert signal_subspace(SmoothedCovariance(v), 3).values.size == 3 + estimation.OVERSAMPLE
    cfg = MusicConfig.for_step(3, 0.05)
    first = music_spectrum(SmoothedCovariance(v), cfg)[1]
    again = music_spectrum(SmoothedCovariance(v), cfg)[1]
    assert first.tobytes() == again.tobytes()


@st.composite
def _noisy_observations(draw, noiseless=False, designed=False):
    """The virtual observation of a random integer geometry containing a
    lag-1 pair under a noisy scenario, and the scenario's source count.
    With ``noiseless``, half the scenarios have no noise (snr_db = None);
    with ``designed``, half the geometries are generated families of at
    most 16 sensors, whose segments (m up to 158) reach the K-vector
    iteration."""
    if designed and draw(st.booleans()):
        family = draw(st.sampled_from(sorted(geometry.FAMILIES)))
        arr = geometry.design(family, draw(st.integers(geometry.FAMILIES[family].min_n, 16)))
    else:
        points = draw(st.sets(st.integers(-30, 30), max_size=8)) | {0, 1}
        arr = geometry.from_positions("rand", sorted(points))
    angles = draw(st.lists(st.floats(-80.0, 80.0), min_size=1, max_size=4, unique=True))
    noise = st.floats(-10.0, 30.0)
    sc = Scenario(
        angles_deg=tuple(angles),
        snapshots=draw(st.integers(1, 200)),
        snr_db=draw(st.one_of(st.none(), noise) if noiseless else noise),
        nc_phases=tuple(draw(st.floats(0.0, np.pi)) for _ in angles),
        seed=draw(st.integers(0, 2**31 - 1)),
    )
    v = virtual_observation(extended_covariance(simulate_snapshots(arr, sc)), lag_plan(arr))
    return v, len(angles)


@st.composite
def _noisy_smoothing_cases(draw):
    """R_ss of a noisy virtual observation at either the default or an
    explicit smoothing length."""
    v, _ = draw(_noisy_observations(designed=True))
    m = v.half_width
    length = draw(st.one_of(st.none(), st.integers(2, 2 * m + 1)))
    return reference.spatial_smoothing(v, length)


@settings(deadline=None, max_examples=100)
@given(_noisy_smoothing_cases())
def test_smoothed_covariance_is_centro_hermitian_to_rounding(r_ss):
    """The virtual observation is conjugate-symmetric, so R_ss = Pi R_ss* Pi
    for the exchange matrix Pi; a change that broke that symmetry would
    fail here."""
    bound = r_ss.shape[0] * np.finfo(float).eps * np.abs(r_ss).max()
    assert np.abs(r_ss - r_ss[::-1, ::-1].conj()).max() <= bound


def _toeplitz(v):
    """T[i, k] = v(i - k) for i, k in 0..m, entry by entry."""
    m = v.half_width
    return np.array([[v.value_at(i - k) for k in range(m + 1)] for i in range(m + 1)])


@pytest.mark.parametrize("length", range(2, 14))
def test_toeplitz_real_form_is_the_unitary_transform_of_t(length):
    """At the default length K = L the gathered real form is Q^H T Q with
    Q = Q I from ``_from_real_basis``, for even and odd L."""
    v = _conjugate_symmetric_observation(length - 1, length)
    q = estimation._from_real_basis(np.eye(length))
    np.testing.assert_allclose(q.conj().T @ q, np.eye(length), atol=1e-15)
    want = q.conj().T @ _toeplitz(v) @ q
    got = estimation._real_form(v.values, length)
    assert got.dtype == float
    np.testing.assert_array_equal(got, got.T)
    np.testing.assert_allclose(got, want.real, rtol=0, atol=8 * np.finfo(float).eps * length)
    assert np.abs(want.imag).max() <= 8 * np.finfo(float).eps * length


@pytest.mark.parametrize(
    ("m", "length"),
    [(1, 2), (1, 3), (2, 2), (4, 5), (4, 9), (5, 3), (6, 7), (6, 13),
     (30, 2), (30, 31), (30, 61), (94, 87), (94, 90), (94, 95), (95, 32), (110, 7)],
)
def test_real_form_is_the_unitary_transform_of_the_window_matrix(m, length):
    """The gathered K x L real form against Q_K^H W Q_L J for the window
    matrix W[i, k] = u_{i+k}, from two windows of length 2 to one window
    of length 2m + 1, and Y^T Y / K against Q_L^H R_ss Q_L."""
    v = _conjugate_symmetric_observation(m, 1000 * m + length)
    windows = 2 * m + 2 - length
    w = np.lib.stride_tricks.sliding_window_view(v.values, length)
    q_k = estimation._from_real_basis(np.eye(windows))
    q_l = estimation._from_real_basis(np.eye(length))
    sign = np.where(np.arange(length) < (length + 1) // 2, 1.0, -1.0)
    want = q_k.conj().T @ w @ q_l * sign
    got = estimation._real_form(v.values, length)
    assert got.dtype == float and got.shape == (windows, length)
    scale = np.abs(w).max()
    bound = 8 * np.finfo(float).eps * length * scale
    np.testing.assert_allclose(got, want.real, rtol=0, atol=bound)
    assert np.abs(want.imag).max() <= bound
    r = q_l.conj().T @ reference.spatial_smoothing(v, length) @ q_l
    np.testing.assert_allclose(got.T @ got / windows, r.real, rtol=0,
                               atol=8 * np.finfo(float).eps * length * scale**2)


@settings(deadline=None, max_examples=150)
@given(_noisy_observations(designed=True), st.data())
def test_real_subspace_matches_the_complex_eigh_of_r_ss(case, data):
    """At the default or an explicit length, the real eigh of Y^T Y / K
    gives the complex eigh's signal subspace and eigenvalues."""
    v, k = case
    m = v.half_width
    length = data.draw(st.one_of(st.just(m + 1), st.integers(2, 2 * m + 1)), label="length")
    assume(k < length)
    found = next(estimation._real_subspaces([SmoothedCovariance(v, length)], k))
    values, vectors = np.linalg.eigh(reference.spatial_smoothing(v, length))
    assert found.signal.shape == (length, k)
    np.testing.assert_allclose(found.values, values, rtol=0, atol=1e-13 * values[-1])
    np.testing.assert_allclose(found.signal.conj().T @ found.signal, np.eye(k), atol=1e-13)
    assert _subspace_distance(found.signal, vectors[:, -k:]) <= _davis_kahan(values, k)


@settings(deadline=None, max_examples=100)
@given(st.integers(1, 60), st.integers(2, 121), st.integers(1, 5), st.integers(1, 12),
       st.integers(0, 2**32 - 1))
@example(m=94, length=95, trials=5, k=27, seed=1)
@example(m=47, length=40, trials=3, k=3, seed=2)
def test_stacked_real_forms_give_each_operator_its_own_subspace(m, length, trials, k, seed):
    """One stacked eigh over the real forms of 1 to 5 operators of one
    shape gives each the Subspace bytes that signal_subspace gives it
    alone, at odd and even L below the size ratio and with at least K of
    the 2m + 2 - L windows, as signal_subspace requires."""
    assume(k < length <= 2 * m + 2 - k)
    assume(length < estimation.SIZE_RATIO * (k + estimation.SIZE_PAD))
    rng = np.random.default_rng(seed)
    lags = np.arange(-m, m + 1)
    ops = []
    for _ in range(trials):
        u = rng.standard_normal(lags.size) + 1j * rng.standard_normal(lags.size)
        ops.append(SmoothedCovariance(VirtualObservation(lags, (u + u[::-1].conj()) / 2), length))
    for op, found in zip(ops, estimation._real_subspaces(ops, k), strict=True):
        alone = signal_subspace(op, k)
        assert found.signal.tobytes() == alone.signal.tobytes()
        assert found.values.tobytes() == alone.values.tobytes()


def _davis_kahan(values, k):
    """Bound on the sine of the angle between two eigensolvers' signal
    subspaces of an L x L matrix with ascending eigenvalues ``values``:
    each is off by its backward error over the gap lambda_K - lambda_{K+1}
    (infinite at a zero gap)."""
    length = values.size
    with np.errstate(divide="ignore"):
        return 10 * length * np.finfo(float).eps * values[-1] / (values[-k] - values[-k - 1])


@settings(deadline=None, max_examples=150)
@given(_noisy_observations(noiseless=True, designed=True), st.data())
def test_signal_subspace_of_the_operator_matches_the_complex_eigh(case, data):
    """Noisy and noiseless observations at lengths on both sides of
    SIZE_RATIO * (K + SIZE_PAD): the operator's E_s, from the iteration
    or the real form, spans the complex eigh's of the dense R_ss.  The
    iteration stops once its own estimate of its angle to E_s is at most
    SUBSPACE_TOL, so the bound allows twice that on top of the eigh's:
    the angle stayed below 0.41 of this bound on 2500 iteration cases.
    Where the gap determines E_s to 1e-8, the spectra agree above the
    guard and peak alike."""
    v, k = case
    size = v.lags.size
    threshold = estimation.SIZE_RATIO * (k + estimation.SIZE_PAD)
    top = size + 1 - k  # the longest L that leaves K windows
    length = data.draw(st.one_of(st.just(v.half_width + 1), st.integers(2, max(2, top)),
                                 st.integers(min(threshold, top), top)), label="length")
    assume(k < length <= top)
    op = SmoothedCovariance(v, length)
    r = reference.spatial_smoothing(v, length)
    values, vectors = np.linalg.eigh(r)
    found = signal_subspace(op, k)
    bound = _davis_kahan(values, k)
    assert _subspace_distance(found.signal, vectors[:, -k:]) <= bound + 2 * estimation.SUBSPACE_TOL
    if bound > 1e-8:
        return  # a gap within rounding leaves E_s, so the spectrum, undetermined
    config = MusicConfig.for_step(k, 0.5)
    angles, fast = music_spectrum(op, config)
    _, dense = reference.nufft_spectrum(r, config)
    above = 1.0 / dense > estimation.GUARD_FACTOR * length**2 * np.finfo(float).eps
    np.testing.assert_allclose(fast[above], dense[above], rtol=1e-6)
    if not _kth_maxima_tie(dense, k):
        np.testing.assert_array_equal(pick_peaks(angles, fast, k)[0],
                                      pick_peaks(angles, dense, k)[0])


def test_an_explicit_smoothing_length_forms_no_dense_covariance():
    """Below the size ratio every window length of a noisy trial (m = 94
    here) takes the real form gathered from the samples, whose E_s spans
    the complex eigh's of the dense R_ss, and ``estimate_doas`` at that
    length gives the operator's spectrum."""
    arr = geometry.design_saulas(12)
    sc = Scenario(angles_deg=(-33.21, 4.04, 48.88), snapshots=500, snr_db=0.0, seed=6)
    v = virtual_observation(extended_covariance(simulate_snapshots(arr, sc)), lag_plan(arr))
    lengths = (4, 32, 60, 87)
    assert max(lengths) < estimation.SIZE_RATIO * (3 + estimation.SIZE_PAD)
    for length in lengths:
        op = SmoothedCovariance(v, length)
        found = signal_subspace(op, 3)
        assert found.values.size == length
        want = np.linalg.eigh(reference.spatial_smoothing(v, length))[1][:, -3:]
        assert _subspace_distance(found.signal, want) <= 1e-11
        config = MusicConfig.for_step(3, 0.5, smoothing_length=length)
        spectrum = music_spectrum(op, config, found)[1]
        assert estimate_doas(arr, sc, config).spectrum.tobytes() == spectrum.tobytes()


def test_the_real_form_needs_conjugate_symmetric_samples():
    """Y is real only when v(-l) = conj v(l), so the operator refuses other
    samples."""
    v = _trial_observation()
    skewed = VirtualObservation(lags=v.lags, values=v.values * (1.0 + 0.01 * v.lags))
    with pytest.raises(ValueError, match="conjugate-symmetric"):
        SmoothedCovariance(skewed)


@pytest.mark.parametrize("family", ["aulas", "saulas", "tsaulas", "cotsaulas"])
def test_noiseless_operator_takes_the_iteration(family):
    """Criterion 07's inputs through the operator: the noise floor is
    rounding, but the gap is wide, so the iteration converges, and its E_s
    spans the complex eigh's of the dense R_ss."""
    arr = geometry.design(family, 12)
    sc = Scenario(angles_deg=(37.0,), snapshots=1, snr_db=None)
    v = virtual_observation(exact_extended_covariance(arr, sc), lag_plan(arr))
    found = signal_subspace(SmoothedCovariance(v), 1)
    assert found.values.size == 1 + estimation.OVERSAMPLE
    _, vectors = np.linalg.eigh(reference.spatial_smoothing(v))
    assert _subspace_distance(found.signal, vectors[:, -1:]) <= 1e-11


@pytest.mark.parametrize("family", ["aulas", "saulas", "tsaulas", "cotsaulas"])
@pytest.mark.parametrize("theta", [-60.0, 0.0, 37.0])
def test_noiseless_null_peaks_exactly_at_its_grid_point(family, theta):
    """Criterion 07's cases: the null at theta is exact to 1e-26, far below
    the polynomial's rounding error, so without the guard the peak can move
    a grid step or the spectrum become infinite.  Both the complex eigh of
    the dense R_ss and the iteration on the operator serve them, and the
    guarded points are the residual of their E_s."""
    arr = geometry.design(family, 12)
    cfg = MusicConfig(num_sources=1)
    sc = Scenario(angles_deg=(theta,), snapshots=1, snr_db=None)
    v = virtual_observation(exact_extended_covariance(arr, sc), lag_plan(arr))
    op = SmoothedCovariance(v)
    for found in (reference.subspace(reference.spatial_smoothing(v), 1), signal_subspace(op, 1)):
        angles, spec = music_spectrum(op, cfg, found)
        assert np.all(np.isfinite(spec)) and np.all(spec > 0)
        peaks, under = pick_peaks(angles, spec, 1)
        assert not under
        assert peaks[0] == angles[np.abs(angles - theta).argmin()]
        signal = found.signal
        plan = cfg.nufft_plan(op.length)
        denom = nufft.evaluate(estimation._null_coefficients(signal), plan)
        low = denom < estimation.GUARD_FACTOR * op.length**2 * np.finfo(float).eps
        assert low.any()
        exact = estimation._null_spectrum_residual(signal, angles[low])
        np.testing.assert_array_equal(spec[low], 1.0 / np.maximum(exact, np.finfo(float).tiny))


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


def test_a_count_mismatch_charges_the_cap_on_every_source():
    arr, sc, cfg = _mismatched_study()
    result = estimate_doas(arr, sc, cfg)
    assert result.estimates.size == 3 and not result.under_detected
    assert cfg.error_cap_deg == 89.5
    assert result.per_source_error.tolist() == [89.5, 89.5]
    assert result.rmse_deg == 89.5


def test_aggregate_trials_pools_what_rmse_scores():
    """A study that mixes matched and count-mismatched trials: pooling the
    errors the results carry gives rmse of their estimates."""
    arr, sc, cfg = _mismatched_study()
    matched = trial_results(arr, sc, MusicConfig.for_step(2, 0.5), 4)
    results = [r for pair in zip(matched, trial_results(arr, sc, cfg, 4)) for r in pair]
    assert [r.estimates.size for r in results] == [2, 3] * 4
    got = estimation.aggregate_trials(results)
    want = rmse([r.estimates for r in results], sc.angles_deg, cfg.error_cap_deg)
    assert 0.0 < want < cfg.error_cap_deg
    assert got.rmse_deg == pytest.approx(want, rel=1e-15, abs=0)
    assert (got.trials, got.detection_rate) == (8, 1.0)
    with pytest.raises(ValueError, match="need at least one trial"):
        estimation.aggregate_trials([])


def test_a_study_scores_each_trial_once(count_calls, tmp_path, capsys):
    """monte_carlo and music match each trial to the truth once, and pool
    those errors without calling rmse."""
    arr, sc, cfg = _tiny_mc_setup()
    counts = count_calls(["estimation._errors_against_truth", "estimation.rmse"])
    assert monte_carlo(arr, sc, cfg, 5).trials == 5
    assert (counts["estimation._errors_against_truth"], counts["estimation.rmse"]) == (5, 0)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"angles_deg": list(sc.angles_deg), "snapshots": 200}))
    code = main(["music", "--family", "aulas", "--n", "9", "--scenario", str(path),
                 "--grid-step", "0.5", "--trials", "3"])
    assert code == 0 and json.loads(capsys.readouterr().out)["detection_rate"] == 1.0
    assert (counts["estimation._errors_against_truth"], counts["estimation.rmse"]) == (8, 0)


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


def test_the_complex_snapshots_covariance_gives_estimate_doas():
    """The covariance of the complex X of a trial holds the bytes of the
    one ``estimate_doas`` reads from the trial's planes."""
    arr = geometry.design_saulas(9)
    cfg = MusicConfig.for_step(2, 0.5)
    sc = Scenario(angles_deg=(-15.0, 22.0), snapshots=400, snr_db=10.0, seed=3)
    direct = estimate_doas(arr, sc, cfg, trial=1)
    x = simulate_snapshots(arr, sc, trial=1)
    staged = next(estimation._estimate_block(extended_covariance(x), lag_plan(arr), sc, cfg))
    np.testing.assert_array_equal(staged.spectrum, direct.spectrum)
    np.testing.assert_array_equal(staged.estimates, direct.estimates)
    assert staged.rmse_deg == direct.rmse_deg


@st.composite
def _pipeline_cases(draw):
    """A noisy trial on a generated family of at most 12 sensors or a nested
    array, with or without PAPER_V: 1-4 sources on a 12-degree comb, and
    the default or an explicit smoothing length L > K that leaves at least
    K windows, so that the K signal eigenvalues stand apart from the
    rest."""
    family = draw(st.sampled_from(geometry.GENERATED_FAMILIES + ("nested",)))
    if family == "nested":
        arr = geometry.design_nested(draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    else:
        fewest = geometry.FAMILIES[family].min_n if family in geometry.FAMILIES else 2
        arr = geometry.design(family, draw(st.integers(fewest, 12)))
    m = lag_plan(arr).half_width
    k = draw(st.integers(1, min(4, m)))
    length = draw(st.one_of(st.none(), st.integers(k + 1, 2 * m + 2 - k)))
    comb = draw(st.lists(st.integers(-5, 5), min_size=k, max_size=k, unique=True))
    offset = draw(st.floats(-5.0, 5.0))
    sc = Scenario(
        angles_deg=tuple(12.0 * c + offset for c in comb),
        snapshots=draw(st.integers(20, 200)),
        snr_db=draw(st.floats(0.0, 20.0)),
        nc_phases=tuple(draw(st.floats(0.0, np.pi)) for _ in comb),
        seed=draw(st.integers(0, 2**31 - 1)),
    )
    config = MusicConfig.for_step(k, 0.5, smoothing_length=length)
    return arr, sc, config, draw(st.sampled_from([None, PAPER_V])), draw(st.integers(0, 3))


def _power_db(spectrum):
    return 10.0 * np.log10(spectrum / spectrum.max())


@settings(deadline=None, max_examples=100)
@given(_pipeline_cases())
def test_estimate_doas_matches_the_reference_pipeline(case):
    """The whole trial against ``reference.trial_spectrum``: complex
    snapshots, dense covariances, the np.unique lag average, dense
    smoothing, the complex eigh and an L x G steering spectrum.  The
    spectra agree within the goldens' POWER_DB_ATOL, and the peaks are the
    same."""
    arr, sc, config, model, trial = case
    got = estimate_doas(arr, sc, config, coupling=model, trial=trial)
    angles, want = reference.trial_spectrum(arr, sc, config, coupling=model, trial=trial)
    np.testing.assert_array_equal(got.angles, angles)
    assert np.abs(_power_db(got.spectrum) - _power_db(want)).max() <= POWER_DB_ATOL
    np.testing.assert_array_equal(got.estimates, pick_peaks(angles, want, config.num_sources)[0])


def test_required_subarray_length():
    cfg = MusicConfig(num_sources=3)
    saulas = lag_plan(geometry.design_saulas(12))
    assert required_subarray_length(saulas, cfg) == 95
    assert required_subarray_length(lag_plan(geometry.design_ula(4)), cfg) == 7
    short = MusicConfig(num_sources=3, smoothing_length=10)
    assert required_subarray_length(saulas, short) == 10


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
    assert monte_carlo(arr, sc, cfg, trials=2.0).estimates_per_trial == ((), ())


def test_monte_carlo_rejects_zero_trials():
    arr, sc, cfg = _tiny_mc_setup()
    for bad in (0, -1, True, 2.5, None, "3"):
        with pytest.raises(ValueError, match="trials"):
            monte_carlo(arr, sc, cfg, trials=bad)
        with pytest.raises(ValueError, match="trials"):
            trial_results(arr, sc, cfg, bad)


def test_monte_carlo_result_serializes_to_json():
    arr, sc, cfg = _tiny_mc_setup()
    result = monte_carlo(arr, sc, cfg, trials=2)
    payload = json.loads(json.dumps(result.to_dict()))
    assert payload["trials"] == 2
    assert payload["insufficient_dofs"] is False
    assert len(payload["estimates_per_trial"]) == 2


PLAN_STAGES = [
    "coarray.sum_difference_coarray",
    "coarray.contiguous_stats",
    "signal.lag_plan",
    "signal.simulate_snapshots",
    "signal.planes_gram",
    "signal.gram_covariance",
    "signal.extended_covariance",
    "signal.snapshots_from_planes",
    "estimation.music_spectrum",
]


def test_monte_carlo_plans_once_per_call(count_calls, numpy_calls):
    arr, sc, cfg = _tiny_mc_setup()
    counts = count_calls(PLAN_STAGES)
    result = monte_carlo(arr, sc, cfg, trials=4)
    assert result.trials == 4 and not result.insufficient_dofs
    assert counts["estimation.music_spectrum"] == 4
    # each trial's covariance is read from its planes: no complex X is formed;
    # the four trials fit one block, whose covariance blocks are taken at once
    assert counts["signal.planes_gram"] == 4
    assert counts["signal.gram_covariance"] == 1
    assert counts["signal.extended_covariance"] == 0
    assert counts["signal.snapshots_from_planes"] == 0
    # the co-array is enumerated and the plan built once for all trials: the
    # plan reads the segment off its own upper blocks
    assert counts["coarray.sum_difference_coarray"] == 0
    assert counts["coarray.contiguous_stats"] == 1
    assert counts["signal.lag_plan"] == 1
    # the trials average lags by bincount; the grid is the config's
    assert numpy_calls["np.unique"] == 0 and numpy_calls["np.add.at"] == 0
    assert numpy_calls["np.linspace"] == 1
    assert monte_carlo(arr, sc, cfg, trials=2).trials == 2
    assert numpy_calls["np.linspace"] == 1 and counts["signal.lag_plan"] == 2


def test_monte_carlo_builds_the_coupled_steering_once_per_call(count_calls):
    arr, sc, cfg = _tiny_mc_setup()
    counts = count_calls(["coupling.coupling_matrix", "signal.simulate_snapshots"])
    assert monte_carlo(arr, sc, cfg, trials=4, coupling=PAPER_V).trials == 4
    assert counts["signal.simulate_snapshots"] == 4
    assert counts["coupling.coupling_matrix"] == 1


def _nine_sources_on_na22():
    arr = geometry.design_nested(2, 2)
    cfg = MusicConfig.for_step(9, 1.0)
    sc = Scenario(angles_deg=tuple(range(-40, 50, 10)), snapshots=10)
    return arr, sc, cfg


def test_insufficient_dofs_is_read_off_the_plan(count_calls):
    arr, sc, cfg = _nine_sources_on_na22()
    counts = count_calls(PLAN_STAGES)
    assert monte_carlo(arr, sc, cfg, trials=3).insufficient_dofs
    assert counts["signal.lag_plan"] == 1 and counts["signal.simulate_snapshots"] == 0


# ---------------------------------------------------------------------------
# The one trial loop
# ---------------------------------------------------------------------------


#: sha256 of estimate_doas' spectra and estimates, captured before it became
#: a one-trial study of ``trial_results``: per family, n 9-16, without
#: coupling and with PAPER_V, the default L and L = 24, trials 0 and 3, the
#: raw bytes of each spectrum and then its estimates, in that loop order.
#: The default L runs 17-159, so both eigen routes are covered.
ESTIMATE_DOAS_SHA256 = {
    "aulas": "b6d63141f10b7fd34cf376e7c2ec108e7894cdbe2294d89fd05616a97bb95c13",
    "saulas": "b64b3a637eb9d1b325134bb55b96dff7485323768ce704ea43637d9508dde6ea",
    "tsaulas": "c535bf4e636149fa7ff8985162d247765eda62356ecfb72e3d78bc60f6fa9229",
    "cotsaulas": "7910a2d611257a115383458e9526272f3d1157d29a77a4d1217b9fdb6383f0a0",
    "ula": "16a972ffcced64e39dd8b9351bf051ed0695ab4f89674129f647ec7874e7d61f",
}


@pytest.mark.parametrize("family", sorted(ESTIMATE_DOAS_SHA256))
def test_estimate_doas_outputs_are_unchanged(family):
    sc = Scenario(angles_deg=(-30.2, 5.3, 41.7), snapshots=200, snr_db=0.0, seed=11)
    digest = hashlib.sha256()
    for n in range(9, 17):
        arr = geometry.design(family, n)
        for model in (None, PAPER_V):
            for length in (None, 24):
                cfg = MusicConfig.for_step(3, 0.05, smoothing_length=length)
                for trial in (0, 3):
                    result = estimate_doas(arr, sc, cfg, coupling=model, trial=trial)
                    digest.update(result.spectrum.tobytes())
                    digest.update(result.estimates.tobytes())
    assert digest.hexdigest() == ESTIMATE_DOAS_SHA256[family]


#: sha256 of monte_carlo's results, captured before a study pooled the
#: per-source errors its trials carry instead of matching every trial
#: again: per preset and 12-sensor family, the sorted-key JSON of
#: ``MonteCarloResult.to_dict`` (rmse_deg, detection_rate and
#: estimates_per_trial) at seeds 101, 202 and 7, 5 trials each.
MONTE_CARLO_SHA256 = {
    ("fig12", "saulas"): "1dc32043203983c0689b17444413390b63ccaaca3b6c38d937e46d4043305f82",
    ("fig13", "tsaulas"): "5118d3fbd48c9a4f5256b17756d6b8636b4f70ce61de267be5d9f381a54f11ea",
    ("fig13", "cotsaulas"): "0b430858bc0604bf80dc2f14d2c624f0cfff647fdee281d01b3fffe4046e379f",
    ("fig13", "saulas"): "96615621d0226dc6479f283f94b12eeea9d318e16d0e84dcc1262022f2fee1c6",
}


@pytest.mark.parametrize("preset, family", sorted(MONTE_CARLO_SHA256))
def test_monte_carlo_outputs_are_unchanged(preset, family):
    digest = hashlib.sha256()
    for seed in (101, 202, 7):
        p = presets.get_scenario_preset(preset, seed=seed)
        mc = monte_carlo(geometry.design(family, 12), p.scenario, p.music, 5, coupling=p.coupling)
        digest.update(json.dumps(mc.to_dict(), sort_keys=True).encode())
    assert digest.hexdigest() == MONTE_CARLO_SHA256[preset, family]


def _mismatched_study():
    """SAULAs(9) asked for 3 sources against 2: every trial finds 3 peaks."""
    sc = Scenario(angles_deg=(-20.3, 31.7), snapshots=200, snr_db=10.0, seed=3)
    return geometry.design_saulas(9), sc, MusicConfig.for_step(3, 0.5)


def test_monte_carlo_with_a_count_mismatch_is_unchanged():
    """The one figure a study with a count-mismatched trial may move, in
    its last bit only: its rmse_deg, as captured before."""
    arr, sc, cfg = _mismatched_study()
    assert monte_carlo(arr, sc, cfg, 5).rmse_deg == pytest.approx(89.5, rel=1e-14, abs=0)


@pytest.mark.parametrize("model", [None, PAPER_V])
def test_trial_results_yields_estimate_doas_trial_by_trial(model):
    """Each result is ``estimate_doas`` of its trial, and the hook sees
    trial 0's planes, once."""
    arr = geometry.design_saulas(9)
    cfg = MusicConfig.for_step(2, 0.5)
    sc = Scenario(angles_deg=(-15.0, 22.0), snapshots=400, snr_db=10.0, seed=3)
    seen = []
    results = list(trial_results(arr, sc, cfg, 3, coupling=model, first_planes=seen.append))
    assert len(results) == 3
    drawn = simulate_snapshots(arr, sc, coupling=model, trial=0, planes=True)
    assert len(seen) == 1 and seen[0].dtype == float
    assert seen[0].tobytes() == drawn.tobytes()
    for k, got in enumerate(results):
        want = estimate_doas(arr, sc, cfg, coupling=model, trial=k)
        assert got.spectrum.tobytes() == want.spectrum.tobytes()
        assert got.estimates.tobytes() == want.estimates.tobytes()
        assert (got.under_detected, got.rmse_deg) == (want.under_detected, want.rmse_deg)


def test_trial_results_simulates_only_when_iterated(count_calls):
    """Nothing is drawn before the first result is asked for; then the
    first block, here all three trials, is drawn and one spectrum
    searched."""
    arr, sc, cfg = _tiny_mc_setup()
    assert estimation._block_size(lag_plan(arr), cfg) >= 3
    counts = count_calls(PLAN_STAGES)
    results = trial_results(arr, sc, cfg, 3)
    assert counts["signal.lag_plan"] == 1 and counts["signal.simulate_snapshots"] == 0
    next(results)
    assert counts["signal.simulate_snapshots"] == 3
    assert counts["estimation.music_spectrum"] == 1


def test_trial_results_refuses_without_enough_dofs(count_calls):
    arr, sc, cfg = _nine_sources_on_na22()
    counts = count_calls(PLAN_STAGES)
    refused = "^insufficient uDOFs: 9 sources need a smoothed subarray longer than 9, got 8$"
    with pytest.raises(estimation.InsufficientDofs, match=refused):
        trial_results(arr, sc, cfg, 3, first_planes=pytest.fail)
    assert counts["signal.lag_plan"] == 1 and counts["signal.simulate_snapshots"] == 0


#: ULA(3) has the segment m = 4: its default L = 5 is too short for six
#: sources, and an explicit L = 9 leaves 2m + 2 - L = 1 window for two.
#: The CLI sets no explicit L, so ``music`` meets only the first.
REFUSED_MODEL_ORDERS = {
    "short_subarray": (tuple(range(-50, 60, 20)), None, estimation.InsufficientDofs),
    "few_windows": ((-10.0, 20.0), 9, ValueError),
}


@pytest.mark.parametrize("case", sorted(REFUSED_MODEL_ORDERS))
def test_every_entry_refuses_before_its_draw(case, count_calls, tmp_path, capsys):
    """estimate_doas, trial_results, monte_carlo and music run one gate
    before any draw and give one message."""
    angles, length, kind = REFUSED_MODEL_ORDERS[case]
    arr = geometry.design_ula(3)
    sc = Scenario(angles_deg=angles, snapshots=100)
    cfg = MusicConfig.for_step(len(angles), 0.5, smoothing_length=length)
    counts = count_calls(["signal.simulate_snapshots"])
    with pytest.raises(kind) as refused:
        estimate_doas(arr, sc, cfg, trial=3)
    message = str(refused.value)
    assert (type(refused.value) is estimation.InsufficientDofs) == (length is None)
    with pytest.raises(kind, match=f"^{re.escape(message)}$"):
        trial_results(arr, sc, cfg, 2, first_planes=pytest.fail)
    if length is None:
        assert message.startswith("insufficient uDOFs")
        assert monte_carlo(arr, sc, cfg, 2).insufficient_dofs
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"angles_deg": list(angles), "snapshots": 100}))
        code = main(["music", "--family", "ula", "--n", "3", "--scenario", str(path),
                     "--grid-step", "0.5", "--output", str(tmp_path / "run")])
        assert code == EXIT_USAGE and capsys.readouterr().err == f"error: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json"]
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            monte_carlo(arr, sc, cfg, 2)
    assert counts["signal.simulate_snapshots"] == 0


def test_monte_carlo_drops_each_trials_snapshots(monkeypatch):
    arr, sc, cfg = _tiny_mc_setup()
    simulate = estimation.simulate_snapshots
    earlier = []

    def tracked(*args, **kwargs):
        assert all(ref() is None for ref in earlier), "an earlier trial's snapshots live on"
        planes = simulate(*args, **kwargs)
        assert planes.shape == (2 * arr.n, sc.snapshots) and planes.dtype == float
        earlier.append(weakref.ref(planes))
        return planes

    monkeypatch.setattr(estimation, "simulate_snapshots", tracked)
    assert monte_carlo(arr, sc, cfg, trials=3).trials == 3
    assert len(earlier) == 3
    # with the hook set, as the music CLI sets it: trial 0's planes are
    # handed to it and dropped all the same
    shapes = []
    results = trial_results(arr, sc, cfg, 3, first_planes=lambda planes: shapes.append(planes.shape))
    assert len(list(results)) == 3 and len(earlier) == 6
    assert shapes == [(2 * arr.n, sc.snapshots)]


def _fig13_like():
    """fig13's 27 sources and coupling on TSAULAs(12): L = 93, real form."""
    preset = presets.get_scenario_preset("fig13")
    return geometry.design_tsaulas(12), preset.scenario, preset.music, PAPER_V


def _short_windows():
    """An explicit L = 40 on SAULAs(12) (m = 94): 150 windows of 40."""
    sc = Scenario(angles_deg=(-33.21, 4.04, 48.88), snapshots=300, snr_db=0.0, seed=6)
    return geometry.design_saulas(12), sc, MusicConfig.for_step(3, 0.5, smoothing_length=40), None


def _iterated():
    """Three sources at L = 95 >= SIZE_RATIO * (3 + SIZE_PAD)."""
    sc = Scenario(angles_deg=(-33.21, 4.04, 48.88), snapshots=300, snr_db=0.0, seed=6)
    return geometry.design_saulas(12), sc, MusicConfig.for_step(3, 0.5), None


def _iterated_with_a_fallback():
    """Two sources 0.9 degrees apart at 0 dB: with the iteration held to 5
    steps, trial 2 of these seven needs more and falls back to its real
    form."""
    sc = Scenario(angles_deg=(10.0, 10.9), snapshots=200, snr_db=0.0, seed=2)
    return geometry.design_saulas(12), sc, MusicConfig.for_step(2, 0.1), None


@pytest.mark.parametrize("case", [_fig13_like, _short_windows, _iterated, _iterated_with_a_fallback])
def test_blocked_monte_carlo_is_estimate_doas_trial_by_trial(case, monkeypatch):
    """Seven trials in blocks of 3, 3 and 1 give, byte for byte, the
    estimates, RMSE, detection rate and spectra of estimate_doas run on
    each trial alone."""
    arr, sc, cfg, model = case()
    if case is _iterated_with_a_fallback:
        monkeypatch.setattr(estimation, "MAX_ITERATIONS", 5)
    alone = [estimate_doas(arr, sc, cfg, coupling=model, trial=t) for t in range(7)]
    plan = lag_plan(arr)
    length = required_subarray_length(plan, cfg)
    windows = 2 * plan.half_width + 2 - length
    per_trial = 8 * max(windows * length, length * length, 4 * arr.n**2)
    monkeypatch.setattr(estimation, "TRIAL_BLOCK_BYTES", 3 * per_trial + 7)
    assert estimation._block_size(plan, cfg) == 3

    spectra, blocks, ritz = [], [], []
    spectrum, gram_covariance, ritz_subspace = (
        estimation.music_spectrum, estimation.gram_covariance, estimation._ritz_subspace)

    def recorded(*args, **kwargs):
        result = spectrum(*args, **kwargs)
        spectra.append(result[1])
        return result

    def stacked(grams):
        blocks.append(len(grams))
        return gram_covariance(grams)

    def iterated(*args):
        ritz.append(ritz_subspace(*args))
        return ritz[-1]

    monkeypatch.setattr(estimation, "music_spectrum", recorded)
    monkeypatch.setattr(estimation, "gram_covariance", stacked)
    monkeypatch.setattr(estimation, "_ritz_subspace", iterated)
    got = monte_carlo(arr, sc, cfg, 7, coupling=model)

    assert blocks == [3, 3, 1]
    iterating = length >= estimation.SIZE_RATIO * (cfg.num_sources + estimation.SIZE_PAD)
    assert len(ritz) == (7 if iterating else 0)
    gave_up = [k for k, found in enumerate(ritz) if found is None]
    assert gave_up == ([2] if case is _iterated_with_a_fallback else [])
    want = estimation.aggregate_trials(alone)
    assert got.estimates_per_trial == want.estimates_per_trial
    assert got.rmse_deg == want.rmse_deg
    assert got.detection_rate == want.detection_rate
    assert [s.tobytes() for s in spectra] == [r.spectrum.tobytes() for r in alone]


@pytest.mark.parametrize("n", [9, 12, 32, 64])
def test_a_block_fits_the_budget(n):
    """A block's Grams, real forms Y and M and eigenvectors each fit
    TRIAL_BLOCK_BYTES, unless one trial's alone does not, which then gets
    a block of its own; at L = 95 (fig12 and fig13 on SAULAs(12)) a block
    holds at least 10 trials."""
    plan = lag_plan(geometry.design_saulas(n))
    m = plan.half_width
    for length in sorted({2, m // 2 + 1, m + 1, 2 * m + 1}):
        size = estimation._block_size(plan, MusicConfig.for_step(1, 1.0, smoothing_length=length))
        windows = 2 * m + 2 - length
        stacks = [(2 * n) ** 2, windows * length, length**2]
        assert size >= 1
        assert size == 1 or 8 * size * max(stacks) <= estimation.TRIAL_BLOCK_BYTES
    if n == 12:
        fig12 = presets.get_scenario_preset("fig12")
        assert plan.default_length == 95 and estimation._block_size(plan, fig12.music) >= 10


def test_a_fig12_study_holds_two_stacks_of_the_budget_at_most():
    """The eigen step of a block holds its real forms M and their
    eigenvectors, one TRIAL_BLOCK_BYTES each; the real forms Y are freed
    first, and each E_s is formed when its trial finishes.  A third budget
    covers one trial's draw and spectrum."""
    fig12 = presets.get_scenario_preset("fig12")
    arr = geometry.design_saulas(12)
    monte_carlo(arr, fig12.scenario, fig12.music, 1)  # the grid and NUFFT plan
    tracemalloc.start()
    try:
        monte_carlo(arr, fig12.scenario, fig12.music, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * estimation.TRIAL_BLOCK_BYTES


def test_music_config_grid_and_nufft_plan_are_shared_and_read_only():
    """L = 29 and 30 share N = 120 and one plan, L = 32 (N = 128) replaces
    it; every array is read-only, and start and offset place each grid
    point at x = N sin(theta) / 2 modulo N."""
    cfg = MusicConfig.for_step(2, 0.5)
    assert cfg.grid is cfg.grid and not cfg.grid.flags.writeable
    plan = cfg.nufft_plan(29)
    assert plan.size == 120 and cfg.nufft_plan(30) is plan
    other = cfg.nufft_plan(32)
    assert other.size == 128 and cfg.nufft_plan(32) is other
    assert cfg.nufft_plan(29) is not plan and cfg.nufft_plan(29).size == 120
    for part in (plan.start, plan.offset, plan.deconvolution):
        assert not part.flags.writeable
    assert plan.start.shape == plan.offset.shape == cfg.grid.shape
    assert plan.start.min() >= 0 and plan.start.max() < plan.size
    assert np.all((plan.offset > -1) & (plan.offset <= 1))
    x = plan.start + (plan.offset + nufft.KERNEL_WIDTH - 1) / 2
    want = plan.size * np.sin(np.deg2rad(cfg.grid)) / 2
    np.testing.assert_allclose((x - want + plan.size / 2) % plan.size, plan.size / 2,
                               rtol=0, atol=1e-12)
    assert cfg == MusicConfig.for_step(2, 0.5)


def test_the_start_block_is_built_once_per_shape_and_read_only(monkeypatch):
    """Each shape's start block is drawn once, from the fixed seed, and
    every iteration of that shape reads the same read-only array."""
    v = _trial_observation()
    estimation._start_block.cache_clear()
    drawn = []
    rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: drawn.append(seed) or rng(seed))
    op = SmoothedCovariance(v)
    first = estimation._ritz_subspace(op, 3)
    block = estimation._start_block(op.length, 8)
    again = estimation._ritz_subspace(SmoothedCovariance(v), 3)
    assert drawn == [0] and estimation._start_block(op.length, 8) is block
    assert not block.flags.writeable
    np.testing.assert_array_equal(block, rng(0).standard_normal((op.length, 8)))
    assert first.signal.tobytes() == again.signal.tobytes()


#: The sources of the three scenarios of the ``music_fine_n32`` benchmark
#: workload: SAULAs(32), L = 575, T = 400 at 10 dB, scenario seeds 0, 1, 2.
FINE_N32_ANGLES = ((-56.726, -41.413, -28.469, -20.257), (-14.243, -4.511, 22.46, 48.412),
                   (-27.269, -18.333, 12.268, 33.2))


@pytest.mark.parametrize("seed", range(3))
def test_the_large_l_music_scenarios_converge_on_k_plus_oversample_columns(seed, monkeypatch):
    """Each of the three trials of each ``music_fine_n32`` scenario
    converges on the K + OVERSAMPLE = 8 columns within 5 iterations, so
    none falls back to the real form at L = 575."""
    arr = geometry.design_saulas(32)
    sc = Scenario(angles_deg=FINE_N32_ANGLES[seed], snapshots=400, snr_db=10.0, seed=seed)
    plan = lag_plan(arr)
    products = []
    product = SmoothedCovariance.__matmul__
    monkeypatch.setattr(SmoothedCovariance, "__matmul__",
                        lambda op, x: products.append(x.shape) or product(op, x))
    for trial in range(3):
        planes = simulate_snapshots(arr, sc, trial=trial, planes=True)
        op = SmoothedCovariance(virtual_observation(gram_covariance(planes_gram(planes)), plan))
        products.clear()
        found = estimation._ritz_subspace(op, 4)
        assert found is not None and found.values.size == 4 + estimation.OVERSAMPLE
        assert products[0] == (575, 8) and len(products) <= 6


# ---------------------------------------------------------------------------
# Spectrum CSV
# ---------------------------------------------------------------------------


def _row_formatted_csv(angles, spectrum):
    """The per-row formatter that ``spectrum_to_csv`` replaced: its oracle."""
    power_db = 10.0 * np.log10(spectrum / spectrum.max())
    rows = zip(angles.tolist(), power_db.tolist())
    return "angle_deg,power_db\n" + "".join(f"{a:.6f},{p:.6f}\n" for a, p in rows)


def _nudged(x, ulps):
    """x moved by ``ulps`` units in the last place."""
    for _ in range(abs(ulps)):
        x = np.nextafter(x, np.copysign(np.inf, ulps))
    return float(x)


#: 2^52 / 1e6: from here on x * 1e6 has no fraction bits left.
_CSV_HUGE = 2.0**52 / 1e6

_CSV_ANGLES = st.one_of(
    st.sampled_from([-0.0, 0.0, -89.99, 89.99, -4e-7, 5e-7, -5e-7, 2.5e-6, -2.5e-6,
                     _CSV_HUGE, -_CSV_HUGE, np.nextafter(_CSV_HUGE, 0.0), 1e300, -1e300]),
    st.floats(-89.99, 89.99),
    # near-ties: within a few ulps of a half-unit of the sixth decimal
    st.builds(lambda k, side, ulps: _nudged(k / 1e6 + side * 5e-7, ulps),
              st.integers(-90_000_000, 90_000_000), st.sampled_from([-1, 1]),
              st.integers(-3, 3)),
    st.builds(lambda k, side: k / 1e6 + side * 5e-7, st.integers(-2**52, 2**52),
              st.sampled_from([-1, 1])),
    st.floats(_CSV_HUGE, 1.7e308),
)
_CSV_POWERS = st.one_of(st.floats(1e-150, 1e150), st.just(0.0))


@settings(deadline=None, max_examples=300)
@given(st.lists(st.tuples(_CSV_ANGLES, _CSV_POWERS), min_size=1, max_size=40)
       .filter(lambda rows: any(p > 0 for _, p in rows)))
@example([(0.0000005, 1.0), (-0.0000005, 0.0), (_CSV_HUGE, 2.0), (1e300, 1e-150)])
def test_spectrum_to_csv_matches_the_row_formatter(rows):
    """Negative zeros, the grid edges, values that round to -0.000000,
    near-ties k/1e6 +- 5e-7, values of 2^52/1e6 and more (which '%.6f'
    writes itself), powers 300 decades below the peak and a zero power
    (-inf dB) format as the per-row f-strings did."""
    angles = np.array([a for a, _ in rows])
    spectrum = np.array([p for _, p in rows])
    with np.errstate(divide="ignore"):
        want = _row_formatted_csv(angles, spectrum)
    assert spectrum_to_csv(angles, spectrum) == want


def test_spectrum_to_csv_splices_the_rows_it_leaves_to_the_formatter():
    """Rows that '%.6f' writes itself, among fast ones, at and across the
    edges of the ROW_BLOCK blocks."""
    rng = np.random.default_rng(5)
    angles = rng.uniform(-1e4, 1e4, 2 * estimation.ROW_BLOCK + 7)
    angles[rng.integers(0, angles.size, 40)] = np.inf
    angles[estimation.ROW_BLOCK - 1 : estimation.ROW_BLOCK + 1] = 0.0000005
    angles[-1] = np.nan
    spectrum = rng.uniform(1e-6, 1.0, angles.size)
    spectrum[[0, estimation.ROW_BLOCK]] = 0.0
    with np.errstate(divide="ignore"):
        want = _row_formatted_csv(angles, spectrum)
    assert spectrum_to_csv(angles, spectrum) == want


def test_spectrum_to_csv_normalizes_peak():
    angles = np.array([-1.0, 0.0, 1.0])
    spectrum = np.array([0.5, 2.0, 1.0])
    text = spectrum_to_csv(angles, spectrum)
    lines = text.strip().split("\n")
    assert lines[0] == "angle_deg,power_db"
    assert lines[1] == f"{-1.0:.6f},{10 * np.log10(0.25):.6f}"
    assert lines[2] == "0.000000,0.000000"
    assert lines[3] == f"{1.0:.6f},{10 * np.log10(0.5):.6f}"
