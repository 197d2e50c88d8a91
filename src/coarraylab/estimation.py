"""Co-array MUSIC on the virtual observation, plus Monte-Carlo harnesses.

The virtual observation behaves like a single-snapshot measurement of a long
virtual ULA, so rank is restored by spatial smoothing before the usual
noise-subspace spectrum search.  Peak picking, sorted-order RMSE and the
trial loop live here too so that a "single run" and "trial 0 of a Monte
Carlo" are literally the same code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import coarray
from .coupling import CouplingModel, integer_field
from .geometry import SensorArray
from .signal import (
    Scenario,
    VirtualObservation,
    extended_covariance,
    simulate_snapshots,
    virtual_observation,
)


@dataclass(frozen=True)
class MusicConfig:
    """Search-grid and model-order settings for the spectrum search.

    The grid spans the open interval (-90, 90) degrees; the default is a
    0.01-degree pitch (17999 points).  ``for_step`` builds a config from a
    pitch directly.
    """

    num_sources: int
    grid_start: float = -89.99
    grid_stop: float = 89.99
    grid_points: int = 17999
    smoothing_length: int | None = None

    def __post_init__(self) -> None:
        for name in ("num_sources", "grid_points"):
            object.__setattr__(self, name, integer_field(getattr(self, name), name))
        if self.smoothing_length is not None:
            length = integer_field(self.smoothing_length, "smoothing_length")
            object.__setattr__(self, "smoothing_length", length)
        if self.num_sources < 1:
            raise ValueError("num_sources must be >= 1")
        if self.grid_points < 2:
            raise ValueError("grid needs at least 2 points")
        if not (-90.0 <= self.grid_start < self.grid_stop <= 90.0):
            raise ValueError("grid must satisfy -90 <= start < stop <= 90")
        if self.smoothing_length is not None and self.smoothing_length < 2:
            raise ValueError("smoothing_length must be >= 2")

    @classmethod
    def for_step(cls, num_sources: int, step_deg: float, **kwargs) -> "MusicConfig":
        """Config whose grid covers (-90, 90) exclusive at the given pitch,
        which must divide 180 degrees (to a relative 1e-9)."""
        if not step_deg > 0:
            raise ValueError("grid step must be positive")
        intervals = 180.0 / step_deg
        if not (math.isfinite(intervals)
                and math.isclose(intervals, round(intervals), rel_tol=1e-9)):
            raise ValueError(f"grid step {step_deg} does not divide 180 degrees")
        points = int(round(intervals)) - 1
        edge = 90.0 - step_deg
        return cls(num_sources=num_sources, grid_start=-edge, grid_stop=edge,
                   grid_points=points, **kwargs)

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(self.grid_start, self.grid_stop, self.grid_points)

    @property
    def grid_step(self) -> float:
        return (self.grid_stop - self.grid_start) / (self.grid_points - 1)

    @property
    def error_cap_deg(self) -> float:
        """Penalty charged per source in an under-detected trial: half the
        grid span."""
        return (self.grid_stop - self.grid_start) / 2.0


def spatial_smoothing(v: VirtualObservation, subarray_len: int | None = None) -> np.ndarray:
    """Rank-restoring average of sliding windows over the virtual samples.

    With half-width m, window i (i = 0..K-1) is w_i[k] = v(i - m + k); the
    default window length L = m + 1 yields K = L windows and
    R_ss = (1/K) sum_i w_i w_i^H, an L x L Hermitian PSD matrix whose signal
    eigenvectors align with the length-L virtual steering vectors.

    The window product costs O(K L^2); this builds R_ss in O(L^2 + K L).
    With u_j = v(j - m) the j-th sample, the first column R[d, 0] is one
    correlation of the samples, and sliding both windows of an entry one
    sample on drops one product and adds another:
    R[a+1, b+1] = R[a, b] + (u_{K+a} conj(u_{K+b}) - u_a conj(u_b)) / K.
    A cumulative sum down each diagonal applies the recurrence below the
    diagonal, and the upper triangle is the conjugate mirror.
    """
    lags = np.asarray(v.lags)
    m = int(lags[-1])
    if lags[0] != -m or lags.size != 2 * m + 1:
        raise ValueError("virtual observation must cover a symmetric contiguous segment")
    length = m + 1 if subarray_len is None else integer_field(subarray_len, "subarray_len")
    if length < 2 or length > 2 * m + 1:
        raise ValueError(f"subarray length {length} not in [2, {2 * m + 1}]")
    u = np.asarray(v.values, dtype=complex)
    k = u.size - length + 1
    weights = u.conj() / k
    # windows[j, d] = u_{j+d}, zero past the last sample
    windows = np.lib.stride_tricks.sliding_window_view(
        np.concatenate([u, np.zeros(length - 1, dtype=complex)]), length
    )
    # below[a, d] = R[a + d, a]; rows 1.. first hold the recurrence's steps
    below = np.empty((length, length), dtype=complex)
    below[0] = np.correlate(u, u[:k] / k, "valid")
    np.multiply(windows[k:], weights[k:, None], out=below[1:])
    flat = np.empty(length * (length + 1), dtype=complex)
    leaving = flat[: (length - 1) * length].reshape(length - 1, length)
    np.multiply(windows[: length - 1], weights[: length - 1, None], out=leaving)
    below[1:] -= leaving
    np.cumsum(below, axis=0, out=below)
    # Row stride L + 1 shears below[a, d] onto mirror[a, a + d] = R[a + d, a];
    # entries with a + d >= L wrap onto slots under the diagonal, which the
    # mirror image overwrites.
    step = flat.itemsize
    np.lib.stride_tricks.as_strided(
        flat, (length, length), ((length + 1) * step, step)
    )[...] = below
    mirror = flat[: length * length].reshape(length, length)
    r = np.conjugate(mirror, out=below)
    np.copyto(r, mirror.T, where=np.tri(length, k=-1, dtype=bool))
    return r


def _check_hermitian(r: np.ndarray) -> np.ndarray:
    r = np.asarray(r)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ValueError("covariance must be square")
    scale = np.abs(r).max()
    if not np.isfinite(scale):
        raise ValueError("covariance has non-finite entries")
    # max |r - r^H| one band of rows at a time, so the transposed reads of
    # a large r stay in cache
    band = 64
    defect = max(
        np.abs(r[i : i + band, i:] - r[i:, i : i + band].T.conj()).max()
        for i in range(0, r.shape[0], band)
    )
    if defect > 1e-9 * max(scale, 1.0):
        raise ValueError("covariance is not Hermitian")
    return r


#: The signal subspace comes from block subspace iteration with
#: Rayleigh-Ritz (Halko, Martinsson & Tropp, SIAM Review 2011; Saad,
#: Numerical Methods for Large Eigenvalue Problems, 2011) on K + OVERSAMPLE
#: vectors: the K-th Ritz vector converges at the rate
#: lambda_{K+OVERSAMPLE+1} / lambda_K per iteration, about 1e-3 on the noisy
#: SAULAs(32) inputs (L = 575), which converge in 4-5 iterations.
OVERSAMPLE = 8
#: The iteration is tried only when L >= SIZE_RATIO * (K + OVERSAMPLE).
#: Each iteration costs about 0.15 ms of call overhead however small L is,
#: while the complex eigh grows as L^3: on SAULAs/Co-TSAULAs inputs the
#: complex eigh won at L / (K + OVERSAMPLE) up to 4.9 (K = 4, 5, 27) and
#: the iteration from 5.3 (K = 4, L = 64: 0.9 against 1.0 ms) and 7.4
#: (K = 5, L = 96: 2.2 against 2.6 ms).
SIZE_RATIO = 6
#: Iterations before the complex eigh takes over.
MAX_ITERATIONS = 20
#: Converged when the Ritz residual ||R X - X Theta||_F over the Ritz gap
#: theta_K - theta_{K+1}, the Davis-Kahan bound on the sine of the angle to
#: the signal subspace with Ritz value K+1 standing in for lambda_{L-K}, is
#: at most SUBSPACE_TOL.  Near a peak the spectrum's relative error is
#: about 2 sqrt(L / f) times that angle, with f >= GUARD_FACTOR * L^2 * eps
#: above the guard, so at most 2e-9 wherever the iteration runs (L >= 54).
SUBSPACE_TOL = 1e-12
#: Either eigensolver is exact only for a matrix within a small multiple of
#: u = L * eps * lambda_max of its input, so a gap g determines E_s only to
#: about u / g (Davis-Kahan).  Where the noise floor or the signal/noise gap
#: is within ROUNDING_MARGIN units u, the complex eigh decides: such a gap
#: leaves E_s undetermined at the 1e-8 level, and such a floor is rounding
#: noise, as on noiseless input (at most 0.07 units on criterion 07's
#: inputs), whose exact grid-point nulls then stay as they were.  Noisy
#: SAULAs(32) inputs clear it 40-fold (floor) and 60000-fold (gap).
ROUNDING_MARGIN = 1e8


class Subspace(NamedTuple):
    """What ``signal_subspace`` found: E_s (L x K), the eigenvalues it
    knows, and E_n (L x (L-K)) when the complex eigh supplied it."""

    signal: np.ndarray
    values: np.ndarray
    noise: np.ndarray | None = None


def _ritz_subspace(r: np.ndarray, num_sources: int) -> Subspace | None:
    """The K Ritz vectors and the K + OVERSAMPLE Ritz values, both in
    ascending order, from subspace iteration on a fixed start block; None
    when it has not converged within MAX_ITERATIONS or the floor or gap is
    within rounding (see ROUNDING_MARGIN)."""
    length = r.shape[0]
    start = np.random.default_rng(0).standard_normal((length, num_sources + OVERSAMPLE))
    basis = np.linalg.qr(r @ start)[0]
    for _ in range(MAX_ITERATIONS):
        image = r @ basis
        values, w = np.linalg.eigh(basis.conj().T @ image)
        w = w[:, -num_sources:]
        vectors = basis @ w
        residual = np.linalg.norm(image @ w - vectors * values[-num_sources:])
        floor = values[-num_sources - 1]
        gap = values[-num_sources] - floor
        if residual <= SUBSPACE_TOL * gap:
            unit = length * np.finfo(float).eps * values[-1]
            if min(floor, gap) > ROUNDING_MARGIN * unit:
                return Subspace(vectors, values)
            return None
        basis = np.linalg.qr(image)[0]
    return None


def signal_subspace(r_ss: np.ndarray, num_sources: int) -> Subspace:
    """E_s, the num_sources principal eigenvectors of r_ss as an L x K
    matrix in ascending eigenvalue order, and the eigenvalues the solver
    knows, ascending.

    Block subspace iteration with Rayleigh-Ritz on K + OVERSAMPLE vectors
    from a fixed start block finds E_s in O(L^2 (K + OVERSAMPLE)) per
    iteration; the values are then its K + OVERSAMPLE Ritz values.  It
    stops once the Davis-Kahan bound on the subspace error is at most
    SUBSPACE_TOL.  The complex eigh of r_ss, with all L eigenvalues and
    E_n, serves instead when L < SIZE_RATIO * (K + OVERSAMPLE), when the
    iteration has not converged within MAX_ITERATIONS, and when the noise
    floor or the gap is within rounding (see ROUNDING_MARGIN).
    """
    r_ss = _check_hermitian(r_ss)
    length = r_ss.shape[0]
    if num_sources >= length:
        raise ValueError(
            f"insufficient uDOFs: {num_sources} sources need a smoothed "
            f"subarray longer than {num_sources}, got {length}"
        )
    if length >= SIZE_RATIO * (num_sources + OVERSAMPLE):
        found = _ritz_subspace(r_ss, num_sources)
        if found is not None:
            return found
    values, vectors = np.linalg.eigh(r_ss)
    split = length - num_sources
    return Subspace(vectors[:, split:], values, vectors[:, :split])


#: The polynomial's absolute rounding error is of order L^2 * eps: Horner's
#: rule takes L steps with |z| = 1 over coefficients c_0 = L - K and
#: |c_d| <= K for d >= 1 (a unit vector's autocorrelation is at most 1), and
#: z^d carries a phase error of about d * eps.  On random and rank-K
#: noiseless matrices (L 20-575, K 1-55) the error stayed below
#: 0.7 * L^2 * eps.  Near a true DOA the exact value falls to 1e-26 or less,
#: where the polynomial returns rounding noise of either sign, so values
#: below GUARD_FACTOR * L^2 * eps are recomputed directly (see
#: ``music_spectrum``).
#: Above that bound the relative error is below 1 / GUARD_FACTOR = 1e-8, far
#: inside the 1e-5 dB to which spectra are compared.
GUARD_FACTOR = 1e8


def _steering(length: int, angles: np.ndarray) -> np.ndarray:
    k = np.arange(length)
    return np.exp(-1j * np.pi * k[:, None] * np.sin(np.deg2rad(angles))[None, :])


def _null_spectrum_residual(signal: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """||a(theta) - E_s E_s^H a(theta)||^2 as the squared norm of the
    residual vector, O(L * K) per angle.  The difference of squares
    ||a||^2 - ||E_s^H a||^2 would cancel to rounding noise near a null."""
    a = _steering(signal.shape[0], angles)
    a -= signal @ (signal.conj().T @ a)
    return np.sum(a.real**2 + a.imag**2, axis=0)


def _null_spectrum_direct(noise: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """||E_n^H a(theta)||^2 by projecting each steering vector onto the noise
    eigenvectors (the columns of ``noise``): O(L * (L-K)) per angle."""
    return np.sum(np.abs(noise.conj().T @ _steering(noise.shape[0], angles)) ** 2, axis=0)


def music_spectrum(
    r_ss: np.ndarray, config: MusicConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Noise-subspace pseudo-spectrum P(theta) = 1 / ||E_n^H a(theta)||^2.

    a(theta) is the steering vector of the length-L contiguous virtual ULA at
    half-wavelength pitch.  Returns (grid angles in degrees, spectrum values).

    Only the K signal eigenvectors E_s are needed (see ``signal_subspace``).
    The denominator a^H P a, with P = E_n E_n^H = I - E_s E_s^H, is the
    trigonometric polynomial f(z) = c_0 + 2 Re sum_{d>=1} c_d z^d in
    z = exp(j pi sin theta) that Root-MUSIC roots; c_d is the sum of the
    d-th subdiagonal of P.  The c_d come from the autocorrelations of the K
    signal eigenvectors (one zero-padded FFT), and f is evaluated on the
    grid by Horner's rule, so no L x G steering matrix is formed.  Grid
    points where f falls below the rounding bound (see GUARD_FACTOR), which
    occur only next to a near-exact null, are recomputed as the residual
    ||a - E_s E_s^H a||^2, or as ||E_n^H a||^2 when the complex eigh
    supplied E_n.  On noiseless input two adjacent grid points can both be
    exact nulls, and rounding noise decides which is the peak; projecting
    onto E_n keeps that choice as it was before the K-vector solver.
    """
    subspace = signal_subspace(r_ss, config.num_sources)
    signal = subspace.signal
    length = signal.shape[0]
    spectra = np.fft.fft(signal, n=2 * length, axis=0)
    autocorr = np.fft.ifft(np.sum(spectra.real**2 + spectra.imag**2, axis=1))
    coeffs = -autocorr[:length]
    coeffs[0] += length

    angles = config.grid
    z = np.exp(1j * np.pi * np.sin(np.deg2rad(angles)))
    tail = np.full(angles.shape, coeffs[-1])
    for c in coeffs[-2:0:-1]:
        tail *= z
        tail += c
    tail *= z
    denom = coeffs[0].real + 2.0 * tail.real

    low = denom < GUARD_FACTOR * length**2 * np.finfo(float).eps
    if low.any():
        # An exact null can round to 0; the floor keeps the spectrum finite.
        if subspace.noise is None:
            exact = _null_spectrum_residual(signal, angles[low])
        else:
            exact = _null_spectrum_direct(subspace.noise, angles[low])
        denom[low] = np.maximum(exact, np.finfo(float).tiny)
    return angles, 1.0 / denom


def pick_peaks(
    angles: np.ndarray, spectrum: np.ndarray, num_sources: int
) -> tuple[np.ndarray, bool]:
    """Locate the num_sources largest strict local maxima.

    Returns (estimates sorted ascending by angle, under_detected flag).  Ties
    in peak height resolve toward the lower angle; grid endpoints are never
    peaks.  If fewer maxima exist than requested, all of them are returned
    and the flag is set.  A flat top of two or more equal samples is not a
    strict maximum, so it yields no peak.
    """
    spectrum = np.asarray(spectrum)
    interior = (spectrum[1:-1] > spectrum[:-2]) & (spectrum[1:-1] > spectrum[2:])
    idx = np.nonzero(interior)[0] + 1
    if idx.size == 0:
        return np.array([]), True
    order = np.lexsort((angles[idx], -spectrum[idx]))
    chosen = idx[order[:num_sources]]
    estimates = np.sort(angles[chosen])
    return estimates, chosen.size < num_sources


def rmse(
    estimates_per_trial: Sequence[Sequence[float]],
    true_angles_deg: Sequence[float],
    error_cap_deg: float = 90.0,
) -> float:
    """Root mean squared error over trials with sorted-order matching.

    Every under-detected trial charges the cap for each of its sources, so
    missed detections cannot shrink the average.
    """
    truth = np.sort(np.asarray(true_angles_deg, dtype=float))
    z = truth.size
    if z == 0:
        raise ValueError("need at least one true angle")
    if len(estimates_per_trial) == 0:
        raise ValueError("need at least one trial")
    total = 0.0
    for est in estimates_per_trial:
        est = np.sort(np.asarray(est, dtype=float))
        if est.size == z:
            total += float(np.sum((est - truth) ** 2))
        else:
            total += z * error_cap_deg**2
    return float(np.sqrt(total / (len(estimates_per_trial) * z)))


@dataclass(frozen=True)
class EstimationResult:
    """Outcome of one simulate -> covariance -> smooth -> MUSIC pass."""

    angles: np.ndarray
    spectrum: np.ndarray
    estimates: np.ndarray
    under_detected: bool
    per_source_error: np.ndarray
    rmse_deg: float


@dataclass(frozen=True)
class MonteCarloResult:
    """Aggregate over independent trials of the same scenario."""

    rmse_deg: float
    detection_rate: float
    trials: int
    estimates_per_trial: tuple[tuple[float, ...], ...]
    insufficient_dofs: bool = False

    def to_dict(self) -> dict:
        return {
            "rmse_deg": self.rmse_deg,
            "detection_rate": self.detection_rate,
            "trials": self.trials,
            "insufficient_dofs": self.insufficient_dofs,
            "estimates_per_trial": [list(e) for e in self.estimates_per_trial],
        }


def _errors_against_truth(
    estimates: np.ndarray, truth: np.ndarray, cap: float
) -> np.ndarray:
    if estimates.size == truth.size:
        return np.abs(np.sort(estimates) - np.sort(truth))
    return np.full(truth.size, cap)


def estimate_doas(
    array: SensorArray,
    scenario: Scenario,
    config: MusicConfig,
    coupling: CouplingModel | None = None,
    trial: int = 0,
) -> EstimationResult:
    """Run the full single-trial pipeline and score it against the scenario."""
    x = simulate_snapshots(array, scenario, coupling=coupling, trial=trial)
    return estimate_from_snapshots(x, array, scenario, config)


def estimate_from_snapshots(
    x: np.ndarray, array: SensorArray, scenario: Scenario, config: MusicConfig
) -> EstimationResult:
    """The single-trial pipeline after simulation: covariance, virtual
    observation, smoothing, MUSIC and scoring of the snapshots ``x``."""
    ec = extended_covariance(x)
    v = virtual_observation(ec, array)
    r_ss = spatial_smoothing(v, config.smoothing_length)
    angles, spectrum = music_spectrum(r_ss, config)
    estimates, under = pick_peaks(angles, spectrum, config.num_sources)
    truth = np.sort(np.asarray(scenario.angles_deg))
    errors = _errors_against_truth(estimates, truth, config.error_cap_deg)
    return EstimationResult(
        angles=angles,
        spectrum=spectrum,
        estimates=estimates,
        under_detected=under,
        per_source_error=errors,
        rmse_deg=float(np.sqrt(np.mean(errors**2))),
    )


def required_subarray_length(array: SensorArray, config: MusicConfig) -> int:
    udofs, _ = coarray.contiguous_stats(coarray.sum_difference_coarray(array))
    m = (udofs - 1) // 2
    return m + 1 if config.smoothing_length is None else config.smoothing_length


def monte_carlo(
    array: SensorArray,
    scenario: Scenario,
    config: MusicConfig,
    trials: int,
    coupling: CouplingModel | None = None,
) -> MonteCarloResult:
    """Repeat the single-trial pipeline with independent per-trial streams.

    A geometry whose smoothed subarray cannot support the requested source
    count does not abort the comparison: every trial is recorded as fully
    under-detected (capped errors, zero detections) so aggregate RMSE remains
    comparable across geometries.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if required_subarray_length(array, config) <= config.num_sources:
        per_trial = tuple(() for _ in range(trials))
        return MonteCarloResult(
            rmse_deg=config.error_cap_deg,
            detection_rate=0.0,
            trials=trials,
            estimates_per_trial=per_trial,
            insufficient_dofs=True,
        )
    results = (
        estimate_doas(array, scenario, config, coupling=coupling, trial=t)
        for t in range(trials)
    )
    return aggregate_trials(results, scenario, config)


def aggregate_trials(
    results: Iterable[EstimationResult], scenario: Scenario, config: MusicConfig
) -> MonteCarloResult:
    """RMSE, detection rate and per-trial estimates over single-trial
    results, in trial order."""
    estimates_per_trial = []
    detected = 0
    for result in results:
        estimates_per_trial.append(tuple(float(e) for e in result.estimates))
        detected += not result.under_detected
    trials = len(estimates_per_trial)
    return MonteCarloResult(
        rmse_deg=rmse(estimates_per_trial, scenario.angles_deg, config.error_cap_deg),
        detection_rate=detected / trials,
        trials=trials,
        estimates_per_trial=tuple(estimates_per_trial),
    )


def spectrum_to_csv(angles: np.ndarray, spectrum: np.ndarray) -> str:
    """CSV (angle_deg, power_db) with the peak normalized to 0 dB."""
    power_db = 10.0 * np.log10(spectrum / spectrum.max())
    interleaved = np.column_stack([angles, power_db]).ravel()
    return "angle_deg,power_db\n" + ("%.6f,%.6f\n" * angles.size) % tuple(interleaved.tolist())
