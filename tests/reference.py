"""The trial pipeline the slow, obvious way: the tests' one reference.

Each stage is its textbook form, with none of the shortcuts the library
takes:

- the complex snapshots X (N x T) of ``simulate_snapshots``;
- the dense covariance blocks R_s = X X^H / T and R_hat = X X^T / T;
- every entry of the extended covariance averaged per lag with np.unique,
  cut to the contiguous segment of the sum-difference co-array;
- the dense smoothed covariance R_ss, an L x L matrix;
- the complex eigh of R_ss;
- the null spectrum ||E_n^H a(theta)||^2 from an L x G steering matrix.

``trial_spectrum`` runs them in order for one trial, and each stage also
serves alone as the oracle of the fast stage it mirrors.  Beside them sit
the ensemble covariance a trial's sample covariance tends to, and the real
form of the smoothed covariance gathered by index matrices.
"""

from __future__ import annotations

import math

import numpy as np

from coarraylab import coarray, estimation, signal
from coarraylab.estimation import MusicConfig, Subspace
from coarraylab.signal import ExtendedCovariance, VirtualObservation


def covariances(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """R_s and R_hat as the two complex products X X^H / T and X X^T / T."""
    t = x.shape[1]
    return x @ x.conj().T / t, x @ x.T / t


def exact_extended_covariance(array, scenario, coupling=None) -> ExtendedCovariance:
    """Ensemble (infinite-snapshot) covariance blocks for a scenario:
    R_s = A diag(p) A^H + p_n I and R_hat = A diag(p e^{j 2 phi}) A^T with
    A the (possibly coupled) steering matrix, for a test that needs the
    model identities to hold to machine precision rather than within
    sampling error."""
    a = signal.source_steering(array, scenario, coupling)
    p = np.asarray(scenario.powers)
    phi = np.asarray(scenario.nc_phases)
    r_s = (a * p) @ a.conj().T + scenario.noise_power * np.eye(array.n)
    r_hat = (a * (p * np.exp(2j * phi))) @ a.T
    return ExtendedCovariance(r_s=r_s, r_hat=r_hat)


def r_so(ec: ExtendedCovariance) -> np.ndarray:
    """The 2N x 2N extended covariance [[R_s, R_hat], [R_hat*, R_s*]]."""
    return np.block([[ec.r_s, ec.r_hat], [np.conj(ec.r_hat), np.conj(ec.r_s)]])


def averaged_r_so(ec: ExtendedCovariance, array) -> tuple[np.ndarray, np.ndarray]:
    """Every distinct lag of r_so averaged with np.unique and np.add.at, cut
    to the contiguous segment [-m, m] of the sum-difference co-array: the
    segment's lags and the mean at each."""
    lags, inverse = np.unique(signal.extended_lag_matrix(array).ravel(), return_inverse=True)
    sums = np.zeros(lags.size, dtype=complex)
    np.add.at(sums, inverse, r_so(ec).ravel())
    means = sums / np.bincount(inverse, minlength=lags.size)
    udofs, _ = coarray.contiguous_stats(lags)
    half = (udofs - 1) // 2
    segment = np.arange(-half, half + 1)
    return segment, means[np.searchsorted(lags, segment)]


def window_product(v: VirtualObservation, length: int) -> np.ndarray:
    """The O(K L^2) definition of R_ss, (1/K) sum_i w_i w_i^H over the K
    windows w_i[k] = v(i - m + k) of length L, in long double (the x87
    80-bit format on x86-64)."""
    u = np.asarray(v.values, dtype=np.clongdouble)
    windows = np.lib.stride_tricks.sliding_window_view(u, length)
    return windows.T @ windows.conj() / windows.shape[0]


def real_form(u: np.ndarray, length: int) -> np.ndarray:
    """``estimation._real_form`` with its Toeplitz and Hankel parts gathered
    by the index matrices L - 1 + p - r and p + r."""
    windows = u.shape[-1] + 1 - length
    half, odd = divmod(length, 2)
    bottom = windows // 2
    top = bottom + odd
    rows = np.arange(top)[:, None]
    cols = np.arange(half + odd)
    toeplitz = rows - cols + (length - 1)
    hankel = rows + cols
    a, b = u.real, u.imag
    real = np.empty((*u.shape[:-1], windows, length))
    left, right = slice(None, half + odd), slice(half + odd, None)
    np.add(a[..., toeplitz], a[..., hankel], out=real[..., :top, left])
    np.subtract(b[..., hankel[:, :half]], b[..., toeplitz[:, :half]], out=real[..., :top, right])
    np.add(b[..., hankel[:bottom]], b[..., toeplitz[:bottom]], out=real[..., top:, left])
    np.subtract(a[..., toeplitz[:bottom, :half]], a[..., hankel[:bottom, :half]],
                out=real[..., top:, right])
    if odd:
        real[..., top - 1, :] /= math.sqrt(2)
        real[..., half] /= math.sqrt(2)
    return real


def spatial_smoothing(v: VirtualObservation, subarray_len: int | None = None) -> np.ndarray:
    """The dense R_ss of ``SmoothedCovariance``, after the same checks of
    the samples and the window length, for any samples, conjugate-symmetric
    or not: the sample covariance of the K windows taken as snapshots, one
    real syrk, so R_ss is exactly Hermitian."""
    u, length = estimation._smoothing_samples(v, subarray_len)
    return signal.extended_covariance(np.lib.stride_tricks.sliding_window_view(u, length).T).r_s


def subspace(r: np.ndarray, num_sources: int) -> Subspace:
    """E_s and all L eigenvalues, ascending, from the complex eigh of a
    dense Hermitian r."""
    values, vectors = np.linalg.eigh(r)
    return Subspace(vectors[:, r.shape[0] - num_sources :], values)


def nufft_spectrum(r: np.ndarray, config: MusicConfig) -> tuple[np.ndarray, np.ndarray]:
    """``music_spectrum``, guard included, on the E_s of the complex eigh of
    a dense Hermitian r: the library's spectrum search without its
    solvers."""
    return estimation.music_spectrum(None, config, subspace(r, config.num_sources))


def null_spectrum_direct(noise: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """||E_n^H a(theta)||^2 by projecting each steering vector onto the noise
    eigenvectors (the columns of ``noise``): O(L * (L-K)) per angle."""
    k = np.arange(noise.shape[0])
    a = np.exp(-1j * np.pi * k[:, None] * np.sin(np.deg2rad(angles))[None, :])
    return np.sum(np.abs(noise.conj().T @ a) ** 2, axis=0)


def trial_spectrum(array, scenario, config: MusicConfig, coupling=None, trial: int = 0):
    """One trial through every reference stage: the grid angles and the
    MUSIC spectrum 1 / ||E_n^H a||^2."""
    x = signal.simulate_snapshots(array, scenario, coupling=coupling, trial=trial)
    ec = ExtendedCovariance(*covariances(x))
    lags, values = averaged_r_so(ec, array)
    r_ss = spatial_smoothing(VirtualObservation(lags, values), config.smoothing_length)
    _, vectors = np.linalg.eigh(r_ss)
    noise = vectors[:, : r_ss.shape[0] - config.num_sources]
    return config.grid, 1.0 / null_spectrum_direct(noise, config.grid)
