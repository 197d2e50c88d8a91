"""Co-array MUSIC on the virtual observation, plus Monte-Carlo harnesses.

The virtual observation behaves like a single-snapshot measurement of a long
virtual ULA, so rank is restored by spatial smoothing before the usual
noise-subspace spectrum search.  Peak picking, sorted-order RMSE and the
trial loop live here too: ``trial_results`` runs the trials of a study in
blocks, for ``estimate_doas`` (a study of one), ``monte_carlo`` and the
``music`` CLI alike, so a "single run" and "trial 0 of a Monte Carlo" are
one path, with one model-order gate before any draw.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import nufft
from .coupling import CouplingModel
from .geometry import SensorArray
from .inputs import integer_field
from .signal import (
    ExtendedCovariance,
    LagPlan,
    Scenario,
    VirtualObservation,
    gram_covariance,
    lag_plan,
    planes_gram,
    simulate_snapshots,
    source_steering,
    virtual_observation,
)


#: The most search-grid points a MusicConfig takes: 2**20 points hold
#: 32 MiB of angles, NUFFT plan and spectrum (0.000172-degree pitch over 180).
MAX_GRID_POINTS = 1 << 20


@dataclass(frozen=True)
class MusicConfig:
    """Search-grid and model-order settings for the spectrum search.

    The grid spans the open interval (-90, 90) degrees; the default is a
    0.01-degree pitch (17999 points).  ``for_step`` builds a config from a
    pitch directly.  The grid and the NUFFT plan of ``music_spectrum``
    (see ``nufft_plan``) are computed on first use and kept on the config,
    so the trials of a study that share a config share them.
    """

    num_sources: int
    grid_start: float = -89.99
    grid_stop: float = 89.99
    grid_points: int = 17999
    smoothing_length: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "num_sources", integer_field(self.num_sources, "num_sources", 1))
        points = integer_field(self.grid_points, "grid_points", 2)
        if points > MAX_GRID_POINTS:
            raise ValueError(f"grid_points must be at most {MAX_GRID_POINTS}, got {points}")
        object.__setattr__(self, "grid_points", points)
        if self.smoothing_length is not None:
            length = integer_field(self.smoothing_length, "smoothing_length", 2)
            object.__setattr__(self, "smoothing_length", length)
        if not (-90.0 <= self.grid_start < self.grid_stop <= 90.0):
            raise ValueError("grid must satisfy -90 <= start < stop <= 90")

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

    @cached_property
    def grid(self) -> np.ndarray:
        """The search angles in degrees (read-only, computed once)."""
        grid = np.linspace(self.grid_start, self.grid_stop, self.grid_points)
        grid.flags.writeable = False
        return grid

    def nufft_plan(self, length: int) -> nufft.NufftPlan:
        """Where the grid points omega = pi sin theta sit on the FFT that
        evaluates a null polynomial of L coefficients (see ``nufft.plan``),
        read-only.  The config keeps the plan of the last FFT length N it
        was asked for, which every L with that N shares; a study runs one L,
        so its trials share one plan, and a config used at several N holds
        one plan at a time."""
        size = nufft.size_for(length)
        plan = self.__dict__.get("_plan")
        if plan is None or plan.size != size:
            # frozen: cached in the instance dict, as cached_property does
            plan = self.__dict__["_plan"] = nufft.plan(np.sin(np.deg2rad(self.grid)) / 2, size)
        return plan

    @property
    def grid_step(self) -> float:
        return (self.grid_stop - self.grid_start) / (self.grid_points - 1)

    @property
    def error_cap_deg(self) -> float:
        """Penalty charged per source in an under-detected trial: half the
        grid span."""
        return (self.grid_stop - self.grid_start) / 2.0


def _smoothing_samples(v: VirtualObservation, subarray_len: int | None) -> tuple[np.ndarray, int]:
    """The virtual samples u_j = v(j - m) and the window length L of a
    smoothing, after checking both; the samples must be finite, one per
    lag."""
    lags = np.asarray(v.lags)
    m = int(lags[-1])
    if lags[0] != -m or lags.size != 2 * m + 1:
        raise ValueError("virtual observation must cover a symmetric contiguous segment")
    length = m + 1 if subarray_len is None else integer_field(subarray_len, "subarray_len")
    if length < 2 or length > 2 * m + 1:
        raise ValueError(f"subarray length {length} not in [2, {2 * m + 1}]")
    u = np.asarray(v.values, dtype=complex)
    if u.shape != (lags.size,):
        raise ValueError(f"virtual observation needs {lags.size} samples, one per lag, "
                         f"got shape {u.shape}")
    if not np.isfinite(u).all():
        raise ValueError("virtual observation has non-finite samples")
    return u, length


class SmoothedCovariance:
    """The rank-restoring average of sliding windows over the virtual
    samples, as an operator.  With half-width m, window i (i = 0..K-1) is
    w_i[k] = v(i - m + k); the default window length L = m + 1 yields K = L
    windows and R_ss = (1/K) sum_i w_i w_i^H, an L x L Hermitian PSD matrix
    whose signal eigenvectors align with the length-L virtual steering
    vectors.  The samples must be conjugate-symmetric, v(-l) = conj v(l), as
    every ``virtual_observation`` is; the solvers take E_s from the
    operator's products or from its samples (see ``signal_subspace``), and
    never form the matrix.

    Its one product is M x for the real form M = Q^H R_ss Q (see
    ``_real_form``) and a real L x p block x, p even: the halves x_1, x_2
    of x ride on one complex column z = Q (x_1 + j x_2), and
    Q^H R_ss z = M x_1 + j M x_2.  With W the K x L Hankel window matrix
    W[i, k] = u_{i+k} of the 2m + 1 samples u_j = v(j - m),
    R_ss z = W^T (conj(W) z) / K (Liu & Vaidyanathan, IEEE SPL 2015), and
    as conj(u_j) = u_{2m-j} both factors are convolutions with u:
    (conj(W) z)_i = (u * z)_{2m-i} and (W^T y)_k = (u * reversed y)_{K-1+k},
    each one FFT product with the spectrum of u.  A circular length of at
    least 2m + 1, the smallest 2^a 3^b 5^c, keeps the wrap-around off every
    entry kept.  R_ss is Hermitian by construction, so only the samples
    are checked.  ``shape`` is (L, L).
    """

    def __init__(self, v: VirtualObservation, subarray_len: int | None = None):
        u, self.length = _smoothing_samples(v, subarray_len)
        if not np.array_equal(u, u[::-1].conj()):
            raise ValueError("virtual observation must be conjugate-symmetric, "
                             "v(-l) = conj v(l), as a virtual_observation is")
        self.samples = u
        self.windows = u.size - self.length + 1

    @cached_property
    def _spectrum(self) -> np.ndarray:
        """The FFT of u, taken at the first product, so a trial that goes
        straight to the real form takes none."""
        return np.fft.fft(self.samples, nufft.fft_length(self.samples.size))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.length, self.length)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """M x for a real L x p block x, p even, in O(p m log m) on p/2 x F
        buffers.  Q and Q^H are applied times sqrt2, and the 2 this leaves
        is divided out with K."""
        spectrum, length, windows = self._spectrum, self.length, self.windows
        half, odd = divmod(length, 2)
        low, mid, high = slice(half), slice(half, half + odd), slice(half + odd, length)
        pairs = x.shape[1] // 2
        x_1, x_2 = x.T[:pairs], x.T[pairs:]
        buf = np.zeros((pairs, spectrum.size), dtype=complex)
        # rows i and L-1-i of sqrt2 Q (x_1 + j x_2): (x_1 + j x_2)_i +- j (x_1 + j x_2)_{h+i}
        head, tail = buf[:, low], buf[:, high][:, ::-1]
        np.subtract(x_1[:, low], x_2[:, high], out=head.real)
        np.add(x_2[:, low], x_1[:, high], out=head.imag)
        np.add(x_1[:, low], x_2[:, high], out=tail.real)
        np.subtract(x_2[:, low], x_1[:, high], out=tail.imag)
        buf[:, mid] = (x_1[:, mid] + 1j * x_2[:, mid]) * math.sqrt(2)
        buf = np.fft.fft(buf)
        buf *= spectrum
        buf = np.fft.ifft(buf)
        # conj(W) z reversed is entries L-1 .. 2m of u * z
        buf = np.fft.fft(buf[:, length - 1 : self.samples.size], spectrum.size)
        buf *= spectrum
        buf = np.fft.ifft(buf)
        y = buf[:, windows - 1 : windows - 1 + length]
        y /= 2 * windows
        # rows i and h+i of sqrt2 Q^H y: y_i + y_{L-1-i} and j (y_{L-1-i} - y_i)
        both, diff = y[:, low] + y[:, high][:, ::-1], y[:, high][:, ::-1] - y[:, low]
        middle = y[:, mid] * math.sqrt(2)
        out = np.empty((x.shape[1], length))
        out[:pairs, low], out[pairs:, low] = both.real, both.imag
        out[:pairs, mid], out[pairs:, mid] = middle.real, middle.imag
        out[:pairs, high], out[pairs:, high] = -diff.imag, diff.real
        return out.T


#: The signal subspace comes from block subspace iteration with
#: Rayleigh-Ritz (Halko, Martinsson & Tropp, SIAM Review 2011; Saad,
#: Numerical Methods for Large Eigenvalue Problems, 2011) on K + OVERSAMPLE
#: vectors: the K-th Ritz vector converges at the rate
#: lambda_{K+OVERSAMPLE+1} / lambda_K per iteration.  With a flat noise
#: floor that rate barely depends on the oversampling, so 4 extra columns
#: serve: on 0 dB draws of 2 sources 0.5-0.8 degrees apart (L = 95, 159),
#: 4 sources (L = 575) and 12 sources (L = 2175) the iteration took
#: 0.2-0.5 more steps than on K + 8 columns, 4.5-6.5 in all, and never
#: gave up (see CHANGES.md).
OVERSAMPLE = 4
#: The iteration is tried only when L >= SIZE_RATIO * (K + SIZE_PAD).
#: Each product of a ``SmoothedCovariance`` has the fixed cost of four FFT
#: calls however small L is, while the eigh that serves below the
#: threshold grows as L^3.  That eigh is the real one of ``_real_subspaces``,
#: stacked over a block of TRIAL_BLOCK_BYTES (14 trials at L = 95, 3 at
#: L = 191, 1 from L = 257).  On K + OVERSAMPLE columns, per trial, the two
#: break even at L / (K + OVERSAMPLE) of (0 dB comb, 10 dB comb over +-60
#: degrees):
#:
#:     L = 59     above 11.8 (K = 1), above 11.8
#:     L = 95     11.8, 11
#:     L = 191    8.6, 7.7
#:     L = 383    8.5, 8.5
#:
#: a ratio that falls as L, and so K, grows.  8 (K + 8), the rule measured
#: on K + 8 columns, falls the same way: it asks L / (K + 4) >= 14.4 at
#: K = 1, 12 at K = 4, 10 at K = 12 and 9.3 at K = 20, so it stays just on
#: the real form's side of the table at every L in it, and the narrower
#: block moved no shape off its route.
SIZE_RATIO = 8
SIZE_PAD = 8
#: Iterations before the real form takes over.
MAX_ITERATIONS = 20
#: Converged when the Ritz residual ||R X - X Theta||_F over the Ritz gap
#: theta_K - theta_{K+1}, the Davis-Kahan bound on the sine of the angle to
#: the signal subspace with Ritz value K+1 standing in for lambda_{L-K}, is
#: at most SUBSPACE_TOL.  Near a peak the spectrum's relative error is
#: about 2 sqrt(L / f) times that angle, with f >= GUARD_FACTOR * L^2 * eps
#: above the guard, so at most 2e-9 wherever the iteration runs (L >= 72).
SUBSPACE_TOL = 1e-12


class Subspace(NamedTuple):
    """What ``signal_subspace`` found: E_s (L x K) and the eigenvalues it
    knows, ascending."""

    signal: np.ndarray
    values: np.ndarray


def _real_form(u: np.ndarray, length: int) -> np.ndarray:
    """The real K x L matrix Y = Q_K^H W Q_L J of the window matrix
    W[i, k] = u_{i+k} of 2m + 1 conjugate-symmetric samples
    (u_{2m-j} = conj(u_j)), with K = 2m + 2 - L, Q the unitary of
    ``_from_real_basis`` and J = diag(I, -I) with ceil(L / 2) and
    floor(L / 2) entries.

    W is centro-Hermitian, Pi_K conj(W) Pi_L = W for the exchange matrices
    Pi, so Y is real (Lee, Linear Algebra Appl. 1980; Huarng & Yeh, IEEE
    TSP 1991), and Q_L^H R_ss Q_L = Y^T Y / K for R_ss = W^T conj(W) / K.
    K + L is even, so K and L have the same parity.  With a = Re u,
    b = Im u, rows p over the halves ceil(K / 2), floor(K / 2) of K and
    columns r over those of L, each block is a Toeplitz part plus or minus
    a Hankel part gathered from the samples: Y = [[P, C], [D, N]] with
    P[p, r] = s_p s_r (a_{L-1+p-r} + a_{p+r}),
    C[p, r] = s_p (b_{p+r} - b_{L-1+p-r}),
    D[p, r] = s_r (b_{p+r} + b_{L-1+p-r}) and
    N[p, r] = a_{L-1+p-r} - a_{p+r},
    where s_p = 1 except 1 / sqrt2 at the middle index, p = floor(K / 2)
    for rows and floor(L / 2) for columns, when K and L are odd.  At K = L,
    Y is the real form Q^H T Q of the Hermitian Toeplitz
    T[i, k] = u_{m+i-k}, since W = T Pi and Pi Q = Q J.  Samples stacked on
    leading axes give their Y stacked the same way.
    """
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


def _from_real_basis(w: np.ndarray) -> np.ndarray:
    """Q w for the unitary Q = [[I, 0, jI], [0, sqrt2, 0], [Pi, 0, -jPi]] / sqrt2
    (middle row and column only for odd L) and a real w: rows i and L-1-i
    of Q w are (w_i +- j w_{h+i}) / sqrt2, with h = ceil(L / 2), so Q w is
    conjugate-centrosymmetric, Pi conj(Q w) = Q w."""
    half, odd = divmod(w.shape[0], 2)
    head = (w[:half] + 1j * w[half + odd :]) / math.sqrt(2)
    return np.concatenate([head, w[half : half + odd], head[::-1].conj()])


@lru_cache(maxsize=4)
def _start_block(length: int, width: int) -> np.ndarray:
    """The fixed real L x p start block of ``_ritz_subspace``, built once
    per shape and read-only; the last four shapes are kept."""
    start = np.random.default_rng(0).standard_normal((length, width))
    start.flags.writeable = False
    return start


def _ritz_subspace(r: SmoothedCovariance, num_sources: int) -> Subspace | None:
    """E_s and the top K + OVERSAMPLE Ritz values, both in ascending order,
    from subspace iteration on M = Q^H R_ss Q, the product of
    ``SmoothedCovariance``, in real coordinates: real QRs, a real
    Rayleigh-Ritz eigh, and E_s = Q V for the K Ritz vectors V.  The block
    has K + OVERSAMPLE columns rounded up to even, from a fixed real start
    block; None when it has not converged within MAX_ITERATIONS, as when
    the gap is within rounding.
    Q is unitary, so residual, gap and angles are those of R_ss."""
    width = num_sources + OVERSAMPLE
    basis = np.linalg.qr(r @ _start_block(r.length, width + width % 2))[0]
    for _ in range(MAX_ITERATIONS):
        image = r @ basis
        values, w = np.linalg.eigh(basis.T @ image)
        w = w[:, -num_sources:]
        vectors = basis @ w
        # both over the top Ritz value, so the norm cannot overflow
        scale = abs(values[-1]) or 1.0
        residual = np.linalg.norm((image @ w - vectors * values[-num_sources:]) / scale)
        gap = (values[-num_sources] - values[-num_sources - 1]) / scale
        if residual <= SUBSPACE_TOL * gap:
            return Subspace(_from_real_basis(vectors), values[-width:])
        basis = np.linalg.qr(image)[0]
    return None


def _real_subspaces(ops: Sequence[SmoothedCovariance], num_sources: int) -> Iterator[Subspace]:
    """E_s and all L eigenvalues, ascending, of the R_ss of each operator
    of a block of one shape, from one real eigh over the stack of their
    real forms Y^T Y / K (see ``_real_form``), each Y gathered in O(K L)
    from its conjugate-symmetric samples.  The stacked product forms each
    slot's Y^T Y as one syrk and LAPACK solves a stack one matrix at a time,
    so each operator's subspace has the bytes it has when solved alone.
    The eigh runs at the call; each E_s is formed when it is asked for."""
    y = _real_form(np.stack([op.samples for op in ops]), ops[0].length)
    forms = np.matmul(y.swapaxes(-1, -2), y)
    del y  # gone before the eigh, which holds the stack twice
    forms /= ops[0].windows
    values, w = np.linalg.eigh(forms)
    return (Subspace(_from_real_basis(vectors[:, -num_sources:]), trial_values)
            for trial_values, vectors in zip(values, w))


class InsufficientDofs(ValueError):
    """The smoothed subarray is too short for the source count: L <= K."""


def _check_model_order(num_sources: int, length: int, windows: int) -> None:
    """The one model-order gate, run by each entry before any work: K
    sources need a window length L > K (else ``InsufficientDofs``) and at
    least K windows; with fewer, R_ss has rank below K and E_s is
    arbitrary."""
    if num_sources >= length:
        raise InsufficientDofs(
            f"insufficient uDOFs: {num_sources} sources need a smoothed "
            f"subarray longer than {num_sources}, got {length}"
        )
    if windows < num_sources:
        raise ValueError(
            f"smoothing length L = {length} leaves a window count of {max(windows, 0)}, "
            f"below the {num_sources} sources: R_ss would have rank below {num_sources}"
        )


def _operator_subspaces(
    ops: Sequence[SmoothedCovariance], num_sources: int
) -> Iterator[Subspace]:
    """The ``signal_subspace`` of each operator of a block of one shape, in
    order.  From L >= SIZE_RATIO * (K + SIZE_PAD) each trial is solved on
    its own when it is asked for, by its iteration or, where that gives up,
    by its own real form; below it the block's real forms go through one
    stacked eigh at the call.  The caller has checked the model order."""
    if ops[0].length < SIZE_RATIO * (num_sources + SIZE_PAD):
        return _real_subspaces(ops, num_sources)
    # a Subspace is a non-empty tuple, so only a None from the iteration falls back
    return (_ritz_subspace(op, num_sources) or next(_real_subspaces([op], num_sources))
            for op in ops)


def signal_subspace(r_ss: SmoothedCovariance, num_sources: int) -> Subspace:
    """E_s, the num_sources principal eigenvectors of R_ss as an L x K
    matrix in ascending eigenvalue order, and the eigenvalues the solver
    knows, ascending.  The model order is checked first (``InsufficientDofs``
    for L <= K, a ValueError for fewer than K windows); the operator is then
    solved as a block of one (see ``_operator_subspaces``), by the first of
    two solvers that serves:

    - From L >= SIZE_RATIO * (K + SIZE_PAD): block subspace
      iteration with Rayleigh-Ritz on K + OVERSAMPLE real vectors (rounded
      up to even) from a fixed start block, in the real coordinates of the
      real form, finds E_s from the operator's real products r_ss @ X
      alone, O(L log L) per pair of columns (see ``_ritz_subspace``).
      The values are then its top K + OVERSAMPLE Ritz values.  It stops
      once the Davis-Kahan bound on the subspace error is at most
      SUBSPACE_TOL, and gives up after MAX_ITERATIONS, as it does when the
      gap is within rounding.
    - Otherwise, and where the iteration gives up: one real eigh of the
      L x L real form of R_ss, gathered from the samples at any window
      length (see ``_real_subspaces``); the values are all L eigenvalues.
    """
    num_sources = integer_field(num_sources, "num_sources", 1)
    _check_model_order(num_sources, r_ss.length, r_ss.windows)
    return next(_operator_subspaces([r_ss], num_sources))


#: The null polynomial f = sum_{|d|<L} h_d e^{j d omega} of ``music_spectrum``
#: has h_0 = c_0 = L - K and sum_{d>=1} |c_d| <= K (L - 1) / 2 (the
#: autocorrelations of a unit vector e at d >= 1 add up to at most
#: (||e||_1^2 - 1) / 2), so ||h||_1 = |c_0| + 2 sum_{d>=1} |c_d| <= L^2.
#: ``nufft.evaluate`` takes it with an absolute error of at most
#: nufft.ERROR_BOUND * ||h||_1 * eps <= 10 L^2 eps: the kernel's aliasing
#: (4e-16 of ||h||_1), the kernel's polynomial fit (3.1e-15 per piece) and
#: the FFT's rounding on deconvolved bins (see ``nufft``).  Against a
#: long-double Horner it was at most 4.9 ||h||_1 eps on 3000 draws like the
#: tests', 1.1 L^2 eps at L = 2 and 0.002-0.05 L^2 eps from L = 95 up.
#: Near a true DOA the exact value falls to 1e-26 or less, where the
#: evaluation returns rounding noise of either sign, so values below
#: GUARD_FACTOR * L^2 * eps are recomputed directly (see
#: ``music_spectrum``).  Above that bound the relative error is below
#: nufft.ERROR_BOUND / GUARD_FACTOR = 1e-7, far inside the 1e-5 dB to which
#: spectra are compared.
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


def _null_coefficients(signal: np.ndarray) -> np.ndarray:
    """c_0 .. c_{L-1} of the null polynomial of E_s (see ``music_spectrum``):
    c_d = [d == 0] L - sum_k sum_j e_k[j + d] conj(e_k[j]), the
    autocorrelations of the K columns of E_s from one zero-padded FFT of
    the smallest 2^a 3^b 5^c length at least 2L - 1, so no lag wraps."""
    length = signal.shape[0]
    spectra = np.fft.fft(signal, n=nufft.fft_length(2 * length - 1), axis=0)
    autocorr = np.fft.ifft(np.sum(spectra.real**2 + spectra.imag**2, axis=1))
    coeffs = -autocorr[:length]
    coeffs[0] += length
    return coeffs


def music_spectrum(
    r_ss: SmoothedCovariance, config: MusicConfig, subspace: Subspace | None = None
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
    whole grid by a type-2 NUFFT (see ``nufft``): one real FFT of
    N >= 2 (2L - 1) points and nufft.KERNEL_TERMS Horner steps over the
    grid, O(L log L + G P) for G grid points, so no L x G steering matrix
    is formed.  Its plan, each grid point's first bin and offset, is O(G)
    and kept on the config (see ``MusicConfig.nufft_plan``).  The tests
    hold it against the blocked baby-step, giant-step evaluation it
    replaced and against a long-double Horner.  Grid points
    where f falls below the rounding bound (see GUARD_FACTOR), which occur
    only next to a near-exact null, are recomputed as the residual
    ||a - E_s E_s^H a||^2, whichever solver found E_s.

    ``subspace`` is the ``signal_subspace`` of r_ss when the caller has
    solved it already, as a block of trials does in one stacked eigh; r_ss
    is read only when it is None.
    """
    if subspace is None:
        subspace = signal_subspace(r_ss, config.num_sources)
    signal = subspace.signal
    length = signal.shape[0]
    angles = config.grid
    denom = nufft.evaluate(_null_coefficients(signal), config.nufft_plan(length))

    low = denom < GUARD_FACTOR * length**2 * np.finfo(float).eps
    if low.any():
        # An exact null can round to 0; the floor keeps the spectrum finite.
        exact = _null_spectrum_residual(signal, angles[low])
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
    num_sources = integer_field(num_sources, "num_sources", 1)
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
    """Root mean squared error over trials of raw estimates: each trial is
    scored by ``_errors_against_truth``, so a trial whose estimate count
    differs from the truth's charges the cap on every source and missed
    detections cannot shrink the average, and the errors are pooled by
    ``_root_mean_square``, as a study pools its trials'."""
    truth = np.sort(np.asarray(true_angles_deg, dtype=float))
    if truth.size == 0:
        raise ValueError("need at least one true angle")
    return _root_mean_square([_errors_against_truth(np.asarray(e, float), truth, error_cap_deg)
                              for e in estimates_per_trial])


def _errors_against_truth(estimates: np.ndarray, truth: np.ndarray, cap: float) -> np.ndarray:
    """The one scoring rule: the per-source errors of one trial's estimates
    against the truth, which is given sorted ascending.  The estimates are
    matched to it in sorted order; when the counts differ, every source is
    charged the cap."""
    if estimates.size == truth.size:
        return np.abs(np.sort(estimates) - truth)
    return np.full(truth.size, cap)


def _root_mean_square(errors_per_trial: Sequence[np.ndarray]) -> float:
    """The one pooling of trials scored against one truth: their squared
    per-source errors summed trial by trial, in trial order, over the count
    of errors.  No trials is a ValueError."""
    if len(errors_per_trial) == 0:
        raise ValueError("need at least one trial")
    total = 0.0
    for errors in errors_per_trial:
        total += float(np.sum(errors**2))
    return math.sqrt(total / (len(errors_per_trial) * errors_per_trial[0].size))


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


def estimate_doas(
    array: SensorArray,
    scenario: Scenario,
    config: MusicConfig,
    coupling: CouplingModel | None = None,
    trial: int = 0,
) -> EstimationResult:
    """Run the full single-trial pipeline and score it against the scenario:
    a study of the one trial ``trial`` (see ``trial_results``), so it is
    refused by the same gate before its draw and estimated as a block of
    one."""
    return next(trial_results(array, scenario, config, 1, coupling, start=trial))


def _estimate_block(
    ec: ExtendedCovariance, plan: LagPlan, scenario: Scenario, config: MusicConfig
) -> Iterator[EstimationResult]:
    """The trial pipeline after the covariance for one trial, or for a
    block of trials stacked on a leading axis, lazily in trial order.  The
    virtual observations and the eigen step run once for the whole block
    (see ``_operator_subspaces``); each trial then finishes on its own,
    spectrum, peaks and score, when its result is asked for, so one
    spectrum is alive at a time."""
    v = virtual_observation(ec, plan)
    ops = [SmoothedCovariance(VirtualObservation(v.lags, values), config.smoothing_length)
           for values in v.values.reshape(-1, v.lags.size)]
    truth = np.sort(np.asarray(scenario.angles_deg))
    for op, subspace in zip(ops, _operator_subspaces(ops, config.num_sources)):
        angles, spectrum = music_spectrum(op, config, subspace)
        estimates, under = pick_peaks(angles, spectrum, config.num_sources)
        errors = _errors_against_truth(estimates, truth, config.error_cap_deg)
        yield EstimationResult(
            angles=angles,
            spectrum=spectrum,
            estimates=estimates,
            under_detected=under,
            per_source_error=errors,
            rmse_deg=_root_mean_square([errors]),
        )


def required_subarray_length(plan: LagPlan, config: MusicConfig) -> int:
    """The smoothing subarray length L a run uses: the config's, or m + 1
    read off the array's ``lag_plan``."""
    return config.smoothing_length or plan.default_length


#: The bytes each per-trial stack of a block of ``trial_results`` may
#: take: a block holds as many trials as fit this budget in the largest of
#: its stacks, the real forms Y (K x L) or M = Y^T Y / K and its
#: eigenvectors (L x L) or the Gram matrices and covariance blocks
#: (4 N^2 values), so 14 trials at L = 95 and 3 at K x L = 1082 x 32.
TRIAL_BLOCK_BYTES = 1 << 20


def _block_size(plan: LagPlan, config: MusicConfig) -> int:
    """Trials per block: TRIAL_BLOCK_BYTES over the bytes of one trial's
    largest stack, at least 1."""
    length = required_subarray_length(plan, config)
    windows = 2 * plan.half_width + 2 - length
    largest = 8 * max(windows * length, length * length, 4 * len(plan.positions) ** 2)
    return max(1, TRIAL_BLOCK_BYTES // largest)


def trial_results(
    array: SensorArray,
    scenario: Scenario,
    config: MusicConfig,
    trials: int,
    coupling: CouplingModel | None = None,
    first_planes: Callable[[np.ndarray], object] | None = None,
    start: int = 0,
) -> Iterator[EstimationResult]:
    """The trial loop of a study, and of ``estimate_doas`` as a study of
    one: the results of trials start .. start + trials - 1, lazily and in
    order.  At the call, before any draw, it checks the trial numbers,
    builds the array's ``lag_plan`` once and runs the one model-order gate:
    a smoothed subarray too short for the source count raises
    ``InsufficientDofs``, and an explicit smoothing length that leaves
    fewer windows than sources a ValueError.  It then builds the coupled
    steering matrix once, and the trials run in blocks of ``_block_size``.
    Each trial is drawn as the real planes [Re X; Im X] (2N x T) of
    ``simulate_snapshots`` and reduced at once to its ``planes_gram``, so
    no complex X is formed and its planes are gone before the next draw;
    the block's Grams then go through the rest of the pipeline together
    (see ``_estimate_block``).  Every result is byte for byte the one its
    trial gives alone.

    ``first_planes``, when given, is called with trial ``start``'s planes
    once their Gram has passed its check, as the ``music`` CLI writes its
    snapshot dump."""
    trials = integer_field(trials, "trials", 1)
    start = integer_field(start, "trial", 0)
    plan = lag_plan(array)
    length = required_subarray_length(plan, config)
    _check_model_order(config.num_sources, length, 2 * plan.half_width + 2 - length)
    steering = source_steering(array, scenario, coupling)
    size, stop = _block_size(plan, config), start + trials

    def gram(t: int) -> np.ndarray:
        planes = simulate_snapshots(array, scenario, trial=t, steering=steering, planes=True)
        checked = planes_gram(planes)
        if t == start and first_planes is not None:
            first_planes(planes)
        return checked

    def block(top: int) -> Iterator[EstimationResult]:
        grams = np.stack([gram(t) for t in range(top, min(top + size, stop))])
        return _estimate_block(gram_covariance(grams), plan, scenario, config)

    return itertools.chain.from_iterable(map(block, range(start, stop, size)))


def monte_carlo(
    array: SensorArray,
    scenario: Scenario,
    config: MusicConfig,
    trials: int,
    coupling: CouplingModel | None = None,
) -> MonteCarloResult:
    """Repeat the single-trial pipeline with independent per-trial streams:
    ``aggregate_trials`` over ``trial_results``, so each trial is matched
    to the truth once, as it finishes, and the study pools the errors its
    results carry.

    A geometry whose smoothed subarray cannot support the requested source
    count, which ``trial_results`` refuses with ``InsufficientDofs`` before
    any draw, does not abort the comparison: every trial is recorded as
    fully under-detected (capped errors, zero detections) so aggregate RMSE
    remains comparable across geometries.  Fewer windows than sources is
    still an error.
    """
    try:
        results = trial_results(array, scenario, config, trials, coupling)
    except InsufficientDofs:
        trials = int(trials)  # trial_results has checked that it is integral
        return MonteCarloResult(
            rmse_deg=config.error_cap_deg,
            detection_rate=0.0,
            trials=trials,
            estimates_per_trial=((),) * trials,
            insufficient_dofs=True,
        )
    return aggregate_trials(results)


def aggregate_trials(results: Iterable[EstimationResult]) -> MonteCarloResult:
    """RMSE, detection rate and per-trial estimates over single-trial
    results, in trial order.  The RMSE pools the ``per_source_error`` each
    result already carries, so no trial is matched to the truth again; no
    results is a ValueError."""
    estimates_per_trial, errors_per_trial, detected = [], [], 0
    for result in results:
        estimates_per_trial.append(tuple(float(e) for e in result.estimates))
        errors_per_trial.append(result.per_source_error)
        detected += not result.under_detected
    rmse_deg = _root_mean_square(errors_per_trial)
    trials = len(errors_per_trial)
    return MonteCarloResult(
        rmse_deg=rmse_deg,
        detection_rate=detected / trials,
        trials=trials,
        estimates_per_trial=tuple(estimates_per_trial),
    )


#: "%03d" of 0..999 as little-endian words: three ASCII digits, then NUL.
_DIGIT_GROUPS = np.array([int.from_bytes(b"%03d\0" % i, "little") for i in range(1000)],
                         dtype="<u4")
#: Rows ``spectrum_to_csv`` formats at a time, so that the temporaries of
#: ``_csv_block`` stay small: at most 64 kB each.
ROW_BLOCK = 2048


def _csv_block(values: np.ndarray) -> str:
    """The rows of an n x c array as CSV lines of c ``'%.6f'`` fields,
    byte for byte as the % operator writes them.

    Each value is rounded to k = rint(x 1e6) and written into a row buffer
    of NUL bytes: the sign, the integer digits of |k| // 10^6 without
    leading zeros, '.', then the six fraction digits as two words of a
    1000-entry table; one compaction drops the NULs.  '%.6f' rounds the
    exact binary x, while x 1e6 is rounded to within half an ulp, so the
    two agree unless x 1e6 lies within that of a half-integer.  A row is
    formatted by '%.6f' itself instead when one of its values has
    |x 1e6 - k| + |x 1e6| 2^-51 >= 0.5, that is x 1e6 within two ulps of a
    half-integer, which also takes every non-finite value and every
    |x| >= 2^52 / 1e6."""
    rows, columns = values.shape
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = values * 1e6
        rounded = np.rint(scaled)
        slow = ~(np.abs(scaled - rounded) + np.abs(scaled) * 2.0**-51 < 0.5)
    rounded = np.abs(rounded, out=rounded)
    rounded[slow] = 0.0
    whole, fraction = np.divmod(rounded.astype(np.int64), 1_000_000)
    digits = len(str(whole.max(initial=0)))
    point = 4 * ((digits + 5) // 4) - 1  # sign, digits and '.' fill whole words
    words = np.zeros((rows, columns, point // 4 + 3), dtype="<u4")
    words[..., -2] = _DIGIT_GROUPS[fraction // 1000]
    words[..., -1] = _DIGIT_GROUPS[fraction % 1000]
    buf = words.view(np.uint8)
    buf[..., point] = ord(".")
    buf[..., :-1, -1] = ord(",")
    buf[..., -1, -1] = ord("\n")
    place = 1
    for column in range(point - 1, point - 1 - digits, -1):
        digit = whole // place % 10 + ord("0")
        if place > 1:
            digit[whole < place] = 0
        buf[..., column] = digit
        place *= 10
    buf[..., point - 1 - digits] = np.where(np.signbit(values), ord("-"), 0)
    flat = buf.reshape(-1)
    keep = flat != 0
    text = str(np.compress(keep, flat).data, "ascii")
    if not slow.any():
        return text
    bounds = np.concatenate([[0], np.cumsum(keep.reshape(rows, -1).sum(axis=1))])
    form = ",".join(["%.6f"] * columns) + "\n"
    pieces, done = [], 0
    for row in np.flatnonzero(slow.any(axis=1)).tolist():
        pieces += [text[done : bounds[row]], form % tuple(values[row].tolist())]
        done = bounds[row + 1]
    pieces.append(text[done:])
    return "".join(pieces)


def spectrum_to_csv(angles: np.ndarray, spectrum: np.ndarray) -> str:
    """CSV (angle_deg, power_db) with the peak normalized to 0 dB, each
    value as '%.6f' would write it (see ``_csv_block``); a zero in the
    spectrum is -inf dB."""
    with np.errstate(divide="ignore"):
        power_db = 10.0 * np.log10(spectrum / spectrum.max())
    rows = np.column_stack([angles, power_db])
    blocks = (_csv_block(rows[top : top + ROW_BLOCK]) for top in range(0, len(rows), ROW_BLOCK))
    return "angle_deg,power_db\n" + "".join(blocks)
