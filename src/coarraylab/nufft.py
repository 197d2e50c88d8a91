"""Real trigonometric polynomials on a grid by a type-2 NUFFT.

f(omega) = c_0 + 2 Re sum_{1<=d<L} c_d e^{j d omega} is evaluated at G
points omega = 2 pi t by one real FFT of N >= 2 (2L - 1) points and a
KERNEL_WIDTH-bin interpolation per point, O(L log L + G P), where direct
summation costs O(L G) (Dutt & Rokhlin, SIAM J. Sci. Comput. 1993;
Barnett, Magland & af Klinteberg, SIAM J. Sci. Comput. 2019).  The
interpolation kernel is the exponential of semicircle
phi(z) = exp(KERNEL_BETA (sqrt(1 - (2 z / w)^2) - 1)), |z| < w / 2, fitted
once per process by w polynomials of KERNEL_TERMS terms in the fractional
bin offset, as in FINUFFT, so no kernel value is taken per point.
``plan`` places the points, O(G); ``evaluate`` takes one polynomial.
"""

from __future__ import annotations

from functools import cache, lru_cache
from typing import NamedTuple

import numpy as np

#: w = 16 and beta = 2.30 w, FINUFFT's pair for an upsampling of 2, reach
#: double precision; w = 14 did not.
KERNEL_WIDTH = 16
KERNEL_BETA = 2.30 * KERNEL_WIDTH
#: Coefficients of the polynomial in the bin offset that stands for each of
#: the w kernel pieces: 14 fit the kernel to 3.1e-15, as 18 do (13 leave
#: 5.7e-15).
KERNEL_TERMS = 14
#: ``evaluate`` is within ERROR_BOUND * ||h||_1 * eps of f, where
#: ||h||_1 = |c_0| + 2 sum_{d>=1} |c_d|.  The error has three terms: the
#: kernel's aliasing beyond the band, about exp(-pi w sqrt(1 - 1/sigma))
#: = 4e-16 of ||h||_1 at w = 16 and an upsampling sigma = 2 (Barnett,
#: Magland & af Klinteberg 2019); the polynomial fit of the kernel,
#: 3.1e-15 per piece; and the FFT's rounding on bins that the
#: deconvolution has raised by up to Phi(0) / Phi(pi / 2) = 8.3.  Against
#: a long-double Horner at the same points it was at most 4.9 ||h||_1 eps
#: on 3000 draws like the tests', which hold it below the bound.
ERROR_BOUND = 10


@lru_cache(maxsize=64)
def fft_length(size: int) -> int:
    """The smallest 2^a 3^b 5^c that is at least ``size``; the last 64
    sizes asked for are kept."""
    best = 1 << (size - 1).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            best = min(best, odd << ((size - 1) // odd).bit_length())
            odd *= 3
        odd5 *= 5
    return best


def size_for(length: int) -> int:
    """N for L coefficients: twice the 2L - 1 modes, and at least 2w."""
    return fft_length(max(2 * (2 * length - 1), 2 * KERNEL_WIDTH))


class NufftPlan(NamedTuple):
    """Where each point sits on N bins: x = N t (omega = 2 pi x / N), the
    first of the w bins it reads, start = ceil(x) - w / 2 mod N, and its
    offset u = 2 (x - ceil(x)) + 1 in (-1, 1], both exact in x; and the
    deconvolution factors N / Phi(2 pi d / N), d = 0 .. N // 4, which cover
    every L with this N.  16 bytes per point, all read-only."""

    size: int
    start: np.ndarray
    offset: np.ndarray
    deconvolution: np.ndarray


def _kernel(z: np.ndarray) -> np.ndarray:
    """phi(z) for |z| < w / 2."""
    return np.exp(KERNEL_BETA * (np.sqrt(1.0 - (2.0 / KERNEL_WIDTH * z) ** 2) - 1.0))


@cache
def _kernel_fit() -> np.ndarray:
    """KERNEL_TERMS x w: column i holds the coefficients of u^0 .. u^(P-1)
    of the piece phi((u + w - 1) / 2 - i), u in [-1, 1]: its first P
    Chebyshev coefficients, summed at 4P Chebyshev points (the discrete
    least-squares fit), in monomials by T_{k+1} = 2u T_k - T_{k-1}.  The
    sums run in long double (the x87 80-bit format on x86-64) and are
    rounded once: a double-precision fit left the NUFFT's error at up to
    10.6 ||h||_1 eps, this one at 4.9.  Only products, so no LAPACK
    least-squares code is loaded.  Built on first use and kept."""
    count = 4 * KERNEL_TERMS
    theta = np.arccos(np.longdouble(-1)) * (np.arange(count, dtype=np.longdouble) + 0.5) / count
    pieces = _kernel((np.cos(theta)[:, None] + (KERNEL_WIDTH - 1)) / 2 - np.arange(KERNEL_WIDTH))
    chebyshev = np.cos(np.outer(np.arange(KERNEL_TERMS), theta)) @ pieces * (2 / np.longdouble(count))
    chebyshev[0] /= 2
    monomials = np.zeros((KERNEL_TERMS, KERNEL_TERMS), dtype=np.longdouble)  # row k: T_k
    monomials[0, 0] = monomials[1, 1] = 1
    for k in range(1, KERNEL_TERMS - 1):
        monomials[k + 1, 1:] = 2 * monomials[k, :-1]
        monomials[k + 1] -= monomials[k - 1]
    fit = (monomials.T @ chebyshev).astype(float)
    fit.flags.writeable = False
    return fit


@cache
def _kernel_quadrature() -> tuple[np.ndarray, np.ndarray]:
    """2w Gauss-Legendre nodes on [0, w / 2] and their weights times phi,
    from the eigenvalues of the Jacobi matrix (Golub & Welsch, Math. Comp.
    1969).  Built on first use and kept."""
    k = np.arange(1.0, 2 * KERNEL_WIDTH)
    b = k / np.sqrt(4 * k * k - 1)
    nodes, vectors = np.linalg.eigh(np.diag(b, 1) + np.diag(b, -1))
    z = (nodes + 1) * (KERNEL_WIDTH / 4)
    return z, vectors[0] ** 2 * KERNEL_WIDTH * _kernel(z)


def plan(turns: np.ndarray, size: int) -> NufftPlan:
    """The ``NufftPlan`` of the points omega = 2 pi ``turns`` on N = ``size``
    bins.  Phi(xi) = 2 int_0^{w/2} phi(z) cos(xi z) dz is taken by
    quadrature; 2w nodes reach 4e-15 relative at xi <= pi / 2."""
    x = turns * size
    above = np.ceil(x)
    offset = 2 * (x - above) + 1
    start = (above.astype(np.intp) - KERNEL_WIDTH // 2) % size
    nodes, weights = _kernel_quadrature()
    xi = (2 * np.pi / size) * np.arange(size // 4 + 1)
    deconvolution = size / (weights @ np.cos(np.outer(nodes, xi)))
    for part in (start, offset, deconvolution):
        part.flags.writeable = False
    return NufftPlan(size, start, offset, deconvolution)


def evaluate(coeffs: np.ndarray, plan: NufftPlan) -> np.ndarray:
    """f = c_0 + 2 Re sum_{d>=1} c_d e^{j d omega} at every point of the
    plan, from the 2L - 1 centred modes h_d = c_d, h_{-d} = conj(c_d);
    ``plan.size`` must be at least ``size_for(L)``.

    f convolved with the kernel's periodisation has the Fourier
    coefficients h_d Phi(2 pi d / N) / N, so dividing them out and taking one
    real inverse FFT gives bins F with f(omega) = sum_l F_l phi(x - l)
    up to the kernel's aliasing, which the centred modes keep out of
    the band.  Each point reads the w bins from its ``start``: with the
    fitted pieces p_i(u) = sum_p C[p, i] u^p, f = sum_p u^p H[p, start] for
    the P x N product H = C V with V[i, l] = F_{(l + i) mod N}, and P
    Horner steps over the points each gather one row of H.
    """
    fit = _kernel_fit()
    bins = np.fft.irfft(coeffs * plan.deconvolution[: coeffs.size], plan.size)
    bins = np.concatenate([bins, bins[: KERNEL_WIDTH - 1]])
    table = fit @ np.lib.stride_tricks.sliding_window_view(bins, plan.size)
    values = table[-1].take(plan.start)
    gathered = np.empty_like(values)
    for row in table[-2::-1]:
        values *= plan.offset
        values += row.take(plan.start, out=gathered, mode="clip")
    return values
