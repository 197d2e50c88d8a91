"""Snapshot simulation and second-order statistics for strictly
non-circular sources.

Source z emits x_z(t) = sqrt(p_z) * r_z(t) * exp(j*phi_z) with r_z real
standard Gaussian, so both E[x x^H] and the unconjugated E[x x^T] carry
signal structure.  Stacking the two into an extended covariance doubles the
virtual aperture: the lags exposed are exactly the sum-difference co-array of
the physical geometry.

Since every amplitude is real, the noise-free snapshots are the real mixture
B r(t) of the weighted steering B = C A diag(sqrt(p) e^{j phi}).  A trial is
therefore drawn as the snapshots' real planes P = [Re X; Im X] (2N x T): one
real product [Re B; Im B] r plus the noise drawn in the same layout.  Both
covariance blocks come from one real Gram matrix of those planes
(``planes_gram``, then ``gram_covariance``), so the trial pipeline never
forms the complex X; ``simulate_snapshots`` builds it from the planes when a
caller asks for it.  What depends only on the geometry (the contiguous lag
segment, which covariance entries fall in it and how many share each lag) is
a ``LagPlan``, built once per array by ``lag_plan``; the trials then average
their entries per lag with two bincounts.  The stages after the Gram take a
leading trial axis, so a block of trials runs them once.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import coarray
from .coupling import CouplingModel, coupling_matrix, get_preset
from .geometry import SensorArray
from .inputs import integer_field, json_object, read_json, real_field

SNAPSHOT_MAGIC = b"CALB"
SNAPSHOT_FORMAT_VERSION = 1

#: Noise samples ``simulate_snapshots`` draws per block (256 KB), so the
#: buffer stays in cache and is reused across the rows of one trial.
NOISE_BLOCK = 1 << 15

#: The most samples one trial of ``simulate_snapshots`` draws, (Z + 2N) * T:
#: 256 MiB of float64 planes and amplitudes, checked before the first draw.
MAX_TRIAL_SAMPLES = 1 << 25

#: The largest covariance entry ``planes_gram`` returns, 2^200 (about
#: 1.6e60).  Co-array MUSIC squares the covariance twice: R_ss is a product
#: of the virtual samples, and the subspace iteration's residual norm sums
#: squares of R_ss entries, which stays finite for L^3 K c^4 < 1.8e308, so
#: up to c = 9e73 at L = 8447.
MAX_COVARIANCE = 2.0**200

#: The lowest per-source SNR a scenario takes: a noise power of 1e30, so
#: no noise draw or covariance sum overflows on its account.
MIN_SNR_DB = -300.0


@dataclass(frozen=True)
class Scenario:
    """Source constellation plus observation parameters for one experiment.

    Args:
        angles_deg: source directions, distinct, each strictly inside
            (-90, 90) degrees.
        snapshots: number of time samples T.
        snr_db: per-source SNR (equal-power convention); None means
            noiseless.
        powers: per-source powers p_z (default all 1).
        nc_phases: per-source non-circularity phases phi_z in radians
            (default all 0).
        seed: base RNG seed; trials derive child streams from it.
    """

    angles_deg: tuple[float, ...]
    snapshots: int
    snr_db: float | None = 0.0
    powers: tuple[float, ...] | None = None
    nc_phases: tuple[float, ...] | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        angles = _floats(self.angles_deg, "angles_deg")
        if len(angles) == 0:
            raise ValueError("angles_deg needs at least one source")
        if not all(-90.0 < a < 90.0 for a in angles):
            raise ValueError("angles_deg must lie strictly inside (-90, 90)")
        if len(set(angles)) != len(angles):
            raise ValueError("angles_deg must be distinct")
        object.__setattr__(self, "angles_deg", angles)

        powers = _per_source(self.powers, 1.0, len(angles), "powers")
        if not all(0.0 <= p < math.inf for p in powers):
            raise ValueError("powers must be finite and nonnegative")
        object.__setattr__(self, "powers", powers)
        phases = _per_source(self.nc_phases, 0.0, len(angles), "nc_phases")
        if not all(math.isfinite(p) for p in phases):
            raise ValueError("nc_phases must be finite")
        object.__setattr__(self, "nc_phases", phases)

        object.__setattr__(self, "snapshots", integer_field(self.snapshots, "snapshots", 1))
        if self.snr_db is not None:
            snr = real_field(self.snr_db, "snr_db")
            if not snr >= MIN_SNR_DB:
                raise ValueError(f"snr_db must be a number >= {MIN_SNR_DB:g}, +inf or null")
            object.__setattr__(self, "snr_db", snr)
        object.__setattr__(self, "seed", integer_field(self.seed, "seed", 0))

    @property
    def num_sources(self) -> int:
        return len(self.angles_deg)

    @property
    def noise_power(self) -> float:
        """p_n relative to unit source power; 0 when noiseless (snr_db None
        or +inf)."""
        if self.snr_db is None or math.isinf(self.snr_db):
            return 0.0
        return 10.0 ** (-self.snr_db / 10.0)

    def to_dict(self) -> dict:
        return {
            "angles_deg": list(self.angles_deg),
            "powers": list(self.powers),
            "nc_phases": list(self.nc_phases),
            "snr_db": self.snr_db,
            "snapshots": self.snapshots,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        optional = ("snr_db", "powers", "nc_phases", "seed")
        return cls(**json_object(data, "scenario", ("angles_deg", "snapshots"), optional))


def _floats(values, what: str) -> tuple[float, ...]:
    """A number or a sequence of numbers as a tuple of floats."""
    items = values if isinstance(values, (list, tuple)) else np.atleast_1d(values)
    return tuple(real_field(v, what) for v in items)


def _per_source(values, default: float, count: int, what: str) -> tuple[float, ...]:
    """One float per source: ``values`` converted, or ``default`` repeated."""
    if values is None:
        return (default,) * count
    values = _floats(values, what)
    if len(values) != count:
        raise ValueError(f"{what} length must match angles")
    return values


def load_scenario(path) -> tuple[Scenario, CouplingModel | None]:
    """Read a scenario JSON file; an optional "coupling" key holds either a
    preset name or an inline coefficient model."""
    data = read_json(path, "scenario file")
    coupling = data.pop("coupling", None) if isinstance(data, dict) else None
    scenario = Scenario.from_dict(data)
    if isinstance(coupling, str):
        return scenario, get_preset(coupling)
    return scenario, None if coupling is None else CouplingModel.from_dict(coupling)


def steering_matrix(array: SensorArray, angles_deg: Sequence[float]) -> np.ndarray:
    """The N x Z matrix of steering vectors a(theta), one column per angle,
    with a_u = exp(-j*pi*m_u*sin(theta)) at half-wavelength pitch."""
    angles = np.atleast_1d(np.asarray(angles_deg, dtype=float))
    if not np.all(np.abs(angles) < 90.0):
        raise ValueError("source angles must lie strictly inside (-90, 90)")
    positions = array.as_array()
    return np.exp(-1j * np.pi * positions[:, None] * np.sin(np.deg2rad(angles))[None, :])


def trial_rng(seed: int, trial: int = 0) -> np.random.Generator:
    """Counter-based per-trial stream: trial k is reproducible on its own,
    independent of how many trials ran before it."""
    key = [integer_field(seed, "seed", 0), integer_field(trial, "trial", 0)]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


def source_steering(
    array: SensorArray, scenario: Scenario, coupling: CouplingModel | None = None
) -> np.ndarray:
    """C A: the N x Z steering matrix of the scenario's sources, times the
    coupling matrix when a model is given."""
    a = steering_matrix(array, scenario.angles_deg)
    if coupling is not None:
        with np.errstate(over="ignore", invalid="ignore"):  # see planes_gram
            a = coupling_matrix(array, coupling) @ a
    return a


def simulate_snapshots(
    array: SensorArray,
    scenario: Scenario,
    coupling: CouplingModel | None = None,
    trial: int = 0,
    *,
    steering: np.ndarray | None = None,
    planes: bool = False,
) -> np.ndarray:
    """Draw the snapshots X = C A s(t) + n(t) of one trial: the N x T
    complex matrix, or with ``planes`` its real planes [Re X; Im X], the
    2N x T layout that ``planes_gram`` reads.

    Sources are strictly non-circular (real Gaussian amplitude r_z(t) times
    the fixed weight sqrt(p_z) e^{j phi_z}); noise is circular complex white
    Gaussian with the scenario's noise power.  The draw is always made as
    the planes: the real product W r with the 2N x Z weighted steering
    W = [Re B; Im B], B = C A diag(sqrt(p) e^{j phi}), plus sqrt(p_n / 2)
    times a standard-normal draw of shape (2N, T), after the amplitudes
    from the same stream; its values and order are those of one (2, N, T)
    draw of both noise planes.  The complex X is built from those planes,
    so both layouts hold the same numbers.  With unit powers and zero
    phases B = C A exactly; otherwise (a c) r and a (c r) differ only by
    rounding.

    C A comes from ``coupling`` or, for a caller that draws many trials of
    one scenario and builds it once, from ``steering``, the
    ``source_steering`` of the same array and scenario; the draw is the
    same either way.  Giving both is an error, and so is a trial of more
    than MAX_TRIAL_SAMPLES samples.
    """
    samples = (scenario.num_sources + 2 * array.n) * scenario.snapshots
    if samples > MAX_TRIAL_SAMPLES:
        raise ValueError(f"snapshots {scenario.snapshots}: one trial would draw (Z + 2N) * T = "
                         f"{samples} samples, more than {MAX_TRIAL_SAMPLES}")
    if steering is None:
        a = source_steering(array, scenario, coupling)
    elif coupling is not None:
        raise ValueError("give coupling or a prebuilt steering, not both")
    elif steering.shape != (array.n, scenario.num_sources):
        raise ValueError(
            f"steering has shape {steering.shape}, "
            f"expected ({array.n}, {scenario.num_sources})"
        )
    else:
        a = steering
    rng = trial_rng(scenario.seed, trial)
    amplitudes = rng.standard_normal((scenario.num_sources, scenario.snapshots))
    with np.errstate(over="ignore", invalid="ignore"):  # see planes_gram
        b = a * (np.sqrt(scenario.powers) * np.exp(1j * np.asarray(scenario.nc_phases)))
        drawn = np.concatenate([b.real, b.imag]) @ amplitudes
    pn = scenario.noise_power
    if pn > 0:
        # the (2N, T) draw taken a block of rows at a time: the same stream
        # in the same order, through one small buffer instead of a second
        # 2N x T array
        rows = max(1, NOISE_BLOCK // scenario.snapshots)
        block = np.empty((rows, scenario.snapshots))
        scale = np.sqrt(pn / 2.0)
        for top in range(0, 2 * array.n, rows):
            noise = block[: min(rows, 2 * array.n - top)]
            rng.standard_normal(out=noise)
            noise *= scale
            drawn[top : top + rows] += noise
    return drawn if planes else snapshots_from_planes(drawn)


def _plane_rows(planes: np.ndarray) -> int:
    """N, after checking that ``planes`` is a real 2N x T matrix."""
    if planes.ndim != 2 or planes.shape[0] % 2 or np.iscomplexobj(planes):
        raise ValueError("snapshot planes must be a real 2N x T matrix")
    return planes.shape[0] // 2


def snapshots_from_planes(planes: np.ndarray) -> np.ndarray:
    """The N x T complex snapshot matrix X = P[:N] + j P[N:] of the real
    planes P that ``simulate_snapshots`` draws."""
    planes = np.asarray(planes)
    n = _plane_rows(planes)
    x = np.empty((n, planes.shape[1]), dtype=complex)
    x.real = planes[:n]
    x.imag = planes[n:]
    return x


@dataclass(frozen=True)
class ExtendedCovariance:
    """Standard and unconjugated covariance blocks of one snapshot batch,
    N x N each, or of a block of trials, stacked on leading axes."""

    r_s: np.ndarray
    r_hat: np.ndarray

    def __post_init__(self) -> None:
        r_s = np.asarray(self.r_s)
        r_hat = np.asarray(self.r_hat)
        if r_s.shape != r_hat.shape or r_s.ndim < 2 or r_s.shape[-1] != r_s.shape[-2]:
            raise ValueError("covariance blocks must be square and same-shaped")
        object.__setattr__(self, "r_s", r_s)
        object.__setattr__(self, "r_hat", r_hat)

    @property
    def n(self) -> int:
        return self.r_s.shape[-1]


def planes_gram(planes: np.ndarray) -> np.ndarray:
    """The real Gram matrix G = P P^T / T (2N x 2N) of the real planes
    P = [A; B] (2N x T) of X = A + jB, as ``simulate_snapshots`` draws them:
    the one product a trial's covariance takes from its snapshots (see
    ``gram_covariance``).  G is computed as one triangle mirrored (syrk), so
    it is exactly symmetric.

    Huge source powers or coupling magnitudes overflow the snapshots or
    their Gram to inf or nan, or leave entries that MUSIC cannot square;
    the draw lets inf and nan through without warnings, and the one check
    here, every entry finite and at most MAX_COVARIANCE, turns both into a
    ValueError that names the inputs that set the scale.  The check reads
    the diagonal alone: |G_ij| <= sqrt(G_ii G_jj) for a Gram matrix, and a
    non-finite sample makes its row's diagonal entry inf or nan.
    """
    planes = np.asarray(planes)
    _plane_rows(planes)
    with np.errstate(over="ignore", invalid="ignore"):
        gram = planes @ planes.T
        gram /= planes.shape[1]
    scale = gram.diagonal().max(initial=0.0)
    if not scale <= MAX_COVARIANCE:
        size = f"reaches {scale:.3g}" if np.isfinite(scale) else "overflows"
        raise ValueError(
            f"snapshot covariance {size}; co-array MUSIC squares it and takes at most "
            f"{MAX_COVARIANCE:.3g}: lower the source powers, the noise power (snr_db) "
            "or the coupling c1_magnitude")
    return gram


def gram_covariance(gram: np.ndarray) -> ExtendedCovariance:
    """R_s = X X^H / T and R_hat = X X^T / T from the ``planes_gram`` G of
    X = A + jB, or from a stack of them, one per trial, on a leading axis.

    With G_AA, G_AB, G_BB the N x N blocks of G,
    R_s = (G_AA + G_BB) + j(G_BA - G_AB) and
    R_hat = (G_AA - G_BB) + j(G_BA + G_AB): one real product replaces two
    complex ones, R_s is exactly Hermitian and R_hat exactly symmetric.
    """
    gram = np.asarray(gram)
    if gram.ndim < 2 or gram.shape[-1] != gram.shape[-2] or gram.shape[-1] % 2:
        raise ValueError("a Gram matrix of snapshot planes is real 2N x 2N")
    n = gram.shape[-1] // 2
    aa, bb, cross = gram[..., :n, :n], gram[..., n:, n:], gram[..., :n, n:]
    cross_t = cross.swapaxes(-1, -2)
    r_s = np.empty(aa.shape, dtype=complex)
    r_hat = np.empty(aa.shape, dtype=complex)
    np.add(aa, bb, out=r_s.real)
    np.subtract(cross_t, cross, out=r_s.imag)
    np.subtract(aa, bb, out=r_hat.real)
    np.add(cross_t, cross, out=r_hat.imag)
    return ExtendedCovariance(r_s=r_s, r_hat=r_hat)


def extended_covariance(x: np.ndarray) -> ExtendedCovariance:
    """Sample covariances R_s = X X^H / T and R_hat = X X^T / T of an N x T
    snapshot matrix: the ``gram_covariance`` of the ``planes_gram`` of its
    real planes [Re X; Im X]."""
    x = np.asarray(x)
    if x.ndim != 2:
        raise ValueError("snapshot matrix must be 2-D (sensors x time)")
    n, t = x.shape
    planes = np.empty((2 * n, t))
    planes[:n] = x.real
    planes[n:] = x.imag
    return gram_covariance(planes_gram(planes))


@dataclass(frozen=True)
class VirtualObservation:
    """Averaged virtual-array samples on the contiguous lag segment [-m, m]:
    2m + 1 values, or one row of them per trial of a block."""

    lags: np.ndarray
    values: np.ndarray

    @property
    def half_width(self) -> int:
        return int(self.lags[-1])

    def value_at(self, lag: int) -> complex:
        idx = integer_field(lag, "lag") + self.half_width
        if idx < 0 or idx >= self.lags.size:
            raise ValueError(f"lag {lag} outside contiguous segment")
        return complex(self.values[idx])


def extended_lag_matrix(array: SensorArray) -> np.ndarray:
    """Lag carried by each entry of the extended covariance.

    Conjugating a sensor at position m behaves like a virtual sensor at -m,
    so with q = [m, -m] the entry (i, j) of the 2N x 2N matrix observes lag
    q_i - q_j.  The set of entries therefore spans exactly the sum-difference
    co-array.
    """
    pos = array.as_array()
    ext = np.concatenate([pos, -pos])
    return ext[:, None] - ext[None, :]


@dataclass(frozen=True, eq=False)
class LagPlan:
    """What the virtual observation of one array averages, worked out once.

    ``index`` holds the flat indices into the N x 2N upper blocks
    [R_s | R_hat] of the entries whose lag l (p_u - p_v in R_s, p_u + p_v
    in R_hat) lies in the contiguous segment [-m, m], and ``bins`` their
    l + m.  The lower blocks of r_so are the conjugates of the upper blocks
    at -l, so ``counts`` holds c(l) + c(-l), the entries of r_so at each lag.
    """

    positions: tuple[int, ...]
    lags: np.ndarray
    index: np.ndarray
    bins: np.ndarray
    counts: np.ndarray

    @property
    def half_width(self) -> int:
        return int(self.lags[-1])

    @property
    def default_length(self) -> int:
        """The smoothing subarray length L = m + 1."""
        return self.half_width + 1


def lag_plan(array: SensorArray) -> LagPlan:
    """The lag bookkeeping of ``virtual_observation`` for one array: the
    co-array is enumerated here, once, and every trial reuses the plan.
    Only the N x 2N upper blocks of ``extended_lag_matrix`` are formed; the
    lower blocks carry their lags negated, so the contiguous segment is read
    off the upper lags together with their negations."""
    pos = array.as_array()
    upper = (pos[:, None] - np.concatenate([pos, -pos])).ravel()
    udofs, _ = coarray.contiguous_stats(np.concatenate([upper, -upper]))
    half = (udofs - 1) // 2
    index = np.flatnonzero(np.abs(upper) <= half)
    bins = upper[index] + half
    counts = np.bincount(bins, minlength=2 * half + 1)
    counts = counts + counts[::-1]
    lags = np.arange(-half, half + 1, dtype=np.int64)
    for shared in (lags, index, bins, counts):
        shared.flags.writeable = False
    return LagPlan(array.positions, lags, index, bins, counts)


def virtual_observation(ec: ExtendedCovariance, plan: LagPlan) -> VirtualObservation:
    """Average extended-covariance entries sharing a lag and keep the
    zero-centered contiguous segment of the sum-difference co-array.

    ``plan`` is the ``lag_plan`` of the array the covariance came from.
    With S(l) the sum of the upper-block entries at lag l (two bincounts,
    real and imaginary parts), the mean of r_so at lag l is
    (S(l) + conj S(-l)) / (c(l) + c(-l)).  A stack of B covariances gives
    B x (2m + 1) values from the same two bincounts, trial b's entries
    binned from b (2m + 1) on: each bin sums its entries in the order one
    trial alone would, so every row is the observation of its trial.
    """
    if ec.n != len(plan.positions):
        raise ValueError("covariance size does not match array")
    upper = np.concatenate([ec.r_s, ec.r_hat], axis=-1)
    entries = upper.reshape(*upper.shape[:-2], -1)[..., plan.index]
    stack, width = entries.shape[:-1], plan.lags.size
    trials = math.prod(stack)
    bins = (plan.bins + width * np.arange(trials)[:, None]).ravel()
    real = np.bincount(bins, entries.real.ravel(), trials * width).reshape(*stack, width)
    imag = np.bincount(bins, entries.imag.ravel(), trials * width).reshape(*stack, width)
    values = np.empty((*stack, width), dtype=complex)
    np.divide(real + real[..., ::-1], plan.counts, out=values.real)
    np.divide(imag - imag[..., ::-1], plan.counts, out=values.imag)
    return VirtualObservation(lags=plan.lags, values=values)


def write_snapshots(path, x: np.ndarray) -> None:
    """Dump snapshots as little-endian complex64 with a 16-byte header
    (magic "CALB", u32 format version, u32 N, u32 T)."""
    x = np.asarray(x)
    if x.ndim != 2:
        raise ValueError("snapshot matrix must be 2-D (sensors x time)")
    n, t = x.shape
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(struct.pack("<III", SNAPSHOT_FORMAT_VERSION, n, t))
        fh.write(np.ascontiguousarray(x.astype("<c8")).tobytes())


def read_snapshots(path) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) != 16 or header[:4] != SNAPSHOT_MAGIC:
            raise ValueError(f"{path} is not a snapshot dump")
        version, n, t = struct.unpack("<III", header[4:])
        if version != SNAPSHOT_FORMAT_VERSION:
            raise ValueError(f"unsupported snapshot format version {version}")
        payload = fh.read()
    expected = 8 * n * t
    if len(payload) != expected:
        raise ValueError("snapshot dump truncated")
    return np.frombuffer(payload, dtype="<c8").reshape(n, t).astype(np.complex128)
