"""Exact co-array analytics for integer-positioned linear arrays.

Lag sets are plain sorted numpy int64 vectors with duplicates removed.  The
second-order statistics of strictly non-circular sources expose both the
difference set {m_u - m_v} and the symmetric sum set +/-{m_u + m_v}, so the
central object here is their union (the sum-difference co-array).  Every
sensor pair is enumerated: the pair differences and sums are scattered into
a boolean occupancy bitmap over [min, max], and the sorted lags, the
zero-centred contiguous segment and the holes are all read off that bitmap.
Values too sparse for a bitmap (span above BITMAP_SLOTS_PER_VALUE slots per
value, e.g. raw positions [0, 10**12]) are deduplicated by np.unique instead.
Closed-form claims elsewhere in the package are checked against these
routines, never the other way around.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .geometry import SensorArray, _integer_positions
from .inputs import integer_field

LagSet = np.ndarray

#: A bitmap over [min, max] is used while it has at most this many slots per
#: value enumerated.  At 8 one-byte slots the bitmap is never larger than the
#: int64 values it is built from.  It beats np.unique well past that: about
#: 5x at 8 slots and break-even at 256-512 slots per value (1e3-1e5 values).
BITMAP_SLOTS_PER_VALUE = 8

#: The widest span [min, max] whose holes ``holes`` and ``coarray_report``
#: list.  Their bitmap and hole list grow with the span, not with the number
#: of sensors, so a sparse raw geometry such as [0, 10**10] is refused before
#: anything span-sized is allocated.  The generated families reach about
#: 1.05e6 lags at N = 1024.
MAX_SPAN = 2**21


def _positions(a) -> np.ndarray:
    """Sensor positions as int64; raw input must pass the SensorArray rule."""
    if isinstance(a, SensorArray):
        return a.as_array()
    return np.asarray(_integer_positions(a), dtype=np.int64)


def _values(*parts) -> np.ndarray:
    """All the given value arrays as one flat int64 vector (not empty)."""
    values = np.concatenate([np.asarray(v, dtype=np.int64).ravel() for v in parts])
    if values.size == 0:
        raise ValueError("empty lag set")
    return values


def _occupancy(lo: int, hi: int, *parts) -> np.ndarray:
    """occ[k] is True iff lag lo + k occurs in one of the parts; every value
    must lie in [lo, hi]."""
    occ = np.zeros(hi - lo + 1, dtype=bool)
    for values in parts:
        occ[values - lo] = True
    return occ


def _marked(occ: np.ndarray, lo: int) -> LagSet:
    """The lags lo + k whose slot k of a bitmap over [lo, ...] is set, sorted."""
    return occ.nonzero()[0] + lo


def _listable_span(lo: int, hi: int) -> None:
    """Refuse a span whose hole list could exceed MAX_SPAN entries."""
    if hi - lo + 1 > MAX_SPAN:
        raise ValueError(
            f"lag span [{lo}, {hi}] holds {hi - lo + 1} lags, more than the "
            f"{MAX_SPAN} whose holes can be listed"
        )


def _segment(occ: np.ndarray, zero: int) -> tuple[int, int]:
    """(uDOFs, CVA) of the contiguous segment around index ``zero`` (lag 0)
    of an occupancy bitmap: the first lag f with f or -f missing ends it."""
    if not (0 <= zero < occ.size and occ[zero]):
        raise ValueError("lag set does not contain 0")
    reach = min(zero, occ.size - 1 - zero) + 1
    both = occ[zero:zero + reach] & occ[zero::-1][:reach]
    m = reach - 1 if both.all() else int(both.argmin()) - 1
    return 2 * m + 1, 2 * m


def _lagset(*parts, span: tuple[int, int] | None = None) -> LagSet:
    """The distinct lags of all the given value arrays together, sorted;
    ``span`` is their (min, max) where the caller knows it."""
    values = _values(*parts)
    lo, hi = span or (int(values.min()), int(values.max()))
    if hi - lo >= BITMAP_SLOTS_PER_VALUE * values.size:  # the one density guard
        return np.unique(values)
    return _marked(_occupancy(lo, hi, values), lo)


def difference_set(a, b=None) -> LagSet:
    """All pairwise differences {m_v - m_u : m_v in b, m_u in a}.

    With one argument this is the (self-)difference co-array, which is always
    symmetric about 0 and contains 0; a SensorArray's sorted positions give
    its span [-aperture, aperture].
    """
    pa = _positions(a)
    if b is None and isinstance(a, SensorArray):
        aperture = int(pa[-1] - pa[0])
        return _lagset(pa[:, None] - pa[None, :], span=(-aperture, aperture))
    pb = pa if b is None else _positions(b)
    return _lagset(pb[:, None] - pa[None, :])


def sum_set(a, b=None) -> LagSet:
    """The symmetric sum co-array +/-{m_u + m_v} over unordered pairs
    (u = v included)."""
    pa = _positions(a)
    pb = pa if b is None else _positions(b)
    sums = pa[:, None] + pb[None, :]
    return _lagset(sums, -sums)


def sum_difference_coarray(a) -> LagSet:
    """Union of the self-difference set and the symmetric self-sum set."""
    return _lagset(difference_set(a), sum_set(a))


def contiguous_stats(lags) -> tuple[int, int]:
    """(uDOFs, CVA) of the zero-centered contiguous segment of a lag set.

    With m the largest integer such that every lag in [-m, m] is present,
    uDOFs = 2m + 1 and CVA (consecutive virtual aperture) = 2m.
    """
    values = _values(lags)
    # 2m + 1 distinct lags fit in the values, so the segment and the lag
    # that ends it lie in [-reach, reach] however sparse the rest is
    reach = values.size
    near = values[(values >= -reach) & (values <= reach)]
    return _segment(_occupancy(-reach, reach, near), reach)


def holes(lags) -> LagSet:
    """Integers missing from a lag set between its min and max (at most
    MAX_SPAN of them)."""
    values = _values(lags)
    lo, hi = int(values.min()), int(values.max())
    _listable_span(lo, hi)
    return _marked(~_occupancy(lo, hi, values), lo)


def spatial_efficiency(lags) -> float:
    """Fraction of the one-sided span that is usable contiguously: m / max(lags).

    1.0 for a hole-free lag set; degenerate single-lag {0} counts as fully
    efficient.
    """
    values = _values(lags)
    return _efficiency(contiguous_stats(values)[0], int(values.max()))


def _efficiency(udofs: int, top: int) -> float:
    return 1.0 if top == 0 else ((udofs - 1) // 2) / top


def weight_function(a, f: int) -> int:
    """Number of sensor pairs (m1, m2) with m1 - m2 = f.

    Counting ordered pairs at signed lag f equals counting unordered pairs at
    |f|, so this single definition serves both conventions (w(f) = w(-f), and
    w(0) = N).
    """
    (count,) = weight_table(a, (f,)).values()
    return count


def weight_table(a, lags: Iterable[int] | None = None) -> dict[int, int]:
    """w(f) for each requested lag (default: every lag in the difference set).

    The full table counts the N^2 differences with np.unique.  Requested lags
    are counted without enumerating them: w(f) sums, over each position m_u,
    how many positions equal m_u - f, for every lag in one pass over the
    sorted positions (a SensorArray's already are).
    """
    p = _positions(a)
    if lags is None:
        diffs = p[:, None] - p[None, :]
        values, counts = np.unique(diffs, return_counts=True)
        return dict(zip(values.tolist(), counts.tolist()))
    keys = [integer_field(f, "lag") for f in lags]
    s = p if isinstance(a, SensorArray) else np.sort(p)
    below = s - np.array(keys, dtype=np.int64)[:, None]
    hits = s.searchsorted(below, "right") - s.searchsorted(below, "left")
    return dict(zip(keys, hits.sum(axis=1).tolist()))


@dataclass(frozen=True)
class CoarrayReport:
    """Snapshot of every co-array figure of merit for one array."""

    array_name: str
    n: int
    dc: LagSet
    sc: LagSet
    sdc: LagSet
    udofs: int
    cva: int
    hole_count: int
    hole_positions: tuple[int, ...]
    spatial_efficiency: float
    weights: dict[int, int]

    def figures(self) -> dict:
        """The JSON fields of every figure of merit, without the lag sets."""
        return {
            "array": self.array_name,
            "n": self.n,
            "udofs": self.udofs,
            "cva": self.cva,
            "holes": self.hole_count,
            "hole_positions": list(self.hole_positions),
            "spatial_efficiency": self.spatial_efficiency,
            "weights": {str(k): v for k, v in sorted(self.weights.items())},
        }

    def to_dict(self) -> dict:
        lags = {"dc": self.dc.tolist(), "sc": self.sc.tolist(), "sdc": self.sdc.tolist()}
        return {**self.figures(), **lags}


def coarray_report(array: SensorArray, weight_lags: Sequence[int] = (1, 2, 3)) -> CoarrayReport:
    """Compute difference / sum / sum-difference sets and the derived merit
    figures (uDOFs, CVA, holes, spatial efficiency, small-lag weights) in one
    pass that forms each pair difference and each pair sum once.

    Both sets are symmetric about 0 and reach at most top = max(aperture,
    2 * max|m|), which is known from the positions alone, so a span over
    MAX_SPAN lags is refused before anything span-sized is allocated.  dc is
    ``difference_set``'s; the pair sums are scattered into one occupancy
    bitmap over [-top, top], mirrored for sc, and dc is added to it for the
    union, its contiguous segment and its holes.  That is the range the hole
    list covers anyway, so the bitmap needs no density guard."""
    p = array.as_array()
    top = max(int(p[-1] - p[0]), 2 * max(int(p[-1]), -int(p[0])))
    _listable_span(-top, top)
    dc = difference_set(array)
    occ = _occupancy(-top, top, p[:, None] + p[None, :])
    occ |= occ[::-1]
    sc = _marked(occ, -top)
    occ[dc + top] = True
    udofs, cva = _segment(occ, top)
    hole_set = _marked(~occ, -top)
    return CoarrayReport(
        array_name=array.name,
        n=array.n,
        dc=dc,
        sc=sc,
        sdc=_marked(occ, -top),
        udofs=udofs,
        cva=cva,
        hole_count=int(hole_set.size),
        hole_positions=tuple(hole_set.tolist()),
        spatial_efficiency=_efficiency(udofs, top),
        weights=weight_table(array, weight_lags),
    )


REPORT_COLUMNS = ("array", "N", "udofs", "cva", "holes", "se", "w1", "w2", "w3")


def report_row(report: CoarrayReport) -> list:
    """One CSV row of Table-style metrics; se is a percentage with 2 decimals."""
    w = report.weights
    return [
        report.array_name,
        report.n,
        report.udofs,
        report.cva,
        report.hole_count,
        f"{100.0 * report.spatial_efficiency:.2f}",
        w.get(1, 0),
        w.get(2, 0),
        w.get(3, 0),
    ]
