"""Exact co-array analytics for integer-positioned linear arrays.

Lag sets are plain sorted numpy int64 vectors with duplicates removed.  The
second-order statistics of strictly non-circular sources expose both the
difference set {m_u - m_v} and the symmetric sum set +/-{m_u + m_v}, so the
central object here is their union (the sum-difference co-array).  Every
sensor pair is enumerated, and each pair matrix is formed once: the span
[lo, hi] of its values follows from the extreme positions, so the offset -lo
goes into the length-N factor and (p - lo)[:, None] -/+ p is already the
bitmap index.  It is scattered into a boolean occupancy bitmap over
[lo, hi], and the sorted lags are read off the bitmap and shifted back in
place; the zero-centred contiguous segment and the holes are read off the
same bitmap.  A set symmetric about 0 (the sum set, the union) is scattered
once and mirrored.  ``coarray_report`` keeps its sum and union bitmaps:
their sorted lags (``sc``, ``sdc``) and the hole list are read off them only
when a caller first asks, so a caller that needs counts, windows or the
contiguous segment never lists a lag.  Only arrays formed here are written
to: a caller's positions and lags are read, never offset in place.  Values too sparse for a
bitmap (span above BITMAP_SLOTS_PER_VALUE slots per value, e.g. raw
positions [0, 10**12]) are deduplicated by np.unique instead.
Closed-form claims elsewhere in the package are checked against these
routines, never the other way around.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

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


def _extent(a) -> tuple[np.ndarray, int, int]:
    """The positions of ``a`` with their min and max (a SensorArray's are
    sorted)."""
    p = _positions(a)
    if isinstance(a, SensorArray):
        return p, int(p[0]), int(p[-1])
    return p, int(p.min()), int(p.max())


def _lags(lags) -> np.ndarray:
    """A caller's lags as a flat int64 vector (not empty).  It may be the
    caller's own array, so it is only ever read."""
    values = np.asarray(lags, dtype=np.int64).ravel()
    if values.size == 0:
        raise ValueError("empty lag set")
    return values


def _dense(lo: int, hi: int, count: int) -> bool:
    """The one density guard: ``count`` values over [lo, hi] go into a
    bitmap, not np.unique."""
    return hi - lo < BITMAP_SLOTS_PER_VALUE * count


def _bitmap(size: int, slots: np.ndarray) -> np.ndarray:
    """occ[k] is True iff k is one of the slots, lags already offset into
    [0, size)."""
    occ = np.zeros(size, dtype=bool)
    occ[slots] = True
    return occ


def _marked(occ: np.ndarray, lo: int) -> LagSet:
    """The lags lo + k whose slot k of a bitmap over [lo, ...] is set, sorted."""
    lags = occ.nonzero()[0]
    lags += lo
    return lags


def _centred(occ: np.ndarray) -> LagSet:
    """The sorted lags marked in a bitmap over [-top, top], top = size // 2."""
    return _marked(occ, -(occ.size // 2))


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


def _nonnegative(lags: LagSet) -> LagSet:
    """The lags >= 0 of a sorted lag set symmetric about 0, as a view."""
    return lags[lags.size // 2:]


def difference_set(a, b=None) -> LagSet:
    """All pairwise differences {m_v - m_u : m_v in b, m_u in a}.

    With one argument this is the (self-)difference co-array, which is always
    symmetric about 0 and contains 0.  The span [min b - max a, max b - min a]
    follows from the positions, and the pair matrix is formed once with the
    offset -lo already in it: (b - lo)[:, None] - a.
    """
    pa, a_lo, a_hi = _extent(a)
    pb, b_lo, b_hi = (pa, a_lo, a_hi) if b is None else _extent(b)
    lo, hi = b_lo - a_hi, b_hi - a_lo
    if not _dense(lo, hi, pa.size * pb.size):
        return np.unique(pb[:, None] - pa)
    return _marked(_bitmap(hi - lo + 1, (pb - lo)[:, None] - pa), lo)


def sum_set(a, b=None) -> LagSet:
    """The symmetric sum co-array +/-{m_u + m_v} over unordered pairs
    (u = v included).

    It is symmetric about 0 and reaches top = max(|min sum|, max sum), so
    the sums (offset by top as they are formed) are scattered once into a
    bitmap over [-top, top] that is then mirrored; a sparse one takes the
    distinct |sums| and mirrors those."""
    pa, a_lo, a_hi = _extent(a)
    pb, b_lo, b_hi = (pa, a_lo, a_hi) if b is None else _extent(b)
    top = max(a_hi + b_hi, -(a_lo + b_lo))
    if not _dense(-top, top, 2 * pa.size * pb.size):
        sums = pa[:, None] + pb
        half = np.unique(np.abs(sums, out=sums))
        return np.concatenate((-half[::-1], half[int(half[0] == 0):]))
    occ = _bitmap(2 * top + 1, (pa + top)[:, None] + pb)
    # the reversed view is copied first: ORed in place it makes NumPy
    # buffer the overlap, about half as fast
    occ |= occ[::-1].copy()
    return _marked(occ, -top)


def sum_difference_coarray(a) -> LagSet:
    """Union of the self-difference set and the symmetric self-sum set.

    Both are symmetric about 0, so their lags >= 0 are marked in a bitmap
    over [0, top] and mirrored."""
    dc, sc = difference_set(a), sum_set(a)
    top = int(max(dc[-1], sc[-1]))
    if not _dense(-top, top, dc.size + sc.size):
        return np.unique(np.concatenate((dc, sc)))
    occ = _bitmap(top + 1, _nonnegative(dc))
    occ[_nonnegative(sc)] = True
    half = occ.nonzero()[0]
    return np.concatenate((-half[:0:-1], half))


def contiguous_stats(lags) -> tuple[int, int]:
    """(uDOFs, CVA) of the zero-centered contiguous segment of a lag set.

    With m the largest integer such that every lag in [-m, m] is present,
    uDOFs = 2m + 1 and CVA (consecutive virtual aperture) = 2m.
    """
    values = _lags(lags)
    # 2m + 1 distinct lags fit in the values, so the segment and the lag
    # that ends it lie in [-reach, reach] however sparse the rest is
    reach = values.size
    near = values[(values >= -reach) & (values <= reach)]
    near += reach
    return _segment(_bitmap(2 * reach + 1, near), reach)


def holes(lags) -> LagSet:
    """Integers missing from a lag set between its min and max (at most
    MAX_SPAN of them)."""
    values = _lags(lags)
    lo, hi = int(values.min()), int(values.max())
    _listable_span(lo, hi)
    occ = _bitmap(hi - lo + 1, values - lo)
    return _marked(~occ, lo)


def spatial_efficiency(lags) -> float:
    """Fraction of the one-sided span that is usable contiguously: m / max(lags).

    1.0 for a hole-free lag set; degenerate single-lag {0} counts as fully
    efficient.
    """
    values = _lags(lags)
    return _efficiency(contiguous_stats(values)[0], int(values.max()))


def _efficiency(udofs: int, top: int) -> float:
    return 1.0 if top == 0 else ((udofs - 1) // 2) / top


def weight_table(a, lags: Iterable[int] | None = None) -> dict[int, int]:
    """w(f), the number of ordered sensor pairs (m1, m2) with m1 - m2 = f,
    for each requested lag (default: every lag in the difference set).
    w(f) = w(-f), and w(0) = N.

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
    """Snapshot of every co-array figure of merit for one array.

    ``sc_bitmap`` and ``sdc_bitmap`` mark the sum set and the sum-difference
    co-array over [-top, top], top being the largest lag of both.  The
    sorted ``sc``, ``sdc`` and ``hole_positions`` are read off them on first
    use and then kept; ``dc`` is ``difference_set``'s, formed eagerly."""

    array_name: str
    n: int
    dc: LagSet
    sc_bitmap: np.ndarray
    sdc_bitmap: np.ndarray
    udofs: int
    cva: int
    hole_count: int
    spatial_efficiency: float
    weights: dict[int, int]

    @cached_property
    def sc(self) -> LagSet:
        """The symmetric sum set, sorted."""
        return _centred(self.sc_bitmap)

    @cached_property
    def sdc(self) -> LagSet:
        """The sum-difference co-array, sorted."""
        return _centred(self.sdc_bitmap)

    @cached_property
    def hole_positions(self) -> tuple[int, ...]:
        """The lags of [-top, top] missing from the co-array, ascending."""
        return tuple(_centred(~self.sdc_bitmap).tolist())

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

    def lag_sets(self) -> dict[str, LagSet]:
        """The sorted lag sets by their JSON field names."""
        return {"dc": self.dc, "sc": self.sc, "sdc": self.sdc}

    def to_dict(self) -> dict:
        return {**self.figures(), **{k: v.tolist() for k, v in self.lag_sets().items()}}


#: The small lags whose weights a report counts.
WEIGHT_LAGS = (1, 2, 3)


def coarray_report(array: SensorArray) -> CoarrayReport:
    """Compute difference / sum / sum-difference sets and the derived merit
    figures (uDOFs, CVA, holes, spatial efficiency, the weights at
    WEIGHT_LAGS) in one pass that forms each pair difference and each pair
    sum once.

    Both sets are symmetric about 0 and reach at most top = max(aperture,
    2 * max|m|), which is known from the positions alone, so a span over
    MAX_SPAN lags is refused before anything span-sized is allocated.  dc is
    ``difference_set``'s; the pair sums, offset by top as they are formed,
    are scattered into one occupancy bitmap over [-top, top] and mirrored
    (the sum bitmap), and dc, offset by top, is marked in a copy of it for
    the union, whose contiguous segment and hole count are read off it.
    That is the range the hole list covers anyway, so the bitmaps need no
    density guard."""
    p, lo, hi = _extent(array)
    top = max(hi - lo, 2 * max(hi, -lo))
    _listable_span(-top, top)
    dc = difference_set(array)
    sums = _bitmap(2 * top + 1, (p + top)[:, None] + p)
    sums |= sums[::-1].copy()  # as in sum_set
    union = sums.copy()
    union[dc + top] = True
    udofs, cva = _segment(union, top)
    return CoarrayReport(
        array_name=array.name,
        n=array.n,
        dc=dc,
        sc_bitmap=sums,
        sdc_bitmap=union,
        udofs=udofs,
        cva=cva,
        hole_count=union.size - int(np.count_nonzero(union)),
        spatial_efficiency=_efficiency(udofs, top),
        weights=weight_table(array, WEIGHT_LAGS),
    )


REPORT_COLUMNS = ("array", "N", "udofs", "cva", "holes", "se", *(f"w{f}" for f in WEIGHT_LAGS))


def report_row(report: CoarrayReport) -> list:
    """One CSV row of Table-style metrics; se is a percentage with 2 decimals."""
    return [
        report.array_name,
        report.n,
        report.udofs,
        report.cva,
        report.hole_count,
        f"{100.0 * report.spatial_efficiency:.2f}",
        *(report.weights[f] for f in WEIGHT_LAGS),
    ]
