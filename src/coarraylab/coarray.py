"""Exact co-array analytics for integer-positioned linear arrays.

Lag sets are plain sorted numpy int64 vectors with duplicates removed.  The
second-order statistics of strictly non-circular sources expose both the
difference set {m_u - m_v} and the symmetric sum set +/-{m_u + m_v}, so the
central object here is their union (the sum-difference co-array).  Everything
is brute-force enumeration over sensor pairs; closed-form claims elsewhere in
the package are checked against these routines, never the other way around.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .geometry import SensorArray, _integer_positions

LagSet = np.ndarray


def _positions(a) -> np.ndarray:
    """Sensor positions as int64; raw input must pass the SensorArray rule."""
    if isinstance(a, SensorArray):
        return a.as_array()
    return np.asarray(_integer_positions(a), dtype=np.int64)


def _lagset(*parts) -> LagSet:
    """The distinct lags of all the given value arrays together, sorted."""
    return np.unique(np.concatenate([np.asarray(v, dtype=np.int64).ravel() for v in parts]))


def difference_set(a, b=None) -> LagSet:
    """All pairwise differences {m_v - m_u : m_v in b, m_u in a}.

    With one argument this is the (self-)difference co-array, which is always
    symmetric about 0 and contains 0.
    """
    pa = _positions(a)
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
    ls = _lagset(lags)
    present = set(ls.tolist())
    if 0 not in present:
        raise ValueError("lag set does not contain 0")
    m = 0
    while (m + 1) in present and -(m + 1) in present:
        m += 1
    return 2 * m + 1, 2 * m


def holes(lags) -> LagSet:
    """Integers missing from a lag set between its min and max."""
    ls = _lagset(lags)
    full = np.arange(ls[0], ls[-1] + 1, dtype=np.int64)
    return np.setdiff1d(full, ls, assume_unique=True)


def spatial_efficiency(lags) -> float:
    """Fraction of the one-sided span that is usable contiguously: m / max(lags).

    1.0 for a hole-free lag set; degenerate single-lag {0} counts as fully
    efficient.
    """
    ls = _lagset(lags)
    return _efficiency(contiguous_stats(ls)[0], int(ls[-1]))


def _efficiency(udofs: int, top: int) -> float:
    return 1.0 if top == 0 else ((udofs - 1) // 2) / top


def weight_function(a, f: int) -> int:
    """Number of sensor pairs (m1, m2) with m1 - m2 = f.

    Counting ordered pairs at signed lag f equals counting unordered pairs at
    |f|, so this single definition serves both conventions (w(f) = w(-f), and
    w(0) = N).
    """
    return weight_table(a, (f,))[int(f)]


def weight_table(a, lags: Iterable[int] | None = None) -> dict[int, int]:
    """w(f) for each requested lag (default: every lag in the difference set).

    A requested lag is counted without enumerating the N^2 differences:
    w(f) sums, over each position m_u, how many positions equal m_u - f.
    """
    p = _positions(a)
    if lags is None:
        values, counts = np.unique(p[:, None] - p[None, :], return_counts=True)
        return dict(zip(values.tolist(), counts.tolist()))
    s = np.sort(p)
    table = {}
    for f in lags:
        below = s - int(f)
        hits = np.searchsorted(s, below, "right") - np.searchsorted(s, below, "left")
        table[int(f)] = int(hits.sum())
    return table


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

    def to_dict(self) -> dict:
        return {
            "array": self.array_name,
            "n": self.n,
            "dc": [int(x) for x in self.dc],
            "sc": [int(x) for x in self.sc],
            "sdc": [int(x) for x in self.sdc],
            "udofs": self.udofs,
            "cva": self.cva,
            "holes": self.hole_count,
            "hole_positions": [int(x) for x in self.hole_positions],
            "spatial_efficiency": self.spatial_efficiency,
            "weights": {str(k): v for k, v in sorted(self.weights.items())},
        }


def coarray_report(array: SensorArray, weight_lags: Sequence[int] = (1, 2, 3)) -> CoarrayReport:
    """Compute difference / sum / sum-difference sets and the derived merit
    figures (uDOFs, CVA, holes, spatial efficiency, small-lag weights) in one
    pass that enumerates each set once."""
    dc = difference_set(array)
    sc = sum_set(array)
    sdc = _lagset(dc, sc)
    udofs, cva = contiguous_stats(sdc)
    hole_set = holes(sdc)
    return CoarrayReport(
        array_name=array.name,
        n=array.n,
        dc=dc,
        sc=sc,
        sdc=sdc,
        udofs=udofs,
        cva=cva,
        hole_count=int(hole_set.size),
        hole_positions=tuple(int(h) for h in hole_set),
        spatial_efficiency=_efficiency(udofs, int(sdc[-1])),
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


def reports_to_csv(reports: Iterable[CoarrayReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(REPORT_COLUMNS)
    for rep in reports:
        writer.writerow(report_row(rep))
    return buf.getvalue()
