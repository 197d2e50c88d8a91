"""Brute-force verification of the closed-form co-array claims.

Each geometry family ships with closed-form expressions for its contiguous
lag range, total usable DOFs, hole layout and small-lag weights.  Each
checker sizes its array once, builds it from those AulasParams, enumerates
it once by raw pair enumeration (one ``coarray_report``) and compares; the
closed forms under test are never used to produce the reference side.
``run_all`` hands the w(1..3) each lemma check counted, and the AulasParams
it built, on to the weight check of the same array, so every array is
enumerated once and its weight check sizes nothing again.  The windows of
the sum set and of the co-array are counted on the report's bitmaps, so a
passing check lists neither set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .coarray import WEIGHT_LAGS, CoarrayReport, _centred, coarray_report, weight_table
from .coarray import difference_set  # noqa: F401  (benchmarks/ reads verify.difference_set)
from .geometry import (
    FAMILIES,
    AulasParams,
    design,
    family_array,
    selected_sensor_counts,
    sensor_counts,
)


@dataclass(frozen=True)
class LemmaReport:
    """Outcome of one closed-form-vs-brute-force comparison."""

    check: str
    family: str
    n: int
    claims: dict[str, bool]
    details: dict
    #: w(1..3) as a lemma check counted them on the array it enumerated, and
    #: the AulasParams it built, for the weight check of the same array; not
    #: part of the report's output.
    weights: Mapping[int, int] | None = field(default=None, compare=False, repr=False)
    params: AulasParams | None = field(default=None, compare=False, repr=False)

    @property
    def passed(self) -> bool:
        return all(self.claims.values())

    def failures(self) -> tuple[str, ...]:
        return tuple(name for name, ok in self.claims.items() if not ok)

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "family": self.family,
            "n": self.n,
            "passed": self.passed,
            "claims": dict(self.claims),
            "details": {k: _plain(v) for k, v in self.details.items()},
        }


def _plain(value):
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    return value


def _count_in(lags: np.ndarray, lo: int, hi: int) -> int:
    """How many lags of a sorted lag set lie in [lo, hi]."""
    return int(lags.searchsorted(hi, "right") - lags.searchsorted(lo))


def _first_difference(lags: np.ndarray, lo: int, hi: int, expected) -> int | None:
    """The smallest lag of [lo, hi] that is in exactly one of the sorted lag
    set and the sorted ``expected`` lags of that range, or None."""
    got = lags[np.searchsorted(lags, lo):np.searchsorted(lags, hi, "right")]
    want = np.asarray(expected, dtype=np.int64)
    k = min(got.size, want.size)
    split = np.flatnonzero(got[:k] != want[:k])
    if split.size:
        return int(min(got[split[0]], want[split[0]]))
    return None if got.size == want.size else int(max(got, want, key=len)[k])


#: What a failing claim that names no lag maps to in a lemma check.
_NO_LAG = object()


def _window_miss(lags: np.ndarray, lo: int, hi: int, holes: tuple[int, ...] = (),
                 to_end: bool = False) -> int | None:
    """None when the sorted lag set, read over [lo, hi] (or, with ``to_end``,
    from lo up to its largest lag), holds every lag of [lo, hi] but the
    ``holes``; otherwise the first lag where it differs from those lags.
    Holes lie strictly inside a window read to the end.  The expected lags
    are built only on a miss."""
    want = hi - lo + 1 - len(holes)
    if to_end:
        # a set that ends at hi holds all want lags of [lo, hi] if the
        # want-th lag from its end is lo
        held = lags.item(-1) == hi and lags.size >= want and lags.item(-want) == lo
    else:
        below, upto = lags.searchsorted((lo, hi + 1)).tolist()
        held = upto - below == want
    # a window that holds no lag holds no hole either
    if held and not (want and holes and any(_count_in(lags, h, h) for h in holes)):
        return None
    end = max(lags.item(-1), hi) if to_end else hi
    return _first_difference(lags, lo, end, np.setdiff1d(np.arange(lo, hi + 1), holes))


def _bitmap_miss(occ: np.ndarray, lo: int, hi: int, holes: tuple[int, ...] = (),
                 to_end: bool = False) -> int | None:
    """``_window_miss`` of the lag set marked in a bitmap over [-top, top]
    (top = size // 2), whose window is one slice count: a window read to
    the end holds only if it ends at top, and one outside the bitmap never
    does.  Only a miss lists the lags, for ``_window_miss`` to name it."""
    top = occ.size // 2
    if (-top <= lo and hi <= top and (hi == top or not to_end)
            and np.count_nonzero(occ[lo + top:hi + top + 1]) == hi - lo + 1 - len(holes)
            and not (holes and any(occ[h + top] for h in holes))):
        return None
    return _window_miss(_centred(occ), lo, hi, holes, to_end)


def _segment_miss(udofs: int, closed_udofs: int) -> int | None:
    """None when two contiguous segments 2m + 1 lags wide agree, otherwise
    the first lag where they differ."""
    return None if udofs == closed_udofs else (min(udofs, closed_udofs) + 1) // 2


def _earliest(first: int | None, second: int | None) -> int | None:
    """The smaller lag of two misses, or None when neither missed."""
    return second if first is None else first if second is None else min(first, second)


def _lemma_report(check: str, rep: CoarrayReport, p: AulasParams, misses: dict,
                  details: dict) -> LemmaReport:
    """The report of a lemma check.  ``misses`` maps each claim to None when
    it holds and otherwise to the first lag where brute force and the closed
    form disagree (``_NO_LAG`` for a claim that names no lag); the failing
    claims' lags go to the details, so a passing report's stay as they are."""
    claims = {c: lag is None for c, lag in misses.items()}
    if not all(claims.values()):
        missed = {c: lag for c, lag in misses.items() if lag is not None and lag is not _NO_LAG}
        if missed:
            details["first_disagreement"] = missed
    return LemmaReport(check, rep.array_name, p.n, claims, details, rep.weights, p)


def _check_augmented(check: str, rep: CoarrayReport, p: AulasParams, shift: int) -> LemmaReport:
    """Shared body of lemmas 1 and 2: the base augmented ULA and its copy
    slid up by ``shift``.  The difference set does not move; the sum set and
    its band move up by 2*shift."""
    n1m, half = p.n1 * p.m, p.m // 2
    dc, sc = rep.dc, rep.sc_bitmap

    top = n1m + half - 1
    lo, hi = band = (n1m - half + 2 * shift, 2 * n1m + p.m - 2 + 2 * shift)
    closed_udofs = 4 * n1m + 2 * p.m - 3 + 4 * shift
    plugs = (n1m + 1, n1m + 2)
    misses = {
        # dc's nonnegative part is the lags 0..top less n1m
        "dc_contiguous_single_hole": _window_miss(dc, 0, top, (n1m,), to_end=True),
        "sc_band_contiguous": _bitmap_miss(sc, lo, hi),
        "sc_max_is_twice_aperture": _bitmap_miss(sc, hi, hi, to_end=True),
        "sum_lag_fills_dc_hole": _bitmap_miss(sc, n1m, n1m),
    }
    if shift:
        # both plugs n1m + 1, n1m + 2 are differences and neither is a sum
        misses["dc_fills_sc_holes"] = _earliest(_window_miss(dc, *plugs),
                                                _bitmap_miss(sc, *plugs, plugs))
    misses["sdc_hole_free"] = rep.hole_positions[0] if rep.hole_count else None
    misses["udofs_matches_closed_form"] = _segment_miss(rep.udofs, closed_udofs)
    details = {
        "udofs_brute": rep.udofs,
        "udofs_closed": closed_udofs,
        "dc_hole": n1m,
        "sc_band": band,
    }
    return _lemma_report(check, rep, p, misses, details)


def check_lemma1(n: int) -> LemmaReport:
    """Difference/sum structure of the base augmented ULA.

    Claims: the positive difference set is contiguous up to the aperture with
    a single hole at n1*m; the sum set is contiguous from n1*m - m/2 through
    twice the aperture and supplies the lag n1*m that plugs the difference
    hole; together the sum-difference co-array is hole-free with
    4*n1*m + 2*m - 3 usable DOFs.
    """
    p = AulasParams.for_family("aulas", n)
    return _check_augmented("lemma1", coarray_report(family_array("aulas", p)), p, shift=0)


def check_lemma2(n: int) -> LemmaReport:
    """Same structure for the shifted variant, where the roles invert: now
    the difference set plugs the two holes just above n1*m that the shifted
    sum set leaves behind, and the co-array keeps 4*n1*m + 4*m - 3 DOFs."""
    p = AulasParams.for_family("saulas", n)
    rep = coarray_report(family_array("saulas", p))
    return _check_augmented("lemma2", rep, p, shift=p.m // 2)


def check_lemma3(n: int) -> LemmaReport:
    """Transformed-shifted variant: contiguous through 2*n1*m + 2*m - 4 on
    each side (4*n1*m + 4*m - 7 DOFs) and every remaining hole lies strictly
    outside that segment, m - 2 of them in total."""
    p = AulasParams.for_family("tsaulas", n)
    n1m = p.n1 * p.m
    rep = coarray_report(family_array("tsaulas", p))

    l_t1 = 2 * n1m + 2 * p.m - 4
    closed_udofs = 4 * n1m + 4 * p.m - 7
    span = 2 * n1m + 3 * p.m - 6
    misses = {
        "contiguous_through_l_t1": _segment_miss(rep.udofs, 2 * l_t1 + 1),
        "udofs_matches_closed_form": _segment_miss(rep.udofs, closed_udofs),
        "holes_outside_segment": next((h for h in rep.hole_positions if abs(h) <= l_t1), None),
        "hole_count_matches": None if rep.hole_count == p.m - 2 else _NO_LAG,
        "span_matches": _bitmap_miss(rep.sdc_bitmap, span, span, to_end=True),
    }
    details = {
        "udofs_brute": rep.udofs,
        "udofs_closed": closed_udofs,
        "l_t1": l_t1,
        "holes": rep.hole_positions,
    }
    return _lemma_report("lemma3", rep, p, misses, details)


def check_lemma4(n: int) -> LemmaReport:
    """Compressed variant: the sum-difference co-array is hole-free over its
    whole span, 4*n1*m + 6*m - 7 DOFs with n1 = n - m."""
    p = AulasParams.for_family("cotsaulas", n)
    n1m = p.n1 * p.m
    rep = coarray_report(family_array("cotsaulas", p))

    closed_udofs = 4 * n1m + 6 * p.m - 7
    span = 2 * n1m + 3 * p.m - 4
    misses = {
        "sdc_hole_free": rep.hole_positions[0] if rep.hole_count else None,
        "udofs_matches_closed_form": _segment_miss(rep.udofs, closed_udofs),
        "span_matches": _bitmap_miss(rep.sdc_bitmap, 0, span, to_end=True),
    }
    details = {"udofs_brute": rep.udofs, "udofs_closed": closed_udofs, "span": span}
    return _lemma_report("lemma4", rep, p, misses, details)


def closed_form_weights(family: str, n: int, params: AulasParams | None = None) -> dict[int, int]:
    """Predicted pair counts w(1), w(2), w(3) at the WEIGHT_LAGS (1, 2, 3)
    for each generated family; ``params``, when given, are the family's
    AulasParams at n."""
    family = family.lower()
    m = (params or AulasParams.for_family(family, n)).m
    if family in ("aulas", "saulas"):
        counts = (m - 3, m - 4, m - 5 if m > 6 else m // 2)
    elif family == "tsaulas":
        counts = (0, m - 3, 1)
    else:
        counts = (1, m - 3, 2)
    return dict(zip(WEIGHT_LAGS, counts))


def check_weights(family: str, n: int, counted: Mapping[int, int] | None = None,
                  params: AulasParams | None = None) -> LemmaReport:
    """Compare closed-form w(1..3) against direct pair counting.  ``counted``
    and ``params`` take the weights that a check which enumerated the same
    array counted and the AulasParams it built; without them the array is
    designed and counted here."""
    predicted = closed_form_weights(family, n, params)
    if counted is None:
        counted = weight_table(design(family, n), WEIGHT_LAGS)
    claims = {f"w{f}_matches": counted[f] == predicted[f] for f in WEIGHT_LAGS}
    details = {"counted": dict(counted), "closed_form": predicted}
    return LemmaReport("weights", FAMILIES[family.lower()].display_name, n, claims, details)


#: Each lemma check: the family it makes its claims about and its checker.
_LEMMAS = (
    ("lemma1", "aulas", check_lemma1),
    ("lemma2", "saulas", check_lemma2),
    ("lemma3", "tsaulas", check_lemma3),
    ("lemma4", "cotsaulas", check_lemma4),
)
LEMMA_FAMILIES = {check: family for check, family, _ in _LEMMAS}
_CHECKERS = {check: checker for check, _, checker in _LEMMAS}

#: The largest sensor count each check runs at by default.
N_MAX = 64


def run_lemma_sweep(
    check: str, n_values: Iterable[int] | None = None
) -> list[LemmaReport]:
    checker = _CHECKERS[check]
    if n_values is None:
        n_values = sensor_counts(LEMMA_FAMILIES[check], 0, N_MAX)
    return [checker(n) for n in n_values]


def run_all(n_max: int = N_MAX, n_min: Mapping[str, int] | None = None) -> list[LemmaReport]:
    """Every lemma at every admissible sensor count up to n_max, then the
    closed-form weight checks of every family over the same counts.
    ``n_min`` maps a family name to the smallest count checked for it (by
    default its smallest admissible size); this is the report list of the
    ``verify-lemmas`` command too.  Every range is checked before any
    check runs, and ranges that hold no sensor count at all are an error.

    Each (family, n) array is designed and enumerated once, by its lemma
    check's one ``coarray_report``.  Every family is a lemma's family, so
    each weight check is paired with the lemma report of its array and
    reads the w(1..3) that report counted and the AulasParams it carries;
    the weight checks follow the lemma reports in the same order."""
    n_min = n_min or {}
    sizes = selected_sensor_counts({f: n_min.get(f, 0) for f in FAMILIES}, n_max)
    lemmas = [r for check, family in LEMMA_FAMILIES.items()
              for r in run_lemma_sweep(check, sizes[family])]
    return lemmas + [check_weights(LEMMA_FAMILIES[r.check], r.n, r.weights, r.params)
                     for r in lemmas]


def shift_study(n: int, shift: int) -> CoarrayReport:
    """Co-array consequences of sliding the whole base geometry by ``shift``
    grid units (keeping every inter-subarray offset fixed): the difference
    set never moves, but the sum set translates by 2*shift, so the splice
    between the two survives only for particular shifts.
    """
    return coarray_report(design("aulas", n).translated(shift))
