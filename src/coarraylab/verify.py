"""Brute-force verification of the closed-form co-array claims.

Each geometry family ships with closed-form expressions for its contiguous
lag range, total usable DOFs, hole layout and small-lag weights.  Each
checker sizes its array once, builds it from those AulasParams, enumerates
it once by raw pair enumeration (one ``coarray_report``) and compares; the
closed forms under test are never used to produce the reference side.
``run_all`` hands the w(1..3) each lemma check counted, and the AulasParams
it built, on to the weight check of the same array, so every array is
enumerated once and its weight check sizes nothing again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .coarray import CoarrayReport, coarray_report, weight_table
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


def _segment_miss(udofs: int, closed_udofs: int) -> int:
    """The first lag where two contiguous segments 2m + 1 lags wide differ."""
    return (min(udofs, closed_udofs) + 1) // 2


def _lemma_report(check: str, rep: CoarrayReport, p: AulasParams, claims: dict, details: dict,
                  first_lag: dict) -> LemmaReport:
    """The report of a lemma check.  ``first_lag`` maps a claim to a callable
    giving the first lag where brute force and the closed form disagree; it
    runs for failing claims only, so a passing report's details stay as they
    are."""
    missed = {c: first_lag[c]() for c, ok in claims.items() if not ok and c in first_lag}
    if missed:
        details["first_disagreement"] = missed
    return LemmaReport(check, rep.array_name, p.n, claims, details, rep.weights, p)


def _check_augmented(check: str, rep: CoarrayReport, p: AulasParams, shift: int) -> LemmaReport:
    """Shared body of lemmas 1 and 2: the base augmented ULA and its copy
    slid up by ``shift``.  The difference set does not move; the sum set and
    its band move up by 2*shift."""
    n1m, half = p.n1 * p.m, p.m // 2
    dc, sc = rep.dc, rep.sc

    top = n1m + half - 1
    lo, hi = band = (n1m - half + 2 * shift, 2 * n1m + p.m - 2 + 2 * shift)
    closed_udofs = 4 * n1m + 2 * p.m - 3 + 4 * shift
    plugs = (n1m + 1, n1m + 2)
    claims = {
        # the lags 0..top less n1m are dc's nonnegative part: dc ends at top,
        # holds top lags of [0, top] and not n1m
        "dc_contiguous_single_hole": (int(dc[-1]) == top and _count_in(dc, 0, top) == top
                                      and _count_in(dc, n1m, n1m) == 0),
        "sc_band_contiguous": _count_in(sc, lo, hi) == hi - lo + 1,
        "sc_max_is_twice_aperture": int(sc[-1]) == hi,
        "sum_lag_fills_dc_hole": _count_in(sc, n1m, n1m) == 1,
    }
    if shift:
        # both plugs n1m + 1, n1m + 2 are differences and neither is a sum
        claims["dc_fills_sc_holes"] = _count_in(dc, *plugs) == 2 and _count_in(sc, *plugs) == 0
    claims["sdc_hole_free"] = rep.hole_count == 0
    claims["udofs_matches_closed_form"] = rep.udofs == closed_udofs
    details = {
        "udofs_brute": rep.udofs,
        "udofs_closed": closed_udofs,
        "dc_hole": n1m,
        "sc_band": band,
    }
    first_lag = {
        "dc_contiguous_single_hole": lambda: _first_difference(
            dc, 0, max(int(dc[-1]), top), np.delete(np.arange(top + 1), n1m)),
        "sc_band_contiguous": lambda: _first_difference(sc, lo, hi, np.arange(lo, hi + 1)),
        "sc_max_is_twice_aperture": lambda: _first_difference(sc, hi, max(int(sc[-1]), hi), [hi]),
        "sum_lag_fills_dc_hole": lambda: n1m,
        "dc_fills_sc_holes": lambda: next(
            f for f in plugs if _count_in(dc, f, f) == 0 or _count_in(sc, f, f) == 1),
        "sdc_hole_free": lambda: rep.hole_positions[0],
        "udofs_matches_closed_form": lambda: _segment_miss(rep.udofs, closed_udofs),
    }
    return _lemma_report(check, rep, p, claims, details, first_lag)


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
    inside = [h for h in rep.hole_positions if abs(h) <= l_t1]
    claims = {
        "contiguous_through_l_t1": (rep.udofs - 1) // 2 == l_t1,
        "udofs_matches_closed_form": rep.udofs == closed_udofs,
        "holes_outside_segment": not inside,
        "hole_count_matches": rep.hole_count == p.m - 2,
        "span_matches": int(rep.sdc[-1]) == span,
    }
    details = {
        "udofs_brute": rep.udofs,
        "udofs_closed": closed_udofs,
        "l_t1": l_t1,
        "holes": rep.hole_positions,
    }
    first_lag = {
        "contiguous_through_l_t1": lambda: _segment_miss(rep.udofs, 2 * l_t1 + 1),
        "udofs_matches_closed_form": lambda: _segment_miss(rep.udofs, closed_udofs),
        "holes_outside_segment": lambda: inside[0],
        "span_matches": lambda: _first_difference(
            rep.sdc, span, max(int(rep.sdc[-1]), span), [span]),
    }
    return _lemma_report("lemma3", rep, p, claims, details, first_lag)


def check_lemma4(n: int) -> LemmaReport:
    """Compressed variant: the sum-difference co-array is hole-free over its
    whole span, 4*n1*m + 6*m - 7 DOFs with n1 = n - m."""
    p = AulasParams.for_family("cotsaulas", n)
    n1m = p.n1 * p.m
    rep = coarray_report(family_array("cotsaulas", p))

    closed_udofs = 4 * n1m + 6 * p.m - 7
    span = 2 * n1m + 3 * p.m - 4
    claims = {
        "sdc_hole_free": rep.hole_count == 0,
        "udofs_matches_closed_form": rep.udofs == closed_udofs,
        "span_matches": int(rep.sdc[-1]) == span and rep.udofs == 2 * span + 1,
    }
    details = {"udofs_brute": rep.udofs, "udofs_closed": closed_udofs, "span": span}
    first_lag = {
        "sdc_hole_free": lambda: rep.hole_positions[0],
        "udofs_matches_closed_form": lambda: _segment_miss(rep.udofs, closed_udofs),
        "span_matches": lambda: _first_difference(
            rep.sdc, 0, max(int(rep.sdc[-1]), span), np.arange(span + 1)),
    }
    return _lemma_report("lemma4", rep, p, claims, details, first_lag)


def closed_form_weights(family: str, n: int, params: AulasParams | None = None) -> dict[int, int]:
    """Predicted pair counts at lags 1..3 for each generated family;
    ``params``, when given, are the family's AulasParams at n."""
    family = family.lower()
    m = (params or AulasParams.for_family(family, n)).m
    if family in ("aulas", "saulas"):
        return {1: m - 3, 2: m - 4, 3: (m - 5 if m > 6 else m // 2)}
    if family == "tsaulas":
        return {1: 0, 2: m - 3, 3: 1}
    return {1: 1, 2: m - 3, 3: 2}


def check_weights(family: str, n: int, counted: Mapping[int, int] | None = None,
                  params: AulasParams | None = None) -> LemmaReport:
    """Compare closed-form w(1..3) against direct pair counting.  ``counted``
    and ``params`` take the w(1..3) that a check which enumerated the same
    array counted and the AulasParams it built; without them the array is
    designed and counted here."""
    predicted = closed_form_weights(family, n, params)
    if counted is None:
        counted = weight_table(design(family, n), (1, 2, 3))
    claims = {f"w{f}_matches": counted[f] == predicted[f] for f in (1, 2, 3)}
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
