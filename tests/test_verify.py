"""Tests for the brute-force checkers that compare each family's closed-form
co-array claims against directly enumerated lag sets."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from coarraylab import coarray, coupling, geometry, verify
from coarraylab.cli import EXIT_OK, main
from coarraylab.geometry import sensor_counts
from coarraylab.verify import (
    LEMMA_FAMILIES,
    N_MAX,
    LemmaReport,
    check_lemma1,
    check_lemma2,
    check_lemma3,
    check_lemma4,
    check_weights,
    closed_form_weights,
    run_all,
    run_lemma_sweep,
    shift_study,
)


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------


def test_report_pass_fail_accounting():
    ok = LemmaReport("x", "fam", 9, {"a": True, "b": True}, {})
    assert ok.passed and ok.failures() == ()
    bad = LemmaReport("x", "fam", 9, {"a": False, "b": True}, {"v": np.array([1, 2])})
    assert not bad.passed
    assert bad.failures() == ("a",)
    payload = json.loads(json.dumps(bad.to_dict()))
    assert payload["passed"] is False
    assert payload["details"]["v"] == [1, 2]


# ---------------------------------------------------------------------------
# Frozen spot values for each closed-form DOF count
# ---------------------------------------------------------------------------

SPOT_UDOFS = [
    (check_lemma1, 9, 105),
    (check_lemma1, 16, 301),
    (check_lemma2, 9, 117),
    (check_lemma2, 12, 189),
    (check_lemma3, 5, 41),
    (check_lemma3, 9, 113),
    (check_lemma3, 12, 185),
    (check_lemma4, 9, 101),
    (check_lemma4, 12, 173),
    (check_lemma4, 20, 453),
]


@pytest.mark.parametrize(("checker", "n", "udofs"), SPOT_UDOFS)
def test_lemma_spot_values(checker, n, udofs):
    report = checker(n)
    assert report.passed, report.failures()
    assert report.details["udofs_brute"] == udofs
    assert report.details["udofs_closed"] == udofs


def test_lemma3_smallest_case_hole_positions():
    report = check_lemma3(5)
    np.testing.assert_array_equal(report.details["holes"], [-21, 21])


def test_lemma_claims_cover_expected_structure():
    assert set(check_lemma1(9).claims) == {
        "dc_contiguous_single_hole",
        "sc_band_contiguous",
        "sc_max_is_twice_aperture",
        "sum_lag_fills_dc_hole",
        "sdc_hole_free",
        "udofs_matches_closed_form",
    }
    assert "dc_fills_sc_holes" in check_lemma2(9).claims
    assert "holes_outside_segment" in check_lemma3(9).claims
    assert "span_matches" in check_lemma4(9).claims


def test_brute_force_count_agrees_with_direct_enumeration():
    direct, _ = coarray.contiguous_stats(
        coarray.sum_difference_coarray(geometry.design_saulas(12))
    )
    assert check_lemma2(12).details["udofs_brute"] == direct


LEMMA_CASES = [
    (check, n) for check, family in LEMMA_FAMILIES.items()
    for n in sensor_counts(family, 0, N_MAX)
]


@given(st.sampled_from(LEMMA_CASES))
def test_checker_reads_the_direct_enumerations(case):
    """Every brute-force figure a checker reads off its one coarray_report
    equals the separate direct enumeration of the same array."""
    check, n = case
    report = verify._CHECKERS[check](n)
    array = geometry.design(verify.LEMMA_FAMILIES[check], n)
    rep = coarray.coarray_report(array)
    sdc = coarray.sum_difference_coarray(array)
    udofs, cva = coarray.contiguous_stats(sdc)
    np.testing.assert_array_equal(rep.dc, coarray.difference_set(array))
    np.testing.assert_array_equal(rep.sc, coarray.sum_set(array))
    np.testing.assert_array_equal(rep.sdc, sdc)
    assert (rep.udofs, rep.cva) == (udofs, cva)
    assert rep.hole_positions == tuple(coarray.holes(sdc).tolist())
    assert rep.spatial_efficiency == coarray.spatial_efficiency(sdc)
    assert report.details["udofs_brute"] == udofs
    if check == "lemma3":
        assert list(report.details["holes"]) == coarray.holes(sdc).tolist()
    assert report.passed, report.failures()


@given(st.sets(st.integers(-30, 30), max_size=20), st.integers(-35, 35), st.integers(0, 12))
def test_count_in_counts_set_members_in_the_interval(lags, lo, width):
    hi = lo + width
    expected = sum(lo <= f <= hi for f in lags)
    assert verify._count_in(np.array(sorted(lags), dtype=np.int64), lo, hi) == expected


@given(st.sets(st.integers(-30, 30), max_size=20), st.sets(st.integers(-30, 30), max_size=20),
       st.integers(-35, 35), st.integers(0, 12))
def test_first_difference_is_the_smallest_lag_in_one_set_only(lags, expected, lo, width):
    hi = lo + width
    within = sorted(f for f in expected if lo <= f <= hi)
    odd = {f for f in lags ^ set(within) if lo <= f <= hi}
    got = verify._first_difference(np.array(sorted(lags), dtype=np.int64), lo, hi, within)
    assert got == (min(odd) if odd else None)


@given(st.integers(9, 64), st.booleans(),
       st.sets(st.tuples(st.sampled_from(["zero", "hole", "top"]), st.integers(-2, 2)),
               max_size=3))
@example(9, False, {("top", 1)})   # a lag past the top
@example(12, True, {("hole", 0)})  # the hole filled
@example(9, False, {("top", 0)})   # the top missing
def test_dc_claim_counts_equal_the_expected_vector(n, shifted, toggles):
    """The three range counts of dc_contiguous_single_hole against the
    nonnegative part of dc compared whole, on the lag set of an AULAs or
    SAULAs array with lags toggled near 0, the hole n1*m and the top."""
    family = "saulas" if shifted else "aulas"
    p = geometry.AulasParams.for_family(family, n)
    n1m, top = p.n1 * p.m, p.n1 * p.m + p.m // 2 - 1
    anchors = {"zero": 0, "hole": n1m, "top": top}
    rep = coarray.coarray_report(geometry.design(family, n))
    dc = set(rep.dc.tolist()) ^ {anchors[a] + d for a, d in toggles}
    dc = np.array(sorted(dc), dtype=np.int64)
    report = verify._check_augmented("lemma", dataclasses.replace(rep, dc=dc), p,
                                     shift=p.m // 2 if shifted else 0)
    expected = np.delete(np.arange(top + 1), n1m)
    assert report.claims["dc_contiguous_single_hole"] == np.array_equal(dc[dc >= 0], expected)


def _substitute(monkeypatch, family, positions):
    """Make ``family`` lay out ``positions`` at every size, where the lemma
    checks build their arrays: through geometry.FAMILIES."""
    spec = geometry.FAMILIES[family]
    monkeypatch.setitem(geometry.FAMILIES, family,
                        spec._replace(layout=lambda p: np.array(positions)))


def test_failing_lemma_claims_name_their_first_disagreeing_lag(monkeypatch):
    # AULAs(9) is (0, 6, 12, 18, 21, 22, 23, 25, 26); without its last sensor
    # the lag 8 is no difference any more, and 52 no sum
    _substitute(monkeypatch, "aulas", geometry.design_aulas(9).positions[:-1])
    report = check_lemma1(9)
    assert report.details.pop("first_disagreement") == {
        "dc_contiguous_single_hole": 8,
        "sc_band_contiguous": 26,
        "sc_max_is_twice_aperture": 52,
        "sdc_hole_free": -49,
        "udofs_matches_closed_form": 8,
    }
    assert set(report.failures()) == {"dc_contiguous_single_hole", "sc_band_contiguous",
                                      "sc_max_is_twice_aperture", "sdc_hole_free",
                                      "udofs_matches_closed_form"}
    assert report.details == {"udofs_brute": 15, "udofs_closed": 105, "dc_hole": 24,
                              "sc_band": (21, 52)}


def test_a_wrong_shift_names_the_lags_it_moves():
    # SAULAs(9) sits at shift m/2 = 3; claimed at shift 4, the sum band would
    # end at 60, but the sums stop at 58
    p = geometry.AulasParams.for_family("saulas", 9)
    rep = coarray.coarray_report(geometry.design_saulas(9))
    report = verify._check_augmented("lemma2", rep, p, shift=p.m // 2 + 1)
    assert report.details["first_disagreement"] == {
        "sc_band_contiguous": 59,
        "sc_max_is_twice_aperture": 60,
        "udofs_matches_closed_form": 59,
    }
    assert "first_disagreement" not in check_lemma2(9).details


def test_failing_lemma3_and_lemma4_claims_name_their_first_lag(monkeypatch):
    tsaulas = geometry.design_tsaulas(9).positions  # (-26, 3, 9, ..., 30)
    cotsaulas = geometry.design_cotsaulas(9).positions  # (-20, 3, ..., 24, 25)
    _substitute(monkeypatch, "tsaulas", tsaulas[1:])
    _substitute(monkeypatch, "cotsaulas", cotsaulas[:-1])
    assert check_lemma3(9).details["first_disagreement"] == {
        "contiguous_through_l_t1": 1,
        "udofs_matches_closed_form": 1,
        "holes_outside_segment": -54,
    }
    assert check_lemma4(9).details["first_disagreement"] == {
        "sdc_hole_free": -47,
        "udofs_matches_closed_form": 45,
        "span_matches": 45,
    }


def test_run_all_enumerates_each_lemma_array_once(count_calls, monkeypatch):
    counts = count_calls(["geometry.design", "coarray.difference_set", "coarray.sum_set",
                          "coarray.sum_difference_coarray", "coarray.weight_table"])
    enumerated = []
    report = coarray.coarray_report

    def recording(array, *args, **kwargs):
        enumerated.append((array.name, array.n))
        return report(array, *args, **kwargs)

    sized = []
    for_family = geometry.AulasParams.for_family

    def sizing(family, n):
        sized.append((geometry.FAMILIES[family].display_name, n))
        return for_family(family, n)

    monkeypatch.setattr(coarray, "coarray_report", recording)
    monkeypatch.setattr(verify, "coarray_report", recording)
    monkeypatch.setattr(geometry.AulasParams, "for_family", staticmethod(sizing))
    reports = run_all(16)
    lemmas = [(r.family, r.n) for r in reports if r.check.startswith("lemma")]
    assert len(lemmas) == sum(len(sensor_counts(f, 0, 16)) for f in LEMMA_FAMILIES.values())
    # one report per (family, n), and the weight checks read its counts;
    # each array is sized once, by its lemma check, which builds it from
    # those AulasParams
    assert enumerated == lemmas
    assert sized == lemmas
    assert sorted((r.family, r.n) for r in reports if r.check == "weights") == sorted(lemmas)
    # each report takes dc from difference_set and counts w(1..3) once; the
    # weight checks design nothing (check_weights alone designs through
    # geometry.design), and sum_set and sum_difference_coarray never run
    assert counts == dict.fromkeys(("coarray.difference_set", "coarray.weight_table"),
                                   len(lemmas))


def test_the_lemma_families_are_the_families_in_order():
    """run_all pairs each family's weight checks with its lemma reports and
    keeps the family order of the weight checks."""
    assert tuple(LEMMA_FAMILIES.values()) == tuple(geometry.FAMILIES)


def test_run_all_reports_equal_the_standalone_checks():
    families = {spec.display_name: name for name, spec in geometry.FAMILIES.items()}
    for r in run_all(24):
        if r.check == "weights":
            alone = check_weights(families[r.family], r.n)
        else:
            alone = verify._CHECKERS[r.check](r.n)
        assert r.to_dict() == alone.to_dict()


def test_run_all_keeps_only_the_weights_of_each_report():
    run_all(12)
    tracemalloc.start()
    try:
        run_all(64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20


#: sha256 of run_all(64)'s reports, one sorted-key JSON line each, as
#: computed by np.unique enumeration before the bitmap lag sets.
RUN_ALL_64_SHA256 = "d3b0b58c025a2cdb3cb5f3510f70332af39a7bf4819f47dc4ceaf99a18337cf1"


def test_run_all_reports_are_unchanged():
    text = "\n".join(json.dumps(r.to_dict(), sort_keys=True) for r in run_all(64))
    assert hashlib.sha256(text.encode()).hexdigest() == RUN_ALL_64_SHA256


#: sha256 of two large-N CLI outputs, captured before the co-array bitmaps
#: were filled in place: a sweep of every generated family at n 1000-1004,
#: and the full TSAULAs(1024) analysis, whose dc, sc and sdc lists and
#: mirrored negative sensor exercise the bitmap offsets.  Each coupling
#: leakage is blanked before hashing: it is a BLAS dot product whose last
#: bits depend on the BLAS thread count, and it is checked on its own.
LARGE_N_SHA256 = {
    "sweep_n1000": (
        ["sweep", "--families", "aulas,saulas,tsaulas,cotsaulas,ula",
         "--n-min", "1000", "--n-max", "1004", "--format", "json"],
        "e2bc0970784f1c38beeb79e7026a67bf4cb7aac4a567025f948be891d05e1c74",
    ),
    "analyze_tsaulas1024": (
        ["analyze", "--family", "tsaulas", "--n", "1024", "--format", "json"],
        "31006648179ec92b7a0c6c7407b0a594679653687caa826320315911a10d1b0f",
    ),
}
LEAKAGE = re.compile(rb'("coupling_leakage": )[^,\n]+')


@pytest.mark.parametrize("name", sorted(LARGE_N_SHA256))
def test_large_n_outputs_are_unchanged(name, tmp_path):
    argv, digest = LARGE_N_SHA256[name]
    target = tmp_path / "out.json"
    assert main([*argv, "--output", str(target)]) == EXIT_OK
    text = target.read_bytes()
    assert hashlib.sha256(LEAKAGE.sub(rb"\1_", text)).hexdigest() == digest
    rows = json.loads(text)
    if isinstance(rows, dict):
        rows = [{**rows, "family": argv[argv.index("--family") + 1]}]
    model = coupling.get_preset("paper-v")
    assert [r["coupling_leakage"] for r in rows] == [
        coupling.coupling_leakage(coupling.coupling_matrix(geometry.design(r["family"], r["n"]), model))
        for r in rows
    ]


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("check", sorted(LEMMA_FAMILIES))
def test_full_sweep_passes(check):
    reports = run_lemma_sweep(check)
    assert [r.n for r in reports] == list(sensor_counts(LEMMA_FAMILIES[check], 0, N_MAX))
    assert reports[0].n == geometry.FAMILIES[LEMMA_FAMILIES[check]].min_n
    assert reports[-1].n == N_MAX == 64
    failing = [r for r in reports if not r.passed]
    assert failing == []


def test_sweep_accepts_explicit_sizes():
    reports = run_lemma_sweep("lemma4", [9, 15, 33])
    assert [r.n for r in reports] == [9, 15, 33]
    assert all(r.passed for r in reports)


def test_sweep_rejects_inadmissible_size():
    with pytest.raises(geometry.DesignError):
        run_lemma_sweep("lemma1", [5])
    with pytest.raises(KeyError):
        run_lemma_sweep("lemma999")


@pytest.mark.parametrize(("n_min", "tsaulas"), [(None, "tsaulas n 0..4"),
                                                 ({"tsaulas": 3}, "tsaulas n 3..4 (smallest 5)")])
def test_run_all_refuses_ranges_without_a_sensor_count(n_min, tsaulas):
    with pytest.raises(geometry.DesignError, match="^no sensor count selected: aulas n 0") as err:
        run_all(4, n_min)
    assert tsaulas in str(err.value)


def test_run_all_runs_when_one_family_has_sizes():
    assert {(r.check, r.n) for r in run_all(6)} == {
        (check, n) for check in ("lemma3", "weights") for n in (5, 6)}


def test_run_all_small_cap():
    reports = run_all(n_max=16)
    # lemma1/lemma2/lemma4 checkers over 9..16, the lemma3 checker over
    # 5..16, weight checks for four families (tsaulas admits sizes from 5)
    assert len(reports) == 3 * 8 + 12 + 3 * 8 + 12
    assert all(r.passed for r in reports)


# ---------------------------------------------------------------------------
# Closed-form weights
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    ("family", "n", "expected"),
    [
        ("aulas", 12, {1: 3, 2: 2, 3: 3}),
        ("aulas", 13, {1: 5, 2: 4, 3: 3}),
        ("saulas", 13, {1: 5, 2: 4, 3: 3}),
        ("tsaulas", 12, {1: 0, 2: 3, 3: 1}),
        ("cotsaulas", 12, {1: 1, 2: 3, 3: 2}),
    ],
)
def test_closed_form_weights_frozen(family, n, expected):
    assert closed_form_weights(family, n) == expected


def test_closed_form_weights_rejects_unknown_family():
    with pytest.raises(ValueError):
        closed_form_weights("ula", 9)


@pytest.mark.parametrize("family", ["aulas", "saulas", "tsaulas", "cotsaulas"])
@pytest.mark.parametrize("n", [9, 12, 16, 23, 40])
def test_weight_checks_pass(family, n):
    report = check_weights(family, n)
    assert report.passed, report.failures()


def test_weight_check_smallest_transformed_shifted():
    assert check_weights("tsaulas", 5).passed


# ---------------------------------------------------------------------------
# Shift study
# ---------------------------------------------------------------------------


def test_shift_zero_reproduces_base_geometry():
    base = coarray.coarray_report(geometry.design_aulas(9))
    shifted = shift_study(9, 0)
    assert shifted.udofs == base.udofs
    assert shifted.hole_count == base.hole_count
    np.testing.assert_array_equal(shifted.sdc, base.sdc)
    assert shifted.array_name == "AULAs+0"


def test_designated_shift_keeps_coarray_hole_free():
    report = shift_study(9, 3)
    assert report.hole_count == 0
    assert report.udofs == 117
    assert int(report.sdc[-1]) == 58


def test_one_step_past_designated_shift_breaks_the_splice():
    report = shift_study(9, 4)
    assert report.hole_count >= 1
    assert 24 in report.hole_positions
    assert report.udofs == 47


def test_larger_shift_grows_span_but_keeps_holes():
    report = shift_study(9, 5)
    assert int(report.sdc[-1]) == 62
    assert report.hole_count > 0


@pytest.mark.parametrize("shift", [1.5, True, float("inf")])
def test_shift_study_rejects_non_integer_shifts(shift):
    with pytest.raises(ValueError, match="shift"):
        shift_study(9, shift)


def test_difference_set_is_shift_invariant():
    base = coarray.coarray_report(geometry.design_aulas(12))
    for s in (1, 2, 3, 7):
        np.testing.assert_array_equal(shift_study(12, s).dc, base.dc)
