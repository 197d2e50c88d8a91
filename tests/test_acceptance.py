"""Acceptance suite: ten numbered guarantees, one test (and one pytest -v
pass/fail line) each.  Tolerances and runtime budgets are pinned in-line."""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from coarraylab import coarray, coupling, estimation, geometry, presets, signal, verify

FAMILIES_N12 = {
    "AULAs": geometry.design_aulas(12),
    "SAULAs": geometry.design_saulas(12),
    "TSAULAs": geometry.design_tsaulas(12),
    "Co-TSAULAs": geometry.design_cotsaulas(12),
    "NA": geometry.design_nested(6, 6),
}


def test_criterion_01_coarray_metric_table_at_twelve_sensors():
    expected = {
        # name: (udofs, holes, cva, spatial efficiency %)
        "AULAs": (177, 0, 176, 100.0),
        "SAULAs": (189, 0, 188, 100.0),
        "TSAULAs": (185, 4, 184, 95.8),
        "Co-TSAULAs": (173, 0, 172, 100.0),
        "NA": (95, 60, 94, 57.3),
    }
    start = time.perf_counter()
    for name, (udofs, hole_count, cva, se_pct) in expected.items():
        report = coarray.coarray_report(FAMILIES_N12[name])
        assert report.udofs == udofs, name
        assert report.hole_count == hole_count, name
        assert report.cva == cva, name
        assert 100.0 * report.spatial_efficiency == pytest.approx(se_pct, abs=0.05), name
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"metric table took {elapsed:.2f} s"


def test_criterion_02_pair_separation_counts_at_twelve_sensors():
    expected = {
        "AULAs": (3, 2, 3),
        "SAULAs": (3, 2, 3),
        "TSAULAs": (0, 3, 1),
        "Co-TSAULAs": (1, 3, 2),
        "NA": (6, 5, 4),
    }
    for name, (w1, w2, w3) in expected.items():
        table = coarray.weight_table(FAMILIES_N12[name], (1, 2, 3))
        assert (table[1], table[2], table[3]) == (w1, w2, w3), name


def test_criterion_03_coupling_leakage_at_twelve_sensors():
    expected = {
        "AULAs": 0.249,
        "SAULAs": 0.249,
        "TSAULAs": 0.140,
        "Co-TSAULAs": 0.189,
        "NA": 0.33,
    }
    start = time.perf_counter()
    for name, target in expected.items():
        c = coupling.coupling_matrix(FAMILIES_N12[name], coupling.PAPER_V)
        assert coupling.coupling_leakage(c) == pytest.approx(target, abs=0.005), name
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"leakage table took {elapsed:.2f} s"


def test_criterion_04_closed_form_claims_hold_at_every_admissible_size():
    start = time.perf_counter()
    failures = []
    for check, family in sorted(verify.LEMMA_FAMILIES.items()):
        sizes = geometry.sensor_counts(family, 0, verify.N_MAX)
        reports = verify.run_lemma_sweep(check, sizes)
        assert [r.n for r in reports] == list(sizes)
        for report in reports:
            if not report.passed:
                failures.append((check, report.n, report.failures()))
    elapsed = time.perf_counter() - start
    assert failures == []
    assert elapsed < 30.0, f"brute-force sweep took {elapsed:.2f} s"


def test_criterion_05_designated_shift_is_the_splice_optimum():
    designated = verify.shift_study(9, 3)
    assert designated.hole_count == 0
    assert designated.udofs == 117

    one_past = verify.shift_study(9, 4)
    one_sided = (one_past.udofs - 1) // 2
    assert one_sided <= 24
    reduction = 1.0 - one_sided / ((designated.udofs - 1) // 2)
    assert reduction >= 0.58

    further = verify.shift_study(9, 5)
    assert further.hole_count > designated.hole_count


def test_criterion_06_consecutive_sizes_share_inbuilt_locations():
    for n in range(9, 64):
        if math.ceil(n / 4) != math.ceil((n + 1) / 4):
            continue
        a = geometry.design_aulas(n)
        b = geometry.design_aulas(n + 1)
        shared = geometry.inbuilt_shared_locations(a, b)
        m = geometry.AulasParams.for_family("aulas", n).m
        assert len(shared) >= m - 2, f"N={n}: {len(shared)} shared < {m - 2}"


def test_criterion_07_noiseless_single_source_pipeline_is_grid_exact():
    config = estimation.MusicConfig(num_sources=1)  # 0.01-degree grid
    for name in ("AULAs", "SAULAs", "TSAULAs", "Co-TSAULAs"):
        array = FAMILIES_N12[name]
        for theta in (-60.0, 0.0, 37.0):
            scenario = signal.Scenario(
                angles_deg=(theta,), snapshots=1, snr_db=None
            )
            ec = signal.exact_extended_covariance(array, scenario)
            vo = signal.virtual_observation(ec, signal.lag_plan(array))
            ideal = np.exp(-1j * np.pi * vo.lags * np.sin(np.deg2rad(theta)))
            assert np.abs(vo.values - ideal).max() < 1e-8, (name, theta)

            r_ss = estimation.SmoothedCovariance(vo)
            angles, spectrum = estimation.music_spectrum(r_ss, config)
            peaks, under = estimation.pick_peaks(angles, spectrum, 1)
            assert not under, (name, theta)
            assert abs(peaks[0] - theta) <= config.grid_step + 1e-9, (name, theta)


def test_criterion_08_resolves_55_sources_with_12_sensors():
    start = time.perf_counter()
    preset = presets.get_scenario_preset("fig12")
    trials = 20
    truth = np.sort(np.asarray(preset.scenario.angles_deg))

    shifted = estimation.monte_carlo(
        FAMILIES_N12["SAULAs"], preset.scenario, preset.music, trials,
        coupling=preset.coupling,
    )
    qualifying = 0
    for estimates in shifted.estimates_per_trial:
        est = np.asarray(estimates)
        if est.size == truth.size and np.abs(np.sort(est) - truth).max() < 0.5:
            qualifying += 1
    assert qualifying >= 0.9 * trials, f"only {qualifying}/{trials} clean trials"

    nested = estimation.monte_carlo(
        FAMILIES_N12["NA"], preset.scenario, preset.music, trials,
        coupling=preset.coupling,
    )
    assert shifted.rmse_deg < nested.rmse_deg

    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"over-sensor study took {elapsed:.1f} s"


def test_criterion_09_coupling_robust_variants_rank_first_under_coupling():
    start = time.perf_counter()
    preset = presets.get_scenario_preset("fig13")
    trials = 20
    rmse = {}
    for name in ("TSAULAs", "Co-TSAULAs", "SAULAs"):
        result = estimation.monte_carlo(
            FAMILIES_N12[name], preset.scenario, preset.music, trials,
            coupling=preset.coupling,
        )
        rmse[name] = result.rmse_deg
    assert rmse["TSAULAs"] < rmse["Co-TSAULAs"] < rmse["SAULAs"], rmse
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"coupled study took {elapsed:.1f} s"


def test_criterion_10_cli_reruns_are_byte_identical(tmp_path):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(
        json.dumps(
            {"angles_deg": [-15.0, 22.0], "snapshots": 400, "snr_db": 10.0, "seed": 3}
        )
    )

    def invocations(outdir):
        outdir.mkdir()
        return [
            (
                ["design", "--family", "saulas", "--n", "12",
                 "--output", str(outdir / "design.json")],
                ["design.json"],
            ),
            (
                ["analyze", "--family", "tsaulas", "--n", "12", "--format", "json",
                 "--output", str(outdir / "analyze.json")],
                ["analyze.json"],
            ),
            (
                ["sweep", "--families", "aulas,saulas,tsaulas,cotsaulas",
                 "--n-min", "9", "--n-max", "16",
                 "--output", str(outdir / "sweep.csv")],
                ["sweep.csv"],
            ),
            (
                ["music", "--family", "saulas", "--n", "9",
                 "--scenario", str(scenario_path), "--grid-step", "0.5",
                 "--trials", "2",
                 "--dump-snapshots", str(outdir / "snaps.bin"),
                 "--output", str(outdir / "run")],
                ["run.spectrum.csv", "run.estimates.json", "snaps.bin"],
            ),
            (
                ["verify-lemmas", "--n-min", "9", "--n-max", "12",
                 "--output", str(outdir / "lemmas.csv")],
                ["lemmas.csv"],
            ),
        ]

    collected = []
    for rerun in ("first", "second"):
        outdir = tmp_path / rerun
        contents = {}
        for argv, artifacts in invocations(outdir):
            proc = subprocess.run(
                [sys.executable, "-m", "coarraylab.cli", *argv],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, (argv, proc.stderr)
            for artifact in artifacts:
                contents[artifact] = (outdir / artifact).read_bytes()
        collected.append(contents)

    assert collected[0].keys() == collected[1].keys()
    for artifact in collected[0]:
        assert collected[0][artifact] == collected[1][artifact], artifact
