"""End-to-end tests of the command-line interface, run in-process through
``main(argv)`` so exit codes and emitted text are asserted directly."""

from __future__ import annotations

import json
import weakref

import numpy as np
import pytest

from coarraylab import cli, coarray, coupling, estimation, geometry, signal, verify
from coarraylab.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# design
# ---------------------------------------------------------------------------


def test_design_emits_descriptor_json(capsys):
    code, out, _ = run_cli(capsys, "design", "--family", "saulas", "--n", "12")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["name"] == "SAULAs"
    assert payload["unit"] == "half-wavelength"
    assert payload["positions"] == [3, 9, 15, 21, 27, 33, 39, 42, 43, 44, 46, 47]


def test_design_nested_two_stage(capsys):
    code, out, _ = run_cli(
        capsys, "design", "--family", "nested", "--n-dense", "6", "--n-sparse", "6"
    )
    assert code == EXIT_OK
    assert json.loads(out)["positions"] == [0, 1, 2, 3, 4, 5, 6, 13, 20, 27, 34, 41]


def test_design_writes_output_file(tmp_path, capsys):
    target = tmp_path / "arr.json"
    code, out, _ = run_cli(
        capsys, "design", "--family", "tsaulas", "--n", "9", "--output", str(target)
    )
    assert code == EXIT_OK and out == ""
    assert geometry.load_descriptor(target).n == 9


def test_design_round_trips_through_file(tmp_path, capsys):
    path = tmp_path / "custom.json"
    geometry.save_descriptor(
        geometry.from_positions("probe", [3, 6, 9, 10, 12, 15, 20, 25, 30, 35]), path
    )
    code, out, _ = run_cli(capsys, "design", "--file", str(path))
    assert code == EXIT_OK
    assert json.loads(out)["positions"] == [3, 6, 9, 10, 12, 15, 20, 25, 30, 35]


@pytest.mark.parametrize(
    "argv",
    [
        ("design",),  # no source
        ("design", "--family", "aulas"),  # missing --n
        ("design", "--family", "nested", "--n-dense", "4"),  # missing sparse stage
        ("design", "--family", "aulas", "--n", "12", "--file", "x.json"),  # both
        ("design", "--family", "aulas", "--n", "5"),  # inadmissible size
    ],
)
def test_design_usage_errors(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE
    assert "error:" in err


@pytest.mark.parametrize(
    "command, source, flags",
    [
        ("design", ("--family", "saulas", "--n", "12"), ("--n-dense", "3", "--n-sparse", "99")),
        ("design", ("--family", "aulas", "--n", "12"), ("--n-sparse", "4")),
        ("design", ("--family", "nested", "--n-dense", "3", "--n-sparse", "3"), ("--n", "6")),
        ("design", ("--file",), ("--n", "12")),
        ("analyze", ("--file",), ("--n-dense", "3", "--n-sparse", "3")),
    ],
    ids=["generated-nested-stages", "generated-sparse-stage", "nested-n", "file-n", "file-stages"],
)
def test_sizing_flags_that_do_not_apply_are_rejected(tmp_path, capsys, command, source, flags):
    """A sizing flag the array source does not read exits 2 and is named,
    instead of being ignored."""
    if source == ("--file",):
        path = tmp_path / "arr.json"
        path.write_text(json.dumps({"name": "x", "positions": [0, 1, 3]}))
        source = ("--file", str(path))
    assert run_cli(capsys, command, *source)[0] == EXIT_OK
    code, out, err = run_cli(capsys, command, *source, *flags)
    assert code == EXIT_USAGE and out == ""
    assert all(flag in err for flag in flags if flag.startswith("--"))


def test_unknown_family_is_rejected_by_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["design", "--family", "mystery", "--n", "12"])
    assert exc.value.code == EXIT_USAGE


@pytest.mark.parametrize(
    "argv",
    [
        ("design", "--family", "aulas", "--n", "12", "--seed", "4"),
        ("design", "--family", "aulas", "--n", "12", "--format", "json"),
        ("analyze", "--family", "aulas", "--n", "12", "--seed", "4"),
        ("sweep", "--families", "aulas", "--n-min", "9", "--n-max", "9", "--seed", "4"),
        ("verify-lemmas", "--n-max", "9", "--seed", "4"),
        ("music", "--family", "aulas", "--n", "9", "--preset", "fig12", "--format", "csv"),
    ],
)
def test_flags_a_subcommand_does_not_use_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == EXIT_USAGE


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == EXIT_USAGE


def test_missing_descriptor_file_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "design", "--file", "/does/not/exist.json")
    assert code == EXIT_USAGE
    assert "error:" in err


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def test_analyze_csv_row_frozen(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--family", "saulas", "--n", "12")
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "array,N,udofs,cva,holes,se,w1,w2,w3,l_c"
    assert lines[1] == "SAULAs,12,189,188,0,100.00,3,2,3,0.2499"


def test_analyze_without_coupling(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--family", "tsaulas", "--n", "12", "--coupling", "none"
    )
    assert code == EXIT_OK
    assert out.strip().split("\n")[1] == "TSAULAs,12,185,184,4,95.83,0,3,1,0.0000"


def test_analyze_json_payload(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--family", "cotsaulas", "--n", "12", "--format", "json"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["udofs"] == 173
    assert payload["holes"] == 0
    assert payload["coupling_leakage"] == pytest.approx(0.1893462929, abs=1e-9)


def test_analyze_external_positions_file(tmp_path, capsys):
    path = tmp_path / "oca.json"
    geometry.save_descriptor(
        geometry.from_positions("probe", [3, 6, 9, 10, 12, 15, 20, 25, 30, 35]), path
    )
    code, out, _ = run_cli(capsys, "analyze", "--file", str(path), "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["n"] == 10
    assert payload["udofs"] >= 1


@pytest.mark.parametrize("far", [2**62, -(2**62), 2**63 - 1])
def test_analyze_rejects_positions_whose_sums_overflow(tmp_path, capsys, far):
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"name": "far", "positions": [0, 1, far]}))
    code, out, err = run_cli(capsys, "analyze", "--file", str(path))
    assert code == EXIT_USAGE and out == ""
    assert f"sensor position {far} outside (-2**62, 2**62)" in err


def test_analyze_refuses_a_sparse_descriptor_with_its_span(tmp_path, capsys, bounded_bitmaps):
    path = tmp_path / "sparse.json"
    path.write_text(json.dumps({"name": "sparse", "positions": [0, 10**10]}))
    code, out, err = run_cli(capsys, "analyze", "--file", str(path))
    assert code == EXIT_USAGE and out == ""
    assert "lag span [-20000000000, 20000000000]" in err


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_orders_by_size_then_family(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep", "--families", "saulas,aulas", "--n-min", "9", "--n-max", "12",
    )
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "family,n,udofs,cva,holes,se,l_c"
    keys = [tuple(line.split(",")[:2]) for line in lines[1:]]
    assert keys == [
        ("aulas", "9"), ("saulas", "9"),
        ("aulas", "10"), ("saulas", "10"),
        ("aulas", "11"), ("saulas", "11"),
        ("aulas", "12"), ("saulas", "12"),
    ]


def test_sweep_shifted_variant_always_gains_two_spacings(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep", "--families", "aulas,saulas", "--n-min", "9", "--n-max", "24",
    )
    assert code == EXIT_OK
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    udofs = {(r[0], int(r[1])): int(r[2]) for r in rows}
    for n in range(9, 25):
        m = 2 * ((n + 3) // 4)
        assert udofs[("saulas", n)] - udofs[("aulas", n)] == 2 * m


def test_sweep_skips_sizes_a_family_does_not_admit(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep", "--families", "cotsaulas,tsaulas", "--n-min", "5", "--n-max", "9",
    )
    assert code == EXIT_OK
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    # the compressed variant needs nine sensors; the transformed one runs from five
    assert ("cotsaulas", "9") in {(r[0], r[1]) for r in rows}
    assert all(r[0] == "tsaulas" for r in rows if int(r[1]) < 9)
    assert ("tsaulas", "5") in {(r[0], r[1]) for r in rows}


def test_sweep_starts_each_family_at_its_smallest_size(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--families", "ula,aulas", "--n-min", "8", "--n-max", "9",
    )
    assert code == EXIT_OK
    keys = [tuple(line.split(",")[:2]) for line in out.strip().split("\n")[1:]]
    assert keys == [("ula", "8"), ("aulas", "9"), ("ula", "9")]
    code, out, _ = run_cli(capsys, "sweep", "--families", "ula", "--n-min", "0", "--n-max", "2")
    assert code == EXIT_OK
    assert [line.split(",")[1] for line in out.strip().split("\n")[1:]] == ["1", "2"]


def test_sweep_drops_each_report_once_its_row_is_built(monkeypatch, capsys):
    """A report holds the array's lag sets (about 25 MB at N = 1024), so the
    sweep keeps at most the one before the report it is building."""
    made = []
    analyse = cli._analysis_payload

    def tracked(array, model):
        assert sum(ref() is not None for ref in made) <= 1
        report, leakage = analyse(array, model)
        made.append(weakref.ref(report))
        return report, leakage

    monkeypatch.setattr(cli, "_analysis_payload", tracked)
    for fmt in ("csv", "json"):
        code, _, _ = run_cli(capsys, "sweep", "--families", "aulas,saulas", "--n-min", "9",
                             "--n-max", "11", "--format", fmt)
        assert code == EXIT_OK
    assert len(made) == 12


def test_sweep_json_format(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep", "--families", "aulas", "--n-min", "12", "--n-max", "12",
        "--format", "json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert len(payload) == 1
    assert payload[0]["family"] == "aulas"
    assert payload[0]["udofs"] == 177


def test_sweep_json_never_lists_the_lag_sets(monkeypatch, capsys):
    """The sweep's JSON rows carry no lag sets, so it never converts them."""
    def refuse(self):
        raise AssertionError("sweep converted a report's lag sets")

    monkeypatch.setattr(coarray.CoarrayReport, "to_dict", refuse)
    code, out, _ = run_cli(capsys, "sweep", "--families", "saulas,tsaulas", "--n-min", "9",
                           "--n-max", "10", "--format", "json")
    assert code == EXIT_OK
    assert [(e["family"], e["n"]) for e in json.loads(out)] == [
        ("saulas", 9), ("tsaulas", 9), ("saulas", 10), ("tsaulas", 10)]
    assert not any({"dc", "sc", "sdc"} & set(e) for e in json.loads(out))


@pytest.mark.parametrize("families", ["saulas,aulas,saulas", "aulas,AULAs"])
def test_sweep_refuses_a_family_named_twice(capsys, families):
    code, out, err = run_cli(capsys, "sweep", "--families", families, "--n-min", "9",
                             "--n-max", "9")
    assert code == EXIT_USAGE and out == ""
    assert "--families names" in err and families.split(",")[0].lower() in err


@pytest.mark.parametrize(
    ("argv", "ranges"),
    [
        (("sweep", "--families", "aulas", "--n-min", "1", "--n-max", "4"), ["aulas n 1..4"]),
        (("sweep", "--families", "aulas,cotsaulas", "--n-min", "1", "--n-max", "8"),
         ["aulas n 1..8", "cotsaulas n 1..8"]),
        (("verify-lemmas", "--n-max", "4"), [f"{f} n 0..4" for f in geometry.FAMILIES]),
    ],
)
def test_a_selection_without_a_sensor_count_is_a_usage_error(capsys, argv, ranges):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    assert "no sensor count selected" in err and all(r in err for r in ranges)


def test_verify_lemmas_runs_when_only_tsaulas_has_sizes(capsys):
    code, out, _ = run_cli(capsys, "verify-lemmas", "--n-max", "8")
    assert code == EXIT_OK
    rows = [line.split(",") for line in out.strip().split("\n")[1:-1]]
    assert {(r[0], r[1]) for r in rows} == {("lemma3", "TSAULAs"), ("weights", "TSAULAs")}
    assert out.strip().endswith("# 8/8 checks passed")


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "--families", "badfam", "--n-min", "9", "--n-max", "12"),
        ("sweep", "--families", "aulas", "--n-min", "12", "--n-max", "9"),
    ],
)
def test_sweep_usage_errors(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE
    assert "error:" in err


OVER_BOUND = str(geometry.MAX_SENSORS + 1)


@pytest.mark.parametrize(
    "argv, named",
    [
        (("sweep", "--families", "aulas", "--n-min", "12", "--n-max", "9"), ("n_min", "n_max")),
        (("sweep", "--families", "aulas", "--n-min", "9", "--n-max", OVER_BOUND),
         ("n_max", str(geometry.MAX_SENSORS))),
        (("sweep", "--families", "aulas,badfam", "--n-min", "9", "--n-max", "12"),
         ("family", "badfam")),
        (("sweep", "--families", " , ", "--n-min", "9", "--n-max", "12"), ("--families",)),
        (("verify-lemmas", "--n-min", "10", "--n-max", "9"), ("n_min", "n_max")),
        (("verify-lemmas", "--n-max", OVER_BOUND), ("n_max", str(geometry.MAX_SENSORS))),
    ],
    ids=["sweep-inverted", "sweep-over-bound", "sweep-unknown-family", "sweep-no-family",
         "verify-inverted", "verify-over-bound"],
)
def test_sensor_count_ranges_are_checked_before_any_work(monkeypatch, capsys, argv, named):
    """sweep and verify-lemmas take their sizes from one rule: a bad range
    or family exits 2, names the parameter its flag sets, and nothing is
    analysed or checked first."""
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the range was checked")

    for owner, name in ((cli, "_analysis_payload"), (verify, "run_lemma_sweep"),
                        (verify, "check_weights")):
        monkeypatch.setattr(owner, name, refuse)
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    assert all(word in err for word in named), err


# ---------------------------------------------------------------------------
# music
# ---------------------------------------------------------------------------


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(
        json.dumps(
            {
                "angles_deg": [-15.0, 22.0],
                "snapshots": 400,
                "snr_db": 10.0,
                "seed": 3,
            }
        )
    )
    return path


def test_music_stdout_summary(capsys, scenario_file):
    code, out, _ = run_cli(
        capsys,
        "music", "--family", "aulas", "--n", "9",
        "--scenario", str(scenario_file), "--grid-step", "0.5",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["array"] == "AULAs"
    assert payload["n"] == 9
    assert payload["trials"] == 1
    assert payload["under_detected"] is False
    assert len(payload["estimates_deg"]) == 2
    assert payload["rmse_deg"] < 1.0
    assert payload["config"] == {
        "num_sources": 2,
        "grid_start": -89.5,
        "grid_stop": 89.5,
        "grid_points": 359,
        "seed": 3,
    }
    assert "detection_rate" not in payload


def test_music_seed_override(capsys, scenario_file):
    code, out, _ = run_cli(
        capsys,
        "music", "--family", "aulas", "--n", "9",
        "--scenario", str(scenario_file), "--grid-step", "0.5", "--seed", "77",
    )
    assert code == EXIT_OK
    assert json.loads(out)["config"]["seed"] == 77


def test_music_multi_trial_reports_detection_rate(capsys, scenario_file):
    code, out, _ = run_cli(
        capsys,
        "music", "--family", "aulas", "--n", "9",
        "--scenario", str(scenario_file), "--grid-step", "0.5", "--trials", "3",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["trials"] == 3
    assert 0.0 <= payload["detection_rate"] <= 1.0


def test_music_writes_spectrum_and_summary_files(tmp_path, capsys, scenario_file):
    base = tmp_path / "run"
    code, out, _ = run_cli(
        capsys,
        "music", "--family", "saulas", "--n", "9",
        "--scenario", str(scenario_file), "--grid-step", "0.5",
        "--output", str(base),
    )
    assert code == EXIT_OK and out == ""
    spectrum = (tmp_path / "run.spectrum.csv").read_text()
    lines = spectrum.strip().split("\n")
    assert lines[0] == "angle_deg,power_db"
    assert len(lines) == 1 + 359
    summary = json.loads((tmp_path / "run.estimates.json").read_text())
    assert summary["array"] == "SAULAs"


def test_music_outputs_are_byte_stable(tmp_path, capsys, scenario_file):
    outputs = []
    for tag in ("a", "b"):
        base = tmp_path / tag
        code, _, _ = run_cli(
            capsys,
            "music", "--family", "saulas", "--n", "9",
            "--scenario", str(scenario_file), "--grid-step", "0.5",
            "--output", str(base),
        )
        assert code == EXIT_OK
        outputs.append(
            (
                (tmp_path / f"{tag}.spectrum.csv").read_bytes(),
                (tmp_path / f"{tag}.estimates.json").read_bytes(),
            )
        )
    assert outputs[0] == outputs[1]


def test_music_dump_snapshots_matches_library(tmp_path, capsys, scenario_file):
    dump = tmp_path / "snaps.bin"
    code, _, _ = run_cli(
        capsys,
        "music", "--family", "aulas", "--n", "9",
        "--scenario", str(scenario_file), "--grid-step", "0.5",
        "--dump-snapshots", str(dump),
    )
    assert code == EXIT_OK
    back = signal.read_snapshots(dump)
    scenario, _ = signal.load_scenario(scenario_file)
    want = signal.simulate_snapshots(geometry.design_aulas(9), scenario, trial=0)
    np.testing.assert_array_equal(back, want.astype(np.complex64))


def test_music_preset_runs_with_coarse_grid(capsys):
    code, out, _ = run_cli(
        capsys,
        "music", "--family", "saulas", "--n", "12",
        "--preset", "fig12", "--grid-step", "1.0",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["config"]["num_sources"] == 55
    assert payload["config"]["seed"] == 101


def test_music_preset_seed_override(capsys):
    code, out, _ = run_cli(
        capsys,
        "music", "--family", "saulas", "--n", "12",
        "--preset", "fig13", "--grid-step", "1.0", "--seed", "9",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["config"]["num_sources"] == 27
    assert payload["config"]["seed"] == 9


def test_music_rejects_oversubscribed_array(tmp_path, capsys):
    path = tmp_path / "seven.json"
    path.write_text(
        json.dumps({"angles_deg": list(range(-30, 40, 10)), "snapshots": 100})
    )
    code, _, err = run_cli(
        capsys, "music", "--family", "ula", "--n", "4", "--scenario", str(path),
        "--dump-snapshots", str(tmp_path / "snaps.bin"), "--output", str(tmp_path / "run"),
    )
    assert code == EXIT_USAGE
    assert "insufficient uDOFs" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["seven.json"]


@pytest.mark.parametrize(
    "extra",
    [
        (),  # neither scenario nor preset
        ("--preset", "fig12", "--scenario", "x.json"),  # both
        ("--scenario", "/does/not/exist.json",),  # unreadable
    ],
)
def test_music_usage_errors(capsys, extra):
    code, _, err = run_cli(
        capsys, "music", "--family", "aulas", "--n", "9", *extra
    )
    assert code == EXIT_USAGE
    assert "error:" in err


@pytest.mark.parametrize(
    "fields",
    [
        {"angles_deg": [float("nan"), 22.0]},
        {"snr_db": float("nan")},
        {"powers": [1.0, float("nan")]},
        {"snapshots": 2.7},
        {"coupling": {"c1_magnitude": float("nan")}},
        {"coupling": {"band_limit": 2.5}},
        {"snapshots": None},
        {"seed": None},
        {"seed": 2.5},
        {"angles_deg": None},
        {"coupling": {"c1_magnitude": None}},
        {"snr_dB": 30.0},
    ],
)
def test_music_rejects_non_finite_or_non_integral_scenario(tmp_path, capsys, fields):
    path = tmp_path / "bad.json"
    scenario = {"angles_deg": [-15.0, 22.0], "snapshots": 400, "snr_db": 10.0}
    path.write_text(json.dumps({**scenario, **fields}))
    code, _, err = run_cli(
        capsys, "music", "--family", "aulas", "--n", "9", "--scenario", str(path),
        "--grid-step", "0.5",
    )
    assert code == EXIT_USAGE
    assert "error:" in err
    nulls = [k for k, v in {**fields, **fields.get("coupling", {})}.items() if v is None]
    assert all(k in err for k in nulls)


@pytest.mark.parametrize("value", [5, [1, 2], True], ids=["number", "list", "true"])
def test_music_rejects_a_coupling_that_is_not_an_object(tmp_path, capsys, value):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"angles_deg": [-15.0, 22.0], "snapshots": 400,
                                "coupling": value}))
    code, _, err = run_cli(
        capsys, "music", "--family", "aulas", "--n", "9", "--scenario", str(path),
        "--grid-step", "0.5",
    )
    assert code == EXIT_USAGE
    assert "coupling" in err


@pytest.mark.parametrize("step", ["0.07", "0", "1e-320"])
def test_music_rejects_grid_step_that_does_not_divide_180(capsys, scenario_file, step):
    code, _, err = run_cli(
        capsys,
        "music", "--family", "aulas", "--n", "9",
        "--scenario", str(scenario_file), "--grid-step", step,
    )
    assert code == EXIT_USAGE
    assert "error:" in err


def test_music_runs_each_trial_stage_once(tmp_path, capsys, scenario_file,
                                          count_calls, numpy_calls):
    counts = count_calls(
        [
            "estimation.trial_results",
            "estimation.estimate_doas",
            "estimation.music_spectrum",
            "estimation.spectrum_to_csv",
            "signal.simulate_snapshots",
            "signal.planes_gram",
            "signal.extended_covariance",
            "signal.snapshots_from_planes",
            "signal.lag_plan",
            "coarray.sum_difference_coarray",
            "coarray.contiguous_stats",
            "coupling.coupling_matrix",
        ],
    )
    code, _, _ = run_cli(
        capsys,
        "music", "--family", "saulas", "--n", "9",
        "--scenario", str(scenario_file), "--grid-step", "0.5", "--trials", "3",
        "--coupling", "paper-v",
        "--dump-snapshots", str(tmp_path / "snaps.bin"), "--output", str(tmp_path / "run"),
    )
    assert code == EXIT_OK
    # one trial loop: each trial is estimated from the snapshots it simulated
    assert counts["estimation.trial_results"] == 1
    assert counts["estimation.estimate_doas"] == 0
    assert counts["estimation.music_spectrum"] == 3
    # one simulation per trial: the dump reuses trial 0's snapshots
    assert counts["signal.simulate_snapshots"] == 3
    # each trial's covariance is read from its planes; the complex X is
    # formed once, for the dump
    assert counts["signal.planes_gram"] == 3
    assert counts["signal.extended_covariance"] == 0
    assert counts["signal.snapshots_from_planes"] == 1
    # one lag plan, read off its own upper blocks, serves the
    # insufficient-DOF check and every trial, and one coupling matrix every
    # draw
    assert counts["signal.lag_plan"] == 1
    assert counts["coarray.sum_difference_coarray"] == 0
    assert counts["coarray.contiguous_stats"] == 1
    assert counts["coupling.coupling_matrix"] == 1
    assert numpy_calls["np.unique"] == 0 and numpy_calls["np.add.at"] == 0
    assert numpy_calls["np.linspace"] == 1
    assert counts["estimation.spectrum_to_csv"] == 1
    # with the summary on stdout, no spectrum CSV is formatted
    code, _, _ = run_cli(capsys, "music", "--family", "saulas", "--n", "9",
                         "--scenario", str(scenario_file), "--grid-step", "0.5")
    assert code == EXIT_OK and counts["estimation.spectrum_to_csv"] == 1


def test_music_never_builds_the_dense_smoothed_covariance(tmp_path, capsys, count_calls):
    """A SAULAs(32) trial (L = 575, 4 sources) runs the K-vector solver on
    the operator and never forms R_ss; a fig13 SAULAs(12) trial (L = 95,
    27 sources) is below the size ratio and takes the real eigh of the
    real form gathered from its samples, so it forms none either.  Nor
    does a noiseless trial, whose floor is rounding but whose gap is wide,
    so the iteration converges."""
    counts = count_calls(["estimation._ritz_subspace", "estimation._real_subspaces"])
    path = tmp_path / "four.json"
    path.write_text(json.dumps({"angles_deg": [-41.2, -10.3, 17.7, 50.1],
                                "snapshots": 400, "snr_db": 10.0}))
    code, _, _ = run_cli(capsys, "music", "--family", "saulas", "--n", "32",
                         "--scenario", str(path), "--grid-step", "1")
    assert code == EXIT_OK
    assert (counts["estimation._ritz_subspace"], counts["estimation._real_subspaces"]) == (1, 0)
    code, _, _ = run_cli(capsys, "music", "--family", "saulas", "--n", "12",
                         "--preset", "fig13", "--grid-step", "1")
    assert code == EXIT_OK
    assert (counts["estimation._ritz_subspace"], counts["estimation._real_subspaces"]) == (1, 1)
    noiseless = tmp_path / "noiseless.json"
    noiseless.write_text(json.dumps({"angles_deg": [-41.2, 17.7], "snapshots": 400,
                                     "snr_db": None}))
    code, _, _ = run_cli(capsys, "music", "--family", "saulas", "--n", "12",
                         "--scenario", str(noiseless), "--grid-step", "1")
    assert code == EXIT_OK
    assert (counts["estimation._ritz_subspace"], counts["estimation._real_subspaces"]) == (2, 1)


def test_music_builds_the_coupling_matrix_once_per_call(tmp_path, capsys, scenario_file,
                                                        count_calls):
    counts = count_calls(["coupling.coupling_matrix", "signal.simulate_snapshots"])
    code, _, _ = run_cli(
        capsys,
        "music", "--family", "saulas", "--n", "9", "--scenario", str(scenario_file),
        "--grid-step", "0.5", "--trials", "3", "--coupling", "paper-v",
        "--dump-snapshots", str(tmp_path / "snaps.bin"),
    )
    assert code == EXIT_OK
    assert counts["signal.simulate_snapshots"] == 3
    assert counts["coupling.coupling_matrix"] == 1


@pytest.mark.parametrize("model", ["none", "paper-v"])
def test_music_runs_with_a_sensor_far_out(tmp_path, capsys, scenario_file, monkeypatch, model):
    """The coupling matrix takes one coefficient per distinct separation in
    the band, so a sensor 10**10 half-wavelengths out costs no more than a
    near one."""
    coefficient = coupling.CouplingModel.coefficient
    calls = []

    def bounded(self, q):
        calls.append(q)
        assert len(calls) <= 100, "one coefficient per separation up to the aperture"
        return coefficient(self, q)

    monkeypatch.setattr(coupling.CouplingModel, "coefficient", bounded)
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"name": "far", "positions": [0, 1, 2, 10**10]}))
    code, out, _ = run_cli(capsys, "music", "--file", str(path), "--scenario", str(scenario_file),
                           "--grid-step", "1", "--coupling", model)
    assert code == EXIT_OK
    assert json.loads(out)["n"] == 4
    # a band of 0 (none) or 100 (paper-v) holds none of the far separations
    assert sorted(calls) == ([0] if model == "none" else [0, 1, 2])


def test_music_rejects_zero_trials(capsys, scenario_file):
    code, _, err = run_cli(
        capsys,
        "music", "--family", "aulas", "--n", "9",
        "--scenario", str(scenario_file), "--trials", "0",
    )
    assert code == EXIT_USAGE
    assert "error:" in err


# ---------------------------------------------------------------------------
# verify-lemmas
# ---------------------------------------------------------------------------


def test_verify_lemmas_csv_summary(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify-lemmas", "--n-min", "9", "--n-max", "12", "--tsaulas-n-min", "5",
    )
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "check,family,n,passed,failed_claims"
    # 20 lemma checks, then the weight checks over the same families and sizes
    assert lines[-1] == "# 40/40 checks passed"
    assert all(",true," in line for line in lines[1:-1])
    assert [line.split(",")[0] for line in lines[1:-1]] == ["lemma1"] * 4 + ["lemma2"] * 4 + [
        "lemma3"] * 8 + ["lemma4"] * 4 + ["weights"] * 20


def test_verify_lemmas_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify-lemmas", "--n-min", "9", "--n-max", "10", "--tsaulas-n-min", "9",
        "--format", "json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert len(payload) == 16
    assert sum(entry["check"] == "weights" for entry in payload) == 8
    assert all(entry["passed"] for entry in payload)


def test_verify_lemmas_checks_what_run_all_checks(capsys):
    """The command's report list is the library's: at the default sizes
    the JSON output is ``verify.run_all`` up to the same n_max."""
    code, out, _ = run_cli(capsys, "verify-lemmas", "--n-min", "0", "--tsaulas-n-min", "0",
                           "--n-max", "12", "--format", "json")
    assert code == EXIT_OK
    want = json.dumps([r.to_dict() for r in verify.run_all(12)])
    assert json.loads(out) == json.loads(want)


def test_verify_lemmas_checks_lemmas_past_the_default_n_max(capsys):
    """--n-max bounds the lemma checks as it bounds the weight checks, also
    above the default of 64."""
    code, out, _ = run_cli(capsys, "verify-lemmas", "--n-min", "63", "--tsaulas-n-min", "63",
                           "--n-max", "66")
    assert code == EXIT_OK
    rows = [line.split(",") for line in out.strip().split("\n")[1:-1]]
    for check in ("lemma1", "lemma2", "lemma3", "lemma4", "weights"):
        sizes = {int(row[2]) for row in rows if row[0] == check}
        assert {65, 66} <= sizes <= {63, 64, 65, 66}, check
    assert out.strip().endswith(f"# {len(rows)}/{len(rows)} checks passed")


def test_verify_lemmas_writes_file(tmp_path, capsys):
    target = tmp_path / "lemmas.csv"
    code, out, _ = run_cli(
        capsys,
        "verify-lemmas", "--n-min", "9", "--n-max", "9", "--tsaulas-n-min", "9",
        "--output", str(target),
    )
    assert code == EXIT_OK and out == ""
    assert target.read_text().startswith("check,family,n,passed")


def test_verify_lemmas_reports_failures_with_runtime_exit(monkeypatch, capsys):
    failing = verify.LemmaReport("lemma1", "AULAs", 9, {"claim": False}, {})

    def fake_sweep(check, n_values=None):
        return [failing]

    monkeypatch.setattr(verify, "run_lemma_sweep", fake_sweep)
    code, out, _ = run_cli(capsys, "verify-lemmas", "--n-max", "9")
    assert code == EXIT_RUNTIME
    assert "false" in out
    assert "claim" in out
