"""End-to-end tests of the command-line interface, run in-process through
``main(argv)`` so exit codes and emitted text are asserted directly."""

from __future__ import annotations

import json

import numpy as np
import pytest

import coarraylab
from coarraylab import cli, coarray, estimation, geometry, signal, verify
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
        capsys, "music", "--family", "ula", "--n", "4", "--scenario", str(path)
    )
    assert code == EXIT_USAGE
    assert "insufficient uDOFs" in err


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


@pytest.mark.parametrize("step", ["0.07", "0", "1e-320"])
def test_music_rejects_grid_step_that_does_not_divide_180(capsys, scenario_file, step):
    code, _, err = run_cli(
        capsys,
        "music", "--family", "aulas", "--n", "9",
        "--scenario", str(scenario_file), "--grid-step", step,
    )
    assert code == EXIT_USAGE
    assert "error:" in err


def _count_calls(monkeypatch, names):
    """Wrap each named function in every package namespace that holds it."""
    counts = dict.fromkeys(names, 0)
    namespaces = [coarraylab, cli, coarray, estimation, geometry, signal, verify]
    for name in names:
        module, attr = name.split(".")
        original = getattr(getattr(coarraylab, module), attr)

        def counting(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for namespace in namespaces:
            for key, value in list(vars(namespace).items()):
                if value is original:
                    monkeypatch.setattr(namespace, key, counting)
    return counts


def test_music_runs_each_trial_stage_once(tmp_path, monkeypatch, capsys, scenario_file):
    counts = _count_calls(
        monkeypatch,
        [
            "estimation.estimate_doas",
            "estimation.estimate_from_snapshots",
            "estimation.music_spectrum",
            "signal.simulate_snapshots",
            "coarray.sum_difference_coarray",
        ],
    )
    code, _, _ = run_cli(
        capsys,
        "music", "--family", "saulas", "--n", "9",
        "--scenario", str(scenario_file), "--grid-step", "0.5", "--trials", "3",
        "--dump-snapshots", str(tmp_path / "snaps.bin"), "--output", str(tmp_path / "run"),
    )
    assert code == EXIT_OK
    # trial 0 is estimated from the dumped snapshots, trials 1 and 2 end to end
    assert counts["estimation.estimate_doas"] == 2
    assert counts["estimation.estimate_from_snapshots"] == 3
    assert counts["estimation.music_spectrum"] == 3
    # one simulation per trial: the dump reuses trial 0's snapshots
    assert counts["signal.simulate_snapshots"] == 3
    # the insufficient-DOF check; each trial reads its lags off the covariance
    assert counts["coarray.sum_difference_coarray"] <= 1


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
    assert lines[-1] == "# 20/20 checks passed"
    assert all(",true," in line for line in lines[1:-1])


def test_verify_lemmas_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify-lemmas", "--n-min", "9", "--n-max", "10", "--tsaulas-n-min", "9",
        "--format", "json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert len(payload) == 8
    assert all(entry["passed"] for entry in payload)


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
