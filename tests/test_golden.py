"""Golden CLI outputs: every artefact of a fixed set of invocations, compared
against files captured from an earlier release.

JSON, the plain CSV reports and the snapshot dump compare byte for byte.  A
spectrum CSV compares its angle column byte for byte and its power_db column
within POWER_DB_ATOL, so a change that only reorders floating-point work in
the spectrum search can still pass.

Regenerate the files (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden.py [NAME ...]

which captures the named invocations, or all of them when none is named.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from coarraylab.cli import EXIT_OK, main

GOLDEN_DIR = Path(__file__).parent / "golden"
POWER_DB_ATOL = 1e-5

#: Input files written next to the outputs: the criterion-10 scenario, and an
#: off-grid, low-SNR one whose RMSE and detection rate are not trivially exact.
SCENARIOS = {
    "scenario.json": {"angles_deg": [-15.0, 22.0], "snapshots": 400, "snr_db": 10.0, "seed": 3},
    "offgrid.json": {"angles_deg": [-40.37, -15.21, 8.2, 22.71], "snapshots": 100,
                     "snr_db": -5.0, "seed": 5},
}

#: name -> (argv with {out} for the output directory, artefacts written)
INVOCATIONS = {
    # the five invocations of acceptance criterion 10
    "design": (
        ["design", "--family", "saulas", "--n", "12", "--output", "{out}/design.json"],
        ["design.json"],
    ),
    "analyze_json": (
        ["analyze", "--family", "tsaulas", "--n", "12", "--format", "json",
         "--output", "{out}/analyze.json"],
        ["analyze.json"],
    ),
    "sweep_csv": (
        ["sweep", "--families", "aulas,saulas,tsaulas,cotsaulas",
         "--n-min", "9", "--n-max", "16", "--output", "{out}/sweep.csv"],
        ["sweep.csv"],
    ),
    "music_trials2": (
        ["music", "--family", "saulas", "--n", "9", "--scenario", "{out}/scenario.json",
         "--grid-step", "0.5", "--trials", "2",
         "--dump-snapshots", "{out}/snaps.bin", "--output", "{out}/run"],
        ["run.spectrum.csv", "run.estimates.json", "snaps.bin"],
    ),
    "verify_csv": (
        ["verify-lemmas", "--n-min", "9", "--n-max", "12", "--output", "{out}/lemmas.csv"],
        ["lemmas.csv"],
    ),
    # the other output formats
    "analyze_csv": (
        ["analyze", "--family", "tsaulas", "--n", "12", "--output", "{out}/analyze.csv"],
        ["analyze.csv"],
    ),
    "sweep_json": (
        ["sweep", "--families", "aulas,saulas,tsaulas,cotsaulas",
         "--n-min", "5", "--n-max", "16", "--format", "json",
         "--output", "{out}/sweep.json"],
        ["sweep.json"],
    ),
    "verify_json": (
        ["verify-lemmas", "--n-min", "9", "--n-max", "12", "--tsaulas-n-min", "5",
         "--format", "json", "--output", "{out}/lemmas.json"],
        ["lemmas.json"],
    ),
    # single-trial and coupled music runs
    "music_trials1": (
        ["music", "--family", "aulas", "--n", "9", "--scenario", "{out}/offgrid.json",
         "--grid-step", "0.5", "--output", "{out}/single"],
        ["single.spectrum.csv", "single.estimates.json"],
    ),
    "music_coupled_trials3": (
        ["music", "--family", "tsaulas", "--n", "9", "--scenario", "{out}/offgrid.json",
         "--grid-step", "0.5", "--trials", "3", "--coupling", "paper-v",
         "--output", "{out}/coupled"],
        ["coupled.spectrum.csv", "coupled.estimates.json"],
    ),
    # L = 159, K = 4: E_s from the subspace iteration of signal_subspace
    "music_ritz_trials2": (
        ["music", "--family", "saulas", "--n", "16", "--scenario", "{out}/offgrid.json",
         "--grid-step", "0.5", "--trials", "2", "--output", "{out}/ritz"],
        ["ritz.spectrum.csv", "ritz.estimates.json"],
    ),
    # a preset, with its coupling: L = 95, K = 27, three trials that the
    # stacked real form can take as one block, and trial 0's snapshot dump
    "music_preset_dump": (
        ["music", "--family", "saulas", "--n", "12", "--preset", "fig13", "--grid-step", "1",
         "--trials", "3", "--dump-snapshots", "{out}/preset.bin", "--output", "{out}/preset"],
        ["preset.spectrum.csv", "preset.estimates.json", "preset.bin"],
    ),
}


def run_invocation(name: str, outdir: Path) -> dict[str, bytes]:
    """Run one invocation into ``outdir``; returns its artefacts by name."""
    outdir.mkdir(parents=True, exist_ok=True)
    for filename, scenario in SCENARIOS.items():
        (outdir / filename).write_text(json.dumps(scenario))
    argv, artefacts = INVOCATIONS[name]
    code = main([arg.replace("{out}", str(outdir)) for arg in argv])
    assert code == EXIT_OK, (name, code)
    return {artefact: (outdir / artefact).read_bytes() for artefact in artefacts}


def _spectrum_columns(data: bytes) -> tuple[list[str], np.ndarray]:
    header, *rows = data.decode().splitlines()
    assert header == "angle_deg,power_db"
    angles, power = zip(*(row.split(",") for row in rows))
    return list(angles), np.array(power, dtype=float)


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_cli_output_matches_golden(name, tmp_path):
    for artefact, got in run_invocation(name, tmp_path).items():
        want = (GOLDEN_DIR / name / artefact).read_bytes()
        if artefact.endswith(".spectrum.csv"):
            got_angles, got_power = _spectrum_columns(got)
            want_angles, want_power = _spectrum_columns(want)
            assert got_angles == want_angles, artefact
            assert np.abs(got_power - want_power).max() <= POWER_DB_ATOL, artefact
        else:
            assert got == want, artefact


def capture(names: list[str]) -> None:
    for name in names or sorted(INVOCATIONS):
        target = GOLDEN_DIR / name
        run_invocation(name, target)
        for filename in SCENARIOS:
            (target / filename).unlink()
        print(f"captured {name}")


if __name__ == "__main__":
    capture(sys.argv[1:])
