"""The benchmark workloads, their inputs and their correctness checks.

Each workload turns the benchmark seed into a schedule of top-level public
calls into coarraylab.  Inputs come from a fixed pool of cases per workload
(scenario seeds, source constellations); the seed picks the
order in which the pool is visited, so every seed runs inputs whose outputs
were captured into ``reference/`` by ``capture.py``.  Library functions are
looked up on the package at call time, so the tracer's patches take effect.

Tolerances against the reference:

* Monte-Carlo estimates: the same search-grid point for every source of
  every trial; RMSE within 1e-9 relative; detection rate exact.
* ``music`` CLI artefacts: estimates JSON and snapshot dump byte for byte;
  spectrum CSV angle column byte for byte, ``power_db`` within 1e-5 dB.
* Lemma sweep: same report count, every report passes.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

import numpy as np

import coarraylab
import coarraylab.cli
import coarraylab.presets

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

FLOAT_RTOL = 1e-9
POWER_DB_ATOL = 1e-5


class Call(NamedTuple):
    """One top-level public call: the unit whose latency is measured."""

    key: str                      # reference key of the call's inputs
    run: Callable[[], object]
    ops: int                      # operations the call performs
    trials: int                   # Monte-Carlo trials the call runs
    inputs: object = None         # what the checks need to read the output


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=FLOAT_RTOL, abs_tol=0.0)


def _off_grid_angles(rng: random.Random, count: int, span: int, min_sep: float) -> tuple:
    """``count`` sorted angles in (-span, span), at least ``min_sep`` apart,
    each 0.2-0.8 degrees away from the integers."""
    while True:
        angles = sorted(rng.randrange(-span, span) + round(rng.uniform(0.2, 0.8), 3)
                        for _ in range(count))
        if all(b - a >= min_sep for a, b in zip(angles, angles[1:])):
            return tuple(angles)


class Workload:
    """Base: a seeded schedule of calls plus the checks on their outputs."""

    name = ""
    # Whether call times are scaled to the reference speed (run.Calibration).
    calibrated = True

    def __init__(self, seed: int, workdir: Path, tiny: bool = False) -> None:
        self.seed = seed
        self.workdir = Path(workdir)
        self.tiny = tiny
        self.rng = random.Random(seed)

    def params(self) -> dict:
        """Sizes the reference outputs depend on."""
        raise NotImplementedError

    def build(self) -> None:
        """Build arrays, presets and scenarios (part of set-up)."""

    def cases(self) -> list[Call]:
        """Every call in the input pool, for capturing the reference."""
        raise NotImplementedError

    def schedule(self) -> Iterator[list[Call]]:
        """Endless rounds of calls; a run stops only between rounds."""
        order = self.cases()
        self.rng.shuffle(order)
        while True:
            for call in order:
                yield [call]

    def warmup(self) -> None:
        """One operation, run once before timing (part of set-up)."""
        call = self.cases()[0]
        self.collect(call, call.run())

    def collect(self, call: Call, raw):
        """Turn a call's return value into the checked output."""
        return raw

    def ops_of(self, call: Call, output) -> int:
        """Operations the call performed."""
        return call.ops

    def record(self, call: Call, output):
        """Reference value of an output."""
        raise NotImplementedError

    def invariants(self, call: Call, output) -> tuple[set, list]:
        """Checks that hold without a reference: (failed op indices, messages)."""
        return set(), []

    def compare(self, call: Call, output, expected) -> tuple[set, list]:
        """Compare against the reference: (failed op indices, messages)."""
        raise NotImplementedError

    def check_round(self, results: list) -> tuple[int, list]:
        """Cross-call checks on one round of (call, output); (failed ops, messages)."""
        return 0, []

    def final_check(self) -> list:
        """Checks run once per run; each message counts as one failed operation."""
        return []


class _MonteCarlo(Workload):
    """Shared checks for the workloads whose call is ``monte_carlo``."""

    def record(self, call, result):
        config = call.inputs["music"]
        return {
            "grid_index": [
                [int(round((e - config.grid_start) / config.grid_step)) for e in trial]
                for trial in result.estimates_per_trial
            ],
            "rmse_deg": result.rmse_deg,
            "detection_rate": result.detection_rate,
            "insufficient_dofs": result.insufficient_dofs,
        }

    def invariants(self, call, result):
        if result.trials != call.trials or len(result.estimates_per_trial) != call.trials:
            return set(range(call.ops)), [f"{call.key}: ran {result.trials} trials, not {call.trials}"]
        if result.insufficient_dofs:
            return set(range(call.ops)), [f"{call.key}: unexpected insufficient-DOF result"]
        return set(), []

    def compare(self, call, result, expected):
        got = self.record(call, result)
        failed = {t for t, (g, e) in enumerate(zip(got["grid_index"], expected["grid_index"]))
                  if g != e}
        messages = [f"{call.key}: trial {t} estimates differ from the reference"
                    for t in sorted(failed)]
        if (len(got["grid_index"]) != len(expected["grid_index"])
                or got["detection_rate"] != expected["detection_rate"]
                or got["insufficient_dofs"] != expected["insufficient_dofs"]
                or not _close(got["rmse_deg"], expected["rmse_deg"])):
            failed = set(range(call.ops))
            messages.append(f"{call.key}: aggregate {got['rmse_deg']!r}/{got['detection_rate']!r} "
                            f"!= reference {expected['rmse_deg']!r}/{expected['detection_rate']!r}")
        return failed, messages


class McPresets(_MonteCarlo):
    """fig12 on SAULAs(12) and fig13 on TSAULAs, Co-TSAULAs and SAULAs(12);
    a round is the four ``monte_carlo`` calls for one scenario seed."""

    name = "mc_presets"
    FIG13_ARRAYS = ("TSAULAs", "Co-TSAULAs", "SAULAs")

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.fig12_rmse: list[float] = []

    def params(self):
        return {"trials": 2 if self.tiny else 20,
                "scenario_seeds": [0] if self.tiny else list(range(8))}

    def build(self):
        self.arrays = {
            "SAULAs": coarraylab.design_saulas(12),
            "TSAULAs": coarraylab.design_tsaulas(12),
            "Co-TSAULAs": coarraylab.design_cotsaulas(12),
            "NA": coarraylab.design_nested(6, 6),
        }
        get = coarraylab.presets.get_scenario_preset
        self.presets = {s: (get("fig12", seed=s), get("fig13", seed=s))
                        for s in self.params()["scenario_seeds"]}

    def _call(self, preset, array_name, seed):
        trials = self.params()["trials"]
        array = self.arrays[array_name]

        def run():
            return coarraylab.monte_carlo(array, preset.scenario, preset.music, trials,
                                          coupling=preset.coupling)

        return Call(f"{preset.name}:{array_name}:{seed}", run, trials, trials,
                    {"music": preset.music, "array": array_name, "preset": preset.name})

    def _round(self, seed):
        fig12, fig13 = self.presets[seed]
        return [self._call(fig12, "SAULAs", seed)] + [
            self._call(fig13, name, seed) for name in self.FIG13_ARRAYS
        ]

    def cases(self):
        return [c for s in self.params()["scenario_seeds"] for c in self._round(s)]

    def schedule(self):
        seeds = list(self.params()["scenario_seeds"])
        self.rng.shuffle(seeds)
        while True:
            for s in seeds:
                yield self._round(s)

    def warmup(self):
        fig12 = self.presets[self.params()["scenario_seeds"][0]][0]
        coarraylab.estimate_doas(self.arrays["SAULAs"], fig12.scenario, fig12.music,
                                 coupling=fig12.coupling, trial=0)

    def check_round(self, results):
        """Criterion 09: RMSE ranks TSAULAs < Co-TSAULAs < SAULAs on fig13."""
        rmse = {(c.inputs["preset"], c.inputs["array"]): r.rmse_deg for c, r in results}
        self.fig12_rmse.append(rmse[("fig12", "SAULAs")])
        ranked = [rmse[("fig13", name)] for name in self.FIG13_ARRAYS]
        if ranked[0] < ranked[1] < ranked[2]:
            return 0, []
        return sum(c.ops for c, _ in results), [
            f"criterion 09: fig13 RMSE {ranked} not ranked TSAULAs < Co-TSAULAs < SAULAs"]

    def final_check(self):
        """The nested-array study, run once: NA(6, 6) cannot resolve 55
        sources, so it runs no trials and reports the capped RMSE.
        Criterion 08: every fig12 SAULAs RMSE of the run is below it."""
        fig12 = self.presets[self.params()["scenario_seeds"][0]][0]
        trials = self.params()["trials"]
        na = coarraylab.monte_carlo(self.arrays["NA"], fig12.scenario, fig12.music, trials,
                                    coupling=fig12.coupling)
        messages = []
        if not (na.insufficient_dofs and na.detection_rate == 0.0 and na.trials == trials
                and na.rmse_deg == fig12.music.error_cap_deg
                and all(e == () for e in na.estimates_per_trial)):
            messages.append(f"NA insufficient-DOF study: unexpected result {na.to_dict()}")
        if not all(r < na.rmse_deg for r in self.fig12_rmse):
            messages.append(f"criterion 08: a fig12 SAULAs RMSE in {self.fig12_rmse} "
                            f"is not below NA {na.rmse_deg}")
        return messages


class McLongRecords(_MonteCarlo):
    """Co-TSAULAs(32) under PAPER_V coupling, five off-grid sources, long
    records, 1-degree grid and a short smoothing window."""

    name = "mc_long_records"

    def params(self):
        return {"trials": 2 if self.tiny else 10,
                "snapshots": 500 if self.tiny else 5000,
                "cases": 1 if self.tiny else 16,
                "smoothing_length": 32, "grid_step": 1.0}

    def build(self):
        p = self.params()
        self.array = coarraylab.design_cotsaulas(32)
        self.music = coarraylab.MusicConfig.for_step(5, p["grid_step"],
                                                     smoothing_length=p["smoothing_length"])
        self.coupling = coarraylab.coupling.PAPER_V
        self.scenarios = [
            coarraylab.Scenario(angles_deg=_off_grid_angles(random.Random(1000 + c), 5, 60, 12.0),
                                snapshots=p["snapshots"], snr_db=0.0, seed=c)
            for c in range(p["cases"])
        ]

    def cases(self):
        trials = self.params()["trials"]
        calls = []
        for c, scenario in enumerate(self.scenarios):
            def run(scenario=scenario):
                return coarraylab.monte_carlo(self.array, scenario, self.music, trials,
                                              coupling=self.coupling)
            calls.append(Call(f"case:{c}", run, trials, trials, {"music": self.music}))
        return calls

    def warmup(self):
        coarraylab.estimate_doas(self.array, self.scenarios[0], self.music,
                                 coupling=self.coupling, trial=0)


class MusicFineN32(Workload):
    """``coarraylab music`` on SAULAs(32) at the default 0.01-degree grid with
    three trials and a snapshot dump, called in-process through cli.main."""

    name = "music_fine_n32"
    # One call streams a 165 MB steering matrix for about 8 s: longer than
    # the stretches in which the host's speed holds, and bound by memory
    # rather than by the cache-resident calibration kernel.  Scaling made its
    # run-to-run spread wider, not narrower, so its times are plain CPU time.
    calibrated = False

    def params(self):
        return {"n": 9 if self.tiny else 32, "trials": 3,
                "grid_step": 0.5 if self.tiny else None,
                "variants": 1 if self.tiny else 3}

    def build(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.scenario_paths = []
        for v in range(self.params()["variants"]):
            angles = _off_grid_angles(random.Random(2000 + v), 4, 60, 8.0)
            scenario = coarraylab.Scenario(angles_deg=angles, snapshots=400, snr_db=10.0, seed=v)
            path = self.workdir / f"scenario-{v}.json"
            path.write_text(json.dumps(scenario.to_dict(), sort_keys=True))
            self.scenario_paths.append(path)
        self.base = self.workdir / "run"
        self.dump = self.workdir / "snapshots.bin"

    def _argv(self, path, grid_step):
        p = self.params()
        argv = ["music", "--family", "saulas", "--n", str(p["n"]),
                "--scenario", str(path), "--trials", str(p["trials"]),
                "--dump-snapshots", str(self.dump), "--output", str(self.base)]
        if grid_step is not None:
            argv += ["--grid-step", str(grid_step)]
        return argv

    def cases(self):
        p = self.params()
        calls = []
        for v, path in enumerate(self.scenario_paths):
            argv = self._argv(path, p["grid_step"])
            calls.append(Call(f"variant:{v}", lambda argv=argv: coarraylab.cli.main(argv),
                              1, p["trials"]))
        return calls

    def warmup(self):
        """The first scenario on a 1-degree grid: every code path of the
        timed calls runs, at a hundredth of their grid cost."""
        call = self.cases()[0]
        self.collect(call, coarraylab.cli.main(self._argv(self.scenario_paths[0], 1.0)))

    def collect(self, call, exit_code):
        """Read and delete the artefacts, so a later call cannot pass on
        stale files."""
        paths = {"spectrum": Path(f"{self.base}.spectrum.csv"),
                 "estimates": Path(f"{self.base}.estimates.json"),
                 "dump": self.dump}
        out = {"exit_code": exit_code}
        for name, path in paths.items():
            out[name] = path.read_bytes() if path.exists() else None
            path.unlink(missing_ok=True)
        return out

    def record(self, call, out):
        lines = out["spectrum"].decode().splitlines()[1:]
        angles, power = zip(*(line.split(",") for line in lines))
        return {
            "estimates_json": out["estimates"].decode(),
            "dump_sha256": hashlib.sha256(out["dump"]).hexdigest(),
            "angles_sha256": hashlib.sha256("\n".join(angles).encode()).hexdigest(),
            "power_udb": np.rint(np.array(power, dtype=float) * 1e6).astype(np.int64),
        }

    def invariants(self, call, out):
        if out["exit_code"] != 0:
            return {0}, [f"{call.key}: exit code {out['exit_code']}"]
        missing = [k for k in ("spectrum", "estimates", "dump") if out[k] is None]
        if missing:
            return {0}, [f"{call.key}: missing artefacts {missing}"]
        return set(), []

    def compare(self, call, out, expected):
        if out["exit_code"] != 0 or None in out.values():
            return {0}, []
        got = self.record(call, out)
        messages = [f"{call.key}: {k} differs from the reference"
                    for k in ("estimates_json", "dump_sha256", "angles_sha256")
                    if got[k] != expected[k]]
        ref_power = np.asarray(expected["power_udb"])
        if got["power_udb"].shape != ref_power.shape:
            messages.append(f"{call.key}: spectrum has {got['power_udb'].size} rows, "
                            f"reference {ref_power.size}")
        else:
            worst = np.abs(got["power_udb"] - ref_power).max() * 1e-6
            if worst > POWER_DB_ATOL:
                messages.append(f"{call.key}: spectrum power_db off by {worst:.3g} dB")
        return ({0} if messages else set()), messages


class VerifySweep(Workload):
    """``verify.run_all`` over every admissible sensor count; one operation is
    one LemmaReport.  The seed does not change this workload's input."""

    name = "verify_sweep"

    def params(self):
        return {"n_max": 12 if self.tiny else 64}

    def cases(self):
        n_max = self.params()["n_max"]
        # The report count is known only after the call: see ops_of.
        return [Call(f"run_all:{n_max}", lambda: coarraylab.run_all(n_max), 0, 0)]

    def warmup(self):
        coarraylab.check_lemma1(9)

    def ops_of(self, call, reports):
        return len(reports)

    def record(self, call, reports):
        return {"reports": len(reports)}

    def invariants(self, call, reports):
        failed = {i for i, r in enumerate(reports) if not r.passed}
        return failed, [f"{call.key}: {reports[i].check} {reports[i].family} "
                        f"n={reports[i].n} failed {reports[i].failures()}" for i in sorted(failed)]

    def compare(self, call, reports, expected):
        if len(reports) != expected["reports"]:
            return set(range(max(len(reports), expected["reports"]))), [
                f"{call.key}: {len(reports)} reports, reference {expected['reports']}"]
        return set(), []


WORKLOADS = {w.name: w for w in (McPresets, McLongRecords, MusicFineN32, VerifySweep)}


def reference_path(name: str) -> Path:
    return REFERENCE_DIR / f"{name}.json"


def load_reference(name: str) -> dict | None:
    path = reference_path(name)
    if not path.exists():
        return None
    reference = json.loads(path.read_text())
    arrays = REFERENCE_DIR / f"{name}.npz"
    if arrays.exists():
        with np.load(arrays) as npz:
            for key, case in reference["cases"].items():
                for field in list(case):
                    if case[field] == "npz":
                        case[field] = npz[f"{key}/{field}"]
    return reference


def capture(workload: Workload) -> dict:
    """Run every call of the pool once and record its outputs."""
    cases = {}
    for call in workload.cases():
        output = workload.collect(call, call.run())
        failed, messages = workload.invariants(call, output)
        if failed:
            raise RuntimeError(f"refusing to capture a failing output: {messages}")
        cases[call.key] = workload.record(call, output)
    return {"workload": workload.name, "params": workload.params(), "cases": cases}


def save_reference(reference: dict) -> None:
    """JSON for scalars; numpy arrays go to a compressed .npz beside it."""
    arrays = {}
    cases = {}
    for key, case in reference["cases"].items():
        cases[key] = {}
        for field, value in case.items():
            if isinstance(value, np.ndarray):
                arrays[f"{key}/{field}"] = value
                value = "npz"
            cases[key][field] = value
    name = reference["workload"]
    REFERENCE_DIR.mkdir(exist_ok=True)
    with open(reference_path(name), "w", encoding="utf-8") as fh:
        json.dump({**reference, "cases": cases}, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    if arrays:
        np.savez_compressed(REFERENCE_DIR / f"{name}.npz", **arrays)
