"""Command-line front end.

Subcommands: design (emit a geometry descriptor), analyze (co-array metrics
for one array), sweep (metrics across a range of sensor counts), music
(simulate and estimate), verify-lemmas (closed-form vs brute-force checks).
Exit codes: 0 success, 2 invalid input, 1 runtime failure.  Output files are
byte-identical across reruns of the same invocation.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import sys
from typing import Sequence

from . import coarray, coupling, estimation, geometry, presets, signal, verify

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


def _json_dumps(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _add_output(parser: argparse.ArgumentParser, formats: bool = True) -> None:
    parser.add_argument("--output", help="write results here instead of stdout")
    if formats:
        parser.add_argument("--format", choices=("csv", "json"), default="csv",
                            help="output format (default csv)")


def _add_array_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", choices=geometry.GENERATED_FAMILIES + ("nested",))
    parser.add_argument("--n", type=int, help="sensor count for generated families")
    parser.add_argument("--n-dense", type=int, help="dense stage size (nested only)")
    parser.add_argument("--n-sparse", type=int, help="sparse stage size (nested only)")
    parser.add_argument("--file", help="JSON array descriptor path")


def _resolve_array(args) -> geometry.SensorArray:
    if (args.family is None) == (args.file is None):
        raise geometry.DesignError("give exactly one of --family or --file")
    if args.file is not None:
        source, applies = "--file", ()
    elif args.family == "nested":
        source, applies = "family 'nested'", ("--n-dense", "--n-sparse")
    else:
        source, applies = f"family {args.family!r}", ("--n",)
    sizing = {"--n": args.n, "--n-dense": args.n_dense, "--n-sparse": args.n_sparse}
    stray = [flag for flag, value in sizing.items() if value is not None and flag not in applies]
    if stray:
        raise geometry.DesignError(f"{', '.join(stray)} does not apply to {source}")
    if args.file is not None:
        return geometry.load_descriptor(args.file)
    if args.family == "nested":
        if args.n_dense is None or args.n_sparse is None:
            raise geometry.DesignError("nested arrays need --n-dense and --n-sparse")
        return geometry.design_nested(args.n_dense, args.n_sparse)
    if args.n is None:
        raise geometry.DesignError(f"family {args.family!r} needs --n")
    return geometry.design(args.family, args.n)


def cmd_design(args) -> int:
    array = _resolve_array(args)
    _emit(_json_dumps(array.to_dict()), args.output)
    return EXIT_OK


def _analysis_payload(array: geometry.SensorArray, model: coupling.CouplingModel):
    report = coarray.coarray_report(array)
    leakage = coupling.coupling_leakage(coupling.coupling_matrix(array, model))
    return report, leakage


def cmd_analyze(args) -> int:
    array = _resolve_array(args)
    model = coupling.get_preset(args.coupling)
    report, leakage = _analysis_payload(array, model)
    if args.format == "json":
        payload = report.to_dict()
        payload["coupling_leakage"] = leakage
        _emit(_json_dumps(payload), args.output)
    else:
        header = ",".join(coarray.REPORT_COLUMNS + ("l_c",))
        row = ",".join(str(c) for c in coarray.report_row(report)) + f",{leakage:.4f}"
        _emit(header + "\n" + row + "\n", args.output)
    return EXIT_OK


def cmd_sweep(args) -> int:
    families = [f.strip().lower() for f in args.families.split(",") if f.strip()]
    if not families:
        raise geometry.DesignError("--families names no family")
    repeated = sorted({f for f in families if families.count(f) > 1})
    if repeated:
        raise geometry.DesignError(f"--families names {', '.join(repeated)} more than once")
    counts = geometry.selected_sensor_counts(dict.fromkeys(families, args.n_min), args.n_max)
    sizes = sorted((n, fam) for fam, ns in counts.items() for n in ns)
    model = coupling.get_preset(args.coupling)
    # lazily, so that each report's lag sets are dropped once its row is out
    rows = ((fam, n, *_analysis_payload(geometry.design(fam, n), model)) for n, fam in sizes)
    if args.format == "json":
        payload = [
            {**report.figures(), "family": fam, "coupling_leakage": leakage}
            for fam, n, report, leakage in rows
        ]
        _emit(_json_dumps(payload), args.output)
    else:
        lines = ["family,n,udofs,cva,holes,se,l_c"]
        for fam, n, report, leakage in rows:
            lines.append(
                f"{fam},{n},{report.udofs},{report.cva},{report.hole_count},"
                f"{100.0 * report.spatial_efficiency:.2f},{leakage:.4f}"
            )
        _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def _resolve_scenario(args):
    """Scenario, MUSIC config and coupling model from flags."""
    if (args.scenario is None) == (args.preset is None):
        raise ValueError("give exactly one of --scenario or --preset")
    if args.preset is not None:
        preset = presets.get_scenario_preset(args.preset, seed=args.seed)
        scenario, music, model = preset.scenario, preset.music, preset.coupling
        if args.grid_step is not None:
            music = estimation.MusicConfig.for_step(music.num_sources, args.grid_step)
    else:
        scenario, model = signal.load_scenario(args.scenario)
        if args.seed is not None:
            scenario = dataclasses.replace(scenario, seed=args.seed)
        music = estimation.MusicConfig.for_step(
            scenario.num_sources, 0.01 if args.grid_step is None else args.grid_step
        )
    if args.coupling is not None:
        model = coupling.get_preset(args.coupling)
    return scenario, music, model


def cmd_music(args) -> int:
    array = _resolve_array(args)
    scenario, music, model = _resolve_scenario(args)
    trials = args.trials

    def dump(planes):
        signal.write_snapshots(args.dump_snapshots, signal.snapshots_from_planes(planes))

    results = estimation.trial_results(array, scenario, music, trials, coupling=model,
                                       first_planes=dump if args.dump_snapshots else None)
    first = next(results)
    summary = {
        "array": array.name,
        "n": array.n,
        "trials": trials,
        "estimates_deg": [round(float(e), 6) for e in first.estimates],
        "under_detected": first.under_detected,
        "rmse_deg": round(first.rmse_deg, 6),
        "config": {
            "num_sources": music.num_sources,
            "grid_start": music.grid_start,
            "grid_stop": music.grid_stop,
            "grid_points": music.grid_points,
            "seed": scenario.seed,
        },
    }
    if trials > 1:
        mc = estimation.aggregate_trials(itertools.chain([first], results))
        summary["rmse_deg"] = round(mc.rmse_deg, 6)
        summary["detection_rate"] = mc.detection_rate

    if args.output:
        _emit(estimation.spectrum_to_csv(first.angles, first.spectrum),
              f"{args.output}.spectrum.csv")
    _emit(_json_dumps(summary), args.output and f"{args.output}.estimates.json")
    return EXIT_OK


def cmd_verify_lemmas(args) -> int:
    n_min = {family: args.tsaulas_n_min if family == "tsaulas" else args.n_min
             for family in geometry.FAMILIES}
    reports = verify.run_all(args.n_max, n_min)
    failures = [r for r in reports if not r.passed]
    if args.format == "json":
        _emit(_json_dumps([r.to_dict() for r in reports]), args.output)
    else:
        lines = ["check,family,n,passed,failed_claims"]
        for r in reports:
            lines.append(
                f"{r.check},{r.family},{r.n},{str(r.passed).lower()},"
                + ";".join(r.failures())
            )
        lines.append(
            f"# {len(reports) - len(failures)}/{len(reports)} checks passed"
        )
        _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK if not failures else EXIT_RUNTIME


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coarraylab",
        description="sparse-array co-array design, analysis and simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_design = sub.add_parser("design", help="emit a geometry descriptor (JSON)")
    _add_output(p_design, formats=False)
    _add_array_source(p_design)
    p_design.set_defaults(func=cmd_design)

    p_analyze = sub.add_parser("analyze", help="co-array metrics for one array")
    _add_output(p_analyze)
    _add_array_source(p_analyze)
    p_analyze.add_argument("--coupling", default="paper-v",
                           choices=coupling.preset_names())
    p_analyze.set_defaults(func=cmd_analyze)

    p_sweep = sub.add_parser("sweep", help="metrics across a sensor-count range")
    _add_output(p_sweep)
    p_sweep.add_argument("--families", required=True,
                         help="comma-separated family names")
    p_sweep.add_argument("--n-min", type=int, required=True)
    p_sweep.add_argument("--n-max", type=int, required=True)
    p_sweep.add_argument("--coupling", default="paper-v",
                         choices=coupling.preset_names())
    p_sweep.set_defaults(func=cmd_sweep)

    p_music = sub.add_parser("music", help="simulate snapshots and estimate DOAs")
    _add_output(p_music, formats=False)
    _add_array_source(p_music)
    p_music.add_argument("--seed", type=int, default=None,
                         help="override the scenario RNG seed")
    p_music.add_argument("--scenario", help="scenario JSON path")
    p_music.add_argument("--preset", choices=presets.preset_names(),
                         help="named reference scenario")
    p_music.add_argument("--coupling", choices=coupling.preset_names(),
                         default=None, help="override the coupling model")
    p_music.add_argument("--trials", type=int, default=1)
    p_music.add_argument("--grid-step", type=float, default=None,
                         help="search grid pitch in degrees")
    p_music.add_argument("--dump-snapshots",
                         help="also write trial-0 snapshots to this path")
    p_music.set_defaults(func=cmd_music)

    p_verify = sub.add_parser("verify-lemmas",
                              help="closed-form vs brute-force co-array checks")
    _add_output(p_verify)
    p_verify.add_argument("--n-min", type=int, default=0,
                          help="smallest N checked, tsaulas aside (default: each family's own)")
    p_verify.add_argument("--n-max", type=int, default=verify.N_MAX)
    p_verify.add_argument("--tsaulas-n-min", type=int, default=0,
                          help="smallest N checked for tsaulas (default: its own)")
    p_verify.set_defaults(func=cmd_verify_lemmas)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as err:  # pragma: no cover - defensive
        print(f"internal error: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
