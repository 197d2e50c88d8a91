"""coarraylab benchmark: four closed-loop workloads, one caller each.

    python3 benchmarks/run.py --workload mc_presets --seed 1 --seconds 24 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 24

Run from anywhere inside a source checkout; the package is imported from
``src/`` beside this directory and nowhere else.  With ``--trace 0`` the run
reports the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it runs
the same calls untraced and then traced and reports the per-layer metrics.

An untraced run is split into slices, each run in a fresh worker process,
one after the other: each worker sets up, times its share of ``--seconds``
and exits.  The metrics are taken over the calls of all the slices, so they
do not rest on the memory layout of one process, and every slice gives a
set-up sample.  Each run checks every output against ``reference/`` and exits 1 when a check
fails.  The last stdout line is one JSON object; a fuller record (environment
stamp, every metric, check messages) and the spans go to ``.bench_out/``.

Times are CPU times of the process doing the work, with BLAS held to one
thread: all work then runs on the calling thread, so a call's CPU time is its
latency on an idle machine, and time the CPU spends on other processes or,
under a hypervisor that reports steal time, on other guests is not counted.
Wall times are printed beside them as details.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
# Worker processes per untraced run, and so set-up samples.
SLICES = 3
WORKER_TIMEOUT_S = 170
MESSAGES_SHOWN = 10
BLAS_THREADS = 1
# CPU seconds the calibration kernel takes at the reference speed: about its
# median on a 2-vCPU Intel Xeon (Sapphire Rapids) KVM guest, NumPy 2.4.6.
CALIBRATION_REF_S = 0.0045


def limit_blas_threads() -> int:
    """Hold BLAS to one thread, so that all work runs on the calling thread
    and is counted in its CPU time; call before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    return BLAS_THREADS


class Clock:
    """CPU and wall seconds elapsed since it was made."""

    def __init__(self) -> None:
        self.cpu0, self.wall0 = process_time(), perf_counter()

    def read(self) -> tuple[float, float]:
        return process_time() - self.cpu0, perf_counter() - self.wall0


def import_package() -> tuple[float, float]:
    """Import coarraylab from ``src/`` of this checkout; returns (CPU, wall)
    seconds."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    clock = Clock()
    import coarraylab
    import coarraylab.cli  # noqa: F401  (the CLI and presets are not imported by the package)
    import coarraylab.presets  # noqa: F401
    elapsed = clock.read()
    if src not in Path(coarraylab.__file__).resolve().parents:
        raise ImportError(f"coarraylab imported from {coarraylab.__file__}, not from {src}")
    return elapsed


def environment(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "coarraylab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


class Calibration:
    """A fixed kernel, timed next to every call, that shows how fast the CPU
    runs at that moment.  It mixes the kinds of work the workloads do: an
    interpreter loop, small matrix products, a sort and dict building.  It
    does not use coarraylab, so no change to the package can move it."""

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self.matrix = rng.standard_normal((64, 64))
        self.values = rng.integers(0, 1000, 20000)
        self.unique = np.unique
        self.kernel()
        self.last = self.measure()

    def kernel(self) -> None:
        total = 0
        for i in range(30000):
            total += i % 7
        for _ in range(20):
            self.matrix @ self.matrix
        self.unique(self.values)
        {i: str(i) for i in range(3000)}

    def measure(self) -> float:
        start = process_time()
        self.kernel()
        return process_time() - start

    def now(self, samples: int = 3) -> float:
        """The factor that turns CPU time measured now into CPU time at the
        reference speed: CALIBRATION_REF_S over the median of fresh kernel
        times."""
        times = [self.measure() for _ in range(samples)]
        self.last = times[-1]
        return CALIBRATION_REF_S / statistics.median(times)

    def around_call(self) -> float:
        """The same factor for the call just made, from the mean of the
        kernel time before it and a fresh one after it."""
        before, self.last = self.last, self.measure()
        return CALIBRATION_REF_S / (0.5 * (before + self.last))


class Tally:
    """Latencies and check results of the calls of one phase.  ``scaled``
    holds CPU times at the reference speed, or the plain CPU times when
    ``calibrated`` is false."""

    def __init__(self, calibrated: bool = True) -> None:
        self.calibration = Calibration() if calibrated else None
        self.scaled: list[float] = []
        self.cpu: list[float] = []
        self.latencies: list[float] = []
        self.ops = 0
        self.trials = 0
        self.failed = 0
        self.unreferenced = 0
        self.messages: list[str] = []

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)


def run_round(workload, calls, reference, tally, tracer=None) -> None:
    """Run one round of calls closed loop, timing each call and checking its
    output outside the timed region."""
    results = []
    for call in calls:
        if tracer is not None:
            tracer.run = len(tally.latencies)
        clock = Clock()
        raw = call.run()
        cpu, wall = clock.read()
        tally.scaled.append(cpu * tally.calibration.around_call() if tally.calibration else cpu)
        tally.cpu.append(cpu)
        tally.latencies.append(wall)
        if tracer is not None:
            tracer.run = None
        output = workload.collect(call, raw)
        ops = workload.ops_of(call, output)
        failed, messages = workload.invariants(call, output)
        expected = reference["cases"].get(call.key) if reference else None
        if expected is None:
            tally.unreferenced += 1
        else:
            more, extra = workload.compare(call, output, expected)
            failed, messages = failed | more, messages + extra
        tally.ops += ops
        tally.trials += call.trials
        tally.failed += len({i for i in failed if i < ops})
        tally.messages += messages
        results.append((call, output))
    failed_ops, messages = workload.check_round(results)
    tally.failed += failed_ops
    tally.messages += messages


def run_for(rounds, seconds, step) -> None:
    """Feed rounds to ``step`` while the elapsed time plus half the last
    round's time stays within ``seconds``: runs end near ``seconds`` without
    cutting a round, and always run at least one."""
    start = perf_counter()
    last_round = None
    for calls in rounds:
        if last_round is not None and perf_counter() - start + 0.5 * last_round > seconds:
            break
        round_start = perf_counter()
        step(calls)
        last_round = perf_counter() - round_start


def set_up(workload) -> tuple[float, float]:
    """Build the inputs and run one warm-up operation; returns (CPU, wall)
    seconds."""
    clock = Clock()
    workload.build()
    workload.warmup()
    return clock.read()


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with at least ten
    samples above it.  Below twenty samples that statistic would sit under
    the median, so the maximum is reported instead."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = n - 10 if n >= 20 else n
    return ordered[k - 1], 100.0 * k / n


def timed_slice(workload, seconds, reference, setup=(0.0, 0.0)) -> dict:
    """Time and check the calls of one slice; ``setup`` is its (CPU, wall)
    set-up seconds.  Returns plain data, which a worker prints as JSON."""
    tally = Tally(workload.calibrated)
    setup_cpu, setup_wall = setup
    setup_scaled = setup_cpu * tally.calibration.now() if tally.calibration else setup_cpu
    run_for(workload.schedule(), seconds,
            lambda calls: run_round(workload, calls, reference, tally))
    final = workload.final_check()
    return {"setup": [setup_scaled, setup_cpu, setup_wall], "scaled": tally.scaled,
            "cpu": tally.cpu, "wall": tally.latencies,
            "ops": tally.ops, "attempted": tally.ops + len(final),
            "failed": tally.failed + len(final), "trials": tally.trials,
            "unreferenced": tally.unreferenced, "messages": tally.messages + final,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def run_worker(args, index: int, count: int) -> dict:
    """One slice in a fresh interpreter; waits for it to end."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", repr(args.seconds / count),
         "--slice", str(index)],
        capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {index} of {args.workload} failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(slices: list[dict]) -> dict:
    """The end-to-end metrics over the calls of every slice, from CPU times
    at the reference speed; raw CPU and wall figures go to the details."""
    times = {kind: [t for s in slices for t in s[kind]] for kind in ("scaled", "cpu", "wall")}
    setups = {kind: [s["setup"][i] for s in slices]
              for i, kind in enumerate(("scaled", "cpu", "wall"))}
    ops = sum(s["ops"] for s in slices)
    attempted = sum(s["attempted"] for s in slices)
    failed = sum(s["failed"] for s in slices)

    def timing(kind):
        value, percentile = tail(times[kind])
        return {"setup_s": statistics.median(setups[kind]),
                "ops_per_s": ops / sum(times[kind]),
                "call_p50_ms": 1e3 * statistics.median(times[kind]),
                "call_tail_ms": 1e3 * value}, percentile

    metrics, tail_pct = timing("scaled")
    metrics["peak_rss_mb"] = max(s["peak_rss_mb"] for s in slices)
    metrics["success_rate"] = 1.0 - failed / attempted if attempted else 0.0
    details = {
        "error_rate": failed / attempted if attempted else 1.0,
        "call_tail_percentile": tail_pct,
        "calls": len(times["cpu"]),
        "slices": len(slices),
        "trials": sum(s["trials"] for s in slices),
        "setup_samples_s": setups["scaled"],
        **{f"{kind}_{name}": value for kind in ("cpu", "wall")
           for name, value in timing(kind)[0].items()},
        "scaled_ms": [1e3 * t for t in times["scaled"]],
        "cpu_ms": [1e3 * t for t in times["cpu"]],
        "latencies_ms": [1e3 * t for t in times["wall"]],
        "unreferenced_calls": sum(s["unreferenced"] for s in slices),
    }
    messages = [m for s in slices for m in s["messages"]]
    return _result(attempted, failed, messages, metrics, details)


def traced(workload, seconds, reference, package) -> tuple[dict, object]:
    """Trace the set-up, then run each round untraced and again traced,
    alternating which goes first, so that drift and order effects fall on
    both sides of the overhead alike."""
    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    tracer.install(package)
    try:
        tracer.run = "setup"
        set_up(workload)
    finally:
        tracer.uninstall()
    tracer.run = None
    tracer.counters.clear()
    plain, traced_tally = Tally(calibrated=False), Tally(calibrated=False)

    def run_traced(calls):
        tracer.install(package)
        try:
            run_round(workload, calls, reference, traced_tally, tracer)
        finally:
            tracer.uninstall()

    rounds_run = 0

    def both(calls):
        nonlocal rounds_run
        steps = [lambda: run_round(workload, calls, reference, plain),
                 lambda: run_traced(calls)]
        for step in steps[::-1] if rounds_run % 2 else steps:
            step()
        rounds_run += 1

    run_for(workload.schedule(), seconds, both)
    final = workload.final_check()
    metrics = layer_metrics(tracer, trials=traced_tally.trials,
                            ops_wall_s=traced_tally.busy_s, untraced_wall_s=plain.busy_s)
    attempted = plain.ops + traced_tally.ops + len(final)
    failed = plain.failed + traced_tally.failed + len(final)
    details = {"calls": len(traced_tally.latencies), "trials": traced_tally.trials,
               "unreferenced_calls": plain.unreferenced + traced_tally.unreferenced}
    messages = plain.messages + traced_tally.messages + final
    return _result(attempted, failed, messages, metrics, details), tracer


def _result(attempted, failed, messages, metrics, details) -> dict:
    return {"correct": failed == 0 and not messages, "attempted": attempted,
            "failed": failed, "metrics": metrics, "details": details, "messages": messages}


def prepare(name: str, seed: int, workdir: Path, build: bool = True):
    """Import the package, then build the workload (unless ``build`` is
    false) and load its reference.  Returns (workload, reference, (CPU, wall)
    set-up seconds)."""
    import_cpu, import_wall = import_package()
    import workloads

    workload = workloads.WORKLOADS[name](seed, workdir)
    cpu, wall = set_up(workload) if build else (0.0, 0.0)
    reference = workloads.load_reference(name)
    if reference is None:
        raise SystemExit(f"no reference for {name}: run benchmarks/capture.py")
    if reference["params"] != workload.params():
        raise SystemExit(f"reference for {name} was captured with other sizes")
    return workload, reference, (import_cpu + cpu, import_wall + wall)


def run_slice(args) -> int:
    """Worker: set up, time one slice and print it as JSON.  Each slice
    visits the input pool in its own order."""
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        workload, reference, setup = prepare(args.workload, 1000 * args.seed + args.slice,
                                             workdir)
        data = timed_slice(workload, args.seconds, reference, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(data))
    return 0


def run_one(args, contract) -> int:
    limit_blas_threads()
    tracer = None
    if args.trace:
        workdir = OUT / f"work-{args.workload}-{os.getpid()}"
        try:
            workload, reference, _ = prepare(args.workload, args.seed, workdir, build=False)
            import coarraylab

            result, tracer = traced(workload, args.seconds, reference, coarraylab)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        wanted = contract["per_layer"]
    else:
        result = end_to_end([run_worker(args, i, SLICES) for i in range(SLICES)])
        wanted = contract["end_to_end"]

    env = environment(args.seed)
    stem = f"{args.workload}.seed{args.seed}.trace{int(args.trace)}"
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seconds": args.seconds, "env": env, **result}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"{stem}.spans.jsonl.gz")

    print("env " + json.dumps(env, sort_keys=True))
    for key, value in sorted(result["details"].items()):
        if key not in ("scaled_ms", "cpu_ms", "latencies_ms"):
            print(f"detail {key} {value}")
    for message in result["messages"][:MESSAGES_SHOWN]:
        print(f"check failed: {message}")
    metrics = {}
    for spec in wanted:
        value = result["metrics"].get(spec["name"], 0.0)
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"metric {spec['name']} {value:.6g} {spec['unit']}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


def run_all(args, contract) -> int:
    """Every workload, each in a fresh process (peak RSS is per process)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for spec in contract["workloads"]:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", spec["name"],
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(int(args.trace))],
            capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        print(f"== {spec['name']} (exit {proc.returncode})")
        for line in lines[:-1]:
            print(line)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(proc.stderr.strip(), file=sys.stderr)
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{spec['name']}.{name}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--slice", type=int, default=None,
                        help="run as the worker for this slice of an untraced run")
    args = parser.parse_args(argv)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(contract["run_seconds"])
    if args.workload == "all":
        return run_all(args, contract)
    if args.workload not in {w["name"] for w in contract["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if args.slice is not None:
        limit_blas_threads()
        return run_slice(args)
    return run_one(args, contract)


if __name__ == "__main__":
    sys.exit(main())
