"""Capture the reference outputs the benchmark checks against.

    python3 benchmarks/capture.py              # every workload
    python3 benchmarks/capture.py mc_long_records

Runs every input case of each workload's pool once with the code in ``src/``
and writes ``benchmarks/reference/<workload>.json`` (plus ``.npz`` for
arrays).  Recapture only when a change is meant to alter outputs, and say so.
"""

from __future__ import annotations

import sys
import tempfile
from time import perf_counter

import run


def main(argv: list[str]) -> int:
    run.limit_blas_threads()
    run.import_package()
    import workloads

    names = argv or list(workloads.WORKLOADS)
    for name in names:
        start = perf_counter()
        with tempfile.TemporaryDirectory(dir=run.ROOT) as workdir:
            workload = workloads.WORKLOADS[name](0, workdir)
            workload.build()
            reference = workloads.capture(workload)
        workloads.save_reference(reference)
        print(f"{name}: {len(reference['cases'])} cases in {perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
