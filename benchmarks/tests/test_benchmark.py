"""Tests of the benchmark itself: the correctness gate, the tracer and the
self-time arithmetic.

    python3 -m pytest benchmarks/tests -q
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402

run.import_package()

import coarraylab  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 5


def _bump_first_estimate(case):
    case["grid_index"][0][0] += 1


ALTERATIONS = {
    "mc_presets": _bump_first_estimate,
    "mc_long_records": _bump_first_estimate,
    "music_fine_n32": lambda case: case.update(dump_sha256="0" * 64),
    "verify_sweep": lambda case: case.update(reports=case["reports"] + 1),
}


def _tiny(name, workdir):
    workload = workloads.WORKLOADS[name](SEED, workdir, tiny=True)
    run.set_up(workload)
    return workload


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_gate_passes_on_reference_and_catches_an_altered_one(name, tmp_path):
    reference = workloads.capture(_tiny(name, tmp_path))

    clean = run.end_to_end([run.timed_slice(_tiny(name, tmp_path), 0.0, reference)])
    assert clean["correct"], clean["messages"]
    assert clean["attempted"] >= 1 and clean["failed"] == 0
    assert clean["details"]["unreferenced_calls"] == 0
    assert clean["metrics"]["success_rate"] == 1.0

    altered = copy.deepcopy(reference)
    for case in altered["cases"].values():
        ALTERATIONS[name](case)
    caught = run.end_to_end([run.timed_slice(_tiny(name, tmp_path), 0.0, altered)])
    assert not caught["correct"]
    assert caught["failed"] >= 1
    assert caught["metrics"]["success_rate"] < 1.0


def test_self_time_subtracts_the_union_of_child_spans():
    span = tracing.Span
    spans = [
        span(0, "root", 0.0, 10.0, None, 0),
        span(1, "a", 1.0, 4.0, 0, 0),
        span(2, "b", 5.0, 9.0, 0, 0),
        span(3, "c", 6.0, 7.0, 2, 0),
        span(4, "d", 6.5, 8.0, 2, 0),  # overlaps its sibling c
    ]
    assert tracing.self_times(spans) == pytest.approx({0: 3.0, 1: 3.0, 2: 2.0, 3: 1.0, 4: 1.5})


def test_covered_length_clips_children_to_the_parent():
    assert tracing.covered_length([(-1.0, 2.0), (8.0, 12.0), (3.0, 3.0)], 0.0, 10.0) == 4.0


def test_layer_metrics_sum_self_times_per_function_and_module():
    tracer = tracing.Tracer()
    span = tracing.Span
    tracer.spans += [
        span(0, "geometry.design", 0.0, 1.0, None, "setup"),
        span(1, "estimation.estimate_doas", 1.0, 5.0, None, 0),
        span(2, "signal.simulate_snapshots", 1.5, 2.5, 1, 0),
        span(3, "estimation.music_spectrum", 3.0, 4.5, 1, 0),
    ]
    m = tracing.layer_metrics(tracer, trials=2, ops_wall_s=4.0, untraced_wall_s=3.5)
    assert m["estimation.estimate_doas.self_s"] == pytest.approx(1.5)
    assert m["estimation.self_s"] == pytest.approx(3.0)
    assert m["signal.share"] == pytest.approx(0.25)
    assert m["estimation.music_spectrum.share"] == pytest.approx(1.5 / 4.0)
    assert m["signal.simulate_snapshots.calls_per_trial"] == 0.5
    assert m["setup.geometry.self_s"] == pytest.approx(1.0)
    assert "geometry.design.calls" not in m
    assert m["trace.overhead_s"] == pytest.approx(0.5)


def test_traced_run_reaches_imported_names_and_registries_then_restores(tmp_path):
    originals = (coarraylab.coarray.difference_set, coarraylab.verify.difference_set,
                 dict(coarraylab.verify._CHECKERS))
    reference = workloads.capture(_tiny("verify_sweep", tmp_path))
    result, _ = run.traced(workloads.WORKLOADS["verify_sweep"](SEED, tmp_path, tiny=True),
                           0.0, reference, coarraylab)
    m = result["metrics"]
    assert result["correct"], result["messages"]
    assert m["coarray.difference_set.calls"] > 0       # imported by name into verify
    assert m["verify.check_lemma1.calls"] > 0          # reached through verify._CHECKERS
    assert m["verify.passed_ratio"] == 1.0
    assert m["setup.verify.self_s"] > 0                 # the warm-up lemma check
    assert originals == (coarraylab.coarray.difference_set, coarraylab.verify.difference_set,
                         dict(coarraylab.verify._CHECKERS))


def test_traced_monte_carlo_counts_grid_work(tmp_path):
    reference = workloads.capture(_tiny("mc_presets", tmp_path))
    result, _ = run.traced(workloads.WORKLOADS["mc_presets"](SEED, tmp_path, tiny=True),
                           0.0, reference, coarraylab)
    m = result["metrics"]
    # One round: fig12 on SAULAs(12), fig13 on TSAULAs, Co-TSAULAs and
    # SAULAs(12), two trials each.  Smoothing keeps L = (uDOFs + 1) / 2
    # (95, 93, 87, 95) and both presets search 3599 grid points.
    assert m["estimation.music_spectrum.calls"] == 8
    assert m["signal.simulate_snapshots.calls_per_trial"] == 1.0
    grid_evals = 2 * (95 + 93 + 87 + 95) * 3599
    assert m["estimation.music_spectrum.grid_evals"] == grid_evals
    assert m["estimation.music_spectrum.steering_bytes"] == 16 * grid_evals


def test_tail_is_the_highest_order_statistic_with_ten_samples_above():
    latencies = [float(i) for i in range(1, 31)]
    assert run.tail(latencies) == (20.0, pytest.approx(100.0 * 20 / 30))
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
