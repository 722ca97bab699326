"""Tests of the benchmark itself: seeded inputs, span arithmetic, the gate.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, instrument, self_times, totals_by_name  # noqa: E402
from projconst import minproj, zerosum  # noqa: E402
from projconst.linalg import Subspace  # noqa: E402


def _inputs(workload, seed):
    items = workloads.make_items(workload, seed)
    return json.dumps([[i.name, i.spec] for i in items], sort_keys=True).encode()


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_same_seed_gives_identical_inputs(workload):
    assert _inputs(workload, 11) == _inputs(workload, 11)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_other_seed_changes_inputs(workload):
    assert _inputs(workload, 11) != _inputs(workload, 12)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("root", None, 0.0, 10.0),
        Span("a", 0, 1.0, 4.0),
        Span("b", 0, 3.0, 6.0),   # overlaps a: the union [1, 6] counts once
        Span("leaf", 1, 2.0, 3.0),
        Span("a", None, 20.0, 21.5),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 3.0, 1.0, 1.5])
    seconds, calls = totals_by_name(spans)
    assert seconds["a"] == pytest.approx(3.5)
    assert calls == {"root": 1, "a": 2, "b": 1, "leaf": 1}


def test_wrapped_calls_nest_and_partition_time():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.01))

    def body():
        inner()
        inner()
        time.sleep(0.01)

    tracer.wrap("outer", body)()
    outer, first, second = tracer.spans
    assert (outer.name, outer.parent) == ("outer", None)
    assert (first.parent, second.parent) == (0, 0)
    assert sum(self_times(tracer.spans)) == pytest.approx(outer.end - outer.start)


def test_instrument_traces_import_sites_and_restores_them():
    original = minproj.projection_constant
    tracer = Tracer()
    with instrument(tracer, run.layer_targets()):
        assert zerosum.projection_constant is not original
        zerosum.verify_multiplication_law(Subspace.from_rows([[1]]), 3)
    assert zerosum.projection_constant is original
    assert minproj.solve_linear_program.__module__ == "projconst.simplex"
    names = [s.name for s in tracer.spans]
    # lambda of the line in ell_inf^1 needs no LP; Sigma_3 of it does.
    assert names.count("minproj.projection_constant") == 2
    assert names.count("simplex.solve_linear_program") == 1
    solve = next(s for s in tracer.spans if s.name == "simplex.solve_linear_program")
    assert tracer.spans[solve.parent].name == "minproj.projection_constant"
    assert tracer.counts["lp.vars"] > 0


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_gate_passes_and_a_corrupted_reference_fails_it(workload):
    good = workloads.make_items(workload, 0)[0]
    bad = workloads.make_items(workload, 0, fault=True)[0]
    out = good.run()
    good.check(out)
    with pytest.raises(workloads.GateFailure):
        bad.check(out)


def test_gate_rejects_outputs_that_differ_between_passes():
    item = workloads.make_items("exact-lp", 0)[1]
    out = item.run()
    other = workloads.make_items("exact-lp", 0)[2].run()
    assert workloads.check_outputs([item], [[out], [None], [out]]) == 2
    with pytest.raises(workloads.GateFailure):
        workloads.check_outputs([item], [[out], [other]])


def test_highs_reference_matches_exact_values():
    for n in (3, 5):
        assert workloads.highs_lambda(zerosum.coordinate_sum_kernel(n)) == \
            pytest.approx(2 - 2 / n, abs=1e-9)


def test_item_over_the_cap_is_counted_as_failed(monkeypatch):
    monkeypatch.setattr(run, "ITEM_CAP_S", 0.05)
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        slow = workloads.Item("slow", {}, lambda: time.sleep(5), lambda out: None)
        done = run.run_pass([slow])
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert done.outputs == [None]
    assert done.failures[0]["capped"] and done.failures[0]["item"] == "slow"
    assert done.times[0] < 1.0


def test_scaled_item_times_cancel_host_speed():
    # The second and third passes ran on a host twice as fast: items and
    # probes both took half the time.
    slow = run.Pass([0.2, 0.4], [None, None], [], [0.03, 0.03, 0.05])
    fast = run.Pass([0.1, 0.2], [None, None], [], [0.015])
    per_probe = run.PROBE_REF_S / 0.015
    assert run.item_times([slow, fast, fast]) == pytest.approx([0.1 * per_probe, 0.2 * per_probe])
    assert run.item_times([slow, slow, fast]) == pytest.approx([0.1 * per_probe, 0.2 * per_probe])
    assert run.item_times([slow, slow, fast], scaled=False) == pytest.approx([0.2, 0.4])


def test_tail_percentile_leaves_ten_items_of_a_pass_above_it():
    assert run.tail_quantile(40) == 0.75
    assert run.tail_quantile(100) == 0.9
    assert run.tail_quantile(12) == 0.5
    assert run.nearest_rank(list(range(1, 101)), 0.9) == 90


def test_exits_nonzero_without_a_result_when_src_is_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-lp", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
