"""Benchmark of projconst's exact certifier, end to end and layer by layer.

    python3 perfbench/run.py --workload exact-lp --seed 0 --seconds 60 --trace 0

Runs one seeded workload (exact-lp or no-lp; see
perfbench/README.md) through projconst's public API in this single-threaded
process, checks every output after the timed region, and prints one line
per metric with its unit.  Times are scaled to a reference host speed,
measured as the run goes by a fixed probe that does not use projconst.
The last line of stdout is the JSON result
`{"correct", "attempted", "failed", "metrics"}`.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 each pass runs once plain and once
with spans around every layer call, and the metrics are the per-layer ones.
A full report (environment, capped items, failures) is written under
perfbench/out/, together with the spans of a traced run.

Exit codes: 0 ok, 2 projconst not importable from ./src, 3 an output failed
the correctness gate.  Setting PERFBENCH_FAULT=<workload> corrupts that
workload's first reference value, so the gate must fail (negative control).
"""

import os

# One thread in every BLAS/OpenMP pool; this must happen before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Tracer, instrument, totals_by_name  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

WORKLOAD_NAMES = ("exact-lp", "no-lp")
FAULT_ENV = "PERFBENCH_FAULT"
ITEM_CAP_S = 30.0        # an item still running after this is stopped and counted failed
SETUP_MIN = 5            # fewest set-ups per run, each in a fresh interpreter; setup_s is their median
PROBE_EVERY_S = 0.3      # a host-speed probe follows the first item to end this long after the last
PROBE_REF_S = 0.015      # the probe's time at the reference speed (a 2-core x86 VM, Python 3.11)
TAIL_LADDER = (0.99, 0.95, 0.9, 0.75, 0.5)
MIN_BEYOND = 10          # samples a tail percentile must leave above it

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("wall_raw_s", "s"), ("item_p50_s", "s"),
              ("item_tail_s", "s"), ("peak_rss_mb", "MB"))
# Printed and reported, but left out of the result line and BENCHMARK.json:
# wall_raw_s moves with the host's speed, and the item percentiles rest on
# a few small programs each, so their run-to-run spread is too wide (README).
REPORT_ONLY = {"wall_raw_s", "item_p50_s", "item_tail_s"}

# Span names whose metric name differs from the span's.
SPAN_OF_METRIC = {"minproj.certify": "minproj.projection_constant"}
PER_LAYER = (
    ("simplex.solve_linear_program.s", "s"),
    ("simplex.solve_linear_program.calls", "count"),
    ("minproj.build_projection_lp.s", "s"),
    ("minproj.certify.s", "s"),
    ("minproj.float_oracle.s", "s"),
    ("minproj.float_oracle.calls", "count"),
    ("lp.vars", "count"),
    ("lp.constraints", "count"),
    ("lp.result_max_bits", "bits"),
    ("linalg.Mat.matmul.s", "s"),
    ("linalg.Mat.matmul.calls", "count"),
    ("linalg.inf_op_norm.s", "s"),
    ("zerosum.symmetrize.s", "s"),
    ("zerosum.extract_r.s", "s"),
    ("zerosum.verify_multiplication_law.s", "s"),
    ("zerosum.sigma_subspace.s", "s"),
    ("planner.demonstrate_schedule.s", "s"),
    ("planner.plan_parameters.s", "s"),
    ("banach_mazur.build_model.s", "s"),
    ("banach_mazur.verify_inverse.s", "s"),
    ("banach_mazur.operator_norm_window.s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def load_workloads():
    """Import the benchmark's workloads, and through them projconst from ./src."""
    sys.path.insert(0, str(SRC))
    try:
        import projconst
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import projconst from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not Path(projconst.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: projconst came from {projconst.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return workloads


# ---------------------------------------------------------------------------
# set-up


def setup_probe(workload: str, seed: int) -> float:
    """Import, generate and build the inputs, one warm-up call."""
    start = time.perf_counter()
    wl = load_workloads()
    wl.make_items(workload, seed)[0].run()
    return time.perf_counter() - start


def measure_setup(workload: str, seed: int) -> float:
    """One set-up, timed inside a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


# ---------------------------------------------------------------------------
# timed passes


class ItemTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ItemTimeout()


def host_probe() -> float:
    """Time a fixed exact elimination written here, independent of projconst.

    Gauss-Jordan in Fractions on a fixed 9 x 9 integer matrix, 4 times: the
    same kind of interpreter work as the exact certifier, so it slows down
    with it when other tenants load the host.
    """
    n = 9
    start = time.perf_counter()
    for _ in range(4):
        a = [[Fraction((i * 7 + j * 13) % 11 - 5 + 20 * (i == j)) for j in range(n)]
             for i in range(n)]
        for c in range(n):
            for r in range(n):
                if r != c and a[r][c]:
                    f = a[r][c] / a[c][c]
                    a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return time.perf_counter() - start


@dataclass
class Pass:
    times: list[float]
    outputs: list
    failures: list[dict]
    probes: list[float]  # host_probe times taken during the pass, outside the items

    @property
    def wall(self) -> float:
        return sum(self.times)


def run_pass(items) -> Pass:
    """Run every item once, in order; an item that raises or hits the cap is failed.

    The host probe runs before the first item and then after every item
    that ends PROBE_EVERY_S or more after the last probe.
    """
    times, outputs, failures = [], [], []
    probes = [host_probe()]
    last_probe = time.perf_counter()
    for item in items:
        out = None
        signal.setitimer(signal.ITIMER_REAL, ITEM_CAP_S)
        t = time.perf_counter()
        try:
            out = item.run()
        except ItemTimeout:
            failures.append({"item": item.name, "reason": f"hit the {ITEM_CAP_S:g} s cap",
                             "capped": True})
        except Exception as exc:  # counted in `failed`, never dropped
            failures.append({"item": item.name, "reason": repr(exc), "capped": False})
        finally:
            times.append(time.perf_counter() - t)
            signal.setitimer(signal.ITIMER_REAL, 0)
        outputs.append(out)
        if time.perf_counter() - last_probe >= PROBE_EVERY_S:
            probes.append(host_probe())
            last_probe = time.perf_counter()
    return Pass(times, outputs, failures, probes)


def layer_targets():
    """(module, function, span name, on_result) for each traced layer call."""
    from projconst import banach_mazur, linalg, minproj, planner, simplex, zerosum

    def lp_shape(tracer, lp):
        tracer.add("lp.vars", lp.num_vars)
        tracer.add("lp.constraints", lp.num_equalities + lp.num_inequalities)

    def result_bits(tracer, result):
        bits = max(max(x.numerator.bit_length(), x.denominator.bit_length())
                   for x in (result.value, *result.projection.entries))
        tracer.maximum("lp.result_max_bits", bits)

    return [
        (simplex, "solve_linear_program", "simplex.solve_linear_program", None),
        (minproj, "build_projection_lp", "minproj.build_projection_lp", lp_shape),
        (minproj, "projection_constant", "minproj.projection_constant", result_bits),
        (minproj, "float_oracle", "minproj.float_oracle", None),
        # Mat.__matmul__ and Mat.is_idempotent both go through mat_compose.
        (linalg, "mat_compose", "linalg.Mat.matmul", None),
        (linalg, "inf_op_norm", "linalg.inf_op_norm", None),
    ] + [(zerosum, f, f"zerosum.{f}", None) for f in
         ("symmetrize", "extract_r", "verify_multiplication_law", "sigma_subspace")
    ] + [(planner, f, f"planner.{f}", None) for f in
         ("demonstrate_schedule", "plan_parameters")
    ] + [(banach_mazur, f, f"banach_mazur.{f}", None) for f in
         ("build_model", "verify_inverse", "operator_norm_window")]


def measure(items, seconds: float, trace: bool, setup):
    """Plain passes over `items`, each followed by a traced rerun when
    tracing and by one call of `setup` when not.

    A new round starts only if the previous one would still fit in
    `seconds`, so a run ends close to it; the first round always runs.
    Set-ups are spread over the run like the passes, so that both see the
    same mix of host load; at least SETUP_MIN are taken.
    """
    plain, traced, setups = [], [], []
    tracer = Tracer()
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        plain.append(run_pass(items))
        if trace:
            with instrument(tracer, layer_targets()):
                traced.append(run_pass(items))
        else:
            setups.append(setup())
        now = time.perf_counter()
        if now - start + now - round_start > seconds:
            break
    while not trace and len(setups) < SETUP_MIN:
        setups.append(setup())
    return plain, traced, setups, tracer


# ---------------------------------------------------------------------------
# metrics


def _rank(q: float, n: int) -> int:
    """1-based nearest rank of quantile q among n samples."""
    return max(1, math.ceil(round(q * n, 9)))


def tail_quantile(n: int) -> float:
    """Highest ladder percentile leaving MIN_BEYOND of n samples above it."""
    return next((q for q in TAIL_LADDER if n - _rank(q, n) >= MIN_BEYOND), 0.5)


def nearest_rank(values: list[float], q: float) -> float:
    return sorted(values)[_rank(q, len(values)) - 1]


def item_times(passes: list[Pass], scaled: bool = True) -> list[float]:
    """Each item's median time over the passes.

    Scaled, a time is multiplied by PROBE_REF_S over the median host probe
    of its pass: it reads as seconds at the reference speed, and the drift
    of a shared host's speed between and within runs mostly cancels (README).
    """
    factors = [PROBE_REF_S / statistics.median(p.probes) if scaled else 1.0 for p in passes]
    return [statistics.median(t * f for t, f in zip(times, factors))
            for times in zip(*(p.times for p in passes))]


def end_to_end_metrics(setup: list[float], passes: list[Pass], rss_mb: float):
    times = item_times(passes)
    q = tail_quantile(len(times))
    probes = [x for p in passes for x in p.probes]
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(times),
        "wall_raw_s": sum(item_times(passes, scaled=False)),
        "item_p50_s": statistics.median(times),
        "item_tail_s": nearest_rank(times, q),
        "peak_rss_mb": rss_mb,
    }
    beyond = sum(1 for t in times if t > values["item_tail_s"])
    per_item = f"each item's median scaled time over {len(passes)} passes"
    notes = {
        "setup_s": f"median of {len(setup)} set-ups in fresh interpreters, spread over the run",
        "wall_s": f"sum over {len(times)} items of {per_item}; {len(probes)} probes, "
                  f"median {statistics.median(probes):.4g} s, reference {PROBE_REF_S:g} s",
        "wall_raw_s": f"sum over {len(times)} items of each item's median unscaled time",
        "item_p50_s": f"median over {len(times)} items of {per_item}",
        "item_tail_s": f"p{100 * q:g} over {len(times)} items of {per_item}, "
                       f"{beyond} beyond it",
        "peak_rss_mb": "ru_maxrss right after the timed passes",
    }
    return {name: (values[name], unit, notes[name]) for name, unit in END_TO_END}


def per_layer_metrics(plain: list[Pass], traced: list[Pass], tracer: Tracer):
    seconds, calls = totals_by_name(tracer.spans)
    n = len(traced)
    out = {}
    for name, unit in PER_LAYER:
        stem = name.rsplit(".", 1)[0]
        span = SPAN_OF_METRIC.get(stem, stem)
        if name == "trace.overhead_ratio":
            value = sum(item_times(traced)) / sum(item_times(plain)) - 1
            note = f"traced over plain scaled wall_s, of {n} passes each, minus 1"
        elif name == "lp.result_max_bits":
            value = tracer.counts.get(name, 0)
            note = "largest numerator/denominator bit length in any certified result"
        elif name.startswith("lp."):
            value = tracer.counts.get(name, 0) / n
            note = "summed over the programs built in one pass"
        elif name.endswith(".calls"):
            value = calls.get(span, 0) / n
            note = "calls per pass"
        else:
            value = seconds.get(span, 0.0) / n
            note = f"self time of {span} spans per pass"
        out[name] = (value, unit, note)
    return out


# ---------------------------------------------------------------------------


def environment(seed: int) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or None
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "seed": seed,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: time one set-up and print it")
    args = parser.parse_args(argv)

    if args.setup_probe:
        print(repr(setup_probe(args.workload, args.seed)))
        return 0

    wl = load_workloads()
    fault = os.environ.get(FAULT_ENV) == args.workload
    items = wl.make_items(args.workload, args.seed, fault)
    items[0].run()  # warm-up, as in each set-up sample

    signal.signal(signal.SIGALRM, _on_alarm)
    plain, traced, setup, tracer = measure(
        items, args.seconds, bool(args.trace),
        lambda: measure_setup(args.workload, args.seed))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    try:
        checked = wl.check_outputs(items, [p.outputs for p in plain + traced])
    except wl.GateFailure as exc:
        print(f"perfbench: correctness gate failed: {exc}", file=sys.stderr)
        return 3

    runs = plain + traced
    failures = [f for p in runs for f in p.failures]
    attempted = len(items) * len(runs)
    if args.trace:
        metrics = per_layer_metrics(plain, traced, tracer)
    else:
        metrics = end_to_end_metrics(setup, plain, rss_mb)
    capped = sorted({f["item"] for f in failures if f["capped"]})

    env = environment(args.seed)
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(plain)} items/pass={len(items)} checked={checked}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items() if k != "threads"))
    for name, (value, unit, note) in metrics.items():
        only = ", report only" if name in REPORT_ONLY else ""
        print(f"metric {name} = {value:.6g} {unit}  ({note}{only})")
    print(f"metric fail_ratio = {len(failures) / attempted:.6g} ratio  "
          f"({len(failures)} of {attempted} items; per-item cap {ITEM_CAP_S:g} s; "
          f"capped: {', '.join(capped) or 'none'}, report only)")

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "environment": env, "item_cap_s": ITEM_CAP_S, "capped": capped,
        "failures": failures, "fail_ratio": len(failures) / attempted,
        "setup_samples_s": setup,
        "pass_wall_s": [p.wall for p in plain],
        "pass_probes_s": [p.probes for p in plain],
        "item_s": [[[i.name, t] for i, t in zip(items, p.times)] for p in plain],
        "traced_pass_wall_s": [p.wall for p in traced],
        "metrics": {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in metrics.items()},
    }
    stem.with_suffix(".json").write_text(json.dumps(report, indent=1) + "\n")
    if args.trace:
        Path(f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["name", "parent", "start", "end"],
             "spans": [[s.name, s.parent, s.start, s.end] for s in tracer.spans]}))
    print(f"report written to {stem.with_suffix('.json').relative_to(ROOT)}")

    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()
                    if k not in REPORT_ONLY},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
