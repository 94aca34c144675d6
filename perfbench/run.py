"""incgrade benchmark: one workload, one seed, a closed loop of CLI ops.

Usage (from the repository root):

    python3 perfbench/run.py --workload classify --seed 1 --seconds 20 --trace 0

Set-up generates the workload's inputs from the seed and starts one
untimed warm-up incgrade process; it is repeated SETUPS times and the
median is reported as setup_s. The measurement then runs the op list in
a loop, one op at a time, each in a fresh `python3` process (start-up
included, as a user of the CLI pays it), until --seconds have passed.
Every op's exit code and JSON output is checked against checks.py.

With --trace 0 the last line holds the end-to-end metrics. With --trace 1
the loop runs whole passes over the op list; each op runs untraced and
then through shim.py, and the last line holds the per-layer metrics.
See README.md.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import checks
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

# What the `incgrade` console script runs.
LAUNCH = "import sys; from incgrade.cli import main; sys.exit(main())"
SETUPS = 5
OP_TIMEOUT_S = 60
# Percentile reported as op_tail_ms: the highest with at least ten ops
# beyond it in a run at the baseline, fixed per workload so that two
# commits are compared at the same percentile.
TAIL_PERCENTILE = {"classify": 75, "slices": 75, "algebra": 75, "small": 95}


def child_env():
    env = dict(os.environ, PYTHONPATH=SRC)
    # Children write .pyc files and use the default enumeration budget.
    for name in ("PYTHONDONTWRITEBYTECODE", "INCGRADE_MAX_BUDGET"):
        env.pop(name, None)
    return env


def run_op(op, cwd, env, spans_file=None):
    """Run one op; returns (wall seconds, exit code, stdout)."""
    if spans_file is None:
        cmd = [sys.executable, "-c", LAUNCH] + op["argv"]
    else:
        cmd = [sys.executable, os.path.join(HERE, "shim.py"), spans_file] + op["argv"]
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    try:
        out, _ = proc.communicate(timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return time.perf_counter() - started, None, b""
    return time.perf_counter() - started, proc.returncode, out


def setup(workload, seed, run_dir, env):
    """Generate inputs and warm up, SETUPS times; (ops, inputs dir, times)."""
    times = []
    for k in range(SETUPS):
        started = time.perf_counter()
        inputs = os.path.join(run_dir, f"inputs{k}")
        os.mkdir(inputs)
        ops = workloads.build(workload, seed, inputs)
        run_op({"argv": ["validate", "--poset", "c1", "--format", "json"]}, inputs, env)
        times.append(time.perf_counter() - started)
    return ops, inputs, times


def tail(values, percentile):
    if len(values) < 2:
        return max(values)
    return statistics.quantiles(values, n=100, method="inclusive")[percentile - 1]


class Results:
    """Exit codes and outputs of ops; each distinct output is checked once,
    after the timed loop."""

    def __init__(self):
        self.runs = {}
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def record(self, op, code, out):
        self.attempted += 1
        key = (op["id"], code, out)
        if key not in self.runs:
            self.runs[key] = [op, 0]
        self.runs[key][1] += 1

    def check(self):
        checker = checks.Checker()
        for (_, code, out), (op, times) in self.runs.items():
            reason = "timed out" if code is None else checker.check(op, code, out)
            if reason:
                self.failed += times
                self.reasons.append(f"{op['id']} {' '.join(op['argv'])}: {reason}")


def passes(ops, seconds, run_pass):
    """Call run_pass() for whole passes over the op list while the next
    pass is expected to end within `seconds` (at least one pass); returns
    the wall time of each pass."""
    walls = []
    started = time.perf_counter()
    while True:
        pass_started = time.perf_counter()
        run_pass()
        now = time.perf_counter()
        walls.append(now - pass_started)
        if now + walls[-1] - started > seconds:
            return walls


def measure(ops, cwd, env, seconds, results, percentile):
    """End-to-end metrics (without setup_s) of untraced passes, with the
    latency of every op in ms."""
    latencies = []

    def run_pass():
        for op in ops:
            wall, code, out = run_op(op, cwd, env)
            latencies.append(1000 * wall)
            results.record(op, code, out)

    pass_walls = passes(ops, seconds, run_pass)
    return {
        "ops_per_s": (statistics.median(len(ops) / w for w in pass_walls), "ops/s"),
        "op_p50_ms": (statistics.median(latencies), "ms"),
        "op_tail_ms": (tail(latencies, percentile), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
                        "MB"),
    }, latencies


def measure_traced(ops, cwd, env, seconds, results):
    """Per-layer metrics of passes that run each op untraced, then traced.

    Times and shares cover every traced op; work counts come from the first
    pass, so they do not depend on how many passes fit in `seconds`.
    """
    agg = tracer.Aggregate()
    first = []
    plain, traced = [], []
    spans_file = os.path.join(cwd, "spans.json")

    def run_pass():
        counts = tracer.Aggregate()
        for op in ops:
            wall, code, out = run_op(op, cwd, env)
            plain.append(wall)
            results.record(op, code, out)
            wall, code, out = run_op(op, cwd, env, spans_file)
            traced.append(wall)
            results.record(op, code, out)
            if not os.path.exists(spans_file):
                continue
            spans, overhead = tracer.load(spans_file)
            os.remove(spans_file)
            span_op = tracer.OpSpans(int(wall * 1e9), overhead, spans)
            agg.add(span_op)
            counts.add(span_op)
        first.append(counts.counts)

    passes(ops, seconds, run_pass)
    counts = first[0]
    metrics = agg.metrics()
    metrics.update((name, (value, "count")) for name, value in counts.items())
    calls = counts["identities.slice_calls"]
    metrics["identities.slice_hit_ratio"] = (
        (calls - counts["identities.slice_misses"]) / calls if calls else 0.0, "ratio")
    added = counts["linalg.rows_added"]
    metrics["linalg.row_yield"] = (
        counts["linalg.rows_independent"] / added if added else 0.0, "ratio")
    plain_rate = len(plain) / sum(plain)
    traced_rate = len(traced) / sum(traced)
    metrics["trace.untraced_ops_per_s"] = (plain_rate, "ops/s")
    metrics["trace.traced_ops_per_s"] = (traced_rate, "ops/s")
    metrics["trace.overhead_ops_per_s"] = (plain_rate - traced_rate, "ops/s")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "incgrade", "cli.py")):
        print(f"error: no incgrade sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    run_dir = tempfile.mkdtemp(dir=WORK)
    try:
        env = child_env()
        ops, cwd, setup_times = setup(args.workload, args.seed, run_dir, env)
        results = Results()
        if args.trace:
            metrics = measure_traced(ops, cwd, env, args.seconds, results)
        else:
            metrics, latencies = measure(ops, cwd, env, args.seconds, results,
                                         TAIL_PERCENTILE[args.workload])
            metrics["setup_s"] = (statistics.median(setup_times), "s")
        results.check()
        for line in results.reasons:
            print("FAILED", line)
        print(f"workload {args.workload}, seed {args.seed}: {len(ops)} ops per pass, "
              f"{results.attempted} ops run, {results.failed} failed "
              f"(fail_ratio {results.failed / results.attempted:.4f})")
        for name, (value, unit) in sorted(metrics.items()):
            print(f"  {name:32s} {value:14.4f} {unit}")
        if not args.trace:
            beyond = sum(1 for v in latencies if v > metrics["op_tail_ms"][0])
            print(f"  op_tail_ms is p{TAIL_PERCENTILE[args.workload]}: "
                  f"{beyond} of {len(latencies)} ops lie beyond it")
        print(json.dumps({
            "correct": results.failed == 0,
            "attempted": results.attempted,
            "failed": results.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
