"""The monhom benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed relabels the workload's monoids and shuffles its job order (see
workloads.py; each pass of a run moves the identity to another index).
Jobs run through ``monhom.cli.main`` in a fresh worker process, one at a
time: a closed loop with one client and no threads.  Every job's exit
code and text report are checked against golden.json; a job that
differs counts as failed.

With ``--trace 0`` the run starts several fresh workers to time set-up
(interpreter start and ``import monhom.cli``), keeps the last one, and
repeats whole pairs of passes over the job list for about S seconds (the
pair count whose total comes closest to S).  It reports the mean pass
cost in reference-kernel times (see worker.SpeedProbe; raw wall time is
on the summary line), the median set-up time and the worker's peak
resident memory.  With ``--trace 1`` it spends half of S on untraced
passes and half on passes in a worker whose layer functions are wrapped
(tracer.py), and reports per-layer counts and self times.  Metric names
and units come from BENCHMARK.json.  The last line of standard output is
one JSON object: correct, attempted, failed and metrics.

The run writes only below ``.perfbench_work/`` in the checkout and
removes what it wrote.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
# One start takes about 0.1 s and varies by tens of percent; the median
# of many starts is steady.
SETUP_PROBES = 21

sys.path.insert(0, HERE)
from tracer import layer_stats, read_spans  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402


class BenchError(Exception):
    """The benchmark could not run (not a wrong answer of the program)."""


class Worker:
    """One fresh worker process; set-up time is measured on start."""

    def __init__(self, trace_path=None):
        cmd = [sys.executable, WORKER, SRC]
        if trace_path:
            cmd.append(trace_path)
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        self._read()
        self.setup_s = time.perf_counter() - start

    def _read(self):
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("the worker exited without answering")
        return json.loads(line)

    def run_pass(self, pass_no, jobs):
        self.proc.stdin.write(json.dumps({"pass": pass_no, "jobs": jobs})
                              + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self):
        try:
            if self.proc.poll() is None:
                self.proc.stdin.write(json.dumps({"quit": True}) + "\n")
                self.proc.stdin.flush()
            self.proc.wait(timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdin.close()
            self.proc.stdout.close()


def run_passes(worker, inputs, budget):
    """As many whole pairs of passes as bring the total time closest to
    budget; inputs(p) writes the inputs of pass p and returns its jobs.
    Passes 2k and 2k+1 put the identity at opposite ends of the element
    order (workloads.identity_index), so every pair costs about the same."""
    replies = []
    start = time.perf_counter()
    while True:
        for _ in range(2):
            pass_no = len(replies)
            replies.append(worker.run_pass(pass_no, inputs(pass_no)))
        elapsed = time.perf_counter() - start
        typical = 2 * statistics.median(r["wall_s"] for r in replies)
        if elapsed + typical / 2 > budget:
            return replies


def count_failures(replies, golden):
    failed = 0
    for reply in replies:
        for job, code, out in reply["results"]:
            if code != 0 or golden.get(job) != out:
                failed += 1
                print(f"FAILED {job}: exit {code}, output {out!r}",
                      file=sys.stderr)
    return failed


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def end_to_end(inputs, seconds):
    setups = []
    for _ in range(SETUP_PROBES - 1):
        probe = Worker()
        setups.append(probe.setup_s)
        probe.close()
    worker = Worker()
    setups.append(worker.setup_s)
    try:
        replies = run_passes(worker, inputs, seconds)
    finally:
        worker.close()
    costs = [r["cost"] for r in replies]
    walls = [r["wall_s"] for r in replies]
    q1, q3 = quartiles(costs)
    metrics = {"pass_cost": statistics.fmean(costs),
               "setup_s": statistics.median(setups),
               "peak_rss_mb": max(r["rss_kb"] for r in replies) / 1024}
    summary = (f"pass_cost mean {metrics['pass_cost']:.2f} (median "
               f"{statistics.median(costs):.2f}, q1 {q1:.2f}, q3 {q3:.2f}, "
               f"{len(costs)} passes); wall_s mean "
               f"{statistics.fmean(walls):.4f}; kernel_s median "
               f"{statistics.median(r['kernel_s'] for r in replies):.6f}; "
               f"setup_s median {metrics['setup_s']:.4f} "
               f"({len(setups)} starts); "
               f"peak_rss_mb {metrics['peak_rss_mb']:.1f}")
    return replies, metrics, summary


def layer_value(name, stats):
    """One per-layer metric of one pass, from its per-function stats."""
    def stat(fn, key):
        return stats.get(fn, {}).get(key, 0)

    if name == "exact_linalg.snf_transform_share":
        full = stat("exact_linalg.smith_normal_form", "calls")
        total = full + stat("exact_linalg.snf_diagonal", "calls")
        return full / total if total else 0.0
    if name == "gamma_chain.build_complex.degenerate_share":
        basis = stat("gamma_chain.build_complex", "basis")
        degenerate = stat("gamma_chain.build_complex", "degenerate")
        return degenerate / basis if basis else 0.0
    fn, key = name.rsplit(".", 1)
    return stat(fn, key)


def per_layer(inputs, seconds, workdir, names):
    start = time.perf_counter()
    plain = Worker()
    try:
        untraced = run_passes(plain, inputs, seconds / 2)
    finally:
        plain.close()
    trace_path = os.path.join(workdir, "spans.jsonl")
    traced_worker = Worker(trace_path)
    try:
        traced = run_passes(traced_worker, inputs,
                            seconds - (time.perf_counter() - start))
    finally:
        traced_worker.close()
    header, spans = read_spans(trace_path)
    for fn in header["missing"]:
        print(f"warning: {fn} is not in the program; its metrics read 0",
              file=sys.stderr)
    if header["size_errors"]:
        print(f"warning: sizes of {header['size_errors']} calls could not "
              "be taken", file=sys.stderr)
    passes = layer_stats(spans).values()
    # Pass p has the same inputs in both workers; compare like with like.
    common = min(len(traced), len(untraced))
    overhead = statistics.fmean(r["wall_s"] for r in traced[:common]) \
        / statistics.fmean(r["wall_s"] for r in untraced[:common])
    metrics = {}
    for name in names:
        if name == "trace.overhead_ratio":
            metrics[name] = overhead
        else:
            metrics[name] = statistics.median(
                layer_value(name, stats) for stats in passes)
    top = sorted(((metrics[n], n) for n in names if n.endswith(".self_s")),
                 reverse=True)[:4]
    summary = (f"{len(untraced)} untraced and {len(traced)} traced passes; "
               f"overhead_ratio {overhead:.3f}; largest self times: "
               + ", ".join(f"{n} {v:.3f}" for v, n in top))
    return untraced + traced, metrics, summary


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "monhom", "cli.py")):
        print(f"error: no monhom package under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as f:
        golden = json.load(f)
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}

    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        def inputs(pass_no):
            return make_inputs(args.workload, args.seed, workdir, pass_no)

        if args.trace:
            replies, values, summary = per_layer(inputs, args.seconds,
                                                 workdir, list(units))
        else:
            replies, values, summary = end_to_end(inputs, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    attempted = sum(len(r["results"]) for r in replies)
    failed = count_failures(replies, golden)
    print(f"{args.workload} seed {args.seed}: {summary}; "
          f"fail_ratio {failed}/{attempted}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
