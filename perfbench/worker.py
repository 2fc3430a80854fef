"""Benchmark worker: one fresh process that runs monhom jobs one at a time.

Usage: ``python3 worker.py SRC_DIR [TRACE_FILE]``.  The worker imports
``monhom.cli`` from SRC_DIR and then prints ``{"ready": true}``; from
that line on the parent counts set-up as done.  Each later input line is
a JSON object: ``{"pass": n, "jobs": [[id, argv], ...]}`` runs one pass
and answers with every job's exit code and standard output, the pass's
wall time, its cost in reference-kernel times (see SpeedProbe) and the
process's peak resident memory; ``{"quit": true}`` ends the worker.
With TRACE_FILE the worker wraps the layer functions (see tracer.py),
writes the spans there when it quits, and takes no speed samples.
"""

import contextlib
import io
import json
import resource
import signal
import sys
import time
import traceback

# Seconds between speed samples taken while a job runs.
SAMPLE_PERIOD = 0.1


def reference_kernel():
    """Fixed integer work like the program's own: fraction-free elimination
    of a 22 x 22 matrix, with entries growing to about 170 bits.  It takes
    about 1 ms on a 2.1 GHz Xeon."""
    n = 22
    m = [[(7 * i * i + 3 * j + 1) % 19 - 9 for j in range(n)]
         for i in range(n)]
    for i in range(n):
        m[i][i] += 9 * n  # diagonally dominant, so no pivot is 0
    prev = 1
    for k in range(n - 1):
        top = m[k]
        pivot = top[k]
        for i in range(k + 1, n):
            row = m[i]
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - top[j] * f) // prev
        prev = pivot
    return m[n - 1][n - 1]


class SpeedProbe:
    """Times the reference kernel at the start and end of a pass, between
    jobs, and every SAMPLE_PERIOD seconds while a job runs (from a SIGALRM
    handler, which Python runs between bytecodes of the job).

    A shared host changes the speed of this process by tens of percent
    over seconds to minutes, for the program and the kernel alike.  The
    cost of a pass is the program's time between samples divided by the
    kernel time there (the mean of the two samples at its ends), summed.
    Sample time itself is left out of the program's time."""

    def __init__(self):
        self.samples = []
        self.busy = False

    def sample(self, *_signal_args):
        if self.busy:
            return
        self.busy = True
        start = time.perf_counter()
        reference_kernel()
        reference_kernel()
        self.samples.append((start, time.perf_counter()))
        self.busy = False

    def start(self):
        self.samples = []
        signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD, SAMPLE_PERIOD)

    def stop(self):
        """End the pass; return (cost in kernel times, median sample s)."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.sample()
        cost = 0.0
        for (s0, e0), (s1, e1) in zip(self.samples, self.samples[1:]):
            cost += (s1 - e0) / (((e0 - s0) + (e1 - s1)) / 2)
        kernel_s = sorted(e - s for s, e in self.samples)
        return cost, kernel_s[len(kernel_s) // 2]


def run_job(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:  # a crash is one failed job, not a dead worker
            return -1, out.getvalue() + traceback.format_exc()
    return code, out.getvalue()


def main(argv):
    sys.path.insert(0, argv[1])
    import monhom.cli as cli
    trace_path = argv[2] if len(argv) > 2 else None
    tracer = None
    if trace_path:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    probe = None if tracer else SpeedProbe()
    reply = sys.stdout
    reply.write(json.dumps({"ready": True}) + "\n")
    reply.flush()
    for line in sys.stdin:
        command = json.loads(line)
        if command.get("quit"):
            break
        results = []
        if probe:
            probe.start()
        start = time.perf_counter()
        for n, (job, job_argv) in enumerate(command["jobs"]):
            if tracer:
                code, out = tracer.run_job(
                    job, command["pass"], lambda: run_job(cli, job_argv))
            else:
                if n:
                    probe.sample()
                code, out = run_job(cli, job_argv)
            results.append([job, code, out])
        wall = time.perf_counter() - start
        cost, kernel_s = probe.stop() if probe else (None, None)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        reply.write(json.dumps({"wall_s": wall, "cost": cost,
                                "kernel_s": kernel_s, "rss_kb": rss_kb,
                                "results": results}) + "\n")
        reply.flush()
    if tracer:
        tracer.write(trace_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
