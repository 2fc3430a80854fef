"""Tests of the benchmark itself.  Run with ``python3 -m pytest perfbench``."""

import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import golden  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracer import layer_stats, read_spans  # noqa: E402
from workloads import identity_index, make_inputs  # noqa: E402

# Jobs of well under a second each, with every target and monoid file kind.
QUICK = {
    "hh-int": ("hh/cyclic_group(3)/trivialZ/5", "hh/truncated_add(3)/trivialZ/4",
               "hh/cyclic_group(2)/jstar:regular/7"),
    "lattice-z": ("leech/truncated_add(2)/jstar:regular/4",
                  "hh/klein/jstar:Zmod4:trivial/4",
                  "leech/cyclic_group(3)/jstar:Zmod4:trivial/4",
                  "grillet/truncated_add(2)/trivialZ/3",
                  "der/klein/jstar:Zmod4:trivial", "tensor/klein/trivialZ",
                  "verify/kaehler"),
}


def quick_jobs(seed, workdir, pass_no):
    return [job for workload, ids in QUICK.items()
            for job in make_inputs(workload, seed, workdir, pass_no)
            if job[0] in ids]


def run_once(seed, trace_path=None, pass_no=0):
    with golden.work_dir() as workdir:
        jobs = quick_jobs(seed, workdir, pass_no)
        worker = run.Worker(trace_path)
        try:
            reply = worker.run_pass(0, jobs)
        finally:
            worker.close()
    return {job: (code, out) for job, code, out in reply["results"]}


def test_same_seed_same_inputs():
    with golden.work_dir() as one, golden.work_dir() as two:
        a, b = make_inputs("lattice-z", 7, one), make_inputs("lattice-z", 7, two)
        assert [job for job, _ in a] == [job for job, _ in b]
        for name in sorted(os.listdir(one)):
            with open(os.path.join(one, name), "rb") as f1, \
                    open(os.path.join(two, name), "rb") as f2:
                assert f1.read() == f2.read()
        c = make_inputs("lattice-z", 8, one)
        assert [job for job, _ in a] != [job for job, _ in c]


def test_reports_do_not_depend_on_the_seed():
    with open(golden.GOLDEN, encoding="utf-8") as handle:
        expected = json.load(handle)
    # Pass 1 also moves the identity away from index 0.
    first, second = run_once(1), run_once(2, pass_no=1)
    assert first == second
    assert first == {job: (0, expected[job]) for job in first}


def test_traced_counts_repeat():
    counts = []
    for _ in range(2):
        with golden.work_dir() as workdir:
            path = os.path.join(workdir, "spans.jsonl")
            run_once(3, path)
            header, spans = read_spans(path)
        assert header == {"missing": [], "size_errors": 0}
        (stats,) = layer_stats(spans).values()
        counts.append({name: {k: v for k, v in s.items() if k != "self_s"}
                       for name, s in stats.items()})
    assert counts[0] == counts[1]
    assert counts[0]["exact_linalg.smith_normal_form"]["cells"] > 0
    assert counts[0]["gamma_chain.build_complex"]["basis"] > 0


def test_pairs_of_passes_put_the_identity_at_opposite_ends():
    for size in (2, 3, 4, 5):
        pairs = [(identity_index(2 * k, size), identity_index(2 * k + 1, size))
                 for k in range((size + 1) // 2)]
        assert all(a + b == size - 1 for a, b in pairs)
        assert {i for pair in pairs for i in pair} == set(range(size))
        assert identity_index(2 * len(pairs), size) == 0


def test_pass_cost_counts_reference_kernel_times():
    probe = worker.SpeedProbe()
    try:
        probe.start()
        for _ in range(300):
            worker.reference_kernel()
        cost, kernel_s = probe.stop()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
    # A sample runs the kernel twice, so 300 runs cost about 150 samples;
    # the timer took some samples in between and their time is left out.
    assert len(probe.samples) > 3
    assert 100 < cost < 225
    assert kernel_s > 0


def test_self_time_excludes_children():
    spans = [["cli.main", 0.0, 10.0, 0.0, -1, "j", 0, None],
             ["a", 1.0, 5.0, 0.5, 0, "j", 0, {"cells": 4}],
             ["b", 2.0, 3.0, 0.0, 1, "j", 0, {"cells": 6}]]
    stats = layer_stats(spans)[0]
    assert stats["cli.main"]["self_s"] == 10.0 - 4.5
    assert stats["a"]["self_s"] == 4.0 - 1.0
    assert stats["b"] == {"calls": 1, "self_s": 1.0, "cells": 6}


def test_golden_answers_pass_their_cross_checks():
    with open(golden.GOLDEN, encoding="utf-8") as handle:
        assert golden.check_golden(json.load(handle)) == []


def test_cross_check_catches_a_wrong_answer():
    job = "leech/cyclic_group(3)/jstar:Zmod4:trivial/4"
    with open(golden.GOLDEN, encoding="utf-8") as handle:
        text = json.load(handle)[job]
    assert golden.check_job(job, text, None) == []
    wrong = text.replace("HH^2 = 0", "HH^2 = Z/2")
    assert golden.check_job(job, wrong, None) != []


def test_group_homology_oracle():
    klein = [golden.parse_group(g) for g in
             ("Z", "Z/2 + Z/2", "Z/2", "Z/2 + Z/2 + Z/2", "Z/2 + Z/2")]
    assert golden.group_homology((2, 2), 4) == klein
    assert golden.group_homology((3,), 3) == [(1, ()), (0, (3,)), (0, ()),
                                             (0, (3,))]


def test_without_the_program_it_fails_without_a_result():
    with golden.work_dir() as workdir:
        shutil.copytree(HERE, os.path.join(workdir, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), workdir)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "hh-int",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=workdir, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
