"""Golden answers of the benchmark's jobs and their cross-checks.

    python3 perfbench/golden.py           # cross-check golden.json
    python3 perfbench/golden.py --write   # rerun every job, cross-check,
                                          # then rewrite golden.json

golden.json maps each job id (workloads.py) to the exact text report the
job must print.  Each answer is checked by a source other than the code
path that produced it:

- group homology and cohomology of Z/k and Z/2 x Z/2 with trivial Z or
  Z/m coefficients, from H_n(Z/k; Z) (Z/k in odd degrees, 0 in positive
  even ones), the Kuenneth formula and universal coefficients;
- with free coefficients, the free rank in every degree equals the
  rational dimension computed by rank arithmetic (``--ring Q``);
- Hodge weights sum to the rational Hochschild dimension, and weight 1
  equals the rational Harrison dimension;
- Grillet degree 0 equals N (x) Omega and degree k equals rational
  Harrison in degree k + 1; Der equals HH^1 and N (x) Omega equals HH_1;
- every verify check passes.
"""

import json
import os
import re
import sys
import tempfile
from math import gcd

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden.json")
sys.path.insert(0, HERE)
from worker import run_job  # noqa: E402
from workloads import BASE_MONOIDS, WORKLOADS, make_inputs  # noqa: E402

FREE_COEFFS = {"trivialZ": "jstar:Z:trivial", "jstar:regular": "jstar:regular"}
TRIVIAL_COEFFS = {"trivialZ": (1, ()), "jstar:Zmod4:trivial": (0, (4,))}
GROUPS = {"klein": (2, 2), "cyclic_group(2)": (2,), "cyclic_group(3)": (3,)}


# -- finitely generated abelian groups as (free rank, cyclic orders) ------

def normal(free, orders):
    """(free rank, invariant factors), the form the reports print."""
    powers = {}
    for d in orders:
        p = 2
        while d > 1:
            q = 1
            while d % p == 0:
                d //= p
                q *= p
            if q > 1:
                powers.setdefault(p, []).append(q)
            p += 1
    depth = max((len(v) for v in powers.values()), default=0)
    factors = [1] * depth
    for qs in powers.values():
        for i, q in enumerate(sorted(qs, reverse=True)):
            factors[i] *= q
    return free, tuple(sorted(f for f in factors if f > 1))


def parse_group(text):
    free, orders = 0, []
    for part in text.split(" + "):
        if part == "Z":
            free += 1
        elif part.startswith("Z^"):
            free += int(part[2:])
        elif part.startswith("Z/"):
            orders.append(int(part[2:]))
        elif part != "0":
            raise ValueError(f"not a group: {text!r}")
    return normal(free, orders)


def direct_sum(*groups):
    return normal(sum(g[0] for g in groups), [d for g in groups for d in g[1]])


def _gcds(a, b):
    return [gcd(x, y) for x in a[1] for y in b[1]]


def tensor(a, b):
    return normal(a[0] * b[0], list(b[1]) * a[0] + list(a[1]) * b[0]
                  + _gcds(a, b))


def tor(a, b):
    return normal(0, _gcds(a, b))


def hom(a, b):
    return normal(a[0] * b[0], list(b[1]) * a[0] + _gcds(a, b))


def ext(a, b):
    return normal(0, list(a[1]) * b[0] + _gcds(a, b))


def group_homology(orders, n):
    """H_n(Z/k1 x ... x Z/kr; Z) by the Kuenneth formula."""
    def cyclic(k, m):
        if m == 0:
            return (1, ())
        return (0, (k,)) if m % 2 else (0, ())

    table = [cyclic(orders[0], m) for m in range(n + 1)]
    for k in orders[1:]:
        other = [cyclic(k, m) for m in range(n + 1)]
        table = [direct_sum(
            *[tensor(table[i], other[m - i]) for i in range(m + 1)],
            *[tor(table[i], other[m - 1 - i]) for i in range(m)])
            for m in range(n + 1)]
    return table


def oracle(target, orders, coeff, degree):
    """Degree -> group for trivial coefficients over a finite group."""
    h = group_homology(orders, max(degree, 1))
    if target == "hh":
        return {n: direct_sum(tensor(h[n], coeff),
                              tor(h[n - 1], coeff) if n else (0, ()))
                for n in range(degree + 1)}
    if target == "leech":
        return {n: direct_sum(hom(h[n], coeff),
                              ext(h[n - 1], coeff) if n else (0, ()))
                for n in range(degree + 1)}
    if target == "der":
        return {None: hom(h[1], coeff)}
    if target == "tensor":
        return {None: tensor(h[1], coeff)}
    return None


# -- reading reports -----------------------------------------------------

_DEGREE = re.compile(r"^(?:HH_|HH\^|Harr_)(\d+) = (.*)$")
_GRILLET = re.compile(r"^degree (\d+) \((?:exact|char0)\): (.*)$")
_HODGE = re.compile(r"^degree (\d+): (.*) = (\d+)$")


def groups_by_degree(text):
    """Degree -> group of a compute report (None for Der and the tensor)."""
    out = {}
    for line in text.splitlines():
        m = _DEGREE.match(line) or _GRILLET.match(line)
        if m:
            out[int(m.group(1))] = parse_group(m.group(2))
        elif " = " in line:
            out[None] = parse_group(line.split(" = ", 1)[1])
    return out


def hodge_weights(text):
    out = {}
    for line in text.splitlines():
        m = _HODGE.match(line)
        out[int(m.group(1))] = [int(w) for w in m.group(2).split(" + ")]
    return out


# -- second paths through the program ------------------------------------

class Program:
    """Runs second-path computations on unrelabeled monoid files."""

    def __init__(self, workdir):
        sys.path.insert(0, os.path.join(ROOT, "src"))
        import monhom.cli
        self.cli = monhom.cli
        self.files = {}
        for key, table in BASE_MONOIDS.items():
            path = os.path.join(workdir, f"base{len(self.files)}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump({"size": len(table), "identity": 0,
                           "table": table}, handle)
            self.files[key] = path

    def run(self, argv):
        code, out = run_job(self.cli, argv)
        if code != 0:
            raise RuntimeError(f"{argv} exited {code}: {out}")
        return out

    def compute(self, target, monoid, coeff, *extra):
        return groups_by_degree(self.run(
            ["compute", target, "--monoid", self.files[monoid],
             "--coeff", coeff, *extra]))

    def rational(self, target, monoid, coeff, degree):
        """Degree -> rational dimension: hh/harrison with --ring Q, and the
        cochain side by rank arithmetic on a ring-Q complex."""
        if target != "leech":
            groups = self.compute(target, monoid, FREE_COEFFS[coeff],
                                  "--ring", "Q", "--max-degree", str(degree))
            return {n: g[0] for n, g in groups.items()}
        from monhom import (COHOMOLOGICAL, LEFT, build_complex,
                            hochschild_dim_q, jstar, regular_kc_module,
                            trivial_module)
        from monhom.codecs import MONOID_FORMAT, read_file
        mon = read_file(self.files[monoid], MONOID_FORMAT)
        module = trivial_module(mon, LEFT) if coeff == "trivialZ" \
            else jstar(regular_kc_module(mon), LEFT)
        cx = build_complex(mon, module, degree + 1, COHOMOLOGICAL, ring="Q")
        return {n: hochschild_dim_q(cx, n) for n in range(degree + 1)}


def check_job(job_id, text, program):
    """Problems found with one job's golden text (empty when it holds)."""
    if job_id.startswith("verify/"):
        lines = text.splitlines()
        m = re.fullmatch(r"(\d+)/(\d+) checks passed", lines[-1])
        if not m or m.group(1) != m.group(2) or any(
                line.startswith("FAIL") for line in lines):
            return [f"{job_id}: a verify check fails"]
        return []
    target, monoid, coeff, *rest = job_id.split("/")
    degree = int(rest[0]) if rest else None
    problems = []

    def expect(what, got, want):
        if got != want:
            problems.append(f"{job_id}: {what}: report {got}, expected {want}")

    if monoid in GROUPS and coeff in TRIVIAL_COEFFS:
        want = oracle(target, GROUPS[monoid], TRIVIAL_COEFFS[coeff],
                      degree or 0)
        if want is not None:
            expect("group-homology oracle", groups_by_degree(text), want)
    if target in ("hh", "leech", "harrison") and coeff in FREE_COEFFS:
        got = {n: g[0] for n, g in groups_by_degree(text).items()}
        want = program.rational(target, monoid, coeff, degree)
        expect("free rank vs rational dimension", got,
               {n: want[n] for n in got})
    elif target == "hodge":
        weights = hodge_weights(text)
        hh = program.rational("hh", monoid, coeff, degree)
        harr = program.rational("harrison", monoid, coeff, degree)
        expect("weight sums vs HH over Q",
               {n: sum(w) for n, w in weights.items()},
               {n: hh[n] for n in weights})
        expect("weight 1 vs Harrison over Q",
               {n: w[0] for n, w in weights.items()},
               {n: harr[n] for n in weights})
    elif target == "grillet":
        got = groups_by_degree(text)
        zero = program.compute("tensor", monoid, coeff)[None]
        harr = program.rational("harrison", monoid, coeff, degree + 1)
        expect("degree 0 vs N (x) Omega", got[0], zero)
        expect("char-0 degrees vs Harrison over Q",
               {n: g for n, g in got.items() if n},
               {n: (harr[n + 1], ()) for n in range(1, degree + 1)})
    elif target == "der":
        expect("Der vs HH^1", groups_by_degree(text)[None],
               program.compute("leech", monoid, coeff,
                               "--max-degree", "1")[1])
    elif target == "tensor":
        expect("N (x) Omega vs HH_1", groups_by_degree(text)[None],
               program.compute("hh", monoid, coeff, "--max-degree", "1")[1])
    return problems


def work_dir():
    """A temporary directory inside the checkout."""
    parent = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(parent, exist_ok=True)
    return tempfile.TemporaryDirectory(dir=parent)


def check_golden(golden):
    with work_dir() as workdir:
        program = Program(workdir)
        problems = []
        ids = [job_id for jobs in WORKLOADS.values() for job_id, _, _ in jobs]
        for job_id in ids:
            if job_id not in golden:
                problems.append(f"{job_id}: no golden answer")
            else:
                problems += check_job(job_id, golden[job_id], program)
        return problems


def record(seed=0):
    """The current program's text report of every job."""
    with work_dir() as workdir:
        program = Program(workdir)
        golden = {}
        for workload in WORKLOADS:
            for job_id, argv in make_inputs(workload, seed, workdir):
                golden[job_id] = program.run(argv)
        return dict(sorted(golden.items()))


def main(argv):
    if "--write" in argv:
        golden = record()
    else:
        with open(GOLDEN, encoding="utf-8") as handle:
            golden = json.load(handle)
    problems = check_golden(golden)
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        return 1
    if "--write" in argv:
        with open(GOLDEN, "w", encoding="utf-8") as handle:
            json.dump(golden, handle, indent=1, sort_keys=True)
            handle.write("\n")
    print(f"{len(golden)} golden answers pass their cross-checks")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
