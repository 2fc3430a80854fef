"""Workloads of the monhom benchmark and the seeded input generator.

A job is one ``monhom`` command line.  Jobs that name a monoid get it as a
JSON monoid file whose elements the seed relabels by a random permutation;
the seed also shuffles the job order.  Every reported invariant is
unchanged under isomorphism, so the expected text of a job does not
depend on the seed (``golden.json`` holds one text per job id).

The time a job takes does depend on the labels, mostly through the
identity's index: ``hh`` to degree 5 on the Klein group takes about 1.4
times as long with the identity at index 3 as at index 0, and the time
grows with the index.  So the seed labels every element but the identity
at random, and pass p of a run puts the identity at index 0, n-1, 1,
n-2, ... for p = 0, 1, 2, 3, ..., starting again from 0 after every
index has had its turn.  Passes 2k and 2k+1 put the identity at opposite
ends, so each pair of passes costs about the same and a run makes whole
pairs.

The monoid tables are written out here rather than taken from the
program's builders, so the inputs stay fixed when the program changes.
"""

import json
import os
import random

# Multiplication tables with the identity at index 0.
BASE_MONOIDS = {
    "cyclic_group(2)": [[(a + b) % 2 for b in range(2)] for a in range(2)],
    "cyclic_group(3)": [[(a + b) % 3 for b in range(3)] for a in range(3)],
    "truncated_add(2)": [[min(a + b, 2) for b in range(3)] for a in range(3)],
    "truncated_add(3)": [[min(a + b, 3) for b in range(4)] for a in range(4)],
    # Z/2 x Z/2 with the pair (a, b) at index 2a + b.
    "klein": [[2 * ((a >> 1) ^ (b >> 1)) + ((a & 1) ^ (b & 1))
               for b in range(4)] for a in range(4)],
}


def _compute(target, monoid, coeff=None, degree=None):
    """A compute job: (id, monoid key, argv with {monoid} left open)."""
    argv = ["compute", target, "--monoid", "{monoid}"]
    parts = [target, monoid]
    if coeff is not None:
        argv += ["--coeff", coeff]
        parts.append(coeff)
    if degree is not None:
        argv += ["--max-degree", str(degree)]
        parts.append(str(degree))
    return "/".join(parts), monoid, argv


def _verify(suite):
    return f"verify/{suite}", None, ["verify", suite]


# Why each workload exists is recorded in BENCHMARK.json and NOTES.md.
WORKLOADS = {
    # A few very large Smith normal forms (up to 1024 x 4096) on free
    # coefficients.
    "hh-int": [
        _compute("hh", "klein", "trivialZ", 5),
        _compute("hh", "truncated_add(2)", "jstar:regular", 5),
        _compute("hh", "cyclic_group(3)", "trivialZ", 5),
        _compute("hh", "truncated_add(3)", "trivialZ", 4),
        _compute("hh", "cyclic_group(2)", "jstar:regular", 7),
    ],
    # Rational weights and sparse rank; never calls the SNF.
    "hodge-q": [
        _verify("hodge"),
        _compute("hodge", "truncated_add(2)", "jstar:regular", 4),
    ],
    # Hundreds of small SNFs with transforms, lattice solves, the cochain
    # side, torsion coefficients and the other nine verify suites.
    "lattice-z": [
        _compute("leech", "klein", "trivialZ", 4),
        _compute("leech", "truncated_add(2)", "jstar:regular", 4),
        _compute("harrison", "truncated_add(2)", "jstar:regular", 4),
        _compute("harrison", "cyclic_group(3)", "trivialZ", 4),
        _compute("hh", "klein", "jstar:Zmod4:trivial", 4),
        _compute("leech", "cyclic_group(3)", "jstar:Zmod4:trivial", 4),
        _compute("grillet", "truncated_add(2)", "trivialZ", 3),
        _compute("der", "klein", "jstar:Zmod4:trivial"),
        _compute("tensor", "klein", "trivialZ"),
    ] + [_verify(s) for s in (
        "complex-soundness", "degree-bridge", "lemma-nuli", "group-oracle",
        "leech-der", "y-exactness", "products", "kaehler", "grillet")],
}


def relabel(table, perm):
    """The table of the isomorphic monoid whose element a is called perm[a]."""
    size = len(table)
    out = [[0] * size for _ in range(size)]
    for a in range(size):
        for b in range(size):
            out[perm[a]][perm[b]] = perm[table[a][b]]
    return out


def identity_index(pass_no, size):
    """i for pass 2k and size-1-i for pass 2k+1, with i = k mod ceil(size/2):
    0, size-1, 1, size-2, ... and then again from 0."""
    i = (pass_no // 2) % ((size + 1) // 2)
    return i if pass_no % 2 == 0 else size - 1 - i


def monoid_payload(key, rng, pass_no):
    table = BASE_MONOIDS[key]
    size = len(table)
    perm = list(range(size))
    rng.shuffle(perm)
    j = perm.index(identity_index(pass_no, size))
    perm[0], perm[j] = perm[j], perm[0]
    return {"format": "monoid", "size": size, "identity": perm[0],
            "table": relabel(table, perm)}


def make_inputs(workload, seed, workdir, pass_no=0):
    """Write the monoid files of one pass into workdir; return [(id, argv)]
    in the seed's job order."""
    rng = random.Random(seed)
    jobs = WORKLOADS[workload]
    paths = {}
    for key in sorted({m for _, m, _ in jobs if m is not None}):
        path = os.path.join(workdir, key.replace("(", "_").replace(")", "")
                            + ".json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(monoid_payload(key, rng, pass_no), handle,
                      sort_keys=True)
        paths[key] = path
    out = [(job_id, [a.format(monoid=paths.get(m)) for a in argv])
           for job_id, m, argv in jobs]
    rng.shuffle(out)
    return out
