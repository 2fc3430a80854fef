"""Layer tracing from outside the program.

``Tracer.install`` replaces each listed public function of monhom with a
wrapper in every ``monhom`` module namespace that holds it (a function
bound by ``from .x import f`` lives in several), so calls through any of
those names are seen.  A wrapper records one span per call: name, start,
end, parent span, job and pass.  Sizes are taken from the call's
arguments and result after the span's end; the time that takes is kept
as the span's ``tail`` so that it is charged to neither the span nor its
parent.  Spans stay in memory until ``write``.

Only the traced worker imports this module; the untraced run patches
nothing.
"""

import functools
import json
import sys
import time

# The defining module of each wrapped function: the metric prefix.
LAYERS = {
    "exact_linalg": ("smith_normal_form", "snf_diagonal", "solve_int",
                     "kernel_basis", "lattice_basis", "preimage_lattice",
                     "homology_at", "int_rank"),
    "gamma_chain": ("build_complex", "hochschild", "hochschild_dim_q",
                    "leech_cohomology", "y_exactness_check", "harrison",
                    "harrison_dim_q", "shuffle_element"),
    "hodge": ("hodge_decomposition", "eulerian_idempotents"),
    "grillet": ("d0_homology", "d0_cohomology", "grillet_char0",
                "kaehler_compare", "bar_complex_compare"),
    "hc_modules": ("derivations", "tensor_over_hc", "tabulate_presented"),
}

ROOT_SPAN = "cli.main"


def _max_bits(*mats):
    top = 0
    for mat in mats:
        for row in mat.data:
            if row:
                top = max(top, max(row), -min(row))
    return top.bit_length()


def _snf_sizes(args, kwargs, result):
    A = args[0]
    U, D, V = result
    return {"cells": A.rows * A.cols, "max_bits": _max_bits(U, D, V)}


def _diag_sizes(args, kwargs, result):
    A = args[0]
    return {"cells": A.rows * A.cols}


def _rank_sizes(args, kwargs, result):
    A = args[0]
    if hasattr(A, "data"):
        return {"nnz_in": sum(len(row) - row.count(0) for row in A.data)}
    return {"nnz_in": sum(sum(1 for v in r.values() if v) for r in A)}


def _complex_sizes(args, kwargs, result):
    cx = result
    homological = cx.direction == "homological"
    identity = cx.monoid.identity
    ranks = cx.coeff.ranks
    degenerate = 0
    nnz = 0
    for n in range(cx.n_max + 1):
        for t, p in zip(cx.tuples_at(n), cx.prods_at(n)):
            if identity in t:
                degenerate += ranks[p]
        if homological and n >= 1:
            nnz += sum(len(c) for c in cx.boundary_cols(n))
        elif not homological and n < cx.n_max:
            nnz += sum(len(c) for c in cx.coboundary_cols(n))
    return {"basis": sum(cx.dims), "nnz": nnz, "degenerate": degenerate}


SIZES = {
    "exact_linalg.smith_normal_form": _snf_sizes,
    "exact_linalg.snf_diagonal": _diag_sizes,
    "exact_linalg.int_rank": _rank_sizes,
    "gamma_chain.build_complex": _complex_sizes,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None
        self.pass_no = 0
        self.missing = []
        self.size_errors = 0

    def install(self):
        """Wrap every listed function wherever a monhom module binds it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "monhom" or name.startswith("monhom.")]
        for module_name, functions in LAYERS.items():
            home = sys.modules.get(f"monhom.{module_name}")
            for fn_name in functions:
                original = getattr(home, fn_name, None)
                if original is None:
                    self.missing.append(f"{module_name}.{fn_name}")
                    continue
                wrapper = self.wrap(f"{module_name}.{fn_name}", original)
                for module in modules:
                    if module.__dict__.get(fn_name) is original:
                        setattr(module, fn_name, wrapper)

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        sizes = SIZES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                counts = self._sizes(sizes, args, kwargs, result) \
                    if ok and sizes else None
                spans[sid] = (name, start, end, clock() - end, parent,
                              self.job, self.pass_no, counts)
        return traced

    def _sizes(self, sizes, args, kwargs, result):
        try:
            return sizes(args, kwargs, result)
        except (AttributeError, TypeError, ValueError):
            self.size_errors += 1
            return None

    def run_job(self, job, pass_no, call):
        """Run call() as the root span of one job."""
        self.job, self.pass_no = job, pass_no
        return self.wrap(ROOT_SPAN, call)()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"missing": self.missing,
                       "size_errors": self.size_errors}, handle)
            handle.write("\n")
            for span in self.spans:
                json.dump(span, handle)
                handle.write("\n")


def read_spans(path):
    """(header, spans) as written by Tracer.write."""
    with open(path, encoding="utf-8") as handle:
        header = json.loads(handle.readline())
        return header, [json.loads(line) for line in handle]


def layer_stats(spans):
    """Per pass: {name: {calls, self_s, <size sums>, max_bits}}.

    A span's self time is its duration minus the time its children and
    their size bookkeeping cover.
    """
    covered = [0.0] * len(spans)
    for name, start, end, tail, parent, job, pass_no, counts in spans:
        if parent >= 0:
            covered[parent] += end - start + tail
    passes = {}
    for sid, (name, start, end, tail, parent, job, pass_no, counts) in \
            enumerate(spans):
        stat = passes.setdefault(pass_no, {}).setdefault(
            name, {"calls": 0, "self_s": 0.0})
        stat["calls"] += 1
        stat["self_s"] += end - start - covered[sid]
        for key, value in (counts or {}).items():
            if key == "max_bits":
                stat[key] = max(stat.get(key, 0), value)
            else:
                stat[key] = stat.get(key, 0) + value
    return passes
