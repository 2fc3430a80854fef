"""Command-line front end.

Two commands:

``monhom compute TARGET --monoid SRC [--coeff DESC] [options]``
    Computes one invariant and prints a deterministic report.

``monhom verify SUITE [SUITE ...] [options]``
    Runs the named self-check suites (or ``all``).  Per-check timings go
    to stderr so the report itself is byte-stable across runs.

Monoid sources are either ``builtin:NAME`` (``trivial``,
``cyclic_group(k)``, ``semilattice_chain(k)``, ``truncated_add(k)``) or a
path to a JSON monoid file.  Coefficient descriptors: ``trivialZ``,
``trivialQ``, ``jstar:Z:trivial``, ``jstar:Zmod<k>:trivial``,
``jstar:regular``, ``projective:left:<a>``, ``projective:right:<a>``, or
a path to a JSON module file.

Exit codes: 0 success, 1 invalid input, 2 complexity budget exceeded,
3 an internal cross-check was falsified.  Failures print one JSON error
object to stderr.
"""

import argparse
import sys
from functools import lru_cache

from .codecs import MONOID_FORMAT, TABULATED_FORMAT, dumps, read_file
from .errors import (BadParams, ComplexityBudget, CompositionNonzero,
                     MonhomError, NotAComplex, NotAnnihilated, OracleMismatch,
                     ValidationError, WeightNotPreserved)
from .exact_linalg import FgAbGroup
from .gamma_chain import (COHOMOLOGICAL, HOMOLOGICAL, MorseReduction,
                          build_complex, harrison, hochschild, morse_complex,
                          resolve_budget)
from .grillet import GrilletReport, grillet_report, tensor_over_hc
from .hc_modules import (LEFT, RIGHT, derivations, jstar, jstar_finite_cyclic,
                         omega, regular_kc_module, std_projective,
                         tabulate_presented, trivial_module)
from .hodge import morse_hodge
from .monoids import builder
from .verify import render_json, render_text, run_suites

TARGETS = ("hh", "leech", "harrison", "hodge", "grillet", "omega", "der",
           "tensor")

_BUILTIN = "builtin:"


def _load_monoid(source):
    if source.startswith(_BUILTIN):
        return builder(source[len(_BUILTIN):])
    return read_file(source, MONOID_FORMAT)


def _parse_coeff(desc, monoid, side):
    """Build the coefficient module named by a descriptor.

    Returns ``(module, forced_ring)`` where the ring is only pinned by
    the descriptors that carry one (trivialZ / trivialQ).
    """
    if desc == "trivialZ":
        return trivial_module(monoid, side), "Z"
    if desc == "trivialQ":
        return trivial_module(monoid, side), "Q"
    if desc == "jstar:Z:trivial":
        return trivial_module(monoid, side), None
    if desc == "jstar:regular":
        return jstar(regular_kc_module(monoid), side), None
    parts = desc.split(":")
    if parts[0] == "jstar" and len(parts) == 3 and parts[2] == "trivial" \
            and parts[1].startswith("Zmod"):
        tail = parts[1][len("Zmod"):]
        if not tail.isdigit():
            raise ValidationError(f"bad cyclic modulus in {desc!r}")
        return jstar_finite_cyclic(monoid, int(tail), side), None
    if parts[0] == "projective":
        if len(parts) != 3 or parts[1] not in (LEFT, RIGHT) \
                or not parts[2].isdigit():
            raise ValidationError(f"bad projective descriptor {desc!r}")
        if parts[1] != side:
            raise ValidationError(
                f"{desc!r} is a {parts[1]} module but this target needs a "
                f"{side} module")
        a = int(parts[2])
        if not 0 <= a < monoid.size:
            raise ValidationError(f"element {a} not in [0, {monoid.size})")
        return std_projective(monoid, a, side), None
    if parts[0] in ("jstar", "projective"):
        raise ValidationError(f"bad coefficient descriptor {desc!r}")
    module = read_file(desc, TABULATED_FORMAT)
    if module.monoid.table != monoid.table \
            or module.monoid.identity != monoid.identity:
        raise ValidationError(
            f"module file {desc} is over a different monoid")
    if module.side != side:
        raise ValidationError(
            f"module file {desc} is a {module.side} module but this "
            f"target needs a {side} module")
    return module, None


def _resolve_ring(flag_value, forced, target):
    if target == "hodge":
        if flag_value == "Z":
            raise ValidationError(
                "the weight decomposition needs rational coefficients")
        if forced == "Z":
            raise ValidationError(
                "the weight decomposition needs trivialQ, not trivialZ")
        return "Q"
    if forced and flag_value and forced != flag_value:
        raise ValidationError(
            f"--ring {flag_value} conflicts with the coefficient ring "
            f"{forced}")
    return forced or flag_value or "Z"


def _in_ring(group, ring):
    """The group as the report's ring sees it: over Q its free part."""
    return FgAbGroup.free(group.free_rank) if ring == "Q" else group


def _compute(args):
    monoid = _load_monoid(args.monoid)
    deg = args.max_degree
    if deg < 0:
        raise ValidationError("--max-degree must be nonnegative")
    budget = resolve_budget(args.budget)
    report = {"command": "compute", "target": args.target,
              "monoid": args.monoid, "max_degree": deg}
    lines = []

    if args.target == "omega":
        tab = tabulate_presented(omega(monoid))
        report["results"] = [
            {"element": a, "group": tab.value_group(a).to_json()}
            for a in monoid.elements]
        lines = [f"Omega({a}) = {tab.value_group(a)}"
                 for a in monoid.elements]
        return report, lines

    side = LEFT if args.target in ("leech", "der") else RIGHT
    coeff, forced = _parse_coeff(args.coeff, monoid, side)
    ring = _resolve_ring(args.ring, forced, args.target)
    report["coefficients"] = args.coeff
    report["ring"] = ring
    if ring == "Q" and coeff.has_torsion:
        raise BadParams("rational complexes need free-valued coefficients")
    direction = HOMOLOGICAL if side == RIGHT else COHOMOLOGICAL

    if args.target == "der":
        group = _in_ring(derivations(monoid, coeff), ring)
        report["results"] = [{"group": group.to_json()}]
        lines = [f"Der = {group}"]
    elif args.target == "tensor":
        group = _in_ring(tensor_over_hc(coeff, omega(monoid)), ring)
        report["results"] = [{"group": group.to_json()}]
        lines = [f"N (x) Omega = {group}"]
    elif args.target == "grillet":
        rep = grillet_report(monoid, coeff, direction, deg, budget=budget)
        rep = GrilletReport(_in_ring(rep.degree_zero, ring), rep.char0_dims)
        report["results"] = rep.entries()
        for entry in rep.entries():
            lines.append(f"degree {entry['degree']} ({entry['path']}): "
                         f"{FgAbGroup(**entry['group'])}")
    elif args.target in ("hh", "leech"):
        cx = morse_complex(monoid, coeff, deg + 1, direction,
                           budget=budget, ring=ring)
        mark = "_" if direction == HOMOLOGICAL else "^"
        for n in range(deg + 1):
            group = hochschild(cx, n)
            report.setdefault("results", []).append(
                {"degree": n, "group": group.to_json()})
            lines.append(f"HH{mark}{n} = {group}")
    elif args.target == "harrison":
        if deg < 1:
            raise ValidationError("--max-degree must be at least 1 here")
        # over Z the normalized complex gives other groups; over Q the
        # dimensions are weight 1, which the Morse complex keeps
        if ring == "Z":
            groups = harrison(build_complex(monoid, coeff, deg + 1,
                                            HOMOLOGICAL, budget=budget))
        else:
            groups = [FgAbGroup.free(w[0]) for w in morse_hodge(
                MorseReduction(monoid, coeff, deg + 1, HOMOLOGICAL,
                               budget=budget, ring="Q", transfer=True))]
        for n, group in enumerate(groups, start=1):
            report.setdefault("results", []).append(
                {"degree": n, "group": group.to_json()})
            lines.append(f"Harr_{n} = {group}")
    else:
        if deg < 1:
            raise ValidationError("--max-degree must be at least 1 here")
        red = MorseReduction(monoid, coeff, deg + 1, HOMOLOGICAL,
                             budget=budget, ring="Q", transfer=True)
        for n, weights in enumerate(morse_hodge(red), start=1):
            report.setdefault("results", []).append(
                {"degree": n, "weights": list(weights),
                 "total": sum(weights)})
            shown = " + ".join(str(w) for w in weights)
            lines.append(f"degree {n}: {shown} = {sum(weights)}")
    return report, lines


def _write(out, body):
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(body)
    else:
        sys.stdout.write(body)


def _emit(args, text_lines, payload):
    body = dumps(payload) if args.format == "json" \
        else "".join(line + "\n" for line in text_lines)
    _write(args.out, body)


def _verify(args):
    results = run_suites(args.suites)
    for res in results:
        print(f"# {res.name}: {res.seconds:.3f}s", file=sys.stderr)
    body = render_json(results) if args.format == "json" \
        else render_text(results)
    if not body.endswith("\n"):
        body += "\n"
    _write(args.out, body)
    return 0 if all(r.passed for r in results) else 3


@lru_cache(maxsize=None)
def _build_parser():
    """The argument parser, built once per process: parsing leaves it as it
    was, so every call to main reuses it."""
    parser = argparse.ArgumentParser(
        prog="monhom",
        description="Homology of finite commutative monoids with functor "
                    "coefficients.")
    sub = parser.add_subparsers(dest="command", required=True)

    comp = sub.add_parser("compute", help="compute one invariant")
    comp.add_argument("target", choices=TARGETS)
    comp.add_argument("--monoid", required=True,
                      help="builtin:NAME or a JSON monoid file")
    comp.add_argument("--coeff", default="trivialZ",
                      help="coefficient descriptor or JSON module file")
    comp.add_argument("--max-degree", type=int, default=3)
    comp.add_argument("--ring", choices=("Z", "Q"), default=None)
    comp.add_argument("--budget", type=int, default=None,
                      help="cap on the total basis size of the complex; "
                           "hh, leech, hodge, grillet and harrison --ring Q "
                           "count the normalized basis (tuples without the "
                           "identity)")
    comp.add_argument("--format", choices=("text", "json"), default="text")
    comp.add_argument("--out", default=None, help="write the report here")

    ver = sub.add_parser("verify", help="run self-check suites")
    ver.add_argument("suites", nargs="+", metavar="SUITE",
                     help="suite names, or 'all'")
    ver.add_argument("--format", choices=("text", "json"), default="text")
    ver.add_argument("--out", default=None, help="write the report here")
    return parser


_EXIT_CODES = ((ComplexityBudget, 2), (OracleMismatch, 3),
               (WeightNotPreserved, 3), (NotAnnihilated, 3),
               (CompositionNonzero, 3), (NotAComplex, 3))


def _exit_code(exc):
    for cls, code in _EXIT_CODES:
        if isinstance(exc, cls):
            return code
    return 1


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return _verify(args)
        report, lines = _compute(args)
        _emit(args, lines, report)
        return 0
    except MonhomError as exc:
        error = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        sys.stderr.write(dumps(error))
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
