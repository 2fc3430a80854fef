"""Square-zero (co)homology of commutative monoids.

Degree 0 is computed exactly over the integers: homologically as the
tensor of the coefficients with the universal derivation target, and
cohomologically as the derivation group.  Both values are cross-checked
against the degree-1 groups of the Morse complex of the normalized
complex, which must agree; a mismatch falsifies the implementation
rather than the input.  Higher degrees are exposed over the rationals
only, where they coincide with Harrison (co)homology one degree up:
weight 1 of the Hodge decomposition, read on the same Morse complex
(hodge.morse_hodge), so that grillet_report builds one MorseReduction
for degree 0 and every higher degree.

Two comparison oracles tie the monoid-level constructions to classical
algebra: the Kaehler presentation of the monoid algebra, and the bar
complex of the monoid algebra with module coefficients.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import BadParams, OracleMismatch
from .exact_linalg import (
    FgAbGroup,
    IntMatrix,
    cokernel_group,
    homology_at,
    int_rank,
    solve_int,
)
from .gamma_chain import (
    COHOMOLOGICAL,
    HOMOLOGICAL,
    MorseReduction,
    build_complex,
    hochschild,
)
from .hc_modules import (
    LEFT,
    RIGHT,
    derivations,
    jstar,
    omega,
    tabulate_presented,
    tensor_over_hc,
)
from .hodge import morse_hodge


def _degree_zero(monoid, coeff, direction, n_max, budget=None):
    """The exact degree-0 group and the Morse reduction up to n_max, with
    its flows kept for morse_hodge.

    The group is N tensored with the universal derivation target
    (homological) or the derivation group (cohomological).  The same group
    must appear as the degree-1 group of the Morse complex; the two
    computations share no code path.
    """
    if direction == HOMOLOGICAL:
        if coeff.side != RIGHT:
            raise BadParams("degree-0 homology takes right coefficients")
        path, direct = "tensor path", tensor_over_hc(coeff, omega(monoid))
    else:
        if coeff.side != LEFT:
            raise BadParams("degree-0 cohomology takes left coefficients")
        path, direct = "derivation solve", derivations(monoid, coeff)
    red = MorseReduction(monoid, coeff, n_max, direction, budget=budget,
                         transfer=True)
    from_complex = hochschild(red.complex, 1)
    if direct != from_complex:
        raise OracleMismatch(
            f"{path} gives {direct} but the Morse complex gives"
            f" {from_complex} in degree 1")
    return direct, red


def d0_homology(monoid, coeff):
    """N tensored with the universal derivation target, degree-0 exactly,
    cross-checked against degree-1 homology."""
    return _degree_zero(monoid, coeff, HOMOLOGICAL, 2)[0]


def d0_cohomology(monoid, coeff):
    """The derivation group, cross-checked against degree-1 cohomology."""
    return _degree_zero(monoid, coeff, COHOMOLOGICAL, 2)[0]


def grillet_char0(monoid, coeff, n, direction):
    """Rational dimension in degree n >= 0: the rational Harrison
    dimension in degree n + 1, weight 1 of the Hodge decomposition, read
    on the Morse complex (morse_hodge)."""
    if n < 0:
        raise BadParams("negative degree")
    red = MorseReduction(monoid, coeff, n + 2, direction, ring="Q",
                         transfer=True)
    return morse_hodge(red)[n][0]


@dataclass(frozen=True)
class GrilletReport:
    """Exact degree-0 group plus rational dimensions upward."""

    degree_zero: FgAbGroup
    char0_dims: tuple

    def entries(self):
        out = [{"degree": 0, "group": self.degree_zero.to_json(),
                "path": "exact"}]
        for k, d in enumerate(self.char0_dims, start=1):
            out.append({"degree": k, "group": FgAbGroup.free(d).to_json(),
                        "path": "char0"})
        return out


def grillet_report(monoid, coeff, direction, max_degree, budget=None):
    """Degree-0 exact value and char-0 dimensions through max_degree."""
    if direction not in (HOMOLOGICAL, COHOMOLOGICAL):
        raise BadParams(f"unknown direction {direction!r}")
    if max_degree < 0:
        raise BadParams("negative degree cap")
    # one Morse complex serves degree 0 and every char-0 degree; its ring
    # Z does not change the weights
    zero, red = _degree_zero(monoid, coeff, direction, max_degree + 2, budget)
    weights = morse_hodge(red) if max_degree else []
    return GrilletReport(zero, tuple(w[0] for w in weights[1:]))


def _pair_index(monoid, a, c):
    """Cover basis a*e translated by c, shared by both presentations."""
    return a * monoid.size + c


def _kaehler_direct_cols(monoid):
    """Translated relations e_{ab} - a e_b - b e_a of the algebra
    presentation, one column per unordered pair and translator."""
    size = monoid.size
    cols = []
    for a in monoid.elements:
        for b in range(a, size):
            for c0 in monoid.elements:
                col = {}
                for r, v in ((_pair_index(monoid, monoid.mul(a, b), c0), 1),
                             (_pair_index(monoid, b, monoid.mul(c0, a)), -1),
                             (_pair_index(monoid, a, monoid.mul(c0, b)), -1)):
                    nv = col.get(r, 0) + v
                    if nv:
                        col[r] = nv
                    else:
                        col.pop(r, None)
                if col:
                    cols.append(col)
    return cols


def _kaehler_total_cols(monoid):
    """The monoid-level presentation, tabulated per degree and flattened
    into the same cover by forgetting the grading."""
    tab = tabulate_presented(omega(monoid))
    label_of = {f"d{a}": a for a in monoid.elements}
    cols = []
    for x in monoid.elements:
        basis = tab.basis_labels[x]
        rel = tab.rels[x]
        for j in range(rel.cols):
            col = {}
            for i in range(rel.rows):
                if rel.data[i][j]:
                    lab, c = basis[i]
                    col[_pair_index(monoid, label_of[lab], c)] = rel.data[i][j]
            cols.append(col)
    return cols


@dataclass(frozen=True)
class KaehlerReport:
    passed: bool
    group: FgAbGroup
    detail: str


def kaehler_compare(monoid, ring="Z"):
    """Match the algebra's differentials presentation against the flattened
    monoid-level one under the generator bijection da <-> e_a.

    Over Z the two relation lattices must coincide exactly; over Q the
    spans must.  The verdict travels in the report, never as an exception.
    """
    if ring not in ("Z", "Q"):
        raise BadParams(f"ring must be Z or Q, got {ring!r}")
    rows = monoid.size * monoid.size
    direct = _kaehler_direct_cols(monoid)
    total = _kaehler_total_cols(monoid)
    if ring == "Q":
        ra = int_rank(direct)
        rb = int_rank(total)
        both = int_rank(direct + total)
        passed = ra == rb == both
        group = FgAbGroup.free(rows - ra)
        detail = (f"spans agree at rank {ra}" if passed else
                  f"span ranks {ra}/{rb}, joint {both}")
        return KaehlerReport(passed, group, detail)
    passed = (solve_int(direct, rows, total) is not None
              and solve_int(total, rows, direct) is not None)
    group_a = cokernel_group(direct, rows)
    group_b = cokernel_group(total, rows)
    if group_a != group_b:
        passed = False
    detail = ("relation lattices coincide" if passed else
              f"presentations differ: {group_a} vs {group_b}")
    return KaehlerReport(passed, group_a, detail)


def _classical_bar_cols(monoid, kc, n):
    """Boundary of the algebra bar complex with symmetric coefficients, on
    the monomial basis, in the same tuple order as the functor complex."""
    r = kc.rank
    tuples_n = list(itertools.product(monoid.elements, repeat=n))
    tuples_low = list(itertools.product(monoid.elements, repeat=n - 1))
    index_low = {t: k for k, t in enumerate(tuples_low)}
    cols = [dict() for _ in range(len(tuples_n) * r)]
    for jt, t in enumerate(tuples_n):
        for i in range(n + 1):
            sign = -1 if i % 2 else 1
            if i == 0:
                s, actor = t[1:], t[0]
            elif i == n:
                s, actor = t[:-1], t[n - 1]
            else:
                s = t[:i - 1] + (monoid.mul(t[i - 1], t[i]),) + t[i + 1:]
                actor = None
            base = index_low[s] * r
            if actor is None:
                for j in range(r):
                    col = cols[jt * r + j]
                    nv = col.get(base + j, 0) + sign
                    if nv:
                        col[base + j] = nv
                    else:
                        col.pop(base + j, None)
            else:
                mat = kc.action[actor]
                for j in range(r):
                    col = cols[jt * r + j]
                    for p in range(r):
                        v = mat.data[p][j]
                        if v:
                            nv = col.get(base + p, 0) + sign * v
                            if nv:
                                col[base + p] = nv
                            else:
                                col.pop(base + p, None)
    return cols, len(tuples_low) * r


@dataclass(frozen=True)
class BarCompareReport:
    passed: bool
    boundary_match: tuple
    homology: tuple
    detail: str


def bar_complex_compare(monoid, kc, n_max):
    """Byte-compare the algebra bar boundaries with the functor complex and
    recompute homology from the classical side alone."""
    if n_max > 4:
        raise BadParams("bar comparison capped at degree 4")
    if n_max < 1:
        raise BadParams("need at least one boundary to compare")
    cx = build_complex(monoid, jstar(kc, RIGHT), n_max, HOMOLOGICAL)
    classical = {}
    matches = []
    for n in range(1, n_max + 1):
        cols, rows = _classical_bar_cols(monoid, kc, n)
        classical[n] = IntMatrix.from_col_dicts(cols, rows)
        matches.append(cols == cx.d_out(n) and rows == cx.dims[n - 1])

    groups = []
    all_match = all(matches)
    for n in range(n_max):
        d_out = classical[n] if n >= 1 else IntMatrix.zeros(0, cx.dims[0])
        group = homology_at(d_out, classical[n + 1])
        groups.append(group)
        if group != hochschild(cx, n):
            all_match = False

    detail = ("boundaries and homology agree through degree "
              f"{n_max}" if all_match else
              f"per-degree boundary matches: {matches}")
    return BarCompareReport(all_match, tuple(matches), tuple(groups), detail)
