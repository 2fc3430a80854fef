"""Chain complexes of functors on finite pointed sets.

A tuple (a_1..a_n) over the monoid C indexes a summand carrying the
coefficient value at the product a_1...a_n.  The face eps_i collapses the
pointed set [n] onto [n-1]: face 0 drops a_1 into the coefficient, face n
drops a_n, and face i in between merges a_i and a_{i+1}.  Alternating
sums of the faces assemble the boundary; permutations give the
symmetric-group action used for shuffle operators, Harrison groups and
Hodge projectors, and the orbits of Young subgroups on the tuples give
the invariants of y_exactness_check.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    BadParams,
    ComplexityBudget,
    CompositionNonzero,
    DegreeMismatch,
    NotAComplex,
    OracleMismatch,
    WeightNotPreserved,
)
from .exact_linalg import (
    FgAbGroup,
    IntMatrix,
    PivotReduction,
    _transpose_cols,
    int_rank,
    kernel_basis,
    lattice_basis,
    rank_and_torsion,
    solve_int,
)
from .hc_modules import LEFT, RIGHT, _block_diag
from .rewriting import rewriting

HOMOLOGICAL = "homological"
COHOMOLOGICAL = "cohomological"

DEFAULT_BUDGET = 10 ** 6


def resolve_budget(budget=None):
    if budget is None:
        return DEFAULT_BUDGET
    if budget < 0:
        raise BadParams(f"budget must be nonnegative, got {budget}")
    return int(budget)


def _face_tuple(t, i, monoid):
    """The face eps_i of the tuple t: the tuple it lands on and the element
    that acts on the coefficient.  Face 0 drops the first entry into the
    coefficient, face len(t) drops the last one, and face i in between
    merges entries i and i + 1 and acts by the identity."""
    k = len(t)
    if i == 0:
        return t[1:], t[0]
    if i == k:
        return t[:-1], t[k - 1]
    return t[:i - 1] + (monoid.mul(t[i - 1], t[i]),) + t[i + 1:], monoid.identity


def _letters(monoid, normalized):
    """The tuple entries: every element, or all but the identity."""
    if not normalized:
        return monoid.elements
    return [a for a in monoid.elements if a != monoid.identity]


def _layout(monoid, coeff, tuples):
    """The layout of a degree with the given tuples: the tuples, their
    products, the offset of each tuple's value basis and the rank."""
    prods = [monoid.product(t) for t in tuples]
    offsets = []
    dim = 0
    for p in prods:
        offsets.append(dim)
        dim += coeff.ranks[p]
    return tuples, prods, offsets, dim


def _term_layout(monoid, coeff, n, normalized=False):
    return _layout(monoid, coeff, list(itertools.product(
        _letters(monoid, normalized), repeat=n)))


def _compose_cols(first, second):
    """Columns of (second-matrix) o (first-matrix), both sparse."""
    out = []
    for col in first:
        acc = {}
        for r, v in col.items():
            for rr, vv in second[r].items():
                nv = acc.get(rr, 0) + v * vv
                if nv:
                    acc[rr] = nv
                else:
                    acc.pop(rr, None)
        out.append(acc)
    return out


class GammaChainComplex:
    """Explicit (co)chain complex of a coefficient module over a monoid.

    Degree n of a complex from build_complex is the direct sum over
    n-tuples (lexicographic order) of the coefficient value at the tuple
    product.  A normalized complex keeps only the n-tuples with no entry
    equal to the identity: the quotient by the degenerate tuples, which has
    the same (co)homology.  The maps go from degree n to degree n + step:
    step is -1 for the boundaries of a homological complex (right
    coefficients) and +1 for the coboundaries of a cohomological one (left
    coefficients).  d_out(n) and d_in(n) are the sparse columns of the map
    leaving and entering degree n; they are the only place where the two
    directions differ.

    Homology is read off a free complex, the cone of the relation lattices
    S: degree m of the cone is F_m + S_(m+step), with the map
    D(f, s) = (d f + s, phi f - d_S s) into degree m + step.  d_S is d on S
    written in the basis of S, and -phi is d o d written in that basis; phi
    is 0 unless the coefficient translations compose only modulo their
    relations.  (f, s) -> [f] maps the cone onto F/S, and its kernel
    S + S is contractible through h(a, b) = (0, a), so the cone has the
    homology of F/S.  A complex with no relations is its own cone; on
    cochains the cone starts at degree -1, with S_0 alone.
    """

    def __init__(self, monoid, coeff, direction, ring, dims, maps, relations,
                 layouts=None, normalized=False):
        """dims[n] is the rank of degree n, maps[k] (k >= 1) the columns of
        the map between degrees k - 1 and k, and relations[n] the columns
        spanning the relations of degree n; degree n is Z^dims[n] modulo
        them, given as a basis.  layouts[n] is the tuple layout of degree n,
        or None for a complex derived from another and a Morse complex;
        tuples_at and its kin raise BadParams then.  phi[k] holds the
        columns of phi through degree k, from degree k - step into the
        relation basis of degree k + step, where d o d is not zero;
        _check_squares fills it."""
        self.monoid = monoid
        self.coeff = coeff
        self.direction = direction
        self.normalized = normalized
        self.step = -1 if direction == HOMOLOGICAL else 1
        self.ring = ring
        self.n_max = len(dims) - 1
        self.dims = tuple(dims)
        self.layouts = layouts
        self._relations = relations
        self._mats = maps
        self.phi = {}
        self._invariants = {}

    def tuples_at(self, n):
        return self._layout(n)[0]

    def prods_at(self, n):
        return self._layout(n)[1]

    def tuple_offsets(self, n):
        return self._layout(n)[2]

    def _layout(self, n):
        self._check_degree(n)
        if self.layouts is None:
            raise BadParams("this complex has no tuple layouts; build it"
                            " with build_complex")
        return self.layouts[n]

    def _check_degree(self, n):
        if not 0 <= n <= self.n_max:
            raise DegreeMismatch(f"degree {n} outside 0..{self.n_max}")

    def d_out(self, n):
        """Columns of the map from degree n to n + step; zero at the ends."""
        self._check_degree(n)
        if not 0 <= n + self.step <= self.n_max:
            return [dict() for _ in range(self.dims[n])]
        return self._mats[max(n, n + self.step)]

    def d_in(self, n):
        """Columns of the map from degree n - step to n; zero at the ends."""
        self._check_degree(n)
        if not 0 <= n - self.step <= self.n_max:
            return []
        return self._mats[max(n, n - self.step)]

    def _relations_at(self, m):
        """The relation columns of degree m and the rank of that degree:
        none, on no rows, outside 0..n_max."""
        if not 0 <= m <= self.n_max:
            return [], 0
        return self._relations[m], self.dims[m]

    def cone_dim(self, n):
        """The rank of degree n of the cone."""
        return self.dims[n] + len(self._relations_at(n + self.step)[0])

    def map_invariants(self, k):
        """Rank and invariant factors >= 2 of the cone's map between
        degrees k - 1 and k; a map with no columns, such as k = 0 on chains,
        has rank 0.  Each map is reduced once per complex.  Only the rank of
        a map is read when it enters no degree below n_max (the cochain map
        into n_max) or the ring is Q, and int_rank gives just that, unless
        reduction_in has eliminated the map already."""
        if k not in self._invariants:
            cols, rows = self._cone_cols(k)
            if not cols:
                self._invariants[k] = 0, ()
            elif self.ring == "Q" or (self.step > 0 and k == self.n_max):
                self._invariants[k] = int_rank(cols), ()
            else:
                self._invariants[k] = rank_and_torsion(cols, rows)
        return self._invariants[k]

    def reduction_in(self, n):
        """The map entering degree n eliminated by columns over Q, as a
        PivotReduction that the caller keeps.  A ring-Q complex has free
        coefficients and so no relations, and that map is the cone's: its
        rank (the pivots and the rank of the residual) is kept for
        map_invariants, and hochschild reads it without eliminating the
        map again."""
        red = PivotReduction(self.d_in(n), self.dims[n])
        if self.ring == "Q":
            self._invariants.setdefault(max(n, n - self.step), (
                len(red.pivots) + red.rank, ()))
        return red

    def _cone_cols(self, k):
        """Sparse columns and row count of the cone's map between degrees
        k - 1 and k, from F_src + S_tgt to F_tgt + S_(tgt+step).  Without
        phi and S_tgt these are the columns of d themselves.  One solve
        writes d on S_tgt in the basis of S_(tgt+step); it fails, raising
        NotAComplex, when d does not carry the relations into the
        relations."""
        src = k if self.step < 0 else k - 1
        tgt = src + self.step
        if not 0 <= tgt <= self.n_max:
            return [], 0
        d = self._mats[k] if src >= 0 else []
        shifted, rows = self._relations_at(tgt)
        low, low_rows = self._relations_at(tgt + self.step)
        phi = self.phi.get(tgt)
        cols = d if phi is None else [
            {**col, **{rows + r: v for r, v in p.items()}}
            for col, p in zip(d, phi)]
        if shifted:
            moved = _compose_cols(shifted, self.d_out(tgt))
            d_s = solve_int(low, low_rows, moved)
            if d_s is None:
                raise NotAComplex(f"the relations of degree {tgt} are not"
                                  " closed under the (co)boundary")
            cols = cols + [{**s, **{rows + r: -v for r, v in ds.items()}}
                           for s, ds in zip(shifted, d_s)]
        return cols, rows + len(low)

    def boundary_cols(self, n):
        if self.direction != HOMOLOGICAL:
            raise BadParams("boundaries live on homological complexes")
        if not 1 <= n <= self.n_max:
            raise DegreeMismatch(f"boundary degree {n} outside 1..{self.n_max}")
        return self.d_out(n)

    def coboundary_cols(self, n):
        if self.direction != COHOMOLOGICAL:
            raise BadParams("coboundaries live on cohomological complexes")
        if not 0 <= n <= self.n_max - 1:
            raise DegreeMismatch(
                f"coboundary degree {n} outside 0..{self.n_max - 1}")
        return self.d_out(n)

    def relation_cols(self, n):
        """Sparse columns spanning the relations of degree n."""
        self._check_degree(n)
        return self._relations[n]


def _face_cols(act, high, low, faces):
    """Sparse columns of sum (-1)^i eps_i from the layout high (degree k)
    to the layout low (degree k - 1), for the translation matrices act of
    a right module.  faces holds one (i, targets, acting) per face, and
    the faces are added in the order given: targets[j] is the index in
    low of face i of the j-th cell of high, or None where that face is
    zero (a degenerate tuple of a normalized complex, or a cell where the
    Morse phi is 0), and acting[j] the element that acts on its
    coefficient.  _lex_faces gives the faces of the lexicographic tuple
    layouts, _face_targets those of tuples in any order and _flow_search
    those of a Morse complex.  The nonzero entries of each translation
    matrix are listed once per call."""
    offs_k, dim_k = high[2], high[3]
    prods_low, offs_low = low[1], low[2]
    cols = [dict() for _ in range(dim_k)]
    entries = {}
    for i, targets, acting in faces:
        sign = -1 if i % 2 else 1
        for off, ks, b0 in zip(offs_k, targets, acting):
            if ks is None:
                continue
            key = b0, prods_low[ks]  # N(pi t) -> N(pi s)
            nonzero = entries.get(key)
            if nonzero is None:
                A = act[key]
                nonzero = entries[key] = [
                    (j, p, A.data[p][j]) for j in range(A.cols)
                    for p in range(A.rows) if A.data[p][j]]
            r0 = offs_low[ks]
            for j, p, v in nonzero:
                col = cols[off + j]
                r = r0 + p
                nv = col.get(r, 0) + sign * v
                if nv:
                    col[r] = nv
                else:
                    col.pop(r, None)
    return cols


def _face_targets(monoid, tuples, lower, faces):
    """One (i, targets, acting) for each face i in faces, from tuples onto
    the tuples lower, one degree down, as _face_cols takes them: each
    face tuple (_face_tuple) is looked up among lower, and one that is
    not there, a degenerate tuple of a normalized complex, has target
    None.  This serves tuples in any order, and is the oracle of
    _lex_faces."""
    index = {t: k for k, t in enumerate(lower)}
    out = []
    for i in faces:
        pairs = [_face_tuple(t, i, monoid) for t in tuples]
        out.append((i, [index.get(s) for s, _ in pairs],
                    [b for _, b in pairs]))
    return out


def _lex_faces(monoid, letters, k):
    """The faces 0..k of the degree-k tuples over letters in lexicographic
    order, one (i, targets, acting) at a time as _face_cols takes them,
    with integer arithmetic only.

    With L = len(letters), the tuple t has index sum_j pos(t[j]) *
    L^(k-1-j).  Face 0 drops t[0]: the index modulo L^(k-1), acting by
    t[0].  Face i, 0 < i < k, keeps the first i - 1 entries, with index
    base, and the last k - 1 - i, with index r < S = L^(k-1-i), and puts
    the product of t[i-1] and t[i] between them: (base * L + pos(t[i-1]
    t[i])) * S + r, acting by the identity, or None where the product is
    the identity and no letter.  Face k drops t[k-1]: the index divided
    by L, acting by t[k-1]."""
    L = len(letters)
    n = L ** (k - 1)
    yield 0, list(range(n)) * L, [a for a in letters for _ in range(n)]
    pos = {a: p for p, a in enumerate(letters)}
    merged = [pos.get(monoid.mul(a, x)) for a in letters for x in letters]
    ident = [monoid.identity] * (n * L)
    for i in range(1, k):
        S = L ** (k - 1 - i)
        yield i, [None if m is None else (base * L + m) * S + r
                  for base in range(L ** (i - 1)) for m in merged
                  for r in range(S)], ident
    yield k, [js for js in range(n) for _ in range(L)], list(letters) * n


def _expected_side(direction):
    return RIGHT if direction == HOMOLOGICAL else LEFT


def _check_budget(monoid, coeff, n_max, budget=None, normalized=False):
    """Raise ComplexityBudget when degrees 0..n_max of the complex would
    hold more basis elements than the cap (budget, or 10^6 when it is
    None).  The count follows how many tuples reach each product, so no
    tuple is laid out."""
    cap = resolve_budget(budget)
    letters = _letters(monoid, normalized)
    counts = [0] * monoid.size
    counts[monoid.identity] = 1
    total = coeff.ranks[monoid.identity]
    for _ in range(n_max):
        nxt = [0] * monoid.size
        for y in monoid.elements:
            c = counts[y]
            if c:
                for a in letters:
                    nxt[monoid.mul(y, a)] += c
        counts = nxt
        total += sum(c * coeff.ranks[x] for x, c in enumerate(counts))
    if total > cap:
        raise ComplexityBudget(
            f"complex needs {total} basis elements, cap is {cap}")


def build_complex(monoid, coeff, n_max, direction, budget=None, ring="Z",
                  normalized=False):
    """Assemble the complex up to degree n_max, checking d o d = 0.

    With normalized set, degree n runs over the n-tuples that contain no
    identity.  The identity acts as the identity on the coefficients, so
    inserting it gives the degeneracies of a simplicial object, and the
    quotient by the degenerate tuples has the same (co)homology
    (Eilenberg-Mac Lane normalization); a face that lands on a degenerate
    tuple is zero there.

    Raises ComplexityBudget before materializing anything when the total
    basis count would exceed the cap (budget, or 10^6 when it is None); a
    normalized complex counts its own, smaller basis.
    """
    _check_request(monoid, coeff, n_max, direction, ring)
    _check_budget(monoid, coeff, n_max, budget, normalized)
    layouts, maps = _tuple_maps(monoid, coeff, n_max, normalized)
    return _assemble(monoid, coeff, direction, ring, layouts, maps,
                     layouts, normalized)


def _tuple_maps(monoid, coeff, n_max, normalized):
    """The tuple layouts of degrees 0..n_max and the boundaries between
    them on chains, with coefficients as a right module.  The tuples are
    in lexicographic order over the letters, so the faces are computed
    from the indices (_lex_faces), one face at a time."""
    letters = _letters(monoid, normalized)
    layouts = [_term_layout(monoid, coeff, n, normalized)
               for n in range(n_max + 1)]
    act = _right_act(coeff)
    return layouts, {k: _face_cols(act, layouts[k], layouts[k - 1],
                                   _lex_faces(monoid, letters, k))
                     for k in range(1, n_max + 1)}


def _check_request(monoid, coeff, n_max, direction, ring):
    if direction not in (HOMOLOGICAL, COHOMOLOGICAL):
        raise BadParams(f"unknown direction {direction!r}")
    if ring not in ("Z", "Q"):
        raise BadParams(f"ring must be Z or Q, got {ring!r}")
    if n_max < 0:
        raise BadParams("negative degree cap")
    if coeff.monoid != monoid:
        raise BadParams("coefficient module lives over a different monoid")
    if coeff.side != _expected_side(direction):
        raise BadParams(f"{direction} complexes need {_expected_side(direction)}"
                        " coefficient modules")
    if ring == "Q" and coeff.has_torsion:
        raise BadParams("rational complexes need free-valued coefficients")


def _right_act(coeff):
    """The translation matrices of coeff as a right module.  The transposed
    translations of a left module make a right module of the same ranks;
    its boundaries are the coboundaries transposed."""
    return coeff.act if coeff.side == RIGHT else \
        {key: A.transpose() for key, A in coeff.act.items()}


def _assemble(monoid, coeff, direction, ring, layouts, maps, kept,
              normalized):
    """The complex on the given layouts whose boundaries, on chains, are
    maps, and whose coboundaries are their transposes; the relations of a
    degree are the value relations of its tuples.  kept is the layouts
    the complex keeps, or None.  d o d is checked (_check_squares)."""
    dims = [lay[3] for lay in layouts]
    if direction != HOMOLOGICAL:
        maps = {k: _transpose_cols(cols, dims[k - 1])
                for k, cols in maps.items()}
    value_bases = [IntMatrix.from_col_dicts(
        lattice_basis(rel.col_dicts(), rel.rows), rel.rows)
        for rel in coeff.rels]
    relations = [_block_diag([value_bases[p] for p in lay[1]])
                 for lay in layouts]
    cx = GammaChainComplex(monoid, coeff, direction, ring, dims, maps,
                           relations, kept, normalized)
    _check_squares(cx)
    return cx


def morse_complex(monoid, coeff, n_max, direction, budget=None, ring="Z"):
    """The Morse complex of the normalized complex under Brown's collapsing
    scheme on shortlex normal forms (rewriting.py).  It has the
    (co)homology of build_complex(..., normalized=True), torsion included,
    on far fewer basis elements: degree n is the sum over the critical
    n-cells of the coefficient value at the cell's product, and the
    layouts are None.  MorseReduction builds it; see there."""
    return MorseReduction(monoid, coeff, n_max, direction, budget,
                          ring).complex


class MorseReduction:
    """The Morse complex of the normalized complex, and on request the
    chain maps between the two (algebraic Morse theory, Skoldberg, Trans.
    AMS 358, 2006): pi from the normalized chains onto the Morse chains
    (project) and iota back (lift), with pi o iota = 1 and iota o pi
    homotopic to 1, so that an operator s that commutes with d acts on
    the homology of the Morse complex as pi s iota (transfer).

    The map out of a critical cell c is phi(d c).  For a cell b one degree
    below, phi(b) is b when b is critical, 0 when b is degenerate or
    matched down, and -eps phi(d b+ - eps b) when b is matched up with b+
    through face k, eps = (-1)^k; pi is phi.  Face k is interior, so it
    acts by the identity on every coefficient system and phi works on
    each value basis vector alike.  The flows from the critical cells of
    each degree are followed once (_Flow), and phi of every cell they
    reach is filled in as they are; projecting a chain first follows the
    flows from the cells of its support not met yet.  With transfer set,
    the flows of every degree are kept, so phi is computed once per cell
    and degree, and lift reads them back; otherwise nothing of a degree's
    flows outlives its map.

    Maps are built on chains from the translations as a right module
    (_right_act); cochains transpose them, as build_complex does, and
    maps keeps the chain maps.  When no cell is matched, as for
    semilattices, whose every element is a letter, the maps are those of
    the normalized complex, built as build_complex builds them, and pi
    and iota are the identity.

    Raises ComplexityBudget as build_complex(..., normalized=True) does,
    before any cell is classified, and NotAComplex when a matched face is
    not the only face of its cell on its partner, or the flows form a
    cycle."""

    def __init__(self, monoid, coeff, n_max, direction, budget=None,
                 ring="Z", transfer=False):
        _check_request(monoid, coeff, n_max, direction, ring)
        _check_budget(monoid, coeff, n_max, budget, normalized=True)
        self.monoid, self.coeff = monoid, coeff
        self.rw = rw = rewriting(monoid)
        self.act = _right_act(coeff)
        self._flows = {} if transfer else None
        if not rw.collapses:
            self.layouts, self.maps = _tuple_maps(monoid, coeff, n_max, True)
        else:
            self.layouts = [_layout(monoid, coeff, cells)
                            for cells in _critical_cells(rw, n_max)]
            self.maps = {k: self._morse_cols(k) for k in range(1, n_max + 1)}
        self.complex = _assemble(monoid, coeff, direction, ring,
                                 self.layouts, self.maps, None, True)
        self._chains = None

    def _morse_cols(self, k):
        """Columns of the Morse differential from the critical cells of
        degree k to those of degree k - 1: d on the critical cells, which
        the flows of degree k - 1 give (_Flow.grow), followed by phi.  The
        map out of degree 1 is 0, as faces 0 and 1 of (a) both drop a onto
        (), acting by a; no flow leaves degree 0, where () is critical."""
        if k == 1:
            return [dict() for _ in range(self.layouts[1][3])]
        flow = _Flow(self, k - 1)
        cols = flow.grow(self.layouts[k][0])
        if flow.keep:
            flow.high_cols = cols
            self._flows[k - 1] = flow
        return _compose_cols(cols, flow.rows)

    def _flow(self, m):
        """The flows of degree m: those kept from the map out of degree
        m + 1, or none followed yet, for degree n_max and where nothing
        collapses.  Raises BadParams unless the flows are kept."""
        if self._flows is None:
            raise BadParams("project and lift need a MorseReduction built"
                            " with transfer set")
        flow = self._flows.get(m)
        if flow is None:
            flow = self._flows[m] = _Flow(self, m)
        return flow

    def project(self, m, chain):
        """pi of a normalized m-chain, given as a dict from (cell, value
        index) to coefficient, as a sparse column over the Morse basis of
        degree m.  The flows from its cells not met yet are followed
        first; a cell met but not kept is matched down, where phi is 0."""
        flow = self._flow(m)
        new = [t for t, _ in chain if t not in flow.seen]
        if new:
            flow.grow((), list(dict.fromkeys(new)))
        out = {}
        for (t, j), v in chain.items():
            p = flow.index.get(t)
            if p is not None:
                _add_into(out, flow.rows[flow.offs[p] + j], v)
        return out

    def lift(self, m, z):
        """iota of a Morse m-chain z, a sparse column over the Morse basis
        of degree m, as a normalized m-chain (a dict from (cell, value
        index) to coefficient): z on its critical cells plus the partners
        b+ of the cells b of degree m - 1 that the flows of degree m - 1
        reached.  Those are read in the reverse of the order reached, so
        every cell whose partner's faces reach b comes before b, and
        where d of the chain so far has a component a on b, -eps a b+ is
        added, which clears it.  So d of the lift has no component on a
        matched-up cell, which makes it iota(z)."""
        basis = self._basis(m)
        chain = {basis[r]: v for r, v in z.items()}
        if m < 2 or not self.rw.collapses:  # only () lies below degree 1
            return chain
        flow, ranks = self._flow(m - 1), self.coeff.ranks
        dz = {}
        for r, v in z.items():
            _add_into(dz, flow.high_cols[r], v)
        for p in range(len(flow.cells) - 1, flow.critical - 1, -1):
            off = flow.offs[p]
            plus, face = flow.partners[flow.cells[p]]
            for j in range(ranks[flow.prods[p]]):
                a = dz.get(off + j)
                if a:
                    c = a if face % 2 else -a  # -eps a
                    chain[plus, j] = c
                    _add_into(dz, flow.plus_cols[off - flow.base + j], c)
        return chain

    def _basis(self, m):
        """The (cell, value index) of each basis element of degree m."""
        cells, prods = self.layouts[m][:2]
        return [(c, j) for c, p in zip(cells, prods)
                for j in range(self.coeff.ranks[p])]

    def chains(self):
        """The Morse complex on chains, over Q: the complex itself when it
        is one, else the chain complex of the translations as a right
        module (_right_act) over Q, whose maps are the transposes of the
        coboundaries, or those of a ring-Z chain complex.  It is assembled
        on the first call and kept, so its ranks are kept too."""
        if self._chains is None:
            ready = self.complex.step < 0 and self.complex.ring == "Q"
            self._chains = self.complex if ready else _assemble(
                self.monoid, self.coeff, HOMOLOGICAL, "Q", self.layouts,
                self.maps, None, True)
        return self._chains

    def transfer(self, m, elem, chains):
        """pi o elem o iota on the Morse m-chains chains (sparse columns),
        for elem in Z[S_m] acting on the normalized chains as _sym_cols
        acts, but tuple by tuple on the lifts alone (_permuted).  Each lift
        x = iota(z) is checked exactly first: d x, computed face by face on
        the normalized complex (_chain_boundary), must be iota(d_M z), which
        is 0 on a cycle, and pi must carry x back to z.  Raises
        WeightNotPreserved otherwise."""
        lifts = [self.lift(m, z) for z in chains]
        for z, x, dz in zip(chains, lifts,
                            _compose_cols(chains, self.maps[m])):
            if _chain_boundary(self.monoid, self.act, x) != (
                    self.lift(m - 1, dz) if dz else {}):
                raise WeightNotPreserved(
                    f"d o iota is not iota o d_M on a Morse chain of degree"
                    f" {m}" if dz else f"the lift of a Morse cycle of degree"
                    f" {m} is no cycle")
            if self.project(m, x) != {r: v for r, v in z.items() if v}:
                raise WeightNotPreserved(
                    f"pi o iota moves a Morse {'chain' if dz else 'cycle'}"
                    f" of degree {m}")
        return [self.project(m, y) for y in _permuted(elem, lifts)]


class _Flow:
    """Degree m of a MorseReduction as far as its flows have reached: the
    critical m-cells and then the cells reached matched up, in the order
    reached, laid out as cells, prods, offs and dim, with index the
    position of each cell and seen every cell met, including those met
    matched down, where phi is 0.  rows[r] is phi of basis element r, a
    sparse row over the critical basis, whose rank is base.  The
    partner and matched face of each reached cell (partners) and the
    columns of d on the partners (plus_cols, one block of the reached
    cell's rank each, in the same order, so that the block of the cell
    at offset off starts at off - base) are kept when the reduction keeps
    its flows, with d on the critical (m+1)-cells (high_cols) when the
    flows started there: what lift reads."""

    def __init__(self, red, m):
        cells, prods, offs, dim = red.layouts[m]
        self.rw, self.coeff, self.act, self.m = red.rw, red.coeff, red.act, m
        self.cells, self.prods, self.offs = list(cells), list(prods), \
            list(offs)
        self.dim = self.base = dim
        self.critical = len(cells)
        self.index = {c: j for j, c in enumerate(cells)}
        self.seen = set(cells)
        self.rows = [{r: 1} for r in range(dim)]
        self.keep = red._flows is not None
        self.partners, self.plus_cols, self.high_cols = {}, [], []

    def grow(self, high, starts=()):
        """Follow the flows from the faces of the (m+1)-cells high and from
        the m-cells starts (_flow_search), lay out the cells newly reached,
        check that each one's matched face is eps times the identity, and
        fill in phi on them, in the order reached, so that phi of every
        cell a flow reaches is there before it is read.  Returns the
        columns of d on high, onto this degree's cells."""
        m, coeff, rows = self.m, self.coeff, self.rows
        monoid, ranks = self.rw.monoid, coeff.ranks
        first, shift = len(self.cells), self.dim
        order, partners, targets = _flow_search(self.rw, self.index,
                                                self.seen, m + 1, high,
                                                starts)
        self.cells += order
        low = self.cells, self.prods, self.offs
        for b in order:
            p = monoid.product(b)
            self.prods.append(p)
            self.offs.append(self.dim)
            self.dim += ranks[p]
        cells = list(high) + [partners[b][0] for b in order]
        pluses = _layout(monoid, coeff, cells)
        ident = [monoid.identity] * len(cells)
        d = _face_cols(self.act, pluses, low + (self.dim,), (
            (i, targets[i], [c[0] for c in cells] if i == 0
             else [c[-1] for c in cells] if i == m + 1 else ident)
            for i in range(m + 2)))
        split = pluses[2][len(high)] if order else pluses[3]
        for at, b in enumerate(order, first):
            plus, face = partners[b]
            eps = -1 if face % 2 else 1
            off = self.offs[at]
            rank = ranks[self.prods[at]]
            plus_off = off - shift + split
            for j in range(rank):
                col = d[plus_off + j]
                if {r: v for r, v in col.items()
                        if off <= r < off + rank} != {off + j: eps}:
                    raise NotAComplex(f"Morse matching: face {face} of"
                                      f" {plus} on {b} is not {eps} times"
                                      " the identity")
                rest = {r: -eps * v for r, v in col.items()
                        if not off <= r < off + rank}
                rows += _compose_cols([rest], rows)
        if self.keep:
            self.partners.update(partners)
            self.plus_cols += d[split:]
        return d[:split]


def _add_into(acc, col, c):
    """acc += c * col, for sparse vectors, dropping the entries that
    cancel."""
    for r, v in col.items():
        nv = acc.get(r, 0) + c * v
        if nv:
            acc[r] = nv
        else:
            del acc[r]


def _chain_boundary(monoid, act, chain):
    """d of a normalized chain given as a dict from (cell, value index) to
    coefficient, face by face, with the translation matrices act of a
    right module: faces on degenerate tuples are 0."""
    out = {}
    e = monoid.identity
    for (t, j), v in chain.items():
        k = len(t)
        for i in range(k + 1):
            s, a = _face_tuple(t, i, monoid)
            if 0 < i < k and s[i - 1] == e:
                continue
            A = act[a, monoid.product(s)]
            sign = -v if i % 2 else v
            for p in range(A.rows):
                nv = out.get((s, p), 0) + sign * A.data[p][j]
                if nv:
                    out[s, p] = nv
                else:
                    out.pop((s, p), None)
    return out


def _critical_cells(rw, n_max):
    """The critical cells of degrees 0..n_max: those of degree n are the
    critical extensions by one entry of those of degree n - 1.  The pair
    of each cell where an extension stops is checked (_cell_faces)."""
    monoid = rw.monoid
    entries = _letters(monoid, True)
    cells = [[()]]
    for _ in range(n_max):
        nxt = []
        for c in cells[-1]:
            for a in entries:
                t = c + (a,)
                pair = rw.match(t)
                if pair is None:
                    nxt.append(t)
                else:
                    low, high = sorted((t, pair[0]), key=len)
                    _cell_faces(monoid, high, pair[1], low)
        cells.append(nxt)
    return cells


def _cell_faces(monoid, t, k=None, low=None):
    """Every face tuple of t, face i at index i.  With low given, raises
    NotAComplex unless face k is the only face of t on low, so that the
    two meet with incidence (-1)^k times an identity block."""
    faces = []
    for i in range(len(t) + 1):
        s, _ = _face_tuple(t, i, monoid)
        if low is not None and (s == low) != (i == k):
            raise NotAComplex(
                f"Morse matching: face {k} of {t} is not the only face on"
                f" {low} (face {i} is {s})")
        faces.append(s)
    return faces


def _flow(monoid, faces, k):
    """The faces a flow follows from a cell with the given _cell_faces:
    all but face k, leaving out the degenerate ones."""
    top = len(faces) - 1
    return (s for i, s in enumerate(faces)
            if i != k and not (0 < i < top and s[i - 1] == monoid.identity))


def _flow_search(rw, index, seen, k, high, starts=()):
    """The cells of degree k - 1 that the flows from the faces of the
    cells high (degree k) and from the cells starts (degree k - 1) reach
    matched up, and had not met before, in the order reached, their
    partners, and the targets of faces 0..k of the cells high followed by
    those of the reached cells' partners (None where phi is 0).

    index maps the cells of degree k - 1 that phi keeps and that were met
    before, the critical ones first, to their positions, and gains each
    reached cell; seen holds every cell met before and gains the new
    ones.  Each cell is reached after every cell its own flow reaches (a
    depth-first search without recursion, which raises NotAComplex on a
    cycle).  So when the search leaves a cell of high, or a reached cell,
    every face of that cell, or of its partner, is a cell of index or one
    where phi is 0 (degenerate or matched down), and its target is
    written down then: face tuples live only while their cell is on the
    stack.  No flow from a cell that an earlier search reached reaches a
    cell reached now, or that search would have reached it too, so index
    stays in an order where each cell comes after every cell its flow
    reaches."""
    monoid = rw.monoid
    partners, order, active = {}, [], set()
    crit, plus = [[] for _ in range(k + 1)], [[] for _ in range(k + 1)]
    roots = itertools.chain(
        ((faces, _flow(monoid, faces, None))
         for faces in (_cell_faces(monoid, t) for t in high)),
        [((), iter(starts))])
    for faces, flow in roots:
        stack = [(None, faces, flow)]
        while stack:
            cell, faces, flow = stack[-1]
            for s in flow:
                if s in active:
                    raise NotAComplex(f"Morse flows form a cycle through {s}")
                if s in seen:
                    continue
                seen.add(s)
                pair = rw.match(s)
                if pair is None:  # critical, yet not in index
                    raise NotAComplex(f"Morse matching: the critical cell"
                                      f" {s} extends no critical cell")
                if len(pair[0]) > len(s):  # matched up
                    partners[s] = pair
                    active.add(s)
                    faces = _cell_faces(monoid, *pair, s)
                    stack.append((s, faces, _flow(monoid, faces, pair[1])))
                    break
            else:
                stack.pop()
                targets = crit
                if cell is not None:
                    active.discard(cell)
                    index[cell] = len(index)
                    order.append(cell)
                    targets = plus
                for i, s in enumerate(faces):
                    targets[i].append(index.get(s))
    return order, partners, [c + p for c, p in zip(crit, plus)]


def _check_squares(cx):
    """Check that d o d lands in the relations.  Where it is not zero,
    phi[k] holds -(d o d) through degree k written in the relation basis
    of degree k + step."""
    for k in range(1, cx.n_max):
        comp = _compose_cols(cx.d_in(k), cx.d_out(k))
        if not any(comp):
            continue
        target = k + cx.step
        if not cx.relation_cols(target):
            raise CompositionNonzero(
                f"double (co)boundary is nonzero around degree {k}")
        solved = solve_int(cx.relation_cols(target), cx.dims[target], comp)
        if solved is None:
            raise CompositionNonzero(
                f"double (co)boundary escapes the relations around degree {k}")
        cx.phi[k] = [{r: -v for r, v in col.items()} for col in solved]


def _integer(coeff):
    try:
        return operator.index(coeff)
    except TypeError:
        raise BadParams(f"non-integral coefficient {coeff!r}")


class SymGroupElement:
    """Formal integer combination of permutations of {1..n}, stored as
    0-based image tuples."""

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = int(n)
        clean = {}
        for perm, coeff in (terms or {}).items():
            perm = tuple(perm)
            if sorted(perm) != list(range(self.n)):
                raise BadParams(f"not a permutation of {self.n} letters: {perm}")
            c = _integer(coeff)
            if c:
                clean[perm] = c
        self.terms = clean

    @classmethod
    def identity(cls, n):
        return cls(n, {tuple(range(n)): 1})

    @classmethod
    def zero(cls, n):
        return cls(n, {})

    def _require_same(self, other):
        if not isinstance(other, SymGroupElement) or other.n != self.n:
            raise DegreeMismatch("mixed symmetric-group degrees")

    def add(self, other):
        self._require_same(other)
        terms = dict(self.terms)
        for p, c in other.terms.items():
            terms[p] = terms.get(p, 0) + c
        return SymGroupElement(self.n, terms)

    def scale(self, scalar):
        c = _integer(scalar)
        return SymGroupElement(self.n, {p: c * v for p, v in self.terms.items()})

    def mul(self, other):
        """The product in Z[S_n]: p*q is the permutation j -> p(q(j)), read
        from the composition table of S_n, built once per n (_sym_index)."""
        self._require_same(other)
        perms, index, table = _sym_index(self.n)
        theirs = [(index[q], b) for q, b in other.terms.items()]
        acc = [0] * len(perms)
        for p, a in self.terms.items():
            row = table[index[p]]
            for k, b in theirs:
                acc[row[k]] += a * b
        return SymGroupElement(self.n, {perms[k]: c
                                        for k, c in enumerate(acc) if c})

    __add__ = add

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, SymGroupElement) and self.n == other.n
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return f"SymGroupElement({self.n}, 0)"
        parts = [f"{c}*{p}" for p, c in sorted(self.terms.items())]
        return f"SymGroupElement({self.n}, {' + '.join(parts)})"


def _perm_inverse(perm):
    return tuple(sorted(range(len(perm)), key=perm.__getitem__))


@lru_cache(maxsize=None)
def _sym_index(n):
    """S_n indexed once: its permutations in lexicographic order, the
    index of each, and the n! x n! composition table, whose row a holds
    the index of perms[a] o perms[b] at b.  The table grows as n!^2:
    14 400 entries at n = 5, 518 400 at n = 6."""
    perms = tuple(itertools.permutations(range(n)))
    index = {p: k for k, p in enumerate(perms)}
    table = tuple(tuple(index[tuple(map(p.__getitem__, q))] for q in perms)
                  for p in perms)
    return perms, index, table


def perm_sign(perm):
    inv = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inv += 1
    return -1 if inv % 2 else 1


def shuffle_element(*parts):
    """Signed sum over the permutations increasing on each consecutive
    block of the sizes given as arguments, built once per process for
    each tuple of sizes (_block_shuffle): callers share it and must not
    change it."""
    parts = tuple(int(p) for p in parts)
    if not parts or any(p < 1 for p in parts):
        raise BadParams("block sizes must be positive")
    return _block_shuffle(parts)


@lru_cache(maxsize=None)
def _block_shuffle(parts):
    """One shuffle per word of the pattern parts (_words, listed here and
    not kept): block b goes to the positions of the word's letters b, in
    order (a stable sort of the positions by letter), with the sign of the
    word's inversions.  With two blocks the terms come in lexicographic
    order."""
    n, terms = sum(parts), {}
    for w in _words(parts):
        # each letter b counts the letters greater than b placed before it
        seen, inv = [0] * len(parts), 0
        for b in w:
            inv += sum(seen[b + 1:])
            seen[b] += 1
        perm = tuple(sorted(range(n), key=w.__getitem__))
        terms[perm] = -1 if inv % 2 else 1
    return SymGroupElement(n, terms)


def _sym_cols(cx, n, elems):
    """The actions of the elements of Z[S_n] in elems on degree n of a
    complex, as sparse integer columns: one list of columns per element.

    A permutation moves positions, not letters, so it keeps the content
    of a tuple (the multiset of its letters), and relabelling the letters
    carries the tuples of one content onto the words of its multiplicity
    pattern (_content_blocks).  So each element acts once per pattern, on
    the pattern's words (_pattern_action, kept for the process), and each
    content with a nonzero value puts its rows back into those columns,
    once per value index, with no tuple looked up."""
    cx._check_degree(n)
    for elem in elems:
        if elem.n != n:
            raise DegreeMismatch(f"element of S_{elem.n} on degree {n}")
    # a permutation moves tuple t to (t[perm^-1(j)])_j on chains;
    # cochains act by the transpose, which reads t through perm itself
    inverse = cx.direction == HOMOLOGICAL
    out = [[None] * cx.dims[n] for _ in elems]
    for pattern, rows, rank in _content_blocks(cx, n):
        for cols, elem in zip(out, elems):
            action = _pattern_action(elem, inverse, pattern)
            for r, entries in zip(rows, action):
                for i in range(rank):
                    cols[r + i] = {rows[k] + i: v for k, v in entries}
    return out


def _words(pattern):
    """The words that hold pattern[j] letters j, in lexicographic order,
    extended one letter at a time, so the cost follows the number of
    words."""
    grown = [((), tuple(pattern))]
    for _ in range(sum(pattern)):
        grown = [(w + (j,), left[:j] + (k - 1,) + left[j + 1:])
                 for w, left in grown for j, k in enumerate(left) if k]
    return [w for w, _ in grown]


@lru_cache(maxsize=None)
def _pattern_words(pattern):
    """The words of the pattern (_words) and the index of each.  Kept for
    the process; callers share them and must not change them."""
    words = _words(pattern)
    return words, {w: k for k, w in enumerate(words)}


@lru_cache(maxsize=None)
def _pattern_action(elem, inverse, pattern):
    """For each word of the pattern (_pattern_words), the (word index,
    coefficient) pairs of the word's image under elem: the coefficients
    merged by image word, in the order each image first appears over the
    element's terms, leaving out the images whose coefficients cancel.  A
    permutation reads a word through its inverse when inverse is set (on
    chains), through itself otherwise (on cochains).  The one per-pattern
    loop that reads words through permutations; kept for the process, one
    entry per element, direction and pattern, as tuples."""
    words, index = _pattern_words(pattern)
    terms = [(_perm_inverse(perm) if inverse else perm, c)
             for perm, c in elem.terms.items()]
    action = []
    for w in words:
        acc = {}
        for perm, c in terms:
            k = index[tuple(map(w.__getitem__, perm))]
            acc[k] = acc.get(k, 0) + c
        action.append(tuple((k, v) for k, v in acc.items() if v))
    return tuple(action)


def _permuted(elem, chains):
    """elem in Z[S_m] on m-chains, each a dict from (tuple, value index)
    to coefficient, tuple by tuple: sum_sigma c_sigma (t o sigma^-1),
    whose position sigma(j) holds t_j, the oracle of the per-pattern
    action (_sym_cols).  A permutation keeps a tuple's product, and so
    its value.  Each distinct tuple's images are merged once a call, in
    order of first appearance, without those that cancel; nothing is kept."""
    # itemgetter of one position gives a letter, not a tuple
    pick = operator.itemgetter if elem.n > 1 else lambda *_: tuple
    reads = [(pick(*_perm_inverse(p)), c) for p, c in elem.terms.items()]
    images, out = {}, []
    for chain in chains:
        moved = {}
        for (t, j), v in chain.items():
            merged = images.get(t)
            if merged is None:
                acc = {}
                for read, c in reads:
                    s = read(t)
                    acc[s] = acc.get(s, 0) + c
                merged = images[t] = [(s, c) for s, c in acc.items() if c]
            for s, c in merged:
                key = s, j
                nv = moved.get(key, 0) + v * c
                if nv:
                    moved[key] = nv
                else:
                    del moved[key]
        out.append(moved)
    return out


def hochschild(cx, n):
    """The degree-n (co)homology group of the complex: on its cone, which is
    free, Z^(dim - rank D_out - rank D_in) plus the torsion of D_in, from
    each map's rank and invariant factors (map_invariants).  Over Q no map
    has invariant factors, so the group is free of the rational dimension."""
    if not 0 <= n < cx.n_max:
        raise BadParams(f"need 0 <= n < n_max = {cx.n_max}")
    rank_out = cx.map_invariants(max(n, n + cx.step))[0]
    rank_in, torsion = cx.map_invariants(max(n, n - cx.step))
    free = cx.cone_dim(n) - rank_out - rank_in
    if free < 0:
        raise NotAComplex(f"boundary ranks {rank_out} + {rank_in} exceed"
                          f" the dimension {cx.cone_dim(n)} of degree {n}")
    return FgAbGroup(free, torsion)


def hochschild_dim_q(cx, n):
    """dim over Q of the degree-n (co)homology: the free rank of the
    hochschild group, since the rank over Q of an integer map is its rank
    over Z."""
    if cx.coeff.has_torsion:
        raise BadParams("rational dimensions need free-valued coefficients")
    return hochschild(cx, n).free_rank


def leech_cohomology(monoid, coeff, n):
    """Cohomology of the contravariant tuple complex with left coefficients,
    computed on the Morse complex of the normalized complex."""
    cx = morse_complex(monoid, coeff, n + 1, COHOMOLOGICAL)
    return hochschild(cx, n)


def _shuffle_int_cols(cx, m):
    """Integer columns of the two-block shuffle actions sh_{p,m-p},
    0 < p < m, on degree m, one list per p.

    The shuffle product is associative: sh_{p,q,r} = sh_{p+q,r}(sh_{p,q} x 1)
    in Z[S_m].  So these m-1 operators span every block-shuffle image on
    chains and cut out the joint kernel of all block shuffles on cochains
    (Barr 1968).  The m-1 elements act in one batch."""
    return _sym_cols(cx, m, [shuffle_element(p, m - p) for p in range(1, m)])


def _distinct_up_to_sign(cols):
    """The nonzero columns, each once up to sign: the same lattice.  A
    column is keyed on its items signed so that the entry at its smallest
    row is positive, and the first column with each key is kept."""
    kept = {}
    for col in cols:
        if col:
            items = col.items() if col[min(col)] > 0 else \
                ((r, -v) for r, v in col.items())
            kept.setdefault(frozenset(items), col)
    return list(kept.values())


def harrison(cx):
    """Integral Harrison groups in degrees n = 1..n_max-1 (entry n-1 is
    degree n): the hochschild groups of the quotient of a chain complex
    over Z by the two-block shuffle images, which span every block-shuffle
    image.  The shuffle span must be closed under the boundary or
    NotAComplex is raised.  A cochain complex or a ring-Q complex raises
    BadParams: the rational Harrison dimensions, in either direction, are
    weight 1 of hodge.hodge_decomposition."""
    if cx.ring == "Q" or cx.direction != HOMOLOGICAL:
        raise BadParams("integral Harrison groups are computed on chains"
                        " over Z; weight 1 of hodge_decomposition gives the"
                        " rational dimensions")
    if cx.n_max < 2:
        return []
    sub = _shuffle_quotient(cx)
    return [hochschild(sub, n) for n in range(1, cx.n_max)]


def _shuffle_quotient(cx):
    """The chain complex modulo the shuffle images: the same maps, and
    below the top degree relations with a basis of the two-block shuffle
    images and the value relations, their columns passed once up to sign.
    The cone reads no relations of the top degree, which keeps its value
    relations, and checks that the boundary carries each degree's
    relations into the relations one degree down.  phi is written again
    in the new relation bases where the parent's d o d is not zero."""
    relations = [lattice_basis(_distinct_up_to_sign(
        [c for cols in _shuffle_int_cols(cx, m) for c in cols]
        + cx.relation_cols(m)), cx.dims[m]) for m in range(cx.n_max)]
    relations.append(cx.relation_cols(cx.n_max))
    sub = GammaChainComplex(cx.monoid, cx.coeff, cx.direction, cx.ring,
                            cx.dims, cx._mats, relations,
                            normalized=cx.normalized)
    if cx.phi:
        _check_squares(sub)
    return sub


def harrison_dim_q(cx):
    """Rational Harrison dimensions in degrees n = 1..n_max-1 (entry n-1
    is degree n), by rank arithmetic on the cochain side: Barr's joint
    shuffle kernel, kept as the reference for weight 1 of
    hodge_decomposition, which computes every rational Harrison answer.

    V^m is the joint kernel of the two-block shuffles sh_{p,m-p} on
    degree m, and dim H^n(V) = dim V^n - rank(delta on V^n) -
    rank(delta on V^(n-1)).  A chain complex enters through its dual,
    whose Harrison dimensions are the same over Q: the transposed
    boundaries, and the antipodes of the shuffles, which act by the
    transposed matrices.

    A shuffle moves positions and keeps the coefficient, so the shuffles
    are block-diagonal by content (the multiset of letters) and value
    index, and relabelling the letters carries every block of one
    multiplicity pattern onto the action on the pattern's own words
    (_pattern_action).  So each pattern's kernel (_pattern_kernel) is
    relabelled into every content and value index to give a basis K_m of
    V^m.  Then rank(delta on V^m) is the rank of delta o K_m, and V^m maps
    into V^(m+1) exactly when every shuffle of degree m + 1 kills
    delta o K_m, which is checked content by content through the same
    actions, for m + 1 = 2..n_max, before the rank is used.  The contents
    of each degree are listed once, for that check and for the basis of
    the next step.  The actions and kernels depend on the pattern alone
    and are kept for the process.
    """
    if cx.coeff.has_torsion:
        raise BadParams("rational dimensions need free-valued coefficients")
    dual, out = cx.step < 0, []
    for m in range(1, cx.n_max):
        # the map from degree m to m + 1 on the cochain side
        delta = _transpose_cols(cx.d_in(m), cx.dims[m]) if dual \
            else cx.d_out(m)
        if m == 1:
            # no shuffles: V^0 and V^1 are all of degrees 0 and 1, and with
            # no relations the cone's maps are d, whose ranks cx keeps
            dim_v, moved = cx.dims[1], delta
            rank_low, rank_up = (cx.map_invariants(k)[0] for k in (1, 2))
        else:  # contents holds degree m's, listed for the last check
            basis = [{rows[k] + i: v for k, v in vec.items()}
                     for pattern, rows, rank in contents
                     for vec in _pattern_kernel(pattern)
                     for i in range(rank)]
            dim_v, moved = len(basis), _compose_cols(basis, delta)
            rank_up = int_rank(moved)
        contents = list(_content_blocks(cx, m + 1))
        _check_shuffles_kill(cx, m + 1, moved, contents)
        out.append(dim_v - rank_up - rank_low)
        rank_low = rank_up
    return out


@lru_cache(maxsize=None)
def _pattern_kernel(pattern):
    """A basis of the joint kernel of the two-block shuffles sh_{p,m-p},
    0 < p < m, on the words that hold pattern[j] letters j: their actions
    on cochains (_pattern_action, which reads a word through each
    permutation) stacked, sh_{p,m-p} on the rows from (p - 1) * len(words).
    The antipodes act on chains by the same matrices, so the kernel serves
    the dual of a chain complex in harrison_dim_q too.  Checked against the
    stack: a kernel vector the shuffles do not kill raises
    CompositionNonzero.  Kept for the process, so each pattern's kernel is
    taken and checked once; a kernel that fails the check is not kept and
    fails again on the next call.  Callers share it and must not change
    it."""
    m, size = sum(pattern), len(_pattern_words(pattern)[0])
    cols = [dict() for _ in range(size)]
    for p in range(1, m):
        sh, off = shuffle_element(p, m - p), (p - 1) * size
        for col, entries in zip(cols, _pattern_action(sh, False, pattern)):
            col.update((off + k, v) for k, v in entries)
    kernel = kernel_basis(cols, (m - 1) * size)
    if any(_compose_cols(kernel, cols)):
        raise CompositionNonzero(
            "a kernel vector of the shuffles on the words of pattern"
            f" {pattern} is not killed by them")
    return kernel


def _content_order(t):
    """The letters of t by multiplicity, largest first, ties by letter,
    and their multiplicities, the pattern of t's content: letter j of the
    pattern's words (_pattern_words) stands for the j-th letter."""
    order = sorted(set(t), key=lambda a: (-t.count(a), a))
    return order, tuple(map(t.count, order))


def _content_blocks(cx, m):
    """One (pattern, rows, rank) per content of degree m with a nonzero
    value (_content_order), in lexicographic order of the sorted tuples,
    which is where each content first appears among the tuples.  rows[k]
    is the offset of the pattern's word k (_pattern_words) with the
    content's letters put back, found by its lexicographic index, and rank
    the rank of the value."""
    letters = _letters(cx.monoid, cx.normalized)
    place = {a: i for i, a in enumerate(letters)}
    offsets = cx.tuple_offsets(m)
    for content in itertools.combinations_with_replacement(letters, m):
        rank = cx.coeff.ranks[cx.monoid.product(content)]
        if rank:
            order, pattern = _content_order(content)
            rows = []
            for w in _pattern_words(pattern)[0]:
                i = 0
                for k in w:
                    i = i * len(letters) + place[order[k]]
                rows.append(offsets[i])
            yield pattern, rows, rank


def _check_shuffles_kill(cx, n, vecs, contents):
    """Raise NotAComplex unless every two-block shuffle of degree n on
    the cochain side kills each vector of vecs, applied content by
    content: contents lists degree n's (pattern, rows, rank)
    (_content_blocks), and each row of degree n is one word of its
    content's pattern at one value index, which the shuffles' actions on
    that pattern (_pattern_action, looked up once a call per pattern)
    carry to rows of the same content and value index.  sh_{p,n-p} sums
    at its image row plus (p - 1) * dims[n]."""
    shuffles = [shuffle_element(p, n - p) for p in range(1, n)]
    images, where, size = {}, {}, cx.dims[n]
    for pattern, rows, rank in contents:
        # per word, its images under each shuffle in turn
        by_word = images.get(pattern)
        if by_word is None:
            by_word = images[pattern] = list(zip(*(
                _pattern_action(sh, False, pattern) for sh in shuffles)))
        for i in range(rank):
            for r, word_images in zip(rows, by_word):
                where[r + i] = rows, i, word_images
    for vec in vecs:
        acc = {}
        for r, x in vec.items():
            rows, off, word_images = where[r]
            for entries in word_images:
                for k, c in entries:
                    s = off + rows[k]
                    acc[s] = acc.get(s, 0) + x * c
                off += size
        if any(acc.values()):
            raise NotAComplex("shuffle span is not closed under the"
                              f" differential at degree {n}")


def _orbit_sums(layout, ranks, lam):
    """Sparse columns of the sum of each value basis vector over an orbit
    of the Young subgroup S_lam, which permutes the positions inside each
    block of lam, on the tuples of a term layout.  Orbits come in the order
    of their first tuples."""
    tuples, prods, offs, _ = layout
    cuts = list(itertools.accumulate(lam, initial=0))
    orbits = {}
    for k, t in enumerate(tuples):
        key = tuple(tuple(sorted(t[a:b])) for a, b in zip(cuts, cuts[1:]))
        orbits.setdefault(key, []).append(k)
    return [{offs[k] + i: 1 for k in members}
            for members in orbits.values()
            for i in range(ranks[prods[members[0]]])]


@dataclass(frozen=True)
class YExactnessReport:
    passed: bool
    degree: int
    partition: tuple
    witness: tuple | None
    detail: str


def y_exactness_check(hmap, n, lam):
    """Surjectivity of a right-module map on Young-subgroup invariants of
    the degree-n term, checked exactly over the integers.

    S_n permutes the tuples of the term and keeps their products, so it
    acts on the values only by moving them between tuples.  A vector is
    S_lam-invariant modulo the value relations exactly when it is constant
    modulo them on each orbit: the orbit sums and the relations span the
    invariants.  The source's relations enter the image through the map,
    which need not carry them into the target's relations; the target's
    relations are part of the image."""
    lam = tuple(int(p) for p in lam)
    if (not lam or any(p < 1 for p in lam) or sum(lam) != n
            or any(lam[i] < lam[i + 1] for i in range(len(lam) - 1))):
        raise BadParams(f"{lam} is not a partition of {n}")
    src, tgt = hmap.source, hmap.target
    if src.side != RIGHT or tgt.side != RIGHT:
        raise BadParams("invariant surjectivity is checked for right modules")
    monoid = src.monoid
    for coeff in (src, tgt):
        _check_budget(monoid, coeff, n)
    lay1, lay2 = (_term_layout(monoid, coeff, n) for coeff in (src, tgt))
    K1 = _orbit_sums(lay1, src.ranks, lam) + \
        _block_diag([src.rels[p] for p in lay1[1]])
    K2 = _orbit_sums(lay2, tgt.ranks, lam)

    cols = _block_diag([hmap.mats[p] for p in lay1[1]])
    rows = lay2[3]
    reachable = _compose_cols(K1, cols) + \
        _block_diag([tgt.rels[p] for p in lay2[1]])
    if solve_int(reachable, rows, K2) is not None:
        return YExactnessReport(True, n, lam, None,
                                f"all {len(K2)} invariant generators hit")
    for j, col in enumerate(K2):
        if solve_int(reachable, rows, [col]) is None:
            return YExactnessReport(
                False, n, lam, (j, tuple(col.get(i, 0) for i in range(rows))),
                f"invariant generator {j} is not in the image")
    raise OracleMismatch("batched solve failed but every column solved")
