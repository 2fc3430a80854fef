"""Modules over the divisibility category H(C) of a commutative monoid.

Objects of H(C) are the monoid elements; an arrow a -> ac for every c.
A left module M assigns a finitely generated group M(a) to each element
and a structure map c_*: M(a) -> M(ca) to each arrow; a right module N
carries maps the other way, c^*: N(ca) -> N(a).  Values are stored as
free covers Z^rank with an optional column lattice of relations, so
torsion-valued modules (for example constant Z/4) fit the same carrier.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadParams
from .exact_linalg import (IntMatrix, cokernel_group, solve_int,
                           subquotient_group)
from .monoids import FiniteCommMonoid, product_monoid, quotient_set

LEFT = "left"
RIGHT = "right"


def _kron(A, B):
    rows, cols = A.rows * B.rows, A.cols * B.cols
    data = [[0] * cols for _ in range(rows)]
    for i, arow in enumerate(A.data):
        for j, a in enumerate(arow):
            if a:
                for p, brow in enumerate(B.data):
                    for q, b in enumerate(brow):
                        if b:
                            data[i * B.rows + p][j * B.cols + q] = a * b
    return IntMatrix(data, cols)


class TabulatedHCModule:
    """H(C)-module with explicit value ranks and structure matrices.

    ``act[(c, a)]`` is c_* : M(a) -> M(ca) on the left side and
    c^* : N(ca) -> N(a) on the right side.  ``rels[a]`` columns span the
    relation lattice inside the free cover Z^{ranks[a]} (empty = free).
    """

    __slots__ = ("side", "monoid", "ranks", "act", "rels", "basis_labels")

    def __init__(self, side, monoid, ranks, act, rels=None, basis_labels=None):
        if side not in (LEFT, RIGHT):
            raise BadParams(f"side must be left or right, got {side!r}")
        self.side = side
        self.monoid = monoid
        self.ranks = tuple(int(r) for r in ranks)
        if len(self.ranks) != monoid.size:
            raise BadParams("one rank per monoid element required")
        self.act = dict(act)
        if rels is None:
            rels = tuple(IntMatrix.zeros(r, 0) for r in self.ranks)
        self.rels = tuple(rels)
        self.basis_labels = basis_labels

    @property
    def has_torsion(self):
        return any(r.cols for r in self.rels)

    def value_group(self, a):
        return cokernel_group(self.rels[a].col_dicts(), self.rels[a].rows)

    def __repr__(self):
        return f"TabulatedHCModule({self.side}, ranks={self.ranks})"


def _shape_for(side, ranks, monoid, c, a):
    ca = monoid.mul(c, a)
    if side == LEFT:
        return ranks[ca], ranks[a]
    return ranks[a], ranks[ca]


def _in_relations(M, relmat):
    """Whether every column of M lies in the column lattice of relmat."""
    if relmat.cols == 0:
        return M.is_zero()
    return solve_int(relmat.col_dicts(), relmat.rows,
                     M.col_dicts()) is not None


def _eq_mod(X, Y, relmat):
    return X.shape() == Y.shape() and _in_relations(X.sub(Y), relmat)


def validate_module(module):
    """All functor-law violations, each with one witness; empty means valid."""
    mon = module.monoid
    e = mon.identity
    bad = []
    for c in mon.elements:
        for a in mon.elements:
            got = module.act.get((c, a))
            if got is None or got.shape() != _shape_for(module.side, module.ranks,
                                                        mon, c, a):
                bad.append(("Shape", (c, a)))
    if bad:
        return bad
    for a in mon.elements:
        if module.act[(e, a)] != IntMatrix.identity(module.ranks[a]):
            bad.append(("IdentityAction", (a,)))
            break
    for c1 in mon.elements:
        for c2 in mon.elements:
            hit = False
            for a in mon.elements:
                c2a = mon.mul(c2, a)
                if module.side == LEFT:
                    lhs = module.act[(mon.mul(c1, c2), a)]
                    rhs = module.act[(c1, c2a)].mul(module.act[(c2, a)])
                    target = mon.mul(mon.mul(c1, c2), a)
                else:
                    lhs = module.act[(mon.mul(c1, c2), a)]
                    rhs = module.act[(c2, a)].mul(module.act[(c1, c2a)])
                    target = a
                if not _eq_mod(lhs, rhs, module.rels[target]):
                    bad.append(("Composition", (c1, c2, a)))
                    hit = True
                    break
            if hit:
                break
        else:
            continue
        break
    for c in mon.elements:
        hit = False
        for a in mon.elements:
            rel_src = module.rels[a if module.side == LEFT else mon.mul(c, a)]
            if rel_src.cols == 0:
                continue
            target = mon.mul(c, a) if module.side == LEFT else a
            if not _in_relations(module.act[(c, a)].mul(rel_src),
                                 module.rels[target]):
                bad.append(("RelationsNotPreserved", (c, a)))
                hit = True
                break
        if hit:
            break
    return bad


def std_projective(monoid, a, side):
    """The representable module at a: values are the quotient sets (x:a)
    on the left (or (a:x) on the right) made free, with translation maps."""
    size = monoid.size
    if side == LEFT:
        bases = [quotient_set(x, a, monoid) for x in monoid.elements]
    else:
        bases = [quotient_set(a, x, monoid) for x in monoid.elements]
    index = [{u: i for i, u in enumerate(bs)} for bs in bases]
    ranks = [len(bs) for bs in bases]
    act = {}
    for c in monoid.elements:
        for x in monoid.elements:
            cx = monoid.mul(c, x)
            if side == LEFT:
                rows, cols, src, dst = ranks[cx], ranks[x], bases[x], index[cx]
            else:
                rows, cols, src, dst = ranks[x], ranks[cx], bases[cx], index[x]
            data = [[0] * cols for _ in range(rows)]
            for j, u in enumerate(src):
                data[dst[monoid.mul(c, u)]][j] = 1
            act[(c, x)] = IntMatrix(data, cols)
    return TabulatedHCModule(side, monoid, ranks, act)


def constant_module(monoid, side, rank=1, rel_columns=()):
    """Constant values with identity structure maps (j^* of a trivial-action
    group); rel_columns present a torsion value such as Z/4."""
    ident = IntMatrix.identity(rank)
    act = {(c, a): ident for c in monoid.elements for a in monoid.elements}
    rel = IntMatrix.from_cols([list(col) for col in rel_columns], rank)
    rels = tuple(rel for _ in monoid.elements)
    return TabulatedHCModule(side, monoid, [rank] * monoid.size, act, rels)


def trivial_module(monoid, side):
    return constant_module(monoid, side)


def jstar_finite_cyclic(monoid, k, side):
    """Constant Z/k with trivial action."""
    if k < 2:
        raise BadParams("modulus must be at least 2")
    return constant_module(monoid, side, rank=1, rel_columns=[[k]])


def pullback(hom, module):
    """Restriction of a module along a monoid hom into its base monoid."""
    if module.monoid != hom.target:
        raise BadParams("module does not live over the hom target")
    src = hom.source
    ranks = [module.ranks[hom(a)] for a in src.elements]
    act = {(c, a): module.act[(hom(c), hom(a))]
           for c in src.elements for a in src.elements}
    rels = tuple(module.rels[hom(a)] for a in src.elements)
    return TabulatedHCModule(module.side, src, ranks, act, rels)


def boxtimes(m1, m2, product=None):
    """External product over C1 x C2; value at (x1, x2) is the tensor of
    the two values, structure maps the Kronecker products."""
    if m1.side != m2.side:
        raise BadParams("external product needs matching sides")
    if m1.has_torsion or m2.has_torsion:
        raise BadParams("external product implemented for free-valued modules")
    if product is None:
        product = product_monoid(m1.monoid, m2.monoid)
    mon = product.monoid
    m2size = m2.monoid.size
    ranks = [m1.ranks[i // m2size] * m2.ranks[i % m2size] for i in mon.elements]
    act = {}
    for c in mon.elements:
        c1, c2 = divmod(c, m2size)
        for a in mon.elements:
            a1, a2 = divmod(a, m2size)
            act[(c, a)] = _kron(m1.act[(c1, a1)], m2.act[(c2, a2)])
    return TabulatedHCModule(m1.side, mon, ranks, act)


@dataclass(frozen=True)
class KCModule:
    """Finitely generated module over the integral monoid algebra Z[C]."""

    monoid: FiniteCommMonoid
    rank: int
    action: dict

    def __post_init__(self):
        if self.rank < 0:
            raise BadParams("negative rank")


def regular_kc_module(monoid):
    """Z[C] acting on itself; multiplication by c permutes-and-merges the
    monomial basis."""
    size = monoid.size
    action = {}
    for c in monoid.elements:
        data = [[0] * size for _ in range(size)]
        for x in monoid.elements:
            data[monoid.mul(c, x)][x] = 1
        action[c] = IntMatrix(data, size)
    return KCModule(monoid, size, action)


def trivial_kc_module(monoid):
    """Rank-one Z[C]-module with every element acting as the identity."""
    action = {c: IntMatrix.identity(1) for c in monoid.elements}
    return KCModule(monoid, 1, action)


def jstar(kc, side=LEFT):
    """Constant H(C)-module with every value the K[C]-module's underlying
    group and every structure map the action of the translating element."""
    mon = kc.monoid
    act = {(c, a): kc.action[c] for c in mon.elements for a in mon.elements}
    return TabulatedHCModule(side, mon, [kc.rank] * mon.size, act)


@dataclass(frozen=True)
class HCModuleMap:
    """Degreewise map between modules of the same side over one monoid."""

    source: TabulatedHCModule
    target: TabulatedHCModule
    mats: tuple

    def __post_init__(self):
        if self.source.monoid != self.target.monoid:
            raise BadParams("map between modules over different monoids")
        if self.source.side != self.target.side:
            raise BadParams("map between modules of different sides")
        object.__setattr__(self, "mats", tuple(self.mats))
        mon = self.source.monoid
        for a in mon.elements:
            if self.mats[a].shape() != (self.target.ranks[a], self.source.ranks[a]):
                raise BadParams(f"component at {a} has the wrong shape")
        for c in mon.elements:
            for a in mon.elements:
                ca = mon.mul(c, a)
                if self.source.side == LEFT:
                    lhs = self.mats[ca].mul(self.source.act[(c, a)])
                    rhs = self.target.act[(c, a)].mul(self.mats[a])
                    relm = self.target.rels[ca]
                else:
                    lhs = self.mats[a].mul(self.source.act[(c, a)])
                    rhs = self.target.act[(c, a)].mul(self.mats[ca])
                    relm = self.target.rels[a]
                if not _eq_mod(lhs, rhs, relm):
                    raise BadParams(f"map is not natural at (c={c}, a={a})")


@dataclass(frozen=True)
class PresentedHCModule:
    """Left module given by generators in degrees and translated relations.

    A relation of degree d is a formal sum of pairs (generator, translator)
    with integer coefficients, subject to deg(g) * c = d for each term.
    """

    monoid: FiniteCommMonoid
    generators: tuple  # of (label, degree)
    relations: tuple   # of (degree, ((label, c, coeff), ...))

    def __post_init__(self):
        labels = [g for g, _ in self.generators]
        if len(set(labels)) != len(labels):
            raise BadParams("duplicate generator labels")
        degree_of = dict(self.generators)
        for rdeg, terms in self.relations:
            for label, c, coeff in terms:
                if label not in degree_of:
                    raise BadParams(f"relation uses unknown generator {label!r}")
                if self.monoid.mul(degree_of[label], c) != rdeg:
                    raise BadParams(
                        f"term ({label}, {c}) does not land in degree {rdeg}")


def omega(monoid):
    """Universal target of derivations: one generator da per element,
    with d(ab) = a*db + b*da imposed for every unordered pair."""
    gens = tuple((f"d{a}", a) for a in monoid.elements)
    rels = []
    for a in monoid.elements:
        for b in range(a, monoid.size):
            terms = {}
            terms[(f"d{monoid.mul(a, b)}", monoid.identity)] = 1
            key_b = (f"d{b}", a)
            terms[key_b] = terms.get(key_b, 0) - 1
            key_a = (f"d{a}", b)
            terms[key_a] = terms.get(key_a, 0) - 1
            flat = tuple((lab, c, v) for (lab, c), v in terms.items() if v)
            if flat:
                rels.append((monoid.mul(a, b), flat))
    return PresentedHCModule(monoid, gens, tuple(rels))


def tabulate_presented(presented):
    """Expand a presentation into explicit per-element values.

    The value at x is free on the pairs (generator g, translator c) with
    deg(g) * c = x, modulo all translates of the relations that land in x;
    structure maps just retranslate the pairs.
    """
    mon = presented.monoid
    degree_of = dict(presented.generators)
    bases = []
    for x in mon.elements:
        basis = [(lab, c) for lab, gdeg in presented.generators
                 for c in quotient_set(x, gdeg, mon)]
        bases.append(basis)
    index = [{pair: i for i, pair in enumerate(bs)} for bs in bases]
    ranks = [len(bs) for bs in bases]

    act = {}
    for c0 in mon.elements:
        for x in mon.elements:
            cx = mon.mul(c0, x)
            data = [[0] * ranks[x] for _ in range(ranks[cx])]
            for j, (lab, c) in enumerate(bases[x]):
                data[index[cx][(lab, mon.mul(c0, c))]][j] = 1
            act[(c0, x)] = IntMatrix(data, ranks[x])

    rels = []
    for x in mon.elements:
        cols = []
        for rdeg, terms in presented.relations:
            for c in quotient_set(x, rdeg, mon):
                col = [0] * ranks[x]
                for lab, ct, coeff in terms:
                    col[index[x][(lab, mon.mul(c, ct))]] += coeff
                cols.append(col)
        rels.append(IntMatrix.from_cols(cols, ranks[x]))
    labels = tuple(tuple(bs) for bs in bases)
    return TabulatedHCModule(LEFT, mon, ranks, act, tuple(rels),
                             basis_labels=labels)


def _offsets(sizes):
    offs = [0]
    for s in sizes:
        offs.append(offs[-1] + s)
    return offs


def _block_diag(mats):
    """Sparse columns of the block-diagonal matrix of dense blocks.  Each
    distinct block's columns are read once per call: a degree repeats the
    value relations of one product over many tuples."""
    cols, off, read = [], 0, {}
    for m in mats:
        if m.cols:  # free values give many blocks with no columns
            block = read.get(id(m)) or read.setdefault(id(m), m.col_dicts())
            cols += [{off + i: v for i, v in col.items()} for col in block]
        off += m.rows
    return cols


def _accumulate(vec, key, value):
    if value:
        vec[key] = vec.get(key, 0) + value


def tensor_over_hc(right_mod, left_arg):
    """right_mod tensored with a left module over H(C).

    The balancing rule c^*(z) (x) y = z (x) c_*(y) is imposed columnwise;
    a presented left argument is collapsed generator-by-generator first
    (tensoring against a translate-free cover picks out the value at the
    generator degree).
    """
    if right_mod.side != RIGHT:
        raise BadParams("first tensor factor must be a right module")
    mon = right_mod.monoid
    if isinstance(left_arg, PresentedHCModule):
        if left_arg.monoid != mon:
            raise BadParams("tensor factors live over different monoids")
        degree_of = dict(left_arg.generators)
        gens = [(lab, right_mod.ranks[deg]) for lab, deg in left_arg.generators]
        offs = _offsets([r for _, r in gens])
        gen_pos = {lab: k for k, (lab, _) in enumerate(gens)}
        total = offs[-1]
        cols = []
        for rdeg, terms in left_arg.relations:
            for i in range(right_mod.ranks[rdeg]):
                col = {}
                for lab, ct, coeff in terms:
                    gdeg = degree_of[lab]
                    mat = right_mod.act[(ct, gdeg)]  # N(rdeg) -> N(gdeg)
                    base = offs[gen_pos[lab]]
                    for p in range(mat.rows):
                        _accumulate(col, base + p, coeff * mat.data[p][i])
                cols.append(col)
        for lab, gdeg in left_arg.generators:
            base = offs[gen_pos[lab]]
            cols += [{base + i: v for i, v in col.items()}
                     for col in right_mod.rels[gdeg].col_dicts()]
        return cokernel_group(cols, total)

    left_mod = left_arg
    if left_mod.side != LEFT:
        raise BadParams("second tensor factor must be a left module")
    if left_mod.monoid != mon:
        raise BadParams("tensor factors live over different monoids")
    pair_rank = [right_mod.ranks[a] * left_mod.ranks[a] for a in mon.elements]
    offs = _offsets(pair_rank)
    total = offs[-1]

    def gen(a, i, j):
        return offs[a] + i * left_mod.ranks[a] + j

    cols = []
    for c in mon.elements:
        for a in mon.elements:
            ca = mon.mul(c, a)
            actN = right_mod.act[(c, a)]   # N(ca) -> N(a)
            actM = left_mod.act[(c, a)]    # M(a)  -> M(ca)
            for i in range(right_mod.ranks[ca]):
                for j in range(left_mod.ranks[a]):
                    col = {}
                    for p in range(actN.rows):
                        _accumulate(col, gen(a, p, j), actN.data[p][i])
                    for q in range(actM.rows):
                        _accumulate(col, gen(ca, i, q), -actM.data[q][j])
                    cols.append(col)
    for a in mon.elements:
        for relm, other_rank, is_right in ((right_mod.rels[a],
                                            left_mod.ranks[a], True),
                                           (left_mod.rels[a],
                                            right_mod.ranks[a], False)):
            for rel in relm.col_dicts():
                for k in range(other_rank):
                    cols.append({gen(a, i, k) if is_right else gen(a, k, i): v
                                 for i, v in rel.items()})
    return cokernel_group(cols, total)


def derivations(monoid, module):
    """Maps a -> delta(a) in M(a) with delta(ab) = a*delta(b) + b*delta(a),
    as Hom(Omega_C, M): Omega_C is their universal target."""
    return hom_from_presented(omega(monoid), module)


def hom_from_presented(presented, module):
    """Module maps out of a presentation: pick images of the generators,
    subject to every relation mapping to zero.

    Solved exactly over the integers by subquotient_group: the unknowns
    whose equations vanish modulo the value relations at the relation
    degrees, modulo the value relations at the generator degrees.
    """
    if module.side != LEFT:
        raise BadParams("hom target must be a left module")
    if module.monoid != presented.monoid:
        raise BadParams("presentation and module live over different monoids")
    degree_of = dict(presented.generators)
    gen_rank = [module.ranks[deg] for _, deg in presented.generators]
    offs = _offsets(gen_rank)
    gen_pos = {lab: k for k, (lab, _) in enumerate(presented.generators)}
    eqs = [dict() for _ in range(offs[-1])]  # one column per unknown
    n_eqs = 0
    eq_rel_blocks = []
    for rdeg, terms in presented.relations:
        for r in range(module.ranks[rdeg]):
            for lab, ct, coeff in terms:
                act = module.act[(ct, degree_of[lab])]  # M(deg g) -> M(rdeg)
                base = offs[gen_pos[lab]]
                for j in range(act.cols):
                    _accumulate(eqs[base + j], n_eqs, coeff * act.data[r][j])
            n_eqs += 1
        eq_rel_blocks.append(module.rels[rdeg])
    return subquotient_group(
        eqs, _block_diag(eq_rel_blocks), n_eqs,
        _block_diag([module.rels[deg] for _, deg in presented.generators]),
        offs[-1])
