"""Finite commutative monoids given by explicit multiplication tables.

Elements are the indices 0..size-1.  Builders all put the identity at
index 0.  Tables are validated once at construction and never mutated.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from .errors import BadParams, MonoidLawError


class FiniteCommMonoid:
    """size, identity index and a commutative associative table."""

    __slots__ = ("size", "identity", "table")

    def __init__(self, size, identity, table):
        self.size = size
        self.identity = identity
        self.table = tuple(tuple(row) for row in table)

    def mul(self, a, b):
        return self.table[a][b]

    def product(self, elems):
        """Fold of mul over a sequence; the empty product is the identity."""
        acc = self.identity
        for a in elems:
            acc = self.table[acc][a]
        return acc

    @property
    def elements(self):
        return range(self.size)

    def __eq__(self, other):
        return (isinstance(other, FiniteCommMonoid)
                and self.size == other.size
                and self.identity == other.identity
                and self.table == other.table)

    def __hash__(self):
        return hash((self.size, self.identity, self.table))

    def __repr__(self):
        return f"FiniteCommMonoid(size={self.size}, identity={self.identity})"

    def to_json(self):
        return {"size": self.size, "identity": self.identity,
                "table": [list(row) for row in self.table]}


def validate_monoid(size, identity, table):
    """Check all laws and return the monoid; collect one witness per law."""
    if size < 1 or not (0 <= identity < size):
        raise BadParams(f"size {size} with identity {identity}")
    if len(table) != size or any(len(row) != size for row in table):
        raise BadParams("table shape does not match size")
    for row in table:
        for v in row:
            if not (0 <= v < size):
                raise BadParams(f"table entry {v} out of range")

    violations = []
    for a in range(size):
        if table[identity][a] != a or table[a][identity] != a:
            violations.append(("BadIdentity", (a,)))
            break
    done = False
    for a in range(size):
        for b in range(a + 1, size):
            if table[a][b] != table[b][a]:
                violations.append(("NotCommutative", (a, b)))
                done = True
                break
        if done:
            break
    # one row at a time: (ab)c against a(bc) for every c at once, still
    # |C|^3 lookups, and the first bad c is the witness
    rows = [list(row) for row in table]
    for a, b in itertools.product(range(size), repeat=2):
        lhs, row_a = rows[rows[a][b]], rows[a]
        rhs = [row_a[x] for x in rows[b]]
        if lhs != rhs:
            c = next(c for c in range(size) if lhs[c] != rhs[c])
            violations.append(("NotAssociative", (a, b, c)))
            break
    if violations:
        raise MonoidLawError(violations)
    return FiniteCommMonoid(size, identity, table)


def cyclic_group(k):
    """Z/k with addition; identity 0."""
    if k < 1:
        raise BadParams(f"cyclic_group({k})")
    table = [[(a + b) % k for b in range(k)] for a in range(k)]
    return validate_monoid(k, 0, table)


def trivial_monoid():
    return cyclic_group(1)


def semilattice_chain(m):
    """Chain of m idempotents below an identity: a*b = max(a, b)."""
    if m < 0:
        raise BadParams(f"semilattice_chain({m})")
    size = m + 1
    table = [[max(a, b) for b in range(size)] for a in range(size)]
    return validate_monoid(size, 0, table)


def truncated_add(cap):
    """{0..cap} under capped addition a+b -> min(a+b, cap)."""
    if cap < 0:
        raise BadParams(f"truncated_add({cap})")
    size = cap + 1
    table = [[min(a + b, cap) for b in range(size)] for a in range(size)]
    return validate_monoid(size, 0, table)


def relabel(monoid, perm):
    """The isomorphic monoid in which element x is called perm[x]."""
    table = [[0] * monoid.size for _ in monoid.elements]
    for x in monoid.elements:
        for y in monoid.elements:
            table[perm[x]][perm[y]] = perm[monoid.mul(x, y)]
    return validate_monoid(monoid.size, perm[monoid.identity], table)


_BUILDERS = {
    "cyclic_group": cyclic_group,
    "semilattice_chain": semilattice_chain,
    "truncated_add": truncated_add,
}


def builder(spec):
    """Dispatch a builder string such as "cyclic_group(2)" or "trivial"."""
    spec = spec.strip()
    if spec == "trivial":
        return trivial_monoid()
    m = re.fullmatch(r"([a-z_]+)\((\d+)\)", spec)
    if not m or m.group(1) not in _BUILDERS:
        raise BadParams(f"unknown monoid builder {spec!r}")
    return _BUILDERS[m.group(1)](int(m.group(2)))


@dataclass(frozen=True)
class MonoidHom:
    """Identity-preserving multiplicative map between monoids."""

    source: FiniteCommMonoid
    target: FiniteCommMonoid
    map: tuple

    def __post_init__(self):
        object.__setattr__(self, "map", tuple(self.map))
        if len(self.map) != self.source.size:
            raise BadParams("hom map has the wrong length")
        if self.map[self.source.identity] != self.target.identity:
            raise BadParams("hom does not preserve the identity")
        for a in range(self.source.size):
            for b in range(self.source.size):
                if self.map[self.source.mul(a, b)] != \
                        self.target.mul(self.map[a], self.map[b]):
                    raise BadParams(f"hom fails multiplicativity at ({a}, {b})")

    def __call__(self, a):
        return self.map[a]


@dataclass(frozen=True)
class ProductMonoid:
    """Product monoid with its two injections and two projections.

    The pair (a, b) sits at index a*size2 + b (row-major).
    """

    monoid: FiniteCommMonoid
    iota1: MonoidHom
    iota2: MonoidHom
    pi1: MonoidHom
    pi2: MonoidHom

    def pair(self, a, b):
        return a * self.pi2.target.size + b

    def split(self, i):
        return divmod(i, self.pi2.target.size)


def product_monoid(c1, c2):
    m1, m2 = c1.size, c2.size
    size = m1 * m2
    table = [[0] * size for _ in range(size)]
    for a1 in range(m1):
        for a2 in range(m2):
            i = a1 * m2 + a2
            for b1 in range(m1):
                for b2 in range(m2):
                    table[i][b1 * m2 + b2] = c1.mul(a1, b1) * m2 + c2.mul(a2, b2)
    prod = validate_monoid(size, c1.identity * m2 + c2.identity, table)
    iota1 = MonoidHom(c1, prod, tuple(a * m2 + c2.identity for a in range(m1)))
    iota2 = MonoidHom(c2, prod, tuple(c1.identity * m2 + b for b in range(m2)))
    pi1 = MonoidHom(prod, c1, tuple(i // m2 for i in range(size)))
    pi2 = MonoidHom(prod, c2, tuple(i % m2 for i in range(size)))
    return ProductMonoid(prod, iota1, iota2, pi1, pi2)


def quotient_set(b, a, monoid):
    """All c with b = a*c, in ascending element order."""
    return [c for c in range(monoid.size) if monoid.mul(a, c) == b]

