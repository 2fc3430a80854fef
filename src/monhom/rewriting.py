"""Shortlex normal forms over a generating set, and Brown's collapsing scheme.

Order a generating set X of a finite commutative monoid C.  The normal
form of an element is its shortlex-least word over X: the shortest, and
among those the lexicographically least.  The normal forms are prefix-
and factor-closed, so a breadth-first extension of normal forms by one
letter finds them all.  A word is reducible when it is not the normal
form of its value.

A cell (w_1..w_n) of the normalized bar complex is a tuple of elements
other than the identity, each read as its normal form.  Brown's
collapsing scheme (K. S. Brown, "The geometry of rewriting systems",
MSRI Publ. 23, 1992) matches the cells, reading from the left:

- if |w_1| >= 2, the cell is matched up with (x, w_1', w_2, ..), where
  w_1 = x w_1';
- at position k >= 2, if some proper prefix u of w_k makes w_(k-1) u
  reducible, the cell is matched up with the one that splits w_k = u v at
  the shortest such u;
- if w_(k-1) w_k is irreducible, it is matched down with the cell that
  merges the two;
- otherwise the next position is read.

A cell that passes every position is critical; its cells without the
last entry are critical too.  The matched pair meets on an interior
face, which acts as the identity on every coefficient system, and the
matching is acyclic (Brown, op. cit.; algebraic Morse theory as in
Skoldberg, Trans. AMS 358, 2006), so the critical cells carry a complex
with the homology of the normalized one (gamma_chain.morse_complex).
Which X is chosen changes how many cells are critical, never the
homology.
"""

from __future__ import annotations

from .errors import BadParams

_MERGE = "merge"


def _indecomposable(monoid):
    """The elements other than the identity that are no product b c with
    b and c outside {a, e}: those every generating set contains.  A
    shortest product of three or more such factors for a splits off its
    first factor as b, so two factors suffice, and |C|^2 products decide."""
    e = monoid.identity
    made = set()
    for b in monoid.elements:
        for c in monoid.elements:
            if e not in (b, c):
                p = monoid.mul(b, c)
                if p not in (b, c):
                    made.add(p)
    return [a for a in monoid.elements if a != e and a not in made]


def _extend(monoid, reach, a):
    """The submonoid generated by the submonoid reach and a: the union of
    reach a^i, found as everything reach reaches by repeated steps by a,
    one multiplication per element."""
    if a in reach:
        return reach
    out = set(reach)
    frontier = list(reach)
    while frontier:
        nxt = []
        for x in frontier:
            y = monoid.mul(x, a)
            if y not in out:
                out.add(y)
                nxt.append(y)
        frontier = nxt
    return out


def _closure(monoid, gens):
    """The submonoid generated by gens."""
    reach = {monoid.identity}
    for g in gens:
        reach = _extend(monoid, reach, g)
    return reach


def _generators(monoid, cyclic):
    """A generating set: the indecomposable elements, then each element
    not yet reached, the largest cyclic submonoids first.  The added
    generators are then read back, the last added first: one that the
    generators kept so far reach is dropped, and any other g is replaced
    by the first power a of g, in the order of cyclic[a], that reaches g
    together with them (at worst g itself).  The cost is |C|^2
    multiplications for the indecomposable elements, and at most
    |C| (2 + cyclic[g]) for each added generator g."""
    gens = _indecomposable(monoid)
    kept = _closure(monoid, gens)
    reach = kept
    added = []
    for a in sorted(monoid.elements, key=lambda a: (-cyclic[a], a)):
        if a not in reach:
            added.append(a)
            reach = _extend(monoid, reach, a)
    for g in reversed(added):
        if g not in kept:
            powers = _extend(monoid, {monoid.identity}, g) - {monoid.identity}
            a = next(a for a in sorted(powers, key=lambda a: (cyclic[a], a))
                     if g in _extend(monoid, kept, a))
            gens.append(a)
            kept = _extend(monoid, kept, a)
    return gens


class Rewriting:
    """Normal forms over the ordered letters, and the matching they give.

    words[a] is the normal form of a as a tuple of letters; last[a] is
    (b, x) where words[a] = words[b] x, or None for the identity; head[a]
    is (x, rest) where words[a] = x words[rest] has length >= 2, else
    None.  step(p, q), for p and q other than the identity, is _MERGE
    when words[p] words[q] is irreducible, (u, v) when the cell splits
    q = u v at position k >= 2 after p, and None when the position
    passes; it is read once per pair that a matching asks for."""

    __slots__ = ("monoid", "letters", "words", "last", "head", "_steps")

    def __init__(self, monoid, letters):
        self.monoid = monoid
        self.letters = tuple(letters)
        self._normal_forms()
        if None in self.words:
            raise BadParams(f"{self.letters} does not generate the monoid")
        self.head = [(w[0], monoid.product(w[1:])) if len(w) >= 2 else None
                     for w in self.words]
        self._steps = {}

    def _normal_forms(self):
        """Breadth-first over normal forms, each extended by every letter
        in order: the first word to reach an element is its shortlex-least
        one, since a prefix of a normal form is a normal form."""
        words = [None] * self.monoid.size
        last = [None] * self.monoid.size
        words[self.monoid.identity] = ()
        layer = [self.monoid.identity]
        while layer:
            nxt = []
            for a in layer:
                for x in self.letters:
                    b = self.monoid.mul(a, x)
                    if words[b] is None:
                        words[b] = words[a] + (x,)
                        last[b] = (a, x)
                        nxt.append(b)
            layer = nxt
        self.words, self.last = words, last

    def step(self, p, q):
        try:
            return self._steps[p, q]
        except KeyError:
            s = self._steps[p, q] = self._read(p, q)
            return s

    def _read(self, p, q):
        """The shortest proper prefix u of words[q] with words[p] u
        reducible, as the split (u, v); else _MERGE or None by whether
        words[p] words[q] is irreducible.  A word extending a normal form
        by x is one when last of its value is (that form's value, x)."""
        wq = self.words[q]
        value = p
        for i, x in enumerate(wq, 1):
            nxt = self.monoid.mul(value, x)
            if self.last[nxt] != (value, x):
                if i == len(wq):
                    return None
                return (self.monoid.product(wq[:i]),
                        self.monoid.product(wq[i:]))
            value = nxt
        return _MERGE

    @property
    def collapses(self):
        """Whether any cell is matched: some normal form has two letters.
        Otherwise every element is a letter and every cell is critical."""
        return any(h is not None for h in self.head)

    def match(self, t):
        """The cell matched with t and the face that joins them, (partner,
        k): face k of the longer cell of the two is the shorter one.  None
        for a critical cell.  t has at least one entry."""
        head = self.head[t[0]]
        if head is not None:
            return head + t[1:], 1
        for k in range(1, len(t)):
            s = self.step(t[k - 1], t[k])
            if s is _MERGE:
                merged = self.monoid.mul(t[k - 1], t[k])
                return t[:k - 1] + (merged,) + t[k + 1:], k
            if s is not None:
                return t[:k] + s + t[k + 1:], k + 1
        return None


def rewriting(monoid):
    """The Rewriting on the generating set of _generators, its letters
    ordered by the size of the cyclic submonoid each generates, then by
    element.  Both the set and the order matter: on Z/3 x
    semilattice_chain(1), the letters {g^2, gf} give 2, 5, 11, 26, ..
    critical cells in degrees 1, 2, 3, 4, .., where {g^2, f}, which
    replacing gf by its power f gives, has n + 1 in degree n; on Z/2 x
    semilattice_chain(1), {g, gf} gives n + 1 with g first and 2^n with gf
    first.  When every element is indecomposable, as in a semilattice,
    every element is a letter, nothing collapses, and the choice costs a
    small multiple of |C|^2 multiplications.  The trivial monoid has no
    letters and no cells past degree 0."""
    cyclic = [len(_extend(monoid, {monoid.identity}, a))
              for a in monoid.elements]
    return Rewriting(monoid, sorted(_generators(monoid, cyclic),
                                    key=lambda a: (cyclic[a], a)))
