"""Eulerian idempotents and weight decompositions over the rationals.

The Eulerian idempotents e^(i) are the spectral projectors of the sum s_n
of all two-block shuffles, at its eigenvalues 2^i - 2, i = 1..n.  Their
integral multiples n!*e^(i) have a closed form in descents (Loday, Cyclic
Homology 4.5), checked here as elements of Z[S_n]; PROJECTOR_CAP bounds
the degree they are built in.  The weight pieces of the (co)homology are
the eigenspaces of s_n on it: s_n acts by an integer matrix that commutes
with the boundary, and each weight's dimension is read from integer
ranks on cycles that represent the homology, modulo the boundaries.
That path builds no projector and has no cap of its own: the basis
budget of the complex bounds it.  One reader takes each degree's weights
(_degree_weights) and holds their guards.  hodge_decomposition feeds it
s_n on the tuples of a complex from build_complex and is the reference;
morse_hodge feeds it pi s_n iota on the Morse complex, through the chain
maps of a MorseReduction, and every compute target takes that path.
Weight 1 is rational Harrison (co)homology, so every rational Harrison
dimension is read from it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import factorial

from .errors import BadParams, NotAnnihilated, WeightNotPreserved
from .exact_linalg import kernel_basis
from .gamma_chain import (
    SymGroupElement,
    _compose_cols,
    _sym_cols,
    hochschild_dim_q,
    perm_sign,
    shuffle_element,
)

PROJECTOR_CAP = 5


@lru_cache(maxsize=None)
def total_shuffle_operator(n):
    """s_n = sum of sh_{p, n-p} for 0 < p < n; zero when n = 1.  Built
    once per process for each n: callers share it and must not change
    it."""
    if n < 1:
        raise BadParams("degree must be at least 1")
    return sum((shuffle_element(p, n - p) for p in range(1, n)),
               SymGroupElement.zero(n))


@dataclass(frozen=True)
class HodgeProjectorSet:
    """The integral Eulerian idempotents E_i = n!*e^(i), i = 1..n, of Z[S_n]."""

    n: int
    projectors: tuple

    def __iter__(self):
        return iter(self.projectors)

    def __getitem__(self, i):
        """1-based weight access: self[i] is n!*e^(i)."""
        if not 1 <= i <= self.n:
            raise BadParams(f"weight {i} outside 1..{self.n}")
        return self.projectors[i - 1]

    def spectral_violations(self):
        """Failures of s_n*E_i = (2^i - 2)*E_i and sum_i E_i = n!*1, which
        force E_i = n!*e^(i): e^(i) kills E_j for j != i and fixes E_i."""
        s = total_shuffle_operator(self.n)
        bad = [f"e^({i}) is not a {2 ** i - 2}-eigenvector of s_{self.n}"
               for i, e in enumerate(self.projectors, start=1)
               if s.mul(e) != e.scale(2 ** i - 2)]
        total = sum(self.projectors, SymGroupElement.zero(self.n))
        if total != SymGroupElement.identity(self.n).scale(factorial(self.n)):
            bad.append("projectors do not sum to n! times the identity")
        return bad

    def identity_violations(self):
        """Failures of E_i*E_i = n!*E_i, E_i*E_j = 0 and spectral_violations."""
        bad = []
        for i, e in enumerate(self.projectors, start=1):
            if e.mul(e) != e.scale(factorial(self.n)):
                bad.append(f"e^({i}) not idempotent")
            for j in range(i + 1, self.n + 1):
                if not e.mul(self.projectors[j - 1]).is_zero():
                    bad.append(f"e^({i})e^({j}) nonzero")
        return bad + self.spectral_violations()


@lru_cache(maxsize=None)
def _eulerian(n):
    # the coefficient of sigma in n!*e^(i) is sgn(sigma) times that of x^i
    # in prod_{k<n} (x - des(sigma) + k) (Garsia 1990)
    terms = [{} for _ in range(n)]
    for perm in itertools.permutations(range(n)):
        des = sum(perm[k] > perm[k + 1] for k in range(n - 1))
        poly = [perm_sign(perm)]
        for k in range(n):
            poly = [(k - des) * a + b for a, b in zip(poly + [0], [0] + poly)]
        for i in range(1, n + 1):
            terms[i - 1][perm] = poly[i]
    found = HodgeProjectorSet(n, tuple(SymGroupElement(n, t) for t in terms))
    bad = found.spectral_violations()
    if bad:
        raise NotAnnihilated(f"Eulerian idempotents on {n} letters: "
                             + "; ".join(bad))
    return found


def eulerian_idempotents(n):
    """n!*e^(i) for i = 1..n, with e^(i) the spectral projector of s_n at
    2^i - 2; the closed form, checked on both spectral identities once."""
    if n < 1:
        raise BadParams("degree must be at least 1")
    if n > PROJECTOR_CAP:
        raise BadParams(f"degree {n} above the projector cap {PROJECTOR_CAP}")
    return _eulerian(n)


def hodge_decomposition(cx):
    """Dimensions of the weight pieces of the (co)homology in every degree
    n = 1..n_max-1: entry n-1 lists the weights i = 1..n.  This is the
    reference on the tuples of a complex from build_complex, full or
    normalized; the compute targets read the same weights on the Morse
    complex (morse_hodge), and the morse suite compares the two.

    The coefficients must be free-valued (_totals).  The ring of the
    complex only decides whether its totals also read torsion, so the
    weights do not depend on it.  Weight 1 is the rational Harrison
    dimension (Loday, Cyclic Homology 4.5).  s_n keeps the degenerate
    tuples, so normalizing the complex changes no weight.  Each degree's
    tuples are acted on once, with s_n alone (_sym_cols), and
    _degree_weights reads a degree's weights, with s_n composed on its
    representatives, once d o s = s o d holds exactly on the maps around
    it (_checked).
    """
    acted = _checked(cx, cx.n_max, lambda m: _sym_cols(
        cx, m, [total_shuffle_operator(m)])[0])
    return [_degree_weights(cx, n, h, boundaries,
                            lambda reps: _compose_cols(reps, s))
            for (_, h, boundaries), (n, s) in zip(
                _totals(cx, range(1, cx.n_max)), acted)]


def morse_hodge(red):
    """The weights of hodge_decomposition, read on the Morse complex of a
    MorseReduction built with transfer set.

    pi and iota are chain maps with pi o iota = 1 and iota o pi
    homotopic to 1, so S_n = pi s_n iota acts on H_n of the Morse
    complex as s_n acts on H_n of the normalized complex, and
    _degree_weights reads its weights with S_n applied to the
    representatives through red.transfer, which checks each lift.  The
    weights are read over Q whatever the ring of the complex.

    Cochains need no transposed maps of their own.  The coboundaries are
    the transposed boundaries of the translations as a right module
    (_right_act), and s_n acts on cochains by the transposed matrices, so
    over Q the weights of the cochains are those of these chains
    (red.chains)."""
    cx = red.chains()
    return [_degree_weights(cx, n, h, boundaries, lambda reps: red.transfer(
                n, total_shuffle_operator(n), reps))
            for n, h, boundaries in _totals(cx, range(1, cx.n_max))]


def _checked(cx, top, act):
    """(n, S_n) for n = 1..top - 1, with S_m = act(m) the columns of an
    operator on degree m and S_0 = -1 (s_0 = 2^0 - 2): S_n is yielded
    once d o S = S o d holds exactly on the maps into and out of degree n,
    and WeightNotPreserved is raised on a map where it fails.  Spent, the
    generator has checked every map between degrees 0 and top."""
    s_low = [{r: -1} for r in range(cx.dims[0])]
    for m in range(1, top + 1):
        s_high = act(m)
        if cx.step < 0:
            src, s_src, s_tgt = m, s_high, s_low
        else:
            src, s_src, s_tgt = m - 1, s_low, s_high
        d = cx.d_out(src)
        if _compose_cols(s_src, d) != _compose_cols(d, s_tgt):
            raise WeightNotPreserved(
                f"boundary from degree {src} does not commute with the total"
                " shuffle operator")
        if m > 1:
            yield m - 1, s_low
        s_low = s_high


def _totals(cx, degrees):
    """(n, h, boundaries) for each degree n of the increasing run
    degrees: h = dim H_n, and boundaries the map into degree n eliminated
    by columns (GammaChainComplex.reduction_in).

    h reads the ranks of the maps into and out of degree n, and on a
    ring-Q complex the reductions give them, so each map is eliminated
    once.  On chains the map out of degree n entered degree n - 1.  On
    cochains it enters degree n + 1, whose reduction is then built before
    h and kept for the next step; no other reduction outlives its
    degree.  hochschild_dim_q raises BadParams on coefficients that are
    not free-valued, before any weight is read."""
    ahead = None
    for n in degrees:
        boundaries = ahead or cx.reduction_in(n)
        ahead = cx.reduction_in(n + 1) if cx.step > 0 and n + 1 in degrees \
            else None
        yield n, hochschild_dim_q(cx, n), boundaries


def _degree_weights(cx, n, h, boundaries, act):
    """The weights h - rank(S - (2^i - 2)) on H_n, i = 1..n, of an
    operator S on degree n that commutes with d, for (n, h, boundaries)
    from _totals and act giving the columns of S on a list of cycles.

    S acts on the h cycles of _representatives only, and reduction is
    linear, so the rank of S - (2^i - 2) on H_n is that of
    red(S z) - (2^i - 2) red(z) modulo the residual.  Three guards raise
    WeightNotPreserved: the representatives must number h, h = 0
    included; their images must be cycles; and the weights must add up to
    h, which holds exactly when S acts diagonalizably on H_n, as s_n does
    on the chains, with eigenvalues 2^i - 2."""
    reps, classes = _representatives(cx, n, h, boundaries)
    moved = act(reps)
    if any(_compose_cols(moved, cx.d_out(n))):
        raise WeightNotPreserved(
            f"s_{n} carries a cycle of degree {n} off the cycles")
    moved = [boundaries.reduce(sz) for sz in moved]
    weights = [h - boundaries.rank_modulo(
        [{**sc, **{r: sc.get(r, 0) - lam * v for r, v in c.items()}}
         for sc, c in zip(moved, classes)])
        for lam in (2 ** i - 2 for i in range(1, n + 1))]
    if sum(weights) != h:
        raise WeightNotPreserved(
            f"weight dimensions {weights} do not add up to the total"
            f" in degree {n}")
    return weights


def _representatives(cx, n, h, boundaries):
    """h cycles of degree n that represent a basis of H_n, and their
    reductions by boundaries, the PivotReduction of the boundaries into
    degree n.

    A cycle is a boundary exactly when its reduction lies in the span of
    the residual R, so the first h cycles of a kernel basis whose
    reductions are independent modulo R represent a basis of H_n.  dim
    Z_n minus the rank of the boundaries (pivots plus rank R) must equal
    h, and the kernel basis must yield h such cycles, or
    WeightNotPreserved is raised; no cycle past the h-th representative
    is reduced.  On a ring-Q complex h reads the rank of the boundaries
    off the same reduction (_totals), so the count checks the kernel
    basis, from an elimination by rows of the map out of degree n,
    against h, whose rank of that map comes from an elimination by
    columns."""
    K = kernel_basis(cx.d_out(n), cx.dims[n + cx.step])
    found = len(K) - len(boundaries.pivots) - boundaries.rank
    reps, rep_classes = [], []
    if found == h:
        for z in K:
            if len(reps) == h:
                break
            c = boundaries.reduce(z)
            if c and boundaries.rank_modulo(rep_classes + [c]) > len(reps):
                reps.append(z)
                rep_classes.append(c)
        found = len(reps)
    if found != h:
        raise WeightNotPreserved(
            f"{found} cycles independent modulo the boundaries in degree {n},"
            f" where the total is {h}")
    return reps, rep_classes
