"""Eulerian idempotents and weight decompositions over the rationals.

The sum s_n of all two-block shuffle operators acts semisimply on Q[S_n]
with eigenvalues 2^i - 2 for i = 1..n.  Lagrange interpolation at these
eigenvalues yields a complete orthogonal family of idempotents.  Their
integral multiples D*e^(i) act on a tuple complex by integer matrices,
split each degree into weight pieces preserved by the boundary, and give
the per-weight homology dimensions from traces and ranks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .errors import BadParams, NotAnnihilated, WeightNotPreserved
from .exact_linalg import rank_of_col_dicts
from .gamma_chain import (
    SymGroupElement,
    _compose_cols,
    _sym_action_cols,
    hochschild_dim_q,
    shuffle_element,
)

PROJECTOR_CAP = 5


def total_shuffle_operator(n):
    """s_n = sum of sh_{p, n-p} for 0 < p < n; zero when n = 1."""
    if n < 1:
        raise BadParams("degree must be at least 1")
    total = SymGroupElement.zero(n)
    for p in range(1, n):
        total = total.add(shuffle_element(p, n - p))
    return total


@dataclass(frozen=True)
class HodgeProjectorSet:
    """The Eulerian idempotents e^(1)..e^(n) of Q[S_n]."""

    n: int
    projectors: tuple

    def __iter__(self):
        return iter(self.projectors)

    def __getitem__(self, i):
        """1-based weight access: self[i] is e^(i)."""
        if not 1 <= i <= self.n:
            raise BadParams(f"weight {i} outside 1..{self.n}")
        return self.projectors[i - 1]

    def identity_violations(self):
        """Names of failed algebra identities (empty when all hold)."""
        bad = []
        ident = SymGroupElement.identity(self.n)
        total = SymGroupElement.zero(self.n)
        for i, e in enumerate(self.projectors, start=1):
            total = total.add(e)
            if not e.mul(e).sub(e).is_zero():
                bad.append(f"e^({i}) not idempotent")
            for j in range(i + 1, self.n + 1):
                if not e.mul(self.projectors[j - 1]).is_zero():
                    bad.append(f"e^({i})e^({j}) nonzero")
        if not total.sub(ident).is_zero():
            bad.append("projectors do not sum to the identity")
        return bad


@lru_cache(maxsize=None)
def _eulerian(n):
    s = total_shuffle_operator(n)
    eigenvalues = [Fraction(2 ** i - 2) for i in range(1, n + 1)]
    ident = SymGroupElement.identity(n)

    annihilator = ident
    for lam in eigenvalues:
        annihilator = annihilator.mul(s.sub(ident.scale(lam)))
    if not annihilator.is_zero():
        raise NotAnnihilated(
            f"total shuffle operator on {n} letters is not annihilated by"
            " its eigenvalue ladder")

    projectors = []
    for i, lam_i in enumerate(eigenvalues):
        e = ident
        for j, lam_j in enumerate(eigenvalues):
            if j != i:
                e = e.mul(s.sub(ident.scale(lam_j))).scale(
                    Fraction(1, lam_i - lam_j))
        projectors.append(e)
    return HodgeProjectorSet(n, tuple(projectors))


def eulerian_idempotents(n):
    """Spectral projectors of s_n at the eigenvalues 2^i - 2, i = 1..n."""
    if n < 1:
        raise BadParams("degree must be at least 1")
    if n > PROJECTOR_CAP:
        raise BadParams(f"degree {n} above the projector cap {PROJECTOR_CAP}")
    return _eulerian(n)


def _clearing_scale(n_max):
    """The least D making every D*e^(i) on at most n_max letters integral;
    n_max! for n_max <= PROJECTOR_CAP."""
    return lcm(*(c.denominator for m in range(1, n_max + 1)
                 for e in eulerian_idempotents(m) for c in e.terms.values()))


def _projector_cols(cx, m, i, scale):
    """Sparse integer columns of scale * e^(i) acting on degree m; zero when
    the weight exceeds the degree."""
    if i > m:
        return [dict() for _ in range(cx.dims[m])]
    return _sym_action_cols(cx, m, eulerian_idempotents(m)[i].scale(scale))


def hodge_decomposition(cx):
    """Dimensions of the weight pieces of the (co)homology in every degree
    n = 1..n_max-1: entry n-1 lists the weights i = 1..n.

    The complex must carry ring Q.  It is acted on by D*e^(i), with D the
    least integer clearing the denominators of the projectors, so every
    entry is an integer.  Exact projector/boundary commutation is verified
    before any rank is trusted, every trace must be divisible by D, and
    the weights of each degree must add up to its total rational dimension.
    """
    if cx.ring != "Q":
        raise BadParams("weight decomposition needs a ring-Q complex")
    if cx.n_max > PROJECTOR_CAP:
        raise BadParams(f"degree {cx.n_max} above the projector cap"
                        f" {PROJECTOR_CAP}")
    top = cx.n_max - 1
    scale = _clearing_scale(cx.n_max)
    dims = [[] for _ in range(top)]
    for i in range(1, top + 1):
        # Weight i lives in degrees i..n_max; only the projectors on n-1, n
        # and n+1 are held, and each map's restricted rank is taken once.
        proj = {i - 1: _projector_cols(cx, i - 1, i, scale),
                i: _projector_cols(cx, i, i, scale)}
        ranks = {}

        def rank_from(src):
            if src not in ranks:
                ranks[src] = _restricted_rank(
                    cx.d_out(src), proj[src], proj[src + cx.step], src, i)
            return ranks[src]

        for n in range(i, top + 1):
            proj.pop(n - 2, None)
            proj[n + 1] = _projector_cols(cx, n + 1, i, scale)
            trace = sum(col.get(j, 0) for j, col in enumerate(proj[n]))
            if trace % scale:
                raise WeightNotPreserved(
                    f"weight-{i} projector trace in degree {n} is not an"
                    " integer")
            dims[n - 1].append(
                trace // scale - rank_from(n) - rank_from(n - cx.step))

    for n, weights in enumerate(dims, start=1):
        if sum(weights) != hochschild_dim_q(cx, n):
            raise WeightNotPreserved(
                f"weight dimensions {weights} do not add up to the total in"
                f" degree {n}")
    return dims


def _restricted_rank(d_cols, p_src, p_dst, src_deg, i):
    """Rank of the map d_cols restricted to the weight-i piece of its source,
    after an exact check that it carries p_src to p_dst."""
    moved = _compose_cols(p_src, d_cols)          # d o P_i on the source
    if moved != _compose_cols(d_cols, p_dst):     # P_i o d
        raise WeightNotPreserved(
            f"boundary from degree {src_deg} does not commute with the"
            f" weight-{i} projector")
    return rank_of_col_dicts(moved)
