"""Eulerian idempotents and weight decompositions over the rationals.

The sum s_n of all two-block shuffle operators acts semisimply on Q[S_n]
with eigenvalues 2^i - 2 for i = 1..n.  Lagrange interpolation at these
eigenvalues yields a complete orthogonal family of idempotents; applying
them to a rational tuple complex splits each degree into weight pieces
preserved by the boundary, and the per-weight homology dimensions follow
from traces and ranks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import BadParams, NotAnnihilated, WeightNotPreserved
from .exact_linalg import rank_of_col_dicts
from .gamma_chain import (
    SymGroupElement,
    _compose_cols,
    _sym_action_cols,
    hochschild_dim_q,
    scale_cols_to_int,
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


def eulerian_idempotents(n, cap=PROJECTOR_CAP):
    """Spectral projectors of s_n at the eigenvalues 2^i - 2, i = 1..n."""
    if n < 1:
        raise BadParams("degree must be at least 1")
    if n > cap:
        raise BadParams(f"degree {n} above the projector cap {cap}")
    return _eulerian(n)


def _projector_cols(cx, m, i, cap):
    """Sparse rational columns of e^(i) acting on degree m; zero when the
    weight exceeds the degree."""
    if i > m:
        return [dict() for _ in range(cx.dims[m])]
    return _sym_action_cols(cx, m, eulerian_idempotents(m, cap)[i])


def _as_fraction_cols(cols):
    return [{r: Fraction(v) for r, v in col.items()} for col in cols]


def hodge_decomposition(cx, n, cap=PROJECTOR_CAP):
    """Dimensions of the weight pieces of degree-n (co)homology, i = 1..n.

    The complex must carry ring Q.  Exact projector/boundary commutation
    is verified before any rank is trusted; the weight dimensions must add
    up to the total rational dimension.
    """
    if cx.ring != "Q":
        raise BadParams("weight decomposition needs a ring-Q complex")
    if not 1 <= n < cx.n_max:
        raise BadParams(f"need 1 <= n < n_max = {cx.n_max}")

    d_out = _as_fraction_cols(cx.d_out(n))
    d_in = _as_fraction_cols(cx.d_in(n))
    dims = []
    for i in range(1, n + 1):
        p_here = _projector_cols(cx, n, i, cap)

        trace = sum(col.get(j, Fraction(0)) for j, col in enumerate(p_here))
        if trace.denominator != 1:
            raise WeightNotPreserved(
                f"weight-{i} projector trace is not an integer")

        rank_out = _restricted_rank(
            d_out, p_here, _projector_cols(cx, n + cx.step, i, cap), n, i)
        rank_in = _restricted_rank(
            d_in, _projector_cols(cx, n - cx.step, i, cap), p_here,
            n - cx.step, i)
        dims.append(int(trace) - rank_out - rank_in)

    if sum(dims) != hochschild_dim_q(cx, n):
        raise WeightNotPreserved(
            f"weight dimensions {dims} do not add up to the total in degree"
            f" {n}")
    return dims


def _restricted_rank(d_cols, p_src, p_dst, src_deg, i):
    """Rank of the map d_cols restricted to the weight-i piece of its source,
    after an exact check that it carries p_src to p_dst."""
    moved = _compose_cols(p_src, d_cols)          # d o P_i on the source
    if moved != _compose_cols(d_cols, p_dst):     # P_i o d
        raise WeightNotPreserved(
            f"boundary from degree {src_deg} does not commute with the"
            f" weight-{i} projector")
    return rank_of_col_dicts(scale_cols_to_int(moved))
