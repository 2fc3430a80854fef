"""Eulerian idempotents and weight decompositions over the rationals.

The Eulerian idempotents e^(i) are the spectral projectors of the sum s_n
of all two-block shuffles, at its eigenvalues 2^i - 2, i = 1..n.  Their
integral multiples n!*e^(i) have a closed form in descents (Loday, Cyclic
Homology 4.5).  They act on a tuple complex by integer matrices, split
each degree into weight pieces preserved by the boundary, and give the
per-weight homology dimensions from traces and ranks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import factorial

from .errors import BadParams, NotAnnihilated, WeightNotPreserved
from .exact_linalg import int_rank
from .gamma_chain import (
    SymGroupElement,
    _SymAction,
    _compose_cols,
    _distinct_up_to_sign,
    hochschild_dim_q,
    perm_sign,
    shuffle_element,
)

PROJECTOR_CAP = 5


def total_shuffle_operator(n):
    """s_n = sum of sh_{p, n-p} for 0 < p < n; zero when n = 1."""
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


def _projector_cols(action, i, scale):
    """Sparse integer columns of scale * e^(i) acting on the degree m of the
    action, for scale a multiple of m! and weight i <= m."""
    m = action.n
    return action.cols(
        eulerian_idempotents(m)[i].scale(scale // factorial(m)))


def hodge_decomposition(cx):
    """Dimensions of the weight pieces of the (co)homology in every degree
    n = 1..n_max-1: entry n-1 lists the weights i = 1..n.

    The complex must carry ring Q.  It is acted on by D*e^(i) with
    D = n_max!, so every entry is an integer.  Exact projector/boundary commutation is verified
    before any rank is trusted, every trace must be divisible by D, and
    the weights of each degree must add up to its total rational dimension.
    Each degree's projectors act through one orbit table, built when the
    first of them is needed and released when the call returns.
    """
    if cx.ring != "Q":
        raise BadParams("weight decomposition needs a ring-Q complex")
    if cx.n_max > PROJECTOR_CAP:
        raise BadParams(f"degree {cx.n_max} above the projector cap"
                        f" {PROJECTOR_CAP}")
    top = cx.n_max - 1
    scale = factorial(cx.n_max)
    dims = [[] for _ in range(top)]
    actions = {}

    def projector(m, i):
        # zero when the weight exceeds the degree
        if i > m:
            return [dict() for _ in range(cx.dims[m])]
        if m not in actions:
            actions[m] = _SymAction(cx, m)
        return _projector_cols(actions[m], i, scale)

    for i in range(1, top + 1):
        # Weight i lives in degrees i..n_max; only the projectors on n-1, n
        # and n+1 are held, and each map's restricted rank is taken once.
        proj = {i - 1: projector(i - 1, i), i: projector(i, i)}
        ranks = {}

        def rank_from(src):
            if src not in ranks:
                ranks[src] = _restricted_rank(
                    cx.d_out(src), proj[src], proj[src + cx.step], src, i)
            return ranks[src]

        for n in range(i, top + 1):
            proj.pop(n - 2, None)
            proj[n + 1] = projector(n + 1, i)
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
    after an exact check that it carries p_src to p_dst; the rank is taken
    on its columns each once up to sign, which span the same space."""
    moved = _compose_cols(p_src, d_cols)          # d o P_i on the source
    if moved != _compose_cols(d_cols, p_dst):     # P_i o d
        raise WeightNotPreserved(
            f"boundary from degree {src_deg} does not commute with the"
            f" weight-{i} projector")
    return int_rank(_distinct_up_to_sign(moved))
