"""Exact integer linear algebra.

Everything is arbitrary-precision Python int; no floats anywhere.  The
lattice routines (solve_int, kernel_basis, lattice_basis,
preimage_lattice, subquotient_group, cokernel_group, rank_and_torsion)
take and return sparse matrices: a list of {row: value} columns and a row
count.  They copy their input and drop explicit zero entries on the way
in, so callers may pass any columns they hold.  They, int_rank and
PivotReduction, which keeps the pivots of a span to reduce other vectors
modulo it, share one sparse elimination of unit pivots, _eliminate_units.
A dense IntMatrix, row-major lists of lists, holds module data and the
unit-free residual of an elimination, which goes to the whole-matrix
Smith form, _smith_core, through smith_normal_form (with transforms) or
snf_diagonal (without).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import compress
from math import gcd

from .errors import BadParams, CompositionNonzero, DegreeMismatch, NotAComplex


class IntMatrix:
    """Dense matrix over the integers.

    data is a list of equal-length lists of int, kept as given: outside
    input is checked where it enters (codecs), and no matrix is changed
    after construction, so no copy is needed."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data, cols=None):
        self.data = data
        self.rows = len(self.data)
        if self.rows:
            width = len(self.data[0])
            if cols is not None and cols != width:
                raise DegreeMismatch(f"row width {width} != cols {cols}")
            for row in self.data:
                if len(row) != width:
                    raise DegreeMismatch("ragged rows")
            self.cols = width
        else:
            self.cols = 0 if cols is None else cols

    @classmethod
    def zeros(cls, rows, cols):
        return cls([[0] * cols for _ in range(rows)], cols)

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], n)

    @classmethod
    def from_cols(cls, columns, rows):
        data = [[col[i] for col in columns] for i in range(rows)]
        return cls(data, len(columns))

    @classmethod
    def from_col_dicts(cls, col_dicts, rows):
        data = [[0] * len(col_dicts) for _ in range(rows)]
        for j, col in enumerate(col_dicts):
            for i, v in col.items():
                data[i][j] = v
        return cls(data, len(col_dicts))

    def column(self, j):
        return [row[j] for row in self.data]

    def col_dicts(self):
        """Per-column {row: value} maps of the nonzero entries."""
        out = [{} for _ in range(self.cols)]
        keys = range(self.cols)
        for i, row in enumerate(self.data):
            for j in compress(keys, row):
                out[j][i] = row[j]
        return out

    def transpose(self):
        return IntMatrix([[self.data[i][j] for i in range(self.rows)]
                          for j in range(self.cols)], self.rows)

    def mul(self, other):
        if self.cols != other.rows:
            raise DegreeMismatch(f"{self.shape()} @ {other.shape()}")
        other_nz = [[(k, b) for k, b in enumerate(row) if b] for row in other.data]
        out = [[0] * other.cols for _ in range(self.rows)]
        for i, arow in enumerate(self.data):
            orow = out[i]
            for j, a in enumerate(arow):
                if a:
                    for k, b in other_nz[j]:
                        orow[k] += a * b
        return IntMatrix(out, other.cols)

    def sub(self, other):
        if self.shape() != other.shape():
            raise DegreeMismatch(f"{self.shape()} - {other.shape()}")
        return IntMatrix([[a - b for a, b in zip(r1, r2)]
                          for r1, r2 in zip(self.data, other.data)], self.cols)

    def is_zero(self):
        return all(not v for row in self.data for v in row)

    def shape(self):
        return (self.rows, self.cols)

    def __eq__(self, other):
        return (isinstance(other, IntMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(tuple(r) for r in self.data)))

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols})"


@dataclass(frozen=True)
class FgAbGroup:
    """Finitely generated abelian group in normal form.

    ``torsion`` is the chain of invariant factors, each >= 2 and each
    dividing the next, so equal groups compare equal as values.
    """

    free_rank: int
    torsion: tuple = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise BadParams("negative free rank")
        object.__setattr__(self, "torsion", tuple(int(d) for d in self.torsion))
        prev = 1
        for d in self.torsion:
            if d < 2 or d % prev:
                raise BadParams(f"bad invariant-factor chain {self.torsion}")
            prev = d

    @classmethod
    def trivial(cls):
        return cls(0, ())

    @classmethod
    def free(cls, rank):
        return cls(rank, ())

    @classmethod
    def from_diagonal(cls, diag, ambient_rank):
        """Cokernel Z^ambient / <diag entries>, zeros meaning no constraint."""
        nonzero = [abs(d) for d in diag if d]
        return cls(ambient_rank - len(nonzero),
                   tuple(d for d in nonzero if d >= 2))

    def direct_sum(self, other):
        torsion = self.torsion + other.torsion
        return cokernel_group([{i: d} for i, d in enumerate(torsion)],
                              len(torsion) + self.free_rank + other.free_rank)

    def to_json(self):
        return {"free_rank": self.free_rank, "torsion": list(self.torsion)}

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


def _xgcd(a, b):
    """g, x, y with g = x*a + y*b and g = gcd(a, b) > 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def _smith_core(D, m, n):
    """Reduce the leading m x n block of D in place to Smith form.  Row
    operations run along whole rows and column operations down every row,
    so transforms kept in D take them too: U in the columns past n of the
    first m rows, V in the rows after them."""

    def row_addmul(i, k, q):
        Di, Dk = D[i], D[k]
        for j, v in enumerate(Dk):
            if v:
                Di[j] += q * v

    def row_swap(i, k):
        D[i], D[k] = D[k], D[i]

    def row_pair(k, i, a, b, c, d):
        # (row_k, row_i) <- (a*row_k + b*row_i, c*row_k + d*row_i)
        Dk, Di = D[k], D[i]
        for j in range(len(Dk)):
            vk, vi = Dk[j], Di[j]
            Dk[j] = a * vk + b * vi
            Di[j] = c * vk + d * vi

    def col_addmul(j, k, q):
        for row in D:
            if row[k]:
                row[j] += q * row[k]

    def col_swap(j, k):
        for row in D:
            row[j], row[k] = row[k], row[j]

    def col_pair(k, j, a, b, c, d):
        # (col_k, col_j) <- (a*col_k + b*col_j, c*col_k + d*col_j)
        for row in D:
            vk, vj = row[k], row[j]
            row[k] = a * vk + b * vj
            row[j] = c * vk + d * vj

    def clear_pivot(k):
        while True:
            for i in range(k + 1, m):
                b = D[i][k]
                if not b:
                    continue
                a = D[k][k]
                q, r = divmod(b, a)
                if r == 0:
                    row_addmul(i, k, -q)
                else:
                    g, x, y = _xgcd(a, b)
                    row_pair(k, i, x, y, -(b // g), a // g)
            for j in range(k + 1, n):
                b = D[k][j]
                if not b:
                    continue
                a = D[k][k]
                q, r = divmod(b, a)
                if r == 0:
                    col_addmul(j, k, -q)
                else:
                    g, x, y = _xgcd(a, b)
                    col_pair(k, j, x, y, -(b // g), a // g)
            if (all(D[i][k] == 0 for i in range(k + 1, m))
                    and all(D[k][j] == 0 for j in range(k + 1, n))):
                return

    rank = 0
    for k in range(min(m, n)):
        # smallest-magnitude pivot in the remaining block
        pi = pj = -1
        best = 0
        for i in range(k, m):
            Di = D[i]
            for j in range(k, n):
                v = Di[j]
                if v and (best == 0 or abs(v) < best):
                    best = abs(v)
                    pi, pj = i, j
                    if best == 1:
                        break
            if best == 1:
                break
        if pi < 0:
            break
        if pi != k:
            row_swap(pi, k)
        if pj != k:
            col_swap(pj, k)
        clear_pivot(k)
        rank += 1

    # divisibility chain d_k | d_{k+1}
    changed = True
    while changed:
        changed = False
        for k in range(rank - 1):
            a, b = D[k][k], D[k + 1][k + 1]
            if b % a:
                col_addmul(k, k + 1, 1)
                clear_pivot(k)
                changed = True

    for k in range(rank):
        if D[k][k] < 0:
            row_addmul(k, k, -2)


def _with_identity(rows, m):
    """Copies of the m rows with the m x m identity appended to them."""
    return [row + [1 if i == j else 0 for j in range(m)]
            for i, row in enumerate(rows)]


def smith_normal_form(A):
    """U, D, V with U*A*V = D in Smith normal form, U and V unimodular."""
    m, n = A.rows, A.cols
    D = _with_identity(A.data, m) + _with_identity([[]] * n, n)
    _smith_core(D, m, n)
    return (IntMatrix([row[n:] for row in D[:m]], m),
            IntMatrix([row[:n] for row in D[:m]], n), IntMatrix(D[m:], n))


def snf_diagonal(A):
    """Just the diagonal of the Smith form (cheaper: no transforms kept)."""
    m, n = A.rows, A.cols
    D = [row[:] for row in A.data]
    _smith_core(D, m, n)
    return [D[i][i] for i in range(min(m, n))]


def cokernel_group(A, rows):
    """Z^rows / the span of the sparse columns A, from the unit-pivot
    elimination of rank_and_torsion."""
    rank, torsion = rank_and_torsion(A, rows)
    return FgAbGroup(rows - rank, torsion)


def dense_kernel_basis(A):
    """kernel_basis of a dense matrix from the Smith form of the whole of
    it: the columns of V past the nonzero diagonal.  It solves the residual
    of kernel_basis and is the oracle it is checked against."""
    m, n = A.rows, A.cols
    U, D, V = smith_normal_form(A)
    free = [j for j in range(n) if j >= min(m, n) or D.data[j][j] == 0]
    return IntMatrix.from_cols([V.column(j) for j in free], n)


def dense_solve_int(B, C):
    """solve_int of dense matrices from the Smith form of the whole of B.
    It solves the residual of solve_int and is the oracle it is checked
    against."""
    p, q = B.rows, B.cols
    if C.rows != p:
        raise DegreeMismatch(f"solve {B.shape()} against {C.shape()}")
    U, D, V = smith_normal_form(B)
    W = U.mul(C)
    Y = [[0] * C.cols for _ in range(q)]
    for i in range(p):
        d = D.data[i][i] if i < min(p, q) else 0
        if d:
            for j in range(C.cols):
                v, r = divmod(W.data[i][j], d)
                if r:
                    return None
                Y[i][j] = v
        else:
            if any(W.data[i][j] for j in range(C.cols)):
                return None
    return V.mul(IntMatrix(Y, C.cols))


def _transpose_cols(cols, rows):
    """Sparse columns of the transpose of a rows x len(cols) matrix given as
    sparse columns, without its explicit zero entries."""
    out = [dict() for _ in range(rows)]
    for j, col in enumerate(cols):
        for i, v in col.items():
            if v:
                out[i][j] = v
    return out


def _nonzero_copies(cols):
    return [{r: v for r, v in col.items() if v} for col in cols]


def _residual(vecs):
    """Dense copy of the live sparse vectors on their live keys, one row
    per vector, and the keys."""
    keys = sorted(set().union(*vecs))
    return IntMatrix([[vec.get(k, 0) for k in keys] for vec in vecs],
                     len(keys)), keys


def _back_substitute(pivots, X, rhs):
    """Fill X[key] for every pivot, last pivot first.  A pivot row says
    p*x_key + (its other entries . x) = its right-hand side, with p = +-1,
    so x_key is p times the difference; every other key in the row was
    pivoted later or is no pivot, so its value is known by then.  X maps
    each variable to {column: value}; rhs is None for a kernel."""
    for i, key, row in reversed(pivots):
        val = dict(rhs[i]) if rhs is not None else {}
        for k, v in row.items():
            if k == key:
                continue
            for c, x in X[k].items():
                nv = val.get(c, 0) - v * x
                if nv:
                    val[c] = nv
                else:
                    del val[c]
        X[key] = val if row[key] == 1 else {c: -w for c, w in val.items()}


def kernel_basis(A, rows):
    """Sparse columns forming a basis of the integer kernel lattice of the
    rows x len(A) matrix with sparse columns A.

    The rows of A go through the unit-pivot elimination of
    _eliminate_units; each pivot expresses its variable through the
    others.  The residual rows, on the variables no pivot took, get the
    dense kernel of dense_kernel_basis, every variable in no residual row
    and no pivot gets a unit vector, and back-substitution fills in the
    pivot variables.  That map is one-to-one and integral both ways, so
    the lattice is saturated: any integer vector in ker(A) over Q is an
    integer combination of these columns.
    """
    n = len(A)
    eqs = _transpose_cols(A, rows)
    pivots = list(_eliminate_units(eqs, n, equations=True))
    live = [row for row in eqs if row]
    X = [{} for _ in range(n)]
    taken = {key for _, key, _ in pivots}
    width = 0
    if live:
        residual, keys = _residual(live)
        K = dense_kernel_basis(residual)
        for k, vals in zip(keys, K.data):
            X[k] = {c: v for c, v in enumerate(vals) if v}
        taken.update(keys)
        width = K.cols
    for k in range(n):
        if k not in taken:
            X[k] = {width: 1}
            width += 1
    _back_substitute(pivots, X, None)
    return _transpose_cols(X, width)


def solve_int(B, rows, C):
    """Sparse columns X with B*X = C over the integers, for B and C sparse
    columns on the same rows, or None when no solution exists.

    The rows of B go through the unit-pivot elimination of
    _eliminate_units, the rows of C carried along.  A row of B that
    reaches zero with a nonzero right-hand side has no solution; the
    residual rows are solved by dense_solve_int on the columns of C they
    hold, every other unknown of theirs is 0, the variables in none of
    them are 0 too, and back-substitution gives the pivot variables.
    """
    eqs, rhs = _transpose_cols(B, rows), _transpose_cols(C, rows)
    pivots = list(_eliminate_units(eqs, len(B), rhs, equations=True))
    live = []
    for i, row in enumerate(eqs):
        if row:
            live.append(i)
        elif row is not None and rhs[i]:
            return None
    X = [{} for _ in range(len(B))]
    if live:
        residual, keys = _residual([eqs[i] for i in live])
        values, used = _residual([rhs[i] for i in live])
        Y = dense_solve_int(residual, values)
        if Y is None:
            return None
        for k, vals in zip(keys, Y.data):
            X[k] = {used[c]: v for c, v in enumerate(vals) if v}
    _back_substitute(pivots, X, rhs)
    return _transpose_cols(X, len(C))


def lattice_basis(M, rows):
    """Sparse columns forming a basis of the lattice spanned by the sparse
    columns M on the given rows.

    Column operations keep the lattice.  _eliminate_units on the columns
    clears each unit pivot's row from every other column, so the pivot
    columns are independent of each other and of the rest, and stay in
    the basis.  The residual columns, on the rows no pivot took, add the
    nonzero rows of U*R for the smith_normal_form U*R*V = D of R, the
    dense matrix whose rows are those columns: they are D*V^-1's nonzero
    rows.
    """
    cols = _nonzero_copies(M)
    basis = [vec for _, _, vec in _eliminate_units(cols, rows)]
    live = [col for col in cols if col]
    if live:
        R, keys = _residual(live)
        U = smith_normal_form(R)[0]
        for row in U.mul(R).data:
            if any(row):
                basis.append({keys[a]: v for a, v in enumerate(row) if v})
    return basis


def preimage_lattice(A, L, rows):
    """Sparse columns forming a basis of the lattice {x : A*x lies in the
    span of L}, for sparse columns A and L on the given rows: the first
    len(A) entries of the kernel of [A | -L]."""
    if not L:
        return kernel_basis(A, rows)
    n = len(A)
    K = kernel_basis(A + [{r: -v for r, v in col.items()} for col in L],
                     rows)
    return lattice_basis([{k: v for k, v in col.items() if k < n}
                          for col in K], n)


def subquotient_group(A, L, low_rows, B, rows):
    """{x in Z^rows : A*x lies in the span of L} / the span of B, for the
    sparse columns A (one per row of x) and L on low_rows rows and B on
    rows rows: the cycles of preimage_lattice, B solved into their basis,
    and the cokernel of the solution.  With L empty the cycles are ker(A),
    and with low_rows = 0 too they are all of Z^rows.  Raises NotAComplex
    when B leaves the cycles."""
    K = preimage_lattice(A, L, low_rows)
    X = solve_int(K, rows, B)
    if X is None:
        raise NotAComplex("borders escape the cycle lattice")
    return cokernel_group(X, len(K))


def homology_at(d_out, d_in):
    """ker(d_out) / im(d_in) for consecutive integer boundary maps.

    This is the oracle, with no elimination in front: a saturated kernel
    basis and a solve for the image in it, both from the Smith form with
    transforms of the whole matrix (dense_kernel_basis, dense_solve_int),
    and the Smith diagonal of the quotient.  Complexes compute their
    homology from rank_and_torsion on the maps of their cones instead, the
    lattice routines eliminate unit pivots first, and the sparse-homology
    suite checks both against this."""
    if d_out.cols != d_in.rows:
        raise DegreeMismatch(f"{d_out.shape()} then {d_in.shape()}")
    if not d_out.mul(d_in).is_zero():
        raise CompositionNonzero("boundary composition is nonzero")
    K = dense_kernel_basis(d_out)
    X = dense_solve_int(K, d_in)
    if X is None:
        raise NotAComplex("image escaped a saturated kernel lattice")
    return FgAbGroup.from_diagonal(snf_diagonal(X), X.rows)


def _eliminate_units(vecs, size, carry=None, equations=False):
    """Greedy elimination of +-1 pivots on sparse integer vectors, in place.

    This is the one sparse elimination of the module: rank_and_torsion,
    int_rank, PivotReduction and the lattice routines all run on it.  vecs
    holds {key: value} maps with keys in range(size).  The shortest vector
    comes first (a heap of lengths; stale entries are skipped), at its unit
    entry whose key the fewest vectors hold (count, key -> number of live
    vectors with an entry there), to limit fill-in (Dumas-Saunders-
    Villard, JSC 2001).  A multiple of it is subtracted from every other
    vector holding that key, which leaves the key in the pivot alone; the
    pivot's slot in vecs becomes None.  The vectors holding a key are
    found through where, one append-only list per key: a vector that
    lost the key (or holds it again after losing it) leaves a stale or
    duplicate entry there, which the walk skips by looking in the vector
    itself, and a pivot's key list is dropped, since no vector gains that
    key again.  When no unit entry is left, the nonempty vectors are the
    residual.  carry, when given, holds one {key: value} map per vector
    that takes the same vector operations.  With equations set, each
    vector is an equation (vector . x = its carry) whose integer
    solutions are what counts, so one without a unit entry is divided by
    the gcd of its entries when that gcd divides its carry too, which
    may give it one.  Yields the pivots as (index, key, vector) in
    elimination order, so a caller that needs only their number keeps
    none of them.
    """
    where = [[] for _ in range(size)]  # key -> vectors that held it
    count = [0] * size  # key -> live vectors that hold it
    for j, vec in enumerate(vecs):
        for r in vec:
            where[r].append(j)
            count[r] += 1
    heap = [(len(vec), j) for j, vec in enumerate(vecs) if vec]
    heapq.heapify(heap)
    while heap:
        length, j = heapq.heappop(heap)
        vec = vecs[j]
        if not vec or length != len(vec):  # stale entry: pivoted or changed
            continue
        units = [r for r, v in vec.items() if v == 1 or v == -1]
        if not units and equations:
            units = _divide_out_content(vec, carry and carry[j])
        if not units:
            continue
        r = min(units, key=count.__getitem__)
        p = vec[r]
        vecs[j] = None
        for k in where[r]:
            other = vecs[k]
            if other is None or r not in other:  # stale or duplicate
                continue
            f = other[r] * p
            for s, v in vec.items():
                nv = other.get(s, 0) - f * v
                if nv:
                    if s not in other:
                        where[s].append(k)
                        count[s] += 1
                    other[s] = nv
                else:
                    del other[s]
                    count[s] -= 1
            if carry is not None:
                target = carry[k]
                for s, v in carry[j].items():
                    nv = target.get(s, 0) - f * v
                    if nv:
                        target[s] = nv
                    else:
                        del target[s]
            heapq.heappush(heap, (len(other), k))
        where[r] = []
        for s in vec:
            count[s] -= 1
        yield j, r, vec


def _divide_out_content(vec, rhs):
    """Divide vec, and rhs when given, in place by the gcd of vec's entries
    if it divides every entry of rhs; return vec's unit keys after."""
    g = 0
    for v in vec.values():
        g = gcd(g, v)
    if g == 1 or (rhs and any(v % g for v in rhs.values())):
        return []
    for m in (vec, rhs) if rhs else (vec,):
        for k in m:
            m[k] //= g
    return [r for r, v in vec.items() if v == 1 or v == -1]


def _residual_diagonal(vecs):
    """Absolute values of the nonzero Smith diagonal entries of the live
    vectors an elimination left, none when it left none."""
    live = [vec for vec in vecs if vec]
    if not live:
        return []
    return [abs(d) for d in snf_diagonal(_residual(live)[0]) if d]


def rank_and_torsion(cols, rows):
    """Rank and invariant factors >= 2 of a rows x len(cols) integer matrix
    given as sparse {row: value} columns.

    _eliminate_units clears each +-1 pivot from its row by column
    operations; row operations that touch nothing else then clear its
    column, and neither changes the Smith form: the pivot adds a unit
    factor, one to the rank, and is dropped with its row and column.  The
    residual on its live rows and columns goes to snf_diagonal (as its
    transpose, which has the same Smith diagonal).
    """
    cols = _nonzero_copies(cols)
    rank = sum(1 for _ in _eliminate_units(cols, rows))
    diag = _residual_diagonal(cols)
    return rank + len(diag), tuple(d for d in diag if d >= 2)


def int_rank(vecs):
    """Rank over Q of the integer matrix whose rows, or columns (the rank
    is the same), are the sparse {key: value} vectors vecs.

    The pivots of _eliminate_units with content division (equations set:
    dividing a vector by the gcd of its entries keeps the rank over Q)
    plus the nonzero Smith diagonal entries of the residual."""
    vecs = _nonzero_copies(vecs)
    size = 1 + max((k for vec in vecs for k in vec), default=-1)
    rank = sum(1 for _ in _eliminate_units(vecs, size, equations=True))
    return rank + len(_residual_diagonal(vecs))


class PivotReduction:
    """The span over Q of sparse integer vectors, as unit pivots and a
    residual, and the reduction of other vectors modulo the pivots.

    The vectors, with keys in range(size), go through _eliminate_units
    with content division, as in int_rank.  pivots maps each pivot key to
    its place in elimination order and its vector, which holds that key
    with entry +-1 and no key of an earlier pivot: the earlier pivot
    cleared its key from every vector still live.  residual lists the
    nonzero vectors left, which hold no pivot key.  Pivots and residual
    span what the vectors span over Q, and rank is the rank of the
    residual.  reduce is linear and its value holds no pivot key, so it
    lies in the span of the residual exactly when its argument lies in the
    span of the vectors: the pivot vectors, triangular on their keys, are
    independent of each other and of the residual.
    """

    def __init__(self, vecs, size):
        vecs = _nonzero_copies(vecs)
        self.pivots = {key: (i, vec) for i, (_, key, vec) in enumerate(
            _eliminate_units(vecs, size, equations=True))}
        self.residual = [vec for vec in vecs if vec]
        self.rank = int_rank(self.residual) if self.residual else 0

    def reduce(self, vec):
        """A copy of vec minus the combination of pivot vectors that clears
        every pivot key.  The keys are cleared in elimination order, from a
        heap of the pivot keys vec holds: a pivot vector brings in only
        later pivots' keys, so a cleared key never comes back."""
        pivots = self.pivots
        out = {k: v for k, v in vec.items() if v}
        heap = [(pivots[k][0], k) for k in out if k in pivots]
        heapq.heapify(heap)
        while heap:
            key = heapq.heappop(heap)[1]
            f = out.get(key)
            if not f:  # cancelled since it was pushed, or pushed twice
                continue
            pvec = pivots[key][1]
            f *= pvec[key]  # the pivot entry is +-1, its own inverse
            for s, v in pvec.items():
                nv = out.get(s, 0) - f * v
                if nv:
                    if s not in out and s in pivots:
                        heapq.heappush(heap, (pivots[s][0], s))
                    out[s] = nv
                else:
                    del out[s]
        return out

    def rank_modulo(self, reduced):
        """Rank over Q of the span of a list of reduced vectors (values of
        reduce) modulo the span of the vectors: the rank they add to the
        residual's."""
        if not any(reduced):
            return 0
        return int_rank(reduced + self.residual) - self.rank
