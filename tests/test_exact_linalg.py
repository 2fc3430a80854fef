import random

import pytest

from monhom import exact_linalg
from monhom.errors import BadParams, CompositionNonzero, NotAComplex
from monhom.exact_linalg import (
    FgAbGroup,
    IntMatrix,
    PivotReduction,
    _transpose_cols,
    cokernel_group,
    dense_kernel_basis,
    dense_solve_int,
    homology_at,
    int_rank,
    kernel_basis,
    lattice_basis,
    preimage_lattice,
    rank_and_torsion,
    smith_normal_form,
    snf_diagonal,
    solve_int,
    spanning_kernel,
    subquotient_group,
)


def dense(cols, rows):
    return IntMatrix.from_col_dicts(cols, rows)


def units(n):
    return [{i: 1} for i in range(n)]


def random_matrix(rng, rows, cols, span=9):
    return IntMatrix([[rng.randint(-span, span) for _ in range(cols)]
                      for _ in range(rows)], cols)


def is_snf_diagonal(D):
    diag = [D.data[i][i] for i in range(min(D.rows, D.cols))]
    for i, row in enumerate(D.data):
        for j, v in enumerate(row):
            if i != j and v:
                return False
    prev = 1
    seen_zero = False
    for d in diag:
        if d == 0:
            seen_zero = True
            continue
        if seen_zero or d < 0 or d % prev:
            return False
        prev = d
    return True


def test_snf_diag_2_3():
    U, D, V = smith_normal_form(IntMatrix([[2, 0], [0, 3]]))
    assert [D.data[0][0], D.data[1][1]] == [1, 6]
    assert U.mul(IntMatrix([[2, 0], [0, 3]])).mul(V) == D


def test_snf_small_known():
    # gcd of the entries is 2, |det| = 8, so the factors are 2 and 4
    assert snf_diagonal(IntMatrix([[2, 4], [6, 8]])) == [2, 4]


def test_snf_zero_and_empty():
    assert snf_diagonal(IntMatrix.zeros(2, 3)) == [0, 0]
    assert snf_diagonal(IntMatrix.zeros(0, 4)) == []
    U, D, V = smith_normal_form(IntMatrix.zeros(0, 4))
    assert (U.shape(), D.shape(), V.shape()) == ((0, 0), (0, 4), (4, 4))


def test_snf_random_properties():
    rng = random.Random(7)
    for _ in range(60):
        m, n = rng.randint(1, 6), rng.randint(1, 7)
        A = random_matrix(rng, m, n)
        U, D, V = smith_normal_form(A)
        assert U.mul(A).mul(V) == D
        for T in (U, V):  # unimodular: an integer inverse exists
            inverse = solve_int(T.col_dicts(), T.rows, units(T.rows))
            assert inverse is not None
            assert T.mul(dense(inverse, T.cols)) == IntMatrix.identity(T.rows)
        assert is_snf_diagonal(D)


def test_cokernel_examples():
    assert cokernel_group([{0: 2}], 1) == FgAbGroup(0, (2,))
    assert cokernel_group([], 3) == FgAbGroup(3)
    assert cokernel_group([{0: 2}, {1: 3}], 2) == FgAbGroup(0, (6,))
    assert str(cokernel_group([{0: 2}, {1: 3}], 2)) == "Z/6"


def test_kernel_basis_is_saturated():
    A = IntMatrix([[2, 4]])
    K = kernel_basis(A.col_dicts(), 1)
    assert len(K) == 1
    assert A.mul(dense(K, 2)).is_zero()
    # primitive generator: entries coprime
    assert sorted(abs(v) for v in K[0].values()) == [1, 2]


def test_kernel_random():
    rng = random.Random(11)
    for _ in range(40):
        A = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
        K = kernel_basis(A.col_dicts(), A.rows)
        assert A.mul(dense(K, A.cols)).is_zero()
        assert int_rank(A.col_dicts()) + len(K) == A.cols
        if K:
            assert int_rank(K) == len(K)


def test_homology_at_free():
    z = IntMatrix.zeros(0, 3)
    assert homology_at(z, IntMatrix.zeros(3, 0)) == FgAbGroup(3)


def test_homology_at_exact_chain():
    # Z --x2--> Z at the middle spot of 0 -> Z -> Z
    d_out = IntMatrix([[2]])
    d_in = IntMatrix.zeros(1, 0)
    assert homology_at(d_out, d_in) == FgAbGroup.trivial()


def test_homology_at_with_torsion():
    d_out = IntMatrix.zeros(0, 2)
    d_in = IntMatrix([[2], [0]])
    assert homology_at(d_out, d_in) == FgAbGroup(1, (2,))


def test_homology_at_rejects_nonzero_composition():
    with pytest.raises(CompositionNonzero):
        homology_at(IntMatrix([[1, 0]]), IntMatrix([[1], [0]]))


def test_homology_at_failed_solve_is_typed(monkeypatch):
    # a failed lattice solve is a falsified invariant, even under -O; the
    # oracle solves on the whole matrix, with no elimination in front
    monkeypatch.setattr(exact_linalg, "dense_solve_int", lambda B, C: None)
    with pytest.raises(NotAComplex):
        homology_at(IntMatrix.zeros(0, 2), IntMatrix([[2], [0]]))


def test_solve_int():
    B = [{0: 2}, {1: 3}]
    X = solve_int(B, 2, [{0: 4, 1: 3}])
    assert dense(B, 2).mul(dense(X, 2)) == IntMatrix([[4], [3]])
    assert solve_int(B, 2, [{0: 1}]) is None


def test_solve_int_random():
    rng = random.Random(3)
    for _ in range(40):
        B = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        X0 = random_matrix(rng, B.cols, 2, span=4)
        C = B.mul(X0)
        X = solve_int(B.col_dicts(), B.rows, C.col_dicts())
        assert X is not None and B.mul(dense(X, B.cols)) == C


def test_lattice_basis():
    M = [{0: 2}, {0: 4}, {}]
    B = lattice_basis(M, 2)
    assert B == [{0: 2}]
    # basis spans the same lattice: every original column solves
    assert solve_int(B, 2, M) is not None


def test_preimage_lattice():
    P = preimage_lattice([{0: 1}], [{0: 2}], 1)
    assert len(P) == 1 and abs(P[0][0]) == 2


def sparse_matrix(rng, rows, cols, values, density=0.35):
    return IntMatrix([[rng.choice(values) if rng.random() < density else 0
                       for _ in range(cols)] for _ in range(rows)], cols)


def test_int_rank_matches_snf():
    rng = random.Random(19)
    matrices = [random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
                for _ in range(40)]
    # sparse, so that most of the rank comes from unit pivots
    matrices += [sparse_matrix(rng, 20, 30, range(-3, 4)) for _ in range(40)]
    for A in matrices:
        rank = sum(1 for d in snf_diagonal(A) if d)
        assert int_rank(A.col_dicts()) == rank, A.data
        assert int_rank(A.transpose().col_dicts()) == rank, A.data
    # explicit zero entries count for nothing
    assert int_rank([{0: 1, 1: 2}, {0: 2, 1: 4}, {0: 0, 1: 0}]) == 1
    assert int_rank([{0: 0}, {}]) == 0


def test_int_rank_divides_out_content_and_reduces_the_residual(monkeypatch):
    # rank 1: no unit entry, but {0: 2, 1: 4} divided by 2 has one, which
    # clears the other vector; rank 2: content 1 and no unit entry, so all
    # of it is the residual
    cases = [([{0: 2, 1: 4}, {0: 3, 1: 6}], 1, []),
             ([{0: 2, 1: 3}, {0: 3, 1: 2}], 2, [[[2, 3], [3, 2]]])]
    for vecs, rank, _ in cases:
        assert sum(1 for d in snf_diagonal(dense(vecs, 2)) if d) == rank
    residuals = []
    real = exact_linalg.snf_diagonal

    def recorded(A):
        residuals.append(A.data)
        return real(A)

    monkeypatch.setattr(exact_linalg, "snf_diagonal", recorded)
    for vecs, rank, seen in cases:
        residuals.clear()
        assert int_rank(vecs) == rank and residuals == seen
    # the input vectors are left as they were
    assert cases[1][0] == [{0: 2, 1: 3}, {0: 3, 1: 2}]


def dense_rank_and_torsion(A):
    diag = [abs(d) for d in snf_diagonal(A) if d]
    return len(diag), tuple(d for d in diag if d >= 2)


def test_rank_and_torsion_without_unit_entries():
    assert rank_and_torsion(IntMatrix([[2, 4], [6, 8]]).col_dicts(), 2) == \
        (2, (2, 4))


def test_rank_and_torsion_of_zero_and_empty_matrices():
    assert rank_and_torsion([], 0) == (0, ())
    assert rank_and_torsion([], 3) == (0, ())
    assert rank_and_torsion([{}, {}], 0) == (0, ())
    assert rank_and_torsion([{}, {0: 0}, {}], 2) == (0, ())
    # zero columns between live ones
    assert rank_and_torsion([{}, {0: 1}, {}, {1: 2}, {0: 0}], 2) == (2, (2,))


def test_rank_and_torsion_residual_from_fill_in(monkeypatch):
    # the unit pivot leaves -2 behind, which no unit pivot can clear
    seen = []
    real = exact_linalg.snf_diagonal

    def recorded(A):
        seen.append(A.data)
        return real(A)

    monkeypatch.setattr(exact_linalg, "snf_diagonal", recorded)
    cols = IntMatrix([[1, 1], [1, -1]]).col_dicts()
    assert rank_and_torsion(cols, 2) == (2, (2,))
    assert seen == [[[-2]]]
    # the input columns are left as they were
    assert cols == [{0: 1, 1: 1}, {0: 1, 1: -1}]
    seen.clear()
    assert rank_and_torsion(IntMatrix([[1, 1], [0, 1]]).col_dicts(), 2) == \
        (2, ())
    assert seen == []


def test_rank_and_torsion_matches_the_dense_snf():
    rng = random.Random(2001)
    for trial in range(150):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        values = [-3, -2, 2, 3] if trial % 3 == 0 else \
            [-3, -2, -1, 1, 2, 3]
        A = IntMatrix([[rng.choice(values) if rng.random() < 0.35 else 0
                        for _ in range(cols)] for _ in range(rows)], cols)
        assert rank_and_torsion(A.col_dicts(), rows) == \
            dense_rank_and_torsion(A), A.data


def test_rank_and_torsion_skips_keys_lost_and_regained(monkeypatch):
    # a vector that loses a key and later holds it again leaves a stale
    # and a duplicate entry in the elimination's list for that key
    regained = []
    real = exact_linalg._eliminate_units

    def watched(vecs, size, *args, **kwargs):
        held = [set(vec) for vec in vecs]
        lost = set()
        for pivot in real(vecs, size, *args, **kwargs):
            for k, vec in enumerate(vecs):
                now = set(vec) if vec else set()
                lost |= {(k, s) for s in held[k] - now}
                regained.extend((k, s) for s in now - held[k]
                                if (k, s) in lost)
                held[k] = now
            yield pivot

    monkeypatch.setattr(exact_linalg, "_eliminate_units", watched)
    rng = random.Random(31)
    for _ in range(60):
        rows, cols = rng.randint(6, 14), rng.randint(6, 14)
        A = sparse_matrix(rng, rows, cols, range(-3, 4), density=0.5)
        assert rank_and_torsion(A.col_dicts(), rows) == \
            dense_rank_and_torsion(A), A.data
    assert regained


def same_lattice(K, D):
    return dense_solve_int(K, D) is not None and \
        dense_solve_int(D, K) is not None


def is_saturated(K):
    # Z^rows / (column span of K) is torsion-free
    return FgAbGroup.from_diagonal(snf_diagonal(K), K.rows).torsion == ()


def agree_with_the_dense_routines(A, C):
    cols = A.col_dicts()
    X, Y = solve_int(cols, A.rows, C.col_dicts()), dense_solve_int(A, C)
    assert (X is None) == (Y is None), (A.data, C.data)
    if X is not None:
        assert A.mul(dense(X, A.cols)) == C
    K, D = kernel_basis(cols, A.rows), dense_kernel_basis(A)
    K = dense(K, A.cols)
    assert K.shape() == D.shape() and A.mul(K).is_zero()
    assert same_lattice(K, D) and is_saturated(K), A.data
    L = lattice_basis(cols, A.rows)
    assert same_lattice(dense(L, A.rows), A) and int_rank(L) == len(L), \
        A.data
    return X is not None


def test_lattice_routines_match_the_dense_ones_on_random_sparse_matrices():
    rng = random.Random(2024)
    solvable = 0
    for trial in range(200):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        values = [-3, -2, 2, 3] if trial % 4 == 0 else \
            [-3, -2, -1, 1, 2, 3]
        A = sparse_matrix(rng, rows, cols, values)
        if trial % 2:
            C = A.mul(sparse_matrix(rng, cols, 2, values, 0.6))
        else:
            C = sparse_matrix(rng, rows, 2, values, 0.6)
        solvable += agree_with_the_dense_routines(A, C)
    assert 100 < solvable < 200


def test_lattice_routines_without_unit_entries():
    rng = random.Random(77)
    for _ in range(60):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        A = sparse_matrix(rng, rows, cols, [-4, -3, 3, 4, 6], 0.5)
        C = A.mul(sparse_matrix(rng, cols, 2, [-1, 1, 2], 0.5))
        assert agree_with_the_dense_routines(A, C)
        agree_with_the_dense_routines(A, sparse_matrix(rng, rows, 1, [1, 5]))


def test_solve_int_finds_an_inconsistent_zeroed_row(monkeypatch):
    rng = random.Random(5)
    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 6)
        top = sparse_matrix(rng, rows, cols, [-1, 1, 2], 0.5).data
        # the last row is the sum of two others, its right-hand side not
        i, j = rng.sample(range(rows), 2) if rows > 1 else (0, 0)
        A = IntMatrix(top + [[a + b for a, b in zip(top[i], top[j])]], cols)
        rhs = A.mul(sparse_matrix(rng, cols, 1, [-1, 1, 3], 0.7)).data
        C = IntMatrix(rhs[:-1] + [[rhs[-1][0] + 1]], 1)
        assert solve_int(A.col_dicts(), A.rows, C.col_dicts()) is None
        assert dense_solve_int(A, C) is None
    # a row that elimination zeroes answers before any dense solve
    monkeypatch.setattr(exact_linalg, "dense_solve_int", None)
    assert solve_int([{0: 1, 1: 2}, {0: 2, 1: 4}], 2, [{0: 1, 1: 3}]) is None


def test_lattice_routines_on_empty_and_zero_shapes():
    for rows, cols in ((0, 3), (3, 0), (0, 0), (2, 3)):
        A = [{} for _ in range(cols)]
        D = IntMatrix.zeros(rows, cols)
        assert dense(kernel_basis(A, rows), cols) == dense_kernel_basis(D) \
            == IntMatrix.identity(cols)
        assert solve_int(A, rows, [{}, {}]) == [{}, {}] and \
            dense_solve_int(D, IntMatrix.zeros(rows, 2)) == \
            IntMatrix.zeros(cols, 2)
        assert solve_int(A, rows, []) == []
        assert lattice_basis(A, rows) == []
        assert preimage_lattice(A, [], rows) == units(cols)
        assert cokernel_group(A, rows) == FgAbGroup(rows)
        if rows:
            assert solve_int(A, rows, [{i: 1 for i in range(rows)}]) is None


def agree_on_sparse_input(A, rows, C):
    """The lattice routines on sparse columns A and C, as given, against
    the dense oracles on the same matrices."""
    D, R = dense(A, rows), dense(C, rows)
    X, Y = solve_int(A, rows, C), dense_solve_int(D, R)
    assert (X is None) == (Y is None)
    if X is not None:
        assert D.mul(dense(X, len(A))) == R
    K = dense(kernel_basis(A, rows), len(A))
    assert same_lattice(K, dense_kernel_basis(D)) and is_saturated(K)
    L = lattice_basis(A, rows)
    assert same_lattice(dense(L, rows), D) and int_rank(L) == len(L)
    assert all(v for col in L for v in col.values())
    assert cokernel_group(A, rows) == \
        FgAbGroup.from_diagonal(snf_diagonal(D), rows)
    return X is not None


def test_lattice_routines_on_explicit_zeros_and_spare_rows(monkeypatch):
    exact = [{0: 1, 1: 0}, {1: 0, 2: 1}, {}]
    assert agree_on_sparse_input(exact, 3, [{0: 2, 2: 0}, {}])
    # an explicit zero entry is no equation: it leaves no live residual
    # row behind, so a system with unit pivots needs no dense solve
    monkeypatch.setattr(exact_linalg, "dense_solve_int", None)
    assert solve_int(exact, 3, [{0: 2, 2: 0}]) == [{0: 2}]
    monkeypatch.undo()
    # rows past every key are zero rows of the matrix
    assert agree_on_sparse_input([{0: 2}, {1: 3}], 5, [{0: 4, 1: 3}])
    assert not agree_on_sparse_input([{0: 2}], 4, [{3: 1}])
    assert cokernel_group([{0: 2}], 4) == FgAbGroup(3, (2,))
    # columns that are all empty or all zero
    assert agree_on_sparse_input([{}, {0: 0, 1: 0}], 2, [{}, {1: 0}])
    assert kernel_basis([{}, {0: 0}], 1) == units(2)
    assert lattice_basis([{0: 0}, {}], 2) == []
    # the input columns are left as they were
    assert exact == [{0: 1, 1: 0}, {1: 0, 2: 1}, {}]
    rng = random.Random(31)
    for _ in range(60):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        A = [{r: rng.choice([-2, -1, 0, 0, 1, 3]) for r in range(rows)
              if rng.random() < 0.5} for _ in range(cols)]
        C = [{r: rng.choice([0, 1, -2]) for r in range(rows)
              if rng.random() < 0.5} for _ in range(2)]
        agree_on_sparse_input(A, rows + rng.randint(0, 2), C)


def test_elimination_leaves_a_residual_from_fill_in(monkeypatch):
    # the unit pivot of row 0 leaves 2, 3 in row 1: no unit, content 1
    seen = []
    for name in ("dense_solve_int", "dense_kernel_basis"):
        real = getattr(exact_linalg, name)

        def recorded(A, *rest, real=real):
            seen.append(A.data)
            return real(A, *rest)

        monkeypatch.setattr(exact_linalg, name, recorded)
    B = IntMatrix([[1, 1, 1], [1, 3, 4]])
    K = dense(kernel_basis(B.col_dicts(), 2), 3)
    assert seen == [[[2, 3]]]
    assert K.cols == 1 and B.mul(K).is_zero() and is_saturated(K)
    seen.clear()
    C = IntMatrix([[1, 0], [2, 5]])
    assert B.mul(dense(solve_int(B.col_dicts(), 2, C.col_dicts()), 3)) == C
    assert seen == [[[2, 3]]]


def test_elimination_that_clears_everything_needs_no_dense_form(
        monkeypatch):
    for name in ("dense_solve_int", "dense_kernel_basis"):
        monkeypatch.setattr(exact_linalg, name, None)
    # unit pivots, and a row whose content 2 divides out with its
    # right-hand side
    B = IntMatrix([[1, 2, 0, 3], [0, 2, 4, 0], [0, 1, 0, -1]])
    K = dense(kernel_basis(B.col_dicts(), 3), 4)
    assert K.cols == 1 and B.mul(K).is_zero() and is_saturated(K)
    C = IntMatrix([[1, 0], [4, -2], [0, 7]])
    assert B.mul(dense(solve_int(B.col_dicts(), 3, C.col_dicts()), 4)) == C


def test_spanning_kernel_rows_span_every_row():
    # the kept rows have the rank of all of them, each row lies in their
    # span, and their rank plus the kernel's size is the number of columns;
    # the kernel is kernel_basis's
    rng = random.Random(29)
    values = [-3, -2, -1, 1, 2, 3]
    for _ in range(60):
        size, count = rng.randint(1, 14), rng.randint(0, 12)
        vecs = sparse_matrix(rng, size, count, values, 0.3).col_dicts()
        vecs += [{r: 2 * v for r, v in vec.items()} for vec in vecs[:2]]
        A = _transpose_cols(vecs, size)
        before = [dict(col) for col in A]
        kernel, kept = spanning_kernel(A, len(vecs))
        assert A == before and kernel == kernel_basis(A, len(vecs))
        assert len(set(kept)) == len(kept)
        chosen = [vecs[j] for j in kept]
        rank = int_rank(chosen)
        assert rank == int_rank(vecs) == size - len(kernel)
        assert all(int_rank(chosen + [vec]) == rank for vec in vecs)

    def kept(rows):
        return sorted(spanning_kernel(_transpose_cols(rows, 2), len(rows))[1])

    # three rows of rank 2 with no unit entry, even after dividing out
    # their content, are all left as the residual and all kept
    assert kept([{0: 2, 1: 3}, {0: 3, 1: 5}, {0: 5, 1: 8}, {}]) == [0, 1, 2]
    assert kept([{0: 2, 1: 4}, {0: 1, 1: 2}]) in ([0], [1])


def test_pivot_reduction_decides_membership_in_the_span():
    # sparse, with entries 2 and 3 beside the units, so that most spans
    # leave a residual
    rng = random.Random(23)
    values = [-3, -2, -1, 1, 2, 3]
    with_residual = 0
    for _ in range(60):
        rows, cols = rng.randint(1, 14), rng.randint(0, 12)
        span = sparse_matrix(rng, rows, cols, values, 0.3).col_dicts()
        before = [dict(vec) for vec in span]
        red = PivotReduction(span, rows)
        assert span == before
        assert len(red.pivots) + red.rank == int_rank(span)
        with_residual += bool(red.residual)
        base = int_rank(span)
        probes = sparse_matrix(rng, rows, 6, values, 0.3).col_dicts()
        # integer combinations of the span, and of the span and a probe
        for extra in ([], [], [probes[0]]):
            coeffs = [(rng.randint(-2, 2) or 1, col) for col in span + extra]
            probes.append({r: sum(c * col.get(r, 0) for c, col in coeffs)
                           for r in range(rows)})
        for vec in probes:
            out = red.reduce(vec)
            assert not set(out) & set(red.pivots)
            assert all(out.values())
            assert (red.rank_modulo([out]) == 0) == \
                (int_rank(span + [vec]) == base)
        # reduction is linear: it commutes with integer combinations
        u, v = probes[0], probes[1]
        both = {r: 3 * u.get(r, 0) - 2 * v.get(r, 0) for r in range(rows)}
        ru, rv = red.reduce(u), red.reduce(v)
        combined = {r: 3 * ru.get(r, 0) - 2 * rv.get(r, 0)
                    for r in set(ru) | set(rv)}
        assert red.reduce(both) == {r: x for r, x in combined.items() if x}
    assert 10 < with_residual < 60


def test_fgabgroup_normal_form():
    with pytest.raises(BadParams):
        FgAbGroup(0, (3, 2))
    g = FgAbGroup(1, (2, 6))
    assert str(g) == "Z + Z/2 + Z/6"
    assert g.direct_sum(FgAbGroup(0, (2,))) == FgAbGroup(1, (2, 2, 6))
    assert FgAbGroup(0, (2,)).direct_sum(FgAbGroup(0, (3,))) == FgAbGroup(0, (6,))
    assert FgAbGroup(0, (4, 12)).direct_sum(FgAbGroup(2, (10,))) == \
        FgAbGroup(2, (2, 4, 60))
    assert FgAbGroup(1).direct_sum(FgAbGroup.trivial()) == FgAbGroup(1)
    assert str(FgAbGroup.trivial()) == "0"


def test_matrix_plumbing():
    A = IntMatrix([[1, 2], [3, 4]])
    assert A.transpose() == IntMatrix([[1, 3], [2, 4]])
    assert A.mul(IntMatrix.identity(2)) == A
    sparse = IntMatrix.from_col_dicts([{0: 2}, {1: -1}], 2)
    assert sparse == IntMatrix([[2, 0], [0, -1]])
    assert sparse.col_dicts() == [{0: 2}, {1: -1}]


def dense_subquotient(A, L, B):
    """subquotient_group from the whole-matrix Smith forms alone.  K, a
    basis of ker [A | -L], maps onto the cycles by its first A.cols
    entries, with kernel the (0, y) for y in ker L.  So the group is Z^K
    modulo those and the lifts (b, y) of B, A*b = L*y, solved into K; None
    when some A*b leaves the span of L."""
    rows = A.cols
    AL = IntMatrix([arow + [-v for v in lrow]
                    for arow, lrow in zip(A.data, L.data)], rows + L.cols)
    K = dense_kernel_basis(AL)
    Y = dense_solve_int(L, A.mul(B))
    if Y is None:
        return None
    lifts = [B.column(j) + Y.column(j) for j in range(B.cols)]
    lifts += [[0] * rows + dense_kernel_basis(L).column(j)
              for j in range(dense_kernel_basis(L).cols)]
    X = dense_solve_int(K, IntMatrix.from_cols(lifts, AL.cols))
    return FgAbGroup.from_diagonal(snf_diagonal(X), K.cols)


def test_subquotient_group_matches_the_dense_oracle():
    rng = random.Random(1212)
    values = [-3, -2, -1, 1, 2, 3]
    seen = {"escapes": 0, "torsion": 0, "no B": 0, "no L": 0, "no rows": 0}
    for trial in range(240):
        rows, low = rng.randint(1, 6), rng.randint(0, 4) if trial % 6 else 0
        A = sparse_matrix(rng, low, rows, values)
        L = sparse_matrix(rng, low, rng.randint(0, 3) if low else 0,
                          [-4, -2, 2, 3, 4], 0.5)
        AL = IntMatrix([arow + [-v for v in lrow]
                        for arow, lrow in zip(A.data, L.data)],
                       rows + L.cols)
        cycles = IntMatrix(dense_kernel_basis(AL).data[:rows])
        if trial % 5 == 0:
            B = sparse_matrix(rng, rows, 2, values, 0.6)
        else:
            B = cycles.mul(sparse_matrix(rng, cycles.cols,
                                         rng.randint(0, 3), values, 0.6))
        want = dense_subquotient(A, L, B)
        args = (A.col_dicts(), L.col_dicts(), low, B.col_dicts(), rows)
        if want is None:
            seen["escapes"] += 1
            with pytest.raises(NotAComplex):
                subquotient_group(*args)
            continue
        assert subquotient_group(*args) == want, (A.data, L.data, B.data)
        seen["torsion"] += bool(want.torsion)
        seen["no B"] += not B.cols
        seen["no L"] += not L.cols
        seen["no rows"] += not low
    assert all(count >= 10 for count in seen.values()), seen
