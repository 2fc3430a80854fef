"""Tuple-complex layer: faces, boundaries, homology, shuffles, Harrison,
and Young-invariant surjectivity, against hand-checked small cases."""

import itertools
import random
from fractions import Fraction

import pytest

from monhom import cli, exact_linalg, gamma_chain, hc_modules, verify
from monhom.errors import (
    BadParams,
    ComplexityBudget,
    CompositionNonzero,
    DegreeMismatch,
    NotAComplex,
    OracleMismatch,
)
from monhom.exact_linalg import (
    FgAbGroup,
    IntMatrix,
    _transpose_cols,
    int_rank,
    kernel_basis,
    lattice_basis,
    preimage_lattice,
    solve_int,
)
from monhom.gamma_chain import (
    COHOMOLOGICAL,
    DEFAULT_BUDGET,
    HOMOLOGICAL,
    SymGroupElement,
    _compose_cols,
    _face_cols,
    _face_targets,
    _face_tuple,
    _term_layout,
    build_complex,
    harrison,
    harrison_dim_q,
    hochschild,
    hochschild_dim_q,
    leech_cohomology,
    perm_sign,
    resolve_budget,
    shuffle_element,
    y_exactness_check,
)
from monhom.hc_modules import (
    LEFT,
    RIGHT,
    HCModuleMap,
    TabulatedHCModule,
    boxtimes,
    derivations,
    jstar,
    jstar_finite_cyclic,
    pullback,
    regular_kc_module,
    std_projective,
    trivial_module,
    validate_module,
)
from monhom.hodge import eulerian_idempotents, total_shuffle_operator
from monhom.monoids import (
    cyclic_group,
    product_monoid,
    semilattice_chain,
    trivial_monoid,
    truncated_add,
    validate_monoid,
)
from monhom.verify import (
    _direct_action_cols,
    _family,
    _lattice_homology,
    _partitions,
    _subquotient_homology,
    suite_monoids,
)

Z2 = cyclic_group(2)
Z3 = cyclic_group(3)
TRIV = trivial_monoid()


def groups(*spec):
    """Shorthand: groups(1) = Z, groups(0, 2) = Z/2, groups(0) = 0."""
    return FgAbGroup(spec[0], tuple(spec[1:]))


def test_push_tuple_fibres():
    # (1, 1) -> [1]: merge both entries, acting by the identity
    assert _face_tuple((1, 1), 1, Z2) == ((0,), 0)
    # drop the top entry into the coefficient
    assert _face_tuple((1, 1), 2, Z2) == ((1,), 1)
    # drop the bottom entry into the coefficient
    assert _face_tuple((1, 0), 0, Z2) == ((0,), 1)


def test_single_faces_sum_to_the_boundary():
    # each single face carries its sign (-1)^i, so their plain sum is d_out
    pm = product_monoid(Z2, Z3)
    n1, n2 = trivial_module(Z2, RIGHT), std_projective(Z3, 2, RIGHT)
    for monoid, coeff in ((pm.monoid, boxtimes(n1, n2, pm)), (Z2, n1),
                          (Z3, n2)):
        cx = build_complex(monoid, coeff, 3, HOMOLOGICAL)
        for k in range(1, 4):
            high, low = (_term_layout(monoid, coeff, d) for d in (k, k - 1))
            total = [dict() for _ in range(cx.dims[k])]
            for i in range(k + 1):
                face = _face_cols(coeff.act, high, low, _face_targets(
                    monoid, high[0], low[0], [i]))
                assert any(face)
                for col, part in zip(total, face):
                    for r, v in part.items():
                        col[r] = col.get(r, 0) + v
            assert [{r: v for r, v in col.items() if v}
                    for col in total] == cx.d_out(k)


def _tuple_major_cols(monoid, act, high, low):
    """The reference boundary: tuple by tuple, every face of a tuple in
    turn, each face tuple looked up among the tuples of low."""
    tuples_k, _, offs_k, dim_k = high
    tuples_low, prods_low, offs_low, _ = low
    idx_low = {t: k for k, t in enumerate(tuples_low)}
    cols = [dict() for _ in range(dim_k)]
    for jt, t in enumerate(tuples_k):
        for i in range(len(t) + 1):
            s, b0 = _face_tuple(t, i, monoid)
            ks = idx_low.get(s)
            if ks is None:
                continue
            A = act[(b0, prods_low[ks])]
            sign = -1 if i % 2 else 1
            for j in range(A.cols):
                col = cols[offs_k[jt] + j]
                for p in range(A.rows):
                    if A.data[p][j]:
                        r = offs_low[ks] + p
                        nv = col.get(r, 0) + sign * A.data[p][j]
                        if nv:
                            col[r] = nv
                        else:
                            col.pop(r, None)
    return cols


def test_face_tables_assemble_the_tuple_major_boundary():
    # entries and their order in every column, which later sums inherit
    for _, monoid in suite_monoids():
        for direction, side in ((HOMOLOGICAL, RIGHT), (COHOMOLOGICAL, LEFT)):
            for _, coeff in _family(monoid, side):
                act = (coeff if side == RIGHT else _transposed(coeff)).act
                for normalized in (False, True):
                    cx = build_complex(monoid, coeff, 5, direction,
                                       normalized=normalized)
                    for k in range(1, 6):
                        want = _tuple_major_cols(monoid, act, cx.layouts[k],
                                                 cx.layouts[k - 1])
                        if direction == COHOMOLOGICAL:
                            want = _transpose_cols(want, cx.dims[k - 1])
                        assert [list(col.items()) for col in cx._mats[k]] \
                            == [list(col.items()) for col in want]


def test_normalization_suite_checks_the_face_tables(monkeypatch, capsys):
    real = verify._lex_faces

    def one_wrong_target(monoid, letters, k):
        faces = list(real(monoid, letters, k))
        if k == 3 and monoid.size == 4:
            faces[1][1][0] += 1
        return faces

    # the suite reads the tables that build_complex assembles from
    assert verify._lex_faces is gamma_chain._lex_faces
    monkeypatch.setattr(verify, "_lex_faces", one_wrong_target)
    assert cli.main(["verify", "normalization"]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in lines if line.startswith("FAIL")] \
        == ["normalization[cyclic_group(2)xcyclic_group(2)]:"]
    assert "OracleMismatch: the face tables of degree 3 differ" \
        in "\n".join(lines)


def _transposed(left):
    """The right module with the transposed translations of a left one;
    its chains are the transposed cochains of the left module."""
    act = {key: A.transpose() for key, A in left.act.items()}
    return TabulatedHCModule(RIGHT, left.monoid, left.ranks, act, left.rels)


def _dense_out(cx, n):
    """The map leaving degree n as a dense matrix."""
    return IntMatrix.from_col_dicts(cx.d_out(n), cx.dims[n + cx.step])


def test_push_requires_right_pull_requires_left():
    # pulls live only inside cochain complexes, which take left modules
    with pytest.raises(BadParams):
        build_complex(Z2, trivial_module(Z2, RIGHT), 1, COHOMOLOGICAL)


def test_boundary_degree_one_vanishes():
    for monoid in (Z2, Z3, semilattice_chain(1)):
        cx = build_complex(monoid, trivial_module(monoid, RIGHT), 2,
                           HOMOLOGICAL)
        assert _dense_out(cx, 1).is_zero()
        cy = build_complex(monoid, trivial_module(monoid, LEFT), 2,
                           COHOMOLOGICAL)
        assert _dense_out(cy, 0).is_zero()


def test_trivial_monoid_boundary_alternates():
    cx = build_complex(TRIV, trivial_module(TRIV, RIGHT), 5, HOMOLOGICAL)
    assert cx.dims == (1,) * 6
    for m in range(1, 6):
        mat = _dense_out(cx, m)
        if m % 2:
            assert mat.is_zero()
        else:
            assert mat.data == [[1]]
    for n in range(1, 4):
        assert hochschild(cx, n) == groups(0)
    assert hochschild(cx, 0) == groups(1)


def test_dimension_growth_and_budget():
    cx = build_complex(Z2, trivial_module(Z2, RIGHT), 4, HOMOLOGICAL)
    assert cx.dims == (1, 2, 4, 8, 16)
    with pytest.raises(ComplexityBudget):
        build_complex(Z3, trivial_module(Z3, RIGHT), 5, HOMOLOGICAL,
                      budget=100)


def test_normalized_complex_drops_identity_tuples():
    cx = build_complex(Z2, trivial_module(Z2, RIGHT), 4, HOMOLOGICAL,
                       normalized=True)
    assert cx.normalized
    assert cx.dims == (1, 1, 1, 1, 1)
    assert cx.tuples_at(2) == [(1, 1)]
    # the middle face of (1, 1) lands on the degenerate tuple (0,) and drops
    assert _dense_out(cx, 2).data == [[2]]
    klein = product_monoid(Z2, Z2).monoid
    cx = build_complex(klein, trivial_module(klein, RIGHT), 3, HOMOLOGICAL,
                       normalized=True)
    assert cx.dims == (1, 3, 9, 27)
    assert all(klein.identity not in t for t in cx.tuples_at(3))
    # Z/3 with the identity at index 2 instead of 0
    shifted = validate_monoid(3, 2, [[(a + b - 2) % 3 for b in range(3)]
                                     for a in range(3)])
    cx = build_complex(shifted, trivial_module(shifted, RIGHT), 5,
                       HOMOLOGICAL, normalized=True)
    assert [hochschild(cx, n) for n in range(5)] == [
        groups(1), groups(0, 3), groups(0), groups(0, 3), groups(0)]


def test_normalized_budget_counts_the_normalized_basis():
    # Z/3 to degree 5: 63 normalized basis elements, 364 in full
    cx = build_complex(Z3, trivial_module(Z3, RIGHT), 5, HOMOLOGICAL,
                       budget=100, normalized=True)
    assert sum(cx.dims) == 63
    with pytest.raises(ComplexityBudget):
        build_complex(Z3, trivial_module(Z3, RIGHT), 5, HOMOLOGICAL,
                      budget=62, normalized=True)


def test_budget_environment(monkeypatch):
    # the budget comes from the parameter alone; the environment is ignored
    monkeypatch.setenv("MONHOM_BUDGET", "10")
    assert resolve_budget() == DEFAULT_BUDGET
    assert resolve_budget(5000) == 5000
    build_complex(Z2, trivial_module(Z2, RIGHT), 4, HOMOLOGICAL)
    with pytest.raises(ComplexityBudget):
        build_complex(Z2, trivial_module(Z2, RIGHT), 4, HOMOLOGICAL,
                      budget=10)


def test_build_validation():
    with pytest.raises(BadParams):
        build_complex(Z2, trivial_module(Z2, LEFT), 2, HOMOLOGICAL)
    with pytest.raises(BadParams):
        build_complex(Z2, trivial_module(Z2, RIGHT), 2, COHOMOLOGICAL)
    with pytest.raises(BadParams):
        build_complex(Z2, trivial_module(Z3, RIGHT), 2, HOMOLOGICAL)
    with pytest.raises(BadParams):
        build_complex(Z2, trivial_module(Z2, RIGHT), 2, "sideways")
    with pytest.raises(BadParams):
        build_complex(Z2, jstar_finite_cyclic(Z2, 2, RIGHT), 2, HOMOLOGICAL,
                      ring="Q")


def test_d_out_and_d_in_follow_the_direction():
    cx = build_complex(Z2, trivial_module(Z2, RIGHT), 3, HOMOLOGICAL)
    cy = build_complex(Z2, trivial_module(Z2, LEFT), 3, COHOMOLOGICAL)
    assert (cx.step, cy.step) == (-1, 1)
    for n in range(1, 4):
        assert cx.d_out(n) is cx.d_in(n - 1) is cx.boundary_cols(n)
        assert cy.d_out(n - 1) is cy.d_in(n) is cy.coboundary_cols(n - 1)
    # zero maps at the ends
    assert cx.d_out(0) == [{}] * cx.dims[0] and cx.d_in(3) == []
    assert cy.d_in(0) == [] and cy.d_out(3) == [{}] * cy.dims[3]


def test_cochains_are_transposed_chains_of_transposed_translations():
    for monoid, left in [(Z3, std_projective(Z3, 1, LEFT)),
                         (truncated_add(2),
                          jstar_finite_cyclic(truncated_add(2), 4, LEFT))]:
        cy = build_complex(monoid, left, 3, COHOMOLOGICAL)
        cx = build_complex(monoid, _transposed(left), 3, HOMOLOGICAL)
        for n in range(1, 4):
            assert _dense_out(cy, n - 1) == _dense_out(cx, n).transpose()


def test_double_boundary_is_literally_zero_for_free_values():
    cx = build_complex(Z2, std_projective(Z2, 1, RIGHT), 4, HOMOLOGICAL)
    for m in range(2, 5):
        assert _dense_out(cx, m - 1).mul(_dense_out(cx, m)).is_zero()
    cy = build_complex(Z3, trivial_module(Z3, LEFT), 3, COHOMOLOGICAL)
    for m in range(1, 3):
        assert _dense_out(cy, m).mul(_dense_out(cy, m - 1)).is_zero()


def test_homology_of_cyclic_groups_trivial_coefficients():
    cx = build_complex(Z2, trivial_module(Z2, RIGHT), 5, HOMOLOGICAL)
    expected = [groups(1), groups(0, 2), groups(0), groups(0, 2), groups(0)]
    assert [hochschild(cx, n) for n in range(5)] == expected
    cy = build_complex(Z3, trivial_module(Z3, RIGHT), 4, HOMOLOGICAL)
    assert [hochschild(cy, n) for n in range(4)] == [
        groups(1), groups(0, 3), groups(0), groups(0, 3)]


def test_homology_with_torsion_coefficients():
    cx = build_complex(Z2, jstar_finite_cyclic(Z2, 2, RIGHT), 4, HOMOLOGICAL)
    assert [hochschild(cx, n) for n in range(4)] == [groups(0, 2)] * 4
    cy = build_complex(Z2, jstar_finite_cyclic(Z2, 4, RIGHT), 4, HOMOLOGICAL)
    assert [hochschild(cy, n) for n in range(4)] == [
        groups(0, 4), groups(0, 2), groups(0, 2), groups(0, 2)]


def test_degree_zero_is_value_at_identity():
    cases = [
        (Z3, std_projective(Z3, 2, RIGHT)),
        (semilattice_chain(1), trivial_module(semilattice_chain(1), RIGHT)),
        (truncated_add(2), jstar_finite_cyclic(truncated_add(2), 3, RIGHT)),
    ]
    for monoid, coeff in cases:
        cx = build_complex(monoid, coeff, 1, HOMOLOGICAL)
        assert hochschild(cx, 0) == coeff.value_group(monoid.identity)


def test_cohomology_degree_zero_and_one():
    for monoid, coeff in [
            (Z2, trivial_module(Z2, LEFT)),
            (Z2, jstar_finite_cyclic(Z2, 4, LEFT)),
            (Z3, jstar_finite_cyclic(Z3, 3, LEFT)),
            (semilattice_chain(1), trivial_module(semilattice_chain(1), LEFT)),
    ]:
        assert leech_cohomology(monoid, coeff, 0) == \
            coeff.value_group(monoid.identity)
        assert leech_cohomology(monoid, coeff, 1) == \
            derivations(monoid, coeff)


def test_group_cohomology_of_order_two():
    coeff = trivial_module(Z2, LEFT)
    assert leech_cohomology(Z2, coeff, 1) == groups(0)
    assert leech_cohomology(Z2, coeff, 2) == groups(0, 2)
    assert leech_cohomology(Z2, coeff, 3) == groups(0)
    # H^n(Z/k; Z) = Z, 0, Z/k, 0, Z/k; with Z/4 values the universal
    # coefficient theorem gives Z/4 then Z/gcd(k, 4) in every degree
    for k, monoid in ((2, Z2), (3, Z3)):
        tor = groups(0, 2) if k == 2 else groups(0)
        cases = [
            (trivial_module(monoid, LEFT),
             [groups(1), groups(0), groups(0, k), groups(0), groups(0, k)]),
            (jstar_finite_cyclic(monoid, 4, LEFT), [groups(0, 4)] + [tor] * 4),
        ]
        for coeff, expected in cases:
            cx = build_complex(monoid, coeff, 5, COHOMOLOGICAL)
            assert [hochschild(cx, n) for n in range(5)] == expected
            assert leech_cohomology(monoid, coeff, 4) == expected[4]


def test_rational_ring_matches_free_ranks():
    for monoid in (Z2, semilattice_chain(1), truncated_add(2)):
        cz = build_complex(monoid, trivial_module(monoid, RIGHT), 3,
                           HOMOLOGICAL)
        cq = build_complex(monoid, trivial_module(monoid, RIGHT), 3,
                           HOMOLOGICAL, ring="Q")
        for n in range(3):
            assert hochschild_dim_q(cz, n) == hochschild(cz, n).free_rank
            assert hochschild(cq, n) == \
                FgAbGroup.free(hochschild(cz, n).free_rank)


def _direct_product(x, y):
    """x * y in Z[S_n] by the double loop over compositions, zero terms
    dropped."""
    terms = {}
    for p, a in x.terms.items():
        for q, b in y.terms.items():
            comp = tuple(map(p.__getitem__, q))
            terms[comp] = terms.get(comp, 0) + a * b
    return {p: c for p, c in terms.items() if c}


def test_indexed_product_matches_the_double_loop():
    # 50 products of random integer elements of Z[S_n], n = 1..5, on the
    # composition table of S_n
    rng = random.Random(5113)
    for k in range(50):
        n = k % 5 + 1
        perms = list(itertools.permutations(range(n)))
        x, y = (SymGroupElement(n, {
            p: rng.randint(-3, 3)
            for p in rng.sample(perms, rng.randint(1, len(perms)))})
            for _ in range(2))
        assert x.mul(y).terms == _direct_product(x, y)
    # (1 + s)(1 - s + t) = t + st for a transposition s: the identity and
    # s cancel and must be dropped
    one = SymGroupElement.identity(3)
    s = SymGroupElement(3, {(1, 0, 2): 1})
    t = SymGroupElement(3, {(1, 2, 0): 1})
    x, y = one + s, one + s.scale(-1) + t
    assert _direct_product(x, y) == {(1, 2, 0): 1, (0, 2, 1): 1}
    assert x.mul(y).terms == {(1, 2, 0): 1, (0, 2, 1): 1}
    assert x.mul(one + s.scale(-1)).is_zero()


def test_sym_action_group_law():
    rng = random.Random(8141)
    cx = build_complex(Z2, jstar_finite_cyclic(Z2, 4, RIGHT), 3, HOMOLOGICAL)
    cy = build_complex(Z2, trivial_module(Z2, LEFT), 3, COHOMOLOGICAL)
    n = 3
    ident = SymGroupElement.identity(n)
    assert gamma_chain._sym_cols(cx, n, [ident]) == \
        [[{i: 1} for i in range(cx.dims[n])]]
    for _ in range(8):
        p = tuple(rng.sample(range(n), n))
        q = tuple(rng.sample(range(n), n))
        ep, eq = (SymGroupElement(n, {x: 1}) for x in (p, q))
        # _compose_cols(a, b) is the product b * a
        on_pq, on_p, on_q = gamma_chain._sym_cols(cx, n, [ep.mul(eq), ep, eq])
        assert on_pq == _compose_cols(on_q, on_p)
        # contravariant degree: the action reverses products
        on_pq, on_p, on_q = gamma_chain._sym_cols(cy, n, [ep.mul(eq), ep, eq])
        assert on_pq == _compose_cols(on_p, on_q)


def test_pattern_action_matches_the_direct_action():
    # 100 random integer elements of Z[S_n], n <= 5, on chains and
    # cochains, with values of rank 3 and on the normalized complex, acted
    # in one batch per complex and degree, so each tuple relabels the
    # images that any element of its batch reaches
    rng = random.Random(7321)
    monoid = truncated_add(2)
    complexes = [
        build_complex(monoid, jstar(regular_kc_module(monoid), side), 5,
                      direction, normalized=normalized)
        for side, direction in ((RIGHT, HOMOLOGICAL), (LEFT, COHOMOLOGICAL))
        for normalized in (False, True)]
    assert {cx.coeff.ranks[p] for cx in complexes for p in cx.prods_at(5)} \
        == {3}
    batches = {}
    for k in range(100):
        n = rng.randint(1, 5)
        batch = batches.get((k % len(complexes), n))
        if batch is None:
            swap = SymGroupElement(
                n, {(n - 1,) + tuple(range(1, n - 1)) + (0,): 1}) if n > 1 \
                else SymGroupElement.identity(1)
            batch = batches[k % len(complexes), n] = [swap]
        perms = list(itertools.permutations(range(n)))
        chosen = rng.sample(perms, rng.randint(1, len(perms)))
        batch.append(SymGroupElement(n, {p: rng.randint(-4, 4)
                                         for p in chosen}))
    for (c, n), batch in batches.items():
        cx = complexes[c]
        assert gamma_chain._sym_cols(cx, n, batch) == \
            [_direct_action_cols(cx, n, elem) for elem in batch]
        with pytest.raises(DegreeMismatch):
            gamma_chain._sym_cols(cx, n,
                                  batch + [SymGroupElement.identity(n + 1)])


def test_a_batch_acts_as_one_call_per_element():
    # 1 - (0 1) cancels on the tuples whose first two letters agree, where
    # the other elements still reach the image; x - x has no terms at all
    rng = random.Random(4417)
    monoid = truncated_add(2)
    n = 4
    x = SymGroupElement(n, {
        p: rng.randint(-3, 3)
        for p in rng.sample(list(itertools.permutations(range(n))), 10)})
    swap = SymGroupElement(n, {(1, 0, 2, 3): 1})
    cancels = SymGroupElement.identity(n) + swap.scale(-1)
    batch = [x, cancels, x + x.scale(-1), swap, shuffle_element(2, 2)]
    for side, direction in ((RIGHT, HOMOLOGICAL), (LEFT, COHOMOLOGICAL)):
        for normalized in (False, True):
            cx = build_complex(monoid, jstar(regular_kc_module(monoid), side),
                               n, direction, normalized=normalized)
            cols = gamma_chain._sym_cols(cx, n, batch)
            assert cols == [gamma_chain._sym_cols(cx, n, [e])[0]
                            for e in batch]
            assert cols[1] == _direct_action_cols(cx, n, cancels)
            assert [not col for col in cols[1]] == [
                t[0] == t[1] for t, p in zip(cx.tuples_at(n), cx.prods_at(n))
                for _ in range(cx.coeff.ranks[p])]
            assert len(cols[2]) == cx.dims[n] and not any(cols[2])
            assert gamma_chain._sym_cols(cx, n, []) == []


def _items(cols):
    """Each column's entries by row; a column left unset fails."""
    return [sorted(col.items()) for col in cols]


def test_pattern_blocks_give_the_direct_action():
    # the suite's coefficient family, with the projective's zero-rank
    # values and the torsion values of jstar:Zmod4:trivial, full and
    # normalized, both directions: every column equal to the direct sum
    # over permutations; then the Morse transfer's action on the unit
    # chains of the normalized chains, entries in the same order
    compared = 0
    for monoid in (Z3, truncated_add(2)):
        for direction, side in ((HOMOLOGICAL, RIGHT), (COHOMOLOGICAL, LEFT)):
            for _, coeff in _family(monoid, side):
                for normalized in (False, True):
                    cx = build_complex(monoid, coeff, 4, direction,
                                       normalized=normalized)
                    for n in range(1, 5):
                        batch = [total_shuffle_operator(n)] + [
                            shuffle_element(p, n - p) for p in range(1, n)
                        ] + list(eulerian_idempotents(n))
                        acted = gamma_chain._sym_cols(cx, n, batch)
                        assert [_items(cols) for cols in acted] == [
                            _items(_direct_action_cols(cx, n, elem))
                            for elem in batch]
                        compared += len(batch)
                        if normalized and direction == HOMOLOGICAL:
                            basis = [(t, j) for t, p in zip(
                                cx.tuples_at(n), cx.prods_at(n))
                                for j in range(coeff.ranks[p])]
                            moved = gamma_chain._permuted(
                                batch[0], [{b: 1} for b in basis])
                            assert [list(c.items()) for c in moved] == [
                                [(basis[r], v) for r, v in col.items()]
                                for col in acted[0]]
    assert compared == 2 * 2 * 3 * 2 * sum(2 * n for n in range(1, 5))


def _first_appearance_blocks(cx, m):
    # the contents in order of first appearance over the tuples of degree
    # m, each tuple sorted, and each word's row looked up by its tuple
    offset = dict(zip(cx.tuples_at(m), cx.tuple_offsets(m)))
    seen = set()
    for t, p in zip(cx.tuples_at(m), cx.prods_at(m)):
        content, rank = tuple(sorted(t)), cx.coeff.ranks[p]
        if rank and content not in seen:
            seen.add(content)
            order, pattern = gamma_chain._content_order(t)
            yield pattern, [offset[tuple(map(order.__getitem__, w))]
                            for w in gamma_chain._pattern_words(pattern)[0]
                            ], rank


def test_contents_are_listed_in_order_of_first_appearance():
    # every suite monoid, the suite's coefficient family (the projective
    # has zero-rank values) and jstar:regular, full and normalized, both
    # directions, degrees 0..5: the same (pattern, rows, rank) in the same
    # order as the first-appearance enumeration over the tuples
    compared = 0
    for _, monoid in suite_monoids():
        for direction, side in ((HOMOLOGICAL, RIGHT), (COHOMOLOGICAL, LEFT)):
            coeffs = [c for _, c in _family(monoid, side)] + [
                jstar(regular_kc_module(monoid), side)]
            for coeff in coeffs:
                for normalized in (False, True):
                    cx = build_complex(monoid, coeff, 5, direction,
                                       normalized=normalized)
                    for m in range(6):
                        assert list(gamma_chain._content_blocks(cx, m)) == \
                            list(_first_appearance_blocks(cx, m))
                        compared += 1
    assert compared == 6 * 2 * 4 * 2 * 6


def test_sym_action_suite_catches_a_wrong_pattern_key(monkeypatch, capsys):
    # letters in letter order against a pattern in multiplicity order: the
    # words of (a, b, b) are put back as those of (a, a, b)
    monkeypatch.setattr(gamma_chain, "_content_order", lambda t: (
        sorted(set(t)), tuple(sorted(map(t.count, set(t)), reverse=True))))
    assert cli.main(["verify", "sym-action"]) == 3
    out = capsys.readouterr().out
    assert "FAIL sym-action[cyclic_group(2)]" in out
    assert "OracleMismatch" in out


def test_sym_action_suite_catches_a_direct_action_read_through_sigma(
        monkeypatch, capsys):
    # t read through sigma in place of sigma^-1: the same on an involution,
    # not on the shuffles and idempotents of three letters and more
    permuted = gamma_chain._permuted

    def through_sigma(elem, chains):
        return permuted(SymGroupElement(elem.n, {
            gamma_chain._perm_inverse(p): c for p, c in elem.terms.items()}),
            chains)

    monkeypatch.setattr(gamma_chain, "_permuted", through_sigma)
    monkeypatch.setattr(verify, "_permuted", through_sigma)
    assert cli.main(["verify", "sym-action"]) == 3
    out = capsys.readouterr().out
    assert "FAIL sym-action[cyclic_group(2)]" in out
    assert "OracleMismatch" in out


def test_pattern_words_are_the_distinct_permutations():
    # every tuple of counts of sum 1..7 with at most that many entries,
    # zero and unsorted counts included: the words of the distinct
    # permutations of its letters, in the same order, with the same index
    checked = 0
    for total in range(1, 8):
        for length in range(1, total + 1):
            for cuts in itertools.combinations(range(total + length - 1),
                                               length - 1):
                bounds = (-1,) + cuts + (total + length - 1,)
                pattern = tuple(b - a - 1 for a, b in zip(bounds, bounds[1:]))
                letters = [j for j, k in enumerate(pattern) for _ in range(k)]
                words = sorted(set(itertools.permutations(letters)))
                assert gamma_chain._pattern_words(pattern) == \
                    (words, {w: k for k, w in enumerate(words)})
                checked += 1
    assert checked == 4081
    assert gamma_chain._pattern_words(()) == ([()], {(): 0})


def _brute_shuffle(parts):
    """The permutations of range(n), in lexicographic order, increasing on
    each consecutive block of the sizes parts, each with its sign."""
    cuts = list(itertools.accumulate(parts, initial=0))
    return [(perm, perm_sign(perm))
            for perm in itertools.permutations(range(cuts[-1]))
            if all(list(perm[a:b]) == sorted(perm[a:b])
                   for a, b in zip(cuts, cuts[1:]))]


def test_block_shuffles_match_the_brute_force():
    # every composition of n = 1..7; two-block terms in the brute force's
    # lexicographic order, in which the pattern actions merge them
    checked = 0
    for n in range(1, 8):
        for parts in _compositions(n):
            terms = shuffle_element(*parts).terms
            brute = _brute_shuffle(parts)
            if len(parts) == 2:
                assert list(terms.items()) == brute
            assert terms == dict(brute)
            checked += 1
    assert checked == 2 ** 7 - 1


def test_harrison_on_one_tuple_per_degree_lists_no_permutations(
        monkeypatch, capsys):
    # the trivial monoid has one tuple per degree, and the words of its
    # patterns are listed one letter at a time: listing them as distinct
    # permutations yields 4 037 914 tuples
    yielded = []
    permutations = itertools.permutations

    def counted(*args):
        for perm in permutations(*args):
            yielded.append(1)
            yield perm

    monkeypatch.setattr(gamma_chain.itertools, "permutations", counted)
    assert cli.main(["compute", "harrison", "--monoid", "builtin:trivial",
                     "--max-degree", "10"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 10
    assert len(yielded) <= 10 ** 4


def test_shuffle_elements():
    e = shuffle_element(1, 1)
    assert e.terms == {(0, 1): 1, (1, 0): -1}
    assert shuffle_element(3) == SymGroupElement.identity(3)
    assert len(shuffle_element(1, 2).terms) == 3
    assert len(shuffle_element(2, 2).terms) == 6
    assert len(shuffle_element(1, 1, 1).terms) == 6
    assert perm_sign((1, 0, 2)) == -1
    with pytest.raises(BadParams):
        shuffle_element(0, 2)
    # on the one-point monoid every permutation acts as the identity,
    # so the signs of sh_{1,1} cancel exactly
    cx = build_complex(TRIV, trivial_module(TRIV, RIGHT), 3, HOMOLOGICAL)
    assert not any(gamma_chain._sym_cols(cx, 2, [e])[0])


def test_non_integral_coefficients_are_rejected():
    # truncating 1/2 to 0 would silently drop a term
    for bad in (Fraction(1, 2), 0.5):
        with pytest.raises(BadParams, match="non-integral"):
            SymGroupElement(2, {(1, 0): bad})
        with pytest.raises(BadParams, match="non-integral"):
            shuffle_element(1, 1).scale(bad)


def _compositions(n):
    """Every composition of n, one per set of cut points."""
    for cuts in itertools.product((False, True), repeat=n - 1):
        parts, size = [], 1
        for cut in cuts:
            if cut:
                parts.append(size)
                size = 1
            else:
                size += 1
        yield tuple(parts) + (size,)


def _every_block_shuffle(n):
    """shuffle_element(*parts) for every composition of n with at least two
    parts."""
    return [shuffle_element(*parts) for parts in _compositions(n)
            if len(parts) > 1]


def _stack_cols(col_lists, block_rows):
    """Stack square operators on one degree vertically, sparsely; no
    operators give no rows."""
    stacked = [dict() for _ in range(block_rows)]
    for b, cols in enumerate(col_lists):
        off = b * block_rows
        for j, col in enumerate(cols):
            for r, v in col.items():
                stacked[j][off + r] = v
    return stacked


def test_two_block_shuffles_span_every_block_shuffle():
    # With trivial coefficients each degree is a permutation module, which
    # splits over the S_n-orbits of tuples, so the lattices are compared
    # orbit by orbit.  The two-block shuffles are among all block shuffles,
    # so their joint kernel holds the joint kernel of all of them; it is
    # equal when every block shuffle kills it.
    for _, monoid in suite_monoids():
        for side, direction in ((RIGHT, HOMOLOGICAL), (LEFT, COHOMOLOGICAL)):
            cx = build_complex(monoid, trivial_module(monoid, side), 5,
                               direction)
            for n in range(2, 6):
                two = gamma_chain._shuffle_int_cols(cx, n)
                every = gamma_chain._sym_cols(cx, n, _every_block_shuffle(n))
                assert len(two) == n - 1 and len(every) == 2 ** (n - 1) - 1
                orbits = {}
                for k, t in enumerate(cx.tuples_at(n)):
                    orbits.setdefault(tuple(sorted(t)), []).append(k)
                for idx in orbits.values():
                    local = {k: i for i, k in enumerate(idx)}

                    def restrict(ops):
                        return [[{local[r]: v for r, v in op[k].items()}
                                 for k in idx] for op in ops]

                    two_o, every_o = restrict(two), restrict(every)
                    span = lattice_basis(
                        [c for op in two_o for c in op], len(idx))
                    images = [c for op in every_o for c in op]
                    assert solve_int(span, len(idx), images) is not None
                    kernel = kernel_basis(
                        _stack_cols(two_o, len(idx)),
                        len(idx) * len(two_o))
                    for op in every_o:
                        assert not any(_compose_cols(kernel, op))


def _patterns(cx, degrees):
    """The multiplicity patterns of the tuples of the given degrees."""
    return {tuple(sorted((t.count(a) for a in set(t)), reverse=True))
            for m in degrees for t in cx.tuples_at(m)}


def test_each_shuffle_span_is_built_once(monkeypatch):
    calls, present = [], set()
    original = gamma_chain._shuffle_int_cols

    def counted(cx, m):
        calls.append(m)
        return original(cx, m)

    monkeypatch.setattr(gamma_chain, "_shuffle_int_cols", counted)
    monoid = truncated_add(2)
    for side, direction in ((RIGHT, HOMOLOGICAL), (LEFT, COHOMOLOGICAL)):
        for ring in ("Z", "Q"):
            cx = build_complex(monoid, trivial_module(monoid, side), 5,
                               direction, ring=ring)
            for compute in (harrison, harrison_dim_q):
                if compute is harrison and (direction == COHOMOLOGICAL
                                            or ring == "Q"):
                    continue  # integral Harrison groups live on chains
                calls.clear()
                compute(cx)
                if compute is harrison:
                    # no integral group reads the shuffles of the top degree
                    assert len(calls) == len(set(calls))
                    assert set(range(2, 5)) <= set(calls)
                else:
                    # no shuffle operator on a whole degree
                    assert not calls
                    present |= _patterns(cx, range(2, 6))
    # for the four complexes together, one action of each two-block
    # shuffle per multiplicity pattern of degrees 2..5 on cochains (Barr's
    # kernels and their checks) and of degrees 2..4 on chains (the
    # integral groups), and one checked kernel per pattern of degrees 2..4
    actions = gamma_chain._pattern_action.cache_info()
    kernels = gamma_chain._pattern_kernel.cache_info()
    assert {sum(p) for p in present} == set(range(2, 6))
    assert actions.misses == actions.currsize == \
        sum(sum(p) - 1 for p in present) + \
        sum(sum(p) - 1 for p in present if sum(p) < 5)
    assert kernels.misses == kernels.currsize == \
        len({p for p in present if sum(p) < 5})


def _counted_solves(monkeypatch):
    """Record the relation basis and the right-hand side of every solve
    the cone makes."""
    solves = []
    original = gamma_chain.solve_int

    def recorded(lattice, rows, cols):
        solves.append((lattice, cols))
        return original(lattice, rows, cols)

    monkeypatch.setattr(gamma_chain, "solve_int", recorded)
    return solves


def _solved_once_per_relation_degree(sub, solves, degrees):
    """One solve per degree m whose relations S_m the cone reads, of d on
    the columns of S_m into the relation basis of degree m + step."""
    expected = []
    for m in degrees:
        if sub.relation_cols(m):
            low = m + sub.step
            expected.append((
                sub.relation_cols(low) if 0 <= low <= sub.n_max else [],
                _compose_cols(sub.relation_cols(m), sub.d_out(m))))
    assert sorted(map(repr, solves)) == sorted(map(repr, expected))


def test_harrison_chain_solves_once_per_degree(monkeypatch):
    # the shuffle quotient makes no solve of its own: the cone writes d on
    # each degree's shuffle and value relations in the basis one degree
    # down, which checks that the span is closed under the boundary; the
    # top degree's relations are never read
    solves = _counted_solves(monkeypatch)
    monoid = truncated_add(2)
    for coeff in (trivial_module(monoid, RIGHT),
                  std_projective(monoid, 2, RIGHT)):
        cx = build_complex(monoid, coeff, 4, HOMOLOGICAL)
        solves.clear()
        sub = gamma_chain._shuffle_quotient(cx)
        assert not solves
        harrison(cx)
        assert len(solves) == 2
        _solved_once_per_relation_degree(sub, solves, range(cx.n_max))


def test_unclosed_shuffle_span_is_caught(monkeypatch):
    # the identity in place of sh_{1,1} spans all of degree 2, which the
    # boundary does not carry into degree 1's empty shuffle span
    original = gamma_chain.shuffle_element

    def broken(*parts):
        if parts == (1, 1):
            return SymGroupElement.identity(2)
        return original(*parts)

    monkeypatch.setattr(gamma_chain, "shuffle_element", broken)
    for side, direction, ring in ((RIGHT, HOMOLOGICAL, "Z"),
                                  (RIGHT, HOMOLOGICAL, "Q"),
                                  (LEFT, COHOMOLOGICAL, "Q")):
        cx = build_complex(Z2, trivial_module(Z2, side), 3, direction,
                           ring=ring)
        with pytest.raises(NotAComplex, match="degree 2"):
            (harrison if ring == "Z" else harrison_dim_q)(cx)


def _vstack_pair(top_cols, bottom_cols, top_rows):
    """Per-column concatenation of two sparse matrices with equal width,
    yielded one column at a time."""
    for tc, bc in zip(top_cols, bottom_cols):
        col = dict(tc)
        for r, v in bc.items():
            col[top_rows + r] = v
        yield col


def _stacked_rank_harrison_dim_q(cx):
    """Barr's rank formula on whole degrees, the reference of
    harrison_dim_q: rank(delta on V^m) = rank [S_m; delta_m] - rank S_m
    for the stacked two-block shuffles S_m of degree m, and V^m maps into
    V^(m+1) when rank [S_m; S_(m+1) delta_m] = rank S_m."""
    dual = cx.step < 0
    out = []
    st, rows, rank_low = [dict() for _ in range(cx.dims[0])], 0, 0
    for m in range(cx.n_max):
        delta = _transpose_cols(cx.d_in(m), cx.dims[m]) if dual \
            else cx.d_out(m)
        # on chains the antipodes (sigma -> sigma^-1) of the shuffles act
        # by the transposes
        shuffles = [shuffle_element(p, m + 1 - p).terms
                    for p in range(1, m + 1)]
        st_up = _stack_cols(gamma_chain._sym_cols(cx, m + 1, [
            SymGroupElement(m + 1, {gamma_chain._perm_inverse(p) if dual
                                    else p: c for p, c in sh.items()})
            for sh in shuffles]), cx.dims[m + 1])
        rank_st = int_rank(st)
        moved = _compose_cols(delta, st_up)
        if any(moved) and int_rank(_vstack_pair(st, moved, rows)) != rank_st:
            raise NotAComplex("shuffle span is not closed under the"
                              f" differential at degree {m + 1}")
        rank_up = int_rank(_vstack_pair(st, delta, rows)) - rank_st
        if m:
            out.append(cx.dims[m] - rank_st - rank_up - rank_low)
        st, rows, rank_low = st_up, m * cx.dims[m + 1], rank_up
    return out


def test_pattern_kernels_match_the_stacked_ranks():
    # the six suite monoids, truncated_add(3) and semilattice_chain(2), both
    # directions, full and normalized, to degree 5: trivial and projective
    # coefficients on every monoid, jstar:regular on the two monoids the
    # benchmark runs it on
    cases = 0
    monoids = [monoid for _, monoid in suite_monoids()] + [
        truncated_add(3), semilattice_chain(2)]
    for monoid in monoids:
        for side, direction in ((RIGHT, HOMOLOGICAL), (LEFT, COHOMOLOGICAL)):
            coeffs = [trivial_module(monoid, side),
                      std_projective(monoid, monoid.elements[-1], side)]
            if monoid in (Z2, truncated_add(2)):
                coeffs.append(jstar(regular_kc_module(monoid), side))
            for coeff in coeffs:
                for normalized in (False, True):
                    cx = build_complex(monoid, coeff, 5, direction,
                                       ring="Q", normalized=normalized)
                    assert harrison_dim_q(cx) == \
                        _stacked_rank_harrison_dim_q(cx)
                    cases += 1
    assert cases == 72


def test_one_kernel_per_pattern_and_ranks_of_one_degree(monkeypatch):
    # Klein to degree 5, chains and cochains: kernel_basis once per
    # multiplicity pattern of degrees 2..4 (V^5 is not needed) for the
    # process, and each rank is of delta o K_m, on the rows of degree m + 1
    monoid = product_monoid(Z2, Z2).monoid
    asked, kernels, ranks = [], [], []
    pattern_kernel, kernel, rank = (gamma_chain._pattern_kernel,
                                    gamma_chain.kernel_basis,
                                    gamma_chain.int_rank)

    def counted_pattern(pattern):
        asked.append(pattern)
        return pattern_kernel(pattern)

    def counted_kernel(cols, rows):
        kernels.append(asked[-1])
        return kernel(cols, rows)

    def counted_rank(vecs):
        vecs = list(vecs)
        ranks.append(1 + max((r for v in vecs for r in v), default=-1))
        return rank(vecs)

    monkeypatch.setattr(gamma_chain, "_pattern_kernel", counted_pattern)
    monkeypatch.setattr(gamma_chain, "kernel_basis", counted_kernel)
    monkeypatch.setattr(gamma_chain, "int_rank", counted_rank)
    present = set()
    for side, direction in ((RIGHT, HOMOLOGICAL), (LEFT, COHOMOLOGICAL)):
        cx = build_complex(monoid, trivial_module(monoid, side), 5,
                           direction, ring="Q")
        ranks.clear()
        harrison_dim_q(cx)
        present |= _patterns(cx, range(2, 5))
        assert len(ranks) == 5
        assert all(rows <= cx.dims[m + 1] for m, rows in enumerate(ranks))
    assert sorted(kernels) == sorted(present) == sorted(set(asked))


def test_a_wrong_pattern_kernel_is_caught(monkeypatch):
    # a unit vector in place of the first kernel vector is not killed by
    # sh_{1,1} = 1 - (0 1) on the words of pattern (1, 1)
    kernel = gamma_chain.kernel_basis
    monkeypatch.setattr(gamma_chain, "kernel_basis",
                        lambda cols, rows: [{0: 1}] + kernel(cols, rows)[1:])
    cx = build_complex(Z3, trivial_module(Z3, LEFT), 3, COHOMOLOGICAL,
                       ring="Q")
    with pytest.raises(CompositionNonzero, match="pattern") as caught:
        harrison_dim_q(cx)
    assert cli._exit_code(caught.value) == 3


def test_harrison_matches_low_degrees_and_trivial_monoid():
    cx = build_complex(Z2, trivial_module(Z2, RIGHT), 3, HOMOLOGICAL)
    assert harrison(cx)[0] == hochschild(cx, 1)
    tv = build_complex(TRIV, trivial_module(TRIV, RIGHT), 4, HOMOLOGICAL)
    assert harrison(tv) == [groups(0)] * 3


def test_harrison_rational_vanishing_for_group():
    cq = build_complex(Z2, trivial_module(Z2, RIGHT), 5, HOMOLOGICAL,
                       ring="Q")
    assert harrison_dim_q(cq) == [0] * 4


def test_harrison_refuses_ring_q_complexes():
    for side, direction in ((RIGHT, HOMOLOGICAL), (LEFT, COHOMOLOGICAL)):
        cq = build_complex(Z2, trivial_module(Z2, side), 3, direction,
                           ring="Q")
        with pytest.raises(BadParams, match="weight 1 of hodge_decomposition"):
            harrison(cq)


def test_harrison_integer_vs_rational_free_rank():
    for monoid in (Z2, semilattice_chain(1), truncated_add(2)):
        coeff = trivial_module(monoid, RIGHT)
        cz = build_complex(monoid, coeff, 4, HOMOLOGICAL)
        cq = build_complex(monoid, coeff, 4, HOMOLOGICAL, ring="Q")
        assert [g.free_rank for g in harrison(cz)] == harrison_dim_q(cq)
        # over Q the cochain dimensions are those of the chains
        dq = build_complex(monoid, trivial_module(monoid, LEFT), 4,
                           COHOMOLOGICAL, ring="Q")
        assert harrison_dim_q(dq) == harrison_dim_q(cq)


def test_harrison_over_z_differs_on_the_normalized_complex():
    # in degree 4 the quotient by the shuffles of the normalized complex
    # loses torsion that the full complex has, built to degree 5 or 6
    cases = [(Z2, trivial_module(Z2, RIGHT), (5, 6), (2, 2), (2,)),
             (cyclic_group(3), trivial_module(cyclic_group(3), RIGHT),
              (5, 6), (2, 2, 2), (2, 2)),
             (truncated_add(2), jstar(regular_kc_module(truncated_add(2)),
                                      RIGHT), (5,), (2,) * 9, (2,) * 6)]
    for monoid, coeff, tops, full, normalized in cases:
        for top in tops:
            found = [harrison(build_complex(monoid, coeff, top, HOMOLOGICAL,
                                            normalized=flag))[3]
                     for flag in (False, True)]
            assert found == [FgAbGroup(0, full), FgAbGroup(0, normalized)]


def test_integral_harrison_refuses_cochains():
    # integral Harrison groups are computed on chains; over Q the cochain
    # dimensions are weight 1 of hodge_decomposition
    for coeff in (trivial_module(Z2, LEFT), jstar_finite_cyclic(Z2, 4, LEFT)):
        for top in (1, 3):
            cx = build_complex(Z2, coeff, top, COHOMOLOGICAL)
            with pytest.raises(BadParams, match="computed on chains"):
                harrison(cx)


def test_y_exactness_identity_map_passes():
    coeff = jstar_finite_cyclic(Z2, 2, RIGHT)
    hmap = HCModuleMap(coeff, coeff,
                       [IntMatrix.identity(1) for _ in Z2.elements])
    for lam in [(2,), (1, 1)]:
        report = y_exactness_check(hmap, 2, lam)
        assert report.passed and report.witness is None
        assert report.partition == lam


def test_y_exactness_reduction_map():
    source = trivial_module(Z2, RIGHT)
    target = jstar_finite_cyclic(Z2, 2, RIGHT)
    hmap = HCModuleMap(source, target,
                       [IntMatrix.identity(1) for _ in Z2.elements])
    for n, lam in [(2, (2,)), (2, (1, 1)), (3, (2, 1)), (3, (1, 1, 1)),
                   (3, (3,))]:
        report = y_exactness_check(hmap, n, lam)
        assert report.passed, (n, lam, report.detail)


def test_y_exactness_failure_carries_witness():
    coeff = trivial_module(TRIV, RIGHT)
    doubling = HCModuleMap(coeff, coeff, [IntMatrix([[2]])])
    report = y_exactness_check(doubling, 2, (1, 1))
    assert not report.passed
    assert report.witness is not None
    j, vec = report.witness
    assert any(v % 2 for v in vec)
    with pytest.raises(BadParams):
        y_exactness_check(doubling, 2, (1, 2))
    with pytest.raises(BadParams):
        y_exactness_check(doubling, 2, (3,))


def test_young_invariants_are_orbit_sums_and_relations():
    # S_lam permutes the tuples and keeps their products, so the joint
    # kernel modulo the value relations of g - 1, for the transpositions g
    # that generate S_lam, is spanned by the orbit sums and the relations;
    # 117 cases, every partition of n <= 4 (n <= 3 on the Klein group)
    klein = product_monoid(Z2, Z2).monoid
    cases = 0
    for monoid, top in ((Z2, 4), (Z3, 4), (truncated_add(2), 4), (klein, 3)):
        for coeff in (trivial_module(monoid, RIGHT),
                      jstar_finite_cyclic(monoid, 2, RIGHT),
                      jstar_finite_cyclic(monoid, 4, RIGHT)):
            for n in range(1, top + 1):
                cx = build_complex(monoid, coeff, n, HOMOLOGICAL)
                rels, rows = cx.relation_cols(n), cx.dims[n]
                one = tuple(range(n))
                for lam in _partitions(n):
                    gens, start = [], 0
                    for part in lam:
                        for p in range(start, start + part - 1):
                            swap = list(one)
                            swap[p], swap[p + 1] = swap[p + 1], swap[p]
                            gens.append(SymGroupElement(
                                n, {tuple(swap): 1, one: -1}))
                        start += part
                    blocks = [_direct_action_cols(cx, n, g) for g in gens]
                    kernel = preimage_lattice(
                        _stack_cols(blocks, rows),
                        [{b * rows + r: v for r, v in col.items()}
                         for b in range(len(blocks)) for col in rels],
                        rows * len(blocks))
                    sums = gamma_chain._orbit_sums(
                        _term_layout(monoid, coeff, n), coeff.ranks, lam)
                    # each spans the other
                    assert solve_int(sums + rels, rows, kernel) is not None
                    assert solve_int(kernel, rows, sums + rels) is not None
                    cases += 1
    assert cases == 117


def test_y_exactness_builds_no_complex_and_no_action(monkeypatch):
    # the invariants are read off the degree-n term alone
    def refuse(*args, **kwargs):
        raise AssertionError("the check reached a complex, an S_n action"
                             " or a kernel lattice")

    assert not hasattr(gamma_chain, "preimage_lattice")
    monkeypatch.setattr(gamma_chain, "build_complex", refuse)
    monkeypatch.setattr(gamma_chain, "_sym_cols", refuse)
    monkeypatch.setattr(exact_linalg, "preimage_lattice", refuse)
    hmap = HCModuleMap(trivial_module(Z3, RIGHT),
                       jstar_finite_cyclic(Z3, 3, RIGHT),
                       [IntMatrix.identity(1) for _ in Z3.elements])
    for n in range(1, 5):
        for lam in _partitions(n):
            assert y_exactness_check(hmap, n, lam).passed
    coeff = trivial_module(TRIV, RIGHT)
    doubling = HCModuleMap(coeff, coeff, [IntMatrix([[2]])])
    assert y_exactness_check(doubling, 2, (1, 1)).witness == (0, (1,))


def test_y_exactness_budget_comes_before_any_layout(monkeypatch):
    # degrees 0..n of each module count against the default cap, as in
    # build_complex: 3^0 + .. + 3^12 = 797 161 basis elements fit, and
    # 3^13 alone does not
    class LaidOut(Exception):
        pass

    def laid_out(*args):
        raise LaidOut

    monkeypatch.setattr(gamma_chain, "_term_layout", laid_out)
    coeff = trivial_module(Z3, RIGHT)
    hmap = HCModuleMap(coeff, coeff,
                       [IntMatrix.identity(1) for _ in Z3.elements])
    with pytest.raises(ComplexityBudget, match="cap is 1000000"):
        y_exactness_check(hmap, 13, (13,))
    with pytest.raises(LaidOut):
        y_exactness_check(hmap, 12, (12,))
    with pytest.raises(ComplexityBudget):
        build_complex(Z3, coeff, 13, HOMOLOGICAL)


def test_hochschild_failed_solve_is_typed(monkeypatch):
    # the cone's solve of d on the relations
    cx = build_complex(Z2, jstar_finite_cyclic(Z2, 4, RIGHT), 2, HOMOLOGICAL)
    monkeypatch.setattr(gamma_chain, "solve_int", lambda B, rows, C: None)
    with pytest.raises(NotAComplex):
        hochschild(cx, 1)


def test_free_homology_reduces_each_map_once(monkeypatch):
    # a complex with no relations is its own cone, so the maps themselves
    # are reduced; only the rank of the cochain map into the top degree is
    # read, so it goes to int_rank
    reduced = {"rank_and_torsion": [], "int_rank": []}

    def counted(name):
        original = getattr(gamma_chain, name)

        def wrapper(cols, *rows):
            reduced[name].append(id(cols))
            return original(cols, *rows)
        return wrapper

    for name in reduced:
        monkeypatch.setattr(gamma_chain, name, counted(name))
    monoid = truncated_add(2)
    for side, direction in ((RIGHT, HOMOLOGICAL), (LEFT, COHOMOLOGICAL)):
        for normalized in (False, True):
            cx = build_complex(monoid, jstar(regular_kc_module(monoid), side),
                               4, direction, normalized=normalized)
            for seen in reduced.values():
                seen.clear()
            [hochschild(cx, n) for n in range(cx.n_max)]
            top = [id(cx._mats[cx.n_max])] if cx.step > 0 else []
            assert reduced["int_rank"] == top
            assert sorted(reduced["rank_and_torsion"] + top) == sorted(
                id(cx._mats[k]) for k in range(1, cx.n_max + 1))


def test_rational_homology_reduces_each_map_once(monkeypatch):
    reduced = []

    def counted(original):
        def wrapper(cols, *rows):
            reduced.append(id(cols))
            return original(cols, *rows)
        return wrapper

    for name in ("int_rank", "rank_and_torsion"):
        monkeypatch.setattr(gamma_chain, name,
                            counted(getattr(gamma_chain, name)))
    assert cli.main(["compute", "hh", "--monoid", "builtin:truncated_add(2)",
                     "--coeff", "trivialQ", "--max-degree", "4"]) == 0
    assert len(reduced) == len(set(reduced)) == 5


def test_free_homology_takes_no_lattice_path(monkeypatch):
    def forbidden(*args):
        raise AssertionError("lattice routine on free coefficients")

    klein = product_monoid(Z2, Z2).monoid
    complexes = [build_complex(klein, trivial_module(klein, RIGHT), 4,
                               HOMOLOGICAL, normalized=True),
                 build_complex(Z3, std_projective(Z3, 2, LEFT), 4,
                               COHOMOLOGICAL)]
    expected = [[_lattice_homology(cx, n) for n in range(4)]
                for cx in complexes]
    for name in ("smith_normal_form", "solve_int", "homology_at"):
        monkeypatch.setattr(exact_linalg, name, forbidden)
    monkeypatch.setattr(gamma_chain, "solve_int", forbidden)
    assert [[hochschild(cx, n) for n in range(4)]
            for cx in complexes] == expected
    assert expected[0] == [groups(1), groups(0, 2, 2), groups(0, 2),
                           groups(0, 2, 2, 2)]


def test_klein_group_in_degree_seven():
    # Kuenneth: H_7(Z/2 x Z/2; Z) = (Z/2)^5, out of reach of the lattice path
    klein = product_monoid(Z2, Z2).monoid
    cx = build_complex(klein, trivial_module(klein, RIGHT), 8, HOMOLOGICAL,
                       normalized=True)
    assert hochschild(cx, 7) == groups(0, 2, 2, 2, 2, 2)


def test_torsion_cone_solves_once_per_degree(monkeypatch):
    # every degree of Z/4 coefficients has relations; the cone reads S_m
    # for m = 0..n_max - 1 on chains and m = 0..n_max on cochains (its
    # degree -1 is S_0), and solves d on each once, though each map is
    # d_out at one degree and d_in at the next
    solves = _counted_solves(monkeypatch)
    klein = product_monoid(Z2, Z2).monoid
    for side, direction in ((RIGHT, HOMOLOGICAL), (LEFT, COHOMOLOGICAL)):
        cx = build_complex(klein, jstar_finite_cyclic(klein, 4, side), 4,
                           direction)
        solves.clear()
        [hochschild(cx, n) for n in range(cx.n_max)]
        degrees = range(cx.n_max + (cx.step > 0))
        assert len(solves) == len(degrees)
        _solved_once_per_relation_degree(cx, solves, degrees)


def test_y_exactness_disagreeing_solves_are_typed(monkeypatch):
    # a batched solve that fails while every column solves on its own
    solve = gamma_chain.solve_int
    monkeypatch.setattr(gamma_chain, "solve_int",
                        lambda B, rows, C: None if len(C) > 1
                        else solve(B, rows, C))
    hmap = HCModuleMap(trivial_module(Z2, RIGHT),
                       jstar_finite_cyclic(Z2, 2, RIGHT),
                       [IntMatrix.identity(1) for _ in Z2.elements])
    with pytest.raises(OracleMismatch):
        y_exactness_check(hmap, 2, (1, 1))


def test_homology_on_product_monoid_kuenneth_spot_check():
    klein = product_monoid(Z2, Z2).monoid
    cx = build_complex(klein, trivial_module(klein, RIGHT), 3, HOMOLOGICAL)
    assert hochschild(cx, 0) == groups(1)
    assert hochschild(cx, 1) == groups(0, 2, 2)
    assert hochschild(cx, 2) == groups(0, 2)


def _z8_acted_on_by_3(side):
    """Constant Z/8 on Z/2 whose non-identity element acts by 3: 3 * 3 = 9
    is 1 only modulo 8, so the translations compose only modulo the
    relations; and its pullback to the Klein group along a projection."""
    act = {(c, a): IntMatrix([[3 if c else 1]])
           for c in Z2.elements for a in Z2.elements}
    z2 = TabulatedHCModule(side, Z2, [1, 1], act, [IntMatrix([[8]])] * 2)
    pm = product_monoid(Z2, Z2)
    return [(Z2, z2), (pm.monoid, pullback(pm.pi1, z2))]


def test_cone_twists_by_phi_where_translations_compose_modulo_relations():
    for side, direction in ((RIGHT, HOMOLOGICAL), (LEFT, COHOMOLOGICAL)):
        for monoid, coeff in _z8_acted_on_by_3(side):
            assert validate_module(coeff) == []
            for normalized in (False, True):
                cx = build_complex(monoid, coeff, 4, direction,
                                   normalized=normalized)
                # d o d is 8 times a nonzero map, except on the normalized
                # complex of Z/2, whose degrees are one tuple each
                assert bool(cx.phi) == (monoid is not Z2 or not normalized)
                for k, phi in cx.phi.items():
                    assert _compose_cols(phi, cx.relation_cols(k + cx.step)) \
                        == [{r: -v for r, v in col.items()} for col in
                            _compose_cols(cx.d_in(k), cx.d_out(k))]
                assert [hochschild(cx, n) for n in range(4)] == \
                    [_subquotient_homology(cx, n) for n in range(4)]
            if direction == HOMOLOGICAL:
                # Harrison over Z: the shuffle quotient of the chains
                cx = build_complex(monoid, coeff, 4, direction)
                sub = gamma_chain._shuffle_quotient(cx)
                assert sub.phi
                assert harrison(cx) == [_subquotient_homology(sub, n)
                                        for n in range(1, 4)]


def test_every_lattice_group_comes_from_subquotient_group(monkeypatch,
                                                          capsys):
    # homology with relations is the homology of their cone, so Der is the
    # one group left on subquotient_group
    calls = []
    original = exact_linalg.subquotient_group

    def counted(*args):
        calls.append(args[-1])
        return original(*args)

    assert not hasattr(gamma_chain, "subquotient_group")
    for module in (exact_linalg, hc_modules):
        monkeypatch.setattr(module, "subquotient_group", counted)
    for target, degree, expected in (("hh", "2", 0), ("leech", "2", 0),
                                     ("harrison", "3", 0), ("der", "0", 1)):
        calls.clear()
        assert cli.main(["compute", target, "--monoid",
                         "builtin:cyclic_group(2)", "--coeff",
                         "jstar:Zmod4:trivial", "--max-degree", degree]) == 0
        assert len(calls) == expected, target
    capsys.readouterr()
