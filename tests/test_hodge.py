"""Eulerian idempotents: algebra identities, eigenvector property, and
weight decompositions cross-checked against rank arithmetic."""

import json
import random
from math import factorial

import pytest

from monhom import cli, exact_linalg, gamma_chain, hodge, verify
from monhom.errors import BadParams, NotAnnihilated, WeightNotPreserved
from monhom.exact_linalg import int_rank
from monhom.gamma_chain import (
    COHOMOLOGICAL,
    HOMOLOGICAL,
    MorseReduction,
    SymGroupElement,
    _compose_cols,
    build_complex,
    harrison_dim_q,
    hochschild_dim_q,
)
from monhom.hc_modules import (
    LEFT,
    RIGHT,
    jstar,
    jstar_finite_cyclic,
    regular_kc_module,
    std_projective,
    trivial_module,
)
from monhom.hodge import (
    HodgeProjectorSet,
    eulerian_idempotents,
    hodge_decomposition,
    morse_hodge,
    total_shuffle_operator,
)
from monhom.monoids import (
    cyclic_group,
    product_monoid,
    semilattice_chain,
    trivial_monoid,
    truncated_add,
)
from monhom.verify import suite_monoids


def test_total_shuffle_operator_small():
    assert total_shuffle_operator(1).is_zero()
    s2 = total_shuffle_operator(2)
    assert s2.terms == {(0, 1): 1, (1, 0): -1}
    s3 = total_shuffle_operator(3)
    assert len(s3.terms) == 5
    assert s3.terms[(0, 1, 2)] == 2
    with pytest.raises(BadParams):
        total_shuffle_operator(0)


def test_eulerian_idempotents_small():
    ps1 = eulerian_idempotents(1)
    assert ps1.projectors == (SymGroupElement.identity(1),)
    # the integral elements 2!*e^(i)
    ps2 = eulerian_idempotents(2)
    assert ps2[1].terms == {(0, 1): 1, (1, 0): 1}
    assert ps2[2].terms == {(0, 1): 1, (1, 0): -1}
    with pytest.raises(BadParams):
        ps2[3]
    with pytest.raises(BadParams):
        eulerian_idempotents(0)
    with pytest.raises(BadParams):
        eulerian_idempotents(6)


def test_products_in_z_sn_stop_at_the_projector_cap(process_caches):
    # the composition table of S_5 has 14 400 entries, that of S_6 would
    # have 518 400: a product on six letters is refused before it is built
    assert hodge.PROJECTOR_CAP == gamma_chain.PROJECTOR_CAP == 5
    s5, s6 = total_shuffle_operator(5), total_shuffle_operator(6)
    assert not s5.mul(s5).is_zero()
    assert gamma_chain._sym_index.cache_info().currsize == 1
    refused = r"Z\[S_6\] is above the projector cap"
    with pytest.raises(BadParams, match=refused):
        s6.mul(s6)
    with pytest.raises(BadParams, match=refused):
        SymGroupElement.identity(6).mul(s6)
    # the one table kept is that of S_5
    assert gamma_chain._sym_index.cache_info().currsize == 1
    assert gamma_chain._sym_index(5)[2][0] == tuple(range(120))
    assert gamma_chain._sym_index.cache_info().currsize == 1


def test_projector_identities_up_to_degree_five():
    for n in range(1, 6):
        assert eulerian_idempotents(n).identity_violations() == []


def test_projectors_are_shuffle_eigenvectors():
    for n in range(2, 5):
        s = total_shuffle_operator(n)
        for i, e in enumerate(eulerian_idempotents(n), start=1):
            lam = 2 ** i - 2
            assert s.mul(e) == e.scale(lam)
            assert e.mul(s) == e.scale(lam)


def test_violations_reported_for_broken_set():
    e = SymGroupElement.identity(2).scale(3)
    bad = HodgeProjectorSet(2, (e, e))
    names = bad.identity_violations()
    assert any("idempotent" in x for x in names)
    assert any("sum" in x for x in names)


def test_swapped_weights_fail_only_the_eigenvalue_identity():
    # E_2 and E_3 swapped are still orthogonal idempotents summing to 3!*1;
    # only s_3*E_i = (2^i - 2)*E_i tells the weights apart
    e1, e2, e3 = eulerian_idempotents(3)
    names = HodgeProjectorSet(3, (e1, e3, e2)).identity_violations()
    assert names == ["e^(2) is not a 2-eigenvector of s_3",
                     "e^(3) is not a 6-eigenvector of s_3"]


def test_corrupted_closed_form_is_caught_at_construction(monkeypatch):
    # without the signs the sum is still n!*1 but no eigenvalue identity holds
    monkeypatch.setattr(hodge, "perm_sign", lambda perm: 1)
    hodge._eulerian.cache_clear()
    try:
        with pytest.raises(NotAnnihilated, match="eigenvector"):
            eulerian_idempotents(3)
    finally:
        hodge._eulerian.cache_clear()


def test_hodge_validation(monkeypatch, capsys):
    # torsion-valued coefficients are refused before any action is built;
    # free ones give the same weights on a complex of either ring
    monoid = cyclic_group(2)
    torsion = build_complex(monoid, jstar_finite_cyclic(monoid, 4, RIGHT), 3,
                            HOMOLOGICAL)
    acted = []
    with monkeypatch.context() as patched:
        patched.setattr(hodge, "_shuffle_cols",
                        lambda *args: acted.append(args))
        with pytest.raises(BadParams, match="free-valued coefficients"):
            hodge_decomposition(torsion)
    assert acted == []
    cz, cq = (build_complex(monoid, trivial_module(monoid, RIGHT), 3,
                            HOMOLOGICAL, ring=ring) for ring in ("Z", "Q"))
    assert hodge_decomposition(cz) == hodge_decomposition(cq) == [[0], [0, 0]]
    # no projector cap: s_6 acts on degree 6, and the budget bounds the
    # complex before any tuple is laid out
    above_cap = build_complex(cyclic_group(2),
                              trivial_module(cyclic_group(2), RIGHT), 6,
                              HOMOLOGICAL, ring="Q", normalized=True)
    assert hodge_decomposition(above_cap) == [[0] * n for n in range(1, 6)]
    laid_out = []
    monkeypatch.setattr(gamma_chain, "_term_layout",
                        lambda *args: laid_out.append(args))
    assert cli.main(["compute", "hodge", "--monoid", "builtin:cyclic_group(2)",
                     "--coeff", "trivialQ", "--max-degree", "6",
                     "--budget", "7"]) == 2
    assert "ComplexityBudget" in capsys.readouterr().err
    assert laid_out == []


def test_weights_sum_and_match_totals():
    mons = [trivial_monoid(), cyclic_group(2), semilattice_chain(1),
            truncated_add(2)]
    for monoid in mons:
        cq = build_complex(monoid, trivial_module(monoid, RIGHT), 4,
                           HOMOLOGICAL, ring="Q")
        weights = hodge_decomposition(cq)
        assert len(weights) == 3
        for n, dims in enumerate(weights, start=1):
            assert len(dims) == n
            assert all(d >= 0 for d in dims)
            assert sum(dims) == hochschild_dim_q(cq, n)
        dq = build_complex(monoid, trivial_module(monoid, LEFT), 4,
                           COHOMOLOGICAL, ring="Q")
        for n, dims in enumerate(hodge_decomposition(dq), start=1):
            assert sum(dims) == hochschild_dim_q(dq, n)


def test_weight_one_piece_equals_harrison():
    # weight 1 on the normalized complex, as every rational Harrison answer
    # is computed, against Barr's shuffle kernel on the full complex
    rng = random.Random(22)
    mons = [monoid for _, monoid in suite_monoids()] + [
        truncated_add(3),
        product_monoid(cyclic_group(2), semilattice_chain(1)).monoid]
    for monoid in mons:
        a = rng.choice(monoid.elements)
        for direction, side in ((HOMOLOGICAL, RIGHT), (COHOMOLOGICAL, LEFT)):
            for coeff in (trivial_module(monoid, side),
                          jstar(regular_kc_module(monoid), side),
                          std_projective(monoid, a, side)):
                full, normal = (build_complex(monoid, coeff, 4, direction,
                                              ring="Q", normalized=flag)
                                for flag in (False, True))
                assert [w[0] for w in hodge_decomposition(normal)] == \
                    harrison_dim_q(full)


def test_harrison_reference_shares_no_weight_engine(monkeypatch):
    # the reference of weight 1 runs with the weight engine and the pivot
    # reduction it rests on refusing every call, on complexes that have
    # ranked no map yet
    monoid = product_monoid(cyclic_group(2), cyclic_group(2)).monoid

    def complexes():
        return [build_complex(monoid, trivial_module(monoid, side), 5,
                              direction, ring="Q")
                for direction, side in ((HOMOLOGICAL, RIGHT),
                                        (COHOMOLOGICAL, LEFT))]

    expected = [harrison_dim_q(cx) for cx in complexes()]

    def refuse(*args, **kwargs):
        raise AssertionError("the Harrison reference reached the weights")

    for module, name in ((hodge, "hodge_decomposition"),
                         (hodge, "total_shuffle_operator"),
                         (hodge, "_degree_weights"),
                         (hodge, "_checked"),
                         (exact_linalg, "PivotReduction"),
                         (gamma_chain, "PivotReduction")):
        monkeypatch.setattr(module, name, refuse)
    assert [harrison_dim_q(cx) for cx in complexes()] == expected


def test_harrison_reference_reads_the_low_ranks_off_the_complex(
        monkeypatch):
    # verify hodge: hodge_decomposition ranks the map the weights do not
    # reduce once per complex (12 complexes), and harrison_dim_q takes the
    # ranks of the maps out of degrees 0 and 1 from the complex, so it
    # calls int_rank only on delta o K_m, m = 2..4: 3 times per complex,
    # where it called it 5 times, besides one certificate rank per
    # pattern table (_pattern_shuffles) built for the process
    calls, inside = [], []
    rank, harrison = gamma_chain.int_rank, verify.harrison_dim_q

    def counted(vecs):
        calls.append(bool(inside))
        return rank(vecs)

    def flagged(cx):
        inside.append(cx)
        try:
            return harrison(cx)
        finally:
            inside.pop()

    monkeypatch.setattr(gamma_chain, "int_rank", counted)
    monkeypatch.setattr(verify, "harrison_dim_q", flagged)
    assert all(result.passed for result in verify.check_hodge())
    tables = gamma_chain._pattern_shuffles.cache_info().misses
    assert tables
    assert (calls.count(True) - tables, calls.count(False)) == (36, 12)


def test_a_total_of_zero_is_counted_too(monkeypatch, capsys):
    # H_1 of truncated_add(2) with regular coefficients is Q, read as 0:
    # the cycle count runs at h = 0 as at every degree, so the Morse
    # weights do not come out as [0]
    total = hodge.hochschild_dim_q
    monkeypatch.setattr(hodge, "hochschild_dim_q",
                        lambda cx, n: 0 if n == 1 else total(cx, n))
    monoid = truncated_add(2)
    red = MorseReduction(monoid, jstar(regular_kc_module(monoid), RIGHT), 3,
                         HOMOLOGICAL, ring="Q", transfer=True)
    with pytest.raises(WeightNotPreserved,
                       match="independent modulo the boundaries"):
        morse_hodge(red)
    assert cli.main(["compute", "hodge", "--monoid",
                     "builtin:truncated_add(2)", "--coeff", "jstar:regular",
                     "--max-degree", "2"]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == {
        "type": "WeightNotPreserved",
        "message": "1 cycles independent modulo the boundaries in degree 1,"
                   " where the total is 0"}


def test_weights_of_regular_coefficients():
    # Z[C] is Z x Z[x]/(x^m), whose rational homology in degree n >= 1 is
    # Q^(m-1), all of it in weight ceil(n/2)
    for m in (2, 3):
        monoid = truncated_add(m)
        cx = build_complex(monoid, jstar(regular_kc_module(monoid), RIGHT), 6,
                           HOMOLOGICAL, ring="Q", normalized=True)
        assert hodge_decomposition(cx) == [
            [m - 1 if i == (n + 1) // 2 else 0 for i in range(1, n + 1)]
            for n in range(1, 6)]


def test_sym_action_is_integral():
    # the shuffle products and the idempotents' direct action
    cx = build_complex(cyclic_group(3), trivial_module(cyclic_group(3), RIGHT),
                       3, HOMOLOGICAL, ring="Q")
    for n in range(1, 4):
        acted = hodge._shuffle_cols(cx, n, [tuple(range(1, n))]) + [
            verify._direct_action_cols(cx, n, e)
            for e in eulerian_idempotents(n)]
        for cols in acted:
            assert all(type(v) is int for col in cols for v in col.values())


def test_rational_compute_targets_build_no_element_of_z_sn(monkeypatch,
                                                         capsys):
    # compute hodge, harrison over Q and grillet on truncated_add(3) with
    # jstar:regular to degree 10 act by the shuffle product alone: no
    # direct sum over permutations, no s_n, no composition table of S_n
    permuted = []
    monkeypatch.setattr(verify, "_permuted", lambda *args: permuted.append(
        args))
    for target in (["hodge"], ["harrison", "--ring", "Q"], ["grillet"]):
        assert cli.main(["compute", *target, "--monoid",
                         "builtin:truncated_add(3)", "--coeff",
                         "jstar:regular", "--max-degree", "10", "--budget",
                         "10000000000"]) == 0
        assert len(capsys.readouterr().out.splitlines()) >= 10
    assert permuted == []
    assert hodge.total_shuffle_operator.cache_info().currsize == 0
    assert gamma_chain._sym_index.cache_info().currsize == 0
    assert gamma_chain._block_shuffle.cache_info().currsize == 0


def test_each_projector_action_is_built_once(monkeypatch):
    # compute hodge transfers s_m alone, once per degree 1..4, to the h
    # Morse cycles of that degree, and never acts on a tuple layout; the
    # tuple reference acts once, with s_m alone, on each degree 1..4
    transfers, acted = [], []
    transfer = gamma_chain.MorseReduction.transfer

    def counted_transfer(red, m, cycles):
        transfers.append((m, len(cycles)))
        return transfer(red, m, cycles)

    def counted(cx, n, batch):
        acted.append((n, batch))
        return gamma_chain._shuffle_cols(cx, n, batch)

    monkeypatch.setattr(gamma_chain.MorseReduction, "transfer",
                        counted_transfer)
    monkeypatch.setattr(hodge, "_shuffle_cols", counted)
    assert cli.main(["compute", "hodge", "--monoid", "builtin:truncated_add(2)",
                     "--coeff", "jstar:regular", "--max-degree", "4"]) == 0
    assert transfers == [(m, 1) for m in range(1, 5)]
    assert acted == []
    monoid = truncated_add(2)
    cx = build_complex(monoid, trivial_module(monoid, RIGHT), 4, HOMOLOGICAL,
                       ring="Q")
    hodge_decomposition(cx)
    assert sorted(acted) == [(m, [tuple(range(1, m))]) for m in range(1, 5)]


def test_non_commuting_projector_is_caught(monkeypatch):
    # the identity in place of s_2 on degree 2 does not commute with d_3
    original = gamma_chain._split_shuffles

    def broken(t, splits, memo):
        if len(t) == 2:
            return {t: 1}
        return original(t, splits, memo)

    monkeypatch.setattr(gamma_chain, "_split_shuffles", broken)
    monoid = truncated_add(2)
    cx = build_complex(monoid, trivial_module(monoid, RIGHT), 4, HOMOLOGICAL,
                       ring="Q")
    with pytest.raises(WeightNotPreserved, match="does not commute"):
        hodge_decomposition(cx)


def test_weights_that_miss_the_total_are_caught(monkeypatch):
    original = hodge.hochschild_dim_q
    monkeypatch.setattr(hodge, "hochschild_dim_q",
                        lambda cx, n: original(cx, n) + 1)
    monoid = cyclic_group(2)
    cx = build_complex(monoid, trivial_module(monoid, RIGHT), 3, HOMOLOGICAL,
                       ring="Q")
    with pytest.raises(WeightNotPreserved,
                       match="independent modulo the boundaries"):
        hodge_decomposition(cx)


def test_cycle_counts_that_miss_the_total_are_caught(monkeypatch):
    # a total one short fails the count dim Z_n - rank B_n; a kernel basis
    # of the right size that holds no cycle class runs out of
    # representatives before the h-th
    monoid = truncated_add(2)
    cx = build_complex(monoid, jstar(regular_kc_module(monoid), RIGHT), 3,
                       HOMOLOGICAL, ring="Q", normalized=True)
    total, kernel = hodge.hochschild_dim_q, hodge.kernel_basis
    for name, patched in (
            ("hochschild_dim_q", lambda cx, n: total(cx, n) - 1),
            ("kernel_basis", lambda cols, rows: [
                {} for _ in kernel(cols, rows)])):
        with monkeypatch.context() as patch:
            patch.setattr(hodge, name, patched)
            with pytest.raises(WeightNotPreserved,
                               match="independent modulo the boundaries"):
                hodge_decomposition(cx)


def test_weights_that_do_not_add_up_are_caught(monkeypatch):
    # one eigenvalue's rank one short: weight 1 of degree 3, where H_3 is
    # all weight 2 and s_3 has rank 1 on it, gains a dimension, which the
    # cycle count does not see and the weight sum does
    original = hodge._representatives

    def corrupted(cx, n, h, boundaries):
        found = original(cx, n, h, boundaries)
        if n == 3:
            rank, short = boundaries.rank_modulo, [1]
            boundaries.rank_modulo = lambda reduced: rank(reduced) - (
                short.pop() if short else 0)
        return found

    monkeypatch.setattr(hodge, "_representatives", corrupted)
    monoid = truncated_add(2)
    cx = build_complex(monoid, jstar(regular_kc_module(monoid), RIGHT), 4,
                       HOMOLOGICAL, ring="Q", normalized=True)
    with pytest.raises(WeightNotPreserved, match="weight dimensions"
                       r" \[1, 1, 0\] do not add up to the total in degree 3"):
        hodge_decomposition(cx)


def test_weights_act_on_homology_representatives_only(monkeypatch):
    # each boundary map eliminated by columns once, by PivotReduction
    # where its boundaries are reduced and by int_rank where only its rank
    # is read, and s_n composed with h cycles beyond the two compositions
    # of the commutation check
    eliminated, composed = [], []
    maps = {}
    original_reduction, original_rank, original_compose = (
        gamma_chain.PivotReduction, gamma_chain.int_rank, hodge._compose_cols)

    def reduction(vecs, size):
        eliminated.append(("pivots", maps.get(id(vecs))))
        return original_reduction(vecs, size)

    def rank(vecs):
        eliminated.append(("rank", maps.get(id(vecs))))
        return original_rank(vecs)

    def compose(first, second):
        composed.append(len(first))
        return original_compose(first, second)

    monoid = truncated_add(3)
    complexes = [build_complex(monoid, jstar(regular_kc_module(monoid), side),
                               5, direction, ring="Q", normalized=True)
                 for side, direction in ((RIGHT, HOMOLOGICAL),
                                         (LEFT, COHOMOLOGICAL))]
    monkeypatch.setattr(gamma_chain, "PivotReduction", reduction)
    monkeypatch.setattr(gamma_chain, "int_rank", rank)
    monkeypatch.setattr(hodge, "_compose_cols", compose)
    monkeypatch.setattr(hodge, "eulerian_idempotents", None)
    for module in (exact_linalg, gamma_chain):
        monkeypatch.setattr(module, "lattice_basis", None)
    for cx in complexes:
        # the map between degrees k - 1 and k, known by its columns
        maps.clear()
        maps.update((id(cx.d_in(k if cx.step > 0 else k - 1)), k)
                    for k in range(1, 6))
        eliminated.clear()
        composed.clear()
        assert hodge_decomposition(cx) == [
            [2 if i == (n + 1) // 2 else 0 for i in range(1, n + 1)]
            for n in range(1, 5)]
        # chains reduce the maps into degrees 1..4 and read the rank of
        # the map out of degree 1 after the first; cochains reduce one map
        # ahead and read the rank of the map into degree 5
        if cx.step < 0:
            assert eliminated == [("pivots", 2), ("rank", 1)] + [
                ("pivots", k) for k in range(3, 6)]
        else:
            assert eliminated == [("pivots", k) for k in range(1, 5)] + [
                ("rank", 5)]
            continue
        # commutation on the maps out of degrees 1..5, then the weights of
        # degrees 1..4 after the maps around them are checked: s_n on the
        # h = 2 representatives, and d on their images, which must be cycles
        checks = [[cx.dims[m]] * 2 for m in range(1, 6)]
        assert composed == checks[0] + [x for m in range(1, 5)
                                        for x in checks[m] + [2, 2]]


def _projector_weights(cx):
    """The weights through the Eulerian projectors: on degree n, weight i
    is trace(E_i)/n! minus the ranks of d o E_i on the maps leaving degree
    n and entering it, with E_i = n!*e^(i) and E_i = 0 above degree n."""
    def on(m, i):
        if not 1 <= i <= m:
            return [dict() for _ in range(cx.dims[m])]
        return verify._direct_action_cols(cx, m, eulerian_idempotents(m)[i])

    def restricted_rank(src, i):
        return int_rank(_compose_cols(on(src, i), cx.d_out(src)))

    return [[sum(col.get(j, 0) for j, col in enumerate(on(n, i)))
             // factorial(n)
             - restricted_rank(n, i) - restricted_rank(n - cx.step, i)
             for i in range(1, n + 1)]
            for n in range(1, cx.n_max)]


def test_weights_match_the_projector_route():
    for _, monoid in suite_monoids():
        for direction, side in ((HOMOLOGICAL, RIGHT), (COHOMOLOGICAL, LEFT)):
            for coeff in (trivial_module(monoid, side),
                          jstar(regular_kc_module(monoid), side)):
                for normalized in (False, True):
                    cx = build_complex(monoid, coeff, 4, direction, ring="Q",
                                       normalized=normalized)
                    assert hodge_decomposition(cx) == _projector_weights(cx)


def _cached(fn, keys):
    """fn at each key, every one a hit of its process cache."""
    misses = fn.cache_info().misses
    values = [fn(*key) for key in keys]
    assert fn.cache_info().misses == misses
    return values


def test_warm_tables_give_the_cold_answers_and_stay_unchanged(
        process_caches):
    # Klein to degree 5, chains and cochains: the reference weights, Barr's
    # kernel and the Morse weights, with every table built in the run and
    # then read from the caches; each table read back must equal a fresh
    # build, so no caller changed what it was handed
    klein = product_monoid(cyclic_group(2), cyclic_group(2)).monoid
    cases = []
    for direction, side in ((HOMOLOGICAL, RIGHT), (COHOMOLOGICAL, LEFT)):
        coeff = trivial_module(klein, side)
        cases.append((build_complex(klein, coeff, 5, direction, ring="Q"),
                      MorseReduction(klein, coeff, 5, direction, ring="Q",
                                     transfer=True)))

    def answers():
        return [(hodge_decomposition(cx), harrison_dim_q(cx),
                 morse_hodge(red)) for cx, red in cases]

    cold = answers()
    assert answers() == cold
    multiplicities = {
        m: {tuple(sorted((t.count(a) for a in set(t)), reverse=True))
            for t in cases[0][0].tuples_at(m)} for m in range(1, 6)}
    keys = {
        gamma_chain._pattern_words: [
            (p,) for m in range(1, 6) for p in multiplicities[m]],
        # s_m, which both directions read; the two-block shuffles are read
        # into the pattern tables of Barr's kernels and not kept
        gamma_chain._pattern_product: [
            (pattern, tuple(range(1, m))) for m in range(1, 6)
            for pattern in multiplicities[m]],
        gamma_chain._pattern_shuffles: [
            (p,) for m in range(2, 6) for p in multiplicities[m]],
    }
    # no element of Z[S_n] serves a weight path
    assert set(process_caches) - set(keys) == {
        gamma_chain._sym_index, gamma_chain._block_shuffle,
        hodge.total_shuffle_operator, hodge._eulerian}
    assert not any(fn.cache_info().currsize
                   for fn in set(process_caches) - set(keys))
    assert all(fn.cache_info().misses for fn in keys)
    warm = {fn: _cached(fn, fn_keys) for fn, fn_keys in keys.items()}
    for fn in process_caches:
        fn.cache_clear()
    for fn, fn_keys in keys.items():
        assert warm[fn] == [fn(*key) for key in fn_keys], fn.__name__
    assert answers() == cold
