"""Module layer: tabulated and presented modules, tensor, derivations."""

import random

import pytest

from monhom import exact_linalg
from monhom.errors import BadParams, NotAComplex
from monhom.exact_linalg import FgAbGroup, IntMatrix
from monhom.gamma_chain import leech_cohomology
from monhom.hc_modules import (
    LEFT,
    RIGHT,
    HCModuleMap,
    PresentedHCModule,
    TabulatedHCModule,
    boxtimes,
    constant_module,
    derivations,
    hom_from_presented,
    jstar,
    jstar_finite_cyclic,
    omega,
    pullback,
    regular_kc_module,
    std_projective,
    tabulate_presented,
    tensor_over_hc,
    trivial_module,
    validate_module,
)
from monhom.monoids import (
    cyclic_group,
    product_monoid,
    quotient_set,
    semilattice_chain,
    trivial_monoid,
    truncated_add,
)

SMALL = [trivial_monoid(), cyclic_group(2), cyclic_group(3),
         semilattice_chain(1), truncated_add(2)]


def test_std_projective_valid_and_shapes():
    for mon in SMALL:
        for a in mon.elements:
            for side in (LEFT, RIGHT):
                P = std_projective(mon, a, side)
                assert validate_module(P) == []
                if side == LEFT:
                    assert P.ranks[a] >= 1  # identity translator
    P = std_projective(cyclic_group(2), 1, LEFT)
    assert P.ranks == (1, 1)
    assert P.act[(1, 0)] == IntMatrix([[1]], 1)


def test_constant_and_jstar_finite_cyclic():
    mon = cyclic_group(2)
    M4 = jstar_finite_cyclic(mon, 4, LEFT)
    assert validate_module(M4) == []
    assert M4.value_group(0) == FgAbGroup(0, (4,))
    with pytest.raises(BadParams):
        jstar_finite_cyclic(mon, 1, LEFT)
    T = trivial_module(mon, RIGHT)
    assert validate_module(T) == []
    assert T.value_group(1) == FgAbGroup.free(1)


def test_validate_module_witnesses():
    mon = cyclic_group(2)
    M = constant_module(mon, LEFT, rank=1, rel_columns=[[4]])
    acts = dict(M.act)
    acts[(1, 0)] = IntMatrix([[3]], 1)
    broken = TabulatedHCModule(LEFT, mon, M.ranks, acts, M.rels)
    labels = {law for law, _ in validate_module(broken)}
    assert "Composition" in labels

    acts = dict(M.act)
    acts[(0, 1)] = IntMatrix([[2]], 1)
    broken = TabulatedHCModule(LEFT, mon, M.ranks, acts, M.rels)
    assert ("IdentityAction", (1,)) in validate_module(broken)

    rels = (IntMatrix([[2]], 1), IntMatrix([[4]], 1))
    mixed = TabulatedHCModule(LEFT, mon, (1, 1), dict(M.act), rels)
    assert ("RelationsNotPreserved", (1, 0)) in validate_module(mixed)

    acts = {k: v for k, v in M.act.items() if k != (1, 1)}
    assert ("Shape", (1, 1)) in validate_module(
        TabulatedHCModule(LEFT, mon, (1, 1), acts))


def test_omega_tabulation_on_order_two_group():
    mon = cyclic_group(2)
    tab = tabulate_presented(omega(mon))
    assert validate_module(tab) == []
    assert tab.ranks == (2, 2)
    assert tab.basis_labels[0] == (("d0", 0), ("d1", 1))
    assert tab.basis_labels[1] == (("d0", 1), ("d1", 0))
    for x in mon.elements:
        assert tab.value_group(x) == FgAbGroup(0, (2,))


def test_omega_tabulation_on_order_three_group():
    tab = tabulate_presented(omega(cyclic_group(3)))
    assert validate_module(tab) == []
    for x in range(3):
        assert tab.value_group(x) == FgAbGroup(0, (3,))


def test_omega_on_trivial_monoid_vanishes():
    tab = tabulate_presented(omega(trivial_monoid()))
    assert tab.value_group(0) == FgAbGroup.trivial()


def test_tensor_collapses_representables():
    for mon in SMALL:
        for a in mon.elements:
            Ca = std_projective(mon, a, RIGHT)
            for b in mon.elements:
                Cb = std_projective(mon, b, LEFT)
                got = tensor_over_hc(Ca, Cb)
                want = FgAbGroup.free(len(quotient_set(a, b, mon)))
                assert got == want, (mon, a, b, str(got), str(want))


def test_tensor_with_representable_reads_off_value():
    for mon in (cyclic_group(2), cyclic_group(3)):
        tab = tabulate_presented(omega(mon))
        for a in mon.elements:
            Ca = std_projective(mon, a, RIGHT)
            assert tensor_over_hc(Ca, tab) == tab.value_group(a)


def test_tensor_presented_matches_tabulated():
    for mon in SMALL:
        w = omega(mon)
        tab = tabulate_presented(w)
        N = trivial_module(mon, RIGHT)
        assert tensor_over_hc(N, w) == tensor_over_hc(N, tab)


def test_trivial_tensor_omega_groups():
    assert tensor_over_hc(trivial_module(cyclic_group(2), RIGHT),
                          omega(cyclic_group(2))) == FgAbGroup(0, (2,))
    assert tensor_over_hc(trivial_module(cyclic_group(3), RIGHT),
                          omega(cyclic_group(3))) == FgAbGroup(0, (3,))
    sem = semilattice_chain(1)
    got = tensor_over_hc(trivial_module(sem, RIGHT), omega(sem))
    assert got.free_rank == 0


def test_derivations_constant_targets():
    mon = cyclic_group(2)
    assert derivations(mon, trivial_module(mon, LEFT)) == FgAbGroup.trivial()
    assert derivations(mon, jstar_finite_cyclic(mon, 4, LEFT)) \
        == FgAbGroup(0, (2,))
    assert derivations(mon, jstar_finite_cyclic(mon, 2, LEFT)) \
        == FgAbGroup(0, (2,))
    mon3 = cyclic_group(3)
    assert derivations(mon3, jstar_finite_cyclic(mon3, 4, LEFT)) \
        == FgAbGroup.trivial()
    assert derivations(mon3, jstar_finite_cyclic(mon3, 3, LEFT)) \
        == FgAbGroup(0, (3,))


def test_derivations_failed_solve_is_typed(monkeypatch):
    mon = cyclic_group(2)
    monkeypatch.setattr(exact_linalg, "solve_int",
                        lambda B, rows, C: None)
    with pytest.raises(NotAComplex):
        derivations(mon, jstar_finite_cyclic(mon, 4, LEFT))


def test_derivations_semilattice_free_values():
    sem = semilattice_chain(1)
    # delta(1) = delta(1*1) = 2 delta(1) forces delta(1) = 0; delta(0) = 0.
    assert derivations(sem, trivial_module(sem, LEFT)) == FgAbGroup.trivial()
    tr = truncated_add(2)
    assert derivations(tr, trivial_module(tr, LEFT)) == FgAbGroup.trivial()


def test_universal_property_of_differentials():
    # Der(C, M) = Hom(Omega_C, M) is the degree-1 cohomology of the
    # cochain complex, which shares no code with the presentation of Omega.
    for mon in SMALL:
        coeffs = [trivial_module(mon, LEFT),
                  jstar_finite_cyclic(mon, 4, LEFT),
                  jstar(regular_kc_module(mon), LEFT)]
        coeffs += [std_projective(mon, a, LEFT) for a in mon.elements]
        for M in coeffs:
            der = derivations(mon, M)
            assert der == leech_cohomology(mon, M, 1), (mon.size, str(der))


def test_hom_rejects_module_over_another_monoid():
    Z2, Z3 = cyclic_group(2), cyclic_group(3)
    with pytest.raises(BadParams, match="different monoids"):
        derivations(Z2, trivial_module(Z3, LEFT))
    with pytest.raises(BadParams, match="different monoids"):
        hom_from_presented(omega(Z3), jstar_finite_cyclic(Z2, 4, LEFT))


def test_derivations_split_over_products():
    for m1, m2 in [(cyclic_group(2), cyclic_group(2)),
                   (cyclic_group(2), cyclic_group(3))]:
        prod = product_monoid(m1, m2)
        for M, M1, M2 in [
            (jstar_finite_cyclic(prod.monoid, 4, LEFT),
             jstar_finite_cyclic(m1, 4, LEFT),
             jstar_finite_cyclic(m2, 4, LEFT)),
            (trivial_module(prod.monoid, LEFT),
             trivial_module(m1, LEFT), trivial_module(m2, LEFT)),
        ]:
            whole = derivations(prod.monoid, M)
            parts = derivations(m1, M1).direct_sum(derivations(m2, M2))
            assert whole == parts, (str(whole), str(parts))


def test_pullback_restricts_constant_to_constant():
    prod = product_monoid(cyclic_group(2), cyclic_group(3))
    M = jstar_finite_cyclic(prod.monoid, 4, LEFT)
    M1 = pullback(prod.iota1, M)
    assert validate_module(M1) == []
    assert M1.ranks == (1, 1)
    assert M1.value_group(0) == FgAbGroup(0, (4,))


def test_boxtimes_matches_product_representable():
    pairs = [(cyclic_group(2), cyclic_group(2)),
             (cyclic_group(2), cyclic_group(3)),
             (semilattice_chain(1), truncated_add(2))]
    for m1, m2 in pairs:
        prod = product_monoid(m1, m2)
        for side in (LEFT, RIGHT):
            for a1 in m1.elements:
                for a2 in m2.elements:
                    ext = boxtimes(std_projective(m1, a1, side),
                                   std_projective(m2, a2, side),
                                   product=prod)
                    direct = std_projective(prod.monoid,
                                            prod.pair(a1, a2), side)
                    assert ext.ranks == direct.ranks
                    assert ext.act == direct.act


def test_hom_ranks_collapse_on_representables():
    # Yoneda: maps out of one free generator of degree a pick an element of
    # M(a); on M = C(b, -) that is the quotient set (a : b).
    for mon in SMALL:
        for a in mon.elements:
            free = PresentedHCModule(mon, (("g", a),), ())
            for b in mon.elements:
                got = hom_from_presented(free, std_projective(mon, b, LEFT))
                assert got == FgAbGroup.free(len(quotient_set(a, b, mon)))
            assert hom_from_presented(free, jstar_finite_cyclic(mon, 4, LEFT)) \
                == FgAbGroup(0, (4,))


def test_module_map_naturality_check():
    mon = cyclic_group(2)
    Ce = std_projective(mon, 0, LEFT)
    T = trivial_module(mon, LEFT)
    HCModuleMap(Ce, T, (IntMatrix([[1]], 1), IntMatrix([[1]], 1)))
    sign_const = TabulatedHCModule(
        LEFT, mon, (1, 1),
        {(0, 0): IntMatrix([[1]], 1), (0, 1): IntMatrix([[1]], 1),
         (1, 0): IntMatrix([[-1]], 1), (1, 1): IntMatrix([[-1]], 1)})
    assert validate_module(sign_const) == []
    with pytest.raises(BadParams):
        HCModuleMap(T, sign_const, (IntMatrix([[1]], 1), IntMatrix([[1]], 1)))


def test_jstar_of_regular_is_valid_everywhere():
    for mon in SMALL:
        M = jstar(regular_kc_module(mon), LEFT)
        assert validate_module(M) == []
        assert M.ranks == tuple([mon.size] * mon.size)


def test_random_pullback_along_product_projections():
    rng = random.Random(20240811)
    prod = product_monoid(cyclic_group(2), cyclic_group(3))
    M = jstar(regular_kc_module(cyclic_group(3)), LEFT)
    back = pullback(prod.pi2, M)
    assert validate_module(back) == []
    for _ in range(20):
        c = rng.randrange(prod.monoid.size)
        a = rng.randrange(prod.monoid.size)
        assert back.act[(c, a)] == M.act[(prod.pi2(c), prod.pi2(a))]
