"""Degree-0 groups, char-0 dimensions, and the two algebra oracles."""

import json

import pytest

from monhom import verify
from monhom.errors import BadParams
from monhom.exact_linalg import FgAbGroup
from monhom.gamma_chain import COHOMOLOGICAL, HOMOLOGICAL, MorseReduction
from monhom.grillet import (
    bar_complex_compare,
    d0_cohomology,
    d0_homology,
    grillet_char0,
    grillet_report,
    kaehler_compare,
)
from monhom.hc_modules import (
    LEFT,
    RIGHT,
    jstar_finite_cyclic,
    regular_kc_module,
    std_projective,
    trivial_kc_module,
    trivial_module,
)
from monhom.hodge import morse_hodge
from monhom.monoids import (
    cyclic_group,
    product_monoid,
    semilattice_chain,
    trivial_monoid,
    truncated_add,
)

Z2 = cyclic_group(2)
Z3 = cyclic_group(3)
TRIV = trivial_monoid()
SUITE = [TRIV, Z2, Z3, semilattice_chain(1), truncated_add(2),
         product_monoid(cyclic_group(2), cyclic_group(2)).monoid]


def test_d0_homology_values():
    assert d0_homology(TRIV, trivial_module(TRIV, RIGHT)) == FgAbGroup.trivial()
    assert d0_homology(Z2, trivial_module(Z2, RIGHT)) == FgAbGroup(0, (2,))
    assert d0_homology(Z2, std_projective(Z2, 1, RIGHT)) == FgAbGroup(0, (2,))
    assert d0_homology(Z3, trivial_module(Z3, RIGHT)) == FgAbGroup(0, (3,))
    with pytest.raises(BadParams):
        d0_homology(Z2, trivial_module(Z2, LEFT))


def test_d0_homology_all_suite_pairs():
    for monoid in SUITE:
        for coeff in (trivial_module(monoid, RIGHT),
                      std_projective(monoid, monoid.elements[-1], RIGHT),
                      jstar_finite_cyclic(monoid, 4, RIGHT)):
            d0_homology(monoid, coeff)


def test_d0_cohomology_values():
    assert d0_cohomology(TRIV, trivial_module(TRIV, LEFT)) == \
        FgAbGroup.trivial()
    assert d0_cohomology(Z2, jstar_finite_cyclic(Z2, 4, LEFT)) == \
        FgAbGroup(0, (2,))
    assert d0_cohomology(Z2, trivial_module(Z2, LEFT)) == FgAbGroup.trivial()
    assert d0_cohomology(Z3, jstar_finite_cyclic(Z3, 3, LEFT)) == \
        FgAbGroup(0, (3,))
    with pytest.raises(BadParams):
        d0_cohomology(Z2, trivial_module(Z2, RIGHT))


def test_d0_cohomology_all_suite_pairs():
    for monoid in SUITE:
        for coeff in (trivial_module(monoid, LEFT),
                      jstar_finite_cyclic(monoid, 6, LEFT)):
            d0_cohomology(monoid, coeff)


def test_char0_matches_rationalized_degree_zero():
    for monoid in SUITE:
        coeff = trivial_module(monoid, RIGHT)
        exact = d0_homology(monoid, coeff)
        assert grillet_char0(monoid, coeff, 0, HOMOLOGICAL) == exact.free_rank
        left = trivial_module(monoid, LEFT)
        exact = d0_cohomology(monoid, left)
        assert grillet_char0(monoid, left, 0, COHOMOLOGICAL) == \
            exact.free_rank


def test_char0_group_acyclicity():
    for monoid in (Z2, Z3):
        for n in range(4):
            assert grillet_char0(monoid, trivial_module(monoid, RIGHT), n,
                                 HOMOLOGICAL) == 0
    for n in range(3):
        assert grillet_char0(TRIV, trivial_module(TRIV, RIGHT), n,
                             HOMOLOGICAL) == 0


def test_group_acyclicity_reads_every_degree_off_one_reduction(monkeypatch):
    # the suite's degree-0 checks build four reductions per monoid (d0 and
    # grillet_char0, each direction); the acyclicity check one per group
    # and direction, Z/2 and Z/3 both ways and the Klein group on chains,
    # not one per degree
    built, counts = [], {}
    init, guarded = MorseReduction.__init__, verify._guarded

    def counted(red, *args, **kwargs):
        built.append(args[3])
        init(red, *args, **kwargs)

    def one_body(name, anchor, fn):
        built.clear()
        result = guarded(name, anchor, fn)
        counts[name] = list(built)
        return result

    monkeypatch.setattr(MorseReduction, "__init__", counted)
    monkeypatch.setattr(verify, "_guarded", one_body)
    assert all(result.passed for result in verify.check_grillet())
    assert counts.pop("grillet[group-acyclicity]") == [
        HOMOLOGICAL, COHOMOLOGICAL] * 2 + [HOMOLOGICAL]
    assert len(counts) == 6
    assert all(sorted(directions) == [COHOMOLOGICAL] * 2 + [HOMOLOGICAL] * 2
               for directions in counts.values())


def test_group_acyclicity_reports_the_first_degree_that_fails(monkeypatch):
    # chains of Z/2 off in degree 2 and its cochains in degree 1: the
    # degrees are checked in order, chains before cochains in each
    def skewed(red):
        bad = 2 if red.complex.step < 0 else 1
        return [[1] + w[1:] if n == bad else w
                for n, w in enumerate(morse_hodge(red))]

    monkeypatch.setattr(verify, "morse_hodge", skewed)
    result = verify.check_grillet()[-1]
    assert result.name == "grillet[group-acyclicity]" and not result.passed
    assert result.detail == "MonhomError: Z/2 cochain side, degree 1"


def test_grillet_report_shape():
    rep = grillet_report(Z2, trivial_module(Z2, RIGHT), HOMOLOGICAL, 2)
    entries = rep.entries()
    assert entries[0] == {"degree": 0, "group": FgAbGroup(0, (2,)).to_json(),
                          "path": "exact"}
    assert [e["path"] for e in entries] == ["exact", "char0", "char0"]
    payload = json.dumps(entries, sort_keys=True)
    assert json.dumps(grillet_report(
        Z2, trivial_module(Z2, RIGHT), HOMOLOGICAL, 2).entries(),
        sort_keys=True) == payload
    with pytest.raises(BadParams):
        grillet_report(Z2, trivial_module(Z2, RIGHT), "diagonal", 1)


def test_kaehler_compare_trivial_and_z2():
    rep = kaehler_compare(TRIV)
    assert rep.passed and rep.group == FgAbGroup.trivial()
    rep = kaehler_compare(Z2)
    assert rep.passed
    assert rep.group == FgAbGroup(0, (2, 2))
    repq = kaehler_compare(Z2, ring="Q")
    assert repq.passed and repq.group == FgAbGroup.free(0)
    with pytest.raises(BadParams):
        kaehler_compare(Z2, ring="R")


def test_kaehler_compare_whole_suite_both_rings():
    for monoid in SUITE:
        for ring in ("Z", "Q"):
            rep = kaehler_compare(monoid, ring=ring)
            assert rep.passed, (monoid.size, ring, rep.detail)


def test_bar_compare_trivial_monoid():
    rep = bar_complex_compare(TRIV, trivial_kc_module(TRIV), 3)
    assert rep.passed
    assert rep.homology == (FgAbGroup.free(1), FgAbGroup.trivial(),
                            FgAbGroup.trivial())


def test_bar_compare_group_homology():
    rep = bar_complex_compare(Z2, trivial_kc_module(Z2), 4)
    assert rep.passed
    assert rep.boundary_match == (True,) * 4
    assert rep.homology == (FgAbGroup.free(1), FgAbGroup(0, (2,)),
                            FgAbGroup.trivial(), FgAbGroup(0, (2,)))
    rep3 = bar_complex_compare(Z3, trivial_kc_module(Z3), 4)
    assert rep3.passed
    assert rep3.homology == (FgAbGroup.free(1), FgAbGroup(0, (3,)),
                             FgAbGroup.trivial(), FgAbGroup(0, (3,)))


def test_bar_compare_regular_coefficients():
    semi = semilattice_chain(1)
    rep = bar_complex_compare(semi, regular_kc_module(semi), 3)
    assert rep.passed
    rep2 = bar_complex_compare(Z2, regular_kc_module(Z2), 3)
    assert rep2.passed
    # degree 1 with regular coefficients is the differentials module of
    # the monoid algebra, already pinned down by the Kaehler oracle
    assert rep2.homology[1] == kaehler_compare(Z2).group
    assert rep2.homology[1] == FgAbGroup(0, (2, 2))
    with pytest.raises(BadParams):
        bar_complex_compare(Z2, trivial_kc_module(Z2), 5)
