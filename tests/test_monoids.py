import pytest

from monhom.codecs import monoid_from_payload, monoid_to_payload
from monhom.errors import BadParams, MonoidLawError
from monhom.monoids import (
    MonoidHom,
    builder,
    cyclic_group,
    product_monoid,
    quotient_set,
    semilattice_chain,
    trivial_monoid,
    truncated_add,
    validate_monoid,
)


def test_cyclic_group_tables():
    c2 = cyclic_group(2)
    assert c2.table == ((0, 1), (1, 0))
    assert c2.identity == 0
    c3 = cyclic_group(3)
    assert c3.mul(2, 2) == 1
    assert trivial_monoid().size == 1


def test_semilattice_chain():
    s = semilattice_chain(1)
    assert s.size == 2
    assert s.mul(1, 1) == 1  # the extra element is idempotent
    assert s.mul(0, 1) == 1


def test_truncated_add():
    t = truncated_add(2)
    assert t.table == ((0, 1, 2), (1, 2, 2), (2, 2, 2))


def test_builder_strings():
    assert builder("cyclic_group(3)") == cyclic_group(3)
    assert builder("trivial") == trivial_monoid()
    assert builder("semilattice_chain(1)") == semilattice_chain(1)
    with pytest.raises(BadParams):
        builder("dihedral(4)")
    with pytest.raises(BadParams):
        builder("cyclic_group(0)")


def test_validate_monoid_witnesses():
    # non-commutative: left projection a*b = a
    with pytest.raises(MonoidLawError) as info:
        validate_monoid(2, 0, [[0, 0], [1, 1]])
    laws = [law for law, _ in info.value.violations]
    assert "NotCommutative" in laws
    wit = dict(info.value.violations)["NotCommutative"]
    assert wit == (0, 1)

    # broken identity
    with pytest.raises(MonoidLawError) as info:
        validate_monoid(2, 0, [[1, 1], [1, 1]])
    assert info.value.violations[0][0] == "BadIdentity"

    # commutative but not associative
    with pytest.raises(MonoidLawError) as info:
        validate_monoid(3, 0, [[0, 1, 2], [1, 0, 0], [2, 0, 1]])
    # (1*1)*2 = 2 but 1*(1*2) = 1
    assert info.value.violations == [("NotAssociative", (1, 1, 2))]
    # the same first witness from a table of tuples
    with pytest.raises(MonoidLawError) as info:
        validate_monoid(3, 0, ((0, 1, 2), (1, 0, 0), (2, 0, 1)))
    assert info.value.violations == [("NotAssociative", (1, 1, 2))]


def test_validate_monoid_bad_params():
    with pytest.raises(BadParams):
        validate_monoid(0, 0, [])
    with pytest.raises(BadParams):
        validate_monoid(2, 0, [[0, 1]])
    with pytest.raises(BadParams):
        validate_monoid(2, 0, [[0, 5], [1, 0]])


def test_quotient_set():
    s = semilattice_chain(1)
    # (e : e) = {1, e}: both 1*e and e*e are e
    assert quotient_set(1, 1, s) == [0, 1]
    c2 = cyclic_group(2)
    assert quotient_set(0, 1, c2) == [1]
    assert quotient_set(1, 1, c2) == [0]
    t = truncated_add(2)
    assert quotient_set(2, 2, t) == [0, 1, 2]
    assert quotient_set(1, 2, t) == []


def test_product_monoid():
    p = product_monoid(semilattice_chain(1), cyclic_group(2))
    c = p.monoid
    assert c.size == 4
    assert c.identity == 0
    # (e, t) * (e, t) = (e, 1)
    et = p.pair(1, 1)
    assert c.mul(et, et) == p.pair(1, 0)
    # injections and projections are homs with the expected composites
    assert p.pi1(p.iota1(1)) == 1
    assert p.pi2(p.iota1(1)) == 0
    assert p.pi2(p.iota2(1)) == 1
    klein = product_monoid(cyclic_group(2), cyclic_group(2)).monoid
    assert klein.mul(1, 2) == 3 and klein.mul(3, 3) == 0


def test_monoid_hom_validation():
    c2, c4 = cyclic_group(2), cyclic_group(4)
    MonoidHom(c2, c4, (0, 2))
    with pytest.raises(BadParams):
        MonoidHom(c2, c4, (0, 1))  # 1+1 = 2 but image says 0
    with pytest.raises(BadParams):
        MonoidHom(c2, c4, (1, 2))


def test_json_round_trip():
    for m in (cyclic_group(3), truncated_add(2), semilattice_chain(2)):
        assert monoid_from_payload(monoid_to_payload(m)) == m


def test_product_of_each_suite_pair_is_valid():
    suite = [trivial_monoid(), cyclic_group(2), cyclic_group(3),
             semilattice_chain(1), truncated_add(2)]
    for a in suite:
        for b in suite:
            p = product_monoid(a, b)
            assert p.monoid.size == a.size * b.size
