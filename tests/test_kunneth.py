"""The product path: the direct-factor finder, which coefficient systems
take the tensor product of the factors' Morse complexes, and closed forms
at high degree that neither path computes."""

import json
import time

import pytest

from monhom import cli, gamma_chain
from monhom.errors import CompositionNonzero
from monhom.exact_linalg import FgAbGroup
from monhom.gamma_chain import (COHOMOLOGICAL, HOMOLOGICAL, _factors, _split,
                                hochschild, kunneth_complex, morse_complex)
from monhom.hc_modules import LEFT, RIGHT, constant_module, trivial_module
from monhom.monoids import (cyclic_group, product_monoid, relabel,
                            semilattice_chain, truncated_add)
from monhom.verify import kunneth_monoids

Z2 = cyclic_group(2)
KLEIN = product_monoid(Z2, Z2).monoid

PRODUCTS = [
    ("Z2xZ2", KLEIN, [2, 2]),
    ("Z2xZ3", product_monoid(Z2, cyclic_group(3)).monoid, [2, 3]),
    ("cyclic_group(6)", cyclic_group(6), [2, 3]),
    ("truncated_add(2)xZ2", product_monoid(truncated_add(2), Z2).monoid,
     [2, 3]),
    ("Z4xZ2", product_monoid(cyclic_group(4), Z2).monoid, [2, 4]),
    ("semilattice_chain(1)xZ2",
     product_monoid(semilattice_chain(1), Z2).monoid, [2, 2]),
    ("Z2^3", product_monoid(KLEIN, Z2).monoid, [2, 2, 2]),
]


def _placements(monoid):
    """monoid relabelled once for each index of the identity: the other
    elements keep their order, shifted round past it."""
    size, e = monoid.size, monoid.identity
    for at in range(size):
        yield relabel(monoid, [(x - e + at) % size for x in monoid.elements])


@pytest.mark.parametrize("label,monoid,orders", PRODUCTS,
                         ids=[p[0] for p in PRODUCTS])
def test_the_finder_splits_every_product_wherever_the_identity_is(
        label, monoid, orders):
    for placed in _placements(monoid):
        a, b = _split(placed)
        e = placed.identity
        assert len(a) * len(b) == placed.size
        assert set(a) & set(b) == {e}
        assert {placed.mul(x, y) for x in a for y in b} == \
            set(placed.elements)
        assert sorted(f.size for f in _factors(placed)) == orders


@pytest.mark.parametrize("monoid", [
    cyclic_group(3), cyclic_group(4), truncated_add(3), semilattice_chain(2)],
    ids=["cyclic_group(3)", "cyclic_group(4)", "truncated_add(3)",
         "semilattice_chain(2)"])
def test_the_finder_leaves_indecomposable_monoids_whole(monoid):
    for placed in _placements(monoid):
        assert _split(placed) is None
        assert _factors(placed) == [placed]


def test_the_suite_monoids_have_the_identity_last():
    for _, monoid in kunneth_monoids():
        assert monoid.identity == monoid.size - 1


def _count_reductions(monkeypatch):
    sizes = []
    original = gamma_chain.MorseReduction

    def counted(monoid, *args, **kwargs):
        sizes.append(monoid.size)
        return original(monoid, *args, **kwargs)

    monkeypatch.setattr(gamma_chain, "MorseReduction", counted)
    return sizes


def _monoid_file(tmp_path, monoid):
    path = tmp_path / "monoid.json"
    path.write_text(json.dumps(dict(monoid.to_json(), format="monoid")))
    return str(path)


@pytest.mark.parametrize("target,side", [("hh", RIGHT), ("leech", LEFT)])
def test_only_constant_free_coefficients_take_the_factors(
        monkeypatch, capsys, tmp_path, target, side):
    # torsion and regular coefficients reduce the whole product, as
    # before; constant free ones reduce its two factors.  On a group every
    # projective is Z with identity translations, the trivial module, and
    # takes the factors too; on truncated_add(2) x Z/2 it is not constant.
    klein = _monoid_file(tmp_path, KLEIN)
    sizes = _count_reductions(monkeypatch)
    for coeff, reduced in (("jstar:Zmod4:trivial", [4]),
                           ("jstar:regular", [4]),
                           ("trivialZ", [2, 2]), ("trivialQ", [2, 2]),
                           ("jstar:Z:trivial", [2, 2]),
                           (f"projective:{side}:3", [2, 2])):
        sizes.clear()
        assert cli.main(["compute", target, "--monoid", klein,
                         "--coeff", coeff, "--max-degree", "3"]) == 0
        assert sizes == reduced, coeff
    other = _monoid_file(tmp_path, PRODUCTS[3][1])
    for a in (4, 5):
        sizes.clear()
        assert cli.main(["compute", target, "--monoid", other, "--coeff",
                         f"projective:{side}:{a}", "--max-degree", "3"]) == 0
        assert sizes == [6], a
    capsys.readouterr()


def test_constant_coefficients_of_higher_rank_take_the_factors():
    for direction, side in ((HOMOLOGICAL, RIGHT), (COHOMOLOGICAL, LEFT)):
        coeff = constant_module(KLEIN, side, rank=2)
        product = kunneth_complex(KLEIN, coeff, 5, direction)
        whole = morse_complex(KLEIN, coeff, 5, direction)
        assert [hochschild(product, n) for n in range(5)] == \
            [hochschild(whole, n) for n in range(5)]


def _klein_homology(n):
    """H_n((Z/2)^2; Z) by Kuenneth."""
    if n == 0:
        return FgAbGroup.free(1)
    return FgAbGroup(0, (2,) * ((n + 3) // 2 if n % 2 else n // 2))


def _klein_cohomology(n):
    """H^n((Z/2)^2; Z) by universal coefficients: Z, then 0, then the
    torsion of H_(n-1), since every H_n with n >= 1 is finite."""
    if n == 0:
        return FgAbGroup.free(1)
    return FgAbGroup.trivial() if n == 1 else _klein_homology(n - 1)


def _timed_report(argv, capsys):
    start = time.process_time()
    assert cli.main(argv) == 0
    seconds = time.process_time() - start
    return capsys.readouterr().out.splitlines(), seconds


@pytest.mark.parametrize("target,mark,closed", [
    ("hh", "_", _klein_homology), ("leech", "^", _klein_cohomology)])
def test_klein_to_degree_sixteen_in_closed_form(tmp_path, capsys, target,
                                                mark, closed):
    # the identity at index 3, the far end
    path = _monoid_file(tmp_path, relabel(KLEIN, [3, 0, 1, 2]))
    argv = ["compute", target, "--monoid", path, "--coeff", "trivialZ",
            "--max-degree", "16"]
    # the budget still counts the normalized basis: 3 + 3^2 + ... + 3^17
    assert cli.main(argv) == 2
    capsys.readouterr()
    out, seconds = _timed_report(argv + ["--budget", str(10 ** 9)], capsys)
    assert out == [f"HH{mark}{n} = {closed(n)}" for n in range(17)]
    assert seconds < 0.5


def test_cyclic_group_of_order_six_to_degree_fourteen(capsys):
    out, seconds = _timed_report(
        ["compute", "hh", "--monoid", "builtin:cyclic_group(6)",
         "--coeff", "trivialZ", "--max-degree", "14",
         "--budget", str(10 ** 13)], capsys)
    assert out == ["HH_0 = Z"] + [
        f"HH_{n} = {'Z/6' if n % 2 else '0'}" for n in range(1, 15)]
    assert seconds < 0.5


def test_a_broken_tensor_sign_exits_three(monkeypatch, capsys):
    # without the sign (-1)^p the tensor product is no complex
    real = gamma_chain._tensor_outs

    def unsigned(x, y, step):
        dims, outs = real(x, y, step)
        return dims, [[{r: abs(v) for r, v in col.items()} for col in cols]
                      for cols in outs]

    monkeypatch.setattr(gamma_chain, "_tensor_outs", unsigned)
    with pytest.raises(CompositionNonzero):
        kunneth_complex(KLEIN, trivial_module(KLEIN, RIGHT), 4, HOMOLOGICAL)
    assert cli.main(["compute", "hh", "--monoid", "builtin:cyclic_group(6)",
                     "--max-degree", "3"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "CompositionNonzero"


def test_the_kunneth_suite_catches_a_wrong_factor(monkeypatch, capsys):
    # rank 2 on every factor, not on the first alone, doubles the groups
    real = gamma_chain.constant_module
    monkeypatch.setattr(gamma_chain, "constant_module",
                        lambda monoid, side, rank=1: real(monoid, side, 2))
    assert cli.main(["verify", "kunneth"]) == 3
    out = capsys.readouterr().out
    assert "FAIL kunneth[Z2xZ2]" in out
    assert "OracleMismatch" in out
