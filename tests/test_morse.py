"""The Morse complex of a rewriting system: Brown's matching, its critical
cells, and the (co)homology it gives against the normalized complex and
against closed forms at high degree."""

import itertools
import json
import random
import tracemalloc
from math import comb

import pytest

from monhom import cli, gamma_chain, verify
from monhom.errors import (BadParams, NotAComplex, OracleMismatch,
                           WeightNotPreserved)
from monhom.exact_linalg import FgAbGroup
from monhom.gamma_chain import (COHOMOLOGICAL, HOMOLOGICAL, MorseReduction,
                                SymGroupElement, _critical_cells, _face_tuple,
                                build_complex, hochschild, morse_complex)
from monhom.hc_modules import (LEFT, RIGHT, jstar, jstar_finite_cyclic,
                               regular_kc_module, std_projective,
                               trivial_module)
from monhom.hodge import hodge_decomposition, morse_hodge
from monhom.monoids import (FiniteCommMonoid, cyclic_group, product_monoid,
                            relabel, semilattice_chain, truncated_add)
from monhom.rewriting import Rewriting, rewriting
from monhom.verify import suite_monoids

Z2 = cyclic_group(2)
KLEIN = product_monoid(Z2, Z2).monoid
Z2_CUBED = product_monoid(KLEIN, Z2).monoid

MONOIDS = suite_monoids() + [
    ("truncated_add(3)", truncated_add(3)),
    ("semilattice_chain(2)", semilattice_chain(2)),
    ("cyclic_group(6)", cyclic_group(6)),
    ("Z/2 x semilattice_chain(1)",
     product_monoid(Z2, semilattice_chain(1)).monoid),
    ("(Z/2)^3", Z2_CUBED),
]


def _coefficients(monoid, side):
    return [("trivialZ", trivial_module(monoid, side)),
            ("projective", std_projective(monoid, monoid.elements[-1], side)),
            ("jstar:Zmod4:trivial", jstar_finite_cyclic(monoid, 4, side)),
            ("jstar:regular", jstar(regular_kc_module(monoid), side))]


@pytest.mark.parametrize("label,monoid", MONOIDS, ids=[m[0] for m in MONOIDS])
def test_morse_groups_match_the_normalized_complex(label, monoid):
    # degrees 0..3, and 0..2 where the normalized complex is large
    top = 4 if monoid.size <= 4 else 3
    for direction, side in ((HOMOLOGICAL, RIGHT), (COHOMOLOGICAL, LEFT)):
        for name, coeff in _coefficients(monoid, side):
            normal = build_complex(monoid, coeff, top, direction,
                                   normalized=True)
            morse = morse_complex(monoid, coeff, top, direction)
            for n in range(top):
                assert hochschild(morse, n) == hochschild(normal, n), \
                    (label, direction, name, n)


def _cells(monoid, n):
    letters = [a for a in monoid.elements if a != monoid.identity]
    return itertools.product(letters, repeat=n)


def _critical_counts(rw, n_max):
    """The number of critical cells in degrees 1..n_max: walks that start
    at a letter and pass from p to q where rw.step(p, q) is None."""
    e = rw.monoid.identity
    counts = [0] * rw.monoid.size
    for x in rw.letters:
        counts[x] = 1
    out = [len(rw.letters)]
    for _ in range(1, n_max):
        nxt = [0] * rw.monoid.size
        for p, c in enumerate(counts):
            if c:
                for q in rw.monoid.elements:
                    if q != e and rw.step(p, q) is None:
                        nxt[q] += c
        counts = nxt
        out.append(sum(counts))
    return out


@pytest.mark.parametrize("label,monoid", MONOIDS, ids=[m[0] for m in MONOIDS])
def test_the_matching_is_an_involution_through_an_interior_face(label,
                                                                monoid):
    rw = rewriting(monoid)
    counts = []
    for n in range(1, 6):
        critical = 0
        for t in _cells(monoid, n):
            pair = rw.match(t)
            if pair is None:
                critical += 1
                continue
            partner, k = pair
            assert rw.match(partner) == (t, k), (t, partner)
            low, high = sorted((t, partner), key=len)
            assert len(high) == len(low) + 1
            assert 0 < k < len(high)
            assert _face_tuple(high, k, monoid)[0] == low
        counts.append(critical)
    assert counts == _critical_counts(rw, 5)
    assert counts == [len(c) for c in _critical_cells(rw, 5)[1:]]


def test_critical_counts_in_closed_form():
    degrees = range(1, 9)
    assert _critical_counts(rewriting(KLEIN), 8) == [n + 1 for n in degrees]
    assert _critical_counts(rewriting(Z2_CUBED), 8) == \
        [comb(n + 2, 2) for n in degrees]
    for monoid in (cyclic_group(6), truncated_add(3)):
        assert _critical_counts(rewriting(monoid), 8) == [1] * 8
    for k in (1, 2, 3):
        # every element of a semilattice is a letter: nothing collapses
        rw = rewriting(semilattice_chain(k))
        assert not rw.collapses
        assert _critical_counts(rw, 8) == [k ** n for n in degrees]
    # with gf before g, {g, gf} would give 2^n cells
    z2_f = product_monoid(Z2, semilattice_chain(1)).monoid
    assert _critical_counts(rewriting(z2_f), 5) == [2, 3, 4, 5, 6]
    assert _critical_counts(Rewriting(z2_f, (3, 2)), 5) == [2, 4, 8, 16, 32]
    # Z/3 x semilattice_chain(1) with g^2 labelled 2 and g labelled 4: gf
    # (3) and then g^2 reach everything, and {g^2, gf} gives more cells
    # than {f, g^2}, which replacing gf by its power f (1) gives
    z3_f = relabel(product_monoid(cyclic_group(3),
                                  semilattice_chain(1)).monoid,
                   (0, 1, 4, 3, 2, 5))
    assert _critical_counts(Rewriting(z3_f, (2, 3)), 5) == [2, 5, 11, 26, 59]
    rw = rewriting(z3_f)
    assert rw.letters == (1, 2)
    assert _critical_counts(rw, 5) == [2, 3, 4, 5, 6]


class _Counted(FiniteCommMonoid):
    """A monoid that counts its multiplications."""

    __slots__ = ("calls",)

    def __init__(self, monoid):
        super().__init__(monoid.size, monoid.identity, monoid.table)
        self.calls = 0

    def mul(self, a, b):
        self.calls += 1
        return self.table[a][b]


def _chain(m):
    """semilattice_chain(m), whose table is not checked again."""
    return FiniteCommMonoid(m + 1, 0, [[max(a, b) for b in range(m + 1)]
                                       for a in range(m + 1)])


def test_choosing_the_letters_costs_a_few_squares_of_the_order():
    # a large semilattice: every element indecomposable, nothing collapses
    assert _chain(3) == semilattice_chain(3)
    chain = _Counted(_chain(200))
    assert not rewriting(chain).collapses
    assert chain.calls <= 3 * chain.size ** 2
    # (Z/2)^6 and a product with a semilattice: many elements, few letters
    big = Z2_CUBED
    for _ in range(3):
        big = product_monoid(big, Z2).monoid
    for monoid in (big, product_monoid(big, semilattice_chain(1)).monoid):
        counted = _Counted(monoid)
        assert len(rewriting(counted).letters) == 6 + (monoid != big)
        assert counted.calls <= 3 * counted.size ** 2


def test_hh_on_a_large_semilattice_is_the_normalized_complex():
    monoid = _chain(200)
    cx = morse_complex(monoid, trivial_module(monoid, RIGHT), 1, HOMOLOGICAL)
    assert cx.dims == (1, 200)
    assert hochschild(cx, 0) == FgAbGroup.free(1)
    with pytest.raises(BadParams, match="no tuple layouts"):
        cx.tuples_at(1)


def _groups(cx, top):
    return [hochschild(cx, n) for n in range(top + 1)]


def test_klein_homology_to_degree_ten():
    # Kuenneth: H_n(Z/2 x Z/2) is (Z/2)^((n+3)/2) in odd degrees and
    # (Z/2)^(n/2) in positive even ones
    cx = morse_complex(KLEIN, trivial_module(KLEIN, RIGHT), 11, HOMOLOGICAL,
                       budget=10 ** 9)
    expected = [FgAbGroup.free(1)] + [
        FgAbGroup(0, (2,) * ((n + 3) // 2 if n % 2 else n // 2))
        for n in range(1, 11)]
    assert _groups(cx, 10) == expected


def test_truncated_add_with_regular_coefficients_to_degree_eight():
    # Z[C] = Z x Z[x]/(x^3): Z^4, then Z^2 + Z/3 in odd degrees and Z^2 in
    # positive even ones
    monoid = truncated_add(3)
    cx = morse_complex(monoid, jstar(regular_kc_module(monoid), RIGHT), 9,
                       HOMOLOGICAL, budget=10 ** 9)
    expected = [FgAbGroup.free(4)] + [
        FgAbGroup(2, (3,)) if n % 2 else FgAbGroup.free(2)
        for n in range(1, 9)]
    assert _groups(cx, 8) == expected


def test_cyclic_group_of_order_six_to_degree_nine():
    monoid = cyclic_group(6)
    cx = morse_complex(monoid, trivial_module(monoid, RIGHT), 10,
                       HOMOLOGICAL, budget=10 ** 9)
    expected = [FgAbGroup.free(1)] + [
        FgAbGroup(0, (6,)) if n % 2 else FgAbGroup.trivial()
        for n in range(1, 10)]
    assert _groups(cx, 9) == expected
    # on cochains the torsion moves up one degree
    cx = morse_complex(monoid, trivial_module(monoid, LEFT), 10,
                       COHOMOLOGICAL, budget=10 ** 9)
    assert _groups(cx, 8) == [FgAbGroup.free(1)] + [
        FgAbGroup.trivial() if n % 2 else FgAbGroup(0, (6,))
        for n in range(1, 9)]


class _Forced(Rewriting):
    """The matching of semilattice_chain(1), where nothing collapses, with
    (e) forced onto (e, e): all three faces of (e, e) land on (e)."""

    __slots__ = ()
    collapses = True

    def match(self, t):
        if t == (1,):
            return (1, 1), 1
        if t == (1, 1):
            return (1,), 1
        return super().match(t)


def test_a_matched_face_that_is_not_alone_raises(monkeypatch, capsys):
    monoid = semilattice_chain(1)
    monkeypatch.setattr(gamma_chain, "rewriting",
                        lambda m: _Forced(m, (1,)))
    with pytest.raises(NotAComplex, match="not the only face"):
        morse_complex(monoid, trivial_module(monoid, RIGHT), 3, HOMOLOGICAL)
    assert cli.main(["compute", "hh", "--monoid",
                     "builtin:semilattice_chain(1)", "--max-degree", "2"]) \
        == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "NotAComplex"


def test_the_budget_counts_the_normalized_basis_before_any_cell(monkeypatch,
                                                                capsys):
    classified = []

    def recorded(monoid):
        classified.append(monoid)
        return rewriting(monoid)

    monkeypatch.setattr(gamma_chain, "rewriting", recorded)
    # 1 + 2 + ... + 64 = 127 tuples of Z/3 without the identity through
    # degree 6, over a budget of 100
    assert cli.main(["compute", "hh", "--monoid", "builtin:cyclic_group(3)",
                     "--max-degree", "5", "--budget", "100"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ComplexityBudget"
    assert classified == []
    assert cli.main(["compute", "leech", "--monoid",
                     "builtin:cyclic_group(3)", "--max-degree", "5"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "HH^5 = 0"
    assert len(classified) == 1


WEIGHED = [
    ("cyclic_group(6)", cyclic_group(6), 5),
    # the normalized complex of (Z/2)^3 has 16807 tuples in degree 5
    ("(Z/2)^3", Z2_CUBED, 4),
    ("truncated_add(3)", truncated_add(3), 5),
    ("Z/2 x semilattice_chain(1)",
     product_monoid(Z2, semilattice_chain(1)).monoid, 5),
    ("truncated_add(2) x truncated_add(1)",
     product_monoid(truncated_add(2), truncated_add(1)).monoid, 5),
]


@pytest.mark.parametrize("label,monoid,top", WEIGHED,
                         ids=[m[0] for m in WEIGHED])
def test_morse_weights_match_the_tuple_weights_after_relabelling(label,
                                                                 monoid,
                                                                 top):
    # pi s_n iota on the Morse complex against s_n on the normalized
    # complex, with the letters and the identity at other labels
    rng = random.Random(27)
    perm = list(monoid.elements)
    rng.shuffle(perm)
    monoid = relabel(monoid, perm)
    for direction, side in ((HOMOLOGICAL, RIGHT), (COHOMOLOGICAL, LEFT)):
        a = rng.choice([x for x in monoid.elements if x != monoid.identity])
        coeffs = [trivial_module(monoid, side),
                  std_projective(monoid, a, side)]
        if monoid.size <= 4:
            coeffs.append(jstar(regular_kc_module(monoid), side))
        for coeff in coeffs:
            red = MorseReduction(monoid, coeff, top, direction, ring="Q",
                                 transfer=True)
            normal = build_complex(monoid, coeff, top, direction, ring="Q",
                                   normalized=True)
            assert morse_hodge(red) == hodge_decomposition(normal), \
                (label, direction, a)


HODGE = ["compute", "hodge", "--monoid", "builtin:truncated_add(3)",
         "--coeff", "jstar:regular", "--max-degree", "4"]


def test_a_corrupted_phi_memo_exits_three(monkeypatch, capsys):
    # phi of every cell that the flows reach, negated while the Morse
    # differential reads it, breaks d o d; phi of the first critical cell
    # doubled in the memo kept for the transfer breaks pi o iota = 1
    grow, init = gamma_chain._Flow.grow, gamma_chain.MorseReduction.__init__

    def negated(flow, high, starts=()):
        known = len(flow.rows)
        cols = grow(flow, high, starts)
        for row in flow.rows[known:]:
            for r in row:
                row[r] = -row[r]
        return cols

    def doubled(red, *args, **kwargs):
        init(red, *args, **kwargs)
        for flow in red._flows.values():
            flow.rows[0] = {0: 2}

    assert cli.main(HODGE) == 0
    capsys.readouterr()
    for name, patched, error, message in (
            ("grow", negated, "CompositionNonzero",
             "double (co)boundary is nonzero around degree 2"),
            ("__init__", doubled, "WeightNotPreserved",
             "pi o iota moves a Morse cycle of degree 1")):
        with monkeypatch.context() as patch:
            owner = gamma_chain._Flow if name == "grow" else \
                gamma_chain.MorseReduction
            patch.setattr(owner, name, patched)
            assert cli.main(HODGE) == 3
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"type": error, "message": message}


def test_a_corrupted_lift_exits_three(monkeypatch, capsys):
    # the lift loses the last partner it adds: no longer a cycle
    lift = gamma_chain.MorseReduction.lift

    def corrupted(red, m, z):
        chain = lift(red, m, z)
        if len(chain) > len(z):
            del chain[list(chain)[-1]]
        return chain

    monkeypatch.setattr(gamma_chain.MorseReduction, "lift", corrupted)
    assert cli.main(HODGE) == 3
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == {"type": "WeightNotPreserved", "message": "the lift of a"
                   " Morse cycle of degree 2 is no cycle"}


def test_grillet_reads_its_weights_over_q(monkeypatch, capsys):
    # the degree-1 check keeps its integral group, on the maps out of
    # degrees 1 and 2; the weights read every Morse map's rank over Q, each
    # map in one elimination by columns
    calls = []
    for name in ("rank_and_torsion", "int_rank", "PivotReduction"):
        def counted(*args, _name=name, _original=getattr(gamma_chain, name)):
            calls.append(_name)
            return _original(*args)
        monkeypatch.setattr(gamma_chain, name, counted)
    assert cli.main(["compute", "grillet", "--monoid",
                     "builtin:truncated_add(2)", "--coeff", "trivialZ",
                     "--max-degree", "3"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "degree 0 (exact): 0", "degree 1 (char0): 0", "degree 2 (char0): 0",
        "degree 3 (char0): 0"]
    # maps 2..5 reduced where the weights read their boundaries, map 1's
    # rank read once
    assert sorted(calls) == ["PivotReduction"] * 4 + ["int_rank"] + [
        "rank_and_torsion"] * 2


def test_the_chains_of_a_reduction_are_assembled_once(monkeypatch):
    # Klein with trivialZ and the projective: one Morse complex and one
    # normalized complex per system, and on cochains one ring-Q chain
    # complex, read by morse_hodge and again by the transfer-map check
    calls, counts = [], {}
    assemble, guarded = gamma_chain._assemble, verify._guarded

    def counted(*args):
        calls.append(args[2])
        return assemble(*args)

    def one_body(name, anchor, fn):
        calls.clear()
        result = guarded(name, anchor, fn)
        counts[name] = list(calls)
        return result

    monkeypatch.setattr(gamma_chain, "_assemble", counted)
    monkeypatch.setattr(verify, "_guarded", one_body)
    monkeypatch.setattr(verify, "suite_monoids", lambda: [("Klein", KLEIN)])
    assert all(result.passed for result in verify.check_morse())
    directions = counts["morse[weights:Klein]"]
    assert directions.count(HOMOLOGICAL) == 2 * 2 + 2
    assert directions.count(COHOMOLOGICAL) == 2 * 2
    red = MorseReduction(KLEIN, trivial_module(KLEIN, LEFT), 4, COHOMOLOGICAL)
    assert red.chains() is red.chains() is not red.complex


def test_the_morse_suite_checks_the_transfer_on_every_critical_cell(
        monkeypatch):
    red = MorseReduction(KLEIN, trivial_module(KLEIN, RIGHT), 5, HOMOLOGICAL,
                         ring="Q", transfer=True)
    verify._check_transfer_maps(red)
    lift = MorseReduction.lift
    with monkeypatch.context() as patch:
        # iota doubled: pi o iota = 2, on the critical cells of degree 1,
        # where the Morse differential is 0
        patch.setattr(MorseReduction, "lift", lambda red, m, z: {
            key: 2 * v for key, v in lift(red, m, z).items()})
        with pytest.raises(WeightNotPreserved, match="pi o iota moves a Morse"
                           " cycle of degree 1"):
            verify._check_transfer_maps(red)
    # iota losing the last partner it adds in degree 3 is caught on the
    # first critical cell whose lift has a partner: no cycle, so d iota
    # differs from iota d_M there
    def corrupted(red, m, z):
        x = lift(red, m, z)
        if m == 3 and len(x) > len(z):
            del x[list(x)[-1]]
        return x

    with monkeypatch.context() as patch:
        patch.setattr(MorseReduction, "lift", corrupted)
        with pytest.raises(WeightNotPreserved, match="d o iota is not iota o"
                           " d_M on a Morse chain of degree 3"):
            verify._check_transfer_maps(red)
    # the first two letters swapped in place of s_n, in the transfer alone,
    # differs from pi of the direct sum over the permutations of s_n
    monkeypatch.setattr(gamma_chain, "_split_shuffles", lambda t, splits, memo:
                        {t[1::-1] + t[2:]: 1})
    with pytest.raises(OracleMismatch, match="the transfer of s_1 differs"):
        verify._check_transfer_maps(red)
    # and with the oracle swapping them too, that transposition is no chain
    # map on the Klein group
    monkeypatch.setattr(verify, "total_shuffle_operator", lambda n: (
        SymGroupElement(n, {(1, 0) + tuple(range(2, n)): 1}) if n > 1
        else SymGroupElement.identity(1)))
    with pytest.raises(WeightNotPreserved, match="boundary from degree 3"
                       " does not commute with the total shuffle operator"):
        verify._check_transfer_maps(red)


def test_the_transfer_acts_on_the_lifted_tuples_alone(capsys):
    # compute hodge to degree 10 reads no pattern table: the 6 patterns
    # that its 112 distinct lifted tuples meet hold 6342 words, and acting
    # on all of them takes about 80 MB
    tracemalloc.start()
    try:
        assert cli.main(["compute", "hodge", "--monoid",
                         "builtin:truncated_add(3)", "--coeff",
                         "jstar:regular", "--max-degree", "10", "--budget",
                         "10000000000"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(capsys.readouterr().out.splitlines()) == 10
    assert gamma_chain._pattern_product.cache_info().currsize == 0
    assert gamma_chain._pattern_words.cache_info().currsize == 0
    assert peak <= 8 * 2 ** 20


PROJECTED = [("Klein", KLEIN), ("truncated_add(3)", truncated_add(3)),
             ("cyclic_group(6)", cyclic_group(6))]


@pytest.mark.parametrize("label,monoid", PROJECTED,
                         ids=[m[0] for m in PROJECTED])
def test_pi_is_a_chain_map_on_every_normalized_cell(label, monoid):
    # pi(d t) = d_M pi(t) for every normalized cell t of degrees 1..4:
    # most cells are met by no flow of the differential, so project
    # follows the flows from them first
    for coeff in (trivial_module(monoid, RIGHT),
                  jstar(regular_kc_module(monoid), RIGHT)):
        red = MorseReduction(monoid, coeff, 4, HOMOLOGICAL, transfer=True)
        d_m = red.complex
        for n in range(1, 5):
            for t in _cells(monoid, n):
                for j in range(coeff.ranks[monoid.product(t)]):
                    down = red.project(n - 1, gamma_chain._chain_boundary(
                        monoid, red.act, {(t, j): 1}))
                    image = red.project(n, {(t, j): 1})
                    want = {}
                    for r, v in image.items():
                        gamma_chain._add_into(want, d_m.d_out(n)[r], v)
                    assert down == want, (label, t, j)
