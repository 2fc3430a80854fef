"""Named verification suites: every structural lemma as an executable check.

Each suite returns CheckResult records with an ASCII anchor naming the
statement under test.  Wall-clock seconds are measured per check but kept
out of the rendered reports so that identical inputs produce identical
bytes; callers that want timings read the field directly.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from .errors import MonhomError, OracleMismatch
from .exact_linalg import (
    FgAbGroup,
    IntMatrix,
    _transpose_cols,
    cokernel_group,
    dense_kernel_basis,
    dense_solve_int,
    homology_at,
    kernel_basis,
    lattice_basis,
    snf_diagonal,
    solve_int,
    subquotient_group,
)
from .gamma_chain import (
    COHOMOLOGICAL,
    HOMOLOGICAL,
    MorseReduction,
    _add_into,
    _compose_cols,
    _distinct_up_to_sign,
    _face_cols,
    _face_targets,
    _factors,
    _lex_faces,
    _letters,
    _shuffle_cols,
    _shuffle_int_cols,
    _shuffle_quotient,
    _term_layout,
    build_complex,
    harrison,
    harrison_dim_q,
    hochschild,
    kunneth_complex,
    leech_cohomology,
    morse_complex,
    shuffle_element,
    y_exactness_check,
)
from .grillet import (
    bar_complex_compare,
    d0_cohomology,
    d0_homology,
    grillet_char0,
    kaehler_compare,
)
from .hc_modules import (
    LEFT,
    RIGHT,
    HCModuleMap,
    boxtimes,
    jstar,
    jstar_finite_cyclic,
    omega,
    pullback,
    regular_kc_module,
    std_projective,
    tabulate_presented,
    trivial_kc_module,
    trivial_module,
)
from .hodge import (
    _checked,
    eulerian_idempotents,
    hodge_decomposition,
    morse_hodge,
    total_shuffle_operator,
)
from .monoids import (
    cyclic_group,
    product_monoid,
    relabel,
    semilattice_chain,
    trivial_monoid,
    truncated_add,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    anchor: str
    passed: bool
    detail: str
    seconds: float

    def to_json(self):
        return {"name": self.name, "anchor": self.anchor,
                "passed": self.passed, "detail": self.detail}


def suite_monoids():
    return [
        ("trivial", trivial_monoid()),
        ("cyclic_group(2)", cyclic_group(2)),
        ("cyclic_group(3)", cyclic_group(3)),
        ("semilattice_chain(1)", semilattice_chain(1)),
        ("truncated_add(2)", truncated_add(2)),
        ("cyclic_group(2)xcyclic_group(2)",
         product_monoid(cyclic_group(2), cyclic_group(2)).monoid),
    ]


def _family(monoid, side):
    return [("trivialZ", trivial_module(monoid, side)),
            (f"projective:{side}:{monoid.elements[-1]}",
             std_projective(monoid, monoid.elements[-1], side)),
            ("jstar:Zmod4:trivial", jstar_finite_cyclic(monoid, 4, side))]


def _result(name, anchor, started, passed, detail):
    return CheckResult(name, anchor, passed, detail,
                       round(time.monotonic() - started, 3))


def _guarded(name, anchor, fn):
    """Run one check body; a raised MonhomError is a failed check."""
    started = time.monotonic()
    try:
        detail = fn()
    except MonhomError as exc:
        return _result(name, anchor, started, False,
                       f"{type(exc).__name__}: {exc}")
    return _result(name, anchor, started, True, detail)


def check_complex_soundness():
    anchor = "d o d = 0"
    out = []
    for label, monoid in suite_monoids():
        def body(monoid=monoid):
            built = 0
            for _, coeff in _family(monoid, RIGHT):
                build_complex(monoid, coeff, 5, HOMOLOGICAL)
                built += 1
            for _, coeff in _family(monoid, LEFT):
                build_complex(monoid, coeff, 5, COHOMOLOGICAL)
                built += 1
            return f"{built} complexes built through degree 5"
        out.append(_guarded(f"complex-soundness[{label}]", anchor, body))
    return out


def check_degree_bridge():
    anchor = "HH_0(F)=F([0]); HH_1 = coker d_2"
    out = []
    for label, monoid in suite_monoids():
        def body(monoid=monoid):
            pairs = 0
            for _, coeff in _family(monoid, RIGHT):
                cx = build_complex(monoid, coeff, 2, HOMOLOGICAL)
                if any(cx.d_out(1)):
                    raise MonhomError("d_1 is not the zero matrix")
                if hochschild(cx, 0) != coeff.value_group(monoid.identity):
                    raise MonhomError("HH_0 differs from the identity value")
                if hochschild(cx, 1) != cokernel_group(
                        cx.d_out(2) + cx.relation_cols(1), cx.dims[1]):
                    raise MonhomError("HH_1 differs from coker d_2")
                pairs += 1
            return f"{pairs} coefficient systems checked"
        out.append(_guarded(f"degree-bridge[{label}]", anchor, body))
    return out


def check_lemma_nuli():
    anchor = "HH_1(G_*(C,N)) = N (x)_{H(C)} Omega_C"
    out = []
    for label, monoid in suite_monoids():
        def body(monoid=monoid):
            for _, coeff in _family(monoid, RIGHT):
                d0_homology(monoid, coeff)
            return "tensor and complex paths agree"
        out.append(_guarded(f"lemma-nuli[{label}]", anchor, body))
    return out


def check_group_oracle():
    anchor = "HH_n(C; Z) = H_n(C; Z) for C = Z/2, Z/3"
    out = []
    for k in (2, 3):
        def body(k=k):
            # H_*(Z/k; Z): Z, then Z/k in odd and 0 in positive even degrees
            expected = [FgAbGroup.free(1)] + [
                FgAbGroup(0, (k,)) if n % 2 else FgAbGroup.trivial()
                for n in range(1, 5)]
            monoid = cyclic_group(k)
            rep = bar_complex_compare(monoid, trivial_kc_module(monoid), 4)
            if not rep.passed:
                raise MonhomError(f"bar comparison failed: {rep.detail}")
            cx = build_complex(monoid, trivial_module(monoid, RIGHT), 5,
                               HOMOLOGICAL)
            got = [hochschild(cx, n) for n in range(5)]
            if got != expected:
                raise MonhomError(f"homology {got} differs from the"
                                  " classical values")
            return "bar boundaries match; degrees 0..4 as classical"
        out.append(_guarded(f"group-oracle[cyclic_group({k})]", anchor, body))
    return out


def check_leech_der():
    anchor = "HH^0 = M([0]); HH^1(G^*(C,M)) = Der(C,M)"
    out = []
    for label, monoid in suite_monoids():
        def body(monoid=monoid):
            for _, coeff in _family(monoid, LEFT):
                if leech_cohomology(monoid, coeff, 0) != \
                        coeff.value_group(monoid.identity):
                    raise MonhomError("HH^0 differs from the identity value")
                d0_cohomology(monoid, coeff)
            return "cohomology degree 0 and 1 bridges hold"
        out.append(_guarded(f"leech-der[{label}]", anchor, body))
    return out


def check_hodge():
    anchor = "Harr_n(F)=HH_n^{(1)}(F); sum_i dim HH_n^{(i)} = dim HH_n"
    out = []

    def identities():
        for n in range(1, 6):
            bad = eulerian_idempotents(n).identity_violations()
            if bad:
                raise MonhomError(f"degree {n}: {bad}")
        return "idempotent, orthogonality, and sum identities hold, n <= 5"
    out.append(_guarded("hodge[projector-identities]", anchor, identities))

    def weight_one_matches(cx):
        # hodge_decomposition compares each weight sum with the total itself
        pairs = zip(hodge_decomposition(cx), harrison_dim_q(cx))
        for n, (dims, harr) in enumerate(pairs, start=1):
            if dims[0] != harr:
                raise MonhomError(f"weight-1 piece differs from the shuffle"
                                  f" computation in degree {n}")

    for label, monoid in suite_monoids():
        def body(monoid=monoid):
            # one complex at a time, so only one is alive at the memory peak
            for direction, side in ((HOMOLOGICAL, RIGHT),
                                    (COHOMOLOGICAL, LEFT)):
                weight_one_matches(build_complex(
                    monoid, trivial_module(monoid, side), 5, direction,
                    ring="Q"))
            return "weights split the totals; weight 1 matches, n <= 4"
        out.append(_guarded(f"hodge[{label}]", anchor, body))
    return out


def check_y_exactness():
    anchor = "0 -> j^*(kZ) -> j^*(Z) -> j^*(Z/k) -> 0 is a Y-exact sequence"
    out = []
    for k in (2, 3):
        def body(k=k):
            monoid = cyclic_group(k)
            source = trivial_module(monoid, RIGHT)
            target = jstar_finite_cyclic(monoid, k, RIGHT)
            hmap = HCModuleMap(source, target,
                               [IntMatrix.identity(1)
                                for _ in monoid.elements])
            checked = 0
            for n in range(1, 5):
                for lam in _partitions(n):
                    report = y_exactness_check(hmap, n, lam)
                    if not report.passed:
                        raise MonhomError(
                            f"failed at degree {n}, partition {lam}:"
                            f" {report.detail}")
                    checked += 1
            return f"{checked} (degree, partition) pairs pass"
        out.append(_guarded(f"y-exactness[cyclic_group({k})]", anchor, body))
    return out


def _partitions(n, largest=None):
    if largest is None:
        largest = n
    if n == 0:
        return [()]
    out = []
    for p in range(min(n, largest), 0, -1):
        for rest in _partitions(n - p, p):
            out.append((p,) + rest)
    return out


def _product_fixture(c1, c2):
    pm = product_monoid(c1, c2)
    n1 = trivial_module(c1, RIGHT)
    n2 = std_projective(c2, c2.elements[-1], RIGHT)
    return pm, n1, n2


def _face_bijection(pm, modules, layouts, degree):
    """Index map from the product-monoid term basis to the row-major
    tensor basis of the two factor terms; modules holds the product
    module and the two factors, layouts their term layouts by degree."""
    (tuples, _, offs, _), t1_lay, t2_lay = (lay[degree] for lay in layouts)
    _, n1, n2 = modules
    idx1 = {t: k for k, t in enumerate(t1_lay[0])}
    idx2 = {t: k for k, t in enumerate(t2_lay[0])}
    d2 = t2_lay[3]
    phi = {}
    for kt, t in enumerate(tuples):
        split = [pm.split(x) for x in t]
        t1 = tuple(a for a, _ in split)
        t2 = tuple(b for _, b in split)
        k1, k2 = idx1[t1], idx2[t2]
        r1 = n1.ranks[t1_lay[1][k1]]
        r2 = n2.ranks[t2_lay[1][k2]]
        for j1 in range(r1):
            for j2 in range(r2):
                phi[offs[kt] + j1 * r2 + j2] = \
                    (t1_lay[2][k1] + j1) * d2 + (t2_lay[2][k2] + j2)
    return phi


def check_products():
    anchor = ("C^{(c1,c2)} = C^{c1} (x) C^{c2}; faces of G_*(C1xC2, N1 (x)"
              " N2) factor; Omega_C = pi_1^* Omega_{C1} (+) pi_2^*"
              " Omega_{C2}")
    out = []

    def projectives():
        pm = product_monoid(cyclic_group(2), cyclic_group(2))
        for side in (LEFT, RIGHT):
            for a1 in pm.iota1.source.elements:
                for a2 in pm.iota2.source.elements:
                    built = boxtimes(std_projective(pm.iota1.source, a1, side),
                                     std_projective(pm.iota2.source, a2, side),
                                     pm)
                    direct = std_projective(pm.monoid, pm.pair(a1, a2), side)
                    if built.ranks != direct.ranks or \
                            built.act != direct.act:
                        raise MonhomError(f"projectives differ at ({a1},{a2})")
        return "all four pairs match on both sides"
    out.append(_guarded("products[projectives]", anchor, projectives))

    for c1, c2, label in [
            (cyclic_group(2), cyclic_group(2), "Z2xZ2"),
            (cyclic_group(2), cyclic_group(3), "Z2xZ3"),
            (semilattice_chain(1), cyclic_group(2), "semilattice-x-Z2")]:
        def faces(c1=c1, c2=c2):
            pm, n1, n2 = _product_fixture(c1, c2)
            monoids = (pm.monoid, pm.iota1.source, pm.iota2.source)
            modules = (boxtimes(n1, n2, pm), n1, n2)
            layouts = [[_term_layout(mon, mod, d) for d in range(4)]
                       for mon, mod in zip(monoids, modules)]
            checked = 0
            for m in range(3):
                phi_low = _face_bijection(pm, modules, layouts, m)
                phi_high = _face_bijection(pm, modules, layouts, m + 1)
                d2_low, d2_high = layouts[2][m][3], layouts[2][m + 1][3]
                for i in range(m + 2):
                    # each face carries (-1)^i, so the factors' signs
                    # cancel and the product's stays
                    P, k1, k2 = (_face_cols(mod.act, lay[m + 1], lay[m],
                                            _face_targets(mon, lay[m + 1][0],
                                                          lay[m][0], [i]))
                                 for mon, mod, lay in zip(monoids, modules,
                                                          layouts))
                    sign = -1 if i % 2 else 1
                    for c, col in enumerate(P):
                        a, b = divmod(phi_high[c], d2_high)
                        want = {r1 * d2_low + r2: sign * v1 * v2
                                for r1, v1 in k1[a].items()
                                for r2, v2 in k2[b].items()}
                        if {phi_low[r]: v for r, v in col.items()} != want:
                            raise MonhomError(
                                f"face {i} at degree {m + 1} differs")
                    checked += 1
            return f"{checked} face matrices factor through the tensor basis"
        out.append(_guarded(f"products[faces:{label}]", anchor, faces))

    for c1, c2, label in [(cyclic_group(2), cyclic_group(2), "Z2xZ2"),
                          (cyclic_group(2), cyclic_group(3), "Z2xZ3")]:
        def omega_split(c1=c1, c2=c2):
            pm = product_monoid(c1, c2)
            big = tabulate_presented(omega(pm.monoid))
            s1 = pullback(pm.pi1, tabulate_presented(omega(c1)))
            s2 = pullback(pm.pi2, tabulate_presented(omega(c2)))
            for x in pm.monoid.elements:
                lhs = big.value_group(x)
                rhs = s1.value_group(x).direct_sum(s2.value_group(x))
                if lhs != rhs:
                    raise MonhomError(
                        f"value at {x}: {lhs} differs from {rhs}")
            return "invariant factors split at every element"
        out.append(_guarded(f"products[omega:{label}]", anchor, omega_split))
    return out


def check_kaehler():
    anchor = "j_*(Omega_C) = Omega^1_{K[C]}"
    out = []
    for label, monoid in suite_monoids():
        def body(monoid=monoid):
            for ring in ("Z", "Q"):
                rep = kaehler_compare(monoid, ring=ring)
                if not rep.passed:
                    raise MonhomError(f"ring {ring}: {rep.detail}")
            return "presentations match over Z and Q"
        out.append(_guarded(f"kaehler[{label}]", anchor, body))
    return out


def check_grillet():
    anchor = "D_0 paths agree; D_*(C,N) = Harr_{*+1}(C,N) over Q"
    out = []
    for label, monoid in suite_monoids():
        def body(monoid=monoid):
            right = trivial_module(monoid, RIGHT)
            left = trivial_module(monoid, LEFT)
            zero_h = d0_homology(monoid, right)
            zero_c = d0_cohomology(monoid, left)
            if grillet_char0(monoid, right, 0, HOMOLOGICAL) != \
                    zero_h.free_rank:
                raise MonhomError("char-0 path differs in degree 0")
            if grillet_char0(monoid, left, 0, COHOMOLOGICAL) != \
                    zero_c.free_rank:
                raise MonhomError("char-0 cochain path differs in degree 0")
            return "degree-0 paths and rationalizations agree"
        out.append(_guarded(f"grillet[{label}]", anchor, body))

    def char0(monoid, side, direction, top):
        # grillet_char0 in degrees 0..top, off one Morse reduction
        red = MorseReduction(monoid, trivial_module(monoid, side), top + 2,
                             direction, ring="Q", transfer=True)
        return [w[0] for w in morse_hodge(red)]

    def acyclicity():
        for k in (2, 3):
            monoid = cyclic_group(k)
            for n, (chains, cochains) in enumerate(zip(
                    char0(monoid, RIGHT, HOMOLOGICAL, 3),
                    char0(monoid, LEFT, COHOMOLOGICAL, 3))):
                if chains:
                    raise MonhomError(f"Z/{k} not acyclic in degree {n}")
                if cochains:
                    raise MonhomError(f"Z/{k} cochain side, degree {n}")
        klein = product_monoid(cyclic_group(2), cyclic_group(2)).monoid
        for n, dim in enumerate(char0(klein, RIGHT, HOMOLOGICAL, 2)):
            if dim:
                raise MonhomError(f"Klein group not acyclic in degree {n}")
        return "finite groups are rationally acyclic through degree 3"
    out.append(_guarded("grillet[group-acyclicity]",
                        "rational acyclicity of finite groups", acyclicity))
    return out


def check_morse():
    anchor = ("G_*(C,N) / degenerate tuples ~ its Morse complex on the"
              " critical cells of Brown's collapsing scheme (shortlex normal"
              " forms)")
    out = []
    for label, monoid in suite_monoids():
        def body(monoid=monoid):
            systems, cells = 0, None
            for direction, side in ((HOMOLOGICAL, RIGHT),
                                    (COHOMOLOGICAL, LEFT)):
                for name, coeff in _family(monoid, side):
                    normal = build_complex(monoid, coeff, 5, direction,
                                           normalized=True)
                    morse = morse_complex(monoid, coeff, 5, direction)
                    if cells is None:  # trivialZ: one basis vector a cell
                        cells = sum(morse.dims), sum(normal.dims)
                    for n in range(5):
                        got, want = hochschild(morse, n), \
                            hochschild(normal, n)
                        if got != want:
                            raise OracleMismatch(
                                f"{direction} {name} in degree {n}: the"
                                f" Morse complex gives {got}, the normalized"
                                f" one {want}")
                    systems += 1
            return (f"{systems} coefficient systems agree in degrees 0..4;"
                    f" the Morse complex keeps {cells[0]} of {cells[1]}"
                    " cells through degree 5")
        out.append(_guarded(f"morse[{label}]", anchor, body))
    anchor = ("weights of pi s_n iota on the Morse complex = weights of s_n"
              " on the normalized complex")
    for label, monoid in suite_monoids():
        def weights(monoid=monoid):
            systems = 0
            for direction, side in ((HOMOLOGICAL, RIGHT),
                                    (COHOMOLOGICAL, LEFT)):
                coeffs = [(name, coeff)
                          for name, coeff in _family(monoid, side)
                          if not coeff.has_torsion]
                if monoid.size <= 3:
                    coeffs.append(("jstar:regular",
                                   jstar(regular_kc_module(monoid), side)))
                for name, coeff in coeffs:
                    red = MorseReduction(monoid, coeff, 5, direction,
                                         ring="Q", transfer=True)
                    got = morse_hodge(red)
                    _check_transfer_maps(red)
                    want = hodge_decomposition(build_complex(
                        monoid, coeff, 5, direction, ring="Q",
                        normalized=True))
                    if got != want:
                        raise OracleMismatch(
                            f"{direction} {name}: the Morse complex gives"
                            f" the weights {got}, the normalized one {want}")
                    systems += 1
            return (f"{systems} coefficient systems give the same weights in"
                    " degrees 1..4")
        out.append(_guarded(f"morse[weights:{label}]", anchor, weights))
    return out


def kunneth_monoids():
    """The direct products that the kunneth suite splits, each with its
    elements in reverse order, so that the identity is the last."""
    z2 = cyclic_group(2)
    klein = product_monoid(z2, z2).monoid
    products = [
        ("Z2xZ2", klein),
        ("Z2xZ3", product_monoid(z2, cyclic_group(3)).monoid),
        ("truncated_add(2)xZ2", product_monoid(truncated_add(2), z2).monoid),
        ("Z4xZ2", product_monoid(cyclic_group(4), z2).monoid),
        ("semilattice_chain(1)xZ2",
         product_monoid(semilattice_chain(1), z2).monoid),
        ("Z2^3", product_monoid(klein, z2).monoid),
    ]
    return [(label, relabel(monoid, monoid.elements[::-1]))
            for label, monoid in products]


def check_kunneth():
    anchor = ("HH_*(A x B; Z) = H_*(Morse(A) (x) Morse(B)) (Eilenberg-Zilber),"
              " against the Morse complex of A x B")
    out = []
    for label, monoid in kunneth_monoids():
        def body(monoid=monoid):
            sizes = [f.size for f in _factors(monoid)]
            if len(sizes) < 2:
                raise OracleMismatch("no direct factors found")
            systems = 0
            for direction, side in ((HOMOLOGICAL, RIGHT),
                                    (COHOMOLOGICAL, LEFT)):
                coeff = trivial_module(monoid, side)
                for name, ring in (("trivialZ", "Z"), ("trivialQ", "Q")):
                    product = kunneth_complex(monoid, coeff, 6, direction,
                                              ring=ring)
                    whole = morse_complex(monoid, coeff, 6, direction,
                                          ring=ring)
                    for n in range(6):
                        got, want = hochschild(product, n), \
                            hochschild(whole, n)
                        if got != want:
                            raise OracleMismatch(
                                f"{direction} {name} in degree {n}: the"
                                f" factors give {got}, the whole monoid"
                                f" {want}")
                    systems += 1
            return (f"factors of orders {' x '.join(map(str, sizes))};"
                    f" {systems} coefficient systems agree in degrees 0..5")
        out.append(_guarded(f"kunneth[{label}]", anchor, body))
    return out


def _check_transfer_maps(red):
    """red.transfer on the unit Morse chains of degrees 1..n_max - 1, not
    only on the cycles morse_hodge lifts: it checks that iota is a chain
    map and pi o iota = 1 on each critical cell, it must equal pi of the
    direct sum over the permutations of s_n on the lifts (_permuted, or
    OracleMismatch), and S_n = pi s_n iota must commute with the Morse
    differential, with s_0 = -1 as in hodge_decomposition (_checked)."""
    cx = red.chains()

    def transferred(n):
        units = [{r: 1} for r in range(cx.dims[n])]
        got = red.transfer(n, units)
        if got != [red.project(n, y) for y in _permuted(
                total_shuffle_operator(n), [red.lift(n, z) for z in units])]:
            raise OracleMismatch(f"the transfer of s_{n} differs from the"
                                 " direct sum over permutations")
        return got

    for _ in _checked(cx, cx.n_max - 1, transferred):
        pass


def _full_and_normalized(monoid, coeff, direction, ring="Z"):
    return tuple(build_complex(monoid, coeff, 4, direction, ring=ring,
                               normalized=flag) for flag in (False, True))


def _agree(what, full, normalized):
    if full != normalized:
        raise OracleMismatch(f"{what}: the full complex gives {full}, the"
                             f" normalized one {normalized}")


def _check_face_tables(monoid):
    """Raise OracleMismatch unless the lexicographic face tables that
    build_complex assembles from (_lex_faces) equal the faces looked up
    tuple by tuple (_face_targets), full and normalized, degrees 1..5."""
    trivial = trivial_module(monoid, RIGHT)
    for normalized in (False, True):
        letters = _letters(monoid, normalized)
        tuples = [_term_layout(monoid, trivial, n, normalized)[0]
                  for n in range(6)]
        for k in range(1, 6):
            if list(_lex_faces(monoid, letters, k)) != _face_targets(
                    monoid, tuples[k], tuples[k - 1], range(k + 1)):
                raise OracleMismatch(
                    f"the face tables of degree {k}"
                    f"{' (normalized)' if normalized else ''} differ from"
                    " the faces looked up tuple by tuple")


def check_normalization():
    anchor = ("G_*(C,N) ~ G_*(C,N) / (tuples containing the identity)"
              " (normalization theorem)")
    out = []
    for label, monoid in suite_monoids():
        def body(monoid=monoid):
            _check_face_tables(monoid)
            systems = 0
            for direction, side in ((HOMOLOGICAL, RIGHT),
                                    (COHOMOLOGICAL, LEFT)):
                for name, coeff in _family(monoid, side):
                    full, normal = _full_and_normalized(monoid, coeff,
                                                        direction)
                    for n in range(4):
                        _agree(f"{direction} {name} in degree {n}",
                               hochschild(full, n), hochschild(normal, n))
                    systems += 1
            for direction, side in ((HOMOLOGICAL, RIGHT),
                                    (COHOMOLOGICAL, LEFT)):
                full, normal = _full_and_normalized(
                    monoid, trivial_module(monoid, side), direction, "Q")
                degrees = zip(hodge_decomposition(full),
                              hodge_decomposition(normal),
                              harrison_dim_q(full), harrison_dim_q(normal))
                for n, (w_full, w_normal, h_full, h_normal) in enumerate(
                        degrees, start=1):
                    _agree(f"{direction} weights in degree {n}", w_full,
                           w_normal)
                    _agree(f"{direction} Harrison dimension in degree {n}",
                           h_full, h_normal)
            return (f"{systems} coefficient systems agree over Z in degrees"
                    " 0..3; weights and Harrison over Q in degrees 1..3")
        out.append(_guarded(f"normalization[{label}]", anchor, body))
    return out


def _permuted(elem, chains):
    """elem in Z[S_m] on m-chains, dicts from (tuple, value index) to
    coefficient, tuple by tuple: sum_sigma c_sigma (t o sigma^-1), whose
    position sigma(j) holds t_j; the oracle of the shuffle product
    (gamma_chain._shuffle).  A permutation keeps a tuple's value."""
    reads = [(sorted(range(elem.n), key=p.__getitem__), c)
             for p, c in elem.terms.items()]
    out = []
    for chain in chains:
        moved = {}
        for (t, j), v in chain.items():
            for read, c in reads:
                _add_into(moved, {(tuple(t[i] for i in read), j): c}, v)
        out.append(moved)
    return out


def _direct_action_cols(cx, n, elem):
    """sum_sigma c_sigma (t o sigma^-1) on degree n: the direct action
    (_permuted) on the unit chains of the tuple layout, one tuple at a
    time.  A cochain complex takes the transpose."""
    basis = [(t, j) for t, p in zip(cx.tuples_at(n), cx.prods_at(n))
             for j in range(cx.coeff.ranks[p])]
    row = {b: r for r, b in enumerate(basis)}
    cols = [{row[b]: v for b, v in moved.items()}
            for moved in _permuted(elem, [{b: 1} for b in basis])]
    return _transpose_cols(cols, cx.dims[n]) if cx.step > 0 else cols


def check_sym_action():
    anchor = ("sh_(p,m-p) t = sh(t[:p], t[p:]), the signed shuffle product"
              " by Ree's recursion, = sum_sigma c_sigma (t o sigma^-1)")
    # s_m and each sh_(p,m-p): the splits of the product, and Z[S_m]
    elements = [(f"s_{m}", tuple(range(1, m)), total_shuffle_operator(m))
                for m in range(1, 5)]
    elements += [(f"sh_({p},{m - p})", (p,), shuffle_element(p, m - p))
                 for m in range(2, 5) for p in range(1, m)]
    out = []
    for label, monoid in suite_monoids():
        def body(monoid=monoid):
            compared = 0
            for direction, side in ((HOMOLOGICAL, RIGHT),
                                    (COHOMOLOGICAL, LEFT)):
                for name, coeff in (
                        ("trivialZ", trivial_module(monoid, side)),
                        ("jstar:regular",
                         jstar(regular_kc_module(monoid), side))):
                    for cx in _full_and_normalized(monoid, coeff, direction):
                        kind = "normalized" if cx.normalized else "full"
                        for what, splits, elem in elements:
                            if _shuffle_cols(cx, elem.n, [splits])[0] != \
                                    _direct_action_cols(cx, elem.n, elem):
                                raise OracleMismatch(
                                    f"{direction} {name}, {kind} complex:"
                                    f" {what} differs from the direct sum"
                                    " over permutations")
                            compared += 1
            return (f"{compared} shuffle products agree with the direct sum"
                    " over permutations, full and normalized, degrees 1..4")
        out.append(_guarded(f"sym-action[{label}]", anchor, body))
    return out


def _lattice_homology(cx, n):
    """homology_at on the dense maps leaving and entering degree n."""
    low = n + cx.step
    d_out = IntMatrix.from_col_dicts(cx.d_out(n),
                                     cx.dims[low] if low >= 0 else 0)
    return homology_at(d_out, IntMatrix.from_col_dicts(cx.d_in(n), cx.dims[n]))


def _compare_solve(B, rows, C, what):
    X = solve_int(B, rows, C)
    Y = dense_solve_int(IntMatrix.from_col_dicts(B, rows),
                        IntMatrix.from_col_dicts(C, rows))
    if (X is None) != (Y is None):
        found = ("no solution, the dense solve one" if X is None
                 else "a solution, the dense solve none")
        raise OracleMismatch(f"{what}: elimination finds {found}")
    if X is not None and _compose_cols(X, B) != \
            [{r: v for r, v in col.items() if v} for col in C]:
        raise OracleMismatch(f"{what}: the solution of elimination misses")


def _same_lattice(P, Q):
    return (dense_solve_int(P, Q) is not None
            and dense_solve_int(Q, P) is not None)


def _compared_kernel(A, rows, what):
    K = kernel_basis(A, rows)
    D = dense_kernel_basis(IntMatrix.from_col_dicts(A, rows))
    if not _same_lattice(IntMatrix.from_col_dicts(K, len(A)), D):
        raise OracleMismatch(f"{what}: the kernel lattice of elimination"
                             " differs from the dense one")
    return K


def _compared_lattice(M, rows, what):
    B = lattice_basis(M, rows)
    dense = IntMatrix.from_col_dicts(B, rows)
    if not _same_lattice(dense, IntMatrix.from_col_dicts(M, rows)) or \
            sum(1 for d in snf_diagonal(dense) if d) != len(B):
        raise OracleMismatch(f"{what}: the lattice basis of elimination is"
                             " not a basis of the column lattice")
    return B


def _compared_preimage(A, L, rows, what):
    """preimage_lattice's two steps, each compared: the kernel of [A | -L]
    and the lattice of its first len(A) entries."""
    K = _compared_kernel(A + [{r: -v for r, v in col.items()} for col in L],
                         rows, what)
    return _compared_lattice([{k: v for k, v in col.items() if k < len(A)}
                              for col in K], len(A), what)


def _subquotient_homology(cx, n):
    """The degree-n group as subquotient_group gives it: the cycles modulo
    the relations one degree over, against the image of d_in and the
    relations, each column once up to sign."""
    low = n + cx.step
    relations = cx.relation_cols(low) if low >= 0 else []
    return subquotient_group(
        cx.d_out(n), relations, cx.dims[low] if low >= 0 else 0,
        _distinct_up_to_sign(cx.d_in(n) + cx.relation_cols(n)), cx.dims[n])


def _torsion_lattice_checks(cx):
    """The cycles and borders of the lattice groups of torsion
    coefficients, degrees 0..3, each step of preimage_lattice compared.
    Returns the number of problems."""
    count = 0
    for n in range(4):
        what = f"{cx.direction} degree {n}"
        low = n + cx.step
        if low < 0 or cx.dims[low] == 0:
            cycles = [{i: 1} for i in range(cx.dims[n])]
        else:
            cycles = _compared_preimage(cx.d_out(n), cx.relation_cols(low),
                                        cx.dims[low], f"{what} cycles")
            count += 2
        _compare_solve(cycles, cx.dims[n], cx.d_in(n) + cx.relation_cols(n),
                       f"{what} borders")
        count += 1
    return count


def _harrison_lattice_checks(cx):
    """The shuffle image lattices of Harrison chains, degrees 0..4, the
    boundary-closure solve into each of degrees 1..3, and the cycles
    modulo the one below.  Returns the number of problems."""
    lattices = [_compared_lattice(
        _distinct_up_to_sign(c for cols in _shuffle_int_cols(cx, n)
                             for c in cols), cx.dims[n],
        f"shuffle lattice of degree {n}") for n in range(5)]
    count = len(lattices)
    for n in range(1, 4):
        moved = _compose_cols(lattices[n + 1], cx.d_out(n + 1))
        _compare_solve(lattices[n], cx.dims[n], moved,
                       f"shuffle closure into degree {n}")
        _compared_kernel(cx.d_out(n) + [{r: -v for r, v in col.items()}
                                        for col in lattices[n - 1]],
                         cx.dims[n - 1], f"Harrison cycles in degree {n}")
        count += 2
    return count


def check_sparse_homology():
    anchor = ("free values: H_n = Z^(dim - rank d_out - rank d_in) +"
              " torsion(d_in)")
    out = []
    for label, monoid in suite_monoids():
        def body(monoid=monoid):
            compared = 0
            for direction, side in ((HOMOLOGICAL, RIGHT),
                                    (COHOMOLOGICAL, LEFT)):
                systems = [(name, coeff)
                           for name, coeff in _family(monoid, side)
                           if not coeff.has_torsion]
                systems.append(("jstar:regular",
                                jstar(regular_kc_module(monoid), side)))
                for name, coeff in systems:
                    for cx in _full_and_normalized(monoid, coeff, direction):
                        kind = "normalized" if cx.normalized else "full"
                        for n in range(4):
                            lattice = _lattice_homology(cx, n)
                            sparse = hochschild(cx, n)
                            if lattice != sparse:
                                raise OracleMismatch(
                                    f"{direction} {name}, {kind} complex,"
                                    f" degree {n}: the lattice path gives"
                                    f" {lattice}, elimination {sparse}")
                            compared += 1
            return (f"{compared} groups agree with the lattice path,"
                    " full and normalized, degrees 0..3")
        out.append(_guarded(f"sparse-homology[{label}]", anchor, body))
    anchor = ("unit-pivot elimination solves, kernels and lattice bases ="
              " those of the whole-matrix Smith form")
    for label, monoid in suite_monoids():
        def body(monoid=monoid):
            compared = 0
            for direction, side in ((HOMOLOGICAL, RIGHT),
                                    (COHOMOLOGICAL, LEFT)):
                for cx in _full_and_normalized(
                        monoid, jstar_finite_cyclic(monoid, 4, side),
                        direction):
                    compared += _torsion_lattice_checks(cx)
            compared += _harrison_lattice_checks(build_complex(
                monoid, trivial_module(monoid, RIGHT), 4, HOMOLOGICAL))
            return (f"{compared} lattice problems agree with the dense Smith"
                    " form: jstar:Zmod4:trivial cycles and borders in degrees"
                    " 0..3, full and normalized, and Harrison shuffle"
                    " lattices of trivialZ in degrees 0..4")
        out.append(_guarded(f"sparse-homology[{label}: lattices]", anchor,
                            body))
    anchor = ("H_n(F/S) = H_n(Cone_n = F_n + S_(n+step)),"
              " D(f, s) = (d f + s, phi f - d_S s)")
    for label, monoid in suite_monoids():
        def body(monoid=monoid):
            compared = 0
            for direction, side in ((HOMOLOGICAL, RIGHT),
                                    (COHOMOLOGICAL, LEFT)):
                for cx in _full_and_normalized(
                        monoid, jstar_finite_cyclic(monoid, 4, side),
                        direction):
                    kind = "normalized" if cx.normalized else "full"
                    for n in range(4):
                        _agree_with_lattice(
                            f"{direction} jstar:Zmod4:trivial, {kind}"
                            f" complex, degree {n}", hochschild(cx, n),
                            _subquotient_homology(cx, n))
                        compared += 1
            for name, coeff in (("trivialZ", trivial_module(monoid, RIGHT)),
                                ("jstar:Zmod4:trivial",
                                 jstar_finite_cyclic(monoid, 4, RIGHT))):
                cx = build_complex(monoid, coeff, 4, HOMOLOGICAL)
                sub = _shuffle_quotient(cx)
                for n, group in enumerate(harrison(cx), start=1):
                    _agree_with_lattice(f"Harrison chains of {name}, degree"
                                        f" {n}", group,
                                        _subquotient_homology(sub, n))
                    compared += 1
            return (f"{compared} groups agree with subquotient_group:"
                    " jstar:Zmod4:trivial in degrees 0..3, full and"
                    " normalized, and Harrison chains of trivialZ and"
                    " jstar:Zmod4:trivial in degrees 1..3")
        out.append(_guarded(f"sparse-homology[{label}: cone]", anchor, body))
    return out


def _agree_with_lattice(what, cone, lattice):
    if cone != lattice:
        raise OracleMismatch(f"{what}: the cone gives {cone},"
                             f" subquotient_group {lattice}")


SUITES = {
    "complex-soundness": check_complex_soundness,
    "degree-bridge": check_degree_bridge,
    "lemma-nuli": check_lemma_nuli,
    "group-oracle": check_group_oracle,
    "leech-der": check_leech_der,
    "hodge": check_hodge,
    "y-exactness": check_y_exactness,
    "products": check_products,
    "kaehler": check_kaehler,
    "grillet": check_grillet,
    "sym-action": check_sym_action,
    "morse": check_morse,
    "kunneth": check_kunneth,
    "normalization": check_normalization,
    "sparse-homology": check_sparse_homology,
}


def run_suites(names):
    """Execute the named suites in declaration order; 'all' runs every one."""
    if names == ["all"] or names == "all":
        selected = list(SUITES)
    else:
        selected = list(names)
        if not selected:
            raise MonhomError("no suites selected")
        for name in selected:
            if name not in SUITES:
                raise MonhomError(f"unknown suite {name!r}; choose from "
                                  f"{', '.join(SUITES)} or all")
    results = []
    for name in SUITES:
        if name in selected:
            results.extend(SUITES[name]())
    return results


def render_text(results):
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status} {r.name}: {r.anchor}")
        lines.append(f"     {r.detail}")
    failed = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results) - failed}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"


def render_json(results):
    payload = {"checks": [r.to_json() for r in results],
               "passed": sum(1 for r in results if r.passed),
               "failed": sum(1 for r in results if not r.passed)}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
