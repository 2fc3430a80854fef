"""Acceptance gate: one test per shipping criterion, each printing a
single PASS/FAIL line with its runtime.  Tolerances are exact; stated
runtime caps are part of the criterion."""

import time
from pathlib import Path

import pytest

from monhom import cli
from monhom.exact_linalg import FgAbGroup
from monhom.gamma_chain import HOMOLOGICAL, build_complex, hochschild
from monhom.grillet import bar_complex_compare
from monhom.hc_modules import RIGHT, trivial_kc_module, trivial_module
from monhom.monoids import cyclic_group
from monhom.verify import run_suites


@pytest.fixture
def say(capsys):
    def _say(line):
        with capsys.disabled():
            print(line, flush=True)
    return _say


def _run(say, num, label, body, budget=None):
    start = time.monotonic()
    try:
        body()
    except BaseException:
        say(f"[criterion {num:02d}] FAIL  {label}")
        raise
    elapsed = time.monotonic() - start
    if budget is not None and elapsed > budget:
        say(f"[criterion {num:02d}] FAIL  {label}  "
            f"({elapsed:.1f}s over the {budget}s cap)")
        raise AssertionError(
            f"criterion {num} exceeded its runtime cap: "
            f"{elapsed:.1f}s > {budget}s")
    say(f"[criterion {num:02d}] PASS  {label}  ({elapsed:.1f}s)")


def _suite_green(name, expected_checks=None):
    results = run_suites([name])
    if expected_checks is not None:
        assert len(results) == expected_checks
    bad = [r for r in results if not r.passed]
    assert not bad, "; ".join(f"{r.name}: {r.detail}" for r in bad)
    return results


def test_criterion_01_complex_soundness(say):
    _run(say, 1, "d o d = 0 for all suite monoids and coefficient "
         "families up to degree 5",
         lambda: _suite_green("complex-soundness", 6), budget=60)


def test_criterion_02_degree_zero_and_one_bridge(say):
    _run(say, 2, "HH_0 is the value at the one-point set; HH_1 is the "
         "cokernel of d_2; d_1 = 0",
         lambda: _suite_green("degree-bridge", 6))


def test_criterion_03_tensor_identification(say):
    _run(say, 3, "degree-1 homology equals the coefficient tensored with "
         "the differential module, all suite pairs",
         lambda: _suite_green("lemma-nuli", 6), budget=30)


def test_criterion_04_group_homology_oracle(say):
    classical = {
        2: [FgAbGroup.free(1), FgAbGroup(0, (2,)), FgAbGroup(0),
            FgAbGroup(0, (2,)), FgAbGroup(0)],
        3: [FgAbGroup.free(1), FgAbGroup(0, (3,)), FgAbGroup(0),
            FgAbGroup(0, (3,)), FgAbGroup(0)],
    }

    def body():
        for k, expected in classical.items():
            monoid = cyclic_group(k)
            cx = build_complex(monoid, trivial_module(monoid, RIGHT), 5,
                               HOMOLOGICAL)
            got = [hochschild(cx, n) for n in range(5)]
            assert got == expected, f"cyclic group {k}: {got}"
            rep = bar_complex_compare(monoid, trivial_kc_module(monoid), 4)
            assert rep.passed and all(rep.boundary_match)
            assert list(rep.homology) == expected[:4]
        _suite_green("group-oracle", 2)

    _run(say, 4, "cyclic-group homology matches the classical values "
         "through an independent bar construction", body, budget=120)


def test_criterion_05_cohomology_and_derivations(say):
    _run(say, 5, "degree-0 cohomology is the value at the one-point set; "
         "degree 1 is the derivation group",
         lambda: _suite_green("leech-der", 6))


def test_criterion_06_weight_decomposition(say):
    _run(say, 6, "projector identities up to degree 5; weight sums and "
         "the weight-one piece match on the suite",
         lambda: _suite_green("hodge", 7), budget=180)


def test_criterion_07_young_invariant_exactness(say):
    _run(say, 7, "the constant-to-cyclic quotient passes the Young-"
         "invariant surjectivity check, all partitions up to 4",
         lambda: _suite_green("y-exactness", 2))


def test_criterion_08_product_structure(say):
    _run(say, 8, "projectives, face matrices, and differential modules "
         "split across product monoids",
         lambda: _suite_green("products", 6))


def test_criterion_09_kaehler_comparison(say):
    _run(say, 9, "the differential module matches the algebra-side "
         "Kaehler presentation over Z and Q",
         lambda: _suite_green("kaehler", 6))


def test_criterion_10_degree_zero_paths(say):
    _run(say, 10, "both degree-0 computation paths agree; the "
         "characteristic-zero path matches; groups are Q-acyclic",
         lambda: _suite_green("grillet", 7))


def test_criterion_11_deterministic_reports(say, tmp_path):
    def body():
        paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
        for path in paths:
            start = time.monotonic()
            code = cli.main(["verify", "all", "--format", "json",
                             "--out", str(path)])
            assert code == 0
            assert time.monotonic() - start <= 600
        assert paths[0].read_bytes() == paths[1].read_bytes()
        # and the report is the pinned one, so a refactor that changes any
        # check's name, anchor, detail or outcome fails here
        pinned = Path(__file__).parent / "data" / "verify_all.json"
        assert paths[0].read_bytes() == pinned.read_bytes()

    _run(say, 11, "running every self-check twice produces byte-identical "
         "reports, equal to the pinned report, inside the time cap", body)
