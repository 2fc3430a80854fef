"""The self-check runner: ordering, stability, and error handling."""

import os
import subprocess
import sys

import pytest

import monhom
from monhom import cli, gamma_chain, verify
from monhom.errors import MonhomError
from monhom.exact_linalg import FgAbGroup
from monhom.verify import (CheckResult, render_json, render_text, run_suites)


def test_single_suite_runs_green():
    results = run_suites(["lemma-nuli"])
    assert len(results) == 6
    assert all(r.passed for r in results)
    assert all(r.name.startswith("lemma-nuli[") for r in results)
    assert all(r.seconds >= 0 for r in results)


def test_suites_run_in_declaration_order():
    results = run_suites(["kaehler", "degree-bridge"])
    names = [r.name.split("[")[0] for r in results]
    assert names == ["degree-bridge"] * 6 + ["kaehler"] * 6


def test_unknown_suite_rejected():
    with pytest.raises(MonhomError, match="unknown suite"):
        run_suites(["nope"])
    with pytest.raises(MonhomError):
        run_suites([])


def test_reports_are_byte_stable():
    first = run_suites(["degree-bridge"])
    second = run_suites(["degree-bridge"])
    assert render_text(first) == render_text(second)
    assert render_json(first) == render_json(second)
    assert render_text(first).splitlines()[-1] == "6/6 checks passed"


def test_timings_never_reach_the_report():
    res = CheckResult("x", "anchor", True, "fine", seconds=1.25)
    assert "seconds" not in res.to_json()
    rendered = render_text([res]) + render_json([res])
    assert "1.25" not in rendered


def test_failures_are_counted():
    good = CheckResult("a", "law", True, "ok", 0.0)
    bad = CheckResult("b", "law", False, "broken", 0.0)
    text = render_text([good, bad])
    assert "FAIL b: law" in text
    assert text.splitlines()[-1] == "1/2 checks passed"
    assert '"failed": 1' in render_json([good, bad])


def test_normalization_suite_runs_green():
    results = run_suites(["normalization"])
    assert len(results) == 6
    assert all(r.passed for r in results), [r.detail for r in results]


def test_sparse_homology_suite_runs_green_and_last():
    assert list(verify.SUITES)[-2:] == ["normalization", "sparse-homology"]
    results = run_suites(["sparse-homology"])
    assert len(results) == 18
    assert all(r.passed for r in results), [r.detail for r in results]
    assert all(r.detail.startswith("48 groups agree") for r in results[:6])
    assert all(r.name.endswith(": lattices]") for r in results[6:12])
    assert all("lattice problems agree" in r.detail for r in results[6:12])
    assert all(r.name.endswith(": cone]") for r in results[12:])
    assert all(r.detail.startswith("22 groups agree with subquotient_group")
               for r in results[12:])


def test_normalization_suite_catches_a_wrong_normalized_group(monkeypatch):
    real = verify.hochschild

    def wrong_when_normalized(cx, n):
        group = real(cx, n)
        return group.direct_sum(FgAbGroup.free(1)) if cx.normalized else group

    monkeypatch.setattr(verify, "hochschild", wrong_when_normalized)
    results = run_suites(["normalization"])
    assert not any(r.passed for r in results)
    assert "OracleMismatch" in results[0].detail
    assert render_text(results).splitlines()[0].startswith(
        "FAIL normalization[trivial]")


def test_products_suite_checks_the_faces_of_build_complex(monkeypatch,
                                                         capsys):
    real = verify._face_cols

    def doubled_on_products(act, high, low, faces):
        cols = real(act, high, low, faces)
        # the last tuple of a layout repeats the last element, and only
        # the product monoids, not their factors, have four elements
        if high[0][-1][0] >= 3:
            col = next(col for col in cols if col)
            col[min(col)] *= 2
        return cols

    # the suite checks the very routine that build_complex sums
    assert verify._face_cols is gamma_chain._face_cols
    monkeypatch.setattr(verify, "_face_cols", doubled_on_products)
    assert cli.main(["verify", "products"]) == 3
    lines = capsys.readouterr().out.splitlines()
    failed = sorted(line.split()[1] for line in lines
                    if line.startswith("FAIL"))
    assert failed == ["products[faces:Z2xZ2]:", "products[faces:Z2xZ3]:",
                      "products[faces:semilattice-x-Z2]:"]
    assert "face 0 at degree 1 differs" in "\n".join(lines)


def test_suites_report_the_same_under_python_dash_o(capsys):
    # -O strips assert statements: a check that rested on one would pass
    # or fail differently there
    argv = ["verify", "complex-soundness", "products", "morse",
            "normalization", "grillet", "hodge"]
    assert cli.main(argv) == 0
    normal = capsys.readouterr().out
    src = os.path.dirname(os.path.dirname(os.path.abspath(monhom.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    optimized = subprocess.run([sys.executable, "-O", "-m", "monhom.cli",
                                *argv], capture_output=True, env=env,
                               timeout=300, check=False)
    assert optimized.returncode == 0, optimized.stderr.decode()
    assert optimized.stdout == normal.encode()
