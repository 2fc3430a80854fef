"""End-to-end runs of the command line through ``main(argv)``."""

import json
import sys
import time

import pytest

from monhom import cli, exact_linalg, gamma_chain, grillet, verify
from monhom.codecs import (dumps, matrix_from_payload, matrix_to_payload,
                           monoid_from_payload, monoid_to_payload,
                           tabulated_from_payload, tabulated_to_payload)
from monhom.errors import ComplexityBudget, OracleMismatch, ParseError
from monhom.exact_linalg import FgAbGroup, IntMatrix
from monhom.hc_modules import (RIGHT, jstar, jstar_finite_cyclic,
                               regular_kc_module, std_projective)
from monhom.monoids import cyclic_group, product_monoid, truncated_add


def run(*argv):
    return cli.main(list(argv))


def test_compute_hh_matches_group_homology(capsys):
    assert run("compute", "hh", "--monoid", "builtin:cyclic_group(2)",
               "--coeff", "trivialZ", "--max-degree", "3") == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["HH_0 = Z", "HH_1 = Z/2", "HH_2 = 0", "HH_3 = Z/2"]


def test_one_parser_serves_every_call(capsys):
    # the parser is built once per process; neither a usage error nor the
    # options of an earlier call change what a later call reads
    argv = ("compute", "hh", "--monoid", "builtin:cyclic_group(2)",
            "--max-degree", "3")
    assert run(*argv) == 0
    alone = capsys.readouterr().out
    for bad in (("compute", "hh"), ("verify",),
                argv + ("--format", "yaml"), argv + ("--max-degree", "x")):
        with pytest.raises(SystemExit) as info:
            run(*bad)
        assert info.value.code == 2
        capsys.readouterr()
        assert run(*argv) == 0
        assert capsys.readouterr().out == alone
    assert run(*argv, "--format", "json") == 0
    assert capsys.readouterr().out != alone
    assert run(*argv) == 0
    assert capsys.readouterr().out == alone
    assert cli._build_parser() is cli._build_parser()


def test_compute_omega_on_the_trivial_monoid(capsys):
    assert run("compute", "omega", "--monoid", "builtin:trivial") == 0
    assert capsys.readouterr().out == "Omega(0) = 0\n"


def test_compute_derivations(capsys):
    assert run("compute", "der", "--monoid", "builtin:cyclic_group(2)",
               "--coeff", "jstar:Zmod4:trivial") == 0
    assert capsys.readouterr().out == "Der = Z/2\n"


def test_compute_tensor(capsys):
    assert run("compute", "tensor", "--monoid", "builtin:cyclic_group(3)",
               "--coeff", "trivialZ") == 0
    assert capsys.readouterr().out == "N (x) Omega = Z/3\n"


def test_regular_coefficients_give_group_algebra_homology(capsys):
    # For an abelian group G this computes HH_*(Z[G]) with symmetric
    # coefficients, which is H_*(G; Z) tensored with Z[G]: here
    # Z^2, (Z/2)^2, 0 in degrees 0, 1, 2.
    assert run("compute", "hh", "--monoid", "builtin:cyclic_group(2)",
               "--coeff", "jstar:regular", "--max-degree", "2") == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["HH_0 = Z^2", "HH_1 = Z/2 + Z/2", "HH_2 = 0"]


def test_json_report_round_trips(capsys):
    assert run("compute", "leech", "--monoid", "builtin:cyclic_group(2)",
               "--coeff", "trivialZ", "--max-degree", "2",
               "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["target"] == "leech"
    groups = [entry["group"] for entry in payload["results"]]
    assert groups == [{"free_rank": 1, "torsion": []},
                      {"free_rank": 0, "torsion": []},
                      {"free_rank": 0, "torsion": [2]}]


def test_leech_honours_the_ring(capsys):
    # over Q the group Z/2 is acyclic: only the degree-0 value survives
    for coeff in (["trivialQ"], ["jstar:Z:trivial", "--ring", "Q"]):
        assert run("compute", "leech", "--monoid", "builtin:cyclic_group(2)",
                   "--coeff", *coeff, "--max-degree", "3") == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["HH^0 = Z", "HH^1 = 0", "HH^2 = 0", "HH^3 = 0"]


def test_exact_groups_honour_the_ring(capsys):
    # over Q the tensor and grillet's degree 0 keep only their free part
    cases = (("builtin:cyclic_group(2)", ["trivialQ"], "0"),
             ("builtin:truncated_add(2)", ["jstar:regular", "--ring", "Q"],
              "Z"))
    for monoid, coeff, group in cases:
        assert run("compute", "tensor", "--monoid", monoid,
                   "--coeff", *coeff) == 0
        assert capsys.readouterr().out == f"N (x) Omega = {group}\n"
        assert run("compute", "grillet", "--monoid", monoid, "--coeff",
                   *coeff, "--max-degree", "1", "--format", "json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ring"] == "Q"
        assert report["results"][0]["group"] == \
            {"free_rank": int(group != "0"), "torsion": []}
    assert run("compute", "tensor", "--monoid", "builtin:truncated_add(2)",
               "--coeff", "jstar:regular") == 0
    assert capsys.readouterr().out == "N (x) Omega = Z + Z/2\n"


def test_torsion_coefficients_over_q_exit_one(capsys):
    for target in cli.TARGETS:
        if target == "omega":
            continue
        assert run("compute", target, "--monoid", "builtin:cyclic_group(2)",
                   "--coeff", "jstar:Zmod4:trivial", "--ring", "Q") == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "BadParams"


def test_hodge_report(capsys):
    assert run("compute", "hodge", "--monoid", "builtin:cyclic_group(2)",
               "--coeff", "trivialQ", "--max-degree", "2",
               "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ring"] == "Q"
    assert [e["weights"] for e in payload["results"]] == [[0], [0, 0]]


def test_grillet_report_lines(capsys):
    assert run("compute", "grillet", "--monoid", "builtin:truncated_add(2)",
               "--coeff", "trivialZ", "--max-degree", "1") == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "degree 0 (exact): 0"
    assert out[1] == "degree 1 (char0): 0"


def test_grillet_report_builds_one_complex(monkeypatch, capsys):
    # one Morse reduction serves degree 0 and every char-0 degree, and no
    # tuple complex is built
    calls = []
    original = grillet.MorseReduction

    def counted(*args, **kwargs):
        calls.append(args[2])
        return original(*args, **kwargs)

    monkeypatch.setattr(grillet, "MorseReduction", counted)
    monkeypatch.setattr(grillet, "build_complex",
                        lambda *args, **kwargs: calls.append("tuples"))
    argv = ("compute", "grillet", "--monoid", "builtin:truncated_add(2)",
            "--coeff", "trivialZ", "--max-degree", "3")
    assert run(*argv) == 0
    assert capsys.readouterr().out == "".join(
        f"degree {n} ({'exact' if n == 0 else 'char0'}): 0\n"
        for n in range(4))
    assert calls == [5]
    assert run(*argv, "--format", "json") == 0
    report = json.loads(capsys.readouterr().out)
    zero = {"free_rank": 0, "torsion": []}
    assert report["results"] == [
        {"degree": n, "group": zero, "path": "exact" if n == 0 else "char0"}
        for n in range(4)]
    assert run("compute", "grillet", "--monoid", "builtin:cyclic_group(3)",
               "--coeff", "jstar:regular", "--max-degree", "2") == 0
    assert capsys.readouterr().out == (
        "degree 0 (exact): Z/3 + Z/3 + Z/3\ndegree 1 (char0): 0\n"
        "degree 2 (char0): 0\n")


def test_monoid_file_source(tmp_path, capsys):
    path = tmp_path / "z3.json"
    path.write_text(dumps(monoid_to_payload(cyclic_group(3))))
    assert run("compute", "hh", "--monoid", str(path),
               "--max-degree", "1") == 0
    assert capsys.readouterr().out == "HH_0 = Z\nHH_1 = Z/3\n"


def test_module_file_coefficients(tmp_path, capsys):
    mon = cyclic_group(2)
    module = jstar_finite_cyclic(mon, 4, RIGHT)
    path = tmp_path / "m.json"
    path.write_text(dumps(tabulated_to_payload(module)))
    assert run("compute", "hh", "--monoid", "builtin:cyclic_group(2)",
               "--coeff", str(path), "--max-degree", "1") == 0
    assert capsys.readouterr().out == "HH_0 = Z/4\nHH_1 = Z/2\n"


def test_fractional_matrix_entry_exits_one(tmp_path, capsys):
    payload = tabulated_to_payload(jstar_finite_cyclic(cyclic_group(2), 4,
                                                       RIGHT))
    payload["act"][0]["matrix"]["entries"][0][0] = 1.5
    path = tmp_path / "m.json"
    path.write_text(json.dumps(payload))
    assert run("compute", "hh", "--monoid", "builtin:cyclic_group(2)",
               "--coeff", str(path), "--max-degree", "1") == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ParseError"
    assert "entries[0][0]" in err["error"]["message"]


def test_corrupted_monoid_file_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"size": 2, "identity": 0, "table": [[0, 1], [1, 9]]}')
    assert run("compute", "hh", "--monoid", str(path)) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ParseError"
    assert "table[1][1]" in err["error"]["message"]


def test_budget_exits_two(capsys):
    assert run("compute", "hh", "--monoid", "builtin:cyclic_group(3)",
               "--budget", "5") == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ComplexityBudget"


def test_negative_budget_exits_one(capsys):
    # a negative cap is bad input, not an exceeded budget; a zero cap is
    # a budget every complex exceeds
    assert run("compute", "hh", "--monoid", "builtin:cyclic_group(2)",
               "--budget", "-5") == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "BadParams"
    assert "-5" in err["error"]["message"]
    assert run("compute", "hh", "--monoid", "builtin:cyclic_group(2)",
               "--budget", "0") == 2
    capsys.readouterr()


@pytest.mark.parametrize("target", ["omega", "der", "tensor"])
def test_negative_budget_exits_one_without_a_complex(target, capsys):
    # these targets build no complex, so the budget is checked up front
    assert run("compute", target, "--monoid", "builtin:cyclic_group(2)",
               "--budget", "-4") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"]["type"] == "BadParams"
    assert "-4" in err["error"]["message"]


def test_budget_counts_the_normalized_basis(capsys):
    # 127 tuples without the identity through degree 6; 1093 in full
    assert run("compute", "hh", "--monoid", "builtin:cyclic_group(3)",
               "--max-degree", "5", "--budget", "200") == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["HH_0 = Z", "HH_1 = Z/3", "HH_2 = 0", "HH_3 = Z/3",
                   "HH_4 = 0", "HH_5 = Z/3"]


def _count_cells_and_weights(monkeypatch):
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(gamma_chain, "rewriting",
                        counted("rewriting", gamma_chain.rewriting))
    monkeypatch.setattr(cli, "morse_hodge",
                        counted("morse_hodge", cli.morse_hodge))
    return calls


def test_hodge_above_the_projector_cap_is_bounded_by_the_budget(monkeypatch,
                                                                capsys):
    # no projector is built, so the budget alone bounds the degree; it
    # counts the normalized basis before any cell is classified
    calls = _count_cells_and_weights(monkeypatch)
    assert run("compute", "hodge", "--monoid", "builtin:cyclic_group(3)",
               "--coeff", "trivialQ", "--max-degree", "6",
               "--budget", "200") == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ComplexityBudget"
    assert calls == []
    assert run("compute", "hodge", "--monoid", "builtin:cyclic_group(3)",
               "--coeff", "trivialQ", "--max-degree", "6") == 0
    assert capsys.readouterr().out.splitlines()[-1] == \
        "degree 6: 0 + 0 + 0 + 0 + 0 + 0 = 0"
    assert calls == ["rewriting", "morse_hodge"]


def test_hodge_action_on_degree_six_is_bounded_by_the_budget(monkeypatch,
                                                             capsys):
    # degree 5 reads the map out of degree 6: 127 normalized tuples
    # through degree 6 on cyclic_group(3), over a budget of 126
    calls = _count_cells_and_weights(monkeypatch)
    assert run("compute", "hodge", "--monoid", "builtin:cyclic_group(3)",
               "--coeff", "trivialQ", "--max-degree", "5",
               "--budget", "126") == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ComplexityBudget"
    assert "127" in err["error"]["message"]
    assert calls == []


def test_hodge_in_degree_five_on_regular_coefficients(capsys):
    # Z[C] for C = truncated_add(3) is Z x Z[x]/(x^3), whose rational
    # homology in degree n >= 1 is Q^2, all of it in weight ceil(n/2)
    assert run("compute", "hodge", "--monoid", "builtin:truncated_add(3)",
               "--coeff", "jstar:regular", "--max-degree", "5") == 0
    assert capsys.readouterr().out.splitlines() == [
        "degree 1: 2 = 2", "degree 2: 2 + 0 = 2", "degree 3: 0 + 2 + 0 = 2",
        "degree 4: 0 + 2 + 0 + 0 = 2", "degree 5: 0 + 0 + 2 + 0 + 0 = 2"]


def test_hodge_in_degree_eight_on_regular_coefficients(capsys):
    # the Morse complex has one critical cell a degree here, so degree 8
    # runs under the default budget in well under two seconds
    started = time.process_time()
    assert run("compute", "hodge", "--monoid", "builtin:truncated_add(3)",
               "--coeff", "jstar:regular", "--max-degree", "8") == 0
    assert time.process_time() - started < 2
    assert capsys.readouterr().out.splitlines() == [
        f"degree {n}: " + " + ".join(
            "2" if i == (n + 1) // 2 else "0" for i in range(1, n + 1))
        + " = 2" for n in range(1, 9)]


def test_validation_exits_one(capsys):
    assert run("compute", "hodge", "--monoid", "builtin:cyclic_group(2)",
               "--coeff", "trivialZ") == 1
    assert run("compute", "hh", "--monoid", "builtin:cyclic_group(2)",
               "--coeff", "projective:left:0") == 1
    assert run("compute", "hh", "--monoid", "builtin:cyclic_group(2)",
               "--coeff", "trivialQ", "--ring", "Z") == 1
    assert run("compute", "hh", "--monoid", "builtin:cyclic_group(2)",
               "--coeff", "jstar:Zmod4:bogus") == 1
    capsys.readouterr()


def test_harrison_builds_the_full_complex(monkeypatch, capsys):
    # the normalized complex gives other Harrison groups over Z
    flags = []
    original = cli.build_complex

    def recorded(*args, **kwargs):
        flags.append(kwargs.get("normalized", False))
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "build_complex", recorded)
    assert run("compute", "harrison", "--monoid", "builtin:cyclic_group(2)",
               "--coeff", "trivialZ", "--max-degree", "4") == 0
    assert capsys.readouterr().out.splitlines()[-1] == "Harr_4 = Z/2 + Z/2"
    assert flags == [False]


def test_rational_harrison_reads_weight_one_on_the_morse_complex(
        monkeypatch, capsys):
    # over Q the dimensions are weight 1, which the Morse complex keeps
    built, reduced = [], []
    original = cli.MorseReduction

    def recorded(*args, **kwargs):
        reduced.append((args[2], kwargs.get("transfer")))
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "build_complex",
                        lambda *args, **kwargs: built.append(args))
    monkeypatch.setattr(cli, "MorseReduction", recorded)
    assert run("compute", "harrison", "--monoid", "builtin:cyclic_group(2)",
               "--coeff", "trivialQ", "--max-degree", "4") == 0
    assert capsys.readouterr().out.splitlines()[-1] == "Harr_4 = 0"
    assert built == []
    assert reduced == [(5, True)]


def test_rational_harrison_reports(tmp_path, capsys):
    # Z[C] for C = truncated_add(3) is Z x Z[x]/(x^3): its rational
    # homology is Q^2 in every degree, in weight ceil(n/2); finite groups
    # and the trivial monoid are rationally acyclic
    klein = tmp_path / "klein.json"
    klein.write_text(dumps(monoid_to_payload(
        product_monoid(cyclic_group(2), cyclic_group(2)).monoid)))
    for monoid, coeff, dims in (
            ("builtin:truncated_add(3)", "jstar:regular", (2, 2, 0, 0, 0)),
            (str(klein), "trivialQ", (0,) * 5),
            ("builtin:trivial", "trivialQ", (0,) * 5)):
        assert run("compute", "harrison", "--monoid", monoid, "--coeff",
                   coeff, "--ring", "Q", "--max-degree", "5") == 0
        assert capsys.readouterr().out.splitlines() == [
            f"Harr_{n} = {FgAbGroup.free(d)}"
            for n, d in enumerate(dims, start=1)]


def test_no_compute_target_calls_the_harrison_oracle(monkeypatch, capsys):
    # harrison_dim_q is the reference of verify; every rational Harrison
    # answer is weight 1 of hodge_decomposition
    def oracle(cx):
        raise AssertionError("harrison_dim_q on a compute path")

    for module in list(sys.modules.values()):
        if module and module.__name__.split(".")[0] == "monhom" and \
                getattr(module, "harrison_dim_q", None) is \
                gamma_chain.harrison_dim_q:
            monkeypatch.setattr(module, "harrison_dim_q", oracle)
    assert gamma_chain.harrison_dim_q is oracle
    for target, coeff in (("harrison", "trivialQ"),
                          ("harrison", "jstar:regular"),
                          ("grillet", "trivialZ"),
                          ("grillet", "jstar:regular"),
                          ("hodge", "jstar:regular")):
        assert run("compute", target, "--monoid", "builtin:truncated_add(2)",
                   "--coeff", coeff, "--max-degree", "3",
                   *(["--ring", "Q"] if coeff == "jstar:regular" else [])) == 0
    capsys.readouterr()


def test_rational_targets_lay_out_no_tuple_complex(tmp_path, monkeypatch,
                                                   capsys):
    # hodge, harrison --ring Q and grillet read the Morse complex of the
    # Klein group and of Z/3, where the matching collapses, and never lay
    # out the tuples of a degree
    def refuse(*args):
        raise AssertionError("tuple maps on a rational target")

    monkeypatch.setattr(gamma_chain, "_tuple_maps", refuse)
    klein = tmp_path / "klein.json"
    klein.write_text(dumps(monoid_to_payload(
        product_monoid(cyclic_group(2), cyclic_group(2)).monoid)))
    for monoid in (str(klein), "builtin:cyclic_group(3)"):
        for target, coeff, extra, last in (
                ("hodge", "jstar:regular", (), "degree 4: 0 + 0 + 0 + 0 = 0"),
                ("harrison", "trivialQ", (), "Harr_4 = 0"),
                ("harrison", "projective:right:1", ("--ring", "Q"),
                 "Harr_4 = 0"),
                ("grillet", "trivialZ", (), "degree 4 (char0): 0")):
            assert run("compute", target, "--monoid", monoid, "--coeff",
                       coeff, "--max-degree", "4", *extra) == 0
            assert capsys.readouterr().out.splitlines()[-1] == last
    assert run("compute", "grillet", "--monoid", str(klein), "--coeff",
               "trivialZ", "--max-degree", "1", "--format", "json") == 0
    assert json.loads(capsys.readouterr().out)["results"][0]["group"] == \
        {"free_rank": 0, "torsion": [2, 2]}


def test_harrison_sends_few_cells_to_the_dense_smith_form(monkeypatch,
                                                          capsys):
    # unit-pivot elimination leaves small residuals; Smith forms of the
    # whole matrices would take about 360 000 cells here
    cells = []
    original = exact_linalg._smith_core

    def counted(D, m, n):
        cells.append(m * n)
        return original(D, m, n)

    monkeypatch.setattr(exact_linalg, "_smith_core", counted)
    assert run("compute", "harrison", "--monoid", "builtin:truncated_add(2)",
               "--coeff", "jstar:regular", "--max-degree", "4") == 0
    assert capsys.readouterr().out.splitlines()[-1] == \
        "Harr_4 = " + " + ".join(["Z/2"] * 9)
    assert 0 < sum(cells) <= 5000


def test_torsion_leech_sends_few_cells_to_the_dense_smith_form(
        monkeypatch, capsys, tmp_path):
    # the cone of Z/4 coefficients is free, so each map goes to the sparse
    # elimination once; the map into the top degree is only ranked
    # (int_rank), and its invariant factors would take about 410 000
    # cells alone
    cells = []
    original = exact_linalg._smith_core

    def counted(D, m, n):
        cells.append(m * n)
        return original(D, m, n)

    klein = tmp_path / "klein.json"
    klein.write_text(dumps(monoid_to_payload(
        product_monoid(cyclic_group(2), cyclic_group(2)).monoid)))
    monkeypatch.setattr(exact_linalg, "_smith_core", counted)
    assert run("compute", "leech", "--monoid", str(klein), "--coeff",
               "jstar:Zmod4:trivial", "--max-degree", "5") == 0
    assert capsys.readouterr().out.splitlines()[-1] == \
        "HH^5 = " + " + ".join(["Z/2"] * 6)
    assert 0 < sum(cells) <= 30000


def test_lattice_paths_build_no_dense_copies(monkeypatch, capsys, tmp_path):
    # the lattice routines take sparse columns, so a dense matrix is built
    # only for module data and the residuals of elimination: about 3 500
    # and 4 500 cells here; dense copies of the whole systems take about
    # 91 000 and 1.27 M
    cells = []
    original = IntMatrix.__init__

    def counted(self, data, cols=None):
        original(self, data, cols)
        cells.append(self.rows * self.cols)

    klein = tmp_path / "klein.json"
    klein.write_text(dumps(monoid_to_payload(
        product_monoid(cyclic_group(2), cyclic_group(2)).monoid)))
    monkeypatch.setattr(IntMatrix, "__init__", counted)
    assert run("compute", "hh", "--monoid", str(klein), "--coeff",
               "jstar:Zmod4:trivial", "--max-degree", "4") == 0
    assert capsys.readouterr().out.splitlines()[-1] == \
        "HH_4 = " + " + ".join(["Z/2"] * 5)
    assert 0 < sum(cells) <= 6000
    cells.clear()
    assert run("compute", "harrison", "--monoid", "builtin:truncated_add(2)",
               "--coeff", "jstar:regular", "--max-degree", "4") == 0
    assert capsys.readouterr().out.splitlines()[-1] == \
        "Harr_4 = " + " + ".join(["Z/2"] * 9)
    assert 0 < sum(cells) <= 8000


def test_exit_code_map():
    assert cli._exit_code(OracleMismatch("x")) == 3
    assert cli._exit_code(ComplexityBudget("x")) == 2
    assert cli._exit_code(ParseError("x")) == 1


def test_failed_solve_exits_three(monkeypatch, capsys):
    # a lattice solve that should always succeed is a falsified invariant:
    # a typed error with exit code 3, not an assert that -O removes; free
    # coefficients solve nothing, so this runs on torsion coefficients,
    # whose cone writes d on the relations in their basis by a solve
    monkeypatch.setattr(gamma_chain, "solve_int", lambda B, rows, C: None)
    assert run("compute", "hh", "--monoid", "builtin:cyclic_group(2)",
               "--coeff", "jstar:Zmod4:trivial", "--max-degree", "1") == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "NotAComplex"


def test_over_reported_boundary_rank_exits_three(monkeypatch, capsys):
    # ranks that leave a negative free rank mean d o d != 0 after all
    real = gamma_chain.rank_and_torsion
    monkeypatch.setattr(gamma_chain, "rank_and_torsion",
                        lambda cols, rows: (real(cols, rows)[0] + 1, ()))
    assert run("compute", "hh", "--monoid", "builtin:cyclic_group(2)",
               "--max-degree", "1") == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "NotAComplex"


def test_outputs_are_byte_identical_across_runs(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        assert run("compute", "grillet", "--monoid",
                   "builtin:semilattice_chain(1)", "--coeff", "trivialZ",
                   "--format", "json", "--out", str(path)) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_verify_command(tmp_path, capsys):
    assert run("verify", "lemma-nuli") == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[-1] == "6/6 checks passed"
    assert all(line.startswith("# lemma-nuli[")
               for line in captured.err.splitlines())

    path = tmp_path / "v.json"
    assert run("verify", "degree-bridge", "--format", "json",
               "--out", str(path)) == 0
    capsys.readouterr()
    payload = json.loads(path.read_text())
    assert payload["failed"] == 0 and payload["passed"] == 6

    assert run("verify", "bogus") == 1
    err = json.loads(capsys.readouterr().err)
    assert "unknown suite" in err["error"]["message"]


def test_failed_verify_check_exits_three(monkeypatch, capsys):
    # a falsified check is exit 3 as in the README; bad input stays 1
    def falsified():
        raise OracleMismatch("two routes disagree")

    monkeypatch.setitem(verify.SUITES, "broken", lambda: [
        verify._guarded("broken[one]", "anchor", falsified)])
    assert run("verify", "broken") == 3
    out = capsys.readouterr().out
    assert out.startswith("FAIL broken[one]: anchor")
    assert out.splitlines()[-1] == "0/1 checks passed"


def test_sparse_homology_suite_catches_dropped_torsion(monkeypatch, capsys):
    real = gamma_chain.rank_and_torsion
    monkeypatch.setattr(gamma_chain, "rank_and_torsion",
                        lambda cols, rows: (real(cols, rows)[0], ()))
    assert run("verify", "sparse-homology") == 3
    out = capsys.readouterr().out
    assert "FAIL sparse-homology[cyclic_group(2)]" in out
    assert "OracleMismatch" in out


def test_sparse_homology_suite_catches_a_dropped_back_substitution(
        monkeypatch, capsys):
    real = exact_linalg._back_substitute
    monkeypatch.setattr(exact_linalg, "_back_substitute",
                        lambda pivots, X, rhs: real(pivots[1:], X, rhs))
    assert run("verify", "sparse-homology") == 3
    out = capsys.readouterr().out
    assert "FAIL sparse-homology[cyclic_group(2): lattices]" in out
    assert "OracleMismatch" in out


def test_sparse_homology_suite_catches_a_cone_without_d_s(monkeypatch,
                                                         capsys):
    # d on the relations taken as 0 in the relation basis one degree over
    monkeypatch.setattr(gamma_chain, "solve_int",
                        lambda B, rows, C: [{} for _ in C])
    assert run("verify", "sparse-homology") == 3
    out = capsys.readouterr().out
    assert "FAIL sparse-homology[cyclic_group(2): cone]" in out
    assert "PASS sparse-homology[cyclic_group(2): lattices]" in out
    assert "OracleMismatch" in out


# -- codec edge cases ----------------------------------------------------


def test_matrix_codec_round_trip():
    mat = IntMatrix([[1, -2, 3], [0, 5, 8]])
    assert matrix_from_payload(matrix_to_payload(mat), "m") == mat
    empty = IntMatrix.zeros(0, 4)
    back = matrix_from_payload(matrix_to_payload(empty), "m")
    assert back.rows == 0 and back.cols == 4


def test_module_codec_round_trip_with_wide_action():
    module = std_projective(truncated_add(2), 2, RIGHT)
    assert module.act[(1, 1)].shape() == (2, 3)
    back = tabulated_from_payload(tabulated_to_payload(module))
    assert back.side == module.side
    assert back.ranks == module.ranks
    assert back.act == module.act
    assert back.rels == module.rels

    torsion = jstar_finite_cyclic(cyclic_group(3), 4, RIGHT)
    again = tabulated_from_payload(tabulated_to_payload(torsion))
    assert again.rels == torsion.rels


def test_codec_rejects_unknown_fields_with_location():
    mon = monoid_to_payload(cyclic_group(2))
    mon["extra"] = 1
    with pytest.raises(ParseError, match="unknown fields"):
        monoid_from_payload(mon, "f.json")
    with pytest.raises(ParseError, match=r"f.json: missing fields \['table'\]"):
        monoid_from_payload({"size": 1, "identity": 0}, "f.json")
    with pytest.raises(ParseError, match=r"f.json.table\[0\]\[0\]: expected "
                                         "an integer, got bool"):
        monoid_from_payload({"size": 1, "identity": 0, "table": [[True]]},
                            "f.json")

    payload = tabulated_to_payload(jstar_finite_cyclic(cyclic_group(2), 4,
                                                       RIGHT))
    payload["act"][0]["matrix"]["entries"][0].append(7)
    with pytest.raises(ParseError, match=r"act\[0\].matrix.entries\[0\]"):
        tabulated_from_payload(payload, "f.json")


def test_codec_rejects_broken_action_law():
    payload = tabulated_to_payload(jstar(regular_kc_module(cyclic_group(2)),
                                         RIGHT))
    spot = next(item for item in payload["act"]
                if (item["c"], item["a"]) == (1, 0))
    spot["matrix"]["entries"] = [[1, 1], [0, 1]]
    with pytest.raises(ParseError, match=r"f.json: module law \w+ fails at"):
        tabulated_from_payload(payload, "f.json")
