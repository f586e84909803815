import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import braidmu as bm
from braidmu.cli import main

from conftest import (HUGE_DEGREE_TEXT, HUGE_ENTRY_TEXT, HUGE_MODULUS_TEXT, kac_takesaki_text,
                      mutated_texts, super_kac_takesaki_text)


def run(args):
    return main(args)


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def read_json(path):
    """A report, read by a parser that rejects NaN and Infinity."""
    with open(path) as handle:
        return json.load(handle, parse_constant=_reject_constant)


def test_generate_and_analyze_kac_takesaki(tmp_path):
    out = tmp_path / "w.json"
    report = tmp_path / "report.json"
    assert run(["generate", "kac-takesaki", "--group", "Zn", "--n", "4",
                "-o", str(out)]) == 0
    bundle = bm.load_bundle(str(out))
    mu = bundle.mult_unitary("W")
    assert bm.pentagon_residual(mu) < 1e-12
    assert run(["analyze", str(out), "--object", "W", "--report", str(report)]) == 0
    tree = read_json(str(report))
    assert tree["pass"] is True
    ranks = {c["name"]: c for c in tree["checks"]}
    assert ranks["rank-c"]["value"] == 16
    assert tree["input"]["sha256"]


def test_generate_super_bundle(tmp_path):
    out = tmp_path / "s.json"
    assert run(["generate", "super", "--dim", "2", "-o", str(out)]) == 0
    bundle = bm.load_bundle(str(out))
    assert bundle.braiding_kind == "phase"
    assert bundle.spaces["L"].grading == (0, 1)


def test_generate_unknown_kind_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["generate", "nonsense", "-o", str(tmp_path / "x.json")])
    assert exc.value.code == 2


def test_generate_zn_needs_n(tmp_path):
    assert run(["generate", "kac-takesaki", "--group", "Zn",
                "-o", str(tmp_path / "x.json")]) == 2


def test_analyze_identity_bundle_fails_regularity(tmp_path):
    out = tmp_path / "id.json"
    report = tmp_path / "r.json"
    assert run(["generate", "identity", "--dim", "2", "-o", str(out)]) == 0
    assert run(["analyze", str(out), "--object", "F", "--report", str(report)]) == 1
    tree = read_json(str(report))
    checks = {c["name"]: c for c in tree["checks"]}
    assert checks["pentagon"]["pass"] is True
    assert checks["regular"]["pass"] is False


def test_analyze_missing_object_is_usage_error(tmp_path):
    out = tmp_path / "w.json"
    run(["generate", "kac-takesaki", "--group", "Zn", "--n", "2", "-o", str(out)])
    assert run(["analyze", str(out), "--object", "NOPE"]) == 2


def test_analyze_corrupted_matrix_fails_unitarity(tmp_path):
    out = tmp_path / "w.json"
    run(["generate", "kac-takesaki", "--group", "Zn", "--n", "2", "-o", str(out)])
    bundle = bm.load_bundle(str(out))
    m = bundle.operators["W"].matrix.copy()
    m[0, 0] = 2.0
    bundle.operators["W"] = bm.LegOperator(bundle.operators["W"].signature, m)
    bm.save_bundle(bundle, str(out))
    report = tmp_path / "r.json"
    assert run(["analyze", str(out), "--object", "W", "--report", str(report)]) == 1
    tree = read_json(str(report))
    checks = {c["name"]: c for c in tree["checks"]}
    assert checks["unitarity"]["pass"] is False


def test_search_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["search", "--category", "super", "--dim", "2", "--seed", "5",
            "--restarts", "3"]
    assert run(args + ["-o", str(a)]) == 0
    assert run(args + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_search_outputs_are_certified(tmp_path):
    out = tmp_path / "found.json"
    report = tmp_path / "r.json"
    assert run(["search", "--category", "super", "--dim", "2", "--seed", "1",
                "--restarts", "3", "-o", str(out), "--report", str(report)]) == 0
    tree = read_json(str(report))
    assert tree["seed"] == 1
    bundle = bm.load_bundle(str(out))
    for name, op in bundle.operators.items():
        mu = bundle.mult_unitary(name)
        assert bm.pentagon_residual(mu) < 1e-8


def test_search_phase_category(tmp_path):
    out = tmp_path / "p.json"
    assert run(["search", "--category", "phase", "--modulus", "3", "--dim", "3",
                "--seed", "4", "--restarts", "1", "-o", str(out)]) == 0
    bundle = bm.load_bundle(str(out))
    assert bundle.braiding_modulus == 3
    for name in bundle.operators:
        assert bm.pentagon_residual(bundle.mult_unitary(name)) < 1e-8


def test_search_with_zero_target_is_exit_zero(tmp_path):
    out = tmp_path / "none.json"
    assert run(["search", "--category", "super", "--dim", "2", "--seed", "2",
                "--restarts", "2", "--target-residual", "1e-300",
                "-o", str(out)]) == 0
    bundle = bm.load_bundle(str(out))
    for name in bundle.operators:
        assert bm.pentagon_residual(bundle.mult_unitary(name)) < 1e-300


def test_search_at_dimension_four(tmp_path):
    out = tmp_path / "d4.json"
    assert run(["search", "--category", "flip", "--dim", "4", "--restarts", "1",
                "--max-iter", "1", "-o", str(out)]) == 0
    bundle = bm.load_bundle(str(out))
    assert bundle.spaces["L"].dim == 4
    for name in bundle.operators:
        assert bm.pentagon_residual(bundle.mult_unitary(name)) < 1e-8


def corpus_path(name):
    import importlib.resources as resources
    return str(resources.files("braidmu") / "corpus" / name)


def test_eval_statement_corpus(tmp_path):
    data = tmp_path / "yd.json"
    assert run(["generate", "group-yd", "-o", str(data)]) == 0
    for name in ("pentagon.stmt", "corep.stmt", "rep.stmt", "yd.stmt",
                 "goodness.stmt"):
        assert run(["eval", corpus_path(name), str(data)]) == 0


def test_eval_failing_statement(tmp_path):
    data = tmp_path / "yd.json"
    run(["generate", "group-yd", "-o", str(data)])
    bad = tmp_path / "bad.stmt"
    bad.write_text("context: L L\nW[1,2] == c[1,2]\n")
    report = tmp_path / "r.json"
    assert run(["eval", str(bad), str(data), "--report", str(report)]) == 1
    tree = read_json(str(report))
    assert tree["pass"] is False
    assert tree["checks"][0]["value"] > 0.1


def test_eval_malformed_statement_is_exit_two(tmp_path):
    data = tmp_path / "yd.json"
    run(["generate", "group-yd", "-o", str(data)])
    bad = tmp_path / "broken.stmt"
    bad.write_text("context: L L\nW[1,2\n")
    assert run(["eval", str(bad), str(data)]) == 2


def test_reports_are_self_contained(tmp_path):
    # every pass flag must be re-derivable from the recorded numbers
    out = tmp_path / "w.json"
    report = tmp_path / "r.json"
    run(["generate", "kac-takesaki", "--group", "Zn", "--n", "3", "-o", str(out)])
    run(["analyze", str(out), "--object", "W", "--report", str(report)])
    tree = read_json(str(report))
    for check in tree["checks"]:
        if check["kind"] == "residual":
            assert check["pass"] == (check["value"] < check["tol"])
        elif check["kind"] == "rank":
            assert check["pass"] == (check["value"] == check["expected"])
        else:
            assert check["pass"] == bool(check["value"])
    assert tree["pass"] == all(c["pass"] for c in tree["checks"])


def _without_times(checks):
    return [{k: v for k, v in c.items() if k != "wall_time_s"} for c in checks]


@pytest.mark.parametrize("tol", ["1e-9", "1e-6"])
@pytest.mark.parametrize("kind", ["kac-takesaki", "identity"])
def test_analyze_report_is_the_certificate_check_list(tmp_path, kind, tol):
    out = tmp_path / "b.json"
    report = tmp_path / "r.json"
    extra, name = (["--n", "3"], "W") if kind == "kac-takesaki" else (["--dim", "2"], "F")
    assert run(["generate", kind, *extra, "-o", str(out)]) == 0
    code = run(["analyze", str(out), "--object", name, "--tol", tol, "--report", str(report)])
    tree = read_json(str(report))
    cert = bm.full_certificate(bm.load_bundle(str(out)).mult_unitary(name), float(tol))
    # the identity control's unsupported hexagon is NaN, a null value on both sides
    assert json.dumps(_without_times(tree["checks"])) == json.dumps(_without_times(cert.checks()))
    assert tree["pass"] == cert.all_passed
    assert code == (0 if cert.all_passed else 1)


# the certificate's checks in report order, with their kinds
CERTIFICATE_CHECKS = [
    ("unitarity", "residual"), ("pentagon", "residual"), ("braiding-hexagon", "residual"),
    ("routing-agreement", "residual"), ("rank-c", "rank"), ("rank-d", "rank"),
    ("commutant-dim", "rank"), ("regular", "flag"), ("bi-regular", "flag"),
    ("dual-consistent", "flag"), ("podles-right", "flag"), ("podles-left", "flag"),
    ("coassociativity", "residual"), ("multiplier", "flag"), ("sandwich-span", "flag"),
]


@pytest.mark.parametrize("kind", ["kac-takesaki", "identity"])
def test_analyze_report_pins_the_check_list(tmp_path, kind):
    out = tmp_path / "b.json"
    report = tmp_path / "r.json"
    extra, name, n = ((["--n", "3"], "W", 3) if kind == "kac-takesaki"
                      else (["--dim", "2"], "F", 2))
    assert run(["generate", kind, *extra, "-o", str(out)]) == 0
    run(["analyze", str(out), "--object", name, "--tol", "1e-6", "--report", str(report)])
    checks = read_json(str(report))["checks"]
    assert [(c["name"], c["kind"]) for c in checks] == CERTIFICATE_CHECKS
    expected = {"rank-c": n * n, "rank-d": n * n, "commutant-dim": 1}
    for c in checks:
        assert c.get("tol") == (1e-6 if c["kind"] == "residual" else None), c["name"]
        assert c.get("expected") == expected.get(c["name"]), c["name"]


@pytest.mark.parametrize("kind", ["kac-takesaki", "identity"])
def test_every_untimed_record_names_the_record_timed_for_its_step(tmp_path, kind):
    """A step that yields several records times the first; each later record
    reads zero time and names that first record, which comes earlier and
    carries the time itself."""
    out = tmp_path / "b.json"
    report = tmp_path / "r.json"
    extra, name = (["--n", "3"], "W") if kind == "kac-takesaki" else (["--dim", "2"], "F")
    assert run(["generate", kind, *extra, "-o", str(out)]) == 0
    run(["analyze", str(out), "--object", name, "--report", str(report)])
    checks = read_json(str(report))["checks"]
    names = [c["name"] for c in checks]
    shared = {c["name"]: c["timed_with"] for c in checks if "timed_with" in c}
    assert shared == {
        "rank-d": "rank-c", "commutant-dim": "rank-c", "regular": "rank-c",
        "bi-regular": "rank-c", "dual-consistent": "rank-c",
        "podles-left": "podles-right", "sandwich-span": "multiplier"}
    for i, c in enumerate(checks):
        if c["wall_time_s"] == 0.0:
            first = names.index(c["timed_with"])
            # the records of one step are consecutive
            assert first < i and all(shared.get(n) == c["timed_with"] for n in names[first + 1:i])
            assert "timed_with" not in checks[first]
        else:
            assert "timed_with" not in c


def test_report_into_a_missing_directory_is_an_input_error(tmp_path, capsys):
    bundle = tmp_path / "w.json"
    stmt = tmp_path / "s.stmt"
    stmt.write_text("context: L L\nW[1,2] == W[1,2]\n")
    run(["generate", "kac-takesaki", "--group", "Zn", "--n", "2", "-o", str(bundle)])
    missing = str(tmp_path / "missing" / "r.json")
    for argv in (["analyze", str(bundle)],
                 ["search", "--dim", "2", "--restarts", "1", "--max-iter", "2",
                  "-o", str(tmp_path / "found.json")],
                 ["eval", str(stmt), str(bundle)]):
        capsys.readouterr()
        assert run(argv + ["--report", missing]) == 2
        assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("argv", [
    ["search", "--dim", "0"],
    ["search", "--category", "phase", "--modulus", "0"],
    ["generate", "kac-takesaki", "--n", "0"],
    ["generate", "identity", "--dim", "-1"],
    ["generate", "super", "--dim", "0"],
], ids=["search dim", "search modulus", "generate n", "generate identity dim",
        "generate super dim"])
def test_nonpositive_sizes_are_usage_errors(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run([*argv, "-o", str(tmp_path / "x.json")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument" in err and "must be at least 1" in err
    assert not (tmp_path / "x.json").exists()


def test_search_rejects_a_negative_seed_as_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["search", "--seed", "-1", "-o", str(tmp_path / "x.json")])
    assert exc.value.code == 2
    assert "error: argument --seed: must be at least 0" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("text, message", [
    ("context: L L\nW[1,2] == W[1,2]\ncontext: L L L\n",
     "line 3, column 1: a second 'context:' header (the first is on line 1)"),
    ("# data\ncontext: L Q\nW[1,2] == W[1,2]\n", "line 2, column 12: unknown space id 'Q'"),
])
def test_eval_header_errors_are_input_errors_at_their_line(tmp_path, capsys, text, message):
    data = tmp_path / "yd.json"
    run(["generate", "group-yd", "-o", str(data)])
    stmt = tmp_path / "header.stmt"
    stmt.write_text(text)
    capsys.readouterr()
    assert run(["eval", str(stmt), str(data)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_eval_rejects_use_lines(tmp_path, capsys):
    data = tmp_path / "yd.json"
    run(["generate", "group-yd", "-o", str(data)])
    stmt = tmp_path / "use.stmt"
    stmt.write_text("context: L L\nuse: W\nW[1,2] == W[1,2]\n")
    assert run(["eval", str(stmt), str(data)]) == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--restarts", "-1"], "must be at least 1"),
    (["--max-iter", "-3"], "must be at least 1"),
    (["--target-residual", "nan"], "must be a positive finite number"),
    (["--target-residual", "-1"], "must be a positive finite number"),
])
def test_search_rejects_meaningless_budgets_as_usage_errors(tmp_path, capsys, flags, message):
    with pytest.raises(SystemExit) as exc:
        run(["search", *flags, "-o", str(tmp_path / "x.json")])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("argv", [
    ["generate", "kac-takesaki", "--group", "Zn", "--n", "2"],
    ["search", "--dim", "2", "--restarts", "1", "--max-iter", "2"],
], ids=["generate", "search"])
def test_output_into_a_missing_directory_is_an_input_error(tmp_path, capsys, argv, monkeypatch):
    import braidmu.cli as cli
    searched = []
    monkeypatch.setattr(cli, "search", lambda problem: searched.append(problem) or [])
    assert run(argv + ["-o", str(tmp_path / "missing" / "x.json")]) == 2
    assert "error: no such directory" in capsys.readouterr().err
    assert not searched  # checked before any restart runs
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("argv", [
    ["generate", "kac-takesaki", "--group", "Zn", "--n", "2", "-o"],
    ["search", "--dim", "2", "--restarts", "1", "--max-iter", "2", "-o"],
    ["search", "--dim", "2", "--restarts", "1", "--max-iter", "2", "-o", "found.json",
     "--report"],
], ids=["generate", "search", "search-report"])
def test_output_naming_a_directory_is_an_input_error(tmp_path, capsys, argv, monkeypatch):
    import braidmu.cli as cli
    searched = []
    monkeypatch.setattr(cli, "search", lambda problem: searched.append(problem) or [])
    monkeypatch.chdir(tmp_path)
    target = tmp_path / "out"
    target.mkdir()
    assert run(argv + [str(target)]) == 2
    assert f"error: {target} is a directory" in capsys.readouterr().err
    assert not searched  # checked before any restart runs
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["out"]  # no stray .tmp file


@pytest.mark.parametrize("argv", [
    ["generate", "kac-takesaki", "--group", "Zn", "--n", "2"],
    ["search", "--dim", "2", "--restarts", "1", "--max-iter", "2"],
    ["search", "--dim", "2", "--restarts", "1", "--max-iter", "2", "--report", "r.json"],
], ids=["generate", "search", "search-report"])
def test_an_empty_output_path_is_an_input_error(tmp_path, capsys, argv, monkeypatch):
    import braidmu.cli as cli
    searched = []
    monkeypatch.setattr(cli, "search", lambda problem: searched.append(problem) or [])
    monkeypatch.chdir(tmp_path)
    assert run(argv + ["-o", ""]) == 2
    assert capsys.readouterr().err == "error: the output path is empty\n"
    assert not searched  # checked before any restart runs
    assert not list(tmp_path.iterdir())


def test_an_empty_report_path_writes_no_report(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(["generate", "kac-takesaki", "--group", "Zn", "--n", "2", "-o", "w.json"]) == 0
    stmt = tmp_path / "s.stmt"
    stmt.write_text("context: L L\nW[1,2] == W[1,2]\n")
    for argv in (["analyze", "w.json"],
                 ["search", "--dim", "2", "--restarts", "1", "--max-iter", "2",
                  "-o", "found.json"],
                 ["eval", str(stmt), "w.json"]):
        assert run(argv + ["--report", ""]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["found.json", "s.stmt", "w.json"]


def _analyze_edited_bundle(tmp_path, capsys, edit):
    """Exit code and stderr of analyze on a Z2 bundle whose JSON tree ``edit`` changed."""
    path = tmp_path / "w.json"
    run(["generate", "kac-takesaki", "--group", "Zn", "--n", "2", "-o", str(path)])
    tree = read_json(str(path))
    edit(tree)
    path.write_text(json.dumps(tree))
    capsys.readouterr()
    return run(["analyze", str(path)]), capsys.readouterr().err


def test_analyze_rejects_spaces_that_are_not_an_object(tmp_path, capsys):
    code, err = _analyze_edited_bundle(tmp_path, capsys, lambda tree: tree.update(spaces=[]))
    assert code == 2
    assert "/spaces: expected an object, got list" in err


def test_analyze_rejects_a_non_finite_matrix_entry(tmp_path, capsys):
    def edit(tree):
        tree["operators"]["W"]["matrix"][0][0] = [float("nan"), 0.0]
    code, err = _analyze_edited_bundle(tmp_path, capsys, edit)
    assert code == 2
    assert "/operators/W/matrix: matrix entries must be finite" in err


def test_boolean_matrix_entries_are_input_errors(tmp_path, capsys):
    def edit(tree):
        for row in tree["operators"]["W"]["matrix"]:
            for pair in row:
                pair[:] = [bool(pair[0]), bool(pair[1])]
    code, err = _analyze_edited_bundle(tmp_path, capsys, edit)
    assert code == 2
    assert "/operators/W/matrix: matrix entries must be numbers, not true or false" in err
    stmt = tmp_path / "w.stmt"
    stmt.write_text("context: L L\nW[1,2] == W[1,2]\n")
    assert run(["eval", str(stmt), str(tmp_path / "w.json")]) == 2
    assert "/operators/W/matrix" in capsys.readouterr().err


@pytest.mark.parametrize("entry", [[1, 0, 5], "10", None, [1]],
                         ids=["three-numbers", "string", "null", "one-number"])
def test_analyze_rejects_a_matrix_entry_that_is_not_a_pair(tmp_path, capsys, entry):
    def edit(tree):
        tree["operators"]["W"]["matrix"][0][0] = entry
    code, err = _analyze_edited_bundle(tmp_path, capsys, edit)
    assert code == 2
    assert "/operators/W/matrix: matrix must be equal-length rows of [re, im] pairs" in err


def test_analyze_rejects_a_domain_that_is_not_a_list(tmp_path, capsys):
    def edit(tree):
        tree["operators"]["W"]["domain"] = "LL"
    code, err = _analyze_edited_bundle(tmp_path, capsys, edit)
    assert code == 2
    assert "/operators/W/domain: expected a list, got str" in err


def test_analyze_rejects_a_braiding_that_does_not_cover_the_space(tmp_path, capsys):
    # the phase braiding needs gradings, and the Kac-Takesaki space has none
    def edit(tree):
        tree["braiding"] = {"kind": "phase", "modulus": 2}
    code, err = _analyze_edited_bundle(tmp_path, capsys, edit)
    assert code == 2
    assert "/braiding: phase braiding does not cover (L, L)" in err


def _z3_module_bundle(path):
    omega = np.exp(2j * np.pi / 3)
    module, mu = bm.group_yd_module(bm.cyclic(3), [0, 1, 2],
                                    [np.diag(omega ** (g * np.arange(3))) for g in range(3)])
    bundle = bm.Bundle()
    bundle.spaces.update({mu.space.id: mu.space, module.space.id: module.space})
    bundle.operators.update(W=mu.op, U=module.corep, V=module.rep)
    bundle.groups["Z3"] = bm.cyclic(3)
    bm.save_bundle(bundle, str(path))


def test_eval_rejects_sides_that_end_on_different_legs(tmp_path, capsys):
    # c maps H (x) L to L (x) H while U keeps H (x) L: the matrices have the
    # same shape but their rows carry different legs, so there is no residual
    data = tmp_path / "z3.json"
    _z3_module_bundle(data)
    stmt = tmp_path / "legs.stmt"
    stmt.write_text("context: H L\nc[1,2] == U[1,2]\n")
    capsys.readouterr()
    assert run(["eval", str(stmt), str(data)]) == 2
    err = capsys.readouterr()
    assert err.out == ""
    assert err.err == ("error: line 2: the two sides of '==' end on different legs, "
                       "['L', 'H'] and ['H', 'L']\n")


@pytest.mark.parametrize("context, statement, message", [
    ("H L", "c[1,2]^* == c[1,2]^*", "adjoint of a context-changing expression is not supported"),
    ("L L", "Q[1,2] == W[1,2]", "unknown operator name 'Q'"),
    ("L L L", "W[1,4] == W[1,2]", "leg index out of range in W[1, 4]"),
    ("L L L", "W[2,1] == W[1,2]", "unsupported leg pattern [2, 1] for W"),
    ("L L L", "c[1,3] == W[1,3]", "c braids adjacent legs only, got (1, 3)"),
])
def test_eval_leg_errors_keep_their_messages(tmp_path, capsys, context, statement, message):
    data = tmp_path / "z3.json"
    _z3_module_bundle(data)
    stmt = tmp_path / "bad.stmt"
    stmt.write_text(f"context: {context}\n{statement}\n")
    capsys.readouterr()
    assert run(["eval", str(stmt), str(data)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("digit", ["\u00b2", "\u0662"])
def test_eval_reads_only_ascii_digits_as_leg_indices(tmp_path, capsys, digit):
    # a superscript two is a digit to str.isdigit() that int() rejects, and an
    # Arabic-Indic two one that int() reads as 2; both are parse errors
    data = tmp_path / "w.json"
    run(["generate", "kac-takesaki", "--group", "Zn", "--n", "2", "-o", str(data)])
    stmt = tmp_path / "digits.stmt"
    stmt.write_text(f"context: L L\nW[1,2] == W[1,{digit}]\n", encoding="utf-8")
    capsys.readouterr()
    assert run(["eval", str(stmt), str(data)]) == 2
    err = capsys.readouterr()
    assert err.out == ""
    assert err.err == f"error: line 2, column 15: unexpected character {digit!r}\n"


def _analyze_in_a_process(tmp_path, matrix):
    """Exit code, stderr and report checks (None without a report) of ``braidmu
    analyze``, run as its own process, on a Z2 bundle whose W is replaced by
    ``matrix``."""
    path, report = tmp_path / "w.json", tmp_path / "r.json"
    run(["generate", "kac-takesaki", "--group", "Zn", "--n", "2", "-o", str(path)])
    bundle = bm.load_bundle(str(path))
    bundle.operators["W"] = bm.LegOperator(bundle.operators["W"].signature, matrix)
    bm.save_bundle(bundle, str(path))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(bm.__file__)))
    done = subprocess.run([sys.executable, "-m", "braidmu.cli", "analyze", str(path),
                           "--report", str(report)], capture_output=True, text=True, env=env)
    checks = ({c["name"]: c for c in read_json(str(report))["checks"]}
              if report.exists() else None)
    return done.returncode, done.stderr, checks


def test_analyze_of_a_zero_matrix_fails_its_checks_without_a_traceback(tmp_path):
    # the slice algebras are zero, so every crossed product is empty
    code, err, checks = _analyze_in_a_process(tmp_path, np.zeros((4, 4), dtype=complex))
    assert code == 1
    assert "Traceback" not in err
    for name in ("unitarity", "podles-right", "podles-left", "coassociativity",
                 "multiplier", "sandwich-span"):
        assert checks[name]["pass"] is False, name
    # the extension raised, so coassociativity is infinite: a null value that says so
    assert checks["coassociativity"]["value"] is None
    assert checks["coassociativity"]["nonfinite"] == "inf"


def test_analyze_of_entries_too_large_to_square_is_an_input_error(tmp_path):
    # the entries are finite, so the schema accepts them, but their squares
    # overflow and an SVD of the regularity check does not converge
    kt = bm.kac_takesaki(bm.cyclic(2)).matrix
    code, err, checks = _analyze_in_a_process(tmp_path, kt * 1e300)
    assert code == 2
    # numpy's overflow warnings are silenced: the error line is all of stderr
    assert err == "error: SVD did not converge\n"
    assert checks is None


def test_analyze_of_entries_that_overflow_keeps_its_report(tmp_path):
    # squares of 1e100 overflow to inf, and their differences to nan, yet every
    # SVD converges: the checks fail and record the values, without warnings
    kt = bm.kac_takesaki(bm.cyclic(2)).matrix
    code, err, checks = _analyze_in_a_process(tmp_path, kt * 1e100)
    assert code == 1
    assert err == ""
    assert len(checks) == 15
    assert checks["unitarity"]["pass"] is False


def test_analyze_of_a_rank_one_matrix_keeps_its_report(tmp_path):
    w = np.zeros((4, 4), dtype=complex)
    w[0, 0] = 1.0
    code, err, checks = _analyze_in_a_process(tmp_path, w)
    assert code == 1
    assert "Traceback" not in err
    assert {name: c["value"] for name, c in checks.items()} == {
        "unitarity": pytest.approx(np.sqrt(3)), "pentagon": 0.0, "braiding-hexagon": 0.0,
        "routing-agreement": 0.0, "rank-c": 1, "rank-d": 1, "commutant-dim": 0,
        "regular": False, "bi-regular": False, "dual-consistent": True,
        "podles-right": True, "podles-left": True, "coassociativity": 0.0,
        "multiplier": True, "sandwich-span": True}


def test_eval_report_escapes_control_characters(tmp_path):
    bundle, stmt, report = tmp_path / "kt2.json", tmp_path / "tab.stmt", tmp_path / "r.json"
    assert run(["generate", "kac-takesaki", "--group", "Zn", "--n", "2", "-o", str(bundle)]) == 0
    stmt.write_text("context: L L\nW[1,2]\t== W[1,2]\n")
    assert run(["eval", str(stmt), str(bundle), "--report", str(report)]) == 0
    (check,) = read_json(str(report))["checks"]
    assert check["name"] == "W[1,2]\t== W[1,2]"
    assert check["pass"] is True


def test_identity_control_reports_its_nan_hexagon_as_null(tmp_path):
    bundle, report = tmp_path / "id.json", tmp_path / "r.json"
    assert run(["generate", "identity", "--dim", "2", "-o", str(bundle)]) == 0
    assert run(["analyze", str(bundle), "--object", "F", "--report", str(report)]) == 1
    checks = {c["name"]: c for c in read_json(str(report))["checks"]}
    hexagon = checks["braiding-hexagon"]
    assert (hexagon["value"], hexagon["nonfinite"], hexagon["pass"]) == (None, "nan", False)
    assert "nonfinite" not in checks["pentagon"]


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-9"])
@pytest.mark.parametrize("command", ["analyze", "eval"])
def test_a_tolerance_that_is_not_positive_and_finite_is_a_usage_error(tmp_path, capsys,
                                                                       command, tol):
    bundle, stmt = tmp_path / "kt2.json", tmp_path / "s.stmt"
    assert run(["generate", "kac-takesaki", "--group", "Zn", "--n", "2", "-o", str(bundle)]) == 0
    stmt.write_text("context: L L\nW[1,2] == W[1,2]\n")
    files = [str(bundle)] if command == "analyze" else [str(stmt), str(bundle)]
    with pytest.raises(SystemExit) as exc:
        run([command, *files, f"--tol={tol}"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "eval"])
def test_input_that_is_not_utf8_is_an_input_error(tmp_path, capsys, command):
    bundle, stmt = tmp_path / "kt2.json", tmp_path / "s.stmt"
    assert run(["generate", "kac-takesaki", "--group", "Zn", "--n", "2", "-o", str(bundle)]) == 0
    stmt.write_text("context: L L\nW[1,2] == W[1,2]\n")
    bad = bundle if command == "analyze" else stmt
    bad.write_bytes(b"\xff" + bad.read_bytes())
    files = [str(bundle)] if command == "analyze" else [str(stmt), str(bundle)]
    capsys.readouterr()
    assert run([command, *files]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not UTF-8 text" in err


@pytest.mark.parametrize("command", ["analyze", "eval"])
def test_a_singular_explicit_braiding_is_an_input_error(tmp_path, capsys, command):
    bundle, stmt = tmp_path / "id.json", tmp_path / "s.stmt"
    assert run(["generate", "identity", "--dim", "2", "-o", str(bundle)]) == 0
    tree = read_json(str(bundle))
    tree["braiding"]["pairs"][0]["matrix"] = [[[0.0, 0.0]] * 4] * 4
    bundle.write_text(json.dumps(tree))
    stmt.write_text("context: L L\nF[1,2] == cinv[1,2]\n")
    argv = (["analyze", str(bundle), "--object", "F"] if command == "analyze"
            else ["eval", str(stmt), str(bundle)])
    capsys.readouterr()
    assert run(argv) == 2
    assert capsys.readouterr().err == "error: the braiding of (L, L) is singular\n"


@pytest.mark.parametrize("field, value", [("identity", "1e400"), ("identity", "0.9"),
                                          ("entry", "1.5")])
def test_a_group_index_that_is_not_an_integer_is_an_input_error(tmp_path, capsys, field,
                                                                value):
    """1e400 was an OverflowError traceback and 0.9 was read silently as 0."""
    bundle = tmp_path / "kt2.json"
    assert run(["generate", "kac-takesaki", "--group", "Zn", "--n", "2", "-o", str(bundle)]) == 0
    tree = read_json(str(bundle))
    group = tree["groups"]["Z2"]
    if field == "identity":
        group["identity"] = "@"
    else:
        group["table"][1][1] = "@"
    bundle.write_text(json.dumps(tree).replace('"@"', value))
    capsys.readouterr()
    assert run(["analyze", str(bundle)]) == 2
    path = "/groups/Z2/identity" if field == "identity" else "/groups/Z2/table/1/1"
    err = capsys.readouterr().err
    assert err.startswith("error: ") and path in err


@pytest.mark.parametrize("text", [HUGE_ENTRY_TEXT, HUGE_MODULUS_TEXT],
                         ids=["matrix-entry", "phase-modulus"])
@pytest.mark.parametrize("command", ["analyze", "eval"])
def test_an_integer_beyond_the_float_range_is_an_input_error(tmp_path, capsys, command, text):
    """Both were OverflowError tracebacks: a matrix entry of 401 digits in
    complex(), and a phase modulus of 401 digits in PhaseBraiding."""
    bundle = tmp_path / "kt2.json"
    bundle.write_text(text)
    argv = ["analyze", str(bundle)] if command == "analyze" else [
        "eval", corpus_path("pentagon.stmt"), str(bundle)]
    assert run(argv) == 2
    path = "/operators/W/matrix" if text == HUGE_ENTRY_TEXT else "/braiding/modulus"
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


def test_an_even_shift_of_the_odd_degrees_changes_no_super_phase(tmp_path):
    """Degrees 1 and 10**400 + 1 are both odd: the same phase table, bit for
    bit, and the same analyze records.  The exponent was once taken on the
    raw degrees, an OverflowError traceback for this text."""
    reports, tables = [], []
    for shift in (0, 10 ** 400):
        bundle = tmp_path / f"super_{shift > 0}.json"
        bundle.write_text(super_kac_takesaki_text(shift))
        loaded = bm.load_bundle(str(bundle))
        space = loaded.spaces["L"]
        assert space.grading == (0, 1 + shift)
        tables.append(loaded.provider().braid(space, space).matrix.tobytes())
        code, out, err = _main_on(["analyze", str(bundle)])
        assert code == 0 and err == ""
        checks = json.loads(out)["checks"]
        for check in checks:
            del check["wall_time_s"]
        reports.append(checks)
    assert tables[0] == tables[1] and reports[0] == reports[1]


def _main_on(argv):
    """Exit code, stdout and stderr of braidmu.cli.main, run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=st.sampled_from([kac_takesaki_text(bm.cyclic(2)), super_kac_takesaki_text()])
       .flatmap(mutated_texts))
@example(text=HUGE_ENTRY_TEXT)
@example(text=HUGE_MODULUS_TEXT)
@example(text=HUGE_DEGREE_TEXT)
def test_any_mutated_bundle_gets_a_documented_exit_code(tmp_path, text):
    # an exception out of main is the traceback a process would print; the
    # file is rewritten for every example; the super bundle's edits reach its
    # grading and modulus
    bundle = tmp_path / "mutated.json"
    bundle.write_text(text, encoding="utf-8")
    code, out, err = _main_on(["analyze", str(bundle)])
    assert code in (0, 1, 2) and "Traceback" not in err
    if code == 1:
        assert not json.loads(out)["pass"]
        assert any(not check["pass"] for check in json.loads(out)["checks"])
    code, out, err = _main_on(["eval", corpus_path("pentagon.stmt"), str(bundle)])
    assert code in (0, 1, 2) and "Traceback" not in err
    if code == 1:
        assert any(line.startswith("[FAIL]") for line in out.splitlines())


def test_analyze_imports_no_scipy(tmp_path):
    # scipy is the solver's alone: importing it would add tens of MB to
    # every certificate's peak RSS
    bundle = tmp_path / "kt3.json"
    bundle.write_text(kac_takesaki_text(bm.cyclic(3)))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(bm.__file__)))
    script = ("import contextlib, io, sys\n"
              "from braidmu.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              f"    code = main(['analyze', {str(bundle)!r}])\n"
              "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env)
    assert done.stderr == "" and done.stdout == "0 []\n"


# every token of the argv mutations: the bases' own, other flags and
# subcommand words, values out of range or of the wrong type, and paths.
# No integer token exceeds 2, and search is capped in its base, so that no
# draw asks for a large space, many restarts or a long run
ARGV_TOKENS = ["analyze", "eval", "generate", "search", "kac-takesaki", "super", "identity",
               "group-yd", "--group", "Zn", "S3", "Q8", "--n", "--dim", "--object", "W", "U",
               "--tol", "--report", "--category", "flip", "phase", "--modulus", "--seed",
               "--restarts", "--max-iter", "--target-residual", "-o", "--output", "--help",
               "-h", "--", "-", "", "0", "1", "2", "-1", "1e-9", "0.5", "nan", "inf", "-inf",
               "1e400", "x", "é", "--tol=0", "--n=2", "out.json", ".",
               "missing.json", "/nonexistent/dir/out.json"]


@st.composite
def mutated_argvs(draw, bases):
    """A base argv after one to three edits: a token deleted, inserted,
    replaced or swapped with the next one."""
    argv = list(draw(st.sampled_from(bases)))
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(["delete", "insert", "replace", "swap"]))
        at = draw(st.integers(0, len(argv)))
        token = draw(st.sampled_from(ARGV_TOKENS))
        if edit == "insert":
            argv.insert(at, token)
        elif at < len(argv):
            if edit == "delete":
                del argv[at]
            elif edit == "replace":
                argv[at] = token
            elif at + 1 < len(argv):
                argv[at], argv[at + 1] = argv[at + 1], argv[at]
    return argv


_ARGV_BASES = [
    ["analyze", "kt2.json", "--tol", "1e-9", "--report", "report.json"],
    ["analyze", "kt2.json", "--object", "W"],
    ["eval", corpus_path("pentagon.stmt"), "kt2.json", "--tol", "1e-9", "--report", "r.json"],
    ["generate", "kac-takesaki", "--group", "Zn", "--n", "2", "-o", "generated.json"],
    ["generate", "super", "--dim", "2", "-o", "generated.json"],
    ["search", "--category", "flip", "--dim", "2", "--restarts", "1", "--max-iter", "2",
     "-o", "found.json"],
]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=mutated_argvs(_ARGV_BASES))
@example(argv=["analyze", "missing.json"])
@example(argv=["generate", "kac-takesaki", "--n", "2", "-o", "/nonexistent/dir/out.json"])
@example(argv=["analyze", "kt2.json", "--tol", "nan"])
@example(argv=["--help"])
@example(argv=[])
def test_any_mutated_argv_gets_a_documented_exit_code(tmp_path, monkeypatch, argv):
    # argparse exits by SystemExit, 0 for help and 2 for a bad flag, as the
    # process would; any other exception is the traceback a process prints.
    # Relative paths land in a scratch directory that holds a KT Z2 bundle
    monkeypatch.chdir(tmp_path)
    (tmp_path / "kt2.json").write_text(kac_takesaki_text(bm.cyclic(2)))
    try:
        code, out, err = _main_on(argv)
    except SystemExit as exc:
        code, err = exc.code, ""
    assert code in (0, 1, 2) and "Traceback" not in err
