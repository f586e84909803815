import json
import os
import subprocess
import sys

import numpy as np
import pytest

import braidmu as bm
from braidmu.cli import main


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


def _analyze_in_a_process(tmp_path, matrix):
    """Exit code, stderr and report of ``braidmu analyze``, run as its own process,
    on a Z2 bundle whose W is replaced by ``matrix``."""
    path, report = tmp_path / "w.json", tmp_path / "r.json"
    run(["generate", "kac-takesaki", "--group", "Zn", "--n", "2", "-o", str(path)])
    bundle = bm.load_bundle(str(path))
    bundle.operators["W"] = bm.LegOperator(bundle.operators["W"].signature, matrix)
    bm.save_bundle(bundle, str(path))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(bm.__file__)))
    done = subprocess.run([sys.executable, "-m", "braidmu.cli", "analyze", str(path),
                           "--report", str(report)], capture_output=True, text=True, env=env)
    checks = {c["name"]: c for c in read_json(str(report))["checks"]}
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
