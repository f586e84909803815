"""Command-line surface: generate examples, certify, search, and evaluate statements.

Exit codes: 0 all checks passed, 1 a check failed, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .braiding import UnsupportedPairError
from .dsl import ParseError, run_statements
from .examples_io import (Bundle, SchemaError, graded_category, identity_control,
                          kac_takesaki, load_bundle, save_bundle, write_atomic)
from .groups import cyclic, symmetric
from .multunitary import check_record, full_certificate
from .solver import DegreePreservingConstraint, SearchProblem, search
from .tensor import LegError, Space


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        digest.update(handle.read())
    return digest.hexdigest()


def _canonical_report(tree) -> str:
    from .examples_io import _canonical_json
    return _canonical_json(tree) + "\n"


def _report(input_path: str | None, checks: list[dict], tol: float,
            seed: int | None = None) -> dict:
    report = {
        "tool": {"name": "braidmu", "version": __version__},
        "tolerance": tol,
        "checks": checks,
        "pass": all(c["pass"] for c in checks),
    }
    if input_path is not None:
        report["input"] = {"path": os.path.basename(input_path),
                           "sha256": _sha256(input_path)}
    if seed is not None:
        report["seed"] = seed
    return report


def _write_report(path: str, text: str) -> bool:
    """Write a report file; on failure print the error and return False."""
    try:
        write_atomic(path, text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return False
    return True


def _unwritable(*paths: str | None) -> bool:
    """Print an error and return True if an output path is empty or a
    directory, or its parent directory is missing; None is no output."""
    for path in (p for p in paths if p is not None):
        if not path:
            print("error: the output path is empty", file=sys.stderr)
            return True
        if os.path.isdir(path):
            print(f"error: {path} is a directory", file=sys.stderr)
            return True
        directory = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(directory):
            print(f"error: no such directory: {directory}", file=sys.stderr)
            return True
    return False


def cmd_generate(args) -> int:
    if _unwritable(args.output):
        return 2
    bundle = Bundle()
    if args.kind == "kac-takesaki":
        if args.group.lower() == "zn":
            if args.n is None:
                print("error: --group Zn needs --n", file=sys.stderr)
                return 2
            group = cyclic(args.n)
        elif args.group.upper() == "S3":
            group = symmetric(3)
        else:
            print(f"error: unknown group {args.group!r}", file=sys.stderr)
            return 2
        mu = kac_takesaki(group)
        bundle.spaces[mu.space.id] = mu.space
        bundle.operators["W"] = mu.op
        bundle.groups[group.name] = group
    elif args.kind == "super":
        grading = tuple(i % 2 for i in range(args.dim))
        spaces, _ = graded_category(2, {"L": (args.dim, grading)})
        bundle.spaces.update(spaces)
        bundle.braiding_kind = "phase"
        bundle.braiding_modulus = 2
    elif args.kind == "identity":
        mu = identity_control(args.dim)
        bundle.spaces[mu.space.id] = mu.space
        bundle.operators["F"] = mu.op
        bundle.braiding_kind = "explicit"
        bundle.braiding_pairs = [mu.braiding.braid(mu.space, mu.space)]
    elif args.kind == "group-yd":
        from .examples_io import group_yd_module
        from .tensor import identity as identity_op
        if args.group.lower() != "zn" or (args.n or 2) != 2:
            print("error: group-yd currently generates the Z2 module", file=sys.stderr)
            return 2
        group = cyclic(2)
        module, mu = group_yd_module(group, [0, 1], [np.eye(2), np.diag([1.0, -1.0])])
        bundle.spaces[mu.space.id] = mu.space
        bundle.spaces[module.space.id] = module.space
        bundle.operators["W"] = mu.op
        bundle.operators["U"] = module.corep
        bundle.operators["V"] = module.rep
        bundle.operators["a"] = identity_op((mu.space,))
        bundle.groups[group.name] = group
    else:
        print(f"error: unknown kind {args.kind!r}", file=sys.stderr)
        return 2
    save_bundle(bundle, args.output)
    print(f"wrote {args.output}")
    return 0


def cmd_analyze(args) -> int:
    try:
        bundle = load_bundle(args.file)
    except (SchemaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.object not in bundle.operators:
        print(f"error: no operator named {args.object!r} in the bundle", file=sys.stderr)
        return 2
    try:
        # the certificate raises LegError on a braiding it cannot use, a singular
        # one, and LinAlgError when entries too large to square leave an SVD
        # without convergence
        certificate = full_certificate(bundle.mult_unitary(args.object), args.tol)
    except (SchemaError, LegError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = _report(args.file, certificate.checks(), args.tol)
    text = _canonical_report(report)
    if args.report and not _write_report(args.report, text):
        return 2
    print(text, end="")
    return 0 if report["pass"] else 1


def cmd_search(args) -> int:
    # checked before the restarts run; an empty --report means no report
    if _unwritable(args.output, args.report or None):
        return 2
    # argparse restricts --category to these three
    modulus = {"flip": None, "super": 2, "phase": args.modulus}[args.category]
    grading = None if modulus is None else tuple(i % modulus for i in range(args.dim))
    space = Space("L", args.dim, grading)
    bundle = Bundle(spaces={space.id: space},
                    braiding_kind="flip" if modulus is None else "phase",
                    braiding_modulus=modulus)
    constraints = () if modulus is None else (DegreePreservingConstraint(modulus),)
    problem = SearchProblem(space=space, braiding=bundle.provider(), constraints=constraints,
                            seed=args.seed, restarts=args.restarts,
                            max_iter=args.max_iter, target_residual=args.target_residual)
    start = time.perf_counter()
    results = search(problem)
    elapsed = time.perf_counter() - start

    checks = []
    for idx, res in enumerate(results):
        name = f"F_{idx:03d}"
        bundle.operators[name] = res.mu.op
        checks.append(check_record(f"{name}-pentagon ({res.label}, restart {res.restart})",
                                   "residual", res.residual, args.target_residual))
    save_bundle(bundle, args.output)
    checks.append(check_record("count", "rank", len(results), expected=len(results),
                               elapsed=elapsed))
    report = _report(None, checks, args.target_residual, seed=args.seed)
    report["count"] = len(results)
    text = _canonical_report(report)
    if args.report and not _write_report(args.report, text):
        return 2
    print(text, end="")
    return 0


def cmd_eval(args) -> int:
    try:
        bundle = load_bundle(args.data)
    except (SchemaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        with open(args.statements, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print(f"error: {args.statements}: not UTF-8 text: {exc}", file=sys.stderr)
        return 2
    try:
        results = run_statements(text, bundle.operators, bundle.spaces,
                                 bundle.provider(), tol=args.tol)
    except (ParseError, LegError, UnsupportedPairError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    checks = []
    for res in results:
        value = res.residual if res.residual is not None else 0.0
        checks.append(check_record(res.statement.text, "residual", value, args.tol))
        status = "pass" if res.passed else "FAIL"
        print(f"[{status}] line {res.statement.line}: {res.statement.text} "
              f"(residual {value:.3e})")
    report = _report(args.statements, checks, args.tol)
    if args.report and not _write_report(args.report, _canonical_report(report)):
        return 2
    return 0 if report["pass"] else 1


def _int_at_least(text: str, low: int) -> int:
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
    return value


def positive_int(text: str) -> int:
    """argparse type for integers >= 1."""
    return _int_at_least(text, 1)


def nonnegative_int(text: str) -> int:
    """argparse type for integers >= 0, such as seeds."""
    return _int_at_least(text, 0)


def positive_float(text: str) -> float:
    """argparse type for finite floats > 0."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="braidmu",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("generate", help="write an example bundle")
    p.add_argument("kind", choices=["kac-takesaki", "super", "identity", "group-yd"])
    p.add_argument("--group", default="Zn")
    p.add_argument("--n", type=positive_int, default=None)
    p.add_argument("--dim", type=positive_int, default=2)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("analyze", help="run the full certificate on a bundle operator")
    p.add_argument("file")
    p.add_argument("--object", default="W")
    p.add_argument("--tol", type=positive_float, default=1e-9)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("search", help="search for braided multiplicative unitaries")
    p.add_argument("--category", default="super", choices=["flip", "super", "phase"])
    p.add_argument("--dim", type=positive_int, default=2)
    p.add_argument("--modulus", type=positive_int, default=3)
    p.add_argument("--seed", type=nonnegative_int, default=0)
    p.add_argument("--restarts", type=positive_int, default=8)
    p.add_argument("--max-iter", type=positive_int, default=200)
    p.add_argument("--target-residual", type=positive_float, default=1e-8)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("eval", help="evaluate a statement file against a bundle")
    p.add_argument("statements")
    p.add_argument("data")
    p.add_argument("--tol", type=positive_float, default=1e-9)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_eval)

    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_help()
        return 2
    try:
        # entries too large to square overflow to inf and nan; the reports record
        # such values as non-finite, so numpy's warnings about them are noise
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except argparse.ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
