"""The benchmark's workloads: input generation, job lists and output checks.

Each job has a timed ``run`` and an untimed ``check``.  ``check`` returns a
dict: ``ok`` says whether the output verified, ``hits`` how many certified
outputs it produced (search hits; one per verified certificate or identity
check elsewhere) and ``detail`` is a note for the report.  A job that raises,
exits with a code it should not, or fails its check counts as failed; it
never aborts the run.

The seed is the benchmark's only source of randomness.  It seeds every
search, relabels the group elements of the certify inputs and the basis of
the legcalc modules; braidmu receives only the argv and bundles built here.
Relabeling changes the matrices but not the work, and the job order stays
fixed, so neither the time nor the peak memory of a pass swings with the
seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import braidmu as bm
from braidmu import cli
from braidmu.examples_io import Bundle, group_yd_module, load_bundle, save_bundle
from braidmu.groups import FiniteGroup

PENTAGON_GATE = 1e-8
HEXAGON_GATE = 1e-12
SEMIDIRECT_GATE = 1e-10
CORPUS = ("corep", "goodness", "pentagon", "rep", "yd")


@dataclass
class Job:
    name: str
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], dict]


def verdict(ok: bool, detail: str, hits: int = 1, **extra) -> dict:
    return {"ok": bool(ok), "hits": hits if ok else 0, "detail": detail, **extra}


@dataclass
class Workload:
    setup: Callable[[str, int], dict]             # workdir, seed -> context
    jobs: Callable[[dict, int, int], list]        # context, seed, pass -> jobs


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``braidmu.cli.main`` in-process, with its standard streams captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue() + err.getvalue()


def sub_seed(seed: int, pass_index: int, case: int) -> int:
    return int(np.random.SeedSequence([seed, pass_index, case]).generate_state(1)[0])


def permutation(seed: int, n: int) -> np.ndarray:
    return np.random.default_rng([seed, n]).permutation(n)


# ---------------------------------------------------------------- certify


def relabeled(group: FiniteGroup, perm: np.ndarray) -> FiniteGroup:
    """The same group with element a renamed perm[a]."""
    n = group.order
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[perm[a]][perm[b]] = int(perm[group.mul(a, b)])
    return FiniteGroup(group.name, tuple(map(tuple, table)), int(perm[group.identity]))


def write_kac_takesaki(group, path: str) -> None:
    mu = bm.kac_takesaki(group)
    bundle = Bundle()
    bundle.spaces[mu.space.id] = mu.space
    bundle.operators["W"] = mu.op
    bundle.groups[group.name] = group
    save_bundle(bundle, path)


def analyze_job(name: str, path: str, full_rank: int) -> Job:
    """``braidmu analyze`` expected to pass with rank-c equal to ``full_rank``."""

    def check(outcome):
        code, text = outcome
        if code != 0:
            return verdict(False, f"exit {code}")
        report = json.loads(text)
        rank_c = next(c["value"] for c in report["checks"] if c["name"] == "rank-c")
        ok = report["pass"] is True and rank_c == full_rank
        return verdict(ok, f"pass={report['pass']} rank-c={rank_c}")

    return Job(name, "analyze", lambda: run_cli(["analyze", path]), check)


def certify(groups) -> Workload:
    def setup(workdir, seed):
        paths = {}
        for group in groups:
            paths[group.name] = os.path.join(workdir, f"kt_{group.name}.json")
            write_kac_takesaki(relabeled(group, permutation(seed, group.order)),
                               paths[group.name])
        return {"paths": paths}

    def jobs(ctx, seed, pass_index):
        return [analyze_job(f"analyze {g.name}", ctx["paths"][g.name], g.order ** 2)
                for g in groups]

    return Workload(setup, jobs)


# ---------------------------------------------------------------- search


def search_job(name: str, argv: list[str], output: str) -> Job:
    """A ``braidmu search`` case; every hit is reloaded and re-certified."""

    def check(outcome):
        code, text = outcome
        if code != 0:
            return verdict(False, f"exit {code}")
        report = json.loads(text)
        bundle = load_bundle(output)
        if report["count"] != len(bundle.operators):
            return verdict(False, "report count differs from the bundle")
        for op_name in bundle.operators:
            mu = bundle.mult_unitary(op_name)
            unit, pent = mu.unitarity_residual(), bm.pentagon_residual(mu)
            if not (unit < PENTAGON_GATE and pent < PENTAGON_GATE):
                return verdict(False, f"{op_name}: unitarity {unit:.3e} pentagon {pent:.3e}")
        nontrivial = sum("(nontrivial" in c["name"] for c in report["checks"])
        return verdict(True, f"{report['count']} hits", report["count"], nontrivial=nontrivial)

    return Job(name, "search", lambda: run_cli(argv), check)


def search(cases) -> Workload:
    """``cases``: (category, dim, restarts, max_iter or None)."""

    def setup(workdir, seed):
        return {"workdir": workdir}

    def jobs(ctx, seed, pass_index):
        out = []
        for index, (category, dim, restarts, max_iter) in enumerate(cases):
            output = os.path.join(ctx["workdir"], f"search_{index}.json")
            argv = ["search", "--category", category, "--dim", str(dim),
                    "--seed", str(sub_seed(seed, pass_index, index)),
                    "--restarts", str(restarts), "-o", output]
            if max_iter is not None:
                argv += ["--max-iter", str(max_iter)]
            out.append(search_job(f"search {category} d={dim}", argv, output))
        return out

    return Workload(setup, jobs)


# ---------------------------------------------------------------- legcalc


def zn_module(n: int, seed: int):
    """C[Z_n] graded by degree j, acted on by pi(g) = diag(omega^(g j)).

    The seed permutes the basis: vector i has degree perm[i].
    """
    degree = permutation(seed, n)
    omega = np.exp(2j * np.pi / n)
    action = [np.diag(omega ** (g * degree)) for g in range(n)]
    return group_yd_module(bm.cyclic(n), [int(j) for j in degree], action)


def write_module(n: int, seed: int, path: str) -> None:
    module, mu = zn_module(n, seed)
    bundle = Bundle()
    bundle.spaces[mu.space.id] = mu.space
    bundle.spaces[module.space.id] = module.space
    bundle.operators.update(W=mu.op, U=module.corep, V=module.rep,
                            a=bm.identity((mu.space,)))
    bundle.groups[f"Z{n}"] = bm.cyclic(n)
    save_bundle(bundle, path)


def eval_job(name: str, statements: str, data: str) -> Job:
    def check(outcome):
        code, text = outcome
        lines = text.splitlines()
        passed = sum(line.startswith("[pass]") for line in lines)
        ok = code == 0 and 0 < passed == len(lines)
        return verdict(ok, f"exit {code}, {passed} of {len(lines)} statements passed")

    return Job(name, "eval", lambda: run_cli(["eval", statements, data]), check)


def hexagon_job(n: int, seed: int) -> Job:
    def run():
        module, mu = zn_module(n, seed)
        provider = bm.yd_braiding_provider([module], mu)
        return bm.check_hexagons(provider, [module.space])

    def check(report):
        res = report["max_residual"]
        return verdict(res < HEXAGON_GATE, f"hexagon {res:.3e}")

    return Job(f"yd hexagons Z{n}", "hexagon", run, check)


def semidirect_job(n: int, seed: int) -> Job:
    def run():
        module, w = zn_module(n, seed)
        provider = bm.yd_braiding_provider([module], w, include_tensors=False)
        f = bm.MultUnitary(module.space, bm.identity((module.space, module.space)), provider)
        return bm.semidirect_product(w, module, f)

    def check(sd):
        pent, unit = bm.pentagon_residual(sd), sd.unitarity_residual()
        ok = pent < SEMIDIRECT_GATE and unit < SEMIDIRECT_GATE
        return verdict(ok, f"pentagon {pent:.3e} unitarity {unit:.3e}")

    return Job(f"semidirect Z{n}", "semidirect", run, check)


def legcalc(eval_orders, hexagon_orders, semidirect_orders, corpus_dir: str) -> Workload:
    def setup(workdir, seed):
        paths = {}
        for n in eval_orders:
            paths[n] = os.path.join(workdir, f"module_Z{n}.json")
            write_module(n, seed, paths[n])
        return {"paths": paths}

    def jobs(ctx, seed, pass_index):
        out = [eval_job(f"eval {stmt} Z{n}", os.path.join(corpus_dir, f"{stmt}.stmt"),
                        ctx["paths"][n])
               for n in eval_orders for stmt in CORPUS]
        out += [hexagon_job(n, seed) for n in hexagon_orders]
        out += [semidirect_job(n, seed) for n in semidirect_orders]
        return out

    return Workload(setup, jobs)


# ---------------------------------------------------------------- registry


def build(name: str, tiny: bool, corpus_dir: str) -> Workload:
    """The three workloads; ``tiny`` gives the harness self-test sizes."""
    if name == "certify":
        if tiny:
            return certify([bm.cyclic(2), bm.cyclic(3)])
        return certify([bm.cyclic(n) for n in range(2, 9)] + [bm.symmetric(3)])
    if name == "search":
        if tiny:
            return search([("super", 2, 1, None)])
        return search(SEARCH_CASES)
    if name == "legcalc":
        if tiny:
            return legcalc((3,), (2,), (2,), corpus_dir)
        return legcalc((10, 12), (4, 5), (3,), corpus_dir)
    raise ValueError(f"unknown workload {name!r}")


# flip d=3 is capped at 20 iterations and super d=4 at one, so the work per
# case does not swing with the seed: uncapped, on a 2-core VM with OpenBLAS
# at 2 threads, three flip d=3 restarts took 2.5 s to 12.8 s depending on the
# seed, and super d=4 made 6 to 8 gradient calls of about 2 s each.
SEARCH_CASES = [
    ("flip", 2, 16, None),
    ("super", 2, 16, None),
    ("flip", 3, 3, 20),
    ("super", 4, 2, 1),
]
