"""Built-in example generators and JSON bundle serialization.

The JSON schema (version 1):

    {"version": 1,
     "spaces": {id: {"dim": n, "grading": [..]?}},
     "braiding": {"kind": "flip"} | {"kind": "phase", "modulus": m}
                 | {"kind": "explicit", "pairs": [{"first": id, "second": id,
                                                   "matrix": [[[re, im], ..], ..]}]},
     "operators": {name: {"domain": [ids], "codomain": [ids], "matrix": ...}},
     "groups": {name: {"order": n, "identity": i, "table": [[..], ..]}}}

Matrices are row-major with the first leg most significant; floats are
emitted with 17 significant digits so serialization is canonical.  The
writer emits strict JSON: a non-finite float is refused, and strings escape
every control character.  ``_fmt_float`` is the one rule for a float's text.
A matrix is written in one pass: its distinct values (by bit pattern) are
formatted once each and its rows filled from one template.

The reader reads each ``"matrix":`` value in the writer's form from the text
itself: the brackets and commas left once the number characters are deleted
must be the skeleton of rows of ``[re,im]`` pairs, each distinct entry is
checked against the JSON number grammar and converted once, with json's
meaning, and the array is filled by lookup.  json.loads reads the rest, in
which each such matrix is a placeholder string that no string of the text
holds.  A text in any doubt goes through json.loads whole, every matrix
through :func:`_matrix_from_tree`, and either path gives the same bundle or
the same :class:`SchemaError`.  A matrix entry is taken only as a JSON
number, not ``true`` or ``false``, and an integer beyond the float range is
an infinity, as its spelling ``1e400`` is.
"""

from __future__ import annotations

import json
import math
import os
import re
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .braiding import (BraidingProvider, ExplicitBraiding, FlipBraiding, PhaseBraiding)
from .groups import FiniteGroup, GroupTableError
from .multunitary import MultUnitary
from .tensor import LegOperator, LegSignature, Space
from .yd import YDModule

__all__ = [
    "SchemaError", "Bundle", "kac_takesaki", "graded_category", "group_yd_module",
    "identity_control", "bundle_to_json", "bundle_from_json", "write_atomic", "save_bundle",
    "load_bundle",
]

SCHEMA_VERSION = 1
_ACTION_TOL = 1e-12    # group action entries below it are zero; defects may reach 10x


class SchemaError(ValueError):
    """Raised with a JSON-pointer-style path to the offending node."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


@dataclass
class Bundle:
    """An in-memory collection of spaces, a braiding, named operators, and groups."""

    spaces: dict[str, Space] = field(default_factory=dict)
    braiding_kind: str = "flip"
    braiding_modulus: int | None = None
    braiding_pairs: list[LegOperator] = field(default_factory=list)
    operators: dict[str, LegOperator] = field(default_factory=dict)
    groups: dict[str, FiniteGroup] = field(default_factory=dict)

    def provider(self) -> BraidingProvider:
        if self.braiding_kind == "flip":
            return FlipBraiding()
        if self.braiding_kind == "phase":
            return PhaseBraiding(self.braiding_modulus)
        if self.braiding_kind == "explicit":
            table = ExplicitBraiding()
            for op in self.braiding_pairs:
                table.register(op)
            return table
        raise SchemaError("/braiding/kind", f"unknown kind {self.braiding_kind!r}")

    def mult_unitary(self, name: str) -> MultUnitary:
        op = self.operators[name]
        if len(op.domain) != 2 or op.domain[0] != op.domain[1]:
            raise SchemaError(f"/operators/{name}", "not a two-leg endomorphism of L (x) L")
        space, provider = op.domain[0], self.provider()
        if not provider.supports(space, space):
            raise SchemaError("/braiding", f"{self.braiding_kind} braiding does not cover "
                                           f"({space.id}, {space.id})")
        return MultUnitary(space, op, provider)


# ---------------------------------------------------------------------------
# generators


def kac_takesaki(group: FiniteGroup) -> MultUnitary:
    """W(d_g (x) d_h) = d_g (x) d_{gh} on C[G] (x) C[G] = L (x) L, with the flip braiding."""
    n = group.order
    space = Space("L", n)
    w = np.zeros((n * n, n * n), dtype=complex)
    for g in range(n):
        for h in range(n):
            w[g * n + group.mul(g, h), g * n + h] = 1.0
    sig = LegSignature((space, space), (space, space))
    return MultUnitary(space, LegOperator(sig, w), FlipBraiding())


def graded_category(modulus: int, dims_gradings: dict[str, tuple[int, tuple[int, ...]]]
                    ) -> tuple[dict[str, Space], PhaseBraiding]:
    """Spaces with declared gradings plus the phase braiding q = exp(2 pi i / m)."""
    spaces = {sid: Space(sid, dim, tuple(grading))
              for sid, (dim, grading) in dims_gradings.items()}
    return spaces, PhaseBraiding(modulus)


def group_yd_module(group: FiniteGroup, grading: list[int], action: list[np.ndarray],
                    mu: MultUnitary | None = None, space_id: str = "H"
                    ) -> tuple[YDModule, MultUnitary]:
    """Module over the Kac-Takesaki unitary of the group.

    ``grading`` assigns a group element to each basis vector of H; ``action``
    lists one unitary per group element.  The corep moves the group leg by
    the degree, the rep acts by the group element; compatibility requires
    each pi(g) to map degree h vectors into degree g h g^{-1} vectors and pi
    to be a homomorphism.  Violations are reported with the offending pair.
    """
    if mu is None:
        mu = kac_takesaki(group)
    n = group.order
    d = len(grading)
    if len(action) != n:
        raise ValueError(f"need one action matrix per group element, got {len(action)}")
    mats = [np.asarray(m, dtype=complex) for m in action]
    for g, m in enumerate(mats):
        if m.shape != (d, d):
            raise ValueError(f"action matrix for element {g} has shape {m.shape}")
        if np.linalg.norm(m @ m.conj().T - np.eye(d)) > _ACTION_TOL * 10:
            raise ValueError(f"action of element {g} is not unitary")
    for g in range(n):
        for h in range(n):
            target = group.mul(group.mul(g, h), group.inv(g))
            for j in range(d):
                if grading[j] != h:
                    continue
                for i in range(d):
                    if abs(mats[g][i, j]) > _ACTION_TOL and grading[i] != target:
                        raise GroupTableError(
                            f"action violates the compatibility g H_h <= H_(ghg^-1) "
                            f"at (g={g}, h={h})")
            prod = mats[g] @ mats[h]
            if np.linalg.norm(prod - mats[group.mul(g, h)]) > _ACTION_TOL * 10:
                raise GroupTableError(f"action is not a homomorphism at (g={g}, h={h})")
    hspace = Space(space_id, d, tuple(grading))
    lspace = mu.space
    u = np.zeros((d * n, d * n), dtype=complex)
    for i in range(d):
        for h in range(n):
            u[i * n + group.mul(grading[i], h), i * n + h] = 1.0
    v = np.zeros((n * d, n * d), dtype=complex)
    for g in range(n):
        v[g * d:(g + 1) * d, g * d:(g + 1) * d] = mats[g]
    corep = LegOperator(LegSignature((hspace, lspace), (hspace, lspace)), u)
    rep = LegOperator(LegSignature((lspace, hspace), (lspace, hspace)), v)
    return YDModule(hspace, corep, rep), mu


def identity_control(dim: int) -> MultUnitary:
    """The identity operator on L (x) L with the degenerate identity braiding table.

    A non-braiding control input: its Pentagon residual vanishes while every
    regularity-flavoured quantity collapses, which exercises the failure
    paths of the certificates.
    """
    space = Space("L", dim)
    eye = np.eye(dim * dim, dtype=complex)
    sig = LegSignature((space, space), (space, space))
    table = ExplicitBraiding()
    table.register(LegOperator(LegSignature((space, space), (space, space)), eye))
    return MultUnitary(space, LegOperator(sig, eye), table)


# ---------------------------------------------------------------------------
# canonical JSON


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize the non-finite float {x!r}: JSON has no such value")
    if x == int(x) and abs(x) < 1e16:
        return f"{x:.1f}"
    return format(x, ".17g")


def _matrix_text(m: np.ndarray) -> str:
    """A complex matrix as rows of ``[re, im]`` pairs, written in one pass.

    Each distinct float is formatted once, distinct by bit pattern so that
    ``0.0`` and ``-0.0`` stay apart, and each row is filled from one template.
    """
    parts = np.ascontiguousarray(m, dtype=complex).view(float)
    finite = np.isfinite(parts)
    if not finite.all():
        # the first non-finite value, row-major and real part first, raises
        _fmt_float(float(parts.flat[np.flatnonzero(~finite)[0]]))
    bits, where = np.unique(parts.view(np.int64).ravel(), return_inverse=True)
    texts = np.array([_fmt_float(x) for x in bits.view(float).tolist()], dtype=object)
    row = "[" + ",".join(["[%s,%s]"] * m.shape[1]) + "]"
    cells = texts[where].reshape(parts.shape).tolist()
    return "[" + ",".join([row % tuple(values) for values in cells]) + "]"


def _emit(node, out: list[str]) -> None:
    if isinstance(node, np.ndarray):
        out.append(_matrix_text(node))
    elif isinstance(node, dict):
        out.append("{")
        for i, key in enumerate(node):
            if i:
                out.append(",")
            _emit(str(key), out)
            out.append(":")
            _emit(node[key], out)
        out.append("}")
    elif isinstance(node, (list, tuple)):
        out.append("[")
        for i, item in enumerate(node):
            if i:
                out.append(",")
            _emit(item, out)
        out.append("]")
    elif isinstance(node, str):
        # backslash, quote and every character below U+0020 are escaped
        out.append(json.dumps(node, ensure_ascii=False))
    elif isinstance(node, (bool, np.bool_)):
        out.append("true" if node else "false")
    elif isinstance(node, (int, np.integer)):
        out.append(str(int(node)))
    elif isinstance(node, (float, np.floating)):
        out.append(_fmt_float(float(node)))
    elif node is None:
        out.append("null")
    else:
        raise TypeError(f"cannot serialize {type(node)}")


def _canonical_json(tree) -> str:
    out: list[str] = []
    _emit(tree, out)
    return "".join(out)


def _int_float(x: int) -> float:
    """A JSON integer as complex() reads it: an integer beyond the float range
    is an infinity, as its spelling ``1e400`` is."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _number(x):
    """A node of a parsed matrix as complex() should read it."""
    return _int_float(x) if type(x) is int else x


def _matrix_from_tree(tree, path: str) -> np.ndarray:
    try:
        m = np.array([[complex(_number(re), _number(im)) for re, im in row] for row in tree],
                     dtype=complex)
    except (TypeError, IndexError, KeyError, ValueError):
        raise SchemaError(path, "matrix must be equal-length rows of [re, im] pairs") from None
    if m.ndim != 2:
        raise SchemaError(path, "matrix must be two-dimensional")
    # complex() takes a bool as 0 or 1; the rows parsed, so every entry is a number
    if any(type(x) is bool for row in tree for pair in row for x in pair):
        raise SchemaError(path, "matrix entries must be numbers, not true or false")
    return _finite(m, path)


def _finite(m: np.ndarray, path: str) -> np.ndarray:
    if not np.isfinite(m).all():
        raise SchemaError(path, "matrix entries must be finite")
    return m


# the reader's matrices from their text: a JSON string token, a number in the
# JSON grammar (ASCII digits only, as json's scanner reads them), the
# characters a number is written with, and the placeholders' prefix
_STRING = re.compile(r'"(?:[^"\\]|\\.)*"', re.DOTALL)
_NUMBER = re.compile(r"-?(?:0|[1-9][0-9]*)(\.[0-9]+)?([eE][-+]?[0-9]+)?")
_NUMBER_CHARS = str.maketrans("", "", "0123456789+-.eE")
_MARK = "<matrix>"


def _matrix_of_text(text: str) -> np.ndarray | None:
    """A matrix value in the writer's form, ``[[[re,im],..],..]`` with no
    space, rows of equal length and every entry a JSON number, as the array
    that json.loads and :func:`_matrix_from_tree` make of it; else None.

    The brackets and commas left once the number characters are deleted
    must be the skeleton of such a matrix.  The entries are what lies
    between the brackets of each pair; a number character anywhere else
    keeps a bracket in an entry, which the JSON number grammar refuses.
    Each distinct entry is checked and converted once, with json's meaning:
    an integer is a Python int, read as :func:`_int_float` reads it,
    anything else a float.
    """
    skeleton = text.translate(_NUMBER_CHARS)
    cols = skeleton.find("]]") // 4      # the first row is "[" + 4 cols - 1 chars + "]"
    rows = (len(skeleton) - 1) // (4 * cols + 2) if cols > 0 else 0
    row = "[" + ",".join(["[,]"] * cols) + "]"
    if (rows < 1 or skeleton != "[" + ",".join([row] * rows) + "]"
            or not (text.startswith("[[[") and text.endswith("]]]"))):
        return None
    entries = text[3:-3].replace("]],[[", ",").replace("],[", ",").split(",")
    distinct = dict.fromkeys(entries)
    values = np.empty(len(distinct))
    for k, entry in enumerate(distinct):
        number = _NUMBER.fullmatch(entry)
        if number is None:
            return None
        try:
            values[k] = (float(entry) if number.group(1) or number.group(2)
                         else _int_float(int(entry)))
        except ValueError:      # an integer of more than 4,300 digits, which int() refuses
            return None
        distinct[entry] = k
    at = np.fromiter(map(distinct.__getitem__, entries), dtype=np.intp, count=len(entries))
    return values[at].view(complex).reshape(rows, cols)


def _lift_matrices(text: str) -> tuple[str, dict[str, np.ndarray]] | None:
    """The text with each ``"matrix":`` value in the writer's form replaced
    by a placeholder string, and the placeholders' matrices; None when a
    placeholder could be mistaken for a string of the text, or a string does
    not end or decode, which json.loads of the whole text then reports.

    The walk goes from string token to string token, as json's scanner
    reads them, so a key is told from the same letters inside a string.  A
    matrix value not in the writer's form stays in the text.  The
    placeholders begin with :data:`_MARK`, which no string of the text holds,
    escaped or not.
    """
    if _MARK in text:
        return None
    pieces, matrices, done = [], {}, 0
    i = text.find('"')
    while i >= 0:
        token = _STRING.match(text, i)
        if token is None:       # an unterminated string, which json.loads reports
            return None
        end = token.end()
        if "\\" in token.group():
            try:
                if _MARK in json.loads(token.group()):
                    return None
            except ValueError:
                return None
        elif token.group() == '"matrix"' and text.startswith(":[[[", end):
            stop = text.find("]]]", end) + 3
            m = _matrix_of_text(text[end + 1:stop]) if stop > 2 else None
            if m is not None:
                key = f"{_MARK}{len(matrices)}"
                matrices[key] = m
                pieces += [text[done:end + 1], f'"{key}"']
                done = end = stop
        i = text.find('"', end)
    pieces.append(text[done:])
    return "".join(pieces), matrices


def _is_json_int(node) -> bool:
    """A JSON integer: json.loads gives ``int``, and ``bool`` is a subclass of it."""
    return isinstance(node, int) and not isinstance(node, bool)


def _expect(node, kind: type, path: str):
    """The node itself, when it is a JSON object (``dict``) or array (``list``)."""
    if not isinstance(node, kind):
        expected = "an object" if kind is dict else "a list"
        raise SchemaError(path, f"expected {expected}, got {type(node).__name__}")
    return node


def bundle_to_json(bundle: Bundle) -> str:
    spaces_tree = {}
    for sid in sorted(bundle.spaces):
        s = bundle.spaces[sid]
        entry: dict = {"dim": s.dim}
        if s.grading is not None:
            entry["grading"] = list(s.grading)
        spaces_tree[sid] = entry
    braiding_tree: dict = {"kind": bundle.braiding_kind}
    if bundle.braiding_kind == "phase":
        braiding_tree["modulus"] = bundle.braiding_modulus
    if bundle.braiding_kind == "explicit":
        braiding_tree["pairs"] = [
            {"first": op.domain[0].id, "second": op.domain[1].id,
             "matrix": op.matrix}
            for op in bundle.braiding_pairs]
    ops_tree = {}
    for name in sorted(bundle.operators):
        op = bundle.operators[name]
        ops_tree[name] = {"domain": [s.id for s in op.domain],
                          "codomain": [s.id for s in op.codomain],
                          "matrix": op.matrix}
    groups_tree = {}
    for name in sorted(bundle.groups):
        g = bundle.groups[name]
        groups_tree[name] = {"order": g.order, "identity": g.identity,
                             "table": [list(row) for row in g.table]}
    tree = {"version": SCHEMA_VERSION, "spaces": spaces_tree, "braiding": braiding_tree,
            "operators": ops_tree, "groups": groups_tree}
    return _canonical_json(tree) + "\n"


def bundle_from_json(text: str) -> Bundle:
    """The bundle a text holds, or a :class:`SchemaError` at the first fault.

    The matrices in the writer's form are read from their text by
    :func:`_lift_matrices`, and json.loads reads the rest.  When the rest is
    not valid JSON, nor is the text, and json.loads of the whole text, with
    every matrix read by :func:`_matrix_from_tree`, gives the error and its
    position in the text.
    """
    lifted = _lift_matrices(text)
    if lifted is not None:
        rest, matrices = lifted
        try:
            tree = json.loads(rest)
        except (ValueError, RecursionError):
            pass
        else:
            return _bundle_from_tree(tree, matrices)
    try:
        tree = json.loads(text)
    except (ValueError, RecursionError) as exc:    # ValueError: an int of 4300+ digits
        raise SchemaError("/", f"not valid JSON: {exc}") from None
    return _bundle_from_tree(tree, {})


def _bundle_from_tree(tree, matrices: dict[str, np.ndarray]) -> Bundle:
    """The bundle of a parsed text, whose lifted matrices (by placeholder)
    are ``matrices``."""
    if not isinstance(tree, dict):
        raise SchemaError("/", "top level must be an object")

    def matrix(node, path: str) -> np.ndarray:
        if type(node) is str and node in matrices:
            return _finite(matrices[node], path)
        return _matrix_from_tree(node, path)

    version = tree.get("version")
    if version != SCHEMA_VERSION:
        raise SchemaError("/version", f"unsupported version {version!r}, "
                                      f"expected {SCHEMA_VERSION}")
    bundle = Bundle()
    for sid, entry in _expect(tree.get("spaces", {}), dict, "/spaces").items():
        path = f"/spaces/{sid}"
        if not isinstance(entry, dict) or "dim" not in entry:
            raise SchemaError(path, "expected an object with a 'dim' field")
        if not _is_json_int(entry["dim"]):
            raise SchemaError(path + "/dim", f"expected an integer, got {entry['dim']!r}")
        grading = entry.get("grading")
        if grading is not None:
            for i, degree in enumerate(_expect(grading, list, path)):
                if not _is_json_int(degree):
                    raise SchemaError(f"{path}/grading/{i}",
                                      f"expected an integer, got {degree!r}")
        try:
            bundle.spaces[sid] = Space(sid, entry["dim"],
                                       tuple(grading) if grading is not None else None)
        except ValueError as exc:
            raise SchemaError(path, str(exc)) from None
    braiding = _expect(tree.get("braiding", {"kind": "flip"}), dict, "/braiding")
    kind = braiding.get("kind")
    if kind not in ("flip", "phase", "explicit"):
        raise SchemaError("/braiding/kind", f"unknown braiding kind {kind!r}")
    bundle.braiding_kind = kind
    if kind == "phase":
        modulus = braiding.get("modulus")
        if not _is_json_int(modulus) or modulus < 1:
            raise SchemaError("/braiding/modulus",
                              f"phase braiding needs an integer modulus >= 1, got {modulus!r}")
        if math.isinf(_int_float(modulus)):     # the phase exp(2 pi i / m) needs m as a float
            raise SchemaError("/braiding/modulus", f"phase braiding needs a modulus below "
                                                   f"2**1024, got {len(str(modulus))} digits")
        bundle.braiding_modulus = modulus
    if kind == "explicit":
        for idx, pair in enumerate(_expect(braiding.get("pairs", []), list, "/braiding/pairs")):
            path = f"/braiding/pairs/{idx}"
            _expect(pair, dict, path)
            try:
                first = bundle.spaces[pair["first"]]
                second = bundle.spaces[pair["second"]]
            except (KeyError, TypeError) as exc:
                raise SchemaError(path, f"unknown space {exc}") from None
            m = matrix(pair.get("matrix"), path + "/matrix")
            sig = LegSignature((first, second), (second, first))
            try:
                bundle.braiding_pairs.append(LegOperator(sig, m))
            except ValueError as exc:
                raise SchemaError(path, str(exc)) from None
    for name, entry in _expect(tree.get("operators", {}), dict, "/operators").items():
        path = f"/operators/{name}"
        _expect(entry, dict, path)
        try:
            domain = tuple(bundle.spaces[s]
                           for s in _expect(entry.get("domain"), list, path + "/domain"))
            codomain = tuple(bundle.spaces[s]
                             for s in _expect(entry.get("codomain"), list, path + "/codomain"))
        except (KeyError, TypeError) as exc:  # TypeError: an unhashable leg id
            raise SchemaError(path, f"unknown space {exc}") from None
        m = matrix(entry.get("matrix"), path + "/matrix")
        try:
            bundle.operators[name] = LegOperator(LegSignature(domain, codomain), m)
        except ValueError as exc:
            raise SchemaError(path, str(exc)) from None
    for name, entry in _expect(tree.get("groups", {}), dict, "/groups").items():
        path = f"/groups/{name}"
        identity = _expect(entry, dict, path).get("identity", 0)
        if not _is_json_int(identity):
            raise SchemaError(path + "/identity", f"expected an integer, got {identity!r}")
        table = _expect(entry.get("table"), list, path + "/table")
        for i, row in enumerate(table):
            for j, x in enumerate(_expect(row, list, f"{path}/table/{i}")):
                if not _is_json_int(x):
                    raise SchemaError(f"{path}/table/{i}/{j}", f"expected an integer, got {x!r}")
        try:
            bundle.groups[name] = FiniteGroup(name, tuple(tuple(r) for r in table), identity)
        except GroupTableError as exc:
            raise SchemaError(path, str(exc)) from None
    return bundle


def write_atomic(path: str, text: str) -> None:
    """Write to a temporary file in the target directory, then rename into place."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def save_bundle(bundle: Bundle, path: str) -> None:
    """Serialize canonically and write atomically."""
    write_atomic(path, bundle_to_json(bundle))


def load_bundle(path: str) -> Bundle:
    """Read a UTF-8 bundle file; undecodable bytes are a :class:`SchemaError`."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise SchemaError("/", f"not UTF-8 text: {exc}") from None
    return bundle_from_json(text)
