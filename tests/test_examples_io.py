import contextlib
import json
import math
import struct
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import braidmu as bm
from braidmu import GroupTableError, SchemaError, examples_io
from braidmu.examples_io import _canonical_json

from conftest import (HUGE_ENTRY_TEXT, HUGE_MODULUS_TEXT, kac_takesaki_text, mutated_texts,
                      reference_matrix_tree, zn_module)


def test_cyclic_and_symmetric_groups_validate():
    z4 = bm.cyclic(4)
    assert z4.order == 4 and z4.mul(3, 2) == 1 and z4.inv(3) == 1
    s3 = bm.symmetric(3)
    assert s3.order == 6
    e = s3.identity
    for g in range(6):
        assert s3.mul(g, s3.inv(g)) == e


def test_corrupted_cayley_tables_are_rejected():
    rng = np.random.default_rng(0)
    rejected = 0
    for trial in range(100):
        n = int(rng.integers(2, 6))
        table = [[(a + b) % n for b in range(n)] for a in range(n)]
        i, j = rng.integers(0, n, size=2)
        bad = (table[i][j] + 1 + int(rng.integers(0, n - 1))) % n
        if bad == table[i][j]:
            bad = (bad + 1) % n
        table[i][j] = bad
        try:
            bm.FiniteGroup("bad", tuple(tuple(r) for r in table))
        except GroupTableError:
            rejected += 1
    assert rejected == 100


def test_kac_takesaki_z2_matrix(z2):
    expected = np.array([[1, 0, 0, 0],
                         [0, 1, 0, 0],
                         [0, 0, 0, 1],
                         [0, 0, 1, 0]], dtype=complex)
    np.testing.assert_allclose(z2.op.matrix, expected)


def test_kac_takesaki_trivial_group():
    mu = bm.kac_takesaki(bm.cyclic(1))
    np.testing.assert_allclose(mu.op.matrix, np.eye(1))


def test_kac_takesaki_s3(s3):
    assert s3.op.matrix.shape == (36, 36)
    # permutation unitary: one entry per column
    assert np.allclose(np.abs(s3.op.matrix).sum(axis=0), 1.0)
    assert bm.pentagon_residual(s3) < 1e-13


def test_generator_outputs_pass_the_residual_suite():
    for group in (bm.cyclic(2), bm.cyclic(5), bm.symmetric(3)):
        mu = bm.kac_takesaki(group)
        assert mu.unitarity_residual() < 1e-12
        assert bm.pentagon_residual(mu) < 1e-12
    mod, mu = bm.group_yd_module(bm.cyclic(2), [0, 1],
                                 [np.eye(2), np.diag([1.0, -1.0])])
    assert bm.corep_residual(mod.as_corep(), mu) < 1e-12
    assert bm.rep_residual(mod.as_rep(), mu) < 1e-12
    assert bm.yd_residual(mod, mu) < 1e-12


def test_graded_category_construction():
    spaces, provider = bm.graded_category(2, {"A": (2, (0, 1))})
    assert spaces["A"].grading == (0, 1)
    assert provider.modulus == 2
    # modulus one collapses to the flip
    _, trivial = bm.graded_category(1, {"A": (2, (0, 1))})
    a = bm.Space("A", 2, (0, 1))
    np.testing.assert_allclose(trivial.braid(a, a).matrix,
                               bm.FlipBraiding().braid(a, a).matrix)


def test_graded_category_modulus_four_hexagons():
    spaces, provider = bm.graded_category(4, {"Q": (4, (0, 1, 2, 3))})
    report = bm.check_hexagons(provider, [spaces["Q"]])
    assert report["max_residual"] < 1e-13


def test_group_yd_module_trivial():
    mod, mu = bm.group_yd_module(bm.cyclic(2), [0], [np.eye(1), np.eye(1)])
    np.testing.assert_allclose(mod.corep.matrix, np.eye(2))
    np.testing.assert_allclose(mod.rep.matrix, np.eye(2))


def test_group_yd_module_super(super_module):
    mod, mu = super_module
    phi = bm.yd_braiding(mod, mod, mu)
    expected = bm.PhaseBraiding(2).braid(mod.space, mod.space).matrix
    np.testing.assert_allclose(phi.matrix, expected, atol=1e-12)


def test_group_yd_module_reports_incompatible_data():
    # the bit flip action moves degree 0 to 1 although conjugation fixes it
    with pytest.raises(GroupTableError) as err:
        bm.group_yd_module(bm.cyclic(2), [0, 1],
                           [np.eye(2), np.array([[0, 1], [1, 0]])])
    assert "(g=1" in str(err.value)


def test_group_yd_module_rejects_non_homomorphisms():
    theta = 0.3
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    with pytest.raises((GroupTableError, ValueError)):
        bm.group_yd_module(bm.cyclic(2), [0, 0], [np.eye(2), rot])


def bundle_of(mu, extra_ops=None):
    bundle = bm.Bundle()
    bundle.spaces[mu.space.id] = mu.space
    bundle.operators["W"] = mu.op
    for name, op in (extra_ops or {}).items():
        bundle.operators[name] = op
    return bundle


def test_serialize_round_trip_is_byte_stable(z2):
    bundle = bundle_of(z2)
    bundle.groups["Z2"] = bm.cyclic(2)
    text = bm.bundle_to_json(bundle)
    again = bm.bundle_to_json(bm.bundle_from_json(text))
    assert text == again
    loaded = bm.bundle_from_json(text)
    np.testing.assert_allclose(loaded.operators["W"].matrix, z2.op.matrix)
    assert loaded.mult_unitary("W").space == z2.space


def test_serialize_handles_phase_and_explicit_braidings(super_space):
    bundle = bm.Bundle()
    bundle.spaces["S"] = super_space
    bundle.braiding_kind = "phase"
    bundle.braiding_modulus = 2
    text = bm.bundle_to_json(bundle)
    loaded = bm.bundle_from_json(text)
    assert loaded.provider().modulus == 2

    explicit = bm.Bundle()
    explicit.spaces["S"] = super_space
    explicit.braiding_kind = "explicit"
    explicit.braiding_pairs = [bm.PhaseBraiding(2).braid(super_space, super_space)]
    text2 = bm.bundle_to_json(explicit)
    loaded2 = bm.bundle_from_json(text2)
    assert loaded2.provider().supports(super_space, super_space)
    assert bm.bundle_to_json(loaded2) == text2


def test_unknown_braiding_kind_is_a_schema_error():
    with pytest.raises(SchemaError) as err:
        bm.bundle_from_json('{"version":1,"spaces":{},"braiding":{"kind":"magic"},'
                            '"operators":{},"groups":{}}')
    assert "/braiding/kind" in str(err.value)


@pytest.mark.parametrize("modulus", ["0", "-2", "2.5", '"3"', "true", "null"])
def test_phase_modulus_must_be_a_positive_integer(modulus):
    with pytest.raises(SchemaError) as err:
        bm.bundle_from_json('{"version":1,"spaces":{},"braiding":{"kind":"phase",'
                            f'"modulus":{modulus}}},"operators":{{}},"groups":{{}}}}')
    assert err.value.path == "/braiding/modulus"


@pytest.mark.parametrize("space, path", [
    ('{"dim":1e400}', "/spaces/L/dim"),
    ('{"dim":2.9}', "/spaces/L/dim"),
    ('{"dim":2.0}', "/spaces/L/dim"),
    ('{"dim":true}', "/spaces/L/dim"),
    ('{"dim":"2"}', "/spaces/L/dim"),
    ('{"dim":2,"grading":[0,1e400]}', "/spaces/L/grading/1"),
    ('{"dim":2,"grading":[1.5,0]}', "/spaces/L/grading/0"),
    ('{"dim":2,"grading":[0,false]}', "/spaces/L/grading/1"),
    ('{"dim":2,"grading":"01"}', "/spaces/L"),
])
def test_space_dims_and_gradings_must_be_json_integers(space, path):
    with pytest.raises(SchemaError) as err:
        bm.bundle_from_json(f'{{"version":1,"spaces":{{"L":{space}}}}}')
    assert err.value.path == path


@pytest.mark.parametrize("group, path", [
    ('{"identity":0.9,"table":[[0,1],[1,0]]}', "/groups/Z2/identity"),
    ('{"identity":1e400,"table":[[0,1],[1,0]]}', "/groups/Z2/identity"),
    ('{"identity":false,"table":[[0,1],[1,0]]}', "/groups/Z2/identity"),
    ('{"identity":0,"table":[[0,1],[1.5,0]]}', "/groups/Z2/table/1/0"),
    ('{"identity":0,"table":[[0,1e400],[1,0]]}', "/groups/Z2/table/0/1"),
    ('{"identity":0,"table":[[0,"1"],[1,0]]}', "/groups/Z2/table/0/1"),
    ('{"identity":0,"table":[[0,1],1]}', "/groups/Z2/table/1"),
    ('{"identity":0}', "/groups/Z2/table"),
])
def test_group_identities_and_tables_must_be_json_integers(group, path):
    with pytest.raises(SchemaError) as err:
        bm.bundle_from_json(f'{{"version":1,"groups":{{"Z2":{group}}}}}')
    assert err.value.path == path


def test_version_mismatch_is_reported():
    with pytest.raises(SchemaError) as err:
        bm.bundle_from_json('{"version":7,"spaces":{},"braiding":{"kind":"flip"},'
                            '"operators":{},"groups":{}}')
    assert "/version" in str(err.value)


def test_schema_error_paths_for_bad_nodes():
    with pytest.raises(SchemaError) as err:
        bm.bundle_from_json('{"version":1,"spaces":{"L":{"dim":2}},'
                            '"braiding":{"kind":"flip"},'
                            '"operators":{"W":{"domain":["L"],"codomain":["L"],'
                            '"matrix":[[1,0],[0,1]]}},"groups":{}}')
    assert "/operators/W" in str(err.value)
    with pytest.raises(SchemaError):
        bm.bundle_from_json("not json at all")


def test_save_and_load_bundle(tmp_path, z2):
    path = tmp_path / "w.json"
    bundle = bundle_of(z2)
    bm.save_bundle(bundle, str(path))
    loaded = bm.load_bundle(str(path))
    np.testing.assert_allclose(loaded.operators["W"].matrix, z2.op.matrix)
    # atomic write leaves no droppings
    assert list(tmp_path.iterdir()) == [path]


def test_floats_serialize_with_17_significant_digits():
    from braidmu.examples_io import _fmt_float
    x = 1 / 3
    assert _fmt_float(x) == format(x, ".17g")
    assert float(_fmt_float(x)) == x
    assert _fmt_float(2.0) == "2.0"


@pytest.mark.parametrize("x", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_floats_are_refused(x):
    with pytest.raises(ValueError, match="non-finite") as err:
        _canonical_json({"value": [1.0, x]})
    message = str(err.value)
    # a matrix names the same value, in the real part or in the imaginary part
    for entry in (complex(x, 0.0), complex(0.0, x)):
        with pytest.raises(ValueError) as in_matrix:
            _canonical_json({"value": np.array([[1.0, 2.0], [3.0, entry]])})
        assert str(in_matrix.value) == message


@pytest.mark.parametrize("first, second", [(0, 1), (1, 0), (1, 2), (3, 2)])
def test_a_matrix_names_its_first_non_finite_value(first, second):
    # positions in row-major order with the real part first; nan sits at the
    # first, inf at the second, as the per-float writer meets them
    parts = np.ones(8)
    parts[first], parts[second] = float("nan"), float("inf")
    m = parts.reshape(2, 4).view(complex)
    with pytest.raises(ValueError) as reference:
        _canonical_json(reference_matrix_tree(m))
    with pytest.raises(ValueError) as err:
        _canonical_json(m)
    assert str(err.value) == str(reference.value)
    assert ("nan" in str(err.value)) == (first < second)


def _float_of_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


# values whose text sits on a boundary of the float rule or of its bit patterns
_EDGE_FLOATS = [0.0, -0.0, 1e16, -1e16, 9999999999999998.0, 2.0 ** 53, 1e15 + 0.5,
                5e-324, sys.float_info.max, 0.1]
_ENTRIES = st.one_of(st.sampled_from(_EDGE_FLOATS),
                     st.integers(-2 ** 63, 2 ** 63 - 1).map(_float_of_bits)
                     .filter(math.isfinite))


@st.composite
def _matrices(draw):
    rows, cols = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    size = 2 * rows * cols
    parts = draw(st.lists(_ENTRIES, min_size=size, max_size=size))
    return np.array(parts, dtype=float).reshape(rows, 2 * cols).view(complex)


@settings(max_examples=300, deadline=None)
@given(_matrices())
def test_matrix_text_matches_the_per_float_writer(m):
    text = _canonical_json(m)
    assert text == _canonical_json(reference_matrix_tree(m))
    rows, cols = m.shape
    if rows and cols:
        bundle = bm.Bundle(spaces={"R": bm.Space("R", rows), "C": bm.Space("C", cols)})
        bundle.operators["M"] = bm.LegOperator(
            bm.LegSignature((bundle.spaces["C"],), (bundle.spaces["R"],)), m)
        loaded = bm.bundle_from_json(bm.bundle_to_json(bundle)).operators["M"].matrix
        assert np.array_equal(loaded.view(np.int64), m.view(np.int64))


def test_a_matrix_formats_each_distinct_float_once(monkeypatch):
    # the Z12 Yetter-Drinfeld module bundle of the legcalc benchmark, seed 1
    n = 12
    module, mu = zn_module(n, 1)
    bundle = bm.Bundle(spaces={mu.space.id: mu.space, module.space.id: module.space})
    bundle.operators.update(W=mu.op, U=module.corep, V=module.rep,
                            a=bm.identity((mu.space,)))
    bundle.groups[f"Z{n}"] = bm.cyclic(n)
    calls = []
    fmt_float = examples_io._fmt_float
    monkeypatch.setattr(examples_io, "_fmt_float", lambda x: calls.append(x) or fmt_float(x))
    bm.bundle_to_json(bundle)
    # each matrix is written in one pass, formatting its distinct bit patterns
    # once each: 104 calls here, against one per float (124,704) when every
    # float was its own node
    distinct = sum(len(np.unique(op.matrix.view(np.int64)))
                   for op in bundle.operators.values())
    assert len(calls) <= distinct


@pytest.mark.parametrize("text, path", [
    ('{"version":1,"spaces":{"L":{"dim":2,"grading":5}}}', "/spaces/L"),
    ('{"version":1,"braiding":{"kind":"explicit","pairs":{"a":1}}}', "/braiding/pairs"),
    ('{"version":1,"spaces":{"L":{"dim":1}},"braiding":{"kind":"explicit",'
     '"pairs":[{"first":"L","second":"L"}]}}', "/braiding/pairs/0/matrix"),
    ('{"version":1,"groups":{"g":{"table":[[0]],"identity":"x"}}}', "/groups/g/identity"),
    ('{"version":1,"spaces":{"L":{"dim":2}},"operators":{"W":{"domain":["L"],'
     '"codomain":["L"],"matrix":[[[1,0]],[[1,0],[0,0]]]}}}', "/operators/W/matrix"),
    ('{"version":1,"operators":{"W":[]}}', "/operators/W"),
    ('{"version":1,"operators":{"W":{"domain":[[1]],"codomain":[]}}}', "/operators/W"),
    # entries are JSON numbers; complex() would take true and false as 1 and 0
    ('{"version":1,"spaces":{"L":{"dim":1}},"operators":{"W":{"domain":["L"],'
     '"codomain":["L"],"matrix":[[[true,false]]]}}}', "/operators/W/matrix"),
    ('{"version":1,"spaces":{"L":{"dim":1}},"operators":{"W":{"domain":["L"],'
     '"codomain":["L"],"matrix":[[[1.0,false]]]}}}', "/operators/W/matrix"),
    ('{"version":1,"spaces":{"L":{"dim":1}},"braiding":{"kind":"explicit",'
     '"pairs":[{"first":"L","second":"L","matrix":[[[true,0.0]]]}]}}',
     "/braiding/pairs/0/matrix"),
])
def test_malformed_nodes_are_schema_errors(text, path):
    with pytest.raises(SchemaError) as err:
        bm.bundle_from_json(text)
    assert err.value.path == path


def test_names_that_spell_true_or_false_load_as_before():
    space = bm.Space("true", 1)
    bundle = bm.Bundle(spaces={"true": space})
    bundle.operators["false"] = bm.LegOperator(bm.LegSignature((space,), (space,)), np.eye(1))
    loaded = bm.bundle_from_json(bm.bundle_to_json(bundle))
    assert loaded.operators["false"].matrix.tolist() == [[1 + 0j]]


def test_canonical_json_escapes_every_control_character():
    text = "".join(chr(i) for i in range(0x20)) + 'tab\there "quote" back\\slash é ∞'
    tree = {text: [text, {"k": text}], "plain": 'a"b\\c'}
    out = _canonical_json(tree)
    assert all(ord(ch) >= 0x20 for ch in out)
    assert json.loads(out) == tree
    # quotes and backslashes are written as before
    assert _canonical_json({"a\\b": 'x"y'}) == '{"a\\\\b":"x\\"y"}'


def _fallback():
    """The reader with no matrix read from its text: json.loads of the whole
    text and every matrix by _matrix_from_tree, the fast path's oracle."""
    return mock.patch.object(examples_io, "_lift_matrices", lambda text: None)


def _outcome(text):
    """The bundle a text loads to, by the bits of its matrices, or its SchemaError."""
    try:
        bundle = bm.bundle_from_json(text)
    except SchemaError as exc:
        return "error", exc.path, str(exc)

    def op(x):
        return ([s.id for s in x.domain], [s.id for s in x.codomain],
                x.matrix.view(np.int64).tobytes())

    return ("bundle", bundle.spaces, bundle.braiding_kind, bundle.braiding_modulus,
            [op(x) for x in bundle.braiding_pairs],
            {name: op(x) for name, x in bundle.operators.items()}, bundle.groups)


def _module_bundle(n):
    module, mu = zn_module(n, 1)
    return bm.Bundle(spaces={mu.space.id: mu.space, module.space.id: module.space},
                     operators={"W": mu.op, "U": module.corep, "V": module.rep})


def _escaped_names_bundle():
    odd = bm.Space('a"b\\c\t\u00e9 true', 2, (0, 1))
    return bm.Bundle(spaces={odd.id: odd}, braiding_kind="phase", braiding_modulus=2,
                     operators={"false\\": bm.PhaseBraiding(2).braid(odd, odd)})


_CONTROL = bm.identity_control(2)
# bundles as the writer leaves them: KT, a module with phases, an explicit
# braiding (a table and an operator), and names that need escapes or spell
# true and false
_WRITTEN = {
    "kt-s3": lambda: bm.bundle_from_json(kac_takesaki_text(bm.symmetric(3))),
    "module-z12": lambda: _module_bundle(12),
    "explicit": lambda: bm.Bundle(
        spaces={"L": _CONTROL.space}, braiding_kind="explicit",
        braiding_pairs=[_CONTROL.braiding.braid(_CONTROL.space, _CONTROL.space)],
        operators={"F": _CONTROL.op}),
    "escaped-names": _escaped_names_bundle,
}


@pytest.mark.parametrize("name", list(_WRITTEN))
def test_every_written_bundle_reads_its_matrices_from_the_text(name):
    bundle = _WRITTEN[name]()
    text = bm.bundle_to_json(bundle)
    rest, matrices = examples_io._lift_matrices(text)
    assert len(matrices) == len(bundle.operators) + len(bundle.braiding_pairs)
    assert "[[[" not in rest
    loaded = _outcome(text)
    with _fallback():
        assert _outcome(text) == loaded
    assert bm.bundle_to_json(bm.bundle_from_json(text)) == text


@pytest.mark.parametrize("text", [HUGE_ENTRY_TEXT, HUGE_ENTRY_TEXT.replace("[[[1", "[[[-1"),
                                  HUGE_ENTRY_TEXT.replace("[[[1", "[[[ 1"),
                                  HUGE_ENTRY_TEXT.replace(",0.0],", ",-1" + "0" * 400 + "],", 1)],
                         ids=["writer-form", "negative", "spaced", "imaginary"])
def test_an_integer_beyond_the_float_range_is_not_a_finite_entry(text):
    """It was an OverflowError in complex(); now it reads as 1e400 does, on
    both paths (a space before it keeps the matrix off the fast path)."""
    for reader in (contextlib.nullcontext(), _fallback()):
        with reader, pytest.raises(SchemaError) as err:
            bm.bundle_from_json(text)
        assert (err.value.path, str(err.value)) == (
            "/operators/W/matrix", "/operators/W/matrix: matrix entries must be finite")


def test_a_modulus_beyond_the_float_range_is_a_schema_error():
    # it was an OverflowError in PhaseBraiding, once the provider was built
    with pytest.raises(SchemaError) as err:
        bm.bundle_from_json(HUGE_MODULUS_TEXT)
    assert err.value.path == "/braiding/modulus"
    assert "401 digits" in str(err.value)
    largest = HUGE_MODULUS_TEXT.replace("1" + "0" * 400, str(2 ** 1024 - 1))
    assert bm.bundle_from_json(largest.replace(str(2 ** 1024 - 1), str(2 ** 1023))
                               ).braiding_modulus == 2 ** 1023
    with pytest.raises(SchemaError, match="beyond|below"):
        bm.bundle_from_json(largest.replace(str(2 ** 1024 - 1), str(2 ** 1024)))


@pytest.mark.parametrize("text", ['{"version":1,"x":1' + "0" * 5000 + "}", "[" * 100000],
                         ids=["int-beyond-int", "nested-too-deep"])
def test_texts_json_reads_with_no_decode_error_are_schema_errors(text):
    # json.loads raised ValueError and RecursionError for these, not a JSONDecodeError
    with pytest.raises(SchemaError) as err:
        bm.bundle_from_json(text)
    assert err.value.path == "/" and "not valid JSON" in str(err.value)


_BASE_TEXTS = [kac_takesaki_text(bm.cyclic(2)), bm.bundle_to_json(_WRITTEN["explicit"]())]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_BASE_TEXTS).flatmap(mutated_texts))
@example(HUGE_ENTRY_TEXT)
@example(HUGE_MODULUS_TEXT)
@example(_BASE_TEXTS[0].replace("[0.0,0.0]]", "[0.0,0.0]01]", 1))   # not 0.001
def test_the_reader_matches_its_fallback_on_any_text(text):
    # the same bundle, bit for bit, or the same SchemaError, with json's
    # decode position in the text
    expected = None
    with _fallback():
        expected = _outcome(text)
    assert _outcome(text) == expected


# JSON numbers, with their sign, integer, fraction and exponent parts drawn
# apart, and spellings that JSON's grammar refuses
_NUMBER_TEXTS = st.one_of(
    st.from_regex(r"-?(0|[1-9][0-9]{0,24})(\.[0-9]{1,20})?([eE][-+]?[0-9]{1,3})?",
                  fullmatch=True),
    st.sampled_from(["-0", "-0.0", "0", "1" + "0" * 400, "-1" + "0" * 400, "9007199254740993",
                     "01", "+1", "1.", ".5", "-", "1e", "nan", "Infinity", "1_0", "١"]))


@settings(max_examples=100, deadline=None)
@given(st.lists(_NUMBER_TEXTS, min_size=8, max_size=8))
@example(["-0", "0", "0.0", "-0.0", "1", "1.0", "1e0", "10E-1"])
def test_the_reader_converts_each_spelling_as_json_does(entries):
    # a 2 x 2 matrix in the writer's form, whatever its entries' spelling
    text = ('{"version":1,"spaces":{"L":{"dim":2}},"operators":{"W":{"domain":["L"],'
            '"codomain":["L"],"matrix":[[[%s,%s],[%s,%s]],[[%s,%s],[%s,%s]]]}}}' % tuple(entries))
    with _fallback():
        expected = _outcome(text)
    assert _outcome(text) == expected


@pytest.mark.parametrize("spelling", ["<matrix>0", "\\u003cmatrix>0", "\\u003Cmatrix\\u003e0"])
def test_a_string_spelling_a_placeholder_is_no_matrix(spelling):
    # W's matrix is a string, escaped or not, equal to the placeholder that the
    # reader would give X's matrix: it stays the malformed node it is
    text = ('{"version":1,"spaces":{"L":{"dim":1}},"operators":{'
            '"W":{"domain":["L"],"codomain":["L"],"matrix":"%s"},'
            '"X":{"domain":["L"],"codomain":["L"],"matrix":[[[1.0,0.0]]]}}}' % spelling)
    for reader in (contextlib.nullcontext(), _fallback()):
        with reader, pytest.raises(SchemaError) as err:
            bm.bundle_from_json(text)
        assert str(err.value) == ("/operators/W/matrix: matrix must be equal-length rows "
                                  "of [re, im] pairs")
