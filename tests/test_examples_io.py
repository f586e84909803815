import json

import numpy as np
import pytest

import braidmu as bm
from braidmu import GroupTableError, SchemaError


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
    from braidmu.examples_io import _canonical_json
    with pytest.raises(ValueError, match="non-finite"):
        _canonical_json({"value": [1.0, x]})


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
])
def test_malformed_nodes_are_schema_errors(text, path):
    with pytest.raises(SchemaError) as err:
        bm.bundle_from_json(text)
    assert err.value.path == path


def test_canonical_json_escapes_every_control_character():
    from braidmu.examples_io import _canonical_json
    text = "".join(chr(i) for i in range(0x20)) + 'tab\there "quote" back\\slash é ∞'
    tree = {text: [text, {"k": text}], "plain": 'a"b\\c'}
    out = _canonical_json(tree)
    assert all(ord(ch) >= 0x20 for ch in out)
    assert json.loads(out) == tree
    # quotes and backslashes are written as before
    assert _canonical_json({"a\\b": 'x"y'}) == '{"a\\\\b":"x\\"y"}'
