import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import galois_trees
from galois_trees import (
    AbelianGroup,
    CoverSpec,
    MultiPoly,
    build_cover,
    build_graph,
    degree_sequence,
    free_resolution,
    genus,
    is_connected_cover,
    jacobian_group,
    subgroup_from_generators,
    trivial_subgroup,
    validate_spec,
    verify_main_theorem,
)
from helpers import (
    dumbbell_z6_spec,
    icosahedron_spec,
    random_cover_spec,
    random_element,
    theta_graph,
)
from oracles import (
    _translate,
    connected_components,
    contract_cover,
    dilation_after_loop_contraction,
    frobenius,
    switch_voltages,
    validate_cover,
)


def test_validate_normalizes_voltage_killed_by_dilation():
    spec = icosahedron_spec()
    spec = CoverSpec(
        base=spec.base,
        group=spec.group,
        dilation=dict(spec.dilation),
        voltage={**spec.voltage, "e1": (3,)},
    )
    normalized, reduced = validate_spec(spec)
    assert "e1" in reduced
    assert normalized.voltage_on("e1") == (0,)
    assert "e1" not in normalized.voltage


def test_validate_leaves_plain_specs_alone():
    g = theta_graph()
    spec = CoverSpec(base=g, group=AbelianGroup((4,)))
    normalized, reduced = validate_spec(spec)
    assert reduced == ()
    assert normalized == spec


def test_validate_reduces_bridge_voltage():
    spec = dumbbell_z6_spec()
    spec = CoverSpec(
        base=spec.base,
        group=spec.group,
        dilation=dict(spec.dilation),
        voltage={**spec.voltage, "e3": (5,)},
    )
    normalized, reduced = validate_spec(spec)
    # D(v1) + D(v2) is everything, so the bridge class is trivial
    assert "e3" in reduced
    assert "e3" not in normalized.voltage


def test_validate_rejects_bad_ids():
    g = theta_graph()
    group = AbelianGroup((2,))
    with pytest.raises(ValueError, match="unknown vertex"):
        validate_spec(
            CoverSpec(base=g, group=group, dilation={"zz": trivial_subgroup(group)})
        )
    with pytest.raises(ValueError, match="unknown edge"):
        validate_spec(CoverSpec(base=g, group=group, voltage={"zz": (1,)}))
    other = trivial_subgroup(AbelianGroup((3,)))
    with pytest.raises(ValueError, match="different parent"):
        validate_spec(CoverSpec(base=g, group=group, dilation={"u": other}))


def test_build_icosahedron_cover():
    cover = build_cover(icosahedron_spec())
    assert len(cover.total.vertices) == 12
    assert len(cover.total.edges) == 30
    assert set(degree_sequence(cover.total)) == {5}
    assert is_connected_cover(cover)
    validate_cover(cover)


def test_connectivity_of_a_fully_dilated_spec_is_linear_in_the_group(monkeypatch):
    """Every element of both dilation subgroups goes to the subgroup closure,
    which costs O(N) group additions, not O(N) per generator."""
    group = AbelianGroup((120,))
    full = subgroup_from_generators(group, [(1,)])
    g = build_graph(["u", "w"], [("e", "u", "w"), ("f", "u", "w")])
    spec = CoverSpec(base=g, group=group, dilation={"u": full, "w": full}, voltage={"f": (7,)})
    adds = []
    original = AbelianGroup.add
    monkeypatch.setattr(AbelianGroup, "add", lambda self, a, b: (adds.append(a), original(self, a, b))[1])
    assert spec.connected
    assert len(adds) <= 2 * group.order


def test_trivial_voltage_cover_is_disjoint_copies():
    g = theta_graph()
    for n in (2, 3):
        spec = CoverSpec(base=g, group=AbelianGroup((n,)))
        cover = build_cover(spec)
        assert not is_connected_cover(cover)
        comps = connected_components(cover.total)
        assert len(comps) == n
        for comp in comps:
            assert len(comp.vertices) == 2 and len(comp.edges) == 3
        validate_cover(cover)


def test_build_dumbbell_cover():
    cover = build_cover(dumbbell_z6_spec())
    assert len(cover.total.vertices) == 5
    assert len(cover.total.edges) == 18
    assert is_connected_cover(cover)
    assert len(cover.vertex_fiber("v1")) == 2
    assert len(cover.vertex_fiber("v2")) == 3
    assert all(len(cover.edge_fiber(e)) == 6 for e in cover.base.edges)
    validate_cover(cover)


def test_frobenius_examples():
    spec = icosahedron_spec()
    assert frobenius(spec, [("e3", 1), ("e4", -1)]) == (1,)
    assert frobenius(spec, [("e1", 1)]) == (0,)
    assert frobenius(spec, [("e2", 1), ("e2", 1)]) == (2,)


def test_frobenius_noncomposable():
    spec = icosahedron_spec()
    with pytest.raises(ValueError, match="compose"):
        frobenius(spec, [("e1", 1), ("e6", 1)])


def test_free_resolution_dumbbell():
    spec = dumbbell_z6_spec()
    resolved, added = free_resolution(spec)
    assert added == ("v1.res0", "v2.res0")
    assert resolved.base.ends["v1.res0"] == ("v1", "v1")
    assert resolved.voltage["v1.res0"] == (2,)
    assert resolved.voltage["v2.res0"] == (3,)
    assert len(resolved.base.vertices) == 2 and len(resolved.base.edges) == 5
    assert resolved.is_free()


def test_free_resolution_noop_on_free_spec():
    g = theta_graph()
    spec = CoverSpec(base=g, group=AbelianGroup((3,)), voltage={"e": (1,)})
    resolved, added = free_resolution(spec)
    assert added == ()
    assert resolved.base == g
    assert resolved.voltage == spec.voltage


def test_free_resolution_icosahedron_recovers_tree_count():
    spec = icosahedron_spec()
    resolved, added = free_resolution(spec)
    assert len(resolved.base.vertices) == 4 and len(resolved.base.edges) == 8
    assert [resolved.voltage[e] for e in added] == [(1,), (1,)]
    cover = build_cover(resolved)
    validate_cover(cover)
    back = contract_cover(cover, added)
    assert jacobian_group(back.total).order == 5_184_000
    assert len(back.total.vertices) == 12 and len(back.total.edges) == 30


def test_contract_cover_roundtrip_dumbbell():
    spec = dumbbell_z6_spec()
    original = build_cover(spec)
    resolved, added = free_resolution(spec)
    cover = build_cover(resolved)
    back = contract_cover(cover, added)
    for v in spec.base.vertices:
        assert len(back.vertex_fiber(v)) == len(original.vertex_fiber(v))
    for e in spec.base.edges:
        assert len(back.edge_fiber(e)) == len(original.edge_fiber(e))
    assert sorted(back.local_degrees.values()) == sorted(original.local_degrees.values())
    assert jacobian_group(back.total).order == jacobian_group(original.total).order
    assert (
        jacobian_group(back.total).invariant_factors
        == jacobian_group(original.total).invariant_factors
    )


def test_contracted_covers_stay_balanced():
    for spec in (dumbbell_z6_spec(), icosahedron_spec()):
        resolved, added = free_resolution(spec)
        back = contract_cover(build_cover(resolved), added)
        validate_cover(back)
    # contracting a bridge of a dilated cover merges everything Galois-style
    cover = build_cover(dumbbell_z6_spec())
    merged = contract_cover(cover, ["e3"])
    validate_cover(merged)
    assert len(merged.total.vertices) == 1
    assert sorted(merged.local_degrees.values()) == [6]


def test_free_resolution_keeps_the_cover_random():
    rng = random.Random(11)
    drawn = 0
    while drawn < 40:
        spec, original = random_cover_spec(rng, max_vertices=4, max_edges=6, tree_cap=20_000)
        if spec.is_free():
            continue
        drawn += 1
        resolved, added = free_resolution(spec)
        back = contract_cover(build_cover(resolved), added)
        assert jacobian_group(back.total) == jacobian_group(original.total)
        assert sorted(back.local_degrees.values()) == sorted(original.local_degrees.values())
        assert verify_main_theorem(resolved).equal


def test_contract_cover_nothing():
    cover = build_cover(dumbbell_z6_spec())
    same = contract_cover(cover, [])
    assert same.total == cover.total
    assert same.base == cover.base
    assert same.local_degrees == cover.local_degrees


def test_contract_cover_bridge_of_free_resolution():
    resolved, _ = free_resolution(dumbbell_z6_spec())
    cover = build_cover(resolved)
    contracted = contract_cover(cover, ["e3"])
    assert len(contracted.base.vertices) == 1
    assert len(contracted.base.edges) == 4
    # rebuild the contracted object directly and compare fiber data
    merged = contracted.base.vertices[0]
    rebuilt_spec = CoverSpec(
        base=contracted.base,
        group=resolved.group,
        voltage={e: resolved.voltage[e] for e in contracted.base.edges if e in resolved.voltage},
    )
    rebuilt = build_cover(rebuilt_spec)
    assert len(contracted.vertex_fiber(merged)) == len(rebuilt.vertex_fiber(merged))
    for e in contracted.base.edges:
        assert len(contracted.edge_fiber(e)) == len(rebuilt.edge_fiber(e))
    assert (
        jacobian_group(contracted.total).order == jacobian_group(rebuilt.total).order
    )


def test_dilation_after_loop_contraction_examples():
    spec = dumbbell_z6_spec()
    assert dilation_after_loop_contraction(spec, "e1").order == 6

    g = build_graph(["v"], [("e", "v", "v")])
    z4 = AbelianGroup((4,))
    free_loop = CoverSpec(base=g, group=z4)
    assert dilation_after_loop_contraction(free_loop, "e").is_trivial()

    resolved, added = free_resolution(icosahedron_spec())
    assert dilation_after_loop_contraction(resolved, added[0]).order == 5

    with pytest.raises(ValueError, match="not a loop"):
        dilation_after_loop_contraction(spec, "e3")


def test_free_cover_genus():
    rng = random.Random(11)
    for _ in range(10):
        spec, cover = random_cover_spec(rng, free=True, max_vertices=4, max_edges=6)
        n = spec.group.order
        g = genus(spec.base)
        assert genus(cover.total) == n * (g - 1) + 1


def test_every_built_cover_is_balanced():
    rng = random.Random(12)
    for _ in range(8):
        spec, cover = random_cover_spec(rng, max_vertices=4, max_edges=6)
        validate_cover(cover)


def test_representative_independence():
    rng = random.Random(13)
    for _ in range(8):
        spec, cover = random_cover_spec(rng, max_vertices=4, max_edges=6)
        group = spec.group
        # change coset representatives: add a random joint-dilation element
        voltage = dict(spec.voltage)
        for e in spec.base.edges:
            s, t = spec.base.ends[e]
            from galois_trees import subgroup_sum

            joint = subgroup_sum(spec.dilation_at(s), spec.dilation_at(t)).elements
            shift = joint[rng.randrange(len(joint))]
            voltage[e] = group.add(spec.voltage_on(e), shift)
        shifted = CoverSpec(
            base=spec.base, group=group, dilation=dict(spec.dilation), voltage=voltage
        )
        # and apply a random vertex switching on top
        xi = {v: random_element(rng, group) for v in spec.base.vertices}
        switched = switch_voltages(shifted, xi)
        other = build_cover(switched)
        assert degree_sequence(other.total) == degree_sequence(cover.total)
        assert (
            jacobian_group(other.total).invariant_factors
            == jacobian_group(cover.total).invariant_factors
        )
        assert jacobian_group(other.total).order == jacobian_group(cover.total).order


def test_switching_leaves_verification_unchanged():
    rng = random.Random(15)
    for _ in range(40):
        spec, _ = random_cover_spec(rng, tree_cap=50_000)
        xi = {v: random_element(rng, spec.group) for v in spec.base.vertices}
        switched = switch_voltages(spec, xi)
        assert verify_main_theorem(switched).summary() == verify_main_theorem(spec).summary()


def _renamed(spec, rng):
    """The spec under fresh vertex and edge ids in shuffled sorted order, and
    the map from new edge ids back to old ones."""
    base = spec.base
    vnew = {v: f"p{i:02d}" for v, i in zip(base.vertices, rng.sample(range(100), 100))}
    enew = {e: f"q{i:02d}" for e, i in zip(base.edges, rng.sample(range(100), 100))}
    edges = [(enew[e], vnew[base.ends[e][0]], vnew[base.ends[e][1]]) for e in base.edges]
    rng.shuffle(edges)
    vertices = list(vnew.values())
    rng.shuffle(vertices)
    renamed = CoverSpec(
        base=build_graph(vertices, edges),
        group=spec.group,
        dilation={vnew[v]: sub for v, sub in spec.dilation.items()},
        voltage={enew[e]: eta for e, eta in spec.voltage.items()},
    )
    return renamed, {new: old for old, new in enew.items()}


def _rename_variables(poly, names):
    return MultiPoly({
        tuple(sorted((names[v], e) for v, e in mono)): c for mono, c in poly.terms.items()
    })


def test_renaming_changes_nothing_beyond_the_rename():
    rng = random.Random(16)
    checked = 0
    while checked < 40:
        spec, cover = random_cover_spec(rng, tree_cap=50_000, dilation_prob=0.5)
        if not spec.dilation:
            continue
        checked += 1
        renamed, back = _renamed(spec, rng)
        other = build_cover(renamed)
        assert (
            jacobian_group(other.total).invariant_factors
            == jacobian_group(cover.total).invariant_factors
        )
        want, got = verify_main_theorem(spec), verify_main_theorem(renamed)
        for field in ("base_tree_count", "prefactor", "rhs_tree_count", "lhs_tree_count",
                      "cover_jacobian", "polynomial_checked", "equal"):
            assert getattr(got, field) == getattr(want, field)
        for field in ("base_polynomial", "rhs_polynomial", "lhs_polynomial"):
            assert _rename_variables(getattr(got, field), back) == getattr(want, field)
        assert len(got.characters) == len(want.characters)
        for a, b in zip(got.characters, want.characters):
            assert a.character == b.character
            assert (a.rank, len(a.bases)) == (b.rank, len(b.bases))
            assert _rename_variables(a.polynomial, back) == b.polynomial
            assert a.scalar == b.scalar


def test_resolution_contraction_identity_random():
    rng = random.Random(14)
    for _ in range(20):
        spec, cover = random_cover_spec(rng, max_vertices=3, max_edges=5)
        resolved, added = free_resolution(spec)
        if not added:
            continue
        free_cover = build_cover(resolved)
        back = contract_cover(free_cover, added)
        # the contracted covers carry loops and parallel edges
        assert (
            jacobian_group(back.total).invariant_factors
            == jacobian_group(cover.total).invariant_factors
        )
        assert jacobian_group(back.total).order == jacobian_group(cover.total).order
        for v in spec.base.vertices:
            assert len(back.vertex_fiber(v)) == len(cover.vertex_fiber(v))
        assert sorted(back.local_degrees.values()) == sorted(
            cover.local_degrees.values()
        )


def test_translate_reads_labels_back():
    z2z3 = AbelianGroup((2, 3))
    assert _translate(z2z3, (1, 2), "e@1.1") == "e@0.0"
    assert _translate(z2z3, (0, 1), "a@b@0.2") == "a@b@0.0"
    # Z/1 and the zero-arity group both print their one element as "0"
    assert _translate(AbelianGroup((1,)), (0,), "e@0") == "e@0"
    assert _translate(AbelianGroup(()), (), "e@0") == "e@0"
    for group in (AbelianGroup((1,)), AbelianGroup(())):
        cover = build_cover(CoverSpec(base=theta_graph(), group=group))
        assert cover.total.edges == ("e@0", "f@0", "g@0")
        validate_cover(cover)


def _tampered_covers():
    """A genuine cover with one total edge's endpoint moved, and one with a
    wrong local degree."""
    cover = build_cover(dumbbell_z6_spec())
    ends = dict(cover.total.ends)
    src, tgt = ends["e3@0"]
    ends["e3@0"] = (src, next(tv for tv in cover.vertex_fiber("v2") if tv != tgt))
    moved = replace(cover, total=replace(cover.total, ends=ends))
    degrees = dict(cover.local_degrees)
    degrees["v1@0"] += 1
    return [moved, replace(cover, local_degrees=degrees)]


def test_validate_cover_rejects_tampered_covers():
    for cover in _tampered_covers():
        with pytest.raises(AssertionError):
            validate_cover(cover)


def test_validate_cover_checks_under_python_O():
    script = (
        "import sys; sys.path[:0] = sys.argv[1:]\n"
        "from test_covers import _tampered_covers\n"
        "from oracles import validate_cover\n"
        "for cover in _tampered_covers():\n"
        "    try:\n"
        "        validate_cover(cover)\n"
        "    except AssertionError:\n"
        "        continue\n"
        "    sys.exit('tampered cover accepted')\n"
    )
    here = Path(__file__).resolve().parent
    src = Path(galois_trees.__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-O", "-c", script, str(here), str(src)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_edgeless_base_vertex_action_from_labels():
    g = build_graph(["v"], [])
    z4 = AbelianGroup((4,))
    spec = CoverSpec(
        base=g, group=z4, dilation={"v": subgroup_from_generators(z4, [(2,)])}
    )
    cover = build_cover(spec)
    assert cover.total.vertices == ("v@0", "v@1")
    validate_cover(cover)
    resolved, added = free_resolution(spec)
    back = contract_cover(build_cover(resolved), added)
    assert back.total.vertices == ("v@0+v@2", "v@1+v@3")
    assert back.total.edges == ()
    validate_cover(back)
    # translation by 1 splits {v@0, v@1}: the action does not descend
    bad = replace(
        back,
        total=build_graph(["v@0+v@1", "v@2+v@3"], []),
        vertex_map={"v@0+v@1": "v", "v@2+v@3": "v"},
        local_degrees={"v@0+v@1": 2, "v@2+v@3": 2},
    )
    with pytest.raises(AssertionError, match="not well defined"):
        validate_cover(bad)


def test_cover_spec_checks_ids_and_elements_when_made():
    g = theta_graph()
    group = AbelianGroup((4,))
    with pytest.raises(ValueError, match="dilation names unknown vertex 'zz'"):
        CoverSpec(base=g, group=group, dilation={"zz": subgroup_from_generators(group, [(2,)])})
    foreign = subgroup_from_generators(AbelianGroup((6,)), [(3,)])
    with pytest.raises(ValueError, match="at 'u' has a different parent group"):
        CoverSpec(base=g, group=group, dilation={"u": foreign})
    with pytest.raises(ValueError, match="voltage names unknown edge 'zz'"):
        CoverSpec(base=g, group=group, voltage={"zz": (1,)})
    with pytest.raises(ValueError, match="wrong arity"):
        CoverSpec(base=g, group=group, voltage={"e": (1, 0)})
    # unreduced residues are kept as made; validate_spec reduces them
    spec = CoverSpec(base=g, group=group, voltage={"e": (5,), "f": (-4,)})
    assert validate_spec(spec).spec.voltage == {"e": (1,)}
