import json
import random

import pytest
from click.testing import CliRunner

from galois_trees import (
    parse_spec,
    serialize_spec,
    spec_to_dict,
    validate_spec,
    verify,
    verify_main_theorem,
    zeta,
)
from galois_trees.cli import main
from galois_trees.errors import SpecFormatError
from helpers import SPEC_DIR, count_calls, dumbbell_z6_spec, icosahedron_spec, random_cover_spec
from oracles import contract_cover


def test_parse_icosahedron_fixture():
    spec = parse_spec((SPEC_DIR / "icosahedron.json").read_text())
    expected = validate_spec(icosahedron_spec()).spec
    assert validate_spec(spec).spec == expected


def test_parse_dumbbell_fixture():
    spec = parse_spec((SPEC_DIR / "dumbbell_z6.json").read_text())
    assert validate_spec(spec).spec == validate_spec(dumbbell_z6_spec()).spec


def test_missing_voltage_defaults_to_zero():
    spec = parse_spec(
        {
            "vertices": ["a", "b"],
            "edges": [{"id": "e", "src": "a", "tgt": "b"}],
            "group": {"cyclic": [4]},
        }
    )
    assert spec.voltage == {}
    assert spec.voltage_on("e") == (0,)


def test_unknown_vertex_in_dilation():
    with pytest.raises(SpecFormatError, match="unknown vertex 'zz'"):
        parse_spec(
            {
                "vertices": ["a"],
                "edges": [],
                "group": {"cyclic": [2]},
                "dilation": {"zz": [[1]]},
            }
        )


# built as text: json.dumps of a list nested this deep recurses too
DEEPLY_NESTED = '{"vertices": ' + "[" * 100_000 + "]" * 100_000 + "}"


def test_parse_rejects_garbage():
    with pytest.raises(SpecFormatError, match="invalid JSON"):
        parse_spec("{nope")
    with pytest.raises(SpecFormatError, match="missing required"):
        parse_spec({"vertices": [], "edges": []})
    with pytest.raises(SpecFormatError, match="unknown top-level"):
        parse_spec(
            {"vertices": ["a"], "edges": [], "group": {"cyclic": [1]}, "bogus": 1}
        )
    with pytest.raises(SpecFormatError, match="positive ints"):
        parse_spec({"vertices": ["a"], "edges": [], "group": {"cyclic": [0]}})
    with pytest.raises(SpecFormatError, match="invalid JSON"):
        parse_spec(DEEPLY_NESTED)


def test_cli_rejects_a_deeply_nested_spec(tmp_path):
    path = tmp_path / "nested.json"
    path.write_text(DEEPLY_NESTED)
    for command in ("verify", "zeta", "build"):
        result = CliRunner().invoke(main, [command, str(path)])
        assert result.exit_code == 2, (command, result.output)
        assert result.stderr.startswith("error: invalid JSON")


BOOLEAN_INT_SPECS = (
    {"vertices": ["a"], "edges": [], "group": {"cyclic": [True, 3]}},
    {
        "vertices": ["a"],
        "edges": [{"id": "e", "src": "a", "tgt": "a"}],
        "group": {"cyclic": [2, 2]},
        "voltage": {"e": [False, True]},
    },
    {
        "vertices": ["a"],
        "edges": [],
        "group": {"cyclic": [2]},
        "dilation": {"a": [[True]]},
    },
)


def test_parse_rejects_booleans_as_ints():
    for document in BOOLEAN_INT_SPECS:
        with pytest.raises(SpecFormatError):
            parse_spec(document)
        with pytest.raises(SpecFormatError):
            parse_spec(json.dumps(document))


# a present dilation/voltage must be an object; edge fields must be strings
MALFORMED_SHAPE_SPECS = (
    {"vertices": ["a"], "edges": [], "group": {"cyclic": [2]}, "dilation": [["x"]]},
    {
        "vertices": ["a"],
        "edges": [{"id": "e", "src": "a", "tgt": "a"}],
        "group": {"cyclic": [2]},
        "voltage": "abc",
    },
    {
        "vertices": ["u"],
        "edges": [{"id": "e", "src": ["u"], "tgt": "u"}],
        "group": {"cyclic": [2]},
    },
    {
        "vertices": ["u"],
        "edges": [{"id": 5, "src": "u", "tgt": "u"}, {"id": "f", "src": "u", "tgt": "u"}],
        "group": {"cyclic": [2]},
    },
)


def test_parse_rejects_malformed_shapes():
    for document in MALFORMED_SHAPE_SPECS:
        with pytest.raises(SpecFormatError):
            parse_spec(document)
        with pytest.raises(SpecFormatError):
            parse_spec(json.dumps(document))
    # null still means empty
    spec = parse_spec(
        {"vertices": ["a"], "edges": [], "group": {"cyclic": [2]}, "dilation": None, "voltage": None}
    )
    assert spec.dilation == {} and spec.voltage == {}


def test_cli_rejects_malformed_shapes(tmp_path):
    runner = CliRunner()
    for k, document in enumerate(MALFORMED_SHAPE_SPECS):
        path = tmp_path / f"shape{k}.json"
        path.write_text(json.dumps(document))
        result = runner.invoke(main, ["build", str(path)])
        assert result.exit_code == 2, result.output
        assert result.stderr.startswith("error: ")


def test_roundtrip_on_normalized_specs():
    for spec in (icosahedron_spec(), dumbbell_z6_spec()):
        normalized = validate_spec(spec).spec
        again = parse_spec(serialize_spec(normalized))
        assert again == normalized


def test_roundtrip_on_random_specs():
    rng = random.Random(41)
    dilated = 0
    for _ in range(200):
        spec = validate_spec(random_cover_spec(rng)[0]).spec
        dilated += not spec.is_free()
        assert parse_spec(serialize_spec(spec)) == spec
    assert dilated >= 50


def test_verify_small_z2_theta_cover():
    spec = parse_spec((SPEC_DIR / "theta_z2.json").read_text())
    report = verify_main_theorem(spec)
    assert report.polynomial_checked
    assert report.equal
    assert report.lhs_polynomial == report.rhs_polynomial
    # the doubled theta has 4 vertices and 6 edges
    assert len(report.cover.total.vertices) == 4
    assert len(report.cover.total.edges) == 6


def test_verify_rejects_trivial_group_and_disconnected():
    theta = parse_spec((SPEC_DIR / "theta.json").read_text())
    with pytest.raises(ValueError, match="nontrivial group"):
        verify_main_theorem(theta)
    spec = parse_spec(
        {
            "vertices": ["u", "w"],
            "edges": [
                {"id": "e", "src": "u", "tgt": "w"},
                {"id": "f", "src": "u", "tgt": "w"},
            ],
            "group": {"cyclic": [2]},
        }
    )
    with pytest.raises(ValueError, match="connected"):
        verify_main_theorem(spec)


def test_verify_integer_level_mode(monkeypatch):
    monkeypatch.setattr(verify, "DEFAULT_ENUMERATION_CAP", 10)
    spec = parse_spec((SPEC_DIR / "dumbbell_z6.json").read_text())
    report = verify_main_theorem(spec)
    assert not report.polynomial_checked
    assert report.lhs_polynomial is None
    assert report.equal
    assert report.lhs_tree_count == report.rhs_tree_count == 960


def test_verify_fully_dilated_cover():
    from galois_trees import (
        AbelianGroup,
        CoverSpec,
        MultiPoly,
        build_graph,
        subgroup_from_generators,
    )

    g = build_graph(["v"], [("e", "v", "v")])
    z2 = AbelianGroup((2,))
    spec = CoverSpec(
        base=g, group=z2, dilation={"v": subgroup_from_generators(z2, [(1,)])}
    )
    report = verify_main_theorem(spec)
    assert report.equal and report.polynomial_checked
    assert report.rhs_polynomial == MultiPoly.variable("e") ** 2
    assert report.lhs_tree_count == 1


def test_verify_tree_base_with_dilated_endpoint():
    from galois_trees import (
        AbelianGroup,
        CoverSpec,
        build_graph,
        subgroup_from_generators,
    )

    g = build_graph(["u", "w"], [("e", "u", "w")])
    z2 = AbelianGroup((2,))
    spec = CoverSpec(
        base=g, group=z2, dilation={"u": subgroup_from_generators(z2, [(1,)])}
    )
    report = verify_main_theorem(spec)
    assert report.equal and report.polynomial_checked
    # the tree polynomial of a tree is the constant 1, on both sides
    assert report.rhs_polynomial == 1
    assert report.characters[0].rank == 0
    assert len(report.characters[0].bases) == 1


def test_verify_agrees_with_resolution_then_contraction():
    from galois_trees import free_resolution, jacobian_group

    spec = dumbbell_z6_spec()
    resolved, added = free_resolution(spec)
    direct = verify_main_theorem(spec)
    via_resolution = verify_main_theorem(resolved)
    assert direct.equal and via_resolution.equal
    back = contract_cover(via_resolution.cover, added)
    assert jacobian_group(back.total).order == direct.lhs_tree_count


def test_cli_verify_exit_codes():
    runner = CliRunner()
    result = runner.invoke(main, ["verify", str(SPEC_DIR / "dumbbell_z6.json")])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["equal"] is True
    assert payload["schema"] == "galois-trees/1"
    assert payload["lhs_tree_count"] == 960

    result = runner.invoke(main, ["verify", str(SPEC_DIR / "theta.json")])
    assert result.exit_code == 2


def test_cli_verify_icosahedron():
    runner = CliRunner()
    result = runner.invoke(main, ["verify", str(SPEC_DIR / "icosahedron.json")])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["equal"] is True
    assert payload["lhs_tree_count"] == 5184000
    assert payload["rhs_tree_count"] == 5184000


def test_cli_matroid():
    runner = CliRunner()
    result = runner.invoke(
        main, ["matroid", str(SPEC_DIR / "icosahedron.json"), "--character", "1"]
    )
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["rank"] == 4
    assert len(payload["bases"]) == 13
    embeddings = {b["weight"]["embedding"] for b in payload["bases"]}
    assert "1" in embeddings


def test_cli_jacobian():
    runner = CliRunner()
    result = runner.invoke(main, ["jacobian", str(SPEC_DIR / "theta.json")])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["invariant_factors"] == [3]
    assert payload["order"] == 3


def test_cli_build_and_resolve():
    runner = CliRunner()
    result = runner.invoke(main, ["build", str(SPEC_DIR / "dumbbell_z6.json")])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert len(payload["total"]["vertices"]) == 5
    assert len(payload["total"]["edges"]) == 18
    assert payload["connected"] is True

    result = runner.invoke(main, ["resolve", str(SPEC_DIR / "dumbbell_z6.json")])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["added_edges"] == ["v1.res0", "v2.res0"]
    assert payload["spec"]["dilation"] == {}


def test_cli_zeta_and_lfunction():
    runner = CliRunner()
    result = runner.invoke(
        main,
        ["zeta", str(SPEC_DIR / "theta.json"), "--lengths", "e=2,f=1,g=1", "--max-length", "4"],
    )
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert "metric_zeta_reciprocal" in payload
    assert set(payload["census"]) == {"1", "2", "3", "4"}

    result = runner.invoke(
        main,
        ["lfunction", str(SPEC_DIR / "theta_z2.json"), "--character", "1"],
    )
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["metric_l_reciprocal"] == payload["three_term_reciprocal"]

    # dilated covers have no L-functions: input error
    result = runner.invoke(
        main, ["lfunction", str(SPEC_DIR / "dumbbell_z6.json"), "--character", "1"]
    )
    assert result.exit_code == 2


def test_cli_zeta_census_takes_one_ihara_determinant(monkeypatch):
    """The census is read off the Ihara reciprocal the command already has:
    one determinant for the metric zeta, one for the Ihara zeta."""
    calls = count_calls(monkeypatch, zeta, "det_over_ring")
    args = ["zeta", str(SPEC_DIR / "theta.json"), "--max-length", "6"]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    assert len(calls) == 2


def test_cli_zeta_rejects_negative_census_length():
    result = CliRunner().invoke(
        main, ["zeta", str(SPEC_DIR / "theta.json"), "--max-length", "-3"]
    )
    assert result.exit_code == 2, result.output
    assert "at least 1" in result.output


def test_cli_bad_inputs():
    runner = CliRunner()
    result = runner.invoke(main, ["verify", "/nonexistent.json"])
    assert result.exit_code == 2

    result = runner.invoke(
        main, ["matroid", str(SPEC_DIR / "icosahedron.json"), "--character", "99"]
    )
    assert result.exit_code == 2

    result = runner.invoke(
        main, ["zeta", str(SPEC_DIR / "theta.json"), "--lengths", "zz=2"]
    )
    assert result.exit_code == 2


def test_cli_lengths_reject_a_repeated_edge():
    runner = CliRunner()
    for command in (["zeta"], ["lfunction", "--character", "1"]):
        spec = "theta.json" if command == ["zeta"] else "theta_z2.json"
        result = runner.invoke(
            main, [*command, str(SPEC_DIR / spec), "--lengths", "e=2,e=3"]
        )
        assert result.exit_code == 2, result.output
        assert "'e' given twice" in result.output


def test_cli_lengths_take_ascii_digits_only():
    runner = CliRunner()
    theta = str(SPEC_DIR / "theta.json")
    # int() reads all of these as a length
    for lengths in ("e=1_0", "e=\u0661", "e= 1", "e=+1"):
        result = runner.invoke(main, ["zeta", theta, "--lengths", lengths])
        assert result.exit_code == 2, (lengths, result.output)
        assert "bad length" in result.output
    result = runner.invoke(main, ["zeta", theta, "--lengths", "e=-1"])
    assert result.exit_code == 2, result.output
    assert "must be a positive integer" in result.output
    result = runner.invoke(main, ["zeta", theta, "--lengths", "e=2,f=1,g=1"])
    assert result.exit_code == 0, result.output


def test_cli_rejects_booleans_as_ints(tmp_path):
    runner = CliRunner()
    for k, document in enumerate(BOOLEAN_INT_SPECS):
        path = tmp_path / f"bool{k}.json"
        path.write_text(json.dumps(document))
        result = runner.invoke(main, ["build", str(path)])
        assert result.exit_code == 2, result.output


def test_spec_to_dict_has_schema():
    payload = spec_to_dict(validate_spec(icosahedron_spec()).spec)
    assert payload["schema"] == "galois-trees/1"


def test_cli_jacpoly_on_a_long_cover(tmp_path):
    # a loop with voltage 1 in Z/1100: the cover is a cycle of 1100 vertices
    path = tmp_path / "loop_z1100.json"
    path.write_text(
        json.dumps(
            {
                "vertices": ["v"],
                "edges": [{"id": "e", "src": "v", "tgt": "v"}],
                "group": {"cyclic": [1100]},
                "voltage": {"e": [1]},
            }
        )
    )
    result = CliRunner().invoke(main, ["jacpoly", str(path), "--cover"])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["tree_count"] == 1100
    assert payload["polynomial"] == [{"coeff": 1100, "exps": {"e": 1}}]
