"""The right-hand side assembled one Galois orbit of characters at a time."""

import json
import random
from dataclasses import replace

from click.testing import CliRunner

from galois_trees import (
    AbelianGroup,
    CoverSpec,
    CycInt,
    MultiPoly,
    assemble_rhs,
    matroids,
    verify,
    verify_main_theorem,
    weight_polynomial,
)
from galois_trees.cli import main
from helpers import SPEC_DIR, random_cover_spec, theta_graph

ORBIT_GROUPS = (
    AbelianGroup((2, 4)),
    AbelianGroup((3, 3)),
    AbelianGroup((2, 2, 2)),
    AbelianGroup((12,)),
)


def test_orbit_reports_match_direct_weight_polynomials():
    rng = random.Random(11)
    dilated = 0
    for _ in range(24):
        spec, _ = random_cover_spec(
            rng, groups=ORBIT_GROUPS, max_vertices=4, max_edges=6, dilation_prob=0.5
        )
        dilated += bool(spec.dilation)
        _, _, reports, _, _ = assemble_rhs(spec)
        assert len(reports) == spec.group.order - 1
        for report in reports:
            direct = weight_polynomial(spec, report.character)
            assert report.matroid == direct.matroid
            assert report.polynomial == direct.polynomial
            assert report.scalar == direct.scalar
            assert report.rank == direct.matroid.rank
            assert report.basis_count == len(direct.matroid.bases)
    assert dilated


def theta_z12_spec():
    return CoverSpec(
        base=theta_graph(), group=AbelianGroup((12,)), voltage={"f": (1,), "g": (3,)}
    )


def test_one_matroid_enumeration_per_galois_orbit(monkeypatch):
    calls = []
    enumerate_bases = matroids.bases

    def counting(spec, character):
        calls.append(character.exponents)
        return enumerate_bases(spec, character)

    monkeypatch.setattr(matroids, "bases", counting)
    report = verify_main_theorem(theta_z12_spec())
    assert report.equal
    # one orbit per character order 2, 3, 4, 6, 12; each led by its first member
    assert calls == [(1,), (2,), (3,), (4,), (6,)]


def test_planted_weight_error_is_an_internal_fault_not_bad_input(monkeypatch):
    def planted(spec, rho):
        report = weight_polynomial(spec, rho)
        if rho.exponents != (1,):
            return report
        extra = MultiPoly.const(CycInt.root(5, 2))
        for edge in report.matroid.bases[0]:
            extra = extra * MultiPoly.variable(edge)
        return replace(report, polynomial=report.polynomial + extra)

    monkeypatch.setattr(verify, "weight_polynomial", planted)
    result = CliRunner().invoke(main, ["verify", str(SPEC_DIR / "icosahedron.json")])
    assert result.exit_code == 1, result.output
    if not isinstance(result.exception, AssertionError):  # else the invariant caught it
        assert json.loads(result.output)["equal"] is False
