"""The right-hand side assembled one Galois orbit of characters at a time."""

import json
import random
import subprocess
import sys
from dataclasses import replace
from math import gcd
from pathlib import Path

import pytest

from click.testing import CliRunner

import galois_trees
from galois_trees import (
    AbelianGroup,
    CoverSpec,
    CycInt,
    MultiPoly,
    artin_l_reciprocal_three_term,
    assemble_rhs,
    bases,
    characters,
    covers,
    graphs,
    jacobian_polynomial,
    matroids,
    metric_l_reciprocal,
    parse_spec,
    subgroup_from_generators,
    twisted_laplacian_det,
    verify,
    verify_main_theorem,
    weight_polynomial,
)
from galois_trees.cli import main
from galois_trees.matroids import TwistedMatroid
from helpers import (
    SPEC_DIR,
    count_calls,
    count_searches,
    dumbbell_graph,
    icosahedron_spec,
    random_cover_spec,
    theta_graph,
)

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
            assert report == direct
            assert report.polynomial == direct.polynomial
            assert report.scalar == direct.scalar
            assert report.rank == direct.rank
            assert len(report.bases) == len(direct.bases)
    assert dilated


def theta_spec(n=12):
    return CoverSpec(
        base=theta_graph(), group=AbelianGroup((n,)), voltage={"f": (1,), "g": (3,)}
    )


def dumbbell_spec(n):
    group = AbelianGroup((n,))
    return CoverSpec(
        base=dumbbell_graph(),
        group=group,
        dilation={
            "v1": subgroup_from_generators(group, [(n // 2,)]),
            "v2": subgroup_from_generators(group, [(n // 3,)]),
        },
        voltage={"e1": (1,), "e2": (1,)},
    )


def test_one_matroid_enumeration_per_galois_orbit(monkeypatch):
    calls = []
    enumerate_bases = matroids.bases

    def counting(spec, character):
        calls.append(character.exponents)
        return enumerate_bases(spec, character)

    # every package name bound to the function, the alias too, as a tracer finds it
    for name, module in list(sys.modules.items()):
        if name.startswith("galois_trees"):
            for key, value in list(vars(module).items()):
                if value is enumerate_bases:
                    monkeypatch.setattr(module, key, counting)
    report = verify_main_theorem(theta_spec(12))
    assert report.equal
    # one orbit per character order 2, 3, 4, 6, 12; each led by its first member
    assert calls == [(1,), (2,), (3,), (4,), (6,)]


def test_planted_weight_error_is_an_internal_fault_not_bad_input(monkeypatch):
    def planted(spec, rho):
        report = weight_polynomial(spec, rho)
        if rho.exponents != (1,):
            return report
        weights = (report.weights[0] + CycInt.root(5, 2), *report.weights[1:])
        return replace(report, weights=weights)

    monkeypatch.setattr(verify, "weight_polynomial", planted)
    result = CliRunner().invoke(main, ["verify", str(SPEC_DIR / "icosahedron.json")])
    assert result.exit_code == 1, result.output
    if not isinstance(result.exception, AssertionError):  # else the invariant caught it
        assert json.loads(result.output)["equal"] is False


def rhs_over_cyclotomic_integers(spec, reports):
    """The RHS by MultiPoly products over CycInt: each Galois orbit's product
    made int, the orbit products and prefactor * J_base multiplied over Z."""
    n, m = spec.group.order, spec.group.exponent
    product = jacobian_polynomial(spec.base)
    for v in spec.base.vertices:
        d = spec.dilation_at(v).order
        product = product * d ** (n // d)
    by_character = {rep.character: rep for rep in reports}
    seen = set()
    for rep in reports:
        if rep.character in seen:
            continue
        orbit = {rep.character.power(k) for k in range(1, m) if gcd(k, m) == 1}
        seen |= orbit
        orbit_product = MultiPoly.const(1)
        for conj in orbit:
            orbit_product = orbit_product * by_character[conj].polynomial
        ints = orbit_product.map_coefficients(
            lambda c: c if isinstance(c, int) else c.as_int()
        )
        assert None not in ints.terms.values()
        product = product * ints
    return product.exact_divide(n)


REFERENCE_GROUPS = (
    AbelianGroup((2, 3)),
    AbelianGroup((2, 4)),
    AbelianGroup((3, 3)),
    AbelianGroup((12,)),
    AbelianGroup((15,)),
    AbelianGroup((16,)),
)


def test_rhs_modulo_primes_matches_products_over_cyclotomic_integers(monkeypatch):
    primes_used = []
    split_modulus = verify.split_modulus

    def counting(m, bound):
        modulus, omega, primes = split_modulus(m, bound)
        primes_used.append(len(primes) - 1)  # the last prime is the extra check
        return modulus, omega, primes

    monkeypatch.setattr(verify, "split_modulus", counting)
    rng = random.Random(23)
    specs = [theta_spec(24), dumbbell_spec(24)]
    for _ in range(40):
        spec, _ = random_cover_spec(
            rng, groups=REFERENCE_GROUPS, max_vertices=4, max_edges=4, dilation_prob=0.4
        )
        specs.append(spec)
    assert sum(bool(spec.dilation) for spec in specs) >= 10
    for spec in specs:
        _, _, reports, rhs, count = assemble_rhs(spec)
        expected = rhs_over_cyclotomic_integers(spec, reports)
        assert rhs == expected
        assert count == expected.value_at_ones()
    assert len(primes_used) == len(specs) and max(primes_used) >= 2


def test_rhs_takes_no_product_over_cyclotomic_integers(monkeypatch):
    cyclotomic = []
    multiply = MultiPoly.__mul__

    def counting(self, other):
        scalars = [*self.terms.values()]
        scalars += other.terms.values() if isinstance(other, MultiPoly) else [other]
        if any(isinstance(c, CycInt) for c in scalars):
            cyclotomic.append((self, other))
        return multiply(self, other)

    monkeypatch.setattr(MultiPoly, "__mul__", counting)
    monkeypatch.setattr(MultiPoly, "__rmul__", counting)
    MultiPoly.variable("x") * CycInt.root(3, 1)  # the counter sees such a product
    assert len(cyclotomic) == 1
    cyclotomic.clear()
    _, _, reports, rhs, _ = assemble_rhs(theta_spec(24))
    assert len(reports) == 23 and rhs
    assert cyclotomic == []


def test_a_bound_too_small_fails_the_extra_prime_check(monkeypatch):
    spec = theta_spec(30)  # coefficients of 67 bits before the division by 30
    _, _, _, rhs, _ = assemble_rhs(spec)
    assert max(abs(c) * 30 for c in rhs.terms.values()) > 2**62
    for bound in (1, 2**40):  # one prime only: below 2^30, then below 2^60
        monkeypatch.setattr(verify, "product_bound", lambda scale, factors: bound)
        with pytest.raises(AssertionError, match="extra prime"):
            assemble_rhs(spec)


def _plant_in_conjugate(real_galois, k_planted):
    """TwistedMatroid.galois with zeta added to the first weight of rho^k_planted."""

    def planted(self, k):
        report = real_galois(self, k)
        if k != k_planted:
            return report
        zeta = CycInt.root(report.weights[0].conductor, 1)
        return replace(report, weights=(report.weights[0] + zeta, *report.weights[1:]))

    return planted


def test_planted_conjugate_error_is_caught(monkeypatch):
    monkeypatch.setattr(TwistedMatroid, "galois", _plant_in_conjugate(TwistedMatroid.galois, 2))
    result = CliRunner().invoke(main, ["verify", str(SPEC_DIR / "icosahedron.json")])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, AssertionError)
    assert "not rational" in str(result.exception)


@pytest.mark.parametrize("spec", [theta_spec(12), theta_spec(24), dumbbell_spec(12)])
def test_a_sigma_j_invariant_error_is_caught_by_the_extra_prime(monkeypatch, spec):
    """(Z/m)^* is not cyclic at m = 12 or 24: sigma_5, the one map the
    rationality check applies, fixes u = 1 + zeta^(m/4).  Every weight of
    each conjugate made with k = 5, times u, leaves an orbit product that is
    sigma_5-invariant but not rational; the extra prime rejects it."""
    real_galois = TwistedMatroid.galois
    m = spec.group.exponent
    u = 1 + CycInt.root(m, m // 4)
    assert u.galois(5) == u and u.as_int() is None

    def planted(self, k):
        conj = real_galois(self, k)
        return replace(conj, weights=tuple(w * u for w in conj.weights)) if k == 5 else conj

    monkeypatch.setattr(TwistedMatroid, "galois", planted)
    with pytest.raises(AssertionError, match="extra prime"):
        assemble_rhs(spec)


@pytest.mark.parametrize("name, calls", [("icosahedron.json", 41), ("dumbbell_z6.json", 5)])
def test_each_conjugate_costs_one_sigma_k_pass_over_its_weights(monkeypatch, name, calls):
    """icosahedron: 3 conjugates of 13 weights, plus the two ``conj`` calls of
    ``weight_of_root``; the weight polynomial and its value at 1 are read off
    the mapped weights, never mapped again."""
    spec = parse_spec((SPEC_DIR / name).read_text())
    ks = count_calls(monkeypatch, CycInt, "galois")
    assert verify_main_theorem(spec).equal
    assert len(ks) == calls


def test_rhs_checks_survive_optimize():
    script = (
        "import sys; sys.path[:0] = sys.argv[1:]\n"
        "from test_verify import _plant_in_conjugate, theta_spec\n"
        "from galois_trees import assemble_rhs, parse_spec, verify\n"
        "from helpers import SPEC_DIR\n"
        "def fails(spec, message):\n"
        "    try:\n"
        "        assemble_rhs(spec)\n"
        "    except AssertionError as exc:\n"
        "        return message in str(exc)\n"
        "    return False\n"
        "real_bound = verify.product_bound\n"
        "for bound in (1, 2**40):  # one prime below 2^30, then one below 2^60\n"
        "    verify.product_bound = lambda scale, factors: bound\n"
        "    if not fails(theta_spec(30), 'extra prime'):\n"
        "        sys.exit('a bound too small passed the extra-prime check')\n"
        "verify.product_bound = real_bound\n"
        "verify.TwistedMatroid.galois = _plant_in_conjugate(verify.TwistedMatroid.galois, 2)\n"
        "if not fails(parse_spec((SPEC_DIR / 'icosahedron.json').read_text()), 'not rational'):\n"
        "    sys.exit('a planted conjugate error passed the rationality check')\n"
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


def test_one_spec_validation_per_verification(monkeypatch):
    calls = []
    original = covers.validate_spec

    def counted(spec):
        calls.append(spec)
        return original(spec)

    # every package module that holds the name, as a tracer would find it
    for name, module in list(sys.modules.items()):
        if name.startswith("galois_trees") and getattr(module, "validate_spec", None) is original:
            monkeypatch.setattr(module, "validate_spec", counted)
    for spec in (theta_spec(12), icosahedron_spec()):
        calls.clear()
        verify_main_theorem(spec)
        assert len(calls) == 1
        calls.clear()
        rho = characters(spec.group)[1]
        bases(spec, rho)
        weight_polynomial(spec, rho)
        if spec.is_free():
            metric_l_reciprocal(spec, rho)
            artin_l_reciprocal_three_term(spec, rho)
            twisted_laplacian_det(spec, rho)
        assert calls == []


def test_the_orbit_representative_is_not_mapped_by_sigma_1(monkeypatch):
    ks = []
    original = TwistedMatroid.galois
    monkeypatch.setattr(
        TwistedMatroid, "galois", lambda self, k: (ks.append(k), original(self, k))[1]
    )
    klein = CoverSpec(
        base=theta_graph(), group=AbelianGroup((2, 2)), voltage={"f": (1, 0), "g": (0, 1)}
    )
    for spec in (theta_spec(12), klein):
        assert verify_main_theorem(spec).equal
    assert ks and 1 not in ks


def test_connectivity_is_decided_once(monkeypatch):
    """The genus in the report and in ``build`` is |E| - |V| + 1 of a cover
    already found connected: ``verify`` decides it from base data and
    searches the built cover never, ``build`` searches it once."""
    path = SPEC_DIR / "icosahedron.json"
    searched = count_searches(monkeypatch)
    report = verify_main_theorem(parse_spec(path.read_text()))
    summary = report.summary()
    cover_size = len(report.cover.total.vertices)
    assert cover_size > len(report.spec.base.vertices)
    assert searched.count(cover_size) == 0
    searched.clear()
    result = CliRunner().invoke(main, ["build", str(path)])
    assert result.exit_code == 0 and searched.count(cover_size) == 1
    assert json.loads(result.output)["genus"] == summary["cover"]["genus"] == graphs.genus(report.cover.total)
