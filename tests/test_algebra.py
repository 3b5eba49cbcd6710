import random
import subprocess
import sys
from fractions import Fraction
from itertools import permutations
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, given, strategies as st

from galois_trees import (
    CycInt,
    MultiPoly,
    UniPoly,
    build_graph,
    cyclotomic_polynomial,
    det_over_ring,
    euler_phi,
    int_det,
    laplacian,
    smith_diagonal,
    smith_normal_form,
    weight_of_root,
)
from galois_trees.algebra import intmat
from galois_trees.algebra.division import exact_quotient
from galois_trees.errors import ExactDivisionError


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert euler_phi(12) == 4


def test_roots_of_unity():
    assert CycInt.root(5, 0).as_int() == 1
    assert CycInt.root(2, 1).as_int() == -1
    assert CycInt.root(4, 2).as_int() == -1
    assert CycInt.root(6, 3).as_int() == -1


def test_conjugation():
    z5 = CycInt.root(5, 1)
    assert z5.conj() == CycInt.root(5, 4)
    one = CycInt.from_int(5, 1)
    assert one.conj() == one


@given(st.lists(st.integers(-9, 9), min_size=1, max_size=4), st.integers(3, 12))
def test_conj_matches_complex_conjugation(coeffs, m):
    z = CycInt(m, coeffs)
    assert abs(z.conj().embed() - z.embed().conjugate()) < 1e-12


def test_weight_of_root_examples():
    w = weight_of_root(5, 1)
    assert abs(w.embed() - (5 - 5**0.5) / 2) < 1e-9
    assert weight_of_root(3, 1).as_int() == 3
    assert weight_of_root(2, 1).as_int() == 4
    assert not weight_of_root(7, 0)
    assert not weight_of_root(7, 14)


def test_weight_conjugation_fixed_and_symmetric():
    for m in (5, 6, 8):
        for k in range(m):
            w = weight_of_root(m, k)
            assert w.conj() == w
            assert weight_of_root(m, -k) == w


def test_weight_galois_equivariance():
    # raising the root to a power coprime to m permutes the weights
    m = 5
    weights = [weight_of_root(m, j) for j in range(1, m)]
    for a in (2, 3, 4):
        permuted = [weight_of_root(m, (a * j) % m) for j in range(1, m)]
        assert sorted(w.coeffs for w in permuted) == sorted(w.coeffs for w in weights)


def test_weight_product_is_prime_squared():
    for p in (3, 5, 7):
        acc = CycInt.from_int(p, 1)
        for j in range(1, p):
            acc = acc * weight_of_root(p, j)
        assert acc.as_int() == p * p


@given(
    st.integers(1, 12),
    st.lists(st.integers(-6, 6), min_size=1, max_size=4),
    st.lists(st.integers(-6, 6), min_size=1, max_size=4),
)
def test_cyc_ring_against_embedding(m, ca, cb):
    a, b = CycInt(m, ca), CycInt(m, cb)
    for got, want in (
        ((a + b).embed(), a.embed() + b.embed()),
        ((a - b).embed(), a.embed() - b.embed()),
        ((a * b).embed(), a.embed() * b.embed()),
    ):
        assert abs(got - want) < 1e-9


@given(
    st.integers(1, 10),
    st.lists(st.integers(-5, 5), min_size=1, max_size=4),
    st.lists(st.integers(-5, 5), min_size=1, max_size=4),
)
def test_cyc_exact_division_roundtrip(m, ca, cb):
    a, b = CycInt(m, ca), CycInt(m, cb)
    if not b:
        return
    assert (a * b).exact_div(b) == a


def test_cyc_division_failure():
    with pytest.raises(ExactDivisionError):
        CycInt.from_int(5, 3).exact_div(CycInt.from_int(5, 2))
    for divisor in (Fraction(1, 2), 2.0):
        with pytest.raises(TypeError):
            CycInt.root(5, 1).exact_div(divisor)


@given(st.sampled_from((12, 24, 30)), st.data())
def test_cyc_norm_division_dense_roundtrip(m, data):
    # dense operands on the whole power basis, divisor never a rational integer
    dense = st.lists(st.integers(-9, 9), min_size=euler_phi(m), max_size=euler_phi(m))
    a, b = CycInt(m, data.draw(dense)), CycInt(m, data.draw(dense))
    assume(b.as_int() is None)
    assert (a * b).exact_div(b) == a


def test_cyc_norm_division_failure():
    one_minus_z = 1 - CycInt.root(5, 1)
    with pytest.raises(ExactDivisionError):
        CycInt.from_int(5, 1).exact_div(one_minus_z)
    # 1 - zeta_5 is not a unit, but it divides its norm 5
    assert CycInt.from_int(5, 5).exact_div(one_minus_z) * one_minus_z == 5


def _units(m):
    return [k for k in range(-m, 2 * m) if gcd(k, m) == 1]


@given(st.integers(1, 30), st.data())
def test_galois_action_is_a_ring_automorphism(m, data):
    coeffs = st.lists(st.integers(-6, 6), min_size=1, max_size=euler_phi(m))
    a, b = CycInt(m, data.draw(coeffs)), CycInt(m, data.draw(coeffs))
    k = data.draw(st.sampled_from(_units(m)))
    l = data.draw(st.sampled_from(_units(m)))
    assert (a + b).galois(k) == a.galois(k) + b.galois(k)
    assert (a * b).galois(k) == a.galois(k) * b.galois(k)
    assert a.galois(l).galois(k) == a.galois(k * l)
    assert a.conj() == a.galois(-1)


@given(st.sampled_from((2, 3, 5, 7, 11)), st.lists(st.integers(-6, 6), min_size=1, max_size=10))
def test_galois_norm_is_rational(p, coeffs):
    b = CycInt(p, coeffs)
    norm = CycInt.from_int(p, 1)
    for k in range(1, p):
        norm = norm * b.galois(k)
    assert norm.as_int() is not None


def test_galois_needs_a_unit_exponent():
    with pytest.raises(ValueError, match="automorphism"):
        CycInt.root(6, 1).galois(2)


def test_multipoly_divide_roundtrip_example():
    x, y, z = (MultiPoly.variable(v) for v in "xyz")
    num = (x * y + x * z + y * z) * (x + z)
    assert num.exact_divide(x + z) == x * y + x * z + y * z


def test_multipoly_evaluate():
    x, y, z = (MultiPoly.variable(v) for v in "xyz")
    p = x * y + x * z + y * z
    assert p.evaluate({"x": 1, "y": 1, "z": 1}) == 3
    with pytest.raises(ValueError, match="no value"):
        p.evaluate({"x": 1})


def test_multipoly_960_example():
    x1, x2, x3 = (MultiPoly.variable(v) for v in ("x1", "x2", "x3"))
    p = 12 * x1**5 * x2**4 * x3**2 * (x1 + 4 * x3) * (x2 + 3 * x3) ** 2
    assert p.value_at_ones() == 960


def test_multipoly_divide_reports_remainder():
    x, y = MultiPoly.variable("x"), MultiPoly.variable("y")
    with pytest.raises(ExactDivisionError) as err:
        (x * x + y).exact_divide(x)
    assert err.value.remainder is not None
    assert err.value.remainder == y


def test_multipoly_scalar_division_reports_remainder():
    x, y = MultiPoly.variable("x"), MultiPoly.variable("y")
    z = CycInt.root(5, 1)
    assert (6 * x * y + 4 * y).exact_divide(2) == 3 * x * y + 2 * y
    assert (x * (3 * z) + 6).exact_divide(MultiPoly.const(3)) == x * z + 2
    with pytest.raises(ExactDivisionError) as err:
        (6 * x + 4 * y + 3).exact_divide(2)
    assert isinstance(err.value.remainder, MultiPoly)
    assert err.value.remainder == MultiPoly.const(3)
    with pytest.raises(ExactDivisionError) as err:
        (x * (2 * z) + y * (4 * z) + 4).exact_divide(4)
    assert err.value.remainder == x * (2 * z)


def test_exact_quotient_dispatch():
    s = UniPoly.monomial(1)
    x = MultiPoly.variable("x")
    z = CycInt.root(3, 1)
    assert exact_quotient(12, 4) == 3
    assert exact_quotient(x, 1) is x
    assert exact_quotient(s, -1) == -s
    assert exact_quotient(Fraction(1, 2), 3) == Fraction(1, 6)
    assert exact_quotient(6, CycInt.from_int(3, 2)) == CycInt.from_int(3, 3)
    assert exact_quotient(4 * z, 2) == 2 * z
    assert exact_quotient(2 * s * s, s) == 2 * s
    assert exact_quotient(2, UniPoly.const(2)) == UniPoly.const(1)
    assert exact_quotient(6 * x, 3) == 2 * x
    assert exact_quotient(x * x, x) == x
    with pytest.raises(ExactDivisionError) as err:
        exact_quotient(7, 2)
    assert err.value.remainder == 1
    with pytest.raises(ExactDivisionError):
        exact_quotient(1 + s, 1 - s)
    with pytest.raises(ExactDivisionError):
        exact_quotient(CycInt.from_int(5, 3), CycInt.from_int(5, 2))


@pytest.mark.parametrize(
    "value", [0, 5, Fraction(5), Fraction(-3, 2), CycInt.from_int(5, 0), CycInt.from_int(7, 5)]
)
def test_constant_polynomials_hash_like_their_constant(value):
    for poly in (UniPoly.const(value), MultiPoly.const(value)):
        assert hash(poly) == hash(value)
    uni = UniPoly.const(value)
    assert uni == value and {value: "a"}.get(uni) == "a"
    if not isinstance(value, Fraction):  # MultiPoly takes no Fraction operands
        multi = MultiPoly.const(value)
        assert multi == value and {value: "a"}.get(multi) == "a"


@given(st.data())
def test_multipoly_divide_random_roundtrip(data):
    names = ["x", "y", "z"]

    def rand_poly(rng_terms):
        terms = {}
        for _ in range(rng_terms):
            mono = tuple(
                sorted(
                    (v, data.draw(st.integers(1, 3), label="exp"))
                    for v in data.draw(
                        st.sets(st.sampled_from(names), max_size=2), label="vars"
                    )
                )
            )
            terms[mono] = data.draw(
                st.integers(-4, 4).filter(bool), label="coeff"
            )
        return MultiPoly(terms)

    a = rand_poly(data.draw(st.integers(1, 3), label="na"))
    b = rand_poly(data.draw(st.integers(1, 3), label="nb"))
    if not b:
        return
    assert (a * b).exact_divide(b) == a


def test_multipoly_substitute():
    x, y = MultiPoly.variable("x"), MultiPoly.variable("y")
    p = x * x * y + y
    assert p.substitute("x", "y") == y**3 + y
    assert p.substitute("x", 0) == y
    assert p.substitute("y", x + 1) == x**3 + x**2 + x + 1


def test_taylor_shift_examples():
    assert UniPoly((0, 0, 1)).taylor_at_one() == (1, 2, 1)
    s = UniPoly.monomial(1)
    cubed = (s - 1) ** 3
    assert cubed.taylor_at_one(order=3) == (0, 0, 0, 1)
    assert (1 - s**3).taylor_at_one() == (0, -3, -3, -1)


def test_unipoly_exact_division():
    s = UniPoly.monomial(1)
    p = (1 - s**2) * (1 + 3 * s + s**4)
    assert p.exact_div(1 - s**2) == 1 + 3 * s + s**4
    with pytest.raises(ExactDivisionError):
        (1 + s).exact_div(1 - s)
    with pytest.raises(TypeError):
        UniPoly((1, 2)).exact_div(2.0)


def test_smith_normal_form_examples():
    triangle_laplacian = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
    assert smith_normal_form(triangle_laplacian).diagonal == (1, 3, 0)

    identity = [[1, 0], [0, 1]]
    assert smith_normal_form(identity).diagonal == (1, 1)

    theta_laplacian = [[3, -3], [-3, 3]]
    assert smith_normal_form(theta_laplacian).diagonal == (3, 0)


def _matmul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def test_smith_transforms_and_chain():
    rng = random.Random(7)
    for _ in range(30):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        m = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        form = smith_normal_form(m, transforms=True)
        diag = form.diagonal
        assert all(d >= 0 for d in diag)
        for i in range(len(diag) - 1):
            if diag[i + 1]:
                assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
            # zeros trail after any zero
            if diag[i] == 0:
                assert diag[i + 1] == 0
        left = [list(r) for r in form.left]
        right = [list(r) for r in form.right]
        assert abs(int_det(left)) == 1
        assert abs(int_det(right)) == 1
        product = _matmul(_matmul(left, m), right)
        for i in range(nr):
            for j in range(nc):
                want = diag[i] if i == j and i < len(diag) else 0
                assert product[i][j] == want


def test_smith_square_product_matches_det():
    rng = random.Random(8)
    for _ in range(20):
        n = rng.randint(1, 4)
        m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        diag = smith_normal_form(m).diagonal
        prod = 1
        for d in diag:
            prod *= d
        assert prod == abs(int_det(m))


def _random_multigraph_laplacian(rng):
    """Laplacian of a random multigraph, loops and parallel edges allowed,
    not necessarily connected."""
    vertices = [f"v{i}" for i in range(rng.randint(1, 7))]
    edges = [
        (f"e{k}", rng.choice(vertices), rng.choice(vertices))
        for k in range(rng.randint(0, 14))
    ]
    return laplacian(build_graph(vertices, edges))


def test_smith_diagonal_matches_dense_on_laplacians():
    rng = random.Random(21)
    for _ in range(300):
        lap = _random_multigraph_laplacian(rng)
        assert smith_diagonal(lap) == smith_normal_form(lap).diagonal


def test_smith_diagonal_matches_dense_on_rectangular_matrices():
    rng = random.Random(22)
    without_units = 0
    for k in range(200):
        nr, nc = rng.randint(1, 5), rng.randint(1, 9)
        # every other matrix has no ±1 entry, so the dense routine does all the work
        values = [-3, -2, 0, 0, 2, 3, 4] if k % 2 else [-2, -1, -1, 0, 0, 0, 1, 1, 2]
        m = [[rng.choice(values) for _ in range(nc)] for _ in range(nr)]
        without_units += all(abs(x) != 1 for row in m for x in row)
        assert smith_diagonal(m) == smith_normal_form(m).diagonal
    assert without_units >= 100


def test_smith_diagonal_edge_cases():
    for m in (
        [[0]],
        [[1]],
        [[-1]],
        [[0, 0, 0], [0, 0, 0]],
        [[2, -1, 0], [0, 0, 0], [-1, 1, 0]],  # a zero row and a zero column
        [[0, 5], [0, 3], [0, -1]],
        [[]],
        [],
    ):
        assert smith_diagonal(m) == smith_normal_form(m).diagonal
    assert smith_diagonal([]) == ()
    assert smith_diagonal([[0]]) == (0,)
    with pytest.raises(ValueError):
        smith_diagonal([[1, 2], [3]])


def test_det_over_ring_one_by_one():
    s = UniPoly.monomial(1)
    assert det_over_ring([[1 - s**4]]) == 1 - s**4
    assert det_over_ring([[UniPoly.const(1), UniPoly()], [UniPoly(), UniPoly.const(1)]]) == 1


def test_det_over_ring_cyclic_matrix():
    # cyclic matrix with conjugated character values on the diagonal and a
    # superdiagonal of ones: the determinant telescopes to a two-term value
    m = 5
    for size in (2, 3, 4):
        rng = random.Random(size)
        powers = [rng.randrange(m) for _ in range(size)]
        rows = []
        for i in range(size):
            row = [CycInt.from_int(m, 0)] * size
            row[i] = -CycInt.root(m, powers[i]).conj()
            row[(i + 1) % size] = CycInt.from_int(m, 1)
            rows.append(row)
        got = det_over_ring(rows)
        expected = CycInt.from_int(m, 1) - CycInt.root(m, sum(powers)).conj()
        if size % 2 == 0:
            expected = -expected
        assert got == expected


def test_det_over_ring_matches_int_det():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randint(1, 5)
        m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        assert det_over_ring(m) == int_det(m)


def test_det_over_ring_fractions():
    m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]]
    assert det_over_ring(m) == Fraction(1, 14) - Fraction(1, 15)


def test_det_over_ring_polynomial_pivoting():
    s = UniPoly.monomial(1)
    swapped = [[UniPoly(), UniPoly.const(1)], [1 - s, s]]
    assert det_over_ring(swapped) == s - 1
    singular = [[UniPoly.const(1), s], [UniPoly.const(1), s]]
    assert not det_over_ring(singular)
    zero_column = [[UniPoly(), UniPoly.const(1)], [UniPoly(), s]]
    assert not det_over_ring(zero_column)


def _leibniz(rows, one):
    """The determinant as a sum over permutations: the independent reference."""
    total = one - one
    for perm in permutations(range(len(rows))):
        inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
        term = one
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total = total + term if inversions % 2 == 0 else total - term
    return total


def _random_entry(rng, m, max_degree, size):
    """A UniPoly in s with CycInt coefficients of conductor m; zero one time in five."""
    if rng.random() < 0.2:
        return UniPoly()
    return UniPoly(
        CycInt(m, [rng.randint(-size, size) for _ in range(euler_phi(m))])
        for _ in range(rng.randint(0, max_degree) + 1)
    )


CONDUCTORS = (1, 2, 3, 4, 5, 8, 12, 105)


@pytest.mark.parametrize("m", CONDUCTORS)
def test_det_over_ring_matches_leibniz_over_cyclotomic_polynomials(m):
    rng = random.Random(m)
    one = UniPoly.const(CycInt.from_int(m, 1))
    for n in (1, 2, 3, 4, 4):
        rows = [[_random_entry(rng, m, 2, 3) for _ in range(n)] for _ in range(n)]
        got = det_over_ring(rows)
        assert isinstance(got, UniPoly) and got == _leibniz(rows, one)
        assert all(isinstance(c, CycInt) and c.conductor == m for c in got.coeffs)
    scalars = [[CycInt.root(m, rng.randrange(m)) * rng.randint(-2, 2) for _ in range(3)]
               for _ in range(3)]
    got = det_over_ring(scalars)
    assert isinstance(got, CycInt) and got == _leibniz(scalars, CycInt.from_int(m, 1))


@pytest.mark.parametrize("m", CONDUCTORS)
def test_det_over_ring_singular_and_zero_column(m):
    rng = random.Random(1000 + m)
    n = 3 if m == 105 else 4
    rows = [[_random_entry(rng, m, 2, 3) for _ in range(n)] for _ in range(n - 1)]
    factor = UniPoly((CycInt.root(m, 1), CycInt.from_int(m, -2)))
    rows.append([factor * x - y for x, y in zip(rows[0], rows[1])])  # dependent row
    got = det_over_ring(rows)
    assert isinstance(got, UniPoly) and not got
    rows[-1] = [_random_entry(rng, m, 2, 3) for _ in range(n)]
    for row in rows:
        row[1] = UniPoly()
    assert not det_over_ring(rows)
    assert det_over_ring([[CycInt.from_int(m, 0)]]) == 0
    assert isinstance(det_over_ring([[CycInt.from_int(m, 0)]]), CycInt)


@pytest.mark.parametrize("m", CONDUCTORS)
def test_det_over_ring_cancelled_leading_coefficient(m):
    # entries u_i v_j s + c_ij: the s^n coefficient is det(u v^T) = 0 for n >= 2,
    # so the determinant has degree below the bound d = n
    rng = random.Random(2000 + m)
    n = 3
    u = [CycInt(m, [rng.randint(-2, 2) for _ in range(euler_phi(m))]) for _ in range(n)]
    v = [CycInt(m, [rng.randint(-2, 2) for _ in range(euler_phi(m))]) for _ in range(n)]
    u[0] = v[0] = CycInt.from_int(m, 1)
    rows = [
        [UniPoly((CycInt.from_int(m, rng.randint(-3, 3)), u[i] * v[j])) for j in range(n)]
        for i in range(n)
    ]
    got = det_over_ring(rows)
    assert got == _leibniz(rows, UniPoly.const(CycInt.from_int(m, 1)))
    assert got.degree < n


@pytest.mark.parametrize("m", (1, 5, 12, 105))
def test_det_over_ring_large_coefficients(m):
    rng = random.Random(3000 + m)
    n = 3 if m == 105 else 4
    rows = [[_random_entry(rng, m, 1, 2**50) for _ in range(n)] for _ in range(n)]
    got = det_over_ring(rows)
    assert got == _leibniz(rows, UniPoly.const(CycInt.from_int(m, 1)))
    # more than two primes below 2^62 are needed to hold a coefficient this large
    assert max(abs(x) for c in got.coeffs for x in c.coeffs) > 2**125


def test_det_over_ring_fraction_rows_are_cleared():
    rng = random.Random(17)
    for n in (1, 2, 3, 4):
        rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(n)]
                for _ in range(n)]
        got = det_over_ring(rows)
        assert isinstance(got, Fraction) and got == _leibniz(rows, Fraction(1))
        polys = [[UniPoly((x, Fraction(1, rng.randint(1, 5)))) for x in r] for r in rows]
        got = det_over_ring(polys)
        assert got == _leibniz(polys, UniPoly.const(1))
        assert all(isinstance(c, Fraction) for c in got.coeffs)


def test_det_over_ring_entry_types():
    assert det_over_ring([]) == 1
    assert isinstance(det_over_ring([[2, 1], [1, 2]]), int)
    s = UniPoly.monomial(1)
    assert all(isinstance(c, int) for c in det_over_ring([[s, 1], [2, s]]).coeffs)
    with pytest.raises(TypeError):
        det_over_ring([[MultiPoly.variable("x")]])
    with pytest.raises(TypeError):
        det_over_ring([[Fraction(1, 2), CycInt.root(3, 1)], [1, 1]])
    with pytest.raises(ValueError):
        det_over_ring([[1, 2]])


def _big_polynomial_matrix():
    """4 x 4 over Z[s] whose determinant has a coefficient above 2^62."""
    rng = random.Random(5)
    s = UniPoly.monomial(1)
    return [[rng.randint(-2**20, 2**20) + rng.randint(0, 3) * s for _ in range(4)]
            for _ in range(4)]


def test_det_over_ring_checks_an_extra_prime(monkeypatch):
    rows = _big_polynomial_matrix()
    exact = det_over_ring(rows)
    assert exact == _leibniz(rows, UniPoly.const(1))
    assert max(abs(c) for c in exact.coeffs) > 2**62
    monkeypatch.setattr(intmat, "_det_bound", lambda entries, m: 1)  # one prime only
    with pytest.raises(AssertionError, match="extra prime"):
        det_over_ring(rows)


def test_det_over_ring_extra_prime_check_survives_optimize():
    script = (
        "import sys; sys.path[:0] = sys.argv[1:]\n"
        "from test_algebra import _big_polynomial_matrix\n"
        "from galois_trees.algebra import intmat\n"
        "intmat._det_bound = lambda entries, m: 1\n"
        "try:\n"
        "    intmat.det_over_ring(_big_polynomial_matrix())\n"
        "except AssertionError:\n"
        "    sys.exit(0)\n"
        "sys.exit('a wrong determinant passed the check')\n"
    )
    here = Path(__file__).resolve().parent
    src = Path(intmat.__file__).resolve().parent.parent.parent
    result = subprocess.run(
        [sys.executable, "-O", "-c", script, str(here), str(src)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_multipoly_division_with_cyclotomic_coefficients():
    z = CycInt.root(5, 1)
    x, y = MultiPoly.variable("x"), MultiPoly.variable("y")
    a = x * z + y * (z * z) + 3
    b = x + y * z + 1
    prod = a * b
    assert prod.exact_divide(b) == a
    assert prod.exact_divide(a) == b


def test_cyc_embedding_of_weight_sum():
    # 5 + 7f + f^2 at the primitive fifth root: 30 - 6*sqrt(5)
    f = weight_of_root(5, 1)
    w = 5 + 7 * f + f * f
    assert abs(w.embed() - (30 - 6 * 5**0.5)) < 1e-9


def test_unipoly_with_cyc_coefficients():
    z = CycInt.root(3, 1)
    p = UniPoly((1, z)) * UniPoly((1, z.conj()))
    # (1 + z s)(1 + z^2 s) = 1 + (z + z^2) s + s^2 = 1 - s + s^2
    assert p == UniPoly((1, -1, 1))
