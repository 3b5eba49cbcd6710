import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from math import gcd, prod
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
from galois_trees.algebra.modular import (
    SMALL_PRIME_LIMIT,
    PackedKeys,
    charpoly_mod,
    det_mod,
    evaluate_mod,
    is_prime,
    root_of_unity,
    split_modulus,
    split_prime,
    split_primes,
    value_mod,
)
from galois_trees.errors import ExactDivisionError
from helpers import count_calls, smith_reference
from oracles import evaluate, substitute, value_mod as unpacked_value_mod


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


def _reduce_by_division(m, dense):
    """Reference reduction: fold zeta^m = 1 into m slots, then long-divide by Phi_m."""
    folded = [0] * max(m, len(dense), 1)
    for i, c in enumerate(dense):
        folded[i % m] += c
    phi = cyclotomic_polynomial(m)
    deg = len(phi) - 1
    for i in reversed(range(deg, len(folded))):
        c = folded[i]
        if c:
            for j, p in enumerate(phi):
                folded[i - deg + j] -= c * p
    return tuple(folded[:deg])


@pytest.mark.parametrize("m", [*range(1, 41), 105])  # 105 = 3 * 5 * 7: Phi_105 has a coefficient -2
def test_reduction_matches_fold_and_divide(m):
    rng = random.Random(m)
    phi = euler_phi(m)

    def dense(n):
        return [rng.randint(-9, 9) for _ in range(n)]

    # lengths up to phi(m) are already reduced and only padded
    for n in sorted({0, 1, phi, phi + 1, m, 3 * m, *(rng.randint(0, 3 * m) for _ in range(12))}):
        coeffs = dense(n)
        assert CycInt(m, coeffs).coeffs == _reduce_by_division(m, coeffs)
    a, b = dense(phi), dense(phi)
    product = [0] * (2 * phi - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            product[i + j] += x * y
    assert (CycInt(m, a) * CycInt(m, b)).coeffs == _reduce_by_division(m, product)
    for k in range(-1, m):
        if gcd(k, m) == 1:
            image = [0] * m
            for i, c in enumerate(a):
                image[(i * k) % m] += c
            assert CycInt(m, a).galois(k).coeffs == _reduce_by_division(m, image)
    assert CycInt(m, a).conj() == CycInt(m, a).galois(-1)
    for power in range(-m, 2 * m):
        unit = [0] * (power % m) + [1]
        assert CycInt.root(m, power).coeffs == _reduce_by_division(m, unit)
    for n in (-3, 0, 7):
        assert CycInt.from_int(m, n).coeffs == _reduce_by_division(m, [n])


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
    assert evaluate(p, {"x": 1, "y": 1, "z": 1}) == 3
    with pytest.raises(ValueError, match="no value"):
        evaluate(p, {"x": 1})


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
    assert substitute(p, "x", "y") == y**3 + y
    assert substitute(p, "x", 0) == y
    assert substitute(p, "y", x + 1) == x**3 + x**2 + x + 1


def test_taylor_shift_examples():
    # (order, leading coefficient) at s = 1: s^2 = 1 + 2(s - 1) + (s - 1)^2,
    # and 1 - s^3 = -3(s - 1) - 3(s - 1)^2 - (s - 1)^3
    assert UniPoly((0, 0, 1)).vanishing_order_at_one() == (0, 1)
    s = UniPoly.monomial(1)
    cubed = (s - 1) ** 3
    assert cubed.vanishing_order_at_one() == (3, 1)
    assert (1 - s**3).vanishing_order_at_one() == (1, -3)


def test_smith_normal_form_examples():
    triangle_laplacian = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
    assert smith_normal_form(triangle_laplacian) == (1, 3, 0)

    identity = [[1, 0], [0, 1]]
    assert smith_normal_form(identity) == (1, 1)

    theta_laplacian = [[3, -3], [-3, 3]]
    assert smith_normal_form(theta_laplacian) == (3, 0)


def _divisor_diagonal(m):
    """The Smith diagonal from determinantal divisors: D_k is the gcd of all
    k x k minors, d_k = D_k / D_(k-1), and zeros follow the rank."""
    nr, nc = len(m), len(m[0])
    diagonal = []
    previous = 1
    for k in range(1, min(nr, nc) + 1):
        divisor = gcd(*(
            int_det([[m[i][j] for j in cols] for i in rows])
            for rows in combinations(range(nr), k)
            for cols in combinations(range(nc), k)
        ))
        if divisor == 0:
            break
        diagonal.append(divisor // previous)
        previous = divisor
    return tuple(diagonal) + (0,) * (min(nr, nc) - len(diagonal))


def test_smith_diagonals_match_determinantal_divisors():
    rng = random.Random(7)
    deficient = 0
    for k in range(200):
        nr, nc = rng.randint(1, 4), rng.randint(1, 5)
        m = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        if k % 25 == 0:
            m = [[0] * nc for _ in range(nr)]
        elif k % 3 == 0 and min(nr, nc) > 1:
            # rank at most r < min(nr, nc): a product through r dimensions
            r = rng.randint(1, min(nr, nc, 3) - 1)
            b = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(nr)]
            c = [[rng.randint(-2, 2) for _ in range(nc)] for _ in range(r)]
            m = [[sum(x * y for x, y in zip(row, col)) for col in zip(*c)] for row in b]
        want = _divisor_diagonal(m)
        deficient += want[-1] == 0
        diagonal = smith_normal_form(m)
        assert diagonal == want
        assert smith_diagonal(m) == want
        assert all(d >= 0 for d in diagonal)
        for d, e in zip(diagonal, diagonal[1:]):
            assert e % d == 0 if d else e == 0
    assert deficient >= 40


def test_smith_square_product_matches_det():
    rng = random.Random(8)
    for _ in range(20):
        n = rng.randint(1, 4)
        m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        diag = smith_normal_form(m)
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
        assert smith_diagonal(lap) == smith_normal_form(lap)


def test_smith_diagonal_matches_dense_on_rectangular_matrices():
    rng = random.Random(22)
    without_units = 0
    for k in range(200):
        nr, nc = rng.randint(1, 5), rng.randint(1, 9)
        # every other matrix has no ±1 entry, so the dense routine does all the work
        values = [-3, -2, 0, 0, 2, 3, 4] if k % 2 else [-2, -1, -1, 0, 0, 0, 1, 1, 2]
        m = [[rng.choice(values) for _ in range(nc)] for _ in range(nr)]
        without_units += all(abs(x) != 1 for row in m for x in row)
        assert smith_diagonal(m) == smith_normal_form(m)
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
        assert smith_diagonal(m) == smith_normal_form(m)
    assert smith_diagonal([]) == ()
    assert smith_diagonal([[0]]) == (0,)
    with pytest.raises(ValueError):
        smith_diagonal([[1, 2], [3]])


def _unimodular(rng, n):
    """A random n x n integer matrix of determinant ±1: a product of
    elementary row additions and swaps."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i == j:
            continue
        if rng.random() < 0.2:
            u[i], u[j] = u[j], u[i]
        else:
            c = rng.randint(-3, 3)
            u[i] = [x + c * y for x, y in zip(u[i], u[j])]
    return u


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _big_smith_input(rng, k, size, bits):
    """A seeded matrix of at most size x size with entries up to 2^bits;
    ``k`` picks the family: dense, rank-deficient through a product,
    U·diag(d)·V with unimodular U, V and d out of divisibility order, or
    dense with a zero row and a zero column."""
    nr, nc = rng.randint(1, size), rng.randint(1, size)
    top = 2 ** bits
    family = k % 4
    if family == 1 and min(nr, nc) > 1:
        r = rng.randint(1, min(nr, nc) - 1)
        b = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(nr)]
        c = [[rng.randint(-top, top) for _ in range(nc)] for _ in range(r)]
        return _matmul(b, c)
    if family == 2:
        d = [[0] * nc for _ in range(nr)]
        for i in range(min(nr, nc)):
            d[i][i] = rng.choice([0, 1, 2, 3, 4, 6, 9, 12, top + 1, 3 * top])
        return _matmul(_matmul(_unimodular(rng, nr), d), _unimodular(rng, nc))
    m = [[rng.randint(-top, top) for _ in range(nc)] for _ in range(nr)]
    if family == 3:
        m[rng.randrange(nr)] = [0] * nc
        j = rng.randrange(nc)
        for row in m:
            row[j] = 0
    return m


def test_smith_normal_form_matches_the_least_entry_reference():
    rng = random.Random(51)
    shapes = set()
    for k in range(400):
        m = _big_smith_input(rng, k, 12, rng.choice([2, 8, 40, 100]))
        want = smith_reference(m)
        assert smith_normal_form(m) == want, m
        shapes.add((len(m) == len(m[0]), want[-1] == 0))
    # square and rectangular, of full and of deficient rank
    assert shapes == {(True, True), (True, False), (False, True), (False, False)}


def test_smith_normal_form_matches_determinantal_divisors_above_64_bits():
    rng = random.Random(52)
    big = 0
    for k in range(80):
        m = _big_smith_input(rng, k, 5, 64 + rng.randint(1, 30))
        big += max(abs(x) for row in m for x in row) > 2**64
        assert smith_normal_form(m) == _divisor_diagonal(m), m
    assert big >= 60


def test_smith_normal_form_product_matches_int_det():
    rng = random.Random(53)
    checked = 0
    for _ in range(60):
        n = rng.randint(1, 12)
        top = 2 ** rng.choice([4, 30, 100])
        m = [[rng.randint(-top, top) for _ in range(n)] for _ in range(n)]
        det = int_det(m)
        if det == 0:
            continue
        diagonal = smith_normal_form(m)
        assert prod(diagonal) == abs(det)
        assert all(e % d == 0 for d, e in zip(diagonal, diagonal[1:]))
        checked += 1
    assert checked >= 50


def _unit_step_rows(b, lengths, one):
    """I - diag(s^l) B as dense UniPoly rows, ``one`` the 1 of their ring."""
    rows = [[UniPoly.monomial(l, -x) for x in r] for r, l in zip(b, lengths)]
    for i, r in enumerate(rows):
        r[i] = r[i] + one
    return rows


def _scalar_det(rows):
    """det M as det(I - sT) at s = 1, with T = I - M."""
    t = [[int(i == j) - x for j, x in enumerate(r)] for i, r in enumerate(rows)]
    return det_over_ring(t, [1] * len(t)).evaluate(1)


def test_det_over_ring_one_by_one():
    s = UniPoly.monomial(1)
    assert det_over_ring([[1]], [4]) == 1 - s**4
    assert det_over_ring([[0, 0], [0, 0]], [1, 2]) == 1


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
        got = _scalar_det(rows)
        expected = CycInt.from_int(m, 1) - CycInt.root(m, sum(powers)).conj()
        if size % 2 == 0:
            expected = -expected
        assert got == expected


def test_det_over_ring_matches_int_det():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randint(1, 5)
        m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        assert _scalar_det(m) == int_det(m)


def _leibniz(rows, one):
    """The determinant as a sum over permutations, those through a zero
    entry skipped: the independent reference."""
    n = len(rows)
    total = one - one

    def expand(i, used, term, sign):
        nonlocal total
        if i == n:
            total = total + term if sign > 0 else total - term
            return
        for j in range(n):
            if j not in used and rows[i][j]:
                inversions = sum(k > j for k in used)
                expand(i + 1, used | {j}, term * rows[i][j], -sign if inversions % 2 else sign)

    expand(0, frozenset(), one, 1)
    return total


def _random_entry(rng, m, size):
    """A CycInt of conductor m with coefficients up to size; zero one time in five."""
    if rng.random() < 0.2:
        return CycInt.from_int(m, 0)
    return CycInt(m, [rng.randint(-size, size) for _ in range(euler_phi(m))])


CONDUCTORS = (1, 2, 3, 4, 5, 8, 12, 105)


@pytest.mark.parametrize("m", CONDUCTORS)
def test_det_over_ring_matches_leibniz_over_cyclotomic_polynomials(m):
    rng = random.Random(m)
    one = UniPoly.const(CycInt.from_int(m, 1))
    for n in (1, 2, 3, 4, 4):
        b = [[_random_entry(rng, m, 3) for _ in range(n)] for _ in range(n)]
        lengths = [rng.randint(1, 3) for _ in range(n)]
        got = det_over_ring(b, lengths)
        assert isinstance(got, UniPoly) and got == _leibniz(_unit_step_rows(b, lengths, one), one)
        assert all(isinstance(c, CycInt) and c.conductor == m for c in got.coeffs)
    b[1] = [CycInt.from_int(m, 0)] * n  # a zero row and a zero column
    for row in b:
        row[2] = CycInt.from_int(m, 0)
    assert det_over_ring(b, lengths) == _leibniz(_unit_step_rows(b, lengths, one), one)
    scalars = [[CycInt.root(m, rng.randrange(m)) * rng.randint(-2, 2) for _ in range(3)]
               for _ in range(3)]
    got = _scalar_det(scalars)
    assert isinstance(got, CycInt) and got == _leibniz(scalars, CycInt.from_int(m, 1))


@pytest.mark.parametrize("m", CONDUCTORS)
def test_det_over_ring_singular_and_zero_column(m):
    # the s^N coefficient, N = sum l, is ±det B: zero for a singular B; a zero
    # column j of B leaves the minor without row and column j, of degree N - l_j
    rng = random.Random(1000 + m)
    n = 3 if m == 105 else 4
    one = UniPoly.const(CycInt.from_int(m, 1))
    b = [[_random_entry(rng, m, 3) for _ in range(n)] for _ in range(n - 1)]
    factor = CycInt.root(m, 1) - 2
    b.append([factor * x - y for x, y in zip(b[0], b[1])])  # dependent row
    lengths = [rng.randint(1, 3) for _ in range(n)]
    got = det_over_ring(b, lengths)
    assert got == _leibniz(_unit_step_rows(b, lengths, one), one)
    assert got.degree < sum(lengths)
    for row in b:
        row[1] = CycInt.from_int(m, 0)
    got = det_over_ring(b, lengths)
    assert got == _leibniz(_unit_step_rows(b, lengths, one), one)
    assert got.degree <= sum(lengths) - lengths[1]
    assert all(isinstance(c, CycInt) and c.conductor == m for c in got.coeffs)


@pytest.mark.parametrize("m", CONDUCTORS)
def test_det_over_ring_cancelled_leading_coefficient(m):
    # B = u v^T has rank one: det(I - sB) = 1 - s v^T u, so the determinant
    # has degree below the bound d = n
    rng = random.Random(2000 + m)
    n = 3
    u = [CycInt(m, [rng.randint(-2, 2) for _ in range(euler_phi(m))]) for _ in range(n)]
    v = [CycInt(m, [rng.randint(-2, 2) for _ in range(euler_phi(m))]) for _ in range(n)]
    u[0] = v[0] = CycInt.from_int(m, 1)
    b = [[u[i] * v[j] for j in range(n)] for i in range(n)]
    one = UniPoly.const(CycInt.from_int(m, 1))
    got = det_over_ring(b, [1] * n)
    assert got == _leibniz(_unit_step_rows(b, [1] * n, one), one)
    assert got.degree < n


@pytest.mark.parametrize("m", (1, 5, 12, 105))
def test_det_over_ring_large_coefficients(m):
    rng = random.Random(3000 + m)
    n = 3 if m == 105 else 4
    one = UniPoly.const(CycInt.from_int(m, 1))
    b = [[_random_entry(rng, m, 2**50) for _ in range(n)] for _ in range(n)]
    lengths = [rng.randint(1, 2) for _ in range(n)]
    got = det_over_ring(b, lengths)
    assert got == _leibniz(_unit_step_rows(b, lengths, one), one)
    # more than two primes below 2^60 are needed to hold a coefficient this large
    assert max(abs(x) for c in got.coeffs for x in c.coeffs) > 2**125


def test_det_over_ring_entry_types():
    empty = det_over_ring([], [])
    assert isinstance(empty, UniPoly) and empty == 1
    assert all(type(c) is int for c in det_over_ring([[2, 1], [1, 2]], [1, 2]).coeffs)
    for entry in (UniPoly.monomial(1), MultiPoly.variable("x"), Fraction(1, 2)):
        with pytest.raises(TypeError):
            det_over_ring([[entry]], [1])
    with pytest.raises(TypeError):
        det_over_ring([[Fraction(1, 2), CycInt.root(3, 1)], [1, 1]], [1, 1])
    for rows, lengths in (
        ([[1, 2], [3]], [1, 1]),  # a ragged row
        ([[1, 2]], [1]),  # not square
        ([[1]], [1, 1]),  # a length too many
        ([[1]], []),  # a length too few
        ([[1]], [0]),  # a length of 0
    ):
        with pytest.raises(ValueError):
            det_over_ring(rows, lengths)


def test_packed_value_mod_matches_the_unpacked_value():
    """``value_mod`` of a packed dict equals the unpacked polynomial's value at
    x_v = base^unit_v, taken term by term, with signed coefficients and every
    exponent a field holds, its full width too."""
    rng = random.Random(23)
    full_width = 0
    for _ in range(40):
        largest = {v: rng.randint(1, 40) for v in rng.sample("abcdef", rng.randint(1, 4))}
        keys = PackedKeys(largest)
        p = rng.choice((split_prime(4, 0, SMALL_PRIME_LIMIT), split_prime(12, 0)))
        base = rng.randrange(2, p)
        point = {v: pow(base, keys.unit[v], p) for v in largest}
        terms = {}
        for _ in range(rng.randint(0, 30)):
            key = sum(rng.randint(0, mask) << at for _, at, mask in keys.fields)
            terms[key] = rng.randint(-3 * p, 3 * p)
        full = sum(mask << at for _, at, mask in keys.fields)
        terms[full] = -rng.randint(1, 2**70)
        full_width += any(mask > largest[v] for v, _, mask in keys.fields)
        assert value_mod(terms, base, p) == unpacked_value_mod(keys.unpack(terms), point, 1, p)
    assert full_width  # some field holds exponents beyond its largest


def _big_polynomial_matrix():
    """A 4 x 4 integer B and lengths: det(I - diag(s^l) B) has a coefficient above 2^62."""
    rng = random.Random(5)
    return [[rng.randint(-2**20, 2**20) for _ in range(4)] for _ in range(4)], [1, 2, 1, 3]


def test_det_over_ring_checks_an_extra_prime(monkeypatch):
    rows, lengths = _big_polynomial_matrix()
    exact = det_over_ring(rows, lengths)
    one = UniPoly.const(1)
    assert exact == _leibniz(_unit_step_rows(rows, lengths, one), one)
    assert max(abs(c) for c in exact.coeffs) > 2**62
    for bound in (1, 2**40):  # one prime only: below 2^30, then below 2^60
        monkeypatch.setattr(intmat, "_det_bound", lambda entries, m: bound)
        with pytest.raises(AssertionError, match="extra prime"):
            det_over_ring(rows, lengths)


def test_det_over_ring_extra_prime_check_survives_optimize():
    script = (
        "import sys; sys.path[:0] = sys.argv[1:]\n"
        "from test_algebra import _big_polynomial_matrix\n"
        "from galois_trees.algebra import intmat\n"
        "for bound in (1, 2**40):  # one prime below 2^30, then one below 2^60\n"
        "    intmat._det_bound = lambda entries, m: bound\n"
        "    try:\n"
        "        intmat.det_over_ring(*_big_polynomial_matrix())\n"
        "    except AssertionError:\n"
        "        continue\n"
        "    sys.exit('a wrong determinant passed the check')\n"
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


def test_det_bound_covers_integer_determinants():
    rng = random.Random(17)
    one = UniPoly.const(1)
    tighter = 0
    for _ in range(60):
        n = rng.randint(1, 5)
        size = rng.choice((1, 3, 50))
        b = [[rng.randint(-size, size) for _ in range(n)] for _ in range(n)]
        rows = _unit_step_rows(b, [rng.randint(1, 3) for _ in range(n)], one)
        largest = max(abs(c) for c in _leibniz(rows, one).coeffs)
        bound = intmat._det_bound([{j: x for j, x in enumerate(r) if x} for r in b], 1)
        assert bound >= largest
        l1 = [[sum(map(abs, x.coeffs)) for x in r] for r in rows]
        tighter += bound < min(prod(map(sum, l1)), prod(map(sum, zip(*l1))))
    assert tighter > 20


def _mul_mod_p(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def _checked_charpoly(a, p):
    """charpoly_mod(a), after checking it against det_mod(tI - A) at t = 0..n."""
    n = len(a)
    got = charpoly_mod([row[:] for row in a], p)
    assert len(got) == n + 1 and got[-1] == 1
    for t in range(n + 1):
        shifted = [[((t if i == j else 0) - x) % p for j, x in enumerate(row)]
                   for i, row in enumerate(a)]
        assert evaluate_mod(got, t, p) == det_mod(shifted, p)
    return got


def test_charpoly_mod_matches_det_mod_at_n_plus_one_points():
    rng = random.Random(41)
    for p in (97, split_prime(1, 0)):
        for n in range(13):
            for density in (0.25, 1.0):
                _checked_charpoly([[rng.randrange(p) if rng.random() < density else 0
                                    for _ in range(n)] for _ in range(n)], p)


def test_charpoly_mod_structured_matrices():
    p = 101
    # column 0 is zero on the subdiagonal and nonzero below it: a swap, and A^2 = 0
    assert _checked_charpoly([[0, 0, 0], [0, 0, 0], [1, 0, 0]], p) == [0, 0, 0, 1]
    nilpotent = [[0, 3, 5, 7], [0, 0, 2, 9], [0, 0, 0, 4], [0, 0, 0, 0]]
    order = [2, 0, 3, 1]  # the same matrix conjugated by a permutation
    shuffled = [[nilpotent[i][j] for j in order] for i in order]
    assert _checked_charpoly(shuffled, p) == [0, 0, 0, 0, 1]
    rng = random.Random(42)
    top = [[rng.randrange(p) for _ in range(3)] for _ in range(3)]
    bottom = [[rng.randrange(p) for _ in range(4)] for _ in range(4)]
    block = [r + [rng.randrange(p) for _ in range(4)] for r in top] + [[0] * 3 + r for r in bottom]
    expected = _mul_mod_p(charpoly_mod([r[:] for r in top], p),
                          charpoly_mod([r[:] for r in bottom], p), p)
    assert _checked_charpoly(block, p) == expected
    cycles = [[0, 3, 5], [1], [2, 6], [4]]  # a permutation matrix: prod (t^len - 1)
    perm = [[0] * 7 for _ in range(7)]
    expected = [1]
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            perm[a][b] = 1
        expected = _mul_mod_p(expected, [p - 1] + [0] * (len(cycle) - 1) + [1], p)
    assert _checked_charpoly(perm, p) == expected
    assert charpoly_mod([], p) == [1]


@pytest.mark.parametrize("m", (1, 3, 4, 5, 8, 12))
def test_unit_step_route_matches_interpolation(m, monkeypatch):
    # either side of N^3 <= (N + 1) n^3, N = sum l: n = 2 at lengths (5, 6)
    # interpolates (11^3 > 12 * 2^3); n = 9 and 10 at lengths 1..3 take the
    # unit-step matrix, since N <= 3n
    rng = random.Random(4000 + m)
    one = UniPoly.const(CycInt.from_int(m, 1))
    zero = CycInt.from_int(m, 0)
    calls = count_calls(monkeypatch, intmat, "charpoly_mod")
    for n, lengths in ((2, [5, 6]), (9, None), (10, None)):
        lengths = lengths or [rng.randint(1, 3) for _ in range(n)]
        b = [[_random_entry(rng, m, 2) if n == 2 or rng.random() < 0.3 else zero
              for _ in range(n)] for _ in range(n)]
        calls.clear()
        got = det_over_ring(b, lengths)
        assert got == _leibniz(_unit_step_rows(b, lengths, one), one)
        assert all(isinstance(c, CycInt) and c.conductor == m for c in got.coeffs)
        assert bool(calls) == (n > 2)


def test_other_matrices_keep_interpolation(monkeypatch):
    s = UniPoly.monomial(1)
    calls = count_calls(monkeypatch, intmat, "charpoly_mod")
    control = [[2, 1], [3, -1]]
    assert det_over_ring(control, [1, 1]) == 1 - s - 5 * s**2
    # the control: B = 10 < 2^29 (Hadamard's bound over the columns, the
    # ceiling of (18 * 5)^(1/2)), so one prime below 2^30 and one embedding
    assert intmat._det_bound([dict(enumerate(r)) for r in control], 1) == 10
    assert calls == [split_prime(1, 0, SMALL_PRIME_LIMIT)]
    calls.clear()
    # the same B at lengths (5, 6) interpolates, since 11^3 > 12 * 2^3
    assert det_over_ring(control, [5, 6]) == 1 - 2 * s**5 + s**6 - 5 * s**11
    assert not calls


def test_det_over_ring_takes_sparse_rows():
    one = UniPoly.const(1)
    dense = [[1, 1, 0], [0, 0, 2], [1, 0, 1]]
    sparse = [{j: x for j, x in enumerate(r) if x} for r in dense]
    lengths = [1, 1, 1]
    assert (det_over_ring(sparse, lengths) == det_over_ring(dense, lengths)
            == _leibniz(_unit_step_rows(dense, lengths, one), one))
    assert det_over_ring([{1: 2}, {0: 3}], [1, 1]) == UniPoly((1, 0, -6))
    for rows in ([{0: 1}, {2: 1}], [{0: 1}, {-1: 1}]):
        with pytest.raises(ValueError, match="outside"):
            det_over_ring(rows, [1, 1])


def _schoolbook(a, b):
    """The product of two UniPolys term by term, zero terms skipped: the
    reference for the packed product, values and coefficient types."""
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1) if a and b else []
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            if x and y:
                out[i + j] = out[i + j] + x * y
    return UniPoly(out)


def _is_packed(a, b):
    """Whether a * b takes the Kronecker path: a CycInt and more than one
    pair of terms."""
    cyclotomic = any(isinstance(c, CycInt) for c in a.coeffs + b.coeffs)
    return cyclotomic and len(a.coeffs) * len(b.coeffs) > 1


@given(st.sampled_from((1, 3, 4, 5, 12, 105)), st.data())
def test_packed_product_matches_schoolbook(m, data):
    size = data.draw(st.sampled_from((3, 2**20, 2**70)))  # 2^70: above 2^64
    integer = st.integers(-size, size)
    coefficient = integer | st.builds(lambda c: CycInt(m, c),
                                      st.lists(integer, min_size=euler_phi(m), max_size=euler_phi(m)))
    a, b = (UniPoly(data.draw(st.lists(coefficient, max_size=n))) for n in (6, 3))
    got, want = a * b, _schoolbook(a, b)
    assert got == want and b * a == want
    # the types of the term-by-term product, except that a packed product
    # has CycInts throughout, also where only ints met
    packed = _is_packed(a, b)
    assert [type(c) for c in got.coeffs] == [CycInt if packed else type(c) for c in want.coeffs]
    assert all(c.conductor == m for c in got.coeffs if isinstance(c, CycInt))


def test_packed_product_fills_its_slots():
    # equal coordinates c make the middle slot min(len) * phi(m) * c^2, the
    # height the slot width is sized for; 2^62 <= c^2 puts it at 2^64 or above
    for m in (3, 12, 105):
        for c in (2**31, -(2**31), 2**31 - 1, 3):
            coefficient = CycInt(m, [c] * euler_phi(m))
            a, b = UniPoly([coefficient] * 17), UniPoly([-coefficient] * 18)
            assert _is_packed(a, b) and _is_packed(a, a)
            assert a * b == _schoolbook(a, b) and a * a == _schoolbook(a, a)


def test_split_primes_below_and_above_the_largest_small_prime():
    for m in (1, 12, 105):
        small = [split_prime(m, i, SMALL_PRIME_LIMIT) for i in (0, 1)]
        large = [split_prime(m, i) for i in (0, 1)]
        assert 2**29 < small[1] < small[0] < 2**30 and 2**59 < large[1] < large[0] < 2**60
        assert all((p - 1) % m == 0 and is_prime(p) for p in small + large)
        assert split_primes(m, (small[0] - 1) // 2) == small  # 2B = p - 1: p alone
        assert split_primes(m, (small[0] + 1) // 2) == large  # 2B = p + 1: one of 2^60
        M, omega, primes = split_modulus(m, (small[0] - 1) // 2)
        assert (M, primes) == (small[0], small) and omega == root_of_unity(m, small[0])


def test_split_prime_search_ends():
    # the candidates below 2^60 for conductor 2^61 are 1 and then negative
    with pytest.raises(ValueError, match="fewer than 1 primes"):
        split_prime(2**61, 0)
    with pytest.raises(ValueError, match="fewer than 1 primes"):
        split_primes(2**61, 0)
    # no prime 1 mod 2^29 + 1 lies between 2^29 and 2^30: primes below 2^60 instead
    m = 2**29 + 1
    with pytest.raises(ValueError):
        split_prime(m, 0, SMALL_PRIME_LIMIT)
    assert split_primes(m, 0) == [split_prime(m, 0), split_prime(m, 1)]


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


def test_multipoly_equality_compares_terms():
    xy2 = (("x", 1), ("y", 2))
    equal = (
        (MultiPoly({(("x", 1),): 2, xy2: -1}),
         MultiPoly({(("x", 1),): CycInt.from_int(5, 2), xy2: CycInt.from_int(7, -1)})),
        (MultiPoly.const(3), 3),
        (MultiPoly.const(CycInt.from_int(4, 3)), 3),
        (MultiPoly.const(3), CycInt.from_int(4, 3)),
        (MultiPoly.const(CycInt.root(5, 1)), CycInt.root(5, 1)),
        (MultiPoly(), 0),
        (MultiPoly({(): 0, xy2: 0}), MultiPoly()),
    )
    for a, b in equal:
        assert a == b and b == a and not a != b
        assert hash(a) == hash(b)
    unequal = (
        (MultiPoly({(("x", 1),): 2, xy2: -1}), MultiPoly({(("x", 1),): 2, xy2: -2})),
        (MultiPoly({(("x", 1),): 2, xy2: -1}), MultiPoly({(("x", 1),): 2, (("x", 1), ("y", 1)): -1})),
        (MultiPoly({(("x", 1),): 2}), MultiPoly({(("x", 1),): 2, xy2: -1})),
        (MultiPoly.const(3), 4),
        (MultiPoly.const(CycInt.root(5, 1)), 1),
        (MultiPoly.variable("x"), 1),
    )
    for a, b in unequal:
        assert a != b and b != a and not a == b
