"""Matrix layer tests over both entry rings."""

import pytest
from hypothesis import given, strategies as st

from drinfeld.errors import DomainError
from drinfeld.fields import field
from drinfeld.mat2 import (
    borel_mat,
    diag_mat,
    identity,
    mat_over_polys,
    poly_ring,
    reduce_mat,
    translation,
    weyl,
)
from drinfeld.poly import Poly, poly_from_string, residue_ring

F2 = field(2)
F3 = field(3)


def P(F, s):
    return poly_from_string(F, s)


def rand_poly(F, max_deg=3):
    return st.lists(st.integers(0, F.q - 1), max_size=max_deg + 1).map(
        lambda cs: Poly(F, cs)
    )


def rand_mat(F):
    return st.tuples(rand_poly(F), rand_poly(F), rand_poly(F), rand_poly(F)).map(
        lambda es: mat_over_polys(F, es)
    )


def test_translation_composition():
    R = poly_ring(F3)
    a, b = P(F3, "12"), P(F3, "201")
    assert translation(R, a) * translation(R, b) == translation(R, a + b)
    assert translation(R, a).inv() == translation(R, -a)


def test_borel_letter_product_worked_example():
    # over F_3: the triangular letter (2,1; corner t) times a translation by 1
    # stays triangular with corner t + 2
    R = poly_ring(F3)
    left = borel_mat(R, 2, 1, P(F3, "01"))
    got = left * translation(R, P(F3, "1"))
    assert got == borel_mat(R, 2, 1, P(F3, "21"))


def test_borel_multiplication_rule():
    # (a, b; alpha beta) style closure: diagonal parts multiply, corners mix
    R = poly_ring(F3)
    for alpha, beta, gamma, delta in ((1, 2, 2, 2), (2, 2, 1, 2)):
        x, y = P(F3, "01"), P(F3, "11")
        lhs = borel_mat(R, alpha, beta, x) * borel_mat(R, gamma, delta, y)
        corner = x.scale(delta) + y.scale(alpha)
        assert lhs == borel_mat(
            R, F3.mul(alpha, gamma), F3.mul(beta, delta), corner
        )


def test_weyl_properties():
    w3 = weyl(poly_ring(F3))
    assert w3 * w3 == diag_mat(poly_ring(F3), 2, 2)  # squares to minus identity
    R = poly_ring(F2)
    w = weyl(R)
    assert w * w == identity(R)  # minus identity collapses in characteristic 2
    assert w ** 4 == identity(R)
    assert w.det() == R.one()
    # conjugating a translation by w gives the transposed unipotent
    t = translation(R, P(F2, "01"))
    got = w.inv() * t * w
    assert got.entries() == (
        R.one(),
        R.zero(),
        R.neg(P(F2, "01")),
        R.one(),
    )


@given(rand_mat(F3), rand_mat(F3))
def test_det_multiplicative(m1, m2):
    assert (m1 * m2).det() == m1.det() * m2.det()


@given(rand_mat(F2), rand_mat(F2), rand_mat(F2))
def test_mul_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


def test_inverse_and_unimodularity():
    m = mat_over_polys(F3, (P(F3, "11"), P(F3, "1"), P(F3, "01"), P(F3, "1")))
    # det = (1+t) - t = 1
    R = poly_ring(F3)
    assert m.det() == R.one()
    assert m * m.inv() == identity(R)
    assert m.inv() * m == identity(R)
    bad = mat_over_polys(F3, (P(F3, "01"), P(F3, "0"), P(F3, "0"), P(F3, "01")))
    assert not R.is_unit(bad.det())
    with pytest.raises(DomainError):
        bad.inv()


def test_contragredient():
    # the transpose-inverse map applied by the contragredient automorphism
    m = mat_over_polys(F3, (P(F3, "11"), P(F3, "1"), P(F3, "01"), P(F3, "1")))
    cg = m.transpose().inv()
    assert m.transpose() * cg == identity(poly_ring(F3))
    # applying twice returns the original
    assert cg.transpose().inv() == m


def test_powers():
    R = poly_ring(F3)
    t = translation(R, P(F3, "01"))
    assert t**5 == translation(R, P(F3, "01").scale(2))  # 5 = 2 mod 3
    assert t**0 == identity(R)
    assert t**-2 == translation(R, P(F3, "01").scale(1))


def test_reduce_then_lift():
    R = residue_ring(P(F2, "001"))
    m = mat_over_polys(F2, (P(F2, "111"), P(F2, "01"), P(F2, "0"), P(F2, "1")))
    rm = reduce_mat(m, R)
    assert rm.a == R.reduce_poly(P(F2, "111"))
    assert R.lift(rm.a) == P(F2, "11")  # t^2 dropped by the modulus
    assert R.lift(rm.b) == P(F2, "01")


def test_reduction_is_a_homomorphism():
    R = residue_ring(P(F3, "101"))
    m1 = mat_over_polys(F3, (P(F3, "11"), P(F3, "1"), P(F3, "01"), P(F3, "1")))
    m2 = mat_over_polys(F3, (P(F3, "1"), P(F3, "021"), P(F3, "0"), P(F3, "1")))
    assert reduce_mat(m1 * m2, R) == reduce_mat(m1, R) * reduce_mat(m2, R)
    assert reduce_mat(m1.inv(), R) == reduce_mat(m1, R).inv()


def test_diag_and_scalar_validation():
    R = poly_ring(F3)
    with pytest.raises(DomainError):
        diag_mat(R, 0, 1)
    with pytest.raises(DomainError):
        borel_mat(R, 1, 0, R.zero())


def test_cross_ring_multiplication_rejected():
    m1 = translation(poly_ring(F2), P(F2, "01"))
    R = residue_ring(P(F2, "001"))
    m2 = translation(R, R.reduce_poly(P(F2, "01")))
    with pytest.raises(DomainError):
        m1 * m2
