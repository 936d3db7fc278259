"""Matrix layer tests: polynomial matrices and their entrywise reduction."""

import pytest
from hypothesis import given, strategies as st

from drinfeld.errors import DomainError
from drinfeld.fields import field
from drinfeld.mat2 import (
    borel_mat,
    diag_mat,
    mat_over_polys,
    reduce_mat,
    translation,
    weyl,
)
from drinfeld.poly import Poly, one, poly_from_string, residue_ring, zero

from helpers import reduced

F2 = field(2)
F3 = field(3)


def P(F, s):
    return poly_from_string(F, s)


def identity(F):
    return mat_over_polys(F, (1, 0, 0, 1))


def rand_poly(F, max_deg=3):
    return st.lists(st.integers(0, F.q - 1), max_size=max_deg + 1).map(
        lambda cs: Poly(F, cs)
    )


def rand_mat(F):
    return st.tuples(rand_poly(F), rand_poly(F), rand_poly(F), rand_poly(F)).map(
        lambda es: mat_over_polys(F, es)
    )


def test_translation_composition():
    a, b = P(F3, "12"), P(F3, "201")
    assert translation(F3, a) * translation(F3, b) == translation(F3, a + b)
    assert translation(F3, a).inv() == translation(F3, -a)


def test_borel_letter_product_worked_example():
    # over F_3: the triangular letter (2,1; corner t) times a translation by 1
    # stays triangular with corner t + 2
    left = borel_mat(F3, 2, 1, P(F3, "01"))
    got = left * translation(F3, P(F3, "1"))
    assert got == borel_mat(F3, 2, 1, P(F3, "21"))


def test_borel_multiplication_rule():
    # (a, b; alpha beta) style closure: diagonal parts multiply, corners mix
    for alpha, beta, gamma, delta in ((1, 2, 2, 2), (2, 2, 1, 2)):
        x, y = P(F3, "01"), P(F3, "11")
        lhs = borel_mat(F3, alpha, beta, x) * borel_mat(F3, gamma, delta, y)
        corner = x.scale(delta) + y.scale(alpha)
        assert lhs == borel_mat(
            F3, F3.mul(alpha, gamma), F3.mul(beta, delta), corner
        )


def test_weyl_properties():
    w3 = weyl(F3)
    assert w3 * w3 == diag_mat(F3, 2, 2)  # squares to minus identity
    w = weyl(F2)
    assert w * w == identity(F2)  # minus identity collapses in characteristic 2
    assert w.det() == one(F2)
    # conjugating a translation by w gives the transposed unipotent
    t = translation(F2, P(F2, "01"))
    got = w.inv() * t * w
    assert got.entries() == (one(F2), zero(F2), -P(F2, "01"), one(F2))


@given(rand_mat(F3), rand_mat(F3))
def test_det_multiplicative(m1, m2):
    assert (m1 * m2).det() == m1.det() * m2.det()


@given(rand_mat(F2), rand_mat(F2), rand_mat(F2))
def test_mul_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


def test_inverse_and_unimodularity():
    m = mat_over_polys(F3, (P(F3, "11"), P(F3, "1"), P(F3, "01"), P(F3, "1")))
    # det = (1+t) - t = 1
    assert m.det() == one(F3)
    assert m * m.inv() == identity(F3)
    assert m.inv() * m == identity(F3)
    bad = mat_over_polys(F3, (P(F3, "01"), P(F3, "0"), P(F3, "0"), P(F3, "01")))
    assert bad.det().degree == 2
    with pytest.raises(DomainError):
        bad.inv()


def test_contragredient():
    # the transpose-inverse map applied by the contragredient automorphism
    m = mat_over_polys(F3, (P(F3, "11"), P(F3, "1"), P(F3, "01"), P(F3, "1")))
    cg = m.transpose().inv()
    assert m.transpose() * cg == identity(F3)
    # applying twice returns the original
    assert cg.transpose().inv() == m


def test_reduce_then_lift():
    R = residue_ring(P(F2, "001"))
    m = mat_over_polys(F2, (P(F2, "111"), P(F2, "01"), P(F2, "0"), P(F2, "1")))
    ring, a, b, c, d = reduce_mat(m, R)
    assert ring is R
    assert a == R.reduce_poly(P(F2, "111"))
    assert R.lift(a) == P(F2, "11")  # t^2 dropped by the modulus
    assert R.lift(b) == P(F2, "01")
    assert (c, d) == (0, 1)


def test_reduction_is_a_homomorphism():
    # lift the reduced entries, multiply over F_3[t], reduce again
    R = residue_ring(P(F3, "101"))
    m1 = mat_over_polys(F3, (P(F3, "11"), P(F3, "1"), P(F3, "01"), P(F3, "1")))
    m2 = mat_over_polys(F3, (P(F3, "1"), P(F3, "021"), P(F3, "0"), P(F3, "1")))

    def lift(m):
        return mat_over_polys(F3, [R.lift(e) for e in reduce_mat(m, R)[1:]])

    assert lift(m1 * m2) == reduced(R, lift(m1) * lift(m2))
    assert reduced(R, lift(m1.inv()) * lift(m1)) == identity(F3)


def test_diag_and_scalar_validation():
    with pytest.raises(DomainError):
        diag_mat(F3, 0, 1)
    with pytest.raises(DomainError):
        borel_mat(F3, 1, 0, zero(F3))


def test_cross_ring_multiplication_rejected():
    # matrices over different coefficient fields do not multiply
    m1 = translation(F2, P(F2, "01"))
    m2 = translation(F3, P(F3, "01"))
    with pytest.raises(DomainError):
        m1 * m2
