"""Polynomial, ideal, and residue-ring tests with frozen expected values."""

import pytest
from hypothesis import given, strategies as st

from drinfeld.errors import DomainError
from drinfeld.fields import field
from drinfeld.poly import (
    MonicIdeal,
    Poly,
    constant,
    factorize,
    irreducibles,
    is_irreducible,
    monic_polys,
    one,
    poly_from_string,
    poly_gcd,
    poly_lcm,
    residue_ring,
    t_power,
    t_var,
    zero,
)

F2 = field(2)
F3 = field(3)
F4 = field(2, 2)


def polys(F, max_deg=6):
    return st.lists(st.integers(0, F.q - 1), max_size=max_deg + 1).map(
        lambda cs: Poly(F, cs)
    )


def P(F, s):
    return poly_from_string(F, s)


def test_string_roundtrip_and_degree():
    p = P(F2, "1101")
    assert p.coeffs == (1, 1, 0, 1)
    assert p.degree == 3
    assert p.digits_str() == "1101"
    assert p.pretty() == "t^3 + t + 1"
    assert zero(F2).degree == -1
    assert zero(F2).digits_str() == "0"
    assert P(F2, "0").is_zero()
    with pytest.raises(DomainError):
        P(F2, "121")


def test_divmod_worked_example():
    # (t^3 + t + 1) = t * (t^2 + 1) + 1 over F_2
    a = P(F2, "1101")
    b = P(F2, "101")
    q, r = divmod(a, b)
    assert q == P(F2, "01")
    assert r == one(F2)


def test_gcd_worked_example():
    # t^2 + t = t(t+1), t^2 + 1 = (t+1)^2 over F_2, so the gcd is t + 1
    assert poly_gcd(P(F2, "011"), P(F2, "101")) == P(F2, "11")


@given(polys(F3), polys(F3))
def test_divmod_invariant(a, b):
    if b.is_zero():
        with pytest.raises(DomainError):
            divmod(a, b)
        return
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


@given(polys(F3, 4), polys(F3, 4))
def test_lcm_contains_both(a, b):
    m = poly_lcm(a, b)
    if a.is_zero() or b.is_zero():
        assert m.is_zero()
    else:
        assert (m % a).is_zero() and (m % b).is_zero()
        assert m.degree == a.degree + b.degree - poly_gcd(a, b).degree


@given(polys(F4, 4), polys(F4, 4), polys(F4, 3))
def test_substitute_is_ring_map(a, b, g):
    assert (a + b).substitute(g) == a.substitute(g) + b.substitute(g)
    assert (a * b).substitute(g) == a.substitute(g) * b.substitute(g)


def test_substitute_worked_example():
    # (t^2 + 1) at t + 1 over F_3 is t^2 + 2t + 2
    p = P(F3, "101")
    assert p.substitute(P(F3, "11")) == P(F3, "221")


def test_frobenius_coeffs():
    F9 = field(3, 2)
    p = Poly(F9, (4, 7, 1))
    fr = p.frobenius_coeffs()
    assert fr.coeffs == (F9.frob(4), F9.frob(7), 1)
    assert p.frobenius_coeffs(2) == p


def test_irreducible_counts_frozen():
    # counts satisfy the necklace numbers for q = 2 and q = 3
    assert len(irreducibles(F2, 1)) == 2
    assert len(irreducibles(F2, 2)) == 1
    assert len(irreducibles(F2, 3)) == 2
    assert len(irreducibles(F2, 4)) == 3
    assert len(irreducibles(F3, 1)) == 3
    assert len(irreducibles(F3, 2)) == 3
    assert len(irreducibles(F3, 3)) == 8
    assert irreducibles(F2, 2) == [P(F2, "111")]


def test_is_irreducible_examples():
    assert is_irreducible(P(F2, "111"))
    assert not is_irreducible(P(F2, "101"))  # (t+1)^2
    assert not is_irreducible(one(F2))
    assert is_irreducible(P(F3, "101"))  # t^2 + 1 has no root mod 3


def test_factorize_frozen_examples():
    # t^4 + t^2 = t^2 (t+1)^2 over F_2
    u, fs = factorize(P(F2, "00101"))
    assert u == 1
    assert fs == [(P(F2, "01"), 2), (P(F2, "11"), 2)]
    # t^3 - t = t (t+1) (t+2) over F_3
    u, fs = factorize(P(F3, "0201"))
    assert u == 1
    assert fs == [(P(F3, "01"), 1), (P(F3, "11"), 1), (P(F3, "21"), 1)]
    # unit tracking: 2 t^2 over F_3
    u, fs = factorize(P(F3, "002"))
    assert u == 2
    assert fs == [(P(F3, "01"), 2)]


@given(polys(F2, 6))
def test_factorize_reconstructs(f):
    if f.is_zero():
        return
    u, fs = factorize(f)
    prod = constant(F2, u)
    for p, m in fs:
        assert is_irreducible(p)
        for _ in range(m):
            prod = prod * p
    assert prod == f


def test_monic_enumeration_counts():
    assert len(list(monic_polys(F3, 2))) == 9
    assert all(f.is_monic() and f.degree == 2 for f in monic_polys(F3, 2))


def test_ideal_lattice_ops():
    I = MonicIdeal(P(F2, "011"))  # (t^2 + t)
    J = MonicIdeal(P(F2, "01"))  # (t)
    assert I.intersect(J) == I
    # non-monic generators are normalized
    assert MonicIdeal(P(F3, "02")) == MonicIdeal(P(F3, "01"))


def test_ideal_divisors_frozen():
    # divisors of (t^2 (t+1)) over F_2: 1, t, t+1, t^2, t(t+1), t^2(t+1)
    divs = MonicIdeal(P(F2, "001") * P(F2, "11")).divisors()
    gens = [d.gen.digits_str() for d in divs]
    assert gens == ["1", "01", "11", "001", "011", "0011"]
    with pytest.raises(DomainError):
        MonicIdeal(zero(F2)).divisors()


def test_residue_ring_basics():
    R = residue_ring(P(F2, "001"))  # F_2[t]/(t^2)
    assert R.size == 4
    add, _, neg, unit, _ = R.tables()
    for a in range(R.size):
        assert R.reduce_poly(R.lift(a)) == a
        assert add[a, neg[a]] == 0
        assert R.mul(a, 1) == a
    t = R.reduce_poly(t_var(F2))
    assert R.mul(t, t) == 0
    assert unit[R.reduce_poly(P(F2, "11"))]
    assert not unit[t]


def test_residue_ring_units_and_inverses():
    R = residue_ring(P(F2, "0001"))  # F_2[t]/(t^3)
    us = R.units()
    coprime = [a for a in range(R.size) if poly_gcd(R.lift(a), R.modulus).degree == 0]
    assert us.tolist() == coprime and len(us) == 4
    inv = R.tables()[4]
    for u in us:
        assert R.mul(u, inv[u]) == 1
    # split modulus: F_2[t]/(t^2 + t) has a single unit
    S = residue_ring(P(F2, "011"))
    assert S.units().tolist() == [1]


def test_residue_ring_matches_poly_arithmetic():
    R = residue_ring(P(F3, "101"))
    add = R.tables()[0]
    for a in range(R.size):
        for b in range(R.size):
            assert add[a, b] == R.reduce_poly(R.lift(a) + R.lift(b))
            assert R.mul(a, b) == R.reduce_poly(R.lift(a) * R.lift(b))


def test_residue_ring_tables_consistent():
    for F, mod in ((F2, "111"), (F2, "0001"), (F3, "2101"), (F4, "131"), (F4, "0001")):
        R = residue_ring(P(F, mod))
        add, mul, neg, unit, inv = R.tables()
        for a in range(R.size):
            assert neg[a] == R.reduce_poly(-R.lift(a))
            assert unit[a] == (poly_gcd(R.lift(a), R.modulus).degree == 0)
            assert R.mul(a, inv[a]) == (1 if unit[a] else 0)
            for b in range(R.size):
                assert add[a, b] == R.reduce_poly(R.lift(a) + R.lift(b))
                assert mul[a, b] == R.mul(a, b)


def test_residue_ring_cached():
    assert residue_ring(P(F2, "001")) is residue_ring(P(F2, "001"))


def test_norm_size():
    assert P(F3, "001").norm_size() == 9
    with pytest.raises(DomainError):
        zero(F3).norm_size()


def test_scale_and_shift():
    p = P(F3, "12")
    assert p.scale(2) == P(F3, "21")
    assert t_power(F3, 3) == t_var(F3) * t_var(F3) * t_var(F3)
