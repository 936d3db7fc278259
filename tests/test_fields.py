"""Field arithmetic tests with independently computed expected values."""

import pytest

from drinfeld.errors import DomainError
from drinfeld.fields import field, field_from_label, prime_factors
from drinfeld.poly import code_to_digits, digits_to_code


def brute_order(F, a):
    """Multiplicative order by repeated multiplication, no shortcuts."""
    o, x = 1, a
    while x != 1:
        x = F.mul(x, a)
        o += 1
    return o


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4)])
def test_field_axioms_exhaustive(p, n):
    F = field(p, n)
    q = F.q
    els = list(F.elements())
    for a in els:
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.add(a, F.neg(a)) == 0
        if a != 0:
            assert F.mul(a, F.inv(a)) == 1
    for a in els:
        for b in els:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
    # associativity and distributivity on a char-dependent slice
    step = max(1, q // 5)
    sl = els[::step]
    for a in sl:
        for b in sl:
            for c in sl:
                assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
                assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_prime_field_is_mod_p():
    F = field(7)
    for a in range(7):
        for b in range(7):
            assert F.add(a, b) == (a + b) % 7
            assert F.mul(a, b) == (a * b) % 7


def test_f4_structure():
    F = field(2, 2)
    # the two non-identity units are cube roots of 1 and each other's inverse
    assert F.mul(2, 3) == 1
    assert F.mul(2, 2) == 3
    assert F.mul(3, 3) == 2
    assert brute_order(F, 2) == 3
    assert brute_order(F, 3) == 3
    # char 2: every element is its own negative
    for a in F.elements():
        assert F.neg(a) == a


@pytest.mark.parametrize(
    "p,n,low",
    [(2, 2, (1, 1)), (2, 3, (1, 1, 0)), (3, 2, (1, 0)), (2, 4, (1, 1, 0, 0))],
)
def test_extension_field_modulus(p, n, low):
    """F_4, F_8, F_9 and F_16 reduce by 1+x+x^2, 1+x+x^3, 1+x^2 and
    1+x+x^4: x times x^(n-1), codes p and p^(n-1), is minus the low part
    of the modulus.  Spec files store codes in these fields, so the moduli
    are part of the file format."""
    F = field(p, n)
    assert code_to_digits(F.mul(p, p ** (n - 1)), p, n) == tuple((-c) % p for c in low)


def test_f9_unit_group_cyclic_order_8():
    F = field(3, 2)
    orders = sorted(brute_order(F, a) for a in F.units())
    # cyclic of order 8: phi(d) elements of each order d | 8
    assert orders == [1, 2, 4, 4, 8, 8, 8, 8]
    g = F.multiplicative_generator()
    assert brute_order(F, g) == 8
    seen = set()
    x = 1
    for _ in range(8):
        x = F.mul(x, g)
        seen.add(x)
    assert seen == set(F.units())


def test_f16_unit_group_cyclic_order_15():
    F = field(2, 4)
    g = F.multiplicative_generator()
    assert brute_order(F, g) == 15
    orders = [brute_order(F, a) for a in F.units()]
    assert sorted(set(orders)) == [1, 3, 5, 15]


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 4)])
def test_frobenius_is_additive_and_fixes_prime_field(p, n):
    F = field(p, n)
    for a in F.elements():
        for b in F.elements():
            assert F.frob(F.add(a, b)) == F.add(F.frob(a), F.frob(b))
    for a in range(p):  # prime subfield sits at digit positions (a, 0, ..., 0)
        assert F.frob(a) == a
    # Frobenius has order exactly n on the whole field
    for a in F.elements():
        assert F.frob_iter(a, n) == a


def test_pow_matches_repeated_multiplication():
    F = field(3, 2)
    for a in F.units():
        x = 1
        for e in range(20):
            assert F.pow_(a, e) == x
            x = F.mul(x, a)
        assert F.pow_(a, -1) == F.inv(a)


def test_digits_roundtrip():
    F = field(2, 3)
    for a in F.elements():
        assert digits_to_code(code_to_digits(a, F.p, F.n), F.p) == a
    assert code_to_digits(5, F.p, F.n) == (1, 0, 1)


def test_field_factory_caching_and_validation():
    assert field(3, 2) is field(3, 2)
    with pytest.raises(DomainError):
        field(4)
    with pytest.raises(DomainError):
        field(2, 5)
    with pytest.raises(DomainError):
        field(17)


def test_field_from_label():
    assert field_from_label("3^2") is field(3, 2)
    assert field_from_label("9") is field(3, 2)
    assert field_from_label("2") is field(2, 1)
    assert field_from_label("16") is field(2, 4)
    with pytest.raises(DomainError):
        field_from_label("6")
    for label in ("1", "0", "-4", "12", "1^1", "4^1"):
        with pytest.raises(DomainError):
            field_from_label(label)


def test_prime_factors_against_trial_division():
    for n in range(-3, 400):
        want = [d for d in range(2, n + 1) if n % d == 0 and all(d % e for e in range(2, d))]
        assert prime_factors(n) == want
    assert prime_factors(2**5 * 3 * 101) == [2, 3, 101]


def test_check_rejects_out_of_range():
    F = field(3)
    assert F.check(2) == 2
    with pytest.raises(DomainError):
        F.check(3)
    with pytest.raises(DomainError):
        F.check(-1)
    with pytest.raises(DomainError):
        F.check("1")
