"""Arithmetic for the small finite fields F_q with q = p^n.

Elements are the integers 0..q-1.  F_p is arithmetic mod p.  For n > 1,
F_q is the residue ring F_p[x]/(m) for the first monic irreducible m of
degree n in coefficient order, so an element's code is its residue code:
its base-p digits are its coordinates in the basis 1, x, ..., x^(n-1).
The tables come from ``poly.ResidueRing.tables`` (q is at most 16), which
keeps every operation a table lookup.
"""

from functools import lru_cache

import numpy as np

from .config import MAX_FIELD_ORDER
from .errors import DomainError
from .poly import DIGIT_CHARS, ResidueRing, irreducibles

__all__ = ["DIGIT_CHARS", "FieldSpec", "field", "field_from_label", "prime_factors"]


def prime_factors(n):
    """Distinct prime factors of n, increasing; n is prime iff this is [n]."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class FieldSpec:
    """The field F_q presented on the integers 0..q-1.

    Do not construct directly; use the cached ``field(p, n)`` factory so
    identical parameters give the identical object.
    """

    def __init__(self, p, n):
        self.p = p
        self.n = n
        self.q = p**n
        self.label = f"{p}^{n}"
        if n == 1:
            x = np.arange(p, dtype=np.int64)
            self.np_add = (x[:, None] + x) % p
            self.np_mul = (x[:, None] * x) % p
            self.np_neg = (-x) % p
        else:
            R = ResidueRing(irreducibles(field(p), n)[0])
            self.np_add, self.np_mul, self.np_neg, _, _ = R.tables()
        # the inverse of a is the b with a*b = 1; row 0 has none and keeps 0
        self.np_inv = (self.np_mul == 1).argmax(axis=1)

    def check(self, a):
        if not isinstance(a, (int, np.integer)) or not 0 <= a < self.q:
            raise DomainError(f"{a!r} is not an element of F_{self.q}")
        return int(a)

    def add(self, a, b):
        return int(self.np_add[a, b])

    def sub(self, a, b):
        return int(self.np_add[a, self.np_neg[b]])

    def neg(self, a):
        return int(self.np_neg[a])

    def mul(self, a, b):
        return int(self.np_mul[a, b])

    def inv(self, a):
        if a == 0:
            raise DomainError("zero has no inverse")
        return int(self.np_inv[a])

    def pow_(self, a, e):
        if e < 0:
            a, e = self.inv(a), -e
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def frob(self, a):
        """The Frobenius a -> a^p."""
        return self.pow_(a, self.p)

    def frob_iter(self, a, e):
        """Apply Frobenius e times (any integer e, reduced mod n)."""
        for _ in range(e % self.n):
            a = self.frob(a)
        return a

    def elements(self):
        return range(self.q)

    def units(self):
        return range(1, self.q)

    def multiplicative_generator(self):
        """Smallest element generating the unit group."""
        target = self.q - 1
        for g in self.units():
            seen = 1
            x = g
            while x != 1:
                x = self.mul(x, g)
                seen += 1
            if seen == target:
                return g
        raise AssertionError("no generator found")

    def __repr__(self):
        return f"FieldSpec({self.label})"


@lru_cache(maxsize=None)
def _field_cached(p, n):
    if prime_factors(p) != [p]:
        raise DomainError(f"{p} is not prime")
    if n < 1:
        raise DomainError("extension degree must be at least 1")
    if p**n > MAX_FIELD_ORDER:
        raise DomainError(f"field order {p**n} exceeds supported maximum {MAX_FIELD_ORDER}")
    return FieldSpec(p, n)


def field(p, n=1):
    """Cached factory for F_{p^n}; p prime, p^n <= 16."""
    return _field_cached(p, n)


def field_from_label(label):
    """Parse 'p^n' or a plain prime-power string like '9' into a field."""
    text = label.strip()
    if "^" in text:
        p_str, n_str = text.split("^", 1)
        return field(int(p_str), int(n_str))
    q = int(text)
    if q > MAX_FIELD_ORDER:
        raise DomainError(f"field order {q} exceeds supported maximum {MAX_FIELD_ORDER}")
    primes = prime_factors(q)
    if len(primes) != 1:
        raise DomainError(f"{label!r} is not a prime power")
    p = primes[0]
    return field(p, next(n for n in range(1, q) if p**n == q))
