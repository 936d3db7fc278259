"""Arithmetic for the small finite fields F_q with q = p^n.

Elements are the integers 0..q-1.  The base-p digits of an element are its
coordinates in the polynomial basis 1, x, ..., x^(n-1) of F_q over F_p, so
addition is digitwise mod p and multiplication is polynomial multiplication
modulo a fixed irreducible.  Full multiplication tables are precomputed (q
is at most 16), which keeps every operation a table lookup.
"""

from functools import lru_cache

import numpy as np

from .config import MAX_FIELD_ORDER
from .errors import DomainError

DIGIT_CHARS = "0123456789abcdef"


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


def _poly_mod_mul(a, b, modulus, p):
    """Multiply digit tuples a, b over F_p modulo the monic digit tuple modulus."""
    n = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    # reduce: x^n = -(modulus without leading term)
    for i in range(len(prod) - 1, n - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(n):
                prod[i - n + j] = (prod[i - n + j] - c * modulus[j]) % p
    return tuple(prod[:n]) + (0,) * (n - len(prod))


def _find_irreducible(p, n):
    """First monic irreducible of degree n over F_p, digits low to high."""
    if n == 1:
        return (0, 1)
    # candidates: constant term nonzero, scanned in lexicographic digit order
    for code in range(p**n):
        digits = []
        c = code
        for _ in range(n):
            digits.append(c % p)
            c //= p
        if digits[0] == 0:
            continue
        cand = tuple(digits) + (1,)
        if _poly_irreducible(cand, p):
            return cand
    raise AssertionError("no irreducible found")


def _poly_irreducible(f, p):
    """Trial division of the monic digit tuple f by all lower-degree monics."""
    n = len(f) - 1
    for d in range(1, n // 2 + 1):
        for code in range(p**d):
            digits = []
            c = code
            for _ in range(d):
                digits.append(c % p)
                c //= p
            g = tuple(digits) + (1,)
            if _poly_divides(g, f, p):
                return False
    return True


def _poly_divides(g, f, p):
    """True if monic digit tuple g divides f over F_p."""
    rem = list(f)
    dg = len(g) - 1
    while len(rem) - 1 >= dg:
        c = rem[-1]
        if c:
            for j in range(dg + 1):
                rem[len(rem) - 1 - dg + j] = (rem[len(rem) - 1 - dg + j] - c * g[j]) % p
        rem.pop()
    return all(c == 0 for c in rem)


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
        self.modulus_digits = _find_irreducible(p, n)
        q = self.q
        mul = np.zeros((q, q), dtype=np.int64)
        for a in range(q):
            da = self.to_digits(a)
            for b in range(a, q):
                c = self.from_digits(_poly_mod_mul(da, self.to_digits(b), self.modulus_digits, p))
                mul[a, b] = c
                mul[b, a] = c
        add = np.zeros((q, q), dtype=np.int64)
        for a in range(q):
            da = self.to_digits(a)
            for b in range(q):
                db = self.to_digits(b)
                add[a, b] = self.from_digits(tuple((x + y) % p for x, y in zip(da, db)))
        self.np_add = add
        self.np_mul = mul
        neg = np.zeros(q, dtype=np.int64)
        for a in range(q):
            neg[a] = self.from_digits(tuple((-x) % p for x in self.to_digits(a)))
        self.np_neg = neg
        inv = np.zeros(q, dtype=np.int64)
        for a in range(1, q):
            for b in range(1, q):
                if mul[a, b] == 1:
                    inv[a] = b
                    break
            else:
                raise AssertionError(f"no inverse for {a}")
        self.np_inv = inv

    def to_digits(self, a):
        """Base-p digit tuple of a, low to high, length n."""
        digits = []
        for _ in range(self.n):
            digits.append(a % self.p)
            a //= self.p
        return tuple(digits)

    def from_digits(self, digits):
        a = 0
        for d in reversed(digits):
            a = a * self.p + d
        return a

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
