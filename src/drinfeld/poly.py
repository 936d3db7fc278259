"""Univariate polynomials over a small finite field, monic ideals, residue rings.

A polynomial is stored as a tuple of field elements, lowest degree first,
with no trailing zeros.  The serialized text form is the digit string in the
same order, so "1101" over F_2 is 1 + t + t^3 and "0" is the zero
polynomial.  The degree of the zero polynomial is reported as -1.

Field elements, residues, additive quotient classes and quasi-level members
are all integer codes whose digits, lowest first, are coordinates: base p
for field elements and quasi-level members, base q for residues and
quotient classes.  ``digits_to_code``, ``code_to_digits`` and ``digitwise``
are the one codec for that format, and ``digits_text``/``text_digits`` the
one text form of a digit row in spec and report files.

A residue ring is its dense tables: the product table is built by numpy
passes from multiplication by t, and units and inverses are read off it.
The scalar ``mul``, ``scale``, ``lift`` and ``reduce_poly`` serve rings too
large for tables.
"""

from functools import lru_cache

import numpy as np

from .errors import CapExceeded, DomainError

DIGIT_CHARS = "0123456789abcdef"
RING_TABLE_CAP = 512


def digits_text(row):
    """A row of digits, lowest first, as its text: one character per digit."""
    return "".join(DIGIT_CHARS[x] for x in row)


def text_digits(text, base, n):
    """The row of n digits below the base that the text spells out."""
    row = tuple(DIGIT_CHARS.find(ch) for ch in text)
    if len(row) != n or not all(0 <= x < base for x in row):
        raise DomainError(f"digit row {text!r} must be {n} digits below {base}")
    return row


def digits_to_code(digits, base):
    """The integer whose base digits, lowest first, are the given ones."""
    code = 0
    for d in reversed(digits):
        code = code * base + d
    return code


def code_to_digits(code, base, n):
    """The n lowest base digits of the code, lowest first."""
    out = []
    for _ in range(n):
        code, d = divmod(code, base)
        out.append(d)
    return tuple(out)


def digitwise(table, base, n, *codes):
    """Apply a per-digit table to code arrays, one numpy pass per digit.

    Digit i of the result is table[digit i of each code]: a 2-d table such
    as a field's addition table combines two codes, a 1-d one maps one.
    Scalar codes give a numpy scalar, which keeps the sum out of 0-d arrays.
    """
    out = np.zeros(np.broadcast(*codes).shape, dtype=np.int64)[()]
    mult = 1
    for _ in range(n):
        out += table[tuple((c // mult) % base for c in codes)] * mult
        mult *= base
    return out


class Poly:
    """Immutable polynomial in one variable t over a FieldSpec."""

    __slots__ = ("F", "coeffs", "_hash")

    def __init__(self, F, coeffs):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.F = F
        self.coeffs = tuple(cs)
        self._hash = hash((F.label, self.coeffs))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def leading(self):
        if not self.coeffs:
            raise DomainError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff_vector(self, n):
        """The coefficients of t^0 .. t^(n-1), padded with zeros."""
        return self.coeffs[:n] + (0,) * (n - len(self.coeffs))

    def constant_term(self):
        return self.coeffs[0] if self.coeffs else 0

    def coeff(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def monic(self):
        """Scale by the inverse of the leading coefficient."""
        if self.is_zero():
            raise DomainError("zero polynomial cannot be made monic")
        lead = self.coeffs[-1]
        return self if lead == 1 else self.scale(self.F.inv(lead))

    def norm_size(self):
        """Number of residues modulo this polynomial, q^degree."""
        if self.is_zero():
            raise DomainError("zero polynomial has no finite residue count")
        return self.F.q ** self.degree

    def scale(self, c):
        F = self.F
        if c == 0:
            return Poly(F, ())
        return Poly(F, tuple(F.mul(c, x) for x in self.coeffs))

    def __add__(self, other):
        F = self.F
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = F.add(out[i], c)
        return Poly(F, out)

    def __neg__(self):
        return Poly(self.F, tuple(self.F.neg(c) for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        F = self.F
        if self.is_zero() or other.is_zero():
            return Poly(F, ())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] = F.add(out[i + j], F.mul(a, b))
        return Poly(F, out)

    def __divmod__(self, other):
        F = self.F
        if other.is_zero():
            raise DomainError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly(F, ()), self
        quot = [0] * (dq + 1)
        lead_inv = F.inv(other.coeffs[-1])
        db = other.degree
        while len(rem) - 1 >= db and rem:
            c = rem[-1]
            if c == 0:
                rem.pop()
                continue
            k = len(rem) - 1 - db
            factor = F.mul(c, lead_inv)
            quot[k] = factor
            for j, b in enumerate(other.coeffs):
                rem[k + j] = F.sub(rem[k + j], F.mul(factor, b))
            rem.pop()
        return Poly(F, quot), Poly(F, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def substitute(self, g):
        """Compose: the polynomial with g substituted for t."""
        F = self.F
        r = Poly(F, ())
        for a in reversed(self.coeffs):
            r = r * g + Poly(F, (a,))
        return r

    def frobenius_coeffs(self, e=1):
        """Apply the field Frobenius e times to every coefficient."""
        F = self.F
        return Poly(F, tuple(F.frob_iter(c, e) for c in self.coeffs))

    def digits_str(self):
        return digits_text(self.coeffs) if self.coeffs else "0"

    def pretty(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeff(i)
            if c == 0:
                continue
            if i == 0:
                parts.append(DIGIT_CHARS[c])
            else:
                head = "" if c == 1 else DIGIT_CHARS[c] + "*"
                parts.append(f"{head}t" if i == 1 else f"{head}t^{i}")
        return " + ".join(parts)

    def sort_key(self):
        return (self.degree, self.coeffs)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.F is other.F and self.coeffs == other.coeffs

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Poly({self.F.label}, {self.digits_str()!r})"


def zero(F):
    return Poly(F, ())


def one(F):
    return Poly(F, (1,))


def constant(F, c):
    return Poly(F, (F.check(c),))


def t_var(F):
    return Poly(F, (0, 1))


def t_power(F, k):
    return Poly(F, (0,) * k + (1,))


def poly_from_string(F, text):
    text = text.strip()
    if not text:
        raise DomainError("empty polynomial string")
    coeffs = []
    for ch in text:
        v = DIGIT_CHARS.find(ch.lower())
        if v < 0 or v >= F.q:
            raise DomainError(f"digit {ch!r} is not an element of F_{F.q}")
        coeffs.append(v)
    return Poly(F, coeffs)


def poly_from_text(F, text):
    """Parse either serialization: digit string or sum of monomials.

    A string without the variable letter is read as a digit string, lowest
    degree first ("011" is t + t^2).  Otherwise it is read as monomials
    "c", "t", "c*t^k" (the "*" optional) joined by "+" or "-", with each
    coefficient a single digit in the field, e.g. "t^3 + 2t + 1".
    """
    s = text.strip().lower().replace(" ", "")
    if not s:
        raise DomainError("empty polynomial string")
    if "t" not in s:
        return poly_from_string(F, s)
    coeffs = {}
    for signed in s.replace("-", "+-").split("+"):
        if not signed:
            if s.startswith("+") or "++" in s or s.endswith("+"):
                raise DomainError(f"polynomial term missing in {text!r}")
            continue
        term = signed.lstrip("-")
        negate = len(signed) - len(term)
        if negate > 1 or not term:
            raise DomainError(f"polynomial term {signed!r} is malformed in {text!r}")
        head, _, tail = term.partition("t")
        c = 1
        if head:
            head = head.rstrip("*")
            v = DIGIT_CHARS.find(head) if len(head) == 1 else -1
            if v < 0 or v >= F.q:
                raise DomainError(
                    f"coefficient {head!r} is not a digit of F_{F.q} in {text!r}"
                )
            c = v
        if "t" in term:
            if tail:
                if not tail.startswith("^") or not tail[1:].isdigit():
                    raise DomainError(f"polynomial term {term!r} is malformed in {text!r}")
                k = int(tail[1:])
            else:
                k = 1
        else:
            k = 0
        if negate:
            c = F.neg(c)
        coeffs[k] = F.add(coeffs.get(k, 0), c)
    top = max(coeffs)
    return Poly(F, tuple(coeffs.get(i, 0) for i in range(top + 1)))


def poly_gcd(a, b):
    """Monic greatest common divisor; gcd(0, 0) is 0."""
    while not b.is_zero():
        a, b = b, a % b
    return a if a.is_zero() else a.monic()


def poly_lcm(a, b):
    if a.is_zero() or b.is_zero():
        return zero(a.F)
    return ((a * b) // poly_gcd(a, b)).monic()


def monic_polys(F, deg):
    """All monic polynomials of exactly this degree."""
    if deg < 0:
        raise DomainError("degree must be nonnegative")
    for code in range(F.q**deg):
        yield Poly(F, code_to_digits(code, F.q, deg) + (1,))


@lru_cache(maxsize=None)
def _irreducibles_cached(F, d):
    out = []
    for f in monic_polys(F, d):
        if is_irreducible(f):
            out.append(f)
    return tuple(out)


def irreducibles(F, d):
    """Monic irreducibles of exactly degree d, in coefficient order."""
    return list(_irreducibles_cached(F, d))


def is_irreducible(f):
    if f.degree < 1:
        return False
    for d in range(1, f.degree // 2 + 1):
        for g in monic_polys(f.F, d):
            if (f % g).is_zero():
                return False
    return True


def factorize(f):
    """Factor a nonzero polynomial into monic irreducibles.

    Returns (unit, [(irreducible, multiplicity), ...]) sorted by the
    irreducibles' coefficient order.
    """
    if f.is_zero():
        raise DomainError("cannot factor the zero polynomial")
    unit = f.leading()
    g = f.monic()
    factors = []
    d = 1
    while 2 * d <= g.degree:
        for p in irreducibles(g.F, d):
            if (g % p).is_zero():
                m = 0
                while (g % p).is_zero():
                    g = g // p
                    m += 1
                factors.append((p, m))
        d += 1
    if g.degree > 0:
        factors.append((g, 1))
    factors.sort(key=lambda pm: pm[0].sort_key())
    return unit, factors


class MonicIdeal:
    """An ideal of F_q[t], generated by a monic polynomial or zero."""

    __slots__ = ("gen",)

    def __init__(self, gen):
        if not gen.is_zero():
            gen = gen.monic()
        self.gen = gen

    @property
    def F(self):
        return self.gen.F

    def is_zero(self):
        return self.gen.is_zero()

    def is_unit_ideal(self):
        return self.gen.degree == 0

    def intersect(self, other):
        return MonicIdeal(poly_lcm(self.gen, other.gen))

    def divisors(self):
        """All ideals containing this one, i.e. monic divisors of the generator."""
        if self.is_zero():
            raise DomainError("the zero ideal has infinitely many divisors")
        _, factors = factorize(self.gen) if self.gen.degree > 0 else (1, [])
        divs = [one(self.F)]
        for p, m in factors:
            new = []
            pk = one(self.F)
            for _ in range(m + 1):
                for d in divs:
                    new.append(d * pk)
                pk = pk * p
            divs = new
        divs.sort(key=lambda f: f.sort_key())
        return [MonicIdeal(d) for d in divs]

    def __eq__(self, other):
        return isinstance(other, MonicIdeal) and self.gen == other.gen

    def __hash__(self):
        return hash(("ideal", self.gen))

    def __repr__(self):
        return f"MonicIdeal({self.gen.digits_str()!r})"


class ResidueRing:
    """The quotient F_q[t]/(f) for a monic modulus f of degree >= 1.

    Elements are integers 0..q^d - 1; the base-q digits of a code are the
    coefficients of the canonical representative, lowest degree first.
    """

    def __init__(self, modulus):
        if not modulus.is_monic() or modulus.degree < 1:
            raise DomainError("residue ring needs a monic modulus of degree >= 1")
        self.modulus = modulus
        self.F = modulus.F
        self.q = modulus.F.q
        self.d = modulus.degree
        self.size = self.q**self.d
        self._tables = None

    def lift(self, code):
        return Poly(self.F, code_to_digits(code, self.q, self.d))

    def reduce_poly(self, p):
        return digits_to_code((p % self.modulus).coeff_vector(self.d), self.q)

    def mul(self, a, b):
        return self.reduce_poly(self.lift(a) * self.lift(b))

    def scale(self, c, a):
        """Multiply the code a by the field element c."""
        return int(digitwise(self.F.np_mul[c], self.q, self.d, a))

    def units(self):
        """The unit codes, increasing."""
        return np.flatnonzero(self.tables()[3])

    def tables(self):
        """Dense numpy add/mul/neg/unit/inv tables; refused above the size cap.

        The product a*b is the sum of b_k * (a t^k) over the digits b_k of
        b, so the columns are built a digit at a time: the columns below
        q^(k+1) are those below q^k plus c * (a t^k) for each c.  A row is
        a unit when it holds a 1, and the column of that 1 is its inverse.
        """
        if self._tables is None:
            if self.size > RING_TABLE_CAP:
                raise CapExceeded(
                    f"residue ring of size {self.size} exceeds table cap {RING_TABLE_CAP}"
                )
            F, q, d = self.F, self.q, self.d
            codes = np.arange(self.size, dtype=np.int64)
            add = digitwise(F.np_add, q, d, codes[:, None], codes)
            neg = digitwise(F.np_neg, q, d, codes)
            # smul[c, a] = c * a: every digit of the first code is c
            every_digit = (q**d - 1) // (q - 1)
            smul = digitwise(F.np_mul, q, d, codes[:q, None] * every_digit, codes)
            # t^d is -(f - t^d) modulo f
            wrap = digits_to_code(tuple(F.neg(c) for c in self.modulus.coeffs[:d]), q)
            top = q ** (d - 1)
            mul = np.zeros((self.size, 1), dtype=np.int64)
            a_tk = codes
            for _ in range(d):
                mul = np.concatenate([add[mul, smul[c, a_tk][:, None]] for c in range(q)], axis=1)
                a_tk = add[a_tk % top * q, smul[a_tk // top, wrap]]
            is_one = mul == 1
            self._tables = (add, mul, neg, is_one.any(axis=1), is_one.argmax(axis=1))
        return self._tables

    def __eq__(self, other):
        return isinstance(other, ResidueRing) and self.modulus == other.modulus

    def __hash__(self):
        return hash(("ring", self.modulus))

    def __repr__(self):
        return f"ResidueRing({self.modulus.digits_str()!r} over {self.F.label})"


@lru_cache(maxsize=None)
def _residue_ring_cached(modulus):
    return ResidueRing(modulus)


def residue_ring(modulus):
    """Cached residue ring for a monic modulus."""
    if not modulus.is_monic():
        if modulus.is_zero():
            raise DomainError("residue ring needs a nonzero modulus")
        modulus = modulus.monic()
    return _residue_ring_cached(modulus)
