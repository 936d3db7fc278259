"""Two-by-two matrices over the polynomial ring or one of its residue rings.

The entries live in any object exposing add/sub/neg/mul/zero/one/is_unit/inv
and from_field.  PolyRing wraps the polynomial layer in that protocol; a
ResidueRing already satisfies it, so reduction maps are entrywise.
"""

from functools import lru_cache

from .errors import DomainError
from .poly import Poly, constant, one as poly_one, zero as poly_zero


class PolyRing:
    """The polynomial ring F_q[t] presented through the shared ring protocol."""

    def __init__(self, F):
        self.F = F

    def zero(self):
        return poly_zero(self.F)

    def one(self):
        return poly_one(self.F)

    def from_field(self, c):
        return constant(self.F, c)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def is_unit(self, a):
        return a.degree == 0

    def inv(self, a):
        if a.degree != 0:
            raise DomainError("only nonzero constants are units in the polynomial ring")
        return constant(self.F, self.F.inv(a.constant_term()))

    def __eq__(self, other):
        return isinstance(other, PolyRing) and self.F is other.F

    def __hash__(self):
        return hash(("polyring", self.F.label))

    def __repr__(self):
        return f"PolyRing({self.F.label})"


@lru_cache(maxsize=None)
def poly_ring(F):
    return PolyRing(F)


class Mat2:
    """An immutable 2x2 matrix over a shared-protocol ring."""

    __slots__ = ("ring", "a", "b", "c", "d")

    def __init__(self, ring, a, b, c, d):
        self.ring = ring
        self.a = a
        self.b = b
        self.c = c
        self.d = d

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def __mul__(self, other):
        R = self.ring
        if other.ring != R:
            raise DomainError("matrices live over different rings")
        return Mat2(
            R,
            R.add(R.mul(self.a, other.a), R.mul(self.b, other.c)),
            R.add(R.mul(self.a, other.b), R.mul(self.b, other.d)),
            R.add(R.mul(self.c, other.a), R.mul(self.d, other.c)),
            R.add(R.mul(self.c, other.b), R.mul(self.d, other.d)),
        )

    def det(self):
        R = self.ring
        return R.sub(R.mul(self.a, self.d), R.mul(self.b, self.c))

    def inv(self):
        R = self.ring
        dt = self.det()
        if not R.is_unit(dt):
            raise DomainError("matrix determinant is not a unit")
        di = R.inv(dt)
        return Mat2(
            R,
            R.mul(di, self.d),
            R.mul(di, R.neg(self.b)),
            R.mul(di, R.neg(self.c)),
            R.mul(di, self.a),
        )

    def transpose(self):
        return Mat2(self.ring, self.a, self.c, self.b, self.d)

    def __pow__(self, e):
        if e < 0:
            return self.inv() ** (-e)
        r = identity(self.ring)
        b = self
        while e:
            if e & 1:
                r = r * b
            b = b * b
            e >>= 1
        return r

    def __eq__(self, other):
        return (
            isinstance(other, Mat2)
            and self.ring == other.ring
            and self.entries() == other.entries()
        )

    def __hash__(self):
        return hash((self.ring, self.entries()))

    def __repr__(self):
        return f"Mat2[{self.a!r}, {self.b!r}; {self.c!r}, {self.d!r}]"


def identity(ring):
    return Mat2(ring, ring.one(), ring.zero(), ring.zero(), ring.one())


def translation(ring, x):
    """Unipotent upper triangular with the given top-right entry."""
    return Mat2(ring, ring.one(), x, ring.zero(), ring.one())


def diag_mat(ring, alpha, beta):
    """Diagonal matrix with field-unit entries."""
    if alpha == 0 or beta == 0:
        raise DomainError("diagonal entries must be field units")
    return Mat2(ring, ring.from_field(alpha), ring.zero(), ring.zero(), ring.from_field(beta))


def borel_mat(ring, alpha, beta, x):
    """Upper triangular with unit diagonal entries alpha, beta and corner x."""
    if alpha == 0 or beta == 0:
        raise DomainError("diagonal entries must be field units")
    return Mat2(ring, ring.from_field(alpha), x, ring.zero(), ring.from_field(beta))


def weyl(ring):
    """The order-four rotation sending (x, y) to (y, -x)."""
    one_ = ring.one()
    return Mat2(ring, ring.zero(), ring.neg(one_), one_, ring.zero())


def domain_generator_matrices(F, kind, degree_bound):
    """The domain group's generators: the Weyl element, the translations
    T(c t^i) for units c and degrees i below the bound, and for GL over a
    field with more than two elements one constant diagonal diag(g, 1)."""
    R = poly_ring(F)
    mats = [weyl(R)]
    for i in range(degree_bound):
        for c in F.units():
            mats.append(translation(R, Poly(F, [0] * i + [c])))
    if kind == "GL" and F.q > 2:
        mats.append(diag_mat(R, F.multiplicative_generator(), 1))
    return mats


def mat_over_polys(F, entries):
    """Build a polynomial matrix from four Poly (or field-element) entries."""
    R = poly_ring(F)
    es = []
    for e in entries:
        if isinstance(e, Poly):
            es.append(e)
        else:
            es.append(constant(F, e))
    return Mat2(R, *es)


def reduce_mat(m, R):
    """Reduce a polynomial matrix entrywise into the residue ring R."""
    return Mat2(
        R,
        R.reduce_poly(m.a),
        R.reduce_poly(m.b),
        R.reduce_poly(m.c),
        R.reduce_poly(m.d),
    )
