"""Two-by-two matrices over the polynomial ring F_q[t].

Entries are Poly objects over one field.  A matrix over a residue ring is
never built: reduce_mat gives its four residue codes, and matgroups packs
them into the one integer code that stands for it.
"""

from .errors import DomainError
from .poly import Poly, constant, one, zero


class Mat2:
    """An immutable 2x2 matrix with entries in F_q[t]."""

    __slots__ = ("F", "a", "b", "c", "d")

    def __init__(self, F, a, b, c, d):
        self.F = F
        self.a = a
        self.b = b
        self.c = c
        self.d = d

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def __mul__(self, other):
        if other.F is not self.F:
            raise DomainError("matrices live over different fields")
        return Mat2(
            self.F,
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def det(self):
        return self.a * self.d - self.b * self.c

    def inv(self):
        dt = self.det()
        if dt.degree != 0:
            raise DomainError("matrix determinant is not a unit")
        di = self.F.inv(dt.constant_term())
        return Mat2(
            self.F,
            self.d.scale(di),
            (-self.b).scale(di),
            (-self.c).scale(di),
            self.a.scale(di),
        )

    def transpose(self):
        return Mat2(self.F, self.a, self.c, self.b, self.d)

    def __eq__(self, other):
        return (
            isinstance(other, Mat2)
            and self.F is other.F
            and self.entries() == other.entries()
        )

    def __hash__(self):
        return hash(self.entries())

    def __repr__(self):
        return f"Mat2[{self.a!r}, {self.b!r}; {self.c!r}, {self.d!r}]"


def translation(F, x):
    """Unipotent upper triangular with the given top-right entry."""
    return Mat2(F, one(F), x, zero(F), one(F))


def diag_mat(F, alpha, beta):
    """Diagonal matrix with field-unit entries."""
    if alpha == 0 or beta == 0:
        raise DomainError("diagonal entries must be field units")
    return Mat2(F, constant(F, alpha), zero(F), zero(F), constant(F, beta))


def borel_mat(F, alpha, beta, x):
    """Upper triangular with unit diagonal entries alpha, beta and corner x."""
    if alpha == 0 or beta == 0:
        raise DomainError("diagonal entries must be field units")
    return Mat2(F, constant(F, alpha), x, zero(F), constant(F, beta))


def weyl(F):
    """The order-four rotation sending (x, y) to (y, -x)."""
    return Mat2(F, zero(F), -one(F), one(F), zero(F))


def domain_generator_matrices(F, kind, degree_bound):
    """The domain group's generators: the Weyl element, the translations
    T(c t^i) for units c and degrees i below the bound, and for GL over a
    field with more than two elements one constant diagonal diag(g, 1)."""
    mats = [weyl(F)]
    for i in range(degree_bound):
        for c in F.units():
            mats.append(translation(F, Poly(F, [0] * i + [c])))
    if kind == "GL" and F.q > 2:
        mats.append(diag_mat(F, F.multiplicative_generator(), 1))
    return mats


def mat_over_polys(F, entries):
    """Build a polynomial matrix from four Poly (or field-element) entries."""
    return Mat2(F, *(e if isinstance(e, Poly) else constant(F, e) for e in entries))


def reduce_mat(m, R):
    """The ring R and the residue codes of the four entries of m modulo
    R's modulus; matgroups.mat_code packs them."""
    return (R, *(R.reduce_poly(e) for e in m.entries()))
