"""Finite-index subgroups given as preimages of finite subgroups.

A subgroup handle is a pair (h, U): a homomorphism h from the rank-two
matrix group over F_q[t] to a finite group, together with a subgroup U of
the target, standing for the preimage of U under h.  Everything computed
here reduces questions about the infinite preimage to exact finite
calculations: the translation quasi-level, the largest ideal it contains,
and whether the preimage contains the kernel of reduction modulo that
ideal.
"""

from dataclasses import dataclass
from functools import reduce
from itertools import product
from math import lcm

import numpy as np

from .amalgam import (
    ReductionHom,
    TableHom,
    hom_from_json,
    hom_to_json,
    matrix_to_word,
    t_power_cycle,
)
from .config import DEFAULT_CONFIG, DEFAULT_GROUP_CAP
from .errors import CapExceeded, DomainError
from .fields import field
from .fingroup import (
    AdditiveQuotientGroup,
    ProductGroup,
    closure,
    contains_sorted,
    core_in,
    first_outside,
    refuse_above,
    small_generating_set,
)
from .mat2 import domain_generator_matrices, mat_over_polys
from .poly import (
    MonicIdeal,
    Poly,
    code_to_digits,
    digits_text,
    digits_to_code,
    one,
    poly_gcd,
    residue_ring,
    t_power,
)
from .subspace import SubspaceDesc, subspace


def prime_coordinates(F, a, modulus):
    """Coordinates of a mod modulus over the prime field.

    The residue ring modulo a degree-d modulus is a vector space of
    dimension n*d over F_p; these are the base-p digits of the residue
    code, so coefficient i contributes digits i*n .. i*n + n - 1.
    """
    code = digits_to_code((a % modulus).coeff_vector(modulus.degree), F.q)
    return code_to_digits(code, F.p, F.n * modulus.degree)


def ideal_basis(F, g, degree):
    """Basis over F_p of the multiples of g below the degree.

    Yields the polynomials g * t^i * c for i < degree - deg g, with c
    running over the basis 1, x, ..., x^(n-1) of F_q over F_p (field codes
    p^k); for g = 1 they map to the standard prime-field basis of the
    residues.  A generator, so a membership test can stop at the first
    polynomial outside.
    """
    for i in range(degree - g.degree):
        shifted = g * t_power(F, i)
        for k in range(F.n):
            yield shifted.scale(F.p**k)


def largest_ideal_inside(F, conductor, W):
    """Largest ideal whose image mod the conductor lies in the subspace.

    Every ideal of F_q[t] contained in an additive set that already
    contains the conductor ideal has generator dividing the conductor, so
    scanning monic divisors is exhaustive; a divisor g passes when W holds
    a basis of (g)/(conductor).  The passing divisors are closed under
    ideal sums, hence their gcd generates the largest one.
    """
    f = conductor.gen
    winners = []
    for ideal in conductor.divisors():
        g = ideal.gen
        if all(W.contains(prime_coordinates(F, b, f)) for b in ideal_basis(F, g, f.degree)):
            winners.append(g)
    if not winners:
        raise DomainError("no divisor of the conductor passed; conductor inconsistent")
    return MonicIdeal(reduce(poly_gcd, winners))


@dataclass(frozen=True)
class QuasiLevel:
    """Translation membership set of a preimage subgroup.

    W is the set of residues a mod conductor whose translation matrix maps
    into the normal core of the handle, recorded as a subspace over the
    prime field.  The level is the largest ideal contained in the set.
    """

    F: object
    conductor: MonicIdeal
    W: SubspaceDesc
    level: MonicIdeal
    core_size: int

    def contains(self, a):
        return self.W.contains(prime_coordinates(self.F, a, self.conductor.gen))

    @property
    def prime_dim(self):
        return self.W.dim

    @property
    def prime_codim(self):
        return self.W.codim

    def is_ideal(self):
        """True when the quasi-level equals its own level ideal."""
        expected = self.F.n * (self.conductor.gen.degree - self.level.gen.degree)
        return self.W.dim == expected


def ql_to_json(ql):
    return {
        "field": ql.F.label,
        "conductor": ql.conductor.gen.digits_str(),
        "level": ql.level.gen.digits_str(),
        "core_size": ql.core_size,
        "basis": [digits_text(row) for row in ql.W.basis],
    }


def check_in_target(target, codes):
    """Refuse codes that are not elements of the target group."""
    bad = first_outside(target, codes)
    if bad is not None:
        raise DomainError(f"code {bad} is not in the target group")


class SubgroupHandle:
    """A homomorphism h plus a subgroup U of its finite target.

    Stands for the preimage of U under h inside the domain matrix group;
    the effective subgroup is the intersection of U with the image of h.
    U is trusted to be a subgroup; handle_from_codes checks outside input.
    """

    def __init__(self, hom, subgroup, name=""):
        self.hom = hom
        arr = np.unique(np.asarray(subgroup, dtype=np.int64))
        if arr.size == 0:
            raise DomainError("a subgroup needs at least the identity")
        self.subgroup = arr
        self.name = name
        self._image = None

    @property
    def target(self):
        return self.hom.target

    @property
    def F(self):
        return self.hom.F

    @property
    def kind(self):
        return self.hom.kind

    def image(self, cap=DEFAULT_GROUP_CAP):
        """Image of h, computed once; every call is checked against its cap."""
        if self._image is None:
            self._image = closure(self.target, self.hom.image_generators(), cap)
        refuse_above(self._image.size, cap, "image")
        return self._image

    def intersection(self, cap=DEFAULT_GROUP_CAP):
        return np.intersect1d(self.subgroup, self.image(cap))

    def index_in_domain(self, cap=DEFAULT_GROUP_CAP):
        im = self.image(cap)
        inter = self.intersection(cap)
        if im.size % inter.size:
            raise DomainError("intersection with the image is not a subgroup")
        return im.size // inter.size

    def core(self, cap=DEFAULT_GROUP_CAP):
        """Largest subgroup of U meeting the image that the image normalizes."""
        gens = self.hom.image_generators()
        return core_in(self.target, gens, self.intersection(cap))

    def contains_matrix(self, m):
        return contains_sorted(self.subgroup, self.hom.eval_matrix(m))

    def __repr__(self):
        label = self.name or f"{self.subgroup.size} target elements"
        return f"SubgroupHandle({self.kind}2 over {self.F.label}, {label})"


def handle_to_json(handle):
    return {
        "hom": hom_to_json(handle.hom),
        "subgroup": [int(x) for x in handle.subgroup],
        "name": handle.name,
    }


def handle_from_json(data):
    return handle_from_codes(
        hom_from_json(data["hom"]), data["subgroup"], name=data.get("name", "")
    )


def handle_from_codes(hom, codes, name=""):
    """Handle for codes listing a whole subgroup; refuses codes outside the
    target and a list that is not closed."""
    handle = SubgroupHandle(hom, codes, name=name)
    check_in_target(hom.target, handle.subgroup)
    small_generating_set(hom.target, handle.subgroup)
    return handle


def handle_from_generators(hom, gens, cap=DEFAULT_GROUP_CAP, name=""):
    """Handle for the subgroup the given target codes generate."""
    check_in_target(hom.target, gens)
    return SubgroupHandle(hom, closure(hom.target, gens, cap), name=name)


def quasi_level(handle, config=DEFAULT_CONFIG):
    """Quasi-level of the handle: residues whose translation lies in the core.

    The translation image map factors through the conductor, and is
    additive, so the quasi-level is a subspace over the prime field of the
    residue ring modulo the conductor.  It is found by enumerating the
    span of the prime-basis translation images and intersecting with the
    normal core of the handle's subgroup.
    """
    hom = handle.hom
    G = handle.target
    F = hom.F
    core = handle.core(cap=config.group_cap)
    f = hom.conductor.gen
    nd = F.n * f.degree
    total = F.p**nd
    if total > config.enum_cap:
        raise CapExceeded(
            f"quasi-level enumeration needs {total} residues, above the cap {config.enum_cap}"
        )
    imgs = [hom.translation_image(b) for b in ideal_basis(F, one(F), f.degree)]
    arr = np.array([G.identity_code()], dtype=np.int64)
    for img in imgs:
        parts = []
        pw = G.identity_code()
        for _ in range(F.p):
            parts.append(G.op(arr, np.int64(pw)))
            pw = G.mul(pw, img)
        arr = np.concatenate(parts)
    idx = np.nonzero(np.isin(arr, core))[0]
    W = subspace(field(F.p), nd, [code_to_digits(int(i), F.p, nd) for i in idx])
    if F.p**W.dim != idx.size:
        raise DomainError("membership set is not additively closed")
    level = largest_ideal_inside(F, hom.conductor, W)
    return QuasiLevel(F, hom.conductor, W, level, int(core.size))


def _translation_degree_bound(hom, other):
    pre1, cyc1 = hom.translation_period()
    pre2, cyc2 = other.translation_period()
    return max(pre1, pre2) + lcm(cyc1, cyc2)


def sl_part_image(hom, config=DEFAULT_CONFIG):
    """Image of the determinant-one part of the domain group."""
    pre, cyc = hom.translation_period()
    mats = domain_generator_matrices(hom.F, "SL", pre + cyc)
    codes = [hom.eval_matrix(m) for m in mats]
    return closure(hom.target, codes, cap=config.group_cap)


def congruence_image(hom, ideal, config=DEFAULT_CONFIG):
    """Image under h of the kernel of reduction modulo the ideal.

    Computed by closing the paired images (h(g), g mod ideal) of the
    domain generators inside the direct product and slicing at the
    identity in the second coordinate.  Periodicity of translation images
    makes finitely many generators enough.
    """
    if ideal.is_zero():
        raise DomainError("reduction modulo the zero ideal is not finite")
    if ideal.is_unit_ideal():
        return sl_part_image(hom, config)
    S = residue_ring(ideal.gen)
    pi = ReductionHom(S, hom.kind)
    P0 = ProductGroup(hom.target, pi.target, config.group_cap)
    bound = _translation_degree_bound(hom, pi)
    pairs = []
    for m in domain_generator_matrices(hom.F, hom.kind, bound):
        pairs.append(int(P0.pack(np.int64(hom.eval_matrix(m)), np.int64(pi.eval_matrix(m)))))
    P = closure(P0, pairs, cap=config.group_cap)
    return P0.first_factor_slice(P)


@dataclass
class CongruenceReport:
    congruence: bool
    quasi_level: QuasiLevel
    image_size: int
    witness: int | None

    @property
    def level(self):
        return self.quasi_level.level


def report_to_json(report):
    return {
        "congruence": report.congruence,
        "quasi_level": ql_to_json(report.quasi_level),
        "image_size": report.image_size,
        "witness": report.witness,
    }


def is_congruence(handle, config=DEFAULT_CONFIG):
    """Decide whether the preimage contains a full reduction kernel."""
    return congruence_at(handle, quasi_level(handle, config), config)


def congruence_at(handle, ql, config=DEFAULT_CONFIG):
    """Congruence decision for a handle whose quasi-level is already known.

    The preimage contains the kernel of reduction modulo some nonzero
    ideal exactly when it contains the one at its own level, so a single
    image computation settles the question.  A witness code outside U
    certifies the negative answer.
    """
    E = congruence_image(handle.hom, ql.level, config)
    outside = np.setdiff1d(E, handle.subgroup)
    if outside.size:
        return CongruenceReport(False, ql, int(E.size), int(outside[0]))
    return CongruenceReport(True, ql, int(E.size), None)


def principal_congruence_handle(hom, ideal, config=DEFAULT_CONFIG, name=""):
    """Handle for the preimage of the image of the reduction kernel."""
    U = congruence_image(hom, ideal, config)
    return SubgroupHandle(hom, U, name=name)


def scalar_congruence_handle(modulus, kind="SL"):
    """Matrices reducing to a scalar modulo the given monic polynomial."""
    R = residue_ring(modulus)
    hom = ReductionHom(R, kind)
    units = R.units()
    scalars = hom.target.encode(units, 0, 0, units)
    codes = scalars[hom.target.member_mask(scalars)]
    return SubgroupHandle(hom, codes, name=f"scalar mod {modulus.digits_str()}")


def abelianized_constant_class(F):
    """Class map of the constant determinant-one group onto F_q, q <= 3.

    Sends the upper translation T(c) to c; exists only when the constant
    group has an abelian quotient of size q, which fails from q = 4 on.
    The class of a matrix is read off its division steps
    (amalgam.matrix_to_word), all taken mod q:

    * a translation step T(c) contributes c;
    * a rotation step w^-1 contributes 3: the lower translation
      L(x) = w T(-x) w^-1 has class -x, and w = T(-1) L(1) T(-1) has
      class -3;
    * the last factor [[alpha, corner], [0, alpha^-1]] is
      diag(alpha, alpha^-1) T(corner alpha^-1) and contributes
      corner * alpha^-1, because the diagonal lies in the derived group
      (trivial for q = 2, and -I in the quaternion group for q = 3).
    """
    if F.q > 3:
        raise DomainError("the constant group is perfect for q above 3")
    classes = {}
    for key in product(range(F.q), repeat=4):
        a, b, c, d = key
        if F.sub(F.mul(a, d), F.mul(b, c)) != 1:
            continue
        *steps, (alpha, _, corner) = matrix_to_word(mat_over_polys(F, key))
        theta = sum(3 if s is None else s.constant_term() for s in steps)
        classes[key] = (theta + F.mul(corner.constant_term(), F.inv(alpha))) % F.q
    return classes


def from_quasilevel_abelian(W, modulus, kind="SL"):
    """Handle whose quasi-level is W plus the ideal of the modulus, q <= 3.

    Builds the homomorphism onto the additive quotient of the residue ring
    by W that sends the translation by a to the class of a and constants
    to their abelianized class, then takes the preimage of zero.
    """
    F = W.F
    if kind != "SL":
        raise DomainError("abelian translation quotients need the determinant-one group")
    if F.q > 3:
        raise DomainError("no such abelian quotient exists for q above 3")
    if W.ambient_dim != modulus.degree:
        raise DomainError("ambient dimension must match the modulus degree")
    R = residue_ring(modulus)
    target = AdditiveQuotientGroup(W)

    def class_code(a):
        vec = (a % modulus).coeff_vector(modulus.degree)
        return int(target.vector_to_code(vec))

    pre, cyc, _ = t_power_cycle(R)
    pre_tables = []
    cyc_tables = []
    for i in range(pre + cyc):
        table = tuple(class_code(Poly(F, [0] * i + [c])) for c in range(F.q))
        (pre_tables if i < pre else cyc_tables).append(table)
    classes = abelianized_constant_class(F)
    const_table = {
        key: class_code(Poly(F, [theta])) for key, theta in classes.items()
    }
    hom = TableHom(F, "SL", target, const_table, pre_tables, cyc_tables)
    return SubgroupHandle(
        hom, [target.identity_code()], name="kernel of abelian translation quotient"
    )
