"""Automorphisms of the rank-two matrix groups over F_q[t].

Standard automorphisms: conjugation, the transpose-inverse, determinant
twists, and coefficient-field or variable substitutions.  Non-standard
ones act on the triangular factor only: along the division steps of a
matrix (amalgam.matrix_to_word) they replace each translation quotient
and the last triangular corner by its image under an F_q-linear bijection
of the polynomial ring that fixes 1 and all large-degree monomials.

Applying an automorphism s to a handle (h, U) produces the handle
(h o s^-1, U) for the image subgroup s(H); the composed map is always
rebuilt in table form, valid by construction and not re-checked.
"""

from dataclasses import dataclass
from itertools import combinations

from .amalgam import (
    TableHom,
    matrix_to_word,
    reduction_as_table_hom,
    ReductionHom,
    t_power_cycle,
)
from .config import DEFAULT_CONFIG
from .errors import CapExceeded, DomainError
from .fields import field, field_from_label
from .mat2 import Mat2, borel_mat, mat_over_polys, translation, weyl
from .poly import (
    MonicIdeal,
    Poly,
    code_to_digits,
    digits_to_code,
    one,
    poly_from_string,
    residue_ring,
    t_power,
)
from .subgroups import (
    CongruenceReport,
    QuasiLevel,
    SubgroupHandle,
    congruence_at,
    ideal_basis,
    is_congruence,
    largest_ideal_inside,
    prime_coordinates,
    quasi_level,
    report_to_json,
)
from .subspace import apply_matrix, matrix_inverse, subspace


@dataclass(frozen=True)
class InnerAuto:
    """Conjugation x -> g x g^-1 by a unit-determinant matrix over F_q[t]."""

    g: Mat2

    def validate(self, F, kind):
        if self.g.F is not F:
            raise DomainError("conjugating matrix is over the wrong field")
        det = self.g.det()
        if det.is_zero() or det.degree != 0:
            raise DomainError("conjugating matrix must have unit determinant")

    def inverse(self):
        return InnerAuto(self.g.inv())

    def apply_matrix(self, m):
        return self.g * m * self.g.inv()


@dataclass(frozen=True)
class ContragredientAuto:
    """The transpose-inverse map x -> (x^T)^-1."""

    def validate(self, F, kind):
        pass

    def inverse(self):
        return self

    def apply_matrix(self, m):
        return m.transpose().inv()


@dataclass(frozen=True)
class DetTwistAuto:
    """Central twist x -> det(x)^k x; requires 2k+1 invertible mod q-1."""

    exponent: int

    def _check(self, F):
        q1 = F.q - 1
        if q1 > 1:
            from math import gcd

            if gcd(2 * self.exponent + 1, q1) != 1:
                raise DomainError("determinant twist is not bijective for this exponent")

    def validate(self, F, kind):
        self._check(F)

    def inverse_exponent(self, F):
        q1 = F.q - 1
        if q1 == 1:
            return 0
        inv = pow(2 * self.exponent + 1, -1, q1)
        return (-self.exponent * inv) % q1

    def inverse(self):
        raise DomainError("determinant twist inverse depends on the field; use inverse_exponent")

    def apply_matrix(self, m):
        d = m.det()
        if d.degree != 0:
            raise DomainError("determinant twist needs a unit determinant")
        c = m.F.pow_(d.coeffs[0], self.exponent)
        return Mat2(m.F, *(e.scale(c) for e in m.entries()))


@dataclass(frozen=True)
class RingAuto:
    """Coefficient Frobenius power followed by t -> a t + b."""

    field_label: str
    a: int
    b: int
    frob: int

    def F(self):
        return field_from_label(self.field_label)

    def validate(self, F, kind):
        if F.label != self.field_label:
            raise DomainError("ring substitution is over the wrong field")
        F.check(self.a)
        F.check(self.b)
        if self.a == 0:
            raise DomainError("variable substitution needs an invertible leading coefficient")
        if not 0 <= self.frob < F.n:
            raise DomainError("coefficient Frobenius power out of range")

    def apply_poly(self, p):
        F = p.F
        shifted = p.frobenius_coeffs(self.frob)
        image_of_t = Poly(F, [self.b, self.a])
        return shifted.substitute(image_of_t)

    def inverse(self):
        F = self.F()
        e2 = (-self.frob) % F.n
        fa = F.frob_iter(self.a, e2)
        fb = F.frob_iter(self.b, e2)
        a2 = F.inv(fa)
        b2 = F.neg(F.mul(fb, a2))
        inv = RingAuto(self.field_label, a2, b2, e2)
        t = Poly(F, [0, 1])
        if inv.apply_poly(self.apply_poly(t)) != t:
            raise DomainError("ring substitution inverse sanity check failed")
        return inv

    def apply_matrix(self, m):
        return Mat2(m.F, *(self.apply_poly(e) for e in m.entries()))


@dataclass(frozen=True)
class NonStandardAuto:
    """Map of the triangular factor fixing constants, corner entries through phi.

    images[j] is phi(t^j); monomials above the listed range are fixed.
    phi must be an F_q-linear bijection with phi(1) = 1.
    """

    field_label: str
    images: tuple

    def F(self):
        return field_from_label(self.field_label)

    @property
    def affected_degree(self):
        return len(self.images) - 1

    def _block_dim(self):
        top = self.affected_degree
        for p in self.images:
            top = max(top, p.degree)
        return top + 1

    def _block_rows(self, F):
        dim = self._block_dim()
        rows = []
        for j in range(dim):
            if j < len(self.images):
                rows.append(self.images[j].coeff_vector(dim))
            else:
                rows.append(tuple(1 if i == j else 0 for i in range(dim)))
        return rows

    def validate(self, F, kind):
        if F.label != self.field_label:
            raise DomainError("linear corner map is over the wrong field")
        if not self.images:
            raise DomainError("linear corner map needs at least the image of 1")
        for p in self.images:
            if not isinstance(p, Poly) or p.F is not F:
                raise DomainError("corner map images must be polynomials over the field")
        if self.images[0] != one(F):
            raise DomainError("linear corner map must fix 1")
        matrix_inverse(F, self._block_rows(F))

    def apply_poly(self, p):
        F = p.F
        out = Poly(F, [])
        for j, c in enumerate(p.coeffs):
            if not c:
                continue
            img = self.images[j] if j < len(self.images) else t_power(F, j)
            out = out + img.scale(c)
        return out

    def inverse(self):
        F = self.F()
        rows = self._block_rows(F)
        inv_rows = matrix_inverse(F, rows)
        dim = len(inv_rows)
        images = []
        for j in range(len(self.images)):
            images.append(Poly(F, inv_rows[j]))
        inv = NonStandardAuto(self.field_label, tuple(images))
        for j in range(dim):
            probe = t_power(F, j)
            if inv.apply_poly(self.apply_poly(probe)) != probe:
                raise DomainError("corner map inverse sanity check failed")
        return inv

    def apply_matrix(self, m):
        # phi is F_q-linear and fixes 1, so [[a, x], [0, b]] -> [[a, phi(x)],
        # [0, b]] is a homomorphism of the triangular factor that fixes the
        # constants; the division steps of m need no normal form.
        F = m.F
        *steps, (alpha, beta, corner) = matrix_to_word(m)
        out = borel_mat(F, alpha, beta, self.apply_poly(corner))
        w_inv = weyl(F).inv()
        for q in reversed(steps):
            out = (w_inv if q is None else translation(F, self.apply_poly(q))) * out
        return out


def auto_to_json(auto):
    if isinstance(auto, list):
        return [auto_to_json(a) for a in auto]
    if isinstance(auto, InnerAuto):
        return {
            "type": "inner",
            "field": auto.g.F.label,
            "matrix": [e.digits_str() for e in auto.g.entries()],
        }
    if isinstance(auto, ContragredientAuto):
        return {"type": "contragredient"}
    if isinstance(auto, DetTwistAuto):
        return {"type": "det_twist", "exponent": auto.exponent}
    if isinstance(auto, RingAuto):
        return {
            "type": "ring",
            "field": auto.field_label,
            "scale": auto.a,
            "shift": auto.b,
            "frobenius": auto.frob,
        }
    if isinstance(auto, NonStandardAuto):
        return {
            "type": "nonstandard",
            "field": auto.field_label,
            "images": [p.digits_str() for p in auto.images],
        }
    raise DomainError(f"cannot serialize automorphism {auto!r}")


def auto_from_json(data):
    if isinstance(data, list):
        return [auto_from_json(d) for d in data]
    kind = data.get("type")
    if kind == "inner":
        F = field_from_label(data["field"])
        entries = [poly_from_string(F, s) for s in data["matrix"]]
        return InnerAuto(mat_over_polys(F, entries))
    if kind == "contragredient":
        return ContragredientAuto()
    if kind == "det_twist":
        return DetTwistAuto(int(data["exponent"]))
    if kind == "ring":
        return RingAuto(data["field"], int(data["scale"]), int(data["shift"]), int(data["frobenius"]))
    if kind == "nonstandard":
        F = field_from_label(data["field"])
        return NonStandardAuto(F.label, tuple(poly_from_string(F, s) for s in data["images"]))
    raise DomainError(f"unknown automorphism type {kind!r}")


def _as_table_hom(hom):
    if isinstance(hom, TableHom):
        return hom
    if isinstance(hom, ReductionHom):
        return reduction_as_table_hom(hom.ring, hom.kind)
    raise DomainError(f"cannot convert {hom!r} to table form")


def _conjugated_tables(hom, c):
    """Tables of x -> c * h(x) * c^-1."""
    T = hom.target
    ci = T.inv(c)

    def conj(v):
        return T.mul(T.mul(c, v), ci)

    pre = [tuple(conj(v) for v in tab) for tab in hom.pre_tables]
    cyc = [tuple(conj(v) for v in tab) for tab in hom.cyc_tables]
    const = {k: conj(v) for k, v in hom.const_table.items()}
    return const, pre, cyc


def compose_with_inverse(hom, auto):
    """Table form of x -> h(auto^-1(x))."""
    table = _as_table_hom(hom)
    F = table.F
    if isinstance(auto, InnerAuto):
        c = table.eval_matrix(auto.g.inv())
        const, pre, cyc = _conjugated_tables(table, c)
        return TableHom(F, table.kind, table.target, const, pre, cyc)
    if isinstance(auto, ContragredientAuto):
        c = table.eval_matrix(weyl(F))
        _, pre, cyc = _conjugated_tables(table, c)
        const = {}
        for key in table.const_table:
            m = mat_over_polys(F, key)
            mi = m.transpose().inv()
            k2 = tuple(e.coeffs[0] if e.coeffs else 0 for e in mi.entries())
            const[key] = table.const_table[k2]
        return TableHom(F, table.kind, table.target, const, pre, cyc)
    if isinstance(auto, DetTwistAuto):
        k2 = auto.inverse_exponent(F)
        const = {}
        for key, v in table.const_table.items():
            a, b, c_, d = key
            det = F.sub(F.mul(a, d), F.mul(b, c_))
            s = F.pow_(det, k2)
            key2 = tuple(F.mul(s, x) for x in key)
            const[key] = table.const_table[key2]
        return TableHom(F, table.kind, table.target, const, table.pre_tables, table.cyc_tables)
    if isinstance(auto, RingAuto):
        inv = auto.inverse()
        f = table.conductor.gen
        R = residue_ring(f)
        u = R.reduce_poly(inv.apply_poly(Poly(F, [0, 1])))
        pre_len, _, residues = t_power_cycle(R, u)
        e2 = inv.frob
        tables = []
        for code in residues:
            lifted = R.lift(code)
            tab = tuple(
                table.translation_image(lifted.scale(F.frob_iter(c, e2)))
                for c in range(F.q)
            )
            tables.append(tab)
        const = {}
        for key, _ in table.const_table.items():
            key2 = tuple(F.frob_iter(x, e2) for x in key)
            const[key] = table.const_table[key2]
        return TableHom(
            F, table.kind, table.target, const, tables[:pre_len], tables[pre_len:]
        )
    if isinstance(auto, NonStandardAuto):
        inv = auto.inverse()
        pre, cyc = table.translation_period()
        new_pre = max(pre, inv.affected_degree + 1)
        new_tables = []
        for i in range(new_pre + cyc):
            img = inv.apply_poly(t_power(F, i))
            tab = tuple(table.translation_image(img.scale(c)) for c in range(F.q))
            new_tables.append(tab)
        return TableHom(
            F,
            table.kind,
            table.target,
            dict(table.const_table),
            new_tables[:new_pre],
            new_tables[new_pre:],
        )
    raise DomainError(f"unknown automorphism {auto!r}")


def apply_auto(auto, handle, config=DEFAULT_CONFIG):
    """Handle for the image of the handle's subgroup under the automorphism."""
    if isinstance(auto, list):
        out = handle
        for a in auto:
            out = apply_auto(a, out, config)
        return out
    auto.validate(handle.F, handle.kind)
    hom2 = compose_with_inverse(handle.hom, auto)
    return SubgroupHandle(hom2, handle.subgroup, name=handle.name)


# -- predicted quasi-level transforms


def _lift_rows(ql):
    """Basis of the quasi-level modulo its conductor, as polynomials: each
    row's base-p digits are read as a residue code, whose base-q digits are
    the coefficients."""
    F = ql.F
    d = ql.conductor.gen.degree
    return [Poly(F, code_to_digits(digits_to_code(r, F.p), F.q, d)) for r in ql.W.basis]


def _span_mod(F, modulus, polys):
    """Span of the polynomials modulo the modulus, in prime coordinates."""
    rows = [prime_coordinates(F, p, modulus) for p in polys]
    return subspace(field(F.p), F.n * modulus.degree, rows)


def transform_quasi_level(auto, ql):
    """Closed-form image of a quasi-level under the automorphism.

    Available for substitutions (apply to everything), determinant twists
    (translations are untouched), and corner maps (new conductor gains the
    t-power needed to clear the affected degrees).  Conjugation and the
    transpose-inverse move translations out of triangular form, so no
    closed form is returned for them.  The image of W + (f) modulo the new
    conductor is spanned by the images of the lifted basis of W and of a
    basis of (f) modulo the new conductor.
    """
    F = ql.F
    f = ql.conductor.gen
    if isinstance(auto, DetTwistAuto):
        return ql
    if isinstance(auto, RingAuto):
        cond2 = MonicIdeal(auto.apply_poly(f))
    elif isinstance(auto, NonStandardAuto):
        val = 0
        while val < len(f.coeffs) and f.coeffs[val] == 0:
            val += 1
        k0 = max(0, auto.affected_degree + 1 - val)
        cond2 = MonicIdeal(f * t_power(F, k0))
    else:
        raise DomainError("no closed-form quasi-level transform for this automorphism")
    polys = [*_lift_rows(ql), *ideal_basis(F, f, cond2.gen.degree)]
    W = _span_mod(F, cond2.gen, [auto.apply_poly(p) for p in polys])
    return QuasiLevel(F, cond2, W, largest_ideal_inside(F, cond2, W), ql.core_size)


def quasi_levels_agree(q1, q2):
    """Whether two quasi-levels describe the same subset of F_q[t]."""
    if q1.F is not q2.F:
        return False
    F = q1.F
    M = q1.conductor.intersect(q2.conductor).gen

    def span_mod_common(ql):
        f = ql.conductor.gen
        return _span_mod(F, M, [*_lift_rows(ql), *ideal_basis(F, f, M.degree)])

    return span_mod_common(q1) == span_mod_common(q2)


# -- refutation search


@dataclass
class RefutationOutcome:
    status: str
    auto: NonStandardAuto | list | None
    report: CongruenceReport | None
    tried: int


def refutation_to_json(outcome):
    return {
        "status": outcome.status,
        "auto": None if outcome.auto is None else auto_to_json(outcome.auto),
        "report": None if outcome.report is None else report_to_json(outcome.report),
        "tried": outcome.tried,
    }


def _independent_prefix(F, dim, rows):
    """Greedily keep rows that grow the span."""
    kept = []
    span = subspace(F, dim, [])
    for r in rows:
        if not span.contains(r):
            kept.append(r)
            span = span.sum_with(subspace(F, dim, [r]))
    return kept


def corner_map_between(F, d, source_polys, target_polys, fix_one_outside):
    """F_q-linear bijection on degrees below d with phi(1)=1 mapping the
    source span onto the target span, basis vector by basis vector."""
    one_vec = one(F).coeff_vector(d)
    src = [p.coeff_vector(d) for p in source_polys]
    tgt = [p.coeff_vector(d) for p in target_polys]
    if fix_one_outside:
        src = [one_vec] + src
        tgt = [one_vec] + tgt
    else:
        src = _independent_prefix(F, d, [one_vec] + src)
        tgt = _independent_prefix(F, d, [one_vec] + tgt)
    if len(src) != len(tgt):
        raise DomainError("source and target spans have different dimensions")
    s_space = subspace(F, d, src)
    t_space = subspace(F, d, tgt)
    if s_space.dim != len(src) or t_space.dim != len(tgt):
        raise DomainError("basis lists are not independent")
    src = src + list(s_space.complete_basis())
    tgt = tgt + list(t_space.complete_basis())
    inv_rows = matrix_inverse(F, src)
    images = []
    for j in range(d):
        ej = tuple(1 if i == j else 0 for i in range(d))
        lam = apply_matrix(F, inv_rows, ej)
        img = apply_matrix(F, tgt, lam)
        images.append(Poly(F, img))
    return NonStandardAuto(F.label, tuple(images))


def _corner_candidates(F, ql):
    """Basis of the quasi-level plus the monomial target combinations,
    highest degrees first, respecting whether 1 lies in the quasi-level
    (corner maps fix 1, so that membership is invariant)."""
    d = ql.conductor.gen.degree
    has_one = ql.contains(one(F))
    basis_polys = _lift_rows(ql)
    if has_one:
        rows = [p.coeff_vector(d) for p in [one(F)] + basis_polys]
        basis_polys = [Poly(F, r) for r in _independent_prefix(F, d, rows)]
    k = len(basis_polys)
    cands = []
    for combo in combinations(range(d), k):
        if (0 in combo) != has_one:
            continue
        cands.append(combo)
    cands.sort(key=lambda c: (sorted(c, reverse=True),), reverse=True)
    return d, has_one, basis_polys, cands


def _coordinate_shifts(F):
    """Degree-preserving substitutions t -> a t + b, identity first."""
    shifts = [None]
    for a in sorted(F.units()):
        for b in sorted(F.elements()):
            if a == 1 and b == 0:
                continue
            shifts.append(RingAuto(F.label, a, b, 0))
    return shifts


def refute_genuineness(handle, config=DEFAULT_CONFIG):
    """Search for a corner map making the handle's subgroup congruence.

    A handle that is congruence already needs no map; any other starts
    the corner-map search from the quasi-level the decision derived.
    """
    base = is_congruence(handle, config)
    if base.congruence:
        return RefutationOutcome("already_congruence", None, base, 0)
    return corner_map_search(handle, base.quasi_level, config)


def corner_map_search(handle, ql, config=DEFAULT_CONFIG):
    """Corner-map search for a non-congruence handle with quasi-level ql.

    Candidate maps send a basis of the quasi-level onto monomial sets.
    Each candidate is applied in full and decided at the level the
    transform law gives (transform_quasi_level), which is exact; a hit is
    decided again from scratch and is a machine-checkable certificate that
    the subgroup is not genuine.  If no pure corner map works, the same
    monomial-target search is repeated after each variable substitution
    t -> a t + b, so the outcome does not depend on the coordinate the
    handle happens to be written in; those hits certify with a two-step
    composite.
    """
    F = handle.F
    if F.n != 1:
        return RefutationOutcome("not_applicable", None, None, 0)
    tried = 0
    for prefix in _coordinate_shifts(F):
        if tried >= config.search_budget:
            break
        if prefix is None:
            shifted, shifted_ql = handle, ql
        else:
            try:
                shifted = apply_auto(prefix, handle, config)
                shifted_ql = quasi_level(shifted, config)
            except CapExceeded:
                continue
        d, has_one, basis_polys, cands = _corner_candidates(F, shifted_ql)
        for combo in cands:
            if tried >= config.search_budget:
                break
            targets = [t_power(F, j) for j in combo]
            if has_one:
                targets = [one(F)] + [t for t in targets if t != one(F)]
            try:
                auto = corner_map_between(F, d, basis_polys, targets, not has_one)
            except DomainError:
                continue
            tried += 1
            try:
                moved = apply_auto(auto, shifted, config)
                rep = congruence_at(moved, transform_quasi_level(auto, shifted_ql), config)
                if rep.congruence:
                    rep = is_congruence(moved, config)
            except CapExceeded:
                continue
            if rep.congruence:
                witness = auto if prefix is None else [prefix, auto]
                return RefutationOutcome("refuted", witness, rep, tried)
    return RefutationOutcome("no_refutation_found", None, None, tried)
