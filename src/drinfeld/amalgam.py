"""Euclid division steps of GL2 over F_q[t], and homomorphisms to finite groups.

Every matrix with unit determinant is a product of rotations w^-1,
translations T(q) and one final triangular factor, read off by euclidean
division (matrix_to_word).  The group is Nagao's amalgam of the constant
matrices and the triangular matrices over F_q[t], so a homomorphism is
determined by its restriction to each factor: any such factorization
gives the same image and no normal form is needed.  A homomorphism into
a finite group is described by where it sends constant matrices and the
translations T(c t^i); the translation data is a finite list of
per-degree tables together with an eventually repeating cycle, so
reductions modulo any monic polynomial and their twists all fit one
format.

Two realizations share the same calling surface: ReductionHom reduces the
entries natively, TableHom folds coefficient tables over the division
steps.  Both expose a conductor, a monic modulus f with every
unit-determinant matrix congruent to the identity mod f mapping to the
identity.
"""

import numpy as np

from .errors import DomainError, ValidationError
from .fields import field_from_label
from .fingroup import (
    AdditiveQuotientGroup,
    SymmetricGroup,
    TableGroup,
    first_outside,
)
from .mat2 import (
    domain_generator_matrices,
    reduce_mat,
    translation,
    weyl,
)
from .matgroups import ResidueMatrixGroup, mat_code
from .poly import (
    DIGIT_CHARS,
    MonicIdeal,
    digits_text,
    one as poly_one,
    poly_from_string,
    residue_ring,
    t_power,
    t_var,
    text_digits,
)
from .subspace import SubspaceDesc

# ---------------------------------------------------------------------------
# division steps


def matrix_to_word(m):
    """Euclid division steps of a unit-determinant polynomial matrix.

    Peels from the left: when the lower-left entry dominates, the rotation
    w^-1 swaps the rows (step None); otherwise one euclidean division step
    by the quotient q moves the top-left entry below the lower-left (step
    q, standing for the translation T(q)).  The lower-left degree drops at
    least every second step, so the loop ends with a triangular matrix.
    Returns the steps followed by that factor (alpha, beta, corner), so m
    is the product of the steps and [[alpha, corner], [0, beta]].
    """
    F = m.F
    det = m.det()
    if det.degree != 0:
        raise DomainError("matrix determinant is not a unit")
    w = weyl(F)
    steps = []
    work = m
    while not work.c.is_zero():
        if work.a.degree < work.c.degree:
            steps.append(None)
            work = w * work
        else:
            quot, _ = divmod(work.a, work.c)
            steps.append(quot)
            work = translation(F, -quot) * work
    steps.append((work.a.constant_term(), work.d.constant_term(), work.b))
    return tuple(steps)


# ---------------------------------------------------------------------------
# homomorphisms


def _check_domain(kind, m):
    det = m.det()
    if kind == "SL":
        if det != poly_one(m.F):
            raise DomainError("matrix is outside the determinant-one group")
    else:
        if det.degree != 0:
            raise DomainError("matrix determinant is not a unit")


class ReductionHom:
    """Reduce matrix entries modulo the monic modulus of a residue ring."""

    def __init__(self, R, kind="SL"):
        if kind not in ("SL", "GL"):
            raise DomainError("kind must be 'SL' or 'GL'")
        self.ring = R
        self.F = R.F
        self.kind = kind
        self.target = ResidueMatrixGroup(R, kind)
        self.conductor = MonicIdeal(R.modulus)

    def translation_image(self, a):
        return int(self.target.encode(1, self.ring.reduce_poly(a), 0, 1))

    def translation_period(self):
        """Pre-period and cycle of i -> image of T(t^i)."""
        pre, cyc, _ = t_power_cycle(self.ring)
        return pre, cyc

    def eval_matrix(self, m):
        _check_domain(self.kind, m)
        return int(mat_code(reduce_mat(m, self.ring)))

    def image_generators(self):
        """Images of the standard generators of the domain group."""
        mats = domain_generator_matrices(self.F, self.kind, self.ring.d)
        return sorted({self.eval_matrix(m) for m in mats})

    def __repr__(self):
        return f"ReductionHom({self.kind}2 mod {self.ring.modulus.digits_str()})"


class TableHom:
    """Homomorphism given by a constant table and periodic translation tables.

    pre_tables[i][c] is the image of T(c t^i) for i below the pre-period;
    cyc_tables[r][c] covers i = pre-period + r and repeats with the cycle
    length.  const_table maps 4-tuples of field elements to target codes.
    The constructor trusts its tables; hom_from_json runs validate().
    """

    def __init__(self, F, kind, target, const_table, pre_tables, cyc_tables=None):
        if kind not in ("SL", "GL"):
            raise DomainError("kind must be 'SL' or 'GL'")
        self.F = F
        self.kind = kind
        self.target = target
        self.const_table = dict(const_table)
        self.pre_tables = [tuple(t) for t in pre_tables]
        if cyc_tables is None:
            cyc_tables = [tuple([target.identity_code()] * F.q)]
        self.cyc_tables = [tuple(t) for t in cyc_tables]
        if not self.cyc_tables:
            raise DomainError("at least one cycle table is required")
        self.pre_len = len(self.pre_tables)
        self.cyc_len = len(self.cyc_tables)
        self.conductor = self._conductor()

    # -- structure

    def _cycle_trivial(self):
        e = self.target.identity_code()
        return all(all(v == e for v in t) for t in self.cyc_tables)

    def _conductor(self):
        F = self.F
        if self._cycle_trivial():
            gen = t_power(F, self.pre_len)
        else:
            cyc = t_power(F, self.cyc_len) - poly_one(F)
            gen = t_power(F, self.pre_len) * cyc
        return MonicIdeal(gen)

    def slot_table(self, i):
        if i < self.pre_len:
            return self.pre_tables[i]
        return self.cyc_tables[(i - self.pre_len) % self.cyc_len]

    # -- evaluation

    def translation_period(self):
        """Pre-period and cycle of i -> image of T(t^i)."""
        return self.pre_len, self.cyc_len

    def translation_image(self, a):
        T = self.target
        code = T.identity_code()
        for i in range(min(len(a.coeffs), self.pre_len)):
            c = a.coeffs[i]
            if c:
                code = T.mul(code, self.pre_tables[i][c])
        if len(a.coeffs) > self.pre_len:
            sums = [0] * self.cyc_len
            for i in range(self.pre_len, len(a.coeffs)):
                r = (i - self.pre_len) % self.cyc_len
                sums[r] = self.F.add(sums[r], a.coeffs[i])
            for r, s in enumerate(sums):
                if s:
                    code = T.mul(code, self.cyc_tables[r][s])
        return code

    def const_image(self, entries):
        try:
            return self.const_table[tuple(entries)]
        except KeyError:
            raise DomainError(f"constant {entries} is outside the domain group")

    def eval_matrix(self, m):
        """Fold the division steps of m into target codes: w^-1 and the
        diagonal of the last factor through the constant table, T(q) and
        the last corner (over alpha) through the translation tables."""
        _check_domain(self.kind, m)
        F = self.F
        T = self.target
        *steps, (alpha, beta, corner) = matrix_to_word(m)
        code = T.identity_code()
        for q in steps:
            if q is None:
                step = self.const_image((0, 1, F.neg(1), 0))
            else:
                step = self.translation_image(q)
            code = T.mul(code, step)
        code = T.mul(code, self.const_image((alpha, 0, 0, beta)))
        return T.mul(code, self.translation_image(corner.scale(F.inv(alpha))))

    def image_generators(self):
        gens = set(self.const_table.values())
        for t in self.pre_tables + self.cyc_tables:
            gens.update(t)
        return sorted(gens)

    # -- validation

    def _constants_group(self):
        R1 = residue_ring(t_power(self.F, 1))
        return ResidueMatrixGroup(R1, self.kind)

    def validate(self):
        F = self.F
        T = self.target
        q = F.q
        e = T.identity_code()
        for tables, name in ((self.pre_tables, "pre"), (self.cyc_tables, "cycle")):
            for i, tab in enumerate(tables):
                if len(tab) != q:
                    raise ValidationError(
                        "tables-shape",
                        f"{name} table {i} has {len(tab)} entries, expected {q}",
                    )
        slots = self.pre_tables + self.cyc_tables
        codes = [v for tab in slots for v in tab] + list(self.const_table.values())
        bad = first_outside(T, codes)
        if bad is not None:
            raise ValidationError(
                "codes-in-target", f"code {bad} is not in the target group"
            )
        for i, tab in enumerate(slots):
            if tab[0] != e:
                raise ValidationError(
                    "translation-zero", f"slot {i} sends 0 to a nonidentity code"
                )
            for a in range(q):
                for b in range(q):
                    if T.mul(tab[a], tab[b]) != tab[F.add(a, b)]:
                        raise ValidationError(
                            "translation-additive",
                            f"slot {i} is not additive at ({a}, {b})",
                        )
        flat = [v for tab in slots for v in tab]
        for x in flat:
            for y in flat:
                if T.mul(x, y) != T.mul(y, x):
                    raise ValidationError(
                        "translation-commute",
                        "translation images do not commute",
                    )
        Gc = self._constants_group()
        els = Gc.elements()
        if len(self.const_table) != els.size:
            raise ValidationError(
                "const-complete",
                f"constant table has {len(self.const_table)} entries, "
                f"the constant group has {els.size}",
            )
        tbl = np.empty(els.size, dtype=np.int64)
        for pos, code in enumerate(els):
            a, b, c, d = Gc.decode(int(code))
            key = (int(a), int(b), int(c), int(d))
            if key not in self.const_table:
                raise ValidationError(
                    "const-complete", f"constant {key} is missing from the table"
                )
            tbl[pos] = self.const_table[key]
        prods = Gc.op(els[:, None], els[None, :])
        pos = np.searchsorted(els, prods)
        lhs = np.asarray(
            [T.mul(int(x), int(y)) for x in tbl for y in tbl], dtype=np.int64
        ).reshape(els.size, els.size)
        if not np.array_equal(lhs, tbl[pos]):
            raise ValidationError(
                "const-mult", "constant table is not multiplicative"
            )
        diags = (
            [(a, F.inv(a)) for a in F.units()]
            if self.kind == "SL"
            else [(a, b) for a in F.units() for b in F.units()]
        )
        for alpha, beta in diags:
            rho = self.const_table[(alpha, 0, 0, beta)]
            rho_i = T.inv(rho)
            ratio = F.mul(alpha, F.inv(beta))
            for i, tab in enumerate(slots):
                for c in range(1, q):
                    got = T.mul(T.mul(rho, tab[c]), rho_i)
                    if got != tab[F.mul(ratio, c)]:
                        raise ValidationError(
                            "diag-conjugation",
                            f"slot {i} conflicts with conjugation by "
                            f"diag({alpha}, {beta})",
                        )
        tau0 = self.slot_table(0)
        for alpha, beta in diags:
            rho = self.const_table[(alpha, 0, 0, beta)]
            ai = F.inv(alpha)
            for c in range(q):
                want = T.mul(rho, tau0[F.mul(ai, c)])
                if self.const_table[(alpha, c, 0, beta)] != want:
                    raise ValidationError(
                        "borel-consistency",
                        f"constant table at triangular ({alpha}, {c}, {beta}) "
                        "conflicts with the translation table",
                    )
        return True

    def __repr__(self):
        return (
            f"TableHom({self.kind}2 over {self.F.label}, "
            f"pre {self.pre_len}, cycle {self.cyc_len})"
        )


def t_power_cycle(R, u=None):
    """Pre-period and cycle of the powers 1, u, u^2, ... in the ring.

    u is the residue code standing for t, by default t itself.  Returns
    (pre, cycle, codes) where codes lists the pre + cycle distinct powers
    in order of first appearance.
    """
    if u is None:
        u = R.reduce_poly(t_var(R.F))
    seen = {}
    codes = []
    code = 1
    while code not in seen:
        seen[code] = len(codes)
        codes.append(code)
        code = R.mul(code, u)
    return seen[code], len(codes) - seen[code], codes


def reduction_as_table_hom(R, kind="SL"):
    """Rebuild entrywise reduction as translation tables, for cross-checking.

    The image of T(c t^i) depends on t^i modulo the modulus, which is
    eventually periodic in i, so the tables close up after the power of t
    dividing the modulus with period the multiplicative order of t on the
    prime-to-t part.
    """
    F = R.F
    pre_len, cyc_len, reductions = t_power_cycle(R)
    target = ResidueMatrixGroup(R, kind)

    def table_for(code):
        return tuple(int(target.encode(1, R.scale(c, code), 0, 1)) for c in range(F.q))

    pre_tables = [table_for(c) for c in reductions[:pre_len]]
    cyc_tables = [table_for(c) for c in reductions[pre_len:]]
    const_table = {}
    Gc = ResidueMatrixGroup(residue_ring(t_power(F, 1)), kind)
    for code in Gc.elements():
        a, b, c, d = Gc.decode(int(code))
        key = (int(a), int(b), int(c), int(d))
        const_table[key] = int(target.encode(*key))
    return TableHom(F, kind, target, const_table, pre_tables, cyc_tables)


# ---------------------------------------------------------------------------
# serialization of targets and homs


def target_to_json(target):
    if isinstance(target, ResidueMatrixGroup):
        return {
            "type": "residue_matrix",
            "field": target.R.F.label,
            "modulus": target.R.modulus.digits_str(),
            "kind": target.kind,
        }
    if isinstance(target, AdditiveQuotientGroup):
        return {
            "type": "additive_quotient",
            "field": target.F.label,
            "ambient_dim": target.W.ambient_dim,
            "basis": [digits_text(row) for row in target.W.basis],
        }
    if isinstance(target, SymmetricGroup):
        return {"type": "symmetric", "degree": target.n}
    if isinstance(target, TableGroup):
        return {"type": "table", "table": [[int(x) for x in row] for row in target.table]}
    raise DomainError(f"cannot serialize target {target!r}")


def target_from_json(data):
    kind = data.get("type")
    if kind == "residue_matrix":
        F = field_from_label(data["field"])
        R = residue_ring(poly_from_string(F, data["modulus"]))
        return ResidueMatrixGroup(R, data["kind"])
    if kind == "additive_quotient":
        F = field_from_label(data["field"])
        n = int(data["ambient_dim"])
        rows = [text_digits(row, F.q, n) for row in data["basis"]]
        return AdditiveQuotientGroup(SubspaceDesc(F, n, rows))
    if kind == "symmetric":
        return SymmetricGroup(int(data["degree"]))
    if kind == "table":
        return TableGroup(data["table"])
    raise DomainError(f"unknown target type {kind!r}")


def hom_to_json(hom):
    if isinstance(hom, ReductionHom):
        return {
            "type": "reduction",
            "field": hom.F.label,
            "kind": hom.kind,
            "modulus": hom.ring.modulus.digits_str(),
        }
    if isinstance(hom, TableHom):
        return {
            "type": "tables",
            "field": hom.F.label,
            "kind": hom.kind,
            "target": target_to_json(hom.target),
            "const_table": {
                ",".join(DIGIT_CHARS[x] for x in key): int(v)
                for key, v in sorted(hom.const_table.items())
            },
            "pre_tables": [[int(v) for v in t] for t in hom.pre_tables],
            "cyc_tables": [[int(v) for v in t] for t in hom.cyc_tables],
        }
    raise DomainError(f"cannot serialize hom {hom!r}")


def hom_from_json(data):
    kind = data.get("type")
    if kind == "reduction":
        F = field_from_label(data["field"])
        R = residue_ring(poly_from_string(F, data["modulus"]))
        return ReductionHom(R, data["kind"])
    if kind == "tables":
        F = field_from_label(data["field"])
        target = target_from_json(data["target"])
        const_table = {}
        for key, v in data["const_table"].items():
            parts = key.split(",")
            if len(parts) != 4:
                raise DomainError(f"bad constant key {key!r}")
            const_table[tuple(DIGIT_CHARS.index(p) for p in parts)] = int(v)
        hom = TableHom(
            F,
            data["kind"],
            target,
            const_table,
            data["pre_tables"],
            data.get("cyc_tables"),
        )
        hom.validate()
        return hom
    raise DomainError(f"unknown hom type {kind!r}")
