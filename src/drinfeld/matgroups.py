"""Finite matrix groups: SL2 and GL2 over residue rings of F_q[t].

A matrix over a residue ring of size S is only its int64 code
((a*S + b)*S + c)*S + d, and the group operation works on whole code
arrays through the ring's dense tables.  Enumeration is by generator
closure, checked against the exact order formula computed from the
modulus factorization.
"""

import numpy as np

from .config import DEFAULT_GROUP_CAP
from .errors import DomainError
from .fingroup import FinGroup, closure, refuse_above, small_generating_set
from .mat2 import domain_generator_matrices, reduce_mat
from .poly import factorize

_ENUM_CACHE = {}


def pack(S, a, b, c, d):
    """The code of the matrix with entries a, b, c, d in a ring of size S;
    entries may be numpy arrays.  ResidueMatrixGroup.decode inverts it."""
    return ((a * S + b) * S + c) * S + d


def mat_code(reduced):
    """Pack a reduced matrix, as mat2.reduce_mat returns it, into its code."""
    R, a, b, c, d = reduced
    return pack(R.size, a, b, c, d)


class ResidueMatrixGroup(FinGroup):
    """SL2 or GL2 over a residue ring, on packed matrix codes."""

    def __init__(self, R, kind="SL"):
        if kind not in ("SL", "GL"):
            raise DomainError("kind must be 'SL' or 'GL'")
        self.R = R
        self.kind = kind
        self.S = R.size
        add, mul, neg, unit, inv = R.tables()
        self._add = add
        self._mul = mul
        self._neg = neg
        self._unit = unit
        self._inv = inv

    def decode(self, codes):
        r, d = divmod(codes, self.S)
        r, c = divmod(r, self.S)
        a, b = divmod(r, self.S)
        return a, b, c, d

    def encode(self, a, b, c, d):
        return pack(self.S, a, b, c, d)

    def op(self, x, y):
        add, mul = self._add, self._mul
        xa, xb, xc, xd = self.decode(x)
        ya, yb, yc, yd = self.decode(y)
        return self.encode(
            add[mul[xa, ya], mul[xb, yc]],
            add[mul[xa, yb], mul[xb, yd]],
            add[mul[xc, ya], mul[xd, yc]],
            add[mul[xc, yb], mul[xd, yd]],
        )

    def inv_arr(self, x):
        add, mul, neg, inv = self._add, self._mul, self._neg, self._inv
        a, b, c, d = self.decode(x)
        det = add[mul[a, d], neg[mul[b, c]]]
        di = inv[det]
        return self.encode(
            mul[di, d], mul[di, neg[b]], mul[di, neg[c]], mul[di, a]
        )

    def det_arr(self, x):
        add, mul, neg = self._add, self._mul, self._neg
        a, b, c, d = self.decode(x)
        return add[mul[a, d], neg[mul[b, c]]]

    def member_mask(self, codes):
        """Membership by arithmetic: the code packs a matrix over the ring
        whose determinant is 1 (SL) or a unit (GL).  Nothing is enumerated."""
        codes = np.asarray(codes, dtype=np.int64)
        inside = (codes >= 0) & (codes < self.S**4)
        det = self.det_arr(np.where(inside, codes, 0))
        return inside & (det == 1 if self.kind == "SL" else self._unit[det])

    def identity_code(self):
        return int(self.encode(1, 0, 0, 1))

    def generators(self):
        """Reductions of the domain generators of SL2; for GL2 also the
        diagonals diag(u, 1) that generate the ring's unit group."""
        R = self.R
        gens = {mat_code(reduce_mat(m, R)) for m in domain_generator_matrices(R.F, "SL", R.d)}
        if self.kind == "GL":
            diagonals = self.encode(R.units(), 0, 0, 1)
            gens.update(small_generating_set(self, diagonals))
        return sorted(gens)

    def order_formula(self):
        """Exact order from the modulus factorization."""
        n = 1
        for p, e in factorize(self.R.modulus)[1]:
            s = p.norm_size()
            size = s**e
            if self.kind == "SL":
                n *= size**3 * (s * s - 1) // (s * s)
            else:
                n *= size**4 * (s - 1) * (s * s - 1) // (s**3)
        return n

    def elements(self, cap=DEFAULT_GROUP_CAP):
        key = (self.R, self.kind)
        arr = _ENUM_CACHE.get(key)
        n = self.order_formula() if arr is None else arr.size
        refuse_above(n, cap, f"{self.kind}2 group")
        if arr is None:
            arr = closure(self, self.generators(), cap=n)
            if arr.size != n:
                raise AssertionError(
                    f"closure found {arr.size} elements, formula says {n}"
                )
            _ENUM_CACHE[key] = arr
        return arr

    def order(self):
        return self.order_formula()

    def __repr__(self):
        return f"ResidueMatrixGroup({self.kind}2, {self.R!r})"
