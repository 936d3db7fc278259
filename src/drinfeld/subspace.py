"""Linear algebra over a small finite field on plain coordinate tuples.

Vectors are tuples of field elements.  A subspace is held in reduced row
echelon form, which makes equal subspaces compare equal and gives every
coset a canonical representative supported on the non-pivot coordinates.
"""

from itertools import combinations, product

from .errors import DomainError


def rref(F, rows):
    """Reduced row echelon form.  Returns (rows, pivot_columns)."""
    mat = [list(r) for r in rows]
    if mat and any(len(r) != len(mat[0]) for r in mat):
        raise DomainError("rows have mixed lengths")
    ncols = len(mat[0]) if mat else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = F.inv(mat[r][c])
        mat[r] = [F.mul(inv, x) for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return [tuple(row) for row in mat[:r]], pivots


class SubspaceDesc:
    """A subspace of F_q^n in canonical reduced row echelon form."""

    __slots__ = ("F", "ambient_dim", "basis", "pivots")

    def __init__(self, F, ambient_dim, vectors):
        for v in vectors:
            if len(v) != ambient_dim:
                raise DomainError("vector length does not match the ambient dimension")
        rows, pivots = rref(F, list(vectors))
        self.F = F
        self.ambient_dim = ambient_dim
        self.basis = tuple(rows)
        self.pivots = tuple(pivots)

    @property
    def dim(self):
        return len(self.basis)

    @property
    def codim(self):
        return self.ambient_dim - len(self.basis)

    def nonpivots(self):
        ps = set(self.pivots)
        return tuple(c for c in range(self.ambient_dim) if c not in ps)

    def reduce_vector(self, v):
        """Canonical coset representative: eliminate all pivot coordinates."""
        F = self.F
        out = list(v)
        for row, p in zip(self.basis, self.pivots):
            c = out[p]
            if c != 0:
                out = [F.sub(x, F.mul(c, y)) for x, y in zip(out, row)]
        return tuple(out)

    def contains(self, v):
        return all(x == 0 for x in self.reduce_vector(v))

    def coset_coords(self, v):
        """Coordinates of the coset of v on the non-pivot positions."""
        red = self.reduce_vector(v)
        return tuple(red[c] for c in self.nonpivots())

    def sum_with(self, other):
        return SubspaceDesc(self.F, self.ambient_dim, self.basis + other.basis)

    def intersect(self, other):
        """Zassenhaus: row reduce [B1 B1; B2 0], read the right blocks of rows
        whose left block vanished."""
        F = self.F
        n = self.ambient_dim
        rows = [tuple(b) + tuple(b) for b in self.basis]
        rows += [tuple(b) + (0,) * n for b in other.basis]
        red, _ = rref(F, rows)
        out = []
        for row in red:
            if all(x == 0 for x in row[:n]):
                out.append(row[n:])
        return SubspaceDesc(F, n, out)

    def vectors(self):
        """Iterate every vector of the subspace."""
        F = self.F
        for coeffs in product(F.elements(), repeat=self.dim):
            acc = [0] * self.ambient_dim
            for c, row in zip(coeffs, self.basis):
                if c != 0:
                    acc = [F.add(x, F.mul(c, y)) for x, y in zip(acc, row)]
            yield tuple(acc)

    def complete_basis(self):
        """Unit vectors at the non-pivot positions; basis + these span F_q^n."""
        out = []
        for c in self.nonpivots():
            e = [0] * self.ambient_dim
            e[c] = 1
            out.append(tuple(e))
        return out

    def __eq__(self, other):
        return (
            isinstance(other, SubspaceDesc)
            and self.F is other.F
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.F.label, self.ambient_dim, self.basis))

    def __repr__(self):
        return f"SubspaceDesc(dim {self.dim} of F_{self.F.q}^{self.ambient_dim})"


def subspace(F, ambient_dim, vectors):
    return SubspaceDesc(F, ambient_dim, vectors)


def zero_space(F, n):
    return SubspaceDesc(F, n, [])


def iter_subspaces(F, n, dim):
    """All subspaces of F_q^n of the given dimension, each exactly once.

    Enumerates reduced-row-echelon profiles: a strictly increasing pivot
    set, then arbitrary entries at non-pivot columns right of each pivot.
    """
    if not 0 <= dim <= n:
        return
    if dim == 0:
        yield zero_space(F, n)
        return
    for pivots in combinations(range(n), dim):
        free = []
        for i, p in enumerate(pivots):
            for c in range(p + 1, n):
                if c not in pivots:
                    free.append((i, c))
        for values in product(F.elements(), repeat=len(free)):
            rows = [[0] * n for _ in range(dim)]
            for i, p in enumerate(pivots):
                rows[i][p] = 1
            for (i, c), v in zip(free, values):
                rows[i][c] = v
            yield SubspaceDesc(F, n, [tuple(r) for r in rows])


def count_subspaces(q, n, dim):
    """Gaussian binomial coefficient: subspaces of F_q^n of this dimension."""
    num = den = 1
    for i in range(dim):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def matrix_inverse(F, rows):
    """Inverse of a square matrix given as a tuple of rows (e_i maps to rows[i])."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DomainError("matrix is not square")
    aug = [list(r) + [1 if j == i else 0 for j in range(n)] for i, r in enumerate(rows)]
    red, pivots = rref(F, aug)
    if pivots != list(range(n)):
        raise DomainError("matrix is singular")
    return [tuple(row[n:]) for row in red]


def apply_matrix(F, rows, v):
    """Row-vector convention: v maps to sum_i v_i * rows[i]."""
    out = [0] * len(rows[0])
    for c, row in zip(v, rows):
        if c != 0:
            out = [F.add(x, F.mul(c, y)) for x, y in zip(out, row)]
    return tuple(out)
