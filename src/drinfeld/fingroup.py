"""Vectorized finite-group engine on integer element codes.

Every realization presents its elements as int64 codes and implements the
group operation and inversion as numpy-broadcastable array functions.  All
higher algorithms (closure, normal closure, core, derived subgroup, quotient
construction, composition factors) work on sorted unique code arrays and are
shared across realizations.
"""

from dataclasses import dataclass
from itertools import permutations
from math import factorial, gcd

import numpy as np

from .config import DEFAULT_GROUP_CAP
from .errors import CapExceeded, DomainError
from .fields import prime_factors
from .poly import digits_to_code, digitwise

# ---------------------------------------------------------------------------
# base protocol


class FinGroup:
    """Abstract finite group on int64 element codes."""

    def op(self, a, b):
        raise NotImplementedError

    def inv_arr(self, a):
        raise NotImplementedError

    def identity_code(self):
        raise NotImplementedError

    def elements(self, cap=DEFAULT_GROUP_CAP):
        """Sorted unique array of all element codes; refused above the cap."""
        raise NotImplementedError

    def order(self):
        return int(self.elements().size)

    def member_mask(self, codes):
        """Boolean mask of the codes that are elements of the group."""
        return np.isin(codes, self.elements())

    def mul(self, x, y):
        return int(self.op(np.int64(x), np.int64(y)))

    def inv(self, x):
        return int(self.inv_arr(np.int64(x)))

    def commutator(self, x, y):
        return self.mul(self.mul(self.inv(x), self.inv(y)), self.mul(x, y))


def as_code_array(codes):
    return np.unique(np.asarray(list(codes), dtype=np.int64))


def refuse_above(n, cap, what):
    """Raise CapExceeded when a group of order n is above the cap."""
    if n > cap:
        raise CapExceeded(f"{what} of order {n} exceeds the cap of {cap}")


def first_outside(G, codes):
    """The first of the codes that is not an element of G, or None."""
    codes = np.asarray(codes, dtype=np.int64)
    bad = codes[~G.member_mask(codes)]
    return int(bad[0]) if bad.size else None


def contains_sorted(arr, x):
    i = int(np.searchsorted(arr, x))
    return i < arr.size and int(arr[i]) == int(x)


def conj_array(G, arr, g):
    """Conjugate every code in arr by g."""
    gi = np.int64(G.inv(g))
    return np.sort(G.op(G.op(gi, arr), np.int64(g)))


# ---------------------------------------------------------------------------
# closure and friends


def _orbit(seeds, images, cap, refusal):
    """Smallest superset of the sorted seeds that contains images(x) for
    every x in it, grown breadth first; refused once past the cap, seeds
    included."""
    known = frontier = seeds
    while frontier.size:
        if known.size > cap:
            raise CapExceeded(refusal)
        found = np.unique(images(frontier))
        frontier = found[np.isin(found, known, assume_unique=True, invert=True)]
        if frontier.size == 0:
            break
        known = np.union1d(known, frontier)
    return known


def closure(G, gens, cap=DEFAULT_GROUP_CAP):
    """Sorted element array of the subgroup generated by the given codes."""
    gens = as_code_array(list(gens) + [G.identity_code()])
    return _orbit(
        gens,
        lambda xs: G.op(xs[:, None], gens[None, :]).ravel(),
        cap,
        f"subgroup closure grew past the cap of {cap} elements",
    )


def conj_orbit(G, parent_gens, seeds, cap=DEFAULT_GROUP_CAP):
    """Smallest set containing the seeds and stable under conjugation by the
    subgroup the parent generators generate."""
    pg = [int(g) for g in as_code_array(parent_gens)]
    return _orbit(
        as_code_array(seeds),
        lambda xs: np.concatenate([conj_array(G, xs, g) for g in pg]),
        cap,
        f"conjugation orbit grew past the cap of {cap}",
    )


def normal_closure(G, parent_gens, seeds, cap=DEFAULT_GROUP_CAP):
    """Subgroup generated by all conjugates of the seeds under the parent."""
    return closure(G, conj_orbit(G, parent_gens, seeds, cap), cap)


def is_normal(G, parent_gens, sub):
    for g in parent_gens:
        if not np.array_equal(conj_array(G, sub, int(g)), sub):
            return False
    return True


def core_in(G, parent_gens, sub):
    """Largest subgroup of sub that is normal under the parent generators.

    Repeatedly replaces the candidate by its intersection with each
    conjugate; the fixed point is normal, sits inside sub, and contains
    every normal subgroup that does, so it is the core.
    """
    C = np.unique(np.asarray(sub, dtype=np.int64))
    changed = True
    while changed:
        changed = False
        for g in parent_gens:
            conj = conj_array(G, C, int(g))
            newC = np.intersect1d(C, conj, assume_unique=True)
            if newC.size != C.size:
                C = newC
                changed = True
    return C


def small_generating_set(G, arr):
    """Greedy generating set for the subgroup whose elements are arr."""
    target = arr.size
    gens = []
    cur = as_code_array([G.identity_code()])
    for x in arr:
        if contains_sorted(cur, x):
            continue
        gens.append(int(x))
        try:
            cur = closure(G, gens, target)
        except CapExceeded:
            break
        if cur.size == target:
            break
    if cur.size != target:
        raise DomainError("element array is not closed under the group operation")
    return gens


def pow_arr(G, arr, e):
    """Elementwise power by square and multiply."""
    out = np.full(np.shape(arr), G.identity_code(), dtype=np.int64)
    base = np.array(arr, dtype=np.int64, copy=True)
    e = int(e)
    if e < 0:
        base = G.inv_arr(base)
        e = -e
    while e:
        if e & 1:
            out = G.op(out, base)
        base = G.op(base, base)
        e >>= 1
    return out


def orders_arr(G, arr):
    """Multiplicative order of every code in arr."""
    e = G.identity_code()
    out = np.ones(arr.shape, dtype=np.int64)
    cur = np.array(arr, dtype=np.int64, copy=True)
    active = cur != e
    k = 1
    while active.any():
        k += 1
        cur[active] = G.op(cur[active], arr[active])
        done = active & (cur == e)
        out[done] = k
        active &= ~done
        if k > 10**7:
            raise AssertionError("order computation ran away")
    return out


def derived_subgroup(G, arr, cap=DEFAULT_GROUP_CAP):
    """Commutator subgroup of the subgroup with element array arr."""
    gens = small_generating_set(G, arr)
    comms = []
    for a in gens:
        for b in gens:
            comms.append(G.commutator(a, b))
    return normal_closure(G, gens, comms, cap)


# ---------------------------------------------------------------------------
# realizations


class SubgroupAsGroup(FinGroup):
    """A subgroup viewed as a group in its own right, sharing parent codes."""

    def __init__(self, parent, arr):
        while isinstance(parent, SubgroupAsGroup):
            parent = parent.parent
        self.parent = parent
        self._els = np.unique(np.asarray(arr, dtype=np.int64))

    def op(self, a, b):
        return self.parent.op(a, b)

    def inv_arr(self, a):
        return self.parent.inv_arr(a)

    def identity_code(self):
        return self.parent.identity_code()

    def elements(self):
        return self._els


class QuotientGroup(FinGroup):
    """H/N presented on canonical coset representatives (minimum code).

    N must be normal in H.  The representative map multiplies by all of N
    and takes the minimum, chunked to bound memory.
    """

    def __init__(self, parent, H, N):
        self.parent = parent
        self.N = np.unique(np.asarray(N, dtype=np.int64))
        H = np.unique(np.asarray(H, dtype=np.int64))
        self._e = int(self._rep(np.asarray([parent.identity_code()]))[0])
        self._els = np.unique(self._rep(H))

    def _rep(self, arr):
        if self.N.size == 1:
            return arr
        flat = np.asarray(arr, dtype=np.int64).ravel()
        out = np.empty_like(flat)
        chunk = max(1, (1 << 22) // self.N.size)
        for i in range(0, flat.size, chunk):
            seg = flat[i : i + chunk]
            prods = self.parent.op(seg[:, None], self.N[None, :])
            out[i : i + chunk] = prods.min(axis=1)
        return out.reshape(np.shape(arr))

    def op(self, a, b):
        return self._rep(self.parent.op(a, b))

    def inv_arr(self, a):
        return self._rep(self.parent.inv_arr(a))

    def identity_code(self):
        return self._e

    def elements(self):
        return self._els


class ProductGroup(FinGroup):
    """Direct product packed as index1 * |G2| + index2.

    Indexes refer to positions in the factors' sorted element arrays, so
    both factors are fully enumerated, each under the cap.  The product
    itself is never enumerated.
    """

    def __init__(self, G1, G2, cap=DEFAULT_GROUP_CAP):
        self.G1 = G1
        self.G2 = G2
        self.e1 = G1.elements(cap)
        self.e2 = G2.elements(cap)
        self.n2 = int(self.e2.size)
        self._e = self.pack(
            np.int64(G1.identity_code()), np.int64(G2.identity_code())
        )

    def pack(self, c1, c2):
        i1 = np.searchsorted(self.e1, c1)
        i2 = np.searchsorted(self.e2, c2)
        return i1 * self.n2 + i2

    def unpack(self, codes):
        i1, i2 = np.divmod(codes, self.n2)
        return self.e1[i1], self.e2[i2]

    def op(self, a, b):
        a1, a2 = self.unpack(a)
        b1, b2 = self.unpack(b)
        return self.pack(self.G1.op(a1, b1), self.G2.op(a2, b2))

    def inv_arr(self, a):
        a1, a2 = self.unpack(a)
        return self.pack(self.G1.inv_arr(a1), self.G2.inv_arr(a2))

    def identity_code(self):
        return int(self._e)

    def order(self):
        return int(self.e1.size) * int(self.e2.size)

    def elements(self):
        raise CapExceeded("full direct products are not enumerated")

    def first_factor_slice(self, arr):
        """Codes x of the first factor with (x, identity) in arr."""
        c1, c2 = self.unpack(np.asarray(arr, dtype=np.int64))
        mask = c2 == self.G2.identity_code()
        return np.unique(c1[mask])


class AdditiveQuotientGroup(FinGroup):
    """The additive group F_q^n / W on base-q packed non-pivot coordinates."""

    def __init__(self, W):
        self.W = W
        self.F = W.F
        self.q = W.F.q
        self.k = W.codim
        self.size = self.q**self.k

    def op(self, a, b):
        return digitwise(self.F.np_add, self.q, self.k, a, b)

    def inv_arr(self, a):
        return digitwise(self.F.np_neg, self.q, self.k, a)

    def identity_code(self):
        return 0

    def elements(self, cap=DEFAULT_GROUP_CAP):
        refuse_above(self.size, cap, "additive quotient")
        return np.arange(self.size, dtype=np.int64)

    def member_mask(self, codes):
        codes = np.asarray(codes, dtype=np.int64)
        return (codes >= 0) & (codes < self.size)

    def coords_to_code(self, coords):
        return digits_to_code(coords, self.q)

    def vector_to_code(self, vec):
        """Quotient image of an ambient coordinate vector."""
        return self.coords_to_code(self.W.coset_coords(vec))


class SymmetricGroup(FinGroup):
    """Permutations of 0..n-1 packed base n by their image tuples."""

    def __init__(self, n):
        if not 1 <= n <= 7:
            raise DomainError("symmetric groups are supported up to degree 7")
        self.n = n
        self.powtab = np.array([n**i for i in range(n)], dtype=np.int64)
        self._els = None

    def perm_to_code(self, perm):
        return digits_to_code(perm, self.n)

    def op(self, a, b):
        """Compose: the result sends i to a(b(i))."""
        n = self.n
        out = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
        for i in range(n):
            bi = (b // self.powtab[i]) % n
            abi = (a // self.powtab[bi]) % n
            out += abi * self.powtab[i]
        return out if out.shape else np.int64(out)

    def inv_arr(self, a):
        n = self.n
        out = np.zeros(np.shape(a), dtype=np.int64)
        for i in range(n):
            ai = (a // self.powtab[i]) % n
            out += i * self.powtab[ai]
        return out if out.shape else np.int64(out)

    def identity_code(self):
        return int(self.perm_to_code(tuple(range(self.n))))

    def elements(self, cap=DEFAULT_GROUP_CAP):
        refuse_above(factorial(self.n), cap, f"symmetric group S{self.n}")
        if self._els is None:
            self._els = np.sort(
                np.array(
                    [self.perm_to_code(p) for p in permutations(range(self.n))],
                    dtype=np.int64,
                )
            )
        return self._els


class TableGroup(FinGroup):
    """Explicit multiplication table on codes 0..n-1, mainly for tests."""

    def __init__(self, table):
        self.table = np.asarray(table, dtype=np.int64)
        n = self.table.shape[0]
        if self.table.shape != (n, n):
            raise DomainError("multiplication table must be square")
        e = None
        for i in range(n):
            if np.array_equal(self.table[i], np.arange(n)):
                e = i
                break
        if e is None:
            raise DomainError("table has no identity row")
        self._e = e
        inv = np.zeros(n, dtype=np.int64)
        for i in range(n):
            js = np.nonzero(self.table[i] == e)[0]
            if js.size != 1:
                raise DomainError("table row lacks a unique inverse")
            inv[i] = js[0]
        self._inv = inv
        self.n = n

    def op(self, a, b):
        return self.table[a, b]

    def inv_arr(self, a):
        return self._inv[a]

    def identity_code(self):
        return self._e

    def elements(self, cap=DEFAULT_GROUP_CAP):
        refuse_above(self.n, cap, "table group")
        return np.arange(self.n, dtype=np.int64)


# ---------------------------------------------------------------------------
# composition factors


@dataclass(frozen=True)
class FactorDescriptor:
    """A single composition factor, identified by order.

    kind is one of "cyclic_prime", "psl2_family", "other_simple",
    "unidentified".  param holds the prime for cyclic factors and the
    smallest field size whose fractional linear group has this order for
    the psl2 family.
    """

    kind: str
    order: int
    param: int = 0

    def sort_key(self):
        return (self.order, self.kind, self.param)


def _prime_powers_from(start):
    m = start
    while True:
        if len(prime_factors(m)) == 1:
            yield m
        m += 1


def psl2_order(m):
    """Order of the fractional linear group over F_m: m (m^2 - 1) / gcd(2, m - 1)."""
    return m * (m * m - 1) // gcd(2, m - 1)


def psl2_orders_up_to(q, n):
    """Orders over F_{q^s}, s = 1, 2, ..., that are at most n; for a fixed q
    they grow with s."""
    out = []
    m = q
    while psl2_order(m) <= n:
        out.append(psl2_order(m))
        m *= q
    return out


def psl2_order_param(n):
    """Smallest prime power m >= 4 whose fractional linear group order is n.

    The order sequence is not monotone across parities (the value at 8
    exceeds the one at 9), so the scan only stops once the smallest order
    still possible exceeds n."""
    for m in _prime_powers_from(4):
        if m * (m * m - 1) // 2 > n:
            return None
        if psl2_order(m) == n:
            return m


def describe_simple(order):
    if prime_factors(order) == [order]:
        return FactorDescriptor("cyclic_prime", order, order)
    m = psl2_order_param(order)
    if m is not None:
        return FactorDescriptor("psl2_family", order, m)
    return FactorDescriptor("other_simple", order)


def _find_proper_normal(K, cap):
    """Element array of some proper nontrivial normal subgroup, or None."""
    els = K.elements()
    n = int(els.size)
    if n == 1 or prime_factors(n) == [n]:
        return None
    gens = small_generating_set(K, els)
    orders = orders_arr(K, els)
    abelian = True
    for i, a in enumerate(gens):
        for b in gens[i + 1:]:
            if K.mul(a, b) != K.mul(b, a):
                abelian = False
                break
        if not abelian:
            break
    if abelian:
        p = prime_factors(n)[0]
        idx = int(np.nonzero(orders % p == 0)[0][0])
        y = pow_arr(K, els[idx : idx + 1], int(orders[idx]) // p)[0]
        return closure(K, [int(y)], cap)
    # a central element of prime order generates a normal subgroup
    central = np.ones(n, dtype=bool)
    for g in gens:
        central &= K.op(els, np.int64(g)) == K.op(np.int64(g), els)
    central &= els != K.identity_code()
    if central.any():
        idx = int(np.nonzero(central)[0][0])
        p = prime_factors(int(orders[idx]))[0]
        y = pow_arr(K, els[idx : idx + 1], int(orders[idx]) // p)[0]
        return closure(K, [int(y)], cap)
    # general scan: normal closures of single elements, small orders first
    scan = np.lexsort((els, orders))
    skip = as_code_array([K.identity_code()])
    for idx in scan:
        x = int(els[idx])
        if contains_sorted(skip, x):
            continue
        cls = conj_orbit(K, gens, [x], cap)
        try:
            return closure(K, cls, n // 2)
        except CapExceeded:
            skip = np.union1d(skip, cls)
    return None


def composition_factors(G, arr=None, cap=DEFAULT_GROUP_CAP):
    """Jordan-Hoelder factors of the subgroup with element array arr."""
    if arr is None:
        arr = G.elements()
    stack = [SubgroupAsGroup(G, arr)]
    out = []
    while stack:
        K = stack.pop()
        n = K.order()
        if n == 1:
            continue
        N = _find_proper_normal(K, cap)
        if N is None:
            out.append(describe_simple(n))
        else:
            stack.append(SubgroupAsGroup(K, N))
            stack.append(QuotientGroup(K, K.elements(), N))
    return sorted(out, key=lambda f: f.sort_key())


def all_subgroups(G, max_order=200):
    """Every subgroup, by breadth-first closure of one-element extensions."""
    els = G.elements()
    if els.size > max_order:
        raise CapExceeded(
            f"subgroup lattice enumeration capped at order {max_order}"
        )
    triv = as_code_array([G.identity_code()])
    seen = {triv.tobytes(): triv}
    frontier = [triv]
    while frontier:
        H = frontier.pop()
        for x in els:
            if contains_sorted(H, int(x)):
                continue
            K = closure(G, list(H) + [int(x)], cap=int(els.size))
            key = K.tobytes()
            if key not in seen:
                seen[key] = K
                frontier.append(K)
    return sorted(seen.values(), key=lambda a: (a.size, a.tobytes()))


def minimal_proper_index(G):
    """Smallest index of a proper subgroup, by full lattice enumeration."""
    subs = all_subgroups(G)
    n = G.order()
    proper = [s.size for s in subs if s.size < n]
    return n // max(proper)
