"""Quadratic extensions E/Q_p at fixed precision p^k.

An extension is described by the minimal polynomial x^2 + A x + B of a
normalized minimal element alpha0, so O_E = Z_p[alpha0] and every residue
is a pair a + b*alpha0 with a, b mod p^k.  Norm, trace, valuation and the
unit-group structure are all computed on these pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .padic import (
    CapacityError,
    GROUP_CAPACITY,
    hensel_sqrt_set,
    hilbert_symbol,
    legendre_symbol,
    valuation,
)

EXCEEDS_PRECISION = math.inf


def _is_square_qp(n: int, p: int) -> bool:
    """Whether a nonzero integer is a square in Q_p."""
    v = valuation(n, p)
    u = n // p**v
    if v % 2:
        return False
    if p == 2:
        return u % 8 == 1
    return legendre_symbol(u, p) == 1


@dataclass(frozen=True)
class QuadExtension:
    """E = Q_p(alpha0) with alpha0 a root of x^2 + A x + B."""

    p: int
    A: int
    B: int

    def __post_init__(self):
        D = self.A * self.A - 4 * self.B
        if D == 0 or _is_square_qp(D, self.p):
            raise ValueError("x^2 + Ax + B is reducible over Q_p")
        # normalized minimal element shapes
        if self.e == 1:
            if valuation(self.B, self.p) != 0:
                raise ValueError("unramified case needs B a unit")
            if self.p != 2 and self.A != 0:
                raise ValueError("unramified case over odd p uses A = 0")
        else:
            if valuation(self.B, self.p) != 1:
                raise ValueError("ramified case needs v(B) = 1")
            if self.p != 2 and self.A != 0:
                raise ValueError("ramified case over odd p uses A = 0")
            if self.p == 2 and self.d == 3 and self.A != 0:
                raise ValueError("d = 3 over Q_2 uses A = 0")

    @cached_property
    def disc(self) -> int:
        return self.A * self.A - 4 * self.B

    @cached_property
    def d(self) -> int:
        """Valuation of the discriminant."""
        return valuation(self.disc, self.p)

    @cached_property
    def e(self) -> int:
        """Ramification index: 1 when disc is a unit, else 2."""
        return 1 if self.d == 0 else 2

    @property
    def q(self) -> int:
        """Residue cardinality of the base field."""
        return self.p

    @property
    def q_E(self) -> int:
        """Residue cardinality of E."""
        return self.p ** (2 // self.e)

    def label(self) -> str:
        kind = "unramified" if self.e == 1 else f"ramified-d{self.d}"
        return f"Q{self.p}[x^2{self.A:+d}x{self.B:+d}]-{kind}"

    # --- ring arithmetic on pairs (a, b) mod p^k -------------------------

    def mul(self, x: tuple[int, int], y: tuple[int, int], pk: int) -> tuple[int, int]:
        a1, b1 = x
        a2, b2 = y
        return (
            (a1 * a2 - self.B * b1 * b2) % pk,
            (a1 * b2 + a2 * b1 - self.A * b1 * b2) % pk,
        )

    def norm(self, x: tuple[int, int], pk: int) -> int:
        a, b = x
        return (a * a - self.A * a * b + self.B * b * b) % pk

    def trace(self, x: tuple[int, int], pk: int) -> int:
        a, b = x
        return (2 * a - self.A * b) % pk

    def conj(self, x: tuple[int, int], pk: int) -> tuple[int, int]:
        a, b = x
        return ((a - self.A * b) % pk, (-b) % pk)

    def inv(self, x: tuple[int, int], pk: int) -> tuple[int, int]:
        n = self.norm(x, pk)
        n_inv = pow(n, -1, pk)
        ca, cb = self.conj(x, pk)
        return (ca * n_inv % pk, cb * n_inv % pk)

    def pow(self, x: tuple[int, int], n: int, pk: int) -> tuple[int, int]:
        if n < 0:
            x, n = self.inv(x, pk), -n
        out = (1 % pk, 0)
        while n:
            if n & 1:
                out = self.mul(out, x, pk)
            x = self.mul(x, x, pk)
            n >>= 1
        return out

    def v_E(self, x: tuple[int, int], k: int):
        """v_E(a + b alpha0) = min(e v(a), e v(b) + e - 1) on representatives
        mod p^k; EXCEEDS_PRECISION when both coordinates vanish mod p^k."""
        pk = self.p**k
        a, b = x[0] % pk, x[1] % pk
        if a == 0 and b == 0:
            return EXCEEDS_PRECISION
        va = EXCEEDS_PRECISION if a == 0 else valuation(a, self.p)
        vb = EXCEEDS_PRECISION if b == 0 else valuation(b, self.p)
        return min(self.e * va, self.e * vb + self.e - 1)

    def is_unit(self, x: tuple[int, int]) -> bool:
        a, b = x
        if self.e == 2:
            return a % self.p != 0
        return a % self.p != 0 or b % self.p != 0

    def units(self, k: int):
        """All units of O_E/p^k O_E as pairs, lexicographic order."""
        pk = self.p**k
        for a in range(pk):
            for b in range(pk):
                if self.is_unit((a, b)):
                    yield (a, b)


@dataclass(frozen=True)
class ExtResidue:
    """a + b*alpha0 in O_E/p^k O_E."""

    a: int
    b: int
    ext: QuadExtension
    k: int

    def __post_init__(self):
        pk = self.ext.p**self.k
        object.__setattr__(self, "a", self.a % pk)
        object.__setattr__(self, "b", self.b % pk)

    @property
    def pair(self) -> tuple[int, int]:
        return (self.a, self.b)

    @property
    def modulus(self) -> int:
        return self.ext.p**self.k

    def norm(self) -> int:
        return self.ext.norm(self.pair, self.modulus)

    def trace(self) -> int:
        return self.ext.trace(self.pair, self.modulus)

    def v_E(self):
        return self.ext.v_E(self.pair, self.k)

    def is_unit(self) -> bool:
        return self.ext.is_unit(self.pair)

    def conj(self) -> "ExtResidue":
        a, b = self.ext.conj(self.pair, self.modulus)
        return ExtResidue(a, b, self.ext, self.k)

    def __mul__(self, other: "ExtResidue") -> "ExtResidue":
        assert self.ext == other.ext and self.k == other.k
        a, b = self.ext.mul(self.pair, other.pair, self.modulus)
        return ExtResidue(a, b, self.ext, self.k)

    def __add__(self, other: "ExtResidue") -> "ExtResidue":
        assert self.ext == other.ext and self.k == other.k
        return ExtResidue(self.a + other.a, self.b + other.b, self.ext, self.k)

    def inverse(self) -> "ExtResidue":
        a, b = self.ext.inv(self.pair, self.modulus)
        return ExtResidue(a, b, self.ext, self.k)


def standard_extensions(p: int) -> list[QuadExtension]:
    """One representative per quadratic-extension class of Q_p.

    Odd p: the unramified extension plus the two ramified classes (B = p
    and B = p * nonresidue).  p = 2: the unramified extension, the two
    d = 2 classes and the four d = 3 classes.
    """
    if p == 2:
        return [
            QuadExtension(2, 1, 1),
            QuadExtension(2, -2, 2),   # Q_2(i)
            QuadExtension(2, -2, -2),  # Q_2(sqrt 3)
            QuadExtension(2, 0, -2),   # Q_2(sqrt 2)
            QuadExtension(2, 0, 2),    # Q_2(sqrt -2)
            QuadExtension(2, 0, -10),  # Q_2(sqrt 10)
            QuadExtension(2, 0, 10),   # Q_2(sqrt -10)
        ]
    nonres = next(n for n in range(2, p) if legendre_symbol(n, p) == -1)
    return [
        QuadExtension(p, 0, -nonres),
        QuadExtension(p, 0, p),
        QuadExtension(p, 0, p * nonres),
    ]


def eta_char(ext: QuadExtension, x) -> int:
    """The quadratic character of Q_p^x cutting out norms from E^x,
    computed as the Hilbert symbol (x, disc)_p.  Accepts ints or Fractions."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("eta is a character of Q_p^x")
    s = hilbert_symbol(x.numerator, ext.disc, ext.p)
    if x.denominator != 1:
        s *= hilbert_symbol(x.denominator, ext.disc, ext.p)
    return s


# ---------------------------------------------------------------------------
# Unit-group structure


def _smith_normal_form(R: list[list[int]]):
    """Smith normal form D = U R V over Z with U, V unimodular.

    Plain elementary-operation algorithm; matrices here stay tiny.
    """
    n = len(R)
    m = len(R[0]) if n else 0
    D = [row[:] for row in R]
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    V = [[int(i == j) for j in range(m)] for i in range(m)]

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in D:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(i, j, c):  # row_i += c * row_j
        D[i] = [a + c * b for a, b in zip(D[i], D[j])]
        U[i] = [a + c * b for a, b in zip(U[i], U[j])]

    def add_col(i, j, c):  # col_i += c * col_j
        for row in D:
            row[i] += c * row[j]
        for row in V:
            row[i] += c * row[j]

    t = 0
    while t < min(n, m):
        # find a pivot
        pivot = None
        for i in range(t, n):
            for j in range(t, m):
                if D[i][j] != 0:
                    if pivot is None or abs(D[i][j]) < abs(D[pivot[0]][pivot[1]]):
                        pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        done = False
        while not done:
            done = True
            for i in range(t + 1, n):
                if D[i][t] % D[t][t]:
                    add_row(i, t, -(D[i][t] // D[t][t]))
                    if D[i][t]:
                        swap_rows(t, i)
                        done = False
                elif D[i][t]:
                    add_row(i, t, -(D[i][t] // D[t][t]))
            for j in range(t + 1, m):
                if D[t][j] % D[t][t]:
                    add_col(j, t, -(D[t][j] // D[t][t]))
                    if D[t][j]:
                        swap_cols(t, j)
                        done = False
                elif D[t][j]:
                    add_col(j, t, -(D[t][j] // D[t][t]))
        # divisibility fix-up: D[t][t] must divide the rest
        for i in range(t + 1, n):
            for j in range(t + 1, m):
                if D[i][j] % D[t][t]:
                    add_row(t, i, 1)
                    done = False
                    break
            else:
                continue
            break
        if not done:
            continue
        if D[t][t] < 0:
            D[t] = [-x for x in D[t]]
            U[t] = [-x for x in U[t]]
        t += 1
    return D, U, V


def _matinv_int(M):
    """Inverse of a unimodular integer matrix (exact, via adjugate)."""
    n = len(M)
    import fractions

    A = [[fractions.Fraction(M[i][j]) for j in range(n)] for i in range(n)]
    I = [[fractions.Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if A[r][col] != 0)
        A[col], A[piv] = A[piv], A[col]
        I[col], I[piv] = I[piv], I[col]
        inv = 1 / A[col][col]
        A[col] = [x * inv for x in A[col]]
        I[col] = [x * inv for x in I[col]]
        for r in range(n):
            if r != col and A[r][col]:
                f = A[r][col]
                A[r] = [x - f * y for x, y in zip(A[r], A[col])]
                I[r] = [x - f * y for x, y in zip(I[r], I[col])]
    out = [[int(x) for x in row] for row in I]
    return out


class UnitGroup:
    """(O_E/p_E^m)^* as an abelian group with canonical generators.

    Elements are ring pairs of O_E/p^M with M = ceil(m/e); when e = 2 and
    m is odd the group is the quotient by the extra layer U_E(2M-1), and
    pairs are canonicalized to class representatives.  A full dlog map is
    built once (capacity-bounded).
    """

    def __init__(self, ext: QuadExtension, m: int):
        if m < 1:
            raise ValueError("precision exponent must be >= 1")
        self.ext = ext
        self.m = m
        p, e = ext.p, ext.e
        self.M = -(-m // e)
        self.pk = p**self.M
        order = self._closed_form_order()
        if order > GROUP_CAPACITY:
            raise CapacityError(f"unit group of size {order} exceeds capacity")
        self._quotient_layer = e == 2 and m % 2 == 1
        self._build()
        assert self.order == order, (self.order, order)

    def _closed_form_order(self) -> int:
        p, e, m = self.ext.p, self.ext.e, self.m
        M = -(-m // e)
        if e == 1:
            return p ** (2 * M) - p ** (2 * M - 2) if M else 1
        # |(O_E/p_E^m)^*| = q_E^m (1 - 1/q_E) with q_E = p
        full = p ** (2 * M) - p ** (2 * M - 1)
        return full // self.ext.p ** (2 * M - m)

    # -- construction ------------------------------------------------------

    def _class_rep(self, x: tuple[int, int]) -> tuple[int, int]:
        if not self._quotient_layer:
            return x
        return min(self.ext.mul(x, s, self.pk) for s in self._layer_subgroup)

    def _build(self):
        ext, pk = self.ext, self.pk
        p = ext.p
        if self._quotient_layer:
            step = p ** (self.M - 1)
            self._layer_subgroup = [(1, (t * step) % pk) for t in range(p)]
        one = self._class_rep((1 % pk, 0))
        dlog_raw: dict[tuple[int, int], tuple[int, ...]] = {one: ()}
        raw_gens: list[tuple[int, int]] = []
        rel_steps: list[int] = []
        rel_tails: list[tuple[int, ...]] = []
        for cand in self._element_candidates():
            cand = self._class_rep(cand)
            if cand in dlog_raw:
                continue
            # relative order of cand over the current subgroup
            r = 1
            x = cand
            while x not in dlog_raw:
                x = self._class_rep(ext.mul(x, cand, pk))
                r += 1
            tail = dlog_raw[x]
            i = len(raw_gens)
            new = {}
            for h, vec in dlog_raw.items():
                padded = vec + (0,) * (i - len(vec))
                y = h
                for j in range(1, r):
                    y = self._class_rep(ext.mul(y, cand, pk))
                    new[y] = padded + (j,)
            for h, vec in dlog_raw.items():
                dlog_raw[h] = vec + (0,) * (i - len(vec))
            dlog_raw.update(new)
            raw_gens.append(cand)
            rel_steps.append(r)
            rel_tails.append(tail)
        s = len(raw_gens)
        for h in dlog_raw:
            dlog_raw[h] = dlog_raw[h] + (0,) * (s - len(dlog_raw[h]))
        self.order = len(dlog_raw)
        # relation matrix: g_i^{r_i} = prod_{j<i} g_j^{tail_ij}
        R = []
        for i in range(s):
            row = [0] * s
            row[i] = rel_steps[i]
            for j, t in enumerate(rel_tails[i]):
                row[j] -= t
            R.append(row)
        if s == 0:
            self.gens, self.orders = [], []
            self.dlog_map = {one: ()}
            self._keep = []
            return
        # G = Z^s / (row span of R); Smith form D = U R V diagonalizes the
        # relation lattice.  New generators come from rows of V^{-1} and the
        # canonical dlog is w = V^T v (mod the invariant factors).
        D, _, V = _smith_normal_form(R)
        V_inv = _matinv_int(V)
        invariants = [D[i][i] for i in range(s)]
        keep = [i for i in range(s) if invariants[i] != 1]
        self.orders = [invariants[i] for i in keep]
        gens = []
        for j in keep:
            g = (1 % pk, 0)
            for i in range(s):
                g = self._class_rep(
                    ext.mul(g, ext.pow(raw_gens[i], V_inv[j][i] % self.order, pk), pk)
                )
            gens.append(g)
        self.gens = gens
        self.dlog_map = {
            h: tuple(
                sum(V[i][j] * vec[i] for i in range(s)) % invariants[j] for j in keep
            )
            for h, vec in dlog_raw.items()
        }
        self._keep = keep
        # sanity: generators reproduce their own dlog
        for j, g in enumerate(gens):
            want = tuple(int(i == j) for i in range(len(keep)))
            assert self.dlog_map[g] == want, "generator dlog mismatch"

    def _element_candidates(self):
        """Units in a deterministic order: residue-field part first, then
        the one-unit layers (keeps generator choices stable)."""
        ext, pk = self.ext, self.pk
        p = ext.p
        for a in range(pk):
            for b in range(pk):
                if ext.is_unit((a, b)):
                    yield (a, b)

    # -- queries -----------------------------------------------------------

    def dlog(self, x: tuple[int, int]) -> tuple[int, ...]:
        rep = self._class_rep((x[0] % self.pk, x[1] % self.pk))
        return self.dlog_map[rep]

    def elements(self):
        return self.dlog_map.keys()

    def depth(self, x: tuple[int, int]) -> int:
        """max v_E(u - 1) over the class of x, capped at m."""
        best = 0
        reps = (
            [self.ext.mul(x, s, self.pk) for s in self._layer_subgroup]
            if self._quotient_layer
            else [x]
        )
        for u in reps:
            v = self.ext.v_E((u[0] - 1, u[1]), self.M)
            v = self.m if v == EXCEEDS_PRECISION else min(int(v), self.m)
            best = max(best, v)
        return best

    def layer_elements(self, i: int):
        """Class reps whose class meets U_E(i)."""
        return [x for x in self.dlog_map if self.depth(x) >= i]

    def embed_base_unit(self, x: int) -> tuple[int, int]:
        return self._class_rep((x % self.pk, 0))

    # -- vectorized views (built lazily, shared by character scans) --------

    @property
    def np_tables(self):
        """(elements list, dlog int64 matrix, depth int64 array, lcm L,
        weight matrix L/o_j) for numpy character arithmetic."""
        if not hasattr(self, "_np_tables"):
            import numpy as _np

            els = sorted(self.dlog_map)
            r = len(self.orders)
            dlog = _np.zeros((len(els), r), dtype=_np.int64)
            depth = _np.zeros(len(els), dtype=_np.int64)
            for i, u in enumerate(els):
                dlog[i] = self.dlog_map[u]
                depth[i] = self.depth(u)
            L = 1
            for o in self.orders:
                L = L * o // math.gcd(L, o)
            weights = _np.array([L // o for o in self.orders], dtype=_np.int64)
            self._np_tables = (els, dlog, depth, L, weights)
        return self._np_tables


@lru_cache(maxsize=None)
def unit_group(ext: QuadExtension, m: int) -> UnitGroup:
    return UnitGroup(ext, m)


# ---------------------------------------------------------------------------
# Norm fibers


def solve_norm_a(ext: QuadExtension, b: int, t: int, k: int) -> set[int]:
    """All a mod p^k with Nm(a + b alpha0) = t (mod p^k)."""
    p = ext.p
    pk = p**k
    A, B = ext.A, ext.B
    D = ext.disc
    if p != 2:
        inv2 = pow(2, -1, pk)
        # (a - Ab/2)^2 = t + D b^2 / 4
        rhs = (t + D * b * b * pow(4, -1, pk)) % pk
        half = A * b * inv2 % pk
        return {(half + r) % pk for r in hensel_sqrt_set(rhs, p, k)}
    # p = 2: substitute y = 2a - A b, then y^2 = D b^2 + 4t mod 2^{k+2}
    rhs = (D * b * b + 4 * t) % (pk * 4)
    ys = hensel_sqrt_set(rhs, 2, k + 2)
    out = set()
    seen = set()
    for y in ys:
        if (y - A * b) % 2:
            continue
        y_mod = y % (2 * pk)
        if y_mod in seen:
            continue
        seen.add(y_mod)
        out.add(((y_mod + A * b) // 2) % pk)
    return out


def norm_fiber(ext: QuadExtension, k: int, t):
    """Units u of O_E/p^k with Nm(u) = t mod p^k, as a generator; t may be
    an int or a ResidueClass.

    Cost O(p^k polylog): one quadratic solve per b.  Empty for non-unit t
    (norms of units are units).
    """
    from .padic import ResidueClass

    if isinstance(t, ResidueClass):
        t = t.value
    p = ext.p
    pk = p**k
    t %= pk
    if t % p == 0:
        return
    for b in range(pk):
        for a in sorted(solve_norm_a(ext, b, t, k)):
            u = ExtResidue(a, b, ext, k)
            if u.is_unit():
                yield u


def norm_fiber_brute(ext: QuadExtension, k: int, t: int) -> set[tuple[int, int]]:
    """Reference enumeration of the norm fiber (test oracle)."""
    pk = ext.p**k
    t %= pk
    return {
        (a, b)
        for (a, b) in ext.units(k)
        if ext.norm((a, b), pk) == t
    }
