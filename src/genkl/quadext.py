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

import numpy as np

from .padic import (
    CapacityError,
    GROUP_CAPACITY,
    hensel_sqrt_set,
    hilbert_symbol,
    is_prime,
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
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not a prime")
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
        """All units of O_E/p^k O_E as pairs, lexicographic order.

        A row with p not dividing a is all units; the other rows hold
        units only when E is unramified, at the b with p not dividing b.
        """
        p, pk = self.p, self.p**k
        unit_bs = [b for b in range(pk) if b % p] if self.e == 1 else []
        for a in range(pk):
            for b in range(pk) if a % p else unit_bs:
                yield (a, b)


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
    """Smith normal form D = U R V over Z with U, V unimodular, returned
    as (D, V, V^{-1}); U is not kept.

    Plain elementary-operation algorithm; matrices here stay tiny.  V^{-1}
    follows the column operations on V as row operations.
    """
    n = len(R)
    m = len(R[0]) if n else 0
    D = [row[:] for row in R]
    V = [[int(i == j) for j in range(m)] for i in range(m)]
    V_inv = [row[:] for row in V]

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]

    def swap_cols(i, j):
        for row in D:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]
        V_inv[i], V_inv[j] = V_inv[j], V_inv[i]

    def add_row(i, j, c):  # row_i += c * row_j
        D[i] = [a + c * b for a, b in zip(D[i], D[j])]

    def add_col(i, j, c):  # col_i += c * col_j; row_j -= c * row_i on V^{-1}
        for row in D:
            row[i] += c * row[j]
        for row in V:
            row[i] += c * row[j]
        V_inv[j] = [a - c * b for a, b in zip(V_inv[j], V_inv[i])]

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
        t += 1
    return D, V, V_inv


class UnitGroup:
    """(O_E/p_E^m)^* as an abelian group with canonical generators.

    Elements are ring pairs of O_E/p^M with M = ceil(m/e); when e = 2 and
    m is odd the group is the quotient by the extra layer U_E(2M-1), and
    pairs are canonicalized to class representatives.  The dlogs are arrays
    only, a row per class and the row of each flat index a p^M + b: O(p^2M)
    int64, which the capacity check on the p^2M pairs bounds.
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
        # the build holds arrays over all p^2M pairs (a, b): at most twice
        # the order, p^2/(p - 1) times it when a layer is quotiented out
        if order > GROUP_CAPACITY or self.pk**2 > 2 * GROUP_CAPACITY:
            raise CapacityError(f"unit group of size {order} mod {p}^{self.M} exceeds capacity")
        self._quotient_layer = e == 2 and m % 2 == 1
        self._b_mod = self.pk // p if self._quotient_layer else self.pk
        self._build(order)
        # the group exponent: a character's phases are integers mod L
        self.L = math.lcm(*self.orders)

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
        """The least pair of the class of the unit x.  A quotient layer
        multiplies (a, b) by (1, s p^(M-1)), giving (a - B b s p^(M-1),
        b + (a - A b) s p^(M-1)); v(B) = 1 kills the first shift and a - A b
        is a unit, so the class is every (a, b') with b' = b mod p^(M-1)."""
        return (x[0], x[1] % self._b_mod)

    def _build(self, order: int):
        ext, pk = self.ext, self.pk
        p, bmod = ext.p, self._b_mod
        # units in the fixed lexicographic order of ext.units (ascending flat
        # index a p^M + b), which keeps generator choices stable, and the
        # flat index of each one's class rep
        unit_a = np.arange(pk) % p != 0
        flat = np.flatnonzero(unit_a[:, None] | (unit_a & (ext.e == 1)))
        rep = flat - flat % pk + flat % bmod  # bmod divides p^M
        # the subgroup so far: the flat index of each class rep, and the row
        # of each flat index (-1 outside the subgroup).  Over raw_gens of
        # relative orders steps, row i is the class of the product of the
        # g_l^(i_l), i_l the digits of i in that mixed radix, i_0 lowest
        keys = np.array([pk])  # the flat index of (1, 0)
        row = np.full(pk * pk, -1, dtype=np.int64)
        row[keys] = 0
        raw_gens: list[tuple[int, int]] = []
        steps: list[int] = []
        R: list[list[int]] = []
        while len(keys) < order:
            cand = divmod(int(rep[np.argmax(row[rep] < 0)]), pk)
            # cand^j for 0 <= j < r, r the relative order of cand over the
            # subgroup: cand^r = x lies in it
            pows, x = [(1 % pk, 0)], cand
            while row[x[0] * pk + x[1]] < 0:
                pows.append(x)
                x = self._class_rep(ext.mul(x, cand, pk))
            assert len(pows) > 1, "closed-form order exceeds the group"
            r = len(pows)
            # relation g_i^r = prod_{j<i} g_j^{tail_j}, as row i of R
            tail = np.unravel_index(row[x[0] * pk + x[1]], steps[::-1])[::-1]
            for rel in R:
                rel.append(0)
            R.append([-int(t) for t in tail] + [r])
            # the new classes cand^j h, j-major, by block doubling: rows
            # [f, 2f) are rows [0, f) times cand^(f/n)
            n = len(keys)
            keys = np.resize(keys, n * r)
            f = n
            while f < n * r:
                t = min(f, n * r - f)
                ya, yb = ext.mul(np.divmod(keys[:t], pk), pows[f // n], pk)
                keys[f:f + t] = ya * pk + yb % bmod
                f += t
            row[keys[n:]] = np.arange(n, n * r)
            raw_gens.append(cand)
            steps.append(r)
        assert (row[rep] >= 0).all(), "closed-form order below the group"
        self.order = len(keys)
        del rep, keys  # the dlog rows below are the largest arrays
        # G = Z^s / (row span of R); Smith form D = U R V diagonalizes the
        # relation lattice.  New generators come from rows of V^{-1} and the
        # canonical dlog is w = V^T v (mod the invariant factors).
        D, V, V_inv = _smith_normal_form(R)
        s = len(raw_gens)
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
        Vk = np.array([[V[i][j] % invariants[j] for j in keep] for i in range(s)], dtype=np.int64)
        # the canonical dlog of every row, one raw generator l at a time: in
        # the first n r rows, row j n + h is g_l^j times row h
        mods = np.array(self.orders, dtype=np.int64)
        dlog = np.zeros((1, len(keep)), dtype=np.int64)
        for r, v in zip(steps, Vk.reshape(s, len(keep))):
            dlog = (np.arange(r)[:, None, None] * v + dlog).reshape(-1, len(keep))
            dlog %= mods
        self._dlog, self._row = dlog, row
        # each unit's flat index, for units_view
        self._units = flat
        # sanity: generators reproduce their own dlog
        for j, g in enumerate(gens):
            want = tuple(int(i == j) for i in range(len(keep)))
            assert self.dlog(g) == want, "generator dlog mismatch"

    # -- queries -----------------------------------------------------------

    def dlog(self, x: tuple[int, int]) -> tuple[int, ...]:
        a, b = self._class_rep((x[0] % self.pk, x[1] % self.pk))
        r = self._row.item(a * self.pk + b)
        if r < 0:
            raise ValueError(f"{x} is not a unit")
        return tuple(self._dlog[r].tolist())

    def embed_base_unit(self, x: int) -> tuple[int, int]:
        return self._class_rep((x % self.pk, 0))

    # -- the array view (built once, shared by every character scan) -------

    @cached_property
    def units_view(self):
        """Every unit pair (a, b) mod p^M, in the order of ext.units, as
        three arrays: its flat index a p^M + b; the dlog row of its class
        times the weights L/o_j, so a character's phase there is this row
        times its exponent vector, mod L; and v_E(u - 1) capped at m, whose
        maximum over a class is the class's depth."""
        pk, flat = self.pk, self._units
        a, b = np.divmod(flat, pk)
        rows = self._row[flat - b + b % self._b_mod]
        weights = np.array([self.L // o for o in self.orders], dtype=np.int64)
        depth = np.minimum(_v_E(self.ext, (a - 1) % pk, b, self.M), self.m)
        view = flat, self._dlog[rows] * weights, depth
        for arr in view:
            arr.flags.writeable = False
        return view


def _v_E(ext: QuadExtension, a, b, M: int) -> np.ndarray:
    """QuadExtension.v_E over arrays of residues a, b mod p^M, but e M
    where both vanish."""
    p, e = ext.p, ext.e

    def val(x):  # v_p of residues mod p^M, M at 0
        return sum((x % p**j == 0).astype(np.int64) for j in range(1, M + 1))

    return np.minimum(e * val(a), e * val(b) + e - 1)


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


def norm_fiber(ext: QuadExtension, k: int, t: int):
    """Units (a, b) of O_E/p^k with Nm = t mod p^k, as a generator.

    Cost O(p^k polylog): one quadratic solve per b.  Empty for non-unit t
    (norms of units are units).
    """
    p = ext.p
    pk = p**k
    t %= pk
    if t % p == 0:
        return
    for b in range(pk):
        for a in sorted(solve_norm_a(ext, b, t, k)):
            if ext.is_unit((a, b)):
                yield (a, b)


def norm_fiber_brute(ext: QuadExtension, k: int, t: int) -> set[tuple[int, int]]:
    """Reference enumeration of the norm fiber (test oracle)."""
    pk = ext.p**k
    t %= pk
    return {
        (a, b)
        for (a, b) in ext.units(k)
        if ext.norm((a, b), pk) == t
    }
