"""Characters xi of E^x on their unit filtration.

A character is a pair (unit part, uniformizer value): the unit part is an
exponent vector against the canonical generators of (O_E/p_E^m)^*, the
uniformizer value a root of unity stored as an exact Fraction in [0,1).
On units, xi(u) = e(unit_phase(u), L) with an integer phase mod L, the
exponent of the unit group; two phases with different L are compared by
cross-multiplying, and a unit phase becomes a Fraction only where it
joins the uniformizer phase.  Conductors, restrictions to Q_p^x, Galois
twists, neighborhoods xi[n] and the Postnikov linearization all operate
on this data.

unit_phase and __call__ evaluate one unit through UnitGroup.dlog; they
are the per-point oracles.  Scans over characters (enumerate_xi,
neighborhoods, ExtCharacter.conductor) read the group's one array view,
UnitGroup.units_view: the restriction test and the conductor of a block
of exponent vectors are integer matrix products mod L over its rows.  The
Postnikov solve evaluates xi once per element of p_E^i / p_E^c and tests
every candidate alpha at once, one integer matrix product mod p^W.

Derived invariants are memoized with functools.cache on positional-only
arguments, so each value has one cache key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property

import numpy as np

from .kernels import _BLOCK
from .padic import DirichletCharacter, e, phase_exponent, unit_group_zpk, valuation
from .quadext import EXCEEDS_PRECISION, QuadExtension, UnitGroup, _v_E, eta_char, unit_group


def c_psi_E(ext: QuadExtension) -> int:
    """Conductor exponent of psi_E = psi o Tr for psi of conductor 0."""
    return 0 if ext.e == 1 else -ext.d


class ExtCharacter:
    """A character of E^x, faithful on (O_E/p_E^m)^* plus a value at the
    uniformizer (p when unramified, alpha0 when ramified).

    Equality and hash are by value (extension, carrier precision, unit
    exponents, uniformizer phase), so the invariants memoized on a
    character are shared by every equal copy of it.
    """

    def __init__(
        self,
        ext: QuadExtension,
        group: UnitGroup,
        exps: tuple[int, ...],
        unif_phase: Fraction,
    ):
        self.ext = ext
        self.group = group
        self.exps = tuple(x % o for x, o in zip(exps, group.orders))
        # unit_phase(u) = <weights, dlog(u)> mod group.L
        self._weights = tuple(x * (group.L // o) for x, o in zip(self.exps, group.orders))
        self.unif_phase = Fraction(unif_phase) % 1
        self._conductor: int | None = None
        self._key = (ext, group.m, self.exps, self.unif_phase)
        self._hash = hash(self._key)

    # -- evaluation ---------------------------------------------------------

    def unit_phase(self, pair: tuple[int, int]) -> int:
        """Exact phase of xi at a unit pair, an integer mod group.L."""
        d = self.group.dlog(pair)
        return sum(w * di for w, di in zip(self._weights, d)) % self.group.L

    def __call__(self, pair: tuple[int, int]) -> complex:
        return e(self.unit_phase(pair), self.group.L)

    def base_phase_at(self, x: Fraction | int) -> Fraction:
        """Exact phase of xi on Q_p^x embedded in E^x."""
        x = Fraction(x)
        v = valuation(x.numerator, self.ext.p) - valuation(x.denominator, self.ext.p)
        u = x / Fraction(self.ext.p) ** v
        pk = self.group.pk
        u_res = u.numerator * pow(u.denominator, -1, pk) % pk
        L = self.group.L
        ph = Fraction(self.unit_phase(self.group.embed_base_unit(u_res)), L)
        if self.ext.e == 1:
            p_phase = self.unif_phase
        else:
            # p = pi_E^2 * wtilde
            wt = Fraction(self.unit_phase(_p_over_pi_sq(self.ext, pk)), L)
            p_phase = 2 * self.unif_phase + wt
        return (ph + v * p_phase) % 1

    # -- structure ----------------------------------------------------------

    def conductor(self) -> int:
        """Smallest c >= 0 with xi trivial on U_E(c)."""
        if self._conductor is None:
            self._conductor = int(_conductors(self.group, _column(self.exps))[0])
        return self._conductor

    def mul(self, other: "ExtCharacter") -> "ExtCharacter":
        assert self.group is other.group
        return ExtCharacter(
            self.ext,
            self.group,
            tuple(a + b for a, b in zip(self.exps, other.exps)),
            self.unif_phase + other.unif_phase,
        )

    def inverse(self) -> "ExtCharacter":
        return ExtCharacter(
            self.ext, self.group, tuple(-x for x in self.exps), -self.unif_phase
        )

    def galois_twist(self) -> "ExtCharacter":
        """xi^sigma = xi o (a + b alpha0 -> (a - A b) - b alpha0)."""
        G, pk = self.group, self.group.pk
        exps = [
            phase_exponent(self.unit_phase(self.ext.conj(g, pk)), G.L, o)
            for g, o in zip(G.gens, G.orders)
        ]
        if self.ext.e == 1:
            unif = self.unif_phase
        else:
            u0 = _pi_sigma_over_pi(self.ext, pk)
            unif = self.unif_phase + Fraction(self.unit_phase(u0), G.L)
        return ExtCharacter(self.ext, G, tuple(exps), unif)

    def restrict_to_base_units(self) -> DirichletCharacter:
        """xi on Z_p^x as a Dirichlet character mod p^M."""
        p, M = self.ext.p, self.group.M
        gens, orders = unit_group_zpk(p, M)
        exps = [
            phase_exponent(self.unit_phase(self.group.embed_base_unit(g)), self.group.L, o)
            for g, o in zip(gens, orders)
        ]
        return DirichletCharacter(p, M, tuple(exps))

    def at_precision(self, m: int) -> "ExtCharacter":
        """The same character carried on (O_E/p_E^m)^* for m >= current m."""
        if m < self.group.m:
            raise ValueError("cannot lower the carrier precision")
        if m == self.group.m:
            return self
        G2 = unit_group(self.ext, m)
        exps = [
            phase_exponent(self.unit_phase(g), self.group.L, o)
            for g, o in zip(G2.gens, G2.orders)
        ]
        return ExtCharacter(self.ext, G2, tuple(exps), self.unif_phase)

    def __eq__(self, other) -> bool:
        return isinstance(other, ExtCharacter) and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return (
            f"ExtCharacter({self.ext.label()}, m={self.group.m}, "
            f"exps={self.exps}, unif={self.unif_phase})"
        )


def _p_over_pi_sq(ext: QuadExtension, pk: int) -> tuple[int, int]:
    """The unit p / pi_E^2 of O_E as a ring pair (ramified case)."""
    assert ext.e == 2
    p, A, B = ext.p, ext.A, ext.B
    Bp = B // p
    inv = pow(Bp * Bp, -1, pk)
    a = (A * A - B) // p * inv % pk
    b = (A // p) * inv % pk if A else 0
    return (a, b)


def _pi_sigma_over_pi(ext: QuadExtension, pk: int) -> tuple[int, int]:
    """The unit pi_E^sigma / pi_E (ramified case)."""
    assert ext.e == 2
    p, A, B = ext.p, ext.A, ext.B
    Bp = B // p
    inv = pow(Bp, -1, pk)
    a = (A * A - B) // p * inv % pk
    b = (A // p) * inv % pk if A else 0
    return (a, b)


# ---------------------------------------------------------------------------
# Construction and enumeration


@dataclass(frozen=True)
class BaseRestriction:
    """Prescribed restriction of xi to Q_p^x: a character on units plus the
    value at p (an exact phase)."""

    chi: DirichletCharacter
    at_p_phase: Fraction


@cache
def eta_restriction(ext: QuadExtension, /) -> BaseRestriction:
    """The restriction datum for eta_{E/F}."""
    p = ext.p
    j = 0 if ext.e == 1 else (1 if p != 2 else 3)
    # find the character mod p^j matching the Hilbert-symbol values: phase
    # 0 is +1 and phase 1/2 (2 * phase == L) is -1
    for chi in _quadratic_chars(p, j):
        want = {0: 1, chi.L: -1}
        if all(
            want[2 * chi.phase(x)] == eta_char(ext, x)
            for x in range(1, max(p**j, 2))
            if x % p != 0
        ):
            at_p = eta_char(ext, p)
            return BaseRestriction(chi, Fraction(0) if at_p == 1 else Fraction(1, 2))
    raise AssertionError("eta restriction not found")


def _quadratic_chars(p: int, j: int):
    from .padic import enumerate_dirichlet

    return [c for c in enumerate_dirichlet(p, j) if c.order() in (1, 2)]


def _column(exps) -> np.ndarray:
    return np.array(exps, dtype=np.int64).reshape(-1, 1)


def _conductors(G: UnitGroup, X: np.ndarray) -> np.ndarray:
    """c(xi) for each column of exponent vectors X: one more than the
    deepest unit where xi's phase is nonzero, 0 where there is none."""
    _, wdlog, depth = G.units_view
    nonzero = wdlog @ X % G.L != 0
    return (nonzero * (depth[:, None] + 1)).max(0, initial=0)


def _restriction_test(G: UnitGroup, chi: DirichletCharacter):
    """The test xi|_{Z_p^x} = chi on the columns of exponent vectors X of
    characters xi of G, its arrays built once: for each generator g of
    Z_p^x mod p^M, the row of the pair (g, 0) in G.units_view and chi(g) as
    a phase mod chi.L * G.L.  None when chi has a deeper conductor than M:
    xi is trivial on U_F(M) by construction, so it cannot restrict to it."""
    prim = chi.restrict_to_conductor()
    if prim.modulus_exponent > G.M:
        return None
    chi = prim.extend(G.M)
    gens, _ = unit_group_zpk(G.ext.p, G.M)
    flat, wdlog, _ = G.units_view
    rows = wdlog[np.searchsorted(flat, [g * G.pk for g in gens])]
    targets = np.array([chi.phase(g) * G.L for g in gens], dtype=np.int64).reshape(-1, 1)
    return lambda X: (rows @ X % G.L * chi.L == targets).all(0)


def _phases_match(xi: ExtCharacter, restr: BaseRestriction) -> bool:
    matches = _restriction_test(xi.group, restr.chi)
    return matches is not None and bool(matches(_column(xi.exps))[0])


def _scan(G: UnitGroup, chi: DirichletCharacter) -> tuple[np.ndarray, np.ndarray]:
    """The exponent vectors of G's characters that restrict to chi on
    Z_p^x, in itertools.product order, and the conductor of each: integer
    matrix products over blocks of candidates, each about _BLOCK phases."""
    r = len(G.orders)
    matches = _restriction_test(G, chi)
    if matches is None:
        return np.zeros((0, r), dtype=np.int64), np.zeros(0, dtype=np.int64)
    orders = np.array(G.orders, dtype=np.int64).reshape(r, 1)
    strides = np.cumprod(orders[::-1])[::-1].reshape(r, 1) // orders
    n = math.prod(G.orders)
    step = max(1, _BLOCK // len(G.units_view[0]))
    exps, conds = [], []
    for lo in range(0, n, step):
        X = np.arange(lo, min(n, lo + step)) // strides % orders
        X = X[:, matches(X)]
        exps.append(X.T)
        conds.append(_conductors(G, X))
    return np.concatenate(exps), np.concatenate(conds)


def enumerate_xi(
    ext: QuadExtension,
    c: int,
    restriction: BaseRestriction,
    regular_only: bool = False,
) -> list[ExtCharacter]:
    """All xi with conductor exponent exactly c and xi|_{Q_p^x} as prescribed."""
    if c < 1:
        raise ValueError("conductor exponent must be >= 1 here")
    G = unit_group(ext, c)
    exps_all, conds = _scan(G, restriction.chi)
    out = []
    for exps in map(tuple, exps_all[conds == c].tolist()):
        for unif in _unif_phases(ext, G, exps, restriction.at_p_phase):
            xi = ExtCharacter(ext, G, exps, unif)
            if regular_only and not is_regular(xi):
                continue
            out.append(xi)
    return out


def seed_conductors(ext: QuadExtension) -> list[int]:
    """The conductor exponents c(xi) searched, in order, for the smallest
    supercuspidal characters on ext: 1 and 2 (unramified) or 2 (ramified)
    for odd p, and 5 or 8 at p = 2, where c(sigma) >= 9."""
    if ext.p != 2:
        return [1, 2] if ext.e == 1 else [2]
    return [5] if ext.e == 1 else [8]


def _unif_phases(ext, G, exps, at_p_phase: Fraction):
    """Uniformizer phases compatible with the prescribed value at p; with
    at_p_phase 0 they make a character trivial on Z_p^x trivial on Q_p^x."""
    if ext.e == 1:
        return [at_p_phase]
    probe = ExtCharacter(ext, G, exps, Fraction(0))
    wt_phase = Fraction(probe.unit_phase(_p_over_pi_sq(ext, G.pk)), G.L)
    base = (at_p_phase - wt_phase) / 2
    return [base % 1, (base + Fraction(1, 2)) % 1]


@cache
def is_regular(xi: ExtCharacter, /) -> bool:
    """True iff xi does not factor through the norm, i.e. xi != xi^sigma."""
    return xi != xi.galois_twist()


@cache
def sigma_conductor(xi: ExtCharacter, /) -> int:
    """Conductor exponent of the induced representation: 2 c(xi)/e + d."""
    if not is_regular(xi):
        raise ValueError("sigma_conductor needs a regular character")
    ext = xi.ext
    num = 2 * xi.conductor()
    assert num % ext.e == 0
    return num // ext.e + ext.d


def compose_with_norm(
    chi: DirichletCharacter, ext: QuadExtension, G: UnitGroup
) -> ExtCharacter:
    """chi o Nm as a character of the stored unit group.  The uniformizer
    value takes chi(p) := 1 (conductor questions only see the unit part).

    Norms of classes mod p_E^m are well defined mod p^{floor((m+d)/2)}
    when E/F is ramified (the trace gains d/2 digits), which is what allows
    chi of conductor beyond the ring precision; the caller must stay within
    that bound.
    """
    w_n = G.m if ext.e == 1 else (G.m + ext.d) // 2
    if chi.modulus_exponent > w_n:
        raise ValueError("chi too deep for well-defined norms at this precision")
    pw = ext.p ** max(w_n, 1)
    # zero-extension of the pair is a U_E(m)-perturbation, so the norm
    # below is the canonical one
    exps = [
        phase_exponent(chi.phase(ext.norm(g, pw)), chi.L, o)
        for g, o in zip(G.gens, G.orders)
    ]
    if ext.e == 1:
        # Nm(p) = p^2, chi(p) := 1
        unif = Fraction(0)
    else:
        # Nm(pi_E) = B = p * B'; chi(p) := 1 leaves chi(B')
        unif = Fraction(chi.phase(ext.B // ext.p), chi.L)
    return ExtCharacter(ext, G, tuple(exps), unif)


def is_twist_minimal(xi: ExtCharacter) -> bool:
    """No twist by chi o Nm (chi on Q_p^x) lowers the conductor.

    A twist cancels only when v_E(alpha_chi) = v_E(alpha_xi), i.e.
    c(chi) = c(xi) for unramified E and c(chi) = (c(xi)+d)/2 for ramified;
    scanning chi up to that conductor is therefore sufficient (when
    c(xi)+d is odd no ramified twist can cancel at all).
    """
    from .padic import enumerate_dirichlet

    c = xi.conductor()
    ext = xi.ext
    bound = c if ext.e == 1 else (c + ext.d) // 2
    for j in range(1, bound + 1):
        for chi in enumerate_dirichlet(ext.p, j):
            if chi.is_trivial():
                continue
            twisted = xi.mul(compose_with_norm(chi, ext, xi.group))
            if twisted.conductor() < c:
                return False
    return True


# ---------------------------------------------------------------------------
# Neighborhoods


def _trivial_restriction_unit_parts(G: UnitGroup, n: int):
    """Exponent vectors of characters of G with conductor <= n that are
    trivial on the embedded Z_p^x, in itertools.product order."""
    exps, conds = _scan(G, DirichletCharacter.trivial(G.ext.p))
    return list(map(tuple, exps[conds <= n].tolist()))


def neighborhood(xi: ExtCharacter, n: int) -> list["ExtCharacter"]:
    """xi[n] = {xi1 : c(xi1 xi^{-1}) <= n, same restriction to Q_p^x}."""
    if not 0 <= n <= max(xi.conductor(), xi.group.m):
        raise ValueError("radius out of range")
    G = xi.group
    ext = xi.ext
    out = []
    for exps in _trivial_restriction_unit_parts(G, n):
        for unif in _unif_phases(ext, G, exps, Fraction(0)):
            theta = ExtCharacter(ext, G, exps, unif)
            out.append(xi.mul(theta))
    return out


@cache
def neighborhood_index(xi: ExtCharacter, n: int, a: int, /) -> int:
    """[xi[n] : xi[a]] = |xi[n]| / |xi[a]|.  Every unit part takes the same
    number of uniformizer phases, so this is the ratio of the counts of
    unit parts of conductor <= n and <= a, from one scan."""
    conds = _scan(xi.group, DirichletCharacter.trivial(xi.ext.p))[1]
    big, small = int((conds <= n).sum()), int((conds <= a).sum())
    assert big % small == 0
    return big // small


@cache
def neighborhood_classes(xi: ExtCharacter, n: int, i: int, /) -> tuple[ExtCharacter, ...]:
    """One representative per class of xi[n] modulo the relation
    c(xi1 xi1'^{-1}) <= i (equal restriction is automatic here)."""
    G = xi.group
    parts_n = _trivial_restriction_unit_parts(G, n)
    parts_i = set(_trivial_restriction_unit_parts(G, i))
    seen = set()
    reps = []
    for exps in sorted(parts_n):
        cls = frozenset(
            tuple((x + y) % o for x, y, o in zip(exps, small, G.orders))
            for small in parts_i
        )
        if cls in seen:
            continue
        seen.add(cls)
        unif = _unif_phases(xi.ext, G, exps, Fraction(0))[0]
        reps.append(xi.mul(ExtCharacter(xi.ext, G, exps, unif)))
    return tuple(reps)


# ---------------------------------------------------------------------------
# Postnikov linearization


@dataclass(frozen=True)
class PostnikovDatum:
    """alpha_xi = x / p^W with xi(1+u) = psi_E(alpha_xi u) for v_E(u) >= i."""

    x_pair: tuple[int, int]
    denom_exp: int
    valid_from: int
    ext: QuadExtension

    def v_E(self):
        if self.x_pair == (0, 0):
            return EXCEEDS_PRECISION
        return self.ext.v_E(self.x_pair, self.denom_exp) - self.ext.e * self.denom_exp

    @cached_property
    def trace_alpha0_alpha(self) -> tuple[int, int]:
        """Tr(alpha0 * alpha_xi) as (integer numerator mod p^W, W), formed
        once per datum: stationary_phase_R reads it for every class."""
        pw = self.ext.p**self.denom_exp
        prod = self.ext.mul((0, 1), self.x_pair, pw)
        return self.ext.trace(prod, pw), self.denom_exp


@cache
def postnikov_linearize(xi: ExtCharacter, i: int, /) -> PostnikovDatum:
    """Solve xi(1+u) = psi_E(alpha u) for all u with v_E(u) >= i.

    Requires 1 <= i and c(xi) <= 2i (the linear regime); the solution has
    v_E(alpha) = -c(xi) + c(psi_E) and is verified exhaustively on
    p_E^i / p_E^{c}.  Tr(x u) = x . (Tr u, Tr alpha0 u), so xi is evaluated
    once per element u and every candidate x mod p^W of the target
    valuation is tested at once, one integer matrix product mod p^W: the
    first three elements prune, then every element must match.
    """
    ext = xi.ext
    c = xi.conductor()
    if i < 1 or c > 2 * i:
        raise ValueError("need 1 <= i and c(xi) <= 2i")
    if c == 0:
        return PostnikovDatum((0, 0), max(1, i), i, ext)
    p, ecode, A, G = ext.p, ext.e, ext.A, xi.group
    W = c if ecode == 1 else -(-(c + ext.d) // 2)
    pw = p**W
    us = _filtration_elements(ext, i, c)
    # xi(1 + u) = e(phase / L) against psi_E(x u / p^W) = e(Tr(x u) / p^W)
    phase = np.array([xi.unit_phase(((1 + a) % G.pk, b % G.pk)) for a, b in us.tolist()], dtype=np.int64)
    ua, ub = us.T
    T = np.array([2 * ua - A * ub, -2 * ext.B * ub - A * (ua - A * ub)], dtype=np.int64) % pw
    # x = alpha p^W has v_E(x) = top - c, and the solutions agree mod
    # p_E^(top - i)
    top, sols = ecode * W + c_psi_E(ext), []
    for lo in range(0, pw * pw, _BLOCK):
        xa, xb = np.divmod(np.arange(lo, min(pw * pw, lo + _BLOCK)), pw)
        xs = np.stack([xa, xb], 1)[_v_E(ext, xa, xb, W) == top - c]
        for cols in (slice(0, 3), slice(None)):
            xs = xs[(xs @ T[:, cols] % pw * G.L == phase[cols] * pw).all(1)]
        sols.append(xs)
    sols = np.concatenate(sols)
    if not len(sols):
        raise ValueError("no Postnikov solution: inconsistent character data")
    # the first solution is the least pair
    da, db = ((sols - sols[0]) % pw).T
    if (_v_E(ext, da, db, W) < top - i).any():
        raise AssertionError("Postnikov solution not unique in its class")
    return PostnikovDatum(tuple(sols[0].tolist()), W, i, ext)


def _filtration_elements(ext: QuadExtension, i: int, c: int) -> np.ndarray:
    """The nonzero classes of p_E^i / p_E^c, one pair (a, b) per row, ordered
    by v_E and then lexicographically.  p_E^c = p^M Z_p + p^(M - c mod e)
    alpha0 Z_p with M = ceil(c/e), so a runs mod p^M and b mod
    p^(M - c mod e)."""
    M = -(-c // ext.e)
    pb = ext.p ** (M - c % ext.e)
    a, b = np.divmod(np.arange(1, ext.p**M * pb), pb)
    v = _v_E(ext, a, b, M)
    idx = np.flatnonzero(v >= i)
    idx = idx[np.argsort(v[idx], kind="stable")]
    return np.stack([a[idx], b[idx]], 1)
