"""Characters xi of E^x on their unit filtration.

A character is a pair (unit part, uniformizer value): the unit part is an
exponent vector against the canonical generators of (O_E/p_E^m)^*, the
uniformizer value a root of unity stored as an exact phase in [0,1).
Conductors, restrictions to Q_p^x, Galois twists, neighborhoods xi[n] and
the Postnikov linearization all operate on this data.

Derived invariants are memoized with functools.cache on positional-only
arguments, so each value has one cache key.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .padic import DirichletCharacter, e, unit_group_zpk, valuation
from .quadext import EXCEEDS_PRECISION, QuadExtension, UnitGroup, eta_char, unit_group


def c_psi_E(ext: QuadExtension) -> int:
    """Conductor exponent of psi_E = psi o Tr for psi of conductor 0."""
    return 0 if ext.e == 1 else -ext.d


def psi_E(ext: QuadExtension, pair: tuple[int, int], denom_exp: int) -> complex:
    """psi(Tr(x)/p^W) for x = pair at ring precision >= denom_exp."""
    pw = ext.p**denom_exp
    return e(ext.trace(pair, pw), pw)


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
        self.unif_phase = Fraction(unif_phase) % 1
        self._conductor: int | None = None
        self._key = (ext, group.m, self.exps, self.unif_phase)
        self._hash = hash(self._key)

    # -- evaluation ---------------------------------------------------------

    def unit_phase(self, pair: tuple[int, int]) -> Fraction:
        d = self.group.dlog(pair)
        return sum(
            (Fraction(x * di, o) for x, di, o in zip(self.exps, d, self.group.orders)),
            Fraction(0),
        ) % 1

    def __call__(self, pair: tuple[int, int]) -> complex:
        ph = self.unit_phase(pair)
        return e(ph.numerator, ph.denominator)

    def base_phase_at(self, x: Fraction | int) -> Fraction:
        """Exact phase of xi on Q_p^x embedded in E^x."""
        x = Fraction(x)
        v = valuation(x.numerator, self.ext.p) - valuation(x.denominator, self.ext.p)
        u = x / Fraction(self.ext.p) ** v
        pk = self.group.pk
        u_res = u.numerator * pow(u.denominator, -1, pk) % pk
        ph = self.unit_phase(self.group.embed_base_unit(u_res))
        if self.ext.e == 1:
            p_phase = self.unif_phase
        else:
            # p = pi_E^2 * wtilde
            p_phase = 2 * self.unif_phase + self.unit_phase(_p_over_pi_sq(self.ext, pk))
        return (ph + v * p_phase) % 1

    def value_at_base(self, x: Fraction | int) -> complex:
        ph = self.base_phase_at(x)
        return e(ph.numerator, ph.denominator)

    # -- structure ----------------------------------------------------------

    def conductor(self) -> int:
        """Smallest c >= 0 with xi trivial on U_E(c)."""
        if self._conductor is None:
            import numpy as np

            _, dlog, depth, L, weights = self.group.np_tables
            if len(self.exps) == 0:
                self._conductor = 0
            else:
                w = np.array(self.exps, dtype=np.int64) * weights
                nz = (dlog @ w) % L != 0
                self._conductor = int(depth[nz].max()) + 1 if nz.any() else 0
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
        exps = []
        pk = self.group.pk
        for g, o in zip(self.group.gens, self.group.orders):
            ph = self.unit_phase(self.ext.conj(g, pk))
            exps.append(int(ph * o))
            assert ph * o == int(ph * o), "conjugate not a character of the group"
        if self.ext.e == 1:
            unif = self.unif_phase
        else:
            u0 = _pi_sigma_over_pi(self.ext, pk)
            unif = self.unif_phase + self.unit_phase(u0)
        return ExtCharacter(self.ext, self.group, tuple(exps), unif)

    def restrict_to_base_units(self) -> DirichletCharacter:
        """xi on Z_p^x as a Dirichlet character mod p^M."""
        p, M = self.ext.p, self.group.M
        gens, orders, _ = unit_group_zpk(p, M)
        exps = []
        for g, o in zip(gens, orders):
            ph = self.unit_phase(self.group.embed_base_unit(g))
            assert ph * o == int(ph * o)
            exps.append(int(ph * o))
        return DirichletCharacter(p, M, tuple(exps))

    def at_precision(self, m: int) -> "ExtCharacter":
        """The same character carried on (O_E/p_E^m)^* for m >= current m."""
        if m < self.group.m:
            raise ValueError("cannot lower the carrier precision")
        if m == self.group.m:
            return self
        G2 = unit_group(self.ext, m)
        exps = []
        for g, o in zip(G2.gens, G2.orders):
            ph = self.unit_phase(g)
            assert (ph * o).denominator == 1
            exps.append(int(ph * o))
        return ExtCharacter(self.ext, G2, tuple(exps), self.unif_phase)

    def same_character(self, other: "ExtCharacter") -> bool:
        if self.ext != other.ext or self.unif_phase != other.unif_phase:
            return False
        if self.group is other.group or self.group.m == other.group.m:
            return self.exps == other.exps
        big, small = (self, other) if self.group.m > other.group.m else (other, self)
        pk = big.group.pk
        return all(
            big.unit_phase(g) == small.unit_phase(g) for g in big.group.gens
        )

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


def eta_restriction(ext: QuadExtension) -> BaseRestriction:
    """The restriction datum for eta_{E/F}."""
    p = ext.p
    j = 0 if ext.e == 1 else (1 if p != 2 else 3)
    # find the character mod p^j matching the Hilbert-symbol values
    want = {Fraction(0): 1, Fraction(1, 2): -1}
    for chi in _quadratic_chars(p, j):
        if all(
            want[chi.phase(x)] == eta_char(ext, x)
            for x in range(1, max(p**j, 2))
            if x % p != 0
        ):
            at_p = eta_char(ext, p)
            return BaseRestriction(chi, Fraction(0) if at_p == 1 else Fraction(1, 2))
    raise AssertionError("eta restriction not found")


def _quadratic_chars(p: int, j: int):
    from .padic import enumerate_dirichlet

    return [c for c in enumerate_dirichlet(p, j) if c.order() in (1, 2)]


def _phases_match(xi: ExtCharacter, restr: BaseRestriction) -> bool:
    p, M = xi.ext.p, xi.group.M
    prim = restr.chi.restrict_to_conductor()
    if prim.modulus_exponent > M:
        # xi is trivial on U_F(M) by construction, so it cannot restrict to
        # a character of deeper conductor
        return False
    chi = prim.extend(M)
    gens, _, _ = unit_group_zpk(p, M)
    for g in gens:
        got = xi.unit_phase(xi.group.embed_base_unit(g))
        if got != chi.phase(g):
            return False
    return True


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
    out = []
    for exps in _exponent_vectors(G.orders):
        probe = ExtCharacter(ext, G, exps, Fraction(0))
        if not _phases_match(probe, restriction):
            continue
        if probe.conductor() != c:
            continue
        for unif in _unif_phases(ext, G, exps, restriction.at_p_phase):
            xi = ExtCharacter(ext, G, exps, unif)
            if regular_only and not is_regular(xi):
                continue
            out.append(xi)
    return out


def _exponent_vectors(orders):
    if not orders:
        yield ()
        return
    import itertools

    yield from itertools.product(*(range(o) for o in orders))


def _unif_phases(ext, G, exps, at_p_phase: Fraction):
    """Uniformizer phases compatible with the prescribed value at p."""
    if ext.e == 1:
        return [at_p_phase]
    probe = ExtCharacter(ext, G, exps, Fraction(0))
    wt_phase = probe.unit_phase(_p_over_pi_sq(ext, G.pk))
    base = (at_p_phase - wt_phase) / 2
    return [base % 1, (base + Fraction(1, 2)) % 1]


@cache
def is_regular(xi: ExtCharacter, /) -> bool:
    """True iff xi does not factor through the norm, i.e. xi != xi^sigma."""
    return not xi.same_character(xi.galois_twist())


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
    exps = []
    for g, o in zip(G.gens, G.orders):
        # zero-extension of the pair is a U_E(m)-perturbation, so the norm
        # below is the canonical one
        ph = chi.phase(ext.norm(g, pw))
        assert ph is not None and (ph * o).denominator == 1
        exps.append(int(ph * o))
    if ext.e == 1:
        # Nm(p) = p^2, chi(p) := 1
        unif = Fraction(0)
    else:
        # Nm(pi_E) = B = p * B'; chi(p) := 1 leaves chi(B')
        unif = chi.phase(ext.B // ext.p)
        assert unif is not None
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
    trivial on the embedded Z_p^x."""
    p, M = G.ext.p, G.M
    gens, _, _ = unit_group_zpk(p, M)
    base_gens = [G.embed_base_unit(g) for g in gens]
    out = []
    for exps in _exponent_vectors(G.orders):
        theta = ExtCharacter(G.ext, G, exps, Fraction(0))
        if any(theta.unit_phase(g) != 0 for g in base_gens):
            continue
        if theta.conductor() > n:
            continue
        out.append(exps)
    return out


def neighborhood(xi: ExtCharacter, n: int) -> list["ExtCharacter"]:
    """xi[n] = {xi1 : c(xi1 xi^{-1}) <= n, same restriction to Q_p^x}."""
    if not 0 <= n <= max(xi.conductor(), xi.group.m):
        raise ValueError("radius out of range")
    G = xi.group
    ext = xi.ext
    out = []
    for exps in _trivial_restriction_unit_parts(G, n):
        for unif in _theta_unif_phases(ext, G, exps):
            theta = ExtCharacter(ext, G, exps, unif)
            out.append(xi.mul(theta))
    return out


def _theta_unif_phases(ext, G, exps):
    """Uniformizer phases making theta trivial on all of Q_p^x."""
    if ext.e == 1:
        return [Fraction(0)]
    probe = ExtCharacter(ext, G, exps, Fraction(0))
    wt_phase = probe.unit_phase(_p_over_pi_sq(ext, G.pk))
    base = -wt_phase / 2
    return [base % 1, (base + Fraction(1, 2)) % 1]


@cache
def neighborhood_index(xi: ExtCharacter, n: int, a: int, /) -> int:
    """[xi[n] : xi[a]] = |xi[n]| / |xi[a]|."""
    big, small = len(neighborhood(xi, n)), len(neighborhood(xi, a))
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
        unif = _theta_unif_phases(xi.ext, G, exps)[0]
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

    def pairing(self, u_pair: tuple[int, int]) -> complex:
        """psi_E(alpha * u) for u given mod p^denom_exp."""
        pw = self.ext.p**self.denom_exp
        prod = self.ext.mul(self.x_pair, u_pair, pw)
        return e(self.ext.trace(prod, pw), pw)

    def trace_alpha0_alpha(self) -> tuple[int, int]:
        """Tr(alpha0 * alpha_xi) as (integer numerator mod p^W, W)."""
        pw = self.ext.p**self.denom_exp
        prod = self.ext.mul((0, 1), self.x_pair, pw)
        return self.ext.trace(prod, pw), self.denom_exp


@cache
def postnikov_linearize(xi: ExtCharacter, i: int, /) -> PostnikovDatum:
    """Solve xi(1+u) = psi_E(alpha u) for all u with v_E(u) >= i.

    Requires 1 <= i and c(xi) <= 2i (the linear regime); the solution has
    v_E(alpha) = -c(xi) + c(psi_E) and is verified exhaustively on
    p_E^i / p_E^{c}.
    """
    ext = xi.ext
    c = xi.conductor()
    if i < 1 or c > 2 * i:
        raise ValueError("need 1 <= i and c(xi) <= 2i")
    if c == 0:
        return PostnikovDatum((0, 0), max(1, i), i, ext)
    p, ecode = ext.p, ext.e
    W = c if ecode == 1 else -(-(c + ext.d) // 2)
    target_v = ecode * W + c_psi_E(ext) - c
    pw = p**W
    us = _filtration_elements(ext, i, c)
    # probe set keeps the candidate scan cheap
    probes = us[:3]
    sols = []
    for xa in range(pw):
        for xb in range(pw):
            x = (xa, xb)
            if ext.v_E(x, W) != target_v:
                continue
            if all(_postnikov_match(xi, ext, x, W, u) for u in probes):
                if all(_postnikov_match(xi, ext, x, W, u) for u in us):
                    sols.append(x)
    if not sols:
        raise ValueError("no Postnikov solution: inconsistent character data")
    # all solutions must form one class mod p_E^{e W + c(psi_E) - i}
    bound = ecode * W + c_psi_E(ext) - i
    x0 = min(sols)
    for x in sols:
        diff = ((x[0] - x0[0]) % pw, (x[1] - x0[1]) % pw)
        if diff != (0, 0) and ext.v_E(diff, W) < bound:
            raise AssertionError("Postnikov solution not unique in its class")
    return PostnikovDatum(x0, W, i, ext)


def _postnikov_match(xi, ext, x, W, u) -> bool:
    pw = ext.p**W
    prod = ext.mul(x, u, pw)
    lhs = xi.unit_phase(((1 + u[0]) % xi.group.pk, u[1] % xi.group.pk))
    rhs = Fraction(ext.trace(prod, pw), pw) % 1
    return lhs == rhs


def _filtration_elements(ext: QuadExtension, i: int, c: int) -> list[tuple[int, int]]:
    """Representatives of p_E^i / p_E^c as ring pairs mod p^{ceil(c/e)}."""
    p, e_ = ext.p, ext.e
    M = -(-c // e_)
    pM = p**M
    out = []
    for a in range(pM):
        for b in range(pM):
            if (a, b) == (0, 0):
                continue
            v = ext.v_E((a, b), M)
            if v != EXCEEDS_PRECISION and v >= i:
                out.append((a, b))
    # dedupe mod p_E^c: pairs are already mod p^M; for e=2 odd c the class
    # mod p_E^c is coarser, keep one per class
    if e_ == 2 and c % 2 == 1:
        step = p ** (M - 1)
        seen = set()
        dedup = []
        for a, b in out:
            key = (a, b % step)
            if key in seen:
                continue
            seen.add(key)
            dedup.append((a, b))
        out = dedup
    out.sort(key=lambda ab: (ext.v_E(ab, M), ab))
    return out
