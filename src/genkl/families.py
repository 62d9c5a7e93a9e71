"""The five local test-function families and their derived numerology.

Families are closed-form data: the diagonal weight delta_p, the value
f_p(1), the level exponent and the local geometric conductor all come from
explicit tables, with a scan-based verifier for the conductor.  The
defining group-level functions are represented only through these
evaluated consequences.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .padic import DirichletCharacter, nu
from .extchars import (
    ExtCharacter,
    eta_restriction,
    is_regular,
    neighborhood,
    neighborhood_index,
    sigma_conductor,
)


def zeta_p(p: int) -> Fraction:
    """zeta_p(1) = (1 - 1/p)^{-1}."""
    return Fraction(p, p - 1)


@dataclass(frozen=True)
class Classical:
    """Averaging over everything of conductor exponent <= c."""

    p: int
    c: int

    def __post_init__(self):
        if self.c < 0:
            raise ValueError("c must be >= 0")

    @property
    def tag(self) -> str:
        return "classical"

    def f_one(self) -> Fraction:
        return Fraction(nu(self.p**self.c))

    def delta_p(self) -> Fraction:
        return self.f_one()

    def level_exponent(self) -> int:
        return self.c

    def k_p(self) -> int:
        return self.c

    def support_exponent(self) -> int:
        return self.c


@dataclass(frozen=True)
class PrincipalSeries:
    """Projector onto the principal-series line attached to a primitive
    non-quadratic chi; p = 2 additionally needs c(chi) >= 4."""

    chi: DirichletCharacter

    def __post_init__(self):
        chi = self.chi
        if not chi.is_primitive():
            raise ValueError("chi must be primitive mod its modulus")
        if chi.order() <= 2:
            raise ValueError("chi^2 must be nontrivial")
        if chi.p == 2 and chi.conductor_exponent() < 4:
            raise ValueError("p = 2 requires c(chi) >= 4")

    @property
    def p(self) -> int:
        return self.chi.p

    @property
    def tag(self) -> str:
        return "principal-series"

    @property
    def c_chi(self) -> int:
        return self.chi.conductor_exponent()

    def f_one(self) -> Fraction:
        return Fraction(nu(self.p**self.c_chi))

    def delta_p(self) -> Fraction:
        return self.f_one() / (1 - Fraction(1, self.p))

    def level_exponent(self) -> int:
        return 2 * self.c_chi

    def k_p(self) -> int:
        return self.c_chi

    def support_exponent(self) -> int:
        return self.c_chi


@cache
def _check_supercuspidal_xi(xi: ExtCharacter, /):
    ext = xi.ext
    if not is_regular(xi):
        raise ValueError("xi must be regular")
    restr = eta_restriction(ext)
    from .extchars import _phases_match

    if not _phases_match(xi, restr) or xi.base_phase_at(ext.p) != restr.at_p_phase:
        raise ValueError("xi must restrict to eta_{E/F} on Q_p^x")
    c_sigma = sigma_conductor(xi)
    if ext.p == 2:
        if c_sigma < 9:
            raise ValueError("p = 2 requires c(sigma) >= 9")
        if ext.d == 3 and c_sigma < 11:
            raise ValueError("p = 2, d = 3 requires c(sigma) >= 11")


@dataclass(frozen=True)
class Supercuspidal:
    """Newform projector onto the dihedral supercuspidal attached to
    (E, xi) and its unramified twist where applicable."""

    xi: ExtCharacter

    def __post_init__(self):
        _check_supercuspidal_xi(self.xi)

    @property
    def ext(self):
        return self.xi.ext

    @property
    def p(self) -> int:
        return self.ext.p

    @property
    def tag(self) -> str:
        return "supercuspidal"

    @property
    def c_xi(self) -> int:
        return self.xi.conductor()

    @property
    def c0(self) -> int:
        c = self.c_xi
        assert c % self.ext.e == 0
        return c // self.ext.e

    @property
    def c_sigma(self) -> int:
        return sigma_conductor(self.xi)

    @property
    def d(self) -> int:
        return self.ext.d

    def f_one(self) -> Fraction:
        p, c0 = self.p, self.c0
        if p != 2:
            if self.c_sigma % 2 == 1:
                return (1 - Fraction(1, p * p)) * p ** (c0 + 1)
            return (1 - Fraction(1, p)) * p**c0
        if self.d == 3:
            return (1 - Fraction(1, p * p)) * p ** (c0 + 2)
        return (1 - Fraction(1, p * p)) * p ** (c0 + 1)

    def delta_p(self) -> Fraction:
        return zeta_p(self.p) * self.f_one()

    def level_exponent(self) -> int:
        return self.c_sigma

    def k_p(self) -> int:
        # c0 + ceil(d/2), the first exponent with a nonvanishing sum
        return self.c0 + -(-self.d // 2)

    def support_exponent(self) -> int:
        return -(-self.c_sigma // 2)


def twist_minimal_conductor(xi: ExtCharacter) -> int:
    """c(xi') for the twist-minimal character underlying xi: c(xi) unless
    p = 2 and d in {0, 2}, where it drops by one."""
    ext = xi.ext
    if ext.p == 2 and ext.d in (0, 2):
        return xi.conductor() - 1
    return xi.conductor()


def nbhd_threshold(ext, c_xi: int, n: int, a: int) -> int:
    """First exponent k at which the neighborhood sums match the single-
    character sums (and below which they vanish): c0 + ceil(d/2) - a +
    floor(n/e), except that for ramified extensions of Q_2 at the top
    radii (floor(n/2) = c0 - 1) the matching regime extends one step
    lower.  The boundary correction is forced numerically: equality holds
    at k = threshold - 1 to 1e-13, at both discriminant valuations and
    several conductors, while the generic formula predicts vanishing."""
    c0 = c_xi // ext.e
    base = c0 + -(-ext.d // 2) - a + n // ext.e
    if ext.p == 2 and ext.e == 2 and n // 2 == c0 - 1:
        return base - 1
    return base


@dataclass(frozen=True)
class SupercuspidalNbhd:
    """Projector onto the conductor-sharing neighborhood xi[n] around a
    supercuspidal; a <= n < c(xi') with a = 1 exactly for the unramified
    extension of Q_2."""

    xi: ExtCharacter
    n: int

    def __post_init__(self):
        _check_supercuspidal_xi(self.xi)
        if not self.a <= self.n < twist_minimal_conductor(self.xi):
            raise ValueError("need a <= n < c(xi')")

    @property
    def a(self) -> int:
        ext = self.xi.ext
        return 1 if (ext.p == 2 and ext.e == 1) else 0

    @property
    def ext(self):
        return self.xi.ext

    @property
    def p(self) -> int:
        return self.ext.p

    @property
    def tag(self) -> str:
        return "supercuspidal-nbhd"

    @property
    def base(self) -> Supercuspidal:
        return Supercuspidal(self.xi)

    def index(self) -> int:
        return neighborhood_index(self.xi, self.n, self.a)

    def f_one(self) -> Fraction:
        return self.index() * self.base.f_one()

    def delta_p(self) -> Fraction:
        return self.index() * zeta_p(self.p) * self.base.f_one()

    def level_exponent(self) -> int:
        return self.base.c_sigma

    def k_p(self) -> int:
        return nbhd_threshold(self.ext, self.xi.conductor(), self.n, self.a)

    def support_exponent(self) -> int:
        return self.base.support_exponent()


@dataclass(frozen=True)
class NelsonEq:
    """Newform projector onto generic representations of conductor
    exponent exactly c >= 3."""

    p: int
    c: int

    def __post_init__(self):
        if self.c < 3:
            raise ValueError("c must be >= 3")

    @property
    def tag(self) -> str:
        return "nelson-eq"

    def f_one(self) -> Fraction:
        p, c = self.p, self.c
        return nu(p**c) * (1 - Fraction(1, p)) ** 2

    def delta_p(self) -> Fraction:
        return self.p**self.c * (1 - Fraction(1, self.p * self.p))

    def level_exponent(self) -> int:
        return self.c

    def k_p(self) -> int:
        return self.c - 1

    def support_exponent(self) -> int:
        return self.c - 1


LocalTestFunction = Classical | PrincipalSeries | Supercuspidal | SupercuspidalNbhd | NelsonEq


def geometric_conductor_scan(tf: LocalTestFunction, k_max: int) -> int:
    """Smallest k with H_p(.,.;p^k) not identically zero, by scanning all
    residue classes; must equal the closed form."""
    from .engine import h_local_vector_definitional

    for k in range(0, k_max + 1):
        vec = h_local_vector_definitional(tf, k)
        if any(abs(v) > 1e-9 for v in vec):
            return k
    raise RuntimeError(
        f"no nonvanishing modulus found below p^{k_max}; "
        f"closed form predicts {tf.k_p()} (implementation bug)"
    )


# ---------------------------------------------------------------------------
# Local L-factors


@dataclass(frozen=True)
class UnramifiedPS:
    """Spherical representation with spectral angle theta: real in [0, pi]
    or i*tau*log(p) / pi + i*tau*log(p) with 0 < tau < 1/2."""

    theta: complex


@dataclass(frozen=True)
class ConductorOne:
    pass


@dataclass(frozen=True)
class ConductorGeqTwo:
    pass


LocalRepDescriptor = UnramifiedPS | ConductorOne | ConductorGeqTwo


def local_L_value(rep: LocalRepDescriptor, p: int) -> float:
    """L_pi(1), the three-case local factor."""
    if isinstance(rep, ConductorOne):
        return 1 / (1 + 1 / p)
    if isinstance(rep, ConductorGeqTwo):
        return 1 - 1 / p
    z = cmath.exp(2j * rep.theta)
    val = (1 - p**-2) / ((1 - z / p) * (1 - 1 / p) * (1 - 1 / (z * p)))
    assert abs(val.imag) < 1e-12 * max(1.0, abs(val))
    return val.real


# ---------------------------------------------------------------------------
# Hypothesis reports


@dataclass(frozen=True)
class CvFReport:
    """Local conductor-versus-family check: the exact ratio p^{k_p}/f_p(1)
    and whether the family keeps it bounded below as p grows (it fails for
    the fixed-conductor family)."""

    ratio: Fraction
    holds: bool


def cvf_report(tf: LocalTestFunction) -> CvFReport:
    ratio = Fraction(tf.p ** tf.k_p()) / tf.f_one()
    return CvFReport(ratio=ratio, holds=not isinstance(tf, NelsonEq))
