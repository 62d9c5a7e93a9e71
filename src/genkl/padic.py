"""Exact arithmetic mod p^k and the classical exponential-sum toolbox.

Everything here is desk-scale: moduli are prime powers small enough that
full discrete-log tables and brute-force sums are practical.  Complex
values are double precision.  A character carries its phases as exact
integers mod L, the exponent of its group (the lcm of the generator
orders): chi(n) = e(phase, L), with the argument reduced mod L before the
one float division, so phase error stays at machine level even for large
numerators.
"""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .kernels import _BLOCK

INF_VALUATION = math.inf

# Discrete-log tables are arrays over every residue; beyond this the module
# refuses.
GROUP_CAPACITY = 10**7
# Dihedral sums walk every pair (a, b) mod p^k; the largest walks recorded
# are 2^26 (test suite) and 3^16 (klsum benchmark), 15x below this bound.
PAIR_CAPACITY = 10**9
# The largest J-Bessel argument accepted: archimedean.bessel_J and the
# Petersson geometric side refuse beyond it.
BESSEL_X_CAP = 1.0e4


class CapacityError(Exception):
    """Requested group or table exceeds the desk-scale capacity bound."""


def e(num: int, den: int) -> complex:
    """exp(2 pi i num/den) with the argument reduced mod 1 first."""
    return cmath.exp(2j * cmath.pi * ((num % den) / den))


def valuation(n: int, p: int):
    """Largest t with p^t | n; math.inf for n = 0."""
    if n == 0:
        return INF_VALUATION
    n = abs(n)
    t = 0
    while n % p == 0:
        n //= p
        t += 1
    return t


def is_prime(n: int) -> bool:
    """Miller-Rabin on the first twelve prime bases: exact below 3.18e23."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % a == 0 for a in bases):
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def phi_pk(p: int, k: int) -> int:
    """Euler phi of p^k."""
    return 1 if k == 0 else p ** (k - 1) * (p - 1)


def check_capacity(p: int, k: int) -> None:
    """Refuse p^k whose unit group exceeds GROUP_CAPACITY, before any table
    or grid over it is built."""
    if phi_pk(p, k) > GROUP_CAPACITY:
        raise CapacityError(f"(Z/{p}^{k})^* exceeds capacity")


def nu(n: int) -> int:
    """Index [SL2(Z) : Gamma_0(n)] = n * prod_{p|n} (1 + 1/p)."""
    out = Fraction(n)
    m, q = n, 2
    while q * q <= m:
        if m % q == 0:
            out *= Fraction(q + 1, q)
            while m % q == 0:
                m //= q
        q += 1
    if m > 1:
        out *= Fraction(m + 1, m)
    assert out.denominator == 1
    return int(out)


# ---------------------------------------------------------------------------
# Square roots mod p^k


def hensel_sqrt_set(l: int, p: int, k: int) -> set[int]:
    """All x mod p^k with x^2 = l (mod p^k).

    Layered lifting: roots mod p^j extend to roots mod p^{j+1} by scanning
    the p candidates above each root.  Root counts stay bounded by
    2^kappa * p^{min(v(l),k)/2}, so this is cheap at desk scale.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    pk = p**k
    l %= pk
    roots = {x for x in range(p) if (x * x - l) % p == 0}
    mod = p
    for _ in range(k - 1):
        nxt = set()
        for r in roots:
            for t in range(p):
                cand = r + t * mod
                if (cand * cand - l) % (mod * p) == 0:
                    nxt.add(cand)
        roots = nxt
        mod *= p
    return roots


# ---------------------------------------------------------------------------
# Classical sums


def ramanujan_sum(q: int, n: int) -> int:
    """R_q(n) = sum over x mod q coprime to q of e(nx/q), for q = p^j."""
    p, j = _as_prime_power(q)
    if j == 0:
        return 1
    t = j if n == 0 else min(valuation(n, p), j)
    if t >= j:
        return phi_pk(p, j)
    if t == j - 1:
        return -(p ** (j - 1))
    return 0


def _as_prime_power(q: int) -> tuple[int, int]:
    if q == 1:
        return 2, 0
    for p in range(2, q + 1):
        if q % p == 0:
            j = valuation(q, p)
            if p**j != q:
                raise ValueError(f"{q} is not a prime power")
            return p, j
    raise ValueError(f"{q} is not a prime power")


def twisted_kloosterman(chi: "DirichletCharacter", m: int, n: int, q: int) -> complex:
    """S_chi(m,n;q) = sum over x mod q coprime of chi(x) e((m x + n xbar)/q).

    chi is a character mod p^j with p^j | q; it is evaluated at x mod p^j.
    """
    p, k = _as_prime_power(q)
    if chi.modulus_exponent > k or chi.p != p and chi.modulus > 1:
        raise ValueError("modulus of chi must divide q")
    total = 0j
    for x in range(1, q):
        if x % p == 0:
            continue
        xinv = pow(x, -1, q)
        total += chi(x) * e(m * x + n * xinv, q)
    return total


def gauss_sum(chi: "DirichletCharacter") -> complex:
    """tau(chi) for chi primitive mod its modulus; |tau| = sqrt(modulus)."""
    if not chi.is_primitive():
        raise ValueError("gauss_sum requires a primitive character")
    return gauss_sum_at_level(chi, chi.modulus_exponent)


def gauss_sum_at_level(chi: "DirichletCharacter", k: int) -> complex:
    """sum over x mod p^k coprime of chi(x) e(x/p^k); chi mod p^j, j <= k."""
    p = chi.p
    q = p**k
    if k < chi.modulus_exponent:
        raise ValueError("level below the modulus of chi")
    if q == 1:
        return 1.0 + 0.0j
    return sum(chi(x) * e(x, q) for x in range(1, q) if x % p != 0)


# ---------------------------------------------------------------------------
# Dirichlet characters of prime-power modulus


@lru_cache(maxsize=None)
def unit_group_zpk(p: int, k: int):
    """Generators and their orders for (Z/p^k)^*; dlog_rows holds the dlogs.

    Odd p: cyclic on one primitive root.  p = 2: trivial for k <= 1,
    <-1> for k = 2, <-1> x <5> for k >= 3.
    """
    check_capacity(p, k)
    q = p**k
    if k == 0 or (p == 2 and k == 1):
        return (), ()
    if p == 2:
        if k == 2:
            return (3,), (2,)
        return ((q - 1) % q, 5), (2, 2 ** (k - 2))
    return (_primitive_root_mod_pk(p, k),), (phi_pk(p, k),)


@lru_cache(maxsize=32)
def dlog_rows(p: int, k: int):
    """The dlog table of (Z/p^k)^* against unit_group_zpk(p, k) as two
    numpy arrays: units[i] is the unit whose exponent vector is the i-th in
    C order, and rows[y] is the exponent vector of y (zero off units), so
    rows[units] lists every exponent vector in C order."""
    gens, orders = unit_group_zpk(p, k)
    q = p**k
    units = np.array([1 % q], dtype=np.int64)
    for g, o in zip(gens, orders):
        units = (units[:, None] * generator_powers([g], [q], o)[0] % q).ravel()
    rows = np.zeros((q, len(orders)), dtype=np.int64)
    rows[units] = np.indices(orders).reshape(len(orders), len(units)).T
    units.flags.writeable = rows.flags.writeable = False
    return units, rows


def generator_powers(gs, qs, o: int) -> np.ndarray:
    """g_i^j mod q_i for 0 <= j < o, one row per generator g_i mod q_i, by
    block doubling: x[:, n:2n] = x[:, :n] g^n, one array pass for every
    row at once."""
    qs = np.asarray(qs, dtype=np.int64)[:, None]
    g = np.asarray(gs, dtype=np.int64)[:, None] % qs
    x = np.empty((len(qs), o), dtype=np.int64)
    x[:, :1] = 1 % qs
    n = 1
    while n < o:
        t = min(n, o - n)
        x[:, n:n + t] = x[:, :t] * g % qs
        g = g * g % qs
        n += t
    return x


def unit_pairs(moduli):
    """(units, inverses) of (Z/p^k)^* for each (p, k) of moduli, in order.

    The units are powers of unit_group_zpk's generators: g^j for the
    primitive root g at odd p, +-5^j at p = 2 ((Z/1)^* is {0}).  The
    inverse of the unit at exponent vector x is the one at -x: g^(o-j), a
    reversed index, and -5^(-j).  Consecutive moduli share one
    generator_powers pass, about _BLOCK elements a block.  The primitive
    roots are found afresh, so no memo grows with the moduli."""
    spec = []  # (q, g, order of g, whether -1 is a second generator)
    for p, k in moduli:
        if p == 2:
            spec.append((p**k, 5, max(2 ** k // 4, 1), k >= 2))
        else:
            spec.append((p**k, _primitive_root_mod_pk(p, k) if k else 1, phi_pk(p, k), False))
    lo = 0
    while lo < len(spec):
        hi, width = lo + 1, spec[lo][2]
        while hi < len(spec) and (hi - lo + 1) * max(width, spec[hi][2]) <= _BLOCK:
            width = max(width, spec[hi][2])
            hi += 1
        block = spec[lo:hi]
        powers = generator_powers([g for _, g, _, _ in block], [q for q, _, _, _ in block], width)
        for row, (q, _, o, signed) in zip(powers, block):
            units = row[:o]
            inverses = np.concatenate((units[:1], units[:0:-1]))
            if signed:
                units, inverses = np.concatenate((units, q - units)), np.concatenate((inverses, q - inverses))
            yield units, inverses
        lo = hi


def _primitive_root_mod_pk(p: int, k: int) -> int:
    """The least primitive root g mod p, or g + p when g^(p-1) = 1 mod p^2
    and k >= 2 (g works mod p^k iff g^(p-1) != 1 mod p^2)."""
    n = m = p - 1
    facs, q = [], 2
    while q * q <= m:
        if m % q == 0:
            facs.append(q)
            while m % q == 0:
                m //= q
        q += 1
    if m > 1:
        facs.append(m)
    for g in range(2, p):
        if all(pow(g, n // f, p) != 1 for f in facs):
            break
    else:
        raise AssertionError("no primitive root found")
    if k > 1 and pow(g, n, p * p) == 1:
        g += p
    return g


def phase_exponent(ph: int, L: int, o: int) -> int:
    """The exponent x with x/o = ph/L, for a phase of order dividing o."""
    x, r = divmod(ph * o, L)
    assert r == 0, "phase is not a character value of that order"
    return x


class DirichletCharacter:
    """A character of (Z/p^k)^* stored as exponents against fixed generators.

    chi(g_i) = exp(2 pi i exps[i]/orders[i]); chi is zero off units.  With L
    the lcm of the orders, chi(n) = e(phase(n), L) for an integer phase.
    """

    def __init__(self, p: int, k: int, exps: tuple[int, ...]):
        gens, orders = unit_group_zpk(p, k)
        if len(exps) != len(orders):
            raise ValueError("exponent vector has wrong length")
        self.p = p
        self.modulus_exponent = k
        self.modulus = p**k
        self.gens = gens
        self.orders = orders
        self.exps = tuple(x % o for x, o in zip(exps, orders))
        self.L = math.lcm(*orders)
        # phase(n) = <weights, dlog(n)> mod L
        self._weights = tuple(x * (self.L // o) for x, o in zip(self.exps, orders))
        self._rows = dlog_rows(p, k)[1]
        self._conductor_exponent: int | None = None

    @classmethod
    def trivial(cls, p: int, k: int = 0) -> "DirichletCharacter":
        return cls(p, k, tuple(0 for _ in unit_group_zpk(p, k)[1]))

    def __call__(self, n: int) -> complex:
        ph = self.phase(n)
        return 0j if ph is None else e(ph, self.L)

    def values(self):
        """chi(n) for every n mod p^k as a numpy array, zero off units."""
        units, rows = dlog_rows(self.p, self.modulus_exponent)
        out = np.zeros(self.modulus, dtype=np.complex128)
        phases = rows[units] @ np.array(self._weights, dtype=np.int64) % self.L
        out[units] = np.exp(2j * np.pi * phases / self.L)
        return out

    def phase(self, n: int) -> int | None:
        """Exact phase of chi(n) as an integer mod L; None off units."""
        n %= self.modulus
        if n % self.p == 0 and self.modulus > 1:
            return None
        ph = 0
        for i, w in enumerate(self._weights):
            ph += w * self._rows.item(n, i)
        return ph % self.L

    def is_trivial(self) -> bool:
        return all(x == 0 for x in self.exps)

    def conductor_exponent(self) -> int:
        """Smallest j with chi trivial on {x = 1 mod p^j}."""
        if self._conductor_exponent is None:
            # the phase at every x = 1 mod p^(j-1), zero at the non-units
            # among them (j = 1), whose rows are zero
            w = np.array(self._weights, dtype=np.int64)
            j = self.modulus_exponent
            while j > 0 and not (self._rows[1 :: self.p ** (j - 1)] @ w % self.L).any():
                j -= 1
            self._conductor_exponent = j
        return self._conductor_exponent

    @property
    def conductor(self) -> int:
        return self.p ** self.conductor_exponent()

    def is_primitive(self) -> bool:
        return self.conductor_exponent() == self.modulus_exponent

    def order(self) -> int:
        out = 1
        for x, o in zip(self.exps, self.orders):
            ordx = o // math.gcd(x, o)
            out = out * ordx // math.gcd(out, ordx)
        return out

    def __mul__(self, other: "DirichletCharacter") -> "DirichletCharacter":
        a, b = self, other
        if a.modulus_exponent < b.modulus_exponent:
            a, b = b, a
        b_lift = b.extend(a.modulus_exponent)
        return DirichletCharacter(
            a.p, a.modulus_exponent, tuple(x + y for x, y in zip(a.exps, b_lift.exps))
        )

    def inverse(self) -> "DirichletCharacter":
        return DirichletCharacter(
            self.p, self.modulus_exponent, tuple(-x for x in self.exps)
        )

    def conjugate(self) -> "DirichletCharacter":
        return self.inverse()

    def extend(self, k: int) -> "DirichletCharacter":
        """The same character viewed mod p^k, k >= modulus exponent."""
        if k < self.modulus_exponent:
            raise ValueError("can only extend to a larger modulus")
        if k == self.modulus_exponent:
            return self
        return self._on_level(k)

    def restrict_to_conductor(self) -> "DirichletCharacter":
        return self._on_level(self.conductor_exponent())

    def _on_level(self, k: int) -> "DirichletCharacter":
        """The same character as a character mod p^k (for k below the
        modulus exponent chi must factor through p^k)."""
        gens, orders = unit_group_zpk(self.p, k)
        exps = [phase_exponent(self.phase(g), self.L, o) for g, o in zip(gens, orders)]
        return DirichletCharacter(self.p, k, tuple(exps))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DirichletCharacter)
            and self.p == other.p
            and self.modulus_exponent == other.modulus_exponent
            and self.exps == other.exps
        )

    def __hash__(self) -> int:
        return hash((self.p, self.modulus_exponent, self.exps))

    def __repr__(self) -> str:
        return f"DirichletCharacter(p={self.p}, k={self.modulus_exponent}, exps={self.exps})"


def enumerate_dirichlet(p: int, k: int) -> list[DirichletCharacter]:
    """All phi(p^k) characters mod p^k."""
    _, orders = unit_group_zpk(p, k)
    return [
        DirichletCharacter(p, k, exps)
        for exps in itertools.product(*(range(o) for o in orders))
    ]


def legendre_symbol(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def hilbert_symbol(a: int, b: int, p: int) -> int:
    """(a,b)_p for nonzero integers a, b; case formulas, eight-case at p=2."""
    if a == 0 or b == 0:
        raise ValueError("hilbert symbol needs nonzero arguments")
    alpha, beta = valuation(a, p), valuation(b, p)
    u, w = a // p**alpha, b // p**beta
    if p != 2:
        s = 1
        if alpha % 2 and beta % 2 and (p - 1) // 2 % 2:
            s = -1
        if beta % 2:
            s *= legendre_symbol(u, p)
        if alpha % 2:
            s *= legendre_symbol(w, p)
        return s
    eps_u, eps_w = ((u - 1) // 2) % 2, ((w - 1) // 2) % 2
    omega_u, omega_w = ((u * u - 1) // 8) % 2, ((w * w - 1) // 8) % 2
    exp = eps_u * eps_w + alpha * omega_w + beta * omega_u
    return -1 if exp % 2 else 1
