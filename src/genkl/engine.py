"""The generalized Kloosterman sums and their transform/bound suite.

Local sums H_p(m,n;p^k) for all five families, the Langlands constant,
global assembly by twisted multiplicativity, Fourier-Mellin transforms
with closed forms, the p-adic stationary-phase identities with brute-force
oracles, and the bound reports.

Closed forms are authoritative; the brute-force oracles (I_xi by fiber
enumeration, R by direct integration, Mellin by finite Fourier) provide
the independent verification paths.  The brute R sums every class of one
(xi, k) in one masked array; its plain loop stays as the reference.  All heavy sums run through
genkl.kernels.  Every production S(m,n;p^k) reads the FFT vectors
S(t,1;p^j) through Selberg's identity (_S_prime_power): the local sums
from the cached vectors, h_global_table from vectors it builds in one
stream over its moduli and drops once their prime is done.  Each vector
is one ifft over the (unit, inverse) pairs of padic.unit_pairs, which
reads the inverses off generator powers, a block of moduli at a time.
classical_S and classical_S_many, over the E F^T kernel and the Euler
inverses of kernels.unit_inverses, are the definitional reference.

Each Mellin job has one route: per (family, k) the direct transform is
one FFT of h_local_vector and the closed form one array over every
character, and the one-character calls read these cached tables.

Memoized functions take positional-only arguments; a public function with
defaults fills them in before the lookup, so each value has one cache key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache

import numpy as np

from . import kernels
from .padic import (
    GROUP_CAPACITY,
    PAIR_CAPACITY,
    CapacityError,
    DirichletCharacter,
    check_capacity,
    dlog_rows,
    e,
    gauss_sum_at_level,
    nu,
    primes_upto,
    unit_group_zpk,
    unit_pairs,
    valuation,
)
from .quadext import QuadExtension, norm_fiber, unit_group
from .extchars import (
    ExtCharacter,
    c_psi_E,
    enumerate_xi,
    eta_restriction,
    neighborhood_classes,
    postnikov_linearize,
    seed_conductors,
    sigma_conductor,
)
from .families import (
    Classical,
    LocalTestFunction,
    NelsonEq,
    PrincipalSeries,
    Supercuspidal,
    SupercuspidalNbhd,
    zeta_p,
)


# Every memoized array is read-only: its callers share it, and an in-place
# write by one would change what every later caller reads.
def _readonly(arr) -> np.ndarray:
    arr = np.asarray(arr)  # arithmetic on a 0-d array returns a scalar
    arr.flags.writeable = False
    return arr


# ---------------------------------------------------------------------------
# Classical sums, cached per modulus


# Euler inverses for the reference classical_S_many only; the S(t,1;p^k)
# vectors take their pairs from padic.unit_pairs and keep no inverse table.
# Replayed over the test suite's 19,954 lookups of 307 moduli, 64 entries
# hit 0.983 (0.985 unbounded) and hold at most 0.2 MB
@lru_cache(maxsize=64)
def _unit_inverses(c: int):
    return kernels.unit_inverses(c)


def classical_S(m: int, n: int, c: int) -> complex:
    """S(m,n;c) for one pair: the one-pair call of classical_S_many."""
    return complex(classical_S_many([m], [n], c)[0])


def classical_S_many(ms, ns, c: int) -> np.ndarray:
    """S(m_i,n_i;c) for parallel arrays of m and n at one modulus c, by the
    E F^T kernel: the definitional reference.  Production sums at a prime
    power read the FFT vectors instead: _S_prime_power."""
    if c < 1:
        raise ValueError("c must be >= 1")
    return kernels.kloosterman_many(_residues(ms, c), _residues(ns, c), c, *_unit_inverses(c))


def _residues(xs, c: int) -> np.ndarray:
    """xs mod c as an int64 array.  Python ints beyond int64 are reduced
    as Python ints before the array is built."""
    try:
        return np.asarray(xs, dtype=np.int64) % c
    except OverflowError:
        return np.array([x % c for x in xs], dtype=np.int64)


# read by h_local_many, h_local_vector and _langlands_gamma, one key per
# (p, k) of a local table; h_global_table builds its own vectors and holds
# those of one prime at a time.  The test suite's 85,758 lookups of 35 keys
# hit 0.9996 at 64 entries, as unbounded, and the 35 vectors take 0.55 MB
@lru_cache(maxsize=64)
def _classical_S_vector(p: int, k: int) -> np.ndarray:
    """S(y,1;p^k) for every y mod p^k via one FFT."""
    return _readonly(_twisted_S_vector(p, k, None))


def _S_prime_power(p: int, k: int, ms, ns, ws=(1,), vector=_classical_S_vector) -> np.ndarray:
    """S(m_j, w_i n_j; p^k), one row per unit w_i, by Selberg's identity
    S(m,n;p^k) = sum over p^j | (m,n,p^k) of p^j S(mn/p^2j, 1; p^(k-j)):
    each term is one read of the vector vector(p, k - j), and term j is
    read only at the columns with p^j | gcd(m,n)."""
    q = p**k
    m, n = _residues(ms, q), _residues(ns, q)
    ws = np.asarray(ws, dtype=np.int64)[:, None]
    out = vector(p, k)[ws * (m * n % q) % q]
    cols = np.arange(len(m))
    for j in range(1, k + 1):
        cols = cols[(m[cols] % p**j == 0) & (n[cols] % p**j == 0)]
        if not len(cols):
            break
        r = p ** (k - j)
        mn = (m[cols] // p**j) * (n[cols] // p**j) % r
        out[:, cols] += p**j * vector(p, k - j)[ws % r * mn % r]
    return out


def _twisted_S_vector(p: int, k: int, psi: DirichletCharacter | None) -> np.ndarray:
    """T(y) = sum over units u of psi(u) e((u + y ubar)/p^k) for all y: the
    one-modulus call of _twisted_S_vectors."""
    return next(_twisted_S_vectors([(p, k)], psi))


def _twisted_S_vectors(moduli, psi: DirichletCharacter | None = None):
    """_twisted_S_vector(p, k, psi) for each (p, k) of moduli, in order,
    each built when it is read.  With h[w] = psi(wbar) e(wbar/p^k) on units,
    T = p^k * ifft(h), one ifft per modulus; the pairs (w, wbar) come from
    unit_pairs, a block of moduli at a time."""
    for (p, k), (ws, wbars) in zip(moduli, unit_pairs(moduli)):
        q = p**k
        h = np.zeros(q, dtype=np.complex128)
        h[ws] = np.exp(2j * np.pi * wbars / q)
        if psi is not None:
            h[ws] *= psi.values()[wbars % psi.modulus]
        yield q * np.fft.ifft(h)


# ---------------------------------------------------------------------------
# Dihedral sums


@cache
def xi_table(xi: ExtCharacter, /) -> np.ndarray:
    """2D table of xi over pairs (a, b) mod p^M, zero off units: the phases
    of every unit are one integer matrix-vector product mod L."""
    G = xi.group
    flat, wdlog, _ = G.units_view
    table = np.zeros(G.pk * G.pk, dtype=np.complex128)
    phases = wdlog @ np.array(xi.exps, dtype=np.int64) % G.L
    table[flat] = np.exp(2j * np.pi * (phases / G.L))
    return _readonly(table.reshape(G.pk, G.pk))


def I_xi_vector(xi: ExtCharacter, k: int, restrict_U1: bool = False) -> np.ndarray:
    """I_xi(t, p^k) for every t mod p^k: sums of xi(u) psi(-Tr(u)/p^k) over
    the norm fiber of t, from the cached norm/trace kernel.  With
    restrict_U1 the units are cut to U_E(1) (p = 2 unramified use)."""
    p = xi.ext.p
    check_capacity(p, k)
    if p ** (2 * k) > PAIR_CAPACITY:
        raise CapacityError(f"dihedral sum over {p}^{2 * k} pairs exceeds capacity")
    return _I_xi_vector(xi, k, restrict_U1)


@cache
def _I_xi_vector(xi: ExtCharacter, k: int, restrict_U1: bool, /) -> np.ndarray:
    ext = xi.ext
    table = xi_table(xi)
    if restrict_U1:
        r = np.arange(len(table))
        table = np.where((r[:, None] % ext.p == 1) & (r[None, :] % ext.p == 0), table, 0)
    return _readonly(kernels.dihedral_bucket(ext.p, k, ext.A, ext.B, table, xi.group.M))


def dihedral_sum_I(ext: QuadExtension, xi: ExtCharacter, m: int, k: int) -> complex:
    """I_xi(m, p^k) through the norm-fiber enumeration (independent of the
    bucketed route)."""
    pk = ext.p**k
    total = 0j
    for u in norm_fiber(ext, k, m):
        total += xi(u) * e(-ext.trace(u, pk), pk)
    return total


# ---------------------------------------------------------------------------
# Langlands constant


def _eta_p(ext: QuadExtension) -> int:
    from .quadext import eta_char

    return eta_char(ext, ext.p)


def _minimal_valid_xi(ext: QuadExtension) -> ExtCharacter:
    restr = eta_restriction(ext)
    for c in seed_conductors(ext):
        xs = enumerate_xi(ext, c, restr, regular_only=True)
        if xs:
            return xs[0]
    raise RuntimeError(f"no valid supercuspidal character on {ext.label()}")


def langlands_gamma(ext: QuadExtension, xi: ExtCharacter | None = None) -> complex:
    """gamma = lambda(E, psi) solved from the degeneration identity at
    k >= c(sigma): conj(gamma) = S(t,1;p^k) p^{d/2} / I_xi(t,p^k) at a
    sample where both sides are visibly nonzero (method B, ground truth).
    lambda^2 = eta(-1), so the solved value is returned as the fourth root
    of unity it rounds to (it must lie within 1e-9 of one)."""
    return _langlands_gamma(ext, xi)


@cache
def _langlands_gamma(ext: QuadExtension, xi: ExtCharacter | None, /) -> complex:
    xi0 = xi if xi is not None else _minimal_valid_xi(ext)
    c_sigma = sigma_conductor(xi0)
    eta_p = _eta_p(ext)
    for k in (c_sigma, c_sigma + 1):
        vec = I_xi_vector(xi0, k)
        mags = np.abs(vec)
        order = np.argsort(mags)[::-1]
        for t in order[:64]:
            if mags[t] < 1e-6:
                break
            S = _classical_S_vector(ext.p, k)[t]
            if abs(S) > 1e-6:
                solved = (S * ext.p ** (ext.d / 2) / (eta_p**k * vec[t])).conjugate()
                return _nearest_fourth_root(solved)
    raise RuntimeError("all degeneration samples vanish; retry with new (m,n)")


_FOURTH_ROOTS = (complex(1, 0), complex(0, 1), complex(-1, 0), complex(0, -1))


def _nearest_fourth_root(z: complex) -> complex:
    root = _FOURTH_ROOTS[round(math.atan2(z.imag, z.real) / (math.pi / 2)) % 4]
    if abs(z - root) > 1e-9:
        raise AssertionError(f"solved gamma {z} is not a fourth root of unity")
    return root


def langlands_gamma_eps(ext: QuadExtension) -> complex:
    """Method A cross-check: gamma as the epsilon factor of eta_{E/F} for
    the conductor-0 additive character, evaluated on the Tate shell
    v(x) = -c(eta): eta(p)^{c} tau_c(eta|units) / p^{c/2}.  Degenerates to
    1 for unramified E (c = 0)."""
    restr = eta_restriction(ext)
    chi = restr.chi.restrict_to_conductor()
    cexp = chi.modulus_exponent
    tau = gauss_sum_at_level(chi, cexp)
    return _eta_p(ext) ** cexp * tau / ext.p ** (cexp / 2)


# ---------------------------------------------------------------------------
# Local sums


@dataclass(frozen=True)
class KloostermanValue:
    value: complex
    family: str
    p: int
    k: int
    m: int
    n: int
    vanishing_reason: str | None = None


# keyed by (tf, k); a dict, not functools.cache, because perfbench's tracer
# reports its len()
_H_VEC_CACHE: dict = {}


def h_local_vector(tf: LocalTestFunction, k: int) -> np.ndarray:
    """H_p(t, 1; p^k) for every t mod p^k."""
    check_capacity(tf.p, k)
    key = (tf, k)
    if key in _H_VEC_CACHE:
        return _H_VEC_CACHE[key]
    p = tf.p
    pk = p**k
    if k < tf.k_p():
        vec = np.zeros(pk, dtype=np.complex128)
    elif isinstance(tf, (Classical, NelsonEq)):
        vec = _classical_scale(tf, k) * _classical_S_vector(p, k)
    elif isinstance(tf, PrincipalSeries):
        vec = np.zeros(pk, dtype=np.complex128)
        chi = _at_level(tf.chi, k)
        chi2 = chi * chi
        tvec = _twisted_S_vector(p, k, chi2)
        units = np.flatnonzero(np.arange(pk) % p)
        chibar = chi.values()[units].conjugate()
        vec[units] = float(tf.delta_p()) * chibar * tvec[units]
    elif isinstance(tf, Supercuspidal):
        vec = _sc_prefactor(tf, k) * I_xi_vector(tf.xi, k)
        vec[_nonunit_mask(p, k)] = 0
    elif isinstance(tf, SupercuspidalNbhd):
        vec = tf.index() * h_local_vector(tf.base, k)
    else:
        raise TypeError(f"unknown family {tf!r}")
    _H_VEC_CACHE[key] = vec = _readonly(vec)
    return vec


def _classical_scale(tf: Classical | NelsonEq, k: int) -> float:
    """The constant with H_p(t,1;p^k) = scale * S(t,1;p^k) at every t:
    delta_p [k >= c] for the classical family; for Nelson's only d = 1
    contributes (gcd(t,1,p^c) = 1), leaving the two e-terms
    nu(p^c) [k >= c] - nu(p^{c-1}) [k >= c-1]."""
    p, c = tf.p, tf.c
    if isinstance(tf, Classical):
        return float(tf.delta_p()) if k >= c else 0.0
    return float((nu(p**c) if k >= c else 0) - (nu(p ** (c - 1)) if k >= c - 1 else 0))


@lru_cache(maxsize=256)
def _sc_prefactor(tf: Supercuspidal, k: int, /) -> complex:
    """delta_p conj(gamma) p^{-d/2} xi(p^k), the constant with H_p(t,1;p^k)
    = prefactor * I_xi(t,p^k) at unit t.  xi(p^k) = eta(p)^k is the
    central-character weight of the modulus, needed for one constant gamma
    to serve every k."""
    return (
        float(tf.delta_p())
        * langlands_gamma(tf.ext).conjugate()
        * tf.p ** (-tf.d / 2)
        * _eta_p(tf.ext) ** k
    )


def _nonunit_mask(p: int, k: int) -> np.ndarray:
    if k == 0:
        return np.zeros(1, dtype=bool)
    return np.arange(p**k) % p == 0


def h_local(tf: LocalTestFunction, m: int, n: int, k: int) -> KloostermanValue:
    """H_p(m, n; p^k) for the five families: the one-point call of
    h_local_many."""
    vals, reasons = h_local_many(tf, (m,), (n,), k)
    return KloostermanValue(complex(vals[0]), tf.tag, tf.p, k, m, n, reasons[0])


def h_local_many(tf: LocalTestFunction, ms, ns, k: int) -> tuple[np.ndarray, list]:
    """H_p(m_i, n_i; p^k) for parallel sequences (or int arrays) of m and n,
    with one vanishing reason (or None) per entry.  Zero below k_p.  m and
    n are reduced mod p^max(k, 1), which keeps whether p | mn, and mn is
    split into units and non-units by array operations.  A unit mn reads
    entry mn of h_local_vector (H(m,n) = H(mn,1) for a unit n); the
    entries with p | mn take the classical sum, Nelson's Moebius sum (both
    by _S_prime_power), or zero for the newform projectors."""
    check_capacity(tf.p, k)
    if len(ms) != len(ns):
        raise ValueError("ms and ns must have the same length")
    vals = np.zeros(len(ms), dtype=np.complex128)
    if k < tf.k_p():
        return vals, ["below-k_p"] * len(ms)
    p = tf.p
    pk = p**k
    q = p ** max(k, 1)
    m_red, n_red = _residues(ms, q), _residues(ns, q)
    mn = m_red * n_red % q
    unit = mn % p != 0
    vals[unit] = h_local_vector(tf, k)[mn[unit] % pk]
    reasons = [None] * len(ms)
    rest = np.flatnonzero(~unit)
    if isinstance(tf, Classical):
        vals[rest] = float(tf.delta_p()) * _S_prime_power(p, k, m_red[rest], n_red[rest])[0]
    elif isinstance(tf, NelsonEq):
        vals[rest] = _nelson_values(tf, m_red[rest], n_red[rest], k)
    else:
        for i in rest.tolist():
            reasons[i] = "non-unit-mn"
    return vals, reasons


def h_local_vector_definitional(tf: LocalTestFunction, k: int) -> np.ndarray:
    """H_p(t,1;p^k) along the defining decomposition where one exists: the
    neighborhood family is the sum of its member projectors' sums, so its
    vanishing threshold is a computation here, not a gate."""
    if isinstance(tf, SupercuspidalNbhd):
        p = tf.p
        pk = p**k
        vec = np.zeros(pk, dtype=np.complex128)
        if k >= tf.base.support_exponent():
            vec = _sc_prefactor(tf.base, k) * _neighborhood_I_sum(tf.xi, tf.n, tf.a, k)
            vec[_nonunit_mask(p, k)] = 0
        return vec
    return h_local_vector(tf, k)


def _neighborhood_I_sum(xi: ExtCharacter, n: int, a: int, k: int) -> np.ndarray:
    """Sum of I_xi1(t, p^k) over one xi1 per class of neighborhood_classes(
    xi, n, a), for every t; the units are cut to U_E(1) when a = 1."""
    vec = np.zeros(xi.ext.p**k, dtype=np.complex128)
    for xi1 in neighborhood_classes(xi, n, a):
        vec = vec + I_xi_vector(xi1, k, restrict_U1=(a == 1))
    return vec


def _nelson_values(tf: NelsonEq, ms: np.ndarray, ns: np.ndarray, k: int) -> np.ndarray:
    """The double Moebius sum over d | (m,n,p^c) and e | p^c at residues m,
    n mod p^k, k >= c - 1: the d = 1 terms are _classical_scale times
    S(m,n;p^k), the d = p terms -p^2 times the same two e-terms at (c-1,
    k-1) times S(m/p,n/p;p^(k-1))."""
    p, c = tf.p, tf.c
    out = _classical_scale(tf, k) * _S_prime_power(p, k, ms, ns)[0]
    cols = np.flatnonzero((ms % p == 0) & (ns % p == 0))
    scale = (nu(p ** (c - 1)) if k >= c else 0) - nu(p ** (c - 2))
    out[cols] -= p * p * scale * _S_prime_power(p, k - 1, ms[cols] // p, ns[cols] // p)[0]
    return out


# ---------------------------------------------------------------------------
# Global assembly


@dataclass(frozen=True)
class GlobalTestFunction:
    """A pure tensor: finitely many ramified local factors, spherical
    elsewhere."""

    locals: tuple[LocalTestFunction, ...]

    def __post_init__(self):
        ps = [tf.p for tf in self.locals]
        if len(set(ps)) != len(ps):
            raise ValueError("one local factor per prime")

    @property
    def level(self) -> int:
        out = 1
        for tf in self.locals:
            out *= tf.p ** tf.level_exponent()
        return out

    @property
    def geometric_conductor(self) -> int:
        out = 1
        for tf in self.locals:
            out *= tf.p ** tf.k_p()
        return out

    @property
    def delta_fin(self) -> Fraction:
        out = Fraction(1)
        for tf in self.locals:
            out *= tf.delta_p()
        return out


def h_global(gtf: GlobalTestFunction, m: int, n: int, c) -> complex:
    """H(m,n;c) for one pair of integers; zero for non-integral c."""
    frac = Fraction(c)
    if frac <= 0:
        raise ValueError("modulus must be positive")
    if frac.denominator != 1:
        return 0j
    return complex(h_global_many(gtf, [m], [n], int(frac))[0])


def h_global_many(gtf: GlobalTestFunction, ms, ns, c: int) -> np.ndarray:
    """H(m_i,n_i;c) for parallel arrays of m and n at one modulus c: the
    one-modulus call of h_global_table."""
    return h_global_table(gtf, ms, ns, [c])[0]


def check_table_capacity(n_moduli: int, n_pairs: int):
    """Refuse an H table of more than GROUP_CAPACITY entries."""
    if n_moduli * n_pairs > GROUP_CAPACITY:
        raise CapacityError(f"H table of {n_moduli} moduli x {n_pairs} pairs exceeds capacity")


def h_global_table(gtf: GlobalTestFunction, ms, ns, cs) -> np.ndarray:
    """H(m_j,n_j;c_i) with one row per modulus c_i and one column per pair.

    Write c = c_0 c_N with c_N the part of c at the ramified primes.  By
    twisted multiplicativity H(m,n;c) is the product over q^e || c_0 of
    S(m sbar, n sbar; q^e), s = c/q^e, times prod_{p|N} H_p(m cbar_0,
    n cbar_0; p^{v_p(c)}).  The factor at q is S(m, n sbar^2; q^e), one
    _S_prime_power call per prime power over the rows with that q^e: one
    read of the FFT vector S(t,1;q^e) per entry, and one more per
    q^j | gcd(m,n).  Those vectors are built here, not cached, each once,
    by _twisted_S_vectors over every part's q^e in turn, so their unit
    pairs come a block of moduli at a time; only those of the current
    prime q are held.  The factors at a ramified p are one h_local_many
    call per v = v_p(c) over the rows with that v and every pair.  Zero whenever c misses the geometric conductor.
    """
    check_table_capacity(len(cs), len(ms))
    cs = np.asarray(cs, dtype=np.int64)
    if len(cs) and cs.min() < 1:
        raise ValueError("modulus must be positive")
    table = np.ones((len(cs), len(ms)), dtype=np.complex128)
    c0 = cs.copy()
    for tf in gtf.locals:
        while (hit := c0 % tf.p == 0).any():
            c0[hit] //= tf.p
    parts = list(_prime_power_parts(c0))
    prime, held = None, {}

    def vector(p, k):
        # Selberg's terms may read a power of p that no part has: built alone
        if k not in held:
            held[k] = _twisted_S_vector(p, k, None)
        return held[k]

    for (q, e, rows), vec in zip(parts, _twisted_S_vectors([(q, e) for q, e, _ in parts])):
        if q != prime:
            # the parts of one prime come together, in ascending e, so the
            # vectors of the last prime are never read again
            prime, held = q, {}
        held[e] = vec
        qe = q**e
        sbar = np.array([pow(s, -1, qe) for s in (cs[rows] // qe).tolist()], dtype=np.int64)
        table[rows] *= _S_prime_power(q, e, ms, ns, sbar * sbar % qe, vector)
    for tf in gtf.locals:
        p = tf.p
        vs = np.array([valuation(c // c_0, p) for c, c_0 in zip(cs.tolist(), c0.tolist())])
        for v in kernels.distinct(vs).tolist():
            rows = np.flatnonzero(vs == v)
            # the factor depends on m, n mod p^max(v, 1) and on cbar_0 mod
            # p^v only; mod p^(v+1) cbar_0 is a unit at p also when v = 0
            q = p ** max(v, 1)
            m_list, n_list = _residues(ms, q).tolist(), _residues(ns, q).tolist()
            cbars = [pow(c_0, -1, p ** (v + 1)) for c_0 in c0[rows].tolist()]
            mc = [m * cb for cb in cbars for m in m_list]
            nc = [n * cb for cb in cbars for n in n_list]
            table[rows] *= h_local_many(tf, mc, nc, v)[0].reshape(len(rows), len(ms))
    return table


def _prime_power_parts(cs: np.ndarray):
    """(q, e, rows) for every prime power q^e that exactly divides some
    c_i, with rows the indices i of those c_i, by trial division by the
    primes up to sqrt(max c)."""
    rest = cs.copy()
    if not len(rest):
        return
    for q in primes_upto(math.isqrt(int(rest.max()))).tolist():
        if q * q > rest.max():
            break
        e = np.zeros(len(rest), dtype=np.int64)
        while (hit := rest % q == 0).any():
            e += hit
            rest[hit] //= q
        for k in kernels.distinct(e[e > 0]).tolist():
            yield q, k, np.flatnonzero(e == k)
    # what is left of each c_i is 1 or a prime above sqrt(max c)
    for q in kernels.distinct(rest[rest > 1]).tolist():
        yield q, 1, np.flatnonzero(rest == q)


# ---------------------------------------------------------------------------
# Fourier-Mellin transforms


def _at_level(alpha: DirichletCharacter, k: int) -> DirichletCharacter:
    """alpha as a character mod p^k, for c(alpha) <= k; a deeper modulus
    comes down through the conductor."""
    if alpha.modulus_exponent == k:
        return alpha
    return alpha.restrict_to_conductor().extend(k)


def mellin_direct(tf: LocalTestFunction, alpha: DirichletCharacter, k: int) -> complex:
    """The unit-group integral of H against conj(alpha): p^{-k} times the
    sum over units y mod p^k of H_p(y,1;p^k) conj(alpha(y)), read from
    mellin_direct_all.  Zero when c(alpha) > k (the finite sum is then
    meaningless and the integral form returns 0).  This additive-measure
    normalization is the one that gives the supercuspidal transform
    modulus delta_p on its non-vanishing set."""
    if alpha.conductor_exponent() > k:
        return 0j
    return complex(mellin_direct_all(tf, k)[_at_level(alpha, k).exps])


def character_fft(p: int, k: int, vec: np.ndarray) -> np.ndarray:
    """hat[exps] = sum over units y of vec[y] conj(chi_exps(y)), one fftn
    over the shape of (Z/p^k)^*: exps is an exponent vector against its
    standard generators."""
    return np.fft.fftn(vec[dlog_rows(p, k)[0]].reshape(unit_group_zpk(p, k)[1]))


def _conj_index(table: np.ndarray) -> np.ndarray:
    """table[-x] at every exponent vector x: each character's entry moved
    to its conjugate's place."""
    for axis in range(table.ndim):
        table = np.roll(np.flip(table, axis), 1, axis)
    return table


# Read-only tables.  The test suite's lookups replayed through an LRU hit
# 0.834 (198 keys) and 0.9996 (29 keys) at these bounds, as unbounded.
@lru_cache(maxsize=256)
def mellin_direct_all(tf: LocalTestFunction, k: int, /) -> np.ndarray:
    """The direct transform for every character mod p^k at once, one FFT
    of h_local_vector, indexed like character_fft."""
    return _readonly(character_fft(tf.p, k, h_local_vector(tf, k)) / tf.p**k)


@lru_cache(maxsize=32)
def gauss_level_table(p: int, k: int, /) -> np.ndarray:
    """tau_k(chi) = sum over units m of chi(m) e(m/p^k) for every chi mod
    p^k, indexed like character_fft."""
    pk = p**k
    vec = np.array([e(m, pk) if pk == 1 or m % p else 0 for m in range(pk)], dtype=complex)
    # the transform pairs vec with conj(chi_x) = chi_{-x}
    return _readonly(_conj_index(character_fft(p, k, vec)))


def mellin_closed(tf: LocalTestFunction, alpha: DirichletCharacter, k: int) -> complex:
    """The closed form at one character, read from mellin_closed_all; zero
    when c(alpha) > k."""
    if alpha.conductor_exponent() > k:
        return 0j
    return complex(mellin_closed_all(tf, k)[_at_level(alpha, k).exps])


@lru_cache(maxsize=256)
def mellin_closed_all(tf: LocalTestFunction, k: int, /) -> np.ndarray:
    """The family's Gauss-sum formula for the transform at every alpha mod
    p^k, indexed like mellin_direct_all; zero below k_p.  Classical and
    Nelson: scale tau(conj alpha)^2 / p^k; principal series: delta_p
    tau(conj(alpha chi)) tau(conj(alpha) chi) / p^k, each tau an index
    shift of gauss_level_table(p, k).  Supercuspidal: zero unless
    c(conj(alpha)_E xi) = ek - d, else its stationary E-side Gauss sum;
    the neighborhood family is index() times its base."""
    p = tf.p
    pk = p**k
    if k < tf.k_p():
        return _readonly(np.zeros(unit_group_zpk(p, k)[1], dtype=np.complex128))
    if isinstance(tf, (Supercuspidal, SupercuspidalNbhd)):
        base = tf.base if isinstance(tf, SupercuspidalNbhd) else tf
        crit = composed_conductor_all(base.xi, k) == base.ext.e * k - base.d
        out = _sc_prefactor(base, k) * _conj_index(np.where(crit, _stationary_E_gauss_all(base.xi, k), 0)) / pk
        return _readonly(out if tf is base else tf.index() * out)
    tau = _conj_index(gauss_level_table(p, k))  # tau(conj chi_x) at x
    if isinstance(tf, (Classical, NelsonEq)):
        return _readonly(_classical_scale(tf, k) * tau * tau / pk)
    if isinstance(tf, PrincipalSeries):
        c, axes = _at_level(tf.chi, k).exps, tuple(range(tau.ndim))
        return _readonly(float(tf.delta_p()) * np.roll(tau, [-x for x in c], axes) * np.roll(tau, c, axes) / pk)
    raise TypeError(f"unknown family {tf!r}")


def composed_conductor(alpha_bar: DirichletCharacter, xi: ExtCharacter, k: int) -> int:
    """c((alpha_bar o Nm) xi) at precision p^k: composed_conductor_all's entry."""
    return int(composed_conductor_all(xi, k)[_at_level(alpha_bar, k).exps])


@lru_cache(maxsize=64)
def composed_conductor_all(xi: ExtCharacter, k: int, /) -> np.ndarray:
    """c((chi o Nm) xi) for every chi mod p^k, indexed like character_fft:
    one more than the deepest layer j with a nonzero phase at one of its
    generators (layer 0: the residue field's units), else 0.  Valid while
    the conductor is at most ek."""
    _, P, js = _layer_phases(xi, k)
    return _readonly(((P != 0) * (js + 1)).max(1, initial=0).reshape(unit_group_zpk(xi.ext.p, k)[1]))


def _layer_generators(ext: QuadExtension, j: int):
    """Pairs tau spanning p_E^j / p_E^{j+1}: the 1 + tau generate layer j."""
    p = ext.p
    if ext.e == 1:
        return [(p**j, 0), (0, p**j)]
    return [(p ** (j // 2), 0)] if j % 2 == 0 else [(0, p ** (j // 2))]


@lru_cache(maxsize=64)
def _layer_phases(xi: ExtCharacter, k: int, /) -> tuple[int, np.ndarray, np.ndarray]:
    """(L, P, js): P[x, i] is the phase mod L of (chi_x o Nm) xi, for every
    chi_x mod p^k in C order, at the i-th pair: 1 + tau for the generators
    tau of layer j = ek-1, ..., 1, then the generators of the residue
    field's units (layer 0), js[i] its layer; one integer matrix product."""
    ext, G = xi.ext, xi.group
    pk = ext.p**k
    layers = [(j, tau) for j in range(ext.e * k - 1, 0, -1) for tau in _layer_generators(ext, j)]
    layers += [(0, u) for u in unit_group(ext, 1).gens]
    pairs = [((1 + a) % pk, b % pk) if j else (a, b) for j, (a, b) in layers]
    L_a, W = _character_weights(ext.p, k)
    L = math.lcm(L_a, G.L)
    ph_a = W @ dlog_rows(ext.p, k)[1][[ext.norm(u, pk) for u in pairs]].T % L_a
    ph_x = np.array([xi.unit_phase(u) for u in pairs], dtype=np.int64)
    js = np.array([j for j, _ in layers], dtype=np.int64)
    return L, (ph_a * (L // L_a) + ph_x * (L // G.L)) % L, js


def _character_weights(p: int, k: int) -> tuple[int, np.ndarray]:
    """(L_a, W): chi_x's phase at y is W[x] . dlog_rows(p, k)[1][y] mod L_a."""
    orders = unit_group_zpk(p, k)[1]
    L_a = math.lcm(*orders)
    units, rows = dlog_rows(p, k)
    return L_a, rows[units] * np.array([L_a // o for o in orders], dtype=np.int64)


def _stationary_E_gauss(alpha_bar: DirichletCharacter, xi: ExtCharacter, k: int) -> complex:
    """G = sum over (O_E/p^k)^x of psi_c(u) psi_E(-u/p^k) for psi_c =
    (alpha_bar o Nm) xi, read from _stationary_E_gauss_all."""
    return complex(_stationary_E_gauss_all(xi, k)[_at_level(alpha_bar, k).exps])


@lru_cache(maxsize=64)
def _stationary_E_gauss_all(xi: ExtCharacter, k: int, /) -> np.ndarray:
    """G(chi) = sum over (O_E/p^k)^x of psi(u) psi_E(-u/p^k), psi = (chi o
    Nm) xi, for every chi mod p^k, indexed like character_fft; zero where
    c(psi) > ek - d.  Above s = ceil(ek/2), tau -> psi(1 + tau) is additive
    and equals psi_E(x tau / p^k) for a stationary x.  Each layer j =
    ek-d-1, ..., s pins one digit of x (two coordinates when E is
    unramified): Tr(x tau) is affine in the digit, so the layer's
    equations are one linear system mod p, solved for every chi at once.
    Only the classes x + p_E^r / p_E^s survive; when x is not a unit
    (c(psi) < ek - d) they are non-units, where xi_table is zero."""
    ext = xi.ext
    p, e_, d, c_psi = ext.p, ext.e, ext.d, c_psi_E(ext)
    pk, top = p**k, p ** max(k - 1, 0)
    L, P, js = _layer_phases(xi, k)
    s = -(-(e_ * k) // 2)
    x = np.tile(np.array([1 % pk, 0], dtype=np.int64), (len(P), 1))
    live = composed_conductor_all(xi, k).ravel() <= e_ * k - d
    g = math.gcd(L, pk)
    for j in range(e_ * k - d - 1, s - 1, -1):
        taus = _layer_generators(ext, j)
        # Tr(x tau) = x . (Tr(tau), Tr(alpha0 tau)); the digit's basis sits
        # at depth ek - j + c(psi_E) - 1, where every Tr(beta tau) has
        # valuation k - 1, so the system is read mod p
        tr = np.array([[ext.trace(t, pk), ext.trace(ext.mul((0, 1), t, pk), pk)] for t in taus])
        basis = np.array(_layer_generators(ext, e_ * k - j + c_psi - 1), dtype=np.int64)
        # psi(1 + tau) = e(T / p^k), a p-power root of unity on U_E(1)
        R = (P[:, js == j] // (L // g) * (pk // g) - x @ tr.T) % pk
        if (R % top).any():
            raise AssertionError("stationary equation without a solution")
        digits = (R // top) @ _inverse_mod_p((tr @ basis.T % pk // top).tolist(), p).T % p
        x = (x + digits @ basis) % pk
    # the classes of p_E^r / p_E^s: every digit combination of its layers
    basis = [g for lv in range(max(e_ * k - s + c_psi, 0), s) for g in _layer_generators(ext, lv)]
    combos = np.indices((p,) * len(basis)).reshape(len(basis), p ** len(basis)).T
    deltas = combos @ np.array(basis, dtype=np.int64).reshape(-1, 2) % pk
    L_a, W = _character_weights(p, k)
    rows, table, pM = dlog_rows(p, k)[1], xi_table(xi), xi.group.pk
    G = np.zeros(len(P), dtype=np.complex128)
    # about 2^16 classes at a time bound the arrays; psi(u) is chi at Nm u
    # times xi_table, which is zero off units
    idx, step = np.flatnonzero(live), max(1, (1 << 16) // len(deltas))
    for lo in range(0, len(idx), step):
        i = idx[lo:lo + step]
        ua, ub = np.moveaxis((x[i, None] + deltas) % pk, -1, 0)
        ph = (rows[(ua * ua - ext.A * ua * ub + ext.B * ub * ub) % pk] * W[i, None]).sum(-1)
        psi = np.exp(2j * np.pi * (ph % L_a / L_a)) * table[ua % pM, ub % pM]
        G[i] = float(ext.q_E) ** (e_ * k - s) * (psi * np.exp(-2j * np.pi * ((2 * ua - ext.A * ub) % pk / pk))).sum(1)
    return _readonly(G.reshape(unit_group_zpk(p, k)[1]))


def _inverse_mod_p(C: list, p: int) -> np.ndarray:
    """C^{-1} mod p for a 1x1 or 2x2 integer C, from its adjugate; a
    singular C would leave more than one stationary digit."""
    (a, b), (c, d) = C if len(C) == 2 else ((C[0][0], 0), (0, 1))
    if (a * d - b * c) % p == 0:
        raise AssertionError("stationary point not unique")
    return (np.array([[d, -b], [-c, a]]) * pow(a * d - b * c, -1, p) % p)[: len(C), : len(C)]


def E_gauss_brute(alpha_bar: DirichletCharacter, xi: ExtCharacter, k: int) -> complex:
    """Full-sum oracle for _stationary_E_gauss (small k only): alpha_bar,
    xi and psi_E evaluated at every unit."""
    ext = xi.ext
    check_capacity(ext.p, k)
    pk = ext.p**k
    prec = ext.p ** max(k, alpha_bar.modulus_exponent, 1)
    terms = (alpha_bar(ext.norm(u, prec)) * xi(u) * e(-ext.trace(u, pk), pk) for u in ext.units(k))
    return sum(terms, 0j)


# ---------------------------------------------------------------------------
# Stationary phase for the dihedral sums


def stationary_phase_R(xi: ExtCharacter, k: int, u0: tuple[int, int]) -> float:
    """Closed form for R_{k,xi}(b), the oscillatory integral over du with
    v_E(du) >= ek/2 and the norm congruence at u0 = a + b alpha0."""
    ext = xi.ext
    check_capacity(ext.p, k)
    c_sigma = sigma_conductor(xi)
    if k < max(-(-c_sigma // 2), 2):
        raise ValueError("need k >= max(ceil(c(sigma)/2), 2)")
    if ext.p == 2 and c_sigma < 5:
        raise ValueError("p = 2 needs c(sigma) >= 5")
    p, e_, d = ext.p, ext.e, ext.d
    pk = p**k
    a, b = u0[0] % pk, u0[1] % pk
    if p == 2 and d == 0 and a % 2 == 0:
        return 0.0
    c = xi.conductor()
    c0 = -(-c // e_)
    ceil_3kd = -(-(3 * k - d) // 2)
    scale = float(p) ** (-ceil_3kd)
    b_prime = (2 * b * ext.B - ext.A * a) % pk
    v_bp = k if b_prime == 0 else valuation(b_prime, p)
    if v_bp < (k + (e_ - 1)) // 2:
        alpha = postnikov_linearize(xi, -(-c // 2))
        T, W = alpha.trace_alpha0_alpha
        L = (k + d) // 2
        pL = p**L
        lhs = b * ext.disc % pL
        rhs = 2 * T * p ** (k - W) % pL
        return scale if lhs == rhs else 0.0
    return scale if -(-(k - (e_ - 1)) // 2) >= c0 else 0.0


def stationary_phase_R_brute(xi: ExtCharacter, k: int, u0s) -> np.ndarray:
    """R_{k,xi}(b) at every unit class u0 = a + b alpha0 of u0s, as the
    normalized finite sum: weight p^{-2k} per (da,db) pair over the du
    lattice subject to the norm congruence.  One masked array over (class,
    da, db), about 2^16 elements at a time; the scalar reference loop below
    cross-checks it in the unit tests."""
    ext = xi.ext
    check_capacity(ext.p, k)
    p, e_, A, B = ext.p, ext.e, ext.A, ext.B
    pk = p**k
    a0, b0 = np.array(u0s, dtype=np.int64).reshape(-1, 2).T % pk
    m = (a0 * a0 - A * a0 * b0 + B * b0 * b0) % pk
    if (m % p == 0).any():
        raise ValueError("every class u0 must be a unit")
    # u0^{-1} = conj(u0) / Nm(u0)
    (ws, wbars), = unit_pairs([(p, k)])
    inverse = np.zeros(pk, dtype=np.int64)
    inverse[ws] = wbars
    m_inv = inverse[m]
    ia, ib = (a0 - A * b0) % pk * m_inv % pk, -b0 % pk * m_inv % pk
    da = np.arange(0, pk, p ** (-(-k // 2)), dtype=np.int64)[:, None]
    db = np.arange(0, pk, p ** (-(-(k - (e_ - 1)) // 2)), dtype=np.int64)[None, :]
    phases = np.exp(-2j * np.pi * ((2 * da - A * db) % pk) / pk)
    table, pM = xi_table(xi), xi.group.pk
    out = np.zeros(len(m), dtype=np.complex128)
    step = max(1, (1 << 16) // phases.size)
    for lo in range(0, len(m), step):
        a, b, n, x, y = (v[lo:lo + step, None, None] for v in (a0, b0, m, ia, ib))
        ua, ub = (a + da) % pk, (b + db) % pk
        mask = (ua * ua - A * ua * ub + B * ub * ub) % pk == n
        ra = (da * x - B * db * y) % pk
        rb = (da * y + db * x - A * db * y) % pk
        vals = table[(1 + ra) % pM, rb % pM]
        out[lo:lo + step] = (vals * phases * mask).reshape(len(a), -1).sum(1)
    return out * float(p) ** (-2 * k)


def stationary_phase_R_brute_scalar(
    xi: ExtCharacter, k: int, u0: tuple[int, int]
) -> complex:
    """Plain-loop reference for stationary_phase_R_brute."""
    ext = xi.ext
    check_capacity(ext.p, k)
    p, e_ = ext.p, ext.e
    pk = p**k
    a_step = p ** (-(-k // 2))
    b_step = p ** (-(-(k - (e_ - 1)) // 2))
    m = ext.norm(u0, pk)
    u0_inv = ext.inv(u0, pk)
    total = 0j
    for da in range(0, pk, a_step):
        for db in range(0, pk, b_step):
            u = ((u0[0] + da) % pk, (u0[1] + db) % pk)
            if ext.norm(u, pk) != m:
                continue
            ratio = ext.mul((da, db), u0_inv, pk)
            one_plus = ((1 + ratio[0]) % pk, ratio[1] % pk)
            total += xi(one_plus) * e(-ext.trace((da, db), pk), pk)
    return total * float(p) ** (-2 * k)


def stationary_decomposition_check(xi: ExtCharacter, m: int, k: int) -> tuple[complex, complex]:
    """Both sides of I_xi(m,p^k) = p^{2k} sum over liftable u0 classes of
    xi(u0) psi_E(-u0/p^k) R_{k,xi}(b)."""
    ext = xi.ext
    p, e_ = ext.p, ext.e
    pk = p**k
    lhs = complex(I_xi_vector(xi, k)[m % pk])
    a_step = p ** (-(-k // 2))
    b_step = p ** (-(-(k - (e_ - 1)) // 2))
    lifts: dict[tuple[int, int], tuple[int, int]] = {}
    for u in norm_fiber(ext, k, m):
        lifts.setdefault((u[0] % a_step, u[1] % b_step), u)
    rhs = 0j
    for u0 in lifts.values():
        rhs += xi(u0) * e(-ext.trace(u0, pk), pk) * stationary_phase_R(xi, k, u0)
    return lhs, rhs * float(p) ** (2 * k)


# ---------------------------------------------------------------------------
# Averaging identities


def averaging_identity_check(xi: ExtCharacter, n: int, m: int, k: int) -> dict:
    """Both regimes of the neighborhood averaging identity; raises with
    the full operands on failure."""
    ext = xi.ext
    p, e_, d = ext.p, ext.e, ext.d
    i = 1 if (p == 2 and e_ == 1) else 0
    restrict = i == 1
    n_classes = len(neighborhood_classes(xi, n, i))
    pk = p**k
    avg = complex(_neighborhood_I_sum(xi, n, i, k)[m % pk]) / n_classes
    from .families import nbhd_threshold

    bound = nbhd_threshold(ext, xi.conductor(), n, i)
    if k >= bound:
        target = complex(I_xi_vector(xi, k, restrict_U1=restrict)[m % pk])
    else:
        target = 0j
    ok = abs(avg - target) <= 1e-9 * max(1.0, math.sqrt(n_classes) * p ** (k / 2))
    report = {
        "ext": ext.label(),
        "n": n,
        "m": m,
        "k": k,
        "i": i,
        "bound": bound,
        "classes": n_classes,
        "average": avg,
        "target": target,
        "ok": ok,
    }
    if not ok:
        raise AssertionError(f"averaging identity failed: {report}")
    return report


# ---------------------------------------------------------------------------
# Bounds


@dataclass(frozen=True)
class BoundItem:
    name: str
    bound: float
    magnitude: float
    satisfied: bool


def bound_report(tf: LocalTestFunction, m: int, n: int, k: int) -> list[BoundItem]:
    """Trivial, Weil, stationary-phase and Katz bounds as applicable."""
    p = tf.p
    val = h_local(tf, m, n, k)
    mag = abs(val.value)
    items = []
    trivial = float(tf.f_one()) * p ** (k + tf.support_exponent())
    items.append(BoundItem("trivial", trivial, mag, mag <= trivial * (1 + 1e-9)))
    if isinstance(tf, Classical) and k >= tf.c:
        vm = min(
            valuation(m, p) if m else k,
            valuation(n, p) if n else k,
            k,
        )
        # |S(m,n;p^k)| <= C (m,n,p^k)^(1/2) p^(k/2), C = 2 for odd p and
        # 2^(3/2) at p = 2, where x^2 = mn can have four roots mod 2^j, not
        # two (the prime-power case of Estermann, "On Kloosterman's sum",
        # Mathematika 8 (1961)); at 2^10 the ratio reaches 2.8282
        weil_c = 2**1.5 if p == 2 else 2
        weil = float(tf.delta_p()) * (weil_c * p ** (k / 2) * p ** (vm / 2))
        items.append(BoundItem("weil", weil, mag, mag <= weil * (1 + 1e-9)))
    if isinstance(tf, Supercuspidal):
        items += _sc_bounds(tf, 1, m * n, k, mag)
    elif isinstance(tf, SupercuspidalNbhd):
        items += _sc_bounds(tf.base, tf.index(), m * n, k, mag)
    return items


def _sc_bounds(tf: Supercuspidal, scale: int, mn: int, k: int, mag: float) -> list[BoundItem]:
    """The stationary-phase and Katz bounds of one supercuspidal, times
    scale: the neighborhood family's sum is index() times its base's."""
    p, c_sigma = tf.p, tf.c_sigma
    items = []
    if k >= max(-(-c_sigma // 2), 2) and not (p == 2 and c_sigma < 5):
        sb = scale * _statphase_bound(tf, mn, k)
        items.append(BoundItem("stationary-phase", sb, mag, mag <= sb * (1 + 1e-9)))
    if tf.ext.e == 1 and tf.c_xi <= 1 and k == 1:
        katz = scale * 2 * math.sqrt(p) * float(tf.delta_p())
        items.append(BoundItem("katz", katz, mag, mag <= katz * (1 + 1e-9)))
    return items


def _statphase_bound(tf: Supercuspidal, m: int, k: int) -> float:
    """|H_p(m,1;p^k)| <= C zeta_p(1) f(1) p^{(k+a)/2 + floor(min(v(w), ceil(k/2))/2)}
    with w = (p^k Tr(alpha0 alpha_xi))^2/D + m and C = 64 (2 for odd p)."""
    ext = tf.ext
    p, d = ext.p, ext.d
    alpha = postnikov_linearize(tf.xi, -(-tf.c_xi // 2))
    T, W = alpha.trace_alpha0_alpha
    cap = -(-k // 2)
    prec = cap + d + 1
    pp = p**prec
    num = (pow(p, 2 * (k - W), pp) * T * T + m * ext.disc) % pp
    v_num = prec if num == 0 else valuation(num, p)
    v_w = max(v_num - d, 0)
    frak_a = (1 - (-1) ** (k + d)) // 2
    C = 2.0 if p != 2 else 64.0
    expo = (k + frak_a) / 2 + min(v_w, cap) // 2
    return C * float(zeta_p(p)) * float(tf.f_one()) * p**expo


def katz_sum_and_bound(xi: ExtCharacter, m: int) -> tuple[float, float]:
    """(|dihedral sum at k=1|, 2 sqrt q) for unramified E, c(xi) <= 1."""
    ext = xi.ext
    assert ext.e == 1
    total = complex(I_xi_vector(xi, 1)[m % ext.p])
    return abs(total), 2 * math.sqrt(ext.q)
