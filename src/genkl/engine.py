"""The generalized Kloosterman sums and their transform/bound suite.

Local sums H_p(m,n;p^k) for all five families, the Langlands constant,
global assembly by twisted multiplicativity, Fourier-Mellin transforms
with closed forms, the p-adic stationary-phase identities with brute-force
oracles, and the bound reports.

Closed forms are authoritative; the brute-force oracles (I_xi by fiber
enumeration, R by direct integration, Mellin by finite Fourier) provide
the independent verification paths.  All heavy sums run through
genkl.kernels.

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
    DirichletCharacter,
    check_capacity,
    e,
    gauss_sum_at_level,
    nu,
    unit_group_zpk,
    valuation,
)
from .quadext import QuadExtension, norm_fiber
from .extchars import (
    ExtCharacter,
    c_psi_E,
    enumerate_xi,
    eta_restriction,
    neighborhood_classes,
    postnikov_linearize,
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


# ---------------------------------------------------------------------------
# Classical sums, cached per modulus


# large enough that a walk over every modulus c <= 1000 (about 304k units,
# 5 MB of tables) is not evicted before it comes round again
@lru_cache(maxsize=2048)
def _unit_inverses(c: int):
    return kernels.unit_inverses(c)


def classical_S(m: int, n: int, c: int) -> complex:
    """S(m,n;c), batched through the kernel backend."""
    if c == 1:
        return 1.0 + 0.0j
    xs, xinvs = _unit_inverses(c)
    return complex(kernels.kloosterman_many([m], [n], c, xs, xinvs)[0])


def classical_S_many(ms, ns, c: int) -> np.ndarray:
    if c == 1:
        return np.ones(len(ms), dtype=np.complex128)
    xs, xinvs = _unit_inverses(c)
    return np.asarray(kernels.kloosterman_many(ms, ns, c, xs, xinvs))


@lru_cache(maxsize=64)
def _classical_S_vector(p: int, k: int) -> np.ndarray:
    """S(y,1;p^k) for every y mod p^k via one FFT."""
    return _twisted_S_vector(p, k, None)


def _twisted_S_vector(p: int, k: int, psi: DirichletCharacter | None) -> np.ndarray:
    """T(y) = sum over units u of psi(u) e((u + y ubar)/p^k) for all y.

    With h[w] = psi(wbar) e(wbar/p^k) on units, T = p^k * ifft(h).
    """
    q = p**k
    if q == 1:
        return np.ones(1, dtype=np.complex128)
    h = np.zeros(q, dtype=np.complex128)
    for w in range(1, q):
        if w % p == 0:
            continue
        wbar = pow(w, -1, q)
        val = e(wbar, q)
        if psi is not None:
            val *= psi(wbar)
        h[w] = val
    return q * np.fft.ifft(h)


# ---------------------------------------------------------------------------
# Dihedral sums


@cache
def xi_table(xi: ExtCharacter, /) -> np.ndarray:
    """2D table of xi over pairs (a, b) mod p^M, zero off units."""
    ext, G = xi.ext, xi.group
    pM = G.pk
    table = np.zeros((pM, pM), dtype=np.complex128)
    for a in range(pM):
        for b in range(pM):
            if not ext.is_unit((a, b)):
                continue
            ph = xi.unit_phase((a, b))
            table[a, b] = e(ph.numerator, ph.denominator)
    return table


def I_xi_vector(xi: ExtCharacter, k: int, restrict_U1: bool = False) -> np.ndarray:
    """I_xi(t, p^k) for every t mod p^k: sums of xi(u) psi(-Tr(u)/p^k) over
    the norm fiber of t, bucketed in one pass over the units.  With
    restrict_U1 the units are cut to U_E(1) (p = 2 unramified use)."""
    check_capacity(xi.ext.p, k)
    return _I_xi_vector(xi, k, restrict_U1)


@cache
def _I_xi_vector(xi: ExtCharacter, k: int, restrict_U1: bool, /) -> np.ndarray:
    ext = xi.ext
    table = xi_table(xi)
    if restrict_U1:
        r = np.arange(len(table))
        table = np.where((r[:, None] % ext.p == 1) & (r[None, :] % ext.p == 0), table, 0)
    return np.asarray(
        kernels.dihedral_bucket(ext.p, k, ext.A, ext.B, table, xi.group.M)
    )


def dihedral_sum_I(ext: QuadExtension, xi: ExtCharacter, m: int, k: int) -> complex:
    """I_xi(m, p^k) through the norm-fiber enumeration (independent of the
    bucketed route)."""
    pk = ext.p**k
    total = 0j
    for u in norm_fiber(ext, k, m):
        ph = xi.unit_phase(u.pair)
        total += e(ph.numerator, ph.denominator) * e(-u.trace(), pk)
    return total


# ---------------------------------------------------------------------------
# Langlands constant


def _eta_p(ext: QuadExtension) -> int:
    from .quadext import eta_char

    return eta_char(ext, ext.p)


def _minimal_valid_xi(ext: QuadExtension) -> ExtCharacter:
    restr = eta_restriction(ext)
    if ext.p != 2:
        cands = [1, 2] if ext.e == 1 else [2]
    else:
        cands = [5] if ext.e == 1 else [8]
    for c in cands:
        xs = enumerate_xi(ext, c, restr, regular_only=True)
        if xs:
            return xs[0]
    raise RuntimeError(f"no valid supercuspidal character on {ext.label()}")


def langlands_gamma(ext: QuadExtension, xi: ExtCharacter | None = None) -> complex:
    """gamma = lambda(E, psi) solved from the degeneration identity at
    k >= c(sigma): conj(gamma) = S(t,1;p^k) p^{d/2} / I_xi(t,p^k) at a
    sample where both sides are visibly nonzero (method B, ground truth)."""
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
            S = classical_S(int(t), 1, ext.p**k)
            if abs(S) > 1e-6:
                return (S * ext.p ** (ext.d / 2) / (eta_p**k * vec[t])).conjugate()
    raise RuntimeError("all degeneration samples vanish; retry with new (m,n)")


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
    if isinstance(tf, Classical):
        if k < tf.c:
            vec = np.zeros(pk, dtype=np.complex128)
        else:
            vec = float(tf.delta_p()) * _classical_S_vector(p, k)
    elif isinstance(tf, NelsonEq):
        vec = _nelson_vector(tf, k)
    elif isinstance(tf, PrincipalSeries):
        vec = np.zeros(pk, dtype=np.complex128)
        if k >= tf.c_chi:
            chi = tf.chi.extend(k) if tf.chi.modulus_exponent < k else tf.chi
            chi2 = chi * chi
            tvec = _twisted_S_vector(p, k, chi2)
            units = np.array([t for t in range(pk) if t % p], dtype=np.int64)
            chibar = np.array([chi(int(t)).conjugate() for t in units])
            vec[units] = float(tf.delta_p()) * chibar * tvec[units]
    elif isinstance(tf, Supercuspidal):
        vec = np.zeros(pk, dtype=np.complex128)
        if k >= tf.support_exponent():
            gamma = langlands_gamma(tf.ext)
            # xi(p^k) = eta(p)^k: the central-character weight of the
            # modulus, needed for one constant gamma to serve every k
            pref = (
                float(tf.delta_p())
                * gamma.conjugate()
                * p ** (-tf.d / 2)
                * _eta_p(tf.ext) ** k
            )
            vec = pref * I_xi_vector(tf.xi, k)
            vec[_nonunit_mask(p, k)] = 0
    elif isinstance(tf, SupercuspidalNbhd):
        vec = np.zeros(pk, dtype=np.complex128)
        if k >= tf.k_p():
            vec = tf.index() * h_local_vector(tf.base, k)
    else:
        raise TypeError(f"unknown family {tf!r}")
    _H_VEC_CACHE[key] = vec
    return vec


def _nonunit_mask(p: int, k: int) -> np.ndarray:
    if k == 0:
        return np.zeros(1, dtype=bool)
    return np.arange(p**k) % p == 0


def h_local(tf: LocalTestFunction, m: int, n: int, k: int) -> KloostermanValue:
    """H_p(m, n; p^k) for the five families."""
    check_capacity(tf.p, k)
    p = tf.p
    pk = p**k

    def out(value, reason=None):
        return KloostermanValue(complex(value), tf.tag, p, k, m, n, reason)

    if isinstance(tf, Classical):
        if k < tf.c:
            return out(0, "below-k_p")
        return out(float(tf.delta_p()) * classical_S(m, n, pk))

    if isinstance(tf, NelsonEq):
        if k < tf.c - 1:
            return out(0, "below-k_p")
        return out(_nelson_value(tf, m, n, k))

    # the newform-projector families vanish off units and below k-thresholds
    threshold = tf.support_exponent() if not isinstance(tf, SupercuspidalNbhd) else tf.k_p()
    if isinstance(tf, PrincipalSeries):
        threshold = tf.c_chi
    if k < threshold:
        return out(0, "below-k_p")
    if (m * n) % p == 0:
        return out(0, "non-unit-mn")
    vec = h_local_vector(tf, k)
    return out(complex(vec[m * n % pk]))


def h_local_vector_definitional(tf: LocalTestFunction, k: int) -> np.ndarray:
    """H_p(t,1;p^k) along the defining decomposition where one exists: the
    neighborhood family is the sum of its member projectors' sums, so its
    vanishing threshold is a computation here, not a gate."""
    if isinstance(tf, SupercuspidalNbhd):
        p = tf.p
        pk = p**k
        vec = np.zeros(pk, dtype=np.complex128)
        if k >= tf.base.support_exponent():
            gamma = langlands_gamma(tf.ext)
            pref = (
                float(tf.base.delta_p())
                * gamma.conjugate()
                * p ** (-tf.ext.d / 2)
                * _eta_p(tf.ext) ** k
            )
            restrict = tf.p == 2 and tf.ext.e == 1
            for xi1 in neighborhood_classes(tf.xi, tf.n, tf.a):
                vec = vec + pref * I_xi_vector(xi1, k, restrict_U1=restrict)
            vec[_nonunit_mask(p, k)] = 0
        return vec
    return h_local_vector(tf, k)


def _nelson_value(tf: NelsonEq, m: int, n: int, k: int) -> complex:
    """The double Moebius sum over d | (m,n,p^c) and e | p^c."""
    p, c = tf.p, tf.c
    total = 0j
    for vd in (0, 1):
        if vd and (m % p or n % p or k == 0):
            continue
        d = p**vd
        mu_d = 1 - 2 * vd
        for ve in (0, 1):
            mu_e = 1 - 2 * ve
            r_exp = k - vd
            if r_exp < 0 or (c - vd - ve) > r_exp:
                continue
            total += (
                mu_d
                * d**2
                * mu_e
                * nu(p ** (c - vd - ve))
                * classical_S(m // d, n // d, p**r_exp)
            )
    return total


def _nelson_vector(tf: NelsonEq, k: int) -> np.ndarray:
    """H(t,1;p^k) for all t: only d = 1 contributes since gcd(t,1,p^c)=1."""
    p, c = tf.p, tf.c
    pk = p**k
    scale = 0
    if k >= c:
        scale += nu(p**c)
    if k >= c - 1:
        scale -= nu(p ** (c - 1))
    if scale == 0:
        return np.zeros(pk, dtype=np.complex128)
    return float(scale) * _classical_S_vector(p, k)


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
    """H(m_i,n_i;c) for parallel arrays of m and n at one modulus c:
    S(cbar_N m, cbar_N n; c_0) * prod_{p|N} H_p(m cbar_0, n cbar_0; p^{v_p(c)}).

    Zero whenever c misses the geometric conductor.  At level 1 this is
    classical_S_many.
    """
    ms = np.asarray(ms, dtype=np.int64)
    ns = np.asarray(ns, dtype=np.int64)
    c0, cN = c, 1
    for tf in gtf.locals:
        while c0 % tf.p == 0:
            c0 //= tf.p
            cN *= tf.p
    cbar_N = pow(cN, -1, c0)
    vals = classical_S_many(cbar_N * ms, cbar_N * ns, c0)
    cbar_0 = pow(c0, -1, gtf.level * cN)
    for tf in gtf.locals:
        v = valuation(cN, tf.p)
        loc = [h_local(tf, m * cbar_0, n * cbar_0, v).value
               for m, n in zip(ms.tolist(), ns.tolist())]
        vals = vals * np.array(loc, dtype=np.complex128)
    return vals


# ---------------------------------------------------------------------------
# Fourier-Mellin transforms


def mellin_direct(tf: LocalTestFunction, alpha: DirichletCharacter, k: int) -> complex:
    """The unit-group integral of H against conj(alpha): p^{-k} times the
    sum over units y mod p^k of H_p(y,1;p^k) conj(alpha(y)).  Zero when
    c(alpha) > k (the finite sum is then meaningless and the integral
    form returns 0).  This additive-measure normalization is the one that
    gives the supercuspidal transform modulus delta_p on its
    non-vanishing set."""
    p = tf.p
    pk = p**k
    if alpha.conductor_exponent() > k:
        return 0j
    vec = h_local_vector(tf, k)
    if pk == 1:
        return complex(vec[0])
    alpha_k = alpha.extend(k) if alpha.modulus_exponent < k else alpha
    total = 0j
    for y in range(1, pk):
        if y % p == 0:
            continue
        v = vec[y]
        if v != 0:
            total += v * alpha_k(y).conjugate()
    return total / pk


def character_fft(p: int, k: int, vec: np.ndarray) -> dict[tuple, complex]:
    """exps -> sum over units y of vec[y] conj(chi_exps(y)), one fftn."""
    gens, orders, dlog = unit_group_zpk(p, k)
    if not orders:
        return {(): complex(vec[1 % len(vec)] if len(vec) > 1 else vec[0])}
    arr = np.zeros(tuple(orders), dtype=np.complex128)
    for y, dv in dlog.items():
        arr[dv] = vec[y]
    hat = np.fft.fftn(arr)
    import itertools

    return {
        exps: complex(hat[exps])
        for exps in itertools.product(*(range(o) for o in orders))
    }


def mellin_direct_all(tf: LocalTestFunction, k: int) -> dict[tuple, complex]:
    """The direct transform for every character mod p^k at once; keys are
    exponent vectors against the standard generators of (Z/p^k)^*."""
    vec = h_local_vector(tf, k)
    pk = tf.p**k
    return {exps: v / pk for exps, v in character_fft(tf.p, k, vec).items()}


def gauss_level_table(p: int, k: int) -> dict[tuple, complex]:
    """tau_k(chi) = sum over units m of chi(m) e(m/p^k), for every chi."""
    pk = p**k
    vec = np.array(
        [e(m, pk) if (pk == 1 or m % p) else 0 for m in range(pk)],
        dtype=np.complex128,
    )
    hat = character_fft(p, k, vec)
    _, orders, _ = unit_group_zpk(p, k)
    return {tuple((-x) % o for x, o in zip(exps, orders)): v for exps, v in hat.items()}


def mellin_closed(tf: LocalTestFunction, alpha: DirichletCharacter, k: int) -> complex:
    """The family's Gauss-sum formula for the Fourier-Mellin transform."""
    p = tf.p
    pk = p**k
    if alpha.conductor_exponent() > k:
        return 0j
    alpha_k = alpha.extend(k) if alpha.modulus_exponent < k else alpha
    if isinstance(tf, Classical):
        if k < tf.c:
            return 0j
        tau = gauss_sum_at_level(alpha_k.conjugate(), k)
        return float(tf.delta_p()) * tau * tau / pk
    if isinstance(tf, NelsonEq):
        scale = (nu(p**tf.c) if k >= tf.c else 0) - (
            nu(p ** (tf.c - 1)) if k >= tf.c - 1 else 0
        )
        if scale == 0:
            return 0j
        tau = gauss_sum_at_level(alpha_k.conjugate(), k)
        return scale * tau * tau / pk
    if isinstance(tf, PrincipalSeries):
        if k < tf.c_chi:
            return 0j
        chi_k = tf.chi.extend(k) if tf.chi.modulus_exponent < k else tf.chi
        tau1 = gauss_sum_at_level((alpha_k * chi_k).conjugate(), k)
        tau2 = gauss_sum_at_level(alpha_k.conjugate() * chi_k, k)
        return float(tf.delta_p()) * tau1 * tau2 / pk
    if isinstance(tf, Supercuspidal):
        return _mellin_closed_sc(tf, alpha_k, k)
    if isinstance(tf, SupercuspidalNbhd):
        if k < tf.k_p():
            return 0j
        return tf.index() * _mellin_closed_sc(tf.base, alpha_k, k)
    raise TypeError(f"unknown family {tf!r}")


def composed_conductor(alpha_bar: DirichletCharacter, xi: ExtCharacter, k: int) -> int:
    """c((alpha_bar o Nm) xi) by a top-down layer scan at pair precision
    p^k; valid while the conductor is at most ek."""
    ext = xi.ext
    pk = ext.p**k
    for j in range(ext.e * k - 1, 0, -1):
        for tau in _layer_generators(ext, j, k):
            gen = ((1 + tau[0]) % pk, tau[1] % pk)
            if _composed_phase(alpha_bar, xi, gen, k) != 0:
                return j + 1
    for u in _tame_units(ext, k):
        if _composed_phase(alpha_bar, xi, u, k) != 0:
            return 1
    return 0


def _layer_generators(ext: QuadExtension, j: int, k: int):
    """Pairs tau with v_E(tau) = j whose one-units generate layer j."""
    p = ext.p
    if ext.e == 1:
        return [(p**j, 0), (0, p**j)]
    half = j // 2
    if j % 2 == 0:
        return [(p**half, 0)]
    return [(0, p**half)]


def _tame_units(ext: QuadExtension, k: int):
    pk = ext.p**k
    return [
        (a % pk, b % pk)
        for a in range(ext.p)
        for b in range(ext.p)
        if ext.is_unit((a, b))
    ]


def _composed_phase(
    alpha_bar: DirichletCharacter, xi: ExtCharacter, pair: tuple[int, int], k: int
) -> Fraction:
    """Exact phase of (alpha_bar o Nm) xi at a unit pair mod p^k."""
    ext = xi.ext
    prec = ext.p ** max(k, alpha_bar.modulus_exponent, 1)
    ph_a = alpha_bar.phase(ext.norm(pair, prec))
    assert ph_a is not None
    return (ph_a + xi.unit_phase(pair)) % 1


def _mellin_closed_sc(tf: Supercuspidal, alpha: DirichletCharacter, k: int) -> complex:
    """Zero unless c(conj(alpha)_E xi) = ek - d; otherwise the E-side
    Gauss sum, evaluated at its stationary point."""
    ext, xi = tf.ext, tf.xi
    p, e_, d = ext.p, ext.e, ext.d
    if 2 * k < tf.c_sigma or alpha.conductor_exponent() > k:
        return 0j
    alpha_bar = alpha.conjugate()
    if composed_conductor(alpha_bar, xi, k) != e_ * k - d:
        return 0j
    G = _stationary_E_gauss(alpha_bar, xi, k)
    gamma = langlands_gamma(ext)
    return (
        float(tf.delta_p())
        * gamma.conjugate()
        * p ** (-d / 2)
        * _eta_p(ext) ** k
        * G
        / p**k
    )


def _layer_shifts(ext: QuadExtension, lv: int, k: int):
    """Representatives of p_E^lv / p_E^{lv+1} as pairs (including 0)."""
    p = ext.p
    if ext.e == 1:
        base = p**lv
        return [(base * t1, base * t2) for t1 in range(p) for t2 in range(p)]
    half = lv // 2
    if lv % 2 == 0:
        return [(p**half * t, 0) for t in range(p)]
    return [(0, p**half * t) for t in range(p)]


def _lattice_classes(ext: QuadExtension, r: int, s: int, k: int):
    """Representatives of p_E^r / p_E^s as pairs mod p^k."""
    pk = ext.p**k
    out = [(0, 0)]
    for lv in range(r, s):
        out = [
            ((a + sa) % pk, (b + sb) % pk)
            for (a, b) in out
            for (sa, sb) in _layer_shifts(ext, lv, k)
        ]
    return out


def _stationary_E_gauss(
    alpha_bar: DirichletCharacter, xi: ExtCharacter, k: int
) -> complex:
    """G = sum over (O_E/p^k)^x of psi_c(u) psi_E(-u/p^k) for the composed
    character psi_c of conductor ek - d: the layer pairings pin the
    stationary unit x one digit per layer, and only the few classes
    congruent to x mod p_E^r survive."""
    ext = xi.ext
    p, e_, d = ext.p, ext.e, ext.d
    pk = p**k
    c_prime = e_ * k - d
    s = -(-(e_ * k) // 2)
    r = max(e_ * k - s + c_psi_E(ext), 0)
    x, depth = (1 % pk, 0), 0
    for j in range(c_prime - 1, s - 1, -1):
        want = e_ * k - j + c_psi_E(ext)
        cands = [x]
        for lv in range(depth, want):
            cands = [
                ((a + sa) % pk, (b + sb) % pk)
                for (a, b) in cands
                for (sa, sb) in _layer_shifts(ext, lv, k)
            ]
        new_x = None
        for cand in cands:
            if not ext.is_unit(cand):
                continue
            if all(
                _stationary_eq_holds(alpha_bar, xi, cand, j, tau, k)
                for tau in _layer_generators(ext, j, k)
            ):
                if new_x is not None and new_x != cand:
                    raise AssertionError("stationary point not unique")
                new_x = cand
        if new_x is None:
            return 0j
        x, depth = new_x, want
    total = 0j
    for da, db in _lattice_classes(ext, r, s, k):
        u0 = ((x[0] + da) % pk, (x[1] + db) % pk)
        if not ext.is_unit(u0):
            continue
        ph = _composed_phase(alpha_bar, xi, u0, k)
        total += e(ph.numerator, ph.denominator) * e(-ext.trace(u0, pk), pk)
    return float(ext.q_E) ** (e_ * k - s) * total


def _stationary_eq_holds(alpha_bar, xi, x, j, tau, k) -> bool:
    """psi_c(1 + tau) == psi_E(x tau / p^k) as exact phases, v_E(tau) = j."""
    ext = xi.ext
    pk = ext.p**k
    gen = ((1 + tau[0]) % pk, tau[1] % pk)
    lhs = _composed_phase(alpha_bar, xi, gen, k)
    prod = ext.mul(x, tau, pk)
    rhs = Fraction(ext.trace(prod, pk), pk) % 1
    return lhs == rhs


def E_gauss_brute(alpha_bar: DirichletCharacter, xi: ExtCharacter, k: int) -> complex:
    """Full-sum oracle for _stationary_E_gauss (small k only)."""
    ext = xi.ext
    pk = ext.p**k
    total = 0j
    for a in range(pk):
        for b in range(pk):
            if not ext.is_unit((a, b)):
                continue
            ph = _composed_phase(alpha_bar, xi, (a, b), k)
            total += e(ph.numerator, ph.denominator) * e(-ext.trace((a, b), pk), pk)
    return total


# ---------------------------------------------------------------------------
# Stationary phase for the dihedral sums


def stationary_phase_R(xi: ExtCharacter, k: int, u0: tuple[int, int]) -> float:
    """Closed form for R_{k,xi}(b), the oscillatory integral over du with
    v_E(du) >= ek/2 and the norm congruence at u0 = a + b alpha0."""
    ext = xi.ext
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
        T, W = alpha.trace_alpha0_alpha()
        L = (k + d) // 2
        pL = p**L
        lhs = b * ext.disc % pL
        rhs = 2 * T * p ** (k - W) % pL
        return scale if lhs == rhs else 0.0
    return scale if -(-(k - (e_ - 1)) // 2) >= c0 else 0.0


def stationary_phase_R_brute(
    xi: ExtCharacter, k: int, u0: tuple[int, int]
) -> complex:
    """R_{k,xi}(b) as the normalized finite sum: weight p^{-2k} per (da,db)
    pair over the du lattice subject to the norm congruence.  Evaluated
    with array arithmetic; the scalar reference loop below cross-checks
    it in the unit tests."""
    ext = xi.ext
    p, e_ = ext.p, ext.e
    pk = p**k
    a_step = p ** (-(-k // 2))
    b_step = p ** (-(-(k - (e_ - 1)) // 2))
    m = ext.norm(u0, pk)
    u0_inv = ext.inv(u0, pk)
    da = np.arange(0, pk, a_step, dtype=np.int64)[:, None]
    db = np.arange(0, pk, b_step, dtype=np.int64)[None, :]
    A, B = ext.A, ext.B
    ua = (u0[0] + da) % pk
    ub = (u0[1] + db) % pk
    norm = (ua * ua - A * ua * ub + B * ub * ub) % pk
    mask = norm == m
    if not mask.any():
        return 0j
    ia, ib = u0_inv
    ra = (da * ia - B * db * ib) % pk
    rb = (da * ib + db * ia - A * db * ib) % pk
    table = xi_table(xi)
    pM = xi.group.pk
    vals = table[(1 + ra) % pM, rb % pM]
    tr = (2 * da - A * db) % pk
    phases = np.exp(-2j * np.pi * tr / pk)
    total = (vals * phases * mask).sum()
    return complex(total) * float(p) ** (-2 * k)


def stationary_phase_R_brute_scalar(
    xi: ExtCharacter, k: int, u0: tuple[int, int]
) -> complex:
    """Plain-loop reference for stationary_phase_R_brute."""
    ext = xi.ext
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
            ph = xi.unit_phase(one_plus)
            total += e(ph.numerator, ph.denominator) * e(-ext.trace((da, db), pk), pk)
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
        key = (u.a % a_step, u.b % b_step)
        lifts.setdefault(key, u.pair)
    rhs = 0j
    for u0 in lifts.values():
        ph = xi.unit_phase(u0)
        rhs += (
            e(ph.numerator, ph.denominator)
            * e(-ext.trace(u0, pk), pk)
            * stationary_phase_R(xi, k, u0)
        )
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
    reps = neighborhood_classes(xi, n, i)
    pk = p**k
    avg = sum(
        complex(I_xi_vector(xi1, k, restrict_U1=restrict)[m % pk]) for xi1 in reps
    ) / len(reps)
    from .families import nbhd_threshold

    bound = nbhd_threshold(ext, xi.conductor(), n, i)
    if k >= bound:
        target = complex(I_xi_vector(xi, k, restrict_U1=restrict)[m % pk])
    else:
        target = 0j
    ok = abs(avg - target) <= 1e-9 * max(1.0, math.sqrt(len(reps)) * p ** (k / 2))
    report = {
        "ext": ext.label(),
        "n": n,
        "m": m,
        "k": k,
        "i": i,
        "bound": bound,
        "classes": len(reps),
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
    if isinstance(tf, (Classical, NelsonEq)):
        vm = min(
            valuation(m, p) if m else k,
            valuation(n, p) if n else k,
            k,
        )
        weil_S = 2 * p ** (k / 2) * p ** (vm / 2)
        if isinstance(tf, Classical) and k >= tf.c:
            weil = float(tf.delta_p()) * weil_S
            items.append(BoundItem("weil", weil, mag, mag <= weil * (1 + 1e-9)))
    base = tf.base if isinstance(tf, SupercuspidalNbhd) else tf
    if isinstance(base, Supercuspidal):
        scalefac = tf.index() if isinstance(tf, SupercuspidalNbhd) else 1
        c_sigma = base.c_sigma
        if k >= max(-(-c_sigma // 2), 2) and not (p == 2 and c_sigma < 5):
            sb = scalefac * _statphase_bound(base, m * n, k)
            items.append(BoundItem("stationary-phase", sb, mag, mag <= sb * (1 + 1e-9)))
        if base.ext.e == 1 and base.c_xi <= 1 and k == 1:
            katz = scalefac * 2 * math.sqrt(p) * float(base.delta_p())
            items.append(BoundItem("katz", katz, mag, mag <= katz * (1 + 1e-9)))
    return items


def _statphase_bound(tf: Supercuspidal, m: int, k: int) -> float:
    """|H_p(m,1;p^k)| <= C zeta_p(1) f(1) p^{(k+a)/2 + floor(min(v(w), ceil(k/2))/2)}
    with w = (p^k Tr(alpha0 alpha_xi))^2/D + m and C = 64 (2 for odd p)."""
    ext = tf.ext
    p, d = ext.p, ext.d
    alpha = postnikov_linearize(tf.xi, -(-tf.c_xi // 2))
    T, W = alpha.trace_alpha0_alpha()
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
