"""Independent checks of every workload's output.

Each check takes the text a command printed and returns a list of
problems (empty when the output is right).  Values are compared against
routes that do not share code with the one under test: Kloosterman sums
summed from their definition here (`padic.kloosterman_classical` is not
used, since it goes through the very kernel being checked), the norm-fiber
enumeration `engine.dihedral_sum_I` with the epsilon-factor gamma, the
neighborhood's member-by-member sum `engine.h_local_vector_definitional`,
`padic.twisted_kloosterman`, and Hecke eigenvalues rebuilt here from
q-expansions.  Counts of checks are derived from the family enumeration.
The seed picks which rows the slow routes recompute.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
from fractions import Fraction

import numpy as np
from scipy.special import jv

from genkl import engine, petersson
from genkl.extchars import enumerate_xi, eta_restriction, neighborhood_classes, sigma_conductor
from genkl.families import Classical, NelsonEq, PrincipalSeries, Supercuspidal, SupercuspidalNbhd
from genkl.padic import enumerate_dirichlet, twisted_kloosterman
from genkl.quadext import eta_char, standard_extensions

import workloads as W

SAMPLES = 3  # rows per table recomputed by a slow route


# ---------------------------------------------------------------------------
# Independent arithmetic


def phi(p: int, k: int) -> int:
    return 1 if k == 0 else p ** (k - 1) * (p - 1)


def nu(p: int, j: int) -> int:
    """[SL2(Z) : Gamma_0(p^j)]."""
    return 1 if j == 0 else p**j + p ** (j - 1)


def units(p: int, k: int) -> list[int]:
    q = p**k
    return [0] if q == 1 else [t for t in range(1, q) if t % p]


def kloosterman_direct(m: int, n: int, c: int) -> complex:
    """S(m,n;c) summed term by term from its definition."""
    if c == 1:
        return 1 + 0j
    return sum(
        cmath.exp(2j * math.pi * ((m * x + n * pow(x, -1, c)) % c) / c)
        for x in range(1, c)
        if math.gcd(x, c) == 1
    )


_ROW_CACHE: dict = {}


def twisted_row(p: int, k: int, chi=None) -> np.ndarray:
    """sum over units u mod p^k of chi(u)^2 e((u + t ubar)/p^k) for every t;
    with chi None this is S(t,1;p^k).  Blocks of t keep memory small."""
    key = (p, k, None if chi is None else chi.exps)
    if key in _ROW_CACHE:
        return _ROW_CACHE[key]
    q = p**k
    u = np.array(units(p, k), dtype=np.int64)
    ubar = np.array([pow(int(x), -1, q) for x in u], dtype=np.int64)
    w = np.ones(len(u)) if chi is None else np.array([chi(int(x)) ** 2 for x in u])
    root = np.exp(2j * np.pi * np.arange(q) / q)
    out = np.empty(q, dtype=np.complex128)
    for lo in range(0, q, 256):
        t = np.arange(lo, min(q, lo + 256), dtype=np.int64)
        out[lo : lo + len(t)] = (root[(u + np.outer(t, ubar)) % q] * w).sum(axis=1)
    _ROW_CACHE[key] = out
    return out


def bernoulli(n: int) -> Fraction:
    b = [Fraction(1)]
    for m in range(1, n + 1):
        b.append(-sum(math.comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return b[n]


def eigenvalues(kappa: int, n_max: int) -> list[float]:
    """lambda(1..n_max) of the level-1 weight-kappa eigenform, for kappa with
    dim S_kappa = 1, from Delta * E_{kappa-12}: Delta from its product
    q prod (1 - q^n)^24, E_j from 1 - (2j/B_j) sum sigma_{j-1}(n) q^n."""
    prod = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        for _ in range(24):
            prod = [prod[i] - (prod[i - n] if i >= n else 0) for i in range(n_max + 1)]
    delta = [0] + prod[:n_max]  # coefficients of q^0..q^n_max
    j = kappa - 12
    eis = [Fraction(1)] + [Fraction(0)] * n_max
    if j:
        c = -Fraction(2 * j) / bernoulli(j)
        for n in range(1, n_max + 1):
            eis[n] = c * sum(d ** (j - 1) for d in range(1, n + 1) if n % d == 0)
    coeff = [sum(delta[i] * eis[n - i] for i in range(n + 1)) for n in range(n_max + 1)]
    return [float(coeff[n]) / n ** ((kappa - 1) / 2) for n in range(1, n_max + 1)]


def petersson_side(kappa: int, m: int, n: int, c_max: int = 300) -> float:
    """delta_{m,n} + 2 pi i^-kappa sum_c S(m,n;c)/c J_{kappa-1}(4 pi sqrt(mn)/c);
    the terms past c = 300 are below 1e-15 for these weights and m, n <= 10."""
    x = 4 * math.pi * math.sqrt(m * n)
    total = sum(kloosterman_direct(m, n, c) / c * jv(kappa - 1, x / c) for c in range(1, c_max + 1))
    return ((1.0 if m == n else 0.0) + 2 * math.pi * (1j) ** (-kappa) * total).real


# ---------------------------------------------------------------------------
# Families, built from the genkl API (not through the CLI)


def ext_of(p: int, name: str):
    return standard_extensions(p)[{"unramified": 0, "ramified": 1}[name]]


def family_of(spec: dict):
    fam, p = spec["family"], spec["p"]
    if fam == "classical":
        return Classical(p, spec["c"])
    if fam == "nelson":
        return NelsonEq(p, spec["c"])
    if fam == "ps":
        chis = [chi for chi in enumerate_dirichlet(p, spec["chi_conductor"])
                if chi.is_primitive() and chi.order() > 2]
        return PrincipalSeries(chis[0])
    ext = ext_of(p, spec["ext"])
    xi = enumerate_xi(ext, spec["cxi"], eta_restriction(ext), regular_only=True)[0]
    if fam == "supercuspidal":
        return Supercuspidal(xi)
    return SupercuspidalNbhd(xi, spec["n_radius"])


def suite_families(p: int) -> list[Supercuspidal]:
    """The supercuspidals the degeneration suite walks at odd p: regular xi
    with the eta restriction at c(xi) = 1, 2 (unramified E) or 2 (ramified
    E), with c(sigma) <= 4."""
    out = []
    for ext in standard_extensions(p):
        for c in ([1, 2] if ext.e == 1 else [2]):
            for xi in enumerate_xi(ext, c, eta_restriction(ext), regular_only=True):
                if sigma_conductor(xi) <= 4:
                    out.append(Supercuspidal(xi))
    return out


def dihedral_route(tf: Supercuspidal, t: int, k: int) -> complex:
    """H(t,1;p^k) from the norm-fiber enumeration of I_xi and the
    epsilon-factor value of gamma."""
    ext = tf.ext
    gamma = engine.langlands_gamma_eps(ext)
    return (
        float(tf.delta_p()) * gamma.conjugate() * ext.p ** (-ext.d / 2)
        * eta_char(ext, ext.p) ** k * engine.dihedral_sum_I(ext, tf.xi, t, k)
    )


def nbhd_index(tf: SupercuspidalNbhd) -> int:
    """Members of the neighborhood up to the relation the sums cannot see."""
    return len(neighborhood_classes(tf.xi, tf.n, tf.a))


def _close(a: complex, b: complex, tol: float) -> bool:
    return abs(a - b) <= tol


def _last_json(text: str) -> dict | None:
    lines = text.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


# ---------------------------------------------------------------------------
# petersson


def check_petersson(text: str, rng) -> list[str]:
    rec = _last_json(text)
    if rec is None:
        return ["petersson: no JSON line"]
    problems = []
    want = {"kappas": list(W.PETERSSON_KAPPAS), "mmax": W.PETERSSON_MMAX, "cmax": W.PETERSSON_CMAX}
    for key, val in want.items():
        if rec.get(key) != val:
            problems.append(f"petersson: {key} = {rec.get(key)!r}, expected {val!r}")
    dev = rec.get("max_deviation")
    if not isinstance(dev, float) or not dev <= 1e-9:
        problems.append(f"petersson: max_deviation {dev!r} above 1e-9")
    if rec.get("status") != "pass":
        problems.append(f"petersson: status {rec.get('status')!r}")
    # the oracle that max_deviation is measured against, rebuilt here
    n_max = W.PETERSSON_MMAX
    for kappa in W.PETERSSON_KAPPAS:
        ours = eigenvalues(kappa, n_max)
        theirs = petersson.builtin_eigendata(kappa, n_max).lams
        err = max(abs(a - b) for a, b in zip(ours, theirs))
        if err > 1e-9:
            problems.append(f"petersson: eigenvalue oracle off by {err:.2e} at kappa={kappa}")
    # seeded pairs: the program's ratio against one from a geometric side
    # summed here, and both against the eigenvalue product
    for _ in range(2):
        kappa = rng.choice(W.PETERSSON_KAPPAS)
        m, n = rng.randint(1, n_max), rng.randint(1, n_max)
        lam = eigenvalues(kappa, n_max)
        ours = petersson_side(kappa, m, n) / petersson_side(kappa, 1, 1)
        rep = program_ratio(kappa, m, n)
        if abs(rep - ours) > 1e-9 or abs(ours - lam[m - 1] * lam[n - 1]) > 1e-9:
            problems.append(f"petersson: kappa={kappa} m={m} n={n}: program ratio {rep:.12g}, "
                            f"independent {ours:.12g}, eigenvalues {lam[m - 1] * lam[n - 1]:.12g}")
    return problems


def program_ratio(kappa: int, m: int, n: int) -> float:
    """P(m,n)/P(1,1) as genkl computes it for petersson-verify."""
    rep = petersson.ratio_verify([kappa], [(m, n)], c_max=W.PETERSSON_CMAX)
    return rep["entries"][0]["ratio"]


# ---------------------------------------------------------------------------
# degeneration


def check_degeneration(text: str, p: int) -> list[str]:
    rec = _last_json(text)
    if rec is None:
        return [f"degeneration p={p}: no JSON line"]
    problems = []
    if rec.get("suite") != "degeneration" or rec.get("p") != p:
        problems.append(f"degeneration p={p}: header {rec.get('suite')!r} p={rec.get('p')!r}")
    if rec.get("status") != "pass" or rec.get("failures") != []:
        problems.append(f"degeneration p={p}: status {rec.get('status')!r}, failures {rec.get('failures')!r}")
    # one check per unit t mod p^k, at k = c(sigma) and c(sigma) + 1
    want = sum(phi(p, tf.c_sigma) + phi(p, tf.c_sigma + 1) for tf in suite_families(p))
    if rec.get("checks") != want:
        problems.append(f"degeneration p={p}: {rec.get('checks')!r} checks, family enumeration gives {want}")
    return problems


def degeneration_samples(rng) -> list[str]:
    """At k >= c(sigma) the supercuspidal sum is f(1) zeta_p S(t,1;p^k):
    the program's vector, that identity with S summed here, and the
    norm-fiber route must agree on seeded (family, k, t)."""
    problems = []
    for p in W.DEGENERATION_PRIMES:
        fams = suite_families(p)
        for _ in range(2):
            tf = fams[rng.randrange(len(fams))]
            k = tf.c_sigma + rng.randrange(2)
            t = rng.choice(units(p, k))
            q = p**k
            prog = complex(engine.h_local_vector(tf, k)[t])
            ident = float(tf.f_one() * Fraction(p, p - 1)) * kloosterman_direct(t, 1, q)
            fiber = dihedral_route(tf, t, k)
            tol = 1e-9 * (1 + float(tf.delta_p()) * q)
            if not (_close(prog, ident, tol) and _close(prog, fiber, tol)):
                problems.append(
                    f"degeneration sample {tf.ext.label()} k={k} t={t}: "
                    f"program {prog:.6g}, identity {ident:.6g}, fiber {fiber:.6g}"
                )
    return problems


# ---------------------------------------------------------------------------
# klsum: the neighborhood Mellin table


def check_mellin_table(text: str, rng) -> list[str]:
    spec = dict(family="nbhd", **W.MELLIN_NBHD)
    tf = family_of(spec)
    p = tf.p
    rows = list(csv.reader(io.StringIO(text)))
    want_header = ["family", "p", "k", "alpha", "direct_re", "direct_im", "closed_re", "closed_im", "abs_err"]
    if not rows or rows[0] != want_header:
        return ["mellin table: bad header"]
    alphas = [(k, alpha) for k in range(spec["k"][0], spec["k"][1] + 1) for alpha in enumerate_dirichlet(p, k)]
    body = rows[1:]
    if len(body) != len(alphas):
        return [f"mellin table: {len(body)} rows, expected {len(alphas)}"]
    problems = []
    tol = 1e-8 * float(tf.delta_p())
    for row, (k, alpha) in zip(body, alphas):
        key = (row[0], row[1], row[2], row[3])
        if key != (tf.tag, str(p), str(k), "+".join(map(str, alpha.exps))):
            problems.append(f"mellin table: row {key} out of order")
            break
        direct = complex(float(row[4]), float(row[5]))
        closed = complex(float(row[6]), float(row[7]))
        if abs(direct - closed) > tol or float(row[8]) > tol:
            problems.append(f"mellin table: k={k} alpha={row[3]} direct {direct:.6g} closed {closed:.6g}")
    # seeded rows: the transform of the member-by-member sum, summed here
    for i in rng.sample(range(len(alphas)), SAMPLES):
        k, alpha = alphas[i]
        q = p**k
        vec = engine.h_local_vector_definitional(tf, k)
        alpha_k = alpha.extend(k) if alpha.modulus_exponent < k else alpha
        direct = sum(vec[y] * alpha_k(y).conjugate() for y in units(p, k)) / q
        closed = complex(float(body[i][6]), float(body[i][7]))
        if abs(direct - closed) > tol:
            problems.append(f"mellin sample k={k} alpha={body[i][3]}: {closed:.6g} vs {direct:.6g}")
    return problems


# ---------------------------------------------------------------------------
# klsum: the klsum tables


def trivial_bound(tf, k: int) -> float:
    """Number of terms times the largest weight, per family."""
    p = tf.p
    if isinstance(tf, NelsonEq):
        return (nu(p, tf.c) + nu(p, tf.c - 1)) * phi(p, k)
    if isinstance(tf, (Classical, PrincipalSeries)):
        return float(tf.delta_p()) * phi(p, k)
    return float(tf.delta_p()) * p ** (-tf.ext.d / 2) * p ** (2 * k)


def expected_row(tf, k: int):
    """H(t,1;p^k) for every t from a route independent of the program's,
    or None where only the slow per-row routes apply."""
    p = tf.p
    q = p**k
    zero = np.zeros(q, dtype=np.complex128)
    if isinstance(tf, Classical):
        return zero if k < tf.c else float(tf.delta_p()) * twisted_row(p, k)
    if isinstance(tf, NelsonEq):
        scale = (nu(p, tf.c) if k >= tf.c else 0) - (nu(p, tf.c - 1) if k >= tf.c - 1 else 0)
        return scale * twisted_row(p, k)
    if isinstance(tf, PrincipalSeries):
        if k < tf.c_chi:
            return zero
        chi = tf.chi.extend(k) if tf.chi.modulus_exponent < k else tf.chi
        out = zero.copy()
        for t in units(p, k):
            out[t] = chi(t).conjugate()
        return float(tf.delta_p()) * out * twisted_row(p, k, chi)
    base = tf if isinstance(tf, Supercuspidal) else tf.base
    if k >= base.c_sigma:
        index = 1 if tf is base else nbhd_index(tf)
        return index * float(base.f_one() * Fraction(p, p - 1)) * twisted_row(p, k)
    if isinstance(tf, Supercuspidal) and k < tf.support_exponent():
        return zero
    return None


def sampled_value(tf, t: int, k: int) -> complex:
    if isinstance(tf, Supercuspidal):
        return dihedral_route(tf, t, k)
    return complex(engine.h_local_vector_definitional(tf, k)[t])


def check_klsum_table(spec: dict, text: str, rng) -> list[str]:
    tf = family_of(spec)
    p = tf.p
    label = " ".join(W.family_flags(spec))
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["family", "p", "k", "m", "n", "re", "im", "vanishing_reason"]:
        return [f"klsum {label}: bad header"]
    grid = [(k, t) for k in range(spec["k"][0], spec["k"][1] + 1) for t in units(p, k)]
    body = rows[1:]
    if len(body) != len(grid):
        return [f"klsum {label}: {len(body)} rows, expected {len(grid)}"]
    delta = float(tf.delta_p())
    ks = range(spec["k"][0], spec["k"][1] + 1)
    expected = {k: expected_row(tf, k) for k in ks}
    bound = {k: trivial_bound(tf, k) * (1 + 1e-9) for k in ks}
    tol = {k: 1e-9 * (1 + delta * p**k) for k in ks}
    problems = []
    pending = []
    for row, (k, t) in zip(body, grid):
        if row[:5] != [tf.tag, str(p), str(k), str(t), "1"]:
            problems.append(f"klsum {label}: row {row[:5]} where k={k} t={t} belongs")
            break
        val = complex(float(row[5]), float(row[6]))
        if row[7] == "below-k_p" and val != 0:
            problems.append(f"klsum {label}: k={k} t={t} is below-k_p but {val}")
        if abs(val) > bound[k]:
            problems.append(f"klsum {label}: k={k} t={t} |H| = {abs(val):.6g} above the trivial bound")
        if expected[k] is None:
            pending.append((k, t, val))
        elif not _close(val, expected[k][t], tol[k]):
            problems.append(f"klsum {label}: k={k} t={t} is {val:.6g}, expected {expected[k][t]:.6g}")
    for k, t, val in rng.sample(pending, min(SAMPLES, len(pending))):
        ref = sampled_value(tf, t, k)
        if not _close(val, ref, tol[k]):
            problems.append(f"klsum {label}: sampled k={k} t={t} is {val:.6g}, independent route {ref:.6g}")
    if isinstance(tf, PrincipalSeries):
        for i in rng.sample([i for i, g in enumerate(grid) if g[0] >= tf.c_chi], SAMPLES):
            (k, t), row = grid[i], body[i]
            chi = tf.chi.extend(k) if tf.chi.modulus_exponent < k else tf.chi
            ref = delta * chi(t).conjugate() * twisted_kloosterman(chi * chi, 1, t, p**k)
            if not _close(complex(float(row[5]), float(row[6])), ref, tol[k]):
                problems.append(f"klsum {label}: sampled k={k} t={t} disagrees with the twisted Kloosterman sum")
    return problems


# ---------------------------------------------------------------------------
# per workload: one check per command, plus checks that need no output


def command_checks(workload: str):
    """One function (text, rng) -> problems per command of the workload."""
    if workload == "petersson":
        return [check_petersson]
    if workload == "degeneration":
        return [lambda text, rng, p=p: check_degeneration(text, p) for p in W.DEGENERATION_PRIMES]
    if workload == "klsum":
        return [lambda text, rng, spec=spec: check_klsum_table(spec, text, rng)
                for spec in W.KLSUM_TABLES] + [check_mellin_table]
    raise KeyError(workload)


def workload_samples(workload: str, rng) -> list[str]:
    """Seeded comparisons that do not read a command's output."""
    return degeneration_samples(rng) if workload == "degeneration" else []
