"""Desk-scale numerical verification of the Petersson formula.

The geometric side has one path at every level: a table of H(m,n;c) over
the admissible moduli c = k(F), 2k(F), ... <= c_max for a list of pairs,
built once by engine.h_global_table, then summed for every weight at once
in two parts.  Past some c0 every Bessel argument 4 pi sqrt(mn)/c lies in
the fast region of J's power series (DLMF 10.2.2).  The head, the blocks
of moduli up to the first block boundary past c0, is summed against
J-Bessel weights, each block of moduli in one array pass, and the block
sums in ascending c with Kahan compensation per (weight, pair).  The
series tail, every modulus after the head, needs no Bessel values: it is
a few power moments sum_c H(m,n;c) (c0/c)^s of the table against the
series' coefficients.  The
integer-order Bessel functions come from one numpy routine (power series
at small x, Hankel's expansion and the forward recurrence at x above every
order, Miller's backward recurrence in between; DLMF 10.17(i), 10.74(iv));
archimedean.bessel_J reads its integer orders from the same table.
Eigenvalue data comes from the eta-product / Eisenstein-series expansions
(level 1), or from an append-only JSONL cache that is validated on
ingest.  Only eigenvalue ratios are ever asserted: the ratio
P(m,n)/P(1,1) removes the harmonic weight and the Petersson norm at one
stroke in the one-dimensional weights.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .engine import GlobalTestFunction, check_table_capacity, h_global_table
from .padic import BESSEL_X_CAP, CapacityError

# weights with dim S_kappa(SL_2(Z)) = 1
ONE_DIMENSIONAL_WEIGHTS = (12, 16, 18, 20, 22, 26)


# ---------------------------------------------------------------------------
# Eigenvalue data


def _sparse_eta_cube(n_max: int) -> dict[int, int]:
    """Coefficients of prod (1-q^n)^3 = sum (-1)^k (2k+1) q^{k(k+1)/2}."""
    out = {}
    k = 0
    while k * (k + 1) // 2 <= n_max:
        out[k * (k + 1) // 2] = (-1) ** k * (2 * k + 1)
        k += 1
    return out


def delta_coeffs(n_max: int) -> list[int]:
    """tau(1..n_max): coefficients of q prod (1-q^n)^24, exact integers.

    prod (1-q^n)^24 = (eta-cube series)^8; multiplying the dense series by
    the sparse cube seven times keeps the work near n_max^{3/2}.
    """
    if n_max > 10**5:
        raise ValueError("n_max capped at 1e5")
    cube = _sparse_eta_cube(n_max)
    dense = [0] * n_max
    for i, c in cube.items():
        if i < n_max:
            dense[i] = c
    for _ in range(7):
        nxt = [0] * n_max
        for i, c in cube.items():
            if i >= n_max:
                break
            for j in range(n_max - i):
                if dense[j]:
                    nxt[i + j] += c * dense[j]
        dense = nxt
    return [dense[n - 1] for n in range(1, n_max + 1)]


def _mult_series(a: list[int], b: list[int], n_max: int) -> list[int]:
    out = [0] * n_max
    for i, ai in enumerate(a):
        if ai == 0 or i >= n_max:
            continue
        for j in range(min(len(b), n_max - i)):
            if b[j]:
                out[i + j] += ai * b[j]
    return out


def _sigma_series(power: int, n_max: int) -> list[int]:
    out = [0] * n_max
    for d in range(1, n_max):
        dp = d**power
        for n in range(d, n_max, d):
            out[n] += dp
    return out


@lru_cache(maxsize=16)
def eigenform_coeffs(kappa: int, n_max: int) -> tuple[int, ...]:
    """a(1..n_max) of the normalized eigenform of weight kappa, level 1,
    for the one-dimensional weights: products of E4, E6 with Delta."""
    if kappa not in ONE_DIMENSIONAL_WEIGHTS:
        raise ValueError(f"dim S_kappa != 1 for kappa = {kappa}")
    size = n_max + 1  # exponent-indexed arrays
    series = [0] + delta_coeffs(n_max)
    e4 = [240 * s for s in _sigma_series(3, size)]
    e4[0] = 1
    e6 = [-504 * s for s in _sigma_series(5, size)]
    e6[0] = 1
    extra = {12: [], 16: [e4], 18: [e6], 20: [e4, e4], 22: [e4, e6], 26: [e4, e4, e6]}
    for f in extra[kappa]:
        series = _mult_series(series, f, size)
    return tuple(series[1:])


def hecke_eigenvalues(kappa: int, n_max: int) -> list[float]:
    """lambda(1..n_max) = a(n)/n^{(kappa-1)/2}."""
    coeffs = eigenform_coeffs(kappa, n_max)
    return [coeffs[n - 1] / n ** ((kappa - 1) / 2) for n in range(1, n_max + 1)]


@dataclass(frozen=True)
class EigenData:
    """Hecke-normalized eigenvalues lambda(n), n = 1..n_max."""

    level: int
    weight: int
    lams: tuple[complex, ...]
    source: str = "eta-product"

    def lam(self, n: int) -> complex:
        return self.lams[n - 1]

    def hecke_spot_check(self) -> bool:
        """lambda(m) lambda(n) = sum over d | (m,n), (d,N)=1 of
        lambda(mn/d^2), spot-checked to 1e-9 on small coprime-and-not
        pairs."""
        L = len(self.lams)
        for m in range(2, 8):
            for n in range(2, 8):
                if m * n > L:
                    continue
                rhs = sum(
                    self.lam(m * n // (d * d))
                    for d in range(1, min(m, n) + 1)
                    if m % d == 0 and n % d == 0 and math.gcd(d, self.level) == 1
                )
                if abs(self.lam(m) * self.lam(n) - rhs) > 1e-9:
                    return False
        return True


def builtin_eigendata(kappa: int, n_max: int) -> EigenData:
    return EigenData(1, kappa, tuple(hecke_eigenvalues(kappa, n_max)))


def write_eigen_cache(path: str, data: EigenData):
    """Append-only text cache: one self-describing record per line."""
    with open(path, "a") as fh:
        for n, lam in enumerate(data.lams, start=1):
            lam = complex(lam)
            rec = {
                "level": data.level,
                "weight": data.weight,
                "n": n,
                "lambda_re": lam.real,
                "lambda_im": lam.imag,
                "source": data.source,
            }
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _cache_record(line: str, lineno: int) -> dict:
    """One cache line as a record: an object with every key, n an integer
    >= 1 and both parts of lambda finite numbers; else ValueError."""

    def bad(why):
        return ValueError(f"malformed cache record on line {lineno} ({why}): {line[:80]}")

    try:
        rec = json.loads(line)
    except json.JSONDecodeError as exc:
        raise bad("not JSON") from exc
    if not isinstance(rec, dict):
        raise bad("not an object")
    for key in ("level", "weight", "n", "lambda_re", "lambda_im"):
        if key not in rec:
            raise bad(f"no {key!r}")
    if type(rec["n"]) is not int or rec["n"] < 1:
        raise bad("n is not an integer >= 1")
    for key in ("lambda_re", "lambda_im"):
        if type(rec[key]) not in (int, float) or not math.isfinite(rec[key]):
            raise bad(f"{key} is not a finite number")
    return rec


def ingest_eigendata(source: str, level: int, weight: int) -> EigenData:
    """Read eigenvalues from a JSONL cache, checking normalization,
    completeness and the Hecke relations before returning them."""
    if not os.path.exists(source):
        raise FileNotFoundError(f"no cache at {source}")
    lams: dict[int, complex] = {}
    src_tag = "external-cache"
    with open(source) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            rec = _cache_record(line, lineno)
            if rec["level"] != level or rec["weight"] != weight:
                continue
            lams[rec["n"]] = complex(rec["lambda_re"], rec["lambda_im"])
            src_tag = rec.get("source", src_tag)
    if not lams or 1 not in lams:
        raise ValueError("cache holds no usable records for this form")
    n_max = max(lams)
    if any(n not in lams for n in range(1, n_max + 1)):
        raise ValueError("cache is missing intermediate coefficients")
    if abs(lams[1] - 1) > 1e-12:
        raise ValueError("lambda(1) != 1: not Hecke-normalized")
    data = EigenData(level, weight, tuple(lams[n] for n in range(1, n_max + 1)), src_tag)
    if not data.hecke_spot_check():
        raise ValueError("Hecke relation fails: corrupt payload")
    return data


# ---------------------------------------------------------------------------
# Geometric side


@dataclass(frozen=True)
class PeterssonValue:
    value: complex
    tail_estimate: float


def petersson_geometric(
    gtf: GlobalTestFunction, kappa: int, m: int, n: int, c_max: int
) -> PeterssonValue:
    """delta_{m=n} delta_infty delta_fin + ((kappa-1)/2) i^{-kappa}
    sum over c <= c_max, k(F) | c of H(m,n;c)/c J_{kappa-1}(4 pi sqrt(mn)/c),
    summed as _geometric_side sums it (the head a block of moduli at a
    time, the block sums with compensation, and the series tail from power
    moments of H by DLMF 10.2.2); the tail estimate for c > c_max uses the
    small-argument J bound and the trivial bound on H."""
    if kappa % 2 or kappa < 4:
        raise ValueError("kappa must be even and >= 4")
    if math.gcd(m * n, gtf.level) != 1 or m < 1 or n < 1:
        raise ValueError("m, n must be positive and coprime to the level")
    pairs = [(m, n)]
    table = _h_table(gtf, pairs, c_max)
    value = _geometric_side(gtf, (kappa,), pairs, table, c_max)[0, 0]
    return PeterssonValue(complex(value), _tail_estimate(gtf, kappa, m, n, c_max))


# moduli per block of terms in _geometric_side: in the head one Bessel
# table and one array sum per block, in the series tail (DLMF 10.2.2) one
# table of powers of c0/c and one einsum per block; temporaries under 1 MB
# each at six weights and a hundred pairs.  The head ends at a multiple of
# _BLOCK moduli
_BLOCK = 64

# elements of x per pass of _bessel_J_table: each temporary is 512 kB
# per order or less, whatever the size of the table
_CHUNK = 1 << 16

# Miller's recurrence rescales an element once it exceeds this
_RESCALE = 1.0e250

# Hankel's expansion of J_0 and J_1 reaches full precision from here on;
# its smallest term is near exp(-2x), about 1e-22 at x = 25
_HANKEL_X = 25.0


def _bessel_J_table(orders, x) -> np.ndarray:
    """J_nu(x) for every integer order nu >= 0 in orders and every x > 0,
    shape (len(orders), *x.shape); repeated orders give equal rows.

    Where (x/2)^2 <= (min(orders) + 1)/2 the power series is summed: its
    terms alternate and shrink at least twofold from the first, so the sum
    keeps full relative accuracy.  Where x >= max(max(orders), 25), J_0 and
    J_1 come from Hankel's expansion and the forward recurrence, stable
    for orders below x, gives the rest.  In between, Miller's backward
    recurrence with the normalization J_0 + 2 sum J_2k = 1 gives every
    order in one sweep (DLMF 10.17(i), 10.74(iv)).  The cost per element
    grows with max(orders) but not with x."""
    x = np.asarray(x, dtype=np.float64)
    nus, inverse = np.unique(np.asarray(orders, dtype=np.int64), return_inverse=True)
    inverse = inverse.reshape(-1)
    out = np.empty((len(inverse), x.size))
    flat = x.reshape(-1)
    for lo in range(0, x.size if len(nus) else 0, _CHUNK):
        chunk = flat[lo : lo + _CHUNK]
        series = (chunk / 2) ** 2 <= (nus[0] + 1) / 2
        hankel = ~series & (chunk >= max(nus[-1], _HANKEL_X))
        miller = ~series & ~hankel
        view = out[:, lo : lo + _CHUNK]
        for region, method in (
            (series, _bessel_series),
            (miller, _bessel_miller),
            (hankel, _bessel_hankel),
        ):
            if region.any():
                view[:, region] = method(nus, chunk[region])[inverse]
    return out.reshape(len(inverse), *x.shape)


def _bessel_series(nus: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(x/2)^nu / nu! sum_j (-x^2/4)^j / (j! (nu+1)_j) for a 1-d x and
    distinct orders nus."""
    nu = nus.astype(np.float64)[:, None]
    half = x / 2
    y = -half * half
    term = np.ones((len(nus), len(x)))
    total = term.copy()
    j = 0
    # the sum is at least 1/2, so this stops at full precision
    while np.abs(term).max(initial=0.0) > 2.0**-54:
        j += 1
        term = term * y / (j * (j + nu))
        total += term
    # (x/2)^nu / nu! as a running product: it underflows only where the
    # result does and never overflows in the series region
    row = {int(order): i for i, order in enumerate(nus)}
    lead = np.ones_like(x)
    for j in range(1, int(nus[-1]) + 1):
        lead = lead * half / j
        if j in row:
            total[row[j]] *= lead
    return total


def _bessel_miller(nus: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Distinct orders nus at once for a 1-d x by Miller's backward
    recurrence J_{k-1} = (2k/x) J_k - J_{k+1}, started where J is
    negligible for the largest of x and the orders (the turning point plus
    a margin that grows as its cube root), each element rescaled before it
    overflows."""
    top = max(int(nus[-1]), float(x.max()))
    start = int(top + 10 * top ** (1 / 3) + 30)
    row = {int(order): i for i, order in enumerate(nus)}
    vals = np.zeros((len(nus), len(x)))
    two_over_x = 2 / x
    after = np.zeros_like(x)
    cur = np.full_like(x, 1e-300)  # J_start, up to a scale
    norm = np.zeros_like(x)
    for k in range(start, 0, -1):
        after, cur = cur, k * two_over_x * cur - after  # cur is now J_{k-1}
        if k % 2 == 1:
            norm += cur if k == 1 else 2 * cur
        if k - 1 in row:
            vals[row[k - 1]] = cur
        big = np.abs(cur) > _RESCALE
        if big.any():
            scale = np.where(big, 1 / _RESCALE, 1.0)
            cur *= scale
            after *= scale
            norm *= scale
            vals *= scale
    return vals / norm


def _bessel_hankel(nus: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Distinct orders nus for a 1-d x >= max(nus[-1], _HANKEL_X): J_0 and
    J_1 from Hankel's expansion sqrt(2/(pi x)) (P cos w - Q sin w),
    w = x - nu pi/2 - pi/4 (DLMF 10.17.3), then the forward recurrence
    J_{k+1} = (2k/x) J_k - J_{k-1}.  cos w and sin w are formed from
    cos x and sin x, so no rounded phase enters at large x."""
    mu = np.array([0.0, 4.0])[:, None]  # 4 nu^2 for nu = 0, 1
    term = np.ones((2, len(x)))  # a_k(nu) / x^k
    p = term.copy()
    q = np.zeros_like(p)
    k = 0
    while np.abs(term).max(initial=0.0) > 2.0**-56:
        k += 1
        term = term * (mu - (2 * k - 1) ** 2) / (8 * k * x)
        if k % 2:
            q += term if k % 4 == 1 else -term
        else:
            p += term if k % 4 == 0 else -term
    c, s = np.cos(x), np.sin(x)
    amp = 1 / np.sqrt(np.pi * x)
    lo = amp * (p[0] * (c + s) - q[0] * (s - c))  # J_0
    hi = amp * (p[1] * (s - c) + q[1] * (s + c))  # J_1
    row = {int(order): i for i, order in enumerate(nus)}
    vals = np.empty((len(nus), len(x)))
    for k in range(int(nus[-1]) + 1):
        if k in row:
            vals[row[k]] = lo
        lo, hi = hi, 2 * (k + 1) / x * hi - lo
    return vals


def _moduli(gtf: GlobalTestFunction, c_max: int) -> range:
    """The admissible moduli c = k(F), 2k(F), ... <= c_max, ascending."""
    kF = gtf.geometric_conductor
    return range(kF, c_max + 1, kF)


def _h_table(gtf: GlobalTestFunction, pairs, c_max: int) -> np.ndarray:
    """H(m,n;c) with one row per admissible modulus c <= c_max and one
    column per pair.  The sums do not depend on the weight, so one table
    serves every kappa.  Pairs whose Bessel argument at c = k(F) exceeds
    BESSEL_X_CAP are refused before anything is built."""
    _check_table_size(gtf, max(m * n for m, n in pairs), len(pairs), c_max)
    ms, ns = np.array(pairs, dtype=np.int64).T
    return h_global_table(gtf, ms, ns, _moduli(gtf, c_max))


def _check_table_size(gtf: GlobalTestFunction, mn_max: int, n_pairs: int, c_max: int):
    """The refusals of _h_table from the sizes alone: c_max < 1, a Bessel
    argument 4 pi sqrt(mn_max)/k(F) above BESSEL_X_CAP, or more entries
    than h_global_table accepts."""
    if c_max < 1:
        raise ValueError("c_max must be >= 1")
    x_max = 4 * math.pi * math.sqrt(mn_max) / gtf.geometric_conductor
    if x_max > BESSEL_X_CAP:
        raise CapacityError(f"Bessel argument {x_max:.3g} exceeds {BESSEL_X_CAP:g}")
    check_table_capacity(len(_moduli(gtf, c_max)), n_pairs)


def check_ratio_capacity(mn_max: int, n_pairs: int, c_max: int):
    """Refuse what ratio_verify would refuse for pairs with largest product
    mn_max and n_pairs distinct unordered pairs, (1, 1) counted among them
    once, before the caller builds the pairs: n_pairs is the number of
    columns of ratio_verify's H table."""
    _check_table_size(GlobalTestFunction(()), mn_max, n_pairs, c_max)


def _geometric_side(
    gtf: GlobalTestFunction, kappas, pairs, table: np.ndarray, c_max: int
) -> np.ndarray:
    """The geometric side from the table built by _h_table, one row per
    kappa and one column per pair, in two parts split at a block boundary.

    The head is every block of _BLOCK moduli up to the first block
    boundary past c0 = max x / (2 sqrt((nu_min + 1)/8)), with x = 4 pi
    sqrt(mn) and nu_min = min(kappa) - 1.  Its terms are summed a block at
    a time in one array pass (one einsum over the block's H/c and Bessel
    weights, times the weight's prefactor), and the block sums are added
    in ascending c with Kahan compensation.  The J-Bessel weights depend
    on the pair only through mn, so each block of moduli gets one table
    over every order and distinct product.  Past c0 every term of J_nu's
    power series (DLMF 10.2.2) is at most 1/8 of the one before, so the
    tail needs no Bessel values: _series_tail sums it from power moments
    of the H table, and it is added once after the Kahan loop."""
    orders = [kappa - 1 for kappa in kappas]
    ms, ns = np.array(pairs, dtype=np.int64).T
    delta_inf = np.array([(kappa - 1) / (4 * math.pi) for kappa in kappas])[:, None]
    diag = np.where(ms == ns, delta_inf * float(gtf.delta_fin), 0.0)
    pref = np.array([(kappa - 1) / 2 * (1j) ** (-kappa) for kappa in kappas])[:, None]
    products, col = np.unique(ms * ns, return_inverse=True)
    xs = 4 * math.pi * np.sqrt(products)
    cs = np.array(_moduli(gtf, c_max), dtype=np.float64)[:, None]
    c0 = xs.max() / (2 * math.sqrt((min(orders) + 1) / 8)) if orders else math.inf
    # the head ends at the first block boundary past c0
    split = min(math.ceil(np.searchsorted(cs[:, 0], c0, side="right") / _BLOCK) * _BLOCK, len(cs))
    total = np.zeros((len(orders), len(pairs)), dtype=np.complex128)
    comp = np.zeros_like(total)
    for lo in range(0, split, _BLOCK):
        c = cs[lo : lo + _BLOCK]
        h = table[lo : lo + _BLOCK] / c
        weights = _bessel_J_table(orders, xs / c)[:, :, col]
        # sum over the block's moduli for every order and pair at once, the
        # real and imaginary parts of H/c each against the real weights
        block = np.einsum("cj,kcj->kj", h.real, weights) + 1j * np.einsum("cj,kcj->kj", h.imag, weights)
        y = pref * block - comp
        t = total + y
        comp = (t - total) - y
        total = t
    if split < len(cs):
        tail = _series_tail(orders, xs[col] / (2 * c0), table[split:], c0 / cs[split:, 0])
        total = total + (pref / c0 * tail - comp)
    return diag + total


# terms of J_nu's power series that _series_tail keeps.  Where
# (y/2)^2 <= (nu + 1)/8, term i + 1 is at most 1/(8(i + 1)) of term i, so
# term i is at most 8^-i/i! of the first, the sum at least 0.86 of it, and
# what follows term 10 at most 2^-57 of the sum
_TAIL_TERMS = 11


def _series_tail(orders, zs: np.ndarray, table: np.ndarray, ratios: np.ndarray) -> np.ndarray:
    """c0 sum over the rows c of H(c)/c J_nu(2 z c0/c) for every order nu
    and every column of the table, shape (len(orders), len(zs)): zs holds
    one z per column, ratios one c0/c < 1 per row, and
    (z c0/c)^2 <= (nu + 1)/8 for every order.

    With J_nu(y) = sum_i (-1)^i (y/2)^(nu+2i) / (i! (nu+i)!), the sum is
    sum_i (-1)^i z^(nu+2i) / (i! (nu+i)!) M_(nu+1+2i), where the power
    moments M_s = sum_c H(c) (c0/c)^s serve every order at once.  The
    moments take one einsum per block of _BLOCK moduli, the real and
    imaginary parts of H side by side.  The coefficients are running
    products, as in _bessel_series: z^j/j! stays below e^z, and every
    power of c0/c is at most 1."""
    nus = np.array(orders, dtype=np.int64)[:, None]
    ss = nus + 1 + 2 * np.arange(_TAIL_TERMS)  # (order, term): the power of c0/c
    powers, sidx = np.unique(ss, return_inverse=True)
    flat = np.ascontiguousarray(table, dtype=np.complex128).view(np.float64)  # re, im of each column
    moments = np.zeros((len(powers), flat.shape[1]))
    for lo in range(0, len(ratios), _BLOCK):
        weights = ratios[lo : lo + _BLOCK, None] ** powers
        # np.einsum, not a BLAS matmul: OpenBLAS splits the product over
        # threads, and with another process busy on a 2-vCPU Xeon one
        # matmul of the benchmark's moments took 4 to 92 ms, einsum 1 ms
        moments += np.einsum("cs,cj->sj", weights, flat[lo : lo + _BLOCK])
    moments = moments.view(np.complex128)
    # coef[nu, i] = (-1)^i z^(nu+2i) / (i! (nu+i)!): z^nu/nu! by one running
    # product over j = 1..max(nu), then the ratio of consecutive terms
    coef = np.empty((len(orders), _TAIL_TERMS, len(zs)))
    coef[:, 0] = 1
    lead = np.ones_like(zs)
    for j in range(1, int(nus.max(initial=0)) + 1):
        lead = lead * zs / j
        coef[nus[:, 0] == j, 0] = lead
    y = -zs * zs
    for i in range(1, _TAIL_TERMS):
        coef[:, i] = coef[:, i - 1] * y / (i * (i + nus))
    return np.einsum("kiz,kiz->kz", coef, moments[sidx.reshape(ss.shape)])


def _tail_estimate(gtf: GlobalTestFunction, kappa: int, m: int, n: int, c_max: int) -> float:
    """Bound sum_{c > c_max} |H(m,n;c)/c J_{kappa-1}(4 pi sqrt(mn)/c)| via
    |J_nu(x)| <= (x/2)^nu / nu! and the trivial bound |H| <= C c; crude
    but safely summable for kappa >= 4."""
    x = 2 * math.pi * math.sqrt(m * n)
    # |S(m,n;c0)| <= c0 and each local factor is at most
    # f_p(1) p^{k+y_p} = f_p(1) c_p p^{y_p}, so |H| <= C c with
    # C = prod_p f_p(1) p^{y_p}
    C = 1.0
    for tf in gtf.locals:
        C *= float(tf.f_one()) * tf.p ** tf.support_exponent()
    nu = kappa - 1
    log_num = nu * math.log(x)
    log_gam = math.lgamma(nu + 1)
    tail = 0.0
    for j in range(1, 200):
        c = c_max + j
        tail += C * c * math.exp(log_num - log_gam - nu * math.log(c)) / c
    # geometric continuation beyond the window
    c = c_max + 200
    ratio = ((c - 1) / c) ** (nu - 1)
    last = C * math.exp(log_num - log_gam - (nu) * math.log(c))
    tail += last / (1 - ratio) if ratio < 1 else float("inf")
    return tail


def ratio_verify(
    kappas,
    pairs,
    c_max: int = 1000,
    eigen: dict[int, EigenData] | None = None,
) -> dict:
    """|P(m,n)/P(1,1) - lambda(m) lambda(n)| for the one-dimensional
    weights and the all-unramified tensor; returns the per-pair deviations,
    in the order of pairs, and the maximum.  (m, n) and (n, m) share one
    column of the H table and of the geometric side."""
    gtf = GlobalTestFunction(())
    for kappa in kappas:
        if kappa not in ONE_DIMENSIONAL_WEIGHTS:
            raise ValueError(f"dim S_kappa != 1 for kappa = {kappa}")
    if len(pairs) == 0:
        raise ValueError("pairs is empty: give at least one (m, n)")
    report = {"max_deviation": 0.0, "entries": []}
    n_need = max(max(m, n) for m, n in pairs)
    datas = [(eigen or {}).get(kappa) or builtin_eigendata(kappa, n_need) for kappa in kappas]
    for kappa, data in zip(kappas, datas):
        if len(data.lams) < n_need:
            raise ValueError(
                f"eigendata for kappa = {kappa} holds lambda(1..{len(data.lams)}), "
                f"the pairs need lambda(1..{n_need})"
            )
    # S(m,n;c) = S(n,m;c): the table and the Bessel weights read mn and
    # gcd(m, n) only, so each unordered pair is summed once, in one column
    columns: dict = {}
    cols = [columns.setdefault((min(m, n), max(m, n)), len(columns)) for m, n in [(1, 1), *pairs]]
    distinct = list(columns)
    table = _h_table(gtf, distinct, c_max)
    rows = _geometric_side(gtf, kappas, distinct, table, c_max)[:, cols]
    for kappa, data, (base, *vals) in zip(kappas, datas, rows):
        for (m, n), v in zip(pairs, vals):
            lam = (data.lam(m) * data.lam(n).conjugate()).real
            dev = abs(v / base - lam)
            report["entries"].append(
                {"kappa": kappa, "m": m, "n": n, "ratio": (v / base).real, "target": lam, "dev": dev}
            )
    # np.max keeps a nan deviation, which the builtin max would drop
    devs = [entry["dev"] for entry in report["entries"]]
    report["max_deviation"] = float(np.max(devs, initial=0.0))
    return report
