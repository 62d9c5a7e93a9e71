"""The hot kernels, in numpy: unit inverses, batched classical Kloosterman
sums and the norm-bucketed dihedral sums.

The Kloosterman kernel and its Euler inverses (unit_inverses) are the
definitional reference: engine reads every production S(m,n;p^k) from its
FFT vectors, built over the generator-power pairs of padic.unit_pairs, and
only the reference engine.classical_S_many calls kloosterman_many and
unit_inverses.

The dihedral sums never walk the p^(2k) pairs (a, b) mod p^k.  Each unit
class mod p^M is lifted as a = x + p^M i, b = y + p^M j; after the change
of variable a' = a - (A/2) b for even A, the norm of a lift is separable in
(i, j) up to a per-class shift, so the class's norm/trace sums are one
cyclic convolution over Z/p^(k-M), taken by FFT.  For odd A (only the
unramified extension of Q_2) the cross term depends on i mod p^(k-2M)
alone, and i is split by that residue into separable pieces.

Temporaries are built a block of rows at a time, about _BLOCK elements and
at least one row, so memory does not grow with the modulus beyond the
tables that are returned or cached.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# numpy 2 loads numpy.fft on first use (1.3 ms under python -X importtime);
# loading it here keeps that out of the first table of a command
import numpy.fft  # noqa: F401

# the one implementation; exported as genkl.BACKEND, which perfbench checks
BACKEND = "python"

# elements per block of temporaries: 2^14 complex numbers are 256 kB
_BLOCK = 1 << 14


def _residue_dtype(c: int):
    """int32 when a product of two residues mod c fits in it, else int64:
    reducing int32 by floor division is several times faster."""
    return np.int32 if c * c < 2**31 else np.int64


def _reduce(x: np.ndarray, c: int) -> np.ndarray:
    """x mod c in place, for x >= 0."""
    x -= x // c * c
    return x


def distinct(x) -> np.ndarray:
    """The distinct values of x, ascending.  np.unique without return_*
    flags imports numpy.ma (13.9 ms) for its masked-array check; a sort
    does not."""
    s = np.sort(np.ravel(x))
    keep = np.ones(len(s), dtype=bool)
    keep[1:] = s[1:] != s[:-1]
    return s[keep]


def unit_inverses(c: int) -> tuple[np.ndarray, np.ndarray]:
    """Units x mod c together with their inverses, ascending in x.

    The units are what is left once the multiples of each prime factor of
    c are struck out.  The inverse is x^(phi(c) - 1) mod c (Euler), by
    square-and-multiply over the whole array at once.
    """
    unit = np.ones(c, dtype=bool)
    unit[0] = False
    n, q = c, 2
    while q * q <= n:
        if n % q == 0:
            unit[::q] = False
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        unit[::n] = False
    xs = np.flatnonzero(unit).astype(_residue_dtype(c))
    xinvs = np.ones_like(xs)
    base = xs.copy()
    power = max(len(xs) - 1, 0)
    while power:
        if power & 1:
            xinvs = _reduce(xinvs * base, c)
        base = _reduce(base * base, c)
        power >>= 1
    return xs.astype(np.int64), xinvs.astype(np.int64)


def kloosterman_many(ms, ns, c: int, xs, xinvs) -> np.ndarray:
    """S(m_i, n_i; c) for parallel arrays of m and n at one modulus c: the
    reference route, behind engine.classical_S_many.

    Over the distinct m and n this is the matrix product S = E F^T with
    E[m, x] = e(mx/c) and F[n, x] = e(n xbar/c), built in row blocks.
    """
    ms = np.asarray(ms, dtype=np.int64) % c
    ns = np.asarray(ns, dtype=np.int64) % c
    if c == 1:
        return np.ones(len(ms), dtype=np.complex128)
    dtype = _residue_dtype(c)
    um, un = distinct(ms).astype(dtype), distinct(ns).astype(dtype)
    xs, xinvs = np.asarray(xs, dtype=dtype), np.asarray(xinvs, dtype=dtype)
    table = np.exp(2j * np.pi * np.arange(c) / c)
    rows = max(1, _BLOCK // len(xs))
    S = np.empty((len(um), len(un)), dtype=np.complex128)
    for j in range(0, len(un), rows):
        F = table.take(_reduce(np.multiply.outer(un[j:j + rows], xinvs), c))
        for i in range(0, len(um), rows):
            E = table.take(_reduce(np.multiply.outer(um[i:i + rows], xs), c))
            S[i:i + rows, j:j + rows] = E @ F.T
    return S[np.searchsorted(um, ms), np.searchsorted(un, ns)]


def dihedral_bucket(p: int, k: int, A: int, B: int, xi_table, m_red: int) -> np.ndarray:
    """I[t] = sum over u = a + b*alpha0 in (O_E/p^k)^* with Nm(u) = t of
    xi(u) e(-Tr(u)/p^k), for all t mod p^k at once.

    xi_table is a p^m_red x p^m_red complex array holding xi at the classes
    (a mod p^m_red, b mod p^m_red); only unit classes are read.  Nm = a^2 -
    A a b + B b^2, Tr = 2a - A b for the minimal polynomial x^2 + A x + B.
    The sum is one contraction of xi at the unit classes mod p^M against
    the cached, character-free kernel of _norm_trace_kernel, which holds
    each class's norm/trace sums over its lifts as FFT convolutions.
    """
    # classes mod p^M with 1 <= M <= k decide whether u is a unit
    M = min(max(m_red, 1), k)
    r = np.arange(p**M) % len(xi_table)
    xi = np.asarray(xi_table, dtype=np.complex128)[np.ix_(r, r)].ravel()
    cls, residues, W = _norm_trace_kernel(p, k, A, B, M)
    out = np.zeros((p ** (k - M), p**M), dtype=np.complex128)
    out[:, residues] = np.einsum("gc,gcj->jg", xi[cls], W)
    return out.ravel()


@lru_cache(maxsize=2)
def _norm_trace_kernel(p: int, k: int, A: int, B: int, M: int):
    """The character-free kernel of dihedral_bucket at level M <= k.

    The unit classes (a mod p^M, b mod p^M), as indices a * p^M + b, are
    grouped by their norm s mod p^M: cls[g, c] is the c-th class of norm
    residues[g].  W[g, c, j] is the sum of e(-Tr(u)/p^k) over the lifts
    u = a + b*alpha0 mod p^k of that class with Nm(u) = j * p^M + s.  A
    class thus reaches only p^(k-M) norms, and u is a unit exactly when
    its class is.  The norm is a homomorphism on units, so every residue it
    reaches has the same number of classes.  Two kernels are kept, since
    callers alternate between k and k + 1.

    No pair (a, b) mod p^k is visited.  For even A the substitution
    a' = a - (A/2) b turns the form into Nm = a'^2 + B' b^2, B' = B - A^2/4,
    with Tr = 2a'; for odd A (only the unramified extension of Q_2) a' = a.
    Write the form as a'^2 - A' a' b + B' b^2, so A' = 0 for even A.  A class
    (x, y) in these coordinates lifts as a' = x + p^M i, b = y + p^M j with
    i, j mod n = p^(k-M), and

        (Nm - s) / p^M = shift + f(i) + g(j) - A' p^M i j   (mod n),
        f(i) = (2x - A' y) i + p^M i^2,  g(j) = (2B' y - A' x) j + B' p^M j^2,

    while e(-Tr(u)/p^k) = e(-(2x - A' y)/p^k) e(-2i/n) e(A' j/n).  For even
    A the norm is separable in (i, j), so a class's row is the cyclic
    convolution over Z/n of an i-histogram weighted by e(-2i/n) with a
    j-histogram, taken by FFT: one FFT per distinct f and per distinct g
    (at most p^M each), then one inverse FFT per class.  For odd A the
    cross term depends on i mod p^L only, L = max(0, k - 2M), so i is split
    by that residue, and the spectra of the p^L separable pieces, whose
    j-weights carry e(A j/n), are summed before the inverse FFT.  The work
    is about p^(k+M) log n, times p^L for odd A, instead of p^(2k).
    """
    pk, pm, n = p**k, p**M, p ** (k - M)
    classes = np.arange(pm * pm, dtype=np.int64)
    ca, cb = classes // pm, classes % pm
    t0 = (ca * ca - A * ca * cb + B * cb * cb) % pm
    cls = np.flatnonzero(t0 % p)
    cls = cls[np.argsort(t0[cls], kind="stable")]
    residues = distinct(t0[cls])
    # a = a' + h b turns the form into a'^2 - (A - 2h) a' b + (B - A h + h^2) b^2;
    # from here on A and B are A' and B'
    h = A // 2 if A % 2 == 0 else 0
    A, B = A - 2 * h, B - A * h + h * h
    x, y = (ca[cls] - h * cb[cls]) % pm, cb[cls]
    shift = (x * x - A * x * y + B * y * y - t0[cls]) // pm % n
    tr = 2 * x - A * y
    phase = np.exp(-2j * np.pi * (tr % pk) / pk)
    f_coef, f_row = np.unique(tr % n, return_inverse=True)
    g_base = 2 * B * y - A * x
    L = max(0, k - 2 * M) if A else 0
    j = np.arange(n, dtype=np.int64)
    g_weight = np.exp(2j * np.pi * A * j / n)
    W = np.zeros((len(cls), n), dtype=np.complex128)
    rows = max(1, _BLOCK // n)
    for rho in range(p**L):
        i = np.arange(rho, n, p**L, dtype=np.int64)
        F = _fiber_spectra(f_coef, pm, i, np.exp(-4j * np.pi * i / n), n)
        g_coef, g_row = np.unique((g_base - A * pm * rho) % n, return_inverse=True)
        G = _fiber_spectra(g_coef, B * pm, j, g_weight, n)
        for c in range(0, len(cls), rows):
            W[c:c + rows] += F[f_row[c:c + rows]] * G[g_row[c:c + rows]]
    for c in range(0, len(cls), rows):
        conv = np.fft.ifft(W[c:c + rows], axis=1)
        lag = (j - shift[c:c + rows, None]) % n
        W[c:c + rows] = phase[c:c + rows, None] * np.take_along_axis(conv, lag, axis=1)
    shape = (len(residues), len(cls) // max(1, len(residues)))
    return cls.reshape(shape), residues, W.reshape(*shape, n)


def _fiber_spectra(coef, quad: int, idx, weight, n: int) -> np.ndarray:
    """Row r is the DFT over Z/n of the histogram that puts weight[t] at
    (coef[r] idx[t] + quad idx[t]^2) mod n; built in row blocks."""
    out = np.empty((len(coef), n), dtype=np.complex128)
    sq = quad * (idx * idx % n)
    rows = max(1, _BLOCK // n)
    for r in range(0, len(coef), rows):
        pos = (np.multiply.outer(coef[r:r + rows], idx) + sq) % n
        hist = np.zeros((len(pos), n), dtype=np.complex128)
        np.add.at(hist, (np.arange(len(pos))[:, None], pos), np.broadcast_to(weight, pos.shape))
        out[r:r + rows] = np.fft.fft(hist, axis=1)
    return out
