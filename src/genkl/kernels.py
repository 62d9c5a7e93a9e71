"""The hot kernels, in numpy: unit inverses, batched classical Kloosterman
sums and the norm-bucketed dihedral sums.

Temporaries are built a block of rows at a time, about _BLOCK elements and
at least one row, so memory does not grow with the modulus beyond the
tables that are returned or cached.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

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
    """S(m_i, n_i; c) for parallel arrays of m and n at one modulus c.

    Over the distinct m and n this is the matrix product S = E F^T with
    E[m, x] = e(mx/c) and F[n, x] = e(n xbar/c), built in row blocks.
    """
    ms = np.asarray(ms, dtype=np.int64) % c
    ns = np.asarray(ns, dtype=np.int64) % c
    if c == 1:
        return np.ones(len(ms), dtype=np.complex128)
    dtype = _residue_dtype(c)
    um, un = np.unique(ms).astype(dtype), np.unique(ns).astype(dtype)
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
    The sum is xi at the unit classes against the cached, character-free
    kernel of _norm_trace_kernel.
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
    """
    pk, pm = p**k, p**M
    width = p ** (k - M)
    classes = np.arange(pm * pm, dtype=np.int64)
    ca, cb = classes // pm, classes % pm
    t0 = (ca * ca - A * ca * cb + B * cb * cb) % pm
    cls = np.flatnonzero(t0 % p)
    cls = cls[np.argsort(t0[cls], kind="stable")]
    residues = np.unique(t0[cls])
    # offset of each class's row in W; every non-unit class goes to one spare row
    row = np.full(pm * pm, len(cls) * width, dtype=np.int64)
    row[cls] = np.arange(len(cls)) * width
    a = np.arange(pk, dtype=np.int64)
    a_sq, a_cls = a * a % pk, a % pm * pm
    # Tr(u) = 2a - Ab, so e(-Tr(u)/p^k) = e(-2a/p^k) e(Ab/p^k)
    w_a = np.exp(-4j * np.pi * a / pk)
    acc = np.zeros((len(cls) + 1) * width, dtype=np.complex128)
    rows = max(1, _BLOCK // pk)
    for b0 in range(0, pk, rows):
        b = np.arange(b0, min(b0 + rows, pk), dtype=np.int64)[:, None]
        norm = (a_sq + (-A * b % pk) * a + B * b * b % pk) % pk
        idx = row[a_cls + b % pm] + norm // pm
        w = w_a * np.exp(2j * np.pi * (A * b % pk) / pk)
        np.add.at(acc, idx.ravel(), w.ravel())
    shape = (len(residues), len(cls) // max(1, len(residues)))
    W = acc[: len(cls) * width].reshape(*shape, width)
    return cls.reshape(shape), residues, W
