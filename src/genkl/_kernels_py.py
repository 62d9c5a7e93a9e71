"""Pure-numpy implementations of the hot kernels.

Same contracts as the compiled extension in _kernels.pyx; genkl.kernels
picks whichever is available at import.
"""

from __future__ import annotations

import numpy as np

BACKEND = "python"


def unit_inverses(c: int) -> tuple[np.ndarray, np.ndarray]:
    """Units x mod c together with their inverses, ascending in x."""
    xs = np.arange(1, c, dtype=np.int64)
    xs = xs[np.gcd(xs, c) == 1]
    xinvs = np.array([pow(x, -1, c) for x in xs.tolist()], dtype=np.int64)
    return xs, xinvs


def kloosterman_many(ms, ns, c: int, xs, xinvs) -> np.ndarray:
    """S(m_i, n_i; c) for parallel arrays of m and n at one modulus c."""
    ms = np.asarray(ms, dtype=np.int64)
    ns = np.asarray(ns, dtype=np.int64)
    if c == 1:
        return np.ones(len(ms), dtype=np.complex128)
    table = np.exp(2j * np.pi * np.arange(c) / c)
    idx = (np.outer(ms, xs) + np.outer(ns, xinvs)) % c
    return table[idx].sum(axis=1)


def dihedral_bucket(p: int, k: int, A: int, B: int, xi_table, m_red: int) -> np.ndarray:
    """I[t] = sum over u = a + b*alpha0 in (O_E/p^k)^* with Nm(u) = t of
    xi(u) e(-Tr(u)/p^k), for all t mod p^k at once.

    xi_table is a p^m_red x p^m_red complex array holding xi at unit classes
    (a mod p^m_red, b mod p^m_red) and 0 at non-units; zeros make the unit
    test implicit.  Nm = a^2 - A a b + B b^2, Tr = 2a - A b for the minimal
    polynomial x^2 + A x + B.
    """
    pk = p**k
    pm = p**m_red
    out = np.zeros(pk, dtype=np.complex128)
    table = np.exp(-2j * np.pi * np.arange(pk) / pk)
    a = np.arange(pk, dtype=np.int64)
    # which a make a unit with b, and xi there, depend on b only through
    # b mod p^m_red: select them once per class, not once per b
    classes = []
    for r in range(min(pm, pk)):
        vals = xi_table[a % pm, r]
        nz = vals.nonzero()[0]
        an = a[nz]
        classes.append((vals[nz], an, an * an % pk, 2 * an % pk))
    for b in range(pk):
        vals, an, a_sq, two_a = classes[b % pm]
        if len(an) == 0:
            continue
        norm = (a_sq - A * an * b + B * b * b) % pk
        tr = (two_a - A * b) % pk
        np.add.at(out, norm, vals * table[tr])
    return out
