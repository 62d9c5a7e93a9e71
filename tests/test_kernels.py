"""The numpy kernels against their definitions, written out as plain loops."""

import cmath
import math

import numpy as np
import pytest

from genkl import kernels


def _totient(c):
    out, n, p = c, c, 2
    while p * p <= n:
        if n % p == 0:
            out -= out // p
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out -= out // n
    return out


@pytest.mark.parametrize("c", [2, 12, 360, 1000, 1009, 50000])
def test_fallback_unit_inverses(c):
    xs, xinvs = kernels.unit_inverses(c)
    assert xs.dtype == np.int64 and xinvs.dtype == np.int64
    assert np.all(np.diff(xs) > 0)
    assert all(math.gcd(int(x), c) == 1 for x in xs)
    assert len(xs) == _totient(c)
    assert np.all((0 < xinvs) & (xinvs < c))
    assert np.all(xs * xinvs % c == 1)


def _kloosterman_definition(m, n, c, unit_pairs):
    return sum(cmath.exp(2j * math.pi * ((m * x + n * xbar) % c) / c) for x, xbar in unit_pairs)


@pytest.mark.parametrize("c", [5, 27, 64, 625, 1000, 50000])
def test_kloosterman_many_matches_definition(c):
    rng = np.random.default_rng(c)
    ms = rng.integers(-50, 10**6, size=40)
    ns = rng.integers(-50, 10**6, size=40)
    # repeated values, so the distinct m and n are fewer than the pairs
    ms[20:30], ns[25:35] = ms[:10], ns[:10]
    xs, xinvs = kernels.unit_inverses(c)
    got = kernels.kloosterman_many(ms, ns, c, xs, xinvs)
    unit_pairs = [(x, pow(x, -1, c)) for x in range(1, c) if math.gcd(x, c) == 1]
    want = [_kloosterman_definition(int(m), int(n), c, unit_pairs) for m, n in zip(ms, ns)]
    assert np.abs(got - want).max() < 1e-9


def _bucket_per_b(p, k, A, B, xi_table, m_red):
    """dihedral_bucket written as one selection of nonzero table entries
    per b, summed over every pair (a, b) mod p^k: the reference."""
    pk, pm = p**k, p**m_red
    out = np.zeros(pk, dtype=np.complex128)
    table = np.exp(-2j * np.pi * np.arange(pk) / pk)
    a = np.arange(pk, dtype=np.int64)
    for b in range(pk):
        vals = xi_table[a % pm, b % pm]
        nz = vals.nonzero()[0]
        an = a[nz]
        norm = (an * an % pk - A * an * b + B * b * b) % pk
        tr = (2 * an % pk - A * b) % pk
        np.add.at(out, norm, vals[nz] * table[tr])
    return out


def _units_only(p, A, B, xi_table, m_red):
    """The table at level max(m_red, 1), zero on the non-unit classes
    (Nm = 0 mod p), which dihedral_bucket never reads."""
    if m_red == 0:
        xi_table, m_red = np.full((p, p), xi_table[0, 0]), 1
    a = np.arange(p**m_red)[:, None]
    unit = (a * a - A * a * a.T + B * a.T * a.T) % p != 0
    return np.where(unit, xi_table, 0), m_red


def _assert_close(got, want):
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _random_table(rng, pm):
    return rng.standard_normal((pm, pm)) + 1j * rng.standard_normal((pm, pm))


# The cases with k > 2M + 1 give each class many lifts, and with A = 1 they
# exercise the kernel's split of i by its residue mod p^(k-2M).  At p = 2
# the sums vanish identically at (k, M) = (8, 1) and (9, 2), where a
# relative tolerance would compare rounding with rounding, so those are
# left out
@pytest.mark.parametrize("p, k, m_red", [(2, 6, 3), (3, 4, 2), (3, 2, 3), (5, 3, 1), (7, 2, 0),
                                         (2, 8, 2), (2, 10, 3), (3, 6, 1), (5, 4, 1), (7, 3, 1)])
def test_fallback_dihedral_bucket(p, k, m_red):
    rng = np.random.default_rng(p * 100 + k * 10 + m_red)
    pm = p**m_red
    xi = _random_table(rng, pm)
    xi[rng.random((pm, pm)) < 0.4] = 0
    for A, B in ((0, -1), (1, 1), (-2, p)):
        got = kernels.dihedral_bucket(p, k, A, B, xi, m_red)
        _assert_close(got, _bucket_per_b(p, k, A, B, *_units_only(p, A, B, xi, m_red)))


def test_dihedral_bucket_level_zero_table():
    p, k, A, B = 7, 2, 1, 1
    xi = np.array([[0.6 - 0.8j]])
    got = kernels.dihedral_bucket(p, k, A, B, xi, 0)
    want = _bucket_per_b(p, k, A, B, *_units_only(p, A, B, xi, 0))
    assert np.abs(want).max() > 1
    _assert_close(got, want)


def test_dihedral_bucket_ignores_nonunit_classes():
    p, k, A, B, m_red = 3, 4, 1, 1, 2
    rng = np.random.default_rng(1)
    xi = _random_table(rng, p**m_red)
    units, _ = _units_only(p, A, B, xi, m_red)
    assert np.count_nonzero(units) < xi.size
    got = kernels.dihedral_bucket(p, k, A, B, xi, m_red)
    assert got.tobytes() == kernels.dihedral_bucket(p, k, A, B, units, m_red).tobytes()


def test_dihedral_bucket_reuses_kernel_across_tables():
    p, k, A, B, m_red = 5, 3, 0, 2, 1
    rng = np.random.default_rng(2)
    kernels._norm_trace_kernel.cache_clear()
    for _ in range(2):
        xi = _random_table(rng, p**m_red)
        got = kernels.dihedral_bucket(p, k, A, B, xi, m_red)
        _assert_close(got, _bucket_per_b(p, k, A, B, *_units_only(p, A, B, xi, m_red)))
    info = kernels._norm_trace_kernel.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def _classes_by_norm(p, A, B, M):
    """The unit classes a * p^M + b mod p^M in rows by norm residue,
    ascending in each row, and the residues ascending."""
    pm = p**M
    rows = {}
    for a in range(pm):
        for b in range(pm):
            s = (a * a - A * a * b + B * b * b) % pm
            if s % p:
                rows.setdefault(s, []).append(a * pm + b)
    residues = sorted(rows)
    return np.array([rows[s] for s in residues]), np.array(residues)


@pytest.mark.parametrize("p, k, A, B, M", [(2, 7, 1, 1, 2), (2, 6, -2, 2, 2), (2, 5, 0, -1, 5),
                                           (3, 4, 0, -1, 1), (3, 3, 0, 3, 2), (5, 3, 0, 2, 1)])
def test_norm_trace_kernel_layout(p, k, A, B, M):
    kernels._norm_trace_kernel.cache_clear()
    cls, residues, W = kernels._norm_trace_kernel(p, k, A, B, M)
    want_cls, want_residues = _classes_by_norm(p, A, B, M)
    assert np.array_equal(cls, want_cls) and np.array_equal(residues, want_residues)
    # W[g, c, j]: e(-Tr(u)/p^k) summed over the lifts u of class cls[g, c]
    # with Nm(u) = j p^M + residues[g], over every pair (a, b) mod p^k
    pk, pm = p**k, p**M
    a, b = np.divmod(np.arange(pk * pk), pk)
    norm = (a * a - A * a * b + B * b * b) % pk
    phase = np.exp(-2j * np.pi * ((2 * a - A * b) % pk) / pk)
    want = np.zeros((pm * pm, pk), dtype=np.complex128)
    np.add.at(want, ((a % pm) * pm + b % pm, norm), phase)
    want = want[cls[..., None], residues[:, None, None] + pm * np.arange(pk // pm)]
    assert W.shape == want.shape
    _assert_close(W, want)
