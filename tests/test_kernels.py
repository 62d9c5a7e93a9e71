"""Backend equivalence: the compiled kernels and the numpy fallback must
agree to machine precision on identical inputs."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import genkl
from genkl import kernels
from genkl.quadext import standard_extensions
from genkl.extchars import enumerate_xi, eta_restriction
from genkl.engine import xi_table

BACKENDS = kernels.get_backends()


def test_pure_python_flag_selects_fallback():
    # perfbench pins the numpy fallback this way; a fresh interpreter,
    # since the backend is chosen once at import
    src = os.path.dirname(os.path.dirname(genkl.__file__))
    env = dict(os.environ, GENKL_PURE_PYTHON="1", PYTHONPATH=src)
    code = (
        "import genkl; from genkl import kernels, _kernels_py; "
        "assert genkl.BACKEND == 'python'; "
        "assert kernels.dihedral_bucket is _kernels_py.dihedral_bucket"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


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


@pytest.mark.parametrize("c", [2, 12, 360, 1000, 1009])
def test_fallback_unit_inverses(c):
    # the numpy fallback on its own: the parity class below needs both
    # backends and skips without the compiled kernel
    xs, xinvs = BACKENDS["python"].unit_inverses(c)
    assert xs.dtype == np.int64 and xinvs.dtype == np.int64
    assert np.all(np.diff(xs) > 0)
    assert all(math.gcd(int(x), c) == 1 for x in xs)
    assert len(xs) == _totient(c)
    assert np.all((0 < xinvs) & (xinvs < c))
    assert np.all(xs * xinvs % c == 1)


def _bucket_per_b(p, k, A, B, xi_table, m_red):
    """dihedral_bucket written as one selection of units per b: the
    reference for the fallback, which selects them once per class of b."""
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


@pytest.mark.parametrize("p, k, m_red", [(2, 6, 3), (3, 4, 2), (3, 2, 3), (5, 3, 1), (7, 2, 0)])
def test_fallback_dihedral_bucket(p, k, m_red):
    # same arithmetic in the same order, so the results agree bit for bit
    rng = np.random.default_rng(p * 100 + k * 10 + m_red)
    pm = p**m_red
    xi = rng.standard_normal((pm, pm)) + 1j * rng.standard_normal((pm, pm))
    xi[rng.random((pm, pm)) < 0.4] = 0
    for A, B in ((0, -1), (1, 1), (-2, p)):
        got = BACKENDS["python"].dihedral_bucket(p, k, A, B, xi, m_red)
        assert got.tobytes() == _bucket_per_b(p, k, A, B, xi, m_red).tobytes()


@pytest.mark.skipif(len(BACKENDS) < 2, reason="compiled kernel not built")
class TestBackendParity:
    def test_unit_inverses(self):
        for c in (1, 2, 12, 360, 1009):
            if c == 1:
                continue
            xs_a, inv_a = BACKENDS["python"].unit_inverses(c)
            xs_b, inv_b = BACKENDS["cython"].unit_inverses(c)
            assert np.array_equal(xs_a, xs_b)
            assert np.array_equal(inv_a, inv_b)

    def test_kloosterman_many(self):
        rng = np.random.default_rng(0)
        for c in (5, 27, 64, 625, 1000):
            xs, invs = BACKENDS["python"].unit_inverses(c)
            ms = rng.integers(-50, 10**6, size=40)
            ns = rng.integers(-50, 10**6, size=40)
            a = BACKENDS["python"].kloosterman_many(ms, ns, c, xs, invs)
            b = BACKENDS["cython"].kloosterman_many(ms, ns, c, xs, invs)
            assert np.abs(np.asarray(a) - np.asarray(b)).max() < 1e-9

    def test_dihedral_bucket(self):
        for p, which, cxi, k in ((3, 0, 1, 3), (3, 1, 2, 3), (2, 0, 3, 4)):
            ext = standard_extensions(p)[which]
            xi = enumerate_xi(ext, cxi, eta_restriction(ext), regular_only=True)[0]
            table = xi_table(xi)
            a = BACKENDS["python"].dihedral_bucket(p, k, ext.A, ext.B, table, xi.group.M)
            b = BACKENDS["cython"].dihedral_bucket(p, k, ext.A, ext.B, table, xi.group.M)
            assert np.abs(np.asarray(a) - np.asarray(b)).max() < 1e-9
