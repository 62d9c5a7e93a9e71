import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from genkl.engine import GlobalTestFunction, classical_S, classical_S_many, h_global_many
from genkl.padic import (
    DirichletCharacter,
    INF_VALUATION,
    _primitive_root_mod_pk,
    e,
    enumerate_dirichlet,
    gauss_sum,
    gauss_sum_at_level,
    generator_powers,
    hensel_sqrt_set,
    hilbert_symbol,
    is_prime,
    legendre_symbol,
    nu,
    phi_pk,
    primes_upto,
    ramanujan_sum,
    twisted_kloosterman,
    unit_pairs,
    valuation,
)


def brute_kloosterman(m, n, c):
    total = 0j
    for x in range(1, c + 1):
        if math.gcd(x, c) != 1:
            continue
        xbar = pow(x, -1, c)
        total += cmath.exp(2j * cmath.pi * ((m * x + n * xbar) % c) / c)
    return total


class TestValuation:
    def test_examples(self):
        assert valuation(12, 2) == 2
        assert valuation(7, 7) == 1
        assert valuation(1, 5) == 0

    def test_zero_sentinel(self):
        assert valuation(0, 3) == INF_VALUATION

    @given(st.integers(min_value=-(10**6), max_value=10**6).filter(lambda n: n),
           st.sampled_from([2, 3, 5, 7]))
    def test_defining_property(self, n, p):
        t = valuation(n, p)
        assert n % p**t == 0 and n % p ** (t + 1) != 0


class TestHenselSqrt:
    def test_examples(self):
        assert hensel_sqrt_set(1, 3, 2) == {1, 8}
        assert hensel_sqrt_set(2, 3, 1) == set()
        assert hensel_sqrt_set(0, 5, 2) == {0, 5, 10, 15, 20}

    @pytest.mark.parametrize(
        "p,k",
        [(2, 5), (2, 13), (3, 4), (3, 8), (5, 5), (7, 4), (11, 3), (13, 3)],
    )
    def test_exhaustive_vs_brute(self, p, k):
        pk = p**k
        assert pk <= 10**4
        brute = {}
        for x in range(pk):
            brute.setdefault(x * x % pk, set()).add(x)
        for l in range(pk):
            got = hensel_sqrt_set(l, p, k)
            assert got == brute.get(l, set()), (p, k, l)

    @pytest.mark.parametrize("p,k", [(3, 5), (2, 10), (5, 4)])
    def test_size_bound(self, p, k):
        kappa = 1 if p != 2 else 3
        for l in range(0, p**k, 7):
            s = hensel_sqrt_set(l, p, k)
            v = k if l == 0 else min(valuation(l, p), k)
            assert len(s) <= 2**kappa * p ** (min(v, k) // 2)


class TestRamanujan:
    def test_paper_values(self):
        # R_p(m) = -1 and R_{p^i}(m) = 0 (i >= 2) for p coprime to m
        for p in (2, 3, 5, 7):
            assert ramanujan_sum(p, 1) == -1
            for i in (2, 3):
                assert ramanujan_sum(p**i, 1) == 0
        assert ramanujan_sum(4, 4) == 2

    @pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 27, 25, 49])
    def test_vs_brute(self, q):
        for n in range(q):
            brute = sum(
                cmath.exp(2j * cmath.pi * n * x / q)
                for x in range(1, q + 1)
                if math.gcd(x, q) == 1
            )
            assert abs(ramanujan_sum(q, n) - brute) < 1e-9


class TestKloosterman:
    def test_examples(self):
        assert abs(classical_S(1, 1, 1) - 1) < 1e-12
        assert abs(classical_S(1, 1, 2) - 1) < 1e-12
        assert abs(classical_S(1, 1, 3) + 1) < 1e-12
        for c in (0, -3):
            with pytest.raises(ValueError, match="c must be >= 1"):
                classical_S(1, 1, c)
            with pytest.raises(ValueError, match="c must be >= 1"):
                classical_S_many([1], [1], c)

    def test_brute_grid(self):
        # every prime power p^k with p <= 7, k <= 3, all m, n mod p^k;
        # the oracle builds the e(j/c) table directly.  Two routes: the
        # reference classical_S / classical_S_many over the E F^T kernel,
        # and h_global_many with no ramified factor, which reads the
        # prime-power vectors through Selberg's identity
        import numpy as np

        for p in (2, 3, 5, 7):
            for k in (1, 2, 3):
                c = p**k
                ms, ns = (g.ravel() for g in np.meshgrid(np.arange(c), np.arange(c), indexing="ij"))
                if c <= 27:
                    pairs = list(zip(ms.tolist(), ns.tolist()))
                    oracle = np.array([brute_kloosterman(m, n, c) for m, n in pairs])
                    reference = np.array([classical_S(m, n, c) for m, n in pairs])
                else:
                    table = np.exp(2j * np.pi * np.arange(c) / c)
                    xs = np.array([x for x in range(1, c) if math.gcd(x, c) == 1])
                    xinvs = np.array([pow(int(x), -1, c) for x in xs])
                    oracle = np.zeros(c * c, dtype=np.complex128)
                    for x, xb in zip(xs, xinvs):
                        oracle += table[(ms * x + ns * xb) % c]
                    reference = classical_S_many(ms, ns, c)
                for got in (reference, h_global_many(GlobalTestFunction(()), ms, ns, c)):
                    assert np.abs(got - oracle).max() < 1e-12, c

    @given(st.integers(0, 1000), st.integers(0, 1000),
           st.sampled_from([4, 9, 27, 25, 8]))
    @settings(max_examples=60)
    def test_symmetry_and_weil(self, m, n, c):
        s1 = classical_S(m, n, c)
        s2 = classical_S(n, m, c)
        assert abs(s1 - s2) < 1e-10
        p = 2 if c % 2 == 0 else (3 if c % 3 == 0 else 5)
        k = round(math.log(c, p))
        vm = min(valuation(m, p) if m else k, valuation(n, p) if n else k, k)
        # the constant 2 holds at 2^k only through k = 4 (worst ratio 1.41);
        # from 2^5 on the bound needs 2^(3/2), which
        # test_engine.py's TestBounds.test_weil_at_every_pair_mod_2k checks
        assert abs(s1) <= 2 * p ** (k / 2) * p ** (vm / 2) + 1e-9


class TestTwisted:
    def test_trivial_reduces_to_classical(self):
        chi = DirichletCharacter.trivial(3)
        got = twisted_kloosterman(chi, 1, 1, 3)
        assert abs(got - classical_S(1, 1, 3)) < 1e-12

    def test_order4_vs_brute(self):
        chi = next(c for c in enumerate_dirichlet(5, 1) if c.order() == 4)
        got = twisted_kloosterman(chi, 1, 1, 5)
        brute = sum(chi(x) * e(x + pow(x, -1, 5), 5) for x in range(1, 5))
        assert abs(got - brute) < 1e-12

    def test_orthogonality_at_zero(self):
        for chi in enumerate_dirichlet(5, 1):
            if chi.is_trivial():
                continue
            got = twisted_kloosterman(chi, 0, 0, 5)
            assert abs(got) < 1e-12


class TestGaussSum:
    def test_trivial_mod_one(self):
        assert gauss_sum(DirichletCharacter.trivial(3, 0)) == 1

    def test_legendre_mod5(self):
        leg = next(c for c in enumerate_dirichlet(5, 1) if c.order() == 2)
        tau = gauss_sum(leg)
        assert abs(tau - math.sqrt(5)) < 1e-12  # 5 = 1 mod 4: real positive

    @pytest.mark.parametrize("p,k", [(7, 1), (3, 2), (2, 3), (5, 2)])
    def test_primitive_modulus(self, p, k):
        for chi in enumerate_dirichlet(p, k):
            if not chi.is_primitive() or chi.is_trivial():
                continue
            assert abs(abs(gauss_sum(chi)) - p ** (k / 2)) < 1e-12

    def test_non_primitive_rejected(self):
        chi = DirichletCharacter.trivial(3, 1)
        with pytest.raises(ValueError):
            gauss_sum(chi)

    def test_level_sum_vanishing(self):
        # tau_k(chi) = 0 for 0 < c(chi) < k, k >= 2
        for chi in enumerate_dirichlet(3, 3):
            ce = chi.conductor_exponent()
            if 0 < ce < 3:
                assert abs(gauss_sum_at_level(chi, 3)) < 1e-10


class TestDirichletGroup:
    def test_counts_and_conductors(self):
        assert len(enumerate_dirichlet(3, 1)) == 2
        chars8 = enumerate_dirichlet(2, 3)
        assert len(chars8) == 4
        assert sorted(c.conductor for c in chars8) == [1, 4, 8, 8]
        chars25 = enumerate_dirichlet(5, 2)
        assert len(chars25) == 20
        assert sum(1 for c in chars25 if c.conductor == 25) == 16

    def test_trivial_included(self):
        assert any(c.is_trivial() for c in enumerate_dirichlet(7, 1))

    @pytest.mark.parametrize("p,k", [(3, 2), (5, 1), (2, 4)])
    def test_multiplicative_on_units_zero_off(self, p, k):
        q = p**k
        for chi in enumerate_dirichlet(p, k)[:6]:
            assert abs(chi(1) - 1) < 1e-15
            assert chi(p) == 0
            for x in range(1, q):
                for y in range(1, q):
                    if x % p and y % p:
                        assert abs(chi(x * y) - chi(x) * chi(y)) < 1e-12

    @pytest.mark.parametrize("p,k", [(3, 2), (5, 1), (2, 4), (2, 1), (7, 0)])
    def test_values_table_matches_calls(self, p, k):
        for chi in enumerate_dirichlet(p, k):
            table = chi.values()
            assert len(table) == p**k
            assert all(abs(table[n] - chi(n)) < 1e-12 for n in range(p**k))

    def test_plancherel_on_characters(self):
        # (1/phi(q)) sum_chi |sum_m f(m) conj(chi(m))|^2 = sum_m |f(m)|^2
        import numpy as np

        rng = np.random.default_rng(1)
        p, k = 3, 3
        q = p**k
        f = {m: complex(rng.normal(), rng.normal()) for m in range(1, q) if m % p}
        chars = enumerate_dirichlet(p, k)
        lhs = sum(
            abs(sum(v * chi(m).conjugate() for m, v in f.items())) ** 2
            for chi in chars
        ) / phi_pk(p, k)
        rhs = sum(abs(v) ** 2 for v in f.values())
        assert abs(lhs - rhs) < 1e-10 * max(1, rhs)


class TestHilbert:
    def test_symmetry_and_bilinearity(self):
        for p in (2, 3, 5):
            vals = [1, 2, 3, 5, -1, -2, p, 2 * p]
            for a in vals:
                for b in vals:
                    assert hilbert_symbol(a, b, p) == hilbert_symbol(b, a, p)
            for a in vals:
                for b in vals:
                    for c in vals:
                        assert (
                            hilbert_symbol(a * b, c, p)
                            == hilbert_symbol(a, c, p) * hilbert_symbol(b, c, p)
                        )

    def test_square_trivial(self):
        for p in (2, 3, 5, 7):
            for a in (1, 2, 3, p, -p, 6):
                assert hilbert_symbol(a * a, 5, p) == 1

    def test_odd_p_formula_spot(self):
        # (p, u)_p = legendre(u) for a unit u
        for p in (3, 5, 7):
            for u in range(1, p):
                assert hilbert_symbol(p, u, p) == legendre_symbol(u, p)


def test_nu():
    assert nu(1) == 1
    assert nu(9) == 12
    assert nu(12) == 24
    assert nu(30) == 72


class TestGeneratorPowers:
    # 46337^2 < 2^31 < 46349^2: products of residues on either side of the
    # int32 range stay exact in the int64 doubling
    @pytest.mark.parametrize("q", [46337, 46349, 2**15, 3**19])
    def test_rows_equal_pow_at_the_int32_edge(self, q):
        g = _primitive_root_mod_pk(q, 1) if q in (46337, 46349) else 5
        gs = [g, 2, q - 1, q + 3]
        got = generator_powers(gs, [q] * len(gs), 3000)
        assert got.dtype == np.int64 and got.shape == (len(gs), 3000)
        assert got.tolist() == [[pow(x, j, q) for j in range(3000)] for x in gs]

    def test_mixed_moduli_share_one_pass(self):
        qs = [46337, 46349, 7, 1]
        got = generator_powers([3, 3, 3, 3], qs, 100)
        assert got.dtype == np.int64
        assert got.tolist() == [[pow(3, j, q) for j in range(100)] for q in qs]
        # a row does not depend on the other moduli of its call
        assert np.array_equal(got[0], generator_powers([3], [46337], 100)[0])


def brute_primitive_root(p, k):
    """The least g whose powers mod p run through all p - 1 units, by
    walking them; g + p when k >= 2 and g^(p-1) = 1 mod p^2."""
    for g in range(2, p):
        x, order = g, 1
        while x != 1:
            x, order = x * g % p, order + 1
        if order == p - 1:
            break
    return g + p if k >= 2 and pow(g, p - 1, p * p) == 1 else g


class TestPrimitiveRoots:
    ODD_PRIME_POWERS = [(p, k) for p in range(3, 5001) if is_prime(p)
                        for k in range(1, 9) if p**k <= 5000]

    def test_sieve_equals_the_primality_test(self):
        assert primes_upto(5000).tolist() == [n for n in range(5001) if is_prime(n)]
        assert primes_upto(0).tolist() == primes_upto(1).tolist() == []
        assert primes_upto(2).tolist() == [2]

    def test_roots_equal_the_brute_force_search(self):
        # 40487 is the least prime whose least root 5 needs the lift mod p^2
        cases = self.ODD_PRIME_POWERS + [(40487, 1), (40487, 2)]
        assert len(cases) == 701
        want = [brute_primitive_root(p, k) for p, k in cases]
        assert want[-2:] == [5, 5 + 40487]
        assert [_primitive_root_mod_pk(p, k) for p, k in cases] == want
        # unit_pairs factors p - 1 by one shared sieve: its units run
        # 1, g, g^2, ... for the same roots
        pairs = list(unit_pairs(self.ODD_PRIME_POWERS))
        assert [int(units[1]) for units, _ in pairs] == want[:-2]
