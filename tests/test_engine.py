import math
import random
from fractions import Fraction

import numpy as np
import pytest

from genkl.padic import (
    CapacityError,
    DirichletCharacter,
    enumerate_dirichlet,
    gauss_sum_at_level,
    is_prime,
    nu,
    unit_pairs,
    valuation,
)
from genkl.quadext import standard_extensions
from genkl.extchars import enumerate_xi, eta_restriction, seed_conductors, sigma_conductor
from genkl.families import (
    Classical,
    NelsonEq,
    PrincipalSeries,
    Supercuspidal,
    SupercuspidalNbhd,
    zeta_p,
)
from genkl import engine, kernels
from genkl.engine import (
    E_gauss_brute,
    GlobalTestFunction,
    I_xi_vector,
    averaging_identity_check,
    bound_report,
    classical_S,
    classical_S_many,
    composed_conductor,
    composed_conductor_all,
    dihedral_sum_I,
    gauss_level_table,
    h_global,
    h_global_many,
    h_global_table,
    h_local,
    h_local_many,
    h_local_vector,
    h_local_vector_definitional,
    langlands_gamma,
    langlands_gamma_eps,
    mellin_closed,
    mellin_closed_all,
    mellin_direct,
    mellin_direct_all,
    stationary_decomposition_check,
    stationary_phase_R,
    stationary_phase_R_brute,
)


def make_sc(p, which=0, cxi=None, index=0):
    ext = standard_extensions(p)[which]
    if cxi is None:
        cxi = seed_conductors(ext)[0]
    xs = enumerate_xi(ext, cxi, eta_restriction(ext), regular_only=True)
    return Supercuspidal(xs[index])


def make_ps(p, c):
    chi = next(
        c_
        for c_ in enumerate_dirichlet(p, c)
        if c_.is_primitive() and c_.order() > 2
    )
    return PrincipalSeries(chi)


def nelson_reference(tf, m, n, k):
    """Nelson's H_p(m,n;p^k) written out from classical_S: the e | p^c
    terms plus the d = p Moebius term."""
    p, c = tf.p, tf.c
    total = 0
    for ve in (0, 1):
        if k < c - ve:
            continue
        term = nu(p ** (c - ve)) * classical_S(m, n, p**k)
        if m % p == 0 and n % p == 0:
            term -= p**2 * nu(p ** (c - 1 - ve)) * classical_S(m // p, n // p, p ** (k - 1))
        total += (-1) ** ve * term
    return total


ALL_SMALL_FAMILIES = [
    Classical(3, 1),
    Classical(3, 2),
    make_ps(3, 2),
    make_sc(3, 0),
    make_sc(3, 1),
    SupercuspidalNbhd(make_sc(3, 0, cxi=2).xi, 1),
    NelsonEq(3, 3),
]


class TestIRoutes:
    def test_bucket_equals_fiber_route(self, xi_unram3_c1, xi_ram3_c2):
        for xi in (xi_unram3_c1, xi_ram3_c2):
            for k in (1, 2, 3):
                vec = I_xi_vector(xi, k)
                pk = 3**k
                for t in range(1, pk, 2):
                    assert abs(vec[t] - dihedral_sum_I(xi.ext, xi, t, k)) < 1e-10

    def test_sum_bounded_by_fiber_size(self, xi_unram3_c1, xi_ram3_c2):
        from genkl.quadext import norm_fiber

        for xi in (xi_unram3_c1, xi_ram3_c2):
            for k in (1, 2):
                vec = I_xi_vector(xi, k)
                for t in (1, 2, 4):
                    size = len(list(norm_fiber(xi.ext, k, t)))
                    assert abs(vec[t % 3**k]) <= size + 1e-9

    def test_conjugate_character_same_sums(self, xi_unram3_c1):
        xi = xi_unram3_c1
        sig = xi.galois_twist()
        assert np.allclose(I_xi_vector(xi, 2), I_xi_vector(sig, 2))

    def test_p2_unram_restriction_remark(self):
        # for the unramified extension of Q_2, the sum restricted to
        # U_E(1) equals the full sum
        tf = make_sc(2, 0)
        for k in (5, 6):
            full = I_xi_vector(tf.xi, k)
            restr = I_xi_vector(tf.xi, k, restrict_U1=True)
            assert np.abs(full - restr).max() < 1e-9


class TestGamma:
    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_methods_agree_and_unit_modulus(self, p):
        for ext in standard_extensions(p):
            gB = langlands_gamma(ext)
            gA = langlands_gamma_eps(ext)
            assert abs(abs(gB) - 1) < 1e-10
            assert abs(gA - gB) < 1e-8

    def test_xi_independence(self, unram3):
        restr = eta_restriction(unram3)
        gs = [
            langlands_gamma(unram3, xi)
            for c in (1, 2)
            for xi in enumerate_xi(unram3, c, restr, regular_only=True)
        ]
        assert max(abs(g - gs[0]) for g in gs) < 1e-8

    def test_square_is_eta_minus_one(self):
        # exactly: gamma is returned as a fourth root of unity, without
        # signed zeros that would print as -0
        from genkl.quadext import eta_char

        for p in (2, 3, 5, 7):
            for ext in standard_extensions(p):
                g = langlands_gamma(ext)
                assert g * g == eta_char(ext, -1)
                assert str(g.real) != "-0.0" and str(g.imag) != "-0.0"


class TestValueMemos:
    def test_rebuilt_supercuspidal_shares_sums(self):
        sc, again = make_sc(3, 1), make_sc(3, 1)
        assert sc.xi is not again.xi and sc == again
        vec = I_xi_vector(sc.xi, 3)
        misses = engine._I_xi_vector.cache_info().misses
        assert I_xi_vector(again.xi, 3) is vec
        assert I_xi_vector(again.xi, 3, restrict_U1=False) is vec
        assert engine._I_xi_vector.cache_info().misses == misses

    def test_index_computed_once(self):
        from genkl.extchars import neighborhood_index

        index = SupercuspidalNbhd(make_sc(3, 1).xi, 1).index()
        misses = neighborhood_index.cache_info().misses
        assert SupercuspidalNbhd(make_sc(3, 1).xi, 1).index() == index
        assert neighborhood_index.cache_info().misses == misses

    def test_families_with_equal_fields_keep_separate_vectors(self):
        cl = h_local_vector(Classical(3, 3), 3)
        ne = h_local_vector(NelsonEq(3, 3), 3)
        assert engine._H_VEC_CACHE[(Classical(3, 3), 3)] is cl
        assert engine._H_VEC_CACHE[(NelsonEq(3, 3), 3)] is ne
        # both are multiples of S(t,1;27): delta_p = nu(27) = 36 for the
        # classical family, nu(27) - nu(9) = 24 for Nelson's
        assert np.allclose(24 * cl, 36 * ne) and np.abs(cl).max() > 1

    def test_cached_arrays_are_read_only(self):
        from genkl.padic import dlog_rows

        sc = make_sc(3, 1)
        arrays = {
            "_classical_S_vector": engine._classical_S_vector(3, 2),
            "xi_table": engine.xi_table(sc.xi),
            "_I_xi_vector": I_xi_vector(sc.xi, 3),
            "h_local_vector classical": h_local_vector(Classical(3, 1), 2),
            "h_local_vector supercuspidal": h_local_vector(sc, 3),
            "dlog_rows units": dlog_rows(3, 2)[0],
            "dlog_rows rows": dlog_rows(3, 2)[1],
            **{f"units_view {i}": arr for i, arr in enumerate(sc.xi.group.units_view)},
        }
        for name, arr in arrays.items():
            with pytest.raises(ValueError):
                arr.flat[0] += 1
                pytest.fail(f"{name} is writable")


class TestHLocal:
    def test_classical_values(self):
        tf = Classical(3, 1)
        v = h_local(tf, 1, 1, 1)
        assert abs(v.value - 4 * classical_S(1, 1, 3)) < 1e-12
        assert h_local(tf, 1, 1, 0).vanishing_reason == "below-k_p"

    @pytest.mark.parametrize("k", range(1, 6))
    @pytest.mark.parametrize(
        "tf",
        [Classical(3, 2), NelsonEq(3, 3), Classical(2, 2), Classical(5, 1)],
        ids=["classical", "nelson", "classical-p2", "classical-p5"],
    )
    def test_unit_points_read_the_vector(self, tf, k):
        # unit mn reads h_local_vector; the sums below are written out from
        # classical_S
        p = tf.p
        pk = p**k

        def want(m, n):
            if isinstance(tf, Classical):
                return float(tf.delta_p()) * classical_S(m, n, pk) if k >= tf.c else 0
            return nelson_reference(tf, m, n, k)

        for m, n in [(t, 1) for t in range(pk) if t % p] + [(7, 5), (3, 6), (2, 4), (5, 10)]:
            assert abs(h_local(tf, m, n, k).value - want(m, n)) < 1e-9

    def test_capacity_refused_before_any_table(self):
        from genkl.padic import CapacityError

        sc = make_sc(3, 0)
        with pytest.raises(CapacityError):
            h_local(Classical(3, 2), 1, 1, 25)
        with pytest.raises(CapacityError):
            h_local_vector(sc, 25)
        with pytest.raises(CapacityError):
            I_xi_vector(sc.xi, 25)

    @pytest.mark.parametrize("p, c", [(3, 2), (5, 1), (2, 4)])
    def test_ps_definition(self, p, c):
        # H(m,n) = delta_p sum over xy = mn of chibar(x) chi(y) e((x+y)/p^k)
        tf = make_ps(p, c)
        chi = tf.chi
        from genkl.padic import e

        for k in (c, c + 1):
            pk = p**k
            chik = chi.extend(k) if chi.modulus_exponent < k else chi
            for m, n in [(t, 1) for t in range(pk) if t % p] + [(7, 11)]:
                brute = 0j
                for x in range(1, pk):
                    if x % p == 0:
                        continue
                    y = m * n % pk * pow(x, -1, pk) % pk
                    brute += chik(x).conjugate() * chik(y) * e(x + y, pk)
                got = h_local(tf, m, n, k).value
                assert abs(got - float(tf.delta_p()) * brute) < 1e-9

    @pytest.mark.parametrize(
        "tf",
        ALL_SMALL_FAMILIES + [make_sc(2, 0)],
        ids=lambda t: f"{t.tag}-p{t.p}-kp{t.k_p()}",
    )
    def test_vanishing_gates(self, tf):
        # one gate for every family: zero below k_p, the vector entry at
        # unit mn from k_p on, and zero at p | mn for the newform projectors
        p, kp = tf.p, tf.k_p()
        if isinstance(tf, (PrincipalSeries, Supercuspidal)):
            assert tf.support_exponent() == kp
        if kp > 0:
            below = h_local(tf, 1, 1, kp - 1)
            assert below.vanishing_reason == "below-k_p" and below.value == 0
        vec = h_local_vector(tf, kp)
        for t in range(1, min(p**kp, 40)):
            if t % p:
                got = h_local(tf, t, 1, kp)
                assert got.vanishing_reason is None and got.value == vec[t]
        assert np.abs(vec).max() > 1e-6
        got = h_local(tf, p, 1, kp)
        if isinstance(tf, (Classical, NelsonEq)):
            assert got.vanishing_reason is None
        else:
            assert got.vanishing_reason == "non-unit-mn" and got.value == 0

    def test_degeneration_spot(self):
        tf = make_sc(5, 0)
        pref = float(tf.f_one() * zeta_p(5))
        for k in (2, 3):
            pk = 5**k
            for t in (1, 2, 7):
                got = h_local(tf, t, 1, k).value
                assert abs(got - pref * classical_S(t, 1, pk)) < 1e-9

    def test_nelson_vanishing_and_values(self):
        tf = NelsonEq(3, 3)
        assert h_local(tf, 1, 1, 1).vanishing_reason == "below-k_p"
        # k = c - 1: only the e = p term survives, scale -nu(p^{c-1})
        v = h_local(tf, 1, 1, 2).value
        assert abs(v + nu(9) * classical_S(1, 1, 9)) < 1e-10
        v = h_local(tf, 1, 1, 3).value
        want = (nu(27) - nu(9)) * classical_S(1, 1, 27)
        assert abs(v - want) < 1e-10
        # d = p term for m, n both divisible by p
        v = h_local(tf, 3, 3, 3).value
        want = (nu(27) - nu(9)) * classical_S(3, 3, 27) - 9 * (
            nu(9) - nu(3)
        ) * classical_S(1, 1, 9)
        assert abs(v - want) < 1e-10

    def test_nbhd_gate_and_scaling(self):
        base = make_sc(3, 0, cxi=2)
        tf = SupercuspidalNbhd(base.xi, 1)
        assert tf.k_p() == base.c0 + 1
        assert h_local(tf, 1, 1, base.c0).value == 0
        k = tf.k_p()
        got = h_local(tf, 1, 1, k).value
        want = tf.index() * h_local(base, 1, 1, k).value
        assert abs(got - want) < 1e-12

    def test_definitional_vector_matches_gated(self):
        base = make_sc(3, 0, cxi=2)
        tf = SupercuspidalNbhd(base.xi, 1)
        for k in range(1, 5):
            gated = h_local_vector(tf, k)
            defn = h_local_vector_definitional(tf, k)
            assert np.abs(gated - defn).max() < 1e-8


class TestHLocalMany:
    @pytest.mark.parametrize(
        "tf",
        ALL_SMALL_FAMILIES + [make_sc(2, 0)],
        ids=lambda t: f"{t.tag}-p{t.p}-kp{t.k_p()}",
    )
    def test_equals_one_point_calls(self, tf):
        # entry by entry and bit for bit: k = 0, below and from k_p on, p
        # dividing m or n, m = 0 and negative m
        p = tf.p
        pairs = [
            (m, n)
            for m in (-2 * p - 1, -p, -1, 0, 1, 2, p, p + 1, p * p + 2, 7 * p**3 + 1)
            for n in (1, 2, p, -1 - p)
        ]
        ms = [m for m, _ in pairs]
        ns = [n for _, n in pairs]
        for k in range(0, tf.k_p() + 3):
            vals, reasons = h_local_many(tf, ms, ns, k)
            assert vals.dtype == np.complex128
            assert len(vals) == len(reasons) == len(pairs)
            for (m, n), v, reason in zip(pairs, vals, reasons):
                want = h_local(tf, m, n, k)
                assert np.complex128(want.value).tobytes() == v.tobytes(), (m, n, k)
                assert reason == want.vanishing_reason, (m, n, k)

    @pytest.mark.parametrize("tf", ALL_SMALL_FAMILIES, ids=lambda t: t.tag)
    def test_huge_and_array_inputs(self, tf):
        # m, n beyond int64 give the entries of their residues mod p^max(k, 1);
        # int64 arrays give the entries of the same lists
        p, big = tf.p, 10**30
        ms = [big * p, big * p + 1, -big - 2, 5 * p]
        ns = [1, p, -big, big * p**2 + 3]
        pairs = [(m, n) for m in ms for n in ns]
        for k in range(0, tf.k_p() + 2):
            q = p ** max(k, 1)
            got = h_local_many(tf, [m for m, _ in pairs], [n for _, n in pairs], k)
            red = [(m % q, n % q) for m, n in pairs]
            want = h_local_many(tf, [m for m, _ in red], [n for _, n in red], k)
            arrays = h_local_many(tf, np.array([m for m, _ in red]), np.array([n for _, n in red]), k)
            for vals, reasons in (want, arrays):
                assert vals.tobytes() == got[0].tobytes() and reasons == got[1]

    def test_classical_S_many_reduces_huge_ints(self):
        big = 10**30
        ms, ns = [big * 9 + 2, -big], [big, 4]
        want = classical_S_many([m % 9 for m in ms], [n % 9 for n in ns], 9)
        assert classical_S_many(ms, ns, 9).tobytes() == want.tobytes()

    def test_empty_and_mismatched(self):
        tf = Classical(3, 1)
        vals, reasons = h_local_many(tf, [], [], 2)
        assert vals.shape == (0,) and reasons == []
        with pytest.raises(ValueError):
            h_local_many(tf, [1, 2], [1], 2)

    def test_capacity_refused(self):
        with pytest.raises(CapacityError):
            h_local_many(Classical(3, 2), [1], [1], 25)
        with pytest.raises(CapacityError):
            h_local_many(make_sc(3, 0), [1], [1], 12)


class TestStructuralProperties:
    @pytest.mark.parametrize("tf", ALL_SMALL_FAMILIES, ids=lambda t: t.tag)
    def test_periodicity_and_unit_shift(self, tf):
        rng = random.Random(hash(tf.tag) & 0xFFFF)
        p = tf.p
        for _ in range(200):
            k = rng.randint(0, 4)
            pk = p**k
            m, n = rng.randint(0, 3 * pk), rng.randint(1, 3 * pk)
            v = h_local(tf, m, n, k).value
            assert abs(v - h_local(tf, m + pk, n, k).value) < 1e-10
            assert abs(v - h_local(tf, m, n + pk, k).value) < 1e-10
            if n % p:
                assert abs(v - h_local(tf, m * n, 1, k).value) < 1e-9

    @pytest.mark.parametrize("tf", ALL_SMALL_FAMILIES, ids=lambda t: t.tag)
    def test_trivial_bound(self, tf):
        rng = random.Random(1)
        for _ in range(100):
            k = rng.randint(0, 4)
            m, n = rng.randint(0, 80), rng.randint(0, 80)
            items = bound_report(tf, m, n, k)
            assert all(i.satisfied for i in items)


class TestHGlobal:
    def test_unramified_reduces_to_classical(self):
        gtf = GlobalTestFunction(())
        for c in (1, 4, 6, 35):
            assert abs(h_global(gtf, 2, 3, c) - classical_S(2, 3, c)) < 1e-10

    def test_gates(self):
        gtf = GlobalTestFunction((make_sc(3, 0),))
        assert h_global(gtf, 1, 1, 5) == 0  # not a multiple of k(F) = 3
        assert h_global(gtf, 1, 1, Fraction(3, 2)) == 0

    def test_many_matches_one_pair_calls(self):
        gtf = GlobalTestFunction((make_sc(3, 0), Classical(2, 1)))
        ms, ns = [1, 5, 7, 11, 13], [1, 1, 5, 25, 35]
        for c in (1, 6, 12, 30, 84, 270):
            many = h_global_many(gtf, ms, ns, c)
            one = [h_global(gtf, m, n, c) for m, n in zip(ms, ns)]
            assert np.allclose(many, one, rtol=0, atol=1e-12)

    def test_table_matches_kernel_rows(self):
        # every c <= 300 against the E F^T kernel; (4, 6), (9, 3), (10, 10),
        # (8, 8), (12, 18) and (0, 6) share a prime with many moduli
        pairs = [(1, 1), (2, 3), (4, 6), (9, 3), (10, 10), (8, 8), (7, 1),
                 (12, 18), (25, 5), (0, 6), (5, 7)]
        ms, ns = np.array(pairs).T
        cs = np.arange(1, 301)
        table = h_global_table(GlobalTestFunction(()), ms, ns, cs)
        assert table.shape == (len(cs), len(pairs))
        for c, row in zip(cs.tolist(), table):
            assert np.allclose(row, classical_S_many(ms, ns, c), rtol=0, atol=1e-9), c

    def test_table_matches_many_at_level(self):
        gtf = GlobalTestFunction((make_sc(3, 0), Classical(2, 1)))
        ms, ns = [1, 5, 7, 11, 13, 10, 15], [1, 1, 5, 25, 35, 25, 35]
        cs = [1, 6, 12, 30, 84, 150, 270, 294, 5 * 7 * 24]
        table = h_global_table(gtf, ms, ns, cs)
        for c, row in zip(cs, table):
            assert np.allclose(row, h_global_many(gtf, ms, ns, c), rtol=0, atol=1e-12)
            # the assembly over the whole modulus c_0 with the E F^T kernel
            c0 = c
            while c0 % 2 == 0 or c0 % 3 == 0:
                c0 //= 2 if c0 % 2 == 0 else 3
            cN = c // c0
            cbar_N, cbar_0 = pow(cN, -1, c0), pow(c0, -1, gtf.level * cN)
            want = classical_S_many([cbar_N * m for m in ms], [cbar_N * n for n in ns], c0)
            for tf in gtf.locals:
                k = 0
                while cN % tf.p ** (k + 1) == 0:
                    k += 1
                want = want * [h_local(tf, m * cbar_0, n * cbar_0, k).value for m, n in zip(ms, ns)]
            assert np.allclose(row, want, rtol=0, atol=1e-9), c

    @pytest.mark.parametrize("tf", [make_sc(3, 0), make_ps(5, 1)], ids=["sc-level-9", "ps-level-25"])
    def test_table_skips_h_local_at_nonunit_mn(self, tf, monkeypatch):
        # coprime pairs, so no unramified prime divides gcd(m, n), and
        # some of them with p | mn
        pairs = [(m, n) for m in range(1, 10) for n in range(1, 10) if np.gcd(m, n) == 1]
        ms, ns = np.array(pairs).T
        cs = np.arange(1, 667)
        gtf = GlobalTestFunction((tf,))
        unit = (ms * ns) % tf.p != 0
        assert 0 < np.count_nonzero(~unit) < len(pairs)
        for m, n in zip(ms[~unit].tolist(), ns[~unit].tolist()):
            for k in range(tf.level_exponent() + 2):
                assert h_local(tf, m, n, k).value == 0
        units_only = h_global_table(gtf, ms[unit], ns[unit], cs)

        def no_call(*args):
            raise AssertionError("h_local called for a newform projector")

        monkeypatch.setattr(engine, "h_local", no_call)
        table = h_global_table(gtf, ms, ns, cs)
        assert np.count_nonzero(table[:, unit]) > 0
        assert np.array_equal(table[:, unit], units_only)
        assert not table[:, ~unit].any()

    def test_table_nelson_factor(self, monkeypatch):
        # a Nelson factor at p = 3, mostly at pairs with 3 | gcd(m, n): every
        # row against twisted multiplicativity, with the local factor
        # written out from classical_S (nelson_reference), and no h_local
        # call on either side
        def no_call(*args):
            raise AssertionError("h_local called")

        monkeypatch.setattr(engine, "h_local", no_call)
        p, c = 3, 3
        gtf = GlobalTestFunction((NelsonEq(p, c),))
        pairs = [(3, 3), (3, 6), (9, 3), (6, 15), (12, 21), (27, 9), (0, 3), (1, 1), (3, 1), (2, 5)]
        ms, ns = np.array(pairs).T
        cs = [c0 * p**v for v in range(5) for c0 in (1, 2, 5, 7, 10, 11)]
        table = h_global_table(gtf, ms, ns, cs)
        assert np.count_nonzero(table) > len(table)
        for cc, row in zip(cs, table):
            v = valuation(cc, p)
            c0, cN = cc // p**v, p**v
            cbar_N, cbar_0 = pow(cN, -1, c0), pow(c0, -1, p * cN)
            want = []
            for m, n in pairs:
                local = nelson_reference(NelsonEq(p, c), m * cbar_0, n * cbar_0, v)
                want.append(classical_S(cbar_N * m, cbar_N * n, c0) * local)
            assert np.allclose(row, want, rtol=1e-12, atol=1e-9), cc

    def test_table_guards(self):
        gtf = GlobalTestFunction(())
        with pytest.raises(ValueError):
            h_global_table(gtf, [1], [1], [5, 0])
        with pytest.raises(CapacityError):
            h_global_table(gtf, [1, 2], [1, 1], range(1, 10**7))
        assert h_global_table(gtf, [1, 2], [1, 1], []).shape == (0, 2)

    def test_twisted_multiplicativity_random(self):
        gtf = GlobalTestFunction((make_sc(3, 0), Classical(2, 1)))
        N = gtf.level
        rng = random.Random(5)
        for _ in range(60):
            c0 = rng.choice([1, 5, 7, 25, 35])
            k3 = rng.randint(1, 3)
            k2 = rng.randint(1, 3)
            c = c0 * 3**k3 * 2**k2
            m, n = rng.randint(1, 50), rng.randint(1, 50)
            cN = 3**k3 * 2**k2
            got = h_global(gtf, m, n, c)
            cbarN = pow(cN, -1, c0) if c0 > 1 else 0
            cbar0 = pow(c0, -1, N * cN)
            want = classical_S(cbarN * m, cbarN * n, c0)
            for tf in gtf.locals:
                kk = k3 if tf.p == 3 else k2
                want *= h_local(tf, m * cbar0, n * cbar0, kk).value
            assert abs(got - want) < 1e-8 * max(1.0, abs(want))

    def test_huge_m_equals_its_residue(self):
        # m beyond int64, at an unramified prime (7) and the ramified one (3);
        # 7 | gcd(m, n) at c = 63 and 49 | gcd(m, n) at c = 1029 add
        # Selberg's terms at 7
        gtf = GlobalTestFunction((Classical(3, 1),))
        m = 10**30 + 7
        assert h_global(gtf, m, 1, 21) == h_global(gtf, m % 21, 1, 21)
        assert h_global(gtf, 7 * m, 14, 63) == h_global(gtf, 7 * m % 63, 14, 63)
        assert h_global(gtf, 49 * m, 98, 1029) == h_global(gtf, 49 * m % 1029, 98, 1029)
        assert abs(h_global(gtf, 49 * m, 98, 1029)) > 1

    def test_periodicity_global(self):
        gtf = GlobalTestFunction((make_sc(3, 0),))
        for c in (3, 6, 9):
            a = h_global(gtf, 2, 5, c)
            b = h_global(gtf, 2 + c, 5, c)
            assert abs(a - b) < 1e-9


class TestOneRoute:
    def test_production_S_skips_the_kernel(self, monkeypatch):
        # every production S(m,n;p^k) reads the prime-power vectors; the
        # E F^T kernel behind classical_S is the reference only, so the
        # references are taken before the kernel is made to raise
        pairs = [(7, 14), (49, 7), (14, 98), (0, 0), (0, 21), (3, 9), (9, 18), (8, 4), (1, 1), (2, 5)]
        ms, ns = np.array(pairs).T
        cs = [21, 49, 63, 98, 343, 441, 216, 2 * 3 * 5 * 7]
        want_global = [[classical_S(m, n, c) for m, n in pairs] for c in cs]
        local_cases = [(Classical(3, 2), 3), (NelsonEq(3, 3), 2), (NelsonEq(3, 3), 3), (NelsonEq(2, 4), 4)]
        local_pairs = [
            [(m, n) for m in (0, p, p**2, p**k, 3 * p**k, 1, 2) for n in (0, 1, p, p**2, p**k)]
            for p, k in ((tf.p, k) for tf, k in local_cases)
        ]
        want_local = [
            [float(tf.delta_p()) * classical_S(m, n, tf.p**k) if isinstance(tf, Classical)
             else nelson_reference(tf, m, n, k) for m, n in ps]
            for (tf, k), ps in zip(local_cases, local_pairs)
        ]
        ext = standard_extensions(3)[1]
        want_gamma = langlands_gamma_eps(ext)

        def no_kernel(*args):
            raise AssertionError("kloosterman_many called")

        monkeypatch.setattr(engine.kernels, "kloosterman_many", no_kernel)
        engine._langlands_gamma.cache_clear()
        got = h_global_table(GlobalTestFunction(()), ms, ns, cs)
        assert np.abs(got - np.array(want_global)).max() < 1e-10
        for (tf, k), ps, want in zip(local_cases, local_pairs, want_local):
            vals, reasons = h_local_many(tf, [m for m, _ in ps], [n for _, n in ps], k)
            assert reasons == [None] * len(ps)
            assert np.abs(vals - np.array(want)).max() < 1e-9
        assert abs(langlands_gamma(ext) - want_gamma) < 1e-8


def euler_S_vector(p, k):
    """S(t,1;p^k) for every t from the Euler-ladder inverses of
    kernels.unit_inverses: the vectors as they were built before
    unit_pairs."""
    q = p**k
    if q == 1:
        return np.ones(1, dtype=np.complex128)
    ws, wbars = kernels.unit_inverses(q)
    h = np.zeros(q, dtype=np.complex128)
    h[ws] = np.exp(2j * np.pi * wbars / q)
    return q * np.fft.ifft(h)


def prime_powers(limit, k_min=1):
    """(p, k) for every prime power p^k <= limit with k >= k_min, by p and
    then k."""
    return [(p, k) for p in range(2, limit + 1) if is_prime(p)
            for k in range(k_min, limit.bit_length()) if p**k <= limit]


class TestUnitPairs:
    def test_block_vectors_equal_the_euler_vectors(self):
        # every prime power of c <= 2000 (2^1 ... 2^10 among them) and
        # p^0 = 1, built as one stream of blocks and one modulus at a time
        moduli = prime_powers(2000, k_min=0)
        assert {(2, k) for k in range(11)} <= set(moduli)
        for (p, k), vec in zip(moduli, engine._twisted_S_vectors(moduli)):
            want = euler_S_vector(p, k)
            assert np.array_equal(vec, want), (p, k)
            assert np.array_equal(engine._twisted_S_vector(p, k, None), want), (p, k)

    def test_pairs_are_inverse_and_cover_the_units(self):
        moduli = prime_powers(5000)
        pairs = list(unit_pairs(moduli))
        assert len(pairs) == len(moduli)
        for (p, k), (units, inverses) in zip(moduli, pairs):
            q = p**k
            assert (units * inverses % q == 1).all(), (p, k)
            assert np.array_equal(np.sort(units), kernels.unit_inverses(q)[0]), (p, k)
        assert [u.tolist() for u in next(unit_pairs([(2, 0)]))] == [[0], [0]]

    @pytest.mark.parametrize("locals_", [(), (make_sc(3, 0), Classical(2, 1))], ids=["level-1", "criterion-6"])
    def test_table_is_symmetric_in_m_and_n(self, locals_):
        # S(m,n;c) = S(n,m;c): every read uses mn and gcd(m, n) only, so the
        # swapped table is equal bit for bit, Selberg's terms included
        gtf = GlobalTestFunction(locals_)
        pairs = [(m, n) for m in range(1, 13) for n in range(1, 13)] + [(0, 6), (25, 5), (49, 98)]
        ms, ns = np.array(pairs).T
        cs = np.arange(1, 601)
        table = h_global_table(gtf, ms, ns, cs)
        assert np.count_nonzero(table) > len(cs)
        assert np.array_equal(table, h_global_table(gtf, ns, ms, cs))


def trial_division_parts(cs):
    """(q, e, rows) of every prime power q^e exactly dividing some c, by
    trial division by every integer q with q^2 <= max of what is left:
    the parts as h_global_table took them before the sieve."""
    rest, out, q = np.array(cs, dtype=np.int64), [], 2
    while len(rest) and q * q <= rest.max():
        e = np.zeros(len(rest), dtype=np.int64)
        while (hit := rest % q == 0).any():
            e += hit
            rest[hit] //= q
        out += [(q, k, np.flatnonzero(e == k).tolist()) for k in sorted(set(e[e > 0].tolist()))]
        q += 1
    return out + [(q, 1, np.flatnonzero(rest == q).tolist()) for q in sorted(set(rest[rest > 1].tolist()))]


class TestPrimePowerParts:
    @pytest.mark.parametrize("cs", [
        [1],
        [1, 1, 1],
        [4, 9, 25, 49, 121, 169, 2809],
        [2**k for k in range(12)],
        # the larger prime of each product is above sqrt(max c)
        [47 * 53, 2 * 53, 3 * 59, 43 * 47, 53, 59 * 2, 61],
        [7, 64],
        list(range(1, 2001)),
        list(range(2000, 0, -7)),
    ], ids=["one", "ones", "prime-squares", "powers-of-2", "two-primes", "small-left", "benchmark", "descending"])
    def test_parts_equal_trial_division_by_every_integer(self, cs):
        got = [(q, e, rows.tolist()) for q, e, rows in engine._prime_power_parts(np.array(cs, dtype=np.int64))]
        assert got == trial_division_parts(cs)

    def test_parts_after_the_ramified_primes_are_stripped(self):
        # what h_global_table factors for criterion 6's tensor (levels 9
        # and 2) and for a level-25 principal series
        for ps, cs in (((3, 2), np.arange(6, 3001, 6)), ((5,), np.arange(5, 5001, 5))):
            c0 = cs.copy()
            for p in ps:
                while (hit := c0 % p == 0).any():
                    c0[hit] //= p
            got = [(q, e, rows.tolist()) for q, e, rows in engine._prime_power_parts(c0)]
            assert got == trial_division_parts(c0)
            assert all(q not in ps for q, _, _ in got)

    def test_no_moduli_no_parts(self):
        assert list(engine._prime_power_parts(np.array([], dtype=np.int64))) == []


class TestMellin:
    # given mod 27 with conductor 3: both routes bring it to level 1 first
    DEEP_ALPHA = (DirichletCharacter(3, 3, (9,)), 1)

    @pytest.mark.parametrize(
        "tf", ALL_SMALL_FAMILIES, ids=lambda t: t.tag
    )
    def test_direct_equals_closed(self, tf):
        p = tf.p
        for k in range(0, 5):
            if p**k > 700:
                break
            direct, closed = mellin_direct_all(tf, k), mellin_closed_all(tf, k)
            assert closed.shape == direct.shape
            assert np.abs(direct - closed).max() < 1e-8, (tf.tag, k)
            with pytest.raises(ValueError):
                closed[(0,) * closed.ndim] = 0
        alpha, k = self.DEEP_ALPHA
        assert abs(mellin_direct(tf, alpha, k) - mellin_closed(tf, alpha, k)) < 1e-8

    @pytest.mark.parametrize("tf", ALL_SMALL_FAMILIES, ids=lambda t: t.tag)
    def test_one_alpha_calls_read_the_tables(self, tf):
        xi = getattr(tf, "xi", None)
        for k in (1, 2, 3):
            for alpha in enumerate_dirichlet(tf.p, k):
                assert mellin_closed(tf, alpha, k) == mellin_closed_all(tf, k)[alpha.exps]
                if xi is not None and k >= xi.group.M:
                    conds = composed_conductor_all(xi, k)
                    assert composed_conductor(alpha, xi, k) == conds[alpha.exps]
                    G = engine._stationary_E_gauss_all(xi, k)
                    assert engine._stationary_E_gauss(alpha, xi, k) == G[alpha.exps]

    def test_deep_alpha_reads_level_k(self):
        alpha, k = self.DEEP_ALPHA
        tf = Classical(3, 1)
        at_level = alpha.restrict_to_conductor()
        assert abs(mellin_direct(tf, alpha, k) - (-4)) < 1e-12
        assert mellin_direct(tf, alpha, k) == mellin_direct(tf, at_level, k)
        assert mellin_closed(tf, alpha, k) == mellin_closed(tf, at_level, k)

    @pytest.mark.parametrize(
        "tf",
        ALL_SMALL_FAMILIES + [Classical(2, 1)],
        ids=lambda t: f"{t.tag}-p{t.p}-kp{t.k_p()}",
    )
    def test_direct_all_matches_definition(self, tf):
        # p^{-k} sum over units y of H(y,1;p^k) conj(alpha(y)); k = 0, and
        # p = 2 at k = 1, have no generators
        p = tf.p
        for k in range(0, 5):
            pk = p**k
            vec = h_local_vector(tf, k)
            table = mellin_direct_all(tf, k)
            for alpha in enumerate_dirichlet(p, k):
                want = sum(
                    vec[y] * alpha(y).conjugate()
                    for y in range(pk)
                    if math.gcd(y, pk) == 1
                ) / pk
                assert abs(table[alpha.exps] - want) < 1e-10, (k, alpha.exps)

    @pytest.mark.parametrize("p, kmax", [(2, 6), (3, 4), (5, 3)])
    def test_gauss_level_table_matches_level_sums(self, p, kmax):
        for k in range(0, kmax + 1):
            table = gauss_level_table(p, k)
            for chi in enumerate_dirichlet(p, k):
                want = gauss_sum_at_level(chi, k)
                assert abs(table[chi.exps] - want) <= 1e-12 * p ** (k / 2), (k, chi.exps)
            with pytest.raises(ValueError):
                table[(0,) * table.ndim] = 0

    def test_deep_alpha_returns_zero(self):
        tf = Classical(3, 1)
        alpha = next(
            c for c in enumerate_dirichlet(3, 2) if c.conductor_exponent() == 2
        )
        assert mellin_direct(tf, alpha, 1) == 0

    def test_sc_nonvanishing_criterion_and_modulus(self):
        for tf in (make_sc(3, 0), make_sc(3, 1), make_sc(5, 0)):
            delta = float(tf.delta_p())
            for k in range(1, 4):
                d = mellin_direct_all(tf, k)
                # conds[x] is c((chi_x o Nm) xi); alpha_x's conjugate sits at -x
                conds = engine._conj_index(composed_conductor_all(tf.xi, k))
                crit = (2 * k >= tf.c_sigma) & (conds == tf.ext.e * k - tf.d)
                assert (crit == (np.abs(d) > 1e-8)).all()
                assert (np.abs(np.abs(d[crit]) - delta) < 1e-8).all()

    def test_stationary_gauss_vs_full_sum(self):
        # an unramified and a ramified xi at p = 3 and the odd-A unramified
        # extension of Q_2; every alpha_bar mod p^k, those with no
        # stationary point included (zero on both sides)
        for p, which in ((3, 0), (3, 1), (2, 0)):
            ext = standard_extensions(p)[which]
            xi = enumerate_xi(ext, 2, eta_restriction(ext), regular_only=True)[0]
            assert p != 2 or ext.A % 2 == 1
            seen = set()
            for k in (2, 3):
                conds = composed_conductor_all(xi, k)
                for ab in enumerate_dirichlet(ext.p, k):
                    fast = engine._stationary_E_gauss(ab, xi, k)
                    slow = E_gauss_brute(ab, xi, k)
                    assert abs(fast - slow) < 1e-8 * max(1.0, abs(slow)), (ext, k, ab.exps)
                    stationary = bool(conds[ab.exps] == ext.e * k - ext.d)
                    assert stationary == (abs(slow) > 1e-8), (ext, k, ab.exps)
                    seen.add(stationary)
            assert seen == {True, False}, ext

    def test_singular_layer_system_is_refused(self):
        assert (engine._inverse_mod_p([[2, 1], [1, 1]], 3) == [[1, 2], [2, 2]]).all()
        with pytest.raises(AssertionError, match="stationary point not unique"):
            engine._inverse_mod_p([[1, 2], [2, 1]], 3)
        with pytest.raises(AssertionError, match="stationary point not unique"):
            engine._inverse_mod_p([[3]], 3)

    def test_classical_primitive_level_modulus(self):
        # at c(alpha) = k >= c the transform has modulus f(1) in the
        # unit-integral normalization used throughout
        tf = Classical(3, 1)
        for k in (1, 2, 3):
            for alpha in enumerate_dirichlet(3, k):
                if alpha.conductor_exponent() != k or k < tf.c:
                    continue
                got = abs(mellin_direct(tf, alpha, k))
                assert got == pytest.approx(float(tf.f_one()), abs=1e-9)

    def test_parseval(self):
        # sum_alpha |Hhat|^2 p^{2k}/phi = sum over units |H(y,1)|^2
        from genkl.padic import phi_pk

        for tf in (Classical(3, 1), make_sc(3, 0)):
            k = 2
            pk = 3**k
            table = mellin_direct_all(tf, k)
            vec = h_local_vector(tf, k)
            lhs = float((np.abs(table) ** 2).sum()) * pk * pk / phi_pk(3, k)
            rhs = sum(abs(vec[y]) ** 2 for y in range(1, pk) if y % 3)
            assert abs(lhs - rhs) < 1e-8 * max(1.0, rhs)

    def test_ftb_local_bound(self):
        # |Hhat(alpha, k)| <= (1 - 1/p)^{-2} f_p(1)
        for tf in ALL_SMALL_FAMILIES:
            p = tf.p
            C = float(zeta_p(p)) ** 2 * float(tf.f_one())
            for k in range(0, 4):
                for alpha in enumerate_dirichlet(p, k):
                    assert abs(mellin_direct(tf, alpha, k)) <= C + 1e-9


class TestStationaryPhase:
    def test_closed_vs_brute_sample(self, xi_unram3_c1, xi_ram3_c2):
        for xi in (xi_unram3_c1, xi_ram3_c2):
            cs = sigma_conductor(xi)
            for k in range(max(-(-cs // 2), 2), 5):
                pk = 3**k
                for u0 in ((1, 0), (2, 1), (1, 2), (4, 3 % pk)):
                    if not xi.ext.is_unit(u0):
                        continue
                    closed = stationary_phase_R(xi, k, u0)
                    brute = stationary_phase_R_brute(xi, k, [u0])[0]
                    assert abs(closed - brute) < 1e-10

    def test_p2_d0_vanishing_branch(self):
        # the identity itself only needs c(sigma) >= 5, below the
        # projector family's own floor
        ext = standard_extensions(2)[0]
        xi = enumerate_xi(ext, 3, eta_restriction(ext), regular_only=True)[0]
        # v(a) > 0 kills the integral for the unramified extension of Q_2
        assert stationary_phase_R(xi, 3, (2, 1)) == 0.0
        assert abs(stationary_phase_R_brute(xi, 3, [(2, 1)])[0]) < 1e-12

    def test_case2_indicator(self, xi_ram3_c2):
        # with b' deep, R = p^{-ceil((3k-d)/2)} delta(ceil((k-1)/2) >= c0)
        xi = xi_ram3_c2
        k = 2  # ceil((k-1)/2) = 1 = c0: indicator on
        u0 = (1, 0)  # b = 0 makes b' = 0
        got = stationary_phase_R(xi, k, u0)
        assert got == pytest.approx(3.0 ** -(-(-(3 * 2 - 1) // 2)))

    def test_decomposition_identity(self, xi_unram3_c1, xi_ram3_c2):
        for xi in (xi_unram3_c1, xi_ram3_c2):
            cs = sigma_conductor(xi)
            for k in range(max(-(-cs // 2), 2), 5):
                for m in (1, 2, 4):
                    lhs, rhs = stationary_decomposition_check(xi, m, k)
                    assert abs(lhs - rhs) < 1e-8

    def test_brute_vector_matches_scalar(self, xi_unram3_c1, xi_ram3_c2):
        from genkl.engine import stationary_phase_R_brute_scalar

        for xi in (xi_unram3_c1, xi_ram3_c2):
            for k in (2, 3):
                for u0 in ((1, 0), (2, 1), (1, 2)):
                    a = stationary_phase_R_brute(xi, k, [u0])[0]
                    b = stationary_phase_R_brute_scalar(xi, k, u0)
                    assert abs(a - b) < 1e-12

    def test_brute_batch_matches_scalar_per_class(self, xi_unram3_c1, xi_ram3_c2):
        from genkl.engine import stationary_phase_R_brute_scalar

        ext2 = standard_extensions(2)[0]
        xi2 = enumerate_xi(ext2, 3, eta_restriction(ext2), regular_only=True)[0]
        # several norms, a ramified extension, and the p = 2, d = 0 class
        # (2, 1) where R vanishes
        cases = [
            (xi_unram3_c1, 3, [(1, 0), (2, 1), (0, 1), (5, 7), (4, 3), (1, 0), (26, 13)]),
            (xi_ram3_c2, 3, [(1, 0), (2, 1), (1, 2), (4, 3), (8, 26)]),
            (xi2, 3, [(1, 0), (2, 1), (1, 1), (3, 6), (6, 5), (7, 0)]),
        ]
        for xi, k, u0s in cases:
            pk = xi.ext.p**k
            assert len({xi.ext.norm(u0, pk) for u0 in u0s}) > 2
            got = stationary_phase_R_brute(xi, k, u0s)
            assert got.shape == (len(u0s),)
            for u0, a in zip(u0s, got):
                assert abs(a - stationary_phase_R_brute_scalar(xi, k, u0)) < 1e-12
        assert abs(stationary_phase_R_brute(xi2, 3, [(2, 1)])[0]) < 1e-12

    def test_brute_batch_edges(self, xi_unram3_c1, xi_ram3_c2):
        assert stationary_phase_R_brute(xi_unram3_c1, 3, []).shape == (0,)
        with pytest.raises(ValueError):
            stationary_phase_R_brute(xi_unram3_c1, 3, [(1, 0), (3, 6)])
        with pytest.raises(ValueError):
            stationary_phase_R_brute(xi_ram3_c2, 3, [(1, 0), (3, 1)])

    def test_hypothesis_guards(self, xi_unram3_c1):
        with pytest.raises(ValueError):
            stationary_phase_R(xi_unram3_c1, 1, (1, 0))

    @pytest.mark.parametrize("name", [
        "stationary_phase_R",
        "stationary_phase_R_brute",
        "stationary_phase_R_brute_scalar",
        "_stationary_E_gauss",
        "E_gauss_brute",
    ])
    def test_oversized_fails_fast(self, xi_unram3_c1, name):
        import time

        # alpha_bar mod 3 builds at once; only the modulus 3^25 is oversized
        alpha_bar = enumerate_dirichlet(3, 1)[1]
        args = {
            "_stationary_E_gauss": (alpha_bar, xi_unram3_c1, 25),
            "E_gauss_brute": (alpha_bar, xi_unram3_c1, 25),
            "stationary_phase_R_brute": (xi_unram3_c1, 25, [(1, 0)]),
        }.get(name, (xi_unram3_c1, 25, (1, 0)))
        t0 = time.perf_counter()
        with pytest.raises(CapacityError):
            getattr(engine, name)(*args)
        assert time.perf_counter() - t0 < 1.0


class TestAveraging:
    def test_singleton_radius_trivial(self, xi_ram3_c2):
        rep = averaging_identity_check(xi_ram3_c2, 0, 1, 2)
        assert rep["classes"] == 1

    def test_both_regimes(self):
        base = make_sc(3, 0, cxi=2)
        xi = base.xi
        for n in (0, 1):
            for k in (2, 3, 4):
                rep = averaging_identity_check(xi, n, 1, k)
                if k >= rep["bound"]:
                    assert abs(rep["average"] - rep["target"]) < 1e-9 * 10
                else:
                    assert abs(rep["average"]) < 1e-9 * 10


class TestAveragingP2:
    def test_unramified_q2_uses_restricted_sums(self):
        # i = 1 for the unramified extension of Q_2
        from genkl.families import twist_minimal_conductor

        ext = standard_extensions(2)[0]
        xi = enumerate_xi(ext, 5, eta_restriction(ext), regular_only=True)[0]
        cxp = twist_minimal_conductor(xi)
        for n in (1, 2, 4):
            for k in (5, 6, 7):
                if n >= cxp and k < 4 + n:
                    continue
                rep = averaging_identity_check(xi, n, 1, k)
                assert rep["i"] == 1

    def test_ramified_q2(self):
        from genkl.families import twist_minimal_conductor

        ext = standard_extensions(2)[1]
        xi = enumerate_xi(ext, 8, eta_restriction(ext), regular_only=True)[0]
        for n in (0, 2, 4):
            for k in (5, 6, 8):
                if n >= twist_minimal_conductor(xi) and k < 5 + n // 2:
                    continue
                averaging_identity_check(xi, n, 3, k)


class TestNbhdBoundaryP2:
    """For ramified extensions of Q_2 the neighborhood matching regime
    extends one exponent below the generic threshold at the top radii
    (floor(n/2) = c0 - 1); verified here against the definitional sums."""

    @pytest.mark.parametrize("which,cxi,n", [(1, 8, 6), (3, 8, 6), (3, 8, 7)])
    def test_equality_at_extended_slot(self, which, cxi, n):
        ext = standard_extensions(2)[which]
        xi = enumerate_xi(ext, cxi, eta_restriction(ext), regular_only=True)[0]
        tf = SupercuspidalNbhd(xi, n)
        c0 = cxi // 2
        generic = c0 + -(-ext.d // 2) + n // 2
        assert tf.k_p() == generic - 1
        k = tf.k_p()
        gated = h_local_vector(tf, k)
        defn = h_local_vector_definitional(tf, k)
        assert np.abs(gated - defn).max() < 1e-8
        assert np.abs(gated).max() > 1
        # and genuine vanishing one step lower
        below = h_local_vector_definitional(tf, k - 1)
        assert np.abs(below).max() < 1e-8

    def test_interior_radii_keep_generic_threshold(self):
        ext = standard_extensions(2)[1]
        xi = enumerate_xi(ext, 8, eta_restriction(ext), regular_only=True)[0]
        tf = SupercuspidalNbhd(xi, 2)
        assert tf.k_p() == 4 + 1 + 1
        assert np.abs(h_local_vector_definitional(tf, tf.k_p() - 1)).max() < 1e-8


class TestBounds:
    def test_weil_at_every_pair_mod_2k(self):
        # the Weil bound depends on (m, n) through v = v_2((m, n, 2^k)) only,
        # so the largest brute |S| of each v class checks every pair; at
        # p = 2 the ratio to 2^(k/2) 2^(v/2) reaches 2.825 by k = 8
        tf = Classical(2, 1)
        for k in range(1, 9):
            q = 2**k
            ms, ns = np.divmod(np.arange(q * q), q)
            phase = np.exp(2j * np.pi * np.arange(q) / q)
            S = np.zeros(q * q, dtype=np.complex128)
            for x in range(1, q, 2):
                S += phase[(ms * x + ns * pow(x, -1, q)) % q]
            g = np.gcd(np.gcd(ms, ns), q)
            for v in np.unique(g).tolist():
                i = np.flatnonzero(g == v)[np.argmax(np.abs(S[g == v]))]
                items = bound_report(tf, int(ms[i]), int(ns[i]), k)
                weil = next(item for item in items if item.name == "weil")
                assert abs(weil.magnitude - float(tf.delta_p()) * abs(S[i])) < 1e-9
                assert weil.satisfied, (k, int(ms[i]), int(ns[i]))

    def test_statphase_bound_on_values(self):
        for tf in (make_sc(3, 0), make_sc(3, 1), make_sc(5, 0)):
            for k in range(max(-(-tf.c_sigma // 2), 2), 5):
                for m in range(1, 3 * 5):
                    if m % tf.p == 0:
                        continue
                    items = bound_report(tf, m, 1, k)
                    assert all(i.satisfied for i in items), (tf.tag, m, k)

    def test_katz_exhaustive_small(self):
        import itertools
        from genkl.quadext import unit_group
        from genkl.extchars import ExtCharacter
        from genkl.engine import katz_sum_and_bound

        for p in (2, 3, 5, 7, 11, 13):
            ext = standard_extensions(p)[0]
            G = unit_group(ext, 1)
            for exps in itertools.product(*(range(o) for o in G.orders)):
                xi1 = ExtCharacter(ext, G, exps, Fraction(0))
                for m in range(p):
                    s, bnd = katz_sum_and_bound(xi1, m)
                    assert s <= bnd + 1e-9
