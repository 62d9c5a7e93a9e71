import random
from fractions import Fraction

import numpy as np
import pytest

from genkl.padic import enumerate_dirichlet
from genkl.quadext import standard_extensions
from genkl.extchars import enumerate_xi, eta_restriction, sigma_conductor
from genkl.families import (
    Classical,
    NelsonEq,
    PrincipalSeries,
    Supercuspidal,
    SupercuspidalNbhd,
    zeta_p,
)
from genkl import engine
from genkl.engine import (
    E_gauss_brute,
    GlobalTestFunction,
    I_xi_vector,
    averaging_identity_check,
    bound_report,
    classical_S,
    classical_S_many,
    composed_conductor,
    dihedral_sum_I,
    h_global,
    h_global_many,
    h_local,
    h_local_vector,
    h_local_vector_definitional,
    langlands_gamma,
    langlands_gamma_eps,
    mellin_closed,
    mellin_direct,
    mellin_direct_all,
    stationary_decomposition_check,
    stationary_phase_R,
    stationary_phase_R_brute,
)


def make_sc(p, which=0, cxi=None, index=0):
    ext = standard_extensions(p)[which]
    if cxi is None:
        cxi = 1 if ext.e == 1 else 2
        if p == 2:
            cxi = 5 if ext.e == 1 else 8
    xs = enumerate_xi(ext, cxi, eta_restriction(ext), regular_only=True)
    return Supercuspidal(xs[index])


def make_ps(p, c):
    chi = next(
        c_
        for c_ in enumerate_dirichlet(p, c)
        if c_.is_primitive() and c_.order() > 2
    )
    return PrincipalSeries(chi)


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
        from genkl.quadext import eta_char

        for p in (2, 3, 5):
            for ext in standard_extensions(p):
                g = langlands_gamma(ext)
                assert abs(g * g - eta_char(ext, -1)) < 1e-8


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


class TestHLocal:
    def test_classical_values(self):
        tf = Classical(3, 1)
        v = h_local(tf, 1, 1, 1)
        assert abs(v.value - 4 * classical_S(1, 1, 3)) < 1e-12
        assert h_local(tf, 1, 1, 0).vanishing_reason == "below-k_p"

    def test_capacity_refused_before_any_table(self):
        from genkl.padic import CapacityError

        sc = make_sc(3, 0)
        with pytest.raises(CapacityError):
            h_local(Classical(3, 2), 1, 1, 25)
        with pytest.raises(CapacityError):
            h_local_vector(sc, 25)
        with pytest.raises(CapacityError):
            I_xi_vector(sc.xi, 25)

    def test_ps_definition(self):
        # H(m,n) = delta_p sum over xy = mn of chibar(x) chi(y) e((x+y)/p^k)
        tf = make_ps(3, 2)
        chi = tf.chi
        from genkl.padic import e

        for k in (2, 3):
            pk = 3**k
            chik = chi.extend(k) if chi.modulus_exponent < k else chi
            for m, n in ((1, 1), (2, 1), (4, 7 % pk or 1)):
                if (m * n) % 3 == 0:
                    continue
                brute = 0j
                for x in range(1, pk):
                    if x % 3 == 0:
                        continue
                    y = m * n % pk * pow(x, -1, pk) % pk
                    brute += chik(x).conjugate() * chik(y) * e(x + y, pk)
                got = h_local(tf, m, n, k).value
                assert abs(got - float(tf.delta_p()) * brute) < 1e-9

    def test_sc_vanishing_gates(self):
        tf = make_sc(3, 1)  # c(sigma) = 3
        assert h_local(tf, 1, 1, 1).vanishing_reason == "below-k_p"
        assert h_local(tf, 3, 1, 2).vanishing_reason == "non-unit-mn"
        assert abs(h_local(tf, 3, 1, 2).value) == 0

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
        from genkl.padic import nu

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

    def test_periodicity_global(self):
        gtf = GlobalTestFunction((make_sc(3, 0),))
        for c in (3, 6, 9):
            a = h_global(gtf, 2, 5, c)
            b = h_global(gtf, 2 + c, 5, c)
            assert abs(a - b) < 1e-9


class TestMellin:
    @pytest.mark.parametrize(
        "tf", ALL_SMALL_FAMILIES, ids=lambda t: t.tag
    )
    def test_direct_equals_closed(self, tf):
        p = tf.p
        for k in range(0, 5):
            if p**k > 700:
                break
            for alpha in enumerate_dirichlet(p, k):
                d = mellin_direct(tf, alpha, k)
                c = mellin_closed(tf, alpha, k)
                assert abs(d - c) < 1e-8, (tf.tag, k, alpha.exps)

    def test_direct_all_agrees_with_single(self):
        tf = make_sc(3, 0)
        k = 3
        table = mellin_direct_all(tf, k)
        for alpha in enumerate_dirichlet(3, k):
            assert abs(table[alpha.exps] - mellin_direct(tf, alpha, k)) < 1e-10

    def test_deep_alpha_returns_zero(self):
        tf = Classical(3, 1)
        alpha = next(
            c for c in enumerate_dirichlet(3, 2) if c.conductor_exponent() == 2
        )
        assert mellin_direct(tf, alpha, 1) == 0

    def test_sc_nonvanishing_criterion_and_modulus(self):
        for tf in (make_sc(3, 0), make_sc(3, 1), make_sc(5, 0)):
            p = tf.p
            xi = tf.xi
            delta = float(tf.delta_p())
            for k in range(1, 4):
                for alpha in enumerate_dirichlet(p, k):
                    d = mellin_direct(tf, alpha, k)
                    admissible = (
                        alpha.conductor_exponent() <= k and 2 * k >= tf.c_sigma
                    )
                    if admissible:
                        ab = alpha.conjugate()
                        ab = ab.extend(k) if ab.modulus_exponent < k else ab
                        crit = composed_conductor(ab, xi, k) == tf.ext.e * k - tf.d
                    else:
                        crit = False
                    assert crit == (abs(d) > 1e-8)
                    if crit:
                        assert abs(abs(d) - delta) < 1e-8

    def test_stationary_gauss_vs_full_sum(self):
        tf = make_sc(3, 0, cxi=2)
        xi = tf.xi
        for k in (2, 3):
            for alpha in enumerate_dirichlet(3, k)[:8]:
                ab = alpha.conjugate()
                ab = ab.extend(k) if ab.modulus_exponent < k else ab
                if composed_conductor(ab, xi, k) != k:
                    continue
                from genkl.engine import _stationary_E_gauss

                fast = _stationary_E_gauss(ab, xi, k)
                slow = E_gauss_brute(ab, xi, k)
                assert abs(fast - slow) < 1e-8 * max(1.0, abs(slow))

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
            lhs = sum(abs(v) ** 2 for v in table.values()) * pk * pk / phi_pk(3, k)
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
                    brute = stationary_phase_R_brute(xi, k, u0)
                    assert abs(closed - brute) < 1e-10

    def test_p2_d0_vanishing_branch(self):
        # the identity itself only needs c(sigma) >= 5, below the
        # projector family's own floor
        ext = standard_extensions(2)[0]
        xi = enumerate_xi(ext, 3, eta_restriction(ext), regular_only=True)[0]
        # v(a) > 0 kills the integral for the unramified extension of Q_2
        assert stationary_phase_R(xi, 3, (2, 1)) == 0.0
        assert abs(stationary_phase_R_brute(xi, 3, (2, 1))) < 1e-12

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
                    a = stationary_phase_R_brute(xi, k, u0)
                    b = stationary_phase_R_brute_scalar(xi, k, u0)
                    assert abs(a - b) < 1e-12

    def test_hypothesis_guards(self, xi_unram3_c1):
        with pytest.raises(ValueError):
            stationary_phase_R(xi_unram3_c1, 1, (1, 0))


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
