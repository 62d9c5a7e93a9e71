from fractions import Fraction

import pytest

from genkl.padic import enumerate_dirichlet, nu
from genkl.quadext import standard_extensions
from genkl.extchars import enumerate_xi, eta_restriction, seed_conductors
from genkl.families import (
    Classical,
    ConductorGeqTwo,
    ConductorOne,
    NelsonEq,
    PrincipalSeries,
    Supercuspidal,
    SupercuspidalNbhd,
    UnramifiedPS,
    cvf_report,
    geometric_conductor_scan,
    local_L_value,
    twist_minimal_conductor,
    zeta_p,
)


def make_ps(p, c):
    cands = [
        chi
        for chi in enumerate_dirichlet(p, c)
        if chi.is_primitive() and chi.order() > 2
    ]
    return PrincipalSeries(cands[0])


def make_sc(p, which=0, cxi=None):
    ext = standard_extensions(p)[which]
    if cxi is None:
        cxi = seed_conductors(ext)[0]
    xs = enumerate_xi(ext, cxi, eta_restriction(ext), regular_only=True)
    return Supercuspidal(xs[0])


class TestConstructors:
    def test_classical_guard(self):
        with pytest.raises(ValueError):
            Classical(3, -1)

    def test_ps_guards(self):
        quad = next(c for c in enumerate_dirichlet(5, 1) if c.order() == 2)
        with pytest.raises(ValueError):
            PrincipalSeries(quad)
        # p = 2 needs c(chi) >= 4
        small = [
            c for c in enumerate_dirichlet(2, 3) if c.is_primitive() and c.order() > 2
        ]
        for chi in small:
            with pytest.raises(ValueError):
                PrincipalSeries(chi)

    def test_sc_p2_conductor_floor(self):
        ext = standard_extensions(2)[0]
        xi = enumerate_xi(ext, 3, eta_restriction(ext), regular_only=True)[0]
        with pytest.raises(ValueError):  # c(sigma) = 6 < 9
            Supercuspidal(xi)

    def test_nbhd_radius_guard(self):
        tf = make_sc(3)
        with pytest.raises(ValueError):
            SupercuspidalNbhd(tf.xi, tf.c_xi)  # n must stay below c(xi')

    def test_nelson_guard(self):
        with pytest.raises(ValueError):
            NelsonEq(3, 2)


class TestPerFamilyMemo:
    """delta_p and f_one pinned for one member of each family, and computed
    once per family value: an equal family returns the same object."""

    @pytest.mark.parametrize(
        "build, f_one, delta_p",
        [
            (lambda: Classical(3, 2), Fraction(12), Fraction(12)),
            (lambda: make_ps(5, 2), Fraction(30), Fraction(75, 2)),
            (lambda: make_sc(3), Fraction(2), Fraction(3)),
            (lambda: SupercuspidalNbhd(make_sc(3, 1).xi, 1), Fraction(8), Fraction(12)),
            (lambda: NelsonEq(3, 3), Fraction(16), Fraction(24)),
        ],
    )
    def test_pinned_and_computed_once(self, build, f_one, delta_p):
        tf = build()
        assert tf.f_one() == f_one and tf.delta_p() == delta_p
        again = build()
        assert again is not tf and again == tf
        assert again.f_one() is tf.f_one() and again.delta_p() is tf.delta_p()


class TestFOne:
    def test_classical(self):
        assert Classical(3, 2).f_one() == 12  # nu(9)

    def test_supercuspidal_odd_conductor(self):
        tf = make_sc(3, which=1)  # ramified, c(sigma) = 3
        assert tf.f_one() == (1 - Fraction(1, 9)) * 3 ** (tf.c0 + 1)

    def test_supercuspidal_even_conductor(self):
        tf = make_sc(3, which=0)  # unramified, c(sigma) = 2
        assert tf.f_one() == (1 - Fraction(1, 3)) * 3**tf.c0

    def test_p2_d3(self):
        tf = make_sc(2, which=3)
        assert tf.f_one() == (1 - Fraction(1, 4)) * 2 ** (tf.c0 + 2)

    def test_nelson_vs_volume_identity(self):
        # nu(p^c) - 2 nu(p^{c-1}) + nu(p^{c-2})
        for p, c in ((3, 3), (5, 4), (2, 3)):
            tf = NelsonEq(p, c)
            direct = nu(p**c) - 2 * nu(p ** (c - 1)) + nu(p ** (c - 2))
            assert tf.f_one() == direct


class TestDeltaP:
    def test_ps_formula(self):
        # nu(p^{c(chi)})/(1 - 1/p); no non-quadratic chi exists mod 3, so
        # the smallest constructible cases are mod 9 and mod 5
        assert make_ps(3, 2).delta_p() == Fraction(nu(9), 1) / (1 - Fraction(1, 3))
        assert make_ps(5, 1).delta_p() == Fraction(nu(5), 1) / (1 - Fraction(1, 5))

    def test_nelson_example(self):
        assert NelsonEq(5, 3).delta_p() == 120  # 125 (1 - 1/25)

    def test_sc_example(self):
        assert make_sc(3, which=0).delta_p() == 3  # p^{c0}

    def test_sc_table(self):
        assert make_sc(3, which=1).delta_p() == nu(3**2)  # nu(p^{c0+1})
        assert make_sc(2, which=3).delta_p() == nu(2 ** (4 + 2))

    def test_classical_equals_f_one(self):
        for p, c in ((3, 0), (3, 2), (2, 3)):
            tf = Classical(p, c)
            assert tf.delta_p() == tf.f_one()

    def test_newform_projector_envelope(self):
        # (1/6) f(1) <= delta_p <= 2 f(1)
        fams = [make_ps(3, 2), make_sc(3, 0), make_sc(3, 1), NelsonEq(3, 3)]
        fams.append(SupercuspidalNbhd(make_sc(3, 0, cxi=2).xi, 1))
        for tf in fams:
            assert tf.f_one() / 6 <= tf.delta_p() <= 2 * tf.f_one()

    def test_nbhd_is_index_times_base(self):
        tf = SupercuspidalNbhd(make_sc(3, 0, cxi=2).xi, 1)
        assert tf.delta_p() == tf.index() * zeta_p(3) * tf.base.f_one()


class TestLevels:
    def test_level_exponents(self):
        assert Classical(3, 2).level_exponent() == 2
        assert make_ps(3, 2).level_exponent() == 4
        assert make_sc(3, 0).level_exponent() == 2
        assert make_sc(3, 1).level_exponent() == 3
        assert NelsonEq(3, 4).level_exponent() == 4

    def test_f_one_below_index_of_level(self):
        for tf in (Classical(3, 2), make_ps(3, 2), make_sc(3, 0), make_sc(3, 1),
                   NelsonEq(3, 3)):
            assert tf.f_one() <= nu(tf.p ** tf.level_exponent())


class TestConductors:
    def test_closed_table(self):
        assert Classical(3, 2).k_p() == 2
        assert make_ps(3, 2).k_p() == 2
        assert make_sc(3, 0).k_p() == 1  # d = 0: c(xi)
        assert make_sc(3, 1).k_p() == 2  # d = 1: c(xi)/2 + 1
        assert make_sc(2, 3).k_p() == 4 + 2  # d = 3: c(xi)/2 + 2
        assert NelsonEq(3, 3).k_p() == 2

    def test_nbhd_formula(self):
        base = make_sc(3, 0, cxi=2)
        for n in (0, 1):
            tf = SupercuspidalNbhd(base.xi, n)
            assert tf.k_p() == base.c0 + 0 - 0 + n

    @pytest.mark.parametrize(
        "tf",
        [
            Classical(3, 0),
            Classical(3, 1),
            Classical(2, 2),
            NelsonEq(3, 3),
            NelsonEq(2, 3),
        ],
        ids=str,
    )
    def test_scan_matches_closed(self, tf):
        assert geometric_conductor_scan(tf, tf.k_p() + 2) == tf.k_p()

    def test_scan_sc_and_nbhd(self):
        tf = make_sc(3, 0, cxi=2)
        assert geometric_conductor_scan(tf, tf.k_p() + 2) == tf.k_p()
        nb = SupercuspidalNbhd(tf.xi, 1)
        assert geometric_conductor_scan(nb, nb.k_p() + 2) == nb.k_p()


class TestLocalL:
    def test_three_cases(self):
        assert abs(local_L_value(ConductorOne(), 3) - 0.75) < 1e-15
        assert abs(local_L_value(ConductorGeqTwo(), 5) - 0.8) < 1e-15
        import math

        v = local_L_value(UnramifiedPS(math.pi / 2), 7)
        z = -1.0  # e^{2 i theta}
        want = (1 - 7**-2) / ((1 - z / 7) * (1 - 1 / 7) * (1 - 1 / (z * 7)))
        assert abs(v - want) < 1e-14

    def test_complementary_series(self):
        import math

        tau = 0.25
        v = local_L_value(UnramifiedPS(1j * tau * math.log(3)), 3)
        assert v > 0


class TestCvF:
    def test_holds_for_projector_families(self):
        for tf in (Classical(3, 2), make_ps(3, 2), make_sc(3, 0), make_sc(3, 1)):
            rep = cvf_report(tf)
            assert rep.holds and rep.ratio >= Fraction(1, 2)

    def test_fails_for_fixed_conductor(self):
        rep = cvf_report(NelsonEq(5, 3))
        assert not rep.holds
        assert rep.ratio < Fraction(1, 2)


def test_twist_minimal_conductor_table():
    assert twist_minimal_conductor(make_sc(3, 0).xi) == 1
    assert twist_minimal_conductor(make_sc(2, 0).xi) == 4  # p=2 d=0: c-1
    assert twist_minimal_conductor(make_sc(2, 1).xi) == 7  # p=2 d=2: c-1
    assert twist_minimal_conductor(make_sc(2, 3).xi) == 8  # d=3: c
