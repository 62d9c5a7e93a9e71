import itertools
from fractions import Fraction

import pytest

from genkl.padic import DirichletCharacter, enumerate_dirichlet
from genkl.quadext import standard_extensions, unit_group
from genkl.extchars import (
    BaseRestriction,
    ExtCharacter,
    compose_with_norm,
    c_psi_E,
    enumerate_xi,
    eta_restriction,
    is_regular,
    is_twist_minimal,
    neighborhood,
    neighborhood_classes,
    neighborhood_index,
    postnikov_linearize,
    sigma_conductor,
)


def all_group_chars(ext, m):
    G = unit_group(ext, m)
    for exps in itertools.product(*(range(o) for o in G.orders)):
        yield ExtCharacter(ext, G, exps, Fraction(0))


class TestConductor:
    @pytest.mark.parametrize("p,m", [(3, 2), (5, 2), (2, 3)])
    def test_direct_scan_matches(self, p, m):
        # conductor recomputed by triviality scan over U_E(j) layer sets
        for ext in standard_extensions(p)[:2]:
            G = unit_group(ext, m)
            for xi in list(all_group_chars(ext, m))[:40]:
                c = xi.conductor()
                for j in range(0, G.m + 1):
                    layer = G.layer_elements(j)
                    trivial = all(xi.unit_phase(u) == 0 for u in layer)
                    assert trivial == (j >= c)

    def test_enumerate_reports_exact_conductor(self, unram3):
        restr = eta_restriction(unram3)
        for c in (1, 2):
            for xi in enumerate_xi(unram3, c, restr):
                assert xi.conductor() == c
                assert abs(xi((1, 0)) - 1) < 1e-15  # xi(1) = 1


class TestEnumerate:
    def test_unram3_c1_count(self, unram3):
        restr = eta_restriction(unram3)
        assert len(enumerate_xi(unram3, 1, restr)) == 3
        assert len(enumerate_xi(unram3, 1, restr, regular_only=True)) == 2

    def test_ramified_odd_conductor_empty(self):
        # no character of E^x trivial on Z_p^x units with odd conductor
        for p in (3, 5):
            for ext in standard_extensions(p)[1:]:
                triv = BaseRestriction(DirichletCharacter.trivial(p), Fraction(0))
                for c in (1, 3):
                    assert enumerate_xi(ext, c, triv) == []

    def test_restriction_is_eta(self, ram3):
        restr = eta_restriction(ram3)
        for xi in enumerate_xi(ram3, 2, restr):
            chi = xi.restrict_to_base_units()
            prim = chi.restrict_to_conductor()
            want = restr.chi.restrict_to_conductor()
            assert prim == want
            assert xi.base_phase_at(3) == restr.at_p_phase

    def test_galois_norm_compatibility(self, xi_unram3_c1, xi_ram3_c2):
        # xi(u) xi(u^sigma) = xi(Nm u) with Nm u embedded in the base
        for xi in (xi_unram3_c1, xi_ram3_c2):
            G = xi.group
            for u in list(G.elements())[:60]:
                lhs = xi.unit_phase(u) + xi.unit_phase(xi.ext.conj(u, G.pk))
                nrm = xi.ext.norm(u, G.pk)
                rhs = xi.unit_phase(G.embed_base_unit(nrm))
                assert (lhs - rhs) % 1 == 0


class TestRegular:
    def test_norm_compositions_not_regular(self, unram3):
        G = unit_group(unram3, 1)
        for chi in enumerate_dirichlet(3, 1):
            xi = compose_with_norm(chi, unram3, G)
            assert not is_regular(xi)

    def test_trivial_not_regular(self, unram3):
        G = unit_group(unram3, 1)
        triv = ExtCharacter(unram3, G, tuple(0 for _ in G.orders), Fraction(0))
        assert not is_regular(triv)

    def test_norm_kernel_character_regular(self, xi_unram3_c1):
        assert is_regular(xi_unram3_c1)


class TestSigmaConductor:
    def test_table(self, unram3, ram3):
        ru, rr = eta_restriction(unram3), eta_restriction(ram3)
        assert sigma_conductor(enumerate_xi(unram3, 1, ru, regular_only=True)[0]) == 2
        assert sigma_conductor(enumerate_xi(ram3, 2, rr, regular_only=True)[0]) == 3

    def test_p2_d3_row(self):
        ext = standard_extensions(2)[3]
        xi = enumerate_xi(ext, 8, eta_restriction(ext), regular_only=True)[0]
        assert sigma_conductor(xi) == 11

    def test_requires_regular(self, unram3):
        G = unit_group(unram3, 1)
        triv = ExtCharacter(unram3, G, tuple(0 for _ in G.orders), Fraction(0))
        with pytest.raises(ValueError):
            sigma_conductor(triv)


class TestTwistMinimal:
    def test_p_odd_trivial_central_always(self):
        for p in (3, 5):
            for ext in standard_extensions(p):
                restr = eta_restriction(ext)
                for c in ([1, 2] if ext.e == 1 else [2]):
                    for xi in enumerate_xi(ext, c, restr, regular_only=True):
                        assert is_twist_minimal(xi)

    def test_p2_parity_criterion(self):
        # twist-minimal iff c(sigma) = 2 or c(sigma) odd
        for ext in standard_extensions(2):
            restr = eta_restriction(ext)
            cs = [3, 5] if ext.e == 1 else ([4, 8] if ext.d == 2 else [8])
            for c in cs:
                for xi in enumerate_xi(ext, c, restr, regular_only=True)[:2]:
                    csig = sigma_conductor(xi)
                    assert is_twist_minimal(xi) == (csig == 2 or csig % 2 == 1)

    def test_ramified_twist_minimal_has_odd_valuation(self, xi_ram3_c2):
        # alpha of a twist-minimal character over a ramified extension is
        # a minimal element: odd valuation
        assert is_twist_minimal(xi_ram3_c2)
        pd = postnikov_linearize(xi_ram3_c2, 1)
        assert pd.v_E() % 2 == 1

    def test_explicit_twist_lowers(self, xi_unram3_c1):
        # xi * chi_E with c(chi_E) > c(xi) is not twist-minimal
        chi = next(
            c for c in enumerate_dirichlet(3, 2) if c.conductor_exponent() == 2
        )
        big = xi_unram3_c1.at_precision(2)
        twisted = big.mul(compose_with_norm(chi, big.ext, big.group))
        assert twisted.conductor() == 2
        assert not is_twist_minimal(twisted)


class TestNeighborhood:
    def test_counts_unramified(self, unram3):
        restr = eta_restriction(unram3)
        xi = enumerate_xi(unram3, 2, restr, regular_only=True)[0]
        q = 3
        assert len(neighborhood(xi, 0)) == 1
        for ell in (1,):
            assert len(neighborhood(xi, ell)) == q**ell * (q + 1) // q

    def test_counts_ramified(self, xi_ram3_c2):
        q = 3
        for ell in (0, 1):  # radii ell * e
            assert len(neighborhood(xi_ram3_c2, ell * 2)) == 2 * q**ell

    def test_index(self, xi_ram3_c2):
        assert neighborhood_index(xi_ram3_c2, 2, 0) == 3

    def test_members_share_restriction_and_ball(self, xi_unram3_c1):
        xi = xi_unram3_c1.at_precision(2)
        for xi1 in neighborhood(xi, 1):
            diff = xi1.mul(xi.inverse())
            assert diff.conductor() <= 1
            assert xi1.restrict_to_base_units() == xi.restrict_to_base_units()
            assert xi1.base_phase_at(3) == xi.base_phase_at(3)

    def test_closure_and_equal_class_sizes(self, xi_ram3_c2):
        # xi[n] is closed under ~_i and splits into [xi[n]:xi[i]] classes
        # of size |xi[i]|
        xi = xi_ram3_c2
        n, i = 2, 0
        full = neighborhood(xi, n)
        reps = neighborhood_classes(xi, n, i)
        small = neighborhood(xi, i)
        assert len(full) == len(reps) * len(small)
        keys = set()
        for xi1 in full:
            members = frozenset(
                tuple(x2.exps) for x2 in neighborhood(xi1, i)
            )
            keys.add(members)
            # closure: every ~_i-equivalent member is in xi[n]
            full_keys = {tuple(x.exps) for x in full}
            assert all(k in full_keys for k in members)
        assert len(keys) == len(reps)

    def test_classes_partition(self, xi_ram3_c2):
        reps = neighborhood_classes(xi_ram3_c2, 2, 0)
        full = neighborhood(xi_ram3_c2, 2)
        # classes of equal size partitioning xi[n]
        assert len(full) % len(reps) == 0
        assert len(full) // len(reps) == len(neighborhood(xi_ram3_c2, 0))


class TestPostnikov:
    def test_trivial_gives_zero(self, unram3):
        G = unit_group(unram3, 2)
        triv = ExtCharacter(unram3, G, tuple(0 for _ in G.orders), Fraction(0))
        assert postnikov_linearize(triv, 1).x_pair == (0, 0)

    @pytest.mark.parametrize("p", [3, 5])
    def test_valuation_and_consistency(self, p):
        # v_E(alpha) = -c(xi) + c(psi_E); identity exhaustive at desk scale
        for ext in standard_extensions(p):
            restr = eta_restriction(ext)
            for c in ([1, 2] if ext.e == 1 else [2]):
                if p ** (2 * c) > 10**6:
                    continue
                for xi in enumerate_xi(ext, c, restr, regular_only=True)[:2]:
                    i = -(-c // 2)
                    pd = postnikov_linearize(xi, i)
                    assert pd.v_E() == -c + c_psi_E(ext)

    def test_unique_class(self, unram3):
        restr = eta_restriction(unram3)
        xi = enumerate_xi(unram3, 2, restr, regular_only=True)[0]
        pd = postnikov_linearize(xi, 1)
        assert pd.v_E() == -2

    def test_regime_guard(self, xi_unram3_c1):
        with pytest.raises(ValueError):
            postnikov_linearize(xi_unram3_c1, 0)


class TestValueIdentity:
    def test_equal_across_enumerations(self, ram3):
        restr = eta_restriction(ram3)
        first, second = enumerate_xi(ram3, 2, restr), enumerate_xi(ram3, 2, restr)
        assert all(a is not b for a, b in zip(first, second))
        assert first == second
        assert [hash(a) for a in first] == [hash(b) for b in second]
        assert len(set(first)) == len(first)

    def test_uniformizer_phase_distinguishes(self, xi_ram3_c2):
        xi = xi_ram3_c2
        twin = ExtCharacter(xi.ext, xi.group, xi.exps, xi.unif_phase + Fraction(1, 2))
        assert twin != xi
        assert twin == ExtCharacter(xi.ext, xi.group, xi.exps, twin.unif_phase)

    def test_neighborhood_classes_shared_and_immutable(self, xi_ram3_c2):
        xi = xi_ram3_c2
        copy = ExtCharacter(xi.ext, xi.group, xi.exps, xi.unif_phase)
        reps = neighborhood_classes(xi, 2, 0)
        assert isinstance(reps, tuple)
        assert neighborhood_classes(copy, 2, 0) is reps
