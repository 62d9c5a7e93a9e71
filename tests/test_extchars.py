import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from genkl.padic import DirichletCharacter, dlog_rows, e, enumerate_dirichlet, unit_group_zpk
from genkl.quadext import standard_extensions, unit_group
from genkl.extchars import (
    BaseRestriction,
    ExtCharacter,
    PostnikovDatum,
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
    seed_conductors,
    sigma_conductor,
)
from genkl.extchars import _conductors, _filtration_elements, _scan, _unif_phases
from genkl.engine import xi_table


def all_group_chars(ext, m):
    G = unit_group(ext, m)
    for exps in itertools.product(*(range(o) for o in G.orders)):
        yield ExtCharacter(ext, G, exps, Fraction(0))


def unit_pairs(G):
    """Every unit pair mod p^M, in the order of G.units_view."""
    return [divmod(f, G.pk) for f in G.units_view[0].tolist()]


def fraction_phase(exps, dlog, orders) -> Fraction:
    """The phase sum(x_i d_i / o_i) mod 1 in exact fractions."""
    return sum((Fraction(x * d, o) for x, d, o in zip(exps, dlog, orders)), Fraction(0)) % 1


class TestPhaseFormat:
    """Integer phases mod L against the fraction sum, and the values they
    give against e() of the reduced fraction."""

    @pytest.mark.parametrize("p,which,m", [(3, 0, 2), (3, 1, 3), (5, 2, 1), (2, 0, 3), (2, 3, 3)])
    def test_unit_phase(self, p, which, m):
        ext = standard_extensions(p)[which]
        G = unit_group(ext, m)
        if ext.e == 2:
            assert G._quotient_layer  # odd m: classes mod the extra layer
        for xi in all_group_chars(ext, m):
            for u in unit_pairs(G):
                want = fraction_phase(xi.exps, G.dlog(u), G.orders)
                got = xi.unit_phase(u)
                assert type(got) is int and 0 <= got < G.L
                assert Fraction(got, G.L) == want
                assert xi(u) == e(want.numerator, want.denominator)

    @pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (2, 5), (3, 3), (5, 2)])
    def test_dirichlet_phase(self, p, k):
        gens, orders = unit_group_zpk(p, k)
        units, rows = dlog_rows(p, k)
        assert sorted(units.tolist()) == [n for n in range(p**k) if n % p]
        for n in units.tolist():
            assert math.prod(pow(g, d, p**k) for g, d in zip(gens, rows[n].tolist())) % p**k == n
        for chi in enumerate_dirichlet(p, k):
            for n in range(p**k):
                got = chi.phase(n)
                if n % p == 0:
                    assert got is None and chi(n) == 0
                    continue
                want = fraction_phase(chi.exps, rows[n].tolist(), orders)
                assert type(got) is int and 0 <= got < chi.L
                assert Fraction(got, chi.L) == want
                assert chi(n) == e(want.numerator, want.denominator)

    def test_compose_with_norm_unif_phase(self):
        # Nm(pi_E) = 10 = 5 * 2 on x^2 - 10, so the uniformizer phase is chi(2)
        ext = standard_extensions(5)[2]
        assert (ext.e, ext.B) == (2, 10)
        G = unit_group(ext, 2)
        orders, rows = unit_group_zpk(5, 1)[1], dlog_rows(5, 1)[1]
        for chi in enumerate_dirichlet(5, 1):
            want = fraction_phase(chi.exps, rows[2].tolist(), orders)
            assert compose_with_norm(chi, ext, G).unif_phase == want
        # 2 generates (Z/5)^*, so the order-4 character takes 2 to e(1/4)
        chi = DirichletCharacter(5, 1, (1,))
        assert compose_with_norm(chi, ext, G).unif_phase == Fraction(1, 4)


class TestConductor:
    @pytest.mark.parametrize("p,m", [(3, 2), (5, 2), (2, 3)])
    def test_direct_scan_matches(self, p, m):
        # conductor recomputed by triviality scan over U_E(j) layer sets: a
        # class meets U_E(j) iff one of its units has depth >= j
        for ext in standard_extensions(p)[:2]:
            G = unit_group(ext, m)
            _, _, depth = G.units_view
            for xi in list(all_group_chars(ext, m))[:40]:
                c = xi.conductor()
                for j in range(0, G.m + 1):
                    layer = [u for u, d in zip(unit_pairs(G), depth.tolist()) if d >= j]
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

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_equals_per_candidate_restriction(self, p):
        # the restriction test built once per call keeps the characters, in
        # the same order, whose restriction to Z_p^x is eta's unit part
        from genkl.extchars import _unif_phases

        for ext in standard_extensions(p):
            restr = eta_restriction(ext)
            prim = restr.chi.restrict_to_conductor()
            for c in seed_conductors(ext):
                G = unit_group(ext, c)
                want = [
                    ExtCharacter(ext, G, probe.exps, unif)
                    for probe in all_group_chars(ext, c)
                    if probe.conductor() == c
                    and probe.restrict_to_base_units().restrict_to_conductor() == prim
                    for unif in _unif_phases(ext, G, probe.exps, restr.at_p_phase)
                ]
                assert want
                assert enumerate_xi(ext, c, restr) == want
                regular = [xi for xi in want if is_regular(xi)]
                assert enumerate_xi(ext, c, restr, regular_only=True) == regular

    def test_galois_norm_compatibility(self, xi_unram3_c1, xi_ram3_c2):
        # xi(u) xi(u^sigma) = xi(Nm u) with Nm u embedded in the base
        for xi in (xi_unram3_c1, xi_ram3_c2):
            G = xi.group
            for u in unit_pairs(G)[:60]:
                lhs = xi.unit_phase(u) + xi.unit_phase(xi.ext.conj(u, G.pk))
                nrm = xi.ext.norm(u, G.pk)
                rhs = xi.unit_phase(G.embed_base_unit(nrm))
                assert (lhs - rhs) % G.L == 0


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

    @pytest.mark.parametrize("p,which", [(p, w) for p in (2, 3, 5) for w in range(len(standard_extensions(p)))])
    def test_index_is_the_ratio_of_sizes(self, p, which):
        ext = standard_extensions(p)[which]
        xi = enumerate_xi(ext, seed_conductors(ext)[-1], eta_restriction(ext), regular_only=True)[0]
        top = max(xi.conductor(), xi.group.m)
        sizes = [len(neighborhood(xi, n)) for n in range(top + 1)]
        for n in range(top + 1):
            for a in range(n + 1):
                assert neighborhood_index(xi, n, a) == sizes[n] // sizes[a]

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

    def test_one_evaluation_per_filtration_element(self, monkeypatch):
        ext = standard_extensions(2)[0]
        xi = enumerate_xi(ext, 5, eta_restriction(ext), regular_only=True)[0]
        xi.conductor()  # memoized before counting
        calls = []
        unit_phase = ExtCharacter.unit_phase

        def counted(self, pair):
            calls.append(pair)
            return unit_phase(self, pair)

        monkeypatch.setattr(ExtCharacter, "unit_phase", counted)
        pd = postnikov_linearize.__wrapped__(xi, 3)
        assert pd == PostnikovDatum((1, 2), 5, 3, ext)
        assert len(calls) <= len(_filtration_elements(ext, 3, 5)) + 2

    def test_empty_filtration_takes_the_least_solution(self):
        # c = i = 1 on the unramified Q_2: p_E^1 / p_E^1 is empty, so every
        # x of the target valuation solves, and the least pair is returned
        ext = standard_extensions(2)[0]
        xi = ExtCharacter(ext, unit_group(ext, 1), (1,), Fraction(1, 2))
        assert xi.conductor() == 1
        assert _filtration_elements(ext, 1, 1).shape == (0, 2)
        for i in (1, 2):
            assert postnikov_linearize(xi, i) == PostnikovDatum((0, 1), 1, i, ext)


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


# Every standard extension at p = 2, 3, 5 with every m up to its largest
# seed conductor; the ramified ones at odd m are quotient-layer groups.
GROUPS = [
    (p, which, m)
    for p in (2, 3, 5)
    for which, ext in enumerate(standard_extensions(p))
    for m in range(1, max(seed_conductors(ext)) + 1)
]


@functools.cache
def _class_table(G):
    """The dlog row and v_E(u - 1), capped at m, of every unit u: a class's
    depth is the largest over its units, the layer the conductor reads."""
    els = unit_pairs(G)
    dlog = np.array([G.dlog(u) for u in els], dtype=np.int64)
    depth = [min(G.ext.v_E(((a - 1) % G.pk, b), G.M), G.m) for a, b in els]
    return dlog.reshape(len(els), len(G.orders)), np.array(depth)


def old_conductor(xi):
    """The per-character conductor: one more than the deepest class where
    xi's phase is nonzero."""
    dlog, depth = _class_table(xi.group)
    nonzero = dlog @ np.array(xi._weights, dtype=np.int64) % xi.group.L != 0
    return int(depth[nonzero].max()) + 1 if nonzero.any() else 0


def old_scan(G, chi):
    """The per-candidate loop: (exps, conductor) for the characters of G
    in itertools.product order whose restriction to Z_p^x is chi."""
    prim = chi.restrict_to_conductor()
    if prim.modulus_exponent > G.M:
        return []
    chi = prim.extend(G.M)
    gens, _ = unit_group_zpk(G.ext.p, G.M)
    out = []
    for exps in itertools.product(*(range(o) for o in G.orders)):
        probe = ExtCharacter(G.ext, G, exps, Fraction(0))
        if all(
            Fraction(probe.unit_phase(G.embed_base_unit(g)), G.L) == Fraction(chi.phase(g), chi.L)
            for g in gens
        ):
            out.append((exps, old_conductor(probe)))
    return out


def old_enumerate_xi(ext, c, restr, regular_only=False):
    G = unit_group(ext, c)
    out = []
    for exps, cond in old_scan(G, restr.chi):
        if cond != c:
            continue
        for unif in _unif_phases(ext, G, exps, restr.at_p_phase):
            xi = ExtCharacter(ext, G, exps, unif)
            if not regular_only or is_regular(xi):
                out.append(xi)
    return out


def old_neighborhood(xi, n):
    G = xi.group
    return [
        xi.mul(ExtCharacter(xi.ext, G, exps, unif))
        for exps, cond in old_scan(G, DirichletCharacter.trivial(G.ext.p))
        if cond <= n
        for unif in _unif_phases(xi.ext, G, exps, Fraction(0))
    ]


def _triv(p):
    return BaseRestriction(DirichletCharacter.trivial(p), Fraction(0))


class TestBatchedScans:
    """The matrix-product scans against the per-character loops they
    replaced, on every group the seed conductors reach."""

    @pytest.mark.parametrize("p,which,m", GROUPS)
    def test_conductors(self, p, which, m):
        ext = standard_extensions(p)[which]
        G = unit_group(ext, m)
        chars = list(all_group_chars(ext, m))
        want = [old_conductor(xi) for xi in chars]
        assert [xi.conductor() for xi in chars] == want
        X = np.array([xi.exps for xi in chars], dtype=np.int64).reshape(len(chars), -1).T
        assert _conductors(G, X).tolist() == want
        exps, conds = _scan(G, DirichletCharacter.trivial(p))
        assert list(zip(map(tuple, exps.tolist()), conds.tolist())) == old_scan(
            G, DirichletCharacter.trivial(p)
        )

    @pytest.mark.parametrize("p,which,m", GROUPS)
    def test_enumerate_xi(self, p, which, m):
        ext = standard_extensions(p)[which]
        restrs = [_triv(p)] + ([eta_restriction(ext)] if m in seed_conductors(ext) else [])
        for restr in restrs:
            for regular_only in (False, True):
                got = enumerate_xi(ext, m, restr, regular_only)
                want = old_enumerate_xi(ext, m, restr, regular_only)
                assert got == want
                assert [xi.unif_phase for xi in got] == [xi.unif_phase for xi in want]

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_neighborhood(self, p):
        for ext in standard_extensions(p):
            c = seed_conductors(ext)[-1]
            xi = enumerate_xi(ext, c, eta_restriction(ext), regular_only=True)[0]
            for n in range(0, max(xi.conductor(), xi.group.m) + 1):
                got, want = neighborhood(xi, n), old_neighborhood(xi, n)
                assert got == want
                assert [x.unif_phase for x in got] == [x.unif_phase for x in want]

    @pytest.mark.parametrize("p,which,m", GROUPS)
    def test_xi_table(self, p, which, m):
        # the trivial character, all ones, the last one and one per generator
        # against xi evaluated unit by unit
        ext = standard_extensions(p)[which]
        G = unit_group(ext, m)
        r = len(G.orders)
        exps = [(0,) * r, (1,) * r, tuple(o - 1 for o in G.orders)]
        exps += [tuple(int(i == j) for i in range(r)) for j in range(r)]
        for x in exps:
            xi = ExtCharacter(ext, G, x, Fraction(0))
            want = np.zeros((G.pk, G.pk), dtype=np.complex128)
            for u in ext.units(G.M):
                want[u] = xi(u)
            assert np.array_equal(xi_table(xi), want)

    def test_groups_include_quotient_layers(self):
        quotient = [
            (p, which, m)
            for p, which, m in GROUPS
            if unit_group(standard_extensions(p)[which], m)._quotient_layer
        ]
        assert len(quotient) >= 2
