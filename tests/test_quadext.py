import math
import random
import tracemalloc

import numpy as np
import pytest

from genkl.padic import CapacityError, phi_pk, unit_group_zpk, valuation
from genkl.quadext import (
    EXCEEDS_PRECISION,
    QuadExtension,
    UnitGroup,
    _smith_normal_form,
    eta_char,
    norm_fiber,
    norm_fiber_brute,
    standard_extensions,
    unit_group,
)


class TestStandardExtensions:
    def test_odd_p_shapes(self):
        for p in (3, 5, 7, 11):
            exts = standard_extensions(p)
            assert len(exts) == 3
            unram, ram1, ram2 = exts
            assert (unram.e, unram.d) == (1, 0) and unram.A == 0
            for ram in (ram1, ram2):
                assert (ram.e, ram.d) == (2, 1)
                assert ram.A == 0 and valuation(ram.B, p) == 1

    def test_p3_unramified_is_sqrt2(self):
        # least positive non-residue mod 3 is 2, so B = -2
        assert standard_extensions(3)[0].B == -2

    def test_p2_shapes(self):
        exts = standard_extensions(2)
        assert (exts[0].A, exts[0].B) == (1, 1) and exts[0].d == 0
        assert [e.d for e in exts] == [0, 2, 2, 3, 3, 3, 3]
        for ext in exts[3:]:
            assert ext.A == 0 and valuation(ext.B, 2) == 1
        # seven distinct isomorphism classes: pairwise different disc classes
        discs = [e.disc for e in exts]
        for i in range(7):
            for j in range(i + 1, 7):
                ratio_sq = discs[i] * discs[j]
                from genkl.quadext import _is_square_qp

                assert not _is_square_qp(ratio_sq, 2)

    @pytest.mark.parametrize("p", [-3, 0, 4, 6, 9, 15])
    def test_non_prime_rejected(self, p):
        with pytest.raises(ValueError, match="not a prime"):
            QuadExtension(p, 0, -2)

    def test_reducible_rejected(self):
        with pytest.raises(ValueError):
            QuadExtension(3, 0, -1)  # x^2 - 1
        with pytest.raises(ValueError):
            QuadExtension(5, 0, -4)


class TestValuationAndArithmetic:
    def test_examples(self, unram3, ram3):
        assert unram3.v_E((1, 0), 2) == 0
        assert ram3.v_E((0, 1), 2) == 1  # v_E(alpha0) = e - 1
        assert unram3.v_E((3, 3), 2) == 1
        assert unram3.v_E((0, 0), 2) == EXCEEDS_PRECISION

    def test_norm_trace_formulas(self, unram3, ram3):
        for ext in (unram3, ram3):
            pk = 81
            for a in range(0, pk, 7):
                for b in range(0, pk, 5):
                    assert ext.norm((a, b), pk) == (a * a - ext.A * a * b + ext.B * b * b) % pk
                    assert ext.trace((a, b), pk) == (2 * a - ext.A * b) % pk

    def test_norm_multiplicative_trace_additive(self):
        rng = random.Random(7)
        for p in (3, 2, 5):
            for ext in standard_extensions(p):
                k = 3
                pk = p**k
                for _ in range(50):
                    u = (rng.randrange(pk), rng.randrange(pk))
                    v = (rng.randrange(pk), rng.randrange(pk))
                    uv = ext.mul(u, v, pk)
                    assert ext.norm(uv, pk) == ext.norm(u, pk) * ext.norm(v, pk) % pk
                    u_plus_v = ((u[0] + v[0]) % pk, (u[1] + v[1]) % pk)
                    assert ext.trace(u_plus_v, pk) == (ext.trace(u, pk) + ext.trace(v, pk)) % pk
                    assert ext.norm(u, pk) == ext.mul(u, ext.conj(u, pk), pk)[0]
                    assert ext.mul(u, ext.conj(u, pk), pk)[1] == 0

    def test_vE_additive_on_products(self, unram3, ram3):
        rng = random.Random(3)
        for ext in (unram3, ram3):
            k = 4
            pk = 3**k
            for _ in range(200):
                u = (rng.randrange(pk), rng.randrange(pk))
                v = (rng.randrange(pk), rng.randrange(pk))
                vu, vv = ext.v_E(u, k), ext.v_E(v, k)
                if vu is EXCEEDS_PRECISION or vv is EXCEEDS_PRECISION:
                    continue
                if vu + vv < ext.e * k - (ext.e - 1):
                    assert ext.v_E(ext.mul(u, v, pk), k) == vu + vv

    def test_inverse(self, unram3):
        u = (2, 1)
        assert unram3.mul(u, unram3.inv(u, 27), 27) == (1, 0)


class TestEta:
    def test_unramified_is_parity_of_valuation(self):
        for p in (2, 3, 5, 7):
            ext = standard_extensions(p)[0]
            assert eta_char(ext, p) == -1
            assert eta_char(ext, p * p) == 1
            assert eta_char(ext, 1) == 1
            for u in range(1, p):
                assert eta_char(ext, u) == 1

    def test_norms_in_kernel(self):
        rng = random.Random(11)
        for p in (2, 3, 5):
            for ext in standard_extensions(p):
                k = 3
                pk = p**k
                for _ in range(30):
                    u = (rng.randrange(pk), rng.randrange(pk))
                    if not ext.is_unit(u):
                        continue
                    # lift the residue norm to an integer in the unit class
                    nrm = ext.norm(u, pk)
                    assert eta_char(ext, nrm + (pk if nrm == 0 else 0)) == 1

    def test_nontrivial_and_homomorphic(self):
        from fractions import Fraction

        for p in (2, 3, 5):
            for ext in standard_extensions(p):
                vals = [1, 2, 3, 5, 7, p, p * 3, Fraction(1, p)]
                assert any(eta_char(ext, x) == -1 for x in vals)
                for x in vals:
                    for y in vals:
                        assert eta_char(ext, Fraction(x) * Fraction(y)) == eta_char(
                            ext, x
                        ) * eta_char(ext, y)


class TestUnitGroup:
    def test_orders(self, unram3, ram3):
        assert unit_group(unram3, 1).order == 8
        assert unit_group(unram3, 1).orders == [8]  # F_9^x cyclic
        assert unit_group(unram3, 2).order == 72
        assert unit_group(ram3, 2).order == 6

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_order_formula_vs_count(self, p):
        for ext in standard_extensions(p):
            for m in (1, 2, 3, 4):
                G = unit_group(ext, m)
                import math as _m

                assert G.order == _m.prod(G.orders) if G.orders else G.order == 1

    def test_dlog_is_homomorphism(self, unram3):
        G = unit_group(unram3, 2)
        rng = random.Random(0)
        els = [divmod(int(f), G.pk) for f in G.units_view[0]]
        for _ in range(150):
            x, y = rng.choice(els), rng.choice(els)
            z = unram3.mul(x, y, G.pk)
            want = tuple(
                (a + b) % o for a, b, o in zip(G.dlog(x), G.dlog(y), G.orders)
            )
            assert G.dlog(z) == want

    def test_dlog_refuses_non_units(self, unram3, ram3):
        for ext, x in ((unram3, (3, 6)), (ram3, (0, 1))):
            with pytest.raises(ValueError):
                unit_group(ext, 2).dlog(x)

    def test_quotient_layer_odd_m(self, ram3):
        # (O_E/p_E^3)^x: order 18 = q^3 (1 - 1/q) with q = 3
        G = unit_group(ram3, 3)
        assert G.order == 18

    def test_capacity(self, unram3):
        with pytest.raises(CapacityError):
            unit_group(unram3, 9)

    def test_capacity_counts_the_pairs_mod_p_to_the_M(self):
        # order 101^3 (1 - 1/101), but 101^4 pairs mod 101^2 to walk
        with pytest.raises(CapacityError):
            UnitGroup(QuadExtension(101, 0, 101), 3)

    def test_build_memory_is_the_dlog_arrays(self):
        # order 786432 on three generators: the dlog rows are 18.9 MB and
        # the flat-index rows 8.4 MB; a per-unit dict of tuples traced 450 MB
        tracemalloc.start()
        try:
            UnitGroup(standard_extensions(2)[0], 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 60 * 2**20

    @pytest.mark.parametrize("p, which, m", [(2, 0, 6), (2, 3, 7), (3, 0, 3), (3, 2, 5), (5, 1, 4)])
    def test_no_per_unit_python_containers(self, p, which, m):
        # the dlogs live in arrays; a dict or list over the units would
        # cost hundreds of bytes a unit
        G = UnitGroup(standard_extensions(p)[which], m)
        G.units_view  # cached into vars(G)
        big = [name for name, v in vars(G).items() if isinstance(v, (dict, list)) and len(v) >= G.order]
        assert not big
        for k in range(m + 1):
            zpk = unit_group_zpk(p, k)
            assert not [v for v in zpk if isinstance(v, (dict, list)) and len(v) >= phi_pk(p, k)]


def reference_unit_group(ext, m):
    """(O_E/p_E^m)^* built by walking every unit of ext.units, with no
    early exit: the raw dlog map as a dict of tuples, each canonical dlog
    a per-element tuple sum, and the units_view arrays from the sorted
    canonical map.  Returns (gens, orders, dlog_map, L, units_view)."""
    p, e = ext.p, ext.e
    M = -(-m // e)
    pk = p**M
    layer = [(1, t * p ** (M - 1) % pk) for t in range(p)] if e == 2 and m % 2 else [(1, 0)]

    def rep(x):
        return min(ext.mul(x, s, pk) for s in layer)

    dlog_raw = {rep((1 % pk, 0)): ()}
    raw_gens, rel_steps, rel_tails = [], [], []
    for cand in ext.units(M):
        cand = rep(cand)
        if cand in dlog_raw:
            continue
        r, x = 1, cand
        while x not in dlog_raw:
            x = rep(ext.mul(x, cand, pk))
            r += 1
        i = len(raw_gens)
        new = {}
        for h, vec in dlog_raw.items():
            padded = vec + (0,) * (i - len(vec))
            y = h
            for j in range(1, r):
                y = rep(ext.mul(y, cand, pk))
                new[y] = padded + (j,)
        for h, vec in dlog_raw.items():
            dlog_raw[h] = vec + (0,) * (i - len(vec))
        dlog_raw.update(new)
        raw_gens.append(cand)
        rel_steps.append(r)
        rel_tails.append(dlog_raw[x])
    s = len(raw_gens)
    dlog_raw = {h: vec + (0,) * (s - len(vec)) for h, vec in dlog_raw.items()}
    R = []
    for i in range(s):
        row = [0] * s
        row[i] = rel_steps[i]
        for j, t in enumerate(rel_tails[i]):
            row[j] -= t
        R.append(row)
    D, V, V_inv = _smith_normal_form(R)
    invariants = [D[i][i] for i in range(s)]
    keep = [i for i in range(s) if invariants[i] != 1]
    orders = [invariants[i] for i in keep]
    gens = []
    for j in keep:
        g = (1 % pk, 0)
        for i in range(s):
            g = rep(ext.mul(g, ext.pow(raw_gens[i], V_inv[j][i] % len(dlog_raw), pk), pk))
        gens.append(g)
    dlog_map = {
        h: tuple(sum(V[i][j] * vec[i] for i in range(s)) % invariants[j] for j in keep)
        for h, vec in dlog_raw.items()
    }
    L = math.lcm(*orders)
    # units_view: each unit's class rep found in the sorted canonical map
    a, b = np.divmod(np.arange(pk * pk, dtype=np.int64), pk)
    unit = (a % p != 0) | ((b % p != 0) & (e == 1))
    flat, a, b = np.flatnonzero(unit), a[unit], b[unit]
    shifts = np.array([t for _, t in layer])[:, None]
    rep_flat = (((a - ext.B * b * shifts) % pk) * pk + (b + (a - ext.A * b) * shifts) % pk).min(0)
    reps = sorted(dlog_map)
    dlog = np.array([dlog_map[u] for u in reps], dtype=np.int64).reshape(len(reps), len(orders))
    rows = np.searchsorted([x * pk + y for x, y in reps], rep_flat)
    weights = np.array([L // o for o in orders], dtype=np.int64)

    def val(x):  # v_p of residues mod p^M, M at 0
        return sum((x % p**j == 0).astype(np.int64) for j in range(1, M + 1))

    depth = np.minimum(np.minimum(e * val((a - 1) % pk), e * val(b) + e - 1), m)
    return gens, orders, dlog_map, L, (flat, dlog[rows] * weights, depth)


@pytest.mark.parametrize("p, m_max", [(2, 10), (3, 6), (5, 4)])
def test_unit_groups_equal_the_full_walk(p, m_max):
    for ext in standard_extensions(p):
        for m in range(1, m_max + 1):
            G = UnitGroup(ext, m)
            gens, orders, _, L, view = reference_unit_group(ext, m)
            assert (G.gens, G.orders, G.L) == (gens, orders, L), (ext.label(), m)
            for got, want in zip(G.units_view, view):
                assert got.dtype == np.int64 and np.array_equal(got, want), (ext.label(), m)


class TestNormFiber:
    def test_kernel_size_unramified(self, unram3):
        fib = list(norm_fiber(unram3, 1, 1))
        assert len(fib) == 4  # kernel of F_9^x -> F_3^x

    def test_nonunit_target_empty(self, unram3, ram3):
        assert list(norm_fiber(unram3, 2, 0)) == []
        assert list(norm_fiber(ram3, 2, 3)) == []

    def test_nonnorm_class_empty(self, ram3):
        # ramified: norms of units fill half the unit classes; 54 units
        # spread over the 3 norm classes
        sizes = {t: len(list(norm_fiber(ram3, 2, t))) for t in range(9) if t % 3}
        assert sorted(set(sizes.values())) == [0, 18]

    @pytest.mark.parametrize("p,k", [(3, 1), (3, 2), (3, 3), (2, 3), (2, 4), (5, 2), (7, 1)])
    def test_set_equal_to_brute(self, p, k):
        if p ** (2 * k) > 10**6:
            pytest.skip("beyond desk scale")
        for ext in standard_extensions(p):
            for t in range(p**k):
                got = set(norm_fiber(ext, k, t))
                assert got == norm_fiber_brute(ext, k, t), (ext.label(), k, t)
