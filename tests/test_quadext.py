import math
import random

import pytest

from genkl.padic import CapacityError, valuation
from genkl.quadext import (
    EXCEEDS_PRECISION,
    QuadExtension,
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
        els = list(G.dlog_map)
        for _ in range(150):
            x, y = rng.choice(els), rng.choice(els)
            z = unram3.mul(x, y, G.pk)
            want = tuple(
                (a + b) % o for a, b, o in zip(G.dlog(x), G.dlog(y), G.orders)
            )
            assert G.dlog(z) == want

    def test_quotient_layer_odd_m(self, ram3):
        # (O_E/p_E^3)^x: order 18 = q^3 (1 - 1/q) with q = 3
        G = unit_group(ram3, 3)
        assert G.order == 18

    def test_capacity(self, unram3):
        with pytest.raises(CapacityError):
            unit_group(unram3, 9)


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
