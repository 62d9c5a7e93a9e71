import json
import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from genkl import engine, padic, petersson
from genkl.padic import BESSEL_X_CAP, CapacityError
from genkl.quadext import standard_extensions
from genkl.extchars import enumerate_xi, eta_restriction
from genkl.families import Supercuspidal
from genkl.engine import GlobalTestFunction
from genkl.petersson import (
    EigenData,
    ONE_DIMENSIONAL_WEIGHTS,
    _bessel_J_table,
    builtin_eigendata,
    delta_coeffs,
    eigenform_coeffs,
    ingest_eigendata,
    petersson_geometric,
    ratio_verify,
    write_eigen_cache,
)

RAMANUJAN_TAU = [1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920]


class TestEigenvalueOracles:
    def test_tau_values(self):
        assert delta_coeffs(10) == RAMANUJAN_TAU

    def test_tau_multiplicativity(self):
        tau = delta_coeffs(40)

        def t(n):
            return tau[n - 1]

        assert t(6) == t(2) * t(3)
        assert t(15) == t(3) * t(5)
        assert t(4) == t(2) ** 2 - 2**11  # Hecke recursion at p = 2

    def test_eigenform_leading_coefficients(self):
        # classical tables: a(2) for the unique normalized cusp forms
        known = {12: -24, 16: 216, 18: -528, 20: 456, 22: -288, 26: -48}
        for kappa, a2 in known.items():
            assert eigenform_coeffs(kappa, 4)[1] == a2

    def test_hecke_spot_check(self):
        for kappa in ONE_DIMENSIONAL_WEIGHTS:
            assert builtin_eigendata(kappa, 60).hecke_spot_check()

    def test_bad_weight_rejected(self):
        with pytest.raises(ValueError):
            eigenform_coeffs(14, 10)  # dim S_14 = 0


class TestCache:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "eigen.jsonl")
        data = builtin_eigendata(12, 25)
        write_eigen_cache(path, data)
        back = ingest_eigendata(path, 1, 12)
        assert back.lams == tuple(complex(x) for x in data.lams)
        assert back.source == "eta-product"

    def test_lambda_one_enforced(self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        with open(path, "w") as fh:
            fh.write(json.dumps({"level": 1, "weight": 12, "n": 1,
                                 "lambda_re": 2.0, "lambda_im": 0.0,
                                 "source": "x"}) + "\n")
        with pytest.raises(ValueError):
            ingest_eigendata(path, 1, 12)

    def test_hecke_relation_flags_corruption(self, tmp_path):
        path = str(tmp_path / "corrupt.jsonl")
        data = builtin_eigendata(12, 25)
        lams = list(data.lams)
        lams[5] += 0.25  # corrupt lambda(6)
        write_eigen_cache(path, EigenData(1, 12, tuple(lams)))
        with pytest.raises(ValueError):
            ingest_eigendata(path, 1, 12)

    def test_malformed_payload(self, tmp_path):
        path = str(tmp_path / "junk.jsonl")
        with open(path, "w") as fh:
            fh.write("{not json\n")
        with pytest.raises(ValueError):
            ingest_eigendata(path, 1, 12)

    @pytest.mark.parametrize("bad", [
        "[1, 2]",
        '"just a string"',
        {"level": 1, "weight": 12, "lambda_re": 1.0, "lambda_im": 0.0},
        {"level": 1, "weight": 12, "n": 2, "lambda_re": 1.0},
        {"level": 1, "weight": 12, "n": 2, "lambda_re": "x", "lambda_im": 0.0},
        {"level": 1, "weight": 12, "n": 2, "lambda_re": math.nan, "lambda_im": 0.0},
        {"level": 1, "weight": 12, "n": 2, "lambda_re": 0.0, "lambda_im": math.inf},
        {"level": 1, "weight": 12, "n": 2, "lambda_re": True, "lambda_im": 0.0},
        {"level": 1, "weight": 12, "n": 0, "lambda_re": 1.0, "lambda_im": 0.0},
        {"level": 1, "weight": 12, "n": 2.0, "lambda_re": 1.0, "lambda_im": 0.0},
        {"level": 1, "weight": 12, "n": "2", "lambda_re": 1.0, "lambda_im": 0.0},
    ], ids=["list", "string", "no-n", "no-lambda_im", "string-value", "nan",
            "infinity", "bool-value", "n-zero", "n-float", "n-string"])
    def test_unusable_record_names_its_line(self, tmp_path, bad):
        # a valid cache with one bad line appended: the bad line is the
        # tenth; NaN at lambda(2) would pass the Hecke spot check
        path = str(tmp_path / "bad.jsonl")
        write_eigen_cache(path, builtin_eigendata(12, 9))
        with open(path, "a") as fh:
            fh.write((bad if isinstance(bad, str) else json.dumps(bad)) + "\n")
        with pytest.raises(ValueError, match="line 10"):
            ingest_eigendata(path, 1, 12)

    def test_offline_never_touches_network(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ingest_eigendata(str(tmp_path / "missing.jsonl"), 1, 12)


class TestGeometric:
    def test_ratio_level1_spot(self):
        rep = ratio_verify([12], [(2, 1), (3, 1), (2, 2), (6, 1)], c_max=700)
        assert rep["max_deviation"] < 1e-9
        lam2 = -24 / 2**5.5
        entry = next(e for e in rep["entries"] if (e["m"], e["n"]) == (2, 1))
        assert entry["ratio"] == pytest.approx(lam2, abs=1e-9)

    def test_ratio_verify_matches_petersson_geometric(self):
        # the batched ratio and the one-pair route share the table builder
        # and the Kahan loop; they must agree far below the tolerance
        gtf = GlobalTestFunction(())
        pairs = [(2, 1), (3, 5), (4, 4), (7, 2)]
        for kappa in (12, 20):
            rep = ratio_verify([kappa], pairs, c_max=300)
            base = petersson_geometric(gtf, kappa, 1, 1, 300).value
            for entry in rep["entries"]:
                v = petersson_geometric(gtf, kappa, entry["m"], entry["n"], 300).value
                assert abs(entry["ratio"] - (v / base).real) < 1e-13

    def test_level_one_diagonal_values(self):
        import math

        gtf = GlobalTestFunction(())
        # P(1,1) is the harmonic weight of the single form: positive and
        # real.  At kappa = 12 the modulus-1 term is large (J_11 near its
        # transition region), so P(1,1) is well away from the plain
        # diagonal 11/(4 pi); by kappa = 26 the sum is tail-dominated.
        v12 = petersson_geometric(gtf, 12, 1, 1, 600).value
        assert v12.real > 0 and abs(v12.imag) < 1e-10
        v26 = petersson_geometric(gtf, 26, 1, 1, 600).value
        assert abs(v26.real * 4 * math.pi / 25 - 1) < 0.1

    def test_symmetry(self):
        gtf = GlobalTestFunction(())
        a = petersson_geometric(gtf, 12, 2, 5, 300).value
        b = petersson_geometric(gtf, 12, 5, 2, 300).value
        assert abs(a - b) < 1e-10

    def test_tail_convergence(self):
        gtf = GlobalTestFunction(())
        for m, n in ((1, 1), (7, 9)):
            a = petersson_geometric(gtf, 12, m, n, 500)
            b = petersson_geometric(gtf, 12, m, n, 1000)
            assert abs(a.value - b.value) < 1e-9
            assert a.tail_estimate < 1e-9

    def test_supercuspidal_reality_positivity(self):
        ext = standard_extensions(3)[0]
        xi = enumerate_xi(ext, 1, eta_restriction(ext), regular_only=True)[0]
        gtf = GlobalTestFunction((Supercuspidal(xi),))
        for m in (1, 2, 5):
            v = petersson_geometric(gtf, 12, m, m, 400).value
            assert abs(v.imag) < 1e-8
            assert v.real >= -1e-6

    def test_level_coprimality_guard(self):
        ext = standard_extensions(3)[0]
        xi = enumerate_xi(ext, 1, eta_restriction(ext), regular_only=True)[0]
        gtf = GlobalTestFunction((Supercuspidal(xi),))
        with pytest.raises(ValueError):
            petersson_geometric(gtf, 12, 3, 1, 100)

    def test_cmax_below_one_rejected(self):
        for c_max in (0, -5):
            with pytest.raises(ValueError, match="c_max"):
                ratio_verify([12], [(1, 2)], c_max=c_max)
            with pytest.raises(ValueError, match="c_max"):
                petersson_geometric(GlobalTestFunction(()), 12, 1, 2, c_max)

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValueError, match="pairs"):
            ratio_verify([12], [], c_max=50)

    def test_h_table_holds_no_prime_power_caches(self, monkeypatch):
        # the benchmark's run: the 333 prime-power vectors of c <= 2000 are
        # built from generator powers, a block of moduli at a time, and held
        # one prime at a time; neither the vector nor the inverse-table cache
        # is filled (at 4.4 MB each they held 14.3 MB traced at the peak),
        # the Euler inverses are never taken, and padic's memos of unit
        # groups and dlog tables do not grow
        engine._classical_S_vector.cache_clear()
        engine._unit_inverses.cache_clear()
        calls, euler_inverses = [], engine.kernels.unit_inverses

        def counted(c):
            calls.append(c)
            return euler_inverses(c)

        monkeypatch.setattr(engine.kernels, "unit_inverses", counted)
        groups, dlogs = padic.unit_group_zpk.cache_info().currsize, padic.dlog_rows.cache_info().currsize
        pairs = [(m, n) for m in range(1, 11) for n in range(1, 11)]
        tracemalloc.start()
        try:
            rep = ratio_verify([12, 16, 18, 20, 22, 26], pairs, c_max=2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep["max_deviation"] < 1e-9
        assert peak < 8 * 2**20
        assert engine._classical_S_vector.cache_info().currsize == 0
        assert engine._unit_inverses.cache_info().currsize == 0
        assert calls == []
        assert padic.unit_group_zpk.cache_info().currsize == groups
        assert padic.dlog_rows.cache_info().currsize == dlogs

    def test_swapped_pairs_give_equal_entries(self):
        pairs = [(1, 2), (3, 5), (4, 6), (7, 7), (2, 9), (10, 4)]
        fwd = ratio_verify([12, 18], pairs, c_max=300)
        rev = ratio_verify([12, 18], [(n, m) for m, n in pairs], c_max=300)
        assert fwd["max_deviation"] == rev["max_deviation"] < 1e-9
        for a, b in zip(fwd["entries"], rev["entries"]):
            assert (a["m"], a["n"]) == (b["n"], b["m"])
            assert (a["ratio"], a["target"], a["dev"]) == (b["ratio"], b["target"], b["dev"])

    def test_entries_keep_the_pair_order_and_repeats(self):
        # (1, 1) is also the base column; the repeats and swaps share columns
        pairs = [(3, 2), (1, 1), (2, 3), (3, 2), (5, 1), (1, 5), (3, 2)]
        rep = ratio_verify([12, 16], pairs, c_max=200)
        entries = rep["entries"]
        assert [(e["kappa"], e["m"], e["n"]) for e in entries] == [
            (kappa, m, n) for kappa in (12, 16) for m, n in pairs
        ]
        for kappa in (12, 16):
            row = [e["ratio"] for e in entries if e["kappa"] == kappa]
            assert row[0] == row[2] == row[3] == row[6] != row[4] == row[5]
            assert abs(row[1] - 1) < 1e-12

    def test_weight_guards(self):
        with pytest.raises(ValueError):
            petersson_geometric(GlobalTestFunction(()), 13, 1, 1, 50)
        with pytest.raises(ValueError):
            ratio_verify([14], [(1, 1)], 50)


def kahan_geometric_side(gtf, kappas, pairs, table, c_max):
    """The geometric side summed one modulus at a time in ascending c with
    Kahan compensation: the reference for petersson._geometric_side, which
    sums each block of moduli in one array pass and compensates across the
    block sums.  Same table, prefactors and Bessel weights, the weights
    taken a block of moduli at a time as there."""
    ms, ns = np.array(pairs, dtype=np.int64).T
    delta_inf = np.array([(kappa - 1) / (4 * math.pi) for kappa in kappas])[:, None]
    diag = np.where(ms == ns, delta_inf * float(gtf.delta_fin), 0.0)
    pref = np.array([(kappa - 1) / 2 * (1j) ** (-kappa) for kappa in kappas])[:, None]
    xs = 4 * math.pi * np.sqrt(ms * ns)
    cs = np.array(petersson._moduli(gtf, c_max), dtype=np.float64)
    total = np.zeros((len(kappas), len(pairs)), dtype=np.complex128)
    comp = np.zeros_like(total)
    for lo in range(0, len(cs), petersson._BLOCK):
        block = cs[lo : lo + petersson._BLOCK]
        weights = _bessel_J_table([kappa - 1 for kappa in kappas], xs / block[:, None])
        for i, c in enumerate(block):
            y = pref * table[lo + i] / c * weights[:, i] - comp
            t = total + y
            comp = (t - total) - y
            total = t
    return diag + total


class TestGeometricSums:
    def test_block_sums_match_the_per_modulus_kahan_sum(self):
        # the benchmark's inputs: six weights, the 55 unordered pairs of
        # --mmax 10, every c <= 2000
        gtf = GlobalTestFunction(())
        kappas = ONE_DIMENSIONAL_WEIGHTS
        pairs = [(m, n) for m in range(1, 11) for n in range(m, 11)]
        table = petersson._h_table(gtf, pairs, 2000)
        got = petersson._geometric_side(gtf, kappas, pairs, table, 2000)
        want = kahan_geometric_side(gtf, kappas, pairs, table, 2000)
        assert got.shape == want.shape == (6, 55)
        assert np.abs(got - want).max() <= 1e-14

    @pytest.mark.parametrize("kappa", [4, 12, 26])
    def test_tail_estimate_bounds_the_tail(self, kappa):
        # sum over 200 < c <= 4000 of |H(m,n;c)/c J_{kappa-1}(4 pi sqrt(mn)/c)|
        # against the estimate for c_max = 200, weight 4 included
        gtf = GlobalTestFunction(())
        pairs = [(1, 1), (2, 3), (10, 10)]
        cs = np.arange(201, 4001)
        ms, ns = np.array(pairs).T
        table = engine.h_global_table(gtf, ms, ns, cs)
        x = 4 * math.pi * np.sqrt(ms * ns)
        J = _bessel_J_table([kappa - 1], x[None, :] / cs[:, None])[0]
        for j, (m, n) in enumerate(pairs):
            actual = np.sum(np.abs(table[:, j] / cs * J[:, j]))
            estimate = petersson._tail_estimate(gtf, kappa, m, n, 200)
            assert 0 < actual <= estimate, (kappa, m, n, actual, estimate)


class TestBesselTable:
    ORDERS = (3, 11, 15, 25, 51)

    @staticmethod
    def _reference(orders, x):
        with mpmath.workdps(40):
            return np.array([[float(mpmath.besselj(nu, mpmath.mpf(float(v)))) for v in x]
                             for nu in orders])

    def _check(self, orders, x):
        got = _bessel_J_table(orders, x)
        ref = self._reference(orders, x)
        assert got.shape == (len(orders), len(x))
        assert np.isfinite(got).all()
        err = np.abs(got - ref)
        assert err.max() <= 1e-13
        # full relative accuracy below the turning point, down to underflow
        tight = (x[None, :] < np.array(orders)[:, None]) & (np.abs(ref) > 1e-290)
        assert tight.sum() > 0
        assert (err[tight] / np.abs(ref[tight])).max() <= 1e-12

    def test_log_grid_vs_mpmath(self):
        self._check(self.ORDERS, np.logspace(-5, 4, 181))

    def test_both_sides_of_the_series_switch(self):
        # the series is summed where (x/2)^2 <= (min order + 1)/2
        for orders in [self.ORDERS, *((nu,) for nu in self.ORDERS)]:
            edge = 2 * math.sqrt((min(orders) + 1) / 2)
            x = edge * np.array([0.5, 0.999, 1 - 1e-12, 1.0, 1 + 1e-12, 1.001, 2.0])
            self._check(orders, x)

    def test_underflow_region(self):
        # J_51(1e-5) is about 1e-336: the result underflows to (near) zero
        # instead of turning into nan or inf
        x = np.logspace(-5, -1, 9)
        got = _bessel_J_table((51,), x)[0]
        assert np.isfinite(got).all() and (got >= 0).all()
        assert got[0] < 1e-300
        self._check((25, 51), x)

    def test_both_sides_of_the_hankel_switch(self):
        # Hankel's expansion and the forward recurrence from
        # max(max order, 25) on; Miller's recurrence below
        for orders in [(3,), (11, 15), (25,), self.ORDERS]:
            edge = max(max(orders), 25.0)
            x = edge * np.array([0.9, 0.999, 1 - 1e-12, 1.0, 1 + 1e-12, 1.001, 1.5])
            self._check(orders, np.append(x, min(orders) / 2))

    def test_repeated_and_unsorted_orders(self):
        x = np.logspace(-3, 4, 57)
        got = _bessel_J_table((25, 11, 25, 3), x)
        want = _bessel_J_table((3, 11, 25), x)
        for row, i in zip(got, (2, 1, 2, 0)):
            assert np.array_equal(row, want[i])
        assert _bessel_J_table((), x).shape == (0, len(x))

    def test_shape_follows_x(self):
        x = np.array([[0.5, 7.0], [40.0, 3000.0]])
        got = _bessel_J_table((11, 25), x)
        assert got.shape == (2, 2, 2)
        assert np.array_equal(got[:, 1, 1], _bessel_J_table((11, 25), x[1, 1:])[:, 0])


class TestBesselCapacity:
    def test_large_argument_fails_fast(self, monkeypatch):
        def no_table(*args, **kwargs):
            raise AssertionError("H table built before the argument check")

        monkeypatch.setattr(petersson, "h_global_table", no_table)
        with pytest.raises(CapacityError, match="Bessel argument"):
            petersson_geometric(GlobalTestFunction(()), 12, 10**8, 1, 10)
        with pytest.raises(CapacityError, match="Bessel argument"):
            ratio_verify([12], [(1, 1), (800, 800)], c_max=10**6)

    def test_argument_at_the_cap_is_accepted(self):
        from scipy.special import jv

        # 4 pi sqrt(m) just below 1e4
        m = int((BESSEL_X_CAP / (4 * math.pi)) ** 2)
        gtf = GlobalTestFunction(())
        table = petersson._h_table(gtf, [(m, 1)], 40)
        got = petersson._geometric_side(gtf, (12, 26), [(m, 1)], table, 40)[:, 0]
        c = np.arange(1, 41)
        x = 4 * math.pi * math.sqrt(m)
        for kappa, value in zip((12, 26), got):
            want = (kappa - 1) / 2 * (1j) ** (-kappa) * np.sum(table[:, 0] / c * jv(kappa - 1, x / c))
            assert abs(value - want) < 1e-11


class TestAllWeights:
    def test_repeated_weight_rows_match_the_single_weight(self):
        gtf = GlobalTestFunction(())
        pairs = [(1, 1), (2, 3), (5, 5), (7, 1)]
        table = petersson._h_table(gtf, pairs, 300)
        twice = petersson._geometric_side(gtf, (12, 12), pairs, table, 300)
        once = petersson._geometric_side(gtf, (12,), pairs, table, 300)
        assert np.array_equal(twice[0], once[0])
        assert np.array_equal(twice[1], once[0])

    def test_repeated_weight_in_ratio_verify(self):
        pairs = [(2, 3), (4, 4)]
        twice = ratio_verify([12, 12], pairs, c_max=300)
        once = ratio_verify([12], pairs, c_max=300)
        assert twice["entries"] == once["entries"] * 2
        assert twice["max_deviation"] == once["max_deviation"] < 1e-9

    def test_no_weights_gives_an_empty_report(self):
        assert ratio_verify([], [(1, 2)], c_max=50) == {"max_deviation": 0.0, "entries": []}

    def test_nan_deviation_is_reported(self, monkeypatch):
        def nan_side(gtf, kappas, pairs, table, c_max):
            rows = np.ones((len(kappas), len(pairs)), dtype=complex)
            rows[:, -1] = complex("nan")
            return rows

        monkeypatch.setattr(petersson, "_geometric_side", nan_side)
        with np.errstate(invalid="ignore"):
            report = ratio_verify([12], [(2, 3), (1, 2)], c_max=50)
        assert math.isnan(report["max_deviation"])
