import json

import pytest

from genkl.quadext import standard_extensions
from genkl.extchars import enumerate_xi, eta_restriction
from genkl.families import Supercuspidal
from genkl.engine import GlobalTestFunction
from genkl.petersson import (
    EigenData,
    ONE_DIMENSIONAL_WEIGHTS,
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

    def test_weight_guards(self):
        with pytest.raises(ValueError):
            petersson_geometric(GlobalTestFunction(()), 13, 1, 1, 50)
        with pytest.raises(ValueError):
            ratio_verify([14], [(1, 1)], 50)
