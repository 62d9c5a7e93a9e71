import json

import pytest

from genkl.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestKlsum:
    def test_units_grid_csv(self, capsys):
        code, out = run(
            capsys, "klsum", "--family", "classical", "--p", "3", "--c", "1",
            "--k", "1..2", "--grid", "units",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "family,p,k,m,n,re,im,vanishing_reason"
        assert len(lines) == 1 + 2 + 6

    def test_json_schema(self, capsys):
        code, out = run(
            capsys, "--format", "json", "klsum", "--family", "supercuspidal",
            "--p", "3", "--ext", "unramified", "--cxi", "1", "--k", "1",
            "--grid", "mn", "--m", "1", "--n", "1",
        )
        assert code == 0
        rec = json.loads(out.strip())
        assert set(rec) == {"family", "p", "k", "m", "n", "re", "im",
                            "vanishing_reason"}

    def test_deterministic_output(self, capsys):
        args = ("klsum", "--family", "supercuspidal", "--p", "3", "--ext",
                "ramified", "--cxi", "2", "--k", "2..3", "--grid", "units")
        _, out1 = run(capsys, *args)
        _, out2 = run(capsys, *args)
        assert out1 == out2

    def test_parallel_matches_serial(self, capsys):
        base = ("klsum", "--family", "classical", "--p", "5", "--c", "1",
                "--k", "2", "--grid", "units")
        _, serial = run(capsys, *base, "--jobs", "1")
        _, par = run(capsys, *base, "--jobs", "3")
        assert serial == par


class TestJobs:
    BASE = ("klsum", "--family", "classical", "--p", "3", "--c", "1",
            "--k", "1..2", "--grid", "units")

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """Replace ProcessPoolExecutor with a stand-in that records
        max_workers and runs the chunks here, so no worker ever starts."""
        import concurrent.futures
        import os

        sizes = []

        class RecordingPool:
            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, chunks):
                return map(fn, chunks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        return sizes

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_below_one_is_usage_error(self, capsys, pool_sizes, jobs):
        code, out = run(capsys, *self.BASE, "--jobs", jobs)
        assert code == 1 and out == ""
        assert pool_sizes == []

    def test_clamped_to_cpu_count(self, capsys, pool_sizes):
        _, serial = run(capsys, *self.BASE)
        code, par = run(capsys, *self.BASE, "--jobs", "10000")
        assert code == 0 and par == serial
        assert pool_sizes == [2]


class TestSubcommands:
    def test_mellin(self, capsys):
        code, out = run(
            capsys, "mellin", "--family", "classical", "--p", "3", "--c", "1",
            "--k", "1..2",
        )
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            assert float(line.split(",")[-1]) < 1e-8

    def test_conductor(self, capsys):
        code, out = run(
            capsys, "conductor", "--family", "supercuspidal", "--p", "3",
            "--ext", "unramified", "--cxi", "1",
        )
        assert code == 0
        assert out.strip().splitlines()[1].endswith("True")

    def test_bounds(self, capsys):
        code, out = run(
            capsys, "bounds", "--family", "nelson", "--p", "3", "--c", "3",
            "--k", "2..3", "--m", "1,2", "--n", "1",
        )
        assert code == 0

    def test_identities_suite(self, capsys):
        code, out = run(capsys, "identities", "--suite", "degeneration", "--p", "3")
        assert code == 0
        assert json.loads(out)["status"] == "pass"

    def test_petersson_verify(self, capsys):
        code, out = run(
            capsys, "petersson-verify", "--kappa", "12", "--mmax", "3",
            "--cmax", "400",
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["status"] == "pass" and rec["max_deviation"] < 1e-6

    def test_petersson_verify_with_cache(self, capsys, tmp_path):
        from genkl.petersson import builtin_eigendata, write_eigen_cache

        path = str(tmp_path / "eigen.jsonl")
        write_eigen_cache(path, builtin_eigendata(12, 8))
        code, out = run(
            capsys, "petersson-verify", "--kappa", "12", "--mmax", "2",
            "--cmax", "400", "--eigen-cache", path,
        )
        assert code == 0
        assert json.loads(out)["status"] == "pass"

    def test_online_flag_is_gone(self):
        with pytest.raises(SystemExit) as exc:
            main(["petersson-verify", "--kappa", "12", "--online"])
        assert exc.value.code == 1

    def test_char_enum(self, capsys):
        code, out = run(capsys, "char-enum", "--p", "3", "--ext", "unramified",
                        "--cxi", "1")
        assert code == 0
        assert len(out.strip().splitlines()) == 4  # header + 3 characters

    def test_family_info(self, capsys):
        code, out = run(
            capsys, "family-info", "--family", "nelson", "--p", "5", "--c", "3",
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["k_p"] == 2 and rec["cvf_holds"] is False


class TestExitCodes:
    def test_usage_error_is_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["klsum", "--family", "bogus", "--p", "3", "--k", "1"])
        assert exc.value.code == 1

    def test_invalid_params_is_one(self, capsys):
        code = main(["klsum", "--family", "ps", "--p", "3",
                     "--chi-conductor", "1", "--k", "1"])
        assert code == 1

    @pytest.mark.parametrize("argv", [
        "klsum --family classical --p 3 --c 2 --k 25",
        "identities --suite degeneration --p 10007",
        "mellin --family classical --p 3 --c 1 --k 25",
        "bounds --family classical --p 3 --c 1 --k 25",
        "family-info --family supercuspidal --p 10007",
        "char-enum --p 10007 --cxi 1",
    ], ids=lambda argv: argv.split()[0])
    def test_oversized_fails_fast(self, capsys, argv):
        import time

        t0 = time.perf_counter()
        code = main(argv.split())
        assert code == 3
        assert time.perf_counter() - t0 < 1.0
        assert capsys.readouterr().err.startswith("capacity exceeded: ")

    def test_capacity_is_three(self, capsys):
        code = main(["char-enum", "--p", "13", "--ext", "unramified",
                     "--cxi", "4"])
        assert code == 3
