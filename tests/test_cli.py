import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from genkl.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


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


FAMILY_FLAGS = [
    "--family classical --p 3 --c 2",
    "--family nelson --p 3 --c 3",
    "--family ps --p 5 --chi-conductor 2",
    "--family supercuspidal --p 3 --ext unramified --cxi 1",
    "--family nbhd --p 3 --ext ramified --cxi 2 --n-radius 1",
]


class TestMellinReadsTables:
    @pytest.mark.parametrize("flags", FAMILY_FLAGS, ids=lambda f: f.split()[1])
    def test_no_one_alpha_closed_form_calls(self, capsys, monkeypatch, flags):
        from genkl import engine

        def no_call(*args):
            raise AssertionError("one-character closed-form call")

        for name in ("mellin_closed", "composed_conductor", "_stationary_E_gauss"):
            monkeypatch.setattr(engine, name, no_call)
        code, out = run(capsys, "mellin", *flags.split(), "--k", "0..3")
        assert code == 0
        rows = out.splitlines()[1:]
        assert len(rows) > 0 and all(float(row.split(",")[-1]) < 1e-8 for row in rows)


class TestKlsumMatchesOnePoint:
    @pytest.mark.parametrize("flags, fmt", [
        pytest.param(flags, fmt, id=flags.split()[1] + ("-json" if fmt == "json" else ""))
        for fmt in ("csv", "json")
        for flags in FAMILY_FLAGS
    ])
    def test_mn_grid_equals_h_local_rows(self, capsys, flags, fmt):
        from genkl import engine
        from genkl.cli import _Parser, _add_family_flags, build_family

        parser = _Parser()
        _add_family_flags(parser)
        tf = build_family(parser.parse_args(flags.split()))
        ms, ns, ks = range(-3, 11), (-2, 1, 3, 5), range(0, 5)
        code, out = run(capsys, "--format", fmt, "klsum", *flags.split(), "--k", "0..4",
                        "--grid", "mn", "--m=-3..10", "--n=-2,1,3,5")
        assert code == 0
        want = [] if fmt == "json" else ["family,p,k,m,n,re,im,vanishing_reason"]
        for k in ks:
            for m in ms:
                for n in ns:
                    v = engine.h_local(tf, m, n, k)
                    row = (tf.tag, tf.p, k, m, n, f"{v.value.real:.12g}",
                           f"{v.value.imag:.12g}", v.vanishing_reason or "nonzero")
                    if fmt == "json":
                        want.append(json.dumps(dict(zip(KLSUM_HEADER, row)), sort_keys=True))
                    else:
                        want.append(",".join(map(str, row)))
        assert out.splitlines() == want


KLSUM_HEADER = ("family", "p", "k", "m", "n", "re", "im", "vanishing_reason")


class TestKlsumRendering:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv", [
        "klsum --family supercuspidal --p 3 --ext ramified --cxi 2 --k 0..3 --grid units",
        "klsum --family nelson --p 3 --c 3 --k 0..3 --grid mn --m=-4..9 --n 1,3",
        "mellin --family ps --p 5 --chi-conductor 1 --k 1..2",
        "char-enum --p 3 --cxi 2",
    ], ids=lambda argv: argv.split()[0] + "-" + argv.split()[2])
    def test_out_file_equals_stdout(self, capsys, tmp_path, argv, fmt):
        code, out = run(capsys, "--format", fmt, *argv.split())
        path = tmp_path / "table.txt"
        assert main(["--format", fmt, "--out", str(path), *argv.split()]) == code == 0
        assert capsys.readouterr().out == ""
        assert path.read_bytes() == out.encode() and out

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_floats_render_as_format_spec(self, capsys, monkeypatch, fmt):
        from genkl import engine

        values = [-0.0, 1e-300, 1e300, -1e300, -1e-300, 0.1 + 0.2, 2.0**53, float("nan"),
                  float("inf"), -float("inf"), 123456789012.5, 5e-324]
        vals = np.empty(len(values), dtype=np.complex128)
        vals.real, vals.imag = values, values[::-1]
        reasons = [None, "below-k_p"] + [None] * (len(values) - 3) + ["non-unit-mn"]
        monkeypatch.setattr(engine, "h_local_many", lambda tf, ms, ns, k: (vals, reasons))
        code, out = run(capsys, "--format", fmt, "klsum", "--family", "classical", "--p", "3",
                        "--c", "1", "--k", "2", "--grid", "mn", f"--m=1..{len(values)}")
        assert code == 0
        lines = out.splitlines()
        if fmt == "csv":
            assert lines.pop(0) == ",".join(KLSUM_HEADER)
        assert len(lines) == len(values)
        for i, (line, v, reason) in enumerate(zip(lines, vals.tolist(), reasons)):
            row = ("classical", 3, 2, i + 1, 1, f"{v.real:.12g}", f"{v.imag:.12g}",
                   reason or "nonzero")
            if fmt == "json":
                assert line == json.dumps(dict(zip(KLSUM_HEADER, row)), sort_keys=True)
            else:
                assert line == ",".join(map(str, row))

    def test_k0_row(self, capsys):
        from genkl import engine
        from genkl.families import Classical

        code, out = run(capsys, "klsum", "--family", "classical", "--p", "3", "--c", "0",
                        "--k", "0", "--grid", "units")
        v = engine.h_local(Classical(3, 0), 0, 1, 0).value
        assert code == 0
        assert out.splitlines()[1:] == [f"classical,3,0,0,1,{v.real:.12g},{v.imag:.12g},nonzero"]

    @pytest.mark.parametrize("flags", [
        "--family classical --p 3 --c 1 --k 2",
        "--family nelson --p 3 --c 3 --k 3",
        "--family supercuspidal --p 3 --ext unramified --cxi 1 --k 2",
    ], ids=lambda flags: flags.split()[1])
    def test_huge_m_and_n_equal_their_residues(self, capsys, flags):
        # m and n beyond int64, with p | mn and without
        big = 3 * 10**20
        k = int(flags.split()[-1])
        q = 3**k
        ms, ns = [big, big + 1, -big - 2], [3, -big, 10**30 + 9]
        code, out = run(capsys, "klsum", *flags.split(), "--grid", "mn",
                        "--m", ",".join(map(str, ms)), "--n", ",".join(map(str, ns)))
        assert code == 0
        code, reduced = run(capsys, "klsum", *flags.split(), "--grid", "mn",
                            "--m", ",".join(str(m % q) for m in ms),
                            "--n", ",".join(str(n % q) for n in ns))
        assert code == 0
        rows, want = out.splitlines(), reduced.splitlines()
        assert len(rows) == len(want) == 1 + len(ms) * len(ns)
        assert rows[0] == want[0]
        pairs = [(m, n) for m in ms for n in ns]
        for row, ref, (m, n) in zip(rows[1:], want[1:], pairs):
            cells, ref_cells = row.split(","), ref.split(",")
            assert cells[3:5] == [str(m), str(n)]
            assert cells[:3] + cells[5:] == ref_cells[:3] + ref_cells[5:]


class TestSubcommands:
    @pytest.mark.parametrize(
        "flags",
        [
            ("--family", "classical", "--p", "3", "--c", "1", "--k", "1..2"),
            ("--family", "ps", "--p", "5", "--chi-conductor", "2", "--k", "1..3"),
        ],
        ids=["classical", "ps"],
    )
    def test_mellin(self, capsys, flags):
        code, out = run(capsys, "mellin", *flags)
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

    @pytest.mark.parametrize("p", [3, 5])
    def test_degeneration_checks_every_unit(self, capsys, p):
        # one check per unit t mod p^k, k in {c(sigma), c(sigma) + 1}, for
        # every family of the suite: phi(p^k) = p^k - p^(k-1)
        from genkl.cli import _sc_families

        want = sum(
            p**k - p ** (k - 1)
            for tf in _sc_families(p)
            for k in (tf.c_sigma, tf.c_sigma + 1)
        )
        code, out = run(capsys, "identities", "--suite", "degeneration", "--p", str(p))
        assert code == 0
        assert json.loads(out)["checks"] == want > 0

    def test_degeneration_sees_one_bad_unit(self, capsys, monkeypatch):
        from genkl import engine
        from genkl.families import Supercuspidal

        real = engine.h_local_vector

        def off_at_one_unit(tf, k):
            vec = real(tf, k)
            if isinstance(tf, Supercuspidal):
                vec = vec.copy()
                vec[1] += 1e-6
            return vec

        monkeypatch.setattr(engine, "h_local_vector", off_at_one_unit)
        code, out = run(capsys, "identities", "--suite", "degeneration", "--p", "3")
        rec = json.loads(out)
        assert code == 2 and rec["status"] == "FAIL"
        assert rec["failures"]
        for line in rec["failures"]:
            assert line.startswith("degeneration ") and " err=1.00e-06" in line

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

    def test_petersson_verify_short_cache_is_one(self, capsys, tmp_path):
        from genkl.petersson import builtin_eigendata, write_eigen_cache

        path = str(tmp_path / "eigen.jsonl")
        write_eigen_cache(path, builtin_eigendata(12, 5))
        argv = ["petersson-verify", "--kappa", "12", "--cmax", "100", "--eigen-cache", path]
        # lambda(1..5) is short of the pairs up to 8
        assert main(argv + ["--mmax", "8"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: eigendata for kappa = 12 holds lambda(1..5), "
            "the pairs need lambda(1..8)\n"
        )
        # and is enough for the pairs up to 5
        assert main(argv + ["--mmax", "5"]) == 0
        out, err = capsys.readouterr()
        assert json.loads(out)["status"] == "pass" and err == ""

    def test_petersson_verify_bad_cache_is_one(self, capsys, tmp_path):
        path = tmp_path / "eigen.jsonl"
        path.write_text('{"level": 1, "weight": 12, "n": 1, "lambda_re": NaN, "lambda_im": 0}\n')
        argv = ["petersson-verify", "--kappa", "12", "--mmax", "2", "--cmax", "400", "--eigen-cache"]
        assert main(argv + [str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: malformed cache record on line 1 ")
        # a directory is no cache either
        assert main(argv + [str(tmp_path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")

    def test_online_flag_is_gone(self):
        with pytest.raises(SystemExit) as exc:
            main(["petersson-verify", "--kappa", "12", "--online"])
        assert exc.value.code == 1

    def test_jobs_flag_is_gone(self):
        with pytest.raises(SystemExit) as exc:
            main(["klsum", "--family", "classical", "--p", "3", "--c", "1",
                  "--k", "1", "--jobs", "2"])
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
        pytest.param("klsum --family supercuspidal --p 3 --ext unramified --cxi 1 --k 12",
                     id="klsum-dihedral"),
        pytest.param("klsum --family supercuspidal --p 3 --ext unramified --cxi 1 --k 1,12",
                     id="klsum-dihedral-after-rows"),
        "identities --suite degeneration --p 10007",
        "mellin --family classical --p 3 --c 1 --k 25",
        "bounds --family classical --p 3 --c 1 --k 25",
        "family-info --family supercuspidal --p 10007",
        "char-enum --p 10007 --cxi 1",
        pytest.param("identities --suite stationary --p 10007", id="identities-stationary"),
        "petersson-verify --cmax 1000000000",
        pytest.param("petersson-verify --mmax 3000", id="petersson-verify-mmax"),
    ], ids=lambda argv: argv.split()[0])
    def test_oversized_fails_fast(self, capsys, argv):
        import time

        t0 = time.perf_counter()
        code = main(argv.split())
        assert code == 3
        assert time.perf_counter() - t0 < 1.0
        out, err = capsys.readouterr()
        assert err.startswith("capacity exceeded: ")
        assert out == ""

    def test_petersson_capacity_counts_the_columns(self, capsys, monkeypatch):
        # --mmax 10 builds one column per unordered pair m <= n <= 10, (1, 1)
        # among them: 55 columns over the moduli 1..2000, so a capacity of
        # exactly 2000 x 55 entries holds the table and one entry less does not
        from genkl import engine

        argv = "petersson-verify --kappa 12 --mmax 10 --cmax 2000".split()
        monkeypatch.setattr(engine, "GROUP_CAPACITY", 2000 * 55)
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "pass"
        monkeypatch.setattr(engine, "GROUP_CAPACITY", 2000 * 55 - 1)
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "capacity exceeded: H table of 2000 moduli x 55 pairs exceeds capacity\n"

    @pytest.mark.parametrize("argv, message", [
        ("petersson-verify --cmax 0", "c_max must be >= 1"),
        ("petersson-verify --cmax -5", "c_max must be >= 1"),
        ("petersson-verify --mmax 0", "--mmax must be >= 1"),
    ])
    def test_petersson_bad_limits_are_one(self, capsys, argv, message):
        code = main(argv.split())
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("argv", [
        "char-enum --p 6 --cxi 1",
        "family-info --family classical --p 0",
        "identities --suite degeneration --p 1",
        "klsum --family classical --p 4 --c 2 --k 1",
        "klsum --family classical --p 3 --c 2 --k -1",
        "mellin --family classical --p 3 --c 1 --k -2",
        "conductor --family classical --p 3 --c 1 --slack -5",
    ])
    def test_bad_input_is_usage_error(self, capsys, argv):
        # in a subprocess first, since some of these hung the build before
        code, out, err = run_cli(*argv.split(), timeout=30)
        assert (code, out) == (1, "")
        assert err.startswith(f"genkl {argv.split()[0]}: error: argument --")
        assert err.count("\n") == 1 and "Traceback" not in err
        t0 = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        assert exc.value.code == 1 and time.perf_counter() - t0 < 1.0
        assert capsys.readouterr().err == err

    def test_capacity_is_three(self, capsys):
        code = main(["char-enum", "--p", "13", "--ext", "unramified",
                     "--cxi", "4"])
        assert code == 3


def run_cli(*argv, timeout=120):
    """python -m genkl.cli in a fresh interpreter: (exit code, stdout, stderr)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-m", "genkl.cli", *argv], env=env,
                         capture_output=True, text=True, timeout=timeout)
    return out.returncode, out.stdout, out.stderr


COMMAND_FLAGS = {
    "klsum": "--family --p --c --chi-conductor --chi-index --ext --cxi --xi-index "
             "--n-radius --k --grid --m --n",
    "mellin": "--family --p --c --chi-conductor --ext --cxi --n-radius --k",
    "conductor": "--family --p --c --ext --cxi --n-radius --slack",
    "bounds": "--family --p --c --ext --cxi --n-radius --k --m --n",
    "identities": "--suite --p",
    "petersson-verify": "--kappa --mmax --cmax --tol --eigen-cache",
    "char-enum": "--p --ext --cxi",
    "family-info": "--family --p --c --chi-conductor --ext --cxi --n-radius",
}
INVALID_BOGUS = (
    "genkl: error: argument command: invalid choice: 'bogus' (choose from 'klsum', "
    "'mellin', 'conductor', 'bounds', 'identities', 'petersson-verify', 'char-enum', "
    "'family-info')\n"
)


class TestCommandTable:
    @pytest.mark.parametrize("name", list(COMMAND_FLAGS))
    def test_command_help_lists_its_flags(self, capsys, name):
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        out, err = capsys.readouterr()
        assert exc.value.code == 0 and err == ""
        assert out.startswith(f"usage: genkl {name} [-h]")
        for flag in COMMAND_FLAGS[name].split():
            assert f" {flag} " in out or f" {flag}\n" in out, flag

    def test_top_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "{" + ",".join(COMMAND_FLAGS) + "}" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, err", [
        ("bogus", INVALID_BOGUS),
        ("bogus klsum", INVALID_BOGUS),
        ("--format xml klsum --family classical --p 3 --k 1",
         "genkl: error: argument --format: invalid choice: 'xml' (choose from 'json', 'csv')\n"),
        ("", "genkl: error: the following arguments are required: command\n"),
        ("klsum --family classical --p 3 --k 1 mellin",
         "genkl: error: unrecognized arguments: mellin\n"),
    ])
    def test_usage_errors_name_every_command(self, capsys, argv, err):
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        assert exc.value.code == 1
        assert capsys.readouterr() == ("", err)

    def test_out_value_named_like_a_command(self, capsys, tmp_path, monkeypatch):
        flags = ["mellin", "--family", "classical", "--p", "3", "--c", "1", "--k", "1..2"]
        code, want = run(capsys, *flags)
        monkeypatch.chdir(tmp_path)
        assert main(["--out", "klsum", *flags]) == code == 0
        assert capsys.readouterr().out == ""
        assert (tmp_path / "klsum").read_text() == want and want.startswith("family,p,k,alpha,")

    @pytest.mark.parametrize("argv", [
        "--format json klsum --family supercuspidal --p 3 --ext ramified --cxi 2 --k 1..2",
        "klsum --family ps --p 5 --chi-conductor 2 --k 0,2",
        "bogus klsum",
    ])
    def test_module_entry_point_matches_main(self, capsys, argv):
        code, out, err = run_cli(*argv.split())
        try:
            got = main(argv.split())
        except SystemExit as exc:
            got = exc.code
        assert (got, *capsys.readouterr()) == (code, out, err)

    def test_klsum_registers_one_family_flag_set(self, capsys, monkeypatch):
        import genkl.cli as cli

        calls = []
        real = cli._add_family_flags

        def counted(sp):
            calls.append(sp.prog)
            real(sp)

        monkeypatch.setattr(cli, "_add_family_flags", counted)
        code, out = run(capsys, "klsum", "--family", "classical", "--p", "3", "--c", "1",
                        "--k", "1")
        assert code == 0 and out.startswith("family,p,k,m,n,")
        assert calls == ["genkl klsum"]
