"""Tests of the benchmark itself: every workload's check accepts the real
output and rejects a corrupted one, a command that exits non-zero is
counted as failed and still checked, and the runs print exactly the
metrics BENCHMARK.json names.

Run from the repository root:  python3 -m pytest perfbench -q
(about 1.5 minutes on two cores; the degeneration outputs and the three
benchmark runs dominate).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
os.environ["GENKL_PURE_PYTHON"] = "1"
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402
from genkl import cli  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

_OUTPUTS: dict[str, list[str]] = {}


def outputs(workload: str) -> list[str]:
    """What each command of the workload prints, computed once per session."""
    if workload not in _OUTPUTS:
        texts = []
        for args in workloads.COMMANDS[workload]:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert cli.main(args) == 0
            texts.append(buf.getvalue())
        _OUTPUTS[workload] = texts
    return _OUTPUTS[workload]


def problems(workload: str, texts: list[str], seed: int = 7) -> list[str]:
    rng = random.Random(seed)
    found = []
    for check, text in zip(checks.command_checks(workload), texts):
        found += check(text, rng)
    return found


def _edit_json(text: str, **changes) -> str:
    rec = json.loads(text.strip().splitlines()[-1])
    rec.update(changes)
    return json.dumps(rec) + "\n"


def _edit_csv_row(text: str, index: int, edit) -> str:
    lines = text.splitlines()
    cells = lines[index].split(",")
    lines[index] = ",".join(edit(cells))
    return "\n".join(lines) + "\n"


def _neg(x: str) -> str:
    return x[1:] if x.startswith("-") else "-" + x


def _largest_row(text: str, re_col: int) -> int:
    """Index of the line whose value (re_col, re_col + 1) is largest."""
    lines = text.splitlines()
    cells = [line.split(",") for line in lines]
    return max(range(1, len(lines)), key=lambda i: abs(complex(float(cells[i][re_col]), float(cells[i][re_col + 1]))))


@pytest.mark.parametrize("workload", sorted(workloads.COMMANDS))
def test_real_outputs_pass(workload):
    assert problems(workload, outputs(workload)) == []
    assert checks.workload_samples(workload, random.Random(3)) == []


def test_petersson_rejects_corruption():
    (text,) = outputs("petersson")
    assert problems("petersson", [_edit_json(text, max_deviation=3e-4)])
    assert problems("petersson", [_edit_json(text, status="FAIL")])
    assert problems("petersson", [_edit_json(text, cmax=1000)])


def test_petersson_rejects_a_wrong_program_ratio(monkeypatch):
    (text,) = outputs("petersson")
    right = checks.program_ratio
    monkeypatch.setattr(checks, "program_ratio", lambda *a: right(*a) + 1e-6)
    assert problems("petersson", [text])


def test_failing_command_is_checked_on_its_output(monkeypatch, tmp_path):
    """A command that exits non-zero counts as failed, and its printed
    status still reaches the check, so the run is not correct."""
    import run as bench

    args = ["petersson-verify", "--kappa", "12", "--mmax", "2", "--cmax", "20", "--tol", "1e-300"]
    monkeypatch.setitem(workloads.COMMANDS, "petersson", [args])
    monkeypatch.setattr(bench, "SRC", os.path.join(ROOT, "src"))
    monkeypatch.setattr(bench, "ROOT", ROOT)
    monkeypatch.setattr(bench, "RUNS_DIR", str(tmp_path))
    result, record = bench.run("petersson", 1, 0.0, False)
    assert result["attempted"] == 1 and result["failed"] == 1
    assert not result["correct"]
    assert any("status 'FAIL'" in p for p in record["problems"])
    assert any("failed in every round" in p for p in record["problems"])


def test_degeneration_rejects_corruption():
    texts = outputs("degeneration")
    for i in range(len(texts)):
        rec = json.loads(texts[i])
        bad = list(texts)
        bad[i] = _edit_json(texts[i], checks=rec["checks"] + 1)
        assert problems("degeneration", bad)
        bad[i] = _edit_json(texts[i], failures=["degeneration injected"], status="FAIL")
        assert problems("degeneration", bad)


def test_mellin_table_rejects_corruption():
    texts = outputs("klsum")
    table = texts[-1]
    row = _largest_row(table, 6)
    bad = list(texts)
    bad[-1] = _edit_csv_row(table, row, lambda c: c[:6] + [_neg(c[6]), _neg(c[7])] + c[8:])
    assert problems("klsum", bad)
    bad[-1] = "\n".join(table.splitlines()[:-1]) + "\n"
    assert problems("klsum", bad)


@pytest.mark.parametrize("table", range(len(workloads.KLSUM_TABLES)))
def test_klsum_rejects_sign_flip(table):
    texts = outputs("klsum")
    row = _largest_row(texts[table], 5)
    bad = list(texts)
    bad[table] = _edit_csv_row(texts[table], row, lambda c: c[:5] + [_neg(c[5]), _neg(c[6])] + c[7:])
    assert problems("klsum", bad)


def test_klsum_rejects_missing_row_and_nonzero_below_kp():
    texts = outputs("klsum")
    bad = list(texts)
    bad[0] = "\n".join(texts[0].splitlines()[:-1]) + "\n"
    assert problems("klsum", bad)
    below = next(i for i, line in enumerate(texts[0].splitlines()) if line.endswith("below-k_p"))
    bad[0] = _edit_csv_row(texts[0], below, lambda c: c[:5] + ["1", "0"] + c[7:])
    assert problems("klsum", bad)


def _run(cwd: str, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_trace_run_reports_every_layer_metric():
    proc = _run(ROOT, "--workload", "klsum", "--seed", "1", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert result["metrics"]["kernels.dihedral_bucket.calls_per_triple"]["value"] == 1


def test_untraced_run_reports_every_end_to_end_metric():
    proc = _run(ROOT, "--workload", "petersson", "--seed", "2", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(str(tmp_path), "--workload", "petersson", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
