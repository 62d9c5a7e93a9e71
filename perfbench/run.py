"""The genkl benchmark: three workloads through the `genkl` CLI entry point.

Usage, from the repository root:

    python3 perfbench/run.py --workload petersson --seed 1 --seconds 20 --trace 0

Workloads are listed in workloads.py and explained in README.md.  Every
command runs in a fresh interpreter (perfbench/child.py) on the numpy
fallback, pinned with GENKL_PURE_PYTHON=1.  A run repeats whole rounds of
the workload's commands until --seconds have passed (at least one round).
An untraced run then times SETUP_SAMPLES bare children that only import
genkl.  The outputs are then checked against independent routes
(checks.py), outside the timed part.

--trace 0 reports the end-to-end metrics: setup_s (median over the bare
children: interpreter start plus import of genkl, numpy and scipy), run_s
(median over rounds of the summed command times) and peak_rss_mb (median
over rounds of the largest peak resident set of a round's processes).
--trace 1 runs the same rounds with the per-layer wrappers of tracer.py
and reports the per-layer metrics, each the median over rounds.  The last
line of standard output is one JSON object; the full record of the run
goes to .perfbench_runs/.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")
SETUP_SAMPLES = 12
RUN_BUDGET_S = 170  # every child is killed once the whole run has used this

sys.path.insert(0, HERE)
import workloads  # noqa: E402  (no genkl import; checks.py is imported later)
from tracer import TRACED_NAMES  # noqa: E402


def child_env() -> dict:
    env = os.environ.copy()
    env["GENKL_PURE_PYTHON"] = "1"
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(flags: list[str], cli_args: list[str], deadline: float):
    """Start child.py, time it to its "ready" line, wait for its result.

    Returns (setup seconds or None, result dict or None, stderr text)."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), *flags, "--", *cli_args]
    os.makedirs(RUNS_DIR, exist_ok=True)
    err_path = os.path.join(RUNS_DIR, "child.stderr")
    with open(err_path, "w+") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, text=True,
                                env=child_env(), cwd=ROOT)
        timer = threading.Timer(max(1.0, deadline - t0), proc.kill)
        timer.start()
        try:
            first = proc.stdout.readline()
            setup_s = time.perf_counter() - t0 if first == "ready\n" else None
            rest = proc.stdout.read()
            proc.wait()
        finally:
            timer.cancel()
            proc.stdout.close()
        err.seek(0)
        stderr = err.read()
    result = None
    if proc.returncode == 0 and rest.strip():
        try:
            result = json.loads(rest.strip().splitlines()[-1])
        except json.JSONDecodeError:
            result = None
    return setup_s, result, stderr


def median(xs):
    return statistics.median(xs) if xs else 0.0


# Unit of every per-layer metric, in the order layer_metrics emits them.
LAYER_UNITS = {
    **{f"{name}.{kind}": unit for name in TRACED_NAMES
       for kind, unit in (("calls", "count"), ("s", "s"), ("self_s", "s"))},
    "kernels.dihedral_bucket.pairs_per_s": "pairs/s",
    "kernels.dihedral_bucket.calls_per_triple": "calls/triple",
    "kernels.kloosterman_many.terms_per_s": "terms/s",
    "engine._unit_inverses.hit_ratio": "ratio",
    "engine._H_VEC_CACHE.entries": "count",
    "quadext.unit_group.misses": "count",
    "traced.run_s": "s",
}


def layer_metrics(snapshots: list[dict], run_s: float) -> dict[str, float]:
    """Per-layer metrics of one round from its processes' tracer snapshots."""
    calls = {n: 0 for n in TRACED_NAMES}
    cum = {n: 0.0 for n in TRACED_NAMES}
    own = {n: 0.0 for n in TRACED_NAMES}
    pairs = terms = 0
    triples = set()
    caches = {"unit_inverses_hits": 0, "unit_inverses_misses": 0, "h_vec_entries": 0,
              "unit_group_misses": 0}
    for snap in snapshots:
        for name, (c, s, self_s) in snap["stats"].items():
            calls[name] += c
            cum[name] += s
            own[name] += self_s
        pairs += snap["bucket_pairs"]
        terms += snap["kloosterman_terms"]
        triples.update(tuple(t) for t in snap["bucket_triples"])
        for key, val in snap["caches"].items():
            caches[key] += val
    out = {}
    for name in TRACED_NAMES:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = cum[name]
        out[f"{name}.self_s"] = own[name]
    bucket, kl = "kernels.dihedral_bucket", "kernels.kloosterman_many"
    out[f"{bucket}.pairs_per_s"] = pairs / cum[bucket] if cum[bucket] else 0.0
    out[f"{bucket}.calls_per_triple"] = calls[bucket] / len(triples) if triples else 0.0
    out[f"{kl}.terms_per_s"] = terms / cum[kl] if cum[kl] else 0.0
    lookups = caches["unit_inverses_hits"] + caches["unit_inverses_misses"]
    out["engine._unit_inverses.hit_ratio"] = caches["unit_inverses_hits"] / lookups if lookups else 0.0
    out["engine._H_VEC_CACHE.entries"] = caches["h_vec_entries"]
    out["quadext.unit_group.misses"] = caches["unit_group_misses"]
    out["traced.run_s"] = run_s
    return out


END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run: the result line and the full record."""
    commands = workloads.COMMANDS[workload]
    deadline = time.perf_counter() + RUN_BUDGET_S
    flags = ["--trace"] if trace else []
    setups, stderrs = [], []
    rounds = []
    start = time.perf_counter()
    while True:
        rnd = []
        for args in commands:
            _, result, stderr = spawn(flags, args, deadline)
            if result is None or result["rc"] != 0:
                stderrs.append(f"{' '.join(args)}: exit {result and result['rc']}\n{stderr}")
            rnd.append(result)
        rounds.append(rnd)
        if time.perf_counter() - start >= seconds or time.perf_counter() >= deadline:
            break
    # set-up is timed on bare children only, which import genkl and exit
    while not trace and len(setups) < SETUP_SAMPLES and time.perf_counter() < deadline:
        setup_s, _, stderr = spawn(["--setup-only"], [], deadline)
        if setup_s is None:
            stderrs.append(stderr)
            break
        setups.append(setup_s)

    attempted = len(commands) * len(rounds)
    failed = sum(r is None or r["rc"] != 0 for rnd in rounds for r in rnd)
    done = [[r for r in rnd if r is not None] for rnd in rounds]

    # correctness, outside the timed part
    sys.path.insert(0, SRC)
    os.environ["GENKL_PURE_PYTHON"] = "1"
    import checks

    rng = random.Random(seed)
    problems = []
    backends = sorted({r["backend"] for rnd in done for r in rnd})
    if backends != ["python"]:
        problems.append(f"backend {backends}, expected the numpy fallback 'python'")
    for i, check in enumerate(checks.command_checks(workload)):
        # a command that exited non-zero is still checked on what it printed
        outs = [rnd[i]["stdout"] for rnd in rounds if rnd[i] is not None]
        if all(rnd[i] is None or rnd[i]["rc"] != 0 for rnd in rounds):
            problems.append(f"{' '.join(commands[i])}: failed in every round")
        if not outs:
            continue
        if any(out != outs[0] for out in outs):
            problems.append(f"{' '.join(commands[i])}: output differs between rounds")
        problems += check(outs[0], rng)
    problems += checks.workload_samples(workload, rng)

    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "backend": backends, "rounds": len(rounds), "commands": commands,
        "setup_s": setups,
        "rc": [[r and r["rc"] for r in rnd] for rnd in rounds],
        "run_s": [[r and r["run_s"] for r in rnd] for rnd in rounds],
        "peak_rss_mb": [[r and r["peak_rss_mb"] for r in rnd] for rnd in rounds],
        "problems": problems, "stderr": stderrs,
    }
    round_run_s = [sum(r["run_s"] for r in rnd) for rnd in done]
    if trace:
        per_round = [layer_metrics([r["trace"] for r in rnd], run_s)
                     for rnd, run_s in zip(done, round_run_s)]
        metrics = {name: {"value": median([m[name] for m in per_round]), "unit": unit}
                   for name, unit in LAYER_UNITS.items()}
        record["per_round"] = per_round
    else:
        values = {
            "setup_s": median(setups),
            "run_s": median(round_run_s),
            "peak_rss_mb": median([max((r["peak_rss_mb"] for r in rnd), default=0.0)
                                   for rnd in done]),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    record["metrics"] = metrics
    with open(os.path.join(RUNS_DIR, f"{workload}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.COMMANDS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "genkl", "cli.py")):
        sys.stderr.write(f"no genkl sources under {SRC}; run from the repository root\n")
        return 2
    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for text in record["stderr"]:
        sys.stderr.write(text)
    for problem in record["problems"]:
        sys.stderr.write(f"check failed: {problem}\n")
    print(f"workload {args.workload}: backend {','.join(record['backend'])}, "
          f"{record['rounds']} round(s) of {len(record['commands'])} command(s), seed {args.seed}")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
