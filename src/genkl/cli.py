"""Batch front-end: tables of sums, transforms, conductors, bounds, and
verification runs, emitted as JSON or CSV.

Output is deterministic for a fixed configuration: grids are walked in
ascending order and floats are printed at 12 significant digits.  Exit
codes: 0 pass, 1 usage error, 2 identity-suite failure, 3 capacity
exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from .padic import CapacityError, check_capacity, enumerate_dirichlet
from .quadext import standard_extensions
from .extchars import enumerate_xi, eta_restriction, is_regular, is_twist_minimal
from .families import (
    Classical,
    NelsonEq,
    PrincipalSeries,
    Supercuspidal,
    SupercuspidalNbhd,
    cvf_report,
    geometric_conductor_scan,
)
from . import engine


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _ext_choices(p: int) -> dict[str, int]:
    if p == 2:
        return {"unramified": 0, "d2": 1, "d2b": 2, "d3": 3, "d3b": 4, "d3c": 5, "d3d": 6}
    return {"unramified": 0, "ramified": 1, "ramified2": 2}


def build_family(args):
    """A LocalTestFunction from CLI flags."""
    p = args.p
    if args.family == "classical":
        return Classical(p, args.c)
    if args.family == "nelson":
        return NelsonEq(p, args.c)
    if args.family == "ps":
        cands = [
            chi
            for chi in enumerate_dirichlet(p, args.chi_conductor)
            if chi.is_primitive() and chi.order() > 2
        ]
        if not cands:
            raise ValueError("no admissible chi at that conductor")
        return PrincipalSeries(cands[args.chi_index % len(cands)])
    ext = standard_extensions(p)[_ext_choices(p)[args.ext]]
    xs = enumerate_xi(ext, args.cxi, eta_restriction(ext), regular_only=True)
    if not xs:
        raise ValueError("no regular xi with the eta restriction there")
    xi = xs[args.xi_index % len(xs)]
    if args.family == "supercuspidal":
        return Supercuspidal(xi)
    return SupercuspidalNbhd(xi, args.n_radius)


def _add_family_flags(sp):
    sp.add_argument("--family", required=True,
                    choices=["classical", "ps", "supercuspidal", "nbhd", "nelson"])
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--c", type=int, default=1, help="c for classical / nelson")
    sp.add_argument("--chi-conductor", type=int, default=1)
    sp.add_argument("--chi-index", type=int, default=0)
    sp.add_argument("--ext", default="unramified")
    sp.add_argument("--cxi", type=int, default=1)
    sp.add_argument("--xi-index", type=int, default=0)
    sp.add_argument("--n-radius", type=int, default=0, help="n for the nbhd family")


def _parse_range(spec: str) -> list[int]:
    if ".." in spec:
        lo, hi = spec.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in spec.split(",")]


def _emit(rows, header, args):
    out = sys.stdout if args.out in (None, "-") else open(args.out, "w")
    try:
        if args.format == "json":
            for row in rows:
                out.write(json.dumps(dict(zip(header, row)), sort_keys=True) + "\n")
        else:
            out.write(",".join(header) + "\n")
            for row in rows:
                out.write(",".join(str(x) for x in row) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()


def _klsum_rows(tf, grid):
    rows = []
    for m, n, k in grid:
        val = engine.h_local(tf, m, n, k)
        rows.append(
            (tf.tag, tf.p, k, m, n, _fmt(val.value.real), _fmt(val.value.imag),
             val.vanishing_reason or "nonzero")
        )
    return rows


def cmd_klsum(args):
    if args.jobs < 1:
        raise ValueError("--jobs must be at least 1")
    jobs = min(args.jobs, os.cpu_count() or 1)
    tf = build_family(args)
    p = args.p
    ks = _parse_range(args.k)
    for k in ks:
        check_capacity(p, k)
    grid = []
    for k in ks:
        pk = p**k
        if args.grid == "units":
            for t in range(1, pk):
                if t % p:
                    grid.append((t, 1, k))
            if pk == 1:
                grid.append((0, 1, k))
        else:
            for m in _parse_range(args.m):
                for n in _parse_range(args.n):
                    grid.append((m, n, k))
    if jobs > 1:
        rows = _parallel_klsum(args, grid, jobs)
    else:
        rows = _klsum_rows(tf, grid)
    _emit(rows, ("family", "p", "k", "m", "n", "re", "im", "vanishing_reason"), args)
    return 0


_WORKER = {}


def _worker_init(argdict):
    ns = argparse.Namespace(**argdict)
    _WORKER["tf"] = build_family(ns)


def _worker_eval(chunk):
    return _klsum_rows(_WORKER["tf"], chunk)


def _parallel_klsum(args, grid, jobs):
    from concurrent.futures import ProcessPoolExecutor

    argdict = vars(args).copy()
    for drop in ("func", "jobs", "out", "format", "k", "m", "n", "grid"):
        argdict.pop(drop, None)
    chunks = [grid[i :: jobs] for i in range(jobs)]
    with ProcessPoolExecutor(jobs, initializer=_worker_init, initargs=(argdict,)) as ex:
        parts = list(ex.map(_worker_eval, chunks))
    merged = [row for part in parts for row in part]
    merged.sort(key=lambda r: (r[2], r[3], r[4]))
    return merged


def cmd_mellin(args):
    tf = build_family(args)
    rows = []
    for k in _parse_range(args.k):
        for alpha in enumerate_dirichlet(args.p, k):
            d = engine.mellin_direct(tf, alpha, k)
            c = engine.mellin_closed(tf, alpha, k)
            rows.append(
                (tf.tag, args.p, k, "+".join(map(str, alpha.exps)),
                 _fmt(d.real), _fmt(d.imag), _fmt(c.real), _fmt(c.imag),
                 _fmt(abs(d - c)))
            )
    _emit(rows, ("family", "p", "k", "alpha", "direct_re", "direct_im",
                 "closed_re", "closed_im", "abs_err"), args)
    return 0


def cmd_conductor(args):
    tf = build_family(args)
    closed = tf.k_p()
    scanned = geometric_conductor_scan(tf, closed + args.slack)
    row = (tf.tag, args.p, closed, scanned, closed == scanned)
    _emit([row], ("family", "p", "k_p_closed", "k_p_scan", "match"), args)
    return 0 if closed == scanned else 2


def cmd_bounds(args):
    tf = build_family(args)
    rows = []
    for k in _parse_range(args.k):
        for m in _parse_range(args.m):
            for n in _parse_range(args.n):
                for item in engine.bound_report(tf, m, n, k):
                    rows.append(
                        (tf.tag, args.p, k, m, n, item.name, _fmt(item.bound),
                         _fmt(item.magnitude), item.satisfied)
                    )
    _emit(rows, ("family", "p", "k", "m", "n", "bound", "value", "magnitude",
                 "satisfied"), args)
    return 0 if all(r[-1] for r in rows) else 2


def cmd_family_info(args):
    tf = build_family(args)
    cvf = cvf_report(tf)
    info = {
        "family": tf.tag,
        "p": tf.p,
        "f_one": str(tf.f_one()),
        "delta_p": str(tf.delta_p()),
        "level_exponent": tf.level_exponent(),
        "k_p": tf.k_p(),
        "support_exponent": tf.support_exponent(),
        "cvf_ratio": str(cvf.ratio),
        "cvf_holds": cvf.holds,
    }
    if isinstance(tf, (Supercuspidal, SupercuspidalNbhd)):
        base = tf.base if isinstance(tf, SupercuspidalNbhd) else tf
        info["c_sigma"] = base.c_sigma
        info["d"] = base.d
        gamma = engine.langlands_gamma(base.ext)
        info["gamma_re"], info["gamma_im"] = _fmt(gamma.real), _fmt(gamma.imag)
    sys.stdout.write(json.dumps(info, sort_keys=True) + "\n")
    return 0


def cmd_char_enum(args):
    ext = standard_extensions(args.p)[_ext_choices(args.p)[args.ext]]
    xs = enumerate_xi(ext, args.cxi, eta_restriction(ext))
    rows = []
    for i, xi in enumerate(xs):
        rows.append(
            (args.p, ext.label(), args.cxi, i, is_regular(xi),
             is_twist_minimal(xi), str(xi.unif_phase))
        )
    _emit(rows, ("p", "ext", "c_xi", "index", "regular", "twist_minimal",
                 "unif_phase"), args)
    return 0


def cmd_identities(args):
    failures = []
    ran = 0
    if args.suite in ("degeneration", "all"):
        ran += _suite_degeneration(args.p, failures)
    if args.suite in ("averaging", "all"):
        ran += _suite_averaging(args.p, failures)
    if args.suite in ("stationary", "all"):
        ran += _suite_stationary(args.p, failures)
    if args.suite in ("mellin", "all"):
        ran += _suite_mellin(args.p, failures)
    status = "pass" if not failures else "FAIL"
    sys.stdout.write(
        json.dumps({"suite": args.suite, "p": args.p, "checks": ran,
                    "failures": failures[:20], "status": status}) + "\n"
    )
    return 0 if not failures else 2


def _sc_families(p, max_c_sigma=4):
    from .extchars import sigma_conductor

    out = []
    for ext in standard_extensions(p):
        restr = eta_restriction(ext)
        cands = [1, 2] if ext.e == 1 else [2]
        if p == 2:
            cands = [5] if ext.e == 1 else [8]
        for c in cands:
            for xi in enumerate_xi(ext, c, restr, regular_only=True):
                if p != 2 and sigma_conductor(xi) > max_c_sigma:
                    continue
                out.append(Supercuspidal(xi))
    return out


def _suite_degeneration(p, failures):
    from .families import zeta_p

    ran = 0
    for tf in _sc_families(p):
        cs = tf.c_sigma
        for k in (cs, cs + 1):
            pk = p**k
            hv = engine.h_local_vector(tf, k)
            ts = [t for t in range(pk) if t % p]
            sv = engine.classical_S_many(ts, [1] * len(ts), pk)
            pref = float(tf.f_one() * zeta_p(p))
            err = max(abs(hv[t] - pref * s) for t, s in zip(ts, sv))
            ran += len(ts)
            if err > 1e-9:
                failures.append(f"degeneration {tf.tag} p={p} k={k} err={err:.2e}")
    return ran


def _suite_averaging(p, failures):
    from .extchars import sigma_conductor
    from .families import twist_minimal_conductor

    ran = 0
    kmax = {2: 9, 3: 6, 5: 4}.get(p, 3)
    for tf in _sc_families(p):
        xi = tf.xi
        cs = tf.c_sigma
        a = 1 if (p == 2 and tf.ext.e == 1) else 0
        for n in range(a, twist_minimal_conductor(xi)):
            for k in range(max(-(-cs // 2), 2), kmax + 1):
                for m in (1, 2):
                    try:
                        engine.averaging_identity_check(xi, n, m, k)
                        ran += 1
                    except AssertionError as exc:
                        failures.append(str(exc)[:200])
    return ran


def _suite_stationary(p, failures):
    from .extchars import sigma_conductor

    ran = 0
    for tf in _sc_families(p):
        xi = tf.xi
        cs = tf.c_sigma
        if p == 2 and cs < 5:
            continue
        for k in range(max(-(-cs // 2), 2), 12):
            pk = p**k
            if pk * pk > 10**6:
                break
            us = list(tf.ext.units(k))
            for u0 in us[:: max(1, len(us) // 25)]:
                closed = engine.stationary_phase_R(xi, k, u0)
                brute = engine.stationary_phase_R_brute(xi, k, u0)
                ran += 1
                if abs(closed - brute) > 1e-10:
                    failures.append(
                        f"stationary {tf.ext.label()} k={k} u0={u0} "
                        f"closed={closed} brute={brute}"
                    )
    return ran


def _suite_mellin(p, failures):
    ran = 0
    fams = [Classical(p, 1), NelsonEq(p, 3)] + _sc_families(p)
    for tf in fams:
        for k in range(0, 6):
            if p**k > 3000:
                break
            for alpha in enumerate_dirichlet(p, k):
                d = engine.mellin_direct(tf, alpha, k)
                c = engine.mellin_closed(tf, alpha, k)
                ran += 1
                if abs(d - c) > 1e-8:
                    failures.append(
                        f"mellin {tf.tag} p={p} k={k} exps={alpha.exps} "
                        f"direct={d} closed={c}"
                    )
    return ran


def cmd_petersson_verify(args):
    from .petersson import ingest_eigendata, ratio_verify

    kappas = [int(k) for k in args.kappa.split(",")]
    pairs = [(m, n) for m in range(1, args.mmax + 1) for n in range(1, args.mmax + 1)]
    eigen = None
    if args.eigen_cache:
        eigen = {
            kappa: ingest_eigendata(args.eigen_cache, 1, kappa) for kappa in kappas
        }
    rep = ratio_verify(kappas, pairs, c_max=args.cmax, eigen=eigen)
    ok = rep["max_deviation"] < args.tol
    sys.stdout.write(
        json.dumps({"kappas": kappas, "mmax": args.mmax, "cmax": args.cmax,
                    "max_deviation": rep["max_deviation"],
                    "status": "pass" if ok else "FAIL"}) + "\n"
    )
    return 0 if ok else 2


def main(argv=None) -> int:
    parser = _Parser(prog="genkl")
    parser.add_argument("--format", choices=["json", "csv"], default="csv")
    parser.add_argument("--out", default="-")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("klsum")
    _add_family_flags(sp)
    sp.add_argument("--k", required=True, help="k or a..b or comma list")
    sp.add_argument("--grid", choices=["units", "mn"], default="units")
    sp.add_argument("--m", default="1")
    sp.add_argument("--n", default="1")
    sp.add_argument("--jobs", type=int, default=1,
                    help="worker processes, at most the number of CPUs")
    sp.set_defaults(func=cmd_klsum)

    sp = sub.add_parser("mellin")
    _add_family_flags(sp)
    sp.add_argument("--k", required=True)
    sp.set_defaults(func=cmd_mellin)

    sp = sub.add_parser("conductor")
    _add_family_flags(sp)
    sp.add_argument("--slack", type=int, default=2)
    sp.set_defaults(func=cmd_conductor)

    sp = sub.add_parser("bounds")
    _add_family_flags(sp)
    sp.add_argument("--k", required=True)
    sp.add_argument("--m", default="1")
    sp.add_argument("--n", default="1")
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("identities")
    sp.add_argument("--suite", required=True,
                    choices=["degeneration", "averaging", "stationary", "mellin", "all"])
    sp.add_argument("--p", type=int, required=True)
    sp.set_defaults(func=cmd_identities)

    sp = sub.add_parser("petersson-verify")
    sp.add_argument("--kappa", default="12")
    sp.add_argument("--mmax", type=int, default=5)
    sp.add_argument("--cmax", type=int, default=600)
    sp.add_argument("--tol", type=float, default=1e-6)
    sp.add_argument("--eigen-cache", default=None,
                    help="JSONL eigenvalue cache; omitted = builtin oracle")
    sp.set_defaults(func=cmd_petersson_verify)

    sp = sub.add_parser("char-enum")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--ext", default="unramified")
    sp.add_argument("--cxi", type=int, required=True)
    sp.set_defaults(func=cmd_char_enum)

    sp = sub.add_parser("family-info")
    _add_family_flags(sp)
    sp.set_defaults(func=cmd_family_info)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapacityError as exc:
        sys.stderr.write(f"capacity exceeded: {exc}\n")
        return 3
    except (ValueError, FileNotFoundError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
