"""Batch front-end: tables of sums, transforms, conductors, bounds, and
verification runs, emitted as JSON or CSV.

Output is deterministic for a fixed configuration: grids are walked in
ascending order and floats are printed at 12 significant digits.  Exit
codes: 0 pass, 1 usage error, 2 identity-suite failure, 3 capacity
exceeded.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import sys

import numpy as np

from .padic import CapacityError, check_capacity, enumerate_dirichlet, is_prime
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
    sp.add_argument("--p", type=_prime, required=True)
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


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _prime(text: str) -> int:
    p = _int(text)
    if not is_prime(p):
        raise argparse.ArgumentTypeError(f"p must be a prime, got {p}")
    return p


def _nonnegative(text: str) -> int:
    n = _int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def _k_values(text: str) -> list[int]:
    """--k: k, a..b or a comma list, every k >= 0."""
    try:
        ks = _parse_range(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid k, a..b or comma list: {text!r}") from None
    if min(ks, default=0) < 0:
        raise argparse.ArgumentTypeError(f"k must be >= 0, got {text}")
    return ks


def _emit(text: str, args):
    """Write a command's whole output in one call, to stdout or --out."""
    if args.out in (None, "-"):
        sys.stdout.write(text)
        return
    with open(args.out, "w") as out:
        out.write(text)


def _table(rows, header, fmt: str) -> str:
    """CSV under a header line, or one JSON object per row, keys sorted."""
    if fmt == "json":
        return "".join(json.dumps(dict(zip(header, row)), sort_keys=True) + "\n" for row in rows)
    return "".join(",".join(map(str, row)) + "\n" for row in [header, *rows])


def _klsum_block(tf, k: int, ms, ns, fmt: str) -> str:
    """The table rows of one k, from one h_local_many call, as one string.

    The per-row columns are interleaved into one tuple and formatted by a
    single % over the row template repeated once per row; %.12g prints a
    float as _fmt does.  The JSON template lists its keys in sorted order,
    as json.dumps(..., sort_keys=True) does, with re and im as strings.
    """
    vals, reasons = engine.h_local_many(tf, ms, ns, k)
    m = ms.tolist() if isinstance(ms, np.ndarray) else list(ms)
    n = ns.tolist() if isinstance(ns, np.ndarray) else list(ns)
    re, im = vals.real.tolist(), vals.imag.tolist()
    reason = [r or "nonzero" for r in reasons]
    if fmt == "json":
        template = (
            f'{{"family": "{tf.tag}", "im": "%.12g", "k": {k}, "m": %d, "n": %d, '
            f'"p": {tf.p}, "re": "%.12g", "vanishing_reason": "%s"}}\n'
        )
        columns = (im, m, n, re, reason)
    else:
        template = f"{tf.tag},{tf.p},{k},%d,%d,%.12g,%.12g,%s\n"
        columns = (m, n, re, im, reason)
    flat = [None] * (len(columns) * len(vals))
    for i, column in enumerate(columns):
        flat[i::len(columns)] = column
    return (template * len(vals)) % tuple(flat)


def cmd_klsum(args):
    tf = build_family(args)
    p = args.p
    for k in args.k:
        check_capacity(p, k)
    if args.grid == "mn":
        grid = list(itertools.product(_parse_range(args.m), _parse_range(args.n)))
        ms = [m for m, _ in grid]
        ns = [n for _, n in grid]
    blocks = [] if args.format == "json" else ["family,p,k,m,n,re,im,vanishing_reason\n"]
    for k in args.k:
        if args.grid == "units":
            t = np.arange(1, p**k)
            # at k = 0 the one class mod 1 is 0
            ms = t[t % p != 0] if k else np.zeros(1, dtype=np.int64)
            ns = np.ones(len(ms), dtype=np.int64)
        blocks.append(_klsum_block(tf, k, ms, ns, args.format))
    _emit("".join(blocks), args)
    return 0


def cmd_mellin(args):
    tf = build_family(args)
    rows = []
    for k in args.k:
        direct, closed = engine.mellin_direct_all(tf, k), engine.mellin_closed_all(tf, k)
        for exps in np.ndindex(direct.shape):
            d, c = direct[exps], closed[exps]
            rows.append(
                (tf.tag, args.p, k, "+".join(map(str, exps)),
                 _fmt(d.real), _fmt(d.imag), _fmt(c.real), _fmt(c.imag),
                 _fmt(abs(d - c)))
            )
    _emit(_table(rows, ("family", "p", "k", "alpha", "direct_re", "direct_im",
                        "closed_re", "closed_im", "abs_err"), args.format), args)
    return 0


def cmd_conductor(args):
    tf = build_family(args)
    closed = tf.k_p()
    scanned = geometric_conductor_scan(tf, closed + args.slack)
    row = (tf.tag, args.p, closed, scanned, closed == scanned)
    _emit(_table([row], ("family", "p", "k_p_closed", "k_p_scan", "match"), args.format), args)
    return 0 if closed == scanned else 2


def cmd_bounds(args):
    tf = build_family(args)
    rows = []
    for k in args.k:
        for m in _parse_range(args.m):
            for n in _parse_range(args.n):
                for item in engine.bound_report(tf, m, n, k):
                    rows.append(
                        (tf.tag, args.p, k, m, n, item.name, _fmt(item.bound),
                         _fmt(item.magnitude), item.satisfied)
                    )
    _emit(_table(rows, ("family", "p", "k", "m", "n", "bound", "value", "magnitude",
                        "satisfied"), args.format), args)
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
    _emit(_table(rows, ("p", "ext", "c_xi", "index", "regular", "twist_minimal",
                        "unif_phase"), args.format), args)
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


def _sc_families(p):
    """The identity suites' supercuspidal families: every regular xi at the
    seed conductors of each standard extension, c(sigma) <= 4 at odd p."""
    from .extchars import seed_conductors, sigma_conductor

    out = []
    for ext in standard_extensions(p):
        restr = eta_restriction(ext)
        for c in seed_conductors(ext):
            for xi in enumerate_xi(ext, c, restr, regular_only=True):
                if p != 2 and sigma_conductor(xi) > 4:
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
            units = np.arange(pk) % p != 0
            hv = engine.h_local_vector(tf, k)[units]
            sv = engine.h_local_vector(Classical(p, 0), k)[units]
            pref = float(tf.f_one() * zeta_p(p))
            err = np.abs(hv - pref * sv).max()
            ran += int(units.sum())
            if err > 1e-9:
                failures.append(f"degeneration {tf.tag} p={p} k={k} err={err:.2e}")
    return ran


def _suite_averaging(p, failures):
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
            # every step-th unit pair, in the order of ext.units(k)
            unit_a = np.arange(pk) % p != 0
            units = np.flatnonzero(unit_a[:, None] | (unit_a & (tf.ext.e == 1)))
            u0s = [divmod(f, pk) for f in units[:: max(1, len(units) // 25)].tolist()]
            brute = engine.stationary_phase_R_brute(xi, k, u0s).tolist()
            for u0, b in zip(u0s, brute):
                closed = engine.stationary_phase_R(xi, k, u0)
                ran += 1
                if abs(closed - b) > 1e-10:
                    failures.append(
                        f"stationary {tf.ext.label()} k={k} u0={u0} "
                        f"closed={closed} brute={b}"
                    )
    return ran


def _suite_mellin(p, failures):
    ran = 0
    fams = [Classical(p, 1), NelsonEq(p, 3)] + _sc_families(p)
    for tf in fams:
        for k in range(0, 6):
            if p**k > 3000:
                break
            direct, closed = engine.mellin_direct_all(tf, k), engine.mellin_closed_all(tf, k)
            ran += direct.size
            for exps in map(tuple, np.argwhere(np.abs(direct - closed) > 1e-8).tolist()):
                failures.append(
                    f"mellin {tf.tag} p={p} k={k} exps={exps} "
                    f"direct={direct[exps]} closed={closed[exps]}"
                )
    return ran


def cmd_petersson_verify(args):
    from .petersson import check_ratio_capacity, ingest_eigendata, ratio_verify

    kappas = [int(k) for k in args.kappa.split(",")]
    if args.mmax < 1:
        raise ValueError("--mmax must be >= 1")
    # ratio_verify's columns: the unordered pairs m <= n <= mmax, (1, 1) among them
    check_ratio_capacity(mn_max=args.mmax**2, n_pairs=args.mmax * (args.mmax + 1) // 2, c_max=args.cmax)
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


def _klsum_flags(sp):
    _add_family_flags(sp)
    sp.add_argument("--k", required=True, type=_k_values, help="k or a..b or comma list")
    sp.add_argument("--grid", choices=["units", "mn"], default="units")
    sp.add_argument("--m", default="1")
    sp.add_argument("--n", default="1")


def _mellin_flags(sp):
    _add_family_flags(sp)
    sp.add_argument("--k", required=True, type=_k_values)


def _conductor_flags(sp):
    _add_family_flags(sp)
    sp.add_argument("--slack", type=_nonnegative, default=2)


def _bounds_flags(sp):
    _add_family_flags(sp)
    sp.add_argument("--k", required=True, type=_k_values)
    sp.add_argument("--m", default="1")
    sp.add_argument("--n", default="1")


def _identities_flags(sp):
    sp.add_argument("--suite", required=True,
                    choices=["degeneration", "averaging", "stationary", "mellin", "all"])
    sp.add_argument("--p", type=_prime, required=True)


def _petersson_verify_flags(sp):
    sp.add_argument("--kappa", default="12")
    sp.add_argument("--mmax", type=int, default=5)
    sp.add_argument("--cmax", type=int, default=600)
    sp.add_argument("--tol", type=float, default=1e-6)
    sp.add_argument("--eigen-cache", default=None,
                    help="JSONL eigenvalue cache; omitted = builtin oracle")


def _char_enum_flags(sp):
    sp.add_argument("--p", type=_prime, required=True)
    sp.add_argument("--ext", default="unramified")
    sp.add_argument("--cxi", type=int, required=True)


# name -> (command, flag builder), in the order of genkl --help
COMMANDS = {
    "klsum": (cmd_klsum, _klsum_flags),
    "mellin": (cmd_mellin, _mellin_flags),
    "conductor": (cmd_conductor, _conductor_flags),
    "bounds": (cmd_bounds, _bounds_flags),
    "identities": (cmd_identities, _identities_flags),
    "petersson-verify": (cmd_petersson_verify, _petersson_verify_flags),
    "char-enum": (cmd_char_enum, _char_enum_flags),
    "family-info": (cmd_family_info, _add_family_flags),
}


def _parser(names):
    parser = _Parser(prog="genkl")
    parser.add_argument("--format", choices=["json", "csv"], default="csv")
    parser.add_argument("--out", default="-")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in names:
        COMMANDS[name][1](sub.add_parser(name))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse builds a help formatter for every flag it registers, so only
    # the command named in argv gets its subparser and flags.  Help and
    # usage errors name every command: they come from a second parse with
    # all of them registered.
    named = next((a for a in argv if a in COMMANDS), None)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            args = _parser([named] if named else COMMANDS).parse_args(argv)
    except SystemExit:
        args = _parser(COMMANDS).parse_args(argv)
    try:
        return COMMANDS[args.command][0](args)
    except CapacityError as exc:
        sys.stderr.write(f"capacity exceeded: {exc}\n")
        return 3
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
