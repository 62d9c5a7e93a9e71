"""Run one genkl CLI command in a fresh interpreter, as a user meets it.

Usage: python3 perfbench/child.py [--trace] [--setup-only] -- <genkl args>

The process imports genkl with its numpy/scipy dependencies, then prints
the line "ready" so that the parent can time set-up.  It then runs the
command through `genkl.cli.main` with standard output captured, and prints
one JSON line: exit code, run time, peak resident memory, `genkl.BACKEND`,
the captured output and, with --trace, the per-layer counters.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time


def main(argv: list[str]) -> int:
    sep = argv.index("--") if "--" in argv else len(argv)
    flags, cli_args = argv[:sep], argv[sep + 1:]
    import genkl
    import genkl.cli
    import genkl.petersson  # noqa: F401  (scipy.special, needed by petersson-verify)

    print("ready", flush=True)
    if "--setup-only" in flags:
        return 0
    tracer = None
    if "--trace" in flags:
        import tracer as tracing

        tracer = tracing.install()
    captured = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(captured):
        rc = genkl.cli.main(cli_args)
    run_s = time.perf_counter() - t0
    result = {
        "rc": rc,
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "backend": genkl.BACKEND,
        "stdout": captured.getvalue(),
        "trace": tracer.snapshot() if tracer is not None else None,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
