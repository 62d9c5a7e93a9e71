"""Per-layer tracing of genkl from outside the package.

`install()` wraps the public functions and methods listed in TRACED with
timing wrappers.  A wrapper counts calls, cumulative time (outermost call
only, so recursion is not counted twice) and self time (its own duration
minus the part covered by other wrapped calls it made).  A name that other
genkl modules imported with `from ... import` is replaced in every genkl
module that holds it, so those call sites are traced too.

Nothing inside `src/` is changed: the wrappers live in this process only.
A traced name that the package no longer has makes install() raise, so a
renamed function fails the traced run instead of reading 0.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, attribute path) of every wrapped callable.  Each yields the
# metrics "<module>.<path>.calls", ".s" and ".self_s".
TRACED = [
    ("kernels", "dihedral_bucket"),
    ("kernels", "kloosterman_many"),
    ("kernels", "unit_inverses"),
    ("engine", "h_local"),
    ("engine", "h_local_vector"),
    ("engine", "I_xi_vector"),
    ("engine", "mellin_direct"),
    ("engine", "mellin_closed"),
    ("engine", "composed_conductor"),
    ("engine", "classical_S_many"),
    ("extchars", "ExtCharacter.unit_phase"),
    ("extchars", "enumerate_xi"),
    ("padic", "DirichletCharacter.__call__"),
    ("padic", "gauss_sum_at_level"),
    ("quadext", "QuadExtension.is_unit"),
    ("families", "SupercuspidalNbhd.index"),
    ("families", "Supercuspidal.c_sigma"),
    ("petersson", "ratio_verify"),
    ("petersson", "builtin_eigendata"),
    ("cli", "build_family"),
    ("cli", "_emit"),
]

TRACED_NAMES = [f"{mod}.{path}" for mod, path in TRACED]


class Tracer:
    """Counters filled by the wrappers of one process."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, cumulative s, self s]
        self.bucket_pairs = 0  # (a, b) pairs mod p^k visited by dihedral_bucket
        self.bucket_triples: set = set()  # distinct (p, A, B, k, M) given to it
        self.kloosterman_terms = 0  # len(ms) * phi(c) summed by kloosterman_many
        self._depth: dict[str, int] = {}
        self._inner = [0.0]  # stack: time spent in wrapped callees of each frame

    def wrap(self, name, fn, hook=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        depth = self._depth
        inner = self._inner
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if hook is not None:
                hook(*args, **kwargs)
            level = depth.get(name, 0)
            depth[name] = level + 1
            inner.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                depth[name] = level
                callee = inner.pop()
                inner[-1] += dt
                stats[0] += 1
                stats[2] += dt - callee
                if level == 0:
                    stats[1] += dt

        return functools.update_wrapper(traced, fn)

    def _bucket_hook(self, p, k, A, B, xi_table, m_red):
        self.bucket_pairs += p ** (2 * k)
        self.bucket_triples.add((p, A, B, k, m_red))

    def _kloosterman_hook(self, ms, ns, c, xs, xinvs):
        self.kloosterman_terms += len(ms) * len(xs)

    def snapshot(self) -> dict:
        """Counters of this process, plus the sizes of genkl's own caches."""
        engine = sys.modules["genkl.engine"]
        quadext = sys.modules["genkl.quadext"]
        inverses = engine._unit_inverses.cache_info()
        caches = {
            "unit_inverses_hits": inverses.hits,
            "unit_inverses_misses": inverses.misses,
            "h_vec_entries": len(engine._H_VEC_CACHE),
            "unit_group_misses": quadext.unit_group.cache_info().misses,
        }
        return {
            "stats": self.stats,
            "bucket_pairs": self.bucket_pairs,
            "bucket_triples": sorted(self.bucket_triples),
            "kloosterman_terms": self.kloosterman_terms,
            "caches": caches,
        }


def _genkl_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "genkl" or name.startswith("genkl."))]


def install() -> Tracer:
    """Wrap every callable in TRACED; call after genkl is imported."""
    tracer = Tracer()
    hooks = {
        "kernels.dihedral_bucket": tracer._bucket_hook,
        "kernels.kloosterman_many": tracer._kloosterman_hook,
    }
    for mod_name, path in TRACED:
        name = f"{mod_name}.{path}"
        module = importlib.import_module(f"genkl.{mod_name}")
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            raw = vars(owner)[attr]
            if isinstance(raw, property):
                new = property(tracer.wrap(name, raw.fget), raw.fset, raw.fdel, raw.__doc__)
            else:
                new = tracer.wrap(name, raw)
            setattr(owner, attr, new)
            continue
        orig = getattr(module, attr)
        wrapped = tracer.wrap(name, orig, hooks.get(name))
        for mod in _genkl_modules():
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapped)
    return tracer
