"""Per-layer timing by wrapping charbounds' public functions from outside.

Nothing in src/ is instrumented.  Modules import one another's functions
by name (compactcert binds solve_zero_dim, corners and derivation_matrix
in its own namespace), so every module attribute that holds a target
function is replaced, not just the defining one.  A call made while the
same function is already active counts as a call but adds no time, so
recursion is not counted twice.  Self time is a span's duration minus
the time of the wrapped spans it directly contains.
"""

import functools
import os
import sys
import time

TARGETS = (
    ("algsolve", "solve_zero_dim"),
    ("algsolve", "groebner"),
    ("algsolve", "fglm_lex"),
    ("algsolve", "isolate_real_roots"),
    ("rootdata", "corners"),
    ("compactcert", "extremum"),
    ("compactcert", "critical_ideal"),
    ("compactcert", "is_compact_point"),
    ("charring", "expand"),
    ("charring", "decompose"),
    ("charring", "irreducible_character"),
    ("invder", "derivation_matrix"),
    ("branch", "branch_minimize"),
    ("su2asym", "su2_min"),
)


class _Stat:
    __slots__ = ("calls", "total", "self_time", "active", "results")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.active = False
        self.results = 0  # points found, or cache hits


def _result_count(name, result):
    if name == "solve_zero_dim":
        return len(result)
    if name == "derivation_matrix":
        return int(bool(result.cache_hit))
    return 0


class Tracer:
    """Install with install(), read with counters(), remove with uninstall()."""

    def __init__(self):
        self.stats = {"%s.%s" % t: _Stat() for t in TARGETS}
        self._stack = []
        self._patched = []  # (namespace object, attribute, original)

    def _wrap(self, key, name, fn):
        stat = self.stats[key]
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            if stat.active:
                return fn(*args, **kwargs)
            stat.active = True
            child = [0.0]
            stack.append(child)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                stat.results += _result_count(name, result)
                return result
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                stat.active = False
                stat.total += dt
                stat.self_time += dt - child[0]
                if stack:
                    stack[-1][0] += dt

        return wrapper

    def install(self):
        import importlib

        mods = [
            m
            for n, m in list(sys.modules.items())
            if m is not None and (n == "charbounds" or n.startswith("charbounds."))
        ]
        for module, name in TARGETS:
            home = importlib.import_module("charbounds." + module)
            original = getattr(home, name)
            wrapper = self._wrap("%s.%s" % (module, name), name, original)
            for m in mods:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, original))

    def uninstall(self):
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def counters(self):
        """Flat dict of per-layer figures for everything recorded so far."""
        out = {}
        for key, s in self.stats.items():
            out[key + ".calls"] = s.calls
            out[key + ".s"] = s.total
            out[key + ".self_s"] = s.self_time
        out["algsolve.points"] = self.stats["algsolve.solve_zero_dim"].results
        out["invder.derivation_matrix.cache_hits"] = self.stats[
            "invder.derivation_matrix"
        ].results
        return out


def merge(into, counters):
    for k, v in counters.items():
        into[k] = into.get(k, 0) + v


def directory_bytes(path):
    total = 0
    for root, _, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(root, f))
    return total
