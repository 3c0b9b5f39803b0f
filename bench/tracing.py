"""Span tracing of the bergseq layers, installed from the benchmark side.

`Tracer.install` replaces every public function of the traced modules
with a recording wrapper, in every bergseq namespace that binds it (the
defining module, the modules that imported it by name, and the package
itself), so calls made inside the program are recorded as well as calls
made by the benchmark.  `uninstall` puts the original objects back.

A span is (name, start, end, parent); spans live in flat arrays while
the run lasts and are written out once at the end.  A layer's self time
is the duration of its spans minus the part covered by their children.
Work counters are kept at the same boundaries: quadrature nodes and
levels (by wrapping the integrand each quadrature call receives),
translates returned, centers chosen, and non-converged quadratures.
"""

from __future__ import annotations

import inspect
import json
import math
import time
from array import array

import numpy as np

MODULES = ("geometry", "quadrature", "weights", "sequences", "kernels", "verify", "cli")
# the functions whose level loop raises QuadratureNotConverged; callers only pass it on
_LEVEL_LOOPS = ("quadrature.polar_integral", "quadrature.radial_log_mean")


class Tracer:
    def __init__(self, package, modules):
        self.package = package
        self.modules = modules            # short name -> module object
        self.names = []                   # span name table
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.counts = {}                  # counter name -> float
        self.center_calls = []            # (points, centers) for coverage radius
        self._patched = []                # (namespace, attribute, original)

    # -- recording --------------------------------------------------------

    def _nid(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def _wrap(self, name, fn):
        nid = self._nid(name)
        hook = _HOOKS.get(name)
        tracer = self
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if hook is not None:
                args, kwargs = hook.before(tracer, args, kwargs)
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.start.append(perf())
            tracer.end.append(0.0)
            tracer.stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if type(exc).__name__ == "QuadratureNotConverged" and name in _LEVEL_LOOPS:
                    tracer.count("quadrature.not_converged")
                raise
            finally:
                tracer.end[idx] = perf()
                tracer.stack.pop()
            if hook is not None:
                hook.after(tracer, args, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def open_span(self, name):
        """A benchmark-side span around one operation; returns its index."""
        idx = len(self.start)
        self.name_id.append(self._nid(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def close_span(self, idx):
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    # -- installation -----------------------------------------------------

    def install(self):
        namespaces = [self.package] + list(self.modules.values())
        for short, mod in self.modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                wrapped = self._wrap(f"{short}.{attr}", obj)
                for ns in namespaces:
                    if getattr(ns, attr, None) is obj:
                        self._patched.append((ns, attr, obj))
                        setattr(ns, attr, wrapped)

    def uninstall(self):
        for ns, attr, obj in reversed(self._patched):
            setattr(ns, attr, obj)
        self._patched.clear()

    # -- reduction --------------------------------------------------------

    def span_arrays(self):
        nid = np.frombuffer(self.name_id, dtype=np.int32) if len(self.name_id) else np.empty(0, np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64) if len(self.parent) else np.empty(0, np.int64)
        start = np.frombuffer(self.start, dtype=np.float64) if len(self.start) else np.empty(0)
        end = np.frombuffer(self.end, dtype=np.float64) if len(self.end) else np.empty(0)
        return nid, parent, start, end

    def self_times(self):
        """name -> (calls, total self seconds) over every recorded span."""
        nid, parent, start, end = self.span_arrays()
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        if np.any(has_parent):
            child += np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        own = dur - child
        calls = np.bincount(nid, minlength=len(self.names))
        selfs = np.bincount(nid, weights=own, minlength=len(self.names))
        return {name: (int(calls[i]), float(selfs[i])) for i, name in enumerate(self.names)}

    def write(self, path):
        nid, parent, start, end = self.span_arrays()
        t0 = float(start.min()) if start.size else 0.0
        np.savez_compressed(
            path,
            name=nid,
            parent=parent,
            start=start - t0,
            end=end - t0,
            names=np.asarray(self.names, dtype=str),
            counts=np.asarray(json.dumps(self.counts, sort_keys=True)),
        )


class _Hook:
    def before(self, tracer, args, kwargs):
        return args, kwargs

    def after(self, tracer, args, out):
        pass


class _QuadratureHook(_Hook):
    """Counts integrand samples and node-doubling levels of one rule."""

    def __init__(self, key, levels):
        self.key = key
        self.levels = levels

    def before(self, tracer, args, kwargs):
        if not args:
            return args, kwargs
        f = args[0]
        key, levels = self.key, self.levels

        def counted(x):
            out = f(x)
            n = np.size(x)
            tracer.count(f"{key}.nodes", n)
            if levels and np.ndim(x) > 0:
                tracer.count(f"{key}.levels")
            return out

        return (counted,) + tuple(args[1:]), kwargs


class _TranslatesHook(_Hook):
    def after(self, tracer, args, out):
        tracer.count("weights.lifted_translates.translates", int(np.size(out)))


class _CenterNetHook(_Hook):
    def after(self, tracer, args, out):
        tracer.count("sequences.center_net.centers", int(np.size(out)))
        tracer.center_calls.append((np.asarray(args[0], dtype=complex), np.asarray(out, dtype=complex)))


_HOOKS = {
    "quadrature.polar_integral": _QuadratureHook("quadrature.polar_integral", levels=True),
    "quadrature.radial_log_mean": _QuadratureHook("quadrature.radial_log_mean", levels=False),
    "weights.lifted_translates": _TranslatesHook(),
    "sequences.center_net": _CenterNetHook(),
}


def coverage_radius(points, centers):
    """Largest pseudohyperbolic distance from a point to its nearest center."""
    if points.size == 0 or centers.size == 0:
        return 0.0
    a = points[:, None]
    c = centers[None, :]
    d = np.abs((a - c) / (1.0 - np.conjugate(c) * a))
    return float(np.max(np.min(d, axis=1)))


def layer_metrics(tracer, rounds):
    """Per-layer metrics from the spans and counts of `rounds` traced rounds.

    Times, calls and work counts are per round; levels are per call,
    centers per center_net call, coverage radius the largest seen.
    """
    st = tracer.self_times()
    per = 1.0 / max(rounds, 1)

    def calls(name):
        return st.get(name, (0, 0.0))[0]

    def self_s(name):
        return st.get(name, (0, 0.0))[1]

    def module_sum(prefix):
        c = sum(v[0] for k, v in st.items() if k.startswith(prefix + "."))
        s = sum(v[1] for k, v in st.items() if k.startswith(prefix + "."))
        return c, s

    cnt = tracer.counts.get
    m = {}
    g_calls, g_self = module_sum("geometry")
    m["geometry.calls"] = (g_calls * per, "count")
    m["geometry.self_s"] = (g_self * per, "s")
    pi = "quadrature.polar_integral"
    m[f"{pi}.calls"] = (calls(pi) * per, "count")
    m[f"{pi}.self_s"] = (self_s(pi) * per, "s")
    m[f"{pi}.nodes"] = (cnt(f"{pi}.nodes", 0) * per, "count")
    m[f"{pi}.levels"] = (cnt(f"{pi}.levels", 0) / calls(pi) if calls(pi) else 0.0, "count")
    rl = "quadrature.radial_log_mean"
    m[f"{rl}.calls"] = (calls(rl) * per, "count")
    m[f"{rl}.self_s"] = (self_s(rl) * per, "s")
    m[f"{rl}.nodes"] = (cnt(f"{rl}.nodes", 0) * per, "count")
    m["quadrature.not_converged"] = (cnt("quadrature.not_converged", 0) * per, "count")
    for fn in ("border_potential", "puncture_potential"):
        m[f"weights.{fn}.self_s"] = (self_s(f"weights.{fn}") * per, "s")
    lt = "weights.lifted_translates"
    m[f"{lt}.calls"] = (calls(lt) * per, "count")
    m[f"{lt}.self_s"] = (self_s(lt) * per, "s")
    m[f"{lt}.translates"] = (cnt(f"{lt}.translates", 0) * per, "count")
    m["sequences.generate_lattice.self_s"] = (self_s("sequences.generate_lattice") * per, "s")
    cn = "sequences.center_net"
    m[f"{cn}.self_s"] = (self_s(cn) * per, "s")
    m[f"{cn}.centers"] = (cnt(f"{cn}.centers", 0) / calls(cn) if calls(cn) else 0.0, "count")
    cov = [coverage_radius(p, c) for p, c in tracer.center_calls]
    m[f"{cn}.coverage_radius"] = (max(cov) if cov else 0.0, "rho")
    sep = self_s("sequences.separation_border") + self_s("sequences.separation_puncture")
    m["sequences.separation.self_s"] = (sep * per, "s")
    for fn in ("border_density_ratio", "puncture_density_ratio"):
        m[f"sequences.{fn}.calls"] = (calls(f"sequences.{fn}") * per, "count")
        m[f"sequences.{fn}.self_s"] = (self_s(f"sequences.{fn}") * per, "s")
    for fn in ("gram_assemble", "interpolation_constant_estimate", "kernel_diag_check"):
        m[f"kernels.{fn}.self_s"] = (self_s(f"kernels.{fn}") * per, "s")
    for fn in ("poisson_jensen_residual", "mean_comparison_margin"):
        m[f"verify.{fn}.self_s"] = (self_s(f"verify.{fn}") * per, "s")
    return {k: (v if math.isfinite(v) else 0.0, u) for k, (v, u) in m.items()}
