"""In-process span tracer that wraps the public functions of fqzeta's modules.

The tracer replaces every public module-level function of the traced modules
(and ``FieldCtx.tables``) with a wrapper that records one span per call:
``(id, parent id, name, start, end)``.  Spans stay in memory and are written
once, when the pass ends.  Self time (a span's duration minus the part of it
its child spans cover) is accumulated as spans close.

Other ``FieldCtx`` and ``LieAlgebra`` methods are left alone: they are the
scalar arithmetic, called millions of times per pass, and their cost shows as
the self time of the public function that calls them.

Work counts are taken at the same boundaries by hooks that read only a call's
arguments and its return value (``cell_size``, ``gaussian_binomial`` and the
returned counts), never library internals.  A hook runs outside the span
timing and its time is charged to no layer.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
import time
from collections import Counter

TRACED_MODULES = ("gf", "liealg", "rrdf", "oracle", "formulas", "analysis", "cli")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple[int, int, int, float, float]] = []
        self._stack: list[list] = []  # [span id, seconds covered by children]
        self.self_s: Counter = Counter()  # name -> self seconds
        self.self_by_q: Counter = Counter()  # (name, q) -> self seconds
        self.total_s: Counter = Counter()  # name -> inclusive seconds
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._distinct: dict[str, set] = {"catalog": set(), "count_roots": set()}
        self._restore: list[tuple[object, str, object]] = []
        self._orig: dict[str, object] = {}
        self._paused = [False]  # set while a hook runs, so hooks record no spans

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, hook=None):
        name_id = self._name_id(name)
        stack, spans = self._stack, self.spans
        self_s, self_by_q, calls = self.self_s, self.self_by_q, self.calls
        total_s, paused = self.total_s, self._paused
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if paused[0]:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else -1
            # ids follow opening order: every span opened so far is either
            # closed (in spans) or still open (on the stack)
            frame = [len(spans) + len(stack), 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((frame[0], parent, name_id, t0, t1))
                own = (t1 - t0) - frame[1]
                self_s[name] += own
                total_s[name] += t1 - t0
                calls[name] += 1
                if stack:
                    stack[-1][1] += t1 - t0
            if hook is not None:
                h0 = clock()
                paused[0] = True
                try:
                    q = hook(args, kwargs, result)
                finally:
                    paused[0] = False
                if q is not None:
                    self_by_q[(name, q)] += own
                if stack:
                    stack[-1][1] += clock() - h0
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) as a root span (one per benchmark pass)."""
        return self.wrap(name, fn)(*args, **kwargs)

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every public function of the traced modules, in every
        fqzeta module namespace that refers to it."""
        import importlib

        for short in TRACED_MODULES:
            importlib.import_module(f"fqzeta.{short}")
        gf = sys.modules["fqzeta.gf"]
        loaded = [m for n, m in sys.modules.items()
                  if n == "fqzeta" or n.startswith("fqzeta.")]
        replace: dict[int, object] = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"fqzeta.{short}"]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or inspect.isclass(obj)
                        or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                self._orig[name] = obj
                replace[id(obj)] = self.wrap(name, obj, self._hook_for(name))
        for mod in loaded:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace and callable(obj):
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, replace[id(obj)])
        tables = gf.FieldCtx.tables
        self._restore.append((gf.FieldCtx, "tables", tables))
        gf.FieldCtx.tables = self.wrap("gf.tables", tables)

    def uninstall(self):
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    # -- work-count hooks --------------------------------------------------

    def _hook_for(self, name: str):
        return {
            "rrdf.cell_count": self._on_cell_count,
            "oracle.zeta_oracle": self._on_zeta_oracle,
            "liealg.catalog": self._on_catalog,
            "liealg.from_structure_constants": self._on_from_structure_constants,
            "gf.count_roots": self._on_count_roots,
            "analysis.isospectral_scan": self._on_isospectral_scan,
        }.get(name)

    def _on_cell_count(self, args, kwargs, result):
        alg = _arg(args, kwargs, 0, "L")
        dt = _arg(args, kwargs, 1, "dt")
        q = alg.ctx.q
        # every cell's full size, also for cells the library answers without a
        # scan: the total is a property of the grid, an exactness check
        self.counts["rrdf.rows_scanned"] += self._orig["rrdf.cell_size"](dt, q)
        self.counts["rrdf.rows_kept"] += int(result)
        return q

    def _on_zeta_oracle(self, args, kwargs, result):
        alg = _arg(args, kwargs, 0, "L")
        n, q = alg.n, alg.ctx.q
        gauss = self._orig["formulas.gaussian_binomial"]
        # every nonzero subspace is generated once; the zero subspace is not
        self.counts["oracle.subspaces_scanned"] += sum(
            gauss(n, k, q) for k in range(1, n + 1))
        self.counts["oracle.subspaces_kept"] += sum(result.coeffs[:n])
        return q

    def _on_catalog(self, args, kwargs, result):
        ctx = _arg(args, kwargs, 2, "ctx")
        family = _arg(args, kwargs, 0, "family")
        params = tuple(int(v) for v in _arg(args, kwargs, 1, "params"))
        self._distinct["catalog"].add((family, params, ctx.q))
        return ctx.q

    def _on_from_structure_constants(self, args, kwargs, result):
        return _arg(args, kwargs, 0, "ctx").q

    def _on_count_roots(self, args, kwargs, result):
        f = _arg(args, kwargs, 0, "f")
        ctx = _arg(args, kwargs, 1, "ctx")
        coeffs = [int(c) for c in getattr(f, "coeffs", f)]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if len(coeffs) >= 2:  # degree >= 1: one Horner step per coefficient and x
            self.counts["gf.count_roots_evals"] += ctx.q * len(coeffs)
        self._distinct["count_roots"].add((tuple(coeffs), ctx.q))
        return None

    def _on_isospectral_scan(self, args, kwargs, result):
        self.counts["analysis.iso_pairs"] += len(result)
        return None

    def repeat_ratio(self, name: str) -> float:
        """Calls per distinct argument key (0.0 when never called)."""
        distinct = len(self._distinct[name.split(".")[1]])
        return self.calls[name] / distinct if distinct else 0.0

    # -- output ------------------------------------------------------------

    def module_self_s(self) -> dict[str, float]:
        out = {m: 0.0 for m in TRACED_MODULES}
        for name, s in self.self_s.items():
            mod = name.split(".")[0]
            if mod in out:
                out[mod] += s
        return out

    def write(self, path):
        """Write all spans, gzipped JSON lines: a header, then one span a line."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names,
                                 "fields": ["id", "parent", "name", "start", "end"]})
                     + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
