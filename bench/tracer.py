"""Span tracing of bayesdesk's layers from outside the program.

`Tracer.install()` wraps every function in each layer module's `__all__`,
rebinds the same objects wherever another bayesdesk module imported them
with `from .x import f`, and wraps `SummaryStats.from_data` and
`RegressionData.__post_init__`. Classes are never replaced, so isinstance
keeps working. Spans stay in memory until `dump()`; `aggregate()` turns a
dump into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("special", "distributions", "conjugate", "hpd", "testing", "regression",
          "predictive", "cli")
LIBRARY_LAYERS = LAYERS[:-1]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of: array = array("i")
        self.parent: array = array("i")
        self.op: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        self.raised: array = array("b")
        self.current = -1
        self.op_id = 0
        # extra counts made at the same boundaries: quad calls, LOO rows, draws
        self.counts = {"testing.quad": 0, "predictive.loo_rows": 0, "conjugate.draws": 0}

    def _wrap(self, fn, name: str, note=None):
        nid = len(self.names)
        self.names.append(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_of.append(nid)
            self.parent.append(self.current)
            self.op.append(self.op_id)
            self.raised.append(0)
            self.end.append(0.0)
            prev, self.current = self.current, idx
            if note is not None:
                note(args)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.raised[idx] = 1
                raise
            finally:
                self.end[idx] = perf_counter()
                self.current = prev

        return traced

    def _count(self, key: str, size=lambda args: 1):
        def note(args):
            self.counts[key] += size(args)
        return note

    def install(self) -> None:
        mods = {layer: importlib.import_module(f"bayesdesk.{layer}") for layer in LAYERS}
        notes = {
            "predictive.detect_outliers": self._count("predictive.loo_rows", lambda a: len(a[0])),
            "predictive.loo_predictive_cdf": self._count("predictive.loo_rows"),
            "conjugate.sample_joint_posterior": self._count("conjugate.draws", lambda a: int(a[1])),
        }
        replaced = {}
        for layer, mod in mods.items():
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    replaced[fn] = self._wrap(fn, name, notes.get(name))
        quad = mods["testing"].quad
        quad_note = self._count("testing.quad")

        def counted_quad(*args, **kwargs):
            quad_note(args)
            return quad(*args, **kwargs)

        replaced[quad] = counted_quad
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "bayesdesk" or mod_name.startswith("bayesdesk."):
                for attr, value in list(vars(mod).items()):
                    if inspect.isfunction(value) and value in replaced:
                        setattr(mod, attr, replaced[value])
        stats_cls = mods["conjugate"].SummaryStats
        from_data = stats_cls.__dict__["from_data"].__func__
        stats_cls.from_data = classmethod(self._wrap(from_data, "conjugate.SummaryStats.from_data"))
        reg_cls = mods["regression"].RegressionData
        reg_cls.__post_init__ = self._wrap(reg_cls.__post_init__,
                                           "regression.RegressionData.__post_init__")

    def arrays(self) -> dict:
        return {"names": np.array(self.names), "name_of": np.frombuffer(self.name_of, np.int32),
                "parent": np.frombuffer(self.parent, np.int32),
                "op": np.frombuffer(self.op, np.int32),
                "start": np.frombuffer(self.start, np.float64),
                "end": np.frombuffer(self.end, np.float64),
                "raised": np.frombuffer(self.raised, np.int8),
                "count_keys": np.array(list(self.counts)),
                "count_values": np.array(list(self.counts.values()), dtype=np.int64)}

    def dump(self, path: str) -> None:
        np.savez(path, **self.arrays())


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Duration of each span minus the time its direct child spans cover.

    Children run nested and in sequence inside their parent, so the part of
    the parent's interval they cover is the sum of their durations.
    """
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    return dur - covered


def aggregate(spans: list[dict], ops: int) -> dict:
    """Per-layer metrics from one or more span dumps covering `ops` CLI ops."""
    totals = {f"{layer}.{k}": 0.0 if k == "self_ms" else 0 for layer in LIBRARY_LAYERS
              for k in ("self_ms", "calls", "errors")}
    cli_self = 0.0
    n = {"quantile": 0, "cdf_in_quantile": 0, "nig": 0, "refits": 0, "reports": 0,
         "factorizations": 0}
    counts = {"testing.quad": 0, "predictive.loo_rows": 0, "conjugate.draws": 0}
    for d in spans:
        names = [str(s) for s in d["names"]]
        layer_of_name = np.array([LAYERS.index(s.split(".")[0]) for s in names] or [0])
        name_of, parent = d["name_of"], d["parent"]
        layer = layer_of_name[name_of]
        self_ms = self_times(parent, d["start"], d["end"]) * 1e3
        parent_layer = np.where(parent >= 0, layer[np.maximum(parent, 0)], -1)
        escaped = (d["raised"] == 1) & (parent_layer != layer)
        for i, lay in enumerate(LAYERS):
            mine = layer == i
            if lay == "cli":
                cli_self += float(self_ms[mine].sum())
                continue
            totals[f"{lay}.self_ms"] += float(self_ms[mine].sum())
            totals[f"{lay}.calls"] += int(mine.sum())
            totals[f"{lay}.errors"] += int((mine & escaped).sum())

        def ids(name):
            return names.index(name) if name in names else -1

        def count(name):
            return int((name_of == ids(name)).sum())

        q = ids("distributions.quantile")
        parent_name = np.where(parent >= 0, name_of[np.maximum(parent, 0)], -1)
        n["quantile"] += count("distributions.quantile")
        n["cdf_in_quantile"] += int(((name_of == ids("distributions.cdf"))
                                     & (parent_name == q) & (q >= 0)).sum())
        n["nig"] += count("conjugate.nig_log_density")
        from_data = name_of == ids("conjugate.SummaryStats.from_data")
        n["refits"] += int((from_data & (parent_layer == LAYERS.index("predictive"))).sum())
        reports = count("regression.regression_report")
        n["reports"] += reports
        n["factorizations"] += (count("regression.RegressionData.__post_init__")
                                + count("regression.log_marginal_gprior") + reports)
        for k, v in zip(d["count_keys"], d["count_values"]):
            counts[str(k)] += int(v)

    def ratio(a, b):
        return a / b if b else 0.0

    out = dict(totals)
    out["cli.self_ms_per_op"] = ratio(cli_self, ops)
    out["distributions.cdf_per_quantile"] = ratio(n["cdf_in_quantile"], n["quantile"])
    out["conjugate.nig_calls_per_draw"] = ratio(n["nig"], counts["conjugate.draws"])
    out["predictive.refits_per_point"] = ratio(n["refits"], counts["predictive.loo_rows"])
    out["regression.factorizations_per_report"] = ratio(n["factorizations"], n["reports"])
    out["testing.quad_calls"] = counts["testing.quad"]
    return out
