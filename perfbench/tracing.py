"""Spans around ardlkit's public functions, recorded from outside the program.

``Tracer.install`` replaces the public functions of the layer modules with
a wrapper, under its name in every ardlkit namespace that holds it:
``ardlkit.linreg.ols``, ``ardlkit.unitroot.ols``, ``ardlkit.ols`` and so on.
A function imported with ``from .linreg import ols`` is called through the
importing module's globals, so wrapping only the defining module would miss
those calls. ``uninstall`` puts the originals back.

A span is (function id, parent span index, operation id, start ns, end ns,
raised). Spans stay in memory; ``summary`` turns them into per-operation
means, and ``dump`` writes them out at the end of a run.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("dataio", "pipeline", "unitroot", "ardl", "diagnostics", "linreg",
          "report", "simgen", "cli")

# Per-observation helpers stay unwrapped: TimeSeries construction calls
# period_ordinal once per date (about 4,800 times in one pipeline run and
# 200 times per generated series), parse_period runs once per CSV row and
# pct once per report cell. A wrapper costs about as much as each of them,
# so wrapping them would make up most of the tracing overhead. Their time
# counts in their callers' self time.
UNWRAPPED = ("dataio.period_ordinal", "dataio.parse_period", "report.pct")

# (function, statistic) pairs reported as per-layer metrics; statistic is
# ms (inclusive), self_ms, calls or errors, each a mean per operation.
REPORTED = (
    ("dataio.load_csv", ("ms", "errors")),
    ("pipeline.load_config", ("ms", "errors")),
    ("pipeline.run_pipeline", ("self_ms", "errors")),
    ("report.render_report", ("ms", "errors")),
    ("cli.main", ("self_ms", "errors")),
    ("unitroot.adf_test", ("calls", "ms", "errors")),
    ("unitroot.pp_test", ("ms", "errors")),
    ("unitroot.classify_integration", ("self_ms", "errors")),
    ("ardl.select_lags", ("ms", "errors")),
    ("ardl.estimate_ardl", ("ms", "errors")),
    ("ardl.bounds_test", ("ms", "errors")),
    ("ardl.long_run", ("ms", "errors")),
    ("ardl.estimate_ecm", ("ms", "errors")),
    ("diagnostics.run_battery", ("self_ms", "errors")),
    ("diagnostics.recursive_residuals", ("calls", "ms", "errors")),
    ("linreg.ols", ("calls", "ms", "errors")),
    ("linreg.wald_f_test", ("ms", "errors")),
    ("simgen.generate", ("ms", "errors")),
)
# OLS fits made inside one call of these functions, averaged over calls
FITS_PER_CALL = ("unitroot.adf_test", "ardl.select_lags")
OLS = "linreg.ols"
ADF = "unitroot.adf_test"


def metrics() -> dict[str, str]:
    """Name and unit of every per-layer metric."""
    units = {"ms": "ms", "self_ms": "ms", "calls": "count", "errors": "count"}
    out = {f"{fn}.{stat}": units[stat] for fn, stats in REPORTED
           for stat in stats}
    out.update({f"{fn}.fits_per_call": "count" for fn in FITS_PER_CALL})
    out.update({f"{ADF}.distinct_share": "share", "trace.errors": "count",
                "trace.overhead_pct": "%"})
    return out


def _adf_key(signature, args, kwargs) -> tuple:
    """(series, deterministic spec, max_lag, rule) of one adf_test call."""
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    digest = hashlib.blake2b(a["s"].values.tobytes(), digest_size=16).digest()
    return digest, str(a["spec"]), a["max_lag"], a["rule"]


class Tracer:
    def __init__(self):
        modules = {name: sys.modules[f"ardlkit.{name}"] for name in LAYERS}
        self.names: list[str] = []
        self.originals: dict[object, int] = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__
                        and f"{layer}.{attr}" not in UNWRAPPED):
                    self.originals[obj] = len(self.names)
                    self.names.append(f"{layer}.{attr}")
        self.fid = {name: i for i, name in enumerate(self.names)}
        self.ols_code = next(fn for fn, i in self.originals.items()
                             if self.names[i] == OLS).__code__
        self.adf_signature = inspect.signature(
            next(fn for fn, i in self.originals.items()
                 if self.names[i] == ADF))
        self.spans: list = []
        self.adf_keys: list[tuple[int, tuple]] = []
        self.stack: list[int] = []
        self.op = -1
        self.wrappers = {fn: self._wrap(fn, i)
                         for fn, i in self.originals.items()}
        self.patched: list[tuple[object, str, object]] = []
        self.profiled_ols_calls = 0

    def _wrap(self, fn, fid):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        keys = self.adf_keys if self.names[fid] == ADF else None
        signature = self.adf_signature
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op < 0:
                return fn(*args, **kwargs)
            if keys is not None:
                keys.append((tracer.op, _adf_key(signature, args, kwargs)))
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            raised = 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                raised = 0
                return result
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (fid, parent, tracer.op, t0, t1, raised)

        return wrapper

    def install(self) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != "ardlkit" and not modname.startswith("ardlkit."):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = self.wrappers.get(obj) if inspect.isfunction(obj) \
                    else None
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    self.patched.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in self.patched:
            setattr(mod, attr, obj)
        self.patched.clear()

    def profiled(self, call):
        """call, wrapped to run under sys.setprofile and add the entries into
        the code object of linreg.ols, counted apart from the wrappers, to
        ``profiled_ols_calls``."""
        code = self.ols_code

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is code:
                self.profiled_ols_calls += 1

        def run():
            sys.setprofile(profile)
            try:
                return call()
            finally:
                sys.setprofile(None)

        return run

    def summary(self, ops: list[int],
                scale: dict[int, float] | None = None) -> dict[str, float]:
        """Per-layer metrics as means per operation over ``ops``; times are
        multiplied by ``scale[op]`` when given."""
        n_ops = len(ops)
        wanted = set(ops)
        calls = defaultdict(int)
        errors = defaultdict(int)
        incl = defaultdict(float)
        self_ns = defaultdict(float)
        child = defaultdict(int)
        fits = defaultdict(int)
        watch = {self.fid[name] for name in FITS_PER_CALL}
        ols = self.fid[OLS]
        for s in self.spans:
            if s[2] not in wanted:
                continue
            fid, parent, _, t0, t1, raised = s
            calls[fid] += 1
            errors[fid] += raised
            if parent >= 0:
                child[parent] += t1 - t0
            if fid == ols:
                p = parent
                while p >= 0:
                    if self.spans[p][0] in watch:
                        fits[self.spans[p][0]] += 1
                    p = self.spans[p][1]
        for idx, s in enumerate(self.spans):
            if s[2] in wanted:
                k = scale[s[2]] if scale else 1.0
                incl[s[0]] += (s[4] - s[3]) * k
                self_ns[s[0]] += (s[4] - s[3] - child.get(idx, 0)) * k

        out = {}
        for name, stats in REPORTED:
            fid = self.fid.get(name)
            values = {
                "calls": calls[fid] / n_ops,
                "errors": errors[fid] / n_ops,
                "ms": incl[fid] / n_ops / 1e6,
                "self_ms": self_ns[fid] / n_ops / 1e6,
            }
            for stat in stats:
                out[f"{name}.{stat}"] = values[stat]
        for name in FITS_PER_CALL:
            fid = self.fid[name]
            out[f"{name}.fits_per_call"] = (fits[fid] / calls[fid]
                                            if calls[fid] else 0.0)
        out[f"{ADF}.distinct_share"] = self._distinct_share(wanted)
        out["trace.errors"] = sum(errors.values()) / n_ops
        return out

    def _distinct_share(self, wanted) -> float:
        per_op = defaultdict(list)
        for op, key in self.adf_keys:
            if op in wanted:
                per_op[op].append(key)
        shares = [len(set(keys)) / len(keys) for keys in per_op.values()]
        return sum(shares) / len(shares) if shares else 0.0

    def dump(self, path: Path, extra: dict) -> None:
        """Write the names table, every span and ``extra`` as JSON."""
        totals = defaultdict(lambda: [0, 0])
        for fid, _, _, _, _, raised in self.spans:
            totals[self.names[fid]][0] += 1
            totals[self.names[fid]][1] += raised
        payload = {
            "span_fields": ["function", "parent", "op", "start_ns", "end_ns",
                            "raised"],
            "functions": self.names,
            "calls_and_errors": {k: v for k, v in sorted(totals.items())},
            **extra,
            "spans": self.spans,
        }
        path.write_text(json.dumps(payload, separators=(",", ":")),
                        encoding="utf-8")
