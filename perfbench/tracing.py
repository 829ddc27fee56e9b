"""Span tracing of ultraspec from outside the package, and the layer metrics.

``Tracer.install`` replaces the public functions of each module (the layers:
cli, config, fields, finite, spectra, output, verify) with wrappers that
record a span: name, start, end, parent span and operation id.  A function
imported into another module (``cli.build_grid``, ``verify.elem_add``) is
replaced there too, or calls through that name would go unseen.  The spans
stay in memory and are written out when the run ends.

Generator functions (the ``*_rows`` helpers) are not wrapped: a span around
one would close before its rows are produced, so their work is counted in
the caller that consumes them.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from array import array

import numpy as np

LAYERS = ("cli", "config", "fields", "finite", "spectra", "output", "verify")

EXACT_OPS = tuple(
    f"fields.{name}"
    for name in (
        "elem_add",
        "elem_mul",
        "elem_neg",
        "elem_from_pairs",
        "character_phase",
        "format_element",
    )
)
EIGH = "numpy.linalg.eigh"

# Per-layer metrics: name -> unit, in the order BENCHMARK.json lists them.
LAYER_METRICS = {
    "config.load_config_s": "s",
    "cli.main_self_s": "s",
    "fields.make_field_s": "s",
    "fields.exact_op_s": "s",
    "fields.exact_op_calls": "count",
    "finite.build_grid_s": "s",
    "finite.assemble_hamiltonian_s": "s",
    "finite.fourier_matrix_s": "s",
    "finite.fourier_matrix_calls": "count",
    "finite.fourier_apply_s": "s",
    "finite.fourier_apply_calls": "count",
    "spectra.eigensolve_s": "s",
    "spectra.eigensolve_self_s": "s",
    "spectra.eigh_s": "s",
    "spectra.shell_adapt_s": "s",
    "spectra.shell_adapt_calls": "count",
    "spectra.shell_adapt_eigh_calls": "count",
    "spectra.shell_adapt_max_width": "count",
    "spectra.classify_s": "s",
    "spectra.convergence_report_self_s": "s",
    "spectra.embed_function_calls": "count",
    "output.write_spectrum_outputs_s": "s",
    "output.write_table_s": "s",
    "output.bytes_written": "bytes",
    "output.rows_written": "count",
    "output.mb_per_s": "MB/s",
    "verify.run_verify_self_s": "s",
    "verify.checks_failed": "count",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.span_coverage": "ratio",
}


class _CountedRows:
    """Iterable that counts the rows ``write_table`` consumes."""

    def __init__(self, rows, counters):
        self._rows = rows
        self._counters = counters

    def __iter__(self):
        for row in self._rows:
            self._counters["output.rows_written"] += 1
            yield row


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counters = dict.fromkeys(
            (
                "output.rows_written",
                "output.bytes_written",
                "verify.checks_failed",
                "spectra.shell_adapt_max_width",
            ),
            0,
        )
        self.current_op = -1
        self._stack = [-1]
        self._patched = []

    def _wrap(self, name, fn):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        before, after = _BEFORE.get(name), _AFTER.get(name)
        clock = time.perf_counter_ns
        stack = self._stack

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(self.counters, fn, args, kwargs)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.op.append(self.current_op)
            self.start.append(0)
            self.end.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if after is not None:
                after(self.counters, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every layer's public functions at every name that refers to them."""
        import ultraspec.cli  # noqa: F401  (cli and output are not imported by the package)
        import ultraspec.output  # noqa: F401

        targets = {}
        for layer in LAYERS:
            module = sys.modules[f"ultraspec.{layer}"]
            names = ["main"] if layer == "cli" else module.__all__
            for attr in names:
                fn = getattr(module, attr)
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and not inspect.isgeneratorfunction(fn)
                ):
                    targets[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        modules = [m for n, m in sys.modules.items() if n == "ultraspec" or n.startswith("ultraspec.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in targets and inspect.isfunction(value):
                    self._patch(module, attr, targets[id(value)])
        self._patch(np.linalg, "eigh", self._wrap(EIGH, np.linalg.eigh))

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def spans(self) -> dict:
        """The recorded spans as arrays (times in ns from perf_counter_ns)."""
        return {
            "names": np.array(self.names, dtype=str),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
        }


def _count_rows(counters, fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.arguments["rows"] = _CountedRows(bound.arguments["rows"], counters)
    return bound.args, bound.kwargs


def _note_width(counters, fn, args, kwargs):
    vectors = inspect.signature(fn).bind(*args, **kwargs).arguments["vectors"]
    shape = np.shape(vectors)
    width = shape[1] if len(shape) == 2 else 1
    counters["spectra.shell_adapt_max_width"] = max(counters["spectra.shell_adapt_max_width"], width)
    return args, kwargs


def _count_bytes(counters, path):
    counters["output.bytes_written"] += os.path.getsize(path)


def _count_failed_checks(counters, outcome):
    counters["verify.checks_failed"] += sum(not c.passed for c in outcome.checks)


# extra counts taken at a span boundary: before the call (which may wrap its
# arguments) and from its result
_BEFORE = {"output.write_table": _count_rows, "spectra.shell_adapt": _note_width}
_AFTER = {"output.write_table": _count_bytes, "verify.run_verify": _count_failed_checks}


def self_times(spans: dict) -> np.ndarray:
    """Each span's duration minus the durations of its direct children (ns)."""
    dur = spans["end_ns"] - spans["start_ns"]
    child = np.zeros_like(dur)
    has_parent = spans["parent"] >= 0
    np.add.at(child, spans["parent"][has_parent], dur[has_parent])
    return dur - child


def span_layers(spans: dict) -> np.ndarray:
    """Layer of each span; a numpy call belongs to the layer that made it."""
    names = spans["names"][spans["name_id"]]
    layers = np.array([n.split(".", 1)[0] for n in names], dtype=object)
    for i in np.flatnonzero(layers == "numpy"):
        p = spans["parent"][i]
        layers[i] = layers[p] if p >= 0 else "numpy"
    return layers


def layer_metrics(spans: dict, counters: dict, traced_walls, untraced_walls) -> dict:
    """Per-layer metrics per traced round, plus the tracing overhead."""
    rounds = max(1, len(traced_walls))
    names = spans["names"][spans["name_id"]]
    has_parent = spans["parent"] >= 0
    parent = np.maximum(spans["parent"], 0)
    parent_names = np.where(has_parent, names[parent], "")
    dur = (spans["end_ns"] - spans["start_ns"]) / 1e9
    own = self_times(spans) / 1e9

    def total(values, mask):
        return float(values[mask].sum()) / rounds

    def named(name):
        return names == name

    m = {}
    m["config.load_config_s"] = total(dur, named("config.load_config"))
    m["cli.main_self_s"] = total(own, named("cli.main"))
    m["fields.make_field_s"] = total(dur, named("fields.make_field"))
    exact = np.isin(names, EXACT_OPS)  # these never call one another
    m["fields.exact_op_s"] = total(dur, exact)
    m["fields.exact_op_calls"] = int(exact.sum()) / rounds
    for fn in ("build_grid", "assemble_hamiltonian"):
        m[f"finite.{fn}_s"] = total(dur, named(f"finite.{fn}"))
    for fn in ("fourier_matrix", "fourier_apply"):
        m[f"finite.{fn}_s"] = total(dur, named(f"finite.{fn}"))
        m[f"finite.{fn}_calls"] = int(named(f"finite.{fn}").sum()) / rounds
    m["spectra.eigensolve_s"] = total(dur, named("spectra.eigensolve"))
    m["spectra.eigensolve_self_s"] = total(own, named("spectra.eigensolve"))
    m["spectra.eigh_s"] = total(dur, named(EIGH) & (parent_names == "spectra.eigensolve"))
    m["spectra.shell_adapt_s"] = total(dur, named("spectra.shell_adapt"))
    m["spectra.shell_adapt_calls"] = int(named("spectra.shell_adapt").sum()) / rounds
    m["spectra.shell_adapt_eigh_calls"] = (
        int((named(EIGH) & (parent_names == "spectra.shell_adapt")).sum()) / rounds
    )
    m["spectra.shell_adapt_max_width"] = counters["spectra.shell_adapt_max_width"]
    m["spectra.classify_s"] = total(dur, named("spectra.classify_eigenvector"))
    m["spectra.convergence_report_self_s"] = total(own, named("spectra.convergence_report"))
    m["spectra.embed_function_calls"] = int(named("spectra.embed_function").sum()) / rounds
    m["output.write_spectrum_outputs_s"] = total(dur, named("output.write_spectrum_outputs"))
    m["output.write_table_s"] = total(dur, named("output.write_table"))
    m["output.bytes_written"] = counters["output.bytes_written"] / rounds
    m["output.rows_written"] = counters["output.rows_written"] / rounds
    layers = span_layers(spans)
    parent_layers = np.where(has_parent, layers[parent], "")
    output_time = total(dur, (layers == "output") & (parent_layers != "output"))
    m["output.mb_per_s"] = m["output.bytes_written"] / 1e6 / output_time if output_time > 0 else 0.0
    m["verify.run_verify_self_s"] = total(own, named("verify.run_verify"))
    m["verify.checks_failed"] = counters["verify.checks_failed"] / rounds
    for layer in LAYERS:
        m[f"{layer}.self_s"] = total(own, layers == layer)
    traced = float(np.median(traced_walls)) if len(traced_walls) else 0.0
    m["trace.wall_s"] = traced
    m["trace.overhead_s"] = traced - float(np.median(untraced_walls)) if len(untraced_walls) else 0.0
    m["trace.span_coverage"] = total(dur, spans["parent"] < 0) / traced if traced > 0 else 0.0
    return m
