"""Span tracing of qcm's public functions, installed from outside the package.

A traced pass replaces each function named in ``TARGETS`` with a wrapper at
every place the package binds it (the defining module, every module that
imported it, the ``qcm`` namespace), and wraps the ``__post_init__``
validators and ``SystemConfig.__init__`` on their classes.  Each wrapper
records one span ``[function, parent span, start ns, end ns, counts]`` in
memory.  ``restore`` puts every original object back and proves it did.

Layer metrics follow from the spans: a layer's ``calls`` counts entries into
it from another layer, its ``self_s`` is its spans' time minus their child
spans' time, and its counts are summed from the inputs the wrappers saw, so
they repeat exactly for the same inputs.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time

#: (layer, module, attribute) for every traced function; "Class.method"
#: attributes are patched on the class
TARGETS = (
    ("model.build", "qcm.model", "star_config"),
    ("model.build", "qcm.model", "SystemConfig.__init__"),
    ("model.build", "qcm.model", "build_hamiltonian"),
    ("model.build", "qcm.model", "build_dissipative_hamiltonian"),
    ("model.build", "qcm.model", "initial_state"),
    ("model.validate", "qcm.model", "StateVector.__post_init__"),
    ("model.validate", "qcm.model", "GeneratorMatrix.__post_init__"),
    ("propagator.closed_form", "qcm.propagator", "closed_form_propagator"),
    ("propagator.validate", "qcm.propagator", "PropagatorMatrix.__post_init__"),
    ("propagator.evolve", "qcm.propagator", "evolve"),
    ("propagator.expm", "qcm.propagator", "expm_hermitian"),
    ("propagator.expm", "qcm.propagator", "evolve_oracle_expm"),
    ("propagator.rk4", "qcm.propagator", "rk4_propagate"),
    ("propagator.rk4", "qcm.propagator", "rk4_propagate_many"),
    ("propagator.rk4", "qcm.propagator", "evolve_oracle_rk4"),
    ("protocols.w_state", "qcm.protocols", "generate_w_state"),
    ("protocols.anticlone", "qcm.protocols", "run_anticlone"),
    ("protocols.anticlone", "qcm.protocols", "copy_fidelity"),
    ("protocols.reduce", "qcm.protocols", "reduced_qubit_density"),
    ("protocols.closed_form", "qcm.protocols", "trapped_amplitudes"),
    ("protocols.closed_form", "qcm.protocols", "fidelity_curve"),
    ("protocols.closed_form", "qcm.protocols", "equatorial_qubit_density"),
    ("protocols.closed_form", "qcm.protocols", "transfer_fidelity_formula"),
    ("protocols.optimize", "qcm.protocols", "optimize_coupling_ratio"),
    ("decoherence.conditional", "qcm.decoherence", "conditional_amplitudes"),
    ("decoherence.conditional", "qcm.decoherence", "no_click_probability"),
    ("decoherence.trap_time", "qcm.decoherence", "renormalized_trapping_time"),
    ("decoherence.fidelity", "qcm.decoherence", "decohered_fidelity"),
    ("decoherence.fidelity", "qcm.decoherence", "decay_robustness_scan"),
    ("cli.parse", "qcm.cli", "parse_args"),
    ("cli.format", "qcm.cli", "write_table"),
    ("cli.check.matrix_suites", "qcm.cli", "_matrix_suites"),
    ("cli.check.closed_vs_rk4", "qcm.cli", "_rk4_suite"),
    ("cli.check.conditional_vs_rk4", "qcm.cli", "_conditional_suite"),
)

#: per-layer metric names and units, in report order; BENCHMARK.json lists
#: the same names
_STANDARD = ("calls", "self_s")
LAYER_FIELDS = {
    "propagator.rk4": _STANDARD + ("instance_steps", "useful_ratio"),
    "propagator.closed_form": _STANDARD + ("bytes_computed",),
    "propagator.validate": _STANDARD + ("elements",),
    "propagator.evolve": _STANDARD,
    "propagator.expm": _STANDARD,
    "model.build": _STANDARD,
    "model.validate": _STANDARD + ("elements",),
    "protocols.reduce": _STANDARD,
    "protocols.anticlone": _STANDARD,
    "protocols.w_state": _STANDARD,
    "protocols.closed_form": _STANDARD,
    "protocols.optimize": _STANDARD,
    "decoherence.conditional": _STANDARD,
    "decoherence.trap_time": _STANDARD,
    "decoherence.fidelity": _STANDARD,
    "cli.parse": _STANDARD,
    "cli.format": _STANDARD + ("bytes",),
    "cli.check.matrix_suites": ("self_s",),
    "cli.check.closed_vs_rk4": ("self_s",),
    "cli.check.conditional_vs_rk4": ("self_s",),
}
UNITS = {
    "calls": "count",
    "self_s": "s",
    "instance_steps": "count",
    "useful_ratio": "ratio",
    "bytes_computed": "B",
    "elements": "count",
    "bytes": "B",
}
TRACE_METRICS = {"trace.wall_s": "s", "trace.overhead_s": "s"}

ROOT = "pass"
_MARK = "__perfbench_original__"


def metric_units() -> dict[str, str]:
    """Every per-layer metric name of a traced run, with its unit."""
    units = {
        f"{layer}.{field}": UNITS[field]
        for layer, fields in LAYER_FIELDS.items()
        for field in fields
    }
    units.update(TRACE_METRICS)
    return units


# ---------------------------------------------------------------------------
# counters: exact work counts computed from a call's inputs


def _rk4_counts(bound) -> dict[str, int]:
    """Instance-steps the lockstep RK4 loop runs, and the share of useful work.

    Every instance in the batch takes max(n_i) steps, where instance i needs
    n_i = ceil(t_i/dt); steps of a finished instance are frozen, and rows and
    columns that are zero in both the generator and the amplitudes are zero
    padding.  Work per instance-step is counted as d^2 (one matrix-vector
    product), so useful work is sum n_i*d_i^2 out of B*max(n)*d_max^2.
    """
    import numpy as np

    args = bound.arguments
    g = np.asarray(args["generator"])
    d = g.shape[-1]
    t = np.broadcast_to(np.asarray(args["t"], dtype=float), g.shape[:-2]).reshape(-1)
    g = g.reshape(-1, d, d)
    psi = np.asarray(args["amplitudes"]).reshape(-1, d)
    n = np.ceil(np.round(t / float(args["dt"]), 9)).astype(np.int64)
    live = (g != 0).any(axis=1) | (g != 0).any(axis=2) | (psi != 0)
    last = np.where(live.any(axis=1), d - np.argmax(live[:, ::-1], axis=1), 0)
    total = int(n.max()) if n.size else 0
    return {
        "instance_steps": g.shape[0] * total,
        "work_executed": g.shape[0] * total * d * d,
        "work_useful": int(np.sum(n * last * last)),
    }


def _closed_form_counts(bound) -> dict[str, int]:
    m = len(bound.arguments["config"].couplings)
    return {"bytes_computed": 16 * (m + 1) ** 2}


def _element_counts(bound) -> dict[str, int]:
    import numpy as np

    obj = bound.arguments["self"]
    data = getattr(obj, "amplitudes", None)
    if data is None:
        data = getattr(obj, "matrix")
    return {"elements": int(np.size(data))}


COUNTERS = {
    "rk4_propagate": _rk4_counts,
    "closed_form_propagator": _closed_form_counts,
    "StateVector.__post_init__": _element_counts,
    "GeneratorMatrix.__post_init__": _element_counts,
    "PropagatorMatrix.__post_init__": _element_counts,
}


# ---------------------------------------------------------------------------


def _qcm_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "qcm" or name.startswith("qcm."))
    ]


def installed_wrappers() -> list[str]:
    """Names of every qcm attribute that currently holds a tracing wrapper."""
    found = []
    for mod in _qcm_modules():
        for name, value in vars(mod).items():
            if hasattr(value, _MARK):
                found.append(f"{mod.__name__}.{name}")
            if isinstance(value, type) and value.__module__.startswith("qcm"):
                for attr, member in vars(value).items():
                    if hasattr(member, _MARK):
                        found.append(f"{mod.__name__}.{name}.{attr}")
    return sorted(set(found))


class Tracer:
    """Installs span-recording wrappers for one traced pass, then removes them."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.functions = [ROOT]
        self.layers = [ROOT]
        self.spans: list[list] = []
        self.missing: list[str] = []
        self.counter_errors = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _qcm_modules()
        for layer, module_name, attr in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, method, None) if owner is not None else None
            if original is None or (owner_name and method not in vars(owner)):
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(layer, attr, original, COUNTERS.get(attr))
            if owner_name:
                self._patch(owner, method, original, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, original, wrapper)

    def _patch(self, owner, name, original, wrapper):
        self._patches.append((owner, name, original))
        setattr(owner, name, wrapper)

    def restore(self):
        """Put every original back; raise if any attribute is not the original."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        wrong = [
            f"{getattr(owner, '__name__', owner)}.{name}"
            for owner, name, original in self._patches
            if vars(owner).get(name) is not original
        ]
        self._patches = []
        leftover = wrong + installed_wrappers()
        if leftover:
            raise RuntimeError(f"tracing wrappers left installed: {leftover}")

    def _wrap(self, layer, label, original, counter):
        index = len(self.functions)
        self.functions.append(label)
        self.layers.append(layer)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        signature = inspect.signature(original) if counter else None

        def count(args, kwargs):
            try:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                return counter(bound)
            except (TypeError, KeyError, ValueError, AttributeError):
                self.counter_errors += 1
                return None

        @functools.wraps(original)
        def traced(*args, **kwargs):
            counts = count(args, kwargs) if counter else None
            span = [index, stack[-1], clock(), 0, counts]
            stack.append(len(spans))
            spans.append(span)
            try:
                return original(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        setattr(traced, _MARK, original)
        return traced

    # -- the pass ------------------------------------------------------------

    def begin(self):
        self._stack[:] = [len(self.spans)]
        self.spans.append([0, -1, time.perf_counter_ns(), 0, None])

    def end(self):
        root = self._stack.pop()
        self.spans[root][3] = time.perf_counter_ns()

    # -- results -------------------------------------------------------------

    def _self_times(self) -> list[int]:
        child = [0] * len(self.spans)
        for _, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, _, start, end, _), c in zip(self.spans, child)]

    def layer_metrics(self, format_bytes: int) -> dict[str, float]:
        """Per-layer metrics of the recorded pass (without trace.overhead_s)."""
        calls = dict.fromkeys(LAYER_FIELDS, 0)
        self_ns = dict.fromkeys(LAYER_FIELDS, 0)
        counts: dict[str, int] = {}
        layers = self.layers
        for (fn, parent, _, _, c), own in zip(self.spans, self._self_times()):
            layer = layers[fn]
            if layer == ROOT:
                continue
            self_ns[layer] += own
            if parent < 0 or layers[self.spans[parent][0]] != layer:
                calls[layer] += 1
            for key, value in (c or {}).items():
                counts[f"{layer}.{key}"] = counts.get(f"{layer}.{key}", 0) + value
        out = {}
        for layer, fields in LAYER_FIELDS.items():
            for field in fields:
                name = f"{layer}.{field}"
                if field == "calls":
                    out[name] = calls[layer]
                elif field == "self_s":
                    out[name] = self_ns[layer] / 1e9
                elif field == "useful_ratio":
                    executed = counts.get(f"{layer}.work_executed", 0)
                    out[name] = counts.get(f"{layer}.work_useful", 0) / executed if executed else 0.0
                elif field == "bytes":
                    out[name] = format_bytes
                else:
                    out[name] = counts.get(name, 0)
        root = self.spans[0]
        out["trace.wall_s"] = (root[3] - root[2]) / 1e9
        return out

    def rk4_useful_by_suite(self) -> dict[str, dict[str, float]]:
        """RK4 work counts grouped by the enclosing ``cli.check`` suite."""
        groups: dict[str, dict[str, float]] = {}
        for fn, parent, _, _, c in self.spans:
            if not c or "work_executed" not in c:
                continue
            owner = "other"
            while parent >= 0:
                layer = self.layers[self.spans[parent][0]]
                if layer.startswith("cli.check."):
                    owner = layer
                    break
                parent = self.spans[parent][1]
            g = groups.setdefault(owner, {"instance_steps": 0, "work_executed": 0, "work_useful": 0})
            for key in g:
                g[key] += c[key]
        for g in groups.values():
            g["useful_ratio"] = g["work_useful"] / g["work_executed"] if g["work_executed"] else None
        return groups

    def write_spans(self, path):
        """Write the recorded spans (one trace id, times in ns) as gzipped JSON."""
        payload = {
            "trace_id": self.trace_id,
            "clock": "time.perf_counter_ns",
            "functions": self.functions,
            "layers": self.layers,
            "fields": ["function", "parent", "start_ns", "end_ns", "counts"],
            "spans": self.spans,
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(payload, fh, separators=(",", ":"))
