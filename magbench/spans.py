"""Spans recorded around calls into magcalib, from outside the package.

A :class:`Recorder` keeps every span in memory (name, start, end, parent,
op id) plus named counters. :func:`installed` swaps the package's public
functions for timing wrappers for the length of a ``with`` block and puts the
originals back afterwards; :func:`check_pristine` lets an untraced run prove
that no wrapper is left in place.

A name bound with ``from .x import y`` is looked up in the caller's module, so
it is wrapped there (``magcalib.sweeps.calibrate``, not
``magcalib.extrinsic.calibrate``). Map methods are wrapped on the class.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from dataclasses import dataclass, field

_MARK = "__magbench_span__"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int   # index into Recorder.spans, -1 at the top level
    op: int       # -1 during set-up

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


@dataclass
class Recorder:
    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    kept: dict = field(default_factory=dict)   # span name -> last result
    op: int = -1
    _stack: list = field(default_factory=list)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, fn, target: "Target"):
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if target.name is None:          # count-only target
                recorder.count(target.counter)
                return fn(*args, **kwargs)
            name = target.name(args) if callable(target.name) else target.name
            index = len(recorder.spans)
            parent = recorder._stack[-1] if recorder._stack else -1
            span = Span(name, time.perf_counter(), 0.0, parent, recorder.op)
            recorder.spans.append(span)
            recorder._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                recorder._stack.pop()
            recorder.count(name + ".calls")
            if target.counts is not None:
                for key, amount in target.counts(args, kwargs, result).items():
                    recorder.count(key, amount)
            if target.keep:
                recorder.kept[name] = result
            return result

        setattr(wrapper, _MARK, fn)
        return wrapper


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: ``owner`` is a dotted module path, optionally
    followed by ``:Class``. ``name`` is the span name, a callable of the
    positional arguments, or None for a call counter (``counter``) only."""

    owner: str
    attr: str
    name: object
    counts: object = None
    keep: bool = False
    counter: str = ""


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


@dataclass
class installed:
    """Context manager: wrap every target for the block, then restore."""

    recorder: Recorder
    targets: tuple

    def __enter__(self):
        self._saved = []
        try:
            for target in self.targets:
                owner = _resolve(target.owner)
                original = getattr(owner, target.attr)
                if hasattr(original, _MARK):
                    raise RuntimeError(f"{target.owner}.{target.attr} is already wrapped")
                self._saved.append((owner, target.attr, original))
                setattr(owner, target.attr, self.recorder.wrap(original, target))
        except BaseException:
            self._restore()
            raise
        return self.recorder

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []


def check_pristine(targets) -> None:
    """Raise if any target attribute is still a tracing wrapper."""
    for target in targets:
        if hasattr(getattr(_resolve(target.owner), target.attr), _MARK):
            raise RuntimeError(f"{target.owner}.{target.attr} is still wrapped")


# ---------------------------------------------------------------------------
# self time


def self_times(spans) -> list:
    """Each span's duration minus the part of it its direct children cover."""
    children: dict[int, list] = {}
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(span)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(i, ()), key=lambda s: s.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.duration - covered)
    return out


def self_time_by_name(spans) -> dict:
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals


# ---------------------------------------------------------------------------
# the magcalib boundaries


def _query_counts(args, kwargs, result):
    inside = result[2]
    return {"magmap.query_many.points": inside.size,
            "magmap.query_many.outside": int(inside.size - inside.sum())}


def _gradient_counts(args, kwargs, result):
    return {"magmap.gradient_many.points": len(result[1])}


def _train_rows(args, kwargs, result):
    return {"magmap.build_map.train_rows": result.n_train()}


def _survey_rows(args, kwargs, result):
    return {"simulator.survey_dataset.rows": len(result)}


def _calibrate_counts(args, kwargs, result):
    return {"extrinsic.iterations": result.iterations}


def _map_bytes(args, kwargs, result):
    return {"serialization.map_bytes": os.path.getsize(args[1])}


def _cli_name(args):
    argv = args[0] if args else None
    return f"cli.{argv[0]}" if argv else "cli.main"


def magcalib_targets() -> tuple:
    """The layer boundaries of the magcalib package, by module."""
    sim = ("generate_path", "sample_dataset", "survey_dataset")
    targets = [
        Target("magcalib.sweeps", "run_table1_sweep", "sweeps.run_table1_sweep"),
        Target("magcalib.sweeps", "run_ablation", "sweeps.run_ablation"),
        Target("magcalib.cli", "main", _cli_name),
        Target("magcalib.sweeps", "calibrate", "extrinsic.calibrate",
               counts=_calibrate_counts),
        Target("magcalib.cli", "calibrate", "extrinsic.calibrate",
               counts=_calibrate_counts),
        Target("magcalib.extrinsic", "_evaluate", None,
               counter="extrinsic.evaluate_calls"),
        Target("magcalib.extrinsic", "select_lambda", "intrinsic.select_lambda"),
        *(Target("magcalib.extrinsic", f"solve_{s}", "intrinsic.solve")
          for s in ("ols", "rrtls", "wrrtls")),
        Target("magcalib.magmap:MagMap", "query_many", "magmap.query_many",
               counts=_query_counts),
        Target("magcalib.magmap:MagMap", "gradient_many", "magmap.gradient_many",
               counts=_gradient_counts),
        Target("magcalib.magmap:BilinearMap", "query_many",
               "magmap.bilinear.query_many"),
        Target("magcalib.magmap:BilinearMap", "gradient_many",
               "magmap.bilinear.gradient_many"),
        Target("magcalib.sweeps", "build_map", "magmap.build_map",
               counts=_train_rows, keep=True),
        Target("magcalib.cli", "build_map", "magmap.build_map",
               counts=_train_rows, keep=True),
        *(Target(f"magcalib.{m}", f, f"simulator.{f}",
                 counts=_survey_rows if f == "survey_dataset" else None)
          for m in ("sweeps", "cli") for f in sim),
        *(Target("magcalib.geometry:Dataset", f, "geometry.dataset_columns")
          for f in ("positions", "rotations", "readings")),
        Target("magcalib.serialization", "read_fingerprints",
               "serialization.read_fingerprints"),
        Target("magcalib.serialization", "write_fingerprints",
               "serialization.write_fingerprints"),
        Target("magcalib.serialization", "save_map", "serialization.save_map",
               counts=_map_bytes),
        Target("magcalib.serialization", "load_map", "serialization.load_map"),
        Target("magcalib.serialization", "save_result", "serialization.save_result"),
        Target("magcalib.serialization", "load_result", "serialization.load_result"),
    ]
    return tuple(targets)


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(recorder: Recorder) -> dict:
    """Per-layer totals over every recorded span, set-up included."""
    from stats import summarize

    spans = recorder.spans
    own = self_time_by_name(spans)
    c = recorder.counters

    def durations(name):
        return [s.duration for s in spans if s.name == name]

    def layer_self(layer):
        return sum((t for name, t in own.items() if name.split(".", 1)[0] == layer), 0.0)

    out = {}
    for name in ("magmap.query_many", "magmap.gradient_many"):
        out[f"{name}.calls"] = c.get(f"{name}.calls", 0)
        out[f"{name}.points"] = c.get(f"{name}.points", 0)
    points = c.get("magmap.query_many.points", 0)
    out["magmap.outside_share"] = (c.get("magmap.query_many.outside", 0) / points
                                   if points else 0.0)
    out["magmap.build_map.calls"] = c.get("magmap.build_map.calls", 0)
    out["magmap.build_map.train_rows"] = c.get("magmap.build_map.train_rows", 0)
    for name in ("intrinsic.select_lambda", "intrinsic.solve", "extrinsic.calibrate"):
        out[f"{name}.calls"] = c.get(f"{name}.calls", 0)
    calibrate = summarize(durations("extrinsic.calibrate"))
    out["extrinsic.calibrate.s.p50"] = calibrate["p50"]
    out["extrinsic.calibrate.s.p90"] = calibrate["p90"]
    iterations = c.get("extrinsic.iterations", 0)
    evaluations = (c.get("extrinsic.evaluate_calls", 0)
                   - c.get("extrinsic.calibrate.calls", 0))
    out["extrinsic.iterations"] = iterations
    out["extrinsic.evaluations"] = evaluations
    out["extrinsic.accept_ratio"] = iterations / evaluations if evaluations else 0.0
    for name in ("magmap.query_many", "magmap.gradient_many", "magmap.build_map",
                 "magmap.bilinear.query_many", "magmap.bilinear.gradient_many",
                 "intrinsic.select_lambda", "intrinsic.solve", "extrinsic.calibrate",
                 "simulator.survey_dataset", "simulator.generate_path",
                 "simulator.sample_dataset", "serialization.read_fingerprints",
                 "serialization.write_fingerprints", "serialization.save_map",
                 "serialization.load_map", "geometry.dataset_columns"):
        out[f"{name}.self_s"] = own.get(name, 0.0)
    out["simulator.survey_dataset.rows"] = c.get("simulator.survey_dataset.rows", 0)
    saves = c.get("serialization.save_map.calls", 0)
    out["serialization.map_bytes"] = (c.get("serialization.map_bytes", 0) / saves
                                      if saves else 0)
    out["sweeps.self_s"] = layer_self("sweeps")
    out["cli.self_s"] = layer_self("cli")

    # what the user waits on: the CLI command when there is one, else the call
    for metric, command, call in (("build_map_s", "cli.build-map", "magmap.build_map"),
                                  ("calibrate_s", "cli.calibrate", "extrinsic.calibrate")):
        waited = summarize(durations(command) or durations(call))
        out[f"{metric}.p50"] = waited["p50"]
        out[f"{metric}.n"] = waited["n"]
    return out
