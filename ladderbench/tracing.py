"""Traced pass: spans and counts at ladderkit's layer boundaries.

Wrapping happens from the benchmark's side only.  Call sites bind public
functions by name (``from .linalg import rref``), so each wrapped function is
rebound in every ``ladderkit.*`` namespace that holds it; methods are wrapped
on their class.  Everything is restored when the pass ends.

A span is [name, start, end, parent span index, workload input, leaf time].
Cheap leaf methods called very often (Field.matmul, Algebra.same_as) are
count-only: they record calls and time but no span, and add their time to
the enclosing span's leaf time so that its self time stays exact.  Self time
is a span's duration minus what its child spans and count-only leaves cover;
it includes the calibration sampler's share (about 1% of the pass).
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

from ladderkit.algebra import Algebra
from ladderkit.linalg import Field
from ladderkit.modules import Bimodule


def _rref_sizes(rec, args, kwargs, result):
    rows, cols = args[0].shape
    rec.add("linalg.rref.cells", rows * cols)
    rec.add("linalg.rref.small", max(rows, cols) <= 4)


def _hom_space_sizes(rec, args, kwargs, result):
    m, n = args[0], args[1]
    rec.add("modules.hom_space.unknowns", m.dim * n.dim)
    rec.add("modules.hom_space.zero", len(result) == 0)


def _is_isomorphic_sizes(rec, args, kwargs, result):
    rec.add("modules.is_isomorphic.trials", result.trials)


def _resolution_sizes(rec, args, kwargs, result):
    dims = [t.dim for t in result.terms]
    rec.add("modules.minimal_resolution.terms", len(dims))
    rec.stats["modules.minimal_resolution.max_term_dim"] = max(rec.stats["modules.minimal_resolution.max_term_dim"], max(dims, default=0))


def _tensor_sizes(rec, args, kwargs, result):
    td = result[1]
    rec.add("modules.tensor_over.pure_dim", td.m_dim * td.n_dim)


def _ladder_sizes(rec, args, kwargs, result):
    rec.add("ladder.rungs", len(result.r_rungs) + len(result.l_rungs))


# (span name, owner module or class, attribute, sizes hook)
SPANS = [
    ("linalg.rref", "ladderkit.linalg", "rref", _rref_sizes),
    ("linalg.kernel_basis", "ladderkit.linalg", "kernel_basis", None),
    ("linalg.solve_matrix", "ladderkit.linalg", "solve_matrix", None),
    ("algebra.Algebra.init", Algebra, "__init__", None),
    ("algebra.opposite", "ladderkit.algebra", "opposite", None),
    ("algebra.enveloping", "ladderkit.algebra", "enveloping", None),
    ("modules.Bimodule.init", Bimodule, "__init__", None),
    ("modules.hom_space", "ladderkit.modules", "hom_space", _hom_space_sizes),
    ("modules.is_isomorphic", "ladderkit.modules", "is_isomorphic", _is_isomorphic_sizes),
    ("modules.bimodules_isomorphic", "ladderkit.modules", "bimodules_isomorphic", None),
    ("modules.projective_cover", "ladderkit.modules", "projective_cover", None),
    ("modules.projective_indecomposables", "ladderkit.modules", "projective_indecomposables", None),
    ("modules.radical", "ladderkit.modules", "radical", None),
    ("modules.minimal_resolution", "ladderkit.modules", "minimal_resolution", _resolution_sizes),
    ("modules.tensor_over", "ladderkit.modules", "tensor_over", _tensor_sizes),
    ("modules.hom_module", "ladderkit.modules", "hom_module", None),
    ("recollement.build_recollement", "ladderkit.recollement", "build_recollement", None),
    ("ladder.tower", "ladderkit.ladder", "_tower", None),
    ("ladder.ladder_report", "ladderkit.ladder", "ladder_report", _ladder_sizes),
    ("homological.spli_silp", "ladderkit.homological", "spli_silp", None),
    ("homological.ext_dims", "ladderkit.homological", "ext_dims", None),
    ("homological.tor_dims", "ladderkit.homological", "tor_dims", None),
    ("homological.is_stratifying", "ladderkit.homological", "is_stratifying", None),
    ("homological.is_gorenstein_projective", "ladderkit.homological", "is_gorenstein_projective", None),
    ("homological.stable_hom_dim", "ladderkit.homological", "stable_hom_dim", None),
]

# count-only leaves: they call nothing that is wrapped
LEAVES = [
    ("linalg.matmul", Field, "matmul"),
    ("algebra.same_as", Algebra, "same_as"),
]


class Recorder:
    """Holds the spans and counts of one traced pass."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.input_id = None
        self.calls_by_input: dict = defaultdict(int)  # (name, input_id) -> calls
        self.stats: dict = defaultdict(int)
        self.leaf_s: dict = defaultdict(float)  # (name, input_id) -> seconds
        self._restore: list = []

    @property
    def calls(self) -> dict:
        out: dict = defaultdict(int)
        for (name, _), n in self.calls_by_input.items():
            out[name] += n
        return out

    def set_input(self, input_id: str):
        self.input_id = input_id

    def add(self, key: str, value):
        self.stats[key] += int(value)

    def _span_wrapper(self, name, fn, sizes):
        rec = self

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, rec.stack[-1] if rec.stack else -1, rec.input_id, 0.0]
            rec.stack.append(len(rec.spans))
            rec.spans.append(span)
            rec.calls_by_input[(name, rec.input_id)] += 1
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                rec.stack.pop()
            if sizes is not None:
                sizes(rec, args, kwargs, result)
            return result

        return wrapper

    def _leaf_wrapper(self, name, fn):
        rec = self

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                rec.calls_by_input[(name, rec.input_id)] += 1
                rec.leaf_s[(name, rec.input_id)] += dt
                if rec.stack:
                    rec.spans[rec.stack[-1]][5] += dt

        return wrapper

    def _install(self, owner, attr, wrapper):
        if isinstance(owner, type):
            self._restore.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)
            return
        original = getattr(sys.modules[owner], attr)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "ladderkit" and not mod_name.startswith("ladderkit."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, value))
                    setattr(mod, key, wrapper)

    @contextmanager
    def installed(self):
        """Wrap every layer boundary for the duration of the block."""
        try:
            for name, owner, attr, sizes in SPANS:
                fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(sys.modules[owner], attr)
                self._install(owner, attr, self._span_wrapper(name, fn, sizes))
            for name, owner, attr in LEAVES:
                self._install(owner, attr, self._leaf_wrapper(name, owner.__dict__[attr]))
            yield self
        finally:
            for owner, attr, value in reversed(self._restore):
                setattr(owner, attr, value)
            self._restore.clear()

    def self_times(self, factors: dict) -> dict:
        """Calibrated self seconds per span or leaf name; factors maps a
        workload input to its calibration factor."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict = defaultdict(float)
        for i, (name, start, end, _, input_id, leaf) in enumerate(self.spans):
            out[name] += (end - start - covered[i] - leaf) * factors.get(input_id, 1.0)
        for (name, input_id), seconds in self.leaf_s.items():
            out[name] += seconds * factors.get(input_id, 1.0)
        return out

    def write_spans(self, path):
        """One JSON array per line: name, start, end, parent, input, leaf s."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("".join(json.dumps(s) + "\n" for s in self.spans))


def _frac(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder, factors: dict) -> dict:
    """The per-layer metrics named in BENCHMARK.json, as {name: (value, unit)}."""
    st = rec.self_times(factors)
    c, s = rec.calls, rec.stats
    out = {}

    def calls_self(name, with_self=True):
        out[f"{name}.calls"] = (c[name], "count")
        if with_self:
            out[f"{name}.self_s"] = (st[name], "s")

    calls_self("linalg.rref")
    out["linalg.rref.cells"] = (s["linalg.rref.cells"], "cells")
    out["linalg.rref.small_frac"] = (_frac(s["linalg.rref.small"], c["linalg.rref"]), "ratio")
    for name in ("linalg.kernel_basis", "linalg.solve_matrix", "linalg.matmul"):
        calls_self(name)
    calls_self("modules.hom_space")
    out["modules.hom_space.unknowns"] = (s["modules.hom_space.unknowns"], "count")
    out["modules.hom_space.zero_frac"] = (_frac(s["modules.hom_space.zero"], c["modules.hom_space"]), "ratio")
    calls_self("modules.is_isomorphic")
    out["modules.is_isomorphic.trials"] = (s["modules.is_isomorphic.trials"], "count")
    out["ladder.iso_pairs"] = (c["modules.bimodules_isomorphic"], "count")
    calls_self("modules.projective_cover")
    calls_self("modules.projective_indecomposables")
    calls_self("modules.radical", with_self=False)
    calls_self("modules.minimal_resolution")
    out["modules.minimal_resolution.terms"] = (s["modules.minimal_resolution.terms"], "count")
    out["modules.minimal_resolution.max_term_dim"] = (s["modules.minimal_resolution.max_term_dim"], "dim")
    calls_self("modules.tensor_over")
    out["modules.tensor_over.pure_dim"] = (s["modules.tensor_over.pure_dim"], "dim")
    out["modules.Bimodule.init.self_s"] = (st["modules.Bimodule.init"], "s")
    calls_self("modules.hom_module")
    out["ladder.rungs"] = (s["ladder.rungs"], "count")
    out["ladder.tower.self_s"] = (st["ladder.tower"], "s")
    out["algebra.same_as.calls"] = (c["algebra.same_as"], "count")
    out["algebra.opposite.calls"] = (c["algebra.opposite"], "count")
    calls_self("algebra.enveloping")
    out["algebra.Algebra.init.self_s"] = (st["algebra.Algebra.init"], "s")
    calls_self("recollement.build_recollement")
    for fn in ("spli_silp", "ext_dims", "tor_dims", "is_stratifying", "is_gorenstein_projective", "stable_hom_dim"):
        calls_self(f"homological.{fn}")
    return out


def count_metrics(rec: Recorder) -> dict:
    """The deterministic part of a traced pass: calls and size sums."""
    return {**{f"{k}.calls": v for k, v in sorted(rec.calls.items())}, **dict(sorted(rec.stats.items()))}


def calls_by_input(rec: Recorder) -> dict:
    """Calls per workload input: {input: {name: calls}}."""
    out: dict = defaultdict(dict)
    for (name, input_id), n in sorted(rec.calls_by_input.items(), key=lambda kv: (str(kv[0][1]), kv[0][0])):
        out[str(input_id)][name] = n
    return dict(out)
