"""Span tracing around the public calls of each kernelcg module, from outside.

``Tracer.installed()`` replaces the public names the CLI reaches each layer
through with timing wrappers and restores them on exit, so no file of the
package changes. ``harness`` and ``cli`` import names directly, so the
wrappers go into those modules' namespaces; ``MercerKernel.basis`` is
wrapped on the class, which catches it wherever it nests (kernel build,
sample draw, error norm, hold-out selection).

Spans are kept in memory. A span of one replicate carries that replicate's
id; an id begins at the replicate's ``draw_sample`` call and lasts until the
next one or the end of the harness call.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

import numpy as np


class Span:
    __slots__ = ("name", "start", "end", "parent", "replicate", "info")

    def __init__(self, name, start, parent, replicate):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.replicate = replicate
        self.info = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.replicate]


def _rows(points) -> np.ndarray:
    return np.asarray(points, dtype=float).ravel()


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# What each wrapped call records besides its span, from (args, kwargs, result).
def _note_draw(args, kwargs, result):
    return {"n": int(_arg(args, kwargs, 1, "n"))}


def _note_build(args, kwargs, result):
    return {"rows": result.n, "bytes": result.entries.nbytes}


def _note_basis(args, kwargs, result):
    return {"points": _rows(_arg(args, kwargs, 1, "points"))}


def _note_cg(args, kwargs, result):
    return {"m_last": result.m_last, "bytes": result.alphas.nbytes}


def _note_m_hat(args, kwargs, result):
    return {"m_hat": int(result)}


def _note_threshold(args, kwargs, result):
    return {"admissible": bool(result.admissible)}


HARNESS_ENTRIES = ("run_experiment", "compare_solvers")
ENTRY_SPANS = {"harness." + name for name in HARNESS_ENTRIES}
WRITERS = (
    "write_rows_csv", "write_summary_json", "write_plot_tsv",
    "write_compare_csv", "write_compare_json", "write_text_atomic",
)


def _targets():
    """(owner, attribute, span name, note) for every wrapped public name."""
    from kernelcg import cli, harness, kernels

    out = [(cli, name, "harness." + name, None) for name in HARNESS_ENTRIES]
    out += [(cli, name, "harness.write", None) for name in WRITERS]
    for owner in (harness, cli):
        out += [
            (owner, "draw_sample", "synth.draw_sample", _note_draw),
            (owner, "build_kernel_matrix", "kernels.build_kernel_matrix", _note_build),
            (owner, "cg_fit", "solvers.cg_fit", _note_cg),
            (owner, "holdout_select", "stopping.holdout_select", _note_m_hat),
            (owner, "error_norm", "evaluation.error_norm", None),
        ]
    out += [
        (harness, "ridge_fit", "solvers.ridge_fit", None),
        (harness, "discrepancy_stop", "stopping.discrepancy_stop", _note_m_hat),
        (harness, "threshold_calibrated", "stopping.threshold", _note_threshold),
        (harness, "threshold_inner", "stopping.threshold", _note_threshold),
        (harness, "threshold_outer", "stopping.threshold", _note_threshold),
        (kernels.MercerKernel, "basis", "kernels.basis", _note_basis),
    ]
    return out


class Tracer:
    """Records nested spans of one or more traced CLI calls."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._replicates = 0
        self._replicate: int | None = None

    def _open(self, name: str) -> Span:
        if name == "synth.draw_sample" and self._in_harness():
            self._replicate = self._replicates
            self._replicates += 1
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent, self._replicate)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.name in ENTRY_SPANS:
            self._replicate = None

    def _in_harness(self) -> bool:
        return any(self.spans[i].name in ENTRY_SPANS for i in self._stack)

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name, fn, note=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.info["raised"] = type(exc).__name__
                raise
            finally:
                self._close(span)
            if note is not None:
                span.info.update(note(args, kwargs, result))
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target name that exists; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, name, note in _targets():
                original = owner.__dict__.get(attr)
                if original is None:
                    self.missing.append(f"{owner.__name__}.{attr}")
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, note))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def _self_times(spans: list[Span]) -> list[float]:
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def span_totals(calls: list[list[Span]]) -> dict[str, list[float]]:
    """[inclusive, self] seconds per span name, summed over traced calls."""
    out: dict[str, list[float]] = {}
    for spans in calls:
        for span, own in zip(spans, _self_times(spans)):
            total = out.setdefault(span.name, [0.0, 0.0])
            total[0] += span.duration
            total[1] += own
    return out


def layer_metrics(spans: list[Span], wall_s: float) -> dict[str, float]:
    """Per-layer figures of one traced CLI call whose root span is ``spans[0]``."""
    own = _self_times(spans)

    def by(name):
        return [i for i, s in enumerate(spans) if s.name == name]

    def total(name):
        return float(sum(spans[i].duration for i in by(name)))

    def self_total(name):
        return float(sum(own[i] for i in by(name)))

    def info_sum(name, key):
        return sum(spans[i].info.get(key, 0) for i in by(name))

    draws = by("synth.draw_sample")
    builds = by("kernels.build_kernel_matrix")
    basis = by("kernels.basis")
    cgs = by("solvers.cg_fit")
    ridges = by("solvers.ridge_fit")
    stops = by("stopping.discrepancy_stop") + by("stopping.holdout_select")
    thresholds = by("stopping.threshold")
    entries = {i for i, s in enumerate(spans) if s.name in ENTRY_SPANS}

    basis_rows = sum(spans[i].info["points"].size for i in basis)
    per_replicate: dict[int, list[np.ndarray]] = {}
    for i in basis:
        if spans[i].replicate is not None:
            per_replicate.setdefault(spans[i].replicate, []).append(spans[i].info["points"])
    distinct = sum(np.unique(np.concatenate(p)).size for p in per_replicate.values())

    iterations = info_sum("solvers.cg_fit", "m_last")
    m_hats = [spans[i].info["m_hat"] for i in stops if "m_hat" in spans[i].info]
    restarts = sum(
        1 for i in by("stopping.discrepancy_stop")
        if spans[i].info.get("raised") == "NotReached"
    )
    kept = len({spans[i].replicate for i in ridges})
    admissible = sum(1 for i in thresholds if spans[i].info.get("admissible"))

    layer_spans = sum(spans[i].duration for i, s in enumerate(spans) if s.parent in entries)
    write_s = total("harness.write")

    extents: dict[int, list[float]] = {}
    sizes = {spans[i].replicate: spans[i].info["n"] for i in draws}
    for s in spans:
        if s.replicate is not None:
            lo, hi = extents.get(s.replicate, (s.start, s.end))
            extents[s.replicate] = [min(lo, s.start), max(hi, s.end)]
    largest = max(sizes.values(), default=0)
    rep_s = [hi - lo for r, (lo, hi) in extents.items() if sizes.get(r) == largest]

    def pct(values, q):
        return float(np.percentile(values, q)) if values else 0.0

    def ratio(a, b):
        return float(a) / float(b) if b else 0.0

    return {
        "kernels.build_s": total("kernels.build_kernel_matrix"),
        "kernels.build_calls": len(builds),
        "kernels.build_entries": sum(spans[i].info["rows"] ** 2 for i in builds),
        "kernels.build_bytes": info_sum("kernels.build_kernel_matrix", "bytes"),
        "kernels.basis_s": self_total("kernels.basis"),
        "kernels.basis_rows": basis_rows,
        "kernels.basis_reuse": ratio(distinct, basis_rows),
        "synth.draw_sample_s": total("synth.draw_sample"),
        "synth.draw_sample_calls": len(draws),
        "solvers.cg_s": total("solvers.cg_fit"),
        "solvers.cg_calls": len(cgs),
        "solvers.cg_iterations": iterations,
        "solvers.cg_useful": ratio(sum(m_hats), iterations),
        "solvers.cg_restarts": restarts,
        "solvers.alphas_bytes": info_sum("solvers.cg_fit", "bytes"),
        "solvers.ridge_s": total("solvers.ridge_fit"),
        "solvers.ridge_calls": len(ridges),
        "solvers.ridge_useful": ratio(kept, len(ridges)),
        "stopping.discrepancy_s": total("stopping.discrepancy_stop"),
        "stopping.holdout_select_s": total("stopping.holdout_select"),
        "stopping.m_hat_p50": float(np.median(m_hats)) if m_hats else 0.0,
        "stopping.admissible_fraction": ratio(admissible, len(thresholds)),
        "evaluation.error_norm_s": self_total("evaluation.error_norm"),
        "evaluation.error_norm_calls": len(by("evaluation.error_norm")),
        "harness.self_s": wall_s - layer_spans - write_s,
        "harness.write_s": write_s,
        "harness.replicate_s_p50": pct(rep_s, 50),
        "harness.replicate_s_p90": pct(rep_s, 90),
    }
