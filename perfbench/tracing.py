"""In-process span tracing of lobcancel's public functions, from outside src/.

A Tracer wraps the functions listed in LAYER_FUNCS wherever lobcancel's
modules bind them, records one span per call (name, layer, start, end,
parent) in memory, and restores the originals on uninstall. Per-event book
calls are not wrapped: `lob_pass` replays them in a pass of their own and
aggregates one total per event kind, so the per-call cost of a span does
not swamp a 3-15 microsecond `LimitOrderBook.apply`.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

# Traced functions per layer. Functions called once per event or once per
# optimizer step (phase_of, classify_submission, lognormal_unit_mass, ...) are
# left out on purpose: wrapping them would cost more than the work they do.
LAYER_FUNCS = {
    "cli": ("main",),
    "synth": ("generate_stream",),
    "orderflow": ("parse_stream", "serialize_events", "split_days"),
    "profiles": ("replay_day", "profile_events", "accumulate_pdf",
                 "InstrumentProfile.add_day", "ProfileRun.ensemble"),
    "reportio": ("profiles_payload", "render_json", "cancels_csv", "fits_payload", "write_text"),
    "distfit": ("fit_lognormal_lsq", "fit_gamma_lsq", "fit_exp_profile", "fit_powerlaw_tail",
                "gof_pvalue_mc", "sample_trunc_lognormal"),
}
COUNTERS = ("synth.events", "orderflow.parse_errors", "profiles.observations",
            "distfit.gof_repeats", "distfit.gof_samples_drawn", "distfit.fit_errors",
            "distfit.gof_unfittable")
DIAGNOSTICS = ("cancel_exceeds_remaining", "cancels_of_precontinuous_orders",
               "cancels_outside_continuous", "dangling_cancels", "duplicate_order_ids",
               "held_events")


@dataclass(slots=True)
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int          # index into Tracer.spans, -1 for a root span
    raised: str | None   # exception class name, if the call raised


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every LAYER_FUNCS entry in each lobcancel namespace binding it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "lobcancel" or name.startswith("lobcancel.")]
        for layer, names in LAYER_FUNCS.items():
            home = sys.modules[f"lobcancel.{layer}"]
            for qual in names:
                if "." in qual:  # a method: patch it on its class
                    cls_name, meth = qual.split(".")
                    cls = getattr(home, cls_name)
                    self._patch(cls, meth, self._wrap(getattr(cls, meth), f"{layer}.{qual}", layer))
                    continue
                original = getattr(home, qual)
                wrapped = self._wrap(original, f"{layer}.{qual}", layer)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, func, name: str, layer: str):
        spans, stack, counts = self.spans, self._stack, self.counts
        signature = inspect.signature(func)
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, layer, clock(), 0.0, stack[-1] if stack else -1, None)
            spans.append(span)
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                span.raised = type(exc).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()
            _count(name, signature, args, kwargs, result, counts)
            return result

        return traced

    # -- aggregation -------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-function entry times, per-layer self times, and counters.

        `<layer>.<func>.s` sums calls entered from another layer, so a refit
        inside gof_pvalue_mc is not counted again under fit_lognormal_lsq.
        `<layer>.self_s` is the layer's span time minus the time covered by
        its child spans in other layers.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        out: dict[str, float] = defaultdict(float)
        for layer, names in LAYER_FUNCS.items():
            out[f"{layer}.self_s"] = 0.0
            out.update({f"{layer}.{qual}.s": 0.0 for qual in names})
        out.update({name: 0 for name in COUNTERS})
        out.update({f"profiles.diagnostics.{key}": 0 for key in DIAGNOSTICS})
        for i, span in enumerate(spans):
            duration = span.end - span.start
            out[f"{span.layer}.self_s"] += duration - child_time[i]
            parent_layer = spans[span.parent].layer if span.parent >= 0 else None
            if parent_layer != span.layer:
                out[f"{span.name}.s"] += duration
                if span.raised and span.layer == "distfit":
                    out["distfit.fit_errors"] += 1
            elif span.raised and span.name == "distfit.fit_lognormal_lsq":
                out["distfit.gof_unfittable"] += 1
        out.update(self.counts)
        return dict(out)

    def layer_time(self, first: int, last: int) -> float:
        """Time of the layer calls made directly by cli spans[first:last]."""
        spans = self.spans
        return sum(s.end - s.start for s in spans[first:last]
                   if s.layer != "cli" and s.parent >= 0 and spans[s.parent].layer == "cli")


def _count(name, signature, args, kwargs, result, counts: Counter) -> None:
    """Counters read off the arguments and results of traced calls."""
    if name == "synth.generate_stream":
        counts["synth.events"] += len(result)
    elif name == "orderflow.parse_stream":
        counts["orderflow.parse_errors"] += len(result.errors)
    elif name == "profiles.replay_day":
        counts["profiles.observations"] += len(result.observations)
        for key, value in result.diagnostics.items():
            counts[f"profiles.diagnostics.{key}"] += value
    elif name == "distfit.gof_pvalue_mc":
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        counts["distfit.gof_repeats"] += bound.arguments["repeats"]
    elif name == "distfit.sample_trunc_lognormal":
        counts["distfit.gof_samples_drawn"] += signature.bind(*args, **kwargs).arguments["n"]


def lob_pass(paths: list[str]) -> dict[str, float]:
    """Replay parsed events through fresh books, timing each apply by kind.

    Events of an instrument-day are applied in file order, which is the
    order replay_day applies them in for streams that open in a continuous
    session, as every benchmark stream does. Times include one
    perf_counter pair per call.
    """
    from lobcancel.lob import LimitOrderBook, LobError
    from lobcancel.orderflow import EventKind, parse_stream, split_days

    clock = time.perf_counter
    cancel_s = submit_s = 0.0
    cancels = submits = trades = errors = 0
    side_levels: list[int] = []
    level_orders: list[int] = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            events = parse_stream(fh.read()).events
        for _, day in sorted(split_days(events).items()):
            apply = LimitOrderBook().apply
            for ev in day:
                t0 = clock()
                try:
                    outcome = apply(ev)
                except LobError:
                    errors += 1
                    continue
                dt = clock() - t0
                if ev.kind is EventKind.CANCEL:
                    cancel_s += dt
                    cancels += 1
                    rec = outcome.cancellation
                    side_levels.append(rec.side_levels)
                    level_orders.append(rec.level_orders)
                else:
                    submit_s += dt
                    submits += 1
                    trades += len(outcome.trades)
    out = {
        "lob.apply_cancel.s": cancel_s,
        "lob.apply_cancel.calls": cancels,
        "lob.apply_cancel.us": 1e6 * cancel_s / cancels if cancels else 0.0,
        "lob.apply_submission.s": submit_s,
        "lob.apply_submission.calls": submits,
        "lob.apply_submission.us": 1e6 * submit_s / submits if submits else 0.0,
        "lob.trades": trades,
        "lob.errors": errors,
    }
    for key, values in (("side_levels_at_cancel", side_levels), ("level_orders_at_cancel", level_orders)):
        arr = np.asarray(values, float)
        out[f"lob.{key}.mean"] = float(arr.mean()) if arr.size else 0.0
        out[f"lob.{key}.p99"] = float(np.percentile(arr, 99)) if arr.size else 0.0
    return out
