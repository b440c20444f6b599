"""Deterministic serialization of profile and fit results.

Output artifacts must be byte-identical across runs with the same inputs and
seed, so JSON is rendered by hand: keys sorted, floats printed with 17
significant digits, no locale or hash-order dependence anywhere.
"""
from __future__ import annotations

import math
import os
import shutil
from typing import Iterable

from .profiles import (
    CANCELLABLE_CLASSES,
    AggressivenessClass,
    BinSpec,
    CancelObservation,
    InstrumentProfile,
    PdfError,
    ProfileRun,
    SideAccumulator,
    accumulate_pdf,
    count_pdf,
    ratio_report,
)

SCHEMA_VERSION = 1

CANCELS_CSV_HEADER = (
    "instrument,seq,timestamp,phase,side,cancel_index,level_rank,side_levels,"
    "level_orders,side_orders,queue_rank,rel_level,norm_level,queue_frac,"
    "cancelled_size,order_class,in_profile,in_ratio"
)


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite float in output: {x}")
    return f"{x:.17g}"


def render_json(obj, indent: int = 2) -> str:
    """Render JSON with sorted keys and fixed float formatting."""
    pieces: list[str] = []
    _render(obj, pieces, 0, indent)
    pieces.append("\n")
    return "".join(pieces)


def _render(obj, out: list[str], level: int, indent: int) -> None:
    pad = " " * (indent * (level + 1))
    close_pad = " " * (indent * level)
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(_escape(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        keys = sorted(obj)
        for i, key in enumerate(keys):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            out.append(pad)
            out.append(_escape(key))
            out.append(": ")
            _render(obj[key], out, level + 1, indent)
            out.append(",\n" if i < len(keys) - 1 else "\n")
        out.append(close_pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(obj):
            out.append(pad)
            _render(item, out, level + 1, indent)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(close_pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def _escape(s: str) -> str:
    out = ['"']
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\r":
            out.append("\\r")
        elif ch == "\t":
            out.append("\\t")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


def write_text(path: str | os.PathLike, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# Lines per write: a long file is streamed, never held whole as one string.
CHUNK_LINES = 8192


def write_lines(path: str | os.PathLike, lines: Iterable[str], *, append: bool = False) -> None:
    """Write each line and a newline, CHUNK_LINES lines joined per write."""
    with open(path, "a" if append else "w", encoding="utf-8", newline="\n") as fh:
        chunk: list[str] = []
        for line in lines:
            chunk.append(line)
            if len(chunk) == CHUNK_LINES:
                fh.write("\n".join(chunk) + "\n")
                chunk.clear()
        if chunk:
            fh.write("\n".join(chunk) + "\n")


# -- profiles.json -----------------------------------------------------------


def _side_payload(acc: SideAccumulator, unit_bins: int, log_bins: int) -> dict:
    ratios = ratio_report(acc)
    class_ratios = {}
    for klass in CANCELLABLE_CLASSES:
        cr = ratios.by_class[klass]
        class_ratios[klass.value] = {
            "orders": cr.orders,
            "cancelled": cr.cancelled,
            "ratio": cr.ratio,
        }
    payload = {
        "orders": ratios.orders,
        "cancelled_orders": ratios.cancelled_orders,
        "cancel_events": ratios.cancel_events,
        "ratio": ratios.ratio,
        "fully_filled_orders": acc.orders_by_class[AggressivenessClass.FULLY_FILLED],
        "class_ratios": class_ratios,
        "pdf_rel_level": _safe_pdf(count_pdf, acc.rel_level_counts, BinSpec("uniform", unit_bins)),
        "pdf_norm_level": _safe_pdf(accumulate_pdf, acc.norm_levels,
                                    BinSpec("log_uniform", log_bins)),
        "pdf_queue_frac": _safe_pdf(count_pdf, acc.queue_frac_counts,
                                    BinSpec("uniform", unit_bins)),
    }
    return payload


def _safe_pdf(build, data, spec: BinSpec) -> dict | None:
    try:
        return build(data, spec).to_dict()
    except PdfError:  # EmptySample included
        return None


def _instrument_payload(profile: InstrumentProfile, unit_bins: int, log_bins: int) -> dict:
    return {
        "instrument": profile.instrument,
        "days": profile.days,
        "diagnostics": {k: int(v) for k, v in sorted(profile.diagnostics.items())},
        "sides": {
            "buy": _side_payload(profile.buy, unit_bins, log_bins),
            "sell": _side_payload(profile.sell, unit_bins, log_bins),
        },
    }


def profiles_payload(run: ProfileRun, unit_bins: int = 50, log_bins: int = 60) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "profiles",
        "config": {
            "unit_bins": unit_bins,
            "log_bins": log_bins,
            "pooling": "cancel_count",  # ensemble pools raw samples across instruments
        },
        "instruments": [
            _instrument_payload(run.per_instrument[code], unit_bins, log_bins)
            for code in sorted(run.per_instrument)
        ],
        "ensemble": _instrument_payload(run.ensemble(), unit_bins, log_bins),
    }


# -- cancels.csv ---------------------------------------------------------------


def _cancel_rows(observations: Iterable[CancelObservation]) -> Iterable[str]:
    # The ratio columns are format_float's 17 significant digits, inlined: a
    # record's denominators are positive integers, so they are finite. Enum
    # values are read from _value_ and isoformat takes its arguments by
    # position, as in OrderEvent.to_row.
    for instrument, seq, timestamp, phase, rec, order_class, in_profile, in_ratio in observations:
        (cancel_index, side, level_rank, side_levels, level_orders, side_orders,
         queue_rank, cancelled_size) = rec
        yield (
            f"{instrument},{seq},{timestamp.isoformat('T', 'milliseconds')},"
            f"{phase._value_},{side._value_},{cancel_index},{level_rank},{side_levels},"
            f"{level_orders},{side_orders},{queue_rank},{rec.rel_level:.17g},"
            f"{rec.norm_level:.17g},{rec.queue_frac:.17g},{cancelled_size},"
            f"{order_class._value_},{'1' if in_profile else '0'},{'1' if in_ratio else '0'}"
        )


def cancels_csv(path: str | os.PathLike, observations: Iterable[CancelObservation]) -> None:
    """Append one cancels.csv row per observation to ``path``, without the header.

    ``profile`` writes each replayed day's rows to its instrument's part
    file this way, and ``join_cancels_csv`` puts the header in front of the
    parts.
    """
    write_lines(path, _cancel_rows(observations), append=True)


def join_cancels_csv(path: str | os.PathLike, parts: Iterable[str | os.PathLike]) -> None:
    """Write cancels.csv as the header followed by the bytes of each header-less part."""
    with open(path, "wb") as out:
        out.write(CANCELS_CSV_HEADER.encode("utf-8") + b"\n")
        for part in parts:
            with open(part, "rb") as fh:
                shutil.copyfileobj(fh, out)


# -- fits.json -------------------------------------------------------------------


def fits_payload(entries: list[dict], config: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "fits",
        "config": config,
        "fits": entries,
    }
