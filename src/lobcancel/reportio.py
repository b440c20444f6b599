"""Deterministic serialization of profile and fit results.

Output artifacts must be byte-identical across runs with the same inputs and
seed. JSON is written by the json module with keys sorted and two-space
indents; a float prints as its shortest round-trip repr, so it reads back as
the same double, and a NaN or infinity is refused. Nothing depends on the
locale or on hash order.
"""
from __future__ import annotations

import json
import os
import shutil
from itertools import islice
from typing import Iterable

from .orderflow import MS_TEXT, TWO_DIGITS
from .profiles import (
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
    "level_orders,side_orders,queue_rank,cancelled_size,order_class,in_profile,in_ratio"
)


def render_json(obj) -> str:
    """Render JSON with sorted keys and two-space indents; a NaN or inf raises ValueError."""
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False, allow_nan=False) + "\n"


def write_text(path: str | os.PathLike, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# Lines per write: a long file is streamed, never held whole as one string.
# `profile` also writes a live instrument-day's cancels every CHUNK_LINES
# cancels, so in a file of many instruments the rows held for writing stay
# small next to the books.
CHUNK_LINES = 1024


def write_lines(path: str | os.PathLike, lines: Iterable[str], *, append: bool = False) -> None:
    """Write each line and a newline, CHUNK_LINES lines joined per write."""
    lines = iter(lines)
    with open(path, "a" if append else "w", encoding="utf-8", newline="\n") as fh:
        while chunk := list(islice(lines, CHUNK_LINES)):
            fh.write("\n".join(chunk) + "\n")


# -- profiles.json -----------------------------------------------------------


def _side_payload(acc: SideAccumulator, unit_bins: int, log_bins: int) -> dict:
    return {
        **ratio_report(acc),
        "pdf_rel_level": _safe_pdf(count_pdf, acc.rel_level_counts, BinSpec("uniform", unit_bins)),
        "pdf_norm_level": _safe_pdf(accumulate_pdf, acc.norm_levels,
                                    BinSpec("log_uniform", log_bins)),
        "pdf_queue_frac": _safe_pdf(count_pdf, acc.queue_frac_counts,
                                    BinSpec("uniform", unit_bins)),
    }


def _safe_pdf(build, data, spec: BinSpec) -> dict | None:
    try:
        return build(data, spec).to_dict()
    except PdfError:  # EmptySample included
        return None


def _instrument_payload(profile: InstrumentProfile, unit_bins: int, log_bins: int) -> dict:
    return {
        "instrument": profile.instrument,
        "days": profile.days,
        "diagnostics": dict(profile.diagnostics),
        "sides": {
            "buy": _side_payload(profile.buy, unit_bins, log_bins),
            "sell": _side_payload(profile.sell, unit_bins, log_bins),
        },
    }


def profiles_payload(run: ProfileRun, unit_bins: int, log_bins: int) -> dict:
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
    # A naive stamp is isoformat('T', 'milliseconds')'s text from a per-day prefix and
    # table lookups; one with a UTC offset is isoformat's. Enum values are read from _value_.
    two = TWO_DIGITS
    day = prefix = None
    for instrument, seq, ts, phase, rec, order_class, in_profile, in_ratio in observations:
        (cancel_index, side, level_rank, side_levels, level_orders, side_orders,
         queue_rank, cancelled_size) = rec
        if ts.tzinfo is None:
            if ts.date() != day:
                day = ts.date()
                prefix = f"{day.isoformat()}T"
            stamp = (f"{prefix}{two[ts.hour]}:{two[ts.minute]}:{two[ts.second]}"
                     f"{MS_TEXT[ts.microsecond // 1000]}")
        else:
            stamp = ts.isoformat("T", "milliseconds")
        yield (
            f"{instrument},{seq},{stamp},"
            f"{phase._value_},{side._value_},{cancel_index},{level_rank},{side_levels},"
            f"{level_orders},{side_orders},{queue_rank},{cancelled_size},"
            f"{order_class._value_},{'1' if in_profile else '0'},{'1' if in_ratio else '0'}"
        )


def cancels_csv(path: str | os.PathLike, observations: Iterable[CancelObservation]) -> None:
    """Append one cancels.csv row per observation to ``path``, without the header.

    ``profile`` writes each instrument-day's rows to the day's part file
    this way, a chunk at a time as the day is replayed, and
    ``join_cancels_csv`` puts the header in front of the parts.
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
