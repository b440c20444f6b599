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
    pooled_pdfs,
    ratio_report,
    table_ratios,
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


def _side_payloads(accs: list[SideAccumulator], unit_bins: int, log_bins: int) -> list[dict]:
    """The profiles.json side block of each of ``accs``, then that of their sum.

    The sum's densities add the sides' integer bin counts (see
    ``pooled_pdfs``) and its ratios their class counts, so no pooled copy of
    the count tables or of the normalized levels is made.
    """
    unit, log = BinSpec("uniform", unit_bins), BinSpec("log_uniform", log_bins)
    densities = {
        "pdf_rel_level": pooled_pdfs((table_ratios(a.rel_level_counts) for a in accs), unit),
        "pdf_norm_level": pooled_pdfs(((a.norm_levels, None) for a in accs), log),
        "pdf_queue_frac": pooled_pdfs((table_ratios(a.queue_frac_counts) for a in accs), unit),
    }
    pooled = SideAccumulator()
    for acc in accs:
        pooled.merge(SideAccumulator(orders_by_class=acc.orders_by_class,
                                     cancelled_by_class=acc.cancelled_by_class,
                                     cancel_events=acc.cancel_events))
    return [
        {**ratio_report(acc),
         **{key: None if isinstance(pdfs[k], PdfError) else pdfs[k].to_dict()
            for key, pdfs in densities.items()}}
        for k, acc in enumerate([*accs, pooled])
    ]


def profiles_payload(run: ProfileRun, unit_bins: int, log_bins: int) -> dict:
    """The profiles.json object of ``run``: a block per instrument, in code
    order, and the ensemble's block, which pools every instrument's cancels.

    The ensemble is summed from the instruments' counts (see
    ``_side_payloads``), not built by ``ProfileRun.ensemble``, whose pooled
    accumulator would copy every table and sample; it renders the same.
    """
    profiles = [run.per_instrument[code] for code in sorted(run.per_instrument)]
    ensemble = InstrumentProfile("__ensemble__")
    for profile in profiles:
        ensemble.diagnostics.update(profile.diagnostics)
        ensemble.days += profile.days
    sides = {side: _side_payloads([getattr(p, side) for p in profiles], unit_bins, log_bins)
             for side in ("buy", "sell")}
    blocks = [
        {
            "instrument": profile.instrument,
            "days": profile.days,
            "diagnostics": dict(profile.diagnostics),
            "sides": {side: sides[side][k] for side in ("buy", "sell")},
        }
        for k, profile in enumerate([*profiles, ensemble])
    ]
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "profiles",
        "config": {
            "unit_bins": unit_bins,
            "log_bins": log_bins,
            "pooling": "cancel_count",  # ensemble pools raw samples across instruments
        },
        "instruments": blocks[:-1],
        "ensemble": blocks[-1],
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
