"""Command-line front end: parse, rebuild, profile, fit, generate, simulate.

Exit codes: 0 success, 1 input-data errors, 2 usage or configuration errors,
3 internal invariant violations. All artifacts are deterministic for a given
input set and seed.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import shutil
import sys
import tempfile
import zlib
from concurrent.futures import ProcessPoolExecutor
from itertools import chain
from typing import Iterator

import numpy as np

from . import reportio
from .lob import LobError, gc_paused
from .orderflow import HEADER, DaysOutOfOrder, OrderEvent, ParseError, iter_parse, stream_days
from .profiles import (
    POSITIVE_RAY,
    UNIT_INTERVAL,
    DayResult,
    EmpiricalPdf,
    InstrumentProfile,
    ProfileRun,
    replay_day,
)
from .synth import (
    ConfigInvalid,
    ExpProfileLaw,
    GenConfig,
    QueueSimConfig,
    TruncLogNormalLaw,
    UniformLaw,
    generate_stream,
    simulate_uniform_queues,
)


class InputDataError(Exception):
    """Bad input files; maps to exit code 1."""


class UsageError(Exception):
    """Bad flags or configuration; maps to exit code 2."""


ALL_MODELS = ("lognormal", "powerlaw", "exp", "gamma")
DEFAULT_MODELS = "lognormal,powerlaw,exp"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lobcancel",
        description="Rebuild limit-order books from order flow and profile cancellations.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config", default=None,
        help="JSON file of flag defaults (explicitly passed flags win)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common],
                       help="parse input files and report structured errors")
    p.add_argument("inputs", nargs="+", help="order-flow CSV files")

    p = sub.add_parser("profile", parents=[common],
                       help="replay streams and emit profiles.json + cancels.csv")
    p.add_argument("inputs", nargs="+", help="order-flow CSV files")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--instrument", default=None, help="only profile this instrument code")
    p.add_argument("--bins", type=int, default=50, help="bins for the unit-interval densities")
    p.add_argument("--log-bins", type=int, default=60, help="bins for the normalized-level density")
    p.add_argument("--workers", type=int, default=1,
                   help="process pool size; files that share an instrument go to one worker")

    p = sub.add_parser("fit", parents=[common],
                       help="fit the parametric models to emitted profiles")
    p.add_argument("--profiles", required=True, help="profiles.json from the profile command")
    p.add_argument("--cancels", default=None, help="cancels.csv (default: sibling of profiles)")
    p.add_argument("--out", required=True, help="output fits.json path")
    p.add_argument("--models", default=DEFAULT_MODELS, help=f"comma list from {ALL_MODELS}")
    p.add_argument("--repeats", type=int, default=1000, help="Monte Carlo goodness-of-fit repeats")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("gen", parents=[common], help="generate a synthetic order-flow stream")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--events", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instrument", default="SYN001")
    p.add_argument("--mix", default="0.6,0.2,0.2", help="limit,marketable,cancel shares")
    p.add_argument("--level-law", default="uniform", help="'uniform' or 'lognormal:MU,SIGMA'")
    p.add_argument("--queue-law", default="uniform", help="'uniform' or 'exp:BETA'")
    p.add_argument("--levels", type=int, default=80, help="initial price levels per side")
    p.add_argument("--queue-depth", type=int, default=6, help="initial orders per level")

    p = sub.add_parser("simqueues", parents=[common],
                       help="uniform-queue relative-position experiment")
    p.add_argument("--out", required=True, help="output JSON path")
    p.add_argument("--queues", type=int, default=1_000_000)
    p.add_argument("--max-length", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("report", parents=[common],
                       help="print a text summary of emitted artifacts")
    p.add_argument("--profiles", required=True)
    p.add_argument("--fits", default=None)

    return parser


def _apply_config_file(args, argv: list[str]) -> None:
    """Fill flags from the JSON config file unless passed on the command line."""
    if not getattr(args, "config", None):
        return
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            overrides = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(overrides, dict):
        raise UsageError("config file must hold a JSON object of flag values")
    for key, value in overrides.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr) or attr in ("command", "config", "inputs"):
            raise UsageError(f"config file sets unknown option {key!r}")
        if f"--{key.replace('_', '-')}" not in argv:
            setattr(args, attr, value)


# -- validate -------------------------------------------------------------------


# Bytes per read of an input file.
READ_BLOCK = 1 << 14


def _read_lines(path: str) -> Iterator[str]:
    """Lines of a UTF-8 file, read READ_BLOCK bytes at a time.

    Each block is cut after its last newline byte, which is never part of a
    multi-byte character and always ends a line, so the lines are those of
    ``str.splitlines`` on the whole text, and a decoding error names its
    byte offset within the file.
    """
    try:
        with open(path, "rb") as fh:
            offset, tail = 0, b""
            while True:
                block = fh.read(READ_BLOCK)
                data = tail + block
                cut = data.rfind(b"\n") + 1 if block else len(data)
                try:
                    text = data[:cut].decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise InputDataError(
                        f"{path}: not valid UTF-8 at byte {offset + exc.start}: {exc.reason}"
                    ) from exc
                yield from text.splitlines()
                if not block:
                    return
                offset, tail = offset + cut, data[cut:]
    except OSError as exc:
        raise InputDataError(f"{path}: {exc}") from exc


def cmd_validate(args) -> int:
    total_errors = 0
    for path in args.inputs:
        events = 0
        errors = []
        for item in iter_parse(_read_lines(path)):
            if type(item) is ParseError:
                errors.append(item)
            else:
                events += 1
        print(f"{path}: {events} events, {len(errors)} errors")
        for err in errors:
            print(f"  {path}:{err}")
        total_errors += len(errors)
    return 0 if total_errors == 0 else 1


# -- profile --------------------------------------------------------------------


def _replay_files(
    paths: list[str], instrument: str | None, parts_dir: str, in_date_order: bool
) -> tuple[dict[str, InstrumentProfile], dict[str, str], int, list[list[str]]]:
    os.mkdir(parts_dir)
    errors: list[list[str]] = []
    failed = False
    n_events = 0

    def events() -> Iterator[OrderEvent]:
        nonlocal failed, n_events
        for path in paths:
            path_errors: list[str] = []
            errors.append(path_errors)
            for item in iter_parse(_read_lines(path), in_date_order=in_date_order):
                if type(item) is ParseError:
                    path_errors.append(f"{path}:{item}")
                    failed = True
                elif not failed and (instrument is None or item.instrument == instrument):
                    n_events += 1
                    yield item

    profiles: dict[str, InstrumentProfile] = {}
    parts: dict[str, str] = {}
    for day_events in stream_days(events(), in_date_order=in_date_order):
        if not failed:  # once a row fails the command fails: parse on, replay no more
            _add_day(replay_day(day_events), profiles, parts, parts_dir)
    return profiles, parts, n_events, errors


def _add_day(day: DayResult, profiles: dict[str, InstrumentProfile], parts: dict[str, str],
             parts_dir: str) -> None:
    """Count a replayed day into its instrument and append its cancels to the
    instrument's part file; the day's result is dropped on return."""
    code = day.instrument
    profile = profiles.get(code)
    if profile is None:
        profile = profiles[code] = InstrumentProfile(code)
        parts[code] = os.path.join(parts_dir, f"{len(parts)}.csv")
    profile.add_day(day)
    reportio.cancels_csv(parts[code], day.observations)


def _profile_job(
    paths: list[str], instrument: str | None, parts_dir: str
) -> tuple[dict[str, InstrumentProfile], dict[str, str], int, list[list[str]]]:
    """Parse and replay ``paths`` as one unit of profile work, a day at a time.

    Returns the profile of each instrument, the header-less cancels.csv part
    file of each (in the new directory ``parts_dir``), the number of events
    replayed, and each path's parse errors as ``path:error`` strings. Files
    are read lazily, and an instrument-day is replayed once a later date of
    its instrument arrives, or at the end. An input that takes an instrument
    back to an earlier date is run again from the start with every day held
    to the end, so its days are grouped as a whole-input read groups them. A
    pool worker runs this on its own paths, so only file names, counts and
    part paths cross the process boundary.
    """
    with gc_paused():
        try:
            return _replay_files(paths, instrument, parts_dir, in_date_order=True)
        except DaysOutOfOrder:
            shutil.rmtree(parts_dir)
            return _replay_files(paths, instrument, parts_dir, in_date_order=False)


def _instrument_codes(path: str) -> set[str]:
    """Instrument column of every row, split into lines as parse_stream splits them."""
    lines = _read_lines(path)
    next(lines, None)
    return {parts[2] for parts in (line.split(",", 3) for line in lines) if len(parts) > 2}


def _disjoint_groups(paths: list[str]) -> list[list[str]]:
    """Group paths, in argument order, so that no instrument spans two groups."""
    root = list(range(len(paths)))

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = i = root[root[i]]
        return i

    first: dict[str, int] = {}
    for i, path in enumerate(paths):
        for code in _instrument_codes(path):
            a, b = sorted((find(i), find(first.setdefault(code, i))))
            root[b] = a
    groups: dict[int, list[str]] = {}
    for i, path in enumerate(paths):
        groups.setdefault(find(i), []).append(path)
    return list(groups.values())


def _run_profile_jobs(
    paths: list[str], instrument: str | None, workers: int, parts_dir: str
) -> tuple[ProfileRun, list[str], int]:
    """The run, its part files in instrument order, and the events replayed."""
    groups = _disjoint_groups(paths) if workers > 1 and len(paths) > 1 else [paths]
    dirs = [os.path.join(parts_dir, str(i)) for i in range(len(groups))]
    if len(groups) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(groups))) as pool:
            results = list(pool.map(_profile_job, groups, [instrument] * len(groups), dirs))
    else:
        results = [_profile_job(groups[0], instrument, dirs[0])]
    errors = {}
    for group, (_, _, _, group_errors) in zip(groups, results):
        errors.update(zip(group, group_errors))
    bad = [err for path in paths for err in errors[path]]
    if bad:
        raise InputDataError("\n".join(bad))
    per_instrument = {}
    parts = {}
    for profiles, job_parts, _, _ in results:  # groups share no instrument
        per_instrument.update(profiles)
        parts.update(job_parts)
    return (ProfileRun(per_instrument), [parts[code] for code in sorted(parts)],
            sum(n for _, _, n, _ in results))


def cmd_profile(args) -> int:
    with tempfile.TemporaryDirectory(prefix="lobcancel-parts-") as parts_dir:
        run, parts, n_events = _run_profile_jobs(
            args.inputs, args.instrument, args.workers, parts_dir
        )
        if not n_events:
            raise UsageError("empty input: no events to profile")
        os.makedirs(args.out, exist_ok=True)
        payload = reportio.profiles_payload(run, unit_bins=args.bins, log_bins=args.log_bins)
        reportio.write_text(os.path.join(args.out, "profiles.json"), reportio.render_json(payload))
        reportio.join_cancels_csv(os.path.join(args.out, "cancels.csv"), parts)
    n_cancels = sum(
        len(p.buy.norm_levels) + len(p.sell.norm_levels) for p in run.per_instrument.values()
    )
    print(
        f"profiled {n_events} events, {len(run.per_instrument)} instrument(s), "
        f"{n_cancels} in-profile cancellations -> {args.out}"
    )
    return 0


# -- fit -------------------------------------------------------------------------


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise InputDataError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputDataError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise InputDataError(f"schema error at $ in {path}: expected a JSON object")
    return payload


def _pdf_from_payload(payload: dict | None, where: str) -> EmpiricalPdf | None:
    if payload is None:
        return None
    try:
        pdf = EmpiricalPdf(
            bin_edges=np.asarray(payload["edges"], float),
            density=np.asarray(payload["density"], float),
            count=int(payload["count"]),
            domain=str(payload["domain"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputDataError(f"schema error at {where}: {exc!r}") from exc
    edges = pdf.bin_edges
    if edges.ndim != 1 or pdf.density.shape != (edges.size - 1,):
        raise InputDataError(
            f"schema error at {where}: {pdf.density.size} density values "
            f"for {edges.size} edges"
        )
    if pdf.domain not in (UNIT_INTERVAL, POSITIVE_RAY):
        raise InputDataError(f"schema error at {where}: unknown domain {pdf.domain!r}")
    return pdf


def _load_norm_level_samples(path: str) -> dict[tuple[str, str], list[float]]:
    """Raw normalized-level samples per (instrument, side) from cancels.csv.

    Every row must have as many columns as the header; any other row is a
    schema error.
    """
    samples: dict[tuple[str, str], list[float]] = {}
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            width = len(header)
            inst, side, norm, prof = (
                header.index(name) for name in ("instrument", "side", "norm_level", "in_profile")
            )
            for row in reader:
                if len(row) != width:
                    raise InputDataError(
                        f"{path}: bad cancels schema: line {reader.line_num} has "
                        f"{len(row)} columns, the header {width}"
                    )
                if row[prof] == "1":
                    samples.setdefault((row[inst], row[side]), []).append(float(row[norm]))
    except OSError as exc:
        raise InputDataError(f"{path}: {exc}") from exc
    except ValueError as exc:
        raise InputDataError(f"{path}: bad cancels schema: {exc!r}") from exc
    return samples


def _entry_seed(base_seed: int, instrument: str, side: str, model: str) -> int:
    return base_seed ^ zlib.crc32(f"{instrument}|{side}|{model}".encode())


# Body models: the profiles.json density each one fits, the error recorded
# when that density is missing, and its distfit fitter. Fitters are looked up
# on the module at call time, so a wrapper installed on distfit is honoured.
# Only `_fit_entry` imports distfit, and with it scipy, so the other
# subcommands start without paying for scipy's import.
_BODY_MODELS = {
    "lognormal": ("pdf_rel_level", "no relative-level density", "fit_lognormal_lsq"),
    "gamma": ("pdf_rel_level", "no relative-level density", "fit_gamma_lsq"),
    "exp": ("pdf_queue_frac", "no queue-position density", "fit_exp_profile"),
}


def _fit_entry(
    instrument: str,
    side: str,
    sides_payload: dict,
    models: list[str],
    norm_samples: dict | None,
    repeats: int,
    seed: int,
) -> list[dict]:
    from . import distfit

    where = f"$.sides.{side} of {instrument}"
    side_data = sides_payload[side]
    code = "B" if side == "buy" else "S"
    out: list[dict] = []
    for model in models:
        entry = {"instrument": instrument, "side": side, "model": model}
        out.append(entry)
        try:
            if model == "powerlaw":
                if norm_samples is None:
                    entry["error"] = "cancels.csv with raw samples not available"
                    continue
                if instrument == "__ensemble__":
                    xs = [v for (_, s), vals in norm_samples.items() if s == code for v in vals]
                else:
                    xs = norm_samples.get((instrument, code), [])
                entry["params"] = dataclasses.asdict(distfit.fit_powerlaw_tail(xs))
                continue
            key, missing, fitter = _BODY_MODELS[model]
            pdf = _pdf_from_payload(side_data.get(key), where)
            if pdf is None:
                entry["error"] = missing
                continue
            fit = getattr(distfit, fitter)(pdf)
            params = dataclasses.asdict(fit)
            if model == "lognormal":
                params["p_value"] = distfit.gof_pvalue_mc(
                    pdf, fit, repeats=repeats, seed=_entry_seed(seed, instrument, side, model)
                )
                params["repeats"] = repeats
            entry["params"] = params
        except distfit.FitError as exc:
            entry["error"] = f"{type(exc).__name__}: {exc}"
    return out


def cmd_fit(args) -> int:
    models = [m.strip() for m in args.models.split(",") if m.strip()]
    unknown = [m for m in models if m not in ALL_MODELS]
    if unknown:
        raise UsageError(f"unknown models {unknown}; choose from {ALL_MODELS}")
    if args.repeats < 1:
        raise UsageError("--repeats must be >= 1")
    payload = _load_json(args.profiles)
    if payload.get("kind") != "profiles":
        raise InputDataError(f"schema error at $.kind in {args.profiles}: expected 'profiles'")
    try:
        instruments = list(payload["instruments"])
        ensemble = payload["ensemble"]
    except (KeyError, TypeError) as exc:
        raise InputDataError(f"schema error at $.instruments/$.ensemble: {exc!r}") from exc

    norm_samples = None
    if "powerlaw" in models:
        cancels_path = args.cancels or os.path.join(os.path.dirname(args.profiles), "cancels.csv")
        norm_samples = _load_norm_level_samples(cancels_path) if os.path.exists(cancels_path) else None

    entries: list[dict] = []
    for block in instruments + [ensemble]:
        try:
            instrument = block["instrument"]
            sides = block["sides"]
        except (KeyError, TypeError) as exc:
            raise InputDataError(f"schema error at $.instruments[].sides: {exc!r}") from exc
        for side in ("buy", "sell"):
            if side not in sides:
                raise InputDataError(f"schema error at $.sides.{side} of {instrument}: missing")
            entries.extend(
                _fit_entry(instrument, side, sides, models, norm_samples, args.repeats, args.seed)
            )
    config = {"models": models, "repeats": args.repeats, "seed": args.seed}
    reportio.write_text(args.out, reportio.render_json(reportio.fits_payload(entries, config)))
    failed = sum(1 for e in entries if "error" in e)
    print(f"wrote {len(entries)} fit entries ({failed} failed) -> {args.out}")
    return 0


# -- gen ---------------------------------------------------------------------------


def _parse_law(text: str, which: str):
    text = text.strip().lower()
    if text == "uniform":
        return UniformLaw()
    if text.startswith("lognormal:"):
        parts = text.split(":", 1)[1].split(",")
        if len(parts) != 2:
            raise UsageError(f"{which}: expected lognormal:MU,SIGMA")
        return TruncLogNormalLaw(float(parts[0]), float(parts[1]))
    if text.startswith("exp:"):
        return ExpProfileLaw(float(text.split(":", 1)[1]))
    raise UsageError(f"{which}: unknown law {text!r}")


def cmd_gen(args) -> int:
    try:
        mix = tuple(float(v) for v in args.mix.split(","))
        if len(mix) != 3:
            raise ValueError
    except ValueError:
        raise UsageError("--mix expects three comma-separated shares") from None
    config = GenConfig(
        seed=args.seed,
        n_events=args.events,
        instrument=args.instrument,
        level_law=_parse_law(args.level_law, "--level-law"),
        queue_law=_parse_law(args.queue_law, "--queue-law"),
        limit_share=mix[0],
        marketable_share=mix[1],
        cancel_share=mix[2],
        initial_levels=args.levels,
        initial_queue=args.queue_depth,
    )
    events = generate_stream(config)
    reportio.write_lines(args.out, chain((HEADER,), map(OrderEvent.to_row, events)))
    print(f"wrote {len(events)} events -> {args.out}")
    return 0


# -- simqueues -----------------------------------------------------------------------


def cmd_simqueues(args) -> int:
    config = QueueSimConfig(n_queues=args.queues, max_length=args.max_length, seed=args.seed)
    result = simulate_uniform_queues(config)
    payload = {
        "schema_version": reportio.SCHEMA_VERSION,
        "kind": "queue_sim",
        "config": {
            "n_queues": config.n_queues,
            "max_length": config.max_length,
            "seed": config.seed,
        },
        "point_masses": {
            "value": [float(v) for v in result.mass_values],
            "prob": [float(p) for p in result.mass_probs],
        },
        "top_masses": [[v, p] for v, p in result.top_masses(10)],
        "pdf": result.pdf.to_dict(),
    }
    reportio.write_text(args.out, reportio.render_json(payload))
    print(f"simulated {config.n_queues} queues -> {args.out}")
    return 0


# -- report --------------------------------------------------------------------------


def _fmt_ratio(r: float | None) -> str:
    return "n/a" if r is None else f"{100.0 * r:.1f}%"


def cmd_report(args) -> int:
    payload = _load_json(args.profiles)
    if payload.get("kind") != "profiles":
        raise InputDataError(f"schema error at $.kind in {args.profiles}")
    fits = _load_json(args.fits) if args.fits else None
    if fits is not None and fits.get("kind") != "fits":
        raise InputDataError(f"schema error at $.kind in {args.fits}: expected 'fits'")
    lines = ["instrument  side  orders  cancelled  r      r1     r2     r3     r4"]
    for block in payload.get("instruments", []) + [payload.get("ensemble")]:
        if not block:
            continue
        for side in ("buy", "sell"):
            try:
                data = block["sides"][side]
                ratios = [
                    data["class_ratios"][k]["ratio"]
                    for k in ("partially_filled", "inside_spread", "at_best", "inside_book")
                ]
                cells = "  ".join(f"{_fmt_ratio(r):<5}" for r in ratios)
                lines.append(
                    f"{block['instrument']:<11} {side:<5} {data['orders']:<7} "
                    f"{data['cancelled_orders']:<10} {_fmt_ratio(data['ratio']):<6} {cells}"
                )
            except (KeyError, TypeError) as exc:
                raise InputDataError(
                    f"schema error at $.sides.{side} in {args.profiles}: {exc!r}"
                ) from exc
    if fits is not None:
        lines += ["", "fits:"]
        for i, entry in enumerate(fits.get("fits", [])):
            try:
                label = f"{entry['instrument']}/{entry['side']}/{entry['model']}"
                if "error" in entry:
                    lines.append(f"  {label}: ERROR {entry['error']}")
                else:
                    params = dict(entry["params"])
                    mark = " (at bound)" if params.pop("at_bound", False) else ""
                    text = ", ".join(f"{k}={v:.4g}" for k, v in sorted(params.items()))
                    lines.append(f"  {label}: {text}{mark}")
            except (KeyError, TypeError, AttributeError, ValueError) as exc:
                raise InputDataError(
                    f"schema error at $.fits[{i}] in {args.fits}: {exc!r}"
                ) from exc
    print("\n".join(lines))
    return 0


# -- dispatch ---------------------------------------------------------------------------


_COMMANDS = {
    "validate": cmd_validate,
    "profile": cmd_profile,
    "fit": cmd_fit,
    "gen": cmd_gen,
    "simqueues": cmd_simqueues,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config_file(args, list(argv) if argv is not None else sys.argv[1:])
        return _COMMANDS[args.command](args)
    except InputDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (UsageError, ConfigInvalid) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LobError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
