"""Command-line front end: parse, rebuild, profile, fit, generate, simulate.

Exit codes: 0 success, 1 input-data errors, 2 usage or configuration errors,
3 internal invariant violations. All artifacts are deterministic for a given
input set and seed.
"""
from __future__ import annotations

import argparse
import dataclasses
import errno
import json
import os
import shutil
import sys
import tempfile
import warnings
import zlib
from collections import defaultdict
from contextlib import contextmanager
from datetime import date
from functools import partial
from itertools import chain, count, groupby, repeat
from typing import Iterable, Iterator

from . import reportio
from .lob import LobError, gc_paused, norm_level
from .orderflow import (
    HEADER,
    DayChecks,
    DaysOutOfOrder,
    OrderEvent,
    ParseError,
    iter_parse,
)
from .profiles import (
    CANCELLABLE_CLASSES,
    DEFAULT_UNIT_BINS,
    UNIT_INTERVAL,
    DayReplay,
    EmpiricalPdf,
    InstrumentProfile,
    ProfileRun,
    replay_days,
)
from .synth import (
    ConfigInvalid,
    ExpProfileLaw,
    GenConfig,
    QueueSimConfig,
    TruncLogNormalLaw,
    UniformLaw,
    iter_rows,
    simulate_uniform_queues,
)


class InputDataError(Exception):
    """Bad input files; maps to exit code 1."""


class UsageError(Exception):
    """Bad flags or configuration; maps to exit code 2."""


ALL_MODELS = ("lognormal", "powerlaw", "exp", "gamma")
DEFAULT_MODELS = "lognormal,powerlaw,exp"


def _int_at_least(low: int):
    """An argparse type: an integer >= ``low``, else a usage error (exit 2)."""

    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value

    return convert


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
    p.add_argument("--bins", type=_int_at_least(1), default=DEFAULT_UNIT_BINS,
                   help="bins for the unit-interval densities")
    p.add_argument("--log-bins", type=_int_at_least(1), default=60,
                   help="bins for the normalized-level density")
    p.add_argument("--workers", type=_int_at_least(1), default=1,
                   help="process pool size; files that share an instrument go to one worker")

    p = sub.add_parser("fit", parents=[common],
                       help="fit the parametric models to emitted profiles")
    p.add_argument("--profiles", required=True, help="profiles.json from the profile command")
    p.add_argument("--cancels", default=None, help="cancels.csv (default: sibling of profiles)")
    p.add_argument("--out", required=True, help="output fits.json path")
    p.add_argument("--models", default=DEFAULT_MODELS, help=f"comma list from {ALL_MODELS}")
    p.add_argument("--repeats", type=_int_at_least(1), default=1000,
                   help="Monte Carlo goodness-of-fit repeats")
    p.add_argument("--seed", type=_int_at_least(0), default=0)

    p = sub.add_parser("gen", parents=[common], help="generate a synthetic order-flow stream")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--events", type=int, default=100_000)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
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
    p.add_argument("--seed", type=_int_at_least(0), default=0)

    p = sub.add_parser("report", parents=[common],
                       help="print a text summary of emitted artifacts")
    p.add_argument("--profiles", required=True)
    p.add_argument("--fits", default=None)

    return parser


def _with_config_flags(args, argv: list[str]) -> list[str]:
    """``argv`` with the JSON config file's values put in as flags after the command.

    argparse then converts and checks each value as it does a flag, and a
    flag given on the command line comes later, so it wins in any spelling.
    """
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            overrides = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError or a UnicodeDecodeError
        raise UsageError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(overrides, dict):
        raise UsageError("config file must hold a JSON object of flag values")
    flags = []
    for key, value in overrides.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr) or attr in ("command", "config", "inputs"):
            raise UsageError(f"config file sets unknown option {key!r}")
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise UsageError(f"config file option {key!r} must be a string or a number")
        flags.append(f"--{attr.replace('_', '-')}={value}")
    at = argv.index(args.command) + 1
    return [*argv[:at], *flags, *argv[at:]]


def _check_out(path: str, *, directory: bool = False) -> None:
    """Fail before any work on an output that cannot be written (exit 2).

    A file goes into an existing directory and must not be one; a directory
    is made with its missing parents, so it must be one if it exists, and
    its nearest existing ancestor must be a directory. Nothing is created,
    so a later error leaves nothing behind; `_writing` still reports what
    only the write itself reveals.
    """
    target = os.path.abspath(path)
    base = target if directory else os.path.dirname(target)
    while directory and not os.path.exists(base):
        base = os.path.dirname(base)
    if os.path.exists(target) and os.path.isdir(target) != directory:
        code = errno.EEXIST if directory else errno.EISDIR
    elif not os.path.isdir(base):
        code = errno.ENOTDIR if os.path.exists(base) else errno.ENOENT
    elif not os.access(target if os.path.exists(target) else base, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise UsageError(f"cannot write {path}: {os.strerror(code)}")


@contextmanager
def _writing(path: str):
    """Run a block that writes ``path``; an OSError in it is a usage error (exit 2)."""
    try:
        yield
    except OSError as exc:
        raise UsageError(f"cannot write {exc.filename or path}: {exc.strerror or exc}") from exc


# -- validate -------------------------------------------------------------------


# Characters per list of lines (a hint to ``readlines``) read from an input file.
READ_BLOCK = 1 << 14


def _line_blocks(path: str, size: int) -> Iterator[list[str]]:
    """The lines of a UTF-8 file, whole lines of about ``size`` characters at a time.

    The file is read as Python's universal-newline text files read it: lines
    end at ``\n``, ``\r\n`` and ``\r`` only, and each keeps its ``\n``. A
    decoding error names its byte offset within the file.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            try:
                while lines := fh.readlines(size):
                    yield lines
            except UnicodeDecodeError as exc:
                # The decoder was handed the bytes it held back from the last read
                # plus the chunk just read, which ends at the buffer's tell; a pipe
                # has no tell, and its offset reads "?".
                at = fh.buffer.tell() - len(exc.object) + exc.start if fh.seekable() else "?"
                raise InputDataError(f"{path}: not valid UTF-8 at byte {at}: {exc.reason}") from exc
    except OSError as exc:
        raise InputDataError(f"{path}: {exc}") from exc


def _read_lines(path: str) -> Iterator[str]:
    """Lines of a UTF-8 file, read READ_BLOCK characters at a time (`_line_blocks`)."""
    return chain.from_iterable(_line_blocks(path, READ_BLOCK))


def cmd_validate(args) -> int:
    """Report each file's parse errors, checking an instrument-day split across files as one.

    The checks keep one day per instrument, as `profile` does, until an
    input takes an instrument back to an earlier date; the files are then
    checked again from the start with every day kept, and the report goes on
    from the file where that happened.
    """
    total_errors = reported = 0
    for in_date_order in (True, False):
        days = DayChecks()
        try:
            for i, path in enumerate(args.inputs):
                events = 0
                errors = []
                for item in iter_parse(_read_lines(path), in_date_order=in_date_order, days=days):
                    if type(item) is ParseError:
                        errors.append(item)
                    else:
                        events += 1
                if i < reported:
                    continue
                print(f"{path}: {events} events, {len(errors)} errors")
                for err in errors:
                    print(f"  {path}:{err}")
                total_errors += len(errors)
                reported += 1
            break
        except DaysOutOfOrder:
            pass
    return 0 if total_errors == 0 else 1


# -- profile --------------------------------------------------------------------


def _profile_job(
    paths: list[str], instrument: str | None, parts_dir: str
) -> tuple[dict[str, InstrumentProfile], dict[tuple[str, date], str], int, list[list[str]]]:
    """Parse and replay ``paths`` as one unit of profile work, row by row.

    Returns the profile of each instrument, the header-less cancels.csv part
    file of each instrument-day (in the new directory ``parts_dir``) keyed by
    (instrument, day), the number of events replayed, and one list per path
    of its parse errors as ``path:error`` strings. An instrument-day's parse
    checks span the files. Each parsed row goes straight to its day's live
    replay (``profiles.replay_days``), which appends its cancels to the
    day's part file every ``reportio.CHUNK_LINES`` rows. An input that takes
    an instrument back to an earlier date is run again from the start, with
    fresh checks and every day kept live to the end. A pool worker runs this
    on its own paths, so only file names, counts and part paths cross the
    process boundary.
    """
    with gc_paused():
        for in_date_order in (True, False):
            os.mkdir(parts_dir)
            errors: list[list[str]] = [[] for _ in paths]
            days = DayChecks()  # an instrument-day split across files is checked as one

            def runs(path: str, path_errors: list[str]) -> Iterator[Iterable[OrderEvent]]:
                """``path``'s events as runs of consecutive rows; its parse errors go
                to ``path_errors``, and once a row has failed no run is replayed."""
                parsed = iter_parse(_read_lines(path), in_date_order=in_date_order, days=days)
                for kind, items in groupby(parsed, type):
                    if kind is ParseError:
                        path_errors.extend(f"{path}:{error}" for error in items)
                    elif not any(errors):
                        yield items if instrument is None else filter(
                            lambda ev: ev.instrument == instrument, items)

            day_parts: dict[tuple[str, date], str] = {}

            def open_day(code: str, day: date) -> DayReplay:
                part = day_parts[code, day] = os.path.join(parts_dir, f"{len(day_parts)}.csv")
                return DayReplay(partial(reportio.cancels_csv, part), reportio.CHUNK_LINES)

            run = ProfileRun()
            n_events = 0
            # Only C iterators pass each event from the parse to its replay.
            stream = chain.from_iterable(chain.from_iterable(map(runs, paths, errors)))
            try:
                for day in replay_days(stream, in_date_order=in_date_order, open_day=open_day):
                    if not any(errors):  # once a row fails the command fails: count no more
                        run.add_day(day)
                        n_events += day.events
                    del day  # its book goes before the next day's fills
                break
            except DaysOutOfOrder:
                shutil.rmtree(parts_dir)
    return run.per_instrument, day_parts, n_events, errors


def _disjoint_groups(paths: list[str]) -> list[list[int]]:
    """Group argument indices, in order, so that no instrument spans two groups."""
    root = list(range(len(paths)))

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = i = root[root[i]]
        return i

    first: dict[str, int] = {}
    for i, path in enumerate(paths):
        lines = _read_lines(path)
        next(lines, None)  # the header
        for code in {cells[2] for cells in (line.split(",", 3) for line in lines) if len(cells) > 2}:
            a, b = sorted((find(i), find(first.setdefault(code, i))))
            root[b] = a
    groups: dict[int, list[int]] = {}
    for i in range(len(paths)):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _run_profile_jobs(
    paths: list[str], instrument: str | None, workers: int, parts_dir: str
) -> tuple[ProfileRun, list[str], int]:
    """The run, its part files in (instrument, day) order, and the events replayed."""
    groups = _disjoint_groups(paths) if workers > 1 and len(paths) > 1 else [[*range(len(paths))]]
    dirs = [os.path.join(parts_dir, str(i)) for i in range(len(groups))]
    if len(groups) > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a fan-out pays its import

        with ProcessPoolExecutor(max_workers=min(workers, len(groups))) as pool:
            results = list(pool.map(_profile_job, [[paths[i] for i in group] for group in groups],
                                    repeat(instrument), dirs))
    else:
        results = [_profile_job(paths, instrument, dirs[0])]
    per_instrument, day_parts, errors = {}, {}, [()] * len(paths)
    for group, (profiles, job_parts, _, job_errors) in zip(groups, results):
        per_instrument.update(profiles)  # groups share no instrument
        day_parts.update(job_parts)
        for i, path_errors in zip(group, job_errors):
            errors[i] = path_errors
    bad = list(chain.from_iterable(errors))  # in argument order
    if bad:
        raise InputDataError("\n".join(bad))
    return (ProfileRun(per_instrument), [day_parts[key] for key in sorted(day_parts)],
            sum(n for _, _, n, _ in results))


def cmd_profile(args) -> int:
    _check_out(args.out, directory=True)
    with tempfile.TemporaryDirectory(prefix="lobcancel-parts-") as parts_dir:
        run, parts, n_events = _run_profile_jobs(
            args.inputs, args.instrument, args.workers, parts_dir
        )
        if not n_events:
            raise UsageError("empty input: no events to profile")
        payload = reportio.profiles_payload(run, unit_bins=args.bins, log_bins=args.log_bins)
        with _writing(args.out):
            os.makedirs(args.out, exist_ok=True)
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
    except ValueError as exc:  # a JSONDecodeError or a UnicodeDecodeError
        raise InputDataError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise InputDataError(f"schema error at $ in {path}: expected a JSON object")
    return payload


def _profile_blocks(path: str) -> list:
    """The instrument blocks of the profiles.json at ``path``, then its ensemble block."""
    payload = _load_json(path)
    if payload.get("kind") != "profiles":
        raise InputDataError(f"schema error at $.kind in {path}: expected 'profiles'")
    instruments, ensemble = payload.get("instruments"), payload.get("ensemble")
    if not isinstance(instruments, list) or not isinstance(ensemble, dict):
        raise InputDataError(f"schema error at $.instruments/$.ensemble in {path}: "
                             "expected a list and an object")
    return [*instruments, ensemble]


def _pdf_from_payload(payload: dict | None, where: str) -> EmpiricalPdf | None:
    """The density ``profile`` wrote at ``where``, or None where it wrote null.

    The body laws live on (0, 1], so the domain must be the unit interval
    and the edges finite, strictly increasing and inside [0, 1]; densities
    must be finite and >= 0, and the count an integer >= 1. Anything else
    is a schema error.
    """
    if payload is None:
        return None
    import numpy as np  # only `fit` reads densities back; the other commands start without numpy

    try:
        pdf = EmpiricalPdf(
            bin_edges=np.asarray(payload["edges"], float),
            density=np.asarray(payload["density"], float),
            count=payload["count"],
            domain=str(payload["domain"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputDataError(f"schema error at {where}: {exc!r}") from exc
    edges, density = pdf.bin_edges, pdf.density
    if edges.ndim != 1 or density.shape != (edges.size - 1,):
        problem = f"{density.size} density values for {edges.size} edges"
    elif pdf.domain != UNIT_INTERVAL:
        problem = f"domain must be {UNIT_INTERVAL}, got {pdf.domain!r}"
    elif not (np.isfinite(edges).all() and (np.diff(edges) > 0).all()):
        problem = "edges must be finite and strictly increasing"
    elif edges.size and not (edges[0] >= 0.0 and edges[-1] <= 1.0):
        # a bin center at or below 0 has no log-normal or gamma density (every
        # sum of squares of the fit would be NaN), and none of the laws has mass above 1
        end, edge = ("first", float(edges[0])) if edges[0] < 0.0 else ("last", float(edges[-1]))
        problem = f"edges must lie in the domain {UNIT_INTERVAL}, got a {end} edge of {edge!r}"
    elif not ((density >= 0) & (density < np.inf)).all():
        problem = "densities must be finite and >= 0"
    elif type(pdf.count) is not int or pdf.count < 1:
        problem = f"count must be an integer >= 1, got {pdf.count!r}"
    else:
        return pdf
    raise InputDataError(f"schema error at {where}: {problem}")


# Characters of cancels.csv (whole lines) that `fit` reads, checks and parses at a time.
CANCELS_BLOCK = 1 << 18

# The cancels.csv columns that `fit` reads: the two texts and the in_profile
# flag as Python strings, so that a code of any length stays whole, then the
# four book counts of `lob.norm_level`, in its argument order.
_CANCELS_COLUMNS = {"instrument": object, "side": object, "in_profile": object,
                    "level_rank": "i8", "side_levels": "i8", "level_orders": "i8",
                    "side_orders": "i8"}


def _norm_level_block(lines: list[str], width: int, columns: list[int]):
    """Instrument codes, sell flags and ``norm_level`` of the in-profile rows of ``lines``.

    Every row must have ``width`` columns, in_profile ``0`` or ``1``, side
    ``B`` or ``S``, and counts that numpy reads as int64, with
    1 <= level_rank <= side_levels and 1 <= level_orders <= side_orders as
    in a ``CancellationRecord``; otherwise ValueError. The checks run on the
    whole block at once, and each row passes or fails on its own.
    """
    import numpy as np

    bad = np.fromiter(map(str.count, lines, repeat(",")), np.intp, len(lines)) != width - 1
    if bad.any():
        line = lines[bad.argmax()].rstrip("\n")
        raise ValueError(f"{line.count(',') + 1 if line else 0} columns, the header {width}")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy before 1.26 reads "1.5" as 1, with a warning
            rows = np.loadtxt(lines, dtype=list(_CANCELS_COLUMNS.items()), delimiter=",",
                              comments=None, usecols=columns, ndmin=1)
    except Warning as exc:
        raise ValueError(str(exc)) from exc
    codes, sides, flags, *counts = (rows[name] for name in _CANCELS_COLUMNS)
    rank, levels, at_level, on_side = counts
    in_profile, sell = flags == "1", sides == "S"
    for name, got, ok in (("in_profile must be 0 or 1", flags, in_profile | (flags == "0")),
                          ("side must be B or S", sides, sell | (sides == "B"))):
        if not ok.all():
            raise ValueError(f"{name}, got {got[~ok][0]!r}")
    if not ((1 <= rank) & (rank <= levels) & (1 <= at_level) & (at_level <= on_side)).all():
        raise ValueError("book counts out of range")
    # Integer products converted once and divided once are `lob.norm_level`
    # bit for bit while both stay below 2**53. A block with a larger product,
    # which int64 may not even hold, takes the exact Python path.
    if max((rank * on_side.astype(float)).max(), (levels * at_level.astype(float)).max()) < 2**53:
        x = (rank * on_side) / (levels * at_level)
    else:
        x = np.array(list(map(norm_level, *(column.tolist() for column in counts))))
    return codes[in_profile], sell[in_profile], x[in_profile]


def _load_norm_level_samples(path: str) -> dict:
    """``lob.norm_level`` of the in-profile rows of cancels.csv, per (instrument, side).

    Each value is a float64 array in file order, and the keys come in the
    order of their first row. The file is read CANCELS_BLOCK characters at a
    time, and the lines of each read are checked and parsed together by
    `_norm_level_block`. A bad block is checked again row by row, and the
    error names the first bad line.
    """
    import numpy as np

    blocks = _line_blocks(path, CANCELS_BLOCK)
    head = next(blocks, [""])
    header = head[0].rstrip("\n").split(",")
    try:
        columns = [header.index(name) for name in _CANCELS_COLUMNS]
    except ValueError as exc:
        raise InputDataError(f"{path}: bad cancels schema: {exc}") from exc
    ids = defaultdict(count().__next__)  # instrument code -> id, in order of first row
    chunks: dict[int, list] = {}  # 2 * id + sell -> its arrays, one per block
    line_no = 2
    for block in filter(None, chain([head[1:]], blocks)):
        try:
            codes, sell, x = _norm_level_block(block, len(header), columns)
        except ValueError as exc:
            for i, line in enumerate(block):
                try:
                    _norm_level_block([line], len(header), columns)
                except ValueError as row_exc:
                    exc, line_no = row_exc, line_no + i
                    break
            raise InputDataError(f"{path}: bad cancels schema: line {line_no}: {exc}") from None
        keys = 2 * np.fromiter(map(ids.__getitem__, codes.tolist()), np.intp, codes.size) + sell
        for key in dict.fromkeys(keys.tolist()):
            chunks.setdefault(key, []).append(x[keys == key])
        line_no += len(block)
    names = list(ids)
    return {(names[key >> 1], "BS"[key & 1]): np.concatenate(parts)
            for key, parts in chunks.items()}


def _entry_seed(base_seed: int, instrument: str, side: str, model: str) -> int:
    return base_seed ^ zlib.crc32(f"{instrument}|{side}|{model}".encode())


# Body models: the profiles.json density each one fits, and the error
# recorded when that density is missing. `fit` calls distfit's batch entry
# points, `fit_batch` and `gof_pvalues`, looked up on the module at call time,
# so a wrapper installed on distfit is honoured. Only `fit` imports distfit,
# so the other subcommands start without it.
_BODY_MODELS = {
    "lognormal": ("pdf_rel_level", "no relative-level density"),
    "gamma": ("pdf_rel_level", "no relative-level density"),
    "exp": ("pdf_queue_frac", "no queue-position density"),
}


def _block_samples(norm_samples: dict, instrument: str, side: str) -> list:
    """The norm_level sample arrays of one block's side; the ensemble's are every instrument's."""
    code = "B" if side == "buy" else "S"
    if instrument == "__ensemble__":
        return [v for (_, s), v in norm_samples.items() if s == code]
    return [norm_samples[instrument, code]] if (instrument, code) in norm_samples else []


def _powerlaw_outcome(instrument: str, side: str, norm_samples: dict | None):
    """The power-law tail entry's params, or its error text."""
    import numpy as np

    from . import distfit

    if norm_samples is None:
        return "cancels.csv with raw samples not available"
    xs = np.concatenate([np.empty(0), *_block_samples(norm_samples, instrument, side)])
    try:
        return dataclasses.asdict(distfit.fit_powerlaw_tail(xs))
    except distfit.FitError as exc:
        return f"{type(exc).__name__}: {exc}"


def _fit_entries(
    jobs: list[tuple[str, str, dict[str, EmpiricalPdf | None]]],
    models: list[str],
    norm_samples: dict | None,
    repeats: int,
    seed: int,
) -> list[dict]:
    """One fits.json entry per job (instrument, side, densities) and model, in that order.

    Each body model is fitted to every job's density in one batch, and the
    log-normal's bootstrap refits of every job run in one batch too.
    """
    from . import distfit

    outcome: dict[str, list] = {}  # model -> each job's params, or its error text
    for model in models:
        if model == "powerlaw":
            outcome[model] = [_powerlaw_outcome(i, s, norm_samples) for i, s, _ in jobs]
            continue
        key, missing = _BODY_MODELS[model]
        found = [k for k, (_, _, pdfs) in enumerate(jobs) if pdfs[key] is not None]
        results = [missing] * len(jobs)
        fitted = []  # (job, fit) of each body fit that succeeded
        for k, fit in zip(found, distfit.fit_batch(model, [jobs[k][2][key] for k in found])):
            if isinstance(fit, distfit.FitError):
                results[k] = f"{type(fit).__name__}: {fit}"
            else:
                results[k] = dataclasses.asdict(fit)
                fitted.append((k, fit))
        if model == "lognormal" and fitted:
            bootstrap = distfit.gof_pvalues(
                [(jobs[k][2][key], fit, _entry_seed(seed, *jobs[k][:2], model)) for k, fit in fitted],
                repeats,
            )
            for (k, _), (p_value, unfittable) in zip(fitted, bootstrap):
                results[k].update(p_value=p_value, repeats=repeats, unfittable=unfittable)
        outcome[model] = results
    entries = []
    for k, (instrument, side, _) in enumerate(jobs):
        for model in models:
            result = outcome[model][k]
            entries.append({"instrument": instrument, "side": side, "model": model,
                            "error" if isinstance(result, str) else "params": result})
    return entries


def cmd_fit(args) -> int:
    models = [m.strip() for m in args.models.split(",") if m.strip()]
    unknown = [m for m in models if m not in ALL_MODELS]
    if unknown:
        raise UsageError(f"unknown models {unknown}; choose from {ALL_MODELS}")
    if not models:
        raise UsageError(f"--models names no model; choose from {ALL_MODELS}")
    if len(set(models)) < len(models):
        raise UsageError(f"--models names a model twice: {args.models!r}")
    _check_out(args.out)
    blocks = _profile_blocks(args.profiles)
    norm_samples = None
    if "powerlaw" in models:  # an explicit --cancels must exist, the default sibling may not
        cancels_path = args.cancels or os.path.join(os.path.dirname(args.profiles), "cancels.csv")
        if args.cancels or os.path.exists(cancels_path):
            norm_samples = _load_norm_level_samples(cancels_path)

    # Every density is read and checked before the first fit runs.
    keys = {_BODY_MODELS[m][0] for m in models if m in _BODY_MODELS}
    jobs = []
    for block in blocks:
        try:
            instrument = block["instrument"]
            sides = block["sides"]
        except (KeyError, TypeError) as exc:
            raise InputDataError(f"schema error at $.instruments[].sides: {exc!r}") from exc
        for side in ("buy", "sell"):
            where = f"$.sides.{side} of {instrument}"
            side_data = sides.get(side) if isinstance(sides, dict) else None
            if not isinstance(side_data, dict):
                raise InputDataError(f"schema error at {where}: missing or not an object")
            pdfs = {key: _pdf_from_payload(side_data.get(key), where) for key in keys}
            jobs.append((instrument, side, pdfs))
            norm = side_data.get("pdf_norm_level")
            if norm_samples is not None and norm is not None:
                # the tail fits pool cancels.csv's rows: they must be the ones profiles.json counts
                rows = sum(xs.size for xs in _block_samples(norm_samples, instrument, side))
                count = norm.get("count") if isinstance(norm, dict) else None
                if count != rows:
                    raise InputDataError(
                        f"{cancels_path} does not match {args.profiles} at {where}: {rows} "
                        f"in-profile rows, but pdf_norm_level counts {count!r}")
    entries = _fit_entries(jobs, models, norm_samples, args.repeats, args.seed)
    config = {"models": models, "repeats": args.repeats, "seed": args.seed}
    with _writing(args.out):
        reportio.write_text(args.out, reportio.render_json(reportio.fits_payload(entries, config)))
    failed = sum(1 for e in entries if "error" in e)
    print(f"wrote {len(entries)} fit entries ({failed} failed) -> {args.out}")
    return 0


# -- gen ---------------------------------------------------------------------------


def _parse_law(text: str, which: str):
    text = text.strip().lower()
    if text == "uniform":
        return UniformLaw()
    name, _, params = text.partition(":")
    if name == "lognormal":
        law, arity, form = TruncLogNormalLaw, 2, "lognormal:MU,SIGMA"
    elif name == "exp":
        law, arity, form = ExpProfileLaw, 1, "exp:BETA"
    else:
        raise UsageError(f"{which}: unknown law {text!r}")
    try:
        values = [float(v) for v in params.split(",")]
    except ValueError:
        values = []
    if len(values) != arity:
        raise UsageError(f"{which}: expected {form}, got {text!r}")
    return law(*values)


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
    _check_out(args.out)
    with gc_paused(), _writing(args.out):
        reportio.write_lines(args.out, chain((HEADER,), iter_rows(config)))
    print(f"wrote {config.n_events} events -> {args.out}")
    return 0


# -- simqueues -----------------------------------------------------------------------


def cmd_simqueues(args) -> int:
    config = QueueSimConfig(n_queues=args.queues, max_length=args.max_length, seed=args.seed)
    _check_out(args.out)
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
            "value": result.mass_values.tolist(),
            "prob": result.mass_probs.tolist(),
        },
        "top_masses": result.top_masses(10),
        "pdf": result.pdf.to_dict(),
    }
    with _writing(args.out):
        reportio.write_text(args.out, reportio.render_json(payload))
    print(f"simulated {config.n_queues} queues -> {args.out}")
    return 0


# -- report --------------------------------------------------------------------------


def _fmt_ratio(r: float | None) -> str:
    return "n/a" if r is None else f"{100.0 * r:.1f}%"


def cmd_report(args) -> int:
    blocks = _profile_blocks(args.profiles)
    fits = _load_json(args.fits) if args.fits else None
    if fits is not None and fits.get("kind") != "fits":
        raise InputDataError(f"schema error at $.kind in {args.fits}: expected 'fits'")
    if fits is not None and not isinstance(fits.get("fits"), list):
        raise InputDataError(f"schema error at $.fits in {args.fits}: expected a list")
    lines = ["instrument  side  orders  cancelled  r      r1     r2     r3     r4"]
    for block in blocks:
        for side in ("buy", "sell"):
            try:
                data = block["sides"][side]
                ratios = [data["class_ratios"][k.value]["ratio"] for k in CANCELLABLE_CLASSES]
                cells = "  ".join(f"{_fmt_ratio(r):<5}" for r in ratios)
                lines.append(
                    f"{block['instrument']:<11} {side:<5} {data['orders']:<7} "
                    f"{data['cancelled_orders']:<10} {_fmt_ratio(data['ratio']):<6} {cells}"
                )
            except (KeyError, TypeError) as exc:
                raise InputDataError(
                    f"schema error at $.sides.{side} in {args.profiles}: {exc!r}"
                ) from exc
        counts = block.get("diagnostics", {})  # what the replay dropped or held
        if not isinstance(counts, dict) or any(type(n) is not int or n < 0 for n in counts.values()):
            raise InputDataError(f"schema error at $.diagnostics in {args.profiles}: "
                                 "expected an object of counts")
        if any(counts.values()):
            lines.append("  diagnostics: " + ", ".join(
                f"{name}={n}" for name, n in sorted(counts.items()) if n))
    if fits is not None:
        lines += ["", "fits:"]
        for i, entry in enumerate(fits["fits"]):
            try:
                label = f"{entry['instrument']}/{entry['side']}/{entry['model']}"
                if "error" in entry:
                    lines.append(f"  {label}: ERROR {entry['error']}")
                else:
                    params = dict(entry["params"])
                    mark = " (at bound)" if params.pop("at_bound", False) else ""
                    # the bootstrap's unfittable draws are printed beside the p-value they count in
                    beside = ({"p_value": f" ({params.pop('unfittable'):d} unfittable)"}
                              if "p_value" in params and "unfittable" in params else {})
                    text = ", ".join(f"{k}={v:.4g}{beside.get(k, '')}"
                                     for k, v in sorted(params.items()))
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
    argv = list(sys.argv[1:] if argv is None else argv)
    args = parser.parse_args(argv)
    try:
        if args.config:
            args = parser.parse_args(_with_config_flags(args, argv))
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
    try:
        code = main()
        sys.stdout.flush()  # here, so that a closed pipe is seen inside the try
    except BrokenPipeError:
        # The reader left early (`lobcancel report ... | head -1`). End as a
        # filter killed by SIGPIPE does, quietly; the interpreter's own flush
        # at exit goes to devnull (the recipe of Python's signal docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
