"""`profile` streams one instrument-day at a time and keeps counts, not samples.

The golden digests were taken from the whole-input profile path that the
streaming path replaced, on inputs that stream out of date order: an
instrument-day that comes back after a later date, and an instrument-day
split across two files. The cancels.csv digests are those of the same files
with their three ratio columns cut (`cut -d, -f1-11,15-`), which the
integer-only layout writes. The profiles.json digests are those of the same
files with each float printed as its shortest round-trip repr instead of 17
significant digits: they load to equal values, and their text is equal once
the numbers are masked.
"""
import errno
import gc
import hashlib
import heapq
import io
import os
import signal
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from datetime import date, timedelta

import numpy as np
import pytest

from lobcancel import cli, reportio
from lobcancel.cli import main
from lobcancel.orderflow import (
    DUPLICATE_ORDER_ID,
    MALFORMED_ROW,
    HEADER,
    NON_MONOTONE_SEQ,
    NON_MONOTONE_TIME,
    DaysOutOfOrder,
    OrderEvent,
    ParseError,
    iter_parse,
    parse_stream,
    split_days,
)
from lobcancel.profiles import (
    BinSpec,
    ProfileRun,
    accumulate_pdf,
    count_pdf,
    profile_events,
    replay_day,
    replay_days,
)
from lobcancel.synth import GenConfig, generate_stream


def _day_rows(code: str, day: date, seed: int, n_events: int = 1500) -> list[str]:
    config = GenConfig(seed=seed, n_events=n_events, instrument=code, trading_day=day,
                       initial_levels=12, initial_queue=4)
    return [ev.to_row().split(",", 1)[1] for ev in generate_stream(config)]


def _write(path, rows) -> str:
    """Write rows under the header with seq renumbered 1.."""
    body = [f"{i},{row}" for i, row in enumerate(rows, start=1)]
    path.write_text("\n".join([HEADER, *body]) + "\n", encoding="utf-8")
    return str(path)


def _digests(out) -> dict[str, str]:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("profiles.json", "cancels.csv")}


def reappearing_day_input(tmp_path) -> list[str]:
    """RAPA's first day, its second day, then the rest of its first day; then RAPB."""
    first = _day_rows("RAPA", date(2003, 3, 3), seed=31)
    second = _day_rows("RAPA", date(2003, 3, 4), seed=32)
    other = _day_rows("RAPB", date(2003, 3, 3), seed=33)
    rows = first[:700] + second + first[700:] + other
    return [_write(tmp_path / "reappearing.csv", rows)]


def split_day_input(tmp_path) -> list[str]:
    """SPLA's first day split across two files, the second file then holding its next day."""
    first = _day_rows("SPLA", date(2003, 3, 3), seed=41)
    second = _day_rows("SPLA", date(2003, 3, 4), seed=42)
    return [_write(tmp_path / "split_a.csv", first[:900]),
            _write(tmp_path / "split_b.csv", first[900:] + second)]


def reappearing_day_and_other_input(tmp_path) -> list[str]:
    """The reappearing input, then a file of RAPC: two jobs under ``--workers 2``,
    so the first one's rerun in full-input order happens inside a pool worker."""
    other = _day_rows("RAPC", date(2003, 3, 3), seed=34)
    return [*reappearing_day_input(tmp_path), _write(tmp_path / "other.csv", other)]


# name: (input builder, the argument indices of each `--workers 2` job, digests)
GOLDEN = {
    "reappearing": (reappearing_day_input, [[0]], {
        "profiles.json": "f2e7fcd9595b0435cf2bd7e82c1abb804881a141034aab71f919b91f0eefd134",
        "cancels.csv": "874872465b6e64b233fafaf6d7c0302786ad21ab6b4e770f8cc8c3a87490eb25",
    }),
    "split": (split_day_input, [[0, 1]], {
        "profiles.json": "be79f1f9e341d6c4fe88dcd82bc914c600ee0069036b964aab982a192905840a",
        "cancels.csv": "4825a56f510ea3fcbc9ab0d831f84b0f19e875ab78c5fb76dd0a6fc0ca6d7c9e",
    }),
    # taken from the profile path that grouped part files by instrument code
    "reappearing_and_other": (reappearing_day_and_other_input, [[0], [1]], {
        "profiles.json": "488fec381b0cba7fc814f091dbb959eb8a6d5d86812c83697a683d0f678c3100",
        "cancels.csv": "0da9504e71533d64474407e450acf94f76edba4b70d3e98b287d2dd303630fc2",
    }),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_out_of_order_inputs_keep_their_bytes(tmp_path, monkeypatch, name):
    build, jobs, want = GOLDEN[name]
    paths = build(tmp_path)
    assert cli._disjoint_groups(paths) == jobs
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}"
        assert main(["profile", *paths, "--out", str(out), "--workers", workers]) == 0
        assert _digests(out) == want
        assert not list(scratch.iterdir())  # no part file outlives the run


# -- counts binned at payload time ------------------------------------------------


@pytest.mark.parametrize("bins", [50, 25])
def test_count_binning_equals_histogram_of_the_ratios(bins):
    counts = {(k, n): 1 + (k * n) % 3 for n in range(1, 401) for k in range(1, n + 1)}
    ratios = np.repeat([k / n for k, n in counts], list(counts.values()))
    spec = BinSpec("uniform", bins)
    got = count_pdf(counts, spec)
    want = accumulate_pdf(ratios, spec)
    assert np.array_equal(np.histogram(ratios, bins=got.bin_edges)[0] / (
        ratios.size * got.widths()), got.density)
    assert np.array_equal(got.density, want.density)
    assert np.array_equal(got.bin_edges, want.bin_edges)
    assert got.count == want.count == ratios.size


def test_profile_accumulates_counts_not_samples(fixture_events):
    profile = profile_events(fixture_events).per_instrument["000777"]
    for acc in (profile.buy, profile.sell):
        assert sum(acc.rel_level_counts.values()) == sum(acc.queue_frac_counts.values()) == 4
        assert len(acc.norm_levels) == 4
    assert not hasattr(ProfileRun([]), "observations")


# -- lazy input -------------------------------------------------------------------


def test_lines_split_at_csv_line_ends_across_read_blocks(tmp_path, monkeypatch):
    # Lines end at LF, CRLF and CR, as a universal-newline text file reads
    # them, and each line end reads as LF; the other `str.splitlines` breaks
    # (VT, FF, FS, GS, RS, NEL, U+2028, U+2029) stay inside their line, as a
    # CSV reader keeps them.
    mixed = "a,b\r\nc\rd\n\ne\x0bf\x0cg\x1ch\x1di\x1ej\x85k\u2028l\u2029m\r\n\r\nlém"
    cr_only, cr_crlf = "ab\rcd\r\ref\r\rlém\r", "ab\r\ncd\ref\r\n\r\rg\r\n"
    path = tmp_path / "lines.txt"
    for text in (mixed, cr_only, cr_crlf, "", "\n", "\x0c\n\u2028"):
        expected = [line.rstrip("\r\n") + "\n" if line[-1] in "\r\n" else line
                    for line in io.StringIO(text, newline="")]
        # A str source splits as a file does: each row's error names its line.
        assert list(iter_parse(f"{HEADER}\n{text}")) == list(iter_parse([HEADER, *expected]))
        path.write_bytes(text.encode("utf-8"))
        for block in (1, 2, 3, 5, 64):
            monkeypatch.setattr(cli, "READ_BLOCK", block)
            assert list(cli._read_lines(str(path))) == expected
        if text == mixed:
            assert expected[4] == "e\x0bf\x0cg\x1ch\x1di\x1ej\x85k\u2028l\u2029m\n"


def test_a_form_feed_inside_a_row_is_not_a_line_break():
    # Split at the form feed, the row would read as two short rows.
    text = f"{HEADER}\n1,2003-06-02T09:31:00.000,000777,1,L,B,10\x0c0,100\n"
    (err,) = iter_parse(text)
    assert (err.line, err.code, err.message) == (2, MALFORMED_ROW, "non-integer numeric field")


@pytest.mark.parametrize("sep", ["\n", "\r", "\r\n"], ids=["lf", "cr", "crlf"])
def test_read_lines_holds_about_a_block(tmp_path, monkeypatch, sep):
    path = tmp_path / "lines.csv"
    row = "1,2003-06-02T09:30:00.000,SYN001,1,L,B,10000,100"
    path.write_bytes((sep.join([row] * 20_000) + sep).encode())  # 1 MB
    monkeypatch.setattr(cli, "READ_BLOCK", 4096)
    tracemalloc.start()
    try:
        assert sum(1 for _ in cli._read_lines(str(path))) == 20_000
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 4096


@pytest.mark.parametrize("block", [7, 1 << 20])
def test_invalid_utf8_byte_names_its_offset_in_the_file(fixture_csv, tmp_path, monkeypatch,
                                                       capsys, block):
    data = fixture_csv.read_bytes()
    bad = data.index(b"000777", len(data) // 2) + 5
    path = tmp_path / "latin1.csv"
    path.write_bytes(data[:bad] + b"\xff" + data[bad + 1:])
    monkeypatch.setattr(cli, "READ_BLOCK", block)
    for argv in (["validate", str(path)], ["profile", str(path), "--out", str(tmp_path / "o")]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}: not valid UTF-8 at byte {bad}: invalid start byte\n"
    assert not (tmp_path / "o").exists()


@pytest.fixture(scope="module")
def chunk_inputs(tmp_path_factory):
    """An order-flow file and a cancels.csv (with its profiles.json) of about 24 KB each."""
    root = tmp_path_factory.mktemp("chunks")
    for name, events in (("flow.csv", 500), ("big.csv", 1100)):
        assert main(["gen", "--out", str(root / name), "--events", str(events), "--seed", "3",
                     "--instrument", "SYN", "--levels", "15", "--queue-depth", "4"]) == 0
    assert main(["profile", str(root / "big.csv"), "--out", str(root / "big")]) == 0
    return root


def _at(data: bytes, at: int, part: bytes) -> bytes:
    return data[:at] + part + data[at + len(part):]


def _crlf_with_a_cr_at_8191(data: bytes, field: int) -> bytes:
    """``data`` with CRLF rows, zeros put before the first row's ``field`` (a number
    that nothing reads or that reads the same) so that a CR is byte 8191."""
    crlf = data.replace(b"\n", b"\r\n")
    at = crlf.index(b"\n") + 1
    for _ in range(field):
        at = crlf.index(b",", at) + 1
    padded = crlf[:at] + b"0" * (8191 - crlf.rindex(b"\r", 0, 8192)) + crlf[at:]
    assert padded[8191:8193] == b"\r\n"
    return padded


# Each input that Python's text reader decodes across its 8192-byte chunks,
# made from an LF file of about 24 KB and the index of a number field of its
# first row, with the decoding error it must report, or None where it must
# read as the LF file does.
CHUNK_CASES = {
    "bad_byte_at_20000": (lambda data, _: _at(data, 20000, b"\xff"),
                          "20000: invalid start byte"),
    "two_byte_char_at_8191_then_bad_byte_at_9000": (
        lambda data, _: _at(_at(data, 8191, "é".encode()), 9000, b"\xff"),
        "9000: invalid start byte"),
    "c3_at_8191_then_A": (lambda data, _: _at(data, 8191, b"\xc3A"),
                          "8191: invalid continuation byte"),
    "truncated_char_at_eof": (lambda data, _: data + b"\xe2\x82",
                              "{size}: unexpected end of data"),
    "crlf_with_its_cr_at_8191": (_crlf_with_a_cr_at_8191, None),
    "cr_rows": (lambda data, _: data.replace(b"\n", b"\r"), None),
}


@pytest.mark.parametrize("case", CHUNK_CASES)
def test_text_reader_chunks_keep_lines_and_error_offsets(chunk_inputs, tmp_path, capsys, case):
    make, error = CHUNK_CASES[case]
    big = chunk_inputs / "big"
    commands = {  # each command's LF input, a number field of its first row, its outputs
        "validate": (chunk_inputs / "flow.csv", 0, ["validate", "{path}"], []),
        "profile": (chunk_inputs / "flow.csv", 0, ["profile", "{path}", "--out", "{out}"],
                    ["profiles.json", "cancels.csv"]),
        "fit": (big / "cancels.csv", 1,
                ["fit", "--profiles", str(big / "profiles.json"), "--cancels", "{path}",
                 "--out", "{out}", "--models", "powerlaw"], [""]),  # out is fits.json
    }
    for command, (lf, field, argv, outputs) in commands.items():
        data = lf.read_bytes()
        assert 20_000 < len(data) < 30_000
        path = tmp_path / f"{command}.csv"
        path.write_bytes(make(data, field))
        runs = {}
        for name in (lf, path):
            out = tmp_path / f"{command}-{name.stem}.out"
            code = main([arg.format(path=name, out=out) for arg in argv])
            runs[name] = (code, *capsys.readouterr(), out)
        code, stdout, stderr, out = runs[path]
        if error:
            at = error.format(size=len(data))
            assert (code, stdout) == (1, "")
            assert stderr == f"error: {path}: not valid UTF-8 at byte {at}\n"
            assert not out.exists()
        else:
            lf_code, lf_stdout, _, lf_out = runs[lf]
            assert (code, stderr) == (lf_code, "") == (0, "")
            assert stdout == lf_stdout.replace(str(lf), str(path)).replace(str(lf_out), str(out))
            for name in outputs:
                assert (out / name).read_bytes() == (lf_out / name).read_bytes()


def _fed_fifo(path, data: bytes) -> threading.Thread:
    """A FIFO made at ``path`` and a started thread that writes ``data`` into it once."""
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_bytes, args=(data,), daemon=True)
    writer.start()
    return writer


def test_a_bad_byte_in_a_pipe_is_named_by_its_offset(tmp_path, capsys):
    # The reader counts the bytes it hands the decoder, so a pipe, which has
    # no position to ask for, names the byte as a file does.
    fifo = tmp_path / "flow.fifo"
    writer = _fed_fifo(fifo, HEADER.encode() + b"\n1,\xff\n")
    assert main(["validate", str(fifo)]) == 1
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert capsys.readouterr().err == (
        f"error: {fifo}: not valid UTF-8 at byte 63: invalid start byte\n")


@pytest.mark.parametrize("case", [case for case, (_, error) in CHUNK_CASES.items() if error])
def test_a_pipe_names_the_byte_a_file_names(chunk_inputs, tmp_path, capsys, case):
    make, error = CHUNK_CASES[case]
    data = (chunk_inputs / "flow.csv").read_bytes()
    fifo = tmp_path / "flow.fifo"
    writer = _fed_fifo(fifo, make(data, 0))
    assert main(["validate", str(fifo)]) == 1
    writer.join(timeout=10)
    assert not writer.is_alive()
    at = error.format(size=len(data))
    assert capsys.readouterr() == ("", f"error: {fifo}: not valid UTF-8 at byte {at}\n")


def _cli(*argv: str) -> subprocess.CompletedProcess:
    """Run the CLI in a new interpreter, killed with any pool workers after 60 s:
    an open of a FIFO that no one will write again blocks for ever."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    with subprocess.Popen([sys.executable, "-m", "lobcancel.cli", *argv], text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
                          env=dict(os.environ, PYTHONPATH=src)) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            raise
    return subprocess.CompletedProcess(proc.args, proc.returncode, stdout, stderr)


def test_profile_workers_over_fifos_writes_the_bytes_of_one_worker(tmp_path):
    # The grouping pre-scan would read each pipe before its job does, so
    # pipes run as one job.
    rows = {code: _day_rows(code, date(2003, 6, 2), seed) for code, seed in (("FFA", 51),
                                                                             ("FFB", 52))}
    files = [_write(tmp_path / f"{code}.csv", code_rows) for code, code_rows in rows.items()]
    assert main(["profile", *files, "--out", str(tmp_path / "files"), "--workers", "1"]) == 0
    fifos = [tmp_path / f"{code}.fifo" for code in rows]
    writers = [_fed_fifo(fifo, (tmp_path / f"{code}.csv").read_bytes())
               for fifo, code in zip(fifos, rows)]
    proc = _cli("profile", *map(str, fifos), "--out", str(tmp_path / "fifos"), "--workers", "2")
    assert (proc.returncode, proc.stderr) == (0, "")
    for writer in writers:
        writer.join(timeout=10)
        assert not writer.is_alive()
    assert _digests(tmp_path / "fifos") == _digests(tmp_path / "files")


def test_a_fifo_that_goes_back_in_date_is_rejected_not_read_twice(tmp_path, capsys):
    # As a file the input validates clean: it is read again with every day kept.
    later = _day_rows("BACK", date(2003, 6, 3), seed=53, n_events=200)
    back = _write(tmp_path / "back.csv", later + _day_rows("BACK", date(2003, 6, 2), seed=54,
                                                           n_events=200))
    data = (tmp_path / "back.csv").read_bytes()
    assert len(data) < 60_000  # a pipe's buffer takes it whole, so no writer waits on a reader
    assert main(["validate", back]) == 0
    capsys.readouterr()
    step = "line 202: BACK goes back from 2003-06-03 to 2003-06-02"
    fifo = tmp_path / "back.fifo"
    for argv in (["validate", str(fifo)], ["profile", str(fifo), "--out", str(tmp_path / "o")]):
        writer = _fed_fifo(fifo, data)
        proc = _cli(*argv)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", (
            f"error: {fifo}: {step}: the inputs are then read again from the start, "
            f"so {fifo} must be a regular file\n"))
        fifo.unlink()
    assert not (tmp_path / "o").exists()
    # A pipe read before the step would be read again; one not yet opened is read once.
    other = _write(tmp_path / "other.csv", _day_rows("OTHR", date(2003, 6, 3), seed=55,
                                                     n_events=200))
    for argv, code, stdout, stderr in (
        ([str(fifo), back], 1, f"{fifo}: 200 events, 0 errors\n",
         f"error: {back}: {step}: the inputs are then read again from the start, so {fifo} "
         "must be a regular file\n"),
        ([back, str(fifo)], 0, f"{back}: 400 events, 0 errors\n{fifo}: 200 events, 0 errors\n",
         ""),
    ):
        writer = _fed_fifo(fifo, (tmp_path / "other.csv").read_bytes())
        proc = _cli("validate", *argv)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, stdout, stderr)
        fifo.unlink()
    assert main(["validate", other, back]) == 0  # as files, both orders validate clean


def test_failed_profile_leaves_no_part_files(fixture_csv, tmp_path, monkeypatch):
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    bad = tmp_path / "bad.csv"
    bad.write_text(fixture_csv.read_text() + "29,not-a-time,000777,1,L,B,1,1\n")
    assert main(["profile", str(fixture_csv), str(bad), "--out", str(tmp_path / "o")]) == 1
    assert not (tmp_path / "o").exists() and not list(scratch.iterdir())
    assert main(["profile", str(fixture_csv), "--out", str(tmp_path / "o")]) == 0
    assert not list(scratch.iterdir())


# -- one instrument-day at a time ------------------------------------------------


def _events(rows_by_day) -> list:
    rows = [row for rows in rows_by_day for row in rows]
    text = "\n".join([HEADER, *(f"{i},{row}" for i, row in enumerate(rows, start=1))])
    result = parse_stream(text)
    assert result.ok
    return result.events


def _day_fields(day) -> tuple:
    return day.instrument, day.observations, day.diagnostics, day.buy, day.sell


def test_replay_days_in_date_order_finishes_each_day_once_complete():
    d1, d2 = date(2003, 3, 3), date(2003, 3, 4)
    a1, a2, b1 = (_day_rows(code, day, seed=5, n_events=40)
                  for code, day in (("A", d1), ("A", d2), ("B", d1)))
    events = _events([a1, b1, a2])
    seen = []

    def feed():
        for ev in events:
            seen.append(ev)
            yield ev

    days = [(len(seen), day) for day in replay_days(feed(), in_date_order=True)]
    # A's first day is finished when its second day starts; the rest at the end
    assert [n for n, _ in days] == [81, 120, 120]
    by_day = split_days(events)
    want = [_day_fields(replay_day(by_day[key])) for key in (("A", d1), ("A", d2), ("B", d1))]
    assert [_day_fields(day) for _, day in days] == want
    # kept live to the end, the days are finished in (instrument, day) order
    assert [_day_fields(day) for day in replay_days(events)] == [
        _day_fields(replay_day(by_day[key])) for key in sorted(by_day)
    ]


def test_an_earlier_date_raises_in_date_order_only():
    d1, d2 = date(2003, 3, 3), date(2003, 3, 4)
    rows = _day_rows("A", d1, seed=5, n_events=40)
    later = _day_rows("A", d2, seed=6, n_events=40)
    events = _events([rows[:20], later, rows[20:]])
    with pytest.raises(DaysOutOfOrder):
        list(replay_days(events, in_date_order=True))
    text = "\n".join([HEADER, *(f"{i},{row}" for i, row in
                                enumerate(rows[:20] + later + rows[20:], start=1))])
    with pytest.raises(DaysOutOfOrder):
        list(iter_parse(text, in_date_order=True))
    assert list(iter_parse(text)) == parse_stream(text).events


def test_date_ordered_parse_keeps_every_check():
    # Dropping a finished day's state changes no record: order ids of day 1
    # come back on day 2 (allowed), while a resubmitted day-2 id, a day-2
    # time regression and a repeated seq are refused in both modes.
    first = _day_rows("A", date(2003, 3, 3), seed=5, n_events=60)
    second = _day_rows("A", date(2003, 3, 4), seed=6, n_events=60)
    last_ts = second[-1].split(",", 1)[0]
    resubmitted = last_ts + "," + next(r for r in second if ",L," in r).split(",", 1)[1]
    rows = first + second + [resubmitted, second[0]]
    lines = [HEADER, *(f"{i},{row}" for i, row in enumerate(rows, start=1))]
    lines.insert(5, lines[4])
    text = "\n".join(lines)
    records = list(iter_parse(text, in_date_order=True))
    assert records == list(iter_parse(text))
    errors = [r for r in records if isinstance(r, ParseError)]
    assert [e.code for e in errors] == [NON_MONOTONE_SEQ, DUPLICATE_ORDER_ID, NON_MONOTONE_TIME]
    assert len(records) - len(errors) == 120


def _days_file(path, days) -> str:
    rows = [row for day in days for row in _day_rows("MEM01", day, seed=50, n_events=3000)]
    return _write(path, rows)


def _peak(argv) -> int:
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _profile_peak(paths, out) -> int:
    return _peak(["profile", *paths, "--out", str(out)])


def test_profile_memory_is_one_day_not_the_input(tmp_path, capsys):
    days = [date(2003, 3, 3) + timedelta(days=i) for i in range(8)]
    one = _days_file(tmp_path / "one.csv", days[:1])
    eight = _days_file(tmp_path / "eight.csv", days)
    _profile_peak([one], tmp_path / "warm")  # one-time allocations out of the way
    one_peak = _profile_peak([one], tmp_path / "o1")
    eight_peak = _profile_peak([eight], tmp_path / "o8")
    assert eight_peak <= 1.3 * one_peak, (one_peak, eight_peak)


def test_validate_memory_is_one_day_not_the_input(tmp_path, capsys):
    # The checks span the files, and still keep one day per instrument.
    days = [date(2003, 3, 3) + timedelta(days=i) for i in range(8)]
    files = [_days_file(tmp_path / f"day{i}.csv", [day]) for i, day in enumerate(days)]
    _peak(["validate", files[0]])  # one-time allocations out of the way
    one_peak = _peak(["validate", files[0]])
    eight_peak = _peak(["validate", *files])
    assert eight_peak <= 1.3 * one_peak, (one_peak, eight_peak)


# -- exchange layout: one file per day, every instrument in it ----------------------


EXCHANGE_CODES = ("EXA", "EXB", "EXC", "EXD")


def _exchange_rows(n_events: int) -> list[str]:
    """One trading day of four instruments, merged by timestamp, seq renumbered 1.."""
    streams = [
        generate_stream(GenConfig(seed=60 + i, n_events=n_events, instrument=code,
                                  trading_day=date(2003, 3, 3), initial_levels=20,
                                  initial_queue=4))
        for i, code in enumerate(EXCHANGE_CODES)
    ]
    merged = heapq.merge(*streams, key=lambda ev: ev.timestamp)
    return [ev._replace(seq=seq).to_row() for seq, ev in enumerate(merged, start=1)]


def test_exchange_layout_file_profiles_as_its_per_instrument_split(tmp_path, capsys):
    rows = _exchange_rows(10_000)
    day_file = tmp_path / "day.csv"
    day_file.write_text("\n".join([HEADER, *rows]) + "\n", encoding="utf-8")
    split = []
    for code in EXCHANGE_CODES:  # each row keeps its seq of the day file
        path = tmp_path / f"{code}.csv"
        path.write_text("\n".join([HEADER, *(r for r in rows if r.split(",", 3)[2] == code)])
                        + "\n", encoding="utf-8")
        split.append(str(path))
    # One file is one group, so --workers 2 runs the day file as --workers 1 does.
    assert main(["profile", str(day_file), "--out", str(tmp_path / "day")]) == 0
    want = _digests(tmp_path / "day")
    for workers in ("1", "2"):
        out = tmp_path / f"split-w{workers}"
        assert main(["profile", *split, "--out", str(out), "--workers", workers]) == 0
        assert _digests(out) == want
    capsys.readouterr()

    # The day file is replayed as it is read: its four books and its
    # duplicate-id sets are live at once, its events are not.
    text = day_file.read_text(encoding="utf-8")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        events = parse_stream(text).events
        events_size = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    del events, text
    peak = _profile_peak([str(day_file)], tmp_path / "traced")
    assert peak <= events_size / 2, (peak, events_size)


# -- gen writes as it generates -------------------------------------------------------


GEN_ARGS = ["--events", "50000", "--seed", "3", "--levels", "20", "--queue-depth", "6"]


def test_gen_memory_is_the_book_not_the_stream(tmp_path, capsys):
    config = GenConfig(seed=3, n_events=50_000, initial_levels=20, initial_queue=6)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        events = generate_stream(config)
        stream_size = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    want = "\n".join([HEADER, *map(OrderEvent.to_row, events)]) + "\n"
    del events
    out = tmp_path / "gen.csv"
    tracemalloc.start()
    try:
        assert main(["gen", "--out", str(out), *GEN_ARGS]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= stream_size / 2, (peak, stream_size)
    assert out.read_text(encoding="utf-8") == want
    assert capsys.readouterr().out == f"wrote 50000 events -> {out}\n"


@pytest.mark.parametrize("enabled", [True, False])
def test_gen_writes_with_the_collector_paused_and_restores_it(tmp_path, monkeypatch, capsys,
                                                              collector_state, enabled):
    write_lines = reportio.write_lines
    seen = []

    def spy(path, lines, **kwargs):
        seen.append(gc.isenabled())
        write_lines(path, lines, **kwargs)

    collector_state(enabled)
    monkeypatch.setattr(reportio, "write_lines", spy)
    assert main(["gen", "--out", str(tmp_path / "gen.csv"), "--events", "300"]) == 0
    assert gc.isenabled() is enabled and seen == [False]

    def fail_partway(path, lines, **kwargs):
        next(iter(lines))
        raise OSError(errno.ENOSPC, "No space left on device", str(path))

    monkeypatch.setattr(reportio, "write_lines", fail_partway)
    assert main(["gen", "--out", str(tmp_path / "gen.csv"), "--events", "300"]) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert gc.isenabled() is enabled
