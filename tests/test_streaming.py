"""`profile` streams one instrument-day at a time and keeps counts, not samples.

The golden digests were taken from the whole-input profile path that the
streaming path replaced, on inputs that stream out of date order: an
instrument-day that comes back after a later date, and an instrument-day
split across two files.
"""
import hashlib
import tempfile
import tracemalloc
from datetime import date, timedelta

import numpy as np
import pytest

from lobcancel import cli
from lobcancel.cli import main
from lobcancel.orderflow import (
    DUPLICATE_ORDER_ID,
    HEADER,
    NON_MONOTONE_SEQ,
    NON_MONOTONE_TIME,
    DaysOutOfOrder,
    ParseError,
    iter_parse,
    parse_stream,
    split_days,
    stream_days,
)
from lobcancel.profiles import BinSpec, ProfileRun, accumulate_pdf, count_pdf, profile_events
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


GOLDEN = {
    "reappearing": (reappearing_day_input, {
        "profiles.json": "f1cd8ee212224c89a7b9b8ef3690d7f10c18e60188503573409a694611df6818",
        "cancels.csv": "fafc262084259df4dcc956e83bfcda03ee02a7d96740ecb2f123ba7d5982a0c5",
    }),
    "split": (split_day_input, {
        "profiles.json": "7d062751fd0dda9f5b5efc8bf326c6ff3b07066759e7629cd2e542c38b2ddf4b",
        "cancels.csv": "96a5d60ff0e117bbe309900a0708cff9267be831ed234b63d28874fc9958c4ba",
    }),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_out_of_order_inputs_keep_their_bytes(tmp_path, name):
    build, want = GOLDEN[name]
    paths = build(tmp_path)
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}"
        assert main(["profile", *paths, "--out", str(out), "--workers", workers]) == 0
        assert _digests(out) == want


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


def test_lines_split_as_splitlines_across_read_blocks(tmp_path, monkeypatch):
    text = "a,b\r\nc\rd\n\ne\x0bf\x0cg\x1ch\x85i j k\r\n\r\nlém"
    path = tmp_path / "lines.txt"
    path.write_bytes(text.encode("utf-8"))
    for block in (1, 2, 3, 5, 64):
        monkeypatch.setattr(cli, "READ_BLOCK", block)
        assert list(cli._read_lines(str(path))) == text.splitlines()


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


def test_stream_days_in_date_order_yields_each_day_once_complete():
    d1, d2 = date(2003, 3, 3), date(2003, 3, 4)
    a1, a2, b1 = (_day_rows(code, day, seed=5, n_events=40)
                  for code, day in (("A", d1), ("A", d2), ("B", d1)))
    events = _events([a1, b1, a2])
    seen = []

    def feed():
        for ev in events:
            seen.append(ev)
            yield ev

    days = []
    for day in stream_days(feed(), in_date_order=True):
        days.append((len(seen), list(day)))
    # A's first day comes out when its second day starts; the rest at the end
    assert [n for n, _ in days] == [81, 120, 120]
    grouped = [day for _, day in days]
    assert grouped == [split_days(events)[key] for key in (("A", d1), ("A", d2), ("B", d1))]
    # read whole, the days come out in (instrument, day) order
    assert [list(day) for day in stream_days(events)] == [
        split_days(events)[key] for key in sorted(split_days(events))
    ]


def test_an_earlier_date_raises_in_date_order_only():
    d1, d2 = date(2003, 3, 3), date(2003, 3, 4)
    rows = _day_rows("A", d1, seed=5, n_events=40)
    later = _day_rows("A", d2, seed=6, n_events=40)
    events = _events([rows[:20], later, rows[20:]])
    with pytest.raises(DaysOutOfOrder):
        for day in stream_days(events, in_date_order=True):
            list(day)
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


def _profile_peak(paths, out) -> int:
    tracemalloc.start()
    try:
        assert main(["profile", *paths, "--out", str(out)]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_profile_memory_is_one_day_not_the_input(tmp_path, capsys):
    days = [date(2003, 3, 3) + timedelta(days=i) for i in range(8)]
    one = _days_file(tmp_path / "one.csv", days[:1])
    eight = _days_file(tmp_path / "eight.csv", days)
    _profile_peak([one], tmp_path / "warm")  # one-time allocations out of the way
    one_peak = _profile_peak([one], tmp_path / "o1")
    eight_peak = _profile_peak([eight], tmp_path / "o8")
    assert eight_peak <= 1.3 * one_peak, (one_peak, eight_peak)
