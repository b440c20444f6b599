"""`profile` streams one instrument-day at a time and keeps counts, not samples.

The golden digests were taken from the whole-input profile path that the
streaming path replaced, on inputs that stream out of date order: an
instrument-day that comes back after a later date, and an instrument-day
split across two files. The cancels.csv digests are those of the same files
with their three ratio columns cut (`cut -d, -f1-11,15-`), which the
integer-only layout writes. The profiles.json digests are taken through
`conftest.profiles_sha256`, which cuts the log-uniform bins' floats to 10
significant digits: their last bits depend on the CPU's numpy kernels. They
were taken from the `(k, n)`-tuple count tables that the by-n rows replaced,
and read the same with numpy's AVX-512 kernels on and off.
"""
import errno
import gc
import hashlib
import heapq
import io
import os
import pickle
import signal
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import profiles_sha256, table_total
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
    CANCELLABLE_CLASSES,
    AggressivenessClass,
    BinSpec,
    InstrumentProfile,
    PdfError,
    ProfileRun,
    accumulate_pdf,
    count_pdf,
    pdf_from_counts,
    profile_events,
    ratio_report,
    replay_day,
    replay_days,
)
from lobcancel.reportio import render_json
from lobcancel.synth import ExpProfileLaw, GenConfig, TruncLogNormalLaw, generate_stream


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
    return {"profiles.json": profiles_sha256(out / "profiles.json"),
            "cancels.csv": hashlib.sha256((out / "cancels.csv").read_bytes()).hexdigest()}


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
        "profiles.json": "61b8a8b61a0f2a7f638784f9f83fce8f3b8537ba17f7b887469e866c05fddcb8",
        "cancels.csv": "874872465b6e64b233fafaf6d7c0302786ad21ab6b4e770f8cc8c3a87490eb25",
    }),
    "split": (split_day_input, [[0, 1]], {
        "profiles.json": "382c6ecc8477a0f0acf4be63a99f0737712bad14576292f5b86a766d691ece70",
        "cancels.csv": "4825a56f510ea3fcbc9ab0d831f84b0f19e875ab78c5fb76dd0a6fc0ca6d7c9e",
    }),
    # taken from the profile path that grouped part files by instrument code
    "reappearing_and_other": (reappearing_day_and_other_input, [[0], [1]], {
        "profiles.json": "75f8902cf38cbd77e78a13bce05cf0e83ea6aff6dcb82bc50087250a834b8b59",
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


def _repeated_ratios(counts: dict[int, dict[int, int]]) -> np.ndarray:
    """Each ratio k/n of a count table, repeated by its count."""
    return np.repeat([k / n for n, row in counts.items() for k in row],
                     [count for row in counts.values() for count in row.values()])


@pytest.mark.parametrize("bins", [50, 25])
def test_count_binning_equals_histogram_of_the_ratios(bins):
    counts = {n: {k: 1 + (k * n) % 3 for k in range(1, n + 1)} for n in range(1, 401)}
    ratios = _repeated_ratios(counts)
    spec = BinSpec("uniform", bins)
    got = count_pdf(counts, spec)
    want = accumulate_pdf(ratios, spec)
    assert np.array_equal(np.histogram(ratios, bins=got.bin_edges)[0] / (
        ratios.size * got.widths()), got.density)
    assert np.array_equal(got.density, want.density)
    assert np.array_equal(got.bin_edges, want.bin_edges)
    assert got.count == want.count == ratios.size


@st.composite
def _by_n_tables(draw) -> dict[int, dict[int, int]]:
    """A count table {n: {k: count}} with 1 <= k <= n <= 400."""
    return {n: draw(st.dictionaries(st.integers(1, n), st.integers(1, 50),
                                    min_size=1, max_size=20))
            for n in draw(st.lists(st.integers(1, 400), max_size=12, unique=True))}


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_by_n_tables(), st.sampled_from(["uniform", "log_uniform"]), st.integers(1, 60))
def test_count_pdf_is_the_histogram_of_the_repeated_ratios(counts, kind, bins):
    spec = BinSpec(kind, bins)
    ratios = _repeated_ratios(counts)
    try:
        want = accumulate_pdf(ratios, spec)
    except PdfError as exc:  # no ratio, or one log-uniform ratio repeated
        with pytest.raises(type(exc)):
            count_pdf(counts, spec)
        return
    got = count_pdf(counts, spec)
    assert np.array_equal(got.bin_edges, want.bin_edges)
    assert np.array_equal(got.density, want.density)
    assert got.count == want.count == ratios.size


def test_queue_table_costs_under_60_bytes_a_pair():
    # test_records' deep golden config: 60 levels of about 40 orders, whose
    # queue tables hold 2,454 (buy) and 2,562 (sell) distinct (k, n) pairs.
    # A table keyed by (k, n) tuples read about 86 B a pair here, rows keyed
    # by n about 44 B. The copy is the one a pool worker's profile arrives as.
    config = GenConfig(seed=7, n_events=20_000, instrument="DEEP02", initial_levels=60,
                       initial_queue=40, level_law=TruncLogNormalLaw(-2.14, 1.11),
                       queue_law=ExpProfileLaw(-25.0), limit_share=0.6,
                       marketable_share=0.0, cancel_share=0.4)
    day = replay_day(generate_stream(config))
    for acc in (day.buy, day.sell):
        pairs = sum(map(len, acc.queue_frac_counts.values()))
        assert pairs > 2000
        shipped = pickle.dumps(acc.queue_frac_counts)
        gc.collect()
        tracemalloc.start()
        try:
            table = pickle.loads(shipped)
            size = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert table == acc.queue_frac_counts
        assert size < 60 * pairs, size / pairs


def test_profile_accumulates_counts_not_samples(fixture_events):
    profile = profile_events(fixture_events).per_instrument["000777"]
    for acc in (profile.buy, profile.sell):
        assert table_total(acc.rel_level_counts) == table_total(acc.queue_frac_counts) == 4
        assert len(acc.norm_levels) == 4
    assert not hasattr(ProfileRun([]), "observations")


# -- the ensemble summed from per-instrument counts ---------------------------------


def _reference_pdf(samples, spec: BinSpec, weights=None) -> dict | None:
    """A density as profiles.json held it when the ensemble was a pooled copy:
    one np.histogram of every sample; None where there is none."""
    xs = np.asarray(samples, dtype=float)
    if xs.size == 0:
        return None
    if spec.kind == "uniform":
        if (xs <= 0.0).any() or (xs > 1.0).any():
            return None
        edges, domain = np.linspace(0.0, 1.0, spec.bins + 1), "unit_interval"
    else:
        if (xs <= 0.0).any():
            return None
        lo, hi = float(xs.min()), float(xs.max())
        if not hi > lo:
            return None
        edges, domain = np.geomspace(lo, hi, spec.bins + 1), "positive_ray"
        edges[0], edges[-1] = lo, hi
    counts, _ = np.histogram(xs, bins=edges, weights=weights)
    return pdf_from_counts(counts, edges, domain).to_dict()


def _reference_block(profile: InstrumentProfile, unit_bins: int, log_bins: int) -> dict:
    """An instrument's profiles.json block, each ratio k / n a Python float."""
    unit, log = BinSpec("uniform", unit_bins), BinSpec("log_uniform", log_bins)

    def table_pdf(table):
        ratios = [k / n for n, row in table.items() for k in row]
        weights = np.array([c for row in table.values() for c in row.values()], np.int64)
        return _reference_pdf(ratios, unit, weights)

    return {
        "instrument": profile.instrument,
        "days": profile.days,
        "diagnostics": dict(profile.diagnostics),
        "sides": {side: {**ratio_report(acc),
                         "pdf_rel_level": table_pdf(acc.rel_level_counts),
                         "pdf_norm_level": _reference_pdf(acc.norm_levels, log),
                         "pdf_queue_frac": table_pdf(acc.queue_frac_counts)}
                  for side, acc in (("buy", profile.buy), ("sell", profile.sell))},
    }


def _assert_ensemble_renders_as_the_pooled_copy(run: ProfileRun, unit_bins=50, log_bins=60):
    payload = reportio.profiles_payload(run, unit_bins, log_bins)
    pooled = _reference_block(run.ensemble(), unit_bins, log_bins)
    for side in ("buy", "sell"):
        assert render_json(payload["ensemble"]["sides"][side]) == render_json(
            pooled["sides"][side])
    assert render_json(payload["ensemble"]) == render_json(pooled)
    assert render_json(payload["instruments"]) == render_json(
        [_reference_block(run.per_instrument[code], unit_bins, log_bins)
         for code in sorted(run.per_instrument)])
    return payload


def _add_cancel(acc, level_rank, side_levels, queue_rank, level_orders, side_orders):
    """Count one in-profile cancel into ``acc`` as the replay does."""
    for table, n, k in ((acc.rel_level_counts, side_levels, level_rank),
                        (acc.queue_frac_counts, level_orders, queue_rank)):
        row = table.setdefault(n, {})
        row[k] = row.get(k, 0) + 1
    acc.norm_levels.append((level_rank * side_orders) / (side_levels * level_orders))


@st.composite
def _cancels(draw, depth: int):
    """A cancel's book counts: the side's orders run to ``depth`` per level, so
    instruments of another depth span another range of normalized levels."""
    side_levels = draw(st.integers(1, 8))
    level_orders = draw(st.integers(1, 6))
    return (draw(st.integers(1, side_levels)), side_levels, draw(st.integers(1, level_orders)),
            level_orders, draw(st.integers(level_orders, level_orders + depth * side_levels)))


@st.composite
def _runs(draw) -> ProfileRun:
    """One to four instruments; a side may have no cancel, or one cancel repeated."""
    run = ProfileRun()
    codes = draw(st.lists(st.sampled_from(["AAA", "BBB", "CCC", "DDD"]), min_size=1,
                          max_size=4, unique=True))
    for code in codes:
        profile = run.per_instrument[code] = InstrumentProfile(code, days=draw(st.integers(1, 3)))
        profile.diagnostics.update(draw(st.dictionaries(
            st.sampled_from(["held_events", "dangling_cancels"]), st.integers(0, 4))))
        depth = draw(st.sampled_from([0, 2, 30]))
        for acc in (profile.buy, profile.sell):
            cancels = draw(st.one_of(
                st.lists(_cancels(depth), max_size=25),
                st.builds(lambda c, n: [c] * n, _cancels(depth), st.integers(1, 5))))
            for cancel in cancels:
                _add_cancel(acc, *cancel)
            for klass in AggressivenessClass:
                orders = draw(st.integers(0, 6))
                acc.orders_by_class[klass] = orders
                if klass in CANCELLABLE_CLASSES:
                    acc.cancelled_by_class[klass] = draw(st.integers(0, orders))
            acc.cancel_events = draw(st.integers(0, 40))
    return run


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_runs(), st.sampled_from([(50, 60), (7, 3)]))
def test_summed_ensemble_renders_as_the_pooled_copy(run, bins):
    _assert_ensemble_renders_as_the_pooled_copy(run, *bins)


def test_summed_ensemble_edges_match_no_instrument_and_nulls_stay_null():
    run = ProfileRun()
    # Three instruments whose normalized levels span (0.25, 2], [1, 12] and
    # [0.5, 40]: the ensemble's bins run from 0.25 to 40, which no one spans.
    for code, cancels in (("LOW", [(1, 4, 1, 1, 1), (2, 2, 1, 1, 2)]),
                          ("MID", [(1, 1, 1, 2, 2), (3, 4, 1, 2, 32)]),
                          ("TOP", [(1, 4, 1, 2, 4), (4, 4, 2, 3, 120)])):
        profile = run.per_instrument[code] = InstrumentProfile(code, days=1)
        for cancel in cancels:
            _add_cancel(profile.buy, *cancel)
    # The sell side: empty on LOW, one cancel on MID and on TOP, with the same
    # normalized level (1.0), so every sell log-uniform density is null.
    _add_cancel(run.per_instrument["MID"].sell, 1, 2, 1, 1, 2)
    _add_cancel(run.per_instrument["TOP"].sell, 2, 3, 1, 2, 3)
    payload = _assert_ensemble_renders_as_the_pooled_copy(run)
    spans = {(min(p.buy.norm_levels), max(p.buy.norm_levels))
             for p in run.per_instrument.values()}
    assert spans == {(0.25, 2.0), (1.0, 12.0), (0.5, 40.0)}
    edges = payload["ensemble"]["sides"]["buy"]["pdf_norm_level"]["edges"]
    assert (edges[0], edges[-1]) == (0.25, 40.0)
    sell = [block["sides"]["sell"] for block in (*payload["instruments"], payload["ensemble"])]
    assert [s["pdf_norm_level"] for s in sell] == [None] * 4
    assert sell[0]["pdf_rel_level"] is sell[0]["pdf_queue_frac"] is None  # LOW's empty side
    assert sell[-1]["pdf_rel_level"]["count"] == 2
    # a run whose sides are all empty has no ensemble densities either
    empty = ProfileRun({"NIL": InstrumentProfile("NIL", days=1)})
    ensemble = _assert_ensemble_renders_as_the_pooled_copy(empty)["ensemble"]
    assert all(pdf is None for side in ensemble["sides"].values()
               for key, pdf in side.items() if key.startswith("pdf_"))


def test_profiles_payload_makes_no_pooled_copy():
    # Four instruments of 20,000 events. The pooled copy of their tables and
    # samples that the ensemble was built from read 1.2 times the run's own
    # size here; summed from per-instrument counts, the payload peaks at
    # about a quarter of it, most of that the payload itself.
    runs = [profile_events(generate_stream(GenConfig(
        seed=60 + i, n_events=20_000, instrument=f"TM{i}", initial_levels=20 + 10 * i,
        initial_queue=6))) for i in range(4)]
    shipped = pickle.dumps(ProfileRun({code: profile for one in runs
                                       for code, profile in one.per_instrument.items()}))
    del runs
    gc.collect()
    tracemalloc.start()
    try:
        run = pickle.loads(shipped)
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    want = render_json(reportio.profiles_payload(run, 50, 60))  # numpy's lazy imports, outside
    gc.collect()
    tracemalloc.start()
    try:
        payload = reportio.profiles_payload(run, 50, 60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert render_json(payload) == want
    assert sum(len(p.buy.norm_levels) + len(p.sell.norm_levels)
               for p in run.per_instrument.values()) > 20_000
    assert peak < size / 2, (peak, size)


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
