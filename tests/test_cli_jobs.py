"""CLI start-up cost and the `profile` fan-out over groups of input files.

No subcommand loads scipy, `fit` included; `gen`, `validate` and `report`
load no numpy either, and only a `profile` fan-out loads the process pool.
`profile --workers 2` must write the bytes a single in-process job writes,
whatever the grouping of instruments over files.
"""
import gc
import json
import os
import subprocess
import sys
from datetime import date

import pytest

import lobcancel
from lobcancel import cli, distfit
from lobcancel.cli import main

HEADER = "seq,timestamp,instrument,order_id,kind,side,price_ticks,size"


def _rows(path) -> list[str]:
    return path.read_text().splitlines()[1:]


def _write(path, rows) -> str:
    """Write rows under the header with seq renumbered 1.., so any mix parses."""
    body = [f"{i},{row.split(',', 1)[1]}" for i, row in enumerate(rows, start=1)]
    path.write_text("\n".join([HEADER, *body]) + "\n")
    return str(path)


@pytest.fixture(scope="module")
def streams(tmp_path_factory):
    """Four small generated instruments, one file each."""
    root = tmp_path_factory.mktemp("fanout")
    paths = {}
    for i, code in enumerate(("SYNA", "SYNB", "SYNC", "SYND")):
        path = root / f"{code}.csv"
        assert main(["gen", "--out", str(path), "--events", "3000", "--seed", str(60 + i),
                     "--instrument", code, "--levels", "10", "--queue-depth", "3"]) == 0
        paths[code] = path
    return paths


def _profile_bytes(inputs, out, workers, *extra) -> dict[str, bytes]:
    assert main(["profile", *inputs, "--out", str(out), "--workers", str(workers), *extra]) == 0
    return {name: (out / name).read_bytes() for name in ("profiles.json", "cancels.csv")}


# -- start-up --------------------------------------------------------------------


def _run_fresh(code: str) -> None:
    """Run ``code`` in a new interpreter that imports this checkout's lobcancel."""
    src = os.path.dirname(os.path.dirname(lobcancel.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_cli_start_and_gen_leave_scipy_unloaded(tmp_path):
    _run_fresh(
        "import sys\n"
        "import lobcancel.cli\n"
        "assert 'scipy' not in sys.modules, 'import'\n"
        f"assert lobcancel.cli.main(['gen', '--out', {str(tmp_path / 'g.csv')!r}, "
        "'--events', '500']) == 0\n"
        "assert 'scipy' not in sys.modules, 'gen'\n"
    )


def test_fit_runs_all_four_models_without_scipy(streams, tmp_path):
    out = tmp_path / "artifacts"
    assert main(["profile", *map(str, streams.values()), "--out", str(out)]) == 0
    fit = ("main(['fit', '--profiles', {profiles!r}, '--out', {fits!r}, "
           "'--models', 'lognormal,powerlaw,exp,gamma', '--repeats', '5']) == 0")
    # Unblocked, no scipy module may load; blocked, any import of scipy raises,
    # and the run must still succeed and write the same bytes.
    for blocked in (False, True):
        fits = str(tmp_path / f"fits-{blocked}.json")
        _run_fresh(
            "import json, sys\n"
            + ("sys.modules['scipy'] = None  # any import of scipy now fails\n" if blocked else "")
            + "from lobcancel.cli import main\n"
            f"assert {fit.format(profiles=str(out / 'profiles.json'), fits=fits)}\n"
            "assert not [m for m in sys.modules if m.startswith('scipy.')], 'fit'\n"
            "assert sys.modules.get('scipy') is None, 'fit'\n"
            f"entries = json.load(open({fits!r}))['fits']\n"
            "assert {e['model'] for e in entries if 'params' in e} == "
            "{'lognormal', 'powerlaw', 'exp', 'gamma'}\n"
        )
    fits = [(tmp_path / f"fits-{blocked}.json").read_bytes() for blocked in (False, True)]
    assert fits[0] == fits[1]


def test_every_command_and_the_lognormal_sampler_run_with_scipy_blocked(tmp_path):
    flow, out = str(tmp_path / "flow.csv"), tmp_path / "artifacts"
    profiles, fits = str(out / "profiles.json"), str(out / "fits.json")
    _run_fresh(
        "import sys\n"
        "sys.modules['scipy'] = None  # any import of scipy now fails\n"
        "import numpy as np\n"
        "from lobcancel import sample_trunc_lognormal\n"
        "from lobcancel.cli import main\n"
        f"assert main(['gen', '--out', {flow!r}, '--events', '2000', '--levels', '10', "
        "'--queue-depth', '3', '--level-law', 'lognormal:-2.14,1.11']) == 0\n"
        f"assert main(['validate', {flow!r}]) == 0\n"
        f"assert main(['profile', {flow!r}, '--out', {str(out)!r}]) == 0\n"
        f"assert main(['fit', '--profiles', {profiles!r}, '--out', {fits!r}, "
        "'--models', 'lognormal,powerlaw,exp,gamma', '--repeats', '5']) == 0\n"
        f"assert main(['report', '--profiles', {profiles!r}, '--fits', {fits!r}]) == 0\n"
        f"assert main(['simqueues', '--out', {str(tmp_path / 'queues.json')!r}, "
        "'--queues', '1000']) == 0\n"
        "assert 'statistics' not in sys.modules  # only the sampler imports it\n"
        "xs = sample_trunc_lognormal(1000, -2.14, 1.11, np.random.default_rng(1))\n"
        "assert xs.shape == (1000,) and ((xs > 0) & (xs <= 1)).all()\n"
    )


UNLOADED = (
    "def unloaded(*names):\n"
    "    return not any(name in sys.modules for name in names)\n"
)


def test_cli_start_gen_validate_report_leave_numpy_unloaded(fixture_csv, tmp_path):
    profiles = tmp_path / "artifacts" / "profiles.json"
    assert main(["profile", str(fixture_csv), "--out", str(profiles.parent)]) == 0
    fits = tmp_path / "fits.json"
    fits.write_text(json.dumps({"kind": "fits", "fits": [
        {"instrument": "000777", "side": "buy", "model": "exp",
         "params": {"beta": -25.0, "norm": 0.96, "rms": 0.01, "at_bound": False}},
    ]}))
    gen_out = str(tmp_path / "g.csv")
    _run_fresh(
        "import sys\n" + UNLOADED +
        "from lobcancel.cli import main\n"
        "assert unloaded('numpy', 'scipy'), 'import'\n"
        f"assert main(['gen', '--out', {gen_out!r}, '--events', '500']) == 0\n"
        "assert unloaded('numpy', 'scipy'), 'gen'\n"
        f"assert main(['validate', {gen_out!r}, {str(fixture_csv)!r}]) == 0\n"
        "assert unloaded('numpy', 'scipy'), 'validate'\n"
        f"assert main(['report', '--profiles', {str(profiles)!r}, '--fits', {str(fits)!r}]) == 0\n"
        "assert unloaded('numpy', 'scipy'), 'report'\n"
    )


def test_cli_start_and_one_input_profile_leave_the_pool_unloaded(fixture_csv, tmp_path):
    out = str(tmp_path / "artifacts")
    _run_fresh(
        "import sys\n" + UNLOADED +
        "from lobcancel.cli import main\n"
        "assert unloaded('concurrent.futures.process'), 'import'\n"
        f"assert main(['profile', {str(fixture_csv)!r}, '--out', {out!r}, '--workers', '2']) == 0\n"
        "assert unloaded('concurrent.futures.process'), 'profile'\n"
    )


def test_package_import_leaves_numpy_unloaded_until_a_density_is_built():
    _run_fresh(
        "import sys\n" + UNLOADED +
        "import lobcancel\n"
        "assert unloaded('numpy', 'scipy'), 'import'\n"
        "pdf = lobcancel.accumulate_pdf([0.25, 0.5, 0.5, 1.0], lobcancel.BinSpec('uniform', 4))\n"
        "assert isinstance(pdf, lobcancel.EmpiricalPdf)\n"
        "assert list(pdf.density) == [0.0, 1.0, 2.0, 1.0] and pdf.integral() == 1.0\n"
        "assert 'numpy' in sys.modules\n"
    )


PREVIOUS_DISTFIT_EXPORTS = (
    "ExpProfileFit", "GammaFit", "LogNormalFit", "PowerLawFit", "exp_profile_norm",
    "exp_profile_pdf", "fit_exp_profile", "fit_gamma_lsq", "fit_lognormal_lsq",
    "fit_powerlaw_tail", "gof_pvalue_mc", "lognormal_unit_mass", "sample_exp_profile",
    "sample_pareto", "sample_trunc_lognormal", "trunc_lognormal_pdf",
)


@pytest.mark.parametrize("name", PREVIOUS_DISTFIT_EXPORTS)
def test_package_still_exports_the_fitters(name):
    assert getattr(lobcancel, name) is getattr(distfit, name)


def test_package_import_by_name_and_unknown_attribute():
    from lobcancel import fit_lognormal_lsq

    assert fit_lognormal_lsq is distfit.fit_lognormal_lsq
    with pytest.raises(AttributeError, match="no_such_name"):
        lobcancel.no_such_name


# -- profile fan-out --------------------------------------------------------------


def _unsorted(streams, tmp_path):
    return [str(streams[code]) for code in ("SYNC", "SYNA", "SYNB")]


def _split_instrument(streams, tmp_path):
    rows = _rows(streams["SYNA"])
    half = len(rows) // 2
    return [_write(tmp_path / "a1.csv", rows[:half]), str(streams["SYNB"]),
            _write(tmp_path / "a2.csv", rows[half:])]


def _two_instruments_in_one_file(streams, tmp_path):
    # AB and BD share SYNB, so they are one job; SYNC is another.
    ab = _write(tmp_path / "ab.csv", _rows(streams["SYNA"]) + _rows(streams["SYNB"])[:1500])
    bd = _write(tmp_path / "bd.csv", _rows(streams["SYNB"])[1500:] + _rows(streams["SYND"]))
    return [ab, str(streams["SYNC"]), bd]


@pytest.mark.parametrize(
    "inputs, groups",
    [(_unsorted, [[0], [1], [2]]), (_split_instrument, [[0, 2], [1]]),
     (_two_instruments_in_one_file, [[0, 2], [1]])],
    ids=["unsorted_instrument_order", "instrument_split_across_files", "file_with_two_instruments"],
)
def test_profile_workers_2_bytes_equal_workers_1(streams, tmp_path, inputs, groups):
    paths = inputs(streams, tmp_path)
    assert cli._disjoint_groups(paths) == groups
    serial = _profile_bytes(paths, tmp_path / "w1", 1)
    assert _profile_bytes(paths, tmp_path / "w2", 2) == serial
    codes = [b["instrument"] for b in json.loads(serial["profiles.json"])["instruments"]]
    assert codes == sorted(codes) and len(codes) >= 2


@pytest.mark.parametrize("bad", [(1,), (0, 1, 2)], ids=["second_file", "every_file"])
def test_profile_parse_errors_same_with_workers(streams, tmp_path, bad, capsys):
    # files 0 and 2 share SYNA, so they form one job and file 1 another;
    # errors must still come out in argument order
    rows_a = _rows(streams["SYNA"])
    paths = [_write(tmp_path / "a1.csv", rows_a[:1500]),
             _write(tmp_path / "b.csv", _rows(streams["SYNB"])),
             _write(tmp_path / "a2.csv", rows_a[1500:])]
    for i in bad:
        with open(paths[i], "a", encoding="utf-8") as fh:
            fh.write("nope\n")
    stderr = []
    for workers in (1, 2):
        assert main(["profile", *paths, "--out", str(tmp_path / f"w{workers}"),
                     "--workers", str(workers)]) == 1
        stderr.append(capsys.readouterr().err)
        assert not (tmp_path / f"w{workers}").exists()
    assert stderr[0] == stderr[1]
    lines = stderr[0].splitlines()
    assert [paths.index(line.removeprefix("error: ").split(":")[0]) for line in lines] == list(bad)
    assert all("malformed_row" in line for line in lines)


def _day_split_with_a_fault(streams, tmp_path, fault, between):
    """SYNA's day split across files 0 and 2, file 2 opening with a row that
    breaks the day only when read after file 0. File 1 holds SYNB's day, or
    SYNA's next day, so that file 2 takes SYNA back to an earlier date."""
    rows = _rows(streams["SYNA"])
    first, second = rows[:1500], rows[1500:]
    if fault == "reused_id":  # file 0's first submission again, at file 2's first time
        cells = next(r for r in first if r.split(",")[4] != "C").split(",")
        cells[1] = second[0].split(",")[1]
    else:  # file 2's first row moved back to file 0's first time
        cells = second.pop(0).split(",")
        cells[1] = first[0].split(",")[1]
    middle = str(streams["SYNB"])
    if between == "next_day":
        middle = _write(tmp_path / "next.csv", [
            row.replace("2003-06-02", "2003-06-03").replace("SYNB", "SYNA")
            for row in _rows(streams["SYNB"])])
    return [_write(tmp_path / "a1.csv", first), middle,
            _write(tmp_path / "a2.csv", [",".join(cells), *second])]


@pytest.mark.parametrize("between", ["other_instrument", "next_day"])
@pytest.mark.parametrize("fault, code", [("reused_id", "duplicate_order_id"),
                                         ("backwards_time", "non_monotone_time")])
def test_checks_of_a_day_span_its_files(streams, tmp_path, capsys, fault, code, between):
    paths = _day_split_with_a_fault(streams, tmp_path, fault, between)
    assert main(["validate", paths[2]]) == 0  # alone, the file is clean
    capsys.readouterr()
    assert main(["validate", *paths]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].endswith(" 0 errors") and out[1].endswith(" 0 errors")
    assert out[2] == f"{paths[2]}: {len(_rows(tmp_path / 'a2.csv')) - 1} events, 1 errors"
    assert out[3].startswith(f"  {paths[2]}:line 2: {code}: ") and len(out) == 4
    for workers in (1, 2):
        out_dir = tmp_path / f"w{workers}"
        assert main(["profile", *paths, "--out", str(out_dir), "--workers", str(workers)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {paths[2]}:line 2: {code}: ")
        assert not out_dir.exists()


@pytest.mark.parametrize("workers", [1, 2])
def test_profile_reports_a_repeated_file_as_validate_does(streams, tmp_path, capsys, workers):
    paths = [str(streams["SYNA"]), str(streams["SYNB"]), str(streams["SYNA"])]
    assert main(["validate", *paths]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].endswith(" 0 errors") and out[1].endswith(" 0 errors")
    expected = [line[2:] for line in out if line.startswith("  ")]
    assert len(expected) > 1  # every id reused, every time stepped back
    out_dir = tmp_path / "out"
    assert main(["profile", *paths, "--out", str(out_dir), "--workers", str(workers)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("error: ")
    assert [err[0][len("error: "):], *err[1:]] == expected
    assert not out_dir.exists()


def test_profile_instrument_filter_with_workers(streams, tmp_path):
    paths = [str(streams[code]) for code in ("SYNA", "SYNB", "SYNC")]
    serial = _profile_bytes(paths, tmp_path / "w1", 1, "--instrument", "SYNB")
    assert _profile_bytes(paths, tmp_path / "w2", 2, "--instrument", "SYNB") == serial
    payload = json.loads(serial["profiles.json"])
    assert [b["instrument"] for b in payload["instruments"]] == ["SYNB"]


@pytest.mark.parametrize("enabled", [True, False])
def test_profile_job_parses_with_the_collector_paused(fixture_csv, tmp_path, monkeypatch,
                                                      enabled):
    seen = []
    parse = cli.iter_parse

    def spy(lines, **kwargs):
        seen.append(gc.isenabled())
        return parse(lines, **kwargs)

    monkeypatch.setattr(cli, "iter_parse", spy)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        profiles, parts, n_events, errors = cli._profile_job(
            [str(fixture_csv)], None, str(tmp_path / "parts")
        )
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert seen == [False] and n_events == 28 and errors == [[]]
    assert list(profiles) == ["000777"] and list(parts) == [("000777", date(2003, 6, 2))]
