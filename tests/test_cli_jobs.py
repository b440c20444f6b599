"""CLI start-up cost and the `profile` fan-out over groups of input files.

Only `fit` may load scipy, and `profile --workers 2` must write the bytes a
single in-process job writes, whatever the grouping of instruments over files.
"""
import gc
import json
import os
import subprocess
import sys

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


def test_cli_start_and_gen_leave_scipy_unloaded(tmp_path):
    src = os.path.dirname(os.path.dirname(lobcancel.__file__))
    code = (
        "import sys\n"
        "import lobcancel.cli\n"
        "assert 'scipy' not in sys.modules, 'import'\n"
        f"assert lobcancel.cli.main(['gen', '--out', {str(tmp_path / 'g.csv')!r}, "
        "'--events', '500']) == 0\n"
        "assert 'scipy' not in sys.modules, 'gen'\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


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
    assert cli._disjoint_groups(paths) == [[paths[i] for i in group] for group in groups]
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
    assert list(profiles) == ["000777"] and list(parts) == ["000777"]
