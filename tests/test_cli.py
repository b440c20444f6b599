import json
import random

import pytest

from lobcancel.cli import main


def run(argv):
    return main(argv)


# -- validate --------------------------------------------------------------------


def test_validate_clean_file(fixture_csv, capsys):
    assert run(["validate", str(fixture_csv)]) == 0
    out = capsys.readouterr().out
    assert "28 events, 0 errors" in out


def test_validate_reports_bad_row(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    good = "1,2003-01-02T09:31:05.120,000001,42,L,B,1025,500"
    path.write_text(
        "seq,timestamp,instrument,order_id,kind,side,price_ticks,size\n"
        f"{good}\n2,2003-01-02T09:31:06.000,000001,43,L,X,1025,500\n"
    )
    assert run(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert "1 errors" in out
    assert "line 3" in out and "bad_enum" in out


def test_validate_mixed_offset_row_is_reported_not_raised(tmp_path, capsys):
    path = tmp_path / "mixed.csv"
    path.write_text(
        "seq,timestamp,instrument,order_id,kind,side,price_ticks,size\n"
        "1,2003-01-02T09:31:05.000,000001,42,L,B,1025,500\n"
        "2,2003-01-02T09:31:06.000+08:00,000001,43,L,B,1024,500\n"
    )
    assert run(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert "1 events, 1 errors" in out
    assert "line 3: mixed_utc_offset" in out
    assert run(["profile", str(path), "--out", str(tmp_path / "o")]) == 1
    assert "line 3: mixed_utc_offset" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_validate_missing_file(tmp_path, capsys):
    assert run(["validate", str(tmp_path / "nope.csv")]) == 1
    assert "error:" in capsys.readouterr().err


def test_invalid_utf8_byte_exits_1_naming_the_file(fixture_csv, tmp_path, capsys):
    path = tmp_path / "latin1.csv"
    path.write_bytes(fixture_csv.read_bytes().replace(b"000777", b"00077\xff", 1))
    for argv in (["validate", str(path)], ["profile", str(path), "--out", str(tmp_path / "o")]):
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert str(path) in err and "not valid UTF-8" in err
    assert not (tmp_path / "o").exists()


def test_validate_fuzzed_inputs_never_crash(tmp_path):
    rng = random.Random(1312)
    for i in range(30):
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 400)))
        path = tmp_path / f"fuzz{i}.bin"
        path.write_bytes(blob)
        assert run(["validate", str(path)]) in (0, 1)


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["fit"])  # missing required flags
    assert exc.value.code == 2


def test_internal_invariant_violation_exits_3(monkeypatch, capsys):
    from lobcancel import cli
    from lobcancel.lob import CrossedBookInvariantViolation

    def boom(args):
        raise CrossedBookInvariantViolation("synthetic failure")

    monkeypatch.setitem(cli._COMMANDS, "validate", boom)
    assert run(["validate", "whatever"]) == 3
    assert "internal error" in capsys.readouterr().err


# -- gen ------------------------------------------------------------------------


def test_gen_deterministic_output(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["--events", "3000", "--seed", "5", "--levels", "10", "--queue-depth", "3"]
    assert run(["gen", "--out", str(a)] + args) == 0
    assert run(["gen", "--out", str(b)] + args) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_law_flags(tmp_path):
    out = tmp_path / "s.csv"
    code = run(
        ["gen", "--out", str(out), "--events", "2000", "--levels", "10", "--queue-depth", "3",
         "--level-law", "lognormal:-2.14,1.11", "--queue-law", "exp:-25"]
    )
    assert code == 0
    assert out.exists()


def test_gen_bad_mix_exits_2(tmp_path):
    assert run(["gen", "--out", str(tmp_path / "x.csv"), "--mix", "0.5,0.5"]) == 2
    assert run(["gen", "--out", str(tmp_path / "x.csv"), "--mix", "0.9,0.9,0.9"]) == 2
    assert run(["gen", "--out", str(tmp_path / "x.csv"), "--queue-law", "zipf:2"]) == 2


def test_config_file_fills_flags_and_cli_wins(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"events": 2500, "seed": 11, "levels": 10, "queue-depth": 3}))
    a = tmp_path / "a.csv"
    assert run(["gen", "--out", str(a), "--config", str(cfg)]) == 0
    assert len(a.read_text().splitlines()) == 2501  # header + events from config
    b = tmp_path / "b.csv"
    assert run(["gen", "--out", str(b), "--config", str(cfg), "--events", "800"]) == 0
    assert len(b.read_text().splitlines()) == 801  # explicit flag beats config


def test_config_file_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"bogus_option": 1}))
    assert run(["gen", "--out", str(tmp_path / "x.csv"), "--config", str(cfg)]) == 2
    cfg.write_text("[1,2]")
    assert run(["gen", "--out", str(tmp_path / "x.csv"), "--config", str(cfg)]) == 2


# -- profile ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def profile_dir(tmp_path_factory):
    """Two generated instruments profiled into one artifact directory."""
    root = tmp_path_factory.mktemp("pipeline")
    streams = []
    for i, code in enumerate(("SYNA", "SYNB")):
        path = root / f"{code}.csv"
        assert run(
            ["gen", "--out", str(path), "--events", "15000", "--seed", str(40 + i),
             "--instrument", code, "--levels", "15", "--queue-depth", "4"]
        ) == 0
        streams.append(path)
    out = root / "artifacts"
    assert run(["profile", *map(str, streams), "--out", str(out)]) == 0
    return root, streams, out


def test_profile_outputs_exist_and_parse(profile_dir):
    _, _, out = profile_dir
    payload = json.loads((out / "profiles.json").read_text())
    assert payload["schema_version"] == 1
    assert payload["kind"] == "profiles"
    codes = [block["instrument"] for block in payload["instruments"]]
    assert codes == ["SYNA", "SYNB"]
    ensemble = payload["ensemble"]
    for side in ("buy", "sell"):
        data = ensemble["sides"][side]
        assert data["orders"] > 0
        assert data["pdf_rel_level"]["count"] > 0
        assert len(data["pdf_rel_level"]["edges"]) == 51
        assert len(data["pdf_norm_level"]["edges"]) == 61
    header = (out / "cancels.csv").read_text().splitlines()[0]
    assert header.startswith("instrument,seq,timestamp,phase,side,cancel_index")


def test_profile_deterministic_bytes(profile_dir, tmp_path):
    _, streams, out = profile_dir
    again = tmp_path / "again"
    assert run(["profile", *map(str, streams), "--out", str(again)]) == 0
    assert (again / "profiles.json").read_bytes() == (out / "profiles.json").read_bytes()
    assert (again / "cancels.csv").read_bytes() == (out / "cancels.csv").read_bytes()


def test_profile_workers_match_serial(profile_dir, tmp_path):
    _, streams, out = profile_dir
    par = tmp_path / "par"
    assert run(["profile", *map(str, streams), "--out", str(par), "--workers", "2"]) == 0
    assert (par / "profiles.json").read_bytes() == (out / "profiles.json").read_bytes()
    assert (par / "cancels.csv").read_bytes() == (out / "cancels.csv").read_bytes()


def test_profile_instrument_filter_empty_exits_2(profile_dir, tmp_path, capsys):
    _, streams, _ = profile_dir
    code = run(
        ["profile", *map(str, streams), "--out", str(tmp_path / "o"), "--instrument", "NOPE"]
    )
    assert code == 2
    assert "empty input" in capsys.readouterr().err


def test_profile_parse_errors_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("seq,timestamp,instrument,order_id,kind,side,price_ticks,size\nnope\n")
    assert run(["profile", str(bad), "--out", str(tmp_path / "o")]) == 1
    assert "malformed_row" in capsys.readouterr().err


# -- fit ----------------------------------------------------------------------------


def test_fit_all_models(profile_dir, tmp_path):
    _, _, out = profile_dir
    fits_path = tmp_path / "fits.json"
    code = run(
        ["fit", "--profiles", str(out / "profiles.json"), "--out", str(fits_path),
         "--models", "lognormal,powerlaw,exp,gamma", "--repeats", "20", "--seed", "1"]
    )
    assert code == 0
    payload = json.loads(fits_path.read_text())
    assert payload["kind"] == "fits"
    models = {(e["instrument"], e["side"], e["model"]) for e in payload["fits"]}
    assert ("__ensemble__", "buy", "lognormal") in models
    assert ("SYNA", "sell", "powerlaw") in models
    ok = [e for e in payload["fits"] if "params" in e]
    assert len(ok) > len(payload["fits"]) // 2
    params_keys = {
        "lognormal": {"mu", "sigma", "unit_mass", "rms", "at_bound", "p_value", "repeats"},
        "gamma": {"shape", "scale", "unit_mass", "rms", "at_bound"},
        "exp": {"beta", "norm", "rms", "at_bound"},
        "powerlaw": {"alpha", "xmin", "tail_size", "stderr", "ks"},
    }
    for model, keys in params_keys.items():
        fitted = [e for e in payload["fits"] if e["model"] == model and "params" in e]
        assert fitted and all(set(e["params"]) == keys for e in fitted), model
    # an entry whose density is missing carries the error and no params
    edited = _profiles_with(
        out, tmp_path, lambda p: p["instruments"][0]["sides"]["buy"].update(pdf_queue_frac=None)
    )
    assert run(["fit", "--profiles", str(edited), "--out", str(fits_path), "--models", "exp"]) == 0
    entries = json.loads(fits_path.read_text())["fits"]
    failed = [e for e in entries if "error" in e]
    assert [(e["instrument"], e["side"]) for e in failed] == [("SYNA", "buy")]
    assert failed[0]["error"] == "no queue-position density" and "params" not in failed[0]
    assert all(set(e) == {"instrument", "side", "model", "params"} for e in entries if e not in failed)


def test_fit_model_toggle(profile_dir, tmp_path):
    _, _, out = profile_dir
    fits_path = tmp_path / "fits_exp.json"
    assert run(
        ["fit", "--profiles", str(out / "profiles.json"), "--out", str(fits_path),
         "--models", "exp"]
    ) == 0
    payload = json.loads(fits_path.read_text())
    assert {e["model"] for e in payload["fits"]} == {"exp"}


def test_fit_deterministic(profile_dir, tmp_path):
    _, _, out = profile_dir
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["--profiles", str(out / "profiles.json"), "--models", "lognormal,exp",
            "--repeats", "10", "--seed", "7"]
    assert run(["fit", "--out", str(a)] + args) == 0
    assert run(["fit", "--out", str(b)] + args) == 0
    assert a.read_bytes() == b.read_bytes()


def test_fit_unknown_model_exits_2(profile_dir, tmp_path):
    _, _, out = profile_dir
    assert run(
        ["fit", "--profiles", str(out / "profiles.json"), "--out", str(tmp_path / "f.json"),
         "--models", "weibull"]
    ) == 2


def test_fit_corrupt_profiles_schema_error(tmp_path, capsys):
    bad = tmp_path / "profiles.json"
    bad.write_text('{"kind": "profiles", "instruments": [{"instrument": "X"}], "ensemble": {}}')
    assert run(["fit", "--profiles", str(bad), "--out", str(tmp_path / "f.json")]) == 1
    err = capsys.readouterr().err
    assert "schema error at $" in err


def _profiles_with(out, tmp_path, edit):
    """Copy of the fixture's profiles.json after ``edit`` mutates its payload."""
    payload = json.loads((out / "profiles.json").read_text())
    edit(payload)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(payload))
    return path


def _drop_last_bin(payload):
    payload["instruments"][0]["sides"]["buy"]["pdf_queue_frac"]["density"].pop()


def _rename_domain(payload):
    payload["ensemble"]["sides"]["sell"]["pdf_rel_level"]["domain"] = "unit-interval"


@pytest.mark.parametrize(
    "edit, model, expected",
    [
        (_drop_last_bin, "exp", "$.sides.buy of SYNA: 49 density values for 51 edges"),
        (_rename_domain, "gamma", "$.sides.sell of __ensemble__: unknown domain 'unit-interval'"),
    ],
    ids=["density_length", "unknown_domain"],
)
def test_fit_malformed_density_is_schema_error(profile_dir, tmp_path, capsys, edit, model, expected):
    _, _, out = profile_dir
    path = _profiles_with(out, tmp_path, edit)
    fits_path = tmp_path / "f.json"
    assert run(["fit", "--profiles", str(path), "--out", str(fits_path), "--models", model]) == 1
    assert f"schema error at {expected}" in capsys.readouterr().err
    assert not fits_path.exists()


def test_fit_invalid_json_exits_1(tmp_path, capsys):
    bad = tmp_path / "profiles.json"
    bad.write_text("{not json")
    assert run(["fit", "--profiles", str(bad), "--out", str(tmp_path / "f.json")]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_json_artifact_that_is_not_an_object_exits_1(tmp_path, capsys):
    bad = tmp_path / "profiles.json"
    bad.write_text("[1, 2]")
    for argv in (["fit", "--profiles", str(bad), "--out", str(tmp_path / "f.json")],
                 ["report", "--profiles", str(bad)]):
        assert run(argv) == 1
        assert "schema error at $ in" in capsys.readouterr().err


def test_fit_powerlaw_without_cancels_records_error(profile_dir, tmp_path):
    _, _, out = profile_dir
    isolated = tmp_path / "profiles.json"
    isolated.write_bytes((out / "profiles.json").read_bytes())
    fits_path = tmp_path / "fits.json"
    assert run(
        ["fit", "--profiles", str(isolated), "--out", str(fits_path), "--models", "powerlaw"]
    ) == 0
    payload = json.loads(fits_path.read_text())
    assert all("error" in e for e in payload["fits"])


@pytest.mark.parametrize("width", [7, 19])
def test_fit_cancels_row_of_wrong_width_is_schema_error(profile_dir, tmp_path, capsys, width):
    # A short row once reached the reader with in_profile missing and was
    # skipped without a word; a long one was read as if it were whole.
    _, _, out = profile_dir
    cancels = tmp_path / "cancels.csv"
    rows = (out / "cancels.csv").read_text().splitlines()
    row = rows[1].split(",")
    bad = (row * 2)[:width]
    cancels.write_text("\n".join([*rows, ",".join(bad)]) + "\n")
    argv = ["fit", "--profiles", str(out / "profiles.json"), "--cancels", str(cancels),
            "--out", str(tmp_path / "fits.json"), "--models", "powerlaw"]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert "bad cancels schema" in err and f"line {len(rows) + 1}" in err
    assert not (tmp_path / "fits.json").exists()


def test_fit_cancels_without_a_needed_column_is_schema_error(profile_dir, tmp_path, capsys):
    _, _, out = profile_dir
    cancels = tmp_path / "cancels.csv"
    text = (out / "cancels.csv").read_text()
    cancels.write_text(text.replace("norm_level", "norm_lvl", 1))
    argv = ["fit", "--profiles", str(out / "profiles.json"), "--cancels", str(cancels),
            "--out", str(tmp_path / "fits.json"), "--models", "powerlaw"]
    assert run(argv) == 1
    assert "bad cancels schema" in capsys.readouterr().err


# -- simqueues and report --------------------------------------------------------------


def test_simqueues_output(tmp_path):
    out = tmp_path / "queues.json"
    assert run(["simqueues", "--out", str(out), "--queues", "50000", "--seed", "3"]) == 0
    payload = json.loads(out.read_text())
    assert payload["kind"] == "queue_sim"
    top = payload["top_masses"]
    assert top[0][0] == 1.0 and top[1][0] == 0.5
    assert abs(sum(payload["point_masses"]["prob"]) - 1.0) < 1e-9


def test_simqueues_bad_config_exits_2(tmp_path):
    assert run(["simqueues", "--out", str(tmp_path / "q.json"), "--queues", "0"]) == 2


def test_report_prints_summary(profile_dir, tmp_path, capsys):
    _, _, out = profile_dir
    fits_path = tmp_path / "fits.json"
    run(["fit", "--profiles", str(out / "profiles.json"), "--out", str(fits_path),
         "--models", "exp"])
    capsys.readouterr()
    assert run(["report", "--profiles", str(out / "profiles.json"), "--fits", str(fits_path)]) == 0
    text = capsys.readouterr().out
    assert "SYNA" in text and "__ensemble__" in text
    assert "exp" in text


def test_report_marks_fits_stopped_on_a_bound(profile_dir, tmp_path, capsys):
    _, _, out = profile_dir
    fits = {"kind": "fits", "fits": [
        {"instrument": "X", "side": "buy", "model": "exp",
         "params": {"beta": -0.0100004, "norm": 0.0033, "rms": 0.5, "at_bound": True}},
        {"instrument": "X", "side": "sell", "model": "exp",
         "params": {"beta": -25.0, "norm": 0.96, "rms": 0.01, "at_bound": False}},
    ]}
    path = tmp_path / "fits.json"
    path.write_text(json.dumps(fits))
    assert run(["report", "--profiles", str(out / "profiles.json"), "--fits", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "  X/buy/exp: beta=-0.01, norm=0.0033, rms=0.5 (at bound)" in lines
    assert "  X/sell/exp: beta=-25, norm=0.96, rms=0.01" in lines


def test_report_side_without_class_ratios_is_schema_error(profile_dir, tmp_path, capsys):
    _, _, out = profile_dir
    path = _profiles_with(
        out, tmp_path, lambda p: p["instruments"][1]["sides"]["sell"].pop("class_ratios")
    )
    assert run(["report", "--profiles", str(path)]) == 1
    captured = capsys.readouterr()
    assert "schema error at $.sides.sell" in captured.err and "class_ratios" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "fits, expected",
    [
        ({"kind": "profiles", "fits": []}, "$.kind"),
        ({"kind": "fits", "fits": [{"instrument": "X", "side": "buy"}]}, "$.fits[0]"),
        ({"kind": "fits", "fits": [{"instrument": "X", "side": "buy", "model": "exp",
                                    "params": {"beta": "steep"}}]}, "$.fits[0]"),
    ],
    ids=["wrong_kind", "entry_without_model", "non_numeric_param"],
)
def test_report_malformed_fits_is_schema_error(profile_dir, tmp_path, capsys, fits, expected):
    _, _, out = profile_dir
    path = tmp_path / "fits.json"
    path.write_text(json.dumps(fits))
    assert run(["report", "--profiles", str(out / "profiles.json"), "--fits", str(path)]) == 1
    captured = capsys.readouterr()
    assert f"schema error at {expected}" in captured.err
    assert captured.out == ""
