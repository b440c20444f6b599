import csv
import errno
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from lobcancel import cli, reportio
from lobcancel.cli import main
from lobcancel.lob import norm_level
from lobcancel.orderflow import HEADER


def run(argv):
    return main(argv)


def exit_code(argv):
    """The exit code of a command, also when argparse rejects a flag value."""
    try:
        return run(argv)
    except SystemExit as exc:
        return exc.code


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
    from lobcancel import cli, reportio
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
    for mix in ("nan,0.2,0.8", "0.2,0.8,nan"):  # NaN passes a < 0 test and a sum test
        assert run(["gen", "--out", str(tmp_path / "x.csv"), "--mix", mix]) == 2
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("code", ["A,B", "", "A\nB", "A\rB"])
def test_gen_instrument_code_that_is_not_one_csv_field_exits_2(tmp_path, capsys, code):
    out = tmp_path / "x.csv"
    assert run(["gen", "--out", str(out), "--events", "50", "--instrument", code]) == 2
    assert "instrument code" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag,law", [
    ("--level-law", "lognormal:a,b"),
    ("--level-law", "lognormal:1"),
    ("--level-law", "lognormal:0,0"),
    ("--level-law", "lognormal:nan,1"),
    ("--level-law", "lognormal:0,-1"),
    ("--queue-law", "exp:x"),
    ("--queue-law", "exp:0"),
    ("--queue-law", "exp:5"),
    ("--queue-law", "exp:-inf"),
])
def test_gen_bad_law_parameters_exit_2(tmp_path, capsys, flag, law):
    out = tmp_path / "x.csv"
    assert run(["gen", "--out", str(out), "--events", "100", flag, law]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen", "simqueues", "fit"])
def test_negative_seed_is_usage_error(tmp_path, capsys, command):
    # fit's --profiles is missing, so reading it first would exit 1, not 2.
    out = tmp_path / "out"
    argv = {
        "gen": ["gen", "--out", str(out), "--events", "100"],
        "simqueues": ["simqueues", "--out", str(out), "--queues", "100"],
        "fit": ["fit", "--profiles", str(tmp_path / "none.json"), "--out", str(out)],
    }[command]
    assert exit_code([*argv, "--seed", "-1"]) == 2
    assert "--seed" in capsys.readouterr().err
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"seed": -1}))
    assert exit_code([*argv, "--config", str(cfg)]) == 2
    assert not out.exists()


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


@pytest.mark.parametrize("flag", [["--events=80"], ["--event", "80"], ["--events", "80"]])
def test_config_file_loses_to_a_flag_in_any_spelling(tmp_path, flag):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"events": 50, "levels": 5}))
    out = tmp_path / "g.csv"
    assert run(["gen", "--out", str(out), "--config", str(cfg), *flag]) == 0
    assert len(out.read_text().splitlines()) == 81


def test_config_file_values_are_converted_like_flags(tmp_path, fixture_csv):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"events": "50", "levels": "5"}))
    out = tmp_path / "g.csv"
    assert run(["gen", "--out", str(out), "--config", str(cfg)]) == 0
    assert len(out.read_text().splitlines()) == 51
    cfg.write_text(json.dumps({"workers": "2", "bins": "10"}))
    assert run(["profile", str(fixture_csv), "--out", str(tmp_path / "p"),
                "--config", str(cfg)]) == 0
    payload = json.loads((tmp_path / "p" / "profiles.json").read_text())
    assert len(payload["ensemble"]["sides"]["buy"]["pdf_rel_level"]["density"]) == 10


@pytest.mark.parametrize("value", ["many", 2.5, True, None, [50]])
def test_config_file_bad_value_exits_2(tmp_path, capsys, value):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"events": value}))
    argv = ["gen", "--out", str(tmp_path / "x.csv"), "--config", str(cfg)]
    try:
        code = run(argv)
    except SystemExit as exc:  # argparse rejects the value as it rejects a flag
        code = exc.code
    assert code == 2
    assert "events" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


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


@pytest.mark.parametrize("flag,value", [
    ("--bins", "0"), ("--log-bins", "-3"), ("--workers", "0"), ("--workers", "-2"),
    ("--bins", "ten"),
])
def test_profile_count_below_one_is_usage_error(tmp_path, capsys, flag, value):
    # The input is missing, so reading it first would exit 1, not 2.
    out = tmp_path / "o"
    argv = ["profile", str(tmp_path / "none.csv"), "--out", str(out), flag, value]
    assert exit_code(argv) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


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
        "lognormal": {"mu", "sigma", "unit_mass", "rms", "at_bound", "p_value", "repeats",
                      "unfittable"},
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


def test_fit_writes_what_the_single_fitters_give(profile_dir, tmp_path):
    # `fit` runs every entry's body fit, and every bootstrap refit, in batches;
    # the file must be what a loop over distfit's public fitters writes
    import dataclasses

    from lobcancel import distfit

    _, _, out = profile_dir
    models, repeats, seed = ["lognormal", "powerlaw", "exp", "gamma"], 15, 3
    fits_path = tmp_path / "fits.json"
    assert run(["fit", "--profiles", str(out / "profiles.json"), "--out", str(fits_path),
                "--models", ",".join(models), "--repeats", str(repeats), "--seed", str(seed)]) == 0
    payload = json.loads((out / "profiles.json").read_text())
    samples = cli._load_norm_level_samples(str(out / "cancels.csv"))
    fitters = {"lognormal": ("pdf_rel_level", distfit.fit_lognormal_lsq),
               "gamma": ("pdf_rel_level", distfit.fit_gamma_lsq),
               "exp": ("pdf_queue_frac", distfit.fit_exp_profile)}
    entries = []
    for block in [*payload["instruments"], payload["ensemble"]]:
        instrument = block["instrument"]
        for side in ("buy", "sell"):
            code = "B" if side == "buy" else "S"
            for model in models:
                entry = {"instrument": instrument, "side": side, "model": model}
                try:
                    if model == "powerlaw":
                        xs = [v for (i, s), v in samples.items()
                              if s == code and instrument in (i, "__ensemble__")]
                        params = dataclasses.asdict(
                            distfit.fit_powerlaw_tail(np.concatenate([np.empty(0), *xs])))
                    else:
                        key, fitter = fitters[model]
                        pdf = cli._pdf_from_payload(block["sides"][side][key], key)
                        fit = fitter(pdf)
                        params = dataclasses.asdict(fit)
                        if model == "lognormal":
                            job = (pdf, fit, cli._entry_seed(seed, instrument, side, model))
                            p_value, unfittable = distfit.gof_pvalues([job], repeats)[0]
                            assert p_value == distfit.gof_pvalue_mc(*job[:2], repeats, job[2])
                            params.update(p_value=p_value, repeats=repeats, unfittable=unfittable)
                    entry["params"] = params
                except distfit.FitError as exc:
                    entry["error"] = f"{type(exc).__name__}: {exc}"
                entries.append(entry)
    config = {"models": models, "repeats": repeats, "seed": seed}
    want = reportio.render_json(reportio.fits_payload(entries, config))
    assert fits_path.read_bytes() == want.encode()
    assert sum("p_value" in e.get("params", {}) for e in entries) == 6


def test_fit_lets_the_tail_samples_go_before_the_body_fits(profile_dir, tmp_path, monkeypatch):
    # The power-law tails are fitted first; cancels.csv's samples are then
    # released, so the body fits and the bootstrap run without them, even
    # when the log-normal is named before the power law.
    import weakref

    from lobcancel import distfit

    _, _, out = profile_dir
    loaded, alive_at_body_fits = [], []

    def load(path, load=cli._load_norm_level_samples):
        samples = load(path)
        loaded.extend(weakref.ref(xs) for xs in samples.values())
        return samples

    def fit_batch(*args, fit=distfit.fit_batch):
        alive_at_body_fits.append(sum(ref() is not None for ref in loaded))
        return fit(*args)

    monkeypatch.setattr(cli, "_load_norm_level_samples", load)
    monkeypatch.setattr(distfit, "fit_batch", fit_batch)
    assert run(["fit", "--profiles", str(out / "profiles.json"), "--out",
                str(tmp_path / "fits.json"), "--models", "lognormal,powerlaw,exp,gamma",
                "--repeats", "2"]) == 0
    assert len(loaded) == 4  # two instruments, two sides
    assert alive_at_body_fits == [0, 0, 0]  # lognormal, exp, gamma


def test_fit_entries_do_not_depend_on_the_model_order(profile_dir, tmp_path):
    _, _, out = profile_dir
    by_order = {}
    for models in ("lognormal,powerlaw,exp,gamma", "powerlaw,gamma,exp,lognormal"):
        fits_path = tmp_path / f"{models}.json"
        assert run(["fit", "--profiles", str(out / "profiles.json"), "--out", str(fits_path),
                    "--models", models, "--repeats", "5", "--seed", "4"]) == 0
        entries = json.loads(fits_path.read_text())["fits"]
        # each block side's entries, in the order --models names them
        assert [e["model"] for e in entries] == models.split(",") * 6
        by_order[models] = {(e["instrument"], e["side"], e["model"]): e for e in entries}
    first, second = by_order.values()
    assert len(first) == 24 and first == second


def test_fit_unknown_model_exits_2(profile_dir, tmp_path):
    _, _, out = profile_dir
    assert run(
        ["fit", "--profiles", str(out / "profiles.json"), "--out", str(tmp_path / "f.json"),
         "--models", "weibull"]
    ) == 2


@pytest.mark.parametrize("models, message", [
    (",", "names no model"), ("", "names no model"), ("exp,exp", "names a model twice"),
    ("lognormal, exp,lognormal", "names a model twice"),
])
def test_fit_models_naming_no_model_or_one_twice_exits_2(profile_dir, tmp_path, capsys,
                                                          models, message):
    _, _, out = profile_dir
    fits = tmp_path / "f.json"
    assert run(["fit", "--profiles", str(out / "profiles.json"), "--out", str(fits),
                "--models", models]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: --models") and message in err[0]
    assert not fits.exists()


def test_stream_without_cancels_through_profile_fit_report(tmp_path, capsys):
    stream, out = tmp_path / "nocancel.csv", tmp_path / "artifacts"
    assert run(["gen", "--out", str(stream), "--events", "2000", "--seed", "4",
                "--levels", "10", "--queue-depth", "3", "--mix", "1,0,0"]) == 0
    assert run(["profile", str(stream), "--out", str(out)]) == 0
    sides = json.loads((out / "profiles.json").read_text())["ensemble"]["sides"]
    for side in sides.values():
        assert side["cancelled_orders"] == side["cancel_events"] == 0 and side["ratio"] == 0
        assert side["pdf_rel_level"] is side["pdf_norm_level"] is side["pdf_queue_frac"] is None
    fits = tmp_path / "fits.json"
    assert run(["fit", "--profiles", str(out / "profiles.json"), "--out", str(fits),
                "--models", "lognormal,powerlaw,exp", "--repeats", "5"]) == 0
    entries = json.loads(fits.read_text())["fits"]
    assert len(entries) == 12 and all(set(e) == {"instrument", "side", "model", "error"}
                                      for e in entries)
    errors = {e["model"]: e["error"] for e in entries}
    assert errors == {"lognormal": "no relative-level density",
                      "exp": "no queue-position density",
                      "powerlaw": "TooFewSamples: need >= 100 samples, got 0"}
    capsys.readouterr()
    assert run(["report", "--profiles", str(out / "profiles.json"), "--fits", str(fits)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "  __ensemble__/sell/powerlaw: ERROR TooFewSamples: need >= 100 samples, got 0" in lines
    assert sum(" ERROR " in line for line in lines) == 12


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


def _edit_last_density(field, change):
    """Change ``field`` of the ensemble's sell-side level density, the last one `fit` meets."""
    def edit(payload):
        pdf = payload["ensemble"]["sides"]["sell"]["pdf_rel_level"]
        pdf[field] = change(pdf[field])
    return edit


def _queue_density_on_the_ray(payload):
    # relabelled as on the positive ray, with edges that all lie on it
    pdf = payload["instruments"][1]["sides"]["buy"]["pdf_queue_frac"]
    pdf.update(domain="positive_ray", edges=[v + 0.5 for v in pdf["edges"]])


LAST = "$.sides.sell of __ensemble__"
BAD_EDGES = f"{LAST}: edges must be finite and strictly increasing"
BAD_DENSITY = f"{LAST}: densities must be finite and >= 0"


@pytest.mark.parametrize(
    "edit, model, expected",
    [
        (_drop_last_bin, "exp", "$.sides.buy of SYNA: 49 density values for 51 edges"),
        (_rename_domain, "gamma", f"{LAST}: domain must be unit_interval, got 'unit-interval'"),
        (_edit_last_density("edges", lambda e: e[::-1]), "lognormal", BAD_EDGES),
        (_edit_last_density("edges", lambda e: [e[0], *e[:-1]]), "gamma", BAD_EDGES),
        (_edit_last_density("edges", lambda e: [*e[:-1], float("nan")]), "lognormal", BAD_EDGES),
        (_edit_last_density("edges", lambda e: [v - 0.5 for v in e]), "lognormal",
         f"{LAST}: edges must lie in the domain unit_interval, got a first edge of -0.5"),
        (lambda p: p["ensemble"]["sides"]["sell"]["pdf_rel_level"].update(domain="positive_ray"),
         "gamma", f"{LAST}: domain must be unit_interval, got 'positive_ray'"),
        # laws on (0, 1] fitted to a density that runs past 1, or that claims the whole ray
        (_edit_last_density("edges", lambda e: [2 * v for v in e]), "lognormal",
         f"{LAST}: edges must lie in the domain unit_interval, got a last edge of 2.0"),
        (_edit_last_density("edges", lambda e: [*e[:-1], 1.0 + 2**-52]), "gamma",
         f"{LAST}: edges must lie in the domain unit_interval, got a last edge of {1.0 + 2**-52!r}"),
        (_queue_density_on_the_ray, "exp",
         "$.sides.buy of SYNB: domain must be unit_interval, got 'positive_ray'"),
        (_edit_last_density("density", lambda d: [math.inf, *d[1:]]), "lognormal", BAD_DENSITY),
        (_edit_last_density("density", lambda d: [-0.5, *d[1:]]), "gamma", BAD_DENSITY),
        (_edit_last_density("count", lambda c: -5), "lognormal",
         f"{LAST}: count must be an integer >= 1, got -5"),
        (_edit_last_density("count", lambda c: 0), "lognormal",
         f"{LAST}: count must be an integer >= 1, got 0"),
        (_edit_last_density("count", lambda c: 2.5), "gamma",
         f"{LAST}: count must be an integer >= 1, got 2.5"),
        (_edit_last_density("count", lambda c: True), "lognormal",
         f"{LAST}: count must be an integer >= 1, got True"),
        (lambda p: p["ensemble"]["sides"].update(sell=[1, 2]), "exp",
         f"{LAST}: missing or not an object"),
    ],
    ids=["density_length", "unknown_domain", "reversed_edges", "repeated_edge", "nan_edge",
         "negative_edge", "zero_edge_on_the_ray", "edges_to_two", "last_edge_past_one",
         "queue_density_on_the_ray", "inf_density", "negative_density", "negative_count",
         "zero_count", "fractional_count", "boolean_count", "side_not_an_object"],
)
def test_fit_malformed_density_is_schema_error(
    profile_dir, tmp_path, capsys, monkeypatch, edit, model, expected
):
    # every density is checked before the first fit runs, so a bad last one
    # stops `fit` before any instrument has been fitted
    from lobcancel import distfit

    _, _, out = profile_dir
    path = _profiles_with(out, tmp_path, edit)
    fitted = []
    for name in ("fit_lognormal_lsq", "fit_gamma_lsq", "fit_exp_profile"):
        monkeypatch.setattr(distfit, name, lambda pdf, name=name: fitted.append(name))
    # the batch entry points that `fit` calls, recorded and then run
    for name in ("fit_batch", "gof_pvalues"):
        def record(*args, name=name, fit=getattr(distfit, name)):
            fitted.append(name)
            return fit(*args)
        monkeypatch.setattr(distfit, name, record)
    fits_path = tmp_path / "f.json"
    assert run(["fit", "--profiles", str(path), "--out", str(fits_path), "--models", model]) == 1
    assert f"schema error at {expected}" in capsys.readouterr().err
    assert fitted == [] and not fits_path.exists()
    # the same run on the unedited densities goes through the recorded batch fit
    assert run(["fit", "--profiles", str(out / "profiles.json"), "--out", str(fits_path),
                "--models", model, "--repeats", "1"]) == 0
    assert "fit_batch" in fitted


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


NOT_UTF8 = b'{"kind": "profiles\xff"}'


@pytest.mark.parametrize("argv,bad,code,message", [
    ("fit --profiles {bad} --out {out}", NOT_UTF8, 1, "not valid JSON"),
    ("report --profiles {bad}", NOT_UTF8, 1, "not valid JSON"),
    ("report --profiles {good} --fits {bad}", NOT_UTF8, 1, "not valid JSON"),
    ("gen --out {out} --config {bad}", NOT_UTF8, 2, "config file is not valid JSON"),
    ("report --profiles {bad}", b'{"kind": "profiles", "instruments": {}, "ensemble": {}}',
     1, "schema error at $.instruments/$.ensemble"),
    ("fit --profiles {bad} --out {out}", b'{"kind": "profiles", "instruments": {}, "ensemble": {}}',
     1, "schema error at $.instruments/$.ensemble"),
    ("report --profiles {bad}", b'{"kind": "profiles", "instruments": [], "ensemble": [1]}',
     1, "schema error at $.instruments/$.ensemble"),
], ids=["fit-profiles-utf8", "report-profiles-utf8", "report-fits-utf8", "config-utf8",
        "report-instruments-object", "fit-instruments-object", "report-ensemble-list"])
def test_malformed_artifact_or_config_is_an_error_not_a_traceback(
    tmp_path, capsys, argv, bad, code, message
):
    paths = {"bad": tmp_path / "bad", "good": tmp_path / "good.json", "out": tmp_path / "out"}
    paths["bad"].write_bytes(bad)
    paths["good"].write_text('{"kind": "profiles", "instruments": [], "ensemble": {}}')
    assert run([token.format(**paths) for token in argv.split()]) == code
    assert message in capsys.readouterr().err
    assert not paths["out"].exists()


def _must_not_run(*args, **kwargs):
    raise AssertionError("work started before --out was checked")


@pytest.mark.parametrize("command", ["profile", "fit", "gen", "simqueues"])
def test_unwritable_output_is_a_usage_error(profile_dir, tmp_path, capsys, monkeypatch, command):
    """A bad --out fails before any input is read or any work is done, and
    leaves nothing behind."""
    _, streams, artifacts = profile_dir
    for name in ("_read_lines", "_load_json", "replay_days", "iter_rows",
                 "simulate_uniform_queues"):
        monkeypatch.setattr(cli, name, _must_not_run)
    (tmp_path / "taken").write_text("")
    (tmp_path / "dir").mkdir()
    # Each bad --out and the errno its write would raise.
    bad_file = {"missing/out": errno.ENOENT, "taken/out": errno.ENOTDIR, "dir": errno.EISDIR}
    argv, bad = {
        "profile": (["profile", str(streams[0])],
                    {"taken": errno.EEXIST, "taken/out": errno.ENOTDIR}),
        "fit": (["fit", "--profiles", str(artifacts / "profiles.json"), "--models", "exp"],
                bad_file),
        "gen": (["gen", "--events", "100"], bad_file),
        "simqueues": (["simqueues", "--queues", "100"], bad_file),
    }[command]
    for name, code in bad.items():
        out = tmp_path / name
        assert run([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: cannot write {out}: {os.strerror(code)}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "taken"]
    assert not any((tmp_path / "dir").iterdir())


def test_out_check_passes_what_can_be_written(tmp_path):
    (tmp_path / "taken").write_text("")
    cli._check_out(str(tmp_path / "taken"))  # an existing file is overwritten
    cli._check_out(str(tmp_path / "new.json"))
    cli._check_out(str(tmp_path), directory=True)
    cli._check_out(str(tmp_path / "new" / "deeper"), directory=True)  # made with its parents
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


def test_out_check_refuses_what_the_user_may_not_write(tmp_path, monkeypatch):
    monkeypatch.setattr(cli.os, "access", lambda path, mode: False)  # a read-only directory
    for directory in (False, True):
        with pytest.raises(cli.UsageError, match=os.strerror(errno.EACCES)):
            cli._check_out(str(tmp_path / "out"), directory=directory)


def test_fit_explicit_cancels_that_does_not_exist_exits_1(profile_dir, tmp_path, capsys):
    _, _, out = profile_dir
    missing = tmp_path / "no-cancels.csv"
    fits_path = tmp_path / "fits.json"
    assert run(["fit", "--profiles", str(out / "profiles.json"), "--cancels", str(missing),
                "--out", str(fits_path), "--models", "powerlaw"]) == 1
    assert str(missing) in capsys.readouterr().err
    assert not fits_path.exists()


def test_quoted_instrument_code_round_trips_gen_profile_fit(tmp_path):
    flow, artifacts = tmp_path / "q.csv", tmp_path / "artifacts"
    assert run(["gen", "--out", str(flow), "--events", "5000", "--seed", "2",
                "--instrument", '"Q1']) == 0
    assert run(["profile", str(flow), "--out", str(artifacts)]) == 0
    fits_path = artifacts / "fits.json"
    assert run(["fit", "--profiles", str(artifacts / "profiles.json"), "--out", str(fits_path),
                "--models", "powerlaw"]) == 0
    fits = json.loads(fits_path.read_text())["fits"]
    assert [e["instrument"] for e in fits] == ['"Q1', '"Q1', "__ensemble__", "__ensemble__"]
    assert all("params" in e for e in fits)
    assert fits[0]["params"] == fits[2]["params"]  # one instrument: its tail is the ensemble's


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


@pytest.mark.parametrize(
    "column", ["level_rank", "side_levels", "level_orders", "side_orders", "in_profile"]
)
def test_fit_cancels_without_a_needed_column_is_schema_error(
    profile_dir, tmp_path, capsys, column
):
    _, _, out = profile_dir
    cancels = tmp_path / "cancels.csv"
    header, *rows = (out / "cancels.csv").read_text().splitlines()
    renamed = ",".join(name + "_x" if name == column else name for name in header.split(","))
    cancels.write_text("\n".join([renamed, *rows]) + "\n")
    argv = ["fit", "--profiles", str(out / "profiles.json"), "--cancels", str(cancels),
            "--out", str(tmp_path / "fits.json"), "--models", "powerlaw"]
    assert run(argv) == 1
    assert "bad cancels schema" in capsys.readouterr().err


CANCELS_COLUMNS = (
    "instrument,seq,timestamp,phase,side,cancel_index,level_rank,side_levels,"
    "level_orders,side_orders,queue_rank,cancelled_size,order_class,in_profile,in_ratio"
)


def test_cancels_csv_has_the_documented_integer_columns(profile_dir):
    _, _, out = profile_dir
    header, *rows = (out / "cancels.csv").read_text().splitlines()
    assert header == CANCELS_COLUMNS
    assert rows and all(len(row.split(",")) == 15 for row in rows)


def test_fit_reads_the_older_layout_with_ratio_columns(profile_dir, tmp_path):
    # Files written before the ratio columns were dropped carry them after
    # queue_rank, as text of 17 significant digits; fit derives the same samples.
    _, _, out = profile_dir
    header, *rows = (out / "cancels.csv").read_text().splitlines()
    old = [header.replace("queue_rank,", "queue_rank,rel_level,norm_level,queue_frac,")]
    for row in rows:
        cells = row.split(",")
        rank, levels, at_level, on_side, pos = map(int, cells[6:11])
        ratios = (rank / levels, (rank * on_side) / (levels * at_level), pos / at_level)
        old.append(",".join([*cells[:11], *(f"{x:.17g}" for x in ratios), *cells[11:]]))
    old_cancels = tmp_path / "old.csv"
    old_cancels.write_text("\n".join(old) + "\n")
    fits = []
    for cancels in (out / "cancels.csv", old_cancels):
        fits.append(tmp_path / f"{cancels.stem}.fits.json")
        assert run(["fit", "--profiles", str(out / "profiles.json"), "--cancels", str(cancels),
                    "--out", str(fits[-1]), "--models", "lognormal,powerlaw,exp,gamma",
                    "--repeats", "5", "--seed", "3"]) == 0
    assert fits[0].read_bytes() == fits[1].read_bytes()
    tails = [e for e in json.loads(fits[0].read_text())["fits"] if e["model"] == "powerlaw"]
    assert tails and all("params" in e for e in tails)


@pytest.mark.parametrize(
    "column,value",
    [("side_levels", "0"), ("level_orders", "0"), ("level_rank", "1.5"), ("side_orders", "x"),
     ("side_orders", "-1"), ("level_rank", "-2"), ("level_rank", "999")],
)
def test_fit_cancels_bad_count_is_schema_error(profile_dir, tmp_path, capsys, column, value):
    _, _, out = profile_dir
    header, *rows = (out / "cancels.csv").read_text().splitlines()
    names = header.split(",")
    at = next(i for i, row in enumerate(rows) if row.split(",")[names.index("in_profile")] == "1")
    cells = rows[at].split(",")
    cells[names.index(column)] = value
    rows[at] = ",".join(cells)
    cancels = tmp_path / "cancels.csv"
    cancels.write_text("\n".join([header, *rows]) + "\n")
    argv = ["fit", "--profiles", str(out / "profiles.json"), "--cancels", str(cancels),
            "--out", str(tmp_path / "fits.json"), "--models", "powerlaw"]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert "bad cancels schema" in err and "Traceback" not in err
    assert not (tmp_path / "fits.json").exists()


@pytest.mark.parametrize(
    "column,value",
    [("in_profile", "2"), ("in_profile", "01"), ("in_profile", ""), ("in_profile", " 1"),
     ("side", "X"), ("side", "b"), ("side", "BS"), ("side", "B ")],
)
def test_fit_cancels_bad_flag_or_side_is_schema_error(profile_dir, tmp_path, capsys, column,
                                                       value):
    # Such a row was left out (in_profile) or loaded under a key that no fit
    # reads (side), without a word.
    _, _, out = profile_dir
    header, *rows = (out / "cancels.csv").read_text().splitlines()
    at = len(rows) // 2
    cells = rows[at].split(",")
    cells[header.split(",").index(column)] = value
    rows[at] = ",".join(cells)
    cancels = tmp_path / "cancels.csv"
    cancels.write_text("\n".join([header, *rows]) + "\n")
    argv = ["fit", "--profiles", str(out / "profiles.json"), "--cancels", str(cancels),
            "--out", str(tmp_path / "fits.json"), "--models", "powerlaw"]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert f"bad cancels schema: line {at + 2}: {column}" in err and repr(value) in err
    assert "Traceback" not in err and not (tmp_path / "fits.json").exists()


def _drop_from_profile(rows, names, code):
    """``rows`` with the last in-profile sell row of ``code`` marked out of profile."""
    at = max(i for i, row in enumerate(rows) if row.split(",")[0] == code
             and row.split(",")[names.index("in_profile")] == "1"
             and row.split(",")[names.index("side")] == "S")
    cells = rows[at].split(",")
    cells[names.index("in_profile")] = "0"
    return [*rows[:at], ",".join(cells), *rows[at + 1:]]


@pytest.mark.parametrize("change, where", [
    (lambda rows, names: [*rows, rows[0].replace("SYNA,", "SYNC,", 1)], "sell of __ensemble__"),
    (lambda rows, names: _drop_from_profile(rows, names, "SYNB"), "sell of SYNB"),
], ids=["rows_of_another_instrument", "row_left_out_of_profile"])
def test_fit_cancels_rows_that_profiles_json_does_not_count_exit_1(
    profile_dir, tmp_path, capsys, monkeypatch, change, where
):
    # The tail fits pool cancels.csv's in-profile rows, so a cancels.csv of
    # another run was fitted without a word; each side's rows must be the
    # ones its pdf_norm_level counts, and that is checked before any fit.
    from lobcancel import distfit

    _, _, out = profile_dir
    header, *rows = (out / "cancels.csv").read_text().splitlines()
    assert rows[0].startswith("SYNA,") and rows[0].split(",")[4] == "S"
    assert rows[0].split(",")[header.split(",").index("in_profile")] == "1"
    cancels = tmp_path / "cancels.csv"
    cancels.write_text("\n".join([header, *change(rows, header.split(","))]) + "\n")
    monkeypatch.setattr(distfit, "fit_batch", _must_not_run)
    monkeypatch.setattr(distfit, "fit_powerlaw_tail", _must_not_run)
    block, side = where.split(" of ")[1], where.split(" ")[0]
    payload = json.loads((out / "profiles.json").read_text())
    count = next(b for b in [*payload["instruments"], payload["ensemble"]]
                 if b["instrument"] == block)["sides"][side]["pdf_norm_level"]["count"]
    rows_now = count + 1 if block == "__ensemble__" else count - 1
    argv = ["fit", "--profiles", str(out / "profiles.json"), "--cancels", str(cancels),
            "--out", str(tmp_path / "fits.json"), "--models", "powerlaw,exp"]
    assert run(argv) == 1
    assert capsys.readouterr().err == (
        f"error: {cancels} does not match {out / 'profiles.json'} at $.sides.{where}: "
        f"{rows_now} in-profile rows, but pdf_norm_level counts {count}\n")
    assert not (tmp_path / "fits.json").exists()


@pytest.mark.parametrize(
    "line,problem",
    [("", "0 columns"), ("#", "1 columns"), ("# " + "," * 14, "could not convert"),
     (None, "could not convert")],
    ids=["blank", "hash", "hash_row", "beyond_int64"],
)
def test_fit_cancels_blank_comment_or_huge_line_is_schema_error(
    profile_dir, tmp_path, capsys, line, problem
):
    # numpy's text reader skips blank and # lines by default; fit does not.
    _, _, out = profile_dir
    header, *rows = (out / "cancels.csv").read_text().splitlines()
    at = len(rows) - 3
    if line is None:  # a count that int64 cannot hold
        cells = rows[at].split(",")
        cells[6] = cells[7] = str(2**63)
        line = ",".join(cells)
    rows.insert(at, line)
    cancels = tmp_path / "cancels.csv"
    cancels.write_text("\n".join([header, *rows]) + "\n")
    argv = ["fit", "--profiles", str(out / "profiles.json"), "--cancels", str(cancels),
            "--out", str(tmp_path / "fits.json"), "--models", "powerlaw"]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert f"bad cancels schema: line {at + 2}: " in err and problem in err


@pytest.mark.parametrize("block", [7, 1 << 18])
def test_fit_cancels_invalid_utf8_names_its_byte(profile_dir, tmp_path, monkeypatch, capsys,
                                                 block):
    _, _, out = profile_dir
    data = (out / "cancels.csv").read_bytes()
    bad = data.index(b"SYNB")
    cancels = tmp_path / "cancels.csv"
    cancels.write_bytes(data[:bad] + b"\xff" + data[bad + 1:])
    monkeypatch.setattr(cli, "CANCELS_BLOCK", block)
    argv = ["fit", "--profiles", str(out / "profiles.json"), "--cancels", str(cancels),
            "--out", str(tmp_path / "fits.json"), "--models", "powerlaw"]
    assert run(argv) == 1
    assert capsys.readouterr().err == (
        f"error: {cancels}: not valid UTF-8 at byte {bad}: invalid start byte\n"
    )


_SAMPLE_COLUMNS = ("instrument", "side", "in_profile",
                   "level_rank", "side_levels", "level_orders", "side_orders")


def _norm_levels_row_by_row(path) -> dict:
    """The samples as `fit` read them one row at a time: csv rows, int() counts, lob.norm_level."""
    samples = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, quoting=csv.QUOTE_NONE)
        header = next(reader)
        code, side, flag, *counts = (header.index(name) for name in _SAMPLE_COLUMNS)
        for row in reader:
            assert len(row) == len(header) and row[flag] in ("0", "1") and row[side] in ("B", "S")
            if row[flag] == "1":
                xs = samples.setdefault((row[code], row[side]), [])
                xs.append(norm_level(*(int(row[i]) for i in counts)))
    return samples


def _assert_loads_as_row_by_row(path):
    samples = cli._load_norm_level_samples(str(path))
    expected = _norm_levels_row_by_row(path)
    assert list(samples) == list(expected)  # keys in the order of their first row
    for key, xs in samples.items():
        assert xs.dtype == np.float64
        assert xs.tobytes() == np.array(expected[key], dtype=np.float64).tobytes()
    return samples


def test_cancels_blocks_load_as_row_by_row(profile_dir, tmp_path, monkeypatch):
    _, _, out = profile_dir
    text = (out / "cancels.csv").read_text()
    header, *rows = text.splitlines()
    assert len(text) > 2 * cli.CANCELS_BLOCK  # the default block ends inside the file
    _assert_loads_as_row_by_row(out / "cancels.csv")

    old = [header.replace("queue_rank,", "queue_rank,rel_level,norm_level,queue_frac,")]
    old += [",".join([*row.split(",")[:11], "0.5", "0.5", "0.5", *row.split(",")[11:]])
            for row in rows]
    (tmp_path / "old.csv").write_text("\n".join(old) + "\n")
    _assert_loads_as_row_by_row(tmp_path / "old.csv")

    (tmp_path / "crlf.csv").write_bytes(text.replace("\n", "\r\n").encode())
    _assert_loads_as_row_by_row(tmp_path / "crlf.csv")

    # Codes longer than any fixed width, or that start with a quote, are read
    # whole and as written.
    long_code, quoted = "L" * 300, '"Q1'
    recoded = [row.replace("SYNA,", f"{long_code},", 1) if i % 3 == 0 else
               row.replace("SYNB,", f"{quoted},", 1) if i % 3 == 1 else row
               for i, row in enumerate(rows)]
    (tmp_path / "codes.csv").write_text("\n".join([header, *recoded]) + "\n")
    samples = _assert_loads_as_row_by_row(tmp_path / "codes.csv")
    assert {code for code, _ in samples} == {"SYNA", "SYNB", long_code, quoted}

    # Rows on both sides of every block boundary, with blocks of a few bytes.
    few = "\n".join([header, *recoded[:40], *rows[-40:]]) + "\n"
    (tmp_path / "few.csv").write_text(few)
    for block in (1, 2, 7):
        monkeypatch.setattr(cli, "CANCELS_BLOCK", block)
        _assert_loads_as_row_by_row(tmp_path / "few.csv")


@pytest.mark.parametrize("block", [7, 1 << 18])
def test_cancels_counts_beyond_two_to_the_53_take_the_exact_path(tmp_path, monkeypatch, block):
    # (level_rank, side_levels, level_orders, side_orders). int64 products
    # would lose bits from 2**53 on, and wrap beyond 2**63.
    counts = [
        (3, 7, 2, 5),
        (2**27, 2**27, 1, 2**26),                   # level_rank * side_orders == 2**53
        (2**27 + 1, 2**27 + 1, 1, 2**26 + 1),       # just above 2**53
        (2**53 + 1, 2**53 + 1, 3, 2**53 + 1),       # products near 2**106
        (2**62, 2**63 - 1, 2**40, 2**63 - 1),       # largest int64 counts
        (1, 1, 1, 1),
    ]
    header = ",".join(_SAMPLE_COLUMNS)
    rows = [f"BIG,{'BS'[i % 2]},1,{','.join(map(str, c))}" for i, c in enumerate(counts)]
    path = tmp_path / "cancels.csv"
    path.write_text("\n".join([header, *rows]) + "\n")
    monkeypatch.setattr(cli, "CANCELS_BLOCK", block)
    samples = _assert_loads_as_row_by_row(path)
    assert samples["BIG", "S"][1] == (2**53 + 1) // 3  # exact, where floats of the products are not


def test_cancels_load_holds_about_a_block(tmp_path, monkeypatch):
    # 200k rows, one in 100 in profile: the samples stay small, so the peak
    # shows what reading holds, a block's lines and parsed columns.
    row = "SYN001,{},2003-06-02T09:42:46.590,continuous_am,{},1,39,127,90,8271,60,800,inside_book,{},1"
    lines = [CANCELS_COLUMNS] + [row.format(i, "BS"[i % 2], int(i % 100 == 0))
                                 for i in range(200_000)]
    path = tmp_path / "cancels.csv"
    path.write_text("\n".join(lines) + "\n")
    del lines
    monkeypatch.setattr(cli, "CANCELS_BLOCK", 1 << 16)
    tracemalloc.start()
    try:
        samples = cli._load_norm_level_samples(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert {key: xs.size for key, xs in samples.items()} == {("SYN001", "B"): 2000}
    assert path.stat().st_size > 200 * (1 << 16)
    assert peak < 16 * (1 << 16)


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


# -- JSON artifacts ------------------------------------------------------------------


def test_render_json_floats_read_back_as_the_same_floats(profile_dir):
    text = reportio.render_json({"b": [1.0, 0.1, 1 / 3], "a": {"n": 1, "none": None}})
    assert text == ('{\n  "a": {\n    "n": 1,\n    "none": null\n  },\n'
                    '  "b": [\n    1.0,\n    0.1,\n    0.3333333333333333\n  ]\n}\n')
    payload = json.loads(text)
    assert type(payload["b"][0]) is float and payload["b"] == [1.0, 0.1, 1 / 3]
    _, _, out = profile_dir
    pdf = json.loads((out / "profiles.json").read_text())["ensemble"]["sides"]["buy"][
        "pdf_queue_frac"]
    assert pdf["edges"][-1] == 1.0 and all(type(e) is float for e in pdf["edges"])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_render_json_refuses_a_non_finite_float(bad):
    with pytest.raises(ValueError):
        reportio.render_json({"fits": [{"params": {"mu": bad}}]})


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


def test_report_prints_unfittable_draws_beside_the_p_value(profile_dir, tmp_path, capsys):
    _, _, out = profile_dir
    params = {"mu": -2.1, "sigma": 1.1, "unit_mass": 0.97, "rms": 0.02, "at_bound": False,
              "p_value": 0.35, "repeats": 20}
    fits = {"kind": "fits", "fits": [
        {"instrument": "X", "side": "buy", "model": "lognormal",
         "params": dict(params, unfittable=3)},
        {"instrument": "X", "side": "sell", "model": "lognormal", "params": params},
    ]}
    path = tmp_path / "fits.json"
    path.write_text(json.dumps(fits))
    assert run(["report", "--profiles", str(out / "profiles.json"), "--fits", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    rest = "repeats=20, rms=0.02, sigma=1.1, unit_mass=0.97"
    assert f"  X/buy/lognormal: mu=-2.1, p_value=0.35 (3 unfittable), {rest}" in lines
    assert f"  X/sell/lognormal: mu=-2.1, p_value=0.35, {rest}" in lines  # an older fits.json
    fits["fits"][0]["params"]["unfittable"] = 2.5
    path.write_text(json.dumps(fits))
    assert run(["report", "--profiles", str(out / "profiles.json"), "--fits", str(path)]) == 1
    assert "schema error at $.fits[0]" in capsys.readouterr().err


def test_report_into_a_closed_pipe_exits_141_quietly(profile_dir, tmp_path):
    # the reader of stdout is gone before the first write, as after `| head -1`
    # or `| true`: the exit status of a filter killed by SIGPIPE, and no traceback
    _, _, out = profile_dir
    assert run(["fit", "--profiles", str(out / "profiles.json"), "--out",
                str(tmp_path / "fits.json"), "--models", "exp"]) == 0
    src = os.path.dirname(os.path.dirname(cli.__file__))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "lobcancel.cli", "report", "--profiles",
             str(out / "profiles.json"), "--fits", str(tmp_path / "fits.json")],
            stdout=write_end, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src),
            timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_report_prints_nonzero_diagnostics_under_the_ratio_rows(profile_dir, tmp_path, capsys):
    rows = [
        "1,2003-06-02T09:31:00.000,DIAG01,1,L,B,1000,100",
        "2,2003-06-02T09:31:01.000,DIAG01,2,L,S,1010,100",
        "3,2003-06-02T09:31:02.000,DIAG01,99,C,B,0,0",  # names no resting order
        "4,2003-06-02T09:31:03.000,DIAG01,2,C,B,0,0",   # names the sell order 2 from the buy side
        "5,2003-06-02T09:31:04.000,DIAG01,1,C,B,0,0",
    ]
    path = tmp_path / "diag.csv"
    path.write_text("\n".join([HEADER, *rows]) + "\n")
    assert run(["profile", str(path), "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    assert run(["report", "--profiles", str(tmp_path / "out" / "profiles.json")]) == 0
    lines = capsys.readouterr().out.splitlines()
    counts = "  diagnostics: cancel_side_mismatch=1, dangling_cancels=1"
    assert [line.split()[0] for line in lines[1:]] == [
        "DIAG01", "DIAG01", "diagnostics:", "__ensemble__", "__ensemble__", "diagnostics:"]
    assert lines[3] == lines[6] == counts
    # A clean input's report has no diagnostics line, and zero counters print nothing.
    _, _, out = profile_dir
    assert run(["report", "--profiles", str(out / "profiles.json")]) == 0
    assert "diagnostics" not in capsys.readouterr().out
    zeros = _profiles_with(out, tmp_path, lambda p: p["ensemble"].update(
        diagnostics={"dangling_cancels": 0}))
    assert run(["report", "--profiles", str(zeros)]) == 0
    assert "diagnostics" not in capsys.readouterr().out


@pytest.mark.parametrize("counters", [[1], {"dangling_cancels": "1"},
                                      {"dangling_cancels": -1}, {"held_events": True}])
def test_report_malformed_diagnostics_is_schema_error(profile_dir, tmp_path, capsys, counters):
    _, _, out = profile_dir
    path = _profiles_with(out, tmp_path, lambda p: p["instruments"][0].update(
        diagnostics=counters))
    assert run(["report", "--profiles", str(path)]) == 1
    captured = capsys.readouterr()
    assert "schema error at $.diagnostics" in captured.err and captured.out == ""


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
        ({"kind": "fits", "fits": 5}, "$.fits in"),
        ({"kind": "fits"}, "$.fits in"),
    ],
    ids=["wrong_kind", "entry_without_model", "non_numeric_param", "fits_not_a_list",
         "fits_missing"],
)
def test_report_malformed_fits_is_schema_error(profile_dir, tmp_path, capsys, fits, expected):
    _, _, out = profile_dir
    path = tmp_path / "fits.json"
    path.write_text(json.dumps(fits))
    assert run(["report", "--profiles", str(out / "profiles.json"), "--fits", str(path)]) == 1
    captured = capsys.readouterr()
    assert f"schema error at {expected}" in captured.err
    assert captured.out == ""
