"""Seeded benchmark of the `lobcancel` gen -> profile -> fit command line.

    python3 perfbench/run.py --workload deep_book --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout that holds `src/lobcancel`. With
`--trace 0` it runs the workload's CLI calls in subprocesses, closed loop,
for about `--seconds`, and reports the end-to-end metrics of BENCHMARK.json
as medians over iterations. With `--trace 1` it also replays the workload in
this process with spans around the public functions of each module, and
reports the per-layer metrics instead. Every run checks the artifacts; the
last line of standard output is one JSON object, and a fuller record with
quartiles, provenance and a traffic report goes to
`.perfbench/results/<workload>-seed<seed>-trace<0|1>.json`.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata

# One thread per process for numpy's BLAS and OpenMP, in this process and in
# every CLI call: the machine has two cores, and idle pool threads spinning
# next to `profile --workers 2` measure the scheduler, not the program.
THREAD_ENV = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")}
os.environ.update(THREAD_ENV)

import numpy as np  # noqa: E402

from workloads import DEEP_TRUTH, WORKLOADS, Plan, profile_call

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")
SETUP_IMPORTS = 3          # fresh interpreters timed for setup_s, before and after the calls
MIN_ITERATIONS = 2         # timed iterations per --trace 0 run, even past --seconds
CALL_TIMEOUT_S = 150


def sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def quartiles(values: list[float]) -> dict:
    """Median, first and third quartile (statistics.quantiles), and count."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


# -- subprocesses -----------------------------------------------------------------


class Runner:
    """Starts interpreters on the checkout's sources, one at a time, with rusage."""

    def __init__(self, log_path: str):
        self.env = dict(os.environ, PYTHONPATH=SRC, **THREAD_ENV)
        self.log_path = log_path

    def spawn(self, argv: list[str]) -> dict:
        with open(self.log_path, "ab") as log:
            log.write(f"$ {' '.join(argv)}\n".encode())
            log.flush()
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=self.env,
                                    stdout=log, stderr=log)
            timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        # wait4 reports the child together with its reaped children (pool workers).
        return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024.0, "rc": proc.returncode}

    def setup_seconds(self) -> list[float]:
        """Wall times of SETUP_IMPORTS fresh `import lobcancel.cli` interpreters."""
        return [self.spawn(["-c", "import lobcancel.cli"])["wall_s"] for _ in range(SETUP_IMPORTS)]

    def iteration(self, plan: Plan) -> dict:
        calls = []
        for index, call in enumerate(plan.calls):
            for _ in range(call.repeat):
                rec = self.spawn(["-m", "lobcancel.cli", *call.argv])
                rec["stage"], rec["call"] = call.stage, index
                rec["digests"] = {p: sha256(p) for p in call.outputs if os.path.exists(p)}
                calls.append(rec)
        return {"calls": calls}


def iteration_once(calls: list[dict]) -> list[dict]:
    """One record per call of the plan; a call the iteration repeats gets its medians."""
    by_call: dict[int, list[dict]] = {}
    for c in calls:
        by_call.setdefault(c["call"], []).append(c)
    return [{"stage": reps[0]["stage"], "rss_mb": max(r["rss_mb"] for r in reps),
             **{k: statistics.median(r[k] for r in reps) for k in ("wall_s", "cpu_s")}}
            for reps in by_call.values()]


def iteration_metrics(calls: list[dict], gen_events: int) -> dict:
    once = iteration_once(calls)

    def total(stage: str, key: str) -> float:
        return sum(c[key] for c in once if c["stage"] == stage)

    m = {
        "pipeline_s": sum(c["wall_s"] for c in once),
        "cpu_s": sum(c["cpu_s"] for c in once),
        "peak_rss_mb": max(c["rss_mb"] for c in once),
    }
    if any(c["stage"] == "profile" for c in calls):
        m["gen_events_per_s"] = gen_events / total("gen", "wall_s")
        m["profile_events_per_s"] = gen_events / total("profile", "wall_s")
        m["profile_cpu_s"] = total("profile", "cpu_s")
        m["profile_peak_rss_mb"] = max(c["rss_mb"] for c in calls if c["stage"] == "profile")
    return m


def timed_loop(runner: Runner, plan: Plan, seconds: float) -> list[dict]:
    """Closed loop: iterations back to back until another would pass `seconds`."""
    iterations = []
    start = time.perf_counter()
    while True:
        iterations.append(runner.iteration(plan))
        elapsed = time.perf_counter() - start
        if len(iterations) >= MIN_ITERATIONS and elapsed * (1 + 1 / len(iterations)) > seconds:
            return iterations


# -- output checks -----------------------------------------------------------------


def count_kinds(paths: list[str]) -> tuple[dict, set]:
    kinds: dict[str, int] = {}
    instruments = set()
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            next(fh)
            for line in fh:
                parts = line.split(",", 6)
                kinds[parts[4]] = kinds.get(parts[4], 0) + 1
                instruments.add(parts[2])
    return kinds, instruments


def read_cancels(path: str) -> dict[str, np.ndarray]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {key: np.array([int(r[key]) for r in rows], dtype=np.int64)
            for key in ("side_levels", "level_orders", "in_profile")}


def fit_samples(profiles: dict) -> dict[str, int]:
    """Sample count behind each fit entry, keyed instrument/side/model."""
    pdf_of = {"lognormal": "pdf_rel_level", "gamma": "pdf_rel_level",
              "exp": "pdf_queue_frac", "powerlaw": "pdf_norm_level"}
    out = {}
    for block in profiles["instruments"] + [profiles["ensemble"]]:
        for side, data in block["sides"].items():
            for model, key in pdf_of.items():
                pdf = data.get(key)
                out[f"{block['instrument']}/{side}/{model}"] = pdf["count"] if pdf else 0
    return out


class Checks:
    """Output checks. A failed check marks every CLI call of its stage as failed."""

    def __init__(self, iterations: list[dict], extra: list[dict]):
        self.calls = [c for it in iterations for c in it["calls"]] + extra
        self.results: list[dict] = []

    def check(self, name: str, stage: str, ok: bool, detail="") -> None:
        self.results.append({"check": name, "stage": stage, "ok": bool(ok), "detail": detail})
        if not ok:
            for call in self.calls:
                if call["stage"] == stage:
                    call["failed"] = True

    def same_outputs(self, name: str, reference: dict[str, str], calls: list[dict]) -> None:
        """Each call's outputs must hash like the reference's outputs."""
        for call in calls:
            bad = [p for p, d in call["digests"].items() if reference.get(p) != d]
            if bad:
                call["failed"] = True
            self.results.append({"check": name, "stage": call["stage"], "ok": not bad,
                                 "detail": bad})

    def counts(self) -> tuple[int, int]:
        failed = sum(1 for c in self.calls if c["rc"] != 0 or c.get("failed"))
        return len(self.calls), failed


def check_outputs(checks: Checks, workload: str, plan: Plan, iterations: list[dict]) -> dict:
    """Artifact checks on the first iteration; later ones must match it byte for byte."""
    first = {p: d for c in iterations[0]["calls"] for p, d in c["digests"].items()}
    for it in iterations[1:]:
        checks.same_outputs("byte-identical across iterations", first, it["calls"])
    checks.check("every call exits 0", "any", all(c["rc"] == 0 for c in checks.calls),
                 [c["rc"] for c in checks.calls if c["rc"]])
    traffic: dict = {"input_sha256": {os.path.basename(p): sha256(p) for p in plan.inputs}}
    if plan.profile_dir is None:  # fit_gof: the prepared artifacts are the input
        profiles_path, cancels_path = plan.inputs
    else:
        profiles_path, cancels_path = (os.path.join(plan.profile_dir, name)
                                       for name in ("profiles.json", "cancels.csv"))
    with open(profiles_path, encoding="utf-8") as fh:
        profiles = json.load(fh)
    cancels = read_cancels(cancels_path)
    in_profile = int(cancels["in_profile"].sum())
    traffic.update({"cancels": int(cancels["in_profile"].size), "in_profile_cancels": in_profile,
                    "fit_samples": fit_samples(profiles)})
    for key in ("side_levels", "level_orders"):
        arr = cancels[key]
        traffic[f"{key}_at_cancel"] = {"mean": float(arr.mean()), "p99": float(np.percentile(arr, 99))}
    if plan.profile_dir is not None:
        kinds, instruments = count_kinds(plan.inputs)
        traffic.update({"events_by_kind": kinds, "instruments": len(instruments)})
        checks.check("gen writes the events asked for", "gen",
                     sum(kinds.values()) == plan.gen_events, kinds)
        checks.check("in-profile cancels equal the C rows of the input", "profile",
                     in_profile == kinds.get("C", 0), {"in_profile": in_profile, "C": kinds.get("C")})
        diagnostics = {f"{b['instrument']}.{k}": v
                       for b in profiles["instruments"] + [profiles["ensemble"]]
                       for k, v in b["diagnostics"].items() if v}
        checks.check("every diagnostics counter is 0", "profile", not diagnostics, diagnostics)
    with open(plan.fits, encoding="utf-8") as fh:
        fits = json.load(fh)["fits"]
    errors = [f"{e['instrument']}/{e['side']}/{e['model']}: {e['error']}" for e in fits if "error" in e]
    checks.check("no fit entry carries an error", "fit", not errors, errors)
    if workload == "deep_book":
        worst = {}
        for e in fits:
            params = e.get("params", {})
            for key, (truth, _) in DEEP_TRUTH.items():
                if key in params:
                    worst[key] = max(worst.get(key, 0.0), abs(params[key] - truth))
        ok = set(worst) == set(DEEP_TRUTH) and all(worst[k] <= DEEP_TRUTH[k][1] for k in DEEP_TRUTH)
        checks.check("fitted mu, sigma, beta within criterion 7's tolerances", "fit", ok, worst)
    return traffic


# -- traced run ---------------------------------------------------------------------


def run_in_process(plan: Plan, tracer=None) -> tuple[float, list[int], dict[str, float]]:
    """Run the plan's CLI calls through lobcancel.cli.main in this process.

    With a tracer, also returns per stage the time of the layer calls that
    the CLI made, for the cli.<stage>.other_s remainders.
    """
    import lobcancel.cli as cli

    codes = []
    layer_s: dict[str, float] = {}
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        for call in plan.calls:
            os.makedirs(os.path.dirname(call.outputs[0]), exist_ok=True)
            first = len(tracer.spans) if tracer else 0
            codes.append(cli.main(call.argv))
            if tracer:
                layer_s[call.stage] = layer_s.get(call.stage, 0.0) + tracer.layer_time(
                    first, len(tracer.spans))
    return time.perf_counter() - start, codes, layer_s


def traced_metrics(plan_fn, seed: int, work: str, prepared: str, cli_walls: dict,
                   setup_s: float, checks: Checks, reference: dict[str, str], ref_dir: str) -> dict:
    sys.path.insert(0, SRC)
    from tracing import Tracer, lob_pass

    plain_dir, traced_dir = os.path.join(work, "plain"), os.path.join(work, "traced")
    # Untraced passes before and after the traced one, so warm-up does not
    # count as tracing overhead (or as its absence).
    plain_before, plain_codes, _ = run_in_process(plan_fn(seed, plain_dir, prepared, workers=1))
    tracer = Tracer()
    tracer.install()
    try:
        traced_plan = plan_fn(seed, traced_dir, prepared, workers=1)
        traced_s, traced_codes, layer_s = run_in_process(traced_plan, tracer)
    finally:
        tracer.uninstall()
    plain_after, codes_after, _ = run_in_process(plan_fn(seed, plain_dir, prepared, workers=1))
    plain_codes += codes_after
    checks.check("in-process calls exit 0", "any", not any(plain_codes + traced_codes),
                 plain_codes + traced_codes)
    for call in traced_plan.calls:
        mismatched = [p for p in call.outputs
                      if not os.path.exists(p) or reference.get(p.replace(traced_dir, ref_dir)) != sha256(p)]
        checks.check("single-worker CLI artifacts equal the traced run's", call.stage,
                     not mismatched, mismatched)

    m = tracer.summary()
    csv_inputs = traced_plan.inputs if traced_plan.profile_dir else []
    m.update(lob_pass(csv_inputs))
    checks.check("no parse errors", "profile", m.get("orderflow.parse_errors", 0) == 0,
                 m.get("orderflow.parse_errors", 0))
    lob_s = m["lob.apply_cancel.s"] + m["lob.apply_submission.s"]
    m["profiles.accounting.s"] = m.get("profiles.replay_day.s", 0.0) - lob_s if csv_inputs else 0.0
    m["reportio.artifact_bytes"] = sum(
        os.path.getsize(p) for c in traced_plan.calls if c.stage != "gen" for p in c.outputs)
    for command in ("profile", "fit"):
        wall = cli_walls.get(command)
        m[f"cli.{command}.other_s"] = wall - setup_s - layer_s[command] if wall is not None else 0.0
    m["trace.overhead_frac"] = traced_s / statistics.mean((plain_before, plain_after)) - 1.0
    m["trace.spans"] = len(tracer.spans)
    return m


# -- provenance ------------------------------------------------------------------------


def source_digest() -> str:
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def provenance(args) -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = out.stdout.strip() or None
    return {
        "commit": commit,
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "loadavg_start": os.getloadavg(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# -- main --------------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lobcancel", "cli.py")):
        print(f"error: no src/lobcancel under {ROOT}; run from a lobcancel checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    prov = provenance(args)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(STATE, "work", tag)
    shutil.rmtree(work, ignore_errors=True)
    prepared, cli_dir = os.path.join(work, "inputs"), os.path.join(work, "cli")
    for d in (prepared, cli_dir, os.path.join(STATE, "results")):
        os.makedirs(d, exist_ok=True)
    runner = Runner(os.path.join(STATE, "results", f"{tag}.log"))
    if os.path.exists(runner.log_path):
        os.remove(runner.log_path)
    plan_fn, prepare = WORKLOADS[args.workload]

    try:
        if runner.spawn(["-c", "import lobcancel.cli"])["rc"] != 0:  # also fills __pycache__
            print(f"error: lobcancel.cli does not import; see {runner.log_path}", file=sys.stderr)
            return 1
        if prepare is not None:
            prepare(args.seed, prepared)
        plan = plan_fn(args.seed, cli_dir, prepared)
        prov["seeds"] = plan.seeds
        setup = runner.setup_seconds()
        if args.trace:  # one untraced CLI iteration, for the checks and the CLI walls
            iterations = [runner.iteration(plan)]
        else:
            iterations = timed_loop(runner, plan, args.seconds)
        setup += runner.setup_seconds()  # so that setup_s spans the run
        extra = []
        ref_dir = cli_dir
        if args.workload == "panel":  # --workers 2 artifacts must equal a --workers 1 run
            ref_dir = os.path.join(work, "w1")
            call = profile_call(plan.inputs, ref_dir, 1)
            rec = runner.spawn(["-m", "lobcancel.cli", *call.argv])
            rec.update(stage="profile", digests={p: sha256(p) for p in call.outputs if os.path.exists(p)})
            extra.append(rec)
        checks = Checks(iterations, extra)
        reference = {p.replace(cli_dir, ref_dir): d
                     for c in iterations[0]["calls"] for p, d in c["digests"].items()}
        checks.same_outputs("--workers 2 artifacts equal --workers 1", reference, extra)
        reference.update({p: d for rec in extra for p, d in rec["digests"].items()})
        try:
            traffic = check_outputs(checks, args.workload, plan, iterations)
        except (OSError, ValueError, KeyError) as exc:  # a missing or malformed artifact
            traffic = {}
            checks.check(f"artifacts readable: {exc!r}", "any", False)
            for call in checks.calls:
                call["failed"] = True
        per_iteration = [iteration_metrics(it["calls"], plan.gen_events) for it in iterations]
        summary = {key: quartiles([m[key] for m in per_iteration]) for key in per_iteration[0]}
        # Every fit call of the run is one sample of the same work.
        summary["fit_s"] = quartiles([c["wall_s"] for it in iterations for c in it["calls"]
                                      if c["stage"] == "fit"])
        summary["setup_s"] = quartiles(setup)
        values = {key: s["median"] for key, s in summary.items()}
        layer = {}
        if args.trace:
            walls = {c["stage"]: c["wall_s"] for c in iteration_once(iterations[0]["calls"])
                     if c["stage"] != "gen"}
            layer = traced_metrics(plan_fn, args.seed, work, prepared, walls, values["setup_s"],
                                   checks, reference, ref_dir)
            traffic["trades"] = layer["lob.trades"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = checks.counts()
    prov["loadavg_end"] = os.getloadavg()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = layer if args.trace else values
    listed = any(w["name"] == args.workload for w in spec["workloads"])
    # A listed workload reports every metric; fit_gof has no gen or profile stage.
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
               for m in wanted if listed or m["name"] in source}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {"provenance": prov, "result": result, "summary": summary, "per_layer": layer,
              "traffic": traffic, "checks": checks.results,
              "calls": [{k: v for k, v in c.items() if k != "digests"} for c in checks.calls]}
    with open(os.path.join(STATE, "results", f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    for key, s in sorted(summary.items()):
        print(f"{key:>22}: median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n {s['n']}")
    for c in checks.results:
        if not c["ok"]:
            print(f"CHECK FAILED [{c['stage']}] {c['check']}: {c['detail']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
