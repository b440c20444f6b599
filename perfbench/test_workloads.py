"""Each workload has the shape the benchmark claims for it.

    python3 -m pytest perfbench/test_workloads.py -q

Run from the root of a checkout. It builds every workload's inputs at full
size (about half a minute) and checks the book shapes at cancel time and the
sample counts that make the workloads stress different layers.
"""
import contextlib
import csv
import io
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import lobcancel.cli as cli  # noqa: E402
from workloads import GOF_CANCELS, PANEL_INSTRUMENTS, WORKLOADS  # noqa: E402


def _cancel_shape(name: str, out: str) -> dict:
    """Run the workload's gen and profile calls in process; summarize cancels.csv."""
    plan = WORKLOADS[name][0](1, out, out)
    with contextlib.redirect_stdout(io.StringIO()):
        for call in plan.calls:
            if call.stage != "fit":
                os.makedirs(os.path.dirname(call.outputs[0]), exist_ok=True)
                assert cli.main(call.argv) == 0
    with open(os.path.join(plan.profile_dir, "cancels.csv"), encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {
        "instruments": len({r["instrument"] for r in rows}),
        "side_levels": statistics.mean(int(r["side_levels"]) for r in rows),
        "level_orders": statistics.mean(int(r["level_orders"]) for r in rows),
        "workers": plan.calls[-2].argv[-1],
    }


def test_deep_and_shallow_ladders(tmp_path):
    deep = _cancel_shape("deep_book", str(tmp_path / "deep"))
    panel = _cancel_shape("panel", str(tmp_path / "panel"))
    assert deep["instruments"] == 1 and deep["workers"] == "1"
    assert panel["instruments"] == PANEL_INSTRUMENTS and panel["workers"] == "2"
    assert deep["side_levels"] >= 10 * panel["side_levels"]
    assert deep["level_orders"] >= 100 > 10 >= panel["level_orders"]


def test_fit_gof_is_paper_scale(tmp_path):
    fit_gof, prepare = WORKLOADS["fit_gof"]
    prepare(1, str(tmp_path))
    plan = fit_gof(1, str(tmp_path / "out"), str(tmp_path))
    assert [c.stage for c in plan.calls] == ["fit"]
    with open(plan.inputs[0], encoding="utf-8") as fh:
        profiles = json.load(fh)
    for block in profiles["instruments"] + [profiles["ensemble"]]:
        for side in ("buy", "sell"):
            for pdf in ("pdf_rel_level", "pdf_queue_frac", "pdf_norm_level"):
                assert block["sides"][side][pdf]["count"] >= 10**5
    per_side = {"B": 0, "S": 0}
    with open(plan.inputs[1], encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            per_side[row["side"]] += row["in_profile"] == "1"
    assert per_side == {"B": GOF_CANCELS, "S": GOF_CANCELS}
