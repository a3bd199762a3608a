"""Tests of the benchmark itself, at smoke sizes.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
WORKLOADS = ("cli-calls", "long-walk", "wide-brackets", "verdicts")

sys.path.insert(0, BENCH)


def load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


BENCHMARK = load(os.path.join(ROOT, "BENCHMARK.json"))
SPEC = load(os.path.join(BENCH, "metrics.json"))


def run_bench(workload, trace, seed=3):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(OUT, f"result-{workload}-s{seed}-t{trace}-smoke.json"), encoding="utf-8") as fh:
        detail = json.load(fh)
    return result, detail


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_reported_with_unit(workload, trace):
    result, detail = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    repeat = detail["checks"].get("trace-counts-repeat", {"failed": 0})
    assert result["correct"] == (result["failed"] == 0 and repeat["failed"] == 0)
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], float)
    for item in SPEC["report_only"]:
        if not trace and workload in item["workloads"] and item["name"] != "op_p90_s":
            assert item["name"] in detail["details"]
    env = detail["environment"]
    for key in ("seed", "nproc", "python", "numpy", "scipy"):
        assert env[key] is not None
    # every check passes or fails by name
    assert detail["checks"]
    for name, tally in detail["checks"].items():
        assert name and tally["passed"] + tally["failed"] >= 1
    # timed rounds hold only inputs the program answers correctly today; at
    # smoke sizes verdicts' p-series budgets (about 500 terms) leave the
    # classifier's midpoint correction above the checker's 1e-8, so only the
    # full-size verdicts rounds are expected to pass
    if workload != "verdicts":
        assert result["correct"], detail["failures"]
    # known defects are probed apart from the timed rounds and reported by name
    defects = detail["known_defects"]
    assert bool(defects) == (workload in ("long-walk", "verdicts"))
    for name, d in defects.items():
        assert name in SPEC["known_defect_probes"][workload] and d["note"]
        assert 0 <= d["failing"] <= d["probes"]


@pytest.mark.parametrize("workload", ("long-walk", "verdicts"))
def test_traced_work_counts_repeat(workload):
    _, first = run_bench(workload, 1, seed=5)
    _, second = run_bench(workload, 1, seed=5)
    assert first["details"]["work_counts"] == second["details"]["work_counts"]
    assert first["checks"]["trace-counts-repeat"]["failed"] == 0


def test_walk_brackets_match_requests():
    result, _ = run_bench("wide-brackets", 1)
    assert result["metrics"]["overlaps.brackets_per_requested_site"]["value"] == 1.0


def test_every_metric_and_workload_is_described():
    defs = SPEC["definitions"]
    for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        _, _, suffix = m["name"].partition(".")
        assert m["name"] in defs or f"<layer>.{suffix}" in defs, m["name"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS) == list(SPEC["op_mix"])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verdicts", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_importtime_split():
    from run import parse_importtime

    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |       scipy._lib",
        "import time:        20 |         30 |     scipy",
        "import time:         5 |         50 |     scipy.linalg",
        "import time:         7 |          7 |     numpy",
        "import time:         3 |        100 |   qsectors.operators",
        "import time:         1 |        120 | qsectors",
    ])
    assert parse_importtime(text) == (120, 80)
