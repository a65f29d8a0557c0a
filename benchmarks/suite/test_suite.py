"""Smoke test of the benchmark harness.

It sits outside the tier-1 ``testpaths``, so run it explicitly:

    PYTHONPATH=src python -m pytest benchmarks/suite/test_suite.py -q

One ``--quick --trace`` pass over all four workloads at tiny scale,
plus one full-scale storm-remote run against a corrupted golden digest
(about a minute in all).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
BENCHMARK = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]
DECLARED = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    """stdout, records and record path of one quick traced pass."""
    out = tmp_path_factory.mktemp("suite") / "quick.json"
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--trace",
         "--repeats", "2", "--out", str(out)],
        capture_output=True, text=True, cwd=REPO_ROOT, timeout=900,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout, json.loads(out.read_text())["runs"], out


def _blocks(stdout: str):
    """Printed lines per workload (each block starts with ``== name:``)."""
    blocks, current = {}, None
    for line in stdout.splitlines():
        if line.startswith("== "):
            current = blocks.setdefault(line[3:].split(":")[0], [])
        elif current is not None:
            current.append(line)
    return blocks


def test_every_declared_metric_is_printed_with_its_unit(quick):
    stdout, _, _ = quick
    blocks = _blocks(stdout)
    assert sorted(blocks) == sorted(WORKLOADS)
    for workload, lines in blocks.items():
        for metric in DECLARED:
            prefix = f"  {metric['name']} "
            printed = [line for line in lines if line.startswith(prefix)]
            assert printed, f"{workload}: {metric['name']} not printed"
            assert f" {metric['unit']}  (" in printed[0], printed[0]


def test_last_line_is_the_contract_object(quick):
    stdout, _, _ = quick
    line = json.loads(stdout.strip().splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True
    for workload in WORKLOADS:
        for metric in BENCHMARK["per_layer"]:
            entry = line["metrics"][f"{workload}.{metric['name']}"]
            assert entry["unit"] == metric["unit"]


def test_no_serve_fails(quick):
    _, runs, _ = quick
    for run in runs:
        assert run["failed"] == 0, run["failures"]
        assert run["attempted"] >= 4
        assert run["correct"]


def test_ledger_covers_the_serving_thread(quick):
    _, runs, _ = quick
    for run in runs:
        assert run["layers"]["trace.coverage_pct"]["value"] >= 95, run["workload"]


def test_compare_accepts_itself_and_flags_a_regression(quick, tmp_path):
    _, runs, out = quick
    compare = [sys.executable, str(HERE / "compare.py")]
    same = subprocess.run(compare + [str(out), str(out)], capture_output=True,
                          text=True, cwd=REPO_ROOT, timeout=60)
    assert same.returncode == 0, same.stdout
    assert "REGRESSION" not in same.stdout
    assert "COUNT MISMATCH" not in same.stdout
    # Zero every within-run spread, so the verdicts cannot be
    # "unresolved", then halve pps and bump one count on the change side.
    steady = json.loads(out.read_text())
    for run in steady["runs"]:
        for entry in run["metrics"].values():
            entry.update(q1=entry["value"], q3=entry["value"])
            if "samples" in entry:
                entry["samples"] = [entry["value"]] * len(entry["samples"])
    parent = tmp_path / "steady.json"
    parent.write_text(json.dumps(steady))
    for run in steady["runs"]:
        pps = run["metrics"]["pps"]
        half = pps["value"] / 2
        pps.update(value=half, q1=half, q3=half,
                   samples=[half] * len(pps["samples"]))
        run["layers"]["counters.ops_per_pkt"]["value"] += 1
    changed = tmp_path / "slower.json"
    changed.write_text(json.dumps(steady))
    worse = subprocess.run(compare + [str(parent), str(changed)],
                           capture_output=True, text=True, cwd=REPO_ROOT,
                           timeout=60)
    assert worse.returncode == 1
    assert worse.stdout.count("REGRESSION") == len(runs)
    assert "COUNT MISMATCH seed 7: counters.ops_per_pkt" in worse.stdout


def test_compare_needs_every_repeat_to_separate_a_noisy_gain():
    sys.path.insert(0, str(HERE))
    import compare

    metric = {"name": "pps", "bound": 0.10, "better": "higher"}

    def side(samples, keep_samples=True):
        entry = {"value": samples[1], "q1": samples[0], "q3": samples[2],
                 "n": 3}
        if keep_samples:
            entry["samples"] = samples
        return [{"metrics": {"pps": entry}}]

    # Spreads of 40% exceed the bound: an overlapping gain is unresolved,
    # one where every change repeat beats every parent repeat is not.
    parent = side([80.0, 100.0, 120.0])
    assert compare.judge(metric, parent, side([90.0, 110.0, 130.0]))[
        "verdict"] == "unresolved"
    assert compare.judge(metric, parent, side([130.0, 150.0, 180.0]))[
        "verdict"] == "within bound"
    # Without per-repeat values nothing is separated.
    assert compare.judge(
        metric, side([80.0, 100.0, 120.0], keep_samples=False),
        side([130.0, 150.0, 180.0], keep_samples=False),
    )["verdict"] == "unresolved"


def test_compare_refuses_runs_of_different_length(quick, tmp_path):
    _, _, out = quick
    longer = json.loads(out.read_text())
    for run in longer["runs"]:
        run["env"]["seconds"] += 1
    changed = tmp_path / "longer.json"
    changed.write_text(json.dumps(longer))
    completed = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), str(out), str(changed)],
        capture_output=True, text=True, cwd=REPO_ROOT, timeout=60,
    )
    assert completed.returncode == 1
    assert completed.stdout.count("NOT COMPARABLE") == len(WORKLOADS)


def test_a_corrupted_golden_digest_counts_as_failure():
    script = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(HERE)!r})\n"
        "import run\n"
        "run.GOLDEN = dict(run.GOLDEN, digests={'storm-remote': '0' * 64})\n"
        "result = run.Run('storm-remote', run.GOLDEN['seed'], 0, 1,\n"
        "                 quick=False, verify=False).execute(trace=False)\n"
        "print(json.dumps({k: result[k] for k in\n"
        "                  ('correct', 'attempted', 'failed')}))\n"
    )
    completed = subprocess.run([sys.executable, "-c", script],
                               capture_output=True, text=True, cwd=REPO_ROOT,
                               timeout=300)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 2
