"""The overhead-gate harness in ``benchmarks/trajectory.py``.

These tests pin the harness, never the timings: the race's bit-identity
check, the one point schema every gate writes, the budget check's FAIL
lines and the command line.  Every gate runs at a few thousand packets,
so the whole file takes a few seconds.
"""

import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
sys.path.insert(0, str(BENCHMARKS))

import trajectory  # noqa: E402

#: Fields every gate's point carries, whatever its probe adds.
SCHEMA = {
    "gate", "packets", "repeats", "pps", "overhead_pct", "detected_flows",
}
#: What each gate's probe adds on top of the schema.
PROBE_FIELDS = {
    "telemetry": set(),
    "overload": set(),
    "pipeline": set(),
    "reshard": {"slots", "pause_ns", "pause_ns_all", "batch_interval_ns"},
    "net": {"slots", "reconnect_pause_ns"},
    "forensics": {"capture_overhead_pct", "incidents", "bundles"},
    "control": {"pause_ns", "pause_ns_all", "batch_interval_ns"},
}


def _nulls(value, key="point"):
    """Dotted paths to every ``None`` inside ``value``."""
    if value is None:
        return [key]
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return []
    return [null for k, item in items for null in _nulls(item, f"{key}.{k}")]


def _stub(detections):
    return lambda packets: trajectory.Run(0.001, detections)


def test_race_rejects_an_arm_that_changes_detections():
    arms = {
        "baseline": _stub((("f1", 10),)),
        "same": _stub((("f1", 10),)),
        "drifted": _stub((("f1", 11),)),
    }
    with pytest.raises(AssertionError, match="drifted"):
        trajectory.race(arms, list(range(8)), repeats=1)


def test_race_keeps_each_arms_best_run():
    elapsed = iter([9.0, 9.0, 3.0, 4.0, 5.0, 2.0])

    def arm(packets):
        return trajectory.Run(next(elapsed), ())

    best = trajectory.race({"a": arm, "b": arm}, [1, 2, 3, 4], repeats=2)
    assert {name: run.elapsed for name, run in best.items()} == {
        "a": 3.0, "b": 2.0,
    }


@pytest.fixture(scope="module")
def points():
    return {
        name: trajectory.measure(name, 3_000, 1) for name in trajectory.GATES
    }


@pytest.mark.parametrize("name", sorted(PROBE_FIELDS))
def test_every_gate_writes_the_one_schema(points, name):
    point = points[name]
    gate = trajectory.GATES[name]
    baseline, *priced = gate.arms
    assert set(point) == SCHEMA | PROBE_FIELDS[name]
    assert point["gate"] == name
    assert point["packets"] == 3_000
    assert point["repeats"] == max(1, gate.repeat_floor)
    assert list(point["pps"]) == list(gate.arms)
    assert list(point["overhead_pct"]) == priced
    assert point["detected_flows"] > 0
    assert _nulls(point) == []
    # The prose names the gate and the repeats that actually ran.
    prose = trajectory.render(point)
    assert prose.startswith(f"trajectory {name}:")
    assert f"repeats {point['repeats']}" in prose


def test_the_repeat_floor_holds():
    assert trajectory.GATES["forensics"].repeat_floor == 5
    assert trajectory.GATES["control"].repeat_floor == 5


@pytest.mark.parametrize("name", sorted(PROBE_FIELDS))
def test_an_overhead_over_budget_fails_naming_its_gate(points, name):
    point = points[name]
    worst = max(point["overhead_pct"].values())
    budget = (worst - 1.0) / trajectory.GATES[name].backstop
    failures = trajectory.check(point, budget)
    assert failures
    assert all(line.startswith(f"FAIL: {name}: ") for line in failures)


def test_check_passes_within_budget_and_gates_pauses_and_capture():
    point = {"gate": "forensics", "overhead_pct": {"service-forensics": 9.0},
             "capture_overhead_pct": 1.0}
    assert trajectory.check(point, 3.0) == []
    point["capture_overhead_pct"] = 3.5
    assert trajectory.check(point, 3.0) == [
        "FAIL: forensics: capture overhead 3.50% exceeds budget 3.0%"
    ]
    point = {"gate": "reshard", "overhead_pct": {"service-slots": 0.0},
             "pause_ns": 2_000_000, "batch_interval_ns": 1_000_000}
    assert trajectory.check(point, 8.0) == [
        "FAIL: reshard: pause 2.00 ms exceeds one batch interval (1.00 ms)"
    ]


def test_append_point_refuses_nulls_and_creates_the_file(tmp_path):
    path = tmp_path / "BENCH_x.json"
    with pytest.raises(ValueError, match="null"):
        trajectory.append_point({"overhead_pct": None}, path, "x")
    assert not path.exists()
    trajectory.append_point({"overhead_pct": {"a": 1.0}}, path, "x")
    trajectory.append_point({"overhead_pct": {"a": 2.0}}, path, "x")
    assert '"description": "x"' in path.read_text()
    assert path.read_text().count('"overhead_pct"') == 2


def test_two_gate_flags_are_rejected_before_anything_runs(capsys):
    with pytest.raises(SystemExit) as exit_info:
        trajectory.main(["--overload", "--pipeline", "--no-append"])
    assert exit_info.value.code == 2
    assert "not allowed with" in capsys.readouterr().err
