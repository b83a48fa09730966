"""The benchmark's own checks: seed stability, failure accounting, exits.

Run with ``python3 -m pytest -q perfledger/test_ledger.py``.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from collections import Counter

import pytest

import schedules as sch

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(*args: str, cwd: str = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfledger", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout


def result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def scan_classes(seed: int, rounds: int = 3) -> Counter:
    rng = random.Random(f"order-{seed}")
    return Counter(
        (op, cell, tuple(sorted(excluded)))
        for _ in range(rounds)
        for op, _, _, excluded, cell in sch.scan_round(rng)
    )


def hot_classes(seed: int) -> Counter:
    pool = sch.hot_pool(seed)
    data = sch.TwoColumnData(seed, 6000)
    items = sch.hot_round(random.Random(seed), sch.hot_appends(data))
    return Counter(
        (pool[item][:3] + (tuple(sorted(pool[item][3])),))
        if kind == "read" else (kind, item)
        for kind, item in items
    )


def test_seed_changes_order_not_work():
    a, b = sch.TwoColumnData(1, 6000), sch.TwoColumnData(2, 6000)
    assert Counter(a.a) == Counter(b.a) and Counter(a.b) == Counter(b.b)
    assert a.a != b.a  # row placement does move
    assert scan_classes(1) == scan_classes(2)
    assert hot_classes(1) == hot_classes(2)
    ingest = [sch.IngestSchedule(seed, 4000, 400) for seed in (1, 2)]
    kinds = [Counter(item[0] for item in s.round()) for s in ingest]
    assert kinds[0] == kinds[1]
    assert ingest[0].initial != ingest[1].initial


def test_serve_windows_hold_the_same_reads():
    rows = [(0, 0)] * sch.HOT_WRITES

    def windows(seed):
        out, current = Counter(), []
        for kind, item in sch.hot_round(random.Random(seed), rows):
            if kind == "write":
                out[tuple(sorted(current))] += 1
                current = []
            else:
                current.append(item)
        return out

    assert windows(1) == windows(2)


def test_excluded_sets_compile_to_four_runs():
    rng = random.Random(0)
    for _ in range(200):
        members = sch.excluded_set(rng)
        assert 0 not in members and sch.SIGMA_B - 1 not in members
        assert all(y - x >= 2 for x, y in zip(members, members[1:]))


def test_io_bits_ratio_is_seed_stable():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    ratios = []
    for seed in (1, 2):
        code, stdout = run(
            "--workload", "scan-cold", "--seed", str(seed),
            "--seconds", "0.1", "--rows", "16000", "--trace", "0",
        )
        assert code == 0, stdout
        ratios.append(result(stdout)["metrics"]["io_bits_ratio"]["value"])
    assert abs(ratios[0] - ratios[1]) / min(ratios) < bounds["io_bits_ratio"]


def test_clean_run_is_correct():
    code, stdout = run(
        "--workload", "ingest-durable", "--seed", "3", "--seconds", "1",
        "--rows", "4000", "--trace", "0",
    )
    out = result(stdout)
    assert code == 0 and out["correct"] and out["failed"] == 0, stdout
    assert out["attempted"] > 2500
    assert "op restore" in stdout


@pytest.mark.parametrize(
    "workload, fault",
    [
        ("scan-cold", "wrong-answer"),
        ("serve-hot", "wrong-answer"),
        ("ingest-durable", "lost-write"),
    ],
)
def test_injected_fault_fails_the_run(workload, fault):
    code, stdout = run(
        "--workload", workload, "--seed", "1", "--seconds", "0.1",
        "--rows", "4000", "--trace", "0", "--inject-fault", fault,
    )
    out = result(stdout)
    assert code == 1
    assert out["correct"] is False and out["failed"] >= 1
    assert "FAILED:" in stdout


def session_members(sid: int) -> list[str]:
    """The ``/proc/<pid>/stat`` lines of every process in session ``sid``."""
    members = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/stat") as stat:
                line = stat.read()
        except OSError:
            continue
        if int(line.rsplit(")", 1)[1].split()[3]) == sid:
            members.append(line)
    return members


def test_run_leaves_no_process_behind():
    proc = subprocess.Popen(
        [
            sys.executable, os.path.join(ROOT, "perfledger", "run.py"),
            "--workload", "serve-hot", "--seed", "1", "--seconds", "0.1",
            "--rows", "4000", "--trace", "0",
        ],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    stdout, _ = proc.communicate(timeout=170)
    assert proc.returncode == 0, stdout
    # Worker processes and the shared-memory resource tracker run in the
    # benchmark's session; none may outlive it, not even as a zombie.
    assert session_members(proc.pid) == []


def test_traced_run_covers_its_layers(tmp_path):
    spans_out = tmp_path / "spans.jsonl"
    code, stdout = run(
        "--workload", "scan-cold", "--seed", "1", "--seconds", "0.1",
        "--rows", "4000", "--trace", "1", "--spans-out", str(spans_out),
    )
    out = result(stdout)
    assert code == 0, stdout
    layers = out["metrics"]
    assert layers["trace.overhead"]["value"] > 0
    assert layers["query.stream_self_ms"]["value"] > 0
    spans = [json.loads(line) for line in spans_out.read_text().splitlines()]
    by_id = {span["id"]: span for span in spans}
    child = next(
        s for s in spans if s["layer"] == "engine" and s["parent"] in by_id
    )
    assert by_id[child["parent"]]["trace_id"] == child["trace_id"]


def test_without_program_source_exits_nonzero(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfledger",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    code, stdout = run(
        "--workload", "scan-cold", "--seed", "1", "--seconds", "1",
        "--trace", "0", cwd=str(tmp_path),
    )
    assert code != 0
    assert stdout.strip() == ""
