"""Record the per-layer ledger: one traced run of every workload.

Usage (from the repository root)::

    python3 perfledger/ledger.py --seed 1 --seconds 32

Runs ``run.py --trace 1`` for each workload in ``BENCHMARK.json`` and
writes the per-layer metrics and notes of each run to
``perfledger/LEDGER.json``.  A change that claims a layer gain quotes
the rows it moved against this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def machine() -> str:
    model = "unknown CPU"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return (
        f"{os.cpu_count()} vCPU ({model}), "
        f"Python {platform.python_version()}"
    )


def traced_run(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [
            sys.executable, os.path.join(HERE, "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1",
        ],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{workload}: no output\n{proc.stderr}")
    result = json.loads(lines[-1])
    notes = {}
    for line in lines:
        line = line.strip()
        if line.startswith("note "):
            key, value = line[len("note "):].split(": ", 1)
            notes[key] = json.loads(value)
    return {
        "exit_code": proc.returncode,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "layers": result["metrics"],
        "notes": notes,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32)
    parser.add_argument("--out", default=os.path.join(HERE, "LEDGER.json"))
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    ledger = {
        "machine": machine(),
        "seed": args.seed,
        "seconds": args.seconds,
        "workloads": {},
    }
    for workload in workloads:
        ledger["workloads"][workload] = run = traced_run(
            workload, args.seed, args.seconds
        )
        print(f"{workload}: exit {run['exit_code']}", flush=True)
    with open(args.out, "w") as out:
        json.dump(ledger, out, indent=1)
        out.write("\n")
    return 0 if all(
        run["exit_code"] == 0 for run in ledger["workloads"].values()
    ) else 1


if __name__ == "__main__":
    sys.exit(main())
