"""Tiny-scale self-test of the benchmark.

Runs every workload of ``BENCHMARK.json`` at a tiny dataset scale, with
tracing off and on, and checks that each run

* exits 0 and ends its output with the result object of the contract,
* reports exactly the end-to-end (``--trace 0``) or per-layer
  (``--trace 1``) metrics that ``BENCHMARK.json`` lists,
* passes every correctness check (``correct``, ``failed == 0``),

that ``benchmarks/results/*.csv`` are byte-identical afterwards, and
that the benchmark exits non-zero, printing no result, in a directory
that holds only ``BENCHMARK.json`` and the benchmark's own files.
Usage, from the repository root::

    python3 perfbench/selftest.py [--scale 0.02]
"""
from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _digest(paths) -> dict[str, str]:
    return {str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(paths)}


def _run(cmd: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_run(bench: dict, workload: str, trace: int, scale: float) -> list[str]:
    cmd = list(bench["command"]) + [
        "--workload", workload, "--seed", "3", "--seconds", "0.1",
        "--trace", str(trace), "--scale", str(scale),
    ]
    proc = _run(cmd, ROOT)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr[-3000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 2):
        errors.append(f"{where}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}")
    want = {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = set(result["metrics"])
    if got != want:
        errors.append(f"{where}: metrics differ from BENCHMARK.json: "
                      f"missing {sorted(want - got)}, extra {sorted(got - want)}")
    for k, v in result["metrics"].items():
        if not isinstance(v["value"], (int, float)):
            errors.append(f"{where}: {k} is not a number: {v['value']!r}")
        elif not trace and v["value"] == 0:
            errors.append(f"{where}: end-to-end metric {k} reads 0")
    return errors


def check_bare_directory(bench: dict) -> list[str]:
    """Without the program's sources the benchmark must fail cleanly."""
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for p in bench["paths"]:
        shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = list(bench["command"]) + [
        "--workload", bench["workloads"][0]["name"], "--seed", "0",
        "--seconds", "1", "--trace", "0",
    ]
    proc = _run(cmd, bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-500:]!r}"]
    return []


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--scale", type=float, default=0.02)
    args = p.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    csvs = list((ROOT / "benchmarks" / "results").glob("*.csv"))
    before = _digest(csvs)

    errors = check_bare_directory(bench)
    for wl in bench["workloads"]:
        for trace in (0, 1):
            errors += check_run(bench, wl["name"], trace, args.scale)
            print(f"{wl['name']} --trace {trace}: done", flush=True)
    if _digest(csvs) != before:
        errors.append("benchmarks/results/*.csv changed")
    for e in errors:
        print("FAIL", e)
    print("selftest:", "ok" if not errors else f"{len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
