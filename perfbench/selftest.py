"""Self-test of the benchmark: every workload at its tiny size, untraced and
traced, plus a run from a directory without the bioinv sources.

    python3 perfbench/selftest.py

Asserts that each run emits every metric BENCHMARK.json names for its mode
with its unit, reports attempted and failed counts, and runs its
correctness checks; and that the benchmark refuses, with a nonzero exit and
no result line, to run without `src/` and `data/`.  Takes about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(root: str, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(root, "perfbench", "run.py"), *args],
                          capture_output=True, text=True, timeout=600, cwd=root)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for wl in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, "--workload", wl["name"], "--seed", "3", "--seconds", "1",
                       "--trace", str(trace), "--tiny")
            assert proc.returncode == 0, proc.stderr
            *_, summary, last = proc.stdout.strip().splitlines()
            res, summary = json.loads(last), json.loads(summary)
            assert set(res) == {"correct", "attempted", "failed", "metrics"}, res
            assert res["correct"] is True, proc.stderr
            assert isinstance(res["attempted"], int) and res["attempted"] >= 1, res
            assert isinstance(res["failed"], int) and 0 <= res["failed"] <= res["attempted"]
            expected = {m["name"]: m["unit"] for m in bench[key]}
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            assert got == expected, f"{wl['name']} trace={trace}: {set(got) ^ set(expected)}"
            for name, m in res["metrics"].items():
                assert isinstance(m["value"], float), (name, m)
                if trace == 0:
                    assert m["value"] > 0, (name, m)
            assert summary["checks"] > 0, f"{wl['name']}: no correctness check ran"
            print(f"ok {wl['name']} trace={trace}: attempted {res['attempted']}, "
                  f"failed {res['failed']}, {summary['checks']} checks")

    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = run(bare, "--workload", bench["workloads"][0]["name"], "--seed", "1",
                   "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc.stdout
    print("ok refuses to run without the bioinv sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
