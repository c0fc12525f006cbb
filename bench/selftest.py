"""Quick self-test of the benchmark harness at self-test sizes (about 20 s).

    python3 bench/selftest.py

Runs every workload untraced and traced with ``--tiny`` (one trial per matrix
workload) and checks that each run passes its output checks, that every metric
BENCHMARK.json names is emitted with its declared unit, and that each traced
replay was bitwise equal to the untraced outputs.  Also checks that the
benchmark refuses to run, without printing a result, when the program's
sources are missing.  Exits 0 when all checks pass.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("band_compare", "records_small_n", "law_theory")
SEED = 11


def run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


def main():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = run(["bench/run.py", "--workload", "all", "--seed", str(SEED), "--seconds", "1",
                    "--trace", str(trace), "--tiny"])
        if proc.returncode != 0:
            problems.append(f"trace {trace}: exit {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"trace {trace}: result keys {sorted(result)}")
        if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
            problems.append(f"trace {trace}: correct={result['correct']} failed={result['failed']}")
        want = {f"{w}.{m['name']}": m["unit"] for w in WORKLOADS for m in declared[section]}
        got = {name: m.get("unit") for name, m in result["metrics"].items()}
        if got != want:
            problems.append(f"trace {trace}: metrics differ from BENCHMARK.json {section}: "
                            f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
                            f"wrong units {sorted(k for k in want if k in got and got[k] != want[k])}")
        for name, m in result["metrics"].items():
            if not isinstance(m.get("value"), (int, float)):
                problems.append(f"trace {trace}: {name} has no numeric value")
        for w in WORKLOADS:
            detail = json.loads((OUT / f"result-{w}-seed{SEED}-trace{trace}-tiny.json").read_text())
            trials = {u["trials"] for u in detail["units"]}
            if w != "law_theory" and trials != {1}:
                problems.append(f"{w}: self-test ran {trials} trials per unit, not 1")
            if trace:
                traced = [detail] + list(detail["probes"].values())
                if not all(t["replay_equal"] for t in traced):
                    problems.append(f"{w}: traced replay is not bitwise equal to the untraced outputs")

    # Without the program's sources the benchmark must fail and print no result.
    bare = OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH.glob("*.py"):
        shutil.copy(path, bare / "bench")
    try:
        proc = run(["bench/run.py", "--workload", "law_theory", "--seed", "1", "--seconds", "1", "--trace", "0"],
                   cwd=bare)
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            problems.append("benchmark ran without the program's sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("FAIL:", p)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
