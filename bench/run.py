"""eigipr benchmark: runs one workload, checks its outputs and prints its metrics.

    python3 bench/run.py --workload band_compare --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` makes the traced
replay and reports the per-layer metrics (see README.md).  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print each metric by name with
its unit and sample count.  The exit code is 0 only when every output check
passed.  Detailed results, span files and output digests go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("band_compare", "records_small_n", "law_theory")
# Fresh processes that only set up, so that setup_s is a median of several
# import-and-warm-up timings.
SETUP_REPEATS = 5
# Every run must end within 180 s; the children share what is left of this.
RUN_BUDGET_S = 170.0


class ChildError(RuntimeError):
    pass


def spawn(args, deadline):
    """Run ``child.py`` with `args` and return the JSON object it prints last."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildError("run budget used up")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), *args],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise ChildError(f"child {args} timed out after {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"child {args} exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def timed_setup(deadline):
    """(set-up time at the reference host speed, wall time) of one fresh set-up process.

    The kernel is timed here, in a warm process, just before and after the
    set-up process: in a fresh process its own timings scatter widely.
    """
    ref_before = hostspeed.reference_s()
    wall_s = spawn(["setup"], deadline)["setup_s"]
    return hostspeed.scaled(wall_s, ref_before, hostspeed.reference_s()), wall_s


def code_hash():
    """Hash of the program and workload sources: digests are compared only within one version."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "eigipr").glob("*.py")) + [BENCH / "workloads.py"]:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_digests(units):
    """Compare each unit's output digest with the one stored by an earlier run with the same unit seed.

    Returns the number of mismatches and stores digests not seen before.
    """
    store = OUT / "digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    version = code_hash()
    bad = 0
    for unit in units:
        if unit["digest"] is None:
            continue
        key = f"{unit['workload']}|{unit['seed']}|{version}"
        if key in known and known[key] != unit["digest"]:
            unit["errors"].append(f"output digest differs from an earlier run with seed {unit['seed']}")
            bad += 1
        known.setdefault(key, unit["digest"])
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=0, sort_keys=True))
    os.replace(tmp, store)
    return bad


def tail_percentile(values):
    """(label, value) of the highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    return f"p{math.floor(100 * (n - 10) / n)}", sorted(values)[n - 11]


def account(units):
    """(attempted, failed): trials plus one output check per unit; skipped trials plus failed checks."""
    attempted = sum(u["trials"] + 1 for u in units)
    failed = sum(u["skipped"] + (1 if u["errors"] else 0) for u in units)
    return attempted, failed


def run_workload(name, seed, seconds, trace, tiny, deadline):
    """Run one workload; returns (result line dict, printable summary lines, detail dict)."""
    common = [name, str(seed)]
    if trace:
        detail = spawn(["trace", *common, str(int(tiny))], deadline)
        units = detail["units"] + [u for p in detail["probes"].values() for u in p["units"]]
        metrics = detail["metrics"]
    else:
        # Some set-up processes run before the workload and the rest after it,
        # so that the median spans the host's speed phases over the run.
        n_before = 1 if tiny else (SETUP_REPEATS + 1) // 2
        n_after = 0 if tiny else SETUP_REPEATS - n_before
        setups = [timed_setup(deadline) for _ in range(n_before)]
        detail = spawn(["run", *common, str(seconds), str(int(tiny))], deadline)
        setups += [timed_setup(deadline) for _ in range(n_after)]
        units = detail["units"]
        times = [u["time_s"] for u in units]
        run_s = statistics.median(times)
        metrics = {
            "setup_s": statistics.median(scaled for scaled, _ in setups),
            "run_s": run_s,
            "trials_per_s": units[0]["trials"] / run_s,
            "peak_rss_mb": detail["peak_rss_mb"],
        }
        detail["setup_samples"] = [scaled for scaled, _ in setups]
        detail["setup_wall_samples"] = [wall for _, wall in setups]
        detail["run_s_wall_median"] = statistics.median(u["wall_s"] for u in units)
        detail["run_s_samples"] = len(times)
        detail["run_s_tail"] = tail_percentile(times)
    digest_mismatches = check_digests(units)
    attempted, failed = account(units)
    detail.update(attempted=attempted, failed=failed, digest_mismatches=digest_mismatches)

    env = detail["env"]
    lines = [
        f"== {name}  seed={seed} trace={int(trace)}{' tiny' if tiny else ''}  workers={env['workers']} "
        f"blas_threads={env['blas_threads']} nproc={env['nproc']} numpy={env['numpy']} "
        f"scipy={env['scipy']} blas={env['blas']}"
    ]
    if trace:
        lines.append(
            f"  traced replay {detail['traced_s']:.3f} s vs untraced {detail['untraced_s']:.3f} s; "
            f"replay bitwise equal: {detail['replay_equal']}; {detail['spans']} spans in {detail['spans_file']}"
        )
        for metric in sorted(metrics):
            source = detail["metric_sources"][metric]
            note = "" if source == name else f"  (from {source})"
            lines.append(f"  {metric:40s} {metrics[metric]:.6g}{note}")
    else:
        n_runs = detail["run_s_samples"]
        tail = detail["run_s_tail"]
        tail_txt = f"{tail[0]} {tail[1]:.4f} s" if tail else "no percentile has 10 runs beyond it"
        lines += [
            f"  setup_s       {metrics['setup_s']:.4f} s    median of {len(setups)} set-ups at the reference host speed"
            f" (wall-clock median {statistics.median(detail['setup_wall_samples']):.4f} s)",
            f"  run_s         {metrics['run_s']:.4f} s    median of {n_runs} runs; {tail_txt}"
            + (f"; at the reference host speed (wall-clock median {detail['run_s_wall_median']:.4f} s)"
               if detail["host_scaled"] else ""),
            f"  trials_per_s  {metrics['trials_per_s']:.4f} 1/s  {units[0]['trials']} trials per run, {n_runs} runs",
            f"  peak_rss_mb   {metrics['peak_rss_mb']:.2f} MB   1 process",
        ]
    lines.append(f"  failed_frac   {failed / attempted:.6g}    {failed} of {attempted} operations")
    for unit in units:
        for err in unit["errors"]:
            lines.append(f"  FAILED seed {unit['seed']}: {err}")
    return {"attempted": attempted, "failed": failed, "metrics": metrics}, lines, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes: one trial per matrix workload")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "eigipr" / "__init__.py").is_file():
        print(f"error: no eigipr sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    unit_of = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for name in names:
        deadline = time.monotonic() + RUN_BUDGET_S
        try:
            line, lines, detail = run_workload(name, args.seed, args.seconds, args.trace, args.tiny, deadline)
        except ChildError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 2
        tag = f"{name}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
        (OUT / f"result-{tag}.json").write_text(json.dumps(detail, indent=1))
        print("\n".join(lines), flush=True)
        attempted += line["attempted"]
        failed += line["failed"]
        prefix = f"{name}." if args.workload == "all" else ""
        for metric, value in line["metrics"].items():
            metrics[prefix + metric] = {"value": value, "unit": unit_of[metric]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
