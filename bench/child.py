"""One benchmark process: set up eigipr, then run or trace one workload.

Started by ``run.py``, never by hand.  Prints one JSON object as the last line
of its standard output.

    python3 bench/child.py setup
    python3 bench/child.py run   <workload> <seed> <seconds> <tiny 0|1>
    python3 bench/child.py trace <workload> <seed> <tiny 0|1>
"""

import hashlib
import json
import logging
import os
import resource
import sys
import tempfile
import time
from pathlib import Path

import hostspeed
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("band_compare", "records_small_n", "law_theory")


def set_up():
    """Import eigipr from this checkout and make one warm-up call; returns seconds taken.

    The warm-up is a two-trial N=64 `spectrum_ipr_map` at the CLI's default
    worker count, which starts the BLAS threads and the thread pool.
    """
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import eigipr

    workers = os.cpu_count() or 1
    spec = eigipr.EnsembleSpec(kind="elliptic_real", N=64)
    eigipr.spectrum_ipr_map(eigipr.RunConfig(spec=spec, trials=max(2, workers), workers=workers))
    took = time.perf_counter() - start
    if Path(eigipr.__file__).resolve().parent != SRC / "eigipr":
        raise SystemExit(f"eigipr was imported from {eigipr.__file__}, not from {SRC}")
    return took


def unit_seed(seed, unit):
    """The seed of unit `unit` of a run: a 63-bit hash of (run seed, unit index)."""
    digest = hashlib.sha256(f"{seed}:{unit}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def variant(wl):
    """Workload name plus a hash of its shape: units of different sizes never share a digest key."""
    shape = json.dumps(wl.shape(), sort_keys=True).encode()
    return f"{wl.name}/{hashlib.sha256(shape).hexdigest()[:12]}"


class SkipCounter:
    """Counts the trials `spectrum_ipr_map` skips, from the warning it logs for each."""

    def __init__(self):
        self.count = 0
        handler = logging.Handler(logging.WARNING)
        handler.emit = self._emit
        logging.getLogger("eigipr.experiments").addHandler(handler)

    def _emit(self, record):
        # Handler.handle holds the handler's lock around emit, so pool threads
        # cannot lose an increment.
        if "skipped" in record.getMessage():
            self.count += 1


def run_units(wl, seed, seconds, tmp, skips):
    """Untraced units with seeds unit_seed(seed, 0), (seed, 1), ... until `seconds` have passed."""
    units = []
    ref_before = hostspeed.reference_s()
    start = time.perf_counter()
    while not units or time.perf_counter() - start < seconds:
        before = skips.count
        unit = wl.run(unit_seed(seed, len(units)), tmp)
        ref_after = hostspeed.reference_s()
        scaled_s = hostspeed.scaled(unit.wall_s, ref_before, ref_after)
        errors = wl.check(unit)
        if unit.path is not None:
            unit.path.unlink(missing_ok=True)
        units.append(
            {
                "workload": variant(wl),
                "seed": unit.seed,
                "argv": unit.argv,
                "wall_s": unit.wall_s,
                "ref_s": [ref_before, ref_after],
                "scaled_s": scaled_s,
                "time_s": scaled_s if wl.host_scaled else unit.wall_s,
                "trials": unit.trials,
                "skipped": skips.count - before,
                "errors": errors,
                "digest": wl.digest(unit) if not errors else None,
            }
        )
        ref_before = ref_after
    return units


def trace_workload(wl, seed, tmp, skips, spans_path):
    """Reference units (untraced) then their traced replay; returns units, metrics and mismatches."""
    import workloads

    tracer = Tracer()
    units, replays, mismatches, roots = [], [], [], []
    ref_s = rep_s = 0.0
    for u in range(wl.traced_units):
        before = skips.count
        with workloads.capture() as seen:
            unit = wl.run(unit_seed(seed, u), tmp)
        errors = wl.check(unit)
        if errors:
            # Without a correct reference there is nothing to replay or compare.
            raise SystemExit(f"{wl.name} reference unit {u} failed its checks: {errors}")
        start = time.perf_counter()
        with tracer.span(f"root.{wl.name}", None, None) as root:
            got = wl.replay(tracer, root, unit, tmp)
        replay_s = time.perf_counter() - start
        ref_s += unit.wall_s
        rep_s += replay_s
        roots.append(root)
        replays.append(got)
        bad = wl.compare(unit, seen, got)
        mismatches += [f"unit {u}: {msg}" for msg in bad]
        if unit.path is not None:
            unit.path.unlink(missing_ok=True)
        units.append(
            {
                "workload": variant(wl),
                "seed": unit.seed,
                "argv": unit.argv,
                "wall_s": unit.wall_s,
                "replay_s": replay_s,
                "trials": unit.trials,
                "skipped": skips.count - before,
                "errors": [f"replay: {msg}" for msg in bad],
                "digest": wl.digest(unit),
            }
        )
    metrics = wl.layer_metrics(tracer, replays)
    metrics["cli.self_ms"] = sum(tracer.self_time(r) for r in roots) / len(roots) * 1e3
    metrics["trace.overhead_frac"] = (rep_s - ref_s) / ref_s
    if hasattr(wl, "parallel_speedup"):
        metrics["experiments.parallel_speedup"] = wl.parallel_speedup(unit_seed(seed, 0))
    tracer.write(spans_path, wl.name)
    return {
        "units": units,
        "metrics": metrics,
        "replay_equal": not mismatches,
        "untraced_s": ref_s,
        "traced_s": rep_s,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }


def main(argv):
    mode = argv[0]
    setup_s = set_up()
    if mode == "setup":
        return {"setup_s": setup_s}

    import environment
    import workloads

    name, seed = argv[1], int(argv[2])
    tiny = argv[-1] == "1"
    wl = workloads.make(name, tiny=tiny)
    skips = SkipCounter()
    OUT.mkdir(exist_ok=True)
    result = {"setup_s": setup_s, "env": environment.describe(), "shape": wl.shape()}
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        tmp = Path(tmp)
        if mode == "run":
            result["units"] = run_units(wl, seed, float(argv[3]), tmp, skips)
            result["host_scaled"] = wl.host_scaled
        else:
            tag = f"{name}-seed{seed}{'-tiny' if tiny else ''}"
            main_trace = trace_workload(wl, seed, tmp, skips, OUT / f"spans-{tag}.jsonl")
            result.update(main_trace)
            # A traced run reports every per-layer metric.  A layer this
            # workload never calls is timed by the self-test-size replay of a
            # workload that does call it; `metric_sources` says which.
            sources = {m: name for m in main_trace["metrics"]}
            result["probes"] = {}
            for other in WORKLOADS:
                if other == name:
                    continue
                probe = trace_workload(
                    workloads.make(other, tiny=True), seed, tmp, skips, OUT / f"spans-{tag}-probe-{other}.jsonl"
                )
                result["probes"][other] = probe
                for metric, value in probe["metrics"].items():
                    if metric not in result["metrics"]:
                        result["metrics"][metric] = value
                        sources[metric] = f"{other}@selftest-size"
            result["metric_sources"] = sources
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
