"""The benchmark's three workloads: the calls each makes, its output checks and its traced replay.

An untraced unit drives the entry points users call: ``eigipr.cli.main`` for
the matrix commands and the top-level ``eigipr`` API for the laws.  The traced
replay repeats a unit's computation through the public layer functions, one
span per call, and must reproduce the unit's outputs bit for bit; otherwise the
per-layer numbers would describe code the end-to-end run did not execute.

Imported only by ``child.py``, after ``src`` is on ``sys.path``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np
from scipy.stats import kstwo

import eigipr
from eigipr import cli, ensembles, experiments, legendre, output, schur, theory
from eigipr.core import EigRecord, double_factorial_odd, factorial, ipr

# What the CLI uses when --workers is omitted; the benchmark never passes it.
WORKERS = os.cpu_count() or 1

# Nominal flops of one dense nonsymmetric eigensolve, per N**3: Golub & Van
# Loan's count for the real Schur form with Schur vectors, which dominates
# LAPACK geev.  The eigenvector back-substitution and the residual check inside
# eig_right are not counted, so the derived rate is labelled "computed".
EIG_FLOPS_PER_N3 = 25.0

# Per-unit significance level of the Kolmogorov-Smirnov check on the law
# sampler.  The sampler is exact, so a level of 1% would fail one correct unit
# in a hundred; a law_theory run makes about fifty units.
KS_LEVEL = 1e-6


@dataclasses.dataclass
class Unit:
    """One untraced workload unit: its seed, wall time, trial count and outputs."""

    seed: int
    wall_s: float
    trials: int
    outputs: dict
    argv: list = None
    path: object = None  # output file of a matrix command
    rc: int = 0


@contextmanager
def capture():
    """Keep what ``cli.main`` passes to and gets back from the experiments layer.

    Used only around the untraced reference units of a traced run, so the
    replay can be compared with the records and bin samples the CLI computed.
    """
    seen = {}
    real_map, real_cond = experiments.spectrum_ipr_map, experiments.conditional_ipr

    def spectrum_ipr_map(config):
        seen["config"] = config
        seen["records"] = real_map(config)
        return seen["records"]

    def conditional_ipr(*args):
        seen["dist"] = real_cond(*args)
        return seen["dist"]

    experiments.spectrum_ipr_map = spectrum_ipr_map
    experiments.conditional_ipr = conditional_ipr
    try:
        yield seen
    finally:
        experiments.spectrum_ipr_map = real_map
        experiments.conditional_ipr = real_cond


def records_digest(records, q_set):
    """SHA-256 over the records' columns, so equal digests mean bitwise-equal records."""
    h = hashlib.sha256()
    cols = [
        np.array([r.trial_id for r in records], dtype=np.int64),
        np.array([r.idx for r in records], dtype=np.int64),
        np.array([r.re_lambda for r in records], dtype=float),
        np.array([r.im_lambda for r in records], dtype=float),
        np.array([r.is_real_eig for r in records], dtype=bool),
        np.array([r.residual for r in records], dtype=float),
    ]
    cols += [np.array([r.ipr[q] for r in records], dtype=float) for q in q_set]
    for col in cols:
        h.update(col.tobytes())
    h.update(repr(sorted({tuple(sorted(r.ipr)) for r in records})).encode())
    return h.hexdigest()


def replay_cdf_ell(tracer, parent, q, ell, y, tau):
    """``theory.cdf_ell``: one ``g_inverse`` and one ``cdf_S`` call per point in the support."""
    with tracer.span("theory.cdf_ell", parent) as sid:
        ell = np.atleast_1d(np.asarray(ell, dtype=float))
        lo, hi = factorial(q), double_factorial_odd(q)
        out = np.where(ell >= hi, 1.0, 0.0)
        for i in np.flatnonzero((ell > lo) & (ell < hi)):
            x = tracer.call("legendre.g_inverse", sid, None, legendre.g_inverse, q, ell[i])
            out[i] = tracer.call("theory.cdf_S", sid, None, theory.cdf_S, x, y, tau)
    return out


def replay_density_ell(tracer, parent, q, ell, y, tau):
    """``theory.density_ell``: ``density_S / |phi|`` at ``g_inverse`` of each point in the support."""
    with tracer.span("theory.density_ell", parent) as sid:
        ell = np.atleast_1d(np.asarray(ell, dtype=float))
        lo, hi = factorial(q), double_factorial_odd(q)
        out = np.zeros_like(ell)
        for i in np.flatnonzero((ell > lo) & (ell < hi)):
            x = tracer.call("legendre.g_inverse", sid, None, legendre.g_inverse, q, ell[i])
            out[i] = theory.density_S(x, y, tau) / abs(legendre.phi(q, x))
    return out


def _per(total, count):
    return total / count if count else 0.0


def _mean(tot, name):
    """Mean seconds per span called `name`."""
    return _per(tot[name][1], tot[name][0])


class MatrixWorkload:
    """A matrix subcommand run through ``cli.main`` with the CLI's default workers."""

    command = ""
    suffix = ""
    # Unit times are reported as measured: with two pool threads each running
    # a two-thread OpenBLAS eigensolve on the host's cores, the time follows
    # the threads' scheduling more than the host speed that the single-thread
    # reference kernel of ``hostspeed`` tracks.
    host_scaled = False

    def __init__(self, name, params, trials, speedup_trials, traced_units):
        self.name = name
        self.params = params  # flag name -> value, besides --trials/--seed/--out
        self.trials = trials
        self.speedup_trials = speedup_trials
        self.traced_units = traced_units

    def shape(self):
        return {"command": self.command, **self.params, "trials": self.trials, "workers": WORKERS}

    def argv(self, seed, out):
        flags = [part for key, val in self.params.items() for part in ("--" + key, str(val))]
        return [self.command, *flags, "--trials", str(self.trials), "--seed", str(seed), "--out", str(out)]

    def config(self, seed):
        """The `RunConfig` the CLI builds from `argv`; the replay checks it against the captured one."""
        p = self.params
        spec = ensembles.EnsembleSpec(kind="elliptic_real", N=p["N"], tau=float(p["tau"]))
        q_set = tuple(sorted(int(q) for q in str(p["q"]).split(",")))
        return experiments.RunConfig(
            spec=spec,
            trials=self.trials,
            q_set=q_set,
            seed=seed,
            y_center=float(p.get("y", 0.5)),
            rel_width=float(p.get("relwidth", 0.1)),
            x_window=float(p.get("xwindow", 0.5)),
            workers=WORKERS,
        )

    def run(self, seed, tmp):
        path = tmp / f"{self.name}-{seed}{self.suffix}"
        argv = self.argv(seed, path)
        start = time.perf_counter()
        rc = cli.main(argv)
        wall = time.perf_counter() - start
        data = path.read_bytes() if rc == 0 else b""
        return Unit(seed, wall, self.trials, {"data": data}, argv=argv, path=path, rc=rc)

    def digest(self, unit):
        return hashlib.sha256(unit.outputs["data"]).hexdigest()

    def check(self, unit):
        if unit.rc != 0:
            return [f"cli.main exited with {unit.rc}"]
        return self.check_output(unit)

    # -- traced replay ----------------------------------------------------

    def replay_records(self, tracer, parent, config):
        """`experiments.spectrum_ipr_map`, one span per trial and per layer call."""
        per_trial = [None] * config.trials

        with tracer.span("experiments.spectrum_ipr_map", parent) as map_id:

            def trial(t):
                with tracer.span("experiments.trial", map_id, t) as sid:
                    rng = experiments.trial_rng(config.seed, t)
                    mat = tracer.call("ensembles.sample", sid, t, ensembles.sample, config.spec, rng)
                    try:
                        w, v, res = tracer.call("experiments.eig_right", sid, t, experiments.eig_right, mat)
                    except np.linalg.LinAlgError:
                        return
                    if res.max() > experiments.RESIDUAL_RTOL:
                        return
                    if np.iscomplexobj(mat):
                        entries = [(complex(w[k]), k, False) for k in range(w.size)]
                    else:
                        fro = np.linalg.norm(mat, "fro")
                        entries = tracer.call(
                            "experiments.realness_threshold", sid, t, experiments.realness_threshold, w, fro
                        )
                    recs = []
                    for idx, (lam, k, is_real) in enumerate(entries):
                        vec = v[:, k]
                        recs.append(
                            EigRecord(
                                trial_id=t,
                                idx=idx,
                                re_lambda=lam.real,
                                im_lambda=lam.imag,
                                is_real_eig=is_real,
                                ipr={q: tracer.call("core.ipr", sid, t, ipr, vec, q) for q in config.q_set},
                                residual=float(res[k]),
                            )
                        )
                    per_trial[t] = recs

            if config.workers > 1:
                with ThreadPoolExecutor(max_workers=config.workers) as pool:
                    list(pool.map(trial, range(config.trials)))
            else:
                for t in range(config.trials):
                    trial(t)
        return [rec for recs in per_trial if recs is not None for rec in recs]

    def replay(self, tracer, root, unit, tmp):
        config = self.config(unit.seed)
        records = self.replay_records(tracer, root, config)
        got = {"config": config, "records": records}
        got.update(self.replay_tail(tracer, root, config, records, unit, tmp))
        return got

    def compare(self, unit, seen, got):
        """Mismatches between the CLI's unit and its replay; empty when bitwise equal."""
        bad = []
        if seen.get("config") != got["config"]:
            bad.append("RunConfig differs from the one the CLI built")
        q_set = got["config"].q_set
        if records_digest(seen.get("records", []), q_set) != records_digest(got["records"], q_set):
            bad.append("records differ from spectrum_ipr_map")
        return bad + self.compare_tail(unit, seen, got)

    def layer_metrics(self, tracer, replays):
        tot = tracer.totals()
        trials = sum(r["config"].trials for r in replays)
        n = replays[0]["config"].spec.N
        records = [rec for r in replays for rec in r["records"]]
        trial_ms = np.array(tracer.durations("experiments.trial")) * 1e3
        eig_count, eig_s = tot["experiments.eig_right"]
        return {
            "ensembles.sample_ms": _per(tot["ensembles.sample"][1], trials) * 1e3,
            "experiments.eig_right_ms": _per(eig_s, trials) * 1e3,
            "experiments.trial_ms_p50": float(np.percentile(trial_ms, 50)),
            "experiments.trial_ms_p90": float(np.percentile(trial_ms, 90)),
            "experiments.pool_busy_frac": _per(
                tot["experiments.trial"][1], tot["experiments.spectrum_ipr_map"][1] * WORKERS
            ),
            "experiments.eig_gflops_computed": _per(EIG_FLOPS_PER_N3 * n**3 * eig_count, eig_s) / 1e9,
            "experiments.realness_threshold_ms": _per(tot["experiments.realness_threshold"][1], trials) * 1e3,
            "experiments.snapped_real_count": sum(rec.is_real_eig for rec in records),
            "experiments.residual_max_frac": max(rec.residual for rec in records) / experiments.RESIDUAL_RTOL,
            "core.ipr_ms": _per(tot["core.ipr"][1], trials) * 1e3,
            "core.ipr_calls": tot["core.ipr"][0],
            **self.tail_metrics(tot, replays, trials, n),
        }

    def parallel_speedup(self, seed):
        """Trial throughput at the default workers divided by that at one worker, same trials."""
        config = dataclasses.replace(self.config(seed), trials=self.speedup_trials)
        walls = {}
        for workers in (1, WORKERS):
            start = time.perf_counter()
            experiments.spectrum_ipr_map(dataclasses.replace(config, workers=workers))
            walls[workers] = time.perf_counter() - start
        return walls[1] / walls[WORKERS]


class BandCompare(MatrixWorkload):
    """``compare``: binned matrix IPRs against the exact law, KS distance as JSON."""

    command = "compare"
    suffix = ".json"
    THRESHOLD = 0.06  # the CLI's default --threshold, echoed in the report

    def check_output(self, unit):
        report = json.loads(unit.outputs["data"])
        if report["n_samples"] < 100:
            return [f"n_samples {report['n_samples']} < 100"]
        return []

    def replay_tail(self, tracer, root, config, records, unit, tmp):
        q, y, tau = config.q_set[0], config.y_center, config.spec.tau
        dist = tracer.call(
            "experiments.conditional_ipr",
            root,
            None,
            experiments.conditional_ipr,
            records,
            q,
            y,
            config.rel_width,
            config.x_window,
            config.spec.N,
        )
        cdf = {}
        with tracer.span("experiments.ks_distance", root) as ks_id:
            ks = experiments.ks_distance(
                dist, lambda xs: cdf.setdefault("values", replay_cdf_ell(tracer, ks_id, q, xs, y, tau))
            )
        report = {
            "ensemble": config.spec.kind,
            "N": config.spec.N,
            "tau": tau,
            "q": q,
            "y_center": y,
            "rel_width": config.rel_width,
            "x_window": config.x_window,
            "trials": config.trials,
            "seed": config.seed,
            "n_samples": dist.count,
            "ks_distance": ks,
            "threshold": self.THRESHOLD,
            "pass": ks < self.THRESHOLD,
            "summary": dist.summary(),
        }
        return {"dist": dist, "cdf": cdf["values"], "report": report}

    def compare_tail(self, unit, seen, got):
        bad = []
        ref = seen["dist"].values
        if ref.tobytes() != got["dist"].values.tobytes():
            bad.append("bin samples differ from conditional_ipr")
        c = got["config"]
        if theory.cdf_ell(c.q_set[0], ref, c.y_center, c.spec.tau).tobytes() != got["cdf"].tobytes():
            bad.append("CDF values differ from cdf_ell")
        if json.loads(unit.outputs["data"]) != got["report"]:
            bad.append("compare report differs")
        return bad

    def tail_metrics(self, tot, replays, trials, n):
        points = sum(r["dist"].count for r in replays)
        return {
            "experiments.bin_yield": _per(points, n * trials),
            "experiments.conditional_ipr_ms": _mean(tot, "experiments.conditional_ipr") * 1e3,
            "theory.cdf_ell_us_per_pt": _per(tot["theory.cdf_ell"][1], points) * 1e6,
            "theory.cdf_S_us": _mean(tot, "theory.cdf_S") * 1e6,
            "legendre.g_inverse_us": _mean(tot, "legendre.g_inverse") * 1e6,
        }


class RecordsSmallN(MatrixWorkload):
    """``sample-spectrum``: every eigenvalue record written as CSV."""

    command = "sample-spectrum"
    suffix = ".csv"

    def check_output(self, unit):
        bad = []
        records = output.read_records_csv(unit.path)
        q_set = self.config(unit.seed).q_set
        again = unit.path.with_suffix(".again.csv")
        try:
            output.write_records_csv(records, again, q_set=q_set)
            if again.read_bytes() != unit.outputs["data"]:
                bad.append("CSV does not round-trip through read_records_csv")
        finally:
            again.unlink(missing_ok=True)
        n = self.params["N"]
        for rec in records:
            for q in q_set:
                if not 1.0 <= rec.ipr[q] <= float(n) ** (q - 1):
                    bad.append(f"trial {rec.trial_id} idx {rec.idx}: ipr_q{q} = {rec.ipr[q]!r} outside [1, N^(q-1)]")
            if not rec.residual <= experiments.RESIDUAL_RTOL:
                bad.append(f"trial {rec.trial_id} idx {rec.idx}: residual {rec.residual!r} above RESIDUAL_RTOL")
            if not rec.is_real_eig and not rec.im_lambda > 0.0:
                bad.append(f"trial {rec.trial_id} idx {rec.idx}: complex record with im <= 0")
        return bad

    def replay_tail(self, tracer, root, config, records, unit, tmp):
        path = tmp / f"replay-{unit.seed}.csv"
        try:
            tracer.call("output.write_records_csv", root, None, output.write_records_csv, records, path, config.q_set)
            data = path.read_bytes()
        finally:
            path.unlink(missing_ok=True)
        return {"csv": data}

    def compare_tail(self, unit, seen, got):
        return [] if got["csv"] == unit.outputs["data"] else ["CSV bytes differ from sample-spectrum"]

    def tail_metrics(self, tot, replays, trials, n):
        return {
            "output.write_records_csv_ms": _mean(tot, "output.write_records_csv") * 1e3,
            "output.csv_bytes": _per(sum(len(r["csv"]) for r in replays), len(replays)),
        }


class LawTheory:
    """The exact laws through the top-level API: sampler vs CDF, density grid, convergence study."""

    name = "law_theory"
    # Single-threaded Python and NumPy, so its unit times follow the host
    # speed that ``hostspeed`` tracks; they are reported at the reference speed.
    host_scaled = True

    def __init__(self, q, y, tau, draws, grid_points, n_list, conv_trials, traced_units):
        self.q, self.y, self.tau = q, y, tau
        self.draws = draws
        lo, hi = factorial(q), double_factorial_odd(q)
        self.grid = np.linspace(lo, hi, grid_points + 2)[1:-1]
        self.n_list = n_list
        self.conv_trials = conv_trials
        self.trials = conv_trials * len(n_list)  # synthetic eigenvectors per unit
        self.traced_units = traced_units

    def shape(self):
        return {
            "api": "sample_ell, ks_distance(cdf_ell), density_ell, convergence_study",
            "q": self.q,
            "y": self.y,
            "tau": self.tau,
            "draws": self.draws,
            "grid_points": self.grid.size,
            "N_list": self.n_list,
            "convergence_trials": self.conv_trials,
        }

    @staticmethod
    def rngs(seed):
        return np.random.default_rng([seed, 0]), np.random.default_rng([seed, 1])

    def run(self, seed, tmp):
        q, y, tau = self.q, self.y, self.tau
        draw_rng, conv_rng = self.rngs(seed)
        start = time.perf_counter()
        xs = eigipr.sample_ell(q, y, tau, draw_rng, size=self.draws)
        dist = eigipr.EmpiricalDist.from_samples(xs)
        ks = eigipr.ks_distance(dist, lambda e: eigipr.cdf_ell(q, e, y, tau))
        dens = eigipr.density_ell(q, self.grid, y, tau)
        rows = eigipr.convergence_study(q, y, tau, self.n_list, self.conv_trials, conv_rng)
        wall = time.perf_counter() - start
        return Unit(seed, wall, self.trials, {"draws": xs, "dist": dist, "ks": ks, "density": dens, "rows": rows})

    def digest(self, unit):
        out = unit.outputs
        h = hashlib.sha256(out["draws"].tobytes())
        h.update(repr(out["ks"]).encode())
        h.update(out["density"].tobytes())
        h.update(json.dumps(out["rows"]).encode())
        return h.hexdigest()

    def check(self, unit):
        ks, n = unit.outputs["ks"], self.draws
        crit = float(kstwo.isf(KS_LEVEL, n))
        return [] if ks < crit else [f"KS {ks:.4f} >= critical value {crit:.4f} (level {KS_LEVEL:g}, n={n})"]

    def replay(self, tracer, root, unit, tmp):
        q, y, tau = self.q, self.y, self.tau
        draw_rng, conv_rng = self.rngs(unit.seed)
        with tracer.span("theory.sample_ell", root) as sid:
            s = tracer.call("theory.sample_S", sid, None, theory.sample_S, y, tau, draw_rng, size=self.draws)
            xs = tracer.call("legendre.g", sid, None, legendre.g, q, s)
        dist = eigipr.EmpiricalDist.from_samples(xs)
        cdf = {}
        with tracer.span("experiments.ks_distance", root) as ks_id:
            ks = experiments.ks_distance(
                dist, lambda e: cdf.setdefault("values", replay_cdf_ell(tracer, ks_id, q, e, y, tau))
            )
        dens = replay_density_ell(tracer, root, q, self.grid, y, tau)
        rows = []
        with tracer.span("experiments.convergence_study", root) as conv_id:
            trial = 0
            for n in self.n_list:
                vals = np.empty(self.conv_trials)
                for k in range(self.conv_trials):
                    vec, _ = tracer.call(
                        "schur.synthetic_eigvec_sample", conv_id, trial, schur.synthetic_eigvec_sample, n, y, tau, conv_rng
                    )
                    vals[k] = tracer.call("core.ipr", conv_id, trial, ipr, vec, q)
                    trial += 1
                std = float(vals.std(ddof=1))
                rows.append(
                    {
                        "N": n,
                        "mean": float(vals.mean()),
                        "std": std,
                        "stderr": std / math.sqrt(self.conv_trials),
                        "theory_mean": float(theory.mean_ipr_depletion_finite_N(n, q, y, tau)),
                    }
                )
        return {"draws": xs, "dist": dist, "cdf": cdf["values"], "ks": ks, "density": dens, "rows": rows}

    def compare(self, unit, seen, got):
        out, bad = unit.outputs, []
        if out["draws"].tobytes() != got["draws"].tobytes():
            bad.append("draws differ from sample_ell")
        ref_cdf = eigipr.cdf_ell(self.q, out["dist"].values, self.y, self.tau)
        if ref_cdf.tobytes() != got["cdf"].tobytes():
            bad.append("CDF values differ from cdf_ell")
        if out["ks"] != got["ks"]:
            bad.append("KS distance differs")
        if out["density"].tobytes() != got["density"].tobytes():
            bad.append("density values differ from density_ell")
        if json.dumps(out["rows"]) != json.dumps(got["rows"]):
            bad.append("rows differ from convergence_study")
        return bad

    def layer_metrics(self, tracer, replays):
        tot = tracer.totals()
        draws = self.draws * len(replays)
        trials = self.trials * len(replays)
        return {
            "theory.cdf_ell_us_per_pt": _per(tot["theory.cdf_ell"][1], draws) * 1e6,
            "theory.density_ell_us_per_pt": _per(tot["theory.density_ell"][1], self.grid.size * len(replays)) * 1e6,
            "theory.cdf_S_us": _mean(tot, "theory.cdf_S") * 1e6,
            "theory.sample_ell_ns_per_draw": _per(tot["theory.sample_ell"][1], draws) * 1e9,
            "legendre.g_inverse_us": _mean(tot, "legendre.g_inverse") * 1e6,
            "legendre.g_us": _mean(tot, "legendre.g") * 1e6,
            "schur.synthetic_us_per_vec": _per(tot["schur.synthetic_eigvec_sample"][1], trials) * 1e6,
            "core.ipr_ms": _per(tot["core.ipr"][1], trials) * 1e3,
            "core.ipr_calls": tot["core.ipr"][0],
        }


def make(name, tiny=False):
    """The workload called `name`, at its benchmark size or at the self-test size."""
    if name == "band_compare":
        # The paper's headline check (criterion 07 shape) with a wider bin in
        # Re: see README for why xwindow is 0.9 rather than 0.5.
        params = {"ensemble": "elliptic", "N": 400, "tau": 0, "q": 2, "y": 0.5, "relwidth": 0.1, "xwindow": 0.9}
        if tiny:
            # One trial must still fill the 100-sample floor: a band covering
            # almost every upper-half-plane eigenvalue.
            params.update(N=300, y=10.0, relwidth=0.95, xwindow=2.0)
            return BandCompare(name, params, trials=1, speedup_trials=1, traced_units=1)
        return BandCompare(name, params, trials=210, speedup_trials=12, traced_units=1)
    if name == "records_small_n":
        params = {"ensemble": "elliptic", "N": 100, "tau": 0.5, "q": "2,3,4"}
        if tiny:
            params.update(N=32)
            return RecordsSmallN(name, params, trials=1, speedup_trials=1, traced_units=1)
        return RecordsSmallN(name, params, trials=50, speedup_trials=50, traced_units=3)
    if name == "law_theory":
        if tiny:
            return LawTheory(3, 1.0, 0.0, draws=200, grid_points=20, n_list=[16, 64], conv_trials=20, traced_units=1)
        return LawTheory(3, 1.0, 0.0, draws=5000, grid_points=400, n_list=[100, 400, 1600], conv_trials=400, traced_units=3)
    raise ValueError(f"unknown workload {name!r}")
