"""Command-line front end: seeded experiments, theory tables, CSV/JSON/SVG export.

Every run prints its fully resolved configuration (including the defaulted
seed) as JSON on stderr; feeding that JSON back through ``--config``
reproduces the outputs byte for byte.  Flags override config-file values, and
a null value in the file means the default.  A missing seed falls back to the
``IPR_RMT_SEED`` environment variable and then to OS entropy.

Exit codes: 0 success, 1 usage error, 2 runtime or data error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from . import ensembles, experiments, output, theory
from .core import _count, double_factorial_odd, factorial

__all__ = ["main"]

_REQUIRED = object()


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _split(value, sep):
    return value if isinstance(value, (list, tuple)) else str(value).split(sep)


def _int(value):
    """An int parameter: text in base 10, so ``"2.5"`` is refused, and a config file's number by `_count`."""
    return int(value, 10) if isinstance(value, str) else _count("value", value)


def _q_list(value):
    return tuple(sorted(_int_list(value)))


def _int_list(value):
    return [_int(p) for p in _split(value, ",")]


def _grid(value):
    lo, hi, n = _split(value, ":")
    lo, hi, n = float(lo), float(hi), _int(n)
    if not (math.isfinite(lo) and math.isfinite(hi) and n >= 1):
        raise ValueError(f"a grid needs finite endpoints and at least one point, got {lo}:{hi}:{n}")
    return lo, hi, n


def _seed(value):
    """A seed: a whole number in the range `RunConfig` accepts, whichever command takes it."""
    return _count("seed", _int(value), 0, experiments._MAX_SEED)


def _pair(value):
    a, b = _split(value, ",")
    return float(a), float(b)


_SPEC_FIELDS = dataclasses.fields(ensembles.EnsembleSpec)[2:]  # the fields past kind and N
# The parameters of the matrix commands, with each EnsembleSpec field's own default; compare takes those of its kinds.
_COMMON_RUN = {
    "ensemble": (str, _REQUIRED),
    "N": (_int, _REQUIRED),
    **{f.name: (_int if type(f.default) is int else type(f.default), f.default) for f in _SPEC_FIELDS},
    "trials": (_int, 10),
    "seed": (_seed, None),
    "workers": (_int, None),
    "out": (str, "-"),
}

# From the kind table: each command-line name's kind, and the kinds (kind -> name) that compare's elliptic law
# applies to.  compare takes no flag for a spec field that none of those kinds reads.
_KIND_OF_NAME = {name: kind for kind, (name, *_) in ensembles._KINDS.items()}
_COMPARED = {kind: name for kind, (name, *_, elliptic) in ensembles._KINDS.items() if elliptic}
_NOT_COMPARED = {f.name for f in _SPEC_FIELDS}.difference(*(ensembles._KINDS[kind][2] for kind in _COMPARED))

# The law parameters of the theory commands, and the two that share a grid.
_LAW = {"q": (_int, 2), "y": (float, _REQUIRED), "tau": (float, 0.0)}
_THEORY_CURVE = dict(_LAW, grid=(_grid, None), out=(str, "-"))


def _flag(key):
    return "--" + key.replace("_", "-")


def _build_parser():
    parser = _Parser(prog="eigipr", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (params, _) in _COMMANDS.items():
        # No prefix stands for a longer flag: --n is not --nu, nor --th --theta.
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--config", default=None, help="JSON file with parameter values")
        for key in params:
            p.add_argument(_flag(key), dest=key, default=None, type=str)
    return parser


def _join_flag_values(argv):
    """Rewrite each known ``--flag value`` pair as ``--flag=value``.

    Every flag takes exactly one value, so the token after a flag is its
    value even when it starts with ``-`` (``--grid -1:3:3``), which argparse
    would otherwise read as a flag.
    """
    known = {"--config"} | {_flag(key) for params, _ in _COMMANDS.values() for key in params}
    out = []
    tokens = iter(argv)
    for token in tokens:
        value = next(tokens, None) if token in known else None
        out.append(token if value is None else f"{token}={value}")
    return out


def _resolve(command, args):
    """Merge defaults, config file and explicit flags; convert types."""
    schema, _ = _COMMANDS[command]
    merged = {}
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file {args.config}: {exc}")
        if isinstance(cfg, dict) and "command" in cfg:
            if cfg["command"] != command:
                raise UsageError(
                    f"config file is for {cfg['command']!r}, not {command!r}"
                )
            cfg = cfg.get("params", {})
        if not isinstance(cfg, dict):
            raise UsageError(f"config file {args.config} must hold a JSON object of parameters")
        unknown = set(cfg) - set(schema)
        if unknown:
            raise UsageError(f"unknown config keys for {command}: {sorted(unknown)}")
        merged.update(cfg)
    for key in schema:
        flag_val = getattr(args, key)
        if flag_val is not None:
            merged[key] = flag_val
    params = {}
    for key, (conv, default) in schema.items():
        if merged.get(key) is not None:
            try:
                params[key] = conv(merged[key])
            except (TypeError, ValueError) as exc:
                raise UsageError(f"bad value for {_flag(key)}: {exc}")
        elif default is _REQUIRED:
            raise UsageError(f"{_flag(key)} is required")
        else:
            params[key] = default
    if "seed" in schema and params.get("seed") is None:
        env = os.environ.get("IPR_RMT_SEED")
        try:
            params["seed"] = _seed(env) if env else int.from_bytes(os.urandom(8), "little")
        except ValueError as exc:
            raise UsageError(f"bad value for IPR_RMT_SEED: {exc}")
    if "workers" in schema and params.get("workers") is None:
        params["workers"] = os.cpu_count() or 1
    return params


def _make_run_config(p, q_set, **bin_fields):
    """The `RunConfig` of a matrix command's parameters; a spec or bin field they do not set keeps its default."""
    spec = ensembles.EnsembleSpec(
        kind=_KIND_OF_NAME.get(p["ensemble"], p["ensemble"]),
        **{f.name: p.get(f.name, f.default) for f in dataclasses.fields(ensembles.EnsembleSpec)[1:]},
    )
    return experiments.RunConfig(
        spec=spec, trials=p["trials"], q_set=q_set, seed=p["seed"], workers=p["workers"], **bin_fields
    )


def _grid_points(p):
    if p["grid"] is None:
        return np.linspace(factorial(p["q"]), double_factorial_odd(p["q"]), 502)[1:-1]
    lo, hi, n = p["grid"]
    return np.linspace(lo, hi, n)


def _run_sample_spectrum(p):
    config = _make_run_config(p, p["q"])
    records = experiments.spectrum_ipr_map(config)
    output.write_records_csv(records, p["out"], q_set=p["q"])
    return 0


def _run_figure(p):
    records = experiments.spectrum_ipr_map(_make_run_config(p, (p["q"],)))
    output.write_svg_scatter(records, p["q"], p["out"])
    return 0


def _run_theory_curve(law, column, p):
    xs = _grid_points(p)
    output.write_table_csv(["x", column], zip(xs, law(p["q"], xs, p["y"], p["tau"])), p["out"])
    return 0


def _run_theory_sample(p):
    rng = np.random.default_rng(p["seed"])
    xs = theory.sample_ell(p["q"], p["y"], p["tau"], rng, size=p["n"])
    output.write_table_csv(["value"], zip(xs), p["out"])
    return 0


def _run_theory_mean(p):
    result = {
        "q": p["q"],
        "y": p["y"],
        "tau": p["tau"],
        "mean_limit": theory.mean_ipr_depletion_finite_N(math.inf, p["q"], p["y"], p["tau"]),
        "bulk_limit": float(factorial(p["q"])),
        "real_axis_limit": float(double_factorial_odd(p["q"])),
    }
    if p["N"] is not None:
        result["N"] = p["N"]
        result["mean_finite_N"] = theory.mean_ipr_depletion_finite_N(
            p["N"], p["q"], p["y"], p["tau"]
        )
    output.write_json(result, p["out"])
    return 0


def _run_compare(p):
    config = _make_run_config(p, (p["q"],), y_center=p["y"], rel_width=p["relwidth"], x_window=p["xwindow"])
    # A KS distance lies in [0, 1]: a threshold outside (0, 1] passes or fails every run.
    if not 0.0 < p["threshold"] <= 1.0:
        raise ValueError(f"compare needs a threshold in (0, 1], got {p['threshold']}")
    # The law tested is the elliptic one at the raw y and tau, which the kind
    # table marks; the other kinds need the local density of ROADMAP item 4 first.
    if config.spec.kind not in _COMPARED:
        raise ValueError(
            f"compare tests the elliptic law, which does not apply to {p['ensemble']}; it takes "
            f"{' or '.join(_COMPARED.values())} until ROADMAP item 4 (local universality) lands"
        )
    # The law's own domain, before any matrix is sampled.  It refuses tau = 1, where
    # the matrix is symmetric: no eigenvalue is off the real axis, and the law is undefined.
    theory._check_y_tau(p["y"], p["tau"])
    records = experiments.spectrum_ipr_map(config)
    dist = experiments.conditional_ipr(
        records, p["q"], p["y"], p["relwidth"], p["xwindow"], config.spec.N
    )
    ks = experiments.ks_distance(
        dist, lambda xs: theory.cdf_ell(p["q"], xs, p["y"], p["tau"])
    )
    output.write_json(
        {
            "ensemble": config.spec.kind,
            "N": config.spec.N,
            "tau": p["tau"],
            "q": p["q"],
            "y_center": p["y"],
            "rel_width": p["relwidth"],
            "x_window": p["xwindow"],
            "trials": p["trials"],
            "seed": p["seed"],
            "n_samples": dist.count,
            "ks_distance": ks,
            "threshold": p["threshold"],
            "pass": ks < p["threshold"],
            "summary": dist.summary(),
        },
        p["out"],
    )
    return 0


def _run_convergence(p):
    rng = np.random.default_rng(p["seed"])
    rows = experiments.convergence_study(
        p["q"], p["y"], p["tau"], p["N_list"], p["trials"], rng, st=p["st"]
    )
    columns = ["N", "mean", "std", "stderr", "theory_mean"]
    output.write_table_csv(columns, ([row[c] for c in columns] for row in rows), p["out"])
    return 0


# command -> (parameters, runner).  A parameter maps its name to
# (converter, default); _REQUIRED marks parameters with no default.
_COMMANDS = {
    "sample-spectrum": (dict(_COMMON_RUN, q=(_q_list, (2,))), _run_sample_spectrum),
    "figure": (dict(_COMMON_RUN, q=(_int, 2)), _run_figure),
    "theory-density": (_THEORY_CURVE, functools.partial(_run_theory_curve, theory.density_ell, "density")),
    "theory-cdf": (_THEORY_CURVE, functools.partial(_run_theory_curve, theory.cdf_ell, "cdf")),
    "theory-sample": (dict(_LAW, n=(_int, 10000), seed=(_seed, None), out=(str, "-")), _run_theory_sample),
    "theory-mean": (dict(_LAW, N=(_int, None), out=(str, "-")), _run_theory_mean),
    "compare": (
        dict(
            {key: value for key, value in _COMMON_RUN.items() if key not in _NOT_COMPARED},
            ensemble=(str, "elliptic"),
            trials=(_int, _REQUIRED),
            q=(_int, 2),
            y=(float, 0.5),
            relwidth=(float, 0.1),
            xwindow=(float, 0.5),
            threshold=(float, 0.06),
        ),
        _run_compare,
    ),
    "convergence": (
        dict(
            _LAW,
            y=(float, 0.5),
            N_list=(_int_list, [256, 1024, 4096]),
            trials=(_int, 1000),
            st=(_pair, None),
            seed=(_seed, None),
            out=(str, "-"),
        ),
        _run_convergence,
    ),
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_flag_values(sys.argv[1:] if argv is None else argv))
        params = _resolve(args.command, args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    echo = {"command": args.command, "params": params}
    print(json.dumps(echo, sort_keys=True, default=list), file=sys.stderr)
    try:
        return _COMMANDS[args.command][1](params)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
