"""Golden sha256 digests of fixed-seed command outputs, so every byte of every output is checked on each run.

The digests hold in the environment recorded beside them in ``golden.json``:
the numpy and scipy versions, and the core and build config of numpy's
OpenBLAS, on which the bits of ``eig`` depend.  In another environment the
test skips and names what differs.  A change that alters a stream on purpose
rewrites the file with ``PYTHONPATH=src python tests/test_golden.py`` and
names each output whose digest moved.
"""

import contextlib
import ctypes
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from eigipr.cli import main
from eigipr.experiments import _openblas

GOLDEN = Path(__file__).with_name("golden.json")

_MATRIX = ["--N", "24", "--trials", "6", "--seed", "5"]

# output file -> the command that writes it.  Each run passes --seed and --workers, so its echo is fixed too.
RUNS = {
    "elliptic.csv": [
        "sample-spectrum", "--ensemble", "elliptic", "--tau", "0.5", "--q", "2,3", *_MATRIX, "--workers", "2"
    ],
    "induced.csv": ["sample-spectrum", "--ensemble", "induced", "--nu", "3", *_MATRIX, "--workers", "1"],
    "permutation_sum.csv": [
        "sample-spectrum", "--ensemble", "permutation-sum", "--d", "2", "--theta", "8", *_MATRIX, "--workers", "2"
    ],
    "figure.svg": ["figure", "--ensemble", "elliptic", "--q", "3", *_MATRIX, "--workers", "1"],
    "compare.json": [
        "compare", "--N", "60", "--trials", "80", "--relwidth", "0.5", "--xwindow", "0.9",
        "--seed", "7", "--workers", "2",
    ],
    "density.csv": ["theory-density", "--q", "3", "--y", "0.5", "--tau", "0.3"],
    "cdf.csv": ["theory-cdf", "--q", "2", "--y", "1.0"],
    "mean.json": ["theory-mean", "--q", "2", "--y", "0.5", "--N", "400"],
    "sample.csv": ["theory-sample", "--q", "3", "--y", "1", "--n", "1000", "--seed", "11"],
    "convergence.csv": ["convergence", "--N-list", "16,64", "--trials", "200", "--seed", "13"],
    "convergence_st.csv": ["convergence", "--N-list", "16,64", "--trials", "200", "--seed", "13", "--st", "0.6,0.8"],
}


def environment():
    """What the digests depend on besides the source: numpy, scipy, and numpy's OpenBLAS core and config."""
    env = {"numpy": np.__version__, "scipy": scipy.__version__, "openblas_core": None, "openblas_config": None}
    lib = _openblas()  # the library whose thread count importing eigipr.experiments pins to one
    core = getattr(lib, "scipy_openblas_get_corename64_", None)
    config = getattr(lib, "scipy_openblas_get_config64_", None)
    if core is not None and config is not None:
        core.restype = config.restype = ctypes.c_char_p
        env.update(openblas_core=core().decode(), openblas_config=config().decode())
    return env


def digests(out_dir):
    """Run every command of `RUNS` into ``out_dir``: the sha256 of each output and of its stderr echo.

    The echo names the output path, which is written as ``<out>`` before hashing.
    """
    found = {}
    for name, argv in RUNS.items():
        path = Path(out_dir) / name
        with contextlib.redirect_stderr(io.StringIO()) as err:
            status = main([*argv, "--out", str(path)])
        assert status == 0, f"{name}: {err.getvalue()}"
        found[name] = hashlib.sha256(path.read_bytes()).hexdigest()
        found[name + ".err"] = hashlib.sha256(err.getvalue().replace(str(path), "<out>").encode("utf-8")).hexdigest()
    return found


def test_outputs_match_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    env = environment()
    differs = {key: (want, env[key]) for key, want in golden["environment"].items() if env[key] != want}
    if differs:
        pytest.skip(f"digests recorded in another environment (recorded, here): {differs}")
    found = digests(tmp_path)
    assert sorted(found) == sorted(golden["digests"])
    moved = [name for name in found if found[name] != golden["digests"][name]]
    assert moved == [], f"outputs whose bytes changed: {moved}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as out_dir:
        found = digests(out_dir)
    GOLDEN.write_text(json.dumps({"environment": environment(), "digests": found}, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(found)} digests to {GOLDEN}")
