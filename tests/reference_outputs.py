"""Committed reference outputs of the CLI, and the script that regenerates them.

Each run in ``RUNS`` is a CLI command run with ``--out-dir out --reproducible``
from a directory of its own, so the manifest's output paths are relative
(``out/...``).  ``tests/reference/<run>/`` holds the CSV, JSON and SVG files
it wrote and its stdout (``stdout.txt``); ``tests/test_reference.py`` reruns
every command and compares.  A change that moves an output on purpose
regenerates the files, and the diff states the change:

    python tests/reference_outputs.py

The runs are made in one fresh interpreter pinned to the code paths of an
AVX2 CPU (``PINNED_ENV``): numpy's and scipy's OpenBLAS to their Haswell
kernels on one thread, and numpy's own SIMD loops to the X86_V3 level.  Left
to themselves, both pick their code by the CPU, and the choices round
differently: some ring outputs move by up to 3.5e-8 relative between
OpenBLAS's SkylakeX and Haswell kernels, and by up to 1.4e-8 between numpy's
X86_V4 (AVX-512) and X86_V3 loops.  Every x86-64 CPU at the X86_V3 level
(AVX2, FMA) runs these; on any other machine, or where the BLAS is not the
wheels' OpenBLAS, the runs are not made and ``KernelUnavailable`` says why.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
SRC_DIR = Path(__file__).resolve().parents[1] / "src"
STDOUT = "stdout.txt"
PINNED_ENV = {"OPENBLAS_CORETYPE": "Haswell", "OPENBLAS_NUM_THREADS": "1",
              "NPY_ENABLE_CPU_FEATURES": "X86_V3"}
# what a run under PINNED_ENV reports from _kernels()
KERNELS = {"numpy": "Haswell", "scipy": "Haswell", "numpy SIMD": "X86_V3"}

# run -> (argv, why the output is known to be wrong, or None)
RUNS = {
    # the README's nine commands
    "chain-spectrum": ("chain-spectrum --d 1 --alpha 1 --l 24", None),
    "transfer-chain": ("transfer --protocol chain --d 1 --alpha 1.2 --l 24 --epsilon 0.01", None),
    "transfer-uniform": ("transfer --protocol uniform --d 1 --alpha 0 --L 4", None),
    "transfer-ring-d1": ("transfer --protocol ring --d 1 --alpha 1 --L 100 --g 0.02", None),
    "transfer-ring-d3": ("transfer --protocol ring --d 3 --alpha 1 --L 8 --g 0.02", None),
    "fig2bcd-0.2": ("sweep --experiment fig2bcd --alpha-minus-d 0.2", None),
    "fig2bcd-deep": ("sweep --experiment fig2bcd --alpha-minus-d 0.5 --l-max 1022", None),
    "figS2b": ("sweep --experiment figS2b", None),
    "figS3-alpha1": ("sweep --experiment figS3 --alpha 1", None),
    # the other default sweeps
    "fig2a": ("sweep --experiment fig2a", None),
    "figS2a": ("sweep --experiment figS2a", None),
    "figS2c": ("sweep --experiment figS2c", None),
    "figS3": ("sweep --experiment figS3", None),
    # known wrong: kept so that their fixes show as diffs (ROADMAP items 13, 16)
    "transfer-chain-guard-edge": (
        "transfer --protocol chain --d 1 --alpha 0.5 --l 84 --epsilon 0.01",
        "the dense exact transfer at the precision guard's edge: infidelity_exact "
        "0.0135308, where 60-digit mpmath gives 0.00218198 (item 13)"),
    "fig2a-g1e-8": (
        "sweep --experiment fig2a --l 8 --g-min 1e-8 --g-max 1e-8 --g-points 1",
        "relative_ok FAIL: the relative check divides by an exact infidelity at the "
        "roundoff floor of 1 - |A|^2 (item 16)"),
}


class KernelUnavailable(Exception):
    """The runs cannot be made under the pinned kernels on this machine."""


def make(target: Path) -> None:
    """Make every run into ``target/<run>/`` (its files and ``stdout.txt``)
    in a fresh interpreter under ``PINNED_ENV``."""
    if not _cpu_features().get("X86_V3"):  # numpy would refuse PINNED_ENV
        raise KernelUnavailable(f"the references are made with {KERNELS}, which need "
                                "an x86-64 CPU with AVX2 and FMA and a numpy that names "
                                "its X86_V3 level")
    path = os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, __file__, "--make", str(target)],
                          env={**os.environ, **PINNED_ENV, "PYTHONPATH": path},
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"the reference runs failed:\n{done.stderr}")
    kernels = json.loads(done.stdout)
    if kernels != KERNELS:
        raise KernelUnavailable(f"the references are made with {KERNELS}; pinned "
                                f"to them, this machine runs {kernels}")


def _cpu_features() -> dict[str, bool]:
    """numpy's SIMD levels and CPU features -> whether its loops use them."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy before 2.0
        return {}
    return __cpu_features__


def _kernels() -> dict[str, str | None]:
    """The kernels each OpenBLAS runs and numpy's highest SIMD level, each
    None where there is none to ask (a BLAS other than the wheels' OpenBLAS,
    a numpy that does not name the levels)."""
    import ctypes

    import numpy
    import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS)

    site = Path(numpy.__file__).resolve().parents[1]
    features = _cpu_features()
    found = {"numpy SIMD": next((f for f in ("X86_V4", "X86_V3") if features.get(f)), None)}
    for lib, symbol in (("numpy", "scipy_openblas_get_corename64_"),
                        ("scipy", "scipy_openblas_get_corename")):
        found[lib] = None
        for path in sorted((site / f"{lib}.libs").glob("libscipy_openblas*")):
            corename = getattr(ctypes.CDLL(str(path)), symbol, None)
            if corename is not None:
                corename.restype = ctypes.c_char_p
                found[lib] = corename().decode()
    return found


def _make_here(target: Path) -> None:
    """Under ``PINNED_ENV``: print the kernels as JSON, then, if they are
    the pinned ones, make every run in process into ``target``."""
    from longwalk import cli

    kernels = _kernels()
    print(json.dumps(kernels))
    if kernels != KERNELS:
        return
    warnings.simplefilter("error", RuntimeWarning)  # as the tests run
    here = os.getcwd()
    for name, (argv, _) in RUNS.items():
        with tempfile.TemporaryDirectory() as tmp:
            stdout = io.StringIO()
            os.chdir(tmp)
            try:
                with contextlib.redirect_stdout(stdout):
                    code = cli.main([*shlex.split(argv), "--out-dir", "out", "--reproducible"])
            finally:
                os.chdir(here)
            if code != 0:
                raise RuntimeError(f"{name}: exit {code}")
            shutil.copytree(Path(tmp) / "out", target / name)
        (target / name / STDOUT).write_text(stdout.getvalue())


def regenerate() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        make(Path(tmp) / "reference")
        shutil.rmtree(REFERENCE_DIR, ignore_errors=True)
        shutil.copytree(Path(tmp) / "reference", REFERENCE_DIR)
    for name, (argv, known_wrong) in RUNS.items():
        print(f"{name}: {argv}" + (f"  [known wrong: {known_wrong}]" if known_wrong else ""))


if __name__ == "__main__":
    if sys.argv[1:2] == ["--make"]:
        _make_here(Path(sys.argv[2]))
    else:
        regenerate()
