"""Rewrite the structured-output corpus that ``test_corpus.py`` replays.

Run by hand from the repository root, after a change that is meant to move
structured output::

    PYTHONPATH=src python tests/make_corpus.py

Each case is one ``liecurv ... --format structured`` invocation, run in this
process through ``cli.main`` with ``tests/data`` as the working directory:
spec files are named by relative path there, because the ``homogeneous``
config echoes the path as given.  The canonical cases (:func:`cases`) use
built-in algebras and the specs beside the corpus.  The dense cases are the
benchmark's cli workload at seeds ``DENSE_SEEDS``, built by its own
generator in ``perfbench/workloads.py``: rewriting writes their algebra and
spec files under ``tests/data/cli-<seed>/`` and records their argv in the
corpus, so the replay needs neither ``perfbench`` nor the generator.  The
corpus file records argv, exit code, stdout and stderr per case, with the
fingerprint of the environment that wrote it.  Rewriting prints every field
that moved: the case, the field's path, its old and new value and their
distance in ulps.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

DATA = Path(__file__).resolve().parent / "data"
CORPUS = DATA / "structured_corpus.json"
PERFBENCH = DATA.parent.parent / "perfbench"
DENSE_SEEDS = (1, 2, 3, 4)
ALGEBRAS = ("su2", "su3", "su4", "su5", "su6", "so3", "so4", "so5", "so6", "so7", "so8")
SPECS = {"s2.spec": 1, "flag.spec": 3, "raw.spec": 2}  # file: block count


def _lam(n: int) -> str:
    return ",".join(f"{1.0 + 0.29 * i:g}" for i in range(n))


def _dim(name: str) -> int:
    n = int(name[2:])
    return n * n - 1 if name.startswith("su") else n * (n - 1) // 2


def cases() -> list[list[str]]:
    """Argv of every corpus case: groups, quotients, the worked example and
    the exit-2 cases CI runs, each in the structured format."""
    out = []
    for name in ALGEBRAS:
        out += [["algebra", "--algebra", name],
                ["scalar", "--algebra", name, "--lambda", _lam(_dim(name))],
                ["rigidity", "--algebra", name, "--trajectories", "--seed", "3"]]
    for path, s in SPECS.items():
        out += [["homogeneous", "--homogeneous", path],
                ["scalar", "--homogeneous", path, "--lambda", _lam(s)],
                ["rigidity", "--homogeneous", path, "--trajectories", "--seed", "3"]]
    out += [["example", "su2-shrink", "--lambda", x] for x in ("0.05", "0.3", "0.9")]
    out += [["scalar", "--algebra", "su2", "--lambda", "1e-320,1,1"],
            ["rigidity", "--algebra", "su2", "--scale", "1e-308"],
            ["algebra", "--algebra", "su3", "--tol", "0"]]
    return [argv + ["--format", "structured"] for argv in out]


def dense_cases() -> list[list[str]]:
    """Argv of the benchmark's cli workload at each of ``DENSE_SEEDS``, less
    its repeated run; writes each seed's files under ``DATA/cli-<seed>``.
    Imports ``perfbench/workloads.py``, so only a rewrite calls it."""
    sys.path.insert(0, str(PERFBENCH))
    import workloads

    out, saved_dir = [], os.getcwd()
    os.chdir(DATA)
    try:
        for seed in DENSE_SEEDS:
            for _, argv, _ in workloads.Cli(seed, Path(f"cli-{seed}")).setup():
                if argv not in out:
                    out.append(argv)
    finally:
        os.chdir(saved_dir)
    return out


def blas_core() -> str | None:
    """The kernel set OpenBLAS picked for this CPU at run time, read from
    the ``get_corename`` symbol of the library bundled with numpy; None where
    no such library or symbol is found."""
    root = Path(np.__file__).resolve().parent
    for lib in sorted([*root.parent.glob("numpy.libs/*openblas*"), *root.glob(".dylibs/*openblas*")]):
        try:
            blas = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                       "openblas_get_corename64_", "openblas_get_corename"):
            get = getattr(blas, symbol, None)
            if get is not None:
                get.restype = ctypes.c_char_p
                return get().decode()
    return None


def fingerprint() -> dict:
    """What the output's last bits depend on: numpy, Python, the machine,
    the SIMD extensions numpy found and dispatches to, and OpenBLAS's core."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return {"numpy": np.__version__, "python": "%d.%d" % sys.version_info[:2],
            "machine": platform.machine(),
            "simd_found": [f for f in __cpu_dispatch__ if __cpu_features__.get(f)],
            "blas_core": blas_core()}


def run_case(argv: list[str]) -> dict:
    """One invocation through ``cli.main``; the caller sets the working
    directory to ``DATA`` and leaves ``LIECURV_SEED`` unset."""
    from liecurv.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def ulps(a: float, b: float) -> int:
    """Number of float64 values from ``a`` to ``b``; +0.0 and -0.0 coincide."""
    def ordinal(x):
        bits = int(np.float64(x).view(np.int64))
        return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)
    return abs(ordinal(a) - ordinal(b))


def field_diffs(old, new, path: str = "") -> list[tuple]:
    """``(path, old, new, ulps)`` for every leaf of two parsed reports that
    differs; ``ulps`` is None unless both leaves are floats."""
    if type(old) is not type(new):
        return [(path, old, new, None)]
    if isinstance(old, dict):
        return [d for key in sorted(old.keys() | new.keys())
                for d in field_diffs(old.get(key), new.get(key), f"{path}.{key}")]
    if isinstance(old, list):
        if len(old) != len(new):
            return [(path, old, new, None)]
        return [d for i, (x, y) in enumerate(zip(old, new)) for d in field_diffs(x, y, f"{path}[{i}]")]
    if isinstance(old, float):
        return [] if old == new and str(old) == str(new) else [(path, old, new, ulps(old, new))]
    return [] if old == new else [(path, old, new, None)]


def report_unit(stdout: str) -> float:
    """The spacing of float64 at the largest magnitude in a printed report,
    the unit in which its residuals (differences of numbers that size, such
    as ``discrepancy`` and ``max_violation``) are rounded."""
    def magnitudes(value):
        if isinstance(value, float):
            yield abs(value)
        elif isinstance(value, (dict, list)):
            for v in (value.values() if isinstance(value, dict) else value):
                yield from magnitudes(v)
    return float(np.spacing(max(magnitudes(json.loads(stdout)), default=0.0))) if stdout else 0.0


def case_diffs(old: dict, new: dict) -> list[tuple]:
    """Field differences of one case: exit code, stderr and the parsed stdout."""
    diffs = [(key, old[key], new[key], None) for key in ("exit", "stderr") if old[key] != new[key]]
    if old["stdout"] or new["stdout"]:
        try:
            diffs += field_diffs(json.loads(old["stdout"]), json.loads(new["stdout"]), "stdout")
        except ValueError:
            if old["stdout"] != new["stdout"]:
                diffs.append(("stdout", old["stdout"], new["stdout"], None))
    return diffs


def replay(argvs: list[list[str]]) -> list[dict]:
    """Each invocation run from ``DATA``, with ``LIECURV_SEED`` unset."""
    saved_dir, saved_seed = os.getcwd(), os.environ.pop("LIECURV_SEED", None)
    os.chdir(DATA)
    try:
        return [run_case(argv) for argv in argvs]
    finally:
        os.chdir(saved_dir)
        if saved_seed is not None:
            os.environ["LIECURV_SEED"] = saved_seed


def main() -> int:
    new = {"fingerprint": fingerprint(), "cases": replay(cases() + dense_cases())}
    if CORPUS.exists():
        old = json.loads(CORPUS.read_text(encoding="utf-8"))
        if old["fingerprint"] != new["fingerprint"]:
            print(f"fingerprint: {old['fingerprint']} -> {new['fingerprint']}")
        old_cases = {" ".join(c["argv"]): c for c in old["cases"]}
        for case in new["cases"]:
            key = " ".join(case["argv"])
            if key not in old_cases:
                print(f"added: {key}")
                continue
            for path, before, after, distance in case_diffs(old_cases.pop(key), case):
                print(f"{key} | {path}: {before!r} -> {after!r} ({distance} ulps)")
        for key in old_cases:
            print(f"removed: {key}")
    CORPUS.write_text(json.dumps(new, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(new['cases'])} cases to {CORPUS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
