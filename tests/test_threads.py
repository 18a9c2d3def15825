"""BLAS thread count: liecurv loads numpy on one OpenBLAS thread unless the
caller chose a count, and its results do not depend on the count.

Each case runs in a fresh interpreter, since OpenBLAS reads its thread count
once, when numpy loads it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import liecurv as lc

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS")
SRC = str(Path(lc.__file__).resolve().parents[1])


def _openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return "openblas" in str(blas.get("name", "")).lower()


needs_proc_openblas = pytest.mark.skipif(
    not (Path("/proc/self/status").is_file() and _openblas()),
    reason="counts threads from /proc/self/status (Linux) of numpy's bundled OpenBLAS")


def child_env(**thread_vars) -> dict:
    """This environment with no thread count but the given ones, and liecurv's sources on the path."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(thread_vars)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def probe(imports: str, **thread_vars) -> dict:
    """Threads of a fresh process after ``imports``, and its thread variables then."""
    code = (f"import json, os\n{imports}\n"
            "threads = int(open('/proc/self/status').read().split('Threads:')[1].split()[0])\n"
            f"print(json.dumps({{'threads': threads, 'env': {{k: os.environ.get(k) for k in {THREAD_VARS!r}}}}}))")
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(**thread_vars),
                          capture_output=True, text=True, check=True, timeout=60)
    return json.loads(proc.stdout)


def cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@needs_proc_openblas
def test_one_thread_by_default_and_environment_restored():
    out = probe("import liecurv")
    assert out["threads"] == 1
    assert out["env"] == {k: None for k in THREAD_VARS}


@needs_proc_openblas
def test_explicit_openblas_count_wins():
    out = probe("import liecurv", OPENBLAS_NUM_THREADS="2")
    assert out["env"]["OPENBLAS_NUM_THREADS"] == "2"
    if cpus() >= 2:
        assert out["threads"] == 2


@needs_proc_openblas
def test_omp_count_is_left_to_openblas():
    out = probe("import liecurv", OMP_NUM_THREADS="2")
    assert out["env"]["OPENBLAS_NUM_THREADS"] is None
    assert out["env"]["OMP_NUM_THREADS"] == "2"
    if cpus() >= 2:
        assert out["threads"] == 2


@needs_proc_openblas
def test_numpy_imported_first_keeps_its_count():
    plain = probe("import numpy")
    out = probe("import numpy\nimport liecurv")
    assert out["threads"] == plain["threads"]
    assert out["env"] == plain["env"] == {k: None for k in THREAD_VARS}


def _flag_spec_file(tmp_path) -> str:
    e = np.eye(8)
    spec = {"algebra": "su3", "scale": 1.0, "h_basis": [e[6].tolist(), e[7].tolist()],
            "blocks": [[e[i].tolist(), e[i + 3].tolist()] for i in range(3)]}
    path = tmp_path / "flag.spec"
    path.write_text(json.dumps(spec), encoding="utf-8")
    return str(path)


def test_structured_output_does_not_depend_on_thread_count(tmp_path):
    so7_lambda = ",".join(f"{1.0 + 0.37 * i:g}" for i in range(21))
    su5_lambda = ",".join(f"{1.0 + 0.29 * i:g}" for i in range(24))  # Koszul sums over 24^3 entries
    invocations = [
        ["rigidity", "--algebra", "su5", "--trajectories"],
        ["scalar", "--algebra", "so7", "--lambda", so7_lambda],
        ["scalar", "--algebra", "su5", "--lambda", su5_lambda],
        ["algebra", "--algebra", "su5"],  # Jacobi residual over 24^4 entries
        ["rigidity", "--homogeneous", _flag_spec_file(tmp_path), "--trajectories"],
    ]
    for argv in invocations:
        argv = argv + ["--format", "structured"]
        # Both thread counts at once: independent processes.
        procs = [subprocess.Popen([sys.executable, "-m", "liecurv.cli"] + argv,
                                  env=child_env(OPENBLAS_NUM_THREADS=count),
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE)
                 for count in ("1", "2")]
        results = [(p.communicate(timeout=120)[0], p.returncode) for p in procs]
        assert results[0] == results[1], argv
        assert results[0][1] == 0, argv
        assert json.loads(results[0][0])["result"]
