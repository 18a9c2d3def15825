"""Tests of the benchmark's own span arithmetic and metric names.

Run with ``python3 -m pytest perfbench``; they need no library build.
"""

import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from spans import Tracer, self_times, summarize, valid_metric_name  # noqa: E402


def test_self_time_subtracts_children():
    # root [0, 10] with children [1, 3] and [4, 8]; [4, 8] has child [5, 6].
    starts = [0.0, 1.0, 4.0, 5.0]
    ends = [10.0, 3.0, 8.0, 6.0]
    parents = [-1, 0, 0, 2]
    assert self_times(starts, ends, parents) == [4.0, 2.0, 3.0, 1.0]


def test_self_time_clips_and_merges_children():
    # Children overlap each other and stick out of the parent: covered once, clipped.
    starts = [2.0, 1.0, 3.0]
    ends = [6.0, 4.0, 7.0]
    parents = [-1, 0, 0]
    assert self_times(starts, ends, parents)[0] == 0.0
    starts = [0.0, 1.0, 2.0]
    ends = [10.0, 4.0, 3.0]
    assert self_times(starts, ends, [-1, 0, 0])[0] == 7.0


def test_summarize_tail_has_ten_samples_beyond():
    s = summarize(range(1, 101))
    assert s["count"] == 100 and s["median"] == 50.5
    assert s["tail_p"] == 90 and s["tail"] == 90
    assert sum(x > s["tail"] for x in range(1, 101)) >= 10
    short = summarize([3.0, 1.0, 2.0])
    assert short["median"] == 2.0 and short["tail_p"] is None
    assert summarize([])["median"] is None


def test_pass_estimate_sums_per_operation_medians():
    # Two passes; "b" runs twice per pass.
    op_times = {"a": [1.0, 3.0], "b": [1.0, 2.0, 3.0, 5.0], "c": [4.0, 9.0, 1.0]}
    assert run.pass_estimate(op_times, 2) == 2.0 + 2 * 2.5 + 1.5 * 4.0


def test_run_pass_takes_the_time_a_child_measured():
    from workloads import Op
    ops = [Op("normalization", "a", lambda: {"cpu_s": 0.25, "fails": []}, lambda res: res["fails"],
              own_time=lambda res: res["cpu_s"]),
           Op("eval", "b", lambda: None, lambda res: [])]
    runner = run.Runner(Tracer(), {})
    total = runner.run_pass(ops, traced=False)
    assert runner.op_times["normalization.a"] == [0.25]
    assert total == 0.25 + runner.op_times["eval.b"][0]
    assert runner.attempted == 2 and not runner.failures
    # The reference loop ran once before the first operation.
    assert len(runner.ref_times) == 1 and runner.ref_times[0] > 0


def _fake_modules():
    """Module ``core`` defines f calling g; module ``user`` imports g by name."""
    core = types.ModuleType("fakepkg.core")
    exec("def g(x):\n    return x + 1\n\ndef f(x):\n    return g(x) * 2\n\ndef _private(x):\n    return x\n",
         core.__dict__)
    user = types.ModuleType("fakepkg.user")
    user.g = core.g
    exec("def h(x):\n    return g(x) - 1\n", user.__dict__)
    return core, user


def test_tracer_wraps_functions_bound_by_name_and_restores_them():
    core, user = _fake_modules()
    original_g, private = core.g, core._private
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.patched({"core": core, "user": user}):
        assert user.g is core.g and core.g is not original_g
        assert core._private is private
        with tracer.span("bench.op", "one"):
            assert core.f(1) == 4
            assert user.h(1) == 1
            with tracer.paused():
                core.f(5)
        tracer.enabled = False
        core.f(7)
    assert core.g is original_g and user.g is original_g
    names = [(r["name"], r["parent"]) for r in tracer.records()]
    assert names == [("bench.op", -1), ("core.f", 0), ("core.g", 1), ("user.h", 0), ("core.g", 3)]
    recs = tracer.records()
    assert recs[0]["self"] == (recs[0]["end"] - recs[0]["start"]) - sum(
        r["end"] - r["start"] for r in recs if r["parent"] == 0)


def test_span_labels_come_from_the_object_named():
    tracer = Tracer()
    tracer.enabled = True
    obj = types.SimpleNamespace(name="su3")
    emb = types.SimpleNamespace(parent=obj)
    tracer.wrap("m.a", lambda x: x)(obj)
    tracer.wrap("m.b", lambda x, name=None: x)(emb, name="flag")
    tracer.wrap("m.c", lambda x: x)(emb)
    assert tracer.labels == ["su3", "flag", "su3"]


def test_certificate_phases_and_steps_from_spans():
    # verify_rigidity [0, 10]: sampling until the first gradient call at 4.
    recs = [
        {"name": "bench.op", "label": "so5", "parent": -1, "start": 0.0, "end": 10.0, "self": 0.0},
        {"name": "rigidity.verify_rigidity", "label": "so5", "parent": 0, "start": 0.0, "end": 10.0, "self": 7.0},
        {"name": "homogeneous.scalar_gradient_homogeneous", "label": "so5", "parent": 1,
         "start": 4.0, "end": 5.0, "self": 1.0},
        {"name": "homogeneous.scalar_gradient_homogeneous", "label": "so5", "parent": 1,
         "start": 6.0, "end": 8.0, "self": 2.0},
    ]
    health = {"so5": {"starts": 64, "converged": 59}}
    m = run.per_layer(recs, 1, health, {})
    assert m["rigidity.sampling_s.so5"] == 4.0
    assert m["rigidity.ascent_s.so5"] == 6.0
    assert m["rigidity.ascent_steps.so5"] == 2
    assert m["rigidity.us_per_step.so5"] == 3e6
    assert m["rigidity.converged_frac.so5"] == 59 / 64
    assert m["homogeneous.scalar_gradient_homogeneous.calls"] == 2
    assert m["rigidity.self_s"] == 7.0 and m["homogeneous.self_s"] == 3.0
    assert m["curvature.scalar_curvature_closed.us_per_call"] == 0.0


def test_pass_spans_are_averaged_and_setup_counted_once():
    recs = [
        {"name": "bench.setup", "label": "", "parent": -1, "start": 0.0, "end": 2.0, "self": 0.0},
        {"name": "binorm.binormalize", "label": "so7", "parent": 0, "start": 0.0, "end": 2.0, "self": 2.0},
        {"name": "bench.op", "label": "so7", "parent": -1, "start": 3.0, "end": 4.0, "self": 0.0},
        {"name": "binorm.binormalize", "label": "so7", "parent": 2, "start": 3.0, "end": 4.0, "self": 1.0},
        {"name": "bench.op", "label": "so7", "parent": -1, "start": 5.0, "end": 8.0, "self": 0.0},
        {"name": "binorm.binormalize", "label": "so7", "parent": 4, "start": 5.0, "end": 8.0, "self": 3.0},
    ]
    m = run.per_layer(recs, 2, {}, {})
    assert m["binorm.binormalize.self_s.so7"] == 2.0 + (1.0 + 3.0) / 2
    assert m["binorm.calls"] == 2.0


BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_metric_names_are_valid_and_unique():
    metrics = BENCH["end_to_end"] + BENCH["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in BENCH["workloads"]]
    assert all(valid_metric_name(n) for n in names), [n for n in names if not valid_metric_name(n)]
    assert len(names) == len(set(names))
    assert all(UNIT_RE.match(m["unit"]) for m in metrics)
    assert not valid_metric_name("_hidden") and not valid_metric_name("a b")
    assert not valid_metric_name("x" * 65)


def test_benchmark_json_lists_what_the_run_reports():
    assert [m["name"] for m in BENCH["per_layer"]] == run.per_layer_names()
    assert [m["unit"] for m in BENCH["per_layer"]] == [run.unit_of(n) for n in run.per_layer_names()]
    assert len(BENCH["per_layer"]) <= 128
    assert {w["name"] for w in BENCH["workloads"]} == set(__import__("workloads").WORKLOADS)
    assert {m["name"] for m in BENCH["end_to_end"]} == {"setup_s", "pass_s", "peak_rss_mb"}
    assert all(m["bound"] <= 0.25 for m in BENCH["end_to_end"])


def _run(cwd, *argv):
    return subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def test_unknown_workload_exits_nonzero_without_a_result():
    proc = _run(HERE.parent, "--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0 and proc.stdout == ""


def test_benchmark_alone_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0 and proc.stdout == ""
