"""liecurv benchmark: one workload, one seed, one measured run.

Usage (from the repository root):

    python3 perfbench/run.py --workload certify --seed 1 --seconds 32 --trace 0

Workloads: certify, normalize, cli (see ``workloads.py``).  The library is
imported from ``src/`` next to this directory; nothing needs to be
installed.  Load is a closed loop with one client in one process: one
operation at a time, CLI invocations one after another.

``--trace 0`` reports the end-to-end metrics.  Both timings are CPU time
(user plus system) of the benchmark process and the child processes it
waits for, rescaled to a reference machine speed.  CPU time is the wall
time of this single-threaded, compute-bound work on an idle machine; on a
shared virtual machine wall time also counts the stretches in which the
host runs other guests, which stretched single operations by up to 70% on
a 2-CPU guest.  CPU time itself still drifts by 10-40% over minutes with
the load other guests put on shared cores and caches, much of it alike for
all work, so each run also times a fixed pure-Python loop about every half
second of operations and multiplies its timings by ``REF_LOOP_S`` over the
loop's median CPU time in the run.  In 15-second blocks of a noisy stretch
that cut the spread of a certificate's CPU time from 12% to 2%.
Certificates and normalizations each run in a fresh process, which times
itself (see ``workloads.py`` for why).
``setup_s`` is the median time to build what the passes consume, each
time in a fresh process (on cli, the start-up of ``import liecurv``).
``pass_s`` is the time of one pass over the workload's operation list,
summed from each operation's median time over the run.  The details give
both unscaled, with the loop's times.
``peak_rss_mb`` is the peak resident memory of the run's processes (on
cli, of its child processes).

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics from spans recorded around every public library
function; the spans are written to ``.perfbench-out/``.

The last line of standard output is the result object; the lines before it
hold the details: environment, every operation's median and tail with its
sample count, evaluation rates, ascent health and failures.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Relative to ROOT, which is the working directory once main() starts.
OUT = Path(".perfbench-out")

# Fresh-process set-up repetitions per run; set-up time is their median.
SETUP_REPS = 5
CHILD_TIMEOUT_S = 150
# Reference loop: iterations, CPU seconds it takes at the reference speed
# (about its time on a quiet 2-CPU virtual machine; it only sets the unit),
# and operation CPU seconds between two of its runs.
REF_LOOPS = 300_000
REF_LOOP_S = 0.03
REF_EVERY_S = 0.5

MODULES = ("lie_core", "binorm", "homogeneous", "curvature", "rigidity", "cli")
CURVATURE_FNS = ("scalar_curvature_closed", "scalar_gradient", "scalar_curvature_koszul")


def per_layer_names() -> list[str]:
    """Every per-layer metric, in a fixed order; BENCHMARK.json lists the same."""
    from workloads import CERTIFY, CLI_LABELS, GROUPS, NORMALIZE
    names = [f"{m}.{stat}" for m in MODULES for stat in ("self_s", "calls")]
    names += [f"lie_core.{fn}.self_s.{g}" for fn in ("from_matrix_basis", "killing") for g in GROUPS]
    names += [f"binorm.{fn}.self_s.{g}" for fn in ("binormalize", "diagonalize_metric") for g in GROUPS]
    names += [f"homogeneous.build_spec.self_s.{s}" for s in NORMALIZE]
    names += ["homogeneous.scalar_gradient_homogeneous.self_s", "homogeneous.scalar_gradient_homogeneous.calls"]
    names += [f"rigidity.{stat}.{c}" for stat in ("sampling_s", "ascent_s", "ascent_steps",
                                                  "us_per_step", "converged_frac") for c in CERTIFY]
    names += [f"curvature.{fn}.{stat}" for fn in CURVATURE_FNS for stat in ("self_s", "calls", "us_per_call")]
    names += ["cli.import_s"]
    names += [f"cli.{stat}.{label}" for stat in ("main.self_s", "process_s") for label in CLI_LABELS]
    names += ["bench.pass_cpu_s.untraced", "bench.pass_cpu_s.traced", "bench.trace_overhead_frac"]
    return names


def fail_early(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_library():
    """Import liecurv from this checkout's src/, never from elsewhere."""
    if not (SRC / "liecurv" / "__init__.py").is_file():
        fail_early(f"no liecurv sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import liecurv
    if Path(liecurv.__file__).resolve().parent != (SRC / "liecurv").resolve():
        fail_early(f"imported liecurv from {liecurv.__file__}, not from {SRC}")
    return liecurv


def blas_threads():
    """OpenBLAS thread count as numpy's bundled library reports it, or None."""
    import numpy as np
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "machine": platform.machine(),
        "load": "closed loop, one client, one operation at a time; CLI invocations run one after another",
        "machine_settings_changed": "none: no cache drop, cgroup change or CPU pinning",
    }


def cpu_clock() -> float:
    """CPU seconds of this process plus those of its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def reference_loop() -> float:
    """CPU seconds of a fixed pure-Python loop, which tracks the machine's current speed."""
    t0 = time.process_time()
    acc = 0
    for i in range(REF_LOOPS):
        acc += i * i % 7
    return time.process_time() - t0


def setup_samples(workload_name: str, seed: int) -> list[float]:
    """Set-up CPU time in fresh processes; on cli, the start-up of `import liecurv`."""
    from workloads import library_env
    samples = []
    for _ in range(SETUP_REPS):
        if workload_name == "cli":
            t0 = cpu_clock()
            subprocess.run([sys.executable, "-c", "import liecurv"], env=library_env(),
                           check=True, timeout=CHILD_TIMEOUT_S)
            samples.append(cpu_clock() - t0)
        else:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--setup-child", "--workload", workload_name,
                 "--seed", str(seed), "--seconds", "1", "--trace", "0"],
                capture_output=True, text=True, check=True, timeout=CHILD_TIMEOUT_S)
            samples.append(float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]))
    return samples


class Runner:
    """Runs passes, times operations outside their checks, counts failures."""

    def __init__(self, tracer, modules):
        self.tracer = tracer
        self.modules = modules
        self.attempted = 0
        self.failures: list[str] = []
        self.op_times: dict[str, list[float]] = {}
        self.ref_times: list[float] = []
        self._since_ref = REF_EVERY_S

    def record(self, fails: list[str]) -> None:
        self.attempted += 1
        if fails:
            self.failures.append("; ".join(fails))

    def tracing(self, on: bool):
        """Library functions wrapped by the tracer, or left untouched."""
        return self.tracer.patched(self.modules) if on else contextlib.nullcontext()

    def run_pass(self, ops, traced: bool) -> float:
        """Run one pass; return the summed operation CPU time (checks excluded).

        Operation times of untraced passes are kept per operation kind and
        label, and between two operations the reference loop runs once for
        every ``REF_EVERY_S`` of operation time since it last ran.
        """
        tracer = self.tracer
        total = 0.0
        with self.tracing(traced):
            for op in ops:
                while not traced and self._since_ref >= REF_EVERY_S:
                    self.ref_times.append(reference_loop())
                    self._since_ref -= REF_EVERY_S
                with tracer.span("bench.op", op.label):
                    t0 = cpu_clock()
                    try:
                        res, err = op.work(), None
                    except Exception:
                        res, err = None, traceback.format_exc(limit=3)
                    dt = cpu_clock() - t0
                    if op.own_time is not None and err is None:
                        dt = op.own_time(res)
                total += dt
                self._since_ref += dt
                if not traced:
                    self.op_times.setdefault(f"{op.kind}.{op.label}", []).append(dt)
                with tracer.paused():
                    try:
                        fails = [f"{op.label}: {err}"] if err else op.check(res)
                    except Exception:
                        fails = [f"{op.label}: check raised {traceback.format_exc(limit=3)}"]
                self.record(fails)
        return total


def pass_estimate(op_times: dict[str, list[float]], passes: int) -> float:
    """CPU time of one pass, summed from each operation's median time.

    On a shared machine the CPU time of identical work drifts both ways by
    10-20% over seconds to minutes, as other guests load and leave the
    host's cores and caches; the median of each operation over the whole
    run is steadier than the total of any one pass.
    """
    return sum(len(ts) / passes * statistics.median(ts) for ts in op_times.values())


def rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def per_layer(records, n_traced: int, health: dict, extra: dict) -> dict:
    """Per-layer metrics: traced set-up once plus the mean of the traced passes.

    A layer the workload does not exercise reads 0.
    """
    from workloads import CERTIFY
    root = []
    for i, rec in enumerate(records):
        root.append(i if rec["parent"] < 0 else root[rec["parent"]])
    m = dict.fromkeys(per_layer_names(), 0.0)

    def add(key, value):
        if key in m:
            m[key] += value

    for i, rec in enumerate(records):
        top = records[root[i]]
        w = 1.0 if top["name"] == "bench.setup" else 1.0 / max(n_traced, 1)
        mod, _, fn = rec["name"].partition(".")
        if mod not in MODULES:
            continue
        add(f"{mod}.self_s", w * rec["self"])
        add(f"{mod}.calls", w)
        add(f"{rec['name']}.self_s.{rec['label']}", w * rec["self"])
        if mod == "cli":
            add(f"cli.main.self_s.{top['label']}", w * rec["self"])
        if rec["name"] == "homogeneous.scalar_gradient_homogeneous" or (mod == "curvature" and fn in CURVATURE_FNS):
            add(f"{rec['name']}.self_s", w * rec["self"])
            add(f"{rec['name']}.calls", w)
            add(f"{rec['name']}.us_per_call", w * (rec["end"] - rec["start"]) * 1e6)
    # us_per_call accumulated the weighted total duration; divide by calls.
    for fn in CURVATURE_FNS:
        calls = m[f"curvature.{fn}.calls"]
        m[f"curvature.{fn}.us_per_call"] = m[f"curvature.{fn}.us_per_call"] / calls if calls else 0.0

    # Certificate phases: sampling runs until the first gradient call of the
    # ascent, which every later step repeats once.
    grads = {}
    for i, rec in enumerate(records):
        if rec["name"] == "homogeneous.scalar_gradient_homogeneous" and rec["parent"] >= 0:
            grads.setdefault(rec["parent"], []).append(rec["start"])
    for i, rec in enumerate(records):
        if rec["name"] != "rigidity.verify_rigidity":
            continue
        w = 1.0 / max(n_traced, 1)
        starts = grads.get(i, [])
        ascent_from = min(starts) if starts else rec["end"]
        label = rec["label"]
        add(f"rigidity.sampling_s.{label}", w * (ascent_from - rec["start"]))
        add(f"rigidity.ascent_s.{label}", w * (rec["end"] - ascent_from))
        add(f"rigidity.ascent_steps.{label}", w * len(starts))
    for c in CERTIFY:
        steps = m[f"rigidity.ascent_steps.{c}"]
        m[f"rigidity.us_per_step.{c}"] = m[f"rigidity.ascent_s.{c}"] / steps * 1e6 if steps else 0.0
        if c in health:
            m[f"rigidity.converged_frac.{c}"] = health[c]["converged"] / health[c]["starts"]
    m.update(extra)
    return m


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--op-child", metavar="LABEL", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # From here on, paths are relative to the checkout root, so the argv and
    # environment this run gives its child processes (and with them the
    # children's memory layout) do not depend on where the checkout lives.
    os.chdir(ROOT)
    liecurv = import_library()
    sys.path.insert(0, str(HERE))
    import workloads
    from spans import Tracer, summarize

    if args.workload not in workloads.WORKLOADS:
        fail_early(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload](args.seed, OUT / args.workload)

    if args.setup_child:
        t0 = cpu_clock()
        wl.setup()
        print(json.dumps({"setup_s": cpu_clock() - t0}))
        return 0
    if args.op_child:
        state = wl.setup()
        t0 = cpu_clock()
        res = wl.run_op(state, args.op_child)
        cpu_s = cpu_clock() - t0
        print(json.dumps({"cpu_s": cpu_s, **wl.child_report(state, res, args.op_child)}))
        return 0

    from liecurv import binorm, cli, curvature, homogeneous, lie_core, rigidity
    modules = {"liecurv": liecurv, "lie_core": lie_core, "binorm": binorm, "homogeneous": homogeneous,
               "curvature": curvature, "rigidity": rigidity, "cli": cli}
    tracer = Tracer()
    runner = Runner(tracer, modules)
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment()}

    setup = [] if args.trace else setup_samples(args.workload, args.seed)
    with runner.tracing(bool(args.trace) and args.workload != "cli"), tracer.span("bench.setup", args.workload):
        state = wl.setup()
    for fails in wl.setup_checks(state).values():
        runner.record(fails)

    untraced, traced = [], []
    deadline = time.perf_counter() + args.seconds
    if args.trace:
        if args.workload == "cli":
            runner.run_pass(wl.ops(state, 0), traced=False)
            process_times = {lab: sum(ts) for lab, ts in runner.op_times.items()}
        pass_ops = lambda k: wl.inprocess_ops(state, k)
        # An untraced warm-up pass, then untraced and traced passes in turn.
        runner.run_pass(pass_ops(0), traced=False)
        k = 1
        while not (untraced and traced) or time.perf_counter() < deadline:
            (traced if k % 2 == 0 else untraced).append(runner.run_pass(pass_ops(k), traced=k % 2 == 0))
            k += 1
    else:
        # A pass starts only if it should end less than half a pass past the
        # deadline, so a run measures about --seconds however long a pass is.
        k, last_wall = 0, 0.0
        while not untraced or time.perf_counter() + last_wall / 2 < deadline:
            t0 = time.perf_counter()
            untraced.append(runner.run_pass(wl.ops(state, k), traced=False))
            last_wall = time.perf_counter() - t0
            k += 1

    # On cli the peak of the invocations; elsewhere of this process or any
    # child (normalize's normalizations run in children).
    peak = rss_mb(resource.RUSAGE_CHILDREN)
    if args.workload != "cli":
        peak = max(peak, rss_mb(resource.RUSAGE_SELF))
    ops_summary = {}
    for key, ts in sorted(runner.op_times.items()):
        s = summarize(ts)
        ops_summary[key] = {"count": s["count"], "median_ms": s["median"] * 1e3,
                            "tail_p": s["tail_p"], "tail_ms": None if s["tail"] is None else s["tail"] * 1e3}
    detail["operations"] = ops_summary
    detail["passes"] = {"untraced": summarize(untraced), "traced": summarize(traced)}
    if args.workload == "normalize":
        ev = [t for key, ts in runner.op_times.items() if key.startswith("eval.") for t in ts]
        orc = [t for key, ts in runner.op_times.items() if key.startswith("oracle.") for t in ts]
        # Each eval op is one closed-form and one gradient evaluation.
        detail["rates"] = {"evals_per_s": 2 * len(ev) / sum(ev), "oracle_checks_per_s": len(orc) / sum(orc)}
    if wl.health:
        detail["ascent_health"] = {"converged_grad_threshold": workloads.CONVERGED_GRAD, **wl.health}

    if args.trace:
        records = tracer.records()
        extra = {
            "bench.pass_cpu_s.untraced": statistics.median(untraced),
            "bench.pass_cpu_s.traced": statistics.median(traced),
            "bench.trace_overhead_frac": statistics.median(traced) / statistics.median(untraced) - 1.0,
        }
        if args.workload == "cli":
            extra["cli.import_s"] = statistics.median(setup_samples("cli", args.seed))
            for lab, total in process_times.items():
                extra[f"cli.process_s.{lab.partition('.')[2]}"] = total
        metrics = per_layer(records, len(traced), wl.health, extra)
        steps_total = sum(metrics[f"rigidity.ascent_steps.{c}"] for c in workloads.CERTIFY)
        calls = metrics["homogeneous.scalar_gradient_homogeneous.calls"]
        # Sanity check on the span tree: every gradient call belongs to an ascent.
        runner.record([] if abs(steps_total - calls) < 1e-9 else
                      [f"ascent steps {steps_total} != gradient calls {calls}"])
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(spans_path)
        detail["spans_file"] = str(spans_path)
        detail["span_count"] = len(records)
        result_metrics = {name: {"value": metrics[name], "unit": unit_of(name)} for name in per_layer_names()}
    else:
        speed = REF_LOOP_S / statistics.median(runner.ref_times)
        pass_cpu = pass_estimate(runner.op_times, len(untraced))
        result_metrics = {
            "setup_s": {"value": speed * statistics.median(setup), "unit": "s"},
            "pass_s": {"value": speed * pass_cpu, "unit": "s"},
            "peak_rss_mb": {"value": peak, "unit": "MB"},
        }
        detail["unscaled_cpu_s"] = {"setup": summarize(setup), "pass": pass_cpu}
        detail["reference_loop_s"] = summarize(runner.ref_times)
    detail["peak_rss_mb"] = peak
    detail["failed_frac"] = len(runner.failures) / runner.attempted
    detail["failures"] = runner.failures[:20]
    print(json.dumps(detail, indent=1, default=str))
    print(json.dumps({"correct": not runner.failures, "attempted": runner.attempted,
                      "failed": len(runner.failures), "metrics": result_metrics}))
    return 0


def unit_of(name: str) -> str:
    if name.endswith(".calls") or ".ascent_steps." in name:
        return "count"
    if ".us_per_" in name:
        return "us"
    if name.endswith("_frac") or ".converged_frac." in name:
        return "ratio"
    return "s"


if __name__ == "__main__":
    sys.exit(main())
