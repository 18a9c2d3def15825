"""Seeded inputs and the four benchmark workloads.

Each workload draws its inputs from one ``numpy.random.Generator`` seeded
by ``--seed``; the library sees only those generated inputs.  A workload
has a set-up phase (building the models and specs its passes consume) and
a pass: a fixed list of operations, each a callable doing the library work
plus a check of its output.  Checks run outside the timed region.

Why these workloads:

* ``certify`` -- rigidity certificates; ascent dominates, normalization is
  nearly absent.
* ``normalize`` -- raw structure constants in random orthogonal bases go to
  a model, a diagonalized metric and a spec, and the su3, so5, so7 and su5
  models are then evaluated at single points: closed form and gradient,
  and the Koszul oracle against the closed form.  The O(n^6) contractions
  of ``binorm`` and ``homogeneous.build_spec`` dominate today.  Random
  bases make the tensors dense, so sparsity of the canonical bases cannot
  flatter it.  The evaluations use the curvature formula differently from
  ``certify`` (one point per call, validated on every call, larger n), so a
  change to a shared evaluator that helps one use and hurts the other
  shows.
* ``cli`` -- the ``liecurv`` command line from process start to exit.

In the measured passes, each certificate and each normalization runs in a
fresh process, as it does for a ``liecurv`` command, and reports its own CPU
time.  The speed of numpy's unoptimized multi-operand einsum (in ``binorm``
and in the curvature evaluators) depends on where its arrays land in
memory: su5's binormalization took 1.4 s or 5.5 s for the same call, and
the su4 certificate 2.2 s or 3.8 s.  In a long-lived process that depends
on everything allocated before, so it changed from run to run; in a fresh
process it is the same on every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import pickle
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import liecurv as lc
from liecurv import cli as lc_cli

# Relative tolerance of every curvature identity the gate checks.
RTOL = 1e-9
# A start counts as converged when its final projected gradient norm is at
# or below this value.
CONVERGED_GRAD = 1e-6
# Certificate box [1, MAX_LAMBDA]; the library default.
MAX_LAMBDA = 10.0

GROUPS = ("su2", "su3", "su4", "su5", "so5", "so7")
CERTIFY = ("su3", "so5", "su4", "s2", "flag")
NORMALIZE = GROUPS + ("s2", "flag")
EVALUATE = ("su3", "so5", "so7", "su5")
CLI_LABELS = ("algebra", "scalar-so7", "homogeneous-flag", "rigidity-flag",
              "rigidity-so5", "error-input", "error-center")

# Single-point evaluations per model and pass: closed form plus gradient, and
# Koszul-vs-closed checks.  Chosen so that evaluation takes about a third of
# a normalize pass today, with the two kinds in similar shares.
EVAL_POINTS = 2000
ORACLE_POINTS = 64


@dataclass
class Op:
    kind: str
    label: str
    work: Callable[[], object]
    check: Callable[[object], list]
    # CPU seconds of the work as measured by a child process that did it,
    # taken from the work's result; None when the work runs in this process.
    own_time: Callable[[object], float] | None = None


def scale_of(name: str) -> float:
    """Reference scale: the round normalization for su2, else the negative Killing form."""
    return 0.125 if name in ("su2", "s2") else 1.0


def close(value: float, expected: float, what: str) -> list[str]:
    if math.isfinite(value) and abs(value - expected) <= RTOL * max(1.0, abs(expected)):
        return []
    return [f"{what}: got {value!r}, expected {expected!r}"]


def library_env() -> dict:
    """Environment for a child process importing liecurv from ``src/``.

    The path is relative: children run in the checkout root, and their
    environment length then does not depend on where the checkout lives.
    """
    env = {k: v for k, v in os.environ.items() if k != lc_cli.SEED_ENV}
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def rebase(algebra: lc.LieAlgebra, q: np.ndarray) -> lc.LieAlgebra:
    """Structure constants in the basis f_a = sum_i q[i, a] e_i.

    The result is antisymmetrized exactly in its first two slots, which
    ``LieAlgebra`` requires and roundoff in the contraction would break.
    """
    c = np.einsum("ijk,ia,jb,kc->abc", algebra.c, q, q, q, optimize=True)
    return lc.LieAlgebra(algebra.name, algebra.dim, 0.5 * (c - c.swapaxes(0, 1)))


def group_dim(name: str) -> int:
    """Dimension of su(n) or so(n) from its name."""
    n = int(name[2:])
    return n * n - 1 if name.startswith("su") else n * (n - 1) // 2


def base_of(name: str) -> str:
    """The group an input is built from: itself, or the parent of a quotient."""
    return {"s2": "su2", "flag": "su3"}.get(name, name)


def quotient_rows(name: str):
    """Subalgebra rows and complement blocks of the s2 and flag quotients, canonical basis."""
    if name == "s2":
        e = np.eye(3)
        return e[[2]], (e[[0, 1]],)
    e = np.eye(8)
    return e[[6, 7]], (e[[0, 3]], e[[1, 4]], e[[2, 5]])


def embedding(algebra: lc.LieAlgebra, name: str, q: np.ndarray | None = None) -> lc.SubalgebraEmbedding:
    """Singleton blocks for a group, the quotient's blocks for s2 and flag.

    Rows given in canonical coordinates are mapped through ``q`` into the
    rebased coordinates (row @ q).
    """
    if name not in ("s2", "flag"):
        n = algebra.dim
        return lc.SubalgebraEmbedding(parent=algebra, h_basis=np.zeros((0, n)),
                                      blocks=tuple(np.eye(n)[[i]] for i in range(n)))
    h, blocks = quotient_rows(name)
    q = np.eye(algebra.dim) if q is None else q
    return lc.SubalgebraEmbedding(parent=algebra, h_basis=h @ q, blocks=tuple(b @ q for b in blocks))


def expected_r1(name: str, dim: int) -> float:
    """Reference curvature R(1): dim/(4*scale) on a group, 8 on s2, 2.5 on flag."""
    if name == "s2":
        return 8.0
    if name == "flag":
        return 2.5
    return dim / (4.0 * scale_of(name))


def spec_checks(spec, name: str, dim: int) -> list[str]:
    fails = close(lc.scalar_curvature_homogeneous(spec, np.ones(spec.s)).R,
                  expected_r1(name, dim), f"{name} spec R(1)")
    defect = float(lc.sum_rule_defect(spec).max())
    if not defect <= RTOL:
        fails.append(f"{name} sum-rule defect {defect!r}")
    return fails


def projected_grad_norm(spec, lam: np.ndarray, lo: float, hi: float) -> float:
    grad = lc.scalar_gradient_homogeneous(spec, lam)
    blocked = ((lam <= lo) & (grad < 0)) | ((lam >= hi) & (grad > 0))
    return float(np.linalg.norm(np.where(blocked, 0.0, grad)))


def build_group_spec(name: str):
    algebra = lc.resolve_algebra(name)
    model = lc.binormalize(algebra, lc.killing_metric(algebra, scale_of(name)))
    return lc.group_as_homogeneous(model), algebra.dim


def build_quotient_spec(name: str):
    algebra = lc.resolve_algebra(base_of(name))
    emb = embedding(algebra, name)
    return lc.build_spec(emb, lc.killing_metric(algebra, scale_of(name)), name=name), algebra.dim


class Workload:
    """Base: ``setup`` builds state, ``setup_checks`` gates it, ``ops`` lists one pass."""

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)
        self.health: dict = {}

    def setup(self):
        raise NotImplementedError

    def setup_checks(self, state) -> dict[str, list[str]]:
        return {}

    def ops(self, state, k: int) -> list[Op]:
        raise NotImplementedError

    def inprocess_ops(self, state, k: int) -> list[Op]:
        """The pass with all library calls in this process, for tracing."""
        return self.ops(state, k)

    def run_op(self, state, label):
        """The library work of one operation, as a fresh process runs it."""
        raise NotImplementedError

    def child_report(self, state, res, label) -> dict:
        """What that process sends back besides its CPU time: at least ``fails``."""
        raise NotImplementedError

    def in_child(self, label) -> dict:
        """Run operation ``label`` in a fresh process; return its report.

        The seed has a fixed width, so the child's argv, and with it its
        memory layout, is the same for every seed.
        """
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--op-child", label, "--workload", self.name,
             "--seed", f"{self.seed:+021d}", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, check=True, timeout=150)
        return json.loads(proc.stdout.strip().splitlines()[-1])


class Certify(Workload):
    """Default certificates (box [1, 10], 64 starts, 10k samples) on three groups and two quotients."""

    name = "certify"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.cert_seeds = {name: int(s) for name, s in zip(CERTIFY, self.rng.integers(0, 2**31 - 1, len(CERTIFY)))}

    def setup(self):
        return {name: (build_quotient_spec(name) if name in ("s2", "flag") else build_group_spec(name))
                for name in CERTIFY}

    def setup_checks(self, state):
        return {name: spec_checks(spec, name, dim) for name, (spec, dim) in state.items()}

    def run_op(self, state, name):
        return lc.verify_rigidity(state[name][0], max_lambda=MAX_LAMBDA, seed=self.cert_seeds[name])

    def child_report(self, state, report, name):
        spec, dim = state[name]
        return {"fails": self._check(report, spec, name, dim), "health": self.health[name]}

    def ops(self, state, k):
        def work(name):
            res = self.in_child(name)
            self.health[name] = res["health"]
            return res

        return [Op("certificate", name, lambda name=name: work(name), lambda res: res["fails"],
                   own_time=lambda res: res["cpu_s"]) for name in CERTIFY]

    def inprocess_ops(self, state, k):
        return [Op("certificate", name, lambda name=name: self.run_op(state, name),
                   lambda rep, name=name: self._check(rep, state[name][0], name, state[name][1]))
                for name in CERTIFY]

    def _check(self, report, spec, name, dim):
        fails = [] if report.certified else [f"{name}: not certified"]
        fails += close(report.r0, expected_r1(name, dim), f"{name} r0")
        norms = [projected_grad_norm(spec, lam, 1.0, MAX_LAMBDA) for lam in report.ascent_finals]
        self.health[name] = {
            "starts": len(norms),
            "converged": int(sum(g <= CONVERGED_GRAD for g in norms)),
            "max_final_grad": float(max(norms)),
        }
        return fails


class Normalize(Workload):
    """Each algebra, in a random orthogonal basis, goes to a model, a diagonal
    metric and a spec; four of the models are then evaluated at single points."""

    name = "normalize"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.inputs = {}
        for name in NORMALIZE:
            n = group_dim(base_of(name))
            spectrum = self.rng.uniform(0.5, 5.0, n)
            rot = random_orthogonal(self.rng, n)
            self.inputs[name] = {
                "basis": random_orthogonal(self.rng, n),
                "spectrum": spectrum,
                "operator": (rot * spectrum) @ rot.T,
                "stretch": float(self.rng.uniform(0.5, 4.0)),
            }

    def setup(self):
        state = {}
        for name, inp in self.inputs.items():
            algebra = rebase(lc.resolve_algebra(base_of(name)), inp["basis"])
            state[name] = (algebra, embedding(algebra, name, inp["basis"]))
        return state

    def run_op(self, state, name):
        algebra, emb = state[name]
        metric = lc.killing_metric(algebra, scale_of(name))
        model = lc.binormalize(algebra, metric)
        diag = lc.diagonalize_metric(model, self.inputs[name]["operator"])
        spec = lc.build_spec(emb, metric, name=name)
        return model, diag, spec

    def child_report(self, state, res, name):
        """Check the results; the model goes back through a file."""
        path = self.model_path(name)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(pickle.dumps(res[0]))
        return {"fails": self._check(res, name, self.inputs[name])}

    def model_path(self, name):
        return self.workdir / f"model-{name}.pkl"

    def ops(self, state, k):
        return self._ops(state, k, fresh=True)

    def inprocess_ops(self, state, k):
        return self._ops(state, k, fresh=False)

    def _ops(self, state, k, fresh):
        built = {}
        out = []
        for name in NORMALIZE:
            if fresh:
                def work(name=name):
                    res = self.in_child(name)
                    built[name] = pickle.loads(self.model_path(name).read_bytes())
                    return res

                out.append(Op("normalization", name, work, lambda res: res["fails"],
                              own_time=lambda res: res["cpu_s"]))
            else:
                def work(name=name):
                    res = self.run_op(state, name)
                    built[name] = res[0]
                    return res

                out.append(Op("normalization", name, work,
                              lambda res, name=name: self._check(res, name, self.inputs[name])))
        # Evaluation points are drawn per pass, so consecutive passes differ
        # and the same seed still gives the same inputs.
        rng = np.random.default_rng([self.seed, k])
        for name in EVALUATE:
            n = group_dim(name)
            for lam in rng.uniform(0.1, 10.0, (EVAL_POINTS, n)):
                out.append(Op("eval", name,
                              lambda lam=lam, name=name: (lc.scalar_curvature_closed(built[name], lam).R,
                                                          lc.scalar_gradient(built[name], lam)),
                              lambda res, lam=lam, name=name: self._check_eval(res, lam, name)))
        for name in EVALUATE:
            n = group_dim(name)
            for lam in rng.uniform(0.1, 10.0, (ORACLE_POINTS, n)):
                out.append(Op("oracle", name,
                              lambda lam=lam, name=name: (lc.scalar_curvature_koszul(built[name], lam).R,
                                                          lc.scalar_curvature_closed(built[name], lam).R),
                              lambda res, name=name: close(res[0], res[1], f"{name} Koszul vs closed")))
        return out

    def _check(self, res, name, inp):
        model, diag, spec = res
        group_r1 = model.n / (4.0 * scale_of(name))
        fails = close(lc.scalar_curvature_closed(model, np.ones(model.n)).R, group_r1, f"{name} model R(1)")
        fails += close(lc.scalar_curvature_closed(diag.c, np.ones(model.n)).R, group_r1, f"{name} rotated R(1)")
        if not np.allclose(diag.metric.values, np.sort(inp["spectrum"]), rtol=RTOL, atol=0.0):
            fails.append(f"{name}: diagonalized spectrum differs from the generated one")
        if np.abs(diag.rotation.T @ diag.rotation - np.eye(model.n)).max() > RTOL:
            fails.append(f"{name}: diagonalizing rotation is not orthogonal")
        fails += spec_checks(spec, name, model.n)
        if name == "s2":
            t = inp["stretch"]
            fails += close(lc.scalar_curvature_homogeneous(spec, [t]).R, 8.0 / t, "s2 R(t) = 8/t")
        return fails

    @staticmethod
    def _check_eval(res, lam, name):
        # R is homogeneous of degree -1 in lambda, so lambda . grad R = -R.
        r, grad = res
        euler = float(lam @ grad)
        size = max(1.0, abs(r), float(np.abs(lam * grad).sum()))
        if math.isfinite(r) and abs(euler + r) <= RTOL * size:
            return []
        return [f"{name}: gradient fails the Euler identity ({euler!r} vs {-r!r})"]


class Cli(Workload):
    """Structured-format ``liecurv`` invocations, each in its own process."""

    name = "cli"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.q_su3 = random_orthogonal(self.rng, 8)
        self.q_center = random_orthogonal(self.rng, 4)
        self.lam_so7 = self.rng.uniform(0.1, 10.0, group_dim("so7"))
        self.seeds = [int(s) for s in self.rng.integers(0, 2**31 - 1, 3)]
        self.reference: dict[str, str] = {}

    def setup(self):
        """Write the generated algebra and spec files; return the invocation list."""
        d = self.workdir
        d.mkdir(parents=True, exist_ok=True)
        su3 = rebase(lc.build_su(3), self.q_su3)
        center = rebase(lc.direct_sum(lc.build_su(2), lc.abelian(1)), self.q_center)
        h, blocks = quotient_rows("flag")
        files = {
            "su3.json": lc.algebra_to_dict(su3),
            "center.json": lc.algebra_to_dict(center),
            "bad.json": {"name": "bad", "dim": 3,
                         "structure_constants": [[0, 1, 2, 1.0], [0, 1, 2, 1.0]]},
            "flag.spec": {"algebra": "su3.json", "scale": 1.0,
                          "h_basis": (h @ self.q_su3).tolist(),
                          "blocks": [(b @ self.q_su3).tolist() for b in blocks]},
        }
        for fname, doc in files.items():
            (d / fname).write_text(json.dumps(doc), encoding="utf-8")
        # Fixed-width numbers keep the argv length, and with it the child's
        # memory layout, the same for every seed; ``d`` is relative for the
        # same reason.
        lam = ",".join(f"{x:.16e}" for x in self.lam_so7)
        structured = ["--format", "structured"]
        return [
            ("algebra", ["algebra", "--algebra", str(d / "su3.json")] + structured, 0),
            ("scalar-so7", ["scalar", "--algebra", "so7", "--lambda", lam] + structured, 0),
            ("homogeneous-flag", ["homogeneous", "--homogeneous", str(d / "flag.spec")] + structured, 0),
            ("rigidity-flag", ["rigidity", "--homogeneous", str(d / "flag.spec"),
                               "--seed", str(self.seeds[0])] + structured, 0),
            ("rigidity-so5", ["rigidity", "--algebra", "so5", "--seed", str(self.seeds[1])] + structured, 0),
            ("error-input", ["algebra", "--algebra", str(d / "bad.json")] + structured, 2),
            ("error-center", ["rigidity", "--algebra", str(d / "center.json"),
                              "--seed", str(self.seeds[2])] + structured, 4),
            # Repeated invocation: its output must be byte-identical.
            ("rigidity-flag", ["rigidity", "--homogeneous", str(d / "flag.spec"),
                               "--seed", str(self.seeds[0])] + structured, 0),
        ]

    def ops(self, state, k):
        return self._ops(state, "process", self._run_process)

    def inprocess_ops(self, state, k):
        """The same invocations through ``cli.main`` in this process, for tracing."""
        return self._ops(state, "main", self._run_main)

    def _ops(self, state, kind, runner):
        return [Op(kind, label, lambda argv=argv: runner(argv),
                   lambda res, label=label, code=code: self._check(res, label, code))
                for label, argv, code in state]

    @staticmethod
    def _run_process(argv):
        proc = subprocess.run([sys.executable, "-m", "liecurv.cli"] + argv, env=library_env(),
                              capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout

    @staticmethod
    def _run_main(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = lc_cli.main(argv)
        return code, out.getvalue()

    def _check(self, res, label, expected_code):
        code, out = res
        if code != expected_code:
            return [f"{label}: exit code {code}, expected {expected_code}"]
        if expected_code != 0:
            return []
        fails = []
        if self.reference.setdefault(label, out) != out:
            fails.append(f"{label}: structured output differs from an identical earlier run")
        result = json.loads(out)["result"]
        if label == "algebra":
            if not (result["dim"] == 8 and result["semisimple"] and result["center_dim"] == 0
                    and result["compact_type"]):
                fails.append("algebra: rebased su3 not reported as compact semisimple of dim 8")
        elif label == "scalar-so7":
            fails += close(result["R_koszul"], result["R_closed"], "so7 Koszul vs closed")
        elif label == "homogeneous-flag":
            if result["block_dims"] != [2, 2, 2] or result["central_blocks"]:
                fails.append("homogeneous-flag: unexpected block data")
            if not max(result["sum_rule_defects"]) <= RTOL:
                fails.append("homogeneous-flag: sum-rule defect")
        else:
            if not result["certified"]:
                fails.append(f"{label}: not certified")
            fails += close(result["r0"], 2.5, f"{label} r0")
        return fails


WORKLOADS = {cls.name: cls for cls in (Certify, Normalize, Cli)}
