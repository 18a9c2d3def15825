"""Numerical certificates for the rigidity of bi-invariant metrics.

Scaling any block of a diagonal invariant metric up from the bi-invariant
reference can only lower the scalar curvature; the deficit splits into a
Casimir part and a part controlled by the symmetric cubic
:func:`gap_polynomial`, both nonnegative once every eigenvalue ratio is at
least one.  :func:`gap_breakdown` evaluates that split and its residual,
while :func:`verify_rigidity` hunts for counterexamples with dense sampling
plus multi-start projected gradient ascent over the constrained box.  A
certificate produced here is a falsifiable numerical witness, not a proof.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .binorm import killing_metric, binormalize
from .curvature import _block_curvature, _lambda_vector, scalar_curvature_closed, scalar_curvature_koszul
from .homogeneous import (
    HomogeneousSpec,
    scalar_curvature_homogeneous,
    scalar_gradient_homogeneous,
)
from .lie_core import DEFAULT_TOL, build_su

# Certificate defaults: box, search effort, allowed excess in R and in lambda.
DEFAULT_MAX_LAMBDA = 10.0
DEFAULT_STARTS = 64
DEFAULT_SAMPLES = 10_000
DEFAULT_TOL_R = 1e-8
DEFAULT_TOL_LAMBDA = 1e-6
ARMIJO = 1e-4
SHRINK = 0.5
MAX_ITER = 500
GRAD_STOP = 1e-10


class CenterPresentError(ValueError):
    """Raised when a spec has central blocks: rigidity fails structurally."""


def gap_polynomial(a, b, c):
    """The symmetric cubic a^2+b^2+c^2-2ab-2ac-2bc+3abc.

    Nonnegative whenever all arguments are >= 1, vanishing only at
    (1, 1, 1); elementwise on arrays.  Arguments are sorted before
    evaluating, so the symmetry is exact in floating point.
    """
    x, y, z = np.sort(np.stack(np.broadcast_arrays(np.asarray(a), np.asarray(b), np.asarray(c))), axis=0)
    return (x * x + y * y + z * z - 2.0 * (x * y + x * z + y * z) + 3.0 * (x * y * z))[()]


class OrderedGapTerms(NamedTuple):
    terms: tuple
    total: np.ndarray


def ordered_gap_terms(a, b, c) -> OrderedGapTerms:
    """Five-term rewrite of :func:`gap_polynomial` for 1 <= a <= b <= c.

    Each term is individually nonnegative under the ordering, which is what
    certifies the polynomial's sign; the ordering is required, not checked
    away.  Elementwise on arrays.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    c = np.asarray(c)
    if not (np.all(a >= 1) and np.all(a <= b) and np.all(b <= c)):
        raise ValueError("ordered decomposition requires 1 <= a <= b <= c")
    terms = (
        (a - b) ** 2,
        (c - b) ** 2,
        b * c * (a - 1.0),
        b * (c - b),
        2.0 * a * c * (b - 1.0),
    )
    total = terms[0] + terms[1] + terms[2] + terms[3] + terms[4]
    return OrderedGapTerms(terms=terms, total=total)


@dataclass(frozen=True)
class GapBreakdown:
    """Split of the curvature deficit R(reference) - R(metric)."""

    gap: float
    casimir_part: float
    poly_part: float
    residual: float


def gap_breakdown(spec: HomogeneousSpec, lam, tol: float = DEFAULT_TOL) -> GapBreakdown:
    """Evaluate the deficit and its Casimir/polynomial split at ``lam``.

    The split is an algebraic identity for every positive ``lam`` provided
    the coupling tensor is symmetric (bi-invariant reference) and satisfies
    the sum rule; the residual quantifies how well it holds.
    """
    a3 = spec.coupling
    sym_defect = max(
        np.abs(a3 - a3.swapaxes(0, 1)).max(),
        np.abs(a3 - a3.swapaxes(1, 2)).max(),
        np.abs(a3 - a3.swapaxes(0, 2)).max(),
    )
    if sym_defect > tol * max(1.0, np.abs(a3).max()):
        raise ValueError("decomposition identity requires bi-invariant reference: "
                         "coupling tensor is not symmetric")
    values = _lambda_vector(lam, spec.s)
    r0 = scalar_curvature_homogeneous(spec, np.ones(spec.s)).R
    rg = scalar_curvature_homogeneous(spec, values).R
    gap = r0 - rg
    casimir = float(np.sum(spec.casimirs * spec.block_dims * (values - 1.0) / values))
    q = gap_polynomial(values[:, None, None], values[None, :, None], values[None, None, :])
    denom = np.einsum("i,j,k->ijk", values, values, values)
    poly = float(np.sum(a3 * q / denom)) / 12.0
    return GapBreakdown(gap=gap, casimir_part=casimir, poly_part=poly,
                        residual=abs(gap - casimir - poly))


@dataclass(frozen=True)
class RigidityReport:
    """Certificate data from gap sampling and constrained maximization."""

    name: str
    box: tuple[float, float]
    n_starts: int
    n_samples: int
    seed: int
    best_lam: np.ndarray
    best_r: float
    r0: float
    max_violation: float
    certified: bool
    equality_ok: bool
    worst_equality_offset: float
    tol: float
    tol_lambda: float
    wall_time: float
    ascent_finals: np.ndarray
    ascent_values: np.ndarray

    @property
    def worst_gap(self) -> float:
        """Smallest deficit seen over all evaluated points."""
        return -self.max_violation


class _Tracker:
    """Accumulates statistics over every metric the search evaluates."""

    def __init__(self, r0: float, tol: float, tol_lambda: float):
        self.r0 = r0
        self.tol = tol
        self.tol_lambda = tol_lambda
        self.best_r = -math.inf
        self.best_lam = None
        self.max_violation = -math.inf
        self.equality_ok = True
        self.worst_equality_offset = 0.0

    def record(self, lams: np.ndarray, rs: np.ndarray) -> None:
        lams = np.atleast_2d(lams)
        rs = np.atleast_1d(rs)
        top = int(np.argmax(rs))
        if rs[top] > self.best_r:
            self.best_r = float(rs[top])
            self.best_lam = lams[top].copy()
        self.max_violation = max(self.max_violation, float(np.max(rs - self.r0)))
        near = (self.r0 - rs) <= self.tol
        if np.any(near):
            offsets = np.abs(lams[near] - 1.0).max(axis=1)
            worst = float(offsets.max())
            self.worst_equality_offset = max(self.worst_equality_offset, worst)
            if worst > self.tol_lambda:
                self.equality_ok = False


def _r_batch(spec: HomogeneousSpec, lams: np.ndarray) -> np.ndarray:
    return _block_curvature(spec.killing_ratios * spec.block_dims, spec.coupling, lams)


def _projected_gradient(lam: np.ndarray, grad: np.ndarray, lo: float, hi: float) -> np.ndarray:
    blocked = ((lam <= lo) & (grad < 0)) | ((lam >= hi) & (grad > 0))
    return np.where(blocked, 0.0, grad)


def _ascend(spec: HomogeneousSpec, start: np.ndarray, lo: float, hi: float,
            record: Callable[[np.ndarray, np.ndarray], None]) -> tuple[np.ndarray, float]:
    """Projected gradient ascent with Armijo backtracking inside the box."""
    lam = start.copy()
    r = float(_r_batch(spec, lam[None, :])[0])
    record(lam, np.array([r]))
    for _ in range(MAX_ITER):
        grad = scalar_gradient_homogeneous(spec, lam)
        if np.linalg.norm(_projected_gradient(lam, grad, lo, hi)) <= GRAD_STOP:
            break
        step = 1.0
        accepted = False
        while step >= 2.0 ** -60:
            cand = np.clip(lam + step * grad, lo, hi)
            rc = float(_r_batch(spec, cand[None, :])[0])
            record(cand, np.array([rc]))
            move = cand - lam
            if not move.any():
                break
            if rc >= r + ARMIJO * float(grad @ move):
                accepted = True
                break
            step *= SHRINK
        if not accepted:
            break
        lam, r = cand, rc
    return lam, r


def verify_rigidity(spec: HomogeneousSpec, max_lambda: float = DEFAULT_MAX_LAMBDA,
                    n_starts: int = DEFAULT_STARTS, n_samples: int = DEFAULT_SAMPLES, seed: int = 0,
                    tol: float = DEFAULT_TOL_R, tol_lambda: float = DEFAULT_TOL_LAMBDA) -> RigidityReport:
    """Search [1, max_lambda]^s for metrics beating the reference curvature.

    Dense uniform sampling plus multi-start projected gradient ascent (the
    all-ones candidate is always the first start).  Certification requires
    that no evaluated point exceeds the reference curvature beyond ``tol``
    and that every near-equality point sits within ``tol_lambda`` of the
    all-ones vector.  Specs with central blocks are refused outright: on
    such blocks the curvature does not decay and rigidity fails
    structurally.
    """
    if max_lambda <= 1.0:
        raise ValueError("max_lambda must exceed 1")
    if spec.central_blocks():
        raise CenterPresentError(
            "center present: rigidity fails structurally (blocks with zero "
            f"Killing ratio: {spec.central_blocks()})")
    t_start = time.perf_counter()
    r0 = float(_r_batch(spec, np.ones((1, spec.s)))[0])
    tracker = _Tracker(r0, tol, tol_lambda)
    rng = np.random.default_rng(seed)

    if n_samples > 0:
        samples = rng.uniform(1.0, max_lambda, size=(n_samples, spec.s))
        tracker.record(samples, _r_batch(spec, samples))

    starts = [np.ones(spec.s)]
    if n_starts > 1:
        starts.extend(rng.uniform(1.0, max_lambda, size=(n_starts - 1, spec.s)))
    finals = np.empty((len(starts), spec.s))
    values = np.empty(len(starts))
    for idx, start in enumerate(starts):
        finals[idx], values[idx] = _ascend(spec, np.asarray(start), 1.0, max_lambda, tracker.record)

    certified = tracker.max_violation <= tol and tracker.equality_ok
    return RigidityReport(
        name=spec.name,
        box=(1.0, float(max_lambda)),
        n_starts=len(starts),
        n_samples=n_samples,
        seed=seed,
        best_lam=tracker.best_lam,
        best_r=tracker.best_r,
        r0=r0,
        max_violation=tracker.max_violation,
        certified=bool(certified),
        equality_ok=tracker.equality_ok,
        worst_equality_offset=tracker.worst_equality_offset,
        tol=tol,
        tol_lambda=tol_lambda,
        wall_time=time.perf_counter() - t_start,
        ascent_finals=finals,
        ascent_values=values,
    )


@dataclass(frozen=True)
class ShrinkExample:
    """One member of the shrinking SU(2) family, evaluated both ways."""

    lam: float
    R_g: float
    R_g_koszul: float
    R_g0: float
    g_is_smaller: bool
    scalar_is_smaller: bool
    crossover: float


def su2_shrink_example(lam: float) -> ShrinkExample:
    """SU(2) metrics below the reference that also lower scalar curvature.

    Uses the round reference metric on SU(2) and the eigenvalues
    (lam, lam, 1/2) with 0 < lam < 1, so the metric is strictly smaller
    than the reference; for small lam the scalar curvature drops like
    -1/lam^2.  ``crossover`` is the ratio below which the curvature falls
    under the reference value.
    """
    if not 0.0 < lam < 1.0:
        raise ValueError("shrink example requires 0 < lam < 1")
    algebra = build_su(2)
    model = binormalize(algebra, killing_metric(algebra, 0.125))
    vec = np.array([lam, lam, 0.5])
    closed = scalar_curvature_closed(model, vec)
    koszul = scalar_curvature_koszul(model, vec)
    r0 = scalar_curvature_closed(model, np.ones(3)).R
    return ShrinkExample(
        lam=float(lam),
        R_g=closed.R,
        R_g_koszul=koszul.R,
        R_g0=r0,
        g_is_smaller=True,
        scalar_is_smaller=bool(closed.R < r0),
        crossover=(4.0 - math.sqrt(10.0)) / 6.0,
    )
