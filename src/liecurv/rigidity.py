"""Numerical certificates for the rigidity of bi-invariant metrics.

Scaling any block of a diagonal invariant metric up from the bi-invariant
reference can only lower the scalar curvature; the deficit splits into a
Casimir part and a part controlled by the symmetric cubic
:func:`gap_polynomial`, both nonnegative once every eigenvalue ratio is at
least one.  :func:`gap_breakdown` evaluates the deficit and its two parts,
while :func:`verify_rigidity` hunts for counterexamples with dense sampling
plus a projected-Newton ascent over the constrained box (Bertsekas 1982)
that runs all starts in lockstep: an eigenvalue-modified Newton step on
the free coordinates, a gradient step on the ones held at a bound, and
Armijo backtracking along the projected arc.  A start converges when its
projected gradient in mu = 1/lambda is small against the reference
curvature, so a start far out in a wide box does not pass before it moves;
a box too wide for that bound to be represented is refused, and so is a
coupling tensor that is not symmetric, which no bi-invariant reference
has.  The verdict is one pure function of the batches the search
evaluated, read in one pass over their join: a certificate requires that
no evaluated metric beats the reference, that near-ties sit at the
reference, and that every start converged.  It is a falsifiable numerical
witness, not a proof.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .binorm import _transposition_defect, binormalize, killing_metric
from .curvature import (_block_curvature, _block_gradient, _block_hessian, _lambda_vector,
                        scalar_curvature_closed, scalar_curvature_koszul)
from .homogeneous import HomogeneousSpec
from .lie_core import _negligible, _require, _tolerance, build_su

# Certificate defaults: box, search effort, allowed excess in R (times |r0|) and lambda.
DEFAULT_MAX_LAMBDA = 10.0
DEFAULT_STARTS = 64
DEFAULT_SAMPLES = 10_000
DEFAULT_TOL_R = 1e-8
DEFAULT_TOL_LAMBDA = 1e-6
# Ascent: Armijo constant, backtracking factor and smallest step; iteration
# cap and the norm (times |r0|) of the projected gradient in mu = 1/lambda,
# lambda^2 times the one in lambda, that counts a start as converged.
ARMIJO = 1e-4
SHRINK = 0.5
MIN_STEP = 2.0 ** -60
MAX_ITER = 500
GRAD_STOP = 1e-10
# Smallest Hessian eigenvalue magnitude in the Newton step, relative to max(max|mu|, |grad|).
EIG_FLOOR = 1e-8


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


def ordered_gap_terms(a, b, c) -> tuple:
    """Five-term rewrite of :func:`gap_polynomial` for 1 <= a <= b <= c,
    returned as the five terms; their left-to-right sum is the polynomial.

    Each term is individually nonnegative under the ordering, which is what
    certifies the polynomial's sign; the ordering is required, not checked
    away.  Elementwise on arrays.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    c = np.asarray(c)
    if not (np.all(a >= 1) and np.all(a <= b) and np.all(b <= c)):
        raise ValueError("ordered decomposition requires 1 <= a <= b <= c")
    return (
        (a - b) ** 2,
        (c - b) ** 2,
        b * c * (a - 1.0),
        b * (c - b),
        2.0 * a * c * (b - 1.0),
    )


@dataclass(frozen=True)
class GapBreakdown:
    """The curvature deficit R(reference) - R(metric) and its Casimir and polynomial parts."""

    gap: float
    casimir_part: float
    poly_part: float


def _require_symmetric_coupling(spec: HomogeneousSpec) -> None:
    """Refuse a coupling tensor that is not symmetric: no bi-invariant reference has one."""
    a3 = spec.coupling
    # Relative to A and the Killing ratios, its units: A is all roundoff on a symmetric space.
    _require(_transposition_defect(a3, np.subtract), max(np.abs(a3).max(), np.abs(spec.killing_ratios).max()),
             "decomposition identity requires bi-invariant reference: coupling tensor is not symmetric")


def gap_breakdown(spec: HomogeneousSpec, lam) -> GapBreakdown:
    """Evaluate the deficit and its Casimir/polynomial split at ``lam``.

    The split is an algebraic identity for every positive ``lam`` provided
    the coupling tensor is symmetric (bi-invariant reference) and satisfies
    the sum rule; ``gap - casimir_part - poly_part`` shows how well it
    holds.  An asymmetric coupling is refused, as :func:`verify_rigidity`
    refuses it.
    """
    _require_symmetric_coupling(spec)
    a3 = spec.coupling
    values = _lambda_vector(lam, spec.s)
    gap = float(_block_curvature(spec, np.ones(spec.s)) - _block_curvature(spec, values))
    casimir = float(np.sum(spec.casimirs * spec.block_dims * (values - 1.0) / values))
    # q / (lam_i lam_j lam_k), q the gap polynomial, term by term on sorted
    # arguments (as gap_polynomial sorts them): neither q nor the product is
    # formed, so a lambda whose cube overflows still gives a finite part.
    x, y, z = np.sort(np.stack(np.broadcast_arrays(values[:, None, None], values[None, :, None],
                                                   values[None, None, :])), axis=0)
    q_ratio = x / y / z + y / x / z + z / x / y - 2.0 * (1.0 / x + 1.0 / y + 1.0 / z) + 3.0
    poly = float(np.sum(a3 * q_ratio)) / 12.0
    return GapBreakdown(gap=gap, casimir_part=casimir, poly_part=poly)


@dataclass(frozen=True)
class RigidityReport:
    """What the search of :func:`verify_rigidity` found, not the settings it
    was given: the caller holds those (the CLI echoes them in its config).

    ``best_lam`` and ``best_r`` are the first best point evaluated and its
    curvature, ``r0`` the reference curvature R(1, ..., 1) and
    ``max_violation`` the largest excess over it (its negative is the
    smallest deficit seen).  ``ascent_status[i]`` says how start i ended
    ("converged": its projected gradient in mu = 1/lambda is at most
    GRAD_STOP times |r0|; "max-iter" or "line-search") and
    ``ascent_iterations[i]`` how many steps it took; ``n_evaluations``
    counts every metric at which the curvature was evaluated, exactly the
    rows the verdict read.  ``sampling_time`` (the draws, the reference and
    the curvature of the samples and starts) and ``ascent_time`` (the
    ascent, then the verdict over every evaluated batch) sum to the search's
    wall time; the CLI shows the times in its table, never in JSON.
    ``certified`` holds exactly when ``max_violation <= tol * |r0|`` (the
    search's ``tol`` is relative, ``max_violation`` and ``r0`` absolute),
    ``equality_ok`` holds and every ``ascent_status`` is "converged".
    """

    best_lam: np.ndarray
    best_r: float
    r0: float
    max_violation: float
    certified: bool
    equality_ok: bool
    worst_equality_offset: float
    ascent_finals: np.ndarray
    ascent_values: np.ndarray
    ascent_status: tuple[str, ...]
    ascent_iterations: np.ndarray
    n_evaluations: int
    sampling_time: float
    ascent_time: float


def _verdict(batches, r0: float, tol: float, tol_lambda: float) -> dict:
    """The report's fields read from the ``(lams, rs)`` batches the search
    evaluated, joined in evaluation order: the first best point (NaN is never
    the best point), the largest excess over r0, and the near-ties (rows
    within ``tol * |r0|`` below r0) and how far they sit from the all-ones
    vector."""
    lams = np.concatenate([lam for lam, _ in batches])
    rs = np.concatenate([r for _, r in batches])
    ranked = np.where(np.isnan(rs), -math.inf, rs)
    top = int(np.argmax(ranked))
    # A non-finite value is a violation of unknown size, never a pass.
    violation = float(np.max(np.where(np.isfinite(rs), rs - r0, math.inf)))
    offset = float(np.abs(lams[_negligible(r0 - rs, abs(r0), tol)] - 1.0).max(initial=0.0))
    return dict(best_lam=lams[top].copy(), best_r=float(ranked[top]), max_violation=violation,
                worst_equality_offset=offset, equality_ok=_negligible(offset, 1.0, tol_lambda),
                n_evaluations=len(rs))


def _projected_gradient(lam: np.ndarray, grad: np.ndarray, hi: float) -> np.ndarray:
    """``grad`` zeroed where a coordinate is held: on a bound of [1, hi], the gradient pointing out."""
    blocked = ((lam <= 1.0) & (grad < 0)) | ((lam >= hi) & (grad > 0))
    return np.where(blocked, 0.0, grad)


def _norm(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of ``x``, taken on the row scaled by a power
    of two near its largest entry, so the squares neither overflow nor
    underflow at any finite scale; the scaling is exact, so it changes no bit
    where the plain norm does neither."""
    _, e = np.frexp(np.abs(x).max(axis=1))
    return np.ldexp(np.linalg.norm(np.ldexp(x, -e[:, None]), axis=1), e)


def _newton_direction(spec: HomogeneousSpec, lam: np.ndarray, grad: np.ndarray,
                      free: np.ndarray) -> np.ndarray:
    """Projected-Newton ascent direction per row (Bertsekas 1982).

    Coordinates held on a bound (false in ``free``, where
    :func:`_projected_gradient` zeroes ``grad``) follow the gradient; the
    free ones take a Newton step on the free block of the Hessian, with
    every eigenvalue mu replaced by -max(|mu|, EIG_FLOOR * max(max|mu|,
    |grad|)) so that the step ascends even where the Hessian is indefinite,
    and stays finite where the free block vanishes.
    """
    hess = _block_hessian(spec, lam) * (free[:, :, None] & free[:, None, :])
    mu, vec = np.linalg.eigh(hess)
    size = np.abs(mu)
    floor = EIG_FLOOR * np.maximum(size.max(axis=1, keepdims=True), _norm(grad)[:, None])
    coef = np.einsum("bji,bj->bi", vec, np.where(free, grad, 0.0)) / np.maximum(size, floor)
    return np.where(free, np.einsum("bij,bj->bi", vec, coef), grad)


def _line_search(spec: HomogeneousSpec, lam: np.ndarray, r: np.ndarray, grad: np.ndarray,
                 direction: np.ndarray, hi: float):
    """Armijo backtracking along the projected arc clip(lam + t d), per row.

    All rows try t = 1; each round, the rows not yet accepted halve t, until
    a row gains ARMIJO times the first-order gain of its move.  A row fails
    when its move vanishes or t drops below MIN_STEP.  Returns the mask of
    rows that accepted a step, with their new points and values, and the
    ``(candidates, values)`` batch of every round.
    """
    new_lam, new_r, batches = lam.copy(), r.copy(), []
    accepted = np.zeros(len(lam), dtype=bool)
    step = 1.0
    pending = np.arange(len(lam))
    while pending.size and step >= MIN_STEP:
        cand = np.clip(lam[pending] + step * direction[pending], 1.0, hi)
        rc = _block_curvature(spec, cand)
        batches.append((cand, rc))
        move = cand - lam[pending]
        moved = move.any(axis=1)
        ok = moved & (rc >= r[pending] + ARMIJO * np.einsum("ij,ij->i", grad[pending], move))
        done = pending[ok]
        new_lam[done], new_r[done], accepted[done] = cand[ok], rc[ok], True
        pending = pending[moved & ~ok]
        step *= SHRINK
    return accepted, new_lam, new_r, batches


class _Ascent(NamedTuple):
    lam: np.ndarray         # (m, s) final points
    r: np.ndarray           # (m,) curvature there
    status: np.ndarray      # (m,) "converged" | "max-iter" | "line-search"
    iterations: np.ndarray  # (m,) accepted steps
    batches: list           # (lams, rs) evaluated, in order: the starts first


def _ascend_all(spec: HomogeneousSpec, starts: np.ndarray, r_starts: np.ndarray, r0: float,
                hi: float) -> _Ascent:
    """Projected-Newton ascent inside the box [1, hi] from every row of
    ``starts``, where the curvature is ``r_starts``, in lockstep: one batched
    gradient call per iteration, over the rows still running.  A row stops
    when the norm of its projected gradient in mu = 1/lambda (the projected
    lambda-gradient times lambda^2, since |dR/dmu| = lambda^2 |dR/dlambda|)
    reaches GRAD_STOP times |r0|, the reference curvature R(1, ..., 1)
    (converged), when its line search fails, or after MAX_ITER iterations.
    In lambda the gradient falls like 1/lambda^2, so without that factor a
    start far out in a wide box would pass the test before it moved.
    Returns the final points with every batch it evaluated, the starts (a
    copy) first."""
    lam = np.array(starts, dtype=float)
    r = np.array(r_starts, dtype=float)
    batches = [(lam.copy(), r.copy())]
    status = np.full(len(lam), "max-iter", dtype=object)
    iterations = np.zeros(len(lam), dtype=int)
    running = np.arange(len(lam))
    for _ in range(MAX_ITER):
        if not running.size:
            break
        x = lam[running]
        grad = _block_gradient(spec, x)
        projected = _projected_gradient(x, grad, hi)
        done = _negligible(_norm(projected * x * x), abs(r0), GRAD_STOP)
        status[running[done]] = "converged"
        running, x, grad, free = running[~done], x[~done], grad[~done], (projected == grad)[~done]
        if not running.size:
            break
        direction = _newton_direction(spec, x, grad, free)
        accepted, lam[running], r[running], tried = _line_search(spec, x, r[running], grad, direction, hi)
        batches += tried
        status[running[~accepted]] = "line-search"
        running = running[accepted]
        iterations[running] += 1
    return _Ascent(lam, r, status, iterations, batches)


def verify_rigidity(spec: HomogeneousSpec, max_lambda: float = DEFAULT_MAX_LAMBDA,
                    n_starts: int = DEFAULT_STARTS, n_samples: int = DEFAULT_SAMPLES, seed: int = 0,
                    tol: float = DEFAULT_TOL_R, tol_lambda: float = DEFAULT_TOL_LAMBDA) -> RigidityReport:
    """Search [1, max_lambda]^s for metrics beating the reference curvature.

    Dense uniform sampling plus a lockstep projected-Newton ascent from
    every start (the all-ones candidate is always the first start, and the
    reference curvature r0 is its value).  The report holds what the search
    found; the box, the effort, the seed and the tolerances are the
    caller's, and are not echoed back.
    Certification requires that no evaluated point exceeds the reference
    curvature beyond ``tol * |r0|`` (so the verdict does not depend on the
    metric's scale), that every point within that distance below r0 sits
    within ``tol_lambda`` of the all-ones vector, and that every ascent
    start converged, its projected gradient in mu = 1/lambda at most
    GRAD_STOP times |r0|.  Specs with central blocks are refused outright:
    on such blocks the curvature does not decay and rigidity fails
    structurally.  An asymmetric coupling tensor is an input error, by
    :func:`gap_breakdown`'s rule.  A box so wide that GRAD_STOP * |r0| /
    max_lambda^2, the lambda-gradient that bound allows at the far corner,
    underflows to zero is an input error: there the gradient underflows
    too, so no start could tell convergence from underflow.  A spec whose
    reference curvature is not finite or is zero is an input error, as are
    a box bound that is not finite, no start, a negative sample count (zero
    samples runs the ascent alone) and a negative seed, and so is a ``tol``
    or ``tol_lambda`` that is negative or not finite (zero is allowed).
    """
    _tolerance(tol, "tol")
    _tolerance(tol_lambda, "tol_lambda")
    if max_lambda <= 1.0:
        raise ValueError("max_lambda must exceed 1")
    if not math.isfinite(max_lambda):
        raise ValueError(f"max_lambda must be finite, got {max_lambda}")
    if n_starts < 1:
        raise ValueError(f"n_starts must be at least 1, got {n_starts}")
    if n_samples < 0:
        raise ValueError(f"n_samples must be nonnegative, got {n_samples}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    central = spec.central_blocks()
    if central:
        raise CenterPresentError(
            "center present: rigidity fails structurally (blocks with zero "
            f"Killing ratio: {central})")
    _require_symmetric_coupling(spec)
    # The generator is made before the clock starts: numpy's first one in a
    # process takes milliseconds to set up, which is not sampling time.
    rng = np.random.default_rng(seed)
    t_start = time.perf_counter()
    # Overflow shows up as a non-finite curvature, which the checks below and
    # the verdict turn into an error or a violation; numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        samples = rng.uniform(1.0, max_lambda, size=(n_samples, spec.s))
        starts = np.vstack([np.ones(spec.s),
                            rng.uniform(1.0, max_lambda, size=(n_starts - 1, spec.s))])
        # R(1) once, at one point as the public evaluators take it: a row's
        # value can move by ulps with the number of rows in its product.
        r0 = float(_block_curvature(spec, starts[0]))
        if not math.isfinite(r0) or r0 == 0.0:
            what = "zero" if r0 == 0.0 else "not finite"
            raise ValueError(f"reference curvature is {what} ({r0}): spec data out of range")
        if GRAD_STOP * abs(r0) / max_lambda / max_lambda == 0.0:
            raise ValueError(f"max_lambda {max_lambda:g} is too large: the convergence bound "
                             f"GRAD_STOP * |r0| / max_lambda^2 underflows at r0 = {r0}")
        r_starts = np.concatenate([[r0], _block_curvature(spec, starts[1:])])
        sampled = (samples, _block_curvature(spec, samples))
        t_ascent = time.perf_counter()
        ascent = _ascend_all(spec, starts, r_starts, r0, max_lambda)
        verdict = _verdict([sampled, *ascent.batches], r0, tol, tol_lambda)
    t_end = time.perf_counter()

    certified = (_negligible(verdict["max_violation"], abs(r0), tol) and verdict["equality_ok"]
                 and bool(np.all(ascent.status == "converged")))
    return RigidityReport(
        r0=r0,
        certified=bool(certified),
        ascent_finals=ascent.lam,
        ascent_values=ascent.r,
        ascent_status=tuple(ascent.status.tolist()),
        ascent_iterations=ascent.iterations,
        **verdict,
        sampling_time=t_ascent - t_start,
        ascent_time=t_end - t_ascent,
    )


@dataclass(frozen=True)
class ShrinkExample:
    """One member of the shrinking SU(2) family, evaluated both ways, and
    the reference value; the curvature is smaller when ``R_g < R_g0``."""

    R_g: float
    R_g_koszul: float
    R_g0: float


# The lam below which the family's curvature falls under the reference value.
SHRINK_CROSSOVER = (4.0 - math.sqrt(10.0)) / 6.0


def su2_shrink_example(lam: float) -> ShrinkExample:
    """SU(2) metrics below the reference that also lower scalar curvature.

    Uses the round reference metric on SU(2) and the eigenvalues
    (lam, lam, 1/2) with 0 < lam < 1, so every member's metric is strictly
    smaller than the reference; for small lam the scalar curvature drops
    like -1/lam^2, and it falls under the reference value for lam below
    :data:`SHRINK_CROSSOVER`.
    """
    if not 0.0 < lam < 1.0:
        raise ValueError("shrink example requires 0 < lam < 1")
    algebra = build_su(2)
    model = binormalize(algebra, killing_metric(algebra, 0.125))
    vec = np.array([lam, lam, 0.5])
    closed = scalar_curvature_closed(model, vec)
    koszul = scalar_curvature_koszul(model, vec)
    r0 = scalar_curvature_closed(model, np.ones(3)).R
    return ShrinkExample(R_g=closed.R, R_g_koszul=koszul.R, R_g0=r0)
