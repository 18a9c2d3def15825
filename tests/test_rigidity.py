import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import liecurv as lc
from liecurv.curvature import _block_curvature, _block_gradient
from liecurv.rigidity import (DEFAULT_STARTS, DEFAULT_TOL_R, GRAD_STOP, _ascend_all, _newton_direction,
                              SHRINK_CROSSOVER, _projected_gradient, _verdict)


def test_gap_polynomial_values():
    assert lc.gap_polynomial(1.0, 1.0, 1.0) == 0.0
    assert lc.gap_polynomial(2.0, 1.0, 1.0) == pytest.approx(2.0, abs=1e-14)
    assert lc.gap_polynomial(1.0, 1.0, 2.0) == pytest.approx(2.0, abs=1e-14)


def test_gap_polynomial_symmetric_exactly():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a, b, c = rng.uniform(0.1, 20.0, size=3)
        reference = lc.gap_polynomial(a, b, c)
        for perm in ((a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)):
            assert lc.gap_polynomial(*perm) == reference


def test_gap_polynomial_vectorized():
    a = np.array([1.0, 2.0])
    out = lc.gap_polynomial(a, 1.0, 1.0)
    assert_allclose(out, [0.0, 2.0], atol=1e-14)


def _left_to_right_sum(terms):
    return terms[0] + terms[1] + terms[2] + terms[3] + terms[4]


def test_ordered_terms_equality_case():
    terms = lc.ordered_gap_terms(1.0, 1.0, 1.0)
    assert all(t == 0.0 for t in terms)
    assert _left_to_right_sum(terms) == 0.0


def test_ordered_terms_one_one_two():
    terms = lc.ordered_gap_terms(1.0, 1.0, 2.0)
    assert_allclose([float(t) for t in terms], [0.0, 1.0, 0.0, 1.0, 0.0], atol=1e-14)
    assert _left_to_right_sum(terms) == pytest.approx(2.0, abs=1e-14)


def test_ordered_terms_generic_point():
    terms = lc.ordered_gap_terms(1.5, 2.0, 3.0)
    total = _left_to_right_sum(terms)
    assert total == pytest.approx(15.25, abs=1e-12)
    assert total == pytest.approx(lc.gap_polynomial(1.5, 2.0, 3.0), abs=1e-12)
    assert all(float(t) >= 0.0 for t in terms)


def test_ordered_terms_match_polynomial_on_random_points():
    rng = np.random.default_rng(13)
    triples = np.sort(rng.uniform(1.0, 10.0, size=(200, 3)), axis=1)
    terms = lc.ordered_gap_terms(triples[:, 0], triples[:, 1], triples[:, 2])
    q = lc.gap_polynomial(triples[:, 0], triples[:, 1], triples[:, 2])
    assert np.abs(_left_to_right_sum(terms) - q).max() <= 1e-12 * (1.0 + np.abs(q).max())
    for t in terms:
        assert t.min() >= 0.0


def test_ordered_terms_require_ordering():
    with pytest.raises(ValueError, match="1 <= a <= b <= c"):
        lc.ordered_gap_terms(2.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="1 <= a <= b <= c"):
        lc.ordered_gap_terms(0.5, 1.0, 2.0)


def test_gap_polynomial_nonnegative_on_constrained_box():
    rng = np.random.default_rng(19)
    triples = rng.uniform(1.0, 50.0, size=(1000, 3))
    q = lc.gap_polynomial(triples[:, 0], triples[:, 1], triples[:, 2])
    assert q.min() >= -1e-12
    small = q <= 1e-9
    if np.any(small):
        assert np.abs(triples[small] - 1.0).max() <= 1e-9


def test_gap_breakdown_su2_stretched(group_specs):
    spec = group_specs["su2"]
    gb = lc.gap_breakdown(spec, [1.0, 1.0, 2.0])
    assert gb.gap == pytest.approx(2.0, abs=1e-12)
    assert gb.casimir_part == 0.0
    assert gb.poly_part == pytest.approx(2.0, abs=1e-12)
    assert abs(gb.gap - gb.casimir_part - gb.poly_part) <= 1e-12


def test_gap_breakdown_identity_metric(group_specs):
    gb = lc.gap_breakdown(group_specs["su3"], np.ones(8))
    assert gb.gap == pytest.approx(0.0, abs=1e-14)
    assert gb.casimir_part == 0.0
    assert gb.poly_part == pytest.approx(0.0, abs=1e-14)


def test_gap_breakdown_sphere(s2_spec):
    gb = lc.gap_breakdown(s2_spec, [2.0])
    assert gb.gap == pytest.approx(4.0, abs=1e-12)
    assert gb.casimir_part == pytest.approx(4.0, abs=1e-12)
    assert gb.poly_part == 0.0
    assert abs(gb.gap - gb.casimir_part - gb.poly_part) <= 1e-12


@pytest.mark.parametrize("key", ["su2", "su3", "so4", "so5", "s2"])
def test_gap_identity_holds_for_all_positive_lambda(key, group_specs, s2_spec):
    spec = s2_spec if key == "s2" else group_specs[key]
    rng = np.random.default_rng(43)
    for _ in range(200):
        lam = 10.0 * (1.0 - rng.random(spec.s))  # uniform on (0, 10]
        gb = lc.gap_breakdown(spec, lam)
        assert abs(gb.gap - gb.casimir_part - gb.poly_part) <= 1e-10 * (1.0 + abs(gb.gap))
    # Log-uniform on [1, 1e300]: the cubes of the large ratios overflow, the split must not.
    with np.errstate(all="raise", under="ignore"):
        for _ in range(200):
            gb = lc.gap_breakdown(spec, 10.0 ** rng.uniform(0.0, 300.0, spec.s))
            assert abs(gb.gap - gb.casimir_part - gb.poly_part) <= 1e-10 * (1.0 + abs(gb.gap))


@pytest.mark.parametrize("key", ["su3", "s2"])
def test_gap_parts_nonnegative_on_constrained_box(key, group_specs, s2_spec):
    spec = s2_spec if key == "s2" else group_specs[key]
    rng = np.random.default_rng(47)
    for _ in range(200):
        lam = rng.uniform(1.0, 10.0, size=spec.s)
        gb = lc.gap_breakdown(spec, lam)
        assert gb.casimir_part >= -1e-12
        assert gb.poly_part >= -1e-12
        assert gb.gap >= -1e-10 * (1.0 + abs(gb.gap))


def test_gap_breakdown_requires_symmetric_coupling():
    a = np.zeros((2, 2, 2))
    a[0, 0, 1] = 1.0
    spec = lc.HomogeneousSpec(name="skewed", block_dims=[1, 1],
                              killing_ratios=[1.0, 1.0], casimirs=[0.0, 0.0],
                              coupling=a, provenance="raw-file")
    with pytest.raises(ValueError, match="bi-invariant"):
        lc.gap_breakdown(spec, [1.0, 1.0])
    # the certificate refuses it by the same rule
    with pytest.raises(ValueError, match="coupling tensor is not symmetric"):
        lc.verify_rigidity(spec, n_starts=2, n_samples=10)


def test_gap_breakdown_accepts_a_roundoff_coupling():
    # On a symmetric space the coupling is roundoff; its asymmetry is measured
    # against the Killing ratios, the coupling's units, not against A alone.
    a = np.zeros((2, 2, 2))
    a[0, 0, 1] = 1e-31
    spec = lc.HomogeneousSpec(name="s2xs2", block_dims=[2, 2], killing_ratios=[8.0, 8.0],
                              casimirs=[4.0, 4.0], coupling=a, provenance="raw-file")
    gb = lc.gap_breakdown(spec, [2.0, 3.0])
    assert abs(gb.gap - gb.casimir_part - gb.poly_part) <= 1e-12


def test_verify_rigidity_su2(group_specs):
    report = lc.verify_rigidity(group_specs["su2"], max_lambda=10.0,
                                n_starts=16, n_samples=2000, seed=7)
    assert report.certified
    assert report.max_violation <= 1e-8
    assert report.best_r == pytest.approx(6.0, abs=1e-8)
    assert np.abs(report.best_lam - 1.0).max() <= 1e-6
    assert report.r0 == pytest.approx(6.0, abs=1e-12)


def test_verify_rigidity_sphere(s2_spec):
    report = lc.verify_rigidity(s2_spec, n_starts=8, n_samples=1000, seed=3)
    assert report.certified
    assert report.best_r == pytest.approx(8.0, abs=1e-8)


def test_verify_rigidity_deterministic(group_specs):
    a = lc.verify_rigidity(group_specs["su2"], n_starts=8, n_samples=500, seed=11)
    b = lc.verify_rigidity(group_specs["su2"], n_starts=8, n_samples=500, seed=11)
    assert np.array_equal(a.best_lam, b.best_lam)
    assert a.best_r == b.best_r
    assert a.max_violation == b.max_violation


def test_verify_rigidity_refuses_central_blocks():
    algebra = lc.direct_sum(lc.build_su(2), lc.abelian(1))
    gram = np.diag([8.0, 8.0, 8.0, 1.0])
    model = lc.binormalize(algebra, gram)
    spec = model.spec
    assert spec.killing_ratios[3] == 0.0
    with pytest.raises(lc.CenterPresentError, match="center present"):
        lc.verify_rigidity(spec)


def test_ascent_stationary_at_reference(group_specs):
    spec = group_specs["su2"]
    ones = np.ones(3)
    grad = lc.scalar_gradient(spec, ones)
    assert np.all(grad <= 0.0)
    assert np.all(_projected_gradient(ones, grad, 10.0) == 0.0)
    start = ones[None, :]
    ascent = _ascend_all(spec, start, _block_curvature(spec, start), 6.0, 10.0)
    assert np.array_equal(ascent.lam[0], ones)
    assert ascent.r[0] == pytest.approx(6.0, abs=1e-12)


def test_ascent_descends_to_reference_corner(group_specs):
    spec = group_specs["su2"]
    start = np.array([[4.0, 2.0, 7.0]])
    ascent = _ascend_all(spec, start, _block_curvature(spec, start), 6.0, 10.0)
    assert np.abs(ascent.lam[0] - 1.0).max() <= 1e-6
    assert ascent.r[0] == pytest.approx(6.0, abs=1e-8)


def test_batch_curvature_matches_scalar(group_specs):
    spec = group_specs["so4"]
    rng = np.random.default_rng(2)
    lams = rng.uniform(0.5, 5.0, size=(20, spec.s))
    batch = _block_curvature(spec, lams)
    for row, expected in zip(lams, batch):
        assert lc.scalar_curvature_closed(spec, row).R == pytest.approx(expected, rel=1e-12)


def test_shrink_example_deep():
    record = lc.su2_shrink_example(0.05)
    assert record.R_g == pytest.approx(-240.0, abs=1e-9)
    assert abs(record.R_g - record.R_g_koszul) <= 1e-9 * (1.0 + abs(record.R_g))
    assert record.R_g0 == pytest.approx(6.0, abs=1e-12)
    assert record.R_g < record.R_g0


def test_shrink_example_moderate():
    record = lc.su2_shrink_example(0.2)
    assert record.R_g == pytest.approx(15.0, abs=1e-9)
    assert not record.R_g < record.R_g0


def test_shrink_crossover_location():
    expected = (4.0 - math.sqrt(10.0)) / 6.0
    assert SHRINK_CROSSOVER == pytest.approx(expected, abs=1e-15)

    # the curvature drop changes sign exactly once on (0, 1), at the crossover
    def drop(lam):
        return lc.su2_shrink_example(lam).R_g - 6.0

    grid = np.linspace(0.01, 0.99, 197)
    signs = np.sign([drop(x) for x in grid])
    flips = np.nonzero(np.diff(signs))[0]
    assert len(flips) == 1

    lo, hi = grid[flips[0]], grid[flips[0] + 1]
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if drop(lo) * drop(mid) <= 0:
            hi = mid
        else:
            lo = mid
    assert abs(0.5 * (lo + hi) - expected) <= 1e-10


@pytest.mark.parametrize("lam", [0.0, 1.0, 1.5, -0.3])
def test_shrink_example_domain(lam):
    with pytest.raises(ValueError, match="0 < lam < 1"):
        lc.su2_shrink_example(lam)


def test_report_holds_results_not_settings(group_specs):
    # The box, effort, seed and tolerances are the caller's; no derived value is stored.
    assert [f.name for f in dataclasses.fields(lc.RigidityReport)] == [
        "best_lam", "best_r", "r0", "max_violation", "certified", "equality_ok",
        "worst_equality_offset", "ascent_finals", "ascent_values", "ascent_status",
        "ascent_iterations", "n_evaluations", "sampling_time", "ascent_time"]
    assert not hasattr(lc.RigidityReport, "worst_gap")
    # The other records hold what their function computed, not constants or sums of their fields.
    assert [f.name for f in dataclasses.fields(lc.GapBreakdown)] == ["gap", "casimir_part", "poly_part"]
    assert [f.name for f in dataclasses.fields(lc.ShrinkExample)] == ["R_g", "R_g_koszul", "R_g0"]
    report = lc.verify_rigidity(group_specs["su2"], max_lambda=5.0,
                                n_starts=4, n_samples=100, seed=123)
    assert report.ascent_finals.shape == (4, 3)
    assert report.sampling_time + report.ascent_time > 0.0


def test_lockstep_ascent_matches_one_start_at_a_time(group_specs, flag_spec):
    for spec in (group_specs["so5"], flag_spec):
        starts = np.random.default_rng(29).uniform(1.0, 10.0, size=(6, spec.s))
        r0 = lc.scalar_curvature_closed(spec, np.ones(spec.s)).R
        ascent = _ascend_all(spec, starts, _block_curvature(spec, starts), r0, 10.0)
        assert ascent.lam.shape == starts.shape and ascent.r.shape == (6,)
        for start, final, value in zip(starts, ascent.lam, ascent.r):
            one = _ascend_all(spec, start[None, :], _block_curvature(spec, start[None, :]), r0, 10.0)
            assert_allclose(final, one.lam[0], rtol=0.0, atol=1e-9)
            assert value == pytest.approx(one.r[0], rel=1e-13)


def test_lockstep_ascent_records_every_evaluation(group_specs):
    spec = group_specs["su3"]
    starts = np.random.default_rng(31).uniform(1.0, 10.0, size=(5, spec.s))
    r0 = lc.scalar_curvature_closed(spec, np.ones(spec.s)).R
    ascent = _ascend_all(spec, starts, _block_curvature(spec, starts), r0, 10.0)
    seen = ascent.batches
    assert np.array_equal(seen[0][0], starts)
    for lam, r in zip(ascent.lam, ascent.r):
        # each final point was recorded with the value reported for it
        assert any(np.any(np.all(lams == lam, axis=1) & (rs == r)) for lams, rs in seen)
    assert list(ascent.status) == ["converged"] * 5
    assert np.all(ascent.iterations >= 1)


@pytest.mark.parametrize("name", ["su3", "so5", "su4"])
@pytest.mark.parametrize("seed", [11, 2020])
def test_every_start_converges(name, seed):
    algebra = lc.resolve_algebra(name)
    spec = lc.binormalize(algebra, lc.killing_metric(algebra, 1.0)).spec
    report = lc.verify_rigidity(spec, seed=seed)
    assert report.certified
    assert report.ascent_status == ("converged",) * DEFAULT_STARTS
    for lam in report.ascent_finals:
        grad = lc.scalar_gradient(spec, lam)
        assert np.linalg.norm(_projected_gradient(lam, grad, 10.0)) <= GRAD_STOP


def test_report_diagnostics(group_specs):
    report = lc.verify_rigidity(group_specs["su2"], n_starts=8, n_samples=300, seed=3)
    assert len(report.ascent_status) == 8
    assert report.ascent_iterations.shape == (8,)
    assert report.ascent_iterations[0] == 0  # the reference start is already stationary
    # the samples, the starts (r0 is the all-ones start's value) and at least one trial point per step
    assert report.n_evaluations >= 300 + 8 + int(report.ascent_iterations.sum())
    assert report.sampling_time > 0.0 and report.ascent_time > 0.0


def test_unconverged_search_does_not_certify(group_specs, monkeypatch):
    from liecurv import rigidity

    monkeypatch.setattr(rigidity, "MAX_ITER", 1)
    report = lc.verify_rigidity(group_specs["su3"], n_starts=8, n_samples=100, seed=0)
    assert "max-iter" in report.ascent_status
    assert report.max_violation <= DEFAULT_TOL_R and report.equality_ok
    assert not report.certified


def _beaten_in_the_box():
    # R = 1/(2 l0) - 1/(2 l1) - l1/(2 l0^2): R(1, 1) = -0.5, R(10, 10) = -0.05.
    return lc.spec_from_dict({"s": 2, "d": [1, 1], "b": [1.0, 1.0], "c": [0.0, 0.0],
                              "A": [[0, 0, 1, 2.0], [0, 1, 0, 2.0], [1, 0, 0, 2.0]]})


@pytest.mark.parametrize("rigid", [True, False])
def test_certified_is_the_documented_rule(group_specs, rigid):
    spec = group_specs["su3"] if rigid else _beaten_in_the_box()
    report = lc.verify_rigidity(spec, n_starts=8, n_samples=200, seed=0)
    within = report.max_violation <= DEFAULT_TOL_R * abs(report.r0)
    assert within == rigid
    assert report.certified == (within and report.equality_ok
                                and all(status == "converged" for status in report.ascent_status))
    assert report.certified == rigid


def test_non_finite_reference_curvature_is_an_input_error():
    a = np.zeros((2, 2, 2))
    a[0, 1, 1] = a[1, 0, 1] = a[1, 1, 0] = a[0, 0, 0] = 1e308
    spec = lc.HomogeneousSpec(name="huge", block_dims=[1, 1], killing_ratios=[1.0, 1.0],
                              casimirs=[0.0, 0.0], coupling=a, provenance="raw-file")
    with pytest.raises(ValueError, match="not finite"):
        lc.verify_rigidity(spec, n_starts=2, n_samples=10)


def test_zero_reference_curvature_is_an_input_error():
    # tol is relative to |r0|, which gives it no scale at r0 = 0
    spec = lc.spec_from_dict({"s": 1, "d": [1], "b": [1.0], "c": [0.0], "A": [[0, 0, 0, 2.0]]})
    with pytest.raises(ValueError, match="reference curvature is zero"):
        lc.verify_rigidity(spec, n_starts=2, n_samples=10)


@pytest.mark.parametrize("scale", [1e-5, 1.0, 1e5])
def test_newton_step_stays_finite_where_the_free_hessian_vanishes(scale):
    # R is linear in lam_0 while every other ratio sits on the lower bound with
    # its gradient pointing out of the box: the free Hessian block is exactly 0.
    algebra = lc.build_su(3)
    spec = lc.binormalize(algebra, lc.killing_metric(algebra, scale)).spec
    lam = np.ones((1, 8))
    lam[0, 0] = 1.107
    grad = _block_gradient(spec, lam)
    free = _projected_gradient(lam, grad, 10.0) == grad
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        direction = _newton_direction(spec, lam, grad, free)
    assert np.all(np.isfinite(direction))
    assert direction[0, 0] < 0 and grad[0, 0] < 0  # the free step still ascends


def test_tracker_counts_non_finite_curvature_as_violation():
    verdict = _verdict([(np.array([[2.0, 2.0], [3.0, 3.0]]), np.array([0.5, np.nan]))], 1.0, 1e-8, 1e-6)
    assert verdict["max_violation"] == math.inf
    verdict = _verdict([(np.array([[2.0, 2.0]]), np.array([-np.inf]))], 1.0, 1e-8, 1e-6)
    assert verdict["max_violation"] == math.inf
    assert verdict["n_evaluations"] == 1


def test_verdict_reads_the_batches_in_order():
    r0, empty = 2.0, (np.empty((0, 2)), np.empty(0))
    # the first of two equal maxima is the best point; a near-tie 1e-9 from (1, 1) is equality
    verdict = _verdict([(np.array([[1.0, 1.0], [1.5, 2.0]]), np.array([r0, 1.0])), empty,
                        (np.array([[1.0, 1.0 + 1e-9]]), np.array([r0]))], r0, 1e-8, 1e-6)
    assert verdict["best_lam"].tolist() == [1.0, 1.0] and verdict["best_r"] == r0
    assert verdict["max_violation"] == 0.0 and verdict["equality_ok"]
    assert verdict["worst_equality_offset"] == pytest.approx(1e-9, rel=1e-6)
    assert verdict["n_evaluations"] == 3
    # NaN and -inf are violations of unknown size; a near-tie at offset 2 is no equality
    lams, rs = np.array([[4.0, 4.0], [5.0, 5.0], [2.0, 3.0]]), np.array([-np.inf, np.nan, r0 - 1e-12])
    verdict = _verdict([(np.array([[1.0, 1.0]]), np.array([r0])), empty, (lams, rs)], r0, 1e-8, 1e-6)
    assert verdict["max_violation"] == math.inf and not verdict["equality_ok"]
    assert verdict["worst_equality_offset"] == 2.0 and verdict["best_r"] == r0
    assert verdict["n_evaluations"] == 4
    # a NaN in a batch does not hide that batch's finite rows from the best point
    lams, rs = np.array([[3.0, 3.0], [6.0, 6.0]]), np.array([r0 + 0.5, np.nan])
    verdict = _verdict([(np.array([[1.0, 1.0]]), np.array([r0])), (lams, rs)], r0, 1e-8, 1e-6)
    assert verdict["best_lam"].tolist() == [3.0, 3.0] and verdict["best_r"] == r0 + 0.5
    assert verdict["max_violation"] == math.inf


def test_ascent_records_its_starts_before_moving_them(group_specs):
    spec = group_specs["su3"]
    starts = np.random.default_rng(31).uniform(1.0, 10.0, size=(5, spec.s))
    r_starts = _block_curvature(spec, starts)
    ascent = _ascend_all(spec, starts, r_starts, lc.scalar_curvature_closed(spec, np.ones(spec.s)).R, 10.0)
    assert not np.any(np.all(ascent.lam == starts, axis=1))  # every start moved
    assert np.array_equal(ascent.batches[0][0], starts) and np.array_equal(ascent.batches[0][1], r_starts)
    assert "_projected_gradient" not in _newton_direction.__code__.co_names  # one per ascent step


@pytest.mark.parametrize("n_samples", [0, 50])
def test_evaluations_are_the_samples_and_the_ascent_batches(group_specs, n_samples):
    spec, seed = group_specs["so5"], 3
    report = lc.verify_rigidity(spec, n_starts=6, n_samples=n_samples, seed=seed)
    rng = np.random.default_rng(seed)
    if n_samples:  # a draw of zero rows would consume nothing
        rng.uniform(1.0, 10.0, size=(n_samples, spec.s))
    starts = np.vstack([np.ones(spec.s), rng.uniform(1.0, 10.0, size=(5, spec.s))])
    r_starts = np.concatenate([[report.r0], _block_curvature(spec, starts[1:])])
    ascent = _ascend_all(spec, starts, r_starts, report.r0, 10.0)
    assert report.n_evaluations == n_samples + sum(len(rs) for _, rs in ascent.batches)
    assert np.array_equal(report.ascent_finals, ascent.lam)


def test_overflow_inside_the_box_is_not_certified():
    # Finite reference curvature, R(1) = -3.75e307, but R is -inf at (1, 10).
    a = np.zeros((2, 2, 2))
    a[0, 0, 1] = a[0, 1, 0] = a[1, 0, 0] = 5e307
    spec = lc.HomogeneousSpec(name="overflow", block_dims=[1, 1], killing_ratios=[1.0, 1.0],
                              casimirs=[0.0, 0.0], coupling=a, provenance="raw-file")
    report = lc.verify_rigidity(spec, n_starts=4, n_samples=100, seed=0)
    assert math.isfinite(report.r0)
    assert report.max_violation == math.inf
    assert not report.certified


@pytest.mark.parametrize("name", ["su3", "so5", "su4"])
def test_reference_start_value_is_the_reference(name):
    # r0 and the all-ones start come out of one matrix product, so the
    # reference cannot beat itself by a rounding difference.
    algebra = lc.resolve_algebra(name)
    spec = lc.binormalize(algebra, lc.killing_metric(algebra, 1.0)).spec
    report = lc.verify_rigidity(spec, seed=0)
    assert report.ascent_values[0] == report.r0
    assert np.all(report.ascent_finals[0] == 1.0)


@pytest.mark.parametrize("change, match", [
    ({"max_lambda": math.inf}, "finite"),
    ({"max_lambda": math.nan}, "finite"),
    ({"n_starts": 0}, "n_starts"),
    ({"n_starts": -3}, "n_starts"),
    ({"n_samples": -5}, "n_samples"),
    ({"max_lambda": 1.0}, "max_lambda must exceed 1"),
    ({"seed": -1}, "^seed must be nonnegative, got -1$"),
    ({"max_lambda": 1e200}, r"^max_lambda 1e\+200 is too large"),  # GRAD_STOP * |r0| / max_lambda^2 underflows
])
def test_search_parameters_are_validated(s2_spec, change, match):
    with pytest.raises(ValueError, match=match):
        lc.verify_rigidity(s2_spec, **{"n_starts": 2, "n_samples": 10, **change})


def test_zero_samples_runs_the_ascent_alone(s2_spec):
    report = lc.verify_rigidity(s2_spec, n_starts=3, n_samples=0, seed=1)
    assert len(report.ascent_status) == 3
    assert report.certified


def test_one_beta_for_the_evaluators_and_the_search(group_specs, flag_spec):
    raw = lc.spec_from_dict({"s": 2, "d": [1, 3], "b": [0.7, 1.3], "c": [0.0, 0.1],
                             "A": [[0, 1, 1, 0.2], [1, 0, 1, 0.2]]})
    for spec in (*group_specs.values(), flag_spec, raw):
        assert spec.beta.tolist() == (spec.killing_ratios * spec.block_dims).tolist()


def test_search_calls_the_kernels_not_the_public_evaluators():
    from liecurv import rigidity

    public = {"scalar_gradient_homogeneous", "scalar_curvature_homogeneous", "scalar_curvature_closed",
              "scalar_gradient"}
    for fn in (rigidity._ascend_all, rigidity._line_search, rigidity._newton_direction,
               rigidity.verify_rigidity):
        assert not public & set(fn.__code__.co_names), fn.__name__


@pytest.mark.parametrize("name", ["tol", "tol_lambda"])
@pytest.mark.parametrize("value", [-1.0, -1e-300, math.nan, math.inf])
def test_tolerances_must_be_finite_and_nonnegative(s2_spec, name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite and nonnegative"):
        lc.verify_rigidity(s2_spec, n_starts=2, n_samples=10, **{name: value})


@pytest.mark.parametrize("name", ["tol", "tol_lambda"])
def test_zero_tolerance_is_allowed(s2_spec, name):
    # Zero asks for an exact verdict: on S^2 the reference start is the exact maximum.
    report = lc.verify_rigidity(s2_spec, n_starts=2, n_samples=10, **{name: 0.0})
    assert report.certified


@pytest.mark.parametrize("name", ["su2", "su3", "su4", "su5", "so5", "so7", "s2", "flag"])
def test_reference_curvature_is_the_single_point_value(name, s2_spec, flag_spec):
    from conftest import canonical_model

    # Bitwise: r0 is R(1) on one row, as the public evaluator takes it, not a
    # row of the batch of starts, whose product can round differently.
    spec = {"s2": s2_spec, "flag": flag_spec}.get(name) or canonical_model(name).spec
    report = lc.verify_rigidity(spec, n_samples=0)
    assert report.r0 == lc.scalar_curvature_closed(spec, np.ones(spec.s)).R


@pytest.mark.parametrize("name", ["su3", "su4"])
def test_wide_box_starts_converge_only_by_the_mu_gradient(name):
    # In lambda the gradient falls like 1/lambda^2, so on [1, 1e12] every
    # start would pass a lambda-gradient test before it moved.  A start counts
    # as converged only when its projected gradient in mu = 1/lambda is small.
    algebra = lc.resolve_algebra(name)
    spec = lc.binormalize(algebra, lc.killing_metric(algebra, 1.0)).spec
    report = lc.verify_rigidity(spec, max_lambda=1e12, n_starts=4, n_samples=0)
    assert not report.certified
    converged = np.array(report.ascent_status) == "converged"
    finals = report.ascent_finals[converged]
    mu_grad = _projected_gradient(finals, _block_gradient(spec, finals), 1e12) * finals * finals
    assert np.all(np.linalg.norm(mu_grad, axis=1) <= GRAD_STOP * abs(report.r0))
    assert np.all(report.ascent_iterations[1:][converged[1:]] > 0)  # the reference start aside


def test_generator_is_made_before_the_clock_starts(s2_spec, monkeypatch):
    # numpy's first generator in a process takes milliseconds to set up;
    # that is not sampling time.
    from types import SimpleNamespace
    from liecurv import rigidity

    calls = []
    make_rng, clock = np.random.default_rng, rigidity.time.perf_counter
    monkeypatch.setattr(np.random, "default_rng", lambda seed: calls.append("default_rng") or make_rng(seed))
    monkeypatch.setattr(rigidity, "time", SimpleNamespace(perf_counter=lambda: calls.append("clock") or clock()))
    lc.verify_rigidity(s2_spec, n_starts=2, n_samples=0)
    assert calls[:2] == ["default_rng", "clock"]
