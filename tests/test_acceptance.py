"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report lines; the whole suite stays inside desk-scale runtimes.
"""

import time

import numpy as np
import pytest

import liecurv as lc

ALGEBRAS = ("su2", "su3", "so4", "so5")


def _report(num: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {text}")
    assert ok, f"criterion {num} failed: {text}"


def test_criterion_01_golden_round_curvature(su2_model):
    ones = np.ones(3)
    closed = lc.scalar_curvature_closed(su2_model, ones).R
    koszul = lc.scalar_curvature_koszul(su2_model, ones).R
    ok = abs(closed - 6.0) <= 1e-9 and abs(koszul - 6.0) <= 1e-9 \
        and abs(closed - koszul) <= 1e-9
    _report(1, ok, f"round reference curvature = 6 both ways "
                   f"(closed {closed!r}, koszul {koszul!r})")


def test_criterion_02_oracle_equivalence(group_models):
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for name in ALGEBRAS:
        model = group_models[name]
        for _ in range(200):
            lam = rng.uniform(0.1, 10.0, size=model.n)
            closed = lc.scalar_curvature_closed(model, lam).R
            koszul = lc.scalar_curvature_koszul(model, lam).R
            worst = max(worst, abs(closed - koszul) / (1.0 + abs(closed)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed <= 10.0
    _report(2, ok, f"closed vs koszul on 200 random metrics x {len(ALGEBRAS)} algebras: "
                   f"worst rel diff {worst:.3e}, {elapsed:.2f}s")


def test_criterion_03_shrinking_family_asymptotics(su2_model):
    r0 = lc.scalar_curvature_closed(su2_model, np.ones(3)).R
    ok = True
    details = []
    for lam in (1e-2, 1e-3, 1e-4):
        rg = lc.scalar_curvature_closed(su2_model, [lam, lam, 0.5]).R
        scaled = lam * lam * (rg - r0)
        ok = ok and abs(scaled + 1.0) <= 10.0 * lam
        details.append(f"{lam:g}:{scaled:+.6f}")
    eigenvalues = (0.05, 0.05, 0.5)
    record = lc.su2_shrink_example(eigenvalues[0])
    ok = ok and max(eigenvalues) < 1.0 and record.R_g < record.R_g0
    _report(3, ok, "lam^2 * curvature drop -> -1 (" + ", ".join(details)
            + f"); at 0.05 both metric and curvature sit below the reference")


def test_criterion_04_sum_rule(group_specs, s2_spec):
    worst = 0.0
    for name in ALGEBRAS:
        worst = max(worst, float(lc.sum_rule_defect(group_specs[name]).max()))
    worst = max(worst, float(lc.sum_rule_defect(s2_spec).max()))
    ok = worst <= 1e-9
    _report(4, ok, f"coupling sum rule per block: worst defect {worst:.3e}")


def test_criterion_05_gap_decomposition_identity(group_specs, s2_spec):
    rng = np.random.default_rng(555)
    worst = 0.0
    specs = [group_specs[name] for name in ALGEBRAS] + [s2_spec]
    for spec in specs:
        for _ in range(1000):
            lam = 10.0 * (1.0 - rng.random(spec.s))  # uniform on (0, 10]
            gb = lc.gap_breakdown(spec, lam)
            worst = max(worst, abs(gb.gap - gb.casimir_part - gb.poly_part) / (1.0 + abs(gb.gap)))
    ok = worst <= 1e-10
    _report(5, ok, f"gap = casimir + polynomial on 1000 random metrics per spec: "
                   f"worst rel residual {worst:.3e}")


def test_criterion_06_polynomial_certificate():
    # evaluated in extended precision so the stated absolute tolerance is
    # meaningful at the magnitudes reached on [1, 50]^3
    rng = np.random.default_rng(66)
    triples = rng.uniform(1.0, 50.0, size=(100_000, 3)).astype(np.longdouble)
    q = lc.gap_polynomial(triples[:, 0], triples[:, 1], triples[:, 2])
    ordered = np.sort(triples, axis=1)
    terms = lc.ordered_gap_terms(ordered[:, 0], ordered[:, 1], ordered[:, 2])
    total = terms[0] + terms[1] + terms[2] + terms[3] + terms[4]
    mismatch = float(np.abs(total - q).max())
    term_min = float(min(t.min() for t in terms))
    at_ones = lc.gap_polynomial(1.0, 1.0, 1.0)
    ok = q.min() >= -1e-12 and mismatch <= 1e-12 and term_min >= -1e-12 and at_ones == 0.0
    _report(6, ok, f"gap polynomial >= 0 on 1e5 triples (min {float(q.min()):.3e}), "
                   f"ordered terms match within {mismatch:.3e}, value at ones {float(at_ones)!r}")


def test_criterion_07_rigidity_certificates(group_specs, s2_spec):
    ok = True
    details = []
    for key, spec in (("su2", group_specs["su2"]), ("su3", group_specs["su3"]),
                      ("so5", group_specs["so5"]), ("s2", s2_spec)):
        report = lc.verify_rigidity(spec, max_lambda=10.0, n_starts=64,
                                    n_samples=10_000, seed=2020,
                                    tol=1e-8, tol_lambda=1e-6)
        ok = ok and report.certified and report.max_violation <= 1e-8 and report.equality_ok
        wall_time = report.sampling_time + report.ascent_time
        if key == "so5":
            ok = ok and wall_time <= 30.0
        details.append(f"{key}:{'ok' if report.certified else 'FAIL'}"
                       f"({wall_time:.1f}s)")
    _report(7, ok, "rigidity certificates " + ", ".join(details))


def test_criterion_08_central_blocks_rejected():
    algebra = lc.direct_sum(lc.build_su(2), lc.abelian(1))
    model = lc.binormalize(algebra, np.diag([8.0, 8.0, 8.0, 1.0]))
    spec = model.spec
    reports_zero = spec.killing_ratios[3] == 0.0 and spec.central_blocks() == [3]
    refused = False
    try:
        lc.verify_rigidity(spec)
    except lc.CenterPresentError as exc:
        refused = "center present" in str(exc)
    ok = reports_zero and refused
    _report(8, ok, f"central block reports zero Killing ratio and is refused "
                   f"(ratios {spec.killing_ratios.tolist()})")


def test_criterion_09_sphere_goldens(s2_spec):
    values = {t: lc.scalar_curvature_closed(s2_spec, [t]).R for t in (0.5, 1.0, 2.0)}
    ok = all(abs(values[t] - 8.0 / t) <= 1e-12 for t in values)
    _report(9, ok, f"sphere quotient curvature 8/t: {values}")


def test_criterion_10_gradient_check(group_models):
    rng = np.random.default_rng(1010)
    h = 1e-5
    worst = 0.0
    for name in ALGEBRAS:
        model = group_models[name]
        for _ in range(100):
            lam = rng.uniform(0.5, 5.0, size=model.n)
            grad = lc.scalar_gradient(model, lam)
            for m in range(model.n):
                up = lam.copy(); up[m] += h
                dn = lam.copy(); dn[m] -= h
                fd = (lc.scalar_curvature_closed(model, up).R
                      - lc.scalar_curvature_closed(model, dn).R) / (2.0 * h)
                worst = max(worst, abs(grad[m] - fd))
    ok = worst <= 1e-6
    _report(10, ok, f"analytic gradient vs central differences: worst abs diff {worst:.3e}")
