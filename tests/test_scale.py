"""Verdicts do not depend on the scale of the reference metric.

Scaling the metric by s multiplies every curvature and every spec datum by
1/s, so rigidity, central blocks and the structural refusals of build_spec
are properties of the geometry, not of the units.  Each case runs at metric
scales from 1e-200 to 1e200 times its canonical one.
"""

import numpy as np
import pytest

import liecurv as lc
from liecurv.rigidity import DEFAULT_STARTS

SCALES = [1e-200, 1e-12, 1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9, 1e12, 1e200]
E8 = np.eye(8)
FLAG_BLOCKS = (np.vstack([E8[0], E8[3]]), np.vstack([E8[1], E8[4]]), np.vstack([E8[2], E8[5]]))


def _group(name, scale):
    algebra = lc.resolve_algebra(name)
    canonical = 0.125 if name == "su2" else 1.0
    return lc.binormalize(algebra, lc.killing_metric(algebra, canonical * scale)).spec


def _quotient(name, scale):
    if name == "s2":
        algebra = lc.build_su(2)
        embedding = lc.SubalgebraEmbedding(parent=algebra, h_basis=[[0.0, 0.0, 1.0]],
                                           blocks=([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],))
        return lc.build_spec(embedding, lc.killing_metric(algebra, 0.125 * scale), name=name)
    algebra = lc.build_su(3)
    embedding = lc.SubalgebraEmbedding(parent=algebra, h_basis=[E8[6], E8[7]], blocks=FLAG_BLOCKS)
    return lc.build_spec(embedding, lc.killing_metric(algebra, scale), name=name)


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("name", ["su2", "su3", "su4", "so5", "s2", "flag"])
def test_rigidity_verdict_is_scale_free(name, scale):
    spec = _quotient(name, scale) if name in ("s2", "flag") else _group(name, scale)
    assert spec.central_blocks() == []
    report = lc.verify_rigidity(spec, seed=0)
    assert report.certified
    assert report.ascent_status == ("converged",) * DEFAULT_STARTS
    assert report.ascent_iterations.max() > 0


def _closure(scale):
    su2 = lc.build_su(2)
    embedding = lc.SubalgebraEmbedding(parent=su2, h_basis=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
                                       blocks=([[0.0, 0.0, 1.0]],))
    return embedding, lc.killing_metric(su2, 0.125 * scale)


def _invariance(scale):
    su3 = lc.build_su(3)
    embedding = lc.SubalgebraEmbedding(parent=su3, h_basis=[E8[6]],
                                       blocks=tuple([E8[i]] for i in range(8) if i != 6))
    return embedding, lc.killing_metric(su3, scale)


def _casimir(scale):
    su3 = lc.build_su(3)
    embedding = lc.SubalgebraEmbedding(parent=su3, h_basis=[E8[6]],
                                       blocks=(np.vstack([E8[i] for i in range(8) if i != 6]),))
    return embedding, lc.killing_metric(su3, scale)


def _killing_ratio(scale):
    algebra = lc.direct_sum(lc.build_su(2), lc.build_su(2))
    e = np.eye(6)
    embedding = lc.SubalgebraEmbedding(parent=algebra, h_basis=[],
                                       blocks=(np.vstack([e[0], e[3]]), [e[1]], [e[2]], [e[4]], [e[5]]))
    return embedding, np.diag([8.0, 8.0, 8.0, 16.0, 16.0, 16.0]) * scale


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("case, message", [
    (_closure, "not a subalgebra"),
    (_invariance, "not invariant"),
    (_casimir, "Casimir operator not scalar"),
    (_killing_ratio, "Killing ratio not constant"),
])
def test_build_spec_refusals_are_scale_free(case, message, scale):
    embedding, metric = case(scale)
    with pytest.raises(ValueError, match=message):
        lc.build_spec(embedding, metric)
