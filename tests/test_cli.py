import json
import math
import re

import numpy as np
import pytest

import liecurv as lc
from liecurv.cli import main


@pytest.fixture()
def abelian_file(tmp_path):
    path = tmp_path / "abelian2.json"
    path.write_text(json.dumps({"name": "abelian2", "dim": 2, "structure_constants": []}),
                    encoding="utf-8")
    return str(path)


@pytest.fixture()
def sl2_file(tmp_path):
    # [h, x] = 2x, [h, y] = -2y, [x, y] = h: indefinite Killing form
    obj = {"name": "sl2", "dim": 3, "structure_constants": [
        [0, 1, 1, 2.0], [0, 2, 2, -2.0], [1, 2, 0, 1.0]]}
    path = tmp_path / "sl2.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


@pytest.fixture()
def u2_like_file(tmp_path):
    algebra = lc.direct_sum(lc.build_su(2), lc.abelian(1))
    path = tmp_path / "u2like.json"
    path.write_text(json.dumps(lc.algebra_to_dict(algebra)), encoding="utf-8")
    return str(path)


@pytest.fixture()
def s2_spec_file(tmp_path):
    derived = {
        "algebra": "su2",
        "scale": 0.125,
        "h_basis": [[0.0, 0.0, 1.0]],
        "blocks": [[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]],
    }
    path = tmp_path / "s2.spec"
    path.write_text(json.dumps(derived), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_algebra_su2(capsys):
    code, out, _ = run(capsys, "algebra", "--algebra", "su2")
    assert code == 0
    assert "dim:                 3" in out
    assert "semisimple:          True" in out
    assert "center dim:          0" in out


def test_algebra_so5(capsys):
    code, out, _ = run(capsys, "algebra", "--algebra", "so5")
    assert code == 0
    assert "dim:                 10" in out


def test_algebra_abelian_file_is_informational(capsys, abelian_file):
    code, out, _ = run(capsys, "algebra", "--algebra", abelian_file)
    assert code == 0
    assert "semisimple:          False" in out
    assert "n/a" in out  # no definite reference metric to normalize against


def test_algebra_non_compact_exit(capsys, sl2_file, tmp_path):
    # The Heisenberg algebra has K = 0, so no positive eigenvalue, but it is
    # nilpotent and not abelian: ker K is larger than its center.
    heis = tmp_path / "heis.json"
    heis.write_text(json.dumps({"name": "heis", "dim": 3, "structure_constants": [[0, 1, 2, 1.0]]}),
                    encoding="utf-8")
    for source in (sl2_file, str(heis)):
        code, out, err = run(capsys, "algebra", "--algebra", source)
        assert code == 3
        assert "not of compact type" in err


@pytest.mark.parametrize("fmt", ["table", "structured"])
def test_algebra_normalization_failure_is_an_input_error(capsys, fmt):
    # su3's own Killing metric has a roundoff invariance defect (antisymmetry
    # in its orthonormal frame), which a zero tolerance refuses: an error
    # naming the cause, not "n/a".
    code, out, err = run(capsys, "algebra", "--algebra", "su3", "--tol", "0", "--format", fmt)
    assert code == 2
    assert err == "error: not bi-invariant-orthonormal: structure tensor is not totally antisymmetric\n"
    assert out == ""


def test_algebra_perturbed_file_exits_2(capsys, tmp_path):
    # su2 with [e0, e1] = e2 + 1e-8 e0 breaks Jacobi by 1e-8 and keeps a
    # definite Killing form, which then fails bi-invariance (antisymmetry in
    # its orthonormal frame): an error naming the check, not a report with "n/a".
    obj = {"name": "su2p", "dim": 3, "structure_constants": [
        [0, 1, 2, 1.0], [1, 2, 0, 1.0], [2, 0, 1, 1.0], [0, 1, 0, 1e-8]]}
    path = tmp_path / "su2p.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    code, out, err = run(capsys, "algebra", "--algebra", str(path))
    assert code == 2
    assert err == "error: not bi-invariant-orthonormal: structure tensor is not totally antisymmetric\n"
    assert out == ""


def test_algebra_only_an_indefinite_killing_form_is_not_applicable(capsys, sl2_file):
    code, out, _ = run(capsys, "algebra", "--algebra", sl2_file, "--format", "structured")
    assert code == 3
    assert json.loads(out)["result"]["orthonormal_antisymmetry_defect"] is None
    code, out, _ = run(capsys, "algebra", "--algebra", "su3", "--format", "structured")
    assert code == 0
    assert json.loads(out)["result"]["orthonormal_antisymmetry_defect"] >= 0.0


def test_algebra_unknown_source(capsys):
    code, _, err = run(capsys, "algebra", "--algebra", "nosuch")
    assert code == 2
    assert "unknown algebra source" in err


@pytest.mark.parametrize("name", ["su02", "so005", "su\u0662", "su2\n", "su0"])
def test_noncanonical_builtin_name_is_refused(capsys, name):
    # Not read as su2 at scale 1.0 (the su2 default is 0.125): not a built-in at all.
    code, out, err = run(capsys, "scalar", "--algebra", name, "--lambda", "1,1,1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: unknown algebra source")


def test_scalar_round_value(capsys):
    code, out, _ = run(capsys, "scalar", "--algebra", "su2", "--scale", "0.125",
                       "--lambda", "1,1,1")
    assert code == 0
    assert "closed form: 6.0" in out
    assert "koszul:      6.0" in out


def test_scalar_shrink_value(capsys):
    code, out, _ = run(capsys, "scalar", "--algebra", "su2", "--scale", "0.125",
                       "--lambda", "0.05,0.05,0.5")
    assert code == 0
    assert "closed form: -240.0" in out


def test_scalar_homogeneous_spec(capsys, s2_spec_file):
    code, out, _ = run(capsys, "scalar", "--homogeneous", s2_spec_file, "--lambda", "1")
    assert code == 0
    assert "homogeneous formula: 8.0" in out


def test_scalar_rejects_nonpositive_lambda(capsys):
    code, _, err = run(capsys, "scalar", "--algebra", "su2", "--lambda", "1,-1,1")
    assert code == 2
    assert "positive" in err


def test_scalar_rejects_wrong_length(capsys):
    code, _, err = run(capsys, "scalar", "--algebra", "su2", "--lambda", "1,1")
    assert code == 2


def test_scalar_requires_one_source(capsys, s2_spec_file):
    code, _, err = run(capsys, "scalar", "--algebra", "su2",
                       "--homogeneous", s2_spec_file, "--lambda", "1")
    assert code == 2
    assert "exactly one" in err


def test_scalar_lambda_from_file(capsys, tmp_path):
    lam_file = tmp_path / "lam.txt"
    lam_file.write_text("\n1\n\n  \n1\n1\n\n", encoding="utf-8")  # blank lines are skipped
    code, out, _ = run(capsys, "scalar", "--algebra", "su2", "--lambda", f"@{lam_file}")
    assert code == 0
    assert "closed form: 6.0" in out


@pytest.mark.parametrize("argv, name", [
    (("rigidity", "--algebra", "su2", "--tol", "-1"), "tol"),
    (("rigidity", "--algebra", "su2", "--tol-lambda", "-1"), "tol_lambda"),
    (("rigidity", "--algebra", "su2", "--tol", "inf"), "tol"),
    (("algebra", "--algebra", "su2", "--tol", "-1"), "tol"),
    (("algebra", "--algebra", "su2", "--tol", "nan"), "tol"),
    (("scalar", "--algebra", "su2", "--tol", "-1", "--lambda", "1,1,1"), "tol"),
])
@pytest.mark.parametrize("fmt", ["table", "structured"])
def test_bad_tolerance_is_an_input_error(capsys, argv, name, fmt):
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert code == 2
    assert err.startswith(f"error: {name} must be finite and nonnegative") and err.count("\n") == 1
    assert out == ""


def test_rigidity_su2_certifies(capsys):
    code, out, _ = run(capsys, "rigidity", "--algebra", "su2",
                       "--starts", "8", "--samples", "500", "--seed", "1")
    assert code == 0
    assert "certified:           True" in out


def test_rigidity_so5_certifies(capsys):
    code, out, _ = run(capsys, "rigidity", "--algebra", "so5",
                       "--starts", "8", "--samples", "500", "--seed", "2")
    assert code == 0
    assert "certified:           True" in out


def test_rigidity_center_exit(capsys, u2_like_file):
    code, _, err = run(capsys, "rigidity", "--algebra", u2_like_file,
                       "--starts", "4", "--samples", "100")
    assert code == 4
    assert "center present" in err


def test_rigidity_homogeneous_source(capsys, s2_spec_file):
    code, out, _ = run(capsys, "rigidity", "--homogeneous", s2_spec_file,
                       "--starts", "4", "--samples", "200", "--seed", "5")
    assert code == 0
    assert "certified:           True" in out


def test_rigidity_structured_output_reproducible(capsys, monkeypatch):
    args = ("rigidity", "--algebra", "su2", "--starts", "4", "--samples", "200",
            "--seed", "42", "--format", "structured")
    code_a, out_a, _ = run(capsys, *args)
    code_b, out_b, _ = run(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b  # byte-identical for identical input and seed
    doc = json.loads(out_a)
    assert doc["config"]["seed"] == 42
    assert doc["result"]["certified"] is True


def test_rigidity_seed_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("LIECURV_SEED", "99")
    code, out, _ = run(capsys, "rigidity", "--algebra", "su2",
                       "--starts", "4", "--samples", "100", "--format", "structured")
    assert code == 0
    assert json.loads(out)["config"]["seed"] == 99


def test_structured_output_echoes_config(capsys):
    code, out, _ = run(capsys, "scalar", "--algebra", "su2", "--lambda", "1,1,1",
                       "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["algebra"] == "su2"
    assert doc["config"]["scale"] == 0.125  # canonical default for su2
    assert doc["config"]["lambda"] == [1.0, 1.0, 1.0]


def test_homogeneous_inspection(capsys, s2_spec_file):
    code, out, _ = run(capsys, "homogeneous", "--homogeneous", s2_spec_file)
    assert code == 0
    assert "block dims:       [2]" in out
    assert "casimirs:         [4.0]" in out
    assert "central blocks:   none" in out


def test_homogeneous_raw_file(capsys, tmp_path):
    raw = {"s": 1, "d": [2], "b": [8.0], "c": [0.0], "A": []}
    path = tmp_path / "raw.spec"
    path.write_text(json.dumps(raw), encoding="utf-8")
    code, out, _ = run(capsys, "homogeneous", "--homogeneous", str(path))
    assert code == 0
    assert "raw-file" in out
    assert "sum-rule defects: [16.0]" in out


def test_example_shrink_deep(capsys):
    code, out, _ = run(capsys, "example", "su2-shrink", "--lambda", "0.05")
    assert code == 0
    assert "R_g (closed):     -240.0" in out
    assert "curvature smaller: True" in out


def test_example_shrink_moderate(capsys):
    code, out, _ = run(capsys, "example", "su2-shrink", "--lambda", "0.2")
    assert code == 0
    assert "R_g (closed):     15.0" in out
    assert "curvature smaller: False" in out


def test_example_shrink_near_crossover(capsys):
    code, out, _ = run(capsys, "example", "su2-shrink", "--lambda", "0.13962",
                       "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["result"]["R_g"] - 6.0) < 1e-2


@pytest.mark.parametrize("lam", ["0.05", "0.3", "0.9"])
def test_example_fills_its_derived_values(capsys, lam):
    code, out, _ = run(capsys, "example", "su2-shrink", "--lambda", lam, "--format", "structured")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["g_is_smaller"] is True
    assert result["scalar_is_smaller"] is (result["R_g"] < result["R_g0"])
    assert result["crossover"] == (4.0 - math.sqrt(10.0)) / 6.0


def test_example_domain_error(capsys):
    code, _, err = run(capsys, "example", "su2-shrink", "--lambda", "1.5")
    assert code == 2


def test_example_unknown_name(capsys):
    code, _, err = run(capsys, "example", "berger", "--lambda", "0.5")
    assert code == 2
    assert "unknown example" in err


def test_missing_spec_file(capsys):
    code, _, err = run(capsys, "scalar", "--homogeneous", "/nonexistent/x.spec",
                       "--lambda", "1")
    assert code == 2


def test_malformed_raw_spec(capsys, tmp_path):
    path = tmp_path / "broken.spec"
    path.write_text('{"s": 1, "d": [2], "b": [8.0]}', encoding="utf-8")
    code, _, err = run(capsys, "homogeneous", "--homogeneous", str(path))
    assert code == 2
    assert "missing" in err


@pytest.mark.parametrize("fmt", ["table", "structured"])
@pytest.mark.parametrize("raw", [
    {"s": 2, "d": [1, 1], "b": [float("nan"), 1.0], "c": [0.0, 0.0], "A": []},
    {"s": 2, "d": [1, 1], "b": [1.0, 1.0], "c": [0.0, 0.0], "A": [[0, 0, 1, float("inf")]]},
    {"s": 2, "d": [1, float("inf")], "b": [1.0, 1.0], "c": [0.0, 0.0], "A": []},
])
def test_rigidity_non_finite_spec_is_input_error(capsys, tmp_path, fmt, raw):
    path = tmp_path / "nonfinite.spec"
    path.write_text(json.dumps(raw), encoding="utf-8")
    code, out, err = run(capsys, "rigidity", "--homogeneous", str(path),
                         "--starts", "2", "--samples", "10", "--format", fmt)
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("argv", [
    ("homogeneous", "--homogeneous", "x.spec", "--scale", "2"),
    ("homogeneous", "--homogeneous", "x.spec", "--tol", "1e-6"),
    ("example", "su2-shrink", "--lambda", "0.5", "--scale", "2"),
    ("example", "su2-shrink", "--lambda", "0.5", "--tol", "1e-6"),
])
def test_unused_reference_options_are_refused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_tol_defaults_per_subcommand(capsys):
    from liecurv import rigidity
    from liecurv.lie_core import DEFAULT_TOL

    code, out, _ = run(capsys, "algebra", "--algebra", "su2", "--format", "structured")
    assert code == 0 and json.loads(out)["config"]["tol"] == DEFAULT_TOL
    code, out, _ = run(capsys, "rigidity", "--algebra", "su2", "--starts", "2",
                       "--samples", "10", "--format", "structured")
    config = json.loads(out)["config"]
    assert code == 0
    assert config["tol"] == rigidity.DEFAULT_TOL_R
    assert config["tol_lambda"] == rigidity.DEFAULT_TOL_LAMBDA
    assert config["max_lambda"] == rigidity.DEFAULT_MAX_LAMBDA


@pytest.mark.parametrize("command", ["scalar", "rigidity"])
def test_scale_with_homogeneous_spec_is_refused(capsys, s2_spec_file, command):
    argv = [command, "--homogeneous", s2_spec_file, "--scale", "5"]
    if command == "scalar":
        argv += ["--lambda", "1"]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and "--scale" in err
    assert out == ""


@pytest.mark.parametrize("raw", [
    {"s": 2, "d": [1, 1], "b": [1, 1], "c": [0, 0], "A": 5},
    {"s": 2.5, "d": [1, 1], "b": [1, 1], "c": [0, 0], "A": []},
    {"s": 2, "d": [1, 1], "b": [1, 1], "c": [0, 0], "A": [[0, 1, 1.7, 1.0]]},
])
def test_rigidity_malformed_raw_spec_exits_2(capsys, tmp_path, raw):
    path = tmp_path / "malformed.spec"
    path.write_text(json.dumps(raw), encoding="utf-8")
    code, out, err = run(capsys, "rigidity", "--homogeneous", str(path),
                         "--starts", "2", "--samples", "10", "--format", "structured")
    assert code == 2
    assert err.startswith("error:")
    assert out == ""


@pytest.mark.parametrize("coupling", [
    [[0, 1, 1, 1e308], [1, 0, 1, 1e308], [1, 1, 0, 1e308], [0, 0, 0, 1e308]],  # R(1) overflows
    [[0, 0, 1, 5e307], [0, 1, 0, 5e307], [1, 0, 0, 5e307]],                     # R(1) finite, R(1, 10) not
])
def test_rigidity_non_finite_curvature_exits_2(capsys, tmp_path, coupling):
    raw = {"s": 2, "d": [1, 1], "b": [1.0, 1.0], "c": [0.0, 0.0], "A": coupling}
    path = tmp_path / "huge.spec"
    path.write_text(json.dumps(raw), encoding="utf-8")
    code, out, err = run(capsys, "rigidity", "--homogeneous", str(path),
                         "--starts", "4", "--samples", "100", "--format", "structured")
    assert code == 2
    assert err.startswith("error:") and "not finite" in err
    assert "Infinity" not in out and out == ""


def test_rigidity_table_shows_ascent_diagnostics(capsys):
    code, out, _ = run(capsys, "rigidity", "--algebra", "su2", "--starts", "4", "--samples", "50")
    assert code == 0
    assert "4 converged" in out
    assert "curvature evals:" in out
    assert "sampling" in out and "ascent" in out
    # The total is the sum of the two phases, each printed to 1 ms: it matches to that precision.
    wall = next(line for line in out.splitlines() if line.startswith("  wall time:"))
    total, sampling, ascent = (float(x) for x in re.findall(r"(\d+\.\d{3})s", wall))
    assert abs(total - (sampling + ascent)) <= 1e-3 + 1e-12


@pytest.mark.parametrize("source", ["algebra", "homogeneous"])
def test_rigidity_result_echoes_name_box_and_worst_gap(capsys, s2_spec_file, source):
    # The report holds what the search found; the CLI adds the name, the box and the worst gap.
    if source == "algebra":
        su2 = lc.build_su(2)
        argv, spec = ["--algebra", "su2"], lc.binormalize(su2, lc.killing_metric(su2, 0.125)).spec
    else:
        argv, spec = ["--homogeneous", s2_spec_file], lc.spec_from_file(s2_spec_file)
    code, out, _ = run(capsys, "rigidity", *argv, "--max-lambda", "5", "--starts", "4",
                       "--samples", "50", "--format", "structured")
    result = json.loads(out)["result"]
    assert code == 0
    assert set(result) == {"name", "box", "r0", "best_r", "best_lambda", "max_violation", "worst_gap",
                           "equality_ok", "worst_equality_offset", "certified", "note"}
    assert result["worst_gap"] == -result["max_violation"]
    assert result["box"] == [1.0, 5.0]
    assert result["name"] == spec.name
    code, out, _ = run(capsys, "rigidity", *argv, "--max-lambda", "5", "--starts", "4", "--samples", "50")
    assert out.splitlines()[0] == f"rigidity search: {spec.name} on [1, 5.0]^{spec.s}"


def test_rigidity_trajectories_add_status_and_iterations(capsys):
    argv = ["rigidity", "--algebra", "su2", "--starts", "4", "--samples", "50", "--format", "structured"]
    code, out, _ = run(capsys, *argv)
    plain = json.loads(out)["result"]
    assert code == 0
    assert not {"ascent_status", "ascent_iterations"} & set(plain)
    assert not any("time" in key for key in plain)
    code, out, _ = run(capsys, *argv, "--trajectories")
    result = json.loads(out)["result"]
    assert result["ascent_status"] == ["converged"] * 4
    assert len(result["ascent_iterations"]) == 4
    assert not any("time" in key for key in result)


@pytest.mark.parametrize("change", [
    {"structure_constants": 5},
    {"structure_constants": [7]},
    {"structure_constants": [[0, 1, 2, None]]},
    {"structure_constants": [[0, 1, 2, True]]},
    {"structure_constants": [[0, 1.7, 2, 1.0]]},
    {"dim": 2.5, "structure_constants": []},
])
def test_malformed_algebra_file_exits_2(capsys, tmp_path, change):
    path = tmp_path / "bad.json"
    obj = {"name": "bad", "dim": 3, "structure_constants": [[0, 1, 2, 1.0]], **change}
    path.write_text(json.dumps(obj), encoding="utf-8")
    code, out, err = run(capsys, "algebra", "--algebra", str(path), "--format", "structured")
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert out == ""


def test_tol_with_homogeneous_scalar_is_refused(capsys, s2_spec_file):
    code, out, err = run(capsys, "scalar", "--homogeneous", s2_spec_file, "--lambda", "2", "--tol", "5")
    assert code == 2
    assert err.startswith("error:") and "--tol" in err
    assert out == ""
    code, out, _ = run(capsys, "scalar", "--homogeneous", s2_spec_file, "--lambda", "2",
                       "--format", "structured")
    assert code == 0
    assert json.loads(out)["config"] == {"homogeneous": s2_spec_file, "lambda": [2.0]}


def test_scalar_tol_still_applies_with_algebra(capsys):
    from liecurv.lie_core import DEFAULT_TOL

    code, out, _ = run(capsys, "scalar", "--algebra", "su2", "--lambda", "1,1,1", "--format", "structured")
    assert code == 0 and json.loads(out)["config"]["tol"] == DEFAULT_TOL
    code, out, _ = run(capsys, "scalar", "--algebra", "su2", "--lambda", "1,1,1", "--tol", "1e-6",
                       "--format", "structured")
    assert code == 0 and json.loads(out)["config"]["tol"] == 1e-6


@pytest.mark.parametrize("option, value", [
    ("--max-lambda", "inf"), ("--max-lambda", "nan"), ("--starts", "-3"), ("--starts", "0"),
    ("--samples", "-5"),
])
@pytest.mark.parametrize("fmt", ["table", "structured"])
def test_rigidity_search_parameters_are_input_errors(capsys, option, value, fmt):
    code, out, err = run(capsys, "rigidity", "--algebra", "su2", option, value, "--format", fmt)
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("argv", [
    ("scalar", "--algebra", "su2", "--lambda", "inf,1,1"),
    ("scalar", "--algebra", "su2", "--lambda", "1e-320,1,1"),
    ("scalar", "--homogeneous", "{s2}", "--lambda", "inf"),
    ("example", "su2-shrink", "--lambda", "1e-200"),
    ("algebra", "--algebra", "su2", "--tol", "nan"),
])
@pytest.mark.parametrize("fmt", ["table", "structured"])
@pytest.mark.filterwarnings("error::RuntimeWarning")  # the error line is all stderr shows
def test_non_finite_report_is_an_input_error(capsys, s2_spec_file, argv, fmt):
    argv = [a.format(s2=s2_spec_file) for a in argv]
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert out == ""


@pytest.mark.parametrize("argv", [
    ("algebra", "--algebra", "su2", "--scale", "nan"),
    ("algebra", "--algebra", "su2", "--scale", "inf"),
    ("algebra", "--algebra", "su2", "--scale", "-1"),
    ("scalar", "--algebra", "su2", "--lambda", "1,1,1", "--scale", "nan"),
    ("rigidity", "--algebra", "su2", "--scale", "nan"),
    ("algebra", "--algebra", "su2", "--scale", "1e308"),
    ("scalar", "--algebra", "su2", "--scale", "1e308", "--lambda", "1,1,1"),
    ("rigidity", "--algebra", "su2", "--scale", "1e308"),
])
def test_scale_is_a_finite_positive_number(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: metric scale must be")
    assert out == ""


@pytest.mark.parametrize("scale", [None, True])
def test_spec_scale_must_be_a_number(capsys, tmp_path, scale):
    path = tmp_path / "scale.spec"
    path.write_text(json.dumps({"algebra": "su2", "scale": scale, "h_basis": [[0.0, 0.0, 1.0]],
                                "blocks": [[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]]}), encoding="utf-8")
    for argv in (("homogeneous",), ("rigidity", "--starts", "2", "--samples", "10")):
        code, out, err = run(capsys, *argv, "--homogeneous", str(path))
        assert code == 2
        assert err.startswith("error: scale must be a number")
        assert out == ""


@pytest.mark.parametrize("argv, seed, message", [
    (("scalar", "--algebra", "su2", "--lambda", ","), "0", "empty metric eigenvalue list"),
    (("scalar", "--algebra", "su2", "--lambda", "1,one,1"), "0", "could not parse metric eigenvalues"),
    (("rigidity", "--algebra", "su2", "--starts", "2", "--samples", "10"), "seven",
     "LIECURV_SEED must be an integer, got 'seven'"),
    (("scalar", "--algebra", "su2", "--lambda", "1,,1,1"), "0", "empty field in metric eigenvalue list"),
    (("scalar", "--algebra", "su2", "--lambda", "1, ,1,1"), "0", "empty field in metric eigenvalue list"),
    (("scalar", "--algebra", "su2", "--lambda", "1,1,1,"), "0", "empty field in metric eigenvalue list"),
    (("rigidity", "--algebra", "su2", "--starts", "2", "--samples", "10"), "-1",
     "seed must be nonnegative, got -1"),
    (("example", "su2-shrink", "--lambda", "@lam.txt"), "0", "example lambda must be a number, got '@lam.txt'"),
    (("example", "su2-shrink", "--lambda", "0.3,"), "0", "example lambda must be a number, got '0.3,'"),
])
def test_malformed_lambda_or_seed_is_an_input_error(capsys, monkeypatch, argv, seed, message):
    monkeypatch.setenv("LIECURV_SEED", seed)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert out == ""


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


# One invocation of every subcommand (and both sources where there are two).
EVERY_SUBCOMMAND = [
    ("algebra", "--algebra", "su2"),
    ("algebra", "--algebra", "{abelian}"),
    ("scalar", "--algebra", "su2", "--lambda", "0.05,0.05,0.5"),
    ("scalar", "--homogeneous", "{s2}", "--lambda", "2"),
    ("rigidity", "--algebra", "so5", "--starts", "4", "--samples", "100", "--seed", "2"),
    ("rigidity", "--homogeneous", "{s2}", "--starts", "3", "--samples", "50", "--trajectories"),
    ("homogeneous", "--homogeneous", "{s2}"),
    ("example", "su2-shrink", "--lambda", "0.05"),
]


@pytest.fixture()
def every_subcommand(abelian_file, s2_spec_file):
    return [[a.format(abelian=abelian_file, s2=s2_spec_file) for a in argv] for argv in EVERY_SUBCOMMAND]


def test_structured_output_is_strict_json(capsys, every_subcommand):
    for argv in every_subcommand:
        code, out, _ = run(capsys, *argv, "--format", "structured")
        assert code == 0
        doc = json.loads(out, parse_constant=_reject_constant)
        assert set(doc) == {"command", "config", "result"} and doc["command"] == argv[0]


def _table_value(value) -> str:
    """How the table shows a value of the structured result."""
    if value is None:
        return "n/a"
    if value == []:
        return "none"
    return repr(value) if isinstance(value, float) else str(value)


def test_table_lines_render_the_structured_result(capsys, monkeypatch, every_subcommand):
    from liecurv import cli

    shown = []
    emit = cli._emit

    def spy(doc, fmt, title, labels, *rest, **kwargs):
        shown.append(labels)
        return emit(doc, fmt, title, labels, *rest, **kwargs)

    monkeypatch.setattr(cli, "_emit", spy)
    for argv in every_subcommand:
        shown.clear()
        code, table, _ = run(capsys, *argv)
        assert code == 0 and len(shown) == 1 and shown[0]
        code, out, _ = run(capsys, *argv, "--format", "structured")
        doc = json.loads(out)
        fields = {**doc["config"], **doc["result"]}
        lines = [line.strip() for line in table.splitlines()]
        for key, label in shown[0].items():
            [line] = [line for line in lines if line.startswith(label + ":")]
            assert line[len(label) + 1:].strip() == _table_value(fields[key]), (argv, key)


def test_killing_overflow_names_its_cause(capsys, tmp_path):
    path = tmp_path / "big.json"
    entries = [[0, 1, 2, 1e200], [1, 2, 0, 1e200], [2, 0, 1, 1e200]]
    path.write_text(json.dumps({"name": "big", "dim": 3, "structure_constants": entries}),
                    encoding="utf-8")
    code, out, err = run(capsys, "algebra", "--algebra", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "structure constants are too large" in err


@pytest.mark.parametrize("command, obj", [
    ("algebra", {"name": "huge", "dim": 100000, "structure_constants": [[0, 1, 2, 1.0]]}),
    ("homogeneous", {"s": 100000, "d": [1] * 100000, "b": [1.0] * 100000, "c": [0.0] * 100000}),
])
def test_input_too_large_to_allocate_exits_2(capsys, tmp_path, command, obj):
    # The (100000,)*3 tensor (7 PiB) fails to allocate at once; no limit is imposed.
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    code, out, err = run(capsys, command, f"--{command}", str(path))
    assert code == 2
    assert err.startswith("error: input too large") and err.count("\n") == 1
    assert out == ""


@pytest.mark.parametrize("key, depth", [
    ("blocks", 100000),  # json.load recurses out
    # json.load reads these; the loader's number check recurses out, or where
    # it does not (inlined comprehensions), numpy refuses over 64 dimensions.
    ("blocks", 500),
    ("h_basis", 900),
])
def test_deeply_nested_spec_exits_2(capsys, tmp_path, key, depth):
    nested = "[" * depth + "1.0" + "]" * depth
    other = '"blocks": [[[1, 0, 0]]]' if key == "h_basis" else '"h_basis": [[0, 0, 1]]'
    path = tmp_path / "deep.spec"
    path.write_text(f'{{"algebra": "su2", {other}, "{key}": {nested}}}', encoding="utf-8")
    code, out, err = run(capsys, "homogeneous", "--homogeneous", str(path))
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert out == ""
