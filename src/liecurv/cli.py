"""Command-line front end.

Subcommands: ``algebra`` (structural report), ``scalar`` (curvature of a
diagonal metric via both routes), ``rigidity`` (search certificate),
``homogeneous`` (inspect a spec file) and ``example su2-shrink``.  Exit
codes: 0 success/certified, 1 rigidity ran but did not certify, 2 input
error, 3 algebra not of compact type, 4 central blocks present.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from .binorm import antisymmetry_defect, binormalize, killing_metric
from .curvature import scalar_curvature_closed, scalar_curvature_koszul
from .homogeneous import (
    group_as_homogeneous,
    scalar_curvature_homogeneous,
    spec_from_file,
    sum_rule_defect,
)
from .lie_core import DEFAULT_TOL, jacobi_defect, killing, resolve_algebra
from .rigidity import (DEFAULT_MAX_LAMBDA, DEFAULT_SAMPLES, DEFAULT_STARTS, DEFAULT_TOL_LAMBDA,
                       DEFAULT_TOL_R, CenterPresentError, su2_shrink_example, verify_rigidity)

SEED_ENV = "LIECURV_SEED"


def _default_scale(source: str | None) -> float:
    # The round normalization is the canonical choice for the built-in su2;
    # everything else defaults to the negative Killing form itself.
    return 0.125 if source == "su2" else 1.0


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"{SEED_ENV} must be an integer, got {env!r}")
    return 0


def _parse_lambda(text: str) -> np.ndarray:
    if text.startswith("@"):
        lines = Path(text[1:]).read_text(encoding="utf-8").splitlines()
        parts = [line.strip() for line in lines if line.strip()]
    else:
        parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty metric eigenvalue list")
    try:
        return np.array([float(p) for p in parts])
    except ValueError:
        raise ValueError(f"could not parse metric eigenvalues from {text!r}")


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _emit(doc: dict, lines: list[str], fmt: str) -> None:
    if fmt == "structured":
        print(json.dumps(_jsonable(doc), sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)


def _fmt(x) -> str:
    return repr(float(x))


def _check_algebra_only(args, *options) -> None:
    for option in options:
        if args.homogeneous is not None and getattr(args, option) is not None:
            raise ValueError(f"--{option} applies only with --algebra; a homogeneous spec carries "
                             "its own reference scale and is checked when loaded")


def cmd_algebra(args) -> int:
    algebra = resolve_algebra(args.algebra)
    scale = args.scale if args.scale is not None else _default_scale(args.algebra)
    kd = killing(algebra)
    jac = jacobi_defect(algebra)
    ortho_defect = None
    try:
        ortho_defect = antisymmetry_defect(binormalize(algebra, killing_metric(algebra, scale), tol=args.tol))
    except ValueError:
        pass  # negative Killing form not definite: nothing to normalize against
    non_compact = kd.signature[2] > 0
    doc = {
        "command": "algebra",
        "config": {"algebra": args.algebra, "scale": scale, "tol": args.tol},
        "result": {
            "name": algebra.name,
            "dim": algebra.dim,
            "killing_signature": list(kd.signature),
            "semisimple": kd.semisimple,
            "center_dim": kd.center_dim,
            "jacobi_defect": jac,
            "orthonormal_antisymmetry_defect": ortho_defect,
            "compact_type": not non_compact,
        },
    }
    lines = [
        f"algebra: {algebra.name} (source {args.algebra}, scale {scale})",
        f"  dim:                 {algebra.dim}",
        f"  killing signature:   {kd.signature} (neg, zero, pos)",
        f"  semisimple:          {kd.semisimple}",
        f"  center dim:          {kd.center_dim}",
        f"  jacobi defect:       {_fmt(jac)}",
        "  antisymmetry defect: "
        + (_fmt(ortho_defect) if ortho_defect is not None else "n/a (no definite reference metric)"),
    ]
    if non_compact:
        lines.append("  WARNING: Killing form has positive directions; not of compact type")
    _emit(doc, lines, args.format)
    if non_compact:
        print("error: algebra is not of compact type", file=sys.stderr)
        return 3
    return 0


def cmd_scalar(args) -> int:
    if (args.algebra is None) == (args.homogeneous is None):
        raise ValueError("scalar needs exactly one of --algebra or --homogeneous")
    _check_algebra_only(args, "scale", "tol")
    lam = _parse_lambda(args.lam)
    if args.algebra is not None:
        algebra = resolve_algebra(args.algebra)
        scale = args.scale if args.scale is not None else _default_scale(args.algebra)
        tol = args.tol if args.tol is not None else DEFAULT_TOL
        model = binormalize(algebra, killing_metric(algebra, scale), tol=tol)
        closed = scalar_curvature_closed(model, lam)
        koszul = scalar_curvature_koszul(model, lam)
        doc = {
            "command": "scalar",
            "config": {"algebra": args.algebra, "scale": scale,
                       "lambda": lam, "tol": tol},
            "result": {
                "R_closed": closed.R,
                "R_koszul": koszul.R,
                "discrepancy": abs(closed.R - koszul.R),
            },
        }
        lines = [
            f"scalar curvature: {algebra.name} (scale {scale}, lambda {lam.tolist()})",
            f"  closed form: {_fmt(closed.R)}",
            f"  koszul:      {_fmt(koszul.R)}",
            f"  discrepancy: {_fmt(abs(closed.R - koszul.R))}",
        ]
    else:
        spec = spec_from_file(args.homogeneous)
        result = scalar_curvature_homogeneous(spec, lam)
        doc = {
            "command": "scalar",
            "config": {"homogeneous": str(args.homogeneous), "lambda": lam},
            "result": {"R": result.R, "method": result.method},
        }
        lines = [
            f"scalar curvature: {spec.name} (lambda {lam.tolist()})",
            f"  homogeneous formula: {_fmt(result.R)}",
        ]
    _emit(doc, lines, args.format)
    return 0


def cmd_rigidity(args) -> int:
    if (args.algebra is None) == (args.homogeneous is None):
        raise ValueError("rigidity needs exactly one of --algebra or --homogeneous")
    _check_algebra_only(args, "scale")
    seed = _resolve_seed(args)
    if args.algebra is not None:
        algebra = resolve_algebra(args.algebra)
        if killing(algebra).center_dim > 0:
            raise CenterPresentError(
                "center present: rigidity fails structurally "
                f"({algebra.name} has a nontrivial center)")
        scale = args.scale if args.scale is not None else _default_scale(args.algebra)
        model = binormalize(algebra, killing_metric(algebra, scale), tol=DEFAULT_TOL)
        spec = group_as_homogeneous(model)
        source = {"algebra": args.algebra, "scale": scale}
    else:
        spec = spec_from_file(args.homogeneous)
        source = {"homogeneous": str(args.homogeneous)}
    report = verify_rigidity(spec, max_lambda=args.max_lambda, n_starts=args.starts,
                             n_samples=args.samples, seed=seed, tol=args.tol,
                             tol_lambda=args.tol_lambda)
    if not math.isfinite(report.max_violation):
        raise ValueError("curvature is not finite at some metric in the box: spec data out of range")
    doc = {
        "command": "rigidity",
        "config": {**source, "max_lambda": args.max_lambda, "starts": args.starts,
                   "samples": args.samples, "seed": seed, "tol": args.tol,
                   "tol_lambda": args.tol_lambda},
        "result": {
            "name": report.name,
            "box": list(report.box),
            "r0": report.r0,
            "best_r": report.best_r,
            "best_lambda": report.best_lam,
            "max_violation": report.max_violation,
            "worst_gap": report.worst_gap,
            "equality_ok": report.equality_ok,
            "worst_equality_offset": report.worst_equality_offset,
            "certified": report.certified,
            "note": "numerical certificate from sampling and ascent, not a proof",
        },
    }
    if args.trajectories:
        doc["result"]["ascent_finals"] = report.ascent_finals
        doc["result"]["ascent_values"] = report.ascent_values
        doc["result"]["ascent_status"] = report.ascent_status
        doc["result"]["ascent_iterations"] = report.ascent_iterations
    status_counts = ", ".join(f"{n} {status}" for status, n in
                              sorted(Counter(report.ascent_status).items()))
    lines = [
        f"rigidity search: {report.name} on [1, {report.box[1]}]^{spec.s}",
        f"  starts/samples/seed: {report.n_starts}/{report.n_samples}/{report.seed}",
        f"  reference curvature: {_fmt(report.r0)}",
        f"  best curvature:      {_fmt(report.best_r)} at {report.best_lam.tolist()}",
        f"  max violation:       {_fmt(report.max_violation)} (tol {report.tol})",
        f"  equality localized:  {report.equality_ok} "
        f"(worst offset {_fmt(report.worst_equality_offset)}, tol {report.tol_lambda})",
        f"  ascent starts:       {status_counts} "
        f"(at most {int(report.ascent_iterations.max())} steps)",
        f"  curvature evals:     {report.n_evaluations}",
        f"  certified:           {report.certified}",
        f"  wall time:           {report.wall_time:.3f}s (sampling {report.sampling_time:.3f}s, "
        f"ascent {report.ascent_time:.3f}s)",
        "  note: numerical certificate from sampling and ascent, not a proof",
    ]
    if args.trajectories:
        for lam_f, r_f, status, steps in zip(report.ascent_finals, report.ascent_values,
                                             report.ascent_status, report.ascent_iterations):
            lines.append(f"    ascent final R={_fmt(r_f)} at {lam_f.tolist()} ({status}, {steps} steps)")
    _emit(doc, lines, args.format)
    return 0 if report.certified else 1


def cmd_homogeneous(args) -> int:
    spec = spec_from_file(args.homogeneous)
    defects = sum_rule_defect(spec)
    central = spec.central_blocks()
    doc = {
        "command": "homogeneous",
        "config": {"homogeneous": str(args.homogeneous)},
        "result": {
            "name": spec.name,
            "provenance": spec.provenance,
            "blocks": spec.s,
            "block_dims": spec.block_dims,
            "killing_ratios": spec.killing_ratios,
            "casimirs": spec.casimirs,
            "sum_rule_defects": defects,
            "central_blocks": central,
            "coupling_nonzeros": int(np.count_nonzero(spec.coupling)),
        },
    }
    lines = [
        f"homogeneous spec: {spec.name} ({spec.provenance})",
        f"  blocks:           {spec.s}",
        f"  block dims:       {spec.block_dims.tolist()}",
        f"  killing ratios:   {spec.killing_ratios.tolist()}",
        f"  casimirs:         {spec.casimirs.tolist()}",
        f"  sum-rule defects: {defects.tolist()}",
        f"  central blocks:   {central if central else 'none'}",
        f"  coupling nnz:     {int(np.count_nonzero(spec.coupling))}",
    ]
    _emit(doc, lines, args.format)
    return 0


def cmd_example(args) -> int:
    if args.which != "su2-shrink":
        raise ValueError(f"unknown example {args.which!r}; available: su2-shrink")
    lam = float(args.lam)
    record = su2_shrink_example(lam)
    scaled_drop = lam * lam * (record.R_g - record.R_g0)
    doc = {
        "command": "example",
        "config": {"example": args.which, "lambda": lam},
        "result": {
            "R_g": record.R_g,
            "R_g_koszul": record.R_g_koszul,
            "R_g0": record.R_g0,
            "g_is_smaller": record.g_is_smaller,
            "scalar_is_smaller": record.scalar_is_smaller,
            "crossover": record.crossover,
            "scaled_drop": scaled_drop,
        },
    }
    lines = [
        f"shrinking SU(2) family at lambda = {lam} (eigenvalues ({lam}, {lam}, 0.5))",
        f"  R_g (closed):     {_fmt(record.R_g)}",
        f"  R_g (koszul):     {_fmt(record.R_g_koszul)}",
        f"  R_g0:             {_fmt(record.R_g0)}",
        f"  metric smaller:   {record.g_is_smaller}",
        f"  curvature smaller: {record.scalar_is_smaller}",
        f"  crossover ratio:  {_fmt(record.crossover)} (curvature drops below the reference under this)",
        f"  lambda^2 * (R_g - R_g0) = {_fmt(scaled_drop)} (tends to -1 as lambda -> 0+)",
    ]
    _emit(doc, lines, args.format)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liecurv",
        description="Scalar curvature of invariant metrics and rigidity certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def reference(p, tol, algebra_only_tol=False):
        p.add_argument("--scale", type=float, default=None,
                       help="reference metric scale s (metric = s * negative Killing form); "
                            "default 0.125 for built-in su2, else 1; --algebra only")
        p.add_argument("--tol", type=float, default=None if algebra_only_tol else tol,
                       help=f"tolerance (default {tol})" + ("; --algebra only" if algebra_only_tol else ""))

    def common(p, lam=False):
        p.add_argument("--format", choices=("table", "structured"), default="table")
        if lam:
            p.add_argument("--lambda", dest="lam", required=True,
                           help="comma-separated eigenvalue ratios, or @file with one per line")

    p = sub.add_parser("algebra", help="structural report for an algebra")
    p.add_argument("--algebra", required=True, help="built-in name (su2, so5, ...) or JSON file")
    reference(p, DEFAULT_TOL)
    common(p)
    p.set_defaults(func=cmd_algebra)

    p = sub.add_parser("scalar", help="scalar curvature of a diagonal metric")
    p.add_argument("--algebra", help="built-in name or JSON file")
    p.add_argument("--homogeneous", help="homogeneous spec JSON file")
    reference(p, DEFAULT_TOL, algebra_only_tol=True)
    common(p, lam=True)
    p.set_defaults(func=cmd_scalar)

    p = sub.add_parser("rigidity", help="search certificate on the constrained box")
    p.add_argument("--algebra", help="built-in name or JSON file")
    p.add_argument("--homogeneous", help="homogeneous spec JSON file")
    reference(p, DEFAULT_TOL_R)
    common(p)
    p.add_argument("--max-lambda", dest="max_lambda", type=float, default=DEFAULT_MAX_LAMBDA)
    p.add_argument("--starts", type=int, default=DEFAULT_STARTS)
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--seed", type=int, default=None,
                   help=f"search seed (falls back to ${SEED_ENV}, then 0)")
    p.add_argument("--tol-lambda", dest="tol_lambda", type=float, default=DEFAULT_TOL_LAMBDA)
    p.add_argument("--trajectories", action="store_true",
                   help="include per-start ascent endpoints, status and steps in the report")
    p.set_defaults(func=cmd_rigidity)

    p = sub.add_parser("homogeneous", help="inspect a homogeneous spec file")
    p.add_argument("--homogeneous", required=True, help="homogeneous spec JSON file")
    common(p)
    p.set_defaults(func=cmd_homogeneous)

    p = sub.add_parser("example", help="built-in worked examples")
    p.add_argument("which", help="example name (su2-shrink)")
    common(p, lam=True)
    p.set_defaults(func=cmd_example)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CenterPresentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
