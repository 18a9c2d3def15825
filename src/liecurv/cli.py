"""Command-line front end.

Subcommands: ``algebra`` (structural report), ``scalar`` (curvature of a
diagonal metric via both routes), ``rigidity`` (search certificate),
``homogeneous`` (inspect a spec file) and ``example su2-shrink``.  Each
builds one report, ``{"command", "config", "result"}``.  ``--format
structured`` prints it as JSON; the table renders the same report, one
``label: value`` line per shown field, plus the diagnostics only the
``rigidity`` table carries (status counts, evaluations, wall time), which
stay out of the JSON so that it is reproducible.  Exit codes: 0
success/certified, 1 rigidity ran but did not certify, 2 input error, 3
algebra not of compact type, 4 central blocks present.
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

from .binorm import HomogeneousSpec, antisymmetry_defect, binormalize, killing_metric
from .curvature import scalar_curvature_closed, scalar_curvature_koszul
from .homogeneous import spec_from_file, sum_rule_defect
from .lie_core import DEFAULT_TOL, _tolerance, jacobi_defect, killing, resolve_algebra
from .rigidity import (DEFAULT_MAX_LAMBDA, DEFAULT_SAMPLES, DEFAULT_STARTS, DEFAULT_TOL_LAMBDA,
                       DEFAULT_TOL_R, CenterPresentError, su2_shrink_example, verify_rigidity)

SEED_ENV = "LIECURV_SEED"
# RigidityReport fields in the structured result, and those --trajectories adds.
REPORT_FIELDS = ("name", "box", "r0", "best_r", "max_violation", "worst_gap", "equality_ok",
                 "worst_equality_offset", "certified")
TRAJECTORY_FIELDS = ("ascent_finals", "ascent_values", "ascent_status", "ascent_iterations")


def _scale(args) -> float:
    # The round normalization is the canonical choice for the built-in su2;
    # everything else defaults to the negative Killing form itself.
    if args.scale is not None:
        return args.scale
    return 0.125 if args.algebra == "su2" else 1.0


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
        parts = [p.strip() for p in text.split(",")]
        if any(parts) and not all(parts):
            raise ValueError(f"empty field in metric eigenvalue list {text!r}")
        parts = [p for p in parts if p]
    if not parts:
        raise ValueError("empty metric eigenvalue list")
    try:
        return np.array([float(p) for p in parts])
    except ValueError:
        raise ValueError(f"could not parse metric eigenvalues from {text!r}")


def _plain(value):
    """A numpy array or scalar as the list or number it holds (JSON's ``default``); else ``value``."""
    return value.tolist() if isinstance(value, (np.ndarray, np.generic)) else value


def _cell(value) -> str:
    """A table value: floats by repr, arrays as lists, None as n/a, an empty list as none."""
    value = _plain(value)
    if value is None:
        return "n/a"
    if isinstance(value, list) and not value:
        return "none"
    return repr(value) if isinstance(value, float) else str(value)


def _emit(doc: dict, fmt: str, title: str, labels: dict[str, str], notes=(),
          column: int | None = None) -> None:
    """Print the report ``doc``: as JSON, or as a table of ``title``, one
    ``label: value`` line per key of ``labels`` (read from the result, else
    the config) and the preformatted ``notes``.  Values start one column
    after the longest label unless ``column`` is given.  A report holding a
    NaN or an infinity is an input error in either format: it is not JSON.
    """
    try:
        text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False, default=_plain)
    except ValueError:
        raise ValueError(f"{doc['command']} report holds a non-finite number: input out of range") from None
    if fmt == "structured":
        print(text)
        return
    fields = {**doc["config"], **doc["result"]}
    width = column or max(map(len, labels.values())) + 1
    print(title)
    for key, label in labels.items():
        print(f"  {label + ':':<{width}} {_cell(fields[key])}")
    for note in notes:
        print(note)


def _source(args, command: str, *algebra_only: str):
    """The model (``--algebra``) or spec (``--homogeneous``) ``command`` runs
    on, with its config echo.  ``algebra_only`` names the options refused
    with ``--homogeneous``; where ``--tol`` is one of them it is the
    normalization tolerance and is echoed with the scale.  ``rigidity``
    refuses an algebra with a center before normalizing it.
    """
    if (args.algebra is None) == (args.homogeneous is None):
        raise ValueError(f"{command} needs exactly one of --algebra or --homogeneous")
    for option in algebra_only:
        if args.homogeneous is not None and getattr(args, option) is not None:
            raise ValueError(f"--{option} applies only with --algebra; a homogeneous spec carries "
                             "its own reference scale and is checked when loaded")
    if args.homogeneous is not None:
        return spec_from_file(args.homogeneous), {"homogeneous": str(args.homogeneous)}
    algebra = resolve_algebra(args.algebra)
    if command == "rigidity" and killing(algebra).center_dim > 0:
        raise CenterPresentError(
            "center present: rigidity fails structurally "
            f"({algebra.name} has a nontrivial center)")
    config = {"algebra": args.algebra, "scale": _scale(args)}
    if "tol" in algebra_only:
        config["tol"] = DEFAULT_TOL if args.tol is None else args.tol
    metric = killing_metric(algebra, config["scale"])
    return binormalize(algebra, metric, tol=config.get("tol", DEFAULT_TOL)), config


def cmd_algebra(args) -> int:
    algebra = resolve_algebra(args.algebra)
    scale = _scale(args)
    metric = killing_metric(algebra, scale)  # a bad scale is an input error, not "n/a"
    kd = killing(algebra)
    _tolerance(args.tol, "tol")  # a bad tolerance is an input error too, not "n/a"
    # Only a definite negative Killing form gives a reference to normalize
    # against; once it does, a failure to normalize is an error (exit 2).
    definite = kd.signature[0] == algebra.dim
    ortho_defect = antisymmetry_defect(binormalize(algebra, metric, tol=args.tol).c) if definite else None
    doc = {
        "command": "algebra",
        "config": {"algebra": args.algebra, "scale": scale, "tol": args.tol},
        "result": {
            "name": algebra.name,
            "dim": algebra.dim,
            "killing_signature": list(kd.signature),
            "semisimple": kd.semisimple,
            "center_dim": kd.center_dim,
            "jacobi_defect": jacobi_defect(algebra),
            "orthonormal_antisymmetry_defect": ortho_defect,
            # Compact type: K <= 0 and ker K = z.  ker K holds the nilradical, which holds
            # [g, rad g]; so rad g = z, and g = s + z with K < 0 on the semisimple s.
            "compact_type": kd.signature[2] == 0 and kd.signature[1] == kd.center_dim,
        },
    }
    _emit(doc, args.format, f"algebra: {algebra.name} (source {args.algebra}, scale {scale})", {
        "dim": "dim", "killing_signature": "signature (-, 0, +)", "semisimple": "semisimple",
        "center_dim": "center dim", "jacobi_defect": "jacobi defect",
        "orthonormal_antisymmetry_defect": "antisymmetry defect", "compact_type": "compact type"})
    if not doc["result"]["compact_type"]:
        print("error: algebra is not of compact type", file=sys.stderr)
        return 3
    return 0


def cmd_scalar(args) -> int:
    source, config = _source(args, "scalar", "scale", "tol")
    lam = _parse_lambda(args.lam)
    closed = scalar_curvature_closed(source, lam)
    if isinstance(source, HomogeneousSpec):
        result = {"R": closed.R, "method": closed.method}
        labels = {"R": "homogeneous formula"}
        title = f"scalar curvature: {source.name} (lambda {_cell(lam)})"
    else:
        koszul = scalar_curvature_koszul(source, lam).R
        result = {"R_closed": closed.R, "R_koszul": koszul, "discrepancy": abs(closed.R - koszul)}
        labels = {"R_closed": "closed form", "R_koszul": "koszul", "discrepancy": "discrepancy"}
        title = f"scalar curvature: {source.name} (scale {config['scale']}, lambda {_cell(lam)})"
    doc = {"command": "scalar", "config": {**config, "lambda": lam}, "result": result}
    _emit(doc, args.format, title, labels)
    return 0


def cmd_rigidity(args) -> int:
    source, config = _source(args, "rigidity", "scale")
    seed = _resolve_seed(args)
    spec = source if isinstance(source, HomogeneousSpec) else source.spec
    report = verify_rigidity(spec, max_lambda=args.max_lambda, n_starts=args.starts,
                             n_samples=args.samples, seed=seed, tol=args.tol,
                             tol_lambda=args.tol_lambda)
    if not math.isfinite(report.max_violation):
        raise ValueError("curvature is not finite at some metric in the box: spec data out of range")
    fields = REPORT_FIELDS + (TRAJECTORY_FIELDS if args.trajectories else ())
    doc = {
        "command": "rigidity",
        "config": {**config, "max_lambda": args.max_lambda, "starts": args.starts,
                   "samples": args.samples, "seed": seed, "tol": args.tol,
                   "tol_lambda": args.tol_lambda},
        "result": {**{field: getattr(report, field) for field in fields},
                   "best_lambda": report.best_lam,
                   "note": "numerical certificate from sampling and ascent, not a proof"},
    }
    # Table-only diagnostics: timings would break the JSON's reproducibility.
    status_counts = ", ".join(f"{n} {status}" for status, n in
                              sorted(Counter(report.ascent_status).items()))
    notes = [
        f"  ascent starts:       {status_counts} "
        f"(at most {int(report.ascent_iterations.max())} steps)",
        f"  curvature evals:     {report.n_evaluations}",
        f"  wall time:           {report.wall_time:.3f}s (sampling {report.sampling_time:.3f}s, "
        f"ascent {report.ascent_time:.3f}s)",
    ]
    if args.trajectories:
        notes += [f"    ascent final R={_cell(r)} at {_cell(lam)} ({status}, {steps} steps)"
                  for lam, r, status, steps in zip(report.ascent_finals, report.ascent_values,
                                                   report.ascent_status, report.ascent_iterations)]
    _emit(doc, args.format, f"rigidity search: {report.name} on [1, {report.box[1]}]^{spec.s}", {
        "starts": "starts", "samples": "samples", "seed": "seed",
        "r0": "reference curvature", "best_r": "best curvature", "best_lambda": "best lambda",
        "max_violation": "max violation", "tol": "tol", "equality_ok": "equality localized",
        "worst_equality_offset": "worst offset", "tol_lambda": "tol lambda",
        "certified": "certified", "note": "note"}, notes)
    return 0 if report.certified else 1


def cmd_homogeneous(args) -> int:
    spec = spec_from_file(args.homogeneous)
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
            "sum_rule_defects": sum_rule_defect(spec),
            "central_blocks": spec.central_blocks(),
            "coupling_nonzeros": int(np.count_nonzero(spec.coupling)),
        },
    }
    _emit(doc, args.format, f"homogeneous spec: {spec.name} ({spec.provenance})", {
        "blocks": "blocks", "block_dims": "block dims", "killing_ratios": "killing ratios",
        "casimirs": "casimirs", "sum_rule_defects": "sum-rule defects",
        "central_blocks": "central blocks", "coupling_nonzeros": "coupling nnz"})
    return 0


def cmd_example(args) -> int:
    if args.which != "su2-shrink":
        raise ValueError(f"unknown example {args.which!r}; available: su2-shrink")
    try:
        lam = float(args.lam)
    except ValueError:
        raise ValueError(f"example lambda must be a number, got {args.lam!r}") from None
    record = su2_shrink_example(lam)
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
            "scaled_drop": lam * lam * (record.R_g - record.R_g0),
        },
    }
    # Column 17, not 18, keeps the established "R_g (closed):     -240.0" layout;
    # "curvature smaller" overhangs it.
    _emit(doc, args.format, f"shrinking SU(2) family at lambda = {lam} (eigenvalues ({lam}, {lam}, 0.5))", {
        "R_g": "R_g (closed)", "R_g_koszul": "R_g (koszul)", "R_g0": "R_g0",
        "g_is_smaller": "metric smaller", "scalar_is_smaller": "curvature smaller",
        "crossover": "crossover ratio, below which R_g < R_g0",
        "scaled_drop": "lambda^2 (R_g - R_g0), tending to -1 as lambda -> 0+"}, column=17)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liecurv",
        description="Scalar curvature of invariant metrics and rigidity certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def reference(p, tol, algebra_only_tol=False, what="tolerance"):
        p.add_argument("--scale", type=float, default=None,
                       help="reference metric scale s (metric = s * negative Killing form); "
                            "default 0.125 for built-in su2, else 1; --algebra only")
        p.add_argument("--tol", type=float, default=None if algebra_only_tol else tol,
                       help=f"{what} (default {tol})" + ("; --algebra only" if algebra_only_tol else ""))

    def common(p, lam=None):
        p.add_argument("--format", choices=("table", "structured"), default="table")
        if lam:
            p.add_argument("--lambda", dest="lam", required=True, help=lam)

    p = sub.add_parser("algebra", help="structural report for an algebra")
    p.add_argument("--algebra", required=True, help="built-in name (su2, so5, ...) or JSON file")
    reference(p, DEFAULT_TOL)
    common(p)
    p.set_defaults(func=cmd_algebra)

    p = sub.add_parser("scalar", help="scalar curvature of a diagonal metric")
    p.add_argument("--algebra", help="built-in name or JSON file")
    p.add_argument("--homogeneous", help="homogeneous spec JSON file")
    reference(p, DEFAULT_TOL, algebra_only_tol=True)
    common(p, lam="comma-separated eigenvalue ratios, or @file with one per line")
    p.set_defaults(func=cmd_scalar)

    p = sub.add_parser("rigidity", help="search certificate on the constrained box")
    p.add_argument("--algebra", help="built-in name or JSON file")
    p.add_argument("--homogeneous", help="homogeneous spec JSON file")
    reference(p, DEFAULT_TOL_R, what="allowed curvature excess, relative to |r0|")
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
    common(p, lam="one ratio lam in (0, 1), for the metric eigenvalues (lam, lam, 1/2)")
    p.set_defaults(func=cmd_example)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Overflow surfaces as a non-finite report, which _emit refuses; numpy need not warn.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except CenterPresentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MemoryError, RecursionError) as exc:
        print(f"error: input too large or too deeply nested: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
