"""Command line entry point.

Eight subcommands expose the package: ``tau`` prints helix constraint
systems, ``classify`` searches for constant-curvature solutions, ``verify``
checks the closed-form sphere curves, ``family`` sweeps the two-frequency
solution family, ``integrate``/``conserve``/``conjecture`` drive the
numerical lab, and ``reproduce`` runs the acceptance registry.

Reports are deterministic: identical configuration (including the seed)
yields byte-identical output.  Wall-clock timing is therefore only included
when explicitly requested with ``--timing``.

Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from . import __version__, acceptance, classify, odelab, spherecurves
from .frenet import SpaceForm, constraint_system

DEFAULT_SEED = 42

VERIFY_TOLERANCES = {
    "equation_residual": 1e-12,
    "tension_residual": 1e-9,
    "fourth_order_residual": 1e-10,
    "quartic_residual": 1e-12,
    "multiplier_residual": 1e-10,
}

# names each verify curve takes in --params; any other name is a usage error
VERIFY_PARAMETERS = {
    "biharmonic-circle": (),
    "biharmonic-two-freq": ("a2", "b2"),
    "tri-planar": (),
    "tri-hyperbola": ("y",),
    "four-planar": (),
}


@dataclass(frozen=True)
class RunConfig:
    """Resolved invocation: subcommand plus the cross-cutting flags."""

    command: str
    seed: int = DEFAULT_SEED
    tol: float | None = None
    out: str | None = None
    fmt: str = "text"
    timing: bool = False

    def __post_init__(self):
        if self.tol is not None and not self.tol > 0:
            raise ValueError("tolerance override must be positive")


@dataclass
class Report:
    """Envelope for machine-readable command output."""

    command: str
    payload: object
    passed: bool | None = None
    wall_time: float | None = None

    def to_json(self) -> str:
        body: dict = {
            "command": self.command,
            "version": __version__,
            "payload": self.payload,
        }
        if self.passed is not None:
            body["passed"] = self.passed
        if self.wall_time is not None:
            body["wall_time"] = self.wall_time
        return json.dumps(body, sort_keys=True, indent=2) + "\n"


def validate_report(body: dict) -> None:
    """Schema check for the JSON envelope; raises ValueError on defects."""
    required = {"command", "version", "payload"}
    missing = required - set(body)
    if missing:
        raise ValueError(f"report missing keys {sorted(missing)}")
    extras = set(body) - required - {"passed", "wall_time"}
    if extras:
        raise ValueError(f"report carries unknown keys {sorted(extras)}")
    if not isinstance(body["command"], str) or not isinstance(body["version"], str):
        raise ValueError("command and version must be strings")


# -- small parsers -----------------------------------------------------------

def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}") from None
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _parse_span(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(piece) for piece in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected lo:hi with numeric bounds, got {text!r}"
        ) from None
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise argparse.ArgumentTypeError(f"span bounds must be finite, got {text}")
    return lo, hi


def _parse_grid(text: str) -> list[float]:
    try:
        lo_text, hi_text, count_text = text.split(":")
        lo, hi, count = float(lo_text), float(hi_text), int(count_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected lo:hi:n with numeric bounds and a whole number n, got {text!r}"
        ) from None
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise argparse.ArgumentTypeError(f"grid bounds must be finite, got {text}")
    if count < 1:
        raise argparse.ArgumentTypeError("grid needs at least one point")
    if count > odelab.MAX_SCAN_POINTS:
        raise argparse.ArgumentTypeError(
            f"grid has {count} points, at most {odelab.MAX_SCAN_POINTS}: {text}"
        )
    return [float(v) for v in np.linspace(lo, hi, count)]


def _parse_zeros(text: str) -> set[int]:
    if not text:
        return set()
    try:
        return {int(piece) for piece in text.split(",")}
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated curvature indices such as 3,4, got {text!r}"
        ) from None


def _parse_params(text: str | None) -> dict[str, float]:
    if not text:
        return {}
    usage = argparse.ArgumentTypeError(
        f"expected name=value pairs such as a2=1.2,b2=0.8, got {text!r}"
    )
    out: dict[str, float] = {}
    for chunk in text.split(","):
        name, equals, value = chunk.partition("=")
        if not equals or not name.strip():
            raise usage
        try:
            out[name.strip()] = float(value)
        except ValueError:
            raise usage from None
    return out


def _resolve_seed(flag_value: int | None) -> int:
    if flag_value is not None:
        return flag_value
    return int(os.environ.get("POLYHELIX_SEED", DEFAULT_SEED))


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as handle:
            handle.write(text)


def _finish(
    config: RunConfig,
    payload: object,
    passed: bool | None,
    text_lines: list[str],
    started: float,
) -> int:
    if config.fmt == "json":
        report = Report(command=config.command, payload=payload, passed=passed)
        if config.timing:
            report.wall_time = time.perf_counter() - started
        _emit(report.to_json(), config.out)
    else:
        body = "\n".join(text_lines) + "\n"
        if config.timing:
            body += f"wall time: {time.perf_counter() - started:.2f}s\n"
        _emit(body, config.out)
    if passed is False:
        return 1
    return 0


# -- subcommand handlers -----------------------------------------------------

def _cmd_tau(args, config: RunConfig, started: float) -> int:
    system = constraint_system(args.order, args.zeros)
    text = system.render_latex() if args.format == "latex" else system.render()
    return _finish(config, system.to_json_dict(), None, [text], started)


def _cmd_classify(args, config: RunConfig, started: float) -> int:
    report = classify.solve_helix(
        args.order,
        args.K,
        args.zeros,
        tol=config.tol if config.tol is not None else 1e-10,
        trials=args.trials,
        seed=config.seed,
    )
    payload = report.to_json_dict()
    lines = [
        f"order {report.order}, K = {report.K:g}, "
        f"zero pattern {sorted(report.zero_pattern) or '{}'}",
        f"solutions: {len(report.solutions)}"
        f" ({len(report.proper_solutions())} proper)",
    ]
    for solution in report.solutions:
        ks = ", ".join(f"{k:.12g}" for k in solution.spec.curvatures)
        lines.append(f"  ({ks})  residual {solution.residual:.3e}")
    for cert in report.certificates:
        lines.append(f"  certificate F{cert['frame']}: {cert['equation']} ({cert['reason']})")
    return _finish(config, payload, None, lines, started)


def _verify_checks(name: str, params: dict[str, float]) -> tuple[int, dict, dict]:
    """Order, parameter echo and check values for one named curve."""
    if name == "biharmonic-circle":
        curve = spherecurves.biharmonic_circle()
        return 2, {}, {
            "equation_residual": spherecurves.biharmonic_residual(curve),
            "tension_residual": spherecurves.intrinsic_tau_residual(curve, 2),
        }
    if name == "biharmonic-two-freq":
        a2 = params.get("a2", 1.5)
        b2 = params.get("b2", 0.5)
        curve = spherecurves.biharmonic_two_freq(a2, b2)
        return 2, {"a2": a2, "b2": b2}, {
            "equation_residual": spherecurves.biharmonic_residual(curve),
            "tension_residual": spherecurves.intrinsic_tau_residual(curve, 2),
        }
    if name == "tri-planar":
        curve = spherecurves.tri_planar()
        return 3, {}, {
            "tension_residual": spherecurves.intrinsic_tau_residual(curve, 3),
        }
    if name == "tri-hyperbola":
        y = params.get("y", 2.0)
        curve = spherecurves.tri_hyperbola_curve(y)
        (x, a1sq), (yy, a3sq) = (
            (float(f), float(w)) for f, w in curve.blocks
        )
        lam = float(spherecurves.lagrangian(curve, 3).lagrange_multiplier)
        system = spherecurves.lambda_system_residual(x, yy, a1sq, a3sq, lam)
        return 3, {"y": y, "x": x}, {
            "tension_residual": spherecurves.intrinsic_tau_residual(curve, 3),
            "quartic_residual": spherecurves.family_quartic_residual(x, yy),
            "multiplier_residual": max(abs(v) for v in system),
        }
    if name == "four-planar":
        curve = spherecurves.four_planar()
        return 4, {}, {
            "fourth_order_residual": spherecurves.fourharmonic_residual(curve),
            "tension_residual": spherecurves.intrinsic_tau_residual(curve, 4),
        }
    raise ValueError(f"unknown curve {name!r}")


def _cmd_verify(args, config: RunConfig, started: float) -> int:
    accepted = VERIFY_PARAMETERS[args.curve]
    unknown = sorted(set(args.params) - set(accepted))
    if unknown:
        takes = ", ".join(accepted) if accepted else "no parameters"
        raise ValueError(
            f"--params: curve {args.curve} takes {takes}, got {', '.join(unknown)}"
        )
    order, parameters, values = _verify_checks(args.curve, args.params)
    checks = {}
    passed = True
    for check, value in values.items():
        tolerance = config.tol if config.tol is not None else VERIFY_TOLERANCES[check]
        ok = value < tolerance
        passed = passed and ok
        checks[check] = {"residual": value, "tolerance": tolerance, "passed": ok}
    payload = {
        "curve": args.curve,
        "order": order,
        "parameters": parameters,
        "checks": checks,
        "passed": passed,
    }
    lines = [f"curve {args.curve} (order {order})"]
    for check, entry in checks.items():
        status = "ok" if entry["passed"] else "FAIL"
        lines.append(
            f"  {check}: {entry['residual']:.3e} < {entry['tolerance']:g}  [{status}]"
        )
    lines.append("verified" if passed else "verification FAILED")
    return _finish(config, payload, passed, lines, started)


def _cmd_family(args, config: RunConfig, started: float) -> int:
    samples = spherecurves.tri_hyperbola_family(args.samples)
    header = "y,x,alpha1sq,alpha3sq,tau3_residual,lambda"
    lines = [header] + [sample.csv_row() for sample in samples]
    payload = [
        {
            "y": s.y,
            "x": s.x,
            "alpha1sq": s.alpha1sq,
            "alpha3sq": s.alpha3sq,
            "tau3_residual": s.tau3_residual,
            "lambda": s.lagrange_multiplier,
            "quartic_residual": s.quartic_residual,
            "lambda_residual": s.lambda_residual,
        }
        for s in samples
    ]
    return _finish(config, payload, None, lines, started)


def _cmd_integrate(args, config: RunConfig, started: float) -> int:
    profile = odelab.parse_profile(args.profile)
    dimension = args.dimension or profile.count + 1
    samples = odelab.integrate_frenet(profile, dimension, args.span, args.step)
    if config.out is None:
        samples.to_csv(sys.stdout)
        return 0
    samples.to_csv(config.out)
    summary = {
        "profile": profile.render(),
        "dimension": dimension,
        "span": list(samples.span),
        "step": samples.h,
        "samples": len(samples),
        "error_estimate": samples.error_estimate,
        "frame_defect": samples.gram_defect(),
    }
    line = (
        f"wrote {len(samples)} samples to {config.out} "
        f"(error estimate {samples.error_estimate:.3e})"
    )
    # the samples went to --out, so the report goes to stdout
    return _finish(replace(config, out=None), summary, None, [line], started)


def _cmd_conserve(args, config: RunConfig, started: float) -> int:
    samples = odelab.CurveSamples.from_csv(args.input)
    ambient = SpaceForm(0) if args.ambient == "flat" else SpaceForm(1)
    if args.order == 3:
        report = odelab.conservation_monitor_tri(samples, ambient)
    else:
        report = odelab.conservation_monitor_four(samples, ambient)
    payload = report.to_json_dict()
    lines = [
        f"order-{report.order} invariant over {report.interior_count} interior points",
        f"  drift:    {report.drift:.6e}",
        f"  constant: {report.empirical_constant:.12g}",
        f"  spacing:  {report.spacing:g} (stride {report.stride})",
    ]
    return _finish(config, payload, None, lines, started)


def _cmd_conjecture(args, config: RunConfig, started: float) -> int:
    rows = odelab.conjecture_scan(args.order, args.alpha, args.beta_grid, args.span)
    payload = [row.to_json_dict() for row in rows]
    header = "beta,law_residual,exact_tension_sup,fd_tension_sup,fd_method"
    if args.order == 4:
        header += ",scaling"
    lines = [header]
    for row in rows:
        line = (
            f"{row.beta!r},{row.law_residual!r},{row.exact_tension_sup!r},"
            f"{row.fd_tension_sup!r},{row.fd_method}"
        )
        if row.scaling is not None:
            line += "," + ";".join(f"s^{p}*{c!r}" for p, c in row.scaling)
        lines.append(line)
    return _finish(config, payload, None, lines, started)


def _cmd_reproduce(args, config: RunConfig, started: float) -> int:
    results = acceptance.run_all(args.only, seed=config.seed)
    passed = all(r.ok for r in results)
    payload = {
        "criteria": [r.to_json_dict() for r in results],
        "passed": passed,
    }
    return _finish(config, payload, passed, acceptance.summary_lines(results), started)


# -- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyhelix",
        description="polyharmonic curves and helices in space forms",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, json_flag: bool = True, tol_flag: bool = False):
        p.add_argument("--out", help="write the report to this path")
        p.add_argument("--seed", type=int, default=None, help="RNG seed (default 42)")
        if tol_flag:
            p.add_argument("--tol", type=_positive_float, default=None,
                           help="override default tolerances")
        p.add_argument("--timing", action="store_true",
                       help="include wall-clock time in the report")
        if json_flag:
            p.add_argument("--json", action="store_true", help="emit JSON")

    p = sub.add_parser("tau", help="print a helix constraint system")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--zeros", type=_parse_zeros, default="",
                   help="comma-separated vanishing k indices")
    p.add_argument("--format", choices=("text", "json", "latex"), default="text")
    common(p, json_flag=False)
    p.set_defaults(handler=_cmd_tau)

    p = sub.add_parser("classify", help="search for constant-curvature solutions")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--K", type=float, required=True)
    p.add_argument("--zeros", type=_parse_zeros, default="")
    p.add_argument("--trials", type=int, default=1000)
    common(p, tol_flag=True)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("verify", help="check a closed-form solution curve")
    p.add_argument(
        "--curve",
        required=True,
        choices=tuple(VERIFY_PARAMETERS),
    )
    p.add_argument("--params", type=_parse_params, default="",
                   help="e.g. a2=1.2,b2=0.8 or y=2.5")
    common(p, tol_flag=True)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("family", help="sweep the two-frequency solution family")
    p.add_argument("family", choices=("tri-hyperbola",))
    p.add_argument("--samples", type=int, default=64)
    common(p)
    p.set_defaults(handler=_cmd_family)

    p = sub.add_parser("integrate", help="integrate a curvature profile")
    p.add_argument("--profile", required=True, help='e.g. "k1=1/s,k2=2/s"')
    p.add_argument("--span", type=_parse_span, required=True, help="lo:hi")
    p.add_argument("--step", type=_positive_float, default=1e-3)
    p.add_argument("--dimension", type=int, default=None)
    common(p)
    p.set_defaults(handler=_cmd_integrate)

    p = sub.add_parser("conserve", help="monitor a conservation-law invariant")
    p.add_argument("--order", type=int, choices=(3, 4), required=True)
    p.add_argument("--in", dest="input", required=True, help="samples CSV path")
    p.add_argument("--ambient", choices=("flat", "sphere"), required=True)
    common(p)
    p.set_defaults(handler=_cmd_conserve)

    p = sub.add_parser("conjecture", help="scan inverse-power curvature profiles")
    p.add_argument("--order", type=int, choices=(3, 4), required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta-grid", type=_parse_grid, required=True, help="lo:hi:n")
    p.add_argument("--span", type=_parse_span, default=(1.0, 3.0))
    common(p)
    p.set_defaults(handler=_cmd_conjecture)

    p = sub.add_parser("reproduce", help="run the acceptance criteria")
    p.add_argument("--only", default=None,
                   help="filter criteria by tag, number or name substring")
    common(p)
    p.set_defaults(handler=_cmd_reproduce)

    return parser


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as stop:
        return int(stop.code or 0)
    started = time.perf_counter()
    fmt = "json" if getattr(args, "json", False) else "text"
    if getattr(args, "format", None) == "json":
        fmt = "json"
    try:
        config = RunConfig(
            command=args.command,
            seed=_resolve_seed(args.seed),
            tol=getattr(args, "tol", None),
            out=args.out,
            fmt=fmt,
            timing=args.timing,
        )
        return args.handler(args, config, started)
    except (ValueError, OSError) as error:
        sys.stderr.write(f"polyhelix {args.command}: {error}\n")
        return 2


def main() -> int:
    return dispatch(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
