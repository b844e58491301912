"""Command line entry point.

Eight subcommands expose the package: ``tau`` prints helix constraint
systems, ``classify`` decides their constant-curvature solutions, ``verify``
checks the closed-form sphere curves, ``family`` sweeps the two-frequency
solution family, ``integrate``/``conserve``/``conjecture`` drive the
numerical lab, and ``reproduce`` runs the acceptance registry.

Reports are deterministic: identical configuration (including the seed)
yields byte-identical output.  Wall-clock timing is therefore only included
when explicitly requested with ``--timing``.

Exit codes: 0 success, 1 verification failure, 2 usage error.

Only the symbolic layers load with this module.  Each numeric module, and
numpy with it, loads in the handler (or the ``--beta-grid`` parser) that
uses it, so ``tau``, ``--help``, ``--version`` and a usage error that
argparse reports for any other flag run without numpy.  ``classify``
decides every system exactly and imports no numpy; a system it cannot
decide exits 2 with the reason.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction
from functools import cache

from . import __version__
from .frenet import constraint_system

DEFAULT_SEED = 42

# flags whose value may begin with "-": argparse reads a separate "-1e-3",
# "-inf" or "-1:1" as an option unless the value is joined to its flag
SIGNED_FLAGS = ("--K", "--alpha", "--span", "--beta-grid")

# the parameters each verify curve takes in --params, with their defaults;
# any other name is a usage error
VERIFY_PARAMETERS = {
    "biharmonic-circle": {},
    "biharmonic-two-freq": {"a2": 1.5, "b2": 0.5},
    "tri-planar": {},
    "tri-hyperbola": {"y": 2.0},
    "four-planar": {},
}


# -- small parsers -----------------------------------------------------------

def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}") from None
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
    return value


def _parse_span(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(piece) for piece in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected lo:hi with numeric bounds, got {text!r}"
        ) from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise argparse.ArgumentTypeError(f"span bounds must be finite, got {text}")
    return lo, hi


def _parse_grid(text: str) -> list[float]:
    import numpy as np

    from . import odelab

    try:
        lo_text, hi_text, count_text = text.split(":")
        lo, hi, count = float(lo_text), float(hi_text), int(count_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected lo:hi:n with numeric bounds and a whole number n, got {text!r}"
        ) from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
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


def _parse_params(text: str | None) -> dict[str, Fraction]:
    """``name=value`` pairs, each value the exact ``Fraction`` its decimal
    text names, so ``a2=1.2,b2=0.8`` sums to 2 exactly; a value that rounds
    to a zero float reads as 0."""
    if not text:
        return {}
    usage = argparse.ArgumentTypeError(
        f"expected name=value pairs such as a2=1.2,b2=0.8, got {text!r}"
    )
    out: dict[str, Fraction] = {}
    for chunk in text.split(","):
        name, equals, value = chunk.partition("=")
        if not equals or not name.strip():
            raise usage
        try:
            rounded = float(value)
            if not math.isfinite(rounded):
                raise usage
            # Fraction builds 10**e for the exponent e in the text; a finite,
            # nonzero float bounds e by the length of the text
            out[name.strip()] = Fraction(value) if rounded else Fraction(0)
        except ValueError:
            raise usage from None
    return out


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as handle:
            handle.write(text)


def _finish(
    args: argparse.Namespace,
    payload: object,
    passed: bool | None,
    text_lines: list[str],
    started: float,
) -> int:
    if getattr(args, "json", False) or getattr(args, "format", None) == "json":
        body: dict = {"command": args.command, "version": __version__, "payload": payload}
        if passed is not None:
            body["passed"] = passed
        if args.timing:
            body["wall_time"] = time.perf_counter() - started
        _emit(json.dumps(body, sort_keys=True, indent=2) + "\n", args.out)
    else:
        text = "\n".join(text_lines) + "\n"
        if args.timing:
            text += f"wall time: {time.perf_counter() - started:.2f}s\n"
        _emit(text, args.out)
    if passed is False:
        return 1
    return 0


# -- subcommand handlers -----------------------------------------------------

def _cmd_tau(args, started: float) -> int:
    system = constraint_system(args.order, args.zeros)
    # build only the form that --format asks for
    if args.format == "json":
        return _finish(args, system.to_json_dict(), None, [], started)
    text = system.render_latex() if args.format == "latex" else system.render()
    return _finish(args, None, None, [text], started)


def _cmd_classify(args, started: float) -> int:
    from . import classify

    report = classify.solve_helix(args.order, args.K, args.zeros)
    lines = [
        f"order {report.order}, K = {report.K:g}, "
        f"zero pattern {sorted(report.zero_pattern) or '{}'}",
        f"solutions: {len(report.solutions)}"
        f" ({len(report.proper_solutions())} proper)",
    ]
    for solution in report.solutions:
        ks = ", ".join(f"{k:.12g}" for k in solution.curvatures)
        lines.append(f"  ({ks})  residual {solution.residual:.3e}")
    for cert in report.certificates:
        if isinstance(cert, classify.PositiveCombination):
            # N itself is in the JSON report
            frames = ", ".join(f"F{frame}" for frame in cert.frames)
            lines.append(f"  certificate {frames}: {cert.reason}")
        else:
            lines.append(f"  certificate F{cert['frame']}: {cert['equation']} ({cert['reason']})")
    if report.exact_set is not None:
        exact = report.exact_set.to_json_dict()
        lines.append(
            f"  exact set: {exact['kind']} {exact['equation']}; "
            f"{exact['parametrization']}; {exact['t_range']}"
        )
    # only the JSON report renders the certificates in full
    payload = report.to_json_dict() if args.json else None
    return _finish(args, payload, None, lines, started)


def _verify_checks(name: str, params: dict[str, Fraction]) -> tuple[int, dict, dict]:
    """Order, parameter echo and check values for one named curve, given
    every parameter it takes."""
    from . import spherecurves

    if name == "biharmonic-circle":
        curve = spherecurves.biharmonic_circle()
        return 2, {}, {
            "equation_residual": spherecurves.equation_residual(curve, 2),
            "tension_residual": spherecurves.intrinsic_tau_residual(curve, 2),
        }
    if name == "biharmonic-two-freq":
        curve = spherecurves.biharmonic_two_freq(params["a2"], params["b2"])
        return 2, {key: float(value) for key, value in params.items()}, {
            "equation_residual": spherecurves.equation_residual(curve, 2),
            "tension_residual": spherecurves.intrinsic_tau_residual(curve, 2),
        }
    if name == "tri-planar":
        curve = spherecurves.tri_planar()
        return 3, {}, {
            "tension_residual": spherecurves.intrinsic_tau_residual(curve, 3),
        }
    if name == "tri-hyperbola":
        sample = spherecurves.family_sample(spherecurves.tri_hyperbola_curve(params["y"]))
        return 3, {"y": sample.y, "x": sample.x}, {
            "tension_residual": sample.tau3_residual,
            "quartic_residual": sample.quartic_residual,
            "multiplier_residual": sample.lambda_residual,
        }
    if name == "four-planar":
        curve = spherecurves.four_planar()
        return 4, {}, {
            "fourth_order_residual": spherecurves.equation_residual(curve, 4),
            "tension_residual": spherecurves.intrinsic_tau_residual(curve, 4),
        }
    raise ValueError(f"unknown curve {name!r}")


def _cmd_verify(args, started: float) -> int:
    defaults = VERIFY_PARAMETERS[args.curve]
    unknown = sorted(set(args.params) - set(defaults))
    if unknown:
        takes = ", ".join(defaults) if defaults else "no parameters"
        raise ValueError(
            f"--params: curve {args.curve} takes {takes}, got {', '.join(unknown)}"
        )
    from . import spherecurves

    order, parameters, values = _verify_checks(args.curve, {**defaults, **args.params})
    checks = {}
    passed = True
    for check, value in values.items():
        tolerance = args.tol if args.tol is not None else spherecurves.TOLERANCES[check]
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
    return _finish(args, payload, passed, lines, started)


def _cmd_family(args, started: float) -> int:
    from . import spherecurves

    sweep = {"tri-hyperbola": spherecurves.tri_hyperbola_family}[args.family]
    samples = sweep(args.samples)
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
    return _finish(args, payload, None, lines, started)


def _cmd_integrate(args, started: float) -> int:
    from . import odelab

    profile = odelab.parse_profile(args.profile)
    dimension = profile.count + 1 if args.dimension is None else args.dimension
    samples = odelab.integrate_frenet(profile, dimension, args.span, args.step)
    if args.out is None:
        samples.to_csv(sys.stdout)
        return 0
    samples.to_csv(args.out)
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
        f"wrote {len(samples)} samples to {args.out} "
        f"(error estimate {samples.error_estimate:.3e})"
    )
    # the samples went to --out, so the report goes to stdout
    args.out = None
    return _finish(args, summary, None, [line], started)


def _cmd_conserve(args, started: float) -> int:
    from . import odelab

    samples = odelab.CurveSamples.from_csv(args.input)
    K = 0.0 if args.ambient == "flat" else 1.0
    if args.order == 3:
        report = odelab.conservation_monitor_tri(samples, K)
    else:
        report = odelab.conservation_monitor_four(samples, K)
    payload = report.to_json_dict()
    lines = [
        f"order-{report.order} invariant over {report.interior_count} interior points",
        f"  drift:    {report.drift:.6e}",
        f"  constant: {report.empirical_constant:.12g}",
        f"  spacing:  {report.spacing:g} (stride {report.stride})",
    ]
    return _finish(args, payload, None, lines, started)


def _cmd_conjecture(args, started: float) -> int:
    from . import odelab

    rows = odelab.conjecture_scan(args.order, args.alpha, args.beta_grid, args.span)
    payload = [row.to_json_dict() for row in rows]
    header = "beta,law_residual,exact_tension_sup,fd_tension_sup,fd_roundoff_floor,fd_below_floor"
    if args.order == 4:
        header += ",scaling"
    lines = [header]
    for row in rows:
        line = (
            f"{row.beta!r},{row.law_residual!r},{row.exact_tension_sup!r},"
            f"{row.fd_tension_sup!r},{row.fd_roundoff_floor!r},{str(row.fd_below_floor).lower()}"
        )
        if row.scaling is not None:
            line += "," + ";".join(f"s^{p}*{c!r}" for p, c in row.scaling)
        lines.append(line)
    return _finish(args, payload, None, lines, started)


def _cmd_reproduce(args, started: float) -> int:
    from . import acceptance

    results = acceptance.run_all(args.only, seed=args.seed)
    passed = all(r.ok for r in results)
    payload = {
        "criteria": [r.to_json_dict() for r in results],
        "passed": passed,
    }
    return _finish(args, payload, passed, acceptance.summary_lines(results), started)


# -- parser ------------------------------------------------------------------

@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on the first call and shared by
    every later one: parsing never changes it, and each call gets a new
    namespace."""
    parser = argparse.ArgumentParser(
        prog="polyhelix",
        description="polyharmonic curves and helices in space forms",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, json_flag: bool = True):
        p.add_argument("--out", help="write the report to this path")
        p.add_argument("--timing", action="store_true",
                       help="include wall-clock time in the report")
        if json_flag:
            p.add_argument("--json", action="store_true", help="emit JSON")

    def ignored(p, *flags):
        # perfbench/workloads.py passes these on every operation until
        # ROADMAP item 1; they set no work
        for flag in flags:
            p.add_argument(flag, type=int, help="accepted and ignored")

    p = sub.add_parser("tau", help="print a helix constraint system")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--zeros", type=_parse_zeros, default="",
                   help="comma-separated vanishing k indices")
    p.add_argument("--format", choices=("text", "json", "latex"), default="text")
    common(p, json_flag=False)
    ignored(p, "--seed")
    p.set_defaults(handler=_cmd_tau)

    p = sub.add_parser("classify", help="decide constant-curvature solutions exactly")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--K", type=float, required=True)
    p.add_argument("--zeros", type=_parse_zeros, default="")
    common(p)
    ignored(p, "--trials", "--seed")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("verify", help="check a closed-form solution curve")
    p.add_argument(
        "--curve",
        required=True,
        choices=tuple(VERIFY_PARAMETERS),
    )
    p.add_argument("--params", type=_parse_params, default="",
                   help="e.g. a2=1.2,b2=0.8 or y=2.5")
    p.add_argument("--tol", type=_positive_float, default=None,
                   help="override default tolerances")
    common(p)
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
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"RNG seed (default {DEFAULT_SEED})")
    common(p)
    p.set_defaults(handler=_cmd_reproduce)

    return parser


def _join_signed_values(argv: list[str]) -> list[str]:
    """``argv`` with the separate value of each of :data:`SIGNED_FLAGS`
    joined to it when it begins with one "-": ``--K -1e-3`` becomes
    ``--K=-1e-3``."""
    joined: list[str] = []
    for token in argv:
        if joined and joined[-1] in SIGNED_FLAGS and token[:1] == "-" and token[:2] != "--":
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_signed_values(argv))
    except SystemExit as stop:
        return int(stop.code or 0)
    started = time.perf_counter()
    try:
        return args.handler(args, started)
    except (ValueError, OSError) as error:
        sys.stderr.write(f"polyhelix {args.command}: {error}\n")
        return 2


def main() -> int:
    return dispatch(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
