"""Command-line interface.

Subcommands: ``analyze``, ``equilibrium``, ``simulate``, ``embed-verify``,
``curve2d``, ``certify-surface``, ``persist``, ``gac``.  All reports are
deterministic JSON (schema 1) on stdout; ``--out DIR`` additionally writes
them to files (plus CSV/SVG where applicable).  Exit codes: 0 pass,
1 assertion failure, 2 usage or parse error.

Each subcommand imports only the layers it runs, inside its function, so a
process compiles no module it does not use: ``analyze`` (like ``--help``
and a usage or parse error) loads ``network`` and ``jsonio`` and no numpy,
``embed-verify`` adds ``dynamics``, ``geometry`` and ``embedding``, and
``persist``/``gac`` add ``dynamics``, ``equilibria`` and ``experiments``.
Every typed error derives from ``network.InputError`` (exit 2) or
``network.CheckFailed`` (exit 1), so ``cli_dispatch`` catches those two
bases and names no class of a layer.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .jsonio import csv_text, report_json, write_text
from .network import CheckFailed, InputError, parse_network


def _load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_network(fh.read())


def _emit(args, payload: dict, filename: str) -> str:
    text = report_json(payload)
    sys.stdout.write(text)
    if args.out:
        write_text(os.path.join(args.out, filename), text)
    return text


def _parse_x0(raw: str | None, n: int) -> list[float]:
    if raw is None:
        return [1.0] * n
    try:
        vals = [float(v) for v in raw.split(",")]
    except ValueError as exc:
        raise UsageError(f"--x0 must be comma-separated floats: {exc}")
    if len(vals) != n:
        raise UsageError(f"--x0 needs {n} components, got {len(vals)}")
    if not all(0.0 < v < math.inf for v in vals):
        raise UsageError("--x0 components must be positive and finite")
    return vals


class UsageError(InputError):
    pass


def _checked(convert, ok, what: str):
    """argparse ``type=`` function: ``convert`` the text, then require
    ``ok``; anything else is a usage error (exit 2)."""
    def parse(raw: str):
        try:
            value = convert(raw)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {what}, got {raw!r}")
        return value
    return parse


_positive = _checked(float, lambda v: 0.0 < v < math.inf, "a positive number")
_positive_int = _checked(int, lambda v: v > 0, "a positive integer")
_band = _checked(float, lambda v: 0.0 < v <= 1.0, "a number in (0, 1]")
_fixed_rates = _checked(float, lambda v: v == 1.0,
                        "1.0: the global attractor is defined at fixed rates")
_seed = _checked(int, lambda v: v >= 0, "a nonnegative integer")


# -- subcommands ----------------------------------------------------------


def cmd_analyze(args) -> int:
    from .network import (deficiency, is_reversible, is_weakly_reversible,
                          linkage_classes, stoichiometric_rank)

    net = _load(args.network)
    payload = {
        "weakly_reversible": is_weakly_reversible(net),
        "reversible": is_reversible(net),
        "linkage_classes": linkage_classes(net),
        "deficiency": deficiency(net),
        "s": stoichiometric_rank(net),
    }
    _emit(args, payload, "analyze.json")
    return 0


def cmd_equilibrium(args) -> int:
    from .equilibria import solve_complex_balanced

    net = _load(args.network)
    report = solve_complex_balanced(net, tol=args.tol)
    _emit(args, report.to_json_dict(), "equilibrium.json")
    return 0 if report.found else 1


def cmd_simulate(args) -> int:
    from .dynamics import integrate

    net = _load(args.network)
    x0 = _parse_x0(args.x0, net.n)
    traj = integrate(net, None, x0, args.horizon)
    if args.format == "json":
        payload = {
            "horizon": args.horizon,
            "times": [float(t) for t in traj.times],
            "states": [[float(v) for v in row] for row in traj.states],
        }
        _emit(args, payload, "trajectory.json")
    else:
        header = ["t", *(f"x{i + 1}" for i in range(net.n))]
        text = csv_text(header, ([t, *x] for t, x in
                                 zip(traj.times.tolist(), traj.states.tolist())))
        sys.stdout.write(text)
        if args.out:
            write_text(os.path.join(args.out, "trajectory.csv"), text)
    return 0


def cmd_embed_verify(args) -> int:
    from .dynamics import RateBand
    from .embedding import build_embedding, sample_verify_embedding

    net = _load(args.network)
    band = RateBand(args.epsilon)
    cert = build_embedding(net, band)
    report = sample_verify_embedding(cert, net, band, args.trials,
                                     seed=args.seed, tol=args.tol)
    payload = {"embedding": cert.to_json_dict(),
               "sampling": report.to_json_dict()}
    _emit(args, payload, "embed_verify.json")
    return 0 if report.all_passed else 1


def _curve_for(net, epsilon: float):
    from .dynamics import RateBand
    from .embedding import build_embedding
    from .surfaces import build_zero_separating_curve_2d

    if net.n != 2:
        raise UsageError("curve construction needs exactly 2 species")
    band = RateBand(epsilon)
    cert = build_embedding(net, band)
    curve = build_zero_separating_curve_2d(cert.arrangement, cert.delta0)
    return cert, curve


def cmd_curve2d(args) -> int:
    from .surfaces import curve_to_svg

    net = _load(args.network)
    cert, curve = _curve_for(net, args.epsilon)
    payload = {"epsilon": args.epsilon, "delta0": cert.delta0,
               "curve": curve.to_json_dict()}
    _emit(args, payload, "curve2d.json")
    if args.out:
        write_text(os.path.join(args.out, "curve2d.svg"),
                   curve_to_svg(curve, cert.arrangement))
    return 0


def cmd_certify_surface(args) -> int:
    from .surfaces import curve_to_certificate, verify_zero_separating

    net = _load(args.network)
    cert, curve = _curve_for(net, args.epsilon)
    sampled = curve_to_certificate(curve, samples_per_segment=args.samples)
    outcome = verify_zero_separating(sampled, cert.arrangement, cert.delta0,
                                     tol=args.tol)
    payload = {"epsilon": args.epsilon, "delta0": cert.delta0,
               "samples": len(sampled.samples),
               "verification": outcome.to_json_dict()}
    _emit(args, payload, "certify_surface.json")
    return 0 if outcome.passed else 1


def _experiment_config(args):
    from .experiments import ExperimentConfig, InitialConditions

    return ExperimentConfig(
        epsilon=args.epsilon,
        horizon=args.horizon,
        initial=InitialConditions.sampled(args.trials, seed=args.seed),
        tol=args.tol,
    )


_RECORD_COLUMNS = ("final_distance", "max_lyapunov_increase", "persistence_min",
                   "converged", "persistent", "lyapunov_monotone", "error")


def _run_experiment(args, runner, name: str) -> int:
    report = runner(_experiment_config(args), _load(args.network))
    _emit(args, report.to_json_dict(), f"{name}.json")
    if args.format == "csv" and args.out:
        rows = ([i, *(getattr(r, c) for c in _RECORD_COLUMNS)]
                for i, r in enumerate(report.records))
        write_text(os.path.join(args.out, f"{name}.csv"),
                   csv_text(["index", *_RECORD_COLUMNS], rows))
    return 0 if report.passed else 1


def cmd_persist(args) -> int:
    from .experiments import run_persistence_experiment

    return _run_experiment(args, run_persistence_experiment, "persistence")


def cmd_gac(args) -> int:
    from .experiments import run_global_attractor_experiment

    return _run_experiment(args, run_global_attractor_experiment,
                           "global_attractor")


# -- parser ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toric-gac",
        description="Reaction-network analysis, vertex-balanced equilibria, "
                    "toric inclusion certificates, and separating curves.")
    sub = parser.add_subparsers(dest="command", required=True)

    band_help = "rate band parameter in (0, 1]"

    def common(p, *, epsilon=None, horizon=False, trials=None, seed=False,
               tol=None, samples=False, formats=("json",)):
        p.add_argument("network", help="network file (.crn)")
        if epsilon is not None:
            p.add_argument("--epsilon", type=_band, default=0.5, help=epsilon)
        if horizon:
            p.add_argument("--horizon", type=_positive, default=50.0)
        if trials is not None:
            p.add_argument("--trials", type=_positive_int, default=trials)
        if seed:
            p.add_argument("--seed", type=_seed, default=0)
        if tol is not None:
            p.add_argument("--tol", type=_positive, default=tol)
        if samples:
            p.add_argument("--samples", type=_positive_int, default=10,
                           help="verification samples per segment")
        p.add_argument("--out", help="directory for report files")
        p.add_argument("--format", choices=formats, default="json")

    p = sub.add_parser("analyze", help="structural report")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("equilibrium", help="vertex-balanced equilibrium")
    common(p, tol=1e-10)
    p.set_defaults(func=cmd_equilibrium)

    p = sub.add_parser("simulate", help="integrate mass-action dynamics")
    common(p, horizon=True, formats=("json", "csv"))
    p.add_argument("--x0", help="comma-separated initial state")
    p.set_defaults(func=cmd_simulate, format="csv")

    p = sub.add_parser("embed-verify",
                       help="sampled inclusion-cone membership")
    common(p, epsilon=band_help, trials=1000, seed=True, tol=1e-9)
    p.set_defaults(func=cmd_embed_verify)

    p = sub.add_parser("curve2d", help="build a zero-separating curve")
    common(p, epsilon=band_help)
    p.set_defaults(func=cmd_curve2d)

    p = sub.add_parser("certify-surface",
                       help="verify the curve certificate")
    common(p, epsilon=band_help, tol=1e-9, samples=True)
    p.set_defaults(func=cmd_certify_surface)

    p = sub.add_parser("persist", help="persistence experiment")
    common(p, epsilon=band_help + "; default 1.0; not used yet: the run "
           "integrates the network's own rates", horizon=True, trials=10,
           seed=True, tol=1e-6, formats=("json", "csv"))
    p.set_defaults(func=cmd_persist, epsilon=1.0)

    p = sub.add_parser("gac", help="global-attractor experiment")
    common(p, horizon=True, trials=10, seed=True, tol=1e-6,
           formats=("json", "csv"))
    p.add_argument("--epsilon", type=_fixed_rates, default=1.0,
                   help="only 1.0: the global attractor is defined at fixed "
                        "rates")
    p.set_defaults(func=cmd_gac)

    return parser


def cli_dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (OSError, InputError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except CheckFailed as exc:
        print(f"check failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_dispatch())


if __name__ == "__main__":
    main()
