"""Command-line front end: experiment runs and the verification suite.

Subcommands
-----------
sysid   Monte-Carlo system identification experiment, CSV trace out.
cdma    Monte-Carlo CDMA interference suppression experiment.
verify  Numerical verification suite; nonzero exit on any failed check.

Exit codes: 0 success, 1 invariant failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import sys

from .experiments import (
    ALGORITHMS,
    ExperimentConfig,
    FilterSpec,
    config_metadata,
    format_csv,
    run_experiment,
    write_csv,
)
from .filters import KrrParams
from .scenarios import CdmaConfig, SysIdConfig


def _add_common(parser, *, rho: float, lam: float, snr: float, iters: int):
    parser.add_argument("--filter", action="append", dest="filters",
                        choices=ALGORITHMS,
                        help="algorithm to run (repeatable; default krr-apsp)")
    parser.add_argument("--D", type=int, default=5, help="Krylov subspace rank")
    parser.add_argument("--q", type=int, default=4, help="parallel projections per step")
    parser.add_argument("--r", type=int, default=1, help="error-vector dimension")
    parser.add_argument("--rho", type=float, default=rho, help="error bound")
    parser.add_argument("--m", type=int, default=10, help="basis refresh period")
    parser.add_argument("--lambda", type=float, default=lam, dest="step_size",
                        help="relaxation step size in [0, 2]")
    parser.add_argument("--gamma", type=float, default=0.999,
                        help="forgetting factor of KRR-APSP and RLS (CGRRF does not forget)")
    parser.add_argument("--snr-db", type=float, default=snr, help="signal-to-noise ratio")
    parser.add_argument("--runs", type=int, default=300, help="independent trials")
    parser.add_argument("--iters", type=int, default=iters, help="iterations per trial")
    parser.add_argument("--change-at", type=int, default=None,
                        help="iteration at which the environment changes")
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument("--out", default=None, help="CSV output path (default stdout)")
    parser.add_argument("--count-mults", action="store_true",
                        help="append one mults-total.<label> per filter to the header: "
                             "the sum over steps of its trial-averaged recurring "
                             "multiplication counts")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="krrapsp",
        description="Reduced-rank adaptive filtering experiments and checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sys = sub.add_parser("sysid", help="system identification experiment")
    _add_common(p_sys, rho=0.15, lam=0.03, snr=15.0, iters=2000)
    p_sys.add_argument("--N", type=int, default=50, help="filter length")
    p_sys.add_argument("--change-mode", choices=["negate", "fresh"], default=None,
                       help="how the unknown system changes at --change-at (default negate)")

    p_cdma = sub.add_parser("cdma", help="CDMA interference suppression experiment")
    _add_common(p_cdma, rho=0.01, lam=0.02, snr=15.0, iters=2000)
    p_cdma.add_argument("--users", type=int, default=8, help="active users")
    p_cdma.add_argument("--users-post", type=int, default=None,
                        help="user count after the change event")
    p_cdma.add_argument("--interferer-amp", type=float, default=1.0,
                        help="interferer amplitude relative to the desired user")

    p_ver = sub.add_parser("verify", help="run the numerical verification suite")
    p_ver.add_argument("--seed", type=int, default=0, help="suite seed")
    return parser


def _filter_specs(args) -> tuple:
    names = args.filters or ["krr-apsp"]
    specs = []
    for name in names:
        if name == "krr-apsp":
            params = KrrParams(rank=args.D, projections=args.q, error_dim=args.r,
                               rho=args.rho, refresh_period=args.m,
                               step_size=args.step_size, forgetting=args.gamma)
            specs.append(FilterSpec("krr-apsp", options={"params": params}))
        elif name == "cgrrf":
            specs.append(FilterSpec("cgrrf", options={
                "rank": args.D, "refresh_period": args.m}))
        elif name == "nlms":
            specs.append(FilterSpec("nlms", options={"step_size": args.step_size}))
        else:
            specs.append(FilterSpec("rls", options={"forgetting": args.gamma}))
    return tuple(specs)


def _run_experiment_command(args) -> int:
    if args.command == "sysid":
        if args.change_mode is not None and args.change_at is None:
            # it would run with no change, yet the header would record the mode
            raise ValueError("--change-mode needs --change-at")
        scenario = SysIdConfig(n=args.N, snr_db=args.snr_db,
                               change_at=args.change_at,
                               change_mode=args.change_mode or SysIdConfig.change_mode,
                               seed=args.seed)
    else:
        scenario = CdmaConfig(users=args.users, snr_db=args.snr_db,
                              interferer_amplitude=args.interferer_amp,
                              change_at=args.change_at, users_post=args.users_post,
                              seed=args.seed)
    config = ExperimentConfig(kind=args.command, scenario=scenario,
                              filters=_filter_specs(args), runs=args.runs,
                              iters=args.iters, seed=args.seed)
    records = run_experiment(config)
    metadata = config_metadata(config)
    if args.count_mults:
        for spec in config.filters:
            total = sum(r.mults for r in records if r.algorithm == spec.label)
            metadata[f"mults-total.{spec.label}"] = f"{total:.10g}"
    if args.out:
        write_csv(records, args.out, metadata)
    else:
        sys.stdout.write(format_csv(records, metadata))
    return 0


def _run_verify_command(args) -> int:
    from .verify import format_report, run_all

    results = run_all(seed=args.seed)
    print(format_report(results))
    failed = [r for r in results if not r.passed]
    if failed:
        print(f"{len(failed)} of {len(results)} checks failed", file=sys.stderr)
        return 1
    print(f"all {len(results)} checks passed")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return _run_verify_command(args)
        return _run_experiment_command(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
