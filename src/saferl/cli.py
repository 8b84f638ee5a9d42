"""Command-line front end for the verification and training pipeline.

Exit codes: 0 for a passing stage, 1 for a failed verification verdict,
2 for configuration or execution errors, so the pipeline is scriptable.  An
unexpected exception prints its traceback to stderr and also exits 2.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

from .pipeline import (
    PipelineError,
    config_to_dict,
    default_config,
    load_config,
    run_expand,
    run_histogram,
    run_train,
    run_verify_agent,
    run_verify_safe,
)
from .ppo import PolicyLoadError
from .verify import InitialSetTooLarge, RolloutFailure, VerificationReport

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_ERROR = 2


def _seed(text: str) -> int:
    """``--seed``'s type: a non-negative integer, as numpy's seeding needs."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, not {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="saferl",
        description=(
            "Probabilistic verification of a safe controller, expansion-set "
            "search, masked policy training and re-verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", metavar="PATH", help="JSON configuration file")
        p.add_argument("--out", metavar="DIR", help="output directory override")
        p.add_argument("--seed", type=_seed, help="stage seed override (at least 0)")

    p = sub.add_parser("verify-safe", help="verify the perturbed safe controller")
    common(p)

    p = sub.add_parser("expand", help="search for the largest verifiable perturbation box")
    common(p)

    p = sub.add_parser("train", help="train the masked agent inside the verified box")
    common(p)
    p.add_argument(
        "--steps",
        type=int,
        help="training step budget; rounds down to whole update windows of "
        "training.ppo.n_steps steps, with at least one",
    )

    p = sub.add_parser("verify-agent", help="verify the trained deterministic policy")
    common(p)
    p.add_argument("--policy", metavar="PATH", required=True, help="policy file")

    p = sub.add_parser("histogram", help="export robustness samples and statistics")
    common(p)
    p.add_argument("--policy", metavar="PATH", help="policy file (optional)")
    p.add_argument("--n", type=int, help="samples per histogram")

    p = sub.add_parser("print-config", help="print the resolved configuration as JSON")
    p.add_argument("--config", metavar="PATH", help="JSON configuration file")

    return parser


def _verdict(report: VerificationReport, paths: dict) -> int:
    """Print a verification stage's verdict; its exit code."""
    print(
        f"rho_star = {report.rho_star:.6g}  "
        f"(n = {report.n_samples}, epsilon = {report.epsilon}, "
        f"confidence = {report.confidence:.6g})"
    )
    print(f"report: {paths['report']}")
    return EXIT_PASS if report.passed else EXIT_FAIL


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else default_config()
        if args.command == "print-config":
            json.dump(config_to_dict(cfg), sys.stdout, indent=2, sort_keys=True)
            sys.stdout.write("\n")
            return EXIT_PASS
        if args.command == "verify-safe":
            return _verdict(*run_verify_safe(cfg, args.out, args.seed))
        if args.command == "expand":
            result, paths = run_expand(cfg, args.out, args.seed)
            status = "converged" if result.converged else "iteration cap reached"
            print(f"expansion set: {result.box} ({status}, {result.growth_steps} growth steps)")
            print(f"persisted: {paths['expansion']}")
            return EXIT_PASS
        if args.command == "train":
            summary, paths = run_train(cfg, args.out, args.seed, args.steps)
            print(
                f"trained {summary['trained_steps']} steps in {summary['updates']} updates; "
                f"deterministic eval return "
                f"{summary['eval_mean_return']:.4g} +- {summary['eval_std_return']:.4g}"
            )
            print(f"policy: {paths['policy']}")
            return EXIT_PASS
        if args.command == "verify-agent":
            return _verdict(*run_verify_agent(cfg, args.policy, args.out, args.seed))
        if args.command == "histogram":
            summary, paths = run_histogram(cfg, args.policy, args.out, args.n, args.seed)
            for name in ("safe", "perturbed", "agent"):
                if name in summary:
                    s = summary[name]
                    print(f"{name}: mean {s['mean']:.4g}, std {s['std']:.4g}, n {s['n']}")
            print(f"summary: {paths['summary']}")
            return EXIT_PASS
        raise PipelineError(f"unknown command {args.command}")
    except InitialSetTooLarge as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (PipelineError, PolicyLoadError, RolloutFailure, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception:
        # a fault of the program, never a verdict: exit 1 would read as "unsafe"
        traceback.print_exc()
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
