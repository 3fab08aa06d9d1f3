"""Command-line entry point.

Exit codes: 0 success, 1 configuration or input-file error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import sys

from .config import InvalidConfigError
from .experiment import eval_model, gen_dataset, parse_config, run_campaign, train_models


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beamalloc",
        description="Power allocation and congestion control for precoded multi-beam satellite downlinks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a Monte-Carlo campaign")
    run.add_argument("--config", required=True)
    run.add_argument("--trials", type=int, default=None, help="override n_trials")
    run.add_argument("--seed", type=int, default=None, help="override base_seed")
    run.add_argument("--out", default=None, help="override output directory")

    gen = sub.add_parser("gen-data", help="generate a surrogate training dataset")
    gen.add_argument("--config", required=True)

    train = sub.add_parser("train", help="train surrogate model(s) from the dataset")
    train.add_argument("--config", required=True)

    ev = sub.add_parser("eval", help="evaluate a trained surrogate against the solver")
    ev.add_argument("--model", required=True)
    ev.add_argument("--config", required=True)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if args.command == "run":
            if args.trials is not None:
                cfg.n_trials = args.trials
            if args.seed is not None:
                cfg.base_seed = args.seed
            if args.out is not None:
                cfg.out_dir = args.out
            out = run_campaign(cfg)
            print(f"wrote {out['per_trial']} and {out['aggregate']}")
        elif args.command == "gen-data":
            path = gen_dataset(cfg)
            print(f"wrote {path}")
        elif args.command == "train":
            trained = train_models(cfg)
            for strategy, (path, report) in trained.items():
                print(
                    f"{strategy}: {path} (best epoch {report.best_epoch}, "
                    f"val MSE {report.val_losses[report.best_epoch]:.3e})"
                )
        elif args.command == "eval":
            path = eval_model(cfg, args.model)
            print(f"wrote {path}")
    except InvalidConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
