"""Command-line interface.

Subcommands: generate, ingest, build-graphs, train, infer, evaluate,
plot, run.  Global flags: --config, --seed, --out, --verbose.

Exit codes: 0 success, 2 config error, 3 data error, 4 numeric failure,
5 I/O error.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from ..errors import (ConfigError, DataError, DomainError, FitError,
                      NumericError, ShapeError)
from . import pipeline
from .config import apply_overrides, load_config

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4
EXIT_IO = 5


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trackseg",
        description="One-shot track finding on eta-phi hit graphs")
    parser.add_argument("--config", metavar="PATH",
                        help="JSON run configuration")
    parser.add_argument("--seed", type=int, help="override the master seed")
    parser.add_argument("--out", metavar="DIR",
                        help="override the output directory")
    parser.add_argument("--verbose", action="store_true",
                        help="debug logging")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("generate", help="write synthetic events")
    ingest = sub.add_parser("ingest", help="read a TrackML CSV event")
    ingest.add_argument("--hits", help="hits CSV (overrides paths.hits_csv)")
    ingest.add_argument("--truth", help="truth CSV")
    ingest.add_argument("--particles", help="particles CSV")
    sub.add_parser("build-graphs", help="events -> hit graphs")
    sub.add_parser("train", help="train the network on stored graphs")
    sub.add_parser("infer", help="run inference + candidate merging")
    sub.add_parser("evaluate", help="score predictions against truth")
    plot = sub.add_parser("plot", help="render an eta-phi event display")
    plot.add_argument("--event", type=int, default=0,
                      help="event index to draw")
    plot.add_argument("--truth", action="store_true",
                      help="draw truth ellipses instead of predictions")
    sub.add_parser("run", help="full pipeline end to end")
    return parser


def _setup_logging(cfg, verbose: bool) -> None:
    root = logging.getLogger("trackseg")
    root.setLevel(logging.DEBUG if verbose else logging.INFO)
    for handler in root.handlers[:]:
        root.removeHandler(handler)
        handler.close()
    console = logging.StreamHandler(sys.stderr)
    console.setFormatter(logging.Formatter("%(levelname)s %(message)s"))
    root.addHandler(console)
    try:
        out_dir = Path(cfg.paths.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        file_handler = logging.FileHandler(out_dir / "run.log")
        file_handler.setFormatter(
            logging.Formatter("%(asctime)s %(levelname)s %(message)s"))
        root.addHandler(file_handler)
    except OSError:
        pass  # console logging still works


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        cfg = apply_overrides(cfg, seed=args.seed, out_dir=args.out)
        if args.command == "ingest":
            from dataclasses import replace
            paths = cfg.paths
            if args.hits:
                paths = replace(paths, hits_csv=args.hits)
            if args.truth:
                paths = replace(paths, truth_csv=args.truth)
            if args.particles:
                paths = replace(paths, particles_csv=args.particles)
            cfg = replace(cfg, paths=paths)
        _setup_logging(cfg, args.verbose)

        if args.command == "generate":
            pipeline.stage_generate(cfg)
        elif args.command == "ingest":
            pipeline.stage_ingest(cfg)
        elif args.command == "build-graphs":
            pipeline.stage_build_graphs(cfg)
        elif args.command == "train":
            pipeline.stage_train(cfg)
        elif args.command == "infer":
            pipeline.stage_infer(cfg)
        elif args.command == "evaluate":
            pipeline.stage_evaluate(cfg)
        elif args.command == "plot":
            pipeline.stage_plot(cfg, args.event, args.truth)
        elif args.command == "run":
            pipeline.run_pipeline(cfg)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as err:
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except (NumericError, FitError, DomainError, ShapeError) as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def entrypoint() -> None:
    sys.exit(main())
