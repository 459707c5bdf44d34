"""Command-line front end: run experiments and validate configs."""

from __future__ import annotations

import argparse
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path

from .errors import ChunkfairError, ConfigError
from .harness import ExperimentConfig, emit_csv, emit_summary_csv, run_experiment

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2

def _summary_path(rows_path: Path) -> Path:
    if rows_path.suffix == ".csv":
        return rows_path.with_suffix(".summary.csv")
    return rows_path.with_name(rows_path.name + ".summary.csv")


def _cmd_run(args) -> int:
    config = ExperimentConfig.from_file(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    out = Path(args.out)
    # numpy imports its random module on first use, inside the first channel
    # draw; import it here so the printed time covers the run alone.
    import numpy.random  # noqa: F401
    started = time.perf_counter()
    rows, summary = run_experiment(config, threads=args.threads)
    elapsed = time.perf_counter() - started
    emit_csv(rows, out)
    summary_path = _summary_path(out)
    emit_summary_csv(summary, summary_path)
    n_errors = sum(1 for r in rows if r.error)
    print(f"wrote {len(rows)} rows to {out} ({n_errors} error rows)")
    print(f"wrote {len(summary)} summary rows to {summary_path}")
    print(f"elapsed {elapsed:.2f} s")
    return EXIT_OK


def _cmd_validate(args) -> int:
    ExperimentConfig.from_file(args.config)
    print("config OK")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chunkfair",
        description="Chunk-based OFDMA resource allocation Monte-Carlo runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a configured experiment")
    p_run.add_argument("--config", required=True, help="JSON config path")
    p_run.add_argument("--out", required=True, help="rows CSV output path")
    p_run.add_argument("--seed", type=int, default=None, help="override the master seed")
    p_run.add_argument("--threads", type=int, default=1, help="parallel trial workers (>= 1)")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="check a config file and exit")
    p_val.add_argument("--config", required=True, help="JSON config path")
    p_val.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ChunkfairError, OSError, BrokenProcessPool, MemoryError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
