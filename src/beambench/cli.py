"""Command line entry point."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .config import SetupConfig, load_config
from .errors import BenchError
from .filters import parse_filter_list
from .pipeline import export_leadfield, report, run


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beambench",
        description="Seeded EEG source-reconstruction benchmark",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_cmd = sub.add_parser("run", help="execute a benchmark run")
    run_cmd.add_argument("--config", type=Path, help="KEY = value config file")
    run_cmd.add_argument("--seed", type=int, help="override the root seed")
    run_cmd.add_argument("--out", type=Path, help="output directory")
    run_cmd.add_argument(
        "--filters", help="comma-separated filter names (or 'all')"
    )
    run_cmd.add_argument(
        "--jobs", type=int, default=1, help="parallel realization workers"
    )

    report_cmd = sub.add_parser("report", help="print the summary table of a run")
    report_cmd.add_argument("run_dir", type=Path)

    export_cmd = sub.add_parser(
        "export-leadfield", help="write the configured lead-field as CSV"
    )
    export_cmd.add_argument("--config", type=Path, help="KEY = value config file")
    export_cmd.add_argument("--out", type=Path, required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            config = load_config(args.config) if args.config else SetupConfig()
            if args.seed is not None:
                config = replace(config, seed=args.seed)
            if args.filters is not None:
                try:
                    config = replace(config, filters=parse_filter_list(args.filters))
                except ValueError as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    return 1
            if args.jobs < 1:
                print("error: --jobs must be >= 1", file=sys.stderr)
                return 1
            out = run(config, out_dir=args.out, jobs=args.jobs)
            print(f"run written to {out}")
            print(report(out))
        elif args.command == "report":
            print(report(args.run_dir))
        else:
            config = load_config(args.config) if args.config else SetupConfig()
            out = export_leadfield(config, args.out)
            print(f"lead-field written to {out}")
        return 0
    except (BenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
