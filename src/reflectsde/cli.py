"""Command line front end.

Four subcommands, all driven by the same YAML configuration:

    simulate    run one constrained scheme path, write path/solution CSVs
    skorokhod   reflect one sampled path directly, write the decomposition
    converge    Monte Carlo mesh ladder against a reference, write the table
    remark4     endpoint gap report between the two jump conventions

Every artifact is deterministic for a given configuration and seed: CSV
floats use the fixed %.17g format (exact on round trip, not shortest),
JSON floats the shortest round-trip repr with NaN as null, JSON keys are
sorted, no timestamps are embedded, and parallel fan-out
(``--jobs``) never changes any output byte.  ``path.csv`` and
``solution.csv`` are streamed to disk by the ``csvio`` writers, a block of
rows at a time, so a long path's CSV is never held as one string; the
small artifacts (JSON, ``rate.csv``) are built as text and written whole.
Exit status: 0 success, 2 configuration problem, 3 runtime failure.
"""

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .analysis import (convergence_study, json_ready, remark4_report,
                       variation_report)
from .config import ExperimentConfig, default_config, load_config
# bench/layers.py wraps the bindings cli.path_csv_text and
# cli.solution_csv_text
from .csvio import (path_csv_text, rate_csv_text,  # noqa: F401
                    solution_csv_text, write_path_csv, write_solution_csv)
from .driver import GridPath
from .errors import ConfigError, ReflectedSDEError
from .schemes import run_scheme
from .skorokhod import solve_skorokhod


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE",
                        help="YAML configuration file (defaults apply without it)")
    common.add_argument("--out", metavar="DIR",
                        help="output directory (default: ./<command>-out)")
    common.add_argument("--seed", type=int, default=None,
                        help="override experiment.seed")
    common.add_argument("--jobs", type=_positive_int, default=1,
                        help="worker processes for Monte Carlo fan-out")
    common.add_argument("--print-config", action="store_true",
                        help="print the effective configuration and exit")

    parser = argparse.ArgumentParser(
        prog="reflectsde",
        description="constrained rough-driver simulation and verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("simulate", parents=[common],
                   help="run one scheme path and write its decomposition")
    sub.add_parser("skorokhod", parents=[common],
                   help="reflect one sampled path into the domain")
    sub.add_parser("converge", parents=[common],
                   help="mesh-ladder convergence study against a reference")
    sub.add_parser("remark4", parents=[common],
                   help="jump-convention endpoint gap report")
    return parser


def _json_text(payload: dict) -> str:
    """A JSON artifact: records as plain data, NaN as null, keys sorted."""
    return json.dumps(json_ready(payload), sort_keys=True, indent=2) + "\n"


def _write(out_dir: Path, name: str, text: str) -> str:
    """Write a small artifact (JSON, rate.csv) whole."""
    with open(out_dir / name, "w") as handle:
        handle.write(text)
    return name


def cmd_simulate(cfg: ExperimentConfig, out_dir: Path, jobs: int) -> list:
    domain = cfg.build_domain()
    f = cfg.build_coefficient()
    z = cfg.sample_driver(cfg.seed())
    spec = cfg.build_scheme_spec()
    out = run_scheme(domain, f, cfg.x0(), z, spec)
    variation = variation_report(domain, out.y, out)
    summary = {
        "command": "simulate",
        "config_sha256": cfg.config_hash(),
        "label": cfg.experiment.get("label", ""),
        "scheme": out.meta,
        "endpoint": out.x.values[-1],
        "k_variation_end": float(out.k_variation[-1]),
        "variation": variation,
    }
    write_path_csv(out_dir / "path.csv", z)
    write_solution_csv(out_dir / "solution.csv", out.x, out.k,
                       out.k_variation)
    return ["path.csv", "solution.csv",
            _write(out_dir, "summary.json", _json_text(summary))]


def cmd_skorokhod(cfg: ExperimentConfig, out_dir: Path, jobs: int) -> list:
    domain = cfg.build_domain()
    z = cfg.sample_driver(cfg.seed())
    x0 = cfg.x0()
    y = GridPath(z.times, z.values + x0, interp=z.interp,
                 jump_times=z.jump_times, jump_values=z.jump_values)
    sol = solve_skorokhod(domain, y)
    variation = variation_report(domain, y, sol)
    summary = {
        "command": "skorokhod",
        "config_sha256": cfg.config_hash(),
        "label": cfg.experiment.get("label", ""),
        "endpoint": sol.x.values[-1],
        "k_variation_end": float(sol.k_variation[-1]),
        "variation": variation,
    }
    write_path_csv(out_dir / "path.csv", y)
    write_solution_csv(out_dir / "solution.csv", sol.x, sol.k,
                       sol.k_variation)
    return ["path.csv", "solution.csv",
            _write(out_dir, "summary.json", _json_text(summary))]


def cmd_converge(cfg: ExperimentConfig, out_dir: Path, jobs: int) -> list:
    plan = cfg.study_plan()
    try:
        table = convergence_study(plan, jobs=jobs)
    except ValueError as exc:
        raise ConfigError([str(exc)])
    payload = {
        "command": "converge",
        "config_sha256": cfg.config_hash(),
        "label": cfg.experiment.get("label", ""),
        "table": table,
    }
    return [
        _write(out_dir, "rate.csv", rate_csv_text(json_ready(table.rows))),
        _write(out_dir, "rate.json", _json_text(payload)),
    ]


def cmd_remark4(cfg: ExperimentConfig, out_dir: Path, jobs: int) -> list:
    report = remark4_report()
    payload = {
        "command": "remark4",
        "config_sha256": cfg.config_hash(),
        "report": report,
    }
    return [_write(out_dir, "remark4.json", _json_text(payload))]


_COMMANDS = {
    "simulate": cmd_simulate,
    "skorokhod": cmd_skorokhod,
    "converge": cmd_converge,
    "remark4": cmd_remark4,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        cfg = load_config(args.config) if args.config else default_config()
        if args.seed is not None:
            experiment = dict(cfg.experiment)
            experiment["seed"] = int(args.seed)
            cfg = ExperimentConfig(cfg.domain, cfg.coefficient, cfg.driver,
                                   cfg.scheme, experiment)
        if args.print_config:
            print(json.dumps({"config": dataclasses.asdict(cfg),
                              "sha256": cfg.config_hash()},
                             sort_keys=True, indent=2))
            return 0
        cfg.ensure_valid()
    except ConfigError as exc:
        print(json.dumps({"error": "configuration", "problems": exc.problems},
                         sort_keys=True), file=sys.stderr)
        return 2

    out_dir = Path(args.out or f"{args.command}-out")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        files = _COMMANDS[args.command](cfg, out_dir, args.jobs)
    except ConfigError as exc:
        print(json.dumps({"error": "configuration", "problems": exc.problems},
                         sort_keys=True), file=sys.stderr)
        return 2
    except (ReflectedSDEError, MemoryError) as exc:
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"},
                         sort_keys=True), file=sys.stderr)
        return 3
    except OSError as exc:
        print(json.dumps({"error": f"io: {exc}"}, sort_keys=True),
              file=sys.stderr)
        return 3

    print(json.dumps({
        "command": args.command,
        "config_sha256": cfg.config_hash(),
        "files": sorted(files),
        "out": str(out_dir),
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
