"""Command line entry points.

Subcommands: run (adaptation, optionally the full ablation), baseline
(source-only prototype classifier), grid (hyperparameter sweep), selftest
(randomized oracle suite), synth (generate a synthetic task on disk).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import bench, synth
from .errors import CdemError
from .matio import ExperimentConfig, Task, load_config


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="key=value experiment file")
    parser.add_argument(
        "--task",
        action="append",
        default=None,
        help="registry task like C-A; repeatable; 'all' expands to every ordered pair",
    )
    parser.add_argument("--out", default="cdem-report", help="report directory")


def _load(args: argparse.Namespace) -> tuple[ExperimentConfig, list[Task]]:
    config = load_config(args.config)
    return config, bench.expand_tasks(config, args.task)


def _report(results: list[bench.TaskResult], out: str) -> None:
    paths = bench.emit_report(results, out)
    for res in results:
        acc = "n/a" if res.accuracy is None else f"{res.accuracy:.1f}"
        print(f"{res.task:>12}  {res.method:<12} acc={acc:>5}  {res.wall_time:.2f}s")
    print(f"report: {paths['csv']}")
    print(f"report: {paths['json']}")


def _cmd_run(args: argparse.Namespace) -> int:
    config, tasks = _load(args)
    dump_dir = None if args.dump is None else Path(args.dump)
    methods = ["source-only"] if args.with_baseline else []
    methods += [name for name, _ in bench.ABLATION_STAGES] if args.ablation else ["cdem"]
    _report(bench.run_task_suite(config, tasks, methods, dump_dir), args.out)
    return 0


def _cmd_baseline(args: argparse.Namespace) -> int:
    config, tasks = _load(args)
    _report(bench.run_task_suite(config, tasks, ["source-only"]), args.out)
    return 0


def _cmd_grid(args: argparse.Namespace) -> int:
    config, tasks = _load(args)
    params = [p.strip() for p in args.params.split(",") if p.strip()]
    if not params:
        raise CdemError("--params needs at least one name")
    points = bench.run_grid(config, params, tasks)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = [",".join(params) + ",mean_accuracy"]
    for assignment, acc in points:
        lines.append(",".join(repr(assignment[p]) for p in params) + f",{acc:.4f}")
    grid_path = out / "grid.csv"
    grid_path.write_text("\n".join(lines) + "\n")
    best = max(points, key=lambda point: point[1])
    print(f"best: {best[0]} mean accuracy {best[1]:.2f}")
    print(f"grid: {grid_path}")
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    # Imported here, so the other commands do not pay for loading it.
    from . import selftest

    results = selftest.run_suite(seed=args.seed, cases=args.cases)
    for res in results:
        print(res.line())
    failed = [res for res in results if not res.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def _cmd_synth(args: argparse.Namespace) -> int:
    spec = synth.standard_shift_spec() if args.spec is None else synth.parse_shift_spec(args.spec)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    paths = synth.write_dataset(spec, args.out)
    for name in ("source_features", "source_labels", "target_features", "target_labels", "config"):
        print(f"{name}: {paths[name]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cdem")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run adaptation on one or more tasks")
    _add_common(run)
    run.add_argument("--ablation", action="store_true", help="run every component stage")
    run.add_argument(
        "--with-baseline", action="store_true", help="also run the source-only baseline"
    )
    run.add_argument("--dump", default=None, help="dump per-step matrices to this directory")
    run.set_defaults(func=_cmd_run)

    base = sub.add_parser("baseline", help="source-only prototype classifier")
    _add_common(base)
    base.set_defaults(func=_cmd_baseline)

    grid = sub.add_parser("grid", help="sweep hyperparameters over the standard grid")
    _add_common(grid)
    grid.add_argument(
        "--params", required=True, help="comma list from beta,lambda,gamma,eta,delta"
    )
    grid.set_defaults(func=_cmd_grid)

    self_p = sub.add_parser("selftest", help="run the randomized oracle suite")
    self_p.add_argument("--seed", type=int, default=0)
    self_p.add_argument("--cases", type=int, default=20)
    self_p.set_defaults(func=_cmd_selftest)

    synth_p = sub.add_parser("synth", help="write a synthetic task to disk")
    synth_p.add_argument("--spec", default=None, help="key=value shift spec (default: standard)")
    synth_p.add_argument("--out", required=True, help="output directory")
    synth_p.add_argument("--seed", type=int, default=None, help="override the spec seed")
    synth_p.set_defaults(func=_cmd_synth)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CdemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
