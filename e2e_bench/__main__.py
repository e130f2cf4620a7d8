"""Command line of the benchmark (run from the repo root).

    python -m e2e_bench run       [--workload NAME|all] [--seed N] [--steps N] [--repeats N] [--out DIR]
    python -m e2e_bench trace     [--workload NAME|all] [--seed N] [--steps N] [--out DIR]
    python -m e2e_bench compare   A.json B.json
    python -m e2e_bench compare   --pairs N --parent SRC_DIR --change SRC_DIR [--workload ...]
    python -m e2e_bench selfcheck [--workload NAME|all] [--seed N] [--out DIR]
    python -m e2e_bench once      --workload NAME --seed N --seconds S --trace 0|1

``once`` is the command ``BENCHMARK.json`` names: one workload, a time
budget instead of a step count, and one JSON object as the last line of
standard output.  Every command exits non-zero on any failed operation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence

from e2e_bench import compare, spec, suite


def _workloads(name: str, toy: bool) -> List[spec.Workload]:
    names = spec.ALL if name == "all" else (name,)
    return [spec.workload_named(n, toy=toy) for n in names]


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workload", default="all", help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=0, help="seed of the generated inputs")
    parser.add_argument("--out", type=Path, default=suite.DEFAULT_OUT, help="output directory")
    parser.add_argument("--src", type=Path, default=suite.DEFAULT_SRC, help="tree holding repro/")
    parser.add_argument(
        "--toy",
        action="store_true",
        help="1/100 sizes: structure checks only, the numbers mean nothing",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m e2e_bench", description=__doc__.split("\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("run", help="untraced: the only source of end-to-end numbers")
    _add_common(sub)
    sub.add_argument("--steps", type=int, help="timed steps per repetition")
    sub.add_argument(
        "--repeats",
        type=int,
        default=spec.REPEATS,
        help="fresh-engine repetitions per workload (compare calls a single one unresolved)",
    )

    sub = commands.add_parser("trace", help="spans on: the only source of per-layer numbers")
    _add_common(sub)
    sub.add_argument("--steps", type=int, help="traced steps (steps/4 untraced before and after)")

    sub = commands.add_parser("compare", help="two result files, or alternating pairs of two trees")
    sub.add_argument("files", nargs="*", type=Path, help="A.json B.json (results of run)")
    sub.add_argument("--pairs", type=int, help="run this many alternating pairs (at least 10)")
    sub.add_argument("--parent", type=Path, help="parent commit's src directory")
    sub.add_argument("--change", type=Path, help="changed src directory")
    sub.add_argument("--workload", default="all")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", type=Path, default=suite.DEFAULT_OUT)

    sub = commands.add_parser("selfcheck", help="run the suite twice on the same code and compare")
    _add_common(sub)

    sub = commands.add_parser("once", help="the BENCHMARK.json command")
    sub.add_argument("--workload", required=True)
    sub.add_argument("--seed", type=int, required=True)
    sub.add_argument("--seconds", type=float, required=True)
    sub.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser


def cmd_run(args: argparse.Namespace) -> int:
    trace = args.command == "trace"
    results = suite.run_suite(
        _workloads(args.workload, args.toy),
        trace=trace,
        seed=args.seed,
        toy=args.toy,
        out_dir=args.out,
        src=args.src,
        steps=args.steps,
        repeats=1 if trace else args.repeats,
    )
    if trace:
        print(suite.format_layers(results))
        for name, entry in results["workloads"].items():
            print(f"chrome trace of {name}: {args.out / entry['repetitions'][0]['chrome_trace']}")
    else:
        print(suite.format_end_to_end(results))
    print(f"results: {args.out / ('layers.json' if trace else 'results.json')}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    if args.pairs is not None:
        if args.pairs < 10 or args.parent is None or args.change is None:
            raise SystemExit("compare --pairs needs at least 10 pairs, --parent and --change")
        rows = compare.paired(
            _workloads(args.workload, False),
            parent=args.parent,
            change=args.change,
            pairs=args.pairs,
            seed=args.seed,
            out_dir=args.out,
        )
        print(compare.format_paired(rows))
    else:
        if len(args.files) != 2:
            raise SystemExit("compare needs two result files (or --pairs)")
        a, b = (json.loads(path.read_text()) for path in args.files)
        rows = compare.compare_results(a, b)
        print(compare.format_rows(rows))
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


def cmd_selfcheck(args: argparse.Namespace) -> int:
    runs = [
        suite.run_suite(
            _workloads(args.workload, args.toy),
            trace=False,
            seed=args.seed,
            toy=args.toy,
            out_dir=args.out / f"selfcheck_{label}",
            src=args.src,
        )
        for label in ("a", "b")
    ]
    rows = compare.compare_results(*runs)
    print(compare.format_rows(rows))
    disagreeing = compare.selfcheck_rows(rows)
    for row in disagreeing:
        print(f"DISAGREES beyond its bound: {row['workload']} {row['metric']}", file=sys.stderr)
    unresolved = sum(row["verdict"] == "unresolved" for row in rows)
    if unresolved:
        print(f"{unresolved} rows unresolved: a side's repetitions lie wider apart than the bound")
    print("selfcheck: " + ("FAILED" if disagreeing else "passed"))
    return 1 if disagreeing else 0


def once_line(results: Dict[str, Any], workload: str, *, trace: bool) -> Dict[str, Any]:
    """The object ``once`` prints last: the BENCHMARK.json result contract.

    Untraced: the end-to-end metrics every workload has.  Traced: every
    layer metric, after the two end-to-end metrics only some workloads have
    (0 where they do not apply), taken from the traced child's untraced steps.
    """
    entry = results["workloads"][workload]
    measured = entry["end_to_end"]
    metrics: Dict[str, Dict[str, Any]] = {}
    if trace:
        for name in spec.PARTIAL_END_TO_END:
            value = measured[name]["value"] if name in measured else 0.0
            metrics[name] = {"value": value, "unit": spec.END_TO_END_BY_NAME[name].unit}
        metrics.update(entry["layers"]["metrics"])
    else:
        for name in spec.UNIVERSAL_END_TO_END:
            metrics[name] = {"value": measured[name]["value"], "unit": measured[name]["unit"]}
    ops = measured[spec.FAILED_OPS_SHARE]
    return {
        "correct": ops["failed"] == 0,
        "attempted": ops["attempted"],
        "failed": ops["failed"],
        "metrics": metrics,
    }


def cmd_once(args: argparse.Namespace) -> int:
    workload = spec.workload_named(args.workload)
    trace = bool(args.trace)
    # A failed operation or a wrong output raises BenchmarkFailure: non-zero
    # exit, no result line.
    results = suite.run_suite(
        [workload],
        trace=trace,
        seed=args.seed,
        toy=False,
        out_dir=suite.DEFAULT_OUT,
        seconds=args.seconds,
        repeats=workload.once_repeats,
    )
    print(suite.format_layers(results) if trace else suite.format_end_to_end(results))
    print(json.dumps(once_line(results, workload.name, trace=trace)))
    return 0


COMMANDS = {
    "run": cmd_run,
    "trace": cmd_run,
    "compare": cmd_compare,
    "selfcheck": cmd_selfcheck,
    "once": cmd_once,
}


def main(argv: Sequence[str]) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except suite.BenchmarkFailure as failure:
        print(f"FAILED: {failure}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
