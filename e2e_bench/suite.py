"""Parent side: one child process per repetition, then the numbers.

``run`` and ``once`` (untraced) are the only source of end-to-end numbers,
``trace`` the only source of per-layer numbers.  Results are written only
under the output directory; children work in a fresh directory beneath it
(a real filesystem — O_DIRECT silently falls back on tmpfs), removed
afterwards.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median, quantiles
from typing import Any, Dict, List, Optional, Sequence

from e2e_bench import spec
from e2e_bench.spec import Workload

PACKAGE = Path(__file__).resolve().parent
ROOT = PACKAGE.parent
DEFAULT_OUT = PACKAGE / "out"
DEFAULT_SRC = ROOT / "src"
#: A child that has not finished by then is killed (the longest workload
#: repetition takes well under a minute here).
CHILD_TIMEOUT_S = 150


class BenchmarkFailure(RuntimeError):
    """A child crashed, an operation failed or an output was wrong."""


def launch(
    workload: Workload,
    *,
    seed: int,
    trace: bool,
    toy: bool,
    out_dir: Path,
    src: Path = DEFAULT_SRC,
    steps: Optional[int] = None,
    seconds: Optional[float] = None,
) -> Dict[str, Any]:
    """Run one repetition in a fresh child process and return its result."""
    if not (src / "repro").is_dir():
        raise BenchmarkFailure(f"no program to benchmark: {src / 'repro'} is not a directory")
    out_dir.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=out_dir))
    request = {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "toy": toy,
        "steps": steps,
        "seconds": seconds,
        "workdir": str(scratch / "work"),
        "result": str(scratch / "result.json"),
    }
    (scratch / "request.json").write_text(json.dumps(request))
    command = [sys.executable, "-m", "e2e_bench.child", str(scratch / "request.json")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(ROOT)]))
    try:
        try:
            code = subprocess.run(command, cwd=ROOT, env=env, timeout=CHILD_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            raise BenchmarkFailure(f"{workload.name}: child exceeded {CHILD_TIMEOUT_S} s") from None
        result_path = scratch / "result.json"
        if not result_path.exists():
            raise BenchmarkFailure(f"{workload.name}: child exited {code} without a result")
        result = json.loads(result_path.read_text())
        result["launch"] = {"command": command, "src": str(src), "exit_code": code}
        if result.get("chrome_trace"):
            shutil.move(str(scratch / result["chrome_trace"]), out_dir / result["chrome_trace"])
        return result
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def equation_1_bound_s(bytes_per_step: Dict[str, float]) -> float:
    """Least time the throttled tiers need for one step's bytes, both paths busy."""
    read_bw = sum(r for r, _, _ in spec.THROTTLED_TIERS.values())
    write_bw = sum(w for _, w, _ in spec.THROTTLED_TIERS.values())
    return max(bytes_per_step["read"] / read_bw, bytes_per_step["write"] / write_bw)


def _spread(values: Sequence[float]) -> Dict[str, Any]:
    """Quartiles over the repetitions: the run-to-run spread ``compare`` uses.

    With one repetition there is no spread to report; ``n`` says so and
    ``compare`` calls such a row unresolved.
    """
    q1, _, q3 = quantiles(values, n=4) if len(values) >= 2 else (values[0],) * 3
    return {"q1": q1, "q3": q3, "n": len(values)}


def end_to_end(workload: Workload, repetitions: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Median of the per-repetition values, their quartiles and count ``n``,
    and the number of timed samples behind them."""
    per_rep: Dict[str, List[float]] = {}
    samples_behind: Dict[str, int] = {}

    def add(name: str, value: float, samples: int) -> None:
        per_rep.setdefault(name, []).append(value)
        samples_behind[name] = samples_behind.get(name, 0) + samples

    for rep in repetitions:
        samples = rep["step_samples_s"]
        add("setup_s", median(rep["setup_samples_s"]), len(rep["setup_samples_s"]))
        add("step_s", median(samples), len(samples))
        add("step_p80_s", quantiles(samples, n=5)[3], len(samples))
        add("params_per_s", rep["params_per_step"] * len(samples) / sum(samples), len(samples))
        add("peak_rss_mb", rep["peak_rss_mb"], 1)
        if workload.throttled:
            utilization = equation_1_bound_s(rep["bytes_per_step"]) / median(samples)
            add("tier_bw_utilization", utilization, len(samples))
        if workload.checkpoint:
            restores = [r["restore_s"] for r in rep["restores"]]
            add("restore_s", median(restores), len(restores))
    metrics = {
        name: {
            "value": median(values),
            "unit": spec.END_TO_END_BY_NAME[name].unit,
            **_spread(values),
            "samples": samples_behind[name],
            "per_repetition": values,
        }
        for name, values in per_rep.items()
    }
    attempted = sum(rep["ops"]["attempted"] for rep in repetitions)
    failed = sum(rep["ops"]["failed"] for rep in repetitions)
    metrics[spec.FAILED_OPS_SHARE] = {
        "value": failed / attempted, "unit": "ratio", "attempted": attempted, "failed": failed
    }
    return metrics


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_suite(
    workloads: Sequence[Workload],
    *,
    trace: bool,
    seed: int,
    toy: bool,
    out_dir: Path,
    src: Path = DEFAULT_SRC,
    steps: Optional[int] = None,
    seconds: Optional[float] = None,
    repeats: int = spec.REPEATS,
) -> Dict[str, Any]:
    """Run every workload (one child at a time) and write the results file.

    Untraced: ``repeats`` fresh-engine repetitions per workload.  Traced: one
    repetition, whose untraced share supplies the step time the tracing
    overhead is measured against.  A time budget (``seconds``) is split
    evenly over the repetitions.
    """
    results: Dict[str, Any] = {
        "kind": "trace" if trace else "run",
        "created_unix": time.time(),
        "commit": git_commit(),
        "src": str(src),
        "seed": seed,
        "toy": toy,
        "launch_order": [],
        "workloads": {},
    }
    failures: List[str] = []
    for workload in workloads:
        count = 1 if trace else repeats
        default_steps = spec.TRACED_STEPS if trace else workload.steps
        repetitions = []
        for repetition in range(count):
            results["launch_order"].append([workload.name, repetition])
            rep = launch(
                workload,
                seed=seed,
                trace=trace,
                toy=toy,
                out_dir=out_dir,
                src=src,
                steps=None if seconds is not None else (steps or default_steps),
                seconds=None if seconds is None else seconds / count,
            )
            repetitions.append(rep)
            if rep["error"]:
                failures.append(f"{workload.name}: child failed:\n{rep['error']}")
            failed_checks = rep.get("ops", {}).get("failures", [])
            failures += [f"{workload.name}: {what}" for what in failed_checks]
        if failures:
            break
        entry: Dict[str, Any] = {
            "machine": repetitions[0]["machine"],
            "end_to_end": end_to_end(workload, repetitions),
            "repetitions": repetitions,
        }
        if trace:
            entry["layers"] = repetitions[0].pop("layers")
        results["workloads"][workload.name] = entry
    results["failures"] = failures
    out_dir.mkdir(parents=True, exist_ok=True)
    name = "layers.json" if trace else "results.json"
    (out_dir / name).write_text(json.dumps(results, indent=1))
    if failures:
        raise BenchmarkFailure("\n".join(failures))
    return results


def format_end_to_end(results: Dict[str, Any]) -> str:
    """One row per metric: median, quartiles and count of the repetitions,
    timed samples behind them (operations attempted for ``failed_ops_share``)."""
    lines = [
        f"{'workload':<16} {'metric':<20} {'median':>14} {'q1':>14} {'q3':>14} "
        f"{'n':>3} {'samples':>8}  unit"
    ]
    for name, entry in results["workloads"].items():
        reps = len(entry["repetitions"])
        for metric, m in entry["end_to_end"].items():
            q1, q3 = m.get("q1", m["value"]), m.get("q3", m["value"])
            samples = m.get("samples", m.get("attempted"))
            lines.append(
                f"{name:<16} {metric:<20} {m['value']:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                f"{m.get('n', reps):>3} {samples:>8}  {m['unit']}"
            )
    return "\n".join(lines)


def format_layers(results: Dict[str, Any]) -> str:
    names = list(results["workloads"])
    lines = [f"{'layer metric':<42} {'unit':<9}" + "".join(f"{n:>17}" for n in names)]
    for metric in spec.LAYER_METRICS:
        cells = "".join(
            f"{results['workloads'][n]['layers']['metrics'][metric.name]['value']:>17.6g}"
            for n in names
        )
        lines.append(f"{metric.name:<42} {metric.unit:<9}{cells}")
    return "\n".join(lines)
