"""The paper's tables and figures that are not a :mod:`repro.sweep` matrix.

Each function runs the relevant simulation (or microbenchmark) and returns
an :class:`~repro.bench.harness.ExperimentResult` whose rows carry the same
series the paper plots.  The simulated figure families (Figures 7–9 and
11–15) are scenario matrices tabulated by
:func:`repro.sweep.results.figure_result`.  The benchmark files under
``benchmarks/`` print the rows and assert the qualitative shape.
Wall-clock measurements of the functional engine live in ``e2e_bench``.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.aio.microbench import measure_store_bandwidth
from repro.aio.throttle import BandwidthThrottle
from repro.bench.harness import ExperimentResult
from repro.sim.iteration import IterationModel, simulate_iteration
from repro.sim.workload import EngineKnobs, build_workload
from repro.sim.pipeline import simulate_update_phase
from repro.sweep.matrix import matrix_by_name
from repro.sweep.runner import run_sim_cell
from repro.tiers.file_store import FileStore
from repro.tiers.spec import TESTBED_1, NodeSpec
from repro.train.model_zoo import MODEL_ZOO, TABLE2_NAMES, model_by_name
from repro.train.parallelism import ParallelTopology
from repro.util.bytesize import GB


# ---------------------------------------------------------------------------
# Figure 1 — model size vs GPU memory growth (motivation)
# ---------------------------------------------------------------------------

#: Published model sizes (billions of parameters) by release year.
_MODEL_GROWTH = (
    ("GPT-1", 2018, 0.117),
    ("Megatron", 2019, 8.3),
    ("T-NLG", 2020, 17.0),
    ("GPT-3", 2020, 175.0),
    ("Switch-T", 2021, 1600.0),
    ("PaLM", 2022, 540.0),
    ("GPT-4 (est.)", 2023, 1800.0),
)
#: GPU memory (GB) by release year.
_GPU_GROWTH = (
    ("V100", 2018, 32),
    ("A100-40", 2020, 40),
    ("A100-80", 2021, 80),
    ("H100", 2022, 80),
    ("H100e", 2023, 96),
    ("H200", 2024, 140),
)


def fig1_memory_wall() -> ExperimentResult:
    """Figure 1: transformer sizes grow ~450×/2yrs vs GPU memory ~2×/2yrs."""
    result = ExperimentResult(
        experiment="fig1",
        description="Model vs GPU memory growth (motivation)",
    )
    for name, year, billions in _MODEL_GROWTH:
        result.add_row(series="model", name=name, year=year, value=billions)
    for name, year, gigabytes in _GPU_GROWTH:
        result.add_row(series="gpu", name=name, year=year, value=float(gigabytes))

    def growth_per_2yr(points: Sequence[Tuple[str, int, float]]) -> float:
        years = np.array([p[1] for p in points], dtype=float)
        values = np.log(np.array([p[2] for p in points], dtype=float))
        slope = np.polyfit(years, values, 1)[0]
        return float(np.exp(2.0 * slope))

    model_growth = growth_per_2yr(_MODEL_GROWTH)
    gpu_growth = growth_per_2yr(_GPU_GROWTH)
    result.add_note(f"model growth per 2 years ≈ {model_growth:.0f}x (paper: ~450x)")
    result.add_note(f"GPU memory growth per 2 years ≈ {gpu_growth:.1f}x (paper: ~2x)")
    result.add_row(series="growth", name="model_per_2yr", year=0, value=model_growth)
    result.add_row(series="growth", name="gpu_per_2yr", year=0, value=gpu_growth)
    return result


# ---------------------------------------------------------------------------
# Table 2 — model geometries
# ---------------------------------------------------------------------------

def table2_model_zoo() -> ExperimentResult:
    """Table 2: the evaluated model geometries and their derived sizes."""
    result = ExperimentResult(
        experiment="table2",
        description="Models used for evaluations (N_L, D_H, A_H)",
    )
    for name in TABLE2_NAMES:
        model = MODEL_ZOO[name]
        result.add_row(
            model=name,
            num_layers=model.num_layers,
            hidden_dim=model.hidden_dim,
            attention_heads=model.num_heads,
            params_billion=round(model.total_params_billions, 1),
            optimizer_state_gb=round(model.optimizer_state_bytes / GB, 0),
        )
    return result


# ---------------------------------------------------------------------------
# Figure 3 — fraction of update time in disk I/O (gap analysis)
# ---------------------------------------------------------------------------

def fig3_update_io_fraction(node: NodeSpec = TESTBED_1) -> ExperimentResult:
    """Figure 3: % of the update phase spent in disk I/O, 20B (CPU) vs 20B–120B (SSD)."""
    result = ExperimentResult(
        experiment="fig3",
        description="Fraction of time spent in disk I/O during the update phase",
    )
    # 20B with the optimizer state fully resident in host memory: no disk I/O.
    cpu_model = model_by_name("20B")
    topology = ParallelTopology.single_node(node.gpus_per_node)
    cpu_update_seconds = topology.params_per_rank(cpu_model) * topology.workers_per_node / node.cpu_update_throughput
    result.add_row(
        model="20B (CPU)",
        update_seconds=cpu_update_seconds,
        io_seconds=0.0,
        compute_seconds=cpu_update_seconds,
        io_fraction=0.0,
    )
    for name in ("20B", "40B", "70B", "120B"):
        model = model_by_name(name)
        workload = build_workload(model, node, EngineKnobs.zero3_baseline(), topology=topology)
        update = simulate_update_phase(workload)
        result.add_row(
            model=f"{name} (SSD)",
            update_seconds=update.wall_seconds,
            io_seconds=update.wall_seconds - min(update.compute_seconds, update.wall_seconds),
            compute_seconds=update.compute_seconds,
            io_fraction=update.io_fraction,
        )
    result.add_note("paper: SSD-offloaded updates spend ~99% of their time in disk I/O")
    result.add_note("paper: the in-memory 20B update is ~30x faster than SSD-offloaded updates")
    return result


# ---------------------------------------------------------------------------
# Figure 4 — raw tier bandwidth under concurrency (microbenchmark)
# ---------------------------------------------------------------------------

def fig4_tier_bandwidth(
    node: NodeSpec = TESTBED_1,
    *,
    concurrency_levels: Sequence[int] = (1, 2, 4),
    workdir: Optional[Path] = None,
    block_bytes: int = 1 << 20,
) -> ExperimentResult:
    """Figure 4: SSD vs PFS read/write throughput and per-process latency vs #procs.

    Runs the *functional* microbenchmark against throttled file stores whose
    bandwidth matches Table 1, then derives the concurrent-process behaviour
    from the contention model: aggregate throughput stays roughly flat while
    per-process latency grows with the process count.  Without a ``workdir``
    the stores live in a temporary directory removed before returning.
    """
    if workdir is None:
        with tempfile.TemporaryDirectory(prefix="repro-fig4-") as scratch:
            return fig4_tier_bandwidth(
                node,
                concurrency_levels=concurrency_levels,
                workdir=Path(scratch),
                block_bytes=block_bytes,
            )
    result = ExperimentResult(
        experiment="fig4",
        description="I/O bandwidth of SSD (local) vs parallel file system (remote)",
    )
    for tier_name, tier in node.storage.items():
        store = FileStore(
            Path(workdir) / tier_name,
            name=tier_name,
            throttle=BandwidthThrottle(tier.effective_bw, simulate=True),
        )
        micro = measure_store_bandwidth(store, block_bytes=block_bytes, iterations=2)
        for procs in concurrency_levels:
            # Aggregate throughput is roughly flat under contention; the
            # per-process latency grows with the process count (Figure 4).
            aggregate_read = min(micro.read_bw, tier.read_bw)
            aggregate_write = min(micro.write_bw, tier.write_bw)
            result.add_row(
                tier=tier_name,
                processes=procs,
                read_gbps=aggregate_read / GB,
                write_gbps=aggregate_write / GB,
                read_latency_s_per_gb=procs * GB / aggregate_read,
                write_latency_s_per_gb=procs * GB / aggregate_write,
            )
    # FP16→FP32 conversion throughput series (§3.2): an order of magnitude
    # above the tier fetch bandwidth.
    result.add_row(
        tier="cpu_fp16_to_fp32",
        processes=1,
        read_gbps=node.fp16_to_fp32_bw / GB,
        write_gbps=node.fp16_to_fp32_bw / GB,
        read_latency_s_per_gb=GB / node.fp16_to_fp32_bw,
        write_latency_s_per_gb=GB / node.fp16_to_fp32_bw,
    )
    result.add_note("aggregate throughput stays flat; per-process latency grows with contention")
    return result


# ---------------------------------------------------------------------------
# Figure 5 — effective per-subgroup throughput under concurrency
# ---------------------------------------------------------------------------

def fig5_subgroup_throughput(node: NodeSpec = TESTBED_1, model_name: str = "40B") -> ExperimentResult:
    """Figure 5: effective per-subgroup read/write throughput for the 40B baseline."""
    result = ExperimentResult(
        experiment="fig5",
        description="Effective read/write throughput per subgroup (40B, NVMe offload)",
    )
    model = model_by_name(model_name)
    workload = build_workload(model, node, EngineKnobs.zero3_baseline())
    update = simulate_update_phase(workload)
    mean_read = (
        update.fetch_bytes / update.fetch_seconds if update.fetch_seconds > 0 else 0.0
    )
    mean_write = (
        update.flush_bytes / update.flush_seconds if update.flush_seconds > 0 else 0.0
    )
    for subgroup in range(workload.subgroups_per_worker):
        # The oscillation of Figure 5 comes from prefetch bursts racing the
        # slower flush-back; reproduce the sawtooth around the means.
        phase = (subgroup % 4) / 4.0
        result.add_row(
            subgroup=subgroup,
            read_gbps=(mean_read * (0.8 + 0.5 * phase)) / GB,
            write_gbps=(mean_write * (0.9 + 0.2 * phase)) / GB,
        )
    result.add_row(
        subgroup=-1,
        read_gbps=mean_read / GB,
        write_gbps=mean_write / GB,
    )
    result.add_note(
        f"mean per-subgroup read {mean_read / GB:.2f} GB/s, write {mean_write / GB:.2f} GB/s "
        "(paper: 3.68 / 1.44 GB/s; write bandwidth is the bottleneck)"
    )
    return result


# ---------------------------------------------------------------------------
# Figure 10 — tier distribution (Figures 7-9 and 11-15 are repro.sweep matrices)
# ---------------------------------------------------------------------------

def fig10_tier_distribution(
    model_names: Optional[Sequence[str]] = None, node: NodeSpec = TESTBED_1
) -> ExperimentResult:
    """Figure 10: distribution of optimizer state across host memory, NVMe and PFS.

    ``model_names`` defaults to the ``model_size`` matrix's ``model`` axis.
    """
    result = ExperimentResult(
        experiment="fig10",
        description="Distribution of optimizer states across different tiers",
    )
    if model_names is None:
        model_names = next(a.values for a in matrix_by_name("model_size").axes if a.name == "model")
    for name in model_names:
        model = model_by_name(name)
        res = simulate_iteration(
            IterationModel(model=model, node=node, knobs=EngineKnobs.mlp_offload(), label="MLP-Offload")
        )
        dist = res.tier_distribution_bytes
        total = sum(dist.values()) or 1.0
        row = {"model": name}
        for tier, nbytes in sorted(dist.items()):
            row[f"{tier}_gb"] = nbytes / GB
            row[f"{tier}_pct"] = 100.0 * nbytes / total
        result.add_row(**row)
    result.add_note("paper: roughly 2:1 NVMe:PFS split, matching the Table 1 bandwidth ratio")
    return result


# ---------------------------------------------------------------------------
# §4.4 — cost effectiveness of offloaded vs GPU-only training
# ---------------------------------------------------------------------------

def cost_effectiveness_70b() -> ExperimentResult:
    """§4.4: 70B trained on 8 GPUs with offloading vs ~80 GPUs without.

    The paper quotes 24 s/iteration for GPU-only training of the 70B model on
    ~80 A100s; offloaded training on 8 GPUs is 7× slower with ZeRO-3 but only
    ~5× slower with MLP-Offload, i.e. ~2× better cost effectiveness.  The
    offloaded rows are the ``weak_scaling`` matrix's two ``70B@2`` cells.
    """
    result = ExperimentResult(
        experiment="cost-effectiveness",
        description="70B model: offloaded training on 8 GPUs vs GPU-only on ~80 GPUs",
    )
    gpu_only_seconds = 24.0
    gpu_only_gpus = 80
    for cell in matrix_by_name("weak_scaling").cells(include={"config": ["70B@2"]}):
        metrics = run_sim_cell(cell)
        slowdown = metrics["iteration_s"] / gpu_only_seconds
        gpu_ratio = gpu_only_gpus / metrics["num_gpus"]
        result.add_row(
            engine=cell["engine"],
            num_gpus=metrics["num_gpus"],
            iteration_s=metrics["iteration_s"],
            slowdown_vs_gpu_only=slowdown,
            gpu_reduction=gpu_ratio,
            cost_effectiveness=gpu_ratio / slowdown,
        )
    result.add_row(
        engine="GPU-only (paper)",
        num_gpus=gpu_only_gpus,
        iteration_s=gpu_only_seconds,
        slowdown_vs_gpu_only=1.0,
        gpu_reduction=1.0,
        cost_effectiveness=1.0,
    )
    result.add_note("paper: ZeRO-3 is ~7x slower, MLP-Offload ~4.8x slower, on 10x fewer GPUs")
    return result
