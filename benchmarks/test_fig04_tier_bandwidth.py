"""Figure 4: raw SSD vs PFS bandwidth and per-process latency under concurrency."""

from repro.bench import experiments
from repro.tiers.spec import TESTBED_1
from repro.util.bytesize import GB


def test_fig04_tier_bandwidth(benchmark, show):
    result = benchmark(experiments.fig4_tier_bandwidth)
    show(result)
    nvme_1 = result.row_for(tier="nvme", processes=1)
    nvme_4 = result.row_for(tier="nvme", processes=4)
    # Table 1 shape: the local NVMe out-reads the VAST PFS on Testbed-1.  The
    # throttle rates are the modelled quantity; the measured rows add real
    # page-cache time on top, which a single run cannot order reliably.
    nvme, pfs = TESTBED_1.storage["nvme"], TESTBED_1.storage["pfs"]
    assert nvme.read_bw > pfs.read_bw and nvme.effective_bw > pfs.effective_bw
    assert 0.0 < nvme_1["read_gbps"] <= nvme.read_bw / GB
    assert 0.0 < result.row_for(tier="pfs", processes=1)["read_gbps"] <= pfs.read_bw / GB
    # Aggregate throughput stays flat while per-process latency grows ~linearly.
    assert nvme_4["read_gbps"] == nvme_1["read_gbps"]
    assert nvme_4["read_latency_s_per_gb"] > 3.0 * nvme_1["read_latency_s_per_gb"]
    # §3.2: FP16→FP32 CPU conversion is an order of magnitude faster than any tier.
    cpu = result.row_for(tier="cpu_fp16_to_fp32", processes=1)
    assert cpu["read_gbps"] > 5.0 * nvme_1["read_gbps"]
