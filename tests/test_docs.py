"""Documentation sanity checks (no markers, always run with tier-1).

The repo promises a real user-facing README and an architecture guide; this
test keeps them from silently rotting: both files must exist, be non-trivial,
and the README must reference every example script so new examples cannot be
added without documenting them.
"""

from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_readme_exists_and_is_substantial():
    readme = REPO_ROOT / "README.md"
    assert readme.is_file(), "top-level README.md is missing"
    text = readme.read_text(encoding="utf-8")
    assert len(text) > 1000, "README.md looks like a stub"
    assert "quickstart" in text.lower()
    assert "pytest" in text, "README must say how to run the tests"
    assert "e2e_bench compare" in text, "README must say how performance is measured"
    assert "BENCHMARK.json" in text, "README must point at the benchmark declaration"


def test_architecture_guide_exists():
    guide = REPO_ROOT / "docs" / "architecture.md"
    assert guide.is_file(), "docs/architecture.md is missing"
    text = guide.read_text(encoding="utf-8")
    assert len(text) > 1000, "architecture guide looks like a stub"
    for anchor in ("FileStore", "VirtualTier", "load_into", "save_from", "StripedStore"):
        assert anchor in text, f"architecture guide does not mention {anchor}"


def test_architecture_guide_documents_checkpointing():
    text = (REPO_ROOT / "docs" / "architecture.md").read_text(encoding="utf-8")
    for anchor in (
        "repro.ckpt",
        "restore_checkpoint",
        "Commit protocol",
        "Restart sequence",
        "checkpoint_dir",
        "checkpoint_retention",
        "CheckpointSession",
        "ckpt/session.py",
    ):
        assert anchor in text, f"checkpoint data-flow section does not mention {anchor}"


def test_architecture_guide_documents_global_commit():
    text = (REPO_ROOT / "docs" / "architecture.md").read_text(encoding="utf-8")
    for anchor in (
        "repro.ckpt.coordinator",
        "two-phase",
        "prepared.json",
        "GLOBAL-<v>.json",
        "GLOBAL.lock",
        "Torn-commit recovery",
        "checkpoint_coordination",
        "checkpoint_world_size",
    ):
        assert anchor in text, f"global-commit section does not mention {anchor}"


def test_readme_documents_multirank_coordination_and_ci_gate():
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert "checkpoint_coordination" in text
    assert "examples/multirank_checkpoint.py" in text
    assert "tests/integration/test_multirank_checkpoint.py" in text
    assert "check_trajectory.py" in text, "README lacks the sweep regression gate"


def test_readme_documents_checkpointing():
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert "checkpoint/restart" in text.lower(), "README lacks the checkpoint feature bullet"
    assert "examples/checkpoint_restart.py" in text
    assert "tests/integration/test_checkpoint_restart.py" in text


def test_every_example_is_referenced_from_readme():
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    examples = sorted((REPO_ROOT / "examples").glob("*.py"))
    assert examples, "examples/ directory is empty?"
    missing = [e.name for e in examples if f"examples/{e.name}" not in text]
    assert not missing, f"README.md does not reference: {missing}"


def test_readme_documents_registry_service():
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    for anchor in (
        "checkpoint_registry_url",
        "examples/registry_fleet.py",
        "tests/integration/test_registry_trainer.py",
        "repro-registry",
        "registry-smoke",
    ):
        assert anchor in text, f"README registry section does not mention {anchor}"


def test_architecture_guide_documents_registry_service():
    text = (REPO_ROOT / "docs" / "architecture.md").read_text(encoding="utf-8")
    for anchor in (
        "repro.registry",
        "Push protocol",
        "/v1/<tenant>/missing",
        "pull_checkpoint",
        "registry-mid-gc",
        "quarantine",
        "/healthz",
        "verify_blob_file",
    ):
        assert anchor in text, f"registry section does not mention {anchor}"


def test_readme_documents_fault_tolerance():
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    for anchor in (
        "REPRO_IO_FAULT",
        "examples/degraded_path.py",
        "tests/integration/test_io_fault_matrix.py",
        "DegradedReadError",
        "fault-smoke",
    ):
        assert anchor in text, f"README fault-tolerance section does not mention {anchor}"


def test_architecture_guide_documents_fault_tolerance():
    text = (REPO_ROOT / "docs" / "architecture.md").read_text(encoding="utf-8")
    for anchor in (
        "repro.tiers.faultstore",
        "FaultPlan",
        "IORetryPolicy",
        "PathHealth",
        "core/path_health.py",
        "recover_on_path_fatal",
        "degraded_weights",
        "DegradedReadError",
        "path_quarantine_failures",
        "skipped_versions",
        "TruncatedBlobError",
    ):
        assert anchor in text, f"fault-tolerance section does not mention {anchor}"


def test_readme_documents_io_backends():
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    for anchor in (
        "repro.aio.backends",
        "O_DIRECT",
        "auto → odirect → thread",
        "REPRO_IO_BACKEND",
        "BlobStore",
        "tests/integration/test_io_backend_training.py",
        "io-backend-smoke",
        ".[codecs]",
    ):
        assert anchor in text, f"README I/O-backend section does not mention {anchor}"


def test_architecture_guide_documents_io_backends():
    text = (REPO_ROOT / "docs" / "architecture.md").read_text(encoding="utf-8")
    for anchor in (
        "repro.aio.backends",
        "O_DIRECT",
        "AUTO_ORDER",
        "REPRO_IO_BACKEND",
        "IOBackendConfig",
        "StripeConfig",
        "alloc_aligned",
        "bounce buffer",
        "BlobStore",
        "runtime_checkable",
        "CodecError",
    ):
        assert anchor in text, f"I/O-backend section does not mention {anchor}"


def test_readme_documents_sweep_cli():
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    for anchor in (
        "python -m repro.sweep",
        "examples/sweep_matrix.py",
        "SWEEP_weak_scaling.json",
        "SWEEP_engine_smoke.json",
        "--campaign",
        "sweep-smoke",
        "--update-golden",
        "pytest-randomly",
    ):
        assert anchor in text, f"README sweep section does not mention {anchor}"


def test_architecture_guide_documents_sweep_harness():
    text = (REPO_ROOT / "docs" / "architecture.md").read_text(encoding="utf-8")
    for anchor in (
        "repro.sweep",
        "ScenarioMatrix",
        "SweepRunner",
        "content-addressed",
        "cell_key",
        "REPRO_SWEEP_FAULT",
        "five_number_summary",
        "sweep_golden.json",
        "figure_result",
    ):
        assert anchor in text, f"sweep-harness section does not mention {anchor}"
