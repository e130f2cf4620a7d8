"""Kill -9 crash matrix against real OS worker processes.

Every cell spawns one subprocess per rank (``repro.ckpt.procrank``), arms a
victim — purely through its environment — to ``SIGKILL`` itself at an exact
protocol phase, then resumes with a fresh, unarmed wave of processes.  The
contract per cell:

* the resume wave restarts every rank from **one** consistent global cut;
* the finished trajectory is **bitwise-equal** to an uninterrupted run
  (the world-size-invariant single-rank reference);
* no ``DRAIN-*.lease`` or ``GLOBAL.lock`` survives the job.

The deterministic matrix covers every phase with a representative victim
(including the elected promoter, by arming every rank for promoter-side
phases), one cell whose resume wave is narrower than the crashed job, and an
unarmed wave as the no-fault baseline.  On top of it, a seed-driven random campaign samples (phase ×
victim × crash version) cells — a bounded sample on every CI run, the full
space behind the ``fault_campaign`` marker plus ``REPRO_FULL_FAULT_SWEEP=1``.
"""

from __future__ import annotations

import itertools
import os
import random

import numpy as np
import pytest

from repro.ckpt.faults import COORDINATOR_PHASES
from repro.ckpt.procrank import (
    WorldSpec,
    collect_results,
    leaked_sentinels,
    reference_state,
    run_crash_scenario,
    run_world,
)

WORLD = 3
ITERATIONS = 3
CAMPAIGN_SEED = 20250807
#: Cells sampled by the random campaign on an ordinary test run.
CAMPAIGN_SAMPLE = 2


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """The uninterrupted trajectory — identical for every world size."""
    spec = WorldSpec(workdir=str(tmp_path_factory.mktemp("reference")))
    return reference_state(spec, ITERATIONS)


def run_cell(tmp_path, reference, *, phase, victim, version, resume_world=None, **spec_kw):
    spec = WorldSpec(
        workdir=str(tmp_path), world_size=WORLD, iterations=ITERATIONS, **spec_kw
    )
    out = run_crash_scenario(
        spec, phase=phase, victim=victim, version=version,
        resume_world_size=resume_world,
    )
    ref_fp16, ref_master = reference
    assert np.array_equal(out["fp16"], ref_fp16), (
        f"{phase}@{version} victim={victim}: FP16 params diverged after resume"
    )
    assert np.array_equal(out["master"], ref_master), (
        f"{phase}@{version} victim={victim}: FP32 master state diverged"
    )
    assert leaked_sentinels(spec) == [], "leases or election locks leaked"
    return out


@pytest.mark.parametrize("phase", COORDINATOR_PHASES)
def test_sigkill_at_each_protocol_phase(tmp_path, reference, phase):
    """One representative victim per phase; promoter phases arm every rank,
    so whichever process actually wins the election is the one that dies.
    Pinned to the framed codec, so a kill mid-drain lands among codec
    frames; the other cells run the default plain blobs."""
    run_cell(
        tmp_path, reference, phase=phase, victim=1, version=2,
        checkpoint_codec="shuffle-deflate",
    )


def test_sigkill_of_every_rank_at_the_publish_boundary(tmp_path, reference):
    """Any single rank's death at the pre/post-publish boundary recovers —
    the surviving ranks' later versions are discarded or rolled forward as
    the protocol dictates, never mixed."""
    for victim in range(WORLD):
        phase = "pre-publish" if victim % 2 == 0 else "post-publish"
        run_cell(
            tmp_path / f"victim{victim}", reference,
            phase=phase, victim=victim, version=2,
        )


def test_uninterrupted_real_process_world_matches_reference(tmp_path, reference):
    """Without a fault, a wave of real processes checkpointing every step
    gathers to the single-rank reference and leaves no sentinel behind."""
    spec = WorldSpec(workdir=str(tmp_path), world_size=WORLD, iterations=ITERATIONS)
    assert run_world(spec, WORLD) == [0] * WORLD
    fp16, master = collect_results(spec, WORLD)
    ref_fp16, ref_master = reference
    assert np.array_equal(fp16, ref_fp16)
    assert np.array_equal(master, ref_master)
    assert leaked_sentinels(spec) == []


def test_sigkill_then_elastic_resume_two_wide(tmp_path, reference):
    """A 3-rank job killed at the publish boundary resumes 2-wide: the
    survivors re-partition the global cut and finish bitwise."""
    run_cell(
        tmp_path, reference, phase="post-publish", victim=0, version=2, resume_world=2
    )


def _campaign_cells():
    versions = range(1, ITERATIONS + 1)
    return list(itertools.product(COORDINATOR_PHASES, range(WORLD), versions))


def test_randomized_fault_campaign_sample(tmp_path, reference):
    """A seed-driven sample of the (phase × victim × version) space; the
    seed is fixed so a failure reproduces, and the full sweep lives behind
    the ``fault_campaign`` marker."""
    cells = _campaign_cells()
    picked = random.Random(CAMPAIGN_SEED).sample(cells, CAMPAIGN_SAMPLE)
    for phase, victim, version in picked:
        run_cell(
            tmp_path / f"{phase}-r{victim}-v{version}", reference,
            phase=phase, victim=victim, version=version,
        )


@pytest.mark.fault_campaign
@pytest.mark.skipif(
    os.environ.get("REPRO_FULL_FAULT_SWEEP") != "1",
    reason="full kill-matrix sweep only with REPRO_FULL_FAULT_SWEEP=1",
)
def test_randomized_fault_campaign_full_sweep(tmp_path, reference):
    cells = _campaign_cells()
    random.Random(CAMPAIGN_SEED).shuffle(cells)
    for phase, victim, version in cells:
        run_cell(
            tmp_path / f"{phase}-r{victim}-v{version}", reference,
            phase=phase, victim=victim, version=version,
        )
