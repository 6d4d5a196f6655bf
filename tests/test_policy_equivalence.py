"""Preset servers replay byte-identically against pre-refactor records.

``SyncServer`` and ``AsyncServer`` are now thin presets over the
composed :class:`~repro.servers.runtime.PolicyServer`;
``tests/data/golden_registry_quick.json`` holds the quick-scale
registry records generated *before* that refactor.  Re-running the
same jobs must reproduce those records exactly — same event order,
same RNG streams, same summaries — or the policy decomposition has
changed simulation behaviour.

The fast tests replay one representative full-system job plus two
short cells of the replicated/policy-override topologies
(``tests/data/golden_topology_cells.json``); the slow one replays the
entire golden set through the parallel engine (the same command that
generated the file).
"""

import json
import os

import pytest

from repro.experiments.record import records_to_json
from repro.experiments.runner import (
    JobConfig,
    execute_job,
    expand_jobs,
    job_id,
    run_jobs,
)

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "data", "golden_registry_quick.json"
)
CELLS_PATH = os.path.join(
    os.path.dirname(__file__), "data", "golden_topology_cells.json"
)

#: short registry cells pinning the replicated build (a hedged
#: 3/3/3 scale-out under a stall triple) and a per-tier policy
#: override (a load-shedding web tier) — fast stand-ins for the
#: full scaleout/policy_matrix records of the slow replay
SHORT_CELLS = [
    JobConfig(name="scaleout", seed=42, duration=17.0,
              params={"variants": ["rpc_hedged"]}),
    JobConfig(name="policy_matrix", seed=42, duration=10.0,
              params={"variants": ["shed_web"]}),
]


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def test_fig03_quick_record_matches_golden(golden):
    """One full 3-tier consolidation run, byte-compared to the record
    written by the pre-refactor Sync/Async server classes."""
    job = JobConfig(name="fig03", seed=42, duration=18.0)
    record = execute_job(job)
    assert record == golden[job_id(job)]


@pytest.mark.parametrize("job", SHORT_CELLS, ids=job_id)
def test_short_topology_cell_matches_golden(job):
    """One replicated / policy-override cell, compared as canonical
    JSON bytes against the record pinned before the topology builders
    were unified."""
    with open(CELLS_PATH) as handle:
        cells = json.load(handle)
    record = execute_job(job)
    assert records_to_json({job_id(job): record}) == records_to_json(
        {job_id(job): cells[job_id(job)]}
    )


@pytest.mark.slow
def test_quick_registry_replays_golden_records_byte_identically(golden):
    """The whole quick registry (every preset composition the figures
    use), regenerated through the parallel engine and compared as the
    canonical JSON bytes the golden file is stored in."""
    names = sorted({record["experiment"] for record in golden.values()})
    jobs = expand_jobs(names=names, quick=True)
    assert {job_id(job) for job in jobs} == set(golden)
    report = run_jobs(jobs, workers=os.cpu_count() or 1,
                      timeout=600, retries=1)
    assert report.ok, report.failures
    with open(GOLDEN_PATH) as handle:
        assert records_to_json(report.records) == handle.read()
