"""Writer degradation: a transient drain failure pauses, then resumes.

When a background drain fails (here: an update that is invalid against
the live graph), the batch is requeued losslessly and the writer pauses
instead of spinning on it.  Once the queue is repaired, the writer
resumes on its own on a capped exponential backoff — no operator
``clear_error`` call needed.
"""

from __future__ import annotations

import time

import pytest

from repro import SimRankConfig
from repro.graph.generators import erdos_renyi_digraph
from repro.graph.updates import EdgeUpdate
from repro.serving import SimRankService

from _streams import service_config

CFG = SimRankConfig(damping=0.6, iterations=7)


class TestWriterAutoResume:
    def test_transient_error_resumes_with_backoff(self):
        """A transient drain failure requeues the batch and auto-resumes
        on a capped exponential backoff once the queue is repaired."""
        graph = erdos_renyi_digraph(20, 0.1, seed=61)
        service = SimRankService(
            graph,
            service_config(CFG, writer="background", drain_interval=0.001),
        )
        try:
            existing = next(iter(graph.edges()))
            service.submit(EdgeUpdate.insert(*existing))  # invalid: exists
            with pytest.raises(Exception):
                service.flush(timeout=30)
            writer = service.writer
            assert writer.paused
            assert writer.last_error is not None
            assert service.pending == 1  # requeued losslessly
            # Repair the queue: the inverse update cancels the poison
            # insert, so the retried drain is a no-op that succeeds.
            writer.submit(EdgeUpdate.delete(*existing))
            deadline = time.monotonic() + 20
            while writer.paused and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not writer.paused
            assert writer.stats.resume_attempts >= 1
            assert service.flush(timeout=30)
            report = writer.report()
            assert report["resume_attempts"] >= 1
            assert report["writer_paused"] is False
        finally:
            service.stop_background_writer(drain=False)
            service.close()
