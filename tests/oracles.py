"""Reference implementations the property tests compare ``src/`` against.

:func:`full_scan` is a causal protocol whose piggyback build scans every
held sequence instead of the dirty-creator worklist;
``tests/test_worklist_properties.py`` checks the worklist against it.  It
is not reachable from a :class:`~repro.runtime.config.ClusterConfig`: a
test oracle, kept as small and as obviously right as possible.
"""

from __future__ import annotations


def full_scan(cls):
    """``cls`` with the worklist replaced by every registered creator, in
    sequence-creation order — the scan the worklist is a restriction of."""

    class FullScan(cls):
        __slots__ = ()

        def _build_candidates(self, dst, growth):
            self.probes.pb_build_seqs_scanned += len(growth.by_index)
            return list(growth.by_index)

    return FullScan
