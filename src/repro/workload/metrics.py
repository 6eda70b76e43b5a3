"""Workload outcome digests: what makes two runs bit-comparable.

The sharded driver partitions users across workers, so the run digest
must not depend on the partition: each user's outcome stream folds to
one sha256, and the run digest is the XOR of all of them.  The run's
counters and latency histograms live in its
:class:`~repro.obs.registry.MetricsRegistry`
(:attr:`repro.workload.driver.WorkloadResult.registry`).

:class:`~repro.obs.registry.LatencyHistogram` is re-exported from here
only for callers that still import it by this path.
"""

from __future__ import annotations

from repro import sha256
from repro.obs.registry import LatencyHistogram

__all__ = ["LatencyHistogram", "combine_digests", "digest_hex",
           "user_digest"]


def user_digest(user_id: int, outcomes: list[str]) -> int:
    """One user's outcome stream folded to a 256-bit integer."""
    payload = f"{user_id}|" + "\x1f".join(outcomes)
    return int.from_bytes(sha256(payload.encode("utf-8")).digest(),
                          "big")


def combine_digests(digests: list[int]) -> int:
    """Order-independent combination (XOR) of user/shard digests."""
    combined = 0
    for digest in digests:
        combined ^= digest
    return combined


def digest_hex(digest: int) -> str:
    """A digest integer rendered as 64 hex characters."""
    return f"{digest:064x}"
