"""The injectable time budget: virtual backoff, one blocker.

This module is the **only** place in ``repro.core`` / ``repro.resilience``
allowed to touch ``time.sleep`` — the RES001 lint rule enforces it.
Everything else expresses waiting as *virtual seconds*: the supervised
runner stores each retry's :func:`backoff_seconds` on its
``SupervisionEvent`` and the report sums them, so a retry schedule is
exact, deterministic and free — tests never sleep.

``block_forever`` is the one sanctioned real blocker — it exists solely
so an injected ``hang`` fault inside a supervised worker really does
hang (and gets killed by the parent watchdog) instead of simulating.
"""

from __future__ import annotations

import time


def backoff_seconds(attempt: int, base_s: float, cap_s: float) -> float:
    """Capped exponential backoff before retry ``attempt + 1``.

    Attempt numbering is 1-based: after the first failed attempt the
    wait is ``base_s``, doubling per subsequent attempt up to ``cap_s``.
    Pure arithmetic — no jitter, no clock — so serial and parallel
    supervised runs charge byte-identical budgets.
    """
    if attempt < 1:
        attempt = 1
    return min(cap_s, base_s * (2.0 ** (attempt - 1)))


def block_forever(poll_s: float = 0.05) -> None:  # pragma: no cover - killed externally
    """Hang the calling process until it is killed.

    Used exclusively by an injected ``hang`` fault inside a supervised
    worker; the parent's watchdog is what ends it.
    """
    while True:
        time.sleep(poll_s)
