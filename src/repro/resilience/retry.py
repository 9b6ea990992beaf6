"""Deterministic exponential-backoff schedules.

Exponential backoff with deterministic, seeded jitter: delay ``i`` is
``min(max_delay, base_delay * 2**i)`` scaled by a jitter factor drawn
uniformly from ``[1 - jitter, 1 + jitter]`` by a :class:`random.Random`
seeded from ``(policy seed, site key)``.  The ``site_key`` — supplied
by the caller, e.g. the breaker's peer address — is what actually prevents thundering herds: every policy
defaults to ``seed=0`` and :meth:`RetryPolicy.delays` re-seeds per
call, so without it all concurrent retries would share one schedule
and herd on the exact same instants.  With it, schedules stay fully
reproducible (same seed, same site, same delays) yet distinct per
site.

The policy only *times* retries; the per-peer circuit breakers of
:mod:`repro.supervision.breaker` draw their cool-downs from it.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional

#: Default number of attempts (1 initial + retries).
DEFAULT_ATTEMPTS = 3


class RetryPolicy:
    """How often and how patiently to retry a transient failure."""

    __slots__ = ("attempts", "base_delay", "max_delay", "jitter", "seed")

    def __init__(
        self,
        attempts: int = DEFAULT_ATTEMPTS,
        base_delay: float = 0.05,
        max_delay: float = 2.0,
        jitter: float = 0.5,
        seed: int = 0,
    ) -> None:
        if attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {attempts!r}")
        if not 0.0 <= jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {jitter!r}")
        self.attempts = attempts
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.jitter = jitter
        self.seed = seed

    def delays(self, site_key: Optional[str] = None) -> Iterator[float]:
        """The backoff delays between attempts (``attempts - 1`` values).

        ``site_key`` names the retrying site (e.g. a peer address); distinct sites get distinct — still fully
        deterministic — jitter, so they never herd.  ``None`` keeps the
        historical seed-only schedule.
        """
        # str seeding hashes via SHA-512: stable across runs/platforms.
        seed = self.seed if site_key is None else f"{self.seed}/{site_key}"
        rng = random.Random(seed)
        for attempt in range(self.attempts - 1):
            raw = min(self.max_delay, self.base_delay * (2 ** attempt))
            scale = 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
            yield raw * scale

    def as_dict(self) -> dict:
        """JSON-ready form."""
        return {name: getattr(self, name) for name in self.__slots__}

    @classmethod
    def from_dict(cls, document: dict) -> "RetryPolicy":
        return cls(**{k: document[k] for k in cls.__slots__ if k in document})

    def schedule(self, site_key: Optional[str] = None) -> List[float]:
        """The full delay schedule as a list (for tests and docs)."""
        return list(self.delays(site_key=site_key))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RetryPolicy(attempts={self.attempts}, "
            f"base_delay={self.base_delay}, max_delay={self.max_delay}, "
            f"jitter={self.jitter}, seed={self.seed})"
        )
