"""Probe sessions: a vantage address and its probe accounting.

Every per-/24 measurement, path-dataset trace and ping runs on the
compiled engine and merges its probe counts into a :class:`Prober`, so
that experiments can report measurement loads (a central concern of the
paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from ..netsim.internet import SimulatedInternet

#: Default TTL for plain echo probes (a typical OS default).
ECHO_TTL = 64


@dataclass
class ProbeStats:
    sent: int = 0
    answered: int = 0
    echo_replies: int = 0
    ttl_exceeded: int = 0

    @property
    def timeouts(self) -> int:
        return self.sent - self.answered

    @property
    def loss_rate(self) -> float:
        return self.timeouts / self.sent if self.sent else 0.0

    def merge(self, other: "ProbeStats") -> "ProbeStats":
        """Fold another session's counters into this one. Returns self
        for chaining."""
        self.sent += other.sent
        self.answered += other.answered
        self.echo_replies += other.echo_replies
        self.ttl_exceeded += other.ttl_exceeded
        return self

    def fold_into(self, registry, prefix: str = "probes") -> None:
        """Record these counters into a metrics registry (see
        :mod:`repro.obs.metrics`) under ``prefix`` — the bridge between
        per-session accounting and campaign-wide observability."""
        registry.count(f"{prefix}.sent", self.sent)
        registry.count(f"{prefix}.answered", self.answered)
        registry.count(f"{prefix}.echo_replies", self.echo_replies)
        registry.count(f"{prefix}.ttl_exceeded", self.ttl_exceeded)

    # -- serialization (the on-disk measurement store keeps each /24's
    # -- probe accounting next to its measurement) ------------------------

    def to_dict(self) -> Dict[str, int]:
        return {
            "sent": self.sent,
            "answered": self.answered,
            "echo_replies": self.echo_replies,
            "ttl_exceeded": self.ttl_exceeded,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, int]) -> "ProbeStats":
        return cls(
            sent=int(data["sent"]),
            answered=int(data["answered"]),
            echo_replies=int(data["echo_replies"]),
            ttl_exceeded=int(data["ttl_exceeded"]),
        )


class Prober:
    """A measurement session bound to one simulated Internet."""

    def __init__(
        self,
        internet: SimulatedInternet,
        source: Optional[int] = None,
    ) -> None:
        self.internet = internet
        #: Vantage address the session probes from (None → the
        #: scenario's default vantage). Source-hashing per-destination
        #: balancers resolve differently per vantage (Section 6.1).
        self.source = source
        self.stats = ProbeStats()

    @property
    def probes_sent(self) -> int:
        return self.stats.sent
