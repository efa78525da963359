"""ICMP semantics: default TTLs and rate limiting.

This module implements the two pieces of ICMP realism the paper had to
fight:

* **Default TTLs** — hosts initialise the TTL field of their Echo Reply
  from an OS-dependent default (64, 128 or 255 are commonplace; the
  paper's inference in Section 3.4 buckets the observed value into
  64/128/192/255). Some hosts use customised values, which makes the
  inference wrong and exercises Hobbit's halving fallback.
* **Rate limiting** — routers throttle ICMP generation with a token
  bucket, so heavy probing produces ``*`` hops even from routers that
  do respond.
"""

from __future__ import annotations


def infer_default_ttl(observed_ttl: int) -> int:
    """Bucket an observed reply TTL into an assumed default (Section 3.4).

    <64 → 64; 64..127 → 128; 128..191 → 192; ≥192 → 255.
    """
    if observed_ttl < 0 or observed_ttl > 255:
        raise ValueError(f"TTL {observed_ttl} outside [0, 255]")
    if observed_ttl < 64:
        return 64
    if observed_ttl < 128:
        return 128
    if observed_ttl < 192:
        return 192
    return 255


def infer_hop_count(observed_ttl: int) -> int:
    """Reverse-path hop count implied by an Echo Reply's TTL (Section 3.4).

    The inference assumes the reverse path length equals the forward one;
    the simulator can violate that assumption (asymmetric paths), which
    is exactly the inaccuracy the paper's halving fallback handles.
    """
    return infer_default_ttl(observed_ttl) - observed_ttl


class RateLimiter:
    """Token-bucket ICMP rate limiter driven by the simulator clock.

    ``capacity`` tokens, refilled at ``rate_per_second``. Each reply
    consumes one token; an empty bucket means the probe times out.
    """

    def __init__(self, capacity: float, rate_per_second: float) -> None:
        if capacity <= 0 or rate_per_second <= 0:
            raise ValueError("capacity and rate must be positive")
        self.capacity = float(capacity)
        self.rate_per_second = float(rate_per_second)
        self._tokens = float(capacity)
        self._last_time = 0.0

    def allow(self, now_seconds: float, scale: float = 1.0) -> bool:
        """Consume a token at time ``now_seconds``; False if exhausted.

        ``scale`` temporarily multiplies both capacity and refill rate
        (rate-limit storms shrink it below 1.0). The ``scale == 1.0``
        path is arithmetic-for-arithmetic the pre-storm code, so
        storm-free runs stay bit-identical."""
        capacity = self.capacity
        rate = self.rate_per_second
        if scale != 1.0:
            capacity = capacity * scale
            rate = rate * scale
            if self._tokens > capacity:
                self._tokens = capacity
        if now_seconds > self._last_time:
            elapsed = now_seconds - self._last_time
            self._tokens = min(capacity, self._tokens + elapsed * rate)
            self._last_time = now_seconds
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    def reset(self) -> None:
        self._tokens = self.capacity
        self._last_time = 0.0
