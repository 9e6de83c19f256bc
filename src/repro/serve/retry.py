"""Bounded retries with exponential backoff and deterministic jitter.

The control plane's fault envelope around flaky boundaries — above all
checkpoint-storage writes during :class:`repro.cluster.GlobalStore`
outage windows.  Three properties matter for a reproduction:

* **bounded** — a retry budget, never an infinite loop; when the budget
  is exhausted the *original* error propagates so callers see the real
  cause, not a retry-wrapper exception;
* **backoff + jitter** — exponential delays with multiplicative jitter
  so simultaneous clients do not retry in lockstep (the classic
  thundering-herd fix);
* **deterministic** — jitter comes from :func:`repro.utils.derive_seed`,
  so the same seed produces the same delay sequence and every test and
  drill replays bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.recorder import NULL_RECORDER, Recorder
from repro.utils.seeding import derive_seed

__all__ = ["BackoffPolicy", "backoff_delays", "retry_call"]


@dataclass(frozen=True)
class BackoffPolicy:
    """Retry budget and backoff shape for :func:`retry_call`.

    ``retries`` is the number of attempts *after* the first, so a policy
    with ``retries=3`` makes at most 4 calls.  Delay before retry ``i``
    (0-based) is ``base_delay * factor**i``, capped at ``max_delay``,
    then scaled by a jitter factor drawn uniformly from
    ``[1 - jitter, 1 + jitter]`` using a deterministic stream derived
    from ``seed``.

    >>> policy = BackoffPolicy(retries=3, base_delay=0.5, jitter=0.0)
    >>> backoff_delays(policy)
    [0.5, 1.0, 2.0]
    """

    retries: int = 3
    base_delay: float = 0.05
    factor: float = 2.0
    max_delay: float = 5.0
    jitter: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ConfigurationError("retries must be >= 0")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ConfigurationError("delays must be >= 0")
        if self.factor < 1.0:
            raise ConfigurationError("factor must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ConfigurationError("jitter must be in [0, 1)")


def backoff_delays(policy: BackoffPolicy) -> list[float]:
    """The full (deterministic) delay schedule of a policy, in seconds.

    One entry per retry; entry ``i`` is the sleep before attempt
    ``i + 2``.  Pure function of the policy — the same policy always
    yields the same schedule, which is what makes retry behaviour
    golden-testable.

    >>> a = backoff_delays(BackoffPolicy(retries=4, seed=7))
    >>> b = backoff_delays(BackoffPolicy(retries=4, seed=7))
    >>> a == b                         # same seed, same schedule
    True
    >>> len(a)
    4
    """
    rng = np.random.default_rng(
        derive_seed(policy.seed, "serve", "backoff")
    )
    delays = []
    for i in range(policy.retries):
        raw = min(policy.base_delay * policy.factor ** i, policy.max_delay)
        scale = 1.0
        if policy.jitter > 0.0:
            scale = float(rng.uniform(1.0 - policy.jitter,
                                      1.0 + policy.jitter))
        delays.append(raw * scale)
    return delays


def retry_call(
    fn: Callable[[], object],
    policy: BackoffPolicy | None = None,
    *,
    retry_on: tuple[type[BaseException], ...] = (Exception,),
    sleep: Callable[[float], None] | None = None,
    on_retry: Callable[[int, float, BaseException], None] | None = None,
    recorder: Recorder = NULL_RECORDER,
    name: str = "retry",
) -> object:
    """Call ``fn`` with bounded retries; re-raise the original error.

    Retries only on ``retry_on`` exception types; anything else (and
    budget exhaustion) propagates the exception that actually occurred.
    ``sleep`` defaults to a no-op — the simulated control plane charges
    backoff to its own clock, and tests never really wait — pass
    ``time.sleep`` for wall-clock behaviour.  ``on_retry(attempt,
    delay, error)`` observes each retry (telemetry hooks in).

    Every retry increments the ``{name}_retries`` counter on
    ``recorder`` and an exhausted budget emits ``{name}_exhausted``, so
    backoff behaviour shows up in ``repro obs summary`` without every
    call site writing its own hook.

    >>> calls = []
    >>> def flaky():
    ...     calls.append(1)
    ...     if len(calls) < 3:
    ...         raise OSError("transient")
    ...     return "ok"
    >>> retry_call(flaky, BackoffPolicy(retries=4, jitter=0.0))
    'ok'
    >>> len(calls)
    3
    """
    policy = policy or BackoffPolicy()
    delays = None  # the schedule seeds an RNG: built on the first failure
    for attempt in range(policy.retries + 1):
        try:
            return fn()
        except retry_on as exc:
            if attempt >= policy.retries:
                recorder.instant(f"{name}_exhausted", track="serve")
                raise  # budget exhausted: the original error, unwrapped
            if delays is None:
                delays = backoff_delays(policy)
            delay = delays[attempt]
            recorder.count(f"{name}_retries", track="serve")
            if on_retry is not None:
                on_retry(attempt, delay, exc)
            if sleep is not None:
                sleep(delay)
    raise AssertionError("unreachable")  # pragma: no cover
