"""Ordered spawn-pool sweeps: the Table-I (rack, policy) grid, the chaos
trials and the matched platform variants all run through :func:`run_jobs`.

Design constraints (DESIGN.md "Performance architecture"):

* **Spawn-safe** — the pool always uses the ``spawn`` start method (the
  only one portable across platforms and safe with threaded parents),
  so every job function is module-level and every payload pickles.
* **Ordered, windowed FIFO** — at most ``max_inflight`` submitted,
  unyielded jobs, and the driver always waits on the oldest: results
  come back in payload order, so consumers fold floats in the serial
  order at any worker count, and payloads are read lazily, never more
  than the window ahead of the consumer.
* **Fail fast** — a worker exception (or the consumer abandoning the
  stream) cancels every queued job (``cancel_futures``) instead of
  letting the rest of the sweep run to completion.
* ``workers=1`` runs the same job function in-process — no pool, no
  pickling — which is the serial path the byte-identity tests compare
  against.

The Table-I sweep ships :class:`RackSpec` recipes (fleet config + rack
index, ~100 bytes on the wire): :func:`_run_job` regenerates the rack's
trace from its spawned seed stream
(:func:`repro.traces.synthetic.generate_fleet_rack`), byte-identical to
the driver materializing it, and a one-slot cache shares the expanded
rack across that rack's policies.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import get_context
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterable,
    Iterator,
    Optional,
    Sequence,
    TypeVar,
)

from repro.traces.schema import RackTrace
from repro.traces.synthetic import FleetConfig, generate_fleet_rack

if TYPE_CHECKING:
    from repro.experiments.largescale import RackFrame, RackSimResult

__all__ = [
    "RackSpec",
    "resolve_workers",
    "iter_rack_policy_results",
    "run_jobs",
]

_P = TypeVar("_P")
_R = TypeVar("_R")


@dataclass(frozen=True)
class RackSpec:
    """Recipe for one rack: everything a worker needs to regenerate its
    trace locally, instead of receiving the arrays over a pipe."""

    config: FleetConfig
    rack_index: int

    def materialize(self) -> RackTrace:
        """Expand to the rack's trace — byte-identical wherever run."""
        return generate_fleet_rack(self.config, self.rack_index)


#: Frame of the most recently expanded rack, keyed by its spec:
#: consecutive policies of one rack usually run in the same process (jobs
#: are submitted rack-major), so the trace is regenerated — and each of
#: its weeks fitted — once, not once per policy.
_WORKER_RACK_CACHE: "Optional[tuple[RackSpec, RackFrame]]" = None


def _expand(spec: RackSpec) -> "RackFrame":
    """The spec's frame, from the one-slot per-process cache."""
    global _WORKER_RACK_CACHE
    from repro.experiments.largescale import RackFrame

    if _WORKER_RACK_CACHE is not None and _WORKER_RACK_CACHE[0] == spec:
        return _WORKER_RACK_CACHE[1]
    # Release the previous rack before expanding the next, so a process
    # never holds two.
    _WORKER_RACK_CACHE = None
    frame = RackFrame(spec.materialize())
    _WORKER_RACK_CACHE = (spec, frame)
    return frame


def _run_job(job: "tuple[RackSpec, str]") -> "RackSimResult":
    # Module-level so the spawn start method can pickle it by reference.
    from repro.core.policies import make_policy
    from repro.experiments.largescale import simulate_rack

    spec, policy_name = job
    frame = _expand(spec)
    return simulate_rack(frame, make_policy(policy_name, frame.n_servers))


def resolve_workers(workers: Optional[int]) -> int:
    """``None`` → usable CPUs; explicit values must be >= 1.

    "Usable" honors the scheduler affinity mask
    (``os.sched_getaffinity``): in cgroup/cpuset-limited CI containers
    ``os.cpu_count()`` reports the host's cores and would oversubscribe
    the pool.  Platforms without affinity fall back to ``cpu_count``.
    """
    if workers is None:
        try:
            return max(1, len(os.sched_getaffinity(0)))
        except (AttributeError, OSError):
            return max(1, os.cpu_count() or 1)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


def run_jobs(fn: "Callable[[_P], _R]", payloads: "Iterable[_P]", *,
             workers: Optional[int] = 1,
             max_inflight: Optional[int] = None) -> "Iterator[_R]":
    """Yield ``fn(payload)`` for every payload, in payload order.

    ``workers=1`` runs ``fn`` in-process.  Otherwise a spawn pool runs
    it — ``fn`` must be a module-level function and every payload must
    pickle — keeping at most ``max_inflight`` (default 4 × workers)
    submitted, unyielded jobs in a FIFO and always waiting on the
    oldest.  ``payloads`` is read lazily: by the time the k-th result is
    yielded, at most ``k - 1 + max_inflight`` payloads have been read,
    so a lazy payload stream keeps driver memory bounded.  A worker
    exception, or the consumer closing the stream, cancels everything
    still queued.
    """
    n_workers = resolve_workers(workers)
    window = 4 * n_workers if max_inflight is None else max_inflight
    if window < 1:
        raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
    if n_workers == 1:
        for payload in payloads:
            yield fn(payload)
        return
    with ProcessPoolExecutor(max_workers=n_workers,
                             mp_context=get_context("spawn")) as pool:
        pending: "deque[Future[_R]]" = deque()
        try:
            for payload in payloads:
                pending.append(pool.submit(fn, payload))
                if len(pending) == window:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()
        except BaseException:
            for future in pending:
                future.cancel()
            pool.shutdown(wait=False, cancel_futures=True)
            raise


def iter_rack_policy_results(
        specs: Iterable[RackSpec], policy_names: Sequence[str], *,
        workers: Optional[int] = 1, max_inflight: Optional[int] = None,
) -> "Iterator[tuple[int, str, RackSimResult]]":
    """Simulate the (rack, policy) grid rack-major, yielding
    ``(rack_slot, policy_name, result)`` in that order.

    ``specs`` may be a lazy iterable: :func:`run_jobs` reads it no
    further than the in-flight window ahead of the consumer, so driver
    memory stays bounded while the fleet scales, and consumers fold
    floats in the same order at any worker count.
    """
    names = tuple(policy_names)
    if not names:
        raise ValueError("need at least one policy name")
    jobs = ((spec, name) for spec in specs for name in names)
    for slot, result in enumerate(run_jobs(_run_job, jobs, workers=workers,
                                           max_inflight=max_inflight)):
        rack_slot, j = divmod(slot, len(names))
        yield rack_slot, names[j], result
