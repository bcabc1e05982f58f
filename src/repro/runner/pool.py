"""Process-pool task execution with deterministic, ordered merge.

The experiments this repository reproduces are embarrassingly parallel at
two granularities: *across* runs (seed sweeps, parameter grids) and
*within* the Figure 2 scan (chunks of the domain population).  Both reduce
to the same shape — a pure, module-level function applied to a list of
JSON-able payloads — which :func:`run_tasks` executes either inline or on
a :class:`concurrent.futures.ProcessPoolExecutor`.

Two invariants make parallel runs safe to substitute for serial ones:

* **ordered merge** — results always come back in payload order, no matter
  which worker finished first, so any fold over them is deterministic;
* **pure tasks** — task functions derive all randomness from the payload
  (the ``seed:label`` RNG-splitting scheme), so a payload's result is
  identical in any process.

A :class:`~repro.runner.cache.ResultCache` can be threaded through: cached
payloads are skipped, fresh results are written back (from the coordinator
process only — workers never touch the cache, so there are no concurrent
writers).
"""

from __future__ import annotations

import logging
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Optional, Sequence

from .cache import ResultCache

logger = logging.getLogger(__name__)

TaskFn = Callable[[Dict[str, Any]], Any]

_SENTINEL = object()


class TaskFailure(RuntimeError):
    """A payload failed even after its inline retry.

    Carries the payload ``index`` so a long sweep's error points at the
    exact grid point that died, not just at :func:`run_tasks`.  The
    exception chains from the *first* attempt's error (``__cause__``), so
    the traceback that reaches the user shows where the failure
    originally happened; the retry's error stays reachable as
    :attr:`retry_error`.
    """

    def __init__(
        self,
        index: int,
        cause: BaseException,
        retry_error: Optional[BaseException] = None,
    ) -> None:
        message = f"payload {index} failed twice (original error: {cause!r})"
        if retry_error is not None and repr(retry_error) != repr(cause):
            message += f"; retry raised {retry_error!r}"
        super().__init__(message)
        self.index = index
        self.retry_error = retry_error


#: What a *worker crash* — as opposed to the task's own logic — surfaces
#: at ``Future.result()``: the pool marks itself broken, or the IPC pipe
#: to the dead process fails mid-transfer.  These are environmental, so
#: the payload deserves a clean inline re-run (retry included); anything
#: else is the task's own exception and gets exactly one more attempt.
WORKER_CRASH_ERRORS = (BrokenProcessPool, OSError, EOFError)


def effective_workers(workers: Optional[int]) -> int:
    """Normalize a worker count: ``None``/``0`` means one per CPU."""
    if workers is None or workers == 0:
        return os.cpu_count() or 1
    if workers < 0:
        raise ValueError(f"workers must be non-negative, got {workers}")
    return int(workers)


def _pool_context() -> multiprocessing.context.BaseContext:
    """Prefer fork (cheap start, inherits imports); fall back to spawn."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def run_tasks(
    fn: TaskFn,
    payloads: Sequence[Dict[str, Any]],
    *,
    workers: Optional[int] = 1,
    cache: Optional[ResultCache] = None,
    experiment: Optional[str] = None,
) -> List[Any]:
    """Apply ``fn`` to every payload; results in payload order.

    Parameters
    ----------
    fn:
        A *module-level* function of one JSON-able dict payload (it must
        pickle to cross the process boundary).
    workers:
        ``1`` runs inline (the serial path — same code, same results);
        ``N > 1`` fans uncached payloads over N processes; ``0``/``None``
        uses one worker per CPU.
    cache, experiment:
        When both are given, each payload is looked up under
        ``(experiment, payload)`` first and fresh results are stored back.
        Cached values must therefore be JSON-able.
    """
    payloads = list(payloads)
    if cache is not None and experiment is None:
        raise ValueError("caching requires an experiment name")
    results: List[Any] = [_SENTINEL] * len(payloads)

    pending: List[int] = []
    if cache is not None:
        for index, payload in enumerate(payloads):
            value = cache.get(experiment, payload, default=_SENTINEL)
            if value is _SENTINEL:
                pending.append(index)
            else:
                results[index] = value
    else:
        pending = list(range(len(payloads)))

    count = effective_workers(workers)
    if pending:
        if count <= 1 or len(pending) == 1:
            for index in pending:
                results[index] = _run_one(fn, payloads, index)
        else:
            failed: List[int] = []
            with ProcessPoolExecutor(
                max_workers=min(count, len(pending)),
                mp_context=_pool_context(),
            ) as executor:
                futures = {
                    index: executor.submit(fn, payloads[index])
                    for index in pending
                }
                for index, future in futures.items():
                    try:
                        results[index] = future.result()
                    except WORKER_CRASH_ERRORS as error:
                        # The worker died outright (os._exit, OOM kill):
                        # the pool breaks and every in-flight future fails.
                        # The sweep survives — the payload is re-run
                        # inline below.
                        logger.warning(
                            "worker crashed on payload %d (%r); retrying "
                            "inline",
                            index,
                            error,
                        )
                        failed.append(index)
                    except Exception as error:
                        # The task itself raised.  It may still be flaky
                        # (first-touch initialization races, transient
                        # I/O), so the inline path gives it its retry.
                        logger.warning(
                            "task failed on payload %d (%r); retrying "
                            "inline",
                            index,
                            error,
                        )
                        failed.append(index)
            for index in failed:
                results[index] = _run_one(fn, payloads, index)
        if cache is not None:
            for index in pending:
                cache.put(experiment, payloads[index], results[index])
    return results


def _run_one(fn: TaskFn, payloads: Sequence[Dict[str, Any]], index: int) -> Any:
    """Run one payload inline, retrying once; raise TaskFailure after that.

    The single retry covers transient causes (a crashed worker, an OS-level
    hiccup); a payload that fails twice in this process is deterministic
    breakage and aborts the sweep with its index attached.
    """
    try:
        return fn(payloads[index])
    except Exception as first:
        logger.warning(
            "payload %d raised %r; retrying once", index, first
        )
        try:
            return fn(payloads[index])
        except Exception as second:
            raise TaskFailure(index, first, retry_error=second) from first
