"""Health and SLO evaluation for the serve daemon.

The ``stats`` frame is raw material; an operator (or an orchestrator's
liveness probe) wants a *verdict*: is this daemon ok, degraded, or
unhealthy?  :func:`compute_health` folds the daemon's live signals into
exactly that — a worst-of verdict over named checks, each with its own
status and a human-readable detail, so ``repro top`` can show *why* a
daemon is yellow and a probe can alert on the overall string alone.

Checks, in the order they are evaluated:

``breaker``
    a closed circuit breaker is ``ok``; half-open (awaiting its trial)
    and open (serving degraded answers) are ``degraded`` — the daemon
    still answers, but with cached/residue-only verdicts;
``backlog``
    admission backlog as a fraction of ``max_queued``: past
    ``backlog_degraded`` (default 80%) it is ``degraded``, at or past
    100% — every new submit is being shed — ``unhealthy``;
``flush``
    artifact-flush errors *within the rolling window* mark the daemon
    ``degraded`` (its stats/events outputs are stale; verification
    itself still works);
``slo``
    when a p99 latency SLO is configured (``slo_p99_ms``, env
    ``REPRO_SERVE_SLO_P99_MS``): the windowed p99 of
    ``serve.verify.seconds`` above the objective is ``degraded``, and an
    error-budget *burn rate* at or past ``burn_unhealthy`` is
    ``unhealthy``.  The budget is the fraction of requests allowed over
    the objective (``1 - slo_target``, default 1%); burn is observed
    violations over allowed violations within the window, so burn 1.0
    means "spending budget exactly as fast as it accrues" and burn 2.0
    means the budget empties twice as fast as it refills.

Everything is computed from plain dicts plus a
:class:`~repro.obs.timeseries.TimeSeries`, with no reference to the
server object, so the policy is unit-testable with hand-built inputs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..obs.timeseries import TimeSeries

#: Health statuses, in increasing severity (the verdict is the worst).
STATUSES = ("ok", "degraded", "unhealthy")

#: Default SLO evaluation window (seconds of retained samples).
DEFAULT_SLO_WINDOW_S = 60.0

#: Default availability target behind the error budget: 99% of
#: verifications at or under the latency objective.
DEFAULT_SLO_TARGET = 0.99

#: Backlog fraction past which admission pressure reads as degraded.
DEFAULT_BACKLOG_DEGRADED = 0.8

#: Error-budget burn rate at which the SLO check turns unhealthy.
DEFAULT_BURN_UNHEALTHY = 2.0


def _env_optional_float(name: str) -> Optional[float]:
    raw = os.environ.get(name)
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        return None
    return value if value > 0 else None


@dataclass
class HealthPolicy:
    """The knobs behind :func:`compute_health` (all optional)."""

    #: p99 latency objective for ``serve.verify.seconds``, milliseconds
    #: (``None`` disables the SLO check; env ``REPRO_SERVE_SLO_P99_MS``)
    slo_p99_ms: Optional[float] = field(
        default_factory=lambda: _env_optional_float(
            "REPRO_SERVE_SLO_P99_MS"
        )
    )
    #: rolling window the SLO (and flush deltas) are computed over
    slo_window_s: float = DEFAULT_SLO_WINDOW_S
    #: fraction of requests that must meet the objective
    slo_target: float = DEFAULT_SLO_TARGET
    #: backlog fraction at which admission pressure degrades the verdict
    backlog_degraded: float = DEFAULT_BACKLOG_DEGRADED
    #: error-budget burn rate at which the SLO check is unhealthy
    burn_unhealthy: float = DEFAULT_BURN_UNHEALTHY
    #: the windowed latency histogram the SLO reads
    latency_metric: str = "serve.verify.seconds"


def _worst(statuses: List[str]) -> str:
    return STATUSES[max(
        (STATUSES.index(status) for status in statuses), default=0
    )]


def compute_health(policy: HealthPolicy, *,
                   breaker: Dict[str, object],
                   admission: Dict[str, object],
                   series: TimeSeries) -> dict:
    """The daemon's health verdict (see the module docstring).

    ``breaker`` and ``admission`` are the ``to_dict()``/``stats()``
    shapes the server already produces for ``stats`` frames; ``series``
    is the daemon's rolling time series.
    """
    window = policy.slo_window_s
    checks: List[dict] = []

    state = str(breaker.get("state", "closed"))
    checks.append({
        "name": "breaker",
        "status": "ok" if state == "closed" else "degraded",
        "detail": (f"circuit breaker {state} "
                   f"({breaker.get('consecutive_failures', 0)} "
                   f"consecutive failures)"),
    })

    max_queued = max(1, int(admission.get("max_queued", 1)))
    inflight = int(admission.get("inflight", 0))
    fraction = inflight / max_queued
    if fraction >= 1.0:
        backlog_status = "unhealthy"
    elif fraction >= policy.backlog_degraded:
        backlog_status = "degraded"
    else:
        backlog_status = "ok"
    checks.append({
        "name": "backlog",
        "status": backlog_status,
        "detail": (f"admission backlog {inflight}/{max_queued} "
                   f"({fraction * 100:.0f}% full)"),
    })

    flushes = series.total("serve.flush_error", over=window)
    checks.append({
        "name": "flush",
        "status": "degraded" if flushes else "ok",
        "detail": (f"{flushes} artifact flush error(s) in the last "
                   f"{window:.0f}s" if flushes
                   else "artifacts flushing cleanly"),
    })

    slo_check: dict = {"name": "slo", "status": "ok"}
    if policy.slo_p99_ms is None:
        slo_check["detail"] = "no latency SLO configured"
    else:
        objective_s = policy.slo_p99_ms / 1000.0
        summary = series.histogram_summary(policy.latency_metric,
                                           over=window)
        if summary is None:
            slo_check["detail"] = (
                f"no {policy.latency_metric} observations in the last "
                f"{window:.0f}s"
            )
        else:
            p99 = summary["p99"]
            violations, count = series.count_over(
                policy.latency_metric, objective_s, over=window
            )
            allowed = max((1.0 - policy.slo_target) * count, 1e-9)
            burn = violations / allowed
            slo_check["p99_s"] = p99
            slo_check["objective_s"] = objective_s
            slo_check["violations"] = violations
            slo_check["burn"] = round(burn, 3)
            if burn >= policy.burn_unhealthy:
                slo_check["status"] = "unhealthy"
            elif p99 > objective_s:
                slo_check["status"] = "degraded"
            slo_check["detail"] = (
                f"p99 {p99 * 1000:.1f}ms vs objective "
                f"{policy.slo_p99_ms:.1f}ms; {violations}/{count} over, "
                f"budget burn {burn:.2f}x"
            )
    checks.append(slo_check)

    return {
        "status": _worst([check["status"] for check in checks]),
        "window_s": window,
        "checks": checks,
    }
