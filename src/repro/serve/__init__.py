"""Verification as a service: the ``repro serve`` daemon.

The paper's pitch is that reactive-system proofs are cheap enough to
live inside the development loop; this package keeps them *warm* there.
A long-running server process holds the intern table, the term memos
and the content-addressed proof store across thousands of
edit–verify iterations, so an IDE fleet's re-verifications hit a hot
process instead of paying cold start every time.

* :mod:`repro.serve.protocol` — length-prefixed JSON frames over a TCP
  or UNIX socket, shared by server and client;
* :mod:`repro.serve.server` — the concurrent daemon: per-client
  sessions, request batching (concurrent identical submissions coalesce
  into one ``verify_all`` pass), streamed obligation-progress events,
  and verdicts that carry *unproved residue* instead of a bare boolean;
* :mod:`repro.serve.session` — per-client session state (previous
  fragment digests, round counts);
* :mod:`repro.serve.residue` — the structured unproved-residue payload
  (goals, explanations, counterexample hints);
* :mod:`repro.serve.client` — the blocking client used by the examples,
  the tests and the CI smoke job;
* :mod:`repro.serve.housekeeping` — generation-aware eviction keeping a
  long-lived process's symbolic caches bounded;
* :mod:`repro.serve.admission` — bounded admission and load shedding
  (``overloaded`` frames with ``retry_after_ms`` hints);
* :mod:`repro.serve.breaker` — the circuit breaker that serves degraded
  answers while a sick prover backend heals;
* :mod:`repro.serve.slo` — the health/SLO policy behind ``health``
  frames (error-budget burn over the daemon's rolling time series);
* :mod:`repro.serve.top` — the ``repro top`` live terminal dashboard
  over ``metrics``/``health`` frames.

See ``docs/serve.md`` for the protocol, lifecycle and failure modes.
"""

_EXPORTS = {
    "AdmissionController": "admission",
    "CacheGovernor": "housekeeping",
    "CircuitBreaker": "breaker",
    "HealthPolicy": "slo",
    "ProtocolError": "protocol",
    "ServeClient": "client",
    "ServeError": "client",
    "ServeOptions": "server",
    "Session": "session",
    "SessionRegistry": "session",
    "VerificationServer": "server",
    "compute_health": "slo",
    "parse_address": "protocol",
    "render_top": "top",
    "residue_for": "residue",
    "run_top": "top",
}


def __getattr__(name):
    """Resolve the package exports lazily.

    Eagerly importing the submodules would pre-load
    :mod:`repro.serve.client` whenever the package is touched, making
    ``python -m repro.serve.client`` warn about the module already being
    in ``sys.modules`` before ``runpy`` executes it.
    """
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    import importlib

    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "AdmissionController",
    "CacheGovernor",
    "CircuitBreaker",
    "HealthPolicy",
    "ProtocolError",
    "ServeClient",
    "ServeError",
    "ServeOptions",
    "Session",
    "SessionRegistry",
    "VerificationServer",
    "compute_health",
    "parse_address",
    "render_top",
    "residue_for",
    "run_top",
]
