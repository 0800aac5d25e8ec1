"""Section 6.3 regeneration: REFLEX's utility at catching mistakes.

The paper's war story: the web-server benchmark was kept untouched while
the automation was built; on first contact the automation failed to prove
three properties — one failure exposed a tactic bug, and *two of the
policies turned out to be false* and were fixed by correcting their
statement.  Separately, a browser modification introduced subtle kernel
bugs that were only discovered when re-running the (pushbutton) proofs.

This module re-enacts both scenarios with deliberately wrong inputs:

* :func:`false_webserver_properties` — plausible-looking but *false*
  web-server policies (with the corrected statements alongside); the
  prover must reject the false ones and accept the corrections.
* :func:`buggy_browser_source` / :func:`buggy_car_source` /
  :func:`buggy_ssh_source` — kernels with subtle injected bugs of the
  "substantial modification" kind; re-running verification must fail on
  exactly the properties the bugs violate.

Each injected bug is also a *real* bug: the test suite drives the buggy
kernels in the interpreter and exhibits a concrete violating trace,
confirming that the prover rejects these programs for the right reason.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..frontend import parse_program
from ..props import (
    TraceProperty,
    comp_pat,
    msg_pat,
    recv_pat,
    send_pat,
    spawn_pat,
)
from ..props.spec import SpecifiedProgram, specify
from ..prover import Verifier
from ..systems import browser, car, ssh, webserver


@dataclass
class FalseProperty:
    """A wrong policy statement and its correction (paper section 6.3)."""

    name: str
    story: str
    wrong: TraceProperty
    corrected: TraceProperty


def false_webserver_properties() -> List[FalseProperty]:
    """The two-false-policies scenario, re-enacted on our web server."""
    return [
        FalseProperty(
            name="login-direction",
            story=(
                "The policy author wrote the enabling direction backwards: "
                "'every login approval is preceded by a spawned client' — "
                "but clients are spawned *because of* approvals, not before "
                "them."
            ),
            wrong=TraceProperty(
                "ClientBeforeLogin", "Enables",
                spawn_pat(comp_pat("Client", "?u")),
                recv_pat(comp_pat("AccessControl"), msg_pat("LoginOk", "?u")),
            ),
            corrected=TraceProperty(
                "ClientOnlyAfterLogin", "Enables",
                recv_pat(comp_pat("AccessControl"), msg_pat("LoginOk", "?u")),
                spawn_pat(comp_pat("Client", "?u")),
            ),
        ),
        FalseProperty(
            name="disk-read-immediacy",
            story=(
                "The policy author over-claimed: 'the disk read happens "
                "immediately after the auth approval is received'.  True "
                "of the handler, but ImmBefore relates trace neighbours "
                "and the Recv is followed by the Send — the author had "
                "the primitive's orientation wrong."
            ),
            wrong=TraceProperty(
                "DiskReadImmBeforeAuth", "ImmBefore",
                send_pat(comp_pat("Disk"), msg_pat("DiskRead", "?u", "?p")),
                recv_pat(comp_pat("AccessControl"),
                         msg_pat("AuthOk", "?u", "?p")),
            ),
            corrected=TraceProperty(
                "DiskReadImmAfterAuth", "ImmAfter",
                recv_pat(comp_pat("AccessControl"),
                         msg_pat("AuthOk", "?u", "?p")),
                send_pat(comp_pat("Disk"), msg_pat("DiskRead", "?u", "?p")),
            ),
        ),
    ]


def webserver_with(*properties: TraceProperty) -> SpecifiedProgram:
    """The stock web-server kernel specified with the given properties."""
    return specify(webserver.load().info, *properties)


# ---------------------------------------------------------------------------
# Injected kernel bugs
# ---------------------------------------------------------------------------


def buggy_car_source() -> Tuple[str, Tuple[str, ...]]:
    """A car kernel where a hurried edit dropped the crash-latch update —
    the doors can be locked again after a crash.

    Returns the source and the names of the properties that must now fail.
    """
    source = car.SOURCE.replace(
        '      send(D, DoorsCmd("unlock"));\n      crashed = true;',
        '      send(D, DoorsCmd("unlock"));',
    )
    if source == car.SOURCE:
        raise AssertionError("bug injection failed to apply")
    return source, ("NoLockAfterCrash",)


def buggy_ssh_source() -> Tuple[str, Tuple[str, ...]]:
    """An SSH kernel where the authorization check was fat-fingered to
    test the stored *flag* only, granting terminals for any user once
    anyone has logged in."""
    source = ssh.SOURCE.replace(
        "    Connection => ReqTerm(user) {\n"
        "      if ((user, true) == authorized) {",
        "    Connection => ReqTerm(user) {\n"
        "      if (authorized.1 == true) {",
    )
    if source == ssh.SOURCE:
        raise AssertionError("bug injection failed to apply")
    return source, ("AuthBeforeTerm",)


def buggy_browser_source() -> Tuple[str, Tuple[str, ...]]:
    """The paper's browser-modification scenario: while reworking the
    cookie protocol, the domain check in the channel-routing lookup was
    lost — a cookie channel can now reach a tab of a *different* domain.

    This breaks both the cookie-confinement property and domain
    non-interference."""
    source = browser.SOURCE.replace(
        "lookup t : Tab((t.domain == sender.domain) && (t.id == i))",
        "lookup t : Tab(t.id == i)",
    )
    if source == browser.SOURCE:
        raise AssertionError("bug injection failed to apply")
    return source, ("CookiesStayInDomain", "DomainsNoInterfere")


@dataclass
class UtilityOutcome:
    """Expected vs. actual prover failures for one section-6.3 scenario."""

    scenario: str
    expected_failures: Tuple[str, ...]
    actual_failures: Tuple[str, ...]

    @property
    def reproduced(self) -> bool:
        return set(self.expected_failures) <= set(self.actual_failures)


def run_utility() -> List[UtilityOutcome]:
    """Run every section-6.3 scenario; each must fail exactly as expected
    while everything else keeps proving."""
    outcomes: List[UtilityOutcome] = []

    for fp in false_webserver_properties():
        report = Verifier(webserver_with(fp.wrong, fp.corrected)).verify_all()
        outcomes.append(UtilityOutcome(
            scenario=f"false policy: {fp.name}",
            expected_failures=(fp.wrong.name,),
            actual_failures=tuple(
                r.property.name for r in report.results if not r.proved
            ),
        ))

    for scenario, (source, expected) in (
        ("buggy car kernel", buggy_car_source()),
        ("buggy ssh kernel", buggy_ssh_source()),
        ("buggy browser kernel", buggy_browser_source()),
    ):
        report = Verifier(parse_program(source)).verify_all()
        outcomes.append(UtilityOutcome(
            scenario=scenario,
            expected_failures=expected,
            actual_failures=tuple(
                r.property.name for r in report.results if not r.proved
            ),
        ))
    return outcomes


def render_utility(outcomes: List[UtilityOutcome]) -> str:
    """Render the section-6.3 scenario table."""
    out = ["Section 6.3 — catching false policies and injected kernel bugs"]
    for outcome in outcomes:
        status = "REPRODUCED" if outcome.reproduced else "MISSED"
        out.append(
            f"  {outcome.scenario:28s} expected failures "
            f"{list(outcome.expected_failures)} -> prover failed on "
            f"{list(outcome.actual_failures)}  [{status}]"
        )
    all_ok = all(o.reproduced for o in outcomes)
    out.append(f"[shape] every wrong input rejected with a diagnostic: "
               f"{'PASS' if all_ok else 'FAIL'}")
    return "\n".join(out)


def main() -> None:  # pragma: no cover - CLI convenience
    print(render_utility(run_utility()))


if __name__ == "__main__":  # pragma: no cover
    main()
