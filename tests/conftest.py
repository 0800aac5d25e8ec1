"""Shared fixtures: small well-formed programs the suites reuse.

The hypothesis profile below makes property-test runs deterministic and
deadline-free: reproducibility of the whole suite matters more here than
fresh randomness per run (the randomized *soundness* sweeps draw their
seeds explicitly).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

from repro.lang import FD, STR
from repro.lang.builder import (
    ProgramBuilder,
    assign,
    block,
    cfg,
    eq,
    ite,
    lit,
    lookup,
    name,
    send,
    spawn,
    tup,
)

settings.register_profile(
    "repro",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


def build_ssh_program() -> ProgramBuilder:
    """The Figure 3 SSH kernel (no attempt counter), via the builder."""
    b = ProgramBuilder("ssh_fig3")
    b.component("Connection", "client.py")
    b.component("Password", "user-auth.c")
    b.component("Terminal", "pty-alloc.c")
    b.message("ReqAuth", STR, STR)
    b.message("Auth", STR)
    b.message("ReqTerm", STR)
    b.message("Term", STR, FD)
    b.init(
        assign("authorized", lit(("", False))),
        spawn("C", "Connection"),
        spawn("P", "Password"),
        spawn("T", "Terminal"),
    )
    b.handler("Connection", "ReqAuth", ["user", "password"],
              send(name("P"), "ReqAuth", name("user"), name("password")))
    b.handler("Password", "Auth", ["user"],
              assign("authorized", tup(name("user"), True)))
    b.handler("Connection", "ReqTerm", ["user"],
              ite(eq(tup(name("user"), True), name("authorized")),
                  send(name("T"), "ReqTerm", name("user"))))
    b.handler("Terminal", "Term", ["user", "t"],
              ite(eq(tup(name("user"), True), name("authorized")),
                  send(name("C"), "Term", name("user"), name("t"))))
    return b


def build_registry_program() -> ProgramBuilder:
    """A kernel exercising lookup/spawn/config — a per-key registry."""
    b = ProgramBuilder("registry")
    b.component("Front", "front.py")
    b.component("Cell", "cell.py", key=STR)
    b.message("Ensure", STR)
    b.message("Ping", STR)
    b.message("Pong", STR)
    b.init(spawn("F", "Front"))
    b.handler("Front", "Ensure", ["k"],
              lookup("c", "Cell", eq(cfg(name("c"), "key"), name("k")),
                     send(name("c"), "Ping", name("k")),
                     block(spawn("fresh", "Cell", name("k")),
                           send(name("fresh"), "Ping", name("k")))))
    b.handler("Cell", "Pong", ["v"],
              send(name("F"), "Pong", name("v")))
    return b


@pytest.fixture
def ssh_info():
    return build_ssh_program().build_validated()


@pytest.fixture
def ssh_program():
    return build_ssh_program().build()


@pytest.fixture
def registry_info():
    return build_registry_program().build_validated()
