"""The synthetic scaling kernel: ``groups`` independent auth protocols.

Not one of the paper's systems (so it is not in
:data:`repro.systems.BENCHMARKS`).  Each handler group is the SSH idiom
— a guarded forward, a state latch, and a gated response — and carries
one ``Enables`` property, so kernel size and property count grow
together.  The scalability benchmark sweeps it, and the chaos-serve
``deadline`` scenario submits a large instance to show that a deadline
bounds a submission the prover cannot finish in time.
"""

from __future__ import annotations

from ..lang import STR
from ..lang.builder import (
    ProgramBuilder, assign, eq, ite, lit, name, send, spawn, tup,
)
from ..props import TraceProperty, comp_pat, msg_pat, recv_pat, send_pat
from ..props.spec import SpecifiedProgram, specify


def synthetic_kernel(groups: int) -> SpecifiedProgram:
    """A kernel with ``groups`` independent auth-style protocols."""
    b = ProgramBuilder(f"scale{groups}")
    b.component("Front", "front.py")
    b.component("Back", "back.py")
    b.message("Go", STR)  # pre-declare a shared message for realism
    init_cmds = [spawn("F", "Front"), spawn("K", "Back")]
    props = []
    for g in range(groups):
        b.message(f"Req{g}", STR)
        b.message(f"Ok{g}", STR)
        b.message(f"Use{g}", STR)
        b.message(f"Grant{g}", STR)
        init_cmds.append(assign(f"auth{g}", lit(("", False))))
        b.handler("Front", f"Req{g}", ["u"],
                  send(name("K"), f"Req{g}", name("u")))
        b.handler("Back", f"Ok{g}", ["u"],
                  assign(f"auth{g}", tup(name("u"), True)))
        b.handler("Front", f"Use{g}", ["u"],
                  ite(eq(tup(name("u"), True), name(f"auth{g}")),
                      send(name("K"), f"Grant{g}", name("u"))))
        props.append(TraceProperty(
            f"AuthFirst{g}", "Enables",
            recv_pat(comp_pat("Back"), msg_pat(f"Ok{g}", "?u")),
            send_pat(comp_pat("Back"), msg_pat(f"Grant{g}", "?u")),
        ))
    b.init(*init_cmds)
    return specify(b.build_validated(), *props)
