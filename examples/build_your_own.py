#!/usr/bin/env python3
"""Build a kernel with the embedded Python API instead of concrete syntax.

The :class:`repro.ProgramBuilder` is the programmatic half of the
frontend — useful when kernels are generated, templated, or assembled by
other tooling.  This example builds a tiny chat-room kernel where members
are registered through a moderation component, proves its safety
properties, round-trips it through the pretty-printer, and runs it.
"""

from repro import Interpreter, ScriptedBehavior, Verifier, World
from repro import ProgramBuilder, TraceProperty, pretty, specify
from repro.lang import STR
from repro.lang.builder import (
    cfg, eq, lookup, name, nop, send, sender, spawn,
)
from repro.props import comp_pat, msg_pat, recv_pat, send_pat, spawn_pat


def build_spec():
    b = ProgramBuilder("chatroom")
    b.component("Gateway", "gateway.py")
    b.component("Moderator", "moderator.py")
    b.component("Member", "member.py", nick=STR)
    b.message("JoinReq", STR)            # nick wants to join
    b.message("Approve", STR)            # moderator approves nick
    b.message("Post", STR)               # a member posts text
    b.message("Deliver", STR, STR)       # kernel relays (nick, text)
    b.init(
        spawn("G", "Gateway"),
        spawn("M", "Moderator"),
    )
    b.handler(
        "Gateway", "JoinReq", ["nick"],
        send(name("M"), "JoinReq", name("nick")),
    )
    b.handler(
        "Moderator", "Approve", ["nick"],
        lookup("existing", "Member", eq(cfg(name("existing"), "nick"),
                                        name("nick")),
               nop(),
               spawn("fresh", "Member", name("nick"))),
    )
    b.handler(
        "Member", "Post", ["text"],
        send(name("M"), "Deliver", cfg(sender(), "nick"), name("text")),
    )
    info = b.build_validated()

    return specify(
        info,
        TraceProperty(
            "MembersAreApproved", "Enables",
            recv_pat(comp_pat("Moderator"), msg_pat("Approve", "?n")),
            spawn_pat(comp_pat("Member", "?n")),
            description="nobody joins without moderator approval",
        ),
        TraceProperty(
            "NoDuplicateMembers", "Disables",
            spawn_pat(comp_pat("Member", "?n")),
            spawn_pat(comp_pat("Member", "?n")),
            description="each nick gets at most one member process",
        ),
        TraceProperty(
            "PostsAreAttributed", "Enables",
            recv_pat(comp_pat("Member", "?n"), msg_pat("Post", "?t")),
            send_pat(comp_pat("Moderator"), msg_pat("Deliver", "?n", "?t")),
            description="relayed posts carry their true author",
        ),
    )


def main() -> None:
    spec = build_spec()

    print("== the generated concrete syntax ==")
    print(pretty(spec))

    print("== verification ==")
    report = Verifier(spec).verify_all()
    print(report)
    assert report.all_proved

    print("\n== a short chat ==")
    world = World(seed=1)

    class Moderator(ScriptedBehavior):
        def __init__(self) -> None:
            self.log = []

        def on_message(self, port, msg, payload):
            if msg == "JoinReq":
                nick = payload[0].s
                if nick != "spammer":
                    port.emit("Approve", nick)
            elif msg == "Deliver":
                self.log.append((payload[0].s, payload[1].s))

    world.register_executable("moderator.py", Moderator)
    world.register_executable("gateway.py", ScriptedBehavior)
    world.register_executable("member.py", ScriptedBehavior)

    interp = Interpreter(spec.info, world)
    state = interp.run_init()
    gateway = state.comps[0]
    moderator = state.comps[1]

    for nick in ("ada", "grace", "spammer", "ada"):
        world.stimulate(gateway, "JoinReq", nick)
        interp.run(state)

    members = [c for c in state.comps if c.ctype == "Member"]
    print(f"members: {[str(m) for m in members]}")
    assert {m.config[0].s for m in members} == {"ada", "grace"}
    assert len(members) == 2, "no duplicates, no spammer"

    world.stimulate(members[0], "Post", "hello, room")
    interp.run(state)
    print(f"moderator log: {world.behavior_of(moderator).log}")

    for prop in spec.trace_properties():
        assert prop.holds_on(state.trace), prop.name
    print("all verified properties hold on the concrete trace, as they "
          "must.")


if __name__ == "__main__":
    main()
