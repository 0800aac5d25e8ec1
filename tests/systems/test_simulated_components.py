"""Behavioral tests for the simulated components of every benchmark —
driving the verified kernels through realistic scenarios and asserting on
what the components experienced."""

import pytest

from repro.lang.values import VFd
from repro.runtime import Interpreter, World
from repro.runtime.actions import ASend
from repro.systems import browser, browser2, browser3, car, ssh, ssh2, webserver


def boot(module, seed=0):
    spec = module.load()
    world = World(seed=seed)
    module.register_components(world)
    interp = Interpreter(spec.info, world)
    state = interp.run_init()
    return spec, world, interp, state


class TestSshScenario:
    def test_successful_login_grants_pty(self):
        spec, world, interp, state = boot(ssh)
        conn = state.comps[0]
        world.stimulate(conn, "ReqAuth", "alice", ssh.PASSWORD_DB["alice"])
        interp.run(state)  # authentication round-trip completes
        world.stimulate(conn, "ReqTerm", "alice")
        interp.run(state)
        client = world.behavior_of(conn)
        assert len(client.granted) == 1
        user, fd = client.granted[0]
        assert user == "alice" and isinstance(fd, VFd)

    def test_wrong_password_grants_nothing(self):
        spec, world, interp, state = boot(ssh)
        conn = state.comps[0]
        world.stimulate(conn, "ReqAuth", "alice", "wrong")
        world.stimulate(conn, "ReqTerm", "alice")
        interp.run(state)
        assert world.behavior_of(conn).granted == []

    def test_attempt_limit_enforced(self):
        spec, world, interp, state = boot(ssh)
        conn = state.comps[0]
        for _ in range(5):
            world.stimulate(conn, "ReqAuth", "alice", "nope")
            interp.run(state)
        forwarded = state.trace.filter(
            lambda a: isinstance(a, ASend) and a.msg == "CheckAuth"
        )
        assert len(forwarded) == 3

    def test_cannot_steal_anothers_session(self):
        spec, world, interp, state = boot(ssh)
        conn = state.comps[0]
        world.stimulate(conn, "ReqAuth", "alice", ssh.PASSWORD_DB["alice"])
        world.stimulate(conn, "ReqTerm", "bob")  # bob never authenticated
        interp.run(state)
        assert world.behavior_of(conn).granted == []


class TestSsh2Scenario:
    def test_counter_component_limits_attempts(self):
        spec, world, interp, state = boot(ssh2)
        conn = state.comps[0]
        for _ in range(5):
            world.stimulate(conn, "ReqAuth", "alice", "nope")
            interp.run(state)
        checks = state.trace.filter(
            lambda a: isinstance(a, ASend) and a.msg == "CheckAuth"
        )
        assert len(checks) == 3

    def test_login_still_works_via_counter(self):
        spec, world, interp, state = boot(ssh2)
        conn = state.comps[0]
        world.stimulate(conn, "ReqAuth", "bob", ssh.PASSWORD_DB["bob"])
        interp.run(state)
        world.stimulate(conn, "ReqTerm", "bob")
        interp.run(state)
        assert len(world.behavior_of(conn).granted) == 1


class TestCarScenario:
    def test_crash_sequence(self):
        spec, world, interp, state = boot(car)
        engine, _brakes, airbag, doors = state.comps[:4]
        # lock the car first (pre-crash, allowed)
        radio = state.comps[4]
        world.stimulate(radio, "LockReq")
        interp.run(state)
        assert world.behavior_of(doors).locked
        world.stimulate(engine, "Crash")
        interp.run(state)
        assert world.behavior_of(airbag).deployed
        assert not world.behavior_of(doors).locked
        # post-crash lock attempts are refused by the kernel
        world.stimulate(radio, "LockReq")
        interp.run(state)
        assert not world.behavior_of(doors).locked

    def test_brake_disengages_cruise(self):
        spec, world, interp, state = boot(car)
        brakes = state.comps[1]
        cruise = state.comps[5]
        world.stimulate(brakes, "EngageCruise")
        interp.run(state)
        assert world.behavior_of(cruise).engaged
        world.stimulate(brakes, "Braking")
        interp.run(state)
        assert not world.behavior_of(cruise).engaged

    def test_open_door_mutes_radio(self):
        spec, world, interp, state = boot(car)
        doors = state.comps[3]
        radio = state.comps[4]
        world.stimulate(doors, "DoorsState", "open")
        interp.run(state)
        assert world.behavior_of(radio).volume_history == ["mute"]


@pytest.mark.parametrize("module", [browser, browser2, browser3])
class TestBrowserVariants:
    def test_tabs_get_unique_ids(self, module):
        spec, world, interp, state = boot(module)
        ui = state.comps[0]
        for domain in ("mail.example", "shop.example", "mail.example"):
            world.stimulate(ui, "ReqTab", domain)
            interp.run(state)
        tabs = [c for c in state.comps if c.ctype == "Tab"]
        ids = [t.config[1].n for t in tabs]
        assert len(set(ids)) == len(ids) == 3

    def test_one_cookie_proc_per_domain(self, module):
        spec, world, interp, state = boot(module)
        ui = state.comps[0]
        for domain in ("mail.example", "mail.example", "shop.example"):
            world.stimulate(ui, "ReqTab", domain)
            interp.run(state)
        # make every tab exercise the cookie path
        for tab in [c for c in state.comps if c.ctype == "Tab"]:
            if module is browser:
                world.stimulate(tab, "ReqCookieChannel")
            else:
                world.stimulate(tab, "WriteCookie", "v")
            interp.run(state)
        procs = [c for c in state.comps if c.ctype == "CookieProc"]
        domains = [p.config[0].s for p in procs]
        assert sorted(set(domains)) == sorted(domains)

    def test_socket_policy_enforced(self, module):
        spec, world, interp, state = boot(module)
        ui = state.comps[0]
        world.stimulate(ui, "ReqTab", "mail.example")
        interp.run(state)
        tab = next(c for c in state.comps if c.ctype == "Tab")
        for host in ("mail.example", "static.example", "evil.example"):
            world.stimulate(tab, "ReqSocket", host)
            interp.run(state)
        granted = world.behavior_of(tab).sockets
        assert granted == ["mail.example", "static.example"]


class TestBrowserCookieFlow:
    def test_kernel_routed_read_round_trip(self):
        spec, world, interp, state = boot(browser2)
        ui = state.comps[0]
        world.stimulate(ui, "ReqTab", "mail.example")
        interp.run(state)
        tab = next(c for c in state.comps if c.ctype == "Tab")
        world.stimulate(tab, "WriteCookie", "session=abc")
        interp.run(state)
        world.stimulate(tab, "ReadCookie")
        interp.run(state)
        assert world.behavior_of(tab).cookie_values == ["session=abc"]

    def test_browser3_requires_registration_for_reads(self):
        spec, world, interp, state = boot(browser3)
        ui = state.comps[0]
        world.stimulate(ui, "ReqTab", "mail.example")
        interp.run(state)
        tab = next(c for c in state.comps if c.ctype == "Tab")
        # The RegisteringTab registers on start; its read succeeds.
        world.stimulate(tab, "WriteCookie", "v1")
        world.stimulate(tab, "ReadCookie")
        interp.run(state)
        assert world.behavior_of(tab).cookie_values == ["v1"]


class TestWebserverScenario:
    def test_file_access_happy_path(self):
        spec, world, interp, state = boot(webserver)
        listener = state.comps[0]
        world.stimulate(listener, "ConnReq", "alice", "wonderland")
        interp.run(state)
        client = next(c for c in state.comps if c.ctype == "Client")
        world.stimulate(client, "FileReq", "/reports/q1.txt")
        interp.run(state)
        delivered = world.behavior_of(client).delivered
        assert [p for p, _ in delivered] == ["/reports/q1.txt"]

    def test_acl_denial(self):
        spec, world, interp, state = boot(webserver)
        listener = state.comps[0]
        world.stimulate(listener, "ConnReq", "bob", "builder")
        interp.run(state)
        client = next(c for c in state.comps if c.ctype == "Client")
        world.stimulate(client, "FileReq", "/reports/q1.txt")  # not bob's
        interp.run(state)
        assert world.behavior_of(client).delivered == []

    def test_failed_login_spawns_no_client(self):
        spec, world, interp, state = boot(webserver)
        listener = state.comps[0]
        world.stimulate(listener, "ConnReq", "mallory", "guess")
        interp.run(state)
        assert not [c for c in state.comps if c.ctype == "Client"]

    def test_repeated_login_no_duplicate_client(self):
        spec, world, interp, state = boot(webserver)
        listener = state.comps[0]
        for _ in range(3):
            world.stimulate(listener, "ConnReq", "alice", "wonderland")
            interp.run(state)
        assert len([c for c in state.comps if c.ctype == "Client"]) == 1
