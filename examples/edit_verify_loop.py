#!/usr/bin/env python3
"""The edit–verify loop against the warm verification daemon.

The paper's workflow (sections 6.3/6.4): write a kernel, push the
button, read the failure, fix, push again — with re-runs cheap enough to
live in the inner loop.  This example runs one full cycle of that loop
as a *daemon client* (``repro serve``): the server process keeps the
intern table, the symbolic memos and the proof store warm across
submissions, so the client pays only for what each edit actually
changed.

1. submit the good car kernel (everything proves; fragments cached),
2. submit a plausible but *buggy* edit — the crash latch is dropped —
   and read the structured **unproved residue** off the verdict: the
   stuck goal, a prose explanation, and a concrete candidate
   counterexample,
3. submit the fix and watch the warm session's verdict report exactly
   which fragment slices the edit touched.

Run standalone (``python examples/edit_verify_loop.py``) it boots a
private in-process daemon on an ephemeral port; pass
``--connect HOST:PORT`` to drive an already-running ``repro serve``.
"""

import argparse
import sys
import tempfile

from repro.serve import ServeClient, ServeOptions, VerificationServer
from repro.systems import car

BUGGY_SOURCE = car.SOURCE.replace(
    '      send(D, DoorsCmd("unlock"));\n      crashed = true;',
    '      send(D, DoorsCmd("unlock"));',
)
assert BUGGY_SOURCE != car.SOURCE


def describe(verdict: dict) -> None:
    """Print the interesting parts of one verdict frame."""
    status = "all proved" if verdict["all_proved"] else "UNPROVED"
    print(
        f"round {verdict['round']}: {verdict['program']} — {status} "
        f"in {verdict['seconds']:.3f}s "
        f"(generation {verdict['generation']})"
    )
    changed = verdict["changed_parts"]
    if changed is None:
        print(f"  first submission: all "
              f"{verdict['fragments']['total']} fragment slices new")
    else:
        names = [("base" if part is None else f"{part[0]}=>{part[1]}")
                 for part in changed]
        print(f"  changed slices: {names or 'none'} "
              f"({verdict['invalidated_keys']} stored keys superseded)")
    for entry in verdict["residue"]:
        print(f"  residue: {entry['property']} [{entry['kind']}]")
        print(f"    goal: {entry['goal'].splitlines()[0]}")
        if entry["counterexample"]:
            print("    counterexample:")
            for line in entry["counterexample"].splitlines():
                print(f"      {line}")


def run_loop(client: ServeClient) -> bool:
    """One full edit–verify–fix cycle; True when the loop behaves."""
    hello = client.hello()
    print(f"session {hello['session']} on {hello['server']} "
          f"v{hello['version']}\n")

    print("== round 1: the reviewed kernel ==")
    good = client.submit(car.SOURCE)
    describe(good)
    if not good["all_proved"]:
        return False

    print("\n== round 2: a hurried edit drops the crash latch ==")
    buggy = client.submit(BUGGY_SOURCE)
    describe(buggy)
    if buggy["all_proved"] or not buggy["residue"]:
        print("expected an unproved residue and got none")
        return False

    print("\n== round 3: the fix ==")
    fixed = client.submit(car.SOURCE)
    describe(fixed)
    if not fixed["all_proved"]:
        return False
    print(
        f"\nwarm re-verification: round 3 took {fixed['seconds']:.3f}s "
        f"against {good['seconds']:.3f}s cold — the daemon re-proved "
        f"only what the fix touched."
    )
    return True


def main(argv=None) -> int:
    """Drive the loop against ``--connect``, or a private daemon."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--connect", metavar="ADDR", default=None,
                        help="address of a running 'repro serve' "
                             "(default: boot a private in-process one)")
    args = parser.parse_args(argv)
    if args.connect is not None:
        with ServeClient.connect_to(args.connect, timeout=300) as client:
            ok = run_loop(client)
    else:
        store = tempfile.mkdtemp(prefix="edit-verify-store-")
        with VerificationServer(ServeOptions(store=store)) as server:
            print(f"private daemon on {server.address_str}")
            with ServeClient(server.address, timeout=300) as client:
                ok = run_loop(client)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
