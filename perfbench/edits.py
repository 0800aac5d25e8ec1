"""The hand-written edit catalogue and the seeded edit streams of the
``serve-edit`` workload.

Each entry edits one handler of one paper kernel.  A *benign* entry
changes only what no property of its kernel constrains, so every
property stays proved; a *breaking* entry names the one property that
must then fail.  ``{n}`` in a replacement is filled with a seeded
number: an editor rarely submits the same text twice, and a fresh
number re-keys the edited handler's proof fragments, so the daemon
re-searches that handler as it would after a real edit.
``python3 perfbench/selftest.py`` confirms every entry's verdict.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from .kernels import PAPER_KERNELS


@dataclass(frozen=True)
class Edit:
    """Replace ``old``, which occurs once in the kernel, by ``new``."""

    kernel: str
    site: str
    old: str
    new: str
    #: the property the edit breaks; ``None`` for a benign edit
    breaks: Optional[str] = None

    def apply(self, source: str, n: int) -> str:
        """``source`` with this edit made, ``{n}`` filled with ``n``."""
        if source.count(self.old) != 1:
            raise ValueError(
                f"edit {self.kernel}/{self.site}: its site does not occur "
                f"exactly once in the kernel"
            )
        return source.replace(self.old, self.new.replace("{n}", str(n)))


_GUARDED_GRANT = (
    'if (user != "u{n}") {\n'
    '          send(C, GrantPty(user, t));\n'
    '        }'
)

CATALOGUE: Tuple[Edit, ...] = (
    # The radio's volume strings are unconstrained; without the crash
    # latch the radio can lock a crashed car.
    Edit("car", "accelerate-volume",
         'VolumeCmd("crank it up")', 'VolumeCmd("crank it up {n}")'),
    Edit("car", "doors-open-volume",
         'VolumeCmd("mute")', 'VolumeCmd("mute {n}")'),
    Edit("car", "drop-crash-latch",
         'send(D, DoorsCmd("unlock"));\n      crashed = true;',
         'send(D, DoorsCmd("unlock"));',
         breaks="NoLockAfterCrash"),
    # Channel ids and the tab-id step are unconstrained (ids stay
    # unique); granting on a denial breaks the socket policy.
    Edit("browser", "channel-tab-id",
         'send(cp, NewTabChannel(sender.id));',
         'send(cp, NewTabChannel(sender.id + {n}));'),
    Edit("browser", "tab-id-step",
         'nextid = nextid + 1;', 'nextid = nextid + {n};'),
    Edit("browser", "grant-on-deny",
         'if (ok == "grant") {', 'if (ok == "deny") {',
         breaks="SocketPolicy"),
    # Read ids and the tab-id step are unconstrained; rewriting a
    # cookie on its way to the store breaks its domain property.
    Edit("browser2", "read-tab-id",
         'send(cp, CookieRead(sender.id));',
         'send(cp, CookieRead(sender.id + {n}));'),
    Edit("browser2", "tab-id-step",
         'nextid = nextid + 1;', 'nextid = nextid + {n};'),
    Edit("browser2", "rewrite-cookie",
         'send(cp, CookieUpd(v));', 'send(cp, CookieUpd(v ++ "!"));',
         breaks="CookiesStayInDomainProc"),
    Edit("browser3", "register-tab-id",
         'send(cp, TabReg(sender.id));',
         'send(cp, TabReg(sender.id + {n}));'),
    Edit("browser3", "read-tab-id",
         'send(cp, CookieRead(sender.id));',
         'send(cp, CookieRead(sender.id + {n}));'),
    Edit("browser3", "rewrite-cookie",
         'send(cp, CookieUpd(v));', 'send(cp, CookieUpd(v ++ "!"));',
         breaks="CookiesStayInDomainProc"),
    # The forwarded password and the pty grant are unconstrained; a
    # fourth forwarded attempt breaks the attempt limit.
    Edit("ssh", "password-suffix",
         'CheckAuth(user, pass, attempts + 1)',
         'CheckAuth(user, pass ++ "{n}", attempts + 1)'),
    Edit("ssh", "guarded-pty-grant",
         'send(C, GrantPty(user, t));', _GUARDED_GRANT),
    Edit("ssh", "fourth-attempt",
         'if (attempts <= 2) {', 'if (attempts <= 3) {',
         breaks="ThirdAttemptFinal"),
    # An extra guarded count request and the pty grant are
    # unconstrained; asking the password checker directly bypasses the
    # counter.
    Edit("ssh2", "extra-count-request",
         'send(CT, CountReq(user, pass));',
         'send(CT, CountReq(user, pass));\n'
         '      if (user == "u{n}") {\n'
         '        send(CT, CountReq(user, pass));\n'
         '      }'),
    Edit("ssh2", "guarded-pty-grant",
         'send(C, GrantPty(user, t));', _GUARDED_GRANT),
    Edit("ssh2", "bypass-counter",
         'send(CT, CountReq(user, pass));',
         'send(P, CheckAuth(user, pass));',
         breaks="AttemptsApprovedByCounter"),
    # The forwarded login password and the requested path are
    # unconstrained; renaming the file on its way to the client breaks
    # delivery.  No edit touches LoginOk: fragments searched against an
    # edited LoginOk pass revalidation in later kernels yet differ from
    # a cold search (FilesOnlyAfterLogin chains through its spawn), so
    # the daemon's derivation keys would disagree with verify's.
    Edit("webserver", "login-password-suffix",
         'LoginQuery(user, pass)', 'LoginQuery(user, pass ++ "{n}")'),
    Edit("webserver", "request-path-suffix",
         'AuthQuery(sender.user, path)',
         'AuthQuery(sender.user, path ++ "{n}")'),
    Edit("webserver", "rename-delivered-file",
         'FileResp(path, f)', 'FileResp(path ++ "!", f)',
         breaks="FileOnlyWhereDiskIndicates"),
)

#: Concurrent sessions: one connection per core of the two-core machine
#: the benchmark was written on.
SESSIONS = 2
#: Each session's stream breaks a property at one position in every
#: block of this many, at a seeded place in the block.
BREAK_EVERY = 10
#: At one position in every this many, one session re-submits its peer's
#: source (the sessions take turns).
RESUBMIT_EVERY = 4

_BENIGN = {kernel: tuple(e for e in CATALOGUE
                         if e.kernel == kernel and e.breaks is None)
           for kernel in PAPER_KERNELS}
_BREAKING = {kernel: tuple(e for e in CATALOGUE
                           if e.kernel == kernel and e.breaks is not None)
             for kernel in PAPER_KERNELS}


@dataclass(frozen=True)
class Submission:
    """One submit of a session's stream."""

    position: int
    kernel: str
    edit: Edit
    source: str
    #: the source is the one the peer session sends at this position
    resubmit: bool


def _resubmits(position: int) -> bool:
    """Whether one session re-submits its peer's source at
    ``position``."""
    return position % RESUBMIT_EVERY == RESUBMIT_EVERY - 1


def _breaks(seed: int, session: int, position: int) -> bool:
    """Whether ``session`` submits a breaking edit at ``position``.  The
    place in the block is drawn among the positions without a resubmit,
    where a breaking edit would be dropped by the copier or sent twice
    by its peer."""
    first = position - position % BREAK_EVERY
    block = random.Random(
        f"serve-edit:{seed}:{session}:{first // BREAK_EVERY}")
    return position == block.choice(
        [p for p in range(first, first + BREAK_EVERY) if not _resubmits(p)])


def _draw(rng: random.Random, kernel: str, base: str,
          breaking: bool) -> Tuple[Edit, str]:
    edit = rng.choice(_BREAKING[kernel] if breaking else _BENIGN[kernel])
    return edit, edit.apply(base, rng.randrange(1, 1_000_000))


def submissions_at(seed: int, position: int,
                   sources: Dict[str, str]) -> Tuple[Submission, ...]:
    """What each session submits at ``position``.

    Every session edits kernel ``position`` mod 7 (Figure 6 order)
    there, so the sessions work through the kernels side by side; at a
    quarter of the positions one session re-submits the other's source
    instead of its own edit, and both sessions' own edits there are
    benign.  The shares are fixed rather than drawn, so the seed changes
    which edits run but not how many of each kind.
    """
    rng = random.Random(f"serve-edit:{seed}:{position}")
    kernel = PAPER_KERNELS[position % len(PAPER_KERNELS)]
    own = [_draw(rng, kernel, sources[kernel],
                 _breaks(seed, session, position))
           for session in range(SESSIONS)]
    copier = ((position // RESUBMIT_EVERY) % SESSIONS
              if _resubmits(position) else None)
    return tuple(
        Submission(position, kernel,
                   *own[1 - session if session == copier else session],
                   resubmit=session == copier)
        for session in range(SESSIONS)
    )


def stream(seed: int, session: int,
           sources: Dict[str, str]) -> Iterator[Submission]:
    """Session ``session``'s submissions, in order, without end."""
    for position in itertools.count():
        yield submissions_at(seed, position, sources)[session]
