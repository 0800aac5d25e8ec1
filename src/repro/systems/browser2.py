"""The ``browser2`` benchmark variant (paper Figure 6).

"The quark variants explore implementation trade-offs for handling
cookies."  Where :mod:`repro.systems.browser` hands tabs a *private
channel* to their domain's cookie process, this variant routes every
cookie operation *through the kernel*: tabs write cookies with
``WriteCookie`` and read them with ``ReadCookie``; cookie processes answer
reads with ``CookieData`` tagged by the requesting tab's id, which the
kernel forwards only to the right tab of the right domain.  Cookie
processes are spawned lazily on a tab's first write.

Figure 6's seven browser2 properties (the combined "cookies stay in their
domain" row of browser splits into its tab-side and cookie-process-side
halves here):

1. ``UniqueTabIds``
2. ``UniqueCookieProcs``
3. ``CookiesStayInDomainTab`` — cookie data reaches only tabs of the
   cookie process's domain,
4. ``CookiesStayInDomainProc`` — cookie writes reach only the writing
   tab's domain's cookie process,
5. ``TabsConnectedToCookieProc`` — reads are only routed to an
   already-spawned cookie process,
6. ``DomainsNoInterfere``
7. ``SocketPolicy``
"""

from __future__ import annotations

from ..frontend import parse_program
from ..props.spec import SpecifiedProgram
from ..runtime.components import ScriptedBehavior
from ..runtime.world import World
from .browser import check_socket_policy

SOURCE = '''
program browser2 {
  components {
    UI "ui.py" {}
    Tab "tab.py" { domain: string, id: num }
    CookieProc "cookie-proc.py" { domain: string }
  }
  messages {
    ReqTab(string);
    WriteCookie(string);     // tab stores a cookie value
    CookieUpd(string);       // kernel forwards the write
    ReadCookie();            // tab asks for its domain's cookie
    CookieRead(num);         // kernel forwards the read, tagged by tab id
    CookieData(num, string); // cookie process answers for tab #n
    CookieVal(string);       // kernel delivers the value to the tab
    ReqSocket(string);
    SocketGranted(string);
  }
  init {
    nextid = 0;
    U <- spawn UI();
  }
  handlers {
    UI => ReqTab(d) {
      nt <- spawn Tab(d, nextid);
      nextid = nextid + 1;
    }
    Tab => WriteCookie(v) {
      lookup cp : CookieProc(cp.domain == sender.domain) {
        send(cp, CookieUpd(v));
      } else {
        ncp <- spawn CookieProc(sender.domain);
        send(ncp, CookieUpd(v));
      }
    }
    Tab => ReadCookie() {
      lookup cp : CookieProc(cp.domain == sender.domain) {
        send(cp, CookieRead(sender.id));
      }
    }
    CookieProc => CookieData(i, v) {
      lookup t : Tab((t.domain == sender.domain) && (t.id == i)) {
        send(t, CookieVal(v));
      }
    }
    Tab => ReqSocket(h) {
      ok <- call check_socket_policy(h, sender.domain);
      if (ok == "grant") {
        send(sender, SocketGranted(h));
      }
    }
  }
  properties {
    UniqueTabIds:
      [Spawn(Tab(_, i))] Disables [Spawn(Tab(_, i))];
    UniqueCookieProcs:
      [Spawn(CookieProc(d))] Disables [Spawn(CookieProc(d))];
    CookiesStayInDomainTab:
      [Recv(CookieProc(d), CookieData(i, v))]
        Enables [Send(Tab(d, i), CookieVal(v))];
    CookiesStayInDomainProc:
      [Recv(Tab(d, _), WriteCookie(v))]
        Enables [Send(CookieProc(d), CookieUpd(v))];
    TabsConnectedToCookieProc:
      [Spawn(CookieProc(d))] Enables [Send(CookieProc(d), CookieRead(_))];
    DomainsNoInterfere:
      NoInterference forall d
        high [UI(), Tab(d, _), CookieProc(d)] highvars [nextid];
    SocketPolicy:
      [Call(check_socket_policy(h, d) = "grant")]
        Enables [Send(Tab(d, _), SocketGranted(h))];
  }
}
'''

_CACHE: dict = {}


def load() -> SpecifiedProgram:
    """Parse (once) and return the specified browser2 kernel."""
    if "spec" not in _CACHE:
        _CACHE["spec"] = parse_program(SOURCE)
    return _CACHE["spec"]


class RoutedTab(ScriptedBehavior):
    """A tab speaking the kernel-routed cookie protocol."""

    def __init__(self) -> None:
        super().__init__()
        self.cookie_values = []
        self.sockets = []

    def on_message(self, port, msg, payload):
        if msg == "CookieVal":
            self.cookie_values.append(payload[0].s)
        elif msg == "SocketGranted":
            self.sockets.append(payload[0].s)


class RoutedCookieProcess(ScriptedBehavior):
    """A per-domain cookie store answering kernel-routed reads."""

    def __init__(self) -> None:
        super().__init__()
        self.value = ""

    def on_message(self, port, msg, payload):
        if msg == "CookieUpd":
            self.value = payload[0].s
        elif msg == "CookieRead":
            port.emit("CookieData", payload[0].n, self.value)


def register_components(world: World) -> None:
    """Install the simulated browser2 components and the policy call."""
    world.register_executable("ui.py", ScriptedBehavior)
    world.register_executable("tab.py", RoutedTab)
    world.register_executable("cookie-proc.py", RoutedCookieProcess)
    world.register_call("check_socket_policy", check_socket_policy)
