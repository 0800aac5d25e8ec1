"""Derived property forms ("syntactic sugar").

Paper section 6.1: "future updates to REFLEX will include syntax for
expressing common patterns such as *at most n of some action*.  This
syntax will immediately desugar to our existing primitives, so the power
of our proof automation will remain."  This module is that update:

* :func:`at_most_once` — ``A`` happens at most once (per variable
  instantiation): desugars to ``A Disables A``.
* :func:`at_most` — at most ``n`` occurrences of a *counted* action
  family (the kernel stamps an attempt number into the action, as the ssh
  benchmark does): desugars to the family the paper itself uses in
  Figure 6 — each numbered occurrence happens at most once, each enables
  the next, and the ``n``-th disables the whole family.
* :func:`exactly_follows` — a request/response pairing: every response
  is enabled by a matching request *and* every request ensures a
  response; desugars to an ``Enables``/``Ensures`` pair.

Everything here produces plain :class:`~repro.props.spec.TraceProperty`
values, so the prover and checker are untouched — exactly the
desugaring discipline the paper prescribes.
"""

from __future__ import annotations

from typing import Callable, List, Tuple, Union

from .patterns import ActionPattern, FieldPattern, PWild, field_pattern
from .spec import TraceProperty

#: A counted action family: given the occurrence number (an ``int``) or a
#: field pattern (e.g. a wildcard for "any occurrence"), produce the
#: action pattern for that occurrence.
CountedFamily = Callable[[Union[int, FieldPattern]], ActionPattern]


def at_most_once(name: str, pattern: ActionPattern,
                 description: str = "") -> TraceProperty:
    """``pattern`` occurs at most once per variable instantiation.

    ``A Disables A``: any occurrence forbids a later one.
    """
    return TraceProperty(
        name, "Disables", pattern, pattern,
        description=description or "occurs at most once",
    )


def at_most(name_prefix: str, family: CountedFamily,
            limit: int) -> Tuple[TraceProperty, ...]:
    """At most ``limit`` occurrences of a counted action family.

    Desugars into ``2·limit`` primitives (for ``limit = 3`` this is
    precisely the four-property encoding of the paper's ssh benchmark,
    plus the per-number uniqueness rows):

    * for each ``k`` in 1..limit: occurrence ``k`` happens at most once,
    * for each ``k`` in 2..limit: occurrence ``k`` is enabled by
      occurrence ``k-1`` (numbers are handed out in order),
    * occurrence ``limit`` disables the entire family (nothing follows
      the last allowed occurrence).
    """
    if limit < 1:
        raise ValueError("at_most requires limit >= 1")
    props: List[TraceProperty] = []
    for k in range(1, limit + 1):
        props.append(at_most_once(
            f"{name_prefix}_occurrence{k}_once", family(k),
            description=f"occurrence #{k} happens at most once",
        ))
    for k in range(2, limit + 1):
        props.append(TraceProperty(
            f"{name_prefix}_{k}_needs_{k - 1}", "Enables",
            family(k - 1), family(k),
            description=f"occurrence #{k} presupposes occurrence #{k - 1}",
        ))
    props.append(TraceProperty(
        f"{name_prefix}_{limit}_is_final", "Disables",
        family(limit), family(PWild()),
        description=f"occurrence #{limit} is the last of the family",
    ))
    return tuple(props)


def exactly_follows(name_prefix: str, request: ActionPattern,
                    response: ActionPattern) -> Tuple[TraceProperty, ...]:
    """Responses happen only after, and always after, matching requests.

    Desugars to ``request Enables response`` (no unsolicited responses)
    and ``request Ensures response`` (no dropped requests).
    """
    return (
        TraceProperty(
            f"{name_prefix}_only_after", "Enables", request, response,
            description="responses only follow matching requests",
        ),
        TraceProperty(
            f"{name_prefix}_always_answered", "Ensures", request, response,
            description="every request is answered",
        ),
    )


def counted_field(make: Callable[[FieldPattern], ActionPattern]
                  ) -> CountedFamily:
    """Lift a pattern constructor over one field into a counted family:
    integers become literal field patterns, everything else coerces via
    :func:`repro.props.patterns.field_pattern`."""

    def family(k: Union[int, FieldPattern]) -> ActionPattern:
        return make(field_pattern(k))

    return family
