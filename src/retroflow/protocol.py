"""Routing-mode transition protocol for a switch losing its master.

One session per switch: on master loss the switch asks its backups for a
new master; if every backup rejects (shipping a legacy-mode config) the
switch falls back to legacy routing, and it returns to SDN mode when some
controller later adopts it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ._doc import whole

SDN = "SDN"
LEGACY = "LEGACY"
STABLE = "STABLE"
AWAITING = "AWAITING_ROLE_REPLIES"

MASTER_CONNECTION_LOST = "master_connection_lost"
REPLY_REJECT_LEGACY = "role_reply_reject_legacy"
REPLY_ACCEPT = "role_reply_accept"
ADOPT = "adopt"
EVENT_KINDS = (MASTER_CONNECTION_LOST, REPLY_REJECT_LEGACY, REPLY_ACCEPT, ADOPT)


class ProtocolError(ValueError):
    """An event or session that breaks a protocol rule, or an event that
    does not fit the session's current phase."""


@dataclass(frozen=True)
class Event:
    """One input to step. The event rules live here, so a scripted event
    and one built in code are checked alike, in this order: kind is one
    of EVENT_KINDS, every kind but master_connection_lost names a
    controller, and a controller is a whole number, stored as an int
    (2.0 gives 2; "2", True and 1.5 raise)."""
    kind: str
    controller: int | None = None

    def __post_init__(self):
        if self.kind not in EVENT_KINDS:
            raise ProtocolError(f"unknown event kind {self.kind!r}; expected one of "
                                f"{list(EVENT_KINDS)}")
        if self.controller is None and self.kind != MASTER_CONNECTION_LOST:
            raise ProtocolError(f"{self.kind} event needs a controller")
        if self.controller is not None:
            object.__setattr__(self, "controller",
                               whole(self.controller, "event controller", ProtocolError))

    def describe(self) -> str:
        if self.controller is None:
            return self.kind
        return f"{self.kind}({self.controller})"


@dataclass(frozen=True)
class SwitchSession:
    switch_id: int
    mode: str = SDN
    master: int | None = None
    backups: tuple[int, ...] = ()
    phase: str = STABLE
    rejections: frozenset[int] = frozenset()

    def __post_init__(self):
        if self.mode == SDN and self.master is None:
            raise ProtocolError("SDN mode requires a master")
        if self.mode == LEGACY and self.master is not None:
            raise ProtocolError("legacy mode cannot keep a master")
        if self.phase == AWAITING and self.master is not None:
            raise ProtocolError("awaiting replies implies no master")
        if len(set(self.backups)) != len(self.backups):
            raise ProtocolError(f"backups {list(self.backups)} name a controller twice")

    def check_invariants(self):
        assert (self.mode == SDN) == (self.master is not None)
        assert self.phase != AWAITING or self.master is None


def step(s: SwitchSession, e: Event) -> tuple[SwitchSession, tuple[str, ...]]:
    """Apply one event; returns the next session and the actions taken.
    Event has checked the kind and the controller when it was built, so
    step checks only that e fits s: invalid (state, event) pairs raise
    ProtocolError and leave s unused."""
    if e.kind == MASTER_CONNECTION_LOST:
        if s.phase != STABLE or s.mode != SDN:
            raise ProtocolError(f"{e.describe()}: no active master to lose")
        if not s.backups:
            # no one to ask: the all-backups-rejected quorum holds vacuously
            nxt = replace(s, mode=LEGACY, master=None, phase=STABLE,
                          rejections=frozenset())
            return nxt, ("activate_legacy_routing",)
        nxt = replace(s, mode=LEGACY, master=None, phase=AWAITING,
                      rejections=frozenset())
        return nxt, (f"broadcast_role_request to={list(s.backups)}",)

    if e.kind in (REPLY_REJECT_LEGACY, REPLY_ACCEPT):
        if s.phase != AWAITING:
            raise ProtocolError(f"{e.describe()}: not awaiting role replies")
        if e.controller not in s.backups:
            raise ProtocolError(f"{e.describe()}: not a backup of switch {s.switch_id}")
        if e.kind == REPLY_ACCEPT:
            nxt = replace(s, mode=SDN, master=e.controller, phase=STABLE,
                          rejections=frozenset())
            return nxt, (f"set_master controller={e.controller}",)
        rejections = s.rejections | {e.controller}
        if set(rejections) == set(s.backups):
            nxt = replace(s, mode=LEGACY, master=None, phase=STABLE,
                          rejections=frozenset())
            return nxt, ("activate_legacy_routing",)
        return replace(s, rejections=rejections), ()

    # ADOPT, the one kind left
    if not (s.phase == STABLE and s.mode == LEGACY):
        raise ProtocolError(f"{e.describe()}: only a stable legacy switch can be adopted")
    nxt = replace(s, mode=SDN, master=e.controller, phase=STABLE)
    return nxt, (f"set_master controller={e.controller}",)


def run_script(session: SwitchSession, events) -> tuple[SwitchSession, list[str]]:
    """Replay an event sequence, collecting one log line per transition.
    Rejected events are logged and skipped rather than aborting the run."""
    log = []
    for e in events:
        try:
            session, actions = step(session, e)
        except ProtocolError as err:
            log.append(f"event={e.describe()} rejected: {err}")
            continue
        acted = "; ".join(actions) if actions else "-"
        log.append(
            f"event={e.describe()} -> mode={session.mode} phase={session.phase} "
            f"master={session.master} actions=[{acted}]"
        )
    return session, log


def reachable_states(initial: SwitchSession, events, max_depth: int) -> set[SwitchSession]:
    """Exhaustive BFS over event interleavings up to max_depth; invalid
    events are dead branches. Every state returned satisfied the session
    invariants (check_invariants raises otherwise via __post_init__)."""
    seen = {initial}
    frontier = [initial]
    for _ in range(max_depth):
        nxt = []
        for state in frontier:
            for e in events:
                try:
                    follow, _ = step(state, e)
                except ProtocolError:
                    continue
                if follow not in seen:
                    seen.add(follow)
                    nxt.append(follow)
        frontier = nxt
        if not frontier:
            break
    return seen
