import re

import pytest
from hypothesis import given, strategies as st

from retroflow.protocol import (ADOPT, AWAITING, LEGACY, MASTER_CONNECTION_LOST,
                                REPLY_ACCEPT, REPLY_REJECT_LEGACY, SDN, STABLE,
                                Event, ProtocolError, SwitchSession,
                                reachable_states, run_script, step)


def fresh():
    return SwitchSession(switch_id=1, mode=SDN, master=1, backups=(2, 3))


EVENTS = [
    Event(MASTER_CONNECTION_LOST),
    Event(REPLY_REJECT_LEGACY, 2),
    Event(REPLY_REJECT_LEGACY, 3),
    Event(REPLY_ACCEPT, 2),
    Event(REPLY_ACCEPT, 3),
    Event(ADOPT, 1),
    Event(ADOPT, 2),
    Event(ADOPT, 3),
]


class TestTransitions:
    def test_master_loss_broadcasts_to_backups(self):
        s, actions = step(fresh(), Event(MASTER_CONNECTION_LOST))
        assert s.phase == AWAITING
        assert s.master is None
        assert actions == ("broadcast_role_request to=[2, 3]",)

    def test_all_rejections_fall_back_to_legacy(self):
        s, _ = step(fresh(), Event(MASTER_CONNECTION_LOST))
        s, actions = step(s, Event(REPLY_REJECT_LEGACY, 2))
        assert s.phase == AWAITING and actions == ()
        s, actions = step(s, Event(REPLY_REJECT_LEGACY, 3))
        assert s.mode == LEGACY and s.phase == STABLE and s.master is None
        assert actions == ("activate_legacy_routing",)

    def test_accept_restores_sdn(self):
        s, _ = step(fresh(), Event(MASTER_CONNECTION_LOST))
        s, _ = step(s, Event(REPLY_REJECT_LEGACY, 2))
        s, actions = step(s, Event(REPLY_ACCEPT, 3))
        assert s.mode == SDN and s.master == 3 and s.phase == STABLE
        assert actions == ("set_master controller=3",)

    def test_legacy_adoption(self):
        s = SwitchSession(switch_id=1, mode=LEGACY, master=None, backups=(2, 3))
        s, actions = step(s, Event(ADOPT, 3))
        assert s.mode == SDN and s.master == 3
        assert actions == ("set_master controller=3",)

    def test_accept_while_stable_rejected(self):
        before = fresh()
        with pytest.raises(ProtocolError, match="not awaiting"):
            step(before, Event(REPLY_ACCEPT, 2))

    def test_reply_from_stranger_rejected(self):
        s, _ = step(fresh(), Event(MASTER_CONNECTION_LOST))
        with pytest.raises(ProtocolError, match="not a backup"):
            step(s, Event(REPLY_REJECT_LEGACY, 9))

    def test_adopt_while_sdn_rejected(self):
        with pytest.raises(ProtocolError, match="stable legacy"):
            step(fresh(), Event(ADOPT, 2))

    def test_unknown_kind_raises(self):
        with pytest.raises(ProtocolError, match="unknown event kind 'master_conection_lost'"):
            step(fresh(), Event("master_conection_lost"))

    def test_adopt_without_controller_rejected(self):
        s = SwitchSession(switch_id=1, mode=LEGACY, master=None, backups=(2, 3))
        with pytest.raises(ProtocolError, match="^adopt event needs a controller$"):
            step(s, Event(ADOPT))

    @pytest.mark.parametrize("mode, master, phase, message", [
        (SDN, None, STABLE, "SDN mode requires a master"),
        (LEGACY, 2, STABLE, "legacy mode cannot keep a master"),
        (SDN, 2, AWAITING, "awaiting replies implies no master"),
    ], ids=["sdn-without-master", "legacy-with-master", "awaiting-with-master"])
    def test_inconsistent_session_rejected(self, mode, master, phase, message):
        with pytest.raises(ProtocolError, match=f"^{message}$"):
            SwitchSession(switch_id=1, mode=mode, master=master, backups=(2, 3), phase=phase)

    @pytest.mark.parametrize("backups", [(1, 1), (2, 3, 2)])
    def test_repeated_backup_rejected(self, backups):
        with pytest.raises(ProtocolError, match="name a controller twice"):
            SwitchSession(switch_id=1, mode=SDN, master=1, backups=backups)

    def test_loss_without_backups_goes_straight_to_legacy(self):
        s = SwitchSession(switch_id=1, mode=SDN, master=1, backups=())
        s, actions = step(s, Event(MASTER_CONNECTION_LOST))
        assert s.mode == LEGACY and s.phase == STABLE
        assert actions == ("activate_legacy_routing",)


class TestEventRules:
    """An Event checks its own kind and controller when it is built, in the
    words protocol-trace prints for a bad script."""

    @pytest.mark.parametrize("args, message", [
        (("adoptt",), "unknown event kind 'adoptt'; expected one of ['master_connection_lost', "
                      "'role_reply_reject_legacy', 'role_reply_accept', 'adopt']"),
        ((ADOPT,), "adopt event needs a controller"),
        ((REPLY_ACCEPT,), "role_reply_accept event needs a controller"),
        ((REPLY_REJECT_LEGACY, None), "role_reply_reject_legacy event needs a controller"),
    ], ids=["kind-typo", "adopt", "accept", "reject-none"])
    def test_bad_event_raises(self, args, message):
        with pytest.raises(ProtocolError, match=f"^{re.escape(message)}$"):
            Event(*args)

    @pytest.mark.parametrize("controller", [None, 3])
    def test_master_loss_builds_with_or_without_controller(self, controller):
        assert Event(MASTER_CONNECTION_LOST, controller).controller == controller

    @pytest.mark.parametrize("controller", ["x", True, 1.5])
    @pytest.mark.parametrize("kind", [ADOPT, MASTER_CONNECTION_LOST])
    def test_controller_not_a_whole_number(self, kind, controller):
        message = f"event controller must be a whole number, got {controller!r}"
        with pytest.raises(ProtocolError, match=f"^{re.escape(message)}$"):
            Event(kind, controller)

    def test_whole_float_controller_stored_as_int(self):
        e = Event(ADOPT, 2.0)
        assert type(e.controller) is int and e.controller == 2
        assert e == Event(ADOPT, 2) and e.describe() == "adopt(2)"


class TestModelCheck:
    def test_bfs_depth_6_no_invariant_violation(self):
        # SwitchSession construction raises on violation, so surviving the
        # search is the proof; spot-check the invariants anyway
        states = reachable_states(fresh(), EVENTS, max_depth=6)
        assert len(states) > 1
        for s in states:
            s.check_invariants()
            assert s.mode in (SDN, LEGACY)
            assert s.phase in (STABLE, AWAITING)

    def test_determinism(self):
        a = reachable_states(fresh(), EVENTS, max_depth=6)
        b = reachable_states(fresh(), EVENTS, max_depth=6)
        assert a == b
        s1, _ = step(fresh(), Event(MASTER_CONNECTION_LOST))
        s2, _ = step(fresh(), Event(MASTER_CONNECTION_LOST))
        assert s1 == s2


class TestProperties:
    @given(st.lists(st.sampled_from(EVENTS), max_size=12))
    def test_any_event_sequence_keeps_invariants(self, events):
        session, _ = run_script(fresh(), events)
        session.check_invariants()
        assert session.phase in (STABLE, AWAITING)

    @given(st.lists(st.sampled_from(EVENTS), max_size=8))
    def test_step_is_pure(self, events):
        session, _ = run_script(fresh(), events)
        for e in EVENTS:
            try:
                first, _ = step(session, e)
            except ProtocolError:
                continue
            second, _ = step(session, e)
            assert first == second


class TestRunScript:
    def test_loss_then_two_rejects_ends_legacy(self):
        events = [Event(MASTER_CONNECTION_LOST),
                  Event(REPLY_REJECT_LEGACY, 2),
                  Event(REPLY_REJECT_LEGACY, 3)]
        final, log = run_script(fresh(), events)
        assert final.mode == LEGACY and final.phase == STABLE
        assert len(log) == 3
        assert "activate_legacy_routing" in log[-1]

    def test_invalid_event_logged_not_fatal(self):
        events = [Event(REPLY_ACCEPT, 2), Event(MASTER_CONNECTION_LOST)]
        final, log = run_script(fresh(), events)
        assert "rejected" in log[0]
        assert final.phase == AWAITING
