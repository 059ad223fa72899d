"""Cause nets and the interpolate / extrapolate / flank / distance operations."""

from __future__ import annotations

import random

import pytest

from actualcause import (
    ActualityError,
    DomainError,
    Event,
    NoChainError,
    NoParentsError,
    ReasoningError,
    UnknownVariableError,
    causes_of,
    cause_nets,
    direct_cause_sets,
    distance,
    extrapolate,
    flank,
    hph_causes,
    interpolate,
)
from actualcause.randmodel import random_effect, random_scenario

from conftest import make_scenario

EFFECT = Event("e", 1)


def events_of(net) -> list[str]:
    return sorted(ev.render() for ev in net.events)


@pytest.fixture()
def fork():
    # a feeds both branches of a conjunction
    return make_scenario("a=1; b=a; c=a; e=b & c")


class TestCauseNets:
    def test_chain_closure(self):
        scenario = make_scenario("a=1; b=a; e=b")
        nets = cause_nets(scenario, EFFECT)
        assert [events_of(n) for n in nets] == [["b=1"], ["a=1"]]

    def test_fork_closure_breadth_first(self, fork):
        nets = cause_nets(fork, EFFECT)
        assert [events_of(n) for n in nets] == [
            ["b=1", "c=1"],
            ["a=1", "c=1"],
            ["a=1", "b=1"],
            ["a=1"],
        ]

    def test_provenance_records_replacements(self, fork):
        deepest = cause_nets(fork, EFFECT)[-1]
        assert deepest.provenance == (
            "direct-cause set of e=1",
            "replace b=1 by {a=1}",
            "replace c=1 by {a=1}",
        )

    def test_initial_effect_rejected(self):
        scenario = make_scenario("a=1; e=a")
        with pytest.raises(NoParentsError):
            cause_nets(scenario, Event("a", 1))

    def test_general_mode_rejected(self):
        scenario = make_scenario("a=1; b=a; e=b", mode="general")
        with pytest.raises(ReasoningError):
            cause_nets(scenario, EFFECT)


class TestInterpolate:
    def test_steps_toward_effect(self, fork):
        net = cause_nets(fork, EFFECT)[-1]  # {a=1}
        stepped = interpolate(fork, net, Event("a", 1), EFFECT)
        # a sits on chains through both branches; stepping it pulls in both.
        assert events_of(stepped) == ["b=1", "c=1"]

    def test_member_adjacent_to_effect_pulls_effect(self, fork):
        net = cause_nets(fork, EFFECT)[0]  # {b=1, c=1}
        stepped = interpolate(fork, net, Event("b", 1), EFFECT)
        assert events_of(stepped) == ["c=1", "e=1"]
        assert "interpolate b=1 -> {e=1}" in stepped.provenance

    def test_effect_member_is_identity(self, fork):
        stepped = interpolate(fork, frozenset({EFFECT}), EFFECT, EFFECT)
        assert events_of(stepped) == ["e=1"]

    def test_non_member_rejected(self, fork):
        with pytest.raises(ReasoningError):
            interpolate(fork, frozenset({Event("b", 1)}), Event("c", 1), EFFECT)

    def test_member_without_a_chain_rejected(self):
        # a does not feed e, so no direct-cause chain leaves it
        scenario = make_scenario("a=0; b=1; e=b")
        net = frozenset({Event("a", 0), Event("b", 1)})
        with pytest.raises(NoChainError, match="a=0 has no direct-cause chain to e=1"):
            interpolate(scenario, net, Event("a", 0), EFFECT)

    def test_never_increases_distance(self, fork):
        for net in cause_nets(fork, EFFECT):
            before = distance(fork, net, EFFECT)
            for member in net.events:
                after = distance(
                    fork, interpolate(fork, net, member, EFFECT), EFFECT
                )
                assert after <= before


class TestExtrapolate:
    def test_steps_away_from_effect(self):
        scenario = make_scenario("a=1; b=a; e=b")
        net = cause_nets(scenario, EFFECT)[0]  # {b=1}
        moved = extrapolate(scenario, net, Event("b", 1), EFFECT)
        assert events_of(moved) == ["a=1"]
        assert distance(scenario, moved, EFFECT) > distance(scenario, net, EFFECT)

    def test_initial_member_is_identity(self, fork):
        moved = extrapolate(fork, frozenset({Event("a", 1)}), Event("a", 1), EFFECT)
        assert events_of(moved) == ["a=1"]

    def test_flank_composes_both_steps(self, fork):
        net = cause_nets(fork, EFFECT)[0]  # {b=1, c=1}
        flanked = flank(fork, net, Event("b", 1), EFFECT)
        # b steps onto the effect, which then extrapolates back out to the
        # root: the net slides around the member without losing sufficiency.
        assert events_of(flanked) == ["a=1", "c=1"]


class TestDistance:
    def test_chain_lengths(self, fork):
        assert distance(fork, cause_nets(fork, EFFECT)[0], EFFECT) == 1.0
        assert distance(fork, cause_nets(fork, EFFECT)[-1], EFFECT) == 2.0
        mixed = frozenset({Event("a", 1), Event("c", 1)})
        assert distance(fork, mixed, EFFECT) == pytest.approx(5 / 3)

    def test_effect_member_counts_zero(self, fork):
        assert distance(fork, frozenset({EFFECT}), EFFECT) == 0.0

    def test_empty_net_rejected(self, fork):
        with pytest.raises(ReasoningError):
            distance(fork, frozenset(), EFFECT)

    @pytest.mark.parametrize(
        "member, error", [(Event("a", 0), ActualityError), (Event("a", 7), DomainError)]
    )
    def test_bad_member_rejected(self, fork, member, error):
        with pytest.raises(error):
            distance(fork, frozenset({member}), EFFECT)

    def test_unreachable_member(self):
        scenario = make_scenario("a=0; b=1; e=b")
        with pytest.raises(NoChainError):
            distance(scenario, frozenset({Event("a", 0)}), EFFECT)


# Each entry point rejects a bad effect through the same check, so with the
# same error.
ENTRY_POINTS = {
    "causes_of": causes_of,
    "hph_causes": hph_causes,
    "direct_cause_sets": direct_cause_sets,
    "cause_nets": cause_nets,
    "distance": lambda scenario, effect: distance(scenario, {Event("a", 1)}, effect),
    **{
        operation.__name__: lambda scenario, effect, operation=operation: operation(
            scenario, {Event("a", 1)}, Event("a", 1), effect
        )
        for operation in (interpolate, extrapolate, flank)
    },
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize(
    "effect, error",
    [
        (Event("e", 0), ActualityError),
        (Event("e", 5), DomainError),
        (Event("zz", 1), UnknownVariableError),
    ],
)
def test_entry_points_reject_a_bad_effect_alike(entry, effect, error):
    scenario = make_scenario("a=1; b=a; e=b")
    with pytest.raises(error):
        ENTRY_POINTS[entry](scenario, effect)


@pytest.mark.parametrize("operation", [interpolate, extrapolate, flank])
@pytest.mark.parametrize(
    "member, error, message",
    [
        (Event("a", 0), ActualityError, "net member a=0 is not the actual value 1"),
        (Event("a", 7), DomainError, "value 7 outside domain (0, 1) of 'a'"),
    ],
    ids=["non-actual", "out-of-domain"],
)
def test_net_operations_reject_a_non_actual_member(operation, member, error, message):
    # before the check, interpolate turned {a=0} into {b=1}
    scenario = make_scenario("a=1; b=a; e=b")
    with pytest.raises(error) as caught:
        operation(scenario, {member}, member, EFFECT)
    assert str(caught.value) == message


class TestKnownLimitation:
    def test_extrapolation_can_leave_the_chain_graph(self):
        """Extrapolation only guarantees sufficiency, not connectivity: the
        replacement set can contain an event with no direct-cause chain to
        the effect, leaving the distance undefined afterwards.

        Reproduces verification stream model 202/74.
        """
        scenario = random_scenario(random.Random("202:74"))
        effect = random_effect(scenario)
        assert effect == Event("c", 1)
        (net,) = cause_nets(scenario, effect)
        assert events_of(net) == ["b=1"]
        moved = extrapolate(scenario, net, Event("b", 1), effect)
        assert events_of(moved) == ["a=0"]  # sufficient, but chainless
        with pytest.raises(NoChainError):
            distance(scenario, moved, effect)
