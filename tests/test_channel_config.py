"""Unit tests for the channel protocol layer and configuration."""

import pytest

from repro.runtime.channel import ENVELOPE_BYTES, plan_send
from repro.runtime.config import CAUSAL_PROTOCOLS, FIGURE_STACKS, STACKS, ClusterConfig, StackSpec

CFG = ClusterConfig()


# --------------------------------------------------------------------- #
# channel

def test_short_mode_for_tiny_messages():
    plan = plan_send(1, CFG)
    assert plan.mode == "short"
    assert plan.handshake_latency_s == 0.0
    assert not plan.receiver_copy
    assert plan.header_bytes == ENVELOPE_BYTES


def test_eager_mode_copies_at_receiver():
    plan = plan_send(CFG.short_threshold_bytes + 1, CFG)
    assert plan.mode == "eager"
    assert plan.receiver_copy


def test_rendezvous_above_threshold():
    plan = plan_send(CFG.eager_threshold_bytes + 1, CFG)
    assert plan.mode == "rendezvous"
    assert plan.handshake_latency_s > 0
    assert plan.header_bytes == 2 * ENVELOPE_BYTES
    assert not plan.receiver_copy


def test_thresholds_are_inclusive():
    assert plan_send(CFG.short_threshold_bytes, CFG).mode == "short"
    assert plan_send(CFG.eager_threshold_bytes, CFG).mode == "eager"


# --------------------------------------------------------------------- #
# config

def test_all_figure_stacks_exist():
    for name in FIGURE_STACKS:
        assert name in STACKS


def test_causal_stacks_use_sender_based_logging():
    for name in CAUSAL_PROTOCOLS:
        assert STACKS[name].sender_based_logging
        assert STACKS[name].event_logger
        assert STACKS[f"{name}-noel"].sender_based_logging
        assert not STACKS[f"{name}-noel"].event_logger


def test_p4_has_no_daemon_and_half_duplex():
    spec = STACKS["p4"]
    assert not spec.daemon
    assert not spec.full_duplex
    assert spec.protocol == "none"


def test_vdummy_has_daemon_but_no_protocol():
    spec = STACKS["vdummy"]
    assert spec.daemon
    assert spec.protocol == "none"
    assert spec.full_duplex


def test_pessimistic_uses_event_logger():
    assert STACKS["pessimistic"].event_logger


def test_coordinated_has_no_logging():
    spec = STACKS["coordinated"]
    assert not spec.event_logger
    assert not spec.sender_based_logging


def test_with_overrides_returns_modified_copy():
    cfg2 = CFG.with_overrides(node_flops=1e9)
    assert cfg2.node_flops == 1e9
    assert CFG.node_flops != 1e9
    assert cfg2.bandwidth_bps == CFG.bandwidth_bps


def test_stack_labels():
    assert STACKS["p4"].label == "MPICH-P4"
    assert STACKS["vdummy"].label == "MPICH-Vdummy"
    assert "EL" in STACKS["vcausal"].label
    assert "no EL" in STACKS["vcausal-noel"].label


def test_is_causal_property():
    assert STACKS["manetho"].is_causal
    assert not STACKS["pessimistic"].is_causal
    assert not STACKS["vdummy"].is_causal


def test_no_implementation_selecting_knob_is_left():
    """The removed knobs chose between bit-identical implementations; a
    config that still names one must fail loudly, not be ignored."""
    import dataclasses

    assert len(dataclasses.fields(ClusterConfig)) == 53
    for knob in ("engine_coalesce", "pb_build_worklist", "delivery_fastpath",
                 "partition_ranks"):
        with pytest.raises(TypeError):
            ClusterConfig(**{knob: True})
        with pytest.raises(TypeError):
            CFG.with_overrides(**{knob: True})
