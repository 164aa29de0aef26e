"""Reno, DCTCP, and Swift congestion-control reactions."""

import pytest

from repro.metrics.collector import MetricsCollector
from repro.sim.engine import Engine
from repro.transport.base import TransportConfig
from repro.transport.dcqcn import DcqcnSender
from repro.transport.dctcp import DctcpSender
from repro.transport.reno import RenoSender
from repro.transport.swift import SwiftSender
from tests.unit.test_transport_base import StubHost, loopback


def _bare_sender(cls, engine=None, size=1_000_000, cwnd=None,
                 **config_kwargs):
    engine = engine or Engine()
    metrics = MetricsCollector()
    host = StubHost(engine, 1)
    # The runner derives Swift's target; a bare sender is handed one.
    config_kwargs.setdefault("swift_target_delay_ns", 100_000)
    config = TransportConfig(**config_kwargs)
    sender = cls(engine, host, 7, 2, size, config, metrics)
    if cwnd is not None:
        sender.cwnd = cwnd
    return sender, engine


# -- Reno -------------------------------------------------------------------------


def test_reno_slow_start_doubles_per_rtt():
    sender, _ = _bare_sender(RenoSender, cwnd=2.0)
    start = sender.cwnd
    sender.on_new_ack_cc(1460, rtt_ns=None, ece=False)
    sender.on_new_ack_cc(1460, rtt_ns=None, ece=False)
    assert sender.cwnd == start + 2  # +1 per ACKed packet


def test_reno_congestion_avoidance_linear():
    sender, _ = _bare_sender(RenoSender, cwnd=10.0)
    sender.ssthresh = 5.0  # below cwnd: CA mode
    before = sender.cwnd
    sender.on_new_ack_cc(1460, rtt_ns=None, ece=False)
    assert abs(sender.cwnd - (before + 1 / before)) < 1e-9


def test_reno_fast_retransmit_halves():
    sender, _ = _bare_sender(RenoSender, cwnd=16.0)
    sender.on_fast_retransmit_cc()
    assert sender.cwnd == 8.0
    assert sender.ssthresh == 8.0


def test_reno_rto_collapses_to_one():
    sender, _ = _bare_sender(RenoSender, cwnd=16.0)
    sender.on_rto_cc()
    assert sender.cwnd == 1.0
    assert sender.ssthresh == 8.0


def test_reno_min_ssthresh_floor():
    sender, _ = _bare_sender(RenoSender, cwnd=2.0)
    sender.on_rto_cc()
    assert sender.ssthresh == 2.0


# -- DCTCP -------------------------------------------------------------------------


def test_dctcp_is_always_ecn_capable():
    sender, _ = _bare_sender(DctcpSender)
    assert sender.ecn_capable


def test_dctcp_cut_proportional_to_alpha():
    sender, _ = _bare_sender(DctcpSender, cwnd=10.0)
    sender.alpha = 0.5
    sender.snd_una = 100_000
    sender._window_end = 0          # close the observation window now
    sender._window_acked = 10_000
    sender._window_marked = 10_000  # every byte marked
    before = sender.cwnd
    sender._end_observation_window()
    # alpha' = (1-g)*0.5 + g*1.0; cwnd *= (1 - alpha'/2)
    expected_alpha = 0.5 * (1 - 1 / 16) + 1 / 16
    assert abs(sender.alpha - expected_alpha) < 1e-9
    assert abs(sender.cwnd - before * (1 - expected_alpha / 2)) < 1e-9


def test_dctcp_no_cut_without_marks():
    sender, _ = _bare_sender(DctcpSender, cwnd=10.0)
    sender.alpha = 0.8
    sender.snd_una = 100_000
    sender._window_end = 0
    sender._window_acked = 10_000
    sender._window_marked = 0
    before = sender.cwnd
    sender._end_observation_window()
    assert sender.cwnd == before      # growth only, no reduction
    assert sender.alpha < 0.8         # alpha decays toward 0


def test_dctcp_alpha_converges_to_zero_without_marks():
    sender, _ = _bare_sender(DctcpSender)
    sender.alpha = 1.0
    for _ in range(100):
        sender._window_acked = 10_000
        sender._window_marked = 0
        sender._window_end = sender.snd_una
        sender._end_observation_window()
    assert sender.alpha < 0.01


def test_dctcp_end_to_end_with_marks_slows_down():
    engine = Engine()
    mark_all = {"on": True}

    def channel_marker(packet):
        if mark_all["on"] and packet.ecn_capable:
            packet.ecn_ce = True
        return False  # never drop

    sender, receiver, _, _, _ = loopback(engine, size=100_000,
                                         drop=channel_marker,
                                         sender_cls=DctcpSender)
    sender.start()
    engine.run()
    assert receiver.completed
    assert sender.alpha > 0.1  # alpha tracked the persistent marking


# -- Swift --------------------------------------------------------------------------


def test_swift_increases_below_target():
    sender, _ = _bare_sender(SwiftSender, cwnd=4.0,
                             swift_target_delay_ns=100_000)
    before = sender.cwnd
    sender.on_new_ack_cc(1460, rtt_ns=50_000, ece=False)
    assert sender.cwnd > before


def test_swift_decreases_above_target_once_per_rtt():
    sender, engine = _bare_sender(SwiftSender, cwnd=10.0,
                                  swift_target_delay_ns=100_000)
    sender.srtt_ns = 100_000
    before = sender.cwnd
    sender.on_new_ack_cc(1460, rtt_ns=200_000, ece=False)
    first_cut = sender.cwnd
    assert first_cut < before
    # A second over-target ACK within the same RTT must not cut again.
    sender.on_new_ack_cc(1460, rtt_ns=200_000, ece=False)
    assert sender.cwnd == first_cut


def test_swift_decrease_bounded_by_max_mdf():
    sender, _ = _bare_sender(SwiftSender, cwnd=10.0,
                             swift_target_delay_ns=10_000)
    sender.on_new_ack_cc(1460, rtt_ns=10_000_000, ece=False)  # huge RTT
    assert sender.cwnd == 10.0 * (1 - SwiftSender.MAX_MDF)  # capped


def test_swift_cwnd_can_fall_below_one():
    sender, engine = _bare_sender(SwiftSender, cwnd=1.0,
                                  swift_target_delay_ns=10_000)
    for step in range(20):
        engine.now += 10_000_000  # allow once-per-RTT decreases
        sender.on_new_ack_cc(1460, rtt_ns=1_000_000, ece=False)
    assert SwiftSender.min_cwnd <= sender.cwnd < 1.0


def test_swift_pacing_gap_below_one_packet():
    sender, _ = _bare_sender(SwiftSender, cwnd=1.0)
    sender.cwnd = 0.5
    sender.srtt_ns = 100_000
    assert sender.pacing_gap_ns() == 200_000  # rtt / cwnd
    sender.cwnd = 2.0
    assert sender.pacing_gap_ns() == 0


def test_swift_rto_single_is_md_not_reset():
    sender, _ = _bare_sender(SwiftSender, cwnd=8.0)
    sender.on_rto_cc()
    assert sender.cwnd == 4.0  # one timeout: multiplicative decrease


def test_swift_consecutive_rtos_reset_to_min():
    sender, _ = _bare_sender(SwiftSender, cwnd=8.0)
    for _ in range(SwiftSender.RETX_RESET_THRESHOLD):
        sender.on_rto_cc()
    assert sender.cwnd == SwiftSender.min_cwnd


def test_swift_ack_resets_rto_streak():
    sender, _ = _bare_sender(SwiftSender, cwnd=8.0,
                             swift_target_delay_ns=100_000)
    sender.on_rto_cc()
    sender.on_new_ack_cc(1460, rtt_ns=50_000, ece=False)
    assert sender._consecutive_rtos == 0


def test_swift_end_to_end_transfer():
    engine = Engine()
    config = TransportConfig(swift_target_delay_ns=100_000)
    sender, receiver, _, _, _ = loopback(engine, size=50_000, config=config,
                                         sender_cls=SwiftSender)
    sender.start()
    engine.run()
    assert receiver.completed


def test_swift_paced_transfer_below_one_packet():
    engine = Engine()
    config = TransportConfig(swift_target_delay_ns=30_000)
    sender, receiver, _, src, _ = loopback(engine, size=5_000,
                                           config=config,
                                           sender_cls=SwiftSender)
    sender.cwnd = 0.5
    sender.start()
    engine.run(until=5_000)
    assert len(src.sent) == 1  # pacing admits a single packet at t=0
    engine.run()
    assert receiver.completed


# -- DCQCN (its reactions live in test_pfc.py) --------------------------------------


@pytest.mark.xfail(strict=True, reason=(
    "finding, not fixed here: nothing clamps DCQCN at line rate, so a "
    "long-quiet flow's additive/hyper stages carry rate_bps past the NIC "
    "(785 Mbps on the 200 Mbps NIC in lossless-pfc seed 1) and it is "
    "effectively unpaced.  A clamp moves lossless-pfc's recorded "
    "stats_digest: it lands after ROADMAP item 4's re-record of "
    "baseline.json, as item 8's line-rate oracle"))
def test_dcqcn_rate_never_exceeds_line_rate():
    line_rate, period = 200_000_000, 50_000
    sender, engine = _bare_sender(DcqcnSender, dcqcn_rate_bps=line_rate,
                                  dcqcn_timer_ns=period)
    # Past both fast-recovery phases: the target grows every period.
    engine.run(until=4 * DcqcnSender.FAST_RECOVERY_STAGES * period)
    _name, rate_bps, _alpha = sender.cc_state()
    assert rate_bps <= line_rate
