"""Path loss, CCA and delivery on the medium, empirical links, the medium's
interference gate."""

import random

import pytest
from hypothesis import given, strategies as st

from bsnsim.channel import (DEFAULT_PATHLOSS, MICROWAVE_PASS_PROBABILITY,
                            DeliveryOutcome, LinkMatrix, Medium,
                            PathLossParams, Position, rx_power_dbm)
from bsnsim.core import Simulator, substream_seed
from bsnsim.frames import Frame, FrameKind
from bsnsim.node import Node, PowerProfile
from tests.conftest import (empirical_outcome, gated_outcomes, make_scenario,
                            path_loss_db)


def test_reference_distance_identity():
    params = PathLossParams(pl_d0=40.0, d0=0.1, exponent=3.38, shadow_sigma=0.0)
    assert path_loss_db(0.1, params) == pytest.approx(40.0)


def test_hand_computed_log_distance_value():
    # 40 + 10*2*log10(1.0/0.1) = 40 + 20 = 60 dB
    params = PathLossParams(pl_d0=40.0, d0=0.1, exponent=2.0, shadow_sigma=0.0)
    assert path_loss_db(1.0, params) == pytest.approx(60.0)


def test_shadowing_reproducible_across_runs():
    params = PathLossParams(pl_d0=40.0, d0=0.1, exponent=2.0, shadow_sigma=4.0)
    a = path_loss_db(0.5, params, random.Random(99))
    b = path_loss_db(0.5, params, random.Random(99))
    assert a == b
    c = path_loss_db(0.5, params, random.Random(100))
    assert a != c


def test_degenerate_geometry_rejected():
    params = PathLossParams(pl_d0=40.0, d0=0.1, exponent=2.0)
    with pytest.raises(ValueError, match="degenerate geometry"):
        path_loss_db(0.001, params)


@given(st.floats(min_value=0.02, max_value=10.0),
       st.floats(min_value=0.02, max_value=10.0))
def test_zero_sigma_loss_strictly_increases_with_distance(d1, d2):
    params = PathLossParams(pl_d0=40.0, d0=0.1, exponent=3.38, shadow_sigma=0.0)
    if d1 == d2:
        return
    lo, hi = sorted((d1, d2))
    assert path_loss_db(lo, params) < path_loss_db(hi, params)


def test_rx_power_arithmetic():
    assert rx_power_dbm(-5.0, 0.0) == -5.0
    assert rx_power_dbm(0.0, 60.0) == -60.0
    assert rx_power_dbm(-5.0, 90.0) == -95.0


# CCA and delivery on the medium ---------------------------------------------

IN_BODY = PathLossParams(pl_d0=46.0, d0=0.05, exponent=2.0, shadow_sigma=0.0)
FLAT = PathLossParams(pl_d0=40.0, d0=0.1, exponent=2.0, shadow_sigma=0.0)
MICS, ISM = "mics", "ism"  # the channel keys of `_medium`
PROFILE = PowerProfile(sleep_mw=0.001, idle_listen_mw=54.0, rx_mw=54.0,
                       tx_mw=30.0)


def _medium(pathloss=None, seed=0, rates=(250_000, 250_000)):
    """A Medium built from a scenario with an ism and a mics channel, at
    `rates`; `pathloss` maps channel keys to their entries."""
    if pathloss is None:
        pathloss = {"mics": IN_BODY, "ism": FLAT}
    scenario = make_scenario({
        "channels": {"ism": {"band": "ISM_2_4", "data_rate_bps": rates[0]},
                     "mics": {"band": "MICS_402_405",
                              "data_rate_bps": rates[1]}},
        "channel_model": {"pathloss": {key: p._asdict()
                                       for key, p in pathloss.items()}}})
    return Medium(Simulator(master_seed=seed), scenario)


def _radio(medium, node_id, x, y=0.0, channel=ISM, state="listen"):
    node = Node(medium.sim, medium, node_id, position=Position(x, y),
                profile=PROFILE, initial_j=None)
    return node.add_radio("data", channel, initial_state=state)


def _send(medium, radio, dst):
    """Unicast a 4096-us frame now; the list receives its outcome."""
    outcomes = []
    frame = Frame(FrameKind.DATA, radio.nid, dst, 128)
    medium.begin_tx(radio, frame, on_result=outcomes.append)
    return outcomes


def _cca_at_100us(medium, listener):
    medium.sim.run(100)
    return medium.cca_busy(listener, 100)


def test_cca_idle_with_no_transmissions():
    medium = _medium()
    assert not _cca_at_100us(medium, _radio(medium, "l", 3.0, channel=MICS))


def test_cca_blindness_at_three_meters():
    # loss(3 m) = 46 + 20*log10(60) = 81.56 dB >= 81; rx = -86.56 < -85
    loss = path_loss_db(3.0, IN_BODY)
    assert loss >= 81.0
    assert rx_power_dbm(-5.0, loss) < -85.0
    medium = _medium()
    listener = _radio(medium, "l", 3.0, channel=MICS)
    _send(medium, _radio(medium, "s", 0.0, channel=MICS), "l")
    assert not _cca_at_100us(medium, listener)


def test_cca_same_piconet_within_half_meter_is_busy():
    loss = path_loss_db(0.5, IN_BODY)  # 66 dB -> rx -71 dBm
    assert rx_power_dbm(-5.0, loss) >= -85.0
    medium = _medium()
    listener = _radio(medium, "l", 0.5, channel=MICS)
    _send(medium, _radio(medium, "s", 0.0, channel=MICS), "l")
    assert _cca_at_100us(medium, listener)


def test_cca_cross_channel_invisibility():
    medium = _medium()
    listener = _radio(medium, "l", 0.05, channel=ISM)
    sender = _radio(medium, "s", 0.0, channel=MICS)
    sender.node.tx_power_dbm = 30.0  # absurdly strong
    _send(medium, sender, "x")
    assert not _cca_at_100us(medium, listener)


def test_single_transmitter_ideal_channel_delivered():
    medium = _medium()
    _radio(medium, "rx", 0.5)
    out = _send(medium, _radio(medium, "tx", 0.0), "rx")
    medium.sim.run(10_000)
    assert out == [DeliveryOutcome.DELIVERED]


def test_receiver_asleep_for_airtime_misses():
    medium = _medium()
    _radio(medium, "rx", 0.5, state="sleep")
    asleep = _send(medium, _radio(medium, "tx", 0.0), "rx")
    medium.sim.run(10_000)
    assert asleep == [DeliveryOutcome.OFF_CHANNEL]

    medium = _medium()
    receiver = _radio(medium, "rx", 0.5, state="sleep")
    late = _send(medium, _radio(medium, "tx", 0.0), "rx")
    medium.sim.schedule_at(10, "wake", "rx",
                           lambda: receiver.set_state("listen"))
    medium.sim.run(10_000)  # woke after the frame started
    assert late == [DeliveryOutcome.OFF_CHANNEL]


def test_symmetric_collision_kills_both():
    medium = _medium()
    _radio(medium, "rx", 0.0)  # equidistant: equal powers, inside capture margin
    out_a = _send(medium, _radio(medium, "a", 0.0, 0.5), "rx")
    out_b = _send(medium, _radio(medium, "b", 0.0, -0.5), "rx")
    medium.sim.run(10_000)
    assert out_a == [DeliveryOutcome.COLLIDED]
    assert out_b == [DeliveryOutcome.COLLIDED]


def test_capture_lets_much_stronger_frame_through():
    medium = _medium()
    _radio(medium, "rx", 0.0)
    strong = _send(medium, _radio(medium, "strong", 0.0, 0.11), "rx")
    weak = _send(medium, _radio(medium, "weak", 0.0, 3.0), "rx")
    medium.sim.run(10_000)
    assert strong == [DeliveryOutcome.DELIVERED]
    assert weak == [DeliveryOutcome.COLLIDED]


def test_a_frame_overlapping_the_nodes_own_collides_at_its_other_radio():
    # rx's second radio on the channel sends while its first receives; the
    # overlap is judged as in empirical mode, with no 0 m link to look up
    medium = _medium()
    node = Node(medium.sim, medium, "rx", position=Position(0.5, 0.0),
                profile=PROFILE, initial_j=None)
    node.add_radio("data", ISM, initial_state="listen")
    own = node.add_radio("data2", ISM)
    out = _send(medium, _radio(medium, "tx", 0.0), "rx")
    medium.sim.schedule_at(100, "own_tx", "rx",
                           lambda: _send(medium, own, "x"))
    medium.sim.run(10_000)
    assert out == [DeliveryOutcome.COLLIDED]


def test_below_sensitivity():
    medium = _medium()  # sensitivity -95 dBm
    _radio(medium, "rx", 400.0)  # loss = 40 + 20*log10(4000) = 112 dB
    out = _send(medium, _radio(medium, "tx", 0.0), "rx")
    medium.sim.run(10_000)
    assert out == [DeliveryOutcome.BELOW_SENSITIVITY]


# Empirical link matrix ----------------------------------------------------

def _table1():
    from bsnsim.scenario import bundled_data_path
    return LinkMatrix.from_csv(bundled_data_path("table1.csv"))


def test_link_matrix_paper_entries():
    m = _table1()
    assert m.success_p("Chest", "Waist", "standing") == 0.99
    assert m.success_p("Waist", "Ankle", "standing") == 0.50
    assert m.success_p("Waist", "Ankle", "sitting") == 0.47
    assert m.success_p("Ankle", "Waist", "sitting") == 0.27
    assert m.success_p("Waist", "Chest", "standing") == 1.00
    # missing entry means no link
    assert m.success_p("Chest", "Chest", "standing") == 0.0


def test_link_matrix_csv_rejects_bad_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("posture,source,sink,rate\nstanding,a,b,0.5\n")
    with pytest.raises(ValueError, match="header"):
        LinkMatrix.from_csv(p)


def test_empirical_outcome_converges_to_matrix_entry():
    m = _table1()
    rng = random.Random(5)
    n = 100_000
    hits = sum(empirical_outcome("Waist", "Ankle", "standing", m, rng)
               for _ in range(n))
    assert abs(hits / n - 0.50) < 0.01
    hits = sum(empirical_outcome("Ankle", "Waist", "sitting", m, rng)
               for _ in range(n))
    assert abs(hits / n - 0.27) < 0.01


def test_empirical_outcome_edge_probabilities():
    m = LinkMatrix({("standing", "A", "B"): 1.0})
    rng = random.Random(1)
    assert all(empirical_outcome("A", "B", "standing", m, rng)
               for _ in range(1000))
    assert not any(empirical_outcome("B", "A", "standing", m, rng)
                   for _ in range(1000))


# Interference gate ---------------------------------------------------------

def test_interference_gate_disabled_always_passes():
    outcomes = gated_outcomes(10_000, {"enabled": False, "pass_probability": 0.0})
    assert set(outcomes) == {DeliveryOutcome.DELIVERED}


def test_interference_gate_pass_rate():
    # a reception passes when the receiver's `intf:` draw is below the pass
    # probability, one draw per reception (test 04 checks the rate itself)
    outcomes = gated_outcomes(2_000, {"enabled": True}, seed=11)
    oracle = random.Random(substream_seed(11, "intf:bnc"))
    assert outcomes == [DeliveryOutcome.CORRUPTED
                        if oracle.random() >= MICROWAVE_PASS_PROBABILITY
                        else DeliveryOutcome.DELIVERED for _ in outcomes]
    assert DeliveryOutcome.CORRUPTED in outcomes


def test_interference_gate_probability_one_boundary():
    outcomes = gated_outcomes(1_000, {"enabled": True, "pass_probability": 1.0},
                              seed=4)
    assert set(outcomes) == {DeliveryOutcome.DELIVERED}


def test_airtime_of_128_byte_frame_at_250kbps():
    assert _medium().airtime_ticks(128, ISM) == 4096


def test_each_channel_takes_its_own_rate_and_path_loss():
    medium = _medium({"ism": FLAT}, rates=(250_000, 1_000_000))
    sent = []
    for channel in (ISM, MICS):
        radio = _radio(medium, f"tx-{channel}", 0.0, channel=channel)
        sent.append(medium.begin_tx(radio, Frame(FrameKind.DATA, radio.nid,
                                                 None, 128)))
    assert [tx.end - tx.start for tx in sent] == [4096, 1024]
    assert medium.airtime_ticks(128, MICS) == 1024
    # mics names no path loss, so it takes the default
    assert [tx.radio.chan_state.params for tx in sent] == [FLAT,
                                                           DEFAULT_PATHLOSS]


# Per-pair link records --------------------------------------------------------

SHADOWED = PathLossParams(pl_d0=40.0, d0=0.1, exponent=2.0, shadow_sigma=4.0)


def _shadowed_medium(seed):
    return _medium({"ism": SHADOWED}, seed)


def _send_at(medium, at, radio, dst, sent, airtime=None):
    """Unicast a 128-byte frame at tick `at`; `sent` receives its
    Transmission once it is on the air."""
    def go():
        frame = Frame(FrameKind.DATA, radio.nid, dst, 128)
        sent.append(medium.begin_tx(radio, frame, airtime=airtime))
    medium.sim.schedule_at(at, "send", radio.nid, go)


def test_shadowed_link_draws_in_stream_order():
    seed = 17
    medium = _shadowed_medium(seed)
    a = _radio(medium, "a", 0.0)
    b = _radio(medium, "b", 0.7)
    sent = []
    for k in range(6):
        _send_at(medium, k * 5_000, a, "b", sent)
    medium.sim.run(40_000)
    oracle = random.Random(substream_seed(seed, "shadow:a:b"))
    expected = [path_loss_db(0.7, SHADOWED, oracle) for _ in range(6)]
    assert [tx.loss_cache[b] for tx in sent] == expected


def test_interferer_loss_drawn_once_per_receiver():
    seed = 3
    medium = _shadowed_medium(seed)
    a = _radio(medium, "a", 0.0)
    b = _radio(medium, "b", 0.3)
    i = _radio(medium, "i", 5.0)
    _radio(medium, "x", 6.0)
    # one long frame to x overlaps three receptions at b
    long_tx, sent = [], []
    _send_at(medium, 0, i, "x", long_tx, airtime=20_000)
    for k in range(3):
        _send_at(medium, 1_000 + k * 5_000, a, "b", sent)
    medium.sim.run(40_000)
    oracle = random.Random(substream_seed(seed, "shadow:i:b"))
    expected = path_loss_db(i.position.distance_to(b.position), SHADOWED,
                            oracle)
    assert len(sent) == 3
    assert long_tx[0].loss_cache[b] == expected
    # the stream moved by exactly that one draw
    assert medium.sim.stream("shadow:i:b").getstate() == oracle.getstate()


def test_degenerate_geometry_rejected_on_the_medium():
    medium = _medium()
    _radio(medium, "rx", 0.0)
    _send(medium, _radio(medium, "tx", 0.0), "rx")
    with pytest.raises(ValueError, match="degenerate geometry"):
        medium.sim.run(10_000)
