"""The one half-duplex rule: a radio cannot send while it sends. A step due
on a transmitting radio waits in `Radio.when_free` for the transmission to
end, and so does a switch asked for with `Radio.set_state`; held steps run
in order, each after any transmission the one before starts. A step held
for an ended session, or on a radio that dies, sends nothing."""

from hypothesis import example, given, settings, strategies as st

from bsnsim.frames import Frame, FrameKind
from bsnsim.runner import build_network
from bsnsim.traffic import TrafficClass
from tests.conftest import make_scenario

BEACON = FrameKind.BEACON


def _direct_network():
    """bnc and n1 on one channel under the direct MAC, with a transmission
    log; n1's data radio listens."""
    net, _macs = build_network(make_scenario({}), "direct", seed=1,
                               keep_tx_log=True)
    return net, net.nodes["n1"].radios["data"]


def _sent_by(net, node_id):
    """(start, end, kind) of each logged transmission of a node, in order."""
    return [(start, end, kind) for start, end, _ch, nid, kind, _dst, _res
            in net.medium.tx_log if nid == node_id]


def _beacon(radio, nbytes):
    return lambda: radio.medium.begin_tx(
        radio, Frame(BEACON, radio.nid, None, nbytes))


def test_a_free_radio_runs_the_step_at_once():
    net, radio = _direct_network()
    ran = []
    radio.when_free(lambda: ran.append(net.sim.now))
    assert ran == [0]


def test_held_sends_go_out_in_order_one_after_another_at_tx_end():
    net, radio = _direct_network()
    first = radio.medium.begin_tx(radio, Frame(BEACON, "n1", None, 40))
    ran = []
    for nbytes in (10, 20, 30):
        radio.when_free(_beacon(radio, nbytes))
    # a step that sends nothing does not hold up the ones behind it
    radio.when_free(lambda: ran.append(net.sim.now))
    radio.when_free(_beacon(radio, 5))
    assert radio.state == "tx" and len(_sent_by(net, "n1")) == 0
    net.sim.run(100_000)
    sent = _sent_by(net, "n1")
    assert [end - start for start, end, _kind in sent] == [
        n * 8 * 4 for n in (40, 10, 20, 30, 5)]  # 250 kb/s: 32 us a byte
    assert sent[0][0] == first.start
    for (_s, end, _k), (start, _e, _kk) in zip(sent, sent[1:]):
        assert start == end  # each at the end of the one before
    assert ran == [sent[3][1]]  # the bookkeeping step ran at the 30-byte end
    assert radio.state == "listen"


def test_a_held_send_of_an_ended_session_sends_nothing():
    for end_session in (False, True):
        net, radio = _direct_network()
        mac = net.nodes["n1"].mac
        mac.retry_limit = 0  # bnc's direct MAC never acks: one attempt
        mac.serve(net.new_mpdu("n1", "bnc", TrafficClass.NORMAL_HIGH))
        radio.medium.begin_tx(radio, Frame(BEACON, "n1", None, 40))
        mac.send_acked(lambda ok, reason: None)
        if end_session:
            mac.new_session()
        net.sim.run(10_000)
        kinds = [kind for _s, _e, kind in _sent_by(net, "n1")]
        assert kinds == ([BEACON] if end_session
                         else [BEACON, FrameKind.DATA])


def test_a_radio_that_dies_sends_none_of_its_held_steps():
    net, radio = _direct_network()
    node, mac = net.nodes["n1"], net.nodes["n1"].mac
    radio.medium.begin_tx(radio, Frame(BEACON, "n1", None, 100))
    for _ in range(3):  # the direct MAC's sends wait behind the beacon
        mac.enqueue(net.new_mpdu("n1", "bnc", TrafficClass.NORMAL_HIGH))
    radio.when_free(_beacon(radio, 10))
    net.sim.schedule_at(1_000, "test_death", node.target, node._die)
    net.sim.run(100_000)
    assert node.death_time == 1_000
    assert _sent_by(net, "n1") == []  # the aborted beacon is not logged
    assert radio.state == "sleep"
    # the three frames are still queued: in flight, and conserved
    net.metrics.finalize(mac.pending_frames())
    cc = net.metrics.counts[TrafficClass.NORMAL_HIGH]
    assert (cc.generated, cc.dropped, cc.in_flight) == (3, 0, 3)


_STEPS = st.lists(st.one_of(
    st.tuples(st.just("send"), st.integers(5, 128)),
    st.tuples(st.just("switch"), st.sampled_from(("sleep", "listen", "rx"))),
    st.tuples(st.just("gap"), st.integers(0, 5_000))), max_size=30)


@settings(deadline=None)
@given(_STEPS)
# a sleep held behind a held send applies when that send's frame ends
@example([("send", 40), ("send", 10), ("switch", "sleep")])
def test_no_radio_leaves_tx_before_its_frame_ends(steps):
    net, radio = _direct_network()
    asked = "listen"  # the state the radio should end in
    for op, arg in steps:
        if op == "send":
            radio.when_free(_beacon(radio, arg))
            asked = "listen"  # where a frame's end leaves the radio
        elif op == "switch":
            radio.set_state(arg)
            asked = arg
        else:
            net.sim.run(net.sim.now + arg)
    net.sim.run(net.sim.now + 30 * 128 * 32)  # every held frame has ended
    net.nodes["n1"].finalize()
    sent = _sent_by(net, "n1")
    assert radio.per_state_ticks.get("tx", 0) == sum(e - s for s, e, _k in sent)
    assert radio.state == asked
