"""No frame waits forever: once traffic stops, every frame of a bundled
scenario is delivered or dropped within its protocol's drain time, under
every protocol the scenario runs."""

import pytest

from bsnsim.core import US_PER_S
from bsnsim.scenario import load_scenario
from bsnsim.traffic import TrafficClass
from tests.conftest import assert_drains


@pytest.mark.parametrize("name, protocol, stop_s", [
    *[("paper_fig2", p, 10) for p in ("csma802154", "pbtdma", "smac",
                                       "direct")],
    # every normal flow's first frame, n6's at 124.5 s the last
    *[("tbw_emergency", p, 130) for p in ("tbw", "tbw_alwayson")],
    *[("bridge_inbody", p, 10) for p in ("direct", "smac")],
    ("table1_links", "direct", 10),
])
def test_every_frame_drains_once_traffic_stops(name, protocol, stop_s):
    sc = load_scenario(name)
    m = assert_drains(sc, protocol, sc.seed_base, stop_s * US_PER_S)
    assert {cls for cls, cc in m.counts.items() if cc.generated} >= {
        spec.cls for spec in sc.traffic if spec.cls is not
        TrafficClass.EMERGENCY}
    assert sum(cc.delivered for cc in m.counts.values()) > 0

