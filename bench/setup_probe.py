"""Set-up time of one workload, measured in this fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR PROTOCOL SCENARIO [SCENARIO ...]

Times the import of bsnsim, loading and validating every scenario, and the
first build_network, up to the moment its first event is dispatched. Prints
the seconds on stdout.
"""

import sys
import time


class _FirstEvent(Exception):
    pass


def main(argv: list[str]) -> None:
    src, protocol, names = argv[0], argv[1], argv[2:]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    from bsnsim.core import Simulator
    from bsnsim.runner import build_network
    from bsnsim.scenario import load_scenario

    schedule_at = Simulator.schedule_at

    def stamped(self, fire_at, kind, target, fn):
        def first():
            raise _FirstEvent(time.perf_counter())
        return schedule_at(self, fire_at, kind, target, first)

    scenarios = [load_scenario(name) for name in names]
    Simulator.schedule_at = stamped
    network, _ = build_network(scenarios[0], protocol, scenarios[0].seed_base)
    try:
        network.sim.run(scenarios[0].horizon)
    except _FirstEvent as stamp:
        print(stamp.args[0] - t0)
        return
    raise SystemExit("the first build_network scheduled no event")


if __name__ == "__main__":
    main(sys.argv[1:])
