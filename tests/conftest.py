"""Shared helpers for building small in-memory scenarios, and oracles for
the coordinator's wakeup pattern, path loss and empirical links."""

from __future__ import annotations

import copy

import pytest

from bsnsim.channel import (DEFAULT_MIN_DISTANCE_M, LinkMatrix, PathLossParams,
                            _link_success, mean_path_loss_db)
from bsnsim.scenario import Scenario, _build


def make_scenario(overrides: dict) -> Scenario:
    """Build a Scenario from a raw dict with sensible small-network defaults."""
    base = {
        "name": "test",
        "horizon_s": 10.0,
        "replications": 1,
        "seed_base": 1,
        "channels": {
            "ism": {"band": "ISM_2_4", "phy": 0, "data_rate_bps": 250000},
        },
        "channel_model": {
            "mode": "geometric",
            "pathloss": {"ism": {"pl_d0": 40.0, "d0": 0.1, "exponent": 2.0,
                                 "shadow_sigma": 0.0}},
        },
        "nodes": [
            {"id": "bnc", "site": "Waist", "kind": "bnc", "pos": [0.5, 0.5],
             "channel": "ism", "initial_j": None},
            {"id": "n1", "site": "Chest", "kind": "onbody", "pos": [0.5, 0.8],
             "channel": "ism"},
        ],
        "bnc": "bnc",
        "traffic": [],
        "protocols": {},
    }
    merged = copy.deepcopy(base)
    merged.update(copy.deepcopy(overrides))
    return _build(merged)


def pattern_awake(pattern) -> int:
    """Ticks the coordinator's pattern is awake in one hyperperiod."""
    return sum(e - s for s, e in pattern.intervals)


def pattern_covers(pattern, start: int, end: int) -> bool:
    """Whether one interval of the pattern holds all of [start, end)."""
    return any(s <= start and end <= e for s, e in pattern.intervals)


def path_loss_db(distance: float, params: PathLossParams, rng=None,
                 min_distance: float = DEFAULT_MIN_DISTANCE_M) -> float:
    """Path loss in dB at `distance`, with a shadowing draw when sigma > 0:
    the loss `Medium` applies to one transmission."""
    loss = mean_path_loss_db(distance, params, min_distance)
    if params.shadow_sigma > 0:
        if rng is None:
            raise ValueError("shadowing requires an RNG stream")
        loss += rng.gauss(0.0, params.shadow_sigma)
    return loss


def empirical_outcome(src_site: str, dst_site: str, posture: str,
                      matrix: LinkMatrix, rng) -> bool:
    """One draw against the matrix entry, as `Medium` makes it in empirical
    mode; True means success."""
    return _link_success(matrix.success_p(src_site, dst_site, posture), rng)


@pytest.fixture
def two_node_scenario():
    return make_scenario({})
