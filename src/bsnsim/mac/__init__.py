"""MAC protocol registry: the module under `bsnsim.mac` that holds each
protocol's class. A module is imported the first time a scenario or a run
names one of its protocols, so an interpreter loads only the MACs it uses."""

from functools import cache
from importlib import import_module

PROTOCOLS = {"csma802154": "csma", "pbtdma": "tdma", "smac": "smac",
             "tbw": "tbw", "tbw_alwayson": "tbw", "direct": "direct"}


@cache
def mac_class(name: str) -> type:
    """The class whose `name` is `name`, imported on first use."""
    if name not in PROTOCOLS:
        raise ValueError(f"unknown protocol: {name!r}; "
                         f"choose from {sorted(PROTOCOLS)}")
    module = import_module(f"{__name__}.{PROTOCOLS[name]}")
    return next(cls for cls in vars(module).values()
                if isinstance(cls, type) and vars(cls).get("name") == name)
