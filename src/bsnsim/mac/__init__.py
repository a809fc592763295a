"""MAC protocol registry."""

from .csma import Beacon802154Mac
from .direct import DirectMac
from .smac import SMac
from .tbw import TbwAlwaysOnMac, TbwMac
from .tdma import PbTdmaMac

PROTOCOLS = {cls.name: cls for cls in (
    Beacon802154Mac, PbTdmaMac, SMac, TbwMac, TbwAlwaysOnMac, DirectMac)}


def mac_class(name: str):
    try:
        return PROTOCOLS[name]
    except KeyError:
        raise ValueError(f"unknown protocol: {name!r}; "
                         f"choose from {sorted(PROTOCOLS)}") from None
