"""Scenario files: schema, validation, tick conversion, bundled scenarios.

A scenario is one JSON document. Loading materializes every default into a
normalized dict (so load -> serialize -> load is a fixed point), converts
durations to integer ticks, and cross-validates topology, bridge
interfaces, and MTU consistency. Protocol parameters keep the keys and
units written: each MAC class reads and checks its own (`settings`).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from importlib import resources
from pathlib import Path
from typing import Optional

from .bridging import ChannelMapRecord, ConnectionType, validate_bridge
from .channel import (DEFAULT_MIN_DISTANCE_M, DEFAULT_PATHLOSS,
                      MICROWAVE_PASS_PROBABILITY, Band, ChannelId, LinkMatrix,
                      PathLossParams, Position)
from .core import SimTime, ticks_from_seconds
from .mac import PROTOCOLS
from .node import PowerProfile
from .traffic import TrafficClass, TrafficSpec
from .wakeup import WakeupEntry


class ScenarioError(ValueError):
    """Validation failure with a field-path diagnostic."""


@dataclass
class NodeSpec:
    id: str
    site: str
    kind: str                  # inbody | onbody | bnc
    position: Position
    channel: str               # channel key
    initial_j: Optional[float]
    tx_power_dbm: float
    profile: Optional[str] = None


@dataclass
class Scenario:
    name: str
    description: str
    horizon: SimTime
    replications: int
    seed_base: int
    channels: dict[str, ChannelId]
    channel_cfg: dict[str, dict]
    wakeup_channel: Optional[str]
    channel_model: dict
    pathloss: dict[str, PathLossParams]
    power_profiles: dict[str, PowerProfile]
    protocol_profiles: dict[str, str]
    nodes: list[NodeSpec]
    bnc: str
    queue_capacity: int
    traffic: list[TrafficSpec]
    protocols: dict[str, dict]
    wakeup_table: list[WakeupEntry]
    on_demand: list[dict]
    channel_map: list[ChannelMapRecord]
    bridge: Optional[dict]
    link_matrix: Optional[LinkMatrix]
    normalized: dict = field(repr=False, default_factory=dict)

    def seeds(self, reps: Optional[int] = None) -> list[int]:
        n = self.replications if reps is None else reps
        return [self.seed_base + i for i in range(n)]

    def node(self, node_id: str) -> NodeSpec:
        for n in self.nodes:
            if n.id == node_id:
                return n
        raise KeyError(node_id)

    def channel_id(self, key: str) -> ChannelId:
        return self.channels[key]

    def channel_key(self, cid: ChannelId) -> str:
        for key, val in self.channels.items():
            if val == cid:
                return key
        raise KeyError(cid)

    def serialize(self) -> str:
        return json.dumps(self.normalized, sort_keys=True, indent=2) + "\n"


_DEFAULT_PROFILES = {
    "nrf2401": {"sleep_mw": 0.001, "idle_listen_mw": 54.0, "rx_mw": 54.0,
                "tx_mw": 26.0, "wakeup_rx_uw": 50.0},
    "cc2420": {"sleep_mw": 0.001, "idle_listen_mw": 56.0, "rx_mw": 56.0,
               "tx_mw": 31.0, "wakeup_rx_uw": 50.0},
}


def bundled_scenario_path(name: str) -> Path:
    return Path(str(resources.files("bsnsim").joinpath(
        f"data/scenarios/{name}.json")))


def bundled_data_path(name: str) -> Path:
    return Path(str(resources.files("bsnsim").joinpath(f"data/{name}")))


def resolve_scenario_path(spec: str) -> Path:
    """A filesystem path, or the name of a bundled scenario."""
    p = Path(spec)
    if p.exists():
        return p
    bundled = bundled_scenario_path(spec)
    if bundled.exists():
        return bundled
    raise ScenarioError(f"scenario not found: {spec}")


def load_scenario(path_or_name) -> Scenario:
    path = resolve_scenario_path(str(path_or_name))
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: parse error: {exc}") from exc
    return _build(raw, source=str(path))


def _req(d: dict, key: str, path: str):
    if key not in d:
        raise ScenarioError(f"{path}.{key}: required field missing")
    return d[key]


def _build(raw: dict, source: str = "<dict>") -> Scenario:
    norm: dict = {}
    norm["name"] = raw.get("name", "unnamed")
    norm["description"] = raw.get("description", "")
    norm["horizon_s"] = float(raw.get("horizon_s", 60.0))
    norm["replications"] = int(raw.get("replications", 1))
    norm["seed_base"] = int(raw.get("seed_base", 1))

    # channels ------------------------------------------------------------
    channels: dict[str, ChannelId] = {}
    channel_cfg: dict[str, dict] = {}
    norm["channels"] = {}
    for key, cfg in _req(raw, "channels", "scenario").items():
        try:
            band = Band(cfg["band"])
        except (KeyError, ValueError):
            raise ScenarioError(f"channels.{key}.band: unknown band "
                                f"{cfg.get('band')!r}") from None
        cc = {"band": band.value, "phy": int(cfg.get("phy", 0)),
              "data_rate_bps": int(cfg.get("data_rate_bps", 250_000)),
              "mtu_bytes": int(cfg.get("mtu_bytes", 128))}
        channels[key] = ChannelId(band, cc["phy"])
        channel_cfg[key] = cc
        norm["channels"][key] = cc
    norm["wakeup_channel"] = raw.get("wakeup_channel")
    if norm["wakeup_channel"] is not None and norm["wakeup_channel"] not in channels:
        raise ScenarioError(f"wakeup_channel: unknown channel key "
                            f"{norm['wakeup_channel']!r}")

    # channel model ---------------------------------------------------------
    cm = dict(raw.get("channel_model", {}))
    mode = cm.get("mode", "geometric")
    if mode not in ("geometric", "empirical"):
        raise ScenarioError(f"channel_model.mode: must be geometric or empirical")
    pathloss: dict[str, PathLossParams] = {}
    norm_pl = {}
    for key, p in cm.get("pathloss", {}).items():
        if key not in channels:
            raise ScenarioError(f"channel_model.pathloss.{key}: unknown channel")
        merged = {**asdict(DEFAULT_PATHLOSS), **p}
        try:
            pathloss[key] = PathLossParams(**merged)
        except ValueError as exc:
            raise ScenarioError(f"channel_model.pathloss.{key}: {exc}") from exc
        norm_pl[key] = merged
    interference = {"enabled": False,
                    "pass_probability": MICROWAVE_PASS_PROBABILITY,
                    **cm.get("interference", {})}
    norm["channel_model"] = {
        "mode": mode,
        "pathloss": norm_pl,
        "capture_margin_db": float(cm.get("capture_margin_db", 10.0)),
        "sensitivity_dbm": float(cm.get("sensitivity_dbm", -95.0)),
        "cca_threshold_dbm": float(cm.get("cca_threshold_dbm", -85.0)),
        "min_distance_m": float(cm.get("min_distance_m", DEFAULT_MIN_DISTANCE_M)),
        "posture": cm.get("posture", "standing"),
        "link_matrix_csv": cm.get("link_matrix_csv"),
        "interference": interference,
    }
    matrix_name = norm["channel_model"]["link_matrix_csv"]
    if mode == "empirical" and not matrix_name:
        raise ScenarioError("channel_model.link_matrix_csv: required in "
                            "empirical mode")
    link_matrix = _load_link_matrix(matrix_name) if matrix_name else None

    # power profiles ----------------------------------------------------------
    prof_raw = {**_DEFAULT_PROFILES, **raw.get("power_profiles", {})}
    profiles = {}
    norm["power_profiles"] = {}
    for key, p in prof_raw.items():
        try:
            profiles[key] = PowerProfile(**p)
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"power_profiles.{key}: {exc}") from exc
        norm["power_profiles"][key] = dict(p)
    protocol_profiles = {name: cls.profile for name, cls in PROTOCOLS.items()}
    protocol_profiles.update(raw.get("protocol_profiles", {}))
    for proto, key in protocol_profiles.items():
        if key not in profiles:
            raise ScenarioError(f"protocol_profiles.{proto}: unknown profile "
                                f"{key!r}")
    norm["protocol_profiles"] = protocol_profiles

    # nodes -------------------------------------------------------------------
    nodes: list[NodeSpec] = []
    norm["nodes"] = []
    ids = set()
    for i, n in enumerate(_req(raw, "nodes", "scenario")):
        path = f"nodes[{i}]"
        nid = _req(n, "id", path)
        if nid in ids:
            raise ScenarioError(f"{path}.id: duplicate node id {nid!r}")
        ids.add(nid)
        kind = n.get("kind", "onbody")
        if kind not in ("inbody", "onbody", "bnc"):
            raise ScenarioError(f"{path}.kind: must be inbody, onbody or bnc")
        chan = _req(n, "channel", path)
        if chan not in channels:
            raise ScenarioError(f"{path}.channel: unknown channel {chan!r}")
        pos = n.get("pos", [0.0, 0.0, 0.0])
        nn = {"id": nid, "site": n.get("site", ""), "kind": kind,
              "pos": [float(pos[0]), float(pos[1]),
                      float(pos[2]) if len(pos) > 2 else 0.0],
              "channel": chan,
              "initial_j": n.get("initial_j", 5.0),
              "tx_power_dbm": float(n.get("tx_power_dbm", -5.0)),
              "profile": n.get("profile")}
        if nn["profile"] is not None and nn["profile"] not in profiles:
            raise ScenarioError(f"{path}.profile: unknown profile")
        norm["nodes"].append(nn)
        nodes.append(NodeSpec(id=nid, site=nn["site"], kind=kind,
                              position=Position(*nn["pos"]),
                              channel=chan, initial_j=nn["initial_j"],
                              tx_power_dbm=nn["tx_power_dbm"],
                              profile=nn["profile"]))
    if mode == "geometric":
        # path loss is undefined this close; any two nodes may share a channel
        min_d = norm["channel_model"]["min_distance_m"]
        for i, a in enumerate(nodes):
            for b in nodes[:i]:
                d = a.position.distance_to(b.position)
                if d < min_d:
                    raise ScenarioError(
                        f"nodes[{i}].pos: {d} m from {b.id!r}, closer than "
                        f"channel_model.min_distance_m ({min_d})")
    bnc = _req(raw, "bnc", "scenario")
    bnc_nodes = [n for n in nodes if n.kind == "bnc"]
    if len(bnc_nodes) != 1 or bnc_nodes[0].id != bnc:
        raise ScenarioError("bnc: scenario needs exactly one node of kind "
                            "'bnc' matching the bnc field")
    norm["bnc"] = bnc
    norm["queue_capacity"] = int(raw.get("queue_capacity", 16))

    # traffic -------------------------------------------------------------
    traffic: list[TrafficSpec] = []
    norm["traffic"] = []
    for i, t in enumerate(raw.get("traffic", [])):
        path = f"traffic[{i}]"
        node_id = _req(t, "node", path)
        if node_id not in ids:
            raise ScenarioError(f"{path}.node: unknown node {node_id!r}")
        try:
            cls = TrafficClass(_req(t, "class", path))
        except ValueError:
            raise ScenarioError(f"{path}.class: unknown class "
                                f"{t.get('class')!r}") from None
        dst = t.get("dst", bnc)
        if dst not in ids:
            raise ScenarioError(f"{path}.dst: unknown node {dst!r}")
        tt = {"node": node_id, "class": cls.value,
              "payload_bytes": int(t.get("payload_bytes", 128)),
              "period_s": t.get("period_s"),
              "rate_per_s": float(t.get("rate_per_s", 0.0)),
              "offset_s": float(t.get("offset_s", 0.0)),
              "dst": dst}
        norm["traffic"].append(tt)
        try:
            traffic.append(TrafficSpec(
                node=node_id, cls=cls, payload_bytes=tt["payload_bytes"],
                period=(ticks_from_seconds(tt["period_s"])
                        if tt["period_s"] is not None else None),
                rate_per_s=tt["rate_per_s"],
                start_offset=ticks_from_seconds(tt["offset_s"]),
                dst=dst))
        except ValueError as exc:
            raise ScenarioError(f"{path}: {exc}") from exc

    norm["protocols"] = {}
    for name, params in raw.get("protocols", {}).items():
        if name not in PROTOCOLS:
            raise ScenarioError(f"protocols.{name}: unknown protocol")
        for key in params:
            if key not in PROTOCOLS[name].params:
                raise ScenarioError(f"protocols.{name}.{key}: unknown parameter")
        norm["protocols"][name] = dict(params)

    # wakeup table ----------------------------------------------------------
    wakeup_table: list[WakeupEntry] = []
    norm["wakeup_table"] = []
    for i, w in enumerate(raw.get("wakeup_table", [])):
        path = f"wakeup_table[{i}]"
        node_id = _req(w, "node", path)
        if node_id not in ids:
            raise ScenarioError(f"{path}.node: unknown node {node_id!r}")
        cls = TrafficClass(w.get("class", "NormalMedium"))
        ww = {"node": node_id, "class": cls.value,
              "period_s": float(_req(w, "period_s", path)),
              "offset_s": float(w.get("offset_s", 0.0)),
              "window_ms": float(_req(w, "window_ms", path))}
        norm["wakeup_table"].append(ww)
        try:
            wakeup_table.append(WakeupEntry(
                node=node_id, cls=cls,
                period=ticks_from_seconds(ww["period_s"]),
                offset=ticks_from_seconds(ww["offset_s"]),
                window=ticks_from_seconds(ww["window_ms"] / 1000.0)))
        except ValueError as exc:
            raise ScenarioError(f"{path}: {exc}") from exc

    # on demand ------------------------------------------------------------
    norm["on_demand"] = []
    for i, od in enumerate(raw.get("on_demand", [])):
        path = f"on_demand[{i}]"
        target = _req(od, "target", path)
        if target not in ids:
            raise ScenarioError(f"{path}.target: unknown node {target!r}")
        mode = od.get("mode", "NonContinuous")
        if mode not in ("Continuous", "NonContinuous"):
            raise ScenarioError(f"{path}.mode: Continuous or NonContinuous")
        addressing = od.get("addressing", "Tone")
        if addressing not in ("Tone", "Broadcast"):
            raise ScenarioError(f"{path}.addressing: Tone or Broadcast")
        norm["on_demand"].append({
            "at_s": float(_req(od, "at_s", path)), "target": target,
            "mode": mode, "addressing": addressing,
            "duration_s": float(od.get("duration_s", 0.0)),
            "period_s": float(od.get("period_s", 1.0))})

    # channel map + bridge ---------------------------------------------------
    inbody = {n.id for n in nodes if n.kind == "inbody"}
    bridge_raw = raw.get("bridge")
    bridge = None
    if bridge_raw is not None:
        bnode = _req(bridge_raw, "node", "bridge")
        if bnode not in ids:
            raise ScenarioError(f"bridge.node: unknown node {bnode!r}")
        ifaces = _req(bridge_raw, "interfaces", "bridge")
        for k in ifaces:
            if k not in channels:
                raise ScenarioError(f"bridge.interfaces: unknown channel {k!r}")
        try:
            validate_bridge([channels[k] for k in ifaces])
        except ValueError as exc:
            raise ScenarioError(f"bridge.interfaces: {exc}") from exc
        mtus = {channel_cfg[k]["mtu_bytes"] for k in ifaces}
        if len(mtus) > 1:
            raise ScenarioError("bridge.interfaces: differing MTUs across "
                                "bridged channels are not supported")
        bridge = {"node": bnode, "interfaces": list(ifaces),
                  "store_capacity": int(bridge_raw.get("store_capacity", 16))}
    norm["bridge"] = bridge

    channel_map: list[ChannelMapRecord] = []
    norm["channel_map"] = []
    bridge_ids = {bridge["node"]} if bridge else set()
    for i, r in enumerate(raw.get("channel_map", [])):
        path = f"channel_map[{i}]"
        ckey = _req(r, "channel", path)
        if ckey not in channels:
            raise ScenarioError(f"{path}.channel: unknown channel {ckey!r}")
        members = tuple(_req(r, "nodes", path))
        for m in members + (r.get("src"), r.get("dst")):
            if m is not None and m not in ids:
                raise ScenarioError(f"{path}: unknown node {m!r}")
        rr = {"network": r.get("network", "bsn0"), "channel": ckey,
              "nodes": list(members),
              "connection_id": int(_req(r, "connection_id", path)),
              "connection_type": r.get("connection_type", "Contention"),
              "src": _req(r, "src", path), "dst": _req(r, "dst", path)}
        try:
            ctype = ConnectionType(rr["connection_type"])
        except ValueError:
            raise ScenarioError(f"{path}.connection_type: unknown type "
                                f"{rr['connection_type']!r}") from None
        # in-body endpoints may only appear on a channel with a bridge
        for endpoint in (rr["src"], rr["dst"]):
            if endpoint in inbody:
                other = rr["dst"] if endpoint == rr["src"] else rr["src"]
                if other not in bridge_ids and other not in inbody:
                    raise ScenarioError(
                        f"{path}: in-body node {endpoint!r} cannot hold a "
                        f"direct connection to non-bridge node {other!r}")
        norm["channel_map"].append(rr)
        channel_map.append(ChannelMapRecord(
            network_info=rr["network"], channel=channels[ckey],
            node_ids=members, connection_id=rr["connection_id"],
            connection_type=ctype, src=rr["src"], dst=rr["dst"]))
    conn_ids = [r.connection_id for r in channel_map]
    if len(conn_ids) != len(set(conn_ids)):
        raise ScenarioError("channel_map: duplicate connection_id")

    # star topology: without a bridge, all traffic terminates at the BNC
    for i, t in enumerate(traffic):
        if t.dst != bnc and bridge is None:
            raise ScenarioError(f"traffic[{i}].dst: star topology requires "
                                f"dst == bnc unless a bridge is configured")

    scenario = Scenario(
        name=norm["name"], description=norm["description"],
        horizon=ticks_from_seconds(norm["horizon_s"]),
        replications=norm["replications"], seed_base=norm["seed_base"],
        channels=channels, channel_cfg=channel_cfg,
        wakeup_channel=norm["wakeup_channel"],
        channel_model=norm["channel_model"], pathloss=pathloss,
        power_profiles=profiles, protocol_profiles=protocol_profiles,
        nodes=nodes, bnc=bnc, queue_capacity=norm["queue_capacity"],
        traffic=traffic, protocols=norm["protocols"],
        wakeup_table=wakeup_table, on_demand=norm["on_demand"],
        channel_map=channel_map, bridge=bridge, link_matrix=link_matrix,
        normalized=norm)
    for name in scenario.protocols:
        try:
            PROTOCOLS[name].settings(scenario)
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"protocols.{name}: {exc}") from exc
    return scenario


def _load_link_matrix(name: str) -> LinkMatrix:
    """A CSV path, or the name of a bundled table."""
    p = Path(name)
    if not p.exists():
        p = bundled_data_path(name if name.endswith(".csv") else f"{name}.csv")
    if not p.exists():
        raise ScenarioError(f"channel_model.link_matrix_csv: not found: {name}")
    try:
        return LinkMatrix.from_csv(p)
    except (OSError, ValueError) as exc:
        raise ScenarioError(
            f"channel_model.link_matrix_csv: {name}: {exc}") from exc
