"""Scenario files: schema, validation, tick conversion, bundled scenarios.

A scenario is one JSON document, read against one field table per section
(`_fields`) into a normalized dict with the defaults filled in, so load ->
serialize -> load is a fixed point; durations become integer ticks, and
references, topology, bridge interfaces and MTUs are cross-checked, and the
channel map becomes one route table (`Scenario.routes`). An unset
`protocol_profiles` entry stays null, for the MAC's own `profile`: loading
imports only the MACs the scenario names under `protocols`, and reads each
one's section with its MAC's field table (`params`) and rules (`settings`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Optional

from .bridging import resolve_routes
from .channel import (DEFAULT_MIN_DISTANCE_M, DEFAULT_PATHLOSS,
                      MICROWAVE_PASS_PROBABILITY, Band, ChannelId, LinkMatrix,
                      PathLossParams, Position)
from .core import US_PER_S, SimTime, ticks_from_seconds
from .mac import PROTOCOLS, mac_class
from .mac.base import TICK_MS
from .node import PowerProfile
from .traffic import (NORMAL_CLASSES, OnDemandMode, OnDemandRequest,
                      TrafficClass, TrafficSpec)
from .wakeup import WakeupEntry


class ScenarioError(ValueError):
    """Validation failure with a field-path diagnostic."""


class NodeSpec(NamedTuple):
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
    on_demand: list[OnDemandRequest]
    routes: dict  # (src, dst) -> Direct | ViaBridge | None; {} without a map
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

    def protocol_params(self, name: str) -> dict:
        """A copy of `protocols.<name>` as loaded, or its table's defaults."""
        if name in self.protocols:
            return dict(self.protocols[name])
        return _fields({}, f"protocols.{name}", mac_class(name).params)

    def serialize(self) -> str:
        return json.dumps(self.normalized, sort_keys=True, indent=2) + "\n"


_DEFAULT_PROFILES = {
    "nrf2401": PowerProfile(sleep_mw=0.001, idle_listen_mw=54.0, rx_mw=54.0,
                            tx_mw=26.0),
    "cc2420": PowerProfile(sleep_mw=0.001, idle_listen_mw=56.0, rx_mw=56.0,
                           tx_mw=31.0)}


def bundled_scenario_path(name: str) -> Path:
    return Path(__file__).parent / "data" / "scenarios" / f"{name}.json"


def bundled_data_path(name: str) -> Path:
    return Path(__file__).parent / "data" / name


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


# One table per section: key -> (kind, default, minimum). A kind is a type
# (`float` takes any number and stores a float), a tuple of the allowed
# values, the table of a nested section, `[kind]` for a list and
# `{str: kind}` for an object keyed by name. A default of `...` marks a
# required key, and null passes where the default is null. Minimums are
# inclusive; an exclusive bound or a rule between fields is one check in
# `_build`.
_TICK_S = 1 / US_PER_S
_CLASSES = tuple(c.value for c in TrafficClass)
# on-demand frames answer a request in `on_demand`; no generator makes them
_GENERATED_CLASSES = tuple(c.value for c in (*NORMAL_CLASSES,
                                             TrafficClass.EMERGENCY))

CHANNEL_FIELDS = {"band": (tuple(b.value for b in Band), ..., None),
                  "phy": (int, 0, 0), "data_rate_bps": (int, 250_000, 1),
                  "mtu_bytes": (int, 128, 1)}
PATHLOSS_FIELDS = {  # d0 > 0 is checked in _build
    key: (float, value, 0.0 if key in ("exponent", "shadow_sigma") else None)
    for key, value in DEFAULT_PATHLOSS._asdict().items()}
INTERFERENCE_FIELDS = {
    "enabled": (bool, False, None),
    "pass_probability": (float, MICROWAVE_PASS_PROBABILITY, 0.0)}
CHANNEL_MODEL_FIELDS = {
    "mode": (("geometric", "empirical"), "geometric", None),
    "pathloss": ({str: PATHLOSS_FIELDS}, {}, None),
    "capture_margin_db": (float, 10.0, 0.0),
    "sensitivity_dbm": (float, -95.0, None),
    "cca_threshold_dbm": (float, -85.0, None),
    "min_distance_m": (float, DEFAULT_MIN_DISTANCE_M, 0.0),
    "posture": (str, "standing", None),
    "link_matrix_csv": (str, None, None),
    "interference": (INTERFERENCE_FIELDS, {}, None)}
POWER_PROFILE_FIELDS = {name: (float, default, 0.0) for name, default in {
    **dict.fromkeys(PowerProfile._fields, ...),
    **PowerProfile._field_defaults}.items()}
PROTOCOL_PROFILE_FIELDS = {name: (str, None, None)  # null: the MAC's own
                           for name in PROTOCOLS}
NODE_FIELDS = {
    "id": (str, ..., None), "site": (str, "", None),
    "kind": (("inbody", "onbody", "bnc"), "onbody", None),
    "pos": ([float], [0.0, 0.0, 0.0], None), "channel": (str, ..., None),
    "initial_j": (float | None, 5.0, 0.0),  # null: no energy budget
    "tx_power_dbm": (float, -5.0, None), "profile": (str, None, None)}
TRAFFIC_FIELDS = {
    "node": (str, ..., None), "class": (_GENERATED_CLASSES, ..., None),
    "payload_bytes": (int, 128, 1), "period_s": (float, None, _TICK_S),
    "rate_per_s": (float, 0.0, 0.0), "offset_s": (float, 0.0, 0.0),
    "dst": (str, None, None)}  # null: the bnc
WAKEUP_FIELDS = {
    "node": (str, ..., None), "class": (_CLASSES, "NormalMedium", None),
    "period_s": (float, ..., _TICK_S), "offset_s": (float, 0.0, 0.0),
    "window_ms": (float, ..., TICK_MS)}
ON_DEMAND_FIELDS = {
    "at_s": (float, ..., 0.0), "target": (str, ..., None),
    "mode": (tuple(m.value for m in OnDemandMode), "NonContinuous", None),
    "addressing": (("Tone", "Broadcast"), "Tone", None),
    "duration_s": (float, 0.0, 0.0), "period_s": (float, 1.0, _TICK_S)}
BRIDGE_FIELDS = {"node": (str, ..., None), "interfaces": ([str], ..., None),
                 "store_capacity": (int, 16, 1)}
CHANNEL_MAP_FIELDS = {
    "network": (str, "bsn0", None), "channel": (str, ..., None),
    "nodes": ([str], ..., None), "connection_id": (int, ..., None),
    "connection_type": (("Scheduled", "Contention", "WakeupServed"),
                        "Contention", None),
    "src": (str, ..., None), "dst": (str, ..., None)}
SCENARIO_FIELDS = {
    "name": (str, "unnamed", None), "description": (str, "", None),
    "horizon_s": (float, 60.0, _TICK_S), "replications": (int, 1, 1),
    "seed_base": (int, 1, None), "channels": ({str: CHANNEL_FIELDS}, ..., None),
    "wakeup_channel": (str, None, None),
    "channel_model": (CHANNEL_MODEL_FIELDS, {}, None),
    "power_profiles": ({str: POWER_PROFILE_FIELDS}, {}, None),
    "protocol_profiles": (PROTOCOL_PROFILE_FIELDS, {}, None),
    "nodes": ([NODE_FIELDS], ..., None), "bnc": (str, ..., None),
    "queue_capacity": (int, 16, 1), "traffic": ([TRAFFIC_FIELDS], [], None),
    "protocols": ({str: dict}, {}, None),  # each with its MAC's `params`
    "wakeup_table": ([WAKEUP_FIELDS], [], None),
    "on_demand": ([ON_DEMAND_FIELDS], [], None),
    "bridge": (BRIDGE_FIELDS, None, None),
    "channel_map": ([CHANNEL_MAP_FIELDS], [], None)}

# kind -> (the JSON values it takes, its name in messages)
_KINDS = {str: ((str,), "a string"), int: ((int,), "an integer"),
          float: ((int, float), "a number"),
          float | None: ((int, float), "a number or null"),
          bool: ((bool,), "true or false"), list: ((list,), "a list"),
          dict: ((dict,), "an object")}


def _fields(raw, path: str, table: dict) -> dict:
    """The section `raw` at `path` checked against `table`, defaults filled."""
    if not isinstance(raw, dict):
        raise ScenarioError(f"{path or 'scenario'}: must be an object")
    at = f"{path}." if path else ""
    for key in raw:
        if key not in table:
            raise ScenarioError(f"{at}{key}: unknown field")
    out = {}
    for key, (kind, default, minimum) in table.items():
        value = raw.get(key, default)
        if value is ...:
            raise ScenarioError(f"{at}{key}: required field missing")
        null_ok = value is None and (default is None or kind == float | None)
        out[key] = value if null_ok else _value(value, at + key, kind, minimum)
    return out


def _value(value, path: str, kind, minimum=None):
    """`value` at `path` checked against `kind` (see the tables above)."""
    if isinstance(kind, tuple):
        if value not in kind:
            raise ScenarioError(f"{path}: {value!r} is not one of "
                                f"{', '.join(kind)}")
        return value
    accepts, name = _KINDS[type(kind) if isinstance(kind, (list, dict)) else kind]
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepts):
        raise ScenarioError(f"{path}: {value!r} is not {name}")
    if isinstance(kind, list):
        return [_value(v, f"{path}[{i}]", kind[0]) for i, v in enumerate(value)]
    if isinstance(kind, dict):
        return ({k: _value(v, f"{path}.{k}", kind[str]) for k, v in value.items()}
                if str in kind else _fields(value, path, kind))
    value = float(value) if float in accepts else value
    if minimum is not None and value < minimum:
        raise ScenarioError(f"{path}: {value!r} is below the minimum {minimum}")
    return value


def _known(value, known, path: str, what: str) -> None:
    if value not in known:
        raise ScenarioError(f"{path}: unknown {what} {value!r}")


def _build(raw: dict, source: str = "<dict>") -> Scenario:
    norm = _fields(raw, "", SCENARIO_FIELDS)

    # channels and channel model ---------------------------------------------
    channel_cfg = norm["channels"]
    channels: dict[str, ChannelId] = {}
    for key, cc in channel_cfg.items():
        cid = ChannelId(Band(cc["band"]), cc["phy"])
        for other, seen in channels.items():
            if seen == cid:  # the medium would merge the two into one
                raise ScenarioError(f"channels.{key}: same band and phy as "
                                    f"{other!r}")
        channels[key] = cid
    if norm["wakeup_channel"] is not None:
        _known(norm["wakeup_channel"], channels, "wakeup_channel", "channel key")
    cm = norm["channel_model"]
    # bounds the field tables cannot express
    if cm["min_distance_m"] <= 0:
        raise ScenarioError(f"channel_model.min_distance_m: "
                            f"{cm['min_distance_m']!r} is not above 0")
    if cm["interference"]["pass_probability"] > 1:
        raise ScenarioError(f"channel_model.interference.pass_probability: "
                            f"{cm['interference']['pass_probability']!r} is "
                            f"above the maximum 1")
    pathloss: dict[str, PathLossParams] = {}
    for key, p in cm["pathloss"].items():
        path = f"channel_model.pathloss.{key}"
        _known(key, channels, path, "channel")
        if p["d0"] <= 0:
            raise ScenarioError(f"{path}.d0: {p['d0']!r} is not above 0")
        pathloss[key] = PathLossParams(**p)
    matrix_name = cm["link_matrix_csv"]
    if cm["mode"] == "empirical" and not matrix_name:
        raise ScenarioError("channel_model.link_matrix_csv: required in "
                            "empirical mode")
    link_matrix = _load_link_matrix(matrix_name, source) if matrix_name else None

    # power profiles ----------------------------------------------------------
    profiles = dict(_DEFAULT_PROFILES)
    for key, p in norm["power_profiles"].items():
        if p["sleep_mw"] > p["idle_listen_mw"]:
            raise ScenarioError(f"power_profiles.{key}.sleep_mw: above "
                                f"idle_listen_mw")
        profiles[key] = PowerProfile(**p)
    norm["power_profiles"] = {key: p._asdict() for key, p in profiles.items()}
    for proto, key in norm["protocol_profiles"].items():
        if key is not None:
            _known(key, profiles, f"protocol_profiles.{proto}", "profile")

    # nodes -------------------------------------------------------------------
    nodes: list[NodeSpec] = []
    ids = set()
    for i, nn in enumerate(norm["nodes"]):
        path = f"nodes[{i}]"
        if nn["id"] in ids:
            raise ScenarioError(f"{path}.id: duplicate node id {nn['id']!r}")
        ids.add(nn["id"])
        _known(nn["channel"], channels, f"{path}.channel", "channel")
        if nn["profile"] is not None:
            _known(nn["profile"], profiles, f"{path}.profile", "profile")
        if not 2 <= len(nn["pos"]) <= 3:
            raise ScenarioError(f"{path}.pos: needs 2 or 3 coordinates")
        nn["pos"] += [0.0] * (3 - len(nn["pos"]))
        nodes.append(NodeSpec(position=Position(*nn["pos"]), **{
            k: v for k, v in nn.items() if k != "pos"}))
    if cm["mode"] == "geometric":
        # path loss is undefined this close; any two nodes may share a channel
        min_d = cm["min_distance_m"]
        for i, a in enumerate(nodes):
            for b in nodes[:i]:
                d = a.position.distance_to(b.position)
                if d < min_d:
                    raise ScenarioError(
                        f"nodes[{i}].pos: {d} m from {b.id!r}, closer than "
                        f"channel_model.min_distance_m ({min_d})")
    bnc = norm["bnc"]
    if [n.id for n in nodes if n.kind == "bnc"] != [bnc]:
        raise ScenarioError("bnc: scenario needs exactly one node of kind "
                            "'bnc' matching the bnc field")

    # traffic, protocols, wakeup table, on demand ------------------------------
    traffic: list[TrafficSpec] = []
    for i, tt in enumerate(norm["traffic"]):
        path = f"traffic[{i}]"
        if tt["dst"] is None:
            tt["dst"] = bnc
        for key in ("node", "dst"):
            _known(tt[key], ids, f"{path}.{key}", "node")
        cls = TrafficClass(tt["class"])
        if cls in NORMAL_CLASSES and tt["period_s"] is None:
            raise ScenarioError(f"{path}.period_s: required for class "
                                f"{cls.value}")
        traffic.append(TrafficSpec(
            node=tt["node"], cls=cls, payload_bytes=tt["payload_bytes"],
            period=(ticks_from_seconds(tt["period_s"])
                    if tt["period_s"] is not None else None),
            rate_per_s=tt["rate_per_s"],
            start_offset=ticks_from_seconds(tt["offset_s"]), dst=tt["dst"]))

    for name, params in norm["protocols"].items():
        if name not in PROTOCOLS:
            raise ScenarioError(f"protocols.{name}: unknown protocol")
        norm["protocols"][name] = _fields(params, f"protocols.{name}",
                                          mac_class(name).params)

    wakeup_table: list[WakeupEntry] = []
    entry_of: dict[str, int] = {}  # device -> index of its one entry
    for i, ww in enumerate(norm["wakeup_table"]):
        path = f"wakeup_table[{i}]"
        _known(ww["node"], ids - {bnc}, f"{path}.node", "device")
        if ww["node"] in entry_of:
            raise ScenarioError(f"{path}.node: {ww['node']!r} already has an "
                                f"entry at wakeup_table[{entry_of[ww['node']]}]")
        entry_of[ww["node"]] = i
        period = ticks_from_seconds(ww["period_s"])
        window = ticks_from_seconds(ww["window_ms"] / 1000.0)
        if window > period:
            raise ScenarioError(f"{path}.window_ms: longer than period_s")
        wakeup_table.append(WakeupEntry(
            node=ww["node"], cls=TrafficClass(ww["class"]), period=period,
            offset=ticks_from_seconds(ww["offset_s"]), window=window))

    on_demand: list[OnDemandRequest] = []
    for i, od in enumerate(norm["on_demand"]):
        _known(od["target"], ids - {bnc}, f"on_demand[{i}].target", "device")
        on_demand.append(OnDemandRequest(
            target=od["target"], mode=OnDemandMode(od["mode"]),
            duration=ticks_from_seconds(od["duration_s"]),
            stream_period=ticks_from_seconds(od["period_s"]),
            at=ticks_from_seconds(od["at_s"]), addressing=od["addressing"]))

    # channel map + bridge ---------------------------------------------------
    inbody = {n.id for n in nodes if n.kind == "inbody"}
    bridge = norm["bridge"]
    if bridge is not None:
        _known(bridge["node"], ids, "bridge.node", "node")
        ifaces = bridge["interfaces"]
        for k in ifaces:
            _known(k, channels, "bridge.interfaces", "channel")
        if len({channels[k] for k in ifaces}) < 2:
            raise ScenarioError("bridge.interfaces: bridge requires two or "
                                "more distinct channel interfaces")
        if len({channel_cfg[k]["mtu_bytes"] for k in ifaces}) > 1:
            raise ScenarioError("bridge.interfaces: differing MTUs across "
                                "bridged channels are not supported")

    bridge_ids = {bridge["node"]} if bridge else set()
    # the channel keys a node has a radio on: its own, and a bridge's
    radio_keys = {n.id: {n.channel} for n in nodes}
    if bridge is not None:
        radio_keys[bridge["node"]].update(bridge["interfaces"])
    members: dict[ChannelId, set[str]] = {}  # channel -> the nodes mapped on it
    connection_ids = set()
    for i, rr in enumerate(norm["channel_map"]):
        path = f"channel_map[{i}]"
        _known(rr["channel"], channels, f"{path}.channel", "channel")
        for m in rr["nodes"] + [rr["src"], rr["dst"]]:
            _known(m, ids, path, "node")
        # in-body endpoints may only appear on a channel with a bridge
        for endpoint in (rr["src"], rr["dst"]):
            if endpoint in inbody:
                other = rr["dst"] if endpoint == rr["src"] else rr["src"]
                if other not in bridge_ids and other not in inbody:
                    raise ScenarioError(
                        f"{path}: in-body node {endpoint!r} cannot hold a "
                        f"direct connection to non-bridge node {other!r}")
        if rr["connection_id"] in connection_ids:
            raise ScenarioError(f"{path}: duplicate connection_id "
                                f"{rr['connection_id']}")
        connection_ids.add(rr["connection_id"])
        twice = sorted({n for n in rr["nodes"] if rr["nodes"].count(n) > 1})
        if twice:
            raise ScenarioError(f"{path}: nodes listed twice: "
                                f"{', '.join(twice)}")
        for endpoint in (rr["src"], rr["dst"]):
            if (endpoint not in rr["nodes"]
                    and not any(endpoint in m for m in members.values())):
                raise ScenarioError(f"{path}: unmapped endpoint: {endpoint}")
        for m in rr["nodes"]:
            if rr["channel"] not in radio_keys[m]:
                raise ScenarioError(f"{path}.nodes: {m!r} has no radio on "
                                    f"{rr['channel']!r}")
        members.setdefault(channels[rr["channel"]], set()).update(rr["nodes"])
    routes = (resolve_routes(members, [n.id for n in nodes], inbody, bridge_ids)
              if norm["channel_map"] else {})

    # star topology: without a bridge, all traffic terminates at the BNC;
    # with one, link_dst reads the route of each flow and of each on-demand
    # request's answers to the BNC
    routed = {pair for pair, route in routes.items() if route is not None}
    flows = {f"traffic[{i}]": (t.node, t.dst) for i, t in enumerate(traffic)}
    flows.update((f"on_demand[{i}]", (r.target, bnc))
                 for i, r in enumerate(on_demand))
    for path, (src, dst) in flows.items():
        if bridge is None and dst != bnc:
            raise ScenarioError(f"{path}.dst: star topology requires "
                                f"dst == bnc unless a bridge is configured")
        if bridge is not None and (src, dst) not in routed:
            raise ScenarioError(f"{path}: no route from {src!r} to {dst!r}")

    scenario = Scenario(
        name=norm["name"], description=norm["description"],
        horizon=ticks_from_seconds(norm["horizon_s"]),
        replications=norm["replications"], seed_base=norm["seed_base"],
        channels=channels, channel_cfg=channel_cfg,
        wakeup_channel=norm["wakeup_channel"], channel_model=cm,
        pathloss=pathloss, power_profiles=profiles,
        protocol_profiles=norm["protocol_profiles"], nodes=nodes, bnc=bnc,
        queue_capacity=norm["queue_capacity"], traffic=traffic,
        protocols=norm["protocols"], wakeup_table=wakeup_table,
        on_demand=on_demand, routes=routes, bridge=bridge,
        link_matrix=link_matrix, normalized=norm)
    for name in scenario.protocols:
        try:
            mac_class(name).settings(scenario)
        except ScenarioError:
            raise  # already names its field
        except ValueError as exc:
            raise ScenarioError(f"protocols.{name}: {exc}") from exc
    return scenario


def _load_link_matrix(name: str, source: str) -> LinkMatrix:
    """A CSV path, relative to the scenario file `source`, or the name of a
    bundled table."""
    p = Path(source).parent / name
    if not p.exists():
        p = bundled_data_path(name if name.endswith(".csv") else f"{name}.csv")
    if not p.exists():
        raise ScenarioError(f"channel_model.link_matrix_csv: not found: {name}")
    try:
        return LinkMatrix.from_csv(p)
    except (OSError, ValueError) as exc:
        raise ScenarioError(
            f"channel_model.link_matrix_csv: {name}: {exc}") from exc
