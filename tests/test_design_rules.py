"""The design rules, checked over the syntax tree of src/bsnsim: each keeps a
protocol or accounting rule written once, or a cost off every run, and names
the places it allows by module and enclosing def. Comments and docstrings
are not read."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _dotted(node) -> str:
    """`self.sim.schedule_at` for a chain of names; "?" for a part that is not."""
    if isinstance(node, ast.Attribute):
        return f"{_dotted(node.value)}.{node.attr}"
    return node.id if isinstance(node, ast.Name) else "?"


def _word(node):
    """What a rule matches for `node`: a dotted name, `name(` for a call,
    `name[name]` for a subscript, a def, argument or import name, a string."""
    if isinstance(node, (ast.Name, ast.Attribute)):
        return _dotted(node)
    if isinstance(node, ast.Call):
        return _dotted(node.func) + "("
    if isinstance(node, ast.Subscript):
        return f"{_dotted(node.value)}[{_dotted(node.slice)}]"
    if isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.alias)):
        return f"{node.name} {getattr(node, 'asname', None) or ''}".rstrip()
    if isinstance(node, ast.ImportFrom):
        return node.module
    if isinstance(node, (ast.arg, ast.keyword)):
        return node.arg
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _tree(top: Path, base: Path) -> list:
    """(module, def, node, word) for each node under `top` but docstrings and
    other bare strings; the def is dotted, "" at module level."""
    out = []
    for path in sorted(top.rglob("*.py")):
        module = path.relative_to(base).as_posix()
        todo = [(ast.parse(path.read_text()), "")]
        while todo:
            node, scope = todo.pop()
            out.append((module, scope, node, _word(node)))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                scope = f"{scope}.{node.name}".lstrip(".")
            todo += [(child, scope) for child in ast.iter_child_nodes(node)
                     if not (isinstance(child, ast.Expr) and isinstance(
                         getattr(child.value, "value", None), str))]
    return out


SRC = _tree(ROOT / "src" / "bsnsim", ROOT / "src" / "bsnsim")
MODULES = {m for m, *_ in SRC}
MACS = {m for m in MODULES if m.startswith("mac/") and m != "mac/base.py"}


def _hits(pattern: str, modules=MODULES) -> list:
    """Each (module, def, word) in `modules` whose word matches `pattern`."""
    rx = re.compile(pattern)
    return [(m, s, w) for m, s, _, w in SRC
            if m in modules and w is not None and rx.search(w)]


def _statements(modules):
    """(module, def, the nodes of its own expressions) for each statement."""
    for m, s, node, _ in SRC:
        if m in modules and isinstance(node, ast.stmt):
            yield m, s, [n for child in ast.iter_child_nodes(node)
                         if isinstance(child, ast.expr)
                         for n in ast.walk(child)]


def _is(node, value) -> bool:
    return isinstance(node, ast.Constant) and node.value == value


def test_only_macbase_at_calls_the_scheduler_in_the_macs_and_the_runner():
    # a step scheduled straight on the simulator escapes the dead-node rule of
    # Node.at/after and the session rule of MacBase.at/after
    assert not _hits(r"\bsim\.schedule_at\b", MACS | {"runner.py"})


def test_one_way_onto_the_event_heap():
    # Simulator.schedule_at gives each event its key (fire_at, seq), so
    # events due at one tick dispatch in the order they were scheduled; a
    # key taken or pushed elsewhere would sort by a second rule
    assert sorted({(m, s) for m, s, _ in _hits(r"\._seq$", {"core.py"})
                   + _hits(r"\bsim\._seq$")}) == [
        ("core.py", "Simulator.__init__"), ("core.py", "Simulator.schedule_at")]
    assert sorted({(m, s) for m, s, _ in _hits("heappush")}) == [
        ("core.py", "Simulator.schedule_at")]


def test_one_acknowledged_exchange():
    # MacBase.send_acked sends a data frame, waits for its ack and counts its
    # retries; a MAC that does any of that itself runs a second copy
    assert not _hits(r"ack_timeout|Frame\.data\(|_retries", MACS)


def test_sessions_end_protocol_periods_only():
    # new_session() makes every pending step of a MAC stale; a step whose
    # wait is answered is cancelled by name with sim.cancel
    assert sorted((m, s) for m, s, _ in _hits(r"new_session\(", MACS)) == [
        ("mac/csma.py", "Beacon802154Mac._wake_for_beacon"),  # superframe end
        ("mac/smac.py", "SMac._enter_sleep"),                 # window end
        ("mac/tbw.py", "TbwMac._on_wakeup_signal"),           # on-demand wake
        ("mac/tbw.py", "TbwMac._start_emergency")]            # preemption


def test_one_reader_for_scenario_fields():
    # _fields reads each field against its section's table; a .get elsewhere
    # would skip the field's kind and minimum
    assert [s for _, s, _ in _hits(r"\.get\($", {"scenario.py"})] == ["_fields"]


def test_one_home_for_each_bound():
    # a field's range is its table's minimum, a rule between fields one check
    # in _build and a protocol's rule one check in its MAC's `settings`, whose
    # ValueError _build gives the protocol's path
    assert not _hits("__post_init__")
    assert [(m, s) for m, s, n, _ in SRC if m == "scenario.py"
            and isinstance(n, ast.ExceptHandler)
            and _word(n.type) == "ValueError"] == [("scenario.py", "_build")]


def test_scenario_is_the_one_dataclass():
    # a @dataclass costs every import about 1 ms a class; Scenario stays one
    # for dataclasses.replace, other records are NamedTuples or __slots__
    assert [(m, f"{s}.{n.name}".lstrip(".")) for m, s, n, _ in SRC
            if isinstance(n, (ast.FunctionDef, ast.ClassDef))
            for d in n.decorator_list
            if _dotted(d.func if isinstance(d, ast.Call) else d)
            in ("dataclass", "dataclasses.dataclass")
            ] == [("scenario.py", "Scenario")]


def test_no_namedtuple_records_in_the_macs():
    # a MAC's `settings` works out the ticks it reads and its __init__ copies
    # them into attributes; a record's properties would work them out again
    assert [(m, n.name) for m, _, n, _ in SRC
            if m.startswith("mac/") and isinstance(n, ast.ClassDef)
            and any(_dotted(b) in ("NamedTuple", "typing.NamedTuple")
                    for b in n.bases)] == []


def test_protocol_parameters_are_read_at_load():
    # _build reads each protocols.<name> section with its MAC's field table;
    # a MAC reads it with Scenario.protocol_params
    assert not _hits(r"scenario\.protocols", MODULES - {"scenario.py"})


def test_routes_are_built_at_load_only():
    # _build resolves every route once, from the nodes' channels;
    # a route resolved again could differ from what dump-routes shows
    assert not _hits(r"resolve_routes\(", MODULES - {"scenario.py"})
    assert not _hits("lookup_route|ChannelMap")


def test_a_channel_is_its_scenario_key():
    # a second form of a channel would need converting back and forth
    assert not _hits(r"ChannelId|channel_id\(|channel_key\(|channel_cfg|\bBand\b")


def test_run_inputs_are_built_at_load():
    # _build makes each OnDemandRequest and build_network the one Medium; one
    # made elsewhere would translate the raw fields again
    assert not _hits(r"\bOnDemandRequest\(", MODULES - {"scenario.py"})
    assert not _hits(r"\bMedium\(", MODULES - {"runner.py"})


def test_one_coordinator_wake_rule():
    # a pattern unrolled over the periods' least common multiple, or a second
    # path past it, writes the guarded-window rule of TbwMac again
    assert not _hits("hyperperiod|derive_bnc_pattern|fallback")


def test_a_coordinator_data_radio_sleeps_in_one_place():
    # TbwMac._release sleeps a data radio once no guarded window, grant or
    # request holds it; another sleep, or a scan of the table for an open
    # window, would write the coordinator's wake rule a second time
    assert not _hits("guarded_open")
    assert [(m, s) for m, s, n, w in SRC if m == "mac/tbw.py"
            and (w or "").endswith(".set_state(")
            and any(_is(a, "sleep") for a in n.args)
            and w not in ("self.radio.set_state(", "self.wakeup_tx.set_state(")
            ] == [("mac/tbw.py", "TbwMac._release")]


def test_the_wakeup_table_is_fixed_at_load():
    # an insert/modify/remove layer or a revision counter has no caller in a
    # run and would write the table's rules a second time
    assert not _hits("table_update|TableAction|WakeupTable|revision")


def test_one_half_duplex_rule():
    # a send or a switch due on a transmitting radio waits in Radio.when_free
    # or Radio.set_state; only a CCA-won slot and a late beacon are dropped
    checks = [(m, s) for m, s, nodes
              in _statements(MACS | {"mac/base.py", "bridging.py"})
              if any(_is(n, "tx") for n in nodes)
              and any(re.search(r"state\b", _word(n) or "") for n in nodes)]
    assert sorted(checks) == [("mac/base.py", "SlottedCsmaMac._transmit"),
                              ("mac/tbw.py", "TbwMac._window_beacon")]


def test_only_the_medium_puts_a_radio_in_tx():
    # Medium.begin_tx is the one way into tx, so every tx stretch is a frame
    # on the air that ends at tx_end
    assert not [(m, s) for m, s, n, w in SRC + _tree(ROOT / "tests", ROOT)
                if m != "node.py" and isinstance(n, ast.Call)
                and w.endswith("set_state(") and any(_is(a, "tx") for a in n.args)]


def test_a_run_loads_only_the_mac_it_names():
    # bsnsim.mac.mac_class imports a protocol's module when a run names it,
    # and the runner imports multiprocessing only to start a pool
    imports = [(m, s, {p for w in [_word(n)] + [_word(a) for a in n.names]
                       if w for p in re.split(r"[. ]", w)})
               for m, s, n, _ in SRC
               if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert not [i for i in imports if not i[1] and "multiprocessing" in i[2]]
    assert not [i for i in imports if i[0] != "mac/__init__.py"
                and i[2] & {"csma", "tdma", "smac", "tbw", "direct"}]


def test_delay_samples_are_typed_arrays():
    # one array('q') per traffic class, 8 bytes a sample; the emergency
    # delays are a view of the Emergency class's array, not a second store
    metrics = {"metrics.py"}
    assert not _hits(r"list\[SimTime\]|emergency_access_delays_us\."
                     r"(append|extend)\(", metrics)
    assert not [s for _, s, nodes in _statements(metrics)
                if any(isinstance(n, ast.List) and not n.elts for n in nodes)
                and any("latency_us" in (_word(n) or "") for n in nodes)]
    assert not [s for m, s, n, w in SRC if m in metrics
                and (w or "").endswith("emergency_access_delays_us")
                and (isinstance(n, (ast.arg, ast.keyword))
                     or isinstance(getattr(n, "ctx", None), ast.Store))]
    assert [s for m, s, n, w in SRC if m in metrics and w == "array("
            and any(_is(a, "q") for a in n.args)]


def test_a_frame_leaves_at_its_nodes_power():
    # Medium.begin_tx sends at the power of the radio's node; a MAC or the
    # bridge that reads the power would hand the medium what it already has
    assert not _hits(r"\btx_power_dbm\b", {m for m in MODULES
                                           if m.startswith("mac/")}
                     | {"bridging.py"})


def test_a_radio_gets_its_receive_hook_when_it_is_built():
    # Node.add_radio and Node.add_wakeup_receiver take the hook; one
    # assigned afterwards is a second place that wires a radio
    assert [(m, s) for m, s, n, _ in SRC
            if isinstance(n, (ast.Assign, ast.AnnAssign, ast.AugAssign))
            for t in getattr(n, "targets", [getattr(n, "target", None)])
            if isinstance(t, ast.Attribute) and t.attr == "on_frame"
            ] == [("node.py", "Radio.__init__")]


def test_one_way_into_service_and_one_way_out():
    # MacBase.serve puts a frame in service and MacBase.end_service takes it
    # out, counting it dropped or not; a MAC that clears in_service itself
    # keeps a second copy of the drop-then-clear pair
    assert sorted((m, s) for m, s, n, _ in SRC
                  if isinstance(n, (ast.Assign, ast.AnnAssign))
                  for t in getattr(n, "targets", [getattr(n, "target", None)])
                  for part in ast.walk(t)
                  if isinstance(part, ast.Attribute)
                  and part.attr == "in_service"
                  and isinstance(part.ctx, ast.Store)) == [
        ("mac/base.py", "MacBase.__init__"),
        ("mac/base.py", "MacBase.end_service"),
        ("mac/base.py", "MacBase.serve")]


def test_frames_are_dropped_at_five_exits():
    # a lost frame is counted where it leaves a queue, its service, an
    # emergency or the bridge's store; ROADMAP item 8 names the reason there
    assert sorted((m, s) for m, s, _ in _hits(r"\bon_dropped\($")) == [
        ("bridging.py", "Bridge._sent"),          # forward lost
        ("bridging.py", "Bridge.relay"),          # store full
        ("mac/base.py", "MacBase.end_service"),   # retries, access, loss
        ("mac/base.py", "MacBase.enqueue"),       # queue full
        ("mac/tbw.py", "TbwMac._emergency_signal")]  # signals unanswered


def test_one_way_to_end_a_tbw_service():
    # TbwMac._resume ends a window, an emergency and an on-demand service and
    # says what comes next; _signal_again sleeps between two wakeup signals
    assert sorted(s for m, s, n, w in SRC if m == "mac/tbw.py"
                  and w == "self.radio.set_state("
                  and any(_is(a, "sleep") for a in n.args)) == [
        "TbwMac._resume", "TbwMac._signal_again"]


def test_one_way_for_the_tbw_coordinator_to_answer_a_wakeup():
    # TbwMac._answer sends a grant or a poll once its data radio is free and
    # then releases the channel's hold; a second copy could release it twice
    assert [(m, s) for m, s, _ in _hits("^session_release$")] == [
        ("mac/tbw.py", "TbwMac._answer.send")]


def test_one_receive_field():
    # Radio.rx_ok_since says whether a radio could decode a frame that began
    # at a given tick: it is infinite while the radio sleeps, sends or is
    # dead. A second flag would be a second copy of the receive rule.
    assert not _hits(r"(^|\.)listening$")
    assert sorted({(m, s) for m, s, _ in _hits(r"\.rx_ok_since$")}) == [
        ("channel.py", "Medium._finish_tx"), ("node.py", "Radio.__init__"),
        ("node.py", "Radio._apply"), ("node.py", "Radio.die")]


def test_one_airtime_formula():
    # channel.frame_airtime turns bytes into ticks; a bit count worked out
    # anywhere else is a second copy of it
    assert [(m, s) for m, s, n, _ in SRC if isinstance(n, ast.BinOp)
            and isinstance(n.op, ast.Mult)
            and (_is(n.left, 8) or _is(n.right, 8))] == [
        ("channel.py", "frame_airtime")]
    assert not _hits(r"\bairtime_ticks\b")


def _imports_unused(path: Path) -> list:
    """(line, name) of each name `path` imports and neither uses nor lists
    in its `__all__`."""
    tree = ast.parse(path.read_text())
    imported = [(n.lineno, (a.asname or a.name).split(".")[0])
                for n in ast.walk(tree)
                if isinstance(n, (ast.Import, ast.ImportFrom))
                and getattr(n, "module", None) != "__future__"
                for a in n.names if a.name != "*"]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= {e.value for n in ast.walk(tree) if isinstance(n, ast.Assign)
             and any(_word(t) == "__all__" for t in n.targets)
             for e in ast.walk(n.value) if isinstance(e, ast.Constant)}
    return [(line, name) for line, name in imported if name not in used]


def test_every_import_is_used():
    # no linter runs here, so this is the one check that an import a change
    # left behind goes with it
    assert [(path.relative_to(ROOT).as_posix(), line, name)
            for top in ("src", "tests")
            for path in sorted((ROOT / top).rglob("*.py"))
            for line, name in _imports_unused(path)] == []
