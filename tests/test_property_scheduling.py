"""Property-based tests for scheduling invariants."""

import math
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.dfg import DataFlowGraph
from repro.ir.instructions import BinaryOp
from repro.ir.types import INT
from repro.ir.values import Constant, Register
from repro.latency.optable import OpClass
from repro.scheduling import (
    ResourceBudget,
    SMSResult,
    compute_res_mii,
    issue_slot_bound,
    list_schedule,
    swing_modulo_schedule,
)
from repro.scheduling.sms import _MAX_II_FACTOR, _try_schedule

OP_CLASSES = [OpClass.INT_ALU, OpClass.LOCAL_READ, OpClass.LOCAL_WRITE,
              OpClass.FMUL]


#: every DSP-consuming class, for properties of the DSP budget
DSP_OP_CLASSES = OP_CLASSES + [OpClass.INT_MUL, OpClass.FADD,
                               OpClass.FEXPENSIVE]


#: the port-limited classes, plus two free ones
PORT_OP_CLASSES = [OpClass.LOCAL_READ, OpClass.LOCAL_WRITE,
                   OpClass.GLOBAL_ISSUE, OpClass.ATOMIC, OpClass.INT_ALU,
                   OpClass.FMUL]


@st.composite
def random_dags(draw, max_nodes=14, op_classes=OP_CLASSES,
                recurrences=False):
    """A random DAG with edges pointing forward in index order; with
    *recurrences*, plus distance > 0 edges in either direction."""
    n = draw(st.integers(1, max_nodes))
    graph = DataFlowGraph()
    nodes = []
    for i in range(n):
        latency = draw(st.floats(1.0, 8.0))
        op_class = draw(st.sampled_from(op_classes))
        inst = BinaryOp("add", Constant(INT, 0), Constant(INT, 0),
                        Register(INT))
        node = graph.add_node(inst, latency, op_class)
        if i > 0:
            for pred in draw(st.sets(st.integers(0, i - 1), max_size=3)):
                graph.add_edge(nodes[pred], node)
        nodes.append(node)
    if recurrences and n > 1:
        for _ in range(draw(st.integers(0, 3))):
            src, dst = draw(st.lists(st.integers(0, n - 1), min_size=2,
                                     max_size=2, unique=True))
            graph.add_edge(nodes[src], nodes[dst],
                           distance=draw(st.integers(1, 3)))
    return graph


@st.composite
def port_budgets(draw):
    """Port limits of 1-3 per direction and memory."""
    ports = st.integers(1, 3)
    return ResourceBudget(local_read_ports=draw(ports),
                          local_write_ports=draw(ports),
                          global_read_ports=draw(ports),
                          global_write_ports=draw(ports),
                          dsp_budget=draw(st.integers(0, 40)))


def linear_scan_sms(graph, budget, mii, max_ii=None):
    """The reference search: every II from ceil(MII) upward."""
    nodes = graph.nodes
    if not nodes:
        return SMSResult(ii=max(mii, 1.0), depth=1.0)
    critical = graph.critical_path()
    if max_ii is None:
        max_ii = max(mii, critical) * _MAX_II_FACTOR + 8
    ii = max(float(math.ceil(mii)), 1.0)
    while ii <= max_ii:
        placed = _try_schedule(graph, budget, ii)
        if placed is not None:
            depth = max(placed[i] + nodes[i].latency
                        for i in range(len(nodes)))
            return SMSResult(ii=ii, depth=max(depth, 1.0),
                             start_times=dict(enumerate(placed)))
        ii += 1.0
    return SMSResult(ii=max(critical, mii, 1.0),
                     depth=max(critical, 1.0), feasible=False)


def _sms_fields(result):
    return (result.ii, result.depth, result.start_times, result.feasible)


BUDGET = ResourceBudget(local_read_ports=2, local_write_ports=1,
                        dsp_budget=24)


class TestListScheduleProperties:
    @given(random_dags())
    @settings(max_examples=60)
    def test_latency_bounds(self, graph):
        """critical path <= schedule <= serial sum."""
        result = list_schedule(graph, BUDGET)
        critical = graph.critical_path()
        serial = sum(n.latency for n in graph.nodes)
        assert critical - 1e-6 <= result.latency <= serial + len(
            graph.nodes) * 8 + 1e-6

    @given(random_dags())
    @settings(max_examples=60)
    def test_dependencies_respected(self, graph):
        result = list_schedule(graph, BUDGET)
        for node in graph.nodes:
            for pred_idx, dist in node.preds:
                if dist == 0 and pred_idx < node.index:
                    pred = graph.nodes[pred_idx]
                    assert result.start_of(node) + 1e-9 \
                        >= result.start_of(pred) + pred.latency

    @given(random_dags())
    @settings(max_examples=40)
    def test_port_limits_never_exceeded(self, graph):
        result = list_schedule(graph, BUDGET)
        usage = {}
        for node in graph.nodes:
            limit = BUDGET.issue_limit(node.op_class)
            if limit <= 0:
                continue
            key = (result.start_of(node), node.op_class)
            usage[key] = usage.get(key, 0) + 1
            assert usage[key] <= limit


    @given(random_dags(op_classes=DSP_OP_CLASSES + PORT_OP_CLASSES),
           port_budgets(), st.integers(0, 64))
    @settings(max_examples=80)
    def test_dsp_budget_above_total_cost_is_invisible(self, graph, budget,
                                                       extra):
        """The DSP check never fires once the budget covers the graph's
        total DSP cost, so every such budget schedules like the budget
        clamped to that cost (what lets the PE memo and the PE model's
        shared block schedules clamp it: repro.model.pe.pe_memo_key and
        repro.model.pe._block_key)."""
        total = sum(budget.dsp_cost(n.op_class) for n in graph.nodes)
        clamped = list_schedule(graph, replace(budget, dsp_budget=total))
        above = list_schedule(graph,
                              replace(budget, dsp_budget=total + extra))
        assert above.latency == clamped.latency
        assert above.start_times == clamped.start_times


class TestSMSProperties:
    @given(random_dags())
    @settings(max_examples=40)
    def test_ii_at_least_mii(self, graph):
        reads = sum(1 for n in graph.nodes
                    if n.op_class == OpClass.LOCAL_READ)
        writes = sum(1 for n in graph.nodes
                     if n.op_class == OpClass.LOCAL_WRITE)
        mii = compute_res_mii(BUDGET, reads, writes, 0).mii
        result = swing_modulo_schedule(graph, BUDGET, mii)
        assert result.ii >= mii

    @given(random_dags())
    @settings(max_examples=40)
    def test_depth_at_least_critical_path(self, graph):
        result = swing_modulo_schedule(graph, BUDGET, 1.0)
        if result.feasible:
            assert result.depth >= graph.critical_path() - 1e-6


    @given(random_dags(max_nodes=16, op_classes=PORT_OP_CLASSES,
                       recurrences=True),
           port_budgets(), st.floats(1.0, 6.0))
    @settings(max_examples=120, deadline=None)
    def test_issue_slot_start_matches_linear_scan(self, graph, budget,
                                                  mii):
        """Starting at the issue-slot bound finds what a scan from
        ceil(MII) finds."""
        assert _sms_fields(swing_modulo_schedule(graph, budget, mii)) \
            == _sms_fields(linear_scan_sms(graph, budget, mii))

    @given(random_dags(max_nodes=16, op_classes=PORT_OP_CLASSES,
                       recurrences=True),
           port_budgets(), st.floats(1.0, 3.0), st.integers(0, 3))
    @settings(max_examples=80, deadline=None)
    def test_bound_above_max_ii_falls_back_like_the_scan(self, graph,
                                                         budget, mii,
                                                         below):
        """With max_ii at or just below the bound, both searches give
        the same result, serial fallback included."""
        max_ii = float(max(issue_slot_bound(graph, budget) - below, 1))
        assert _sms_fields(swing_modulo_schedule(graph, budget, mii,
                                                 max_ii)) \
            == _sms_fields(linear_scan_sms(graph, budget, mii, max_ii))


class TestResMIIProperties:
    @given(st.integers(0, 64), st.integers(0, 64), st.integers(0, 500))
    def test_mii_at_least_one(self, reads, writes, dsp):
        mii = compute_res_mii(BUDGET, reads, writes, dsp)
        assert mii.mii >= 1.0

    @given(st.integers(1, 64))
    def test_mii_monotone_in_reads(self, reads):
        lo = compute_res_mii(BUDGET, reads, 0, 0).res_mii_mem
        hi = compute_res_mii(BUDGET, reads * 2, 0, 0).res_mii_mem
        assert hi >= lo
