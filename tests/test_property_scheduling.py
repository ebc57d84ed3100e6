"""Property-based tests for scheduling invariants."""

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
    compute_res_mii,
    list_schedule,
    swing_modulo_schedule,
)

OP_CLASSES = [OpClass.INT_ALU, OpClass.LOCAL_READ, OpClass.LOCAL_WRITE,
              OpClass.FMUL]


#: every DSP-consuming class, for properties of the DSP budget
DSP_OP_CLASSES = OP_CLASSES + [OpClass.INT_MUL, OpClass.FADD,
                               OpClass.FEXPENSIVE]


@st.composite
def random_dags(draw, max_nodes=14, op_classes=OP_CLASSES):
    """A random DAG with edges pointing forward in index order."""
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
    return graph


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


    @given(random_dags(op_classes=DSP_OP_CLASSES),
           st.integers(0, 64), st.integers(0, 64))
    @settings(max_examples=60)
    def test_dsp_budget_above_total_cost_is_invisible(self, graph,
                                                       extra_a, extra_b):
        """The DSP check never fires once the budget covers the graph's
        total DSP cost, so any two such budgets schedule alike (what
        lets the PE memo clamp the budget, repro.model.pe.pe_memo_key)."""
        total = sum(BUDGET.dsp_cost(n.op_class) for n in graph.nodes)
        a = list_schedule(graph, replace(BUDGET, dsp_budget=total + extra_a))
        b = list_schedule(graph, replace(BUDGET, dsp_budget=total + extra_b))
        assert a.latency == b.latency
        assert a.start_times == b.start_times


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
