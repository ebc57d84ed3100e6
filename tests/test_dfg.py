"""Unit tests for data-flow-graph construction."""

from repro.analysis.dfg import (
    build_block_dfg,
    build_function_dfg,
    pointer_root,
)
from repro.analysis.kernel_info import _dsp_cost_per_wi
from repro.frontend import compile_opencl
from repro.ir.instructions import Barrier, Load, Store
from repro.latency.optable import OpClass, OpLatencyTable


def fn_of(body, params="__global float* a, __global float* b, int n"):
    return compile_opencl(
        f"__kernel void k({params}) {{ {body} }}").get("k")


TABLE = OpLatencyTable()


class TestBlockDFG:
    def test_def_use_edge(self):
        fn = fn_of("a[0] = a[1] * 2.0f;")
        dfg = build_block_dfg(fn.entry, TABLE)
        # the fmul node must depend on the load feeding it
        fmul = next(node for node in dfg.nodes
                    if node.inst.opcode == "fmul")
        assert fmul.preds, "fmul has no dependencies"

    def test_critical_path_positive(self):
        fn = fn_of("a[0] = a[1] * 2.0f + 3.0f;")
        dfg = build_block_dfg(fn.entry, TABLE)
        assert dfg.critical_path() > TABLE.of_class(OpClass.FMUL)

    def test_store_after_load_same_root_ordered(self):
        fn = fn_of("float x = a[0]; a[0] = x + 1.0f;")
        dfg = build_block_dfg(fn.entry, TABLE)
        loads = [n for n in dfg.nodes
                 if isinstance(n.inst, Load)
                 and n.op_class == OpClass.GLOBAL_ISSUE]
        stores = [n for n in dfg.nodes
                  if isinstance(n.inst, Store)
                  and n.op_class == OpClass.GLOBAL_ISSUE]
        assert loads and stores
        store = stores[-1]
        # WAR edge: load precedes store (directly or transitively)
        reachable = set()
        frontier = [loads[0].index]
        while frontier:
            i = frontier.pop()
            for succ, dist in dfg.nodes[i].succs:
                if succ not in reachable:
                    reachable.add(succ)
                    frontier.append(succ)
        assert store.index in reachable


class TestFunctionDFG:
    def test_barrier_orders_memory(self):
        fn = fn_of("__local float t[8]; t[0] = 1.0f; "
                   "barrier(CLK_LOCAL_MEM_FENCE); a[0] = t[1];")
        dfg = build_function_dfg(fn, TABLE)
        barrier = next(n for n in dfg.nodes
                       if isinstance(n.inst, Barrier))
        local_store = next(n for n in dfg.nodes
                           if n.op_class == OpClass.LOCAL_WRITE)
        local_load = next(n for n in dfg.nodes
                          if n.op_class == OpClass.LOCAL_READ)
        assert (barrier.index, 0) in [
            (s, d) for s, d in local_store.succs]
        assert any(s == local_load.index for s, d in barrier.succs)

    def test_weights_applied(self):
        # The graph carries no weights: the DSP cost per work-item
        # weights each node by its block's profiled frequency, 1.0 for
        # a block the profile did not count.
        fn = fn_of("for (int i = 0; i < 8; i++) { a[i] = a[i] * b[i]; }")
        dfg = build_function_dfg(fn, TABLE)
        body = sum(TABLE.dsp_cost(n.inst) for n in dfg.nodes
                   if n.block == "for.body")
        assert body > 0
        unweighted = _dsp_cost_per_wi(dfg, TABLE, {})
        assert unweighted == sum(TABLE.dsp_cost(n.inst) for n in dfg.nodes)
        assert _dsp_cost_per_wi(dfg, TABLE, {"for.body": 8.0}) \
            == unweighted + 7 * body

    def test_control_edge_from_branch(self):
        fn = fn_of("if (n > 0) { a[0] = 1.0f; }")
        dfg = build_function_dfg(fn, TABLE)
        from repro.ir.instructions import CondBranch
        branch = next(n for n in dfg.nodes
                      if isinstance(n.inst, CondBranch))
        then_nodes = [n for n in dfg.nodes if n.block.startswith("if.then")]
        assert then_nodes
        succ_set = {s for s, d in branch.succs}
        assert any(n.index in succ_set for n in then_nodes)

    def test_longest_path_between(self):
        fn = fn_of("float x = a[0]; float y = x * 2.0f; b[0] = y;")
        dfg = build_function_dfg(fn, TABLE)
        load = next(n for n in dfg.nodes
                    if n.op_class == OpClass.GLOBAL_ISSUE
                    and isinstance(n.inst, Load))
        store = next(n for n in dfg.nodes
                     if n.op_class == OpClass.GLOBAL_ISSUE
                     and isinstance(n.inst, Store))
        path = dfg.longest_path_between(load, store)
        assert path is not None
        assert path >= load.latency + store.latency


class TestPointerRoot:
    def test_argument_root(self):
        fn = fn_of("a[n] = 1.0f;")
        build_function_dfg(fn, TABLE)   # annotates definers
        store = next(i for i in fn.instructions()
                     if isinstance(i, Store)
                     and i.space.value == "global")
        root = pointer_root(store.pointer)
        # the root should resolve through the gep/load chain to the
        # argument 'a'
        from repro.ir.values import Argument
        assert isinstance(root, Argument) and root.name == "a"

    def test_distinct_buffers_have_distinct_roots(self):
        fn = fn_of("a[0] = 1.0f; b[0] = 2.0f;")
        build_function_dfg(fn, TABLE)
        stores = [i for i in fn.instructions()
                  if isinstance(i, Store) and i.space.value == "global"]
        roots = {id(pointer_root(s.pointer)) for s in stores}
        assert len(roots) == 2
