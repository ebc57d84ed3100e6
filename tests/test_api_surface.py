"""Public API surface checks: the names README documents must exist
and the package-level exports must stay importable."""



class TestPublicImports:
    def test_readme_quickstart_imports(self):
        from repro.frontend import compile_opencl            # noqa: F401
        from repro.interp import Buffer, NDRange             # noqa: F401
        from repro.analysis import analyze_kernel            # noqa: F401
        from repro.devices import VIRTEX7                    # noqa: F401
        from repro.model import FlexCL                       # noqa: F401
        from repro.dse import Design                         # noqa: F401

    def test_all_lists_resolve(self):
        import importlib
        for name in ("repro.frontend", "repro.ir", "repro.interp",
                     "repro.analysis", "repro.scheduling",
                     "repro.latency", "repro.dram", "repro.model",
                     "repro.simulator", "repro.baselines", "repro.dse",
                     "repro.devices", "repro.workloads",
                     "repro.evaluation"):
            module = importlib.import_module(name)
            for export in getattr(module, "__all__", []):
                assert hasattr(module, export), (name, export)

    def test_version(self):
        import repro
        assert repro.__version__


class TestKernelAttributes:
    def test_reqd_work_group_size_reaches_ir(self):
        from repro.frontend import compile_opencl
        fn = compile_opencl(
            "__kernel __attribute__((reqd_work_group_size(32,1,1))) "
            "void k(__global float* a) { a[0] = 1.0f; }").get("k")
        assert fn.reqd_work_group_size == (32, 1, 1)

    def test_module_get_optional(self):
        from repro.frontend import compile_opencl
        module = compile_opencl(
            "__kernel void k(__global float* a) { a[0] = 1.0f; }")
        assert module.get_optional("k") is not None
        assert module.get_optional("missing") is None
