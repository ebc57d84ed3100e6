"""The learned surrogate: features, trainer, serve instant tier.

The load-bearing guarantees under test:

- feature vectors are deterministic — bit-identical across processes,
  across trace engines (synthesized vs vectorized vs scalar traces),
  and across cache states (cold / warm / disabled);
- training is deterministic and the persisted artifact survives a
  save/load roundtrip, while schema drift is rejected;
- the serve daemon's instant tier answers with confidence bounds and
  shows up in ``/metrics`` under its own outcome.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.analysis.kernel_info import DEFAULT_PROFILE_GROUPS
from repro.cache import open_cache
from repro.devices import device_by_name
from repro.dse import Design
from repro.evaluation import default_suite_workloads, run_suite
from repro.evaluation.harness import make_analyzer
from repro.surrogate import (
    FEATURE_NAMES,
    FeatureSchemaError,
    feature_schema_hash,
    feature_vector,
    load_model,
    read_feature_rows,
    save_model,
    spearman,
    train_surrogate,
    train_with_holdout,
    training_rows,
    write_feature_rows,
)

DEVICE = device_by_name("virtex7")

#: a kernel the access-summary engine proves STATIC, so all three
#: trace producers (synth / vectorized / scalar) are available
STATIC_WORKLOAD = "rodinia/backprop/layer"

SAXPY = """
__kernel void saxpy(__global float *x, __global float *y,
                    float a, int n) {
    int i = get_global_id(0);
    y[i] = a * x[i] + y[i];
}
"""


def _workload(name):
    from repro.workloads import polybench_workloads, rodinia_workloads
    for w in rodinia_workloads() + polybench_workloads():
        if w.qualified_name == name:
            return w
    raise KeyError(name)


def _analyze_workload(name, wg=16, cache=None):
    analyzer = make_analyzer(_workload(name), DEVICE, cache=cache)
    info = analyzer(wg)
    assert info is not None
    return info


def _training_set(limit=8, designs=12, cache=None):
    catalog = default_suite_workloads("rodinia", limit)
    result = run_suite(catalog, DEVICE, cache=cache,
                       designs_per_kernel=designs,
                       collect_features=True)
    return training_rows(result)


# ---------------------------------------------------------------------
# feature determinism
# ---------------------------------------------------------------------

class TestFeatureDeterminism:
    def test_vector_shape_and_repeatability(self):
        info = _analyze_workload(STATIC_WORKLOAD)
        design = Design(work_group_size=16, num_pe=2)
        a = feature_vector(info, design)
        b = feature_vector(info, design)
        assert a.shape == (len(FEATURE_NAMES),)
        assert np.array_equal(a, b)
        assert np.all(np.isfinite(a))

    def test_identical_across_trace_engines(self, scalar_reference):
        """Features use only engine-independent analysis facts, so a
        synthesized, a vectorized, and a scalar analysis of the same
        kernel produce bit-identical vectors."""
        from repro.analysis import analyze_kernel
        from repro.interp import VectorizedExecutor

        design = Design(work_group_size=16)
        w = _workload(STATIC_WORKLOAD)
        vectorized = VectorizedExecutor(
            w.function(), w.make_buffers(), dict(w.scalars)).run(
                w.ndrange(16), max_groups=DEFAULT_PROFILE_GROUPS)
        infos = {
            "synth": _analyze_workload(STATIC_WORKLOAD),
            "vectorized": analyze_kernel(
                w.function(), {}, {}, w.ndrange(16), DEVICE,
                launch=vectorized),
            "scalar": scalar_reference(
                w.function(), w.make_buffers(), dict(w.scalars),
                w.ndrange(16), DEVICE),
        }
        assert infos["synth"].trace_source == "synth"
        vectors = {label: feature_vector(info, design)
                   for label, info in infos.items()}
        assert np.array_equal(vectors["synth"], vectors["vectorized"])
        assert np.array_equal(vectors["synth"], vectors["scalar"])

    def test_identical_cold_warm_and_uncached(self, tmp_path):
        design = Design(work_group_size=16)
        cache_dir = tmp_path / "store"
        cold = feature_vector(
            _analyze_workload(STATIC_WORKLOAD,
                              cache=open_cache(str(cache_dir))),
            design)
        warm = feature_vector(
            _analyze_workload(STATIC_WORKLOAD,
                              cache=open_cache(str(cache_dir))),
            design)
        uncached = feature_vector(
            _analyze_workload(STATIC_WORKLOAD, cache=None), design)
        assert np.array_equal(cold, warm)
        assert np.array_equal(cold, uncached)

    def test_identical_across_processes(self):
        """A fresh interpreter (different hash seed, import order)
        produces the same bytes — the property the cache keys and the
        NDJSON schema hash rely on."""
        script = (
            "import json, numpy as np\n"
            "from repro.devices import device_by_name\n"
            "from repro.dse import Design\n"
            "from repro.evaluation.harness import make_analyzer\n"
            "from repro.surrogate import feature_vector\n"
            "from repro.workloads import rodinia_workloads\n"
            f"w = [x for x in rodinia_workloads()\n"
            f"     if x.qualified_name == '{STATIC_WORKLOAD}'][0]\n"
            "info = make_analyzer(w, device_by_name('virtex7'))(16)\n"
            "v = feature_vector(info, Design(work_group_size=16))\n"
            "print(json.dumps([float(x) for x in v]))\n")
        env = dict(os.environ, PYTHONHASHSEED="12345")
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        child = json.loads(out.stdout)
        here = feature_vector(_analyze_workload(STATIC_WORKLOAD),
                              Design(work_group_size=16))
        assert child == [float(x) for x in here]

    def test_schema_hash_tracks_names(self):
        assert len(feature_schema_hash()) == 64
        assert len(set(FEATURE_NAMES)) == len(FEATURE_NAMES)


# ---------------------------------------------------------------------
# trainer + persistence
# ---------------------------------------------------------------------

class TestTrainer:
    def test_training_is_deterministic(self):
        X, cycles, kernels = _training_set(limit=6, designs=8)
        a = train_surrogate(X, cycles, kernels, rounds=50)
        b = train_surrogate(X, cycles, kernels, rounds=50)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.stump_features, b.stump_features)
        assert np.array_equal(a.stump_thresholds, b.stump_thresholds)
        assert a.sigma == b.sigma

    def test_model_ranks_its_training_rows(self):
        X, cycles, kernels = _training_set(limit=6, designs=8)
        model = train_surrogate(X, cycles, kernels, rounds=100)
        rho = spearman(np.log1p(cycles), model.predict_log(X))
        assert rho > 0.9          # in-sample fit should be strong
        lo, hi = model.confidence(1000.0)
        assert lo <= 1000.0 <= hi

    def test_holdout_report_holds_out_whole_kernels(self):
        X, cycles, kernels = _training_set(limit=8, designs=8)
        model, report = train_with_holdout(X, cycles, kernels,
                                           rounds=50)
        assert report.held_out
        assert set(report.held_out) <= set(kernels)
        # the persisted model still saw every kernel
        assert set(model.trained_on) == set(kernels)
        assert report.test_rows > 0

    def test_save_load_roundtrip_and_schema_guard(self, tmp_path):
        X, cycles, kernels = _training_set(limit=6, designs=8)
        model = train_surrogate(X, cycles, kernels, rounds=20)
        cache = open_cache(str(tmp_path / "store"))
        save_model(cache, model, DEVICE)
        loaded = load_model(cache, DEVICE)
        assert loaded is not None
        assert np.array_equal(loaded.weights, model.weights)
        assert np.array_equal(
            loaded.predict_cycles(X), model.predict_cycles(X))
        # a stale-schema artifact is refused, not mis-applied
        loaded.schema_hash = "0" * 64
        save_model(cache, loaded, DEVICE)
        assert load_model(cache, DEVICE) is None
        # and an absent artifact is simply None
        assert load_model(cache, DEVICE, tag="other") is None
        assert load_model(None, DEVICE) is None

    def test_ndjson_roundtrip_and_schema_rejection(self):
        catalog = default_suite_workloads("rodinia", 4)
        result = run_suite(catalog, DEVICE, designs_per_kernel=6,
                           collect_features=True)
        import io
        buf = io.StringIO()
        n = write_feature_rows(buf, result)
        assert n == len(result.predictions)
        X, cycles, kernels = read_feature_rows(
            buf.getvalue().splitlines())
        Xr, cyclesr, kernelsr = training_rows(result)
        assert np.array_equal(X, Xr)
        assert np.array_equal(cycles, cyclesr)
        assert kernels == kernelsr
        # header with a foreign schema hash fails loudly
        lines = buf.getvalue().splitlines()
        header = json.loads(lines[0])
        header["schema_hash"] = "f" * 64
        with pytest.raises(FeatureSchemaError):
            read_feature_rows([json.dumps(header)] + lines[1:])
        with pytest.raises(FeatureSchemaError):
            read_feature_rows(lines[1:])      # no header at all

    def test_suite_without_collection_attaches_no_features(self):
        catalog = default_suite_workloads("rodinia", 2)
        result = run_suite(catalog, DEVICE, designs_per_kernel=4)
        assert all(p.features is None for p in result.predictions)


# ---------------------------------------------------------------------
# serve: instant tier
# ---------------------------------------------------------------------

def _trained_model(cache, limit=10, designs=16):
    X, cycles, kernels = _training_set(limit=limit, designs=designs,
                                       cache=cache)
    model = train_surrogate(X, cycles, kernels)
    save_model(cache, model, DEVICE)
    return model


class TestServeIntegration:
    def test_instant_payload_fields_and_memo(self, tmp_path):
        from repro.cache.hot import HotCache
        from repro.serve import api
        cache = open_cache(str(tmp_path / "store"))
        _trained_model(cache)
        memo = HotCache()
        spec = {"workload": STATIC_WORKLOAD, "wg": 16,
                "tier": "instant"}
        payload = api.predict_payload(spec, cache=cache,
                                      instant_memo=memo)
        assert payload["tier"] == "instant"
        assert payload["feasible"] is True
        pred = payload["prediction"]
        assert 0 <= pred["cycles_lo"] <= pred["cycles"] \
            <= pred["cycles_hi"]
        assert pred["seconds"] > 0
        assert payload["surrogate"]["stumps"] > 0
        assert memo          # model + analysis were memoized
        again = api.predict_payload(spec, cache=cache,
                                    instant_memo=memo)
        assert again == payload

    def test_exact_payload_carries_tier(self):
        from repro.serve import api
        payload = api.predict_payload(
            {"workload": STATIC_WORKLOAD, "wg": 16})
        assert payload["tier"] == "exact"

    def test_instant_without_model_is_a_client_error(self, tmp_path):
        from repro.serve import api
        cache = open_cache(str(tmp_path / "store"))
        with pytest.raises(api.ApiError, match="surrogate train"):
            api.predict_payload({"workload": STATIC_WORKLOAD,
                                 "tier": "instant"}, cache=cache)

    def test_instant_rejects_simulate(self):
        from repro.serve import api
        with pytest.raises(api.ApiError, match="exact tier"):
            api.normalize_predict_spec(
                {"source": SAXPY, "global_size": 128,
                 "tier": "instant", "simulate": True})

    def test_request_key_folds_tier_and_prefilter(self):
        """The tier is part of a predict request's identity; the
        retired explore ``prefilter``/``top_k`` fields are unknown
        fields now, so they no longer move the explore key."""
        from repro.serve import api
        base = {"workload": STATIC_WORKLOAD, "wg": 16}
        assert api.request_key("predict", base) != api.request_key(
            "predict", dict(base, tier="instant"))
        ex = {"workload": STATIC_WORKLOAD}
        assert api.request_key("explore", ex) == api.request_key(
            "explore", dict(ex, prefilter="surrogate"))
        assert api.request_key("explore", ex) == api.request_key(
            "explore", dict(ex, prefilter="surrogate", top_k=128))

    def test_daemon_instant_tier_and_metrics(self, tmp_path):
        import urllib.request
        from repro.serve import ServerConfig, serve_in_thread

        cache_dir = str(tmp_path / "store")
        _trained_model(open_cache(cache_dir), limit=6, designs=8)
        handle = serve_in_thread(ServerConfig(
            port=0, executor="thread", jobs=2, cache_dir=cache_dir))
        try:
            def post(path, spec):
                req = urllib.request.Request(
                    handle.url + path,
                    data=json.dumps(spec).encode("utf-8"),
                    headers={"Content-Type": "application/json"})
                with urllib.request.urlopen(req, timeout=60) as resp:
                    return resp.status, json.loads(resp.read())

            spec = {"workload": STATIC_WORKLOAD, "wg": 16,
                    "tier": "instant"}
            status, payload = post("/predict", spec)
            assert status == 200
            assert payload["tier"] == "instant"
            # a distinct design point is a fresh instant answer; the
            # identical repeat comes from the hot tier
            post("/predict", dict(spec, pe=2))
            post("/predict", dict(spec, pe=2))
            with urllib.request.urlopen(handle.url + "/metrics",
                                        timeout=30) as resp:
                metrics = json.loads(resp.read())
            predict = metrics["endpoints"]["predict"]
            assert metrics["tiers"]["instant"] == 2
            assert predict["instant"] == 2
            assert predict["hot_hits"] == 1
            assert predict["instant_latency"]["count"] == 2
        finally:
            handle.stop()

    def test_cli_daemon_byte_identity_for_instant(self, tmp_path,
                                                  capsys):
        """The differential contract extends to the new tier: the CLI's
        ``predict --tier instant --json`` bytes equal the daemon's
        ``/predict`` response body for the same spec."""
        import urllib.request
        from repro.cli import main
        from repro.serve import ServerConfig, serve_in_thread

        cache_dir = str(tmp_path / "store")
        _trained_model(open_cache(cache_dir), limit=6, designs=8)
        code = main(["predict", "--workload", STATIC_WORKLOAD,
                     "--wg", "16", "--tier", "instant", "--json",
                     "--cache-dir", cache_dir])
        assert code == 0
        cli_bytes = capsys.readouterr().out.encode("utf-8")
        handle = serve_in_thread(ServerConfig(
            port=0, executor="thread", jobs=2, cache_dir=cache_dir))
        try:
            req = urllib.request.Request(
                handle.url + "/predict",
                data=json.dumps({"workload": STATIC_WORKLOAD,
                                 "wg": 16,
                                 "tier": "instant"}).encode("utf-8"))
            with urllib.request.urlopen(req, timeout=60) as resp:
                served = resp.read()
        finally:
            handle.stop()
        assert served == cli_bytes


# ---------------------------------------------------------------------
# CLI: surrogate subcommand + suite --export-features
# ---------------------------------------------------------------------

class TestCli:
    def test_train_then_info_then_instant_predict(self, tmp_path,
                                                  capsys):
        from repro.cli import main
        cache_dir = str(tmp_path / "store")
        code = main(["surrogate", "train", "--suite", "rodinia",
                     "--limit", "6", "--designs", "8",
                     "--cache-dir", cache_dir])
        out = capsys.readouterr().out
        assert code == 0
        assert "saved surrogate" in out
        assert main(["surrogate", "info",
                     "--cache-dir", cache_dir]) == 0
        assert "stumps" in capsys.readouterr().out
        code = main(["predict", "--workload", STATIC_WORKLOAD,
                     "--wg", "16", "--tier", "instant",
                     "--cache-dir", cache_dir])
        out = capsys.readouterr().out
        assert code == 0
        assert "instant" in out and "interval" in out

    def test_info_without_artifact(self, tmp_path, capsys):
        from repro.cli import main
        code = main(["surrogate", "info",
                     "--cache-dir", str(tmp_path / "empty")])
        assert code == 1
        assert "no trained surrogate" in capsys.readouterr().out

    def test_train_requires_cache(self, capsys):
        from repro.cli import main
        code = main(["surrogate", "train", "--no-cache"])
        assert code == 2

    def test_suite_export_features(self, tmp_path, capsys):
        from repro.cli import main
        path = tmp_path / "rows.ndjson"
        code = main(["suite", "--suite", "rodinia", "--limit", "3",
                     "--designs", "4", "--export-features", str(path)])
        assert code == 0
        assert "wrote 12 feature rows" in capsys.readouterr().out
        X, cycles, kernels = read_feature_rows(
            path.read_text().splitlines())
        assert X.shape == (12, len(FEATURE_NAMES))
        assert len(set(kernels)) == 3

    def test_suite_export_features_conflicts_with_json(self, tmp_path,
                                                       capsys):
        from repro.cli import main
        code = main(["suite", "--limit", "1", "--json",
                     "--export-features",
                     str(tmp_path / "rows.ndjson")])
        assert code == 2

    def test_train_from_features_roundtrip(self, tmp_path, capsys):
        from repro.cli import main
        cache_dir = str(tmp_path / "store")
        path = tmp_path / "rows.ndjson"
        assert main(["suite", "--suite", "rodinia", "--limit", "6",
                     "--designs", "8", "--export-features",
                     str(path), "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        code = main(["surrogate", "train", "--from-features",
                     str(path), "--cache-dir", cache_dir])
        out = capsys.readouterr().out
        assert code == 0
        assert "loaded 48 rows" in out
        assert load_model(open_cache(cache_dir), DEVICE) is not None
