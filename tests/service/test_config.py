"""The one frozen ServiceConfig: validation, derived values, and proof
that a single config object reaches every serving layer."""

import math

import pytest

from repro.cli import main
from repro.cluster import ClusterRouter
from repro.errors import BatchLimitError, ServiceConfigError, ServiceError
from repro.faults.recovery import DEFAULT_RECOVERY, RecoveryPolicy
from repro.service import BFSService, Query, ServiceConfig
from repro.xbfs.concurrent import MAX_CONCURRENT
from repro.xbfs.linalg_batch import MAX_LINALG_BATCH

NAN = math.nan
INF = math.inf

#: Every field with values its validation must refuse.
BAD_SETTINGS = {
    "memory_budget_mb": [0, -1.0, NAN, INF, 1e-9, 1e308, "256"],
    "workers": [0, -2, 1.5, True, None],
    "max_batch": [0, -1, MAX_CONCURRENT + 1, 2.0],
    "window_ms": [-1.0, NAN, INF, None],
    "max_queue_depth": [0, -5, 2.5, None],
    "default_deadline_ms": [0.0, -1.0, NAN, INF],
    "scale_factor": [0, -1, 1.5, None],
    "seed": [-1, 0.5, None],
    "num_gcds": [0, -4, 2.0],
    "distributed_threshold_mb": [-0.5, NAN, INF, 1e308, "1"],
    "linalg_batch_threshold": [0, 1, MAX_LINALG_BATCH + 1, 64.0],
    "partition": ["3d", "", None],
    "recovery": ["default", 3],
    "bounded_metrics": [1, "yes", None],
}


@pytest.mark.parametrize(
    "field,value",
    [(f, v) for f, values in BAD_SETTINGS.items() for v in values],
)
def test_bad_setting_raises_typed_error(field, value):
    with pytest.raises(ServiceConfigError) as exc:
        ServiceConfig(**{field: value})
    assert isinstance(exc.value, ServiceError)
    assert isinstance(exc.value, ValueError)
    assert field in str(exc.value)


def test_every_field_has_bad_values():
    from dataclasses import fields

    assert {f.name for f in fields(ServiceConfig)} == set(BAD_SETTINGS)


class TestDerived:
    def test_defaults_are_valid(self):
        cfg = ServiceConfig()
        assert cfg.recovery is DEFAULT_RECOVERY
        assert cfg.memory_budget_bytes == 256 * 1024 * 1024
        assert cfg.distributed_threshold_bytes is None
        assert (cfg.batch_cap, cfg.batch_cap_engine) == (MAX_CONCURRENT, "concurrent")
        assert cfg.batch_limit == MAX_CONCURRENT

    def test_linalg_tier_lifts_the_batch_cap(self):
        cfg = ServiceConfig(linalg_batch_threshold=64)
        assert (cfg.batch_cap, cfg.batch_cap_engine) == (
            MAX_LINALG_BATCH, "linalg_batch")
        assert ServiceConfig(linalg_batch_threshold=64, max_batch=128).batch_limit == 128

    def test_batch_limit_error_is_a_config_error(self):
        with pytest.raises(BatchLimitError, match="concurrent"):
            ServiceConfig(max_batch=128)
        assert issubclass(BatchLimitError, ServiceConfigError)

    def test_threshold_bytes_derived_from_mb(self):
        cfg = ServiceConfig(distributed_threshold_mb=0.05)
        assert cfg.distributed_threshold_bytes == int(0.05 * 1024 * 1024)

    def test_frozen_and_overrides_revalidate(self):
        cfg = ServiceConfig()
        with pytest.raises(AttributeError):
            cfg.workers = 3
        assert cfg.with_overrides() is cfg
        assert cfg.with_overrides(workers=3).workers == 3
        with pytest.raises(ServiceConfigError):
            cfg.with_overrides(workers=0)


class TestKeywordSpelling:
    def test_service_builds_config_from_keywords(self):
        svc = BFSService(workers=3, window_ms=1.0, max_queue_depth=7)
        assert svc.config == ServiceConfig(
            workers=3, window_ms=1.0, max_queue_depth=7)

    def test_service_overrides_a_base_config(self):
        base = ServiceConfig(workers=3)
        assert BFSService(config=base).config is base
        svc = BFSService(config=base, seed=5)
        assert (svc.config.workers, svc.config.seed) == (3, 5)

    def test_unknown_keyword_is_rejected(self):
        with pytest.raises(TypeError):
            BFSService(scaled_cache=False)
        with pytest.raises(TypeError):
            ClusterRouter(repair_max_fraction=0.1)

    def test_bad_setting_fails_before_any_layer(self):
        with pytest.raises(ServiceConfigError, match="max_queue_depth"):
            BFSService(max_queue_depth=0)
        with pytest.raises(ServiceConfigError, match="memory_budget_mb"):
            ClusterRouter(memory_budget_mb=NAN)


def test_one_config_reaches_every_layer():
    recovery = RecoveryPolicy(max_dispatch_retries=1)
    router = ClusterRouter(
        replicas=3,
        workers=1,
        window_ms=2.0,
        max_queue_depth=16,
        max_batch=100,
        linalg_batch_threshold=64,
        partition="2d",
        num_gcds=8,
        distributed_threshold_mb=0.5,
        recovery=recovery,
        bounded_metrics=True,
    )
    cfg = router.config
    assert cfg.recovery is recovery and cfg.max_batch == 100
    for replica in router.replicas:
        service = replica.service
        assert service.config is cfg
        assert service.scheduler.config is cfg
        assert service.executor.config is cfg
        assert service.admission.config is cfg
        assert service.scheduler.executor is service.executor
        assert service.scheduler.admission is service.admission
        assert service.scheduler.max_batch == 100
        assert len(service.scheduler.workers) == 1
        assert not service.metrics.exact_percentiles
        assert service.observers is router.observers


def _write_trace(path):
    path.write_text('{"t_ms": 0.0, "graph": "rmat:8", "source": 1}\n')
    return str(path)


class TestCli:
    @pytest.mark.parametrize("flag,value", [
        ("--queue-depth", "0"),
        ("--memory-budget-mb", "nan"),
        ("--distributed-threshold", "nan"),
        ("--window-ms", "nan"),
        ("--deadline-ms", "nan"),
        ("--scale-factor", "0"),
        ("--workers", "0"),
    ])
    def test_serve_bad_setting_exits_2(self, tmp_path, capsys, flag, value):
        rc = main(["serve", "--trace", _write_trace(tmp_path / "t.jsonl"),
                   flag, value])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "must be" in err

    @pytest.mark.parametrize("command", [
        ["service-bench", "--graphs", "rmat:8"],
        ["chaos-bench", "--graphs", "rmat:8"],
        ["cluster-bench", "--replicas", "1", "--graphs", "rmat:8"],
    ])
    def test_every_serving_command_validates(self, capsys, command):
        rc = main([*command, "--window-ms", "nan"])
        assert rc == 2
        assert "window_ms" in capsys.readouterr().err

    def test_cluster_bench_oracle_uses_the_router_config(self, tmp_path, capsys):
        from repro.metrics.results_io import load_results

        out = tmp_path / "sweep.json"
        rc = main(["cluster-bench", "--replicas", "1", "--graphs", "rmat:9",
                   "--queries", "32", "--linalg-batch-threshold", "64",
                   "--max-batch", "128", "--out", str(out)])
        assert rc == 0
        (summary,) = load_results(out)
        assert summary["bit_identical"] == 1
        assert summary["common_served"] == summary["queries_served"] > 0


def test_config_serves_queries_end_to_end():
    svc = BFSService(config=ServiceConfig(workers=1, window_ms=0.0))
    report = svc.replay([Query(qid=i, graph="rmat:8", source=i,
                               arrival_ms=float(i)) for i in range(4)])
    assert len(report.served) == 4
