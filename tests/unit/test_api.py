"""Public API surface: blessed exports and the façade."""

import pytest

import repro
from repro import Experiment, ExperimentConfig
from repro.net.topology import FatTree

#: The blessed public surface.  Adding or removing a name here is an API
#: decision — update README/DESIGN when this changes.
PUBLIC_SURFACE = [
    "BackgroundSpec",
    "CoflowSpec",
    "DutyCycleSpec",
    "Experiment",
    "ExperimentConfig",
    "FatTree",
    "FaultSpec",
    "IncastSpec",
    "LeafSpine",
    "RunReport",
    "RunResult",
    "SkewSpec",
    "SupervisorPolicy",
    "SweepReport",
    "TraceConfig",
    "WorkloadSpec",
    "__version__",
    "parse_faults",
    "parse_workloads",
    "run_digest",
    "run_experiment",
    "run_many",
    "run_supervised",
]


def test_public_surface_snapshot():
    assert sorted(repro.__all__) == PUBLIC_SURFACE
    for name in PUBLIC_SURFACE:
        assert hasattr(repro, name), name


@pytest.mark.parametrize("name", [
    "NoSuchThing",
    # Former top-level exports, now only at their canonical homes
    # (repro.experiments / repro.core / repro.forwarding).
    "sweep", "SystemConfig", "WorkloadConfig", "FlowInfo",
    "MarkingComponent", "MarkingDiscipline", "OrderingComponent",
    "VertigoSwitchParams",
])
def test_names_outside_the_surface_raise(name):
    with pytest.raises(AttributeError):
        getattr(repro, name)


def test_builder_matches_hand_built_config():
    built = (Experiment.bench()
             .system("vertigo")
             .transport("dctcp")
             .workload(bg_load=0.3, incast_load=0.1)
             .sim_ms(20)
             .seed(3)
             .build())
    direct = ExperimentConfig.bench_profile(
        system="vertigo", transport="dctcp", bg_load=0.3,
        incast_load=0.1, sim_time_ns=20_000_000, seed=3)
    # Topology instances compare by identity; everything else by value.
    assert repr(built.topology) == repr(direct.topology)
    for name in ("network", "system", "transport_name", "transport",
                 "workload", "sim_time_ns", "seed", "faults",
                 "telemetry_interval_ns", "sanitize", "trace"):
        assert getattr(built, name) == getattr(direct, name), name


def test_builder_applies_system_kwargs_and_overrides():
    config = (Experiment.bench()
              .system("dibs", dibs_max_deflections=5)
              .transport("swift", init_rto_ns=70_000_000)
              .build())
    assert config.system.name == "dibs"
    assert config.system.dibs_max_deflections == 5
    assert config.transport_name == "swift"
    assert config.transport.init_rto_ns == 70_000_000


def test_builder_topology_faults_trace_sanitize():
    config = (Experiment.bench()
              .topology(FatTree(4))
              .faults("link:leaf0-spine0:down@2ms,up@5ms")
              .trace(level="packet", sample_us=100)
              .sanitize()
              .build())
    assert isinstance(config.topology, FatTree)
    assert [spec.kind for spec in config.faults] == ["down", "up"]
    assert config.trace.level == "packet"
    assert config.trace.sample_period_ns == 100_000
    assert config.sanitize


def test_builder_rejects_unknown_profile():
    with pytest.raises(ValueError):
        Experiment("warp")


def test_paper_profile_overrides():
    config = (Experiment.paper()
              .system("ecmp")
              .sim_ms(50)
              .seed(9)
              .build())
    assert config.topology.n_hosts == 320
    assert config.system.name == "ecmp"
    assert config.sim_time_ns == 50_000_000
    assert config.seed == 9


def test_builder_workload_specs_and_strings():
    from repro import CoflowSpec

    config = (Experiment.bench()
              .workload(CoflowSpec(width=4, cps=500),
                        "background:load=0.1,skew=zipf,zipf_s=1.4",
                        warmup="2ms", cooldown=1_000_000)
              .build())
    kinds = [spec.kind for spec in config.workload.specs]
    assert kinds == ["coflow", "background"]
    assert config.workload.specs[1].skew.kind == "zipf"
    assert config.workload.warmup_ns == 2_000_000
    assert config.workload.cooldown_ns == 1_000_000


def test_builder_workload_rejects_specs_plus_legacy_kwargs():
    with pytest.raises(ValueError):
        Experiment.bench().workload("background:load=0.1", bg_load=0.2)
