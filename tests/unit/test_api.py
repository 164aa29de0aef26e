"""Public API surface: the blessed exports of ``import repro``."""

import pytest

import repro

#: The blessed public surface.  Adding or removing a name here is an API
#: decision — update README/DESIGN when this changes.
PUBLIC_SURFACE = [
    "BackgroundSpec",
    "CoflowSpec",
    "DutyCycleSpec",
    "ExperimentConfig",
    "FatTree",
    "FaultSpec",
    "IncastSpec",
    "LeafSpine",
    "RunReport",
    "RunResult",
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
    # (repro.experiments / repro.core / repro.forwarding) or gone
    # (Experiment, SkewSpec).
    "sweep", "SystemConfig", "WorkloadConfig", "FlowInfo", "Experiment",
    "MarkingComponent", "MarkingDiscipline", "OrderingComponent",
    "VertigoSwitchParams", "SkewSpec",
])
def test_names_outside_the_surface_raise(name):
    with pytest.raises(AttributeError):
        getattr(repro, name)
