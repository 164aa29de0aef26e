"""Deterministic, declaratively-configured fault injection.

Answering the reproduction's robustness questions — does Vertigo still
beat DIBS/DRILL when a spine link dies mid-incast?  do deflection loops
form under failure-induced asymmetry? — requires a dataplane that can be
rewired *while the simulation runs*.  This package provides the
declarative layer: :class:`~repro.faults.spec.FaultSpec` describes timed
``link_down`` / ``link_up`` transitions and probabilistic corruption
loss on named cables; :class:`~repro.faults.injector.FaultInjector`
schedules them on the engine (integer ns, deterministic ordering, named
RNG streams) and applies them through the runtime-rewiring surface of
:class:`~repro.net.builder.Network`, which recomputes routes over the
surviving edges and invalidates every memoized forwarding decision.

Scenarios thread through :class:`~repro.experiments.config.ExperimentConfig`
(``faults=...``), the CLI (``--fault link:leaf0-spine1:down@50ms,up@120ms``)
and the determinism digest; ``FaultInjector.applied`` is the run's
fault timeline.  A healthy run never imports the injector.
"""
