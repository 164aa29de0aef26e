"""Background (all-to-all) traffic: the load convention.

Flows arrive as a Poisson process between uniformly random host pairs with
sizes drawn from an empirical distribution.  The offered load is expressed
as a fraction of the aggregate host access bandwidth (the convention of
the paper and of the pFabric/Homa line of simulators): a load of ``L``
makes each host *send*, on average, ``L × host_rate`` bits per second.
The generator itself is :class:`~repro.workload.dutycycle.DutyCycleTraffic`
at ``duty=1.0``.
"""

from __future__ import annotations


def poisson_rate_for_load(load: float, n_hosts: int, host_rate_bps: int,
                          mean_flow_bytes: float) -> float:  # noqa: VR003
    """Network-wide flow arrival rate (flows/s) for a target load fraction.

    ``mean_flow_bytes`` is a statistical mean and therefore fractional;
    the returned arrival *rate* (flows/s) is likewise a float by nature.
    """
    if not 0 <= load:
        raise ValueError("load must be non-negative")
    return load * n_hosts * host_rate_bps / (8.0 * mean_flow_bytes)  # noqa: VR003
