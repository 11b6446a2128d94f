"""A ready-made serving deployment over a simulated platform.

Shared by the ``repro serve`` CLI command, the serving benchmarks, the
chaos soak test and ``examples/serve_demo.py``: a Platform 1 style
cluster with per-machine CPU sensors and a shared network-availability
sensor feeding the NWS, plus a family of SOR
models at several problem sizes registered against one shared
expression (they differ only in bindings, so every model hits the same
compiled plan).
"""

from __future__ import annotations

from repro.core.stochastic import StochasticValue
from repro.faults.plan import FaultPlan
from repro.nws.service import DegradationPolicy, NetworkWeatherService
from repro.serving.cluster import ClusterConfig, ServingCluster
from repro.serving.server import ModelSpec, PredictionServer, ServerConfig
from repro.sor.decomposition import equal_strips
from repro.structural.parameters import param_name
from repro.structural.sor_model import SORModel, bindings_for_platform
from repro.workload.loadgen import MIN_AVAILABILITY, single_mode_trace
from repro.workload.modes import LoadMode
from repro.workload.platforms import platform1

__all__ = ["demo_server", "demo_cluster", "DEMO_SIZES", "NET_RESOURCE"]

#: SOR problem sizes registered as models ``sor-<size>``.
DEMO_SIZES = (600, 1000, 1600)

#: NWS resource name of the shared network-availability sensor.
NET_RESOURCE = "net:segment"

#: Iterations per registered SOR model.
_ITERATIONS = 20


def _demo_nws(duration: float, warmup: float, faults: FaultPlan | None, rng):
    """The shared Platform 1 telemetry substrate: ``(plat, nws, resources)``."""
    plat = platform1(duration=duration, rng=rng)
    nws = NetworkWeatherService(
        degradation=DegradationPolicy(prior=StochasticValue(0.5, 0.4)),
        faults=faults,
    )
    resources = {}
    for m in plat.machines:
        resource = f"cpu:{m.name}"
        nws.register(resource, m.availability)
        resources[m.name] = resource
    net_trace = single_mode_trace(
        LoadMode(mean=0.7, std=0.06, weight=1.0), duration, rng=rng
    )
    nws.register(NET_RESOURCE, net_trace)
    if warmup > 0.0:
        nws.advance_to(warmup)
    return plat, nws, resources


def _register_demo_models(target, plat, resources, sizes: tuple) -> None:
    """Register ``sor-<size>`` specs on a server or cluster."""
    n_procs = len(plat.machines)
    model = SORModel(n_procs=n_procs, iterations=_ITERATIONS)
    expression = model.expression()
    clip = {param_name("load", p): (MIN_AVAILABILITY, 1.0) for p in range(n_procs)}
    clip["bw_avail"] = (MIN_AVAILABILITY, 1.0)
    for size in sizes:
        bindings = bindings_for_platform(
            plat.machines, plat.network, equal_strips(size, n_procs)
        )
        spec = ModelSpec(
            name=f"sor-{size}",
            expression=expression,
            bindings=bindings,
            resources={
                **{
                    param_name("load", p): resources[m.name]
                    for p, m in enumerate(plat.machines)
                },
                "bw_avail": NET_RESOURCE,
            },
            clip=clip,
        )
        target.register_model(spec)


def demo_server(
    *,
    duration: float = 3600.0,
    sizes: tuple = DEMO_SIZES,
    config: ServerConfig | None = None,
    faults: FaultPlan | None = None,
    warmup: float = 60.0,
    rng=11,
    tracer=None,
):
    """A serving stack over Platform 1: ``(server, platform, nws)``.

    The NWS runs with a degradation policy (prior: dedicated-ish load)
    so every qualified query yields a typed, tagged answer; ``faults``
    threads a chaos schedule into every sensor.  ``warmup`` simulated
    seconds of telemetry are ingested before the server starts, so the
    first requests see real forecasts rather than fallbacks.  A
    ``tracer`` (see :mod:`repro.obs`) is shared by the NWS and the
    server, so one trace covers forecast lookups through delivery.
    """
    plat, nws, resources = _demo_nws(duration, warmup, faults, rng)
    server = PredictionServer(nws, config=config, rng=rng, tracer=tracer)
    if tracer is not None:
        nws.tracer = server.tracer
    _register_demo_models(server, plat, resources, sizes)
    return server, plat, nws


def demo_cluster(
    *,
    duration: float = 3600.0,
    sizes: tuple = DEMO_SIZES,
    config: ClusterConfig | None = None,
    faults: FaultPlan | None = None,
    warmup: float = 60.0,
    rng=11,
    tracer=None,
    elastic=None,
):
    """A sharded serving cluster over Platform 1: ``(cluster, plat, nws)``.

    Same telemetry substrate and model family as :func:`demo_server`,
    behind a :class:`~repro.serving.cluster.ServingCluster`.  One
    ``faults`` plan serves both chaos planes: ``sensor_dropouts`` /
    ``corruptions`` hit the NWS sensors, ``machine_crashes`` keyed
    ``worker-<i>`` crash the serving workers themselves.  A ``tracer``
    is shared by the NWS, the cluster and every worker.  ``elastic``
    (an :class:`~repro.serving.elastic.ElasticConfig`) turns on the
    autoscaler; the default ``None`` keeps the fleet fixed.
    """
    plat, nws, resources = _demo_nws(duration, warmup, faults, rng)
    cluster = ServingCluster(
        nws, config=config, faults=faults, rng=rng, tracer=tracer, elastic=elastic
    )
    if tracer is not None:
        nws.tracer = cluster.tracer
    _register_demo_models(cluster, plat, resources, sizes)
    return cluster, plat, nws
