"""User-initiated speed tests over a scenario (the M-Lab stand-in).

The generator walks the scenario hour by hour.  Each user group's test
count is Poisson with an *endogenous* rate: users test more when the
ambient RTT is bad and right after their route changes — the precise
mechanism that makes "a test was run" a collider between route changes
and performance (§3).  Every test is tagged with why it fired, so the
collider can be conditioned on (to reproduce the bias) or avoided.

Generation runs in two phases sharing one *plan*:

1. **Plan** — walk the window, price each cell's ambient RTT from a
   vectorised per-route curve, and draw each ⟨group, hour⟩ cell's
   Poisson test count from a dedicated *rate* RNG stream.
2. **Emit** — either the batched columnar path
   (:meth:`SpeedTestGenerator.generate_frame`, the default: one
   vectorised RNG call per pooled route instead of per test, column
   chunks instead of ``Measurement`` objects) or the scalar path
   (:meth:`SpeedTestGenerator.generate` / ``mode="scalar"``, one
   :class:`Measurement` per test).

Because the Poisson draws live on their own stream, the two emission
modes produce *exactly* the same cell counts under the same seed, and
their per-test samples are draws from the same distributions — the
property the batched-vs-scalar equivalence tests pin down.

Set ``endogenous=False`` to generate the counterfactual platform whose
sampling is condition-independent; the contrast between the two is
experiment E2.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from repro.errors import PlatformError
from repro.obs import get_metrics, span
from repro.frames.builder import FrameBuilder
from repro.frames.column import (
    KIND_BOOL,
    KIND_FLOAT,
    KIND_INT,
    KIND_OBJECT,
)
from repro.frames.frame import Frame
from repro.netsim.bgp import Route
from repro.netsim.geo import propagation_delay_ms
from repro.netsim.scenario import Scenario
from repro.netsim.throughput import ThroughputModel
from repro.netsim.topology import Topology
from repro.netsim.traceroute import detect_ixp_crossings, synthesize_traceroute
from repro.mplatform.records import (
    MEASUREMENT_COLUMNS,
    Measurement,
    Trigger,
    measurements_to_frame,
)

logger = logging.getLogger(__name__)

#: Declared kinds for the columnar fast path (skips per-chunk inference
#: and keeps an empty frame's schema fully typed).
_FRAME_KINDS: dict[str, str] = {
    "asn": KIND_INT,
    "city": KIND_OBJECT,
    "unit": KIND_OBJECT,
    "time_hour": KIND_FLOAT,
    "day": KIND_INT,
    "rtt_ms": KIND_FLOAT,
    "as_path": KIND_OBJECT,
    "crosses_ixp": KIND_BOOL,
    "ixps": KIND_OBJECT,
    "trigger": KIND_OBJECT,
    "server_site": KIND_OBJECT,
    "download_mbps": KIND_FLOAT,
}


def _split_rng(
    rng: np.random.Generator | int | None,
) -> tuple[np.random.Generator, np.random.Generator]:
    """Derive the (rate, noise) stream pair shared by both emission modes.

    Cell counts draw from the *rate* stream only, so the batched and
    scalar paths see identical Poisson sequences; per-test samples draw
    from the *noise* stream in whatever order their mode prefers.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    rate_seed, noise_seed = rng.integers(0, 2**63, size=2)
    return (
        np.random.default_rng(int(rate_seed)),
        np.random.default_rng(int(noise_seed)),
    )


@dataclass(frozen=True)
class SpeedTestConfig:
    """Knobs for the speed-test generator.

    Attributes
    ----------
    endogenous:
        When True (default), test rates respond to RTT and route churn;
        when False every group tests at its base rate regardless of
        conditions (an idealised unbiased platform).
    change_window_hours:
        How long after a route change the curiosity burst lasts.
    max_tests_per_group_hour:
        Safety cap on the Poisson draw.
    """

    endogenous: bool = True
    change_window_hours: float = 24.0
    max_tests_per_group_hour: int = 200


@dataclass(frozen=True)
class _Cell:
    """One ⟨group, hour⟩ cell with a positive test count."""

    group_index: int
    hour: float
    n_tests: int
    ambient_ms: float
    recently_changed: bool
    state_key: tuple[int, frozenset]


@dataclass
class _GenerationPlan:
    """Everything emission needs: cells plus route/topology lookups."""

    cells: list[_Cell]
    routes: dict[tuple[int, tuple], Route]  # (asn, state_key) -> route
    topologies: dict[tuple, Topology]  # state_key -> epoch topology


class SpeedTestGenerator:
    """Generates measurements for every user group in a scenario."""

    def __init__(
        self,
        scenario: Scenario,
        config: SpeedTestConfig | None = None,
        throughput: ThroughputModel | None = None,
    ) -> None:
        self.scenario = scenario
        self.config = config or SpeedTestConfig()
        self.throughput = (
            throughput
            if throughput is not None
            else ThroughputModel(scenario.latency)
        )
        self._backhaul_cache: dict[tuple[int, str], float] = {}
        self._trace_cache: dict[tuple[int, int, frozenset], tuple[str, ...]] = {}

    def _backhaul_ms(self, asn: int, city: str, backhaul_city: str | None) -> float:
        key = (asn, city)
        if key not in self._backhaul_cache:
            home = self.scenario.topology.get_as(asn).city
            target = backhaul_city or home
            self._backhaul_cache[key] = 2.0 * propagation_delay_ms(
                self.scenario.cities.get(city), self.scenario.cities.get(target)
            )
        return self._backhaul_cache[key]

    def _crossings(self, asn: int, hour: float) -> tuple[str, ...]:
        """IXPs crossed by *asn*'s current route (cached per routing state)."""
        state = self.scenario.timeline.state_at(hour)
        key = (asn, state.epoch, state.dead_links)
        if key not in self._trace_cache:
            routes = self.scenario.timeline.routes_at(hour, self.scenario.content_asn)
            route = routes.get(asn)
            if route is None:
                raise PlatformError(f"AS{asn} cannot reach the measurement target")
            trace = synthesize_traceroute(state.topology, state.ixps, route)
            self._trace_cache[key] = tuple(detect_ixp_crossings(trace, state.ixps))
        return self._trace_cache[key]

    # -- planning -------------------------------------------------------------

    def _plan(self, rate_rng: np.random.Generator) -> _GenerationPlan:
        """Walk the window and fix every cell's test count and rate context.

        Ambient RTT comes from one vectorised noise-free curve per
        ⟨AS, routing-state⟩ (evaluated over the whole integer-hour grid)
        instead of a per-cell Python loop over links; the Poisson count
        draws happen here, in deterministic ⟨hour, group⟩ order, so both
        emission modes inherit identical cells.
        """
        with span("generate.plan") as sp:
            plan = self._plan_cells(rate_rng)
            sp.set(cells=len(plan.cells))
        return plan

    def _plan_cells(self, rate_rng: np.random.Generator) -> _GenerationPlan:
        scenario = self.scenario
        config = self.config
        n_hours = int(scenario.duration_hours)
        grid = np.arange(n_hours, dtype=np.float64)
        cells: list[_Cell] = []
        routes_by_key: dict[tuple[int, tuple], Route] = {}
        topologies: dict[tuple, Topology] = {}
        ambient_curves: dict[tuple[int, tuple], np.ndarray] = {}
        last_path: dict[int, tuple[int, ...]] = {}
        last_change: dict[int, float] = {}

        for hour in range(n_hours):
            t = float(hour)
            state = scenario.timeline.state_at(t)
            routes = scenario.timeline.routes_at(t, scenario.content_asn)
            state_key = (state.epoch, state.dead_links)
            if state_key not in topologies:
                topologies[state_key] = state.topology
            for gi, group in enumerate(scenario.user_groups):
                route = routes.get(group.asn)
                if route is None:
                    continue
                if last_path.get(group.asn) not in (None, route.path):
                    last_change[group.asn] = t
                last_path[group.asn] = route.path

                route_key = (group.asn, state_key)
                if route_key not in routes_by_key:
                    routes_by_key[route_key] = route
                    ambient_curves[route_key] = scenario.latency.expected_rtt_batch(
                        route, grid, topology=state.topology
                    )
                ambient = float(ambient_curves[route_key][hour]) + self._backhaul_ms(
                    group.asn, group.city, group.backhaul_city
                )
                since_change = (
                    t - last_change[group.asn] if group.asn in last_change else None
                )
                if config.endogenous:
                    rate = group.test_rate(
                        ambient, since_change, config.change_window_hours
                    )
                else:
                    rate = group.base_rate_per_hour
                n_tests = int(
                    min(
                        rate_rng.poisson(rate * group.n_users),
                        config.max_tests_per_group_hour,
                    )
                )
                if n_tests == 0:
                    continue
                recently_changed = (
                    since_change is not None
                    and since_change < config.change_window_hours
                )
                cells.append(
                    _Cell(
                        group_index=gi,
                        hour=t,
                        n_tests=n_tests,
                        ambient_ms=ambient,
                        recently_changed=recently_changed,
                        state_key=state_key,
                    )
                )
        return _GenerationPlan(
            cells=cells, routes=routes_by_key, topologies=topologies
        )

    # -- scalar emission (the escape hatch) -----------------------------------

    def generate(self, rng: np.random.Generator | int | None = 0) -> list[Measurement]:
        """Run the whole window and return every measurement taken.

        This is the scalar path: one :class:`Measurement` object per
        test, sampled one RNG call at a time.  The recorded
        ``time_hour`` is the *same* hour the congestion-dependent RTT
        was sampled at (historically a second, independent uniform was
        recorded, decorrelating timestamps from the diurnal state that
        produced the RTT).
        """
        with span("generate", mode="scalar") as sp:
            out = self._generate_scalar(rng)
            sp.set(rows=len(out))
        get_metrics().counter(
            "measurements_generated_total", "speed tests emitted by the simulator"
        ).inc(len(out))
        logger.info("generated %d measurements (scalar path)", len(out))
        return out

    def _generate_scalar(self, rng: np.random.Generator | int | None) -> list[Measurement]:
        rate_rng, noise_rng = _split_rng(rng)
        plan = self._plan(rate_rng)
        scenario = self.scenario
        out: list[Measurement] = []
        for cell in plan.cells:
            group = scenario.user_groups[cell.group_index]
            route = plan.routes[(group.asn, cell.state_key)]
            topo = plan.topologies[cell.state_key]
            crossings = self._crossings(group.asn, cell.hour)
            backhaul = self._backhaul_ms(group.asn, group.city, group.backhaul_city)
            for _ in range(cell.n_tests):
                test_hour = cell.hour + float(noise_rng.uniform(0, 1))
                sample = scenario.latency.sample_rtt(
                    route, test_hour, noise_rng, topology=topo
                )
                rtt = sample.total_ms + backhaul
                tput = self.throughput.sample(
                    route, rtt, test_hour, noise_rng, topology=topo
                )
                trigger = self._classify_trigger(
                    group, cell.ambient_ms, cell.recently_changed, noise_rng
                )
                out.append(
                    Measurement(
                        asn=group.asn,
                        city=group.city,
                        time_hour=test_hour,
                        rtt_ms=rtt,
                        as_path=route.path,
                        ixps_crossed=crossings,
                        trigger=trigger,
                        download_mbps=tput.download_mbps,
                    )
                )
        return out

    # -- batched emission (the columnar fast path) ----------------------------

    def generate_frame(
        self,
        rng: np.random.Generator | int | None = 0,
        mode: str = "batch",
    ) -> Frame:
        """Run the whole window and return the measurement frame directly.

        ``mode="batch"`` (default) pools every cell of a ⟨group,
        routing-state⟩ pair into single vectorised RTT/throughput/
        trigger draws and accumulates typed column chunks — no
        per-test Python work and no intermediate ``Measurement``
        objects.  Repeated per-pool strings (unit label, AS path, IXP
        list) are stored as one shared object per chunk, not copied
        per row.

        ``mode="scalar"`` is the escape hatch: the classic object path
        (:meth:`generate`) followed by row-by-row frame export.  Cell
        counts are identical across modes under the same seed; samples
        agree in distribution.
        """
        if mode == "scalar":
            return measurements_to_frame(self.generate(rng))
        if mode != "batch":
            raise PlatformError(f"unknown generation mode {mode!r}")
        with span("generate", mode="batch") as sp:
            frame = self._generate_batch(rng)
            sp.set(rows=frame.num_rows)
        get_metrics().counter(
            "measurements_generated_total", "speed tests emitted by the simulator"
        ).inc(frame.num_rows)
        logger.info("generated %d measurements (batched path)", frame.num_rows)
        return frame

    def _generate_batch(self, rng: np.random.Generator | int | None) -> Frame:
        rate_rng, noise_rng = _split_rng(rng)
        plan = self._plan(rate_rng)
        scenario = self.scenario

        pools: dict[tuple[int, tuple], list[_Cell]] = {}
        for cell in plan.cells:
            pools.setdefault((cell.group_index, cell.state_key), []).append(cell)

        builder = FrameBuilder(MEASUREMENT_COLUMNS, kinds=_FRAME_KINDS)
        for (gi, state_key), pool in pools.items():
            group = scenario.user_groups[gi]
            route = plan.routes[(group.asn, state_key)]
            topo = plan.topologies[state_key]
            counts = np.array([c.n_tests for c in pool], dtype=np.int64)
            n = int(counts.sum())

            start_hours = np.repeat(
                np.array([c.hour for c in pool], dtype=np.float64), counts
            )
            time_hour = start_hours + noise_rng.uniform(0.0, 1.0, size=n)
            latency = scenario.latency.sample_rtt_batch(
                route, time_hour, noise_rng, topology=topo
            )
            backhaul = self._backhaul_ms(group.asn, group.city, group.backhaul_city)
            rtt = latency.total_ms + backhaul
            tput = self.throughput.sample_batch(
                route, rtt, time_hour, noise_rng, topology=topo
            )
            ambient = np.repeat(
                np.array([c.ambient_ms for c in pool], dtype=np.float64), counts
            )
            recent = np.repeat(
                np.array([c.recently_changed for c in pool], dtype=np.float64), counts
            )
            triggers = self._classify_triggers_batch(group, ambient, recent, noise_rng)

            crossings = self._crossings(group.asn, pool[0].hour)
            builder.append_chunk(
                {
                    "asn": np.full(n, group.asn, dtype=np.int64),
                    "city": np.full(n, group.city, dtype=object),
                    "unit": np.full(n, group.unit_label, dtype=object),
                    "time_hour": time_hour,
                    "day": (time_hour // 24.0).astype(np.int64),
                    "rtt_ms": rtt,
                    "as_path": np.full(
                        n, "-".join(str(a) for a in route.path), dtype=object
                    ),
                    "crosses_ixp": np.full(n, len(crossings) > 0, dtype=np.bool_),
                    "ixps": np.full(n, ",".join(crossings), dtype=object),
                    "trigger": triggers,
                    "server_site": np.full(n, "default", dtype=object),
                    "download_mbps": tput.download_mbps,
                }
            )
        return builder.build()

    # -- trigger attribution ---------------------------------------------------

    def _classify_trigger(
        self,
        group,
        ambient_rtt: float,
        recently_changed: bool,
        rng: np.random.Generator,
    ) -> Trigger:
        """Attribute one test to its (probabilistic) cause for tagging.

        The attribution shares the rate model's structure: the excess
        rate over baseline is split between the performance and
        route-change channels proportionally to their multipliers.
        """
        if not self.config.endogenous:
            return Trigger.BASELINE
        perf_mult = 1.0
        if ambient_rtt > group.rtt_reference_ms:
            perf_mult += group.perf_sensitivity * (
                ambient_rtt - group.rtt_reference_ms
            ) / 100.0
        change_mult = 1.0 + (group.change_sensitivity if recently_changed else 0.0)
        total = perf_mult * change_mult
        draw = rng.uniform(0, total)
        if draw < 1.0:
            return Trigger.BASELINE
        if draw < perf_mult:
            return Trigger.PERFORMANCE
        return Trigger.ROUTE_CHANGE

    def _classify_triggers_batch(
        self,
        group,
        ambient_rtt: np.ndarray,
        recently_changed: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Vectorised trigger attribution: one draw per test, whole cell at once.

        Returns an object array of trigger *values* (the frame encoding),
        classified by the same thresholds as :meth:`_classify_trigger`.
        """
        n = len(ambient_rtt)
        if not self.config.endogenous:
            return np.full(n, Trigger.BASELINE.value, dtype=object)
        perf_mult = (
            1.0
            + group.perf_sensitivity
            * np.maximum(ambient_rtt - group.rtt_reference_ms, 0.0)
            / 100.0
        )
        change_mult = 1.0 + group.change_sensitivity * recently_changed
        draw = rng.uniform(0.0, 1.0, size=n) * (perf_mult * change_mult)
        out = np.full(n, Trigger.BASELINE.value, dtype=object)
        out[draw >= 1.0] = Trigger.PERFORMANCE.value
        out[draw >= perf_mult] = Trigger.ROUTE_CHANGE.value
        return out


def run_speed_tests(
    scenario: Scenario,
    rng: np.random.Generator | int | None = 0,
    endogenous: bool = True,
) -> list[Measurement]:
    """Convenience wrapper: generate all speed tests for a scenario."""
    generator = SpeedTestGenerator(
        scenario, SpeedTestConfig(endogenous=endogenous)
    )
    return generator.generate(rng)


def measurements_frame(
    scenario: Scenario,
    rng: np.random.Generator | int | None = 0,
    endogenous: bool = True,
    mode: str = "batch",
) -> Frame:
    """Convenience wrapper: generate a scenario's measurement frame.

    The batched columnar path is the default; pass ``mode="scalar"``
    for the classic per-``Measurement`` object path (same cell counts,
    same distributions, a lot slower).
    """
    generator = SpeedTestGenerator(
        scenario, SpeedTestConfig(endogenous=endogenous)
    )
    return generator.generate_frame(rng, mode=mode)
