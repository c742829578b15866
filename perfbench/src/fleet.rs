//! `fleet-soa-day` and `fleet-planned-day`: the default population over a
//! day through `run_fleet_with_engine`, and a traced replay of the same
//! per-device calls.

use crate::spans::{self, Span, Tracer};
use crate::stats;
use crate::{measured, Checks, Layers, Rep, Served, Workload, THREADS};
use sdb_core::lookahead::{LookaheadPolicy, PlanUpdate};
use sdb_core::metrics::{ccb, wear_ratios};
use sdb_core::policy::{DischargeDirective, PolicyInput, PreservePolicy};
use sdb_core::runtime::SdbRuntime;
use sdb_core::scheduler::{run_trace, run_trace_planned, SimResult};
use sdb_emulator::micro::Microcontroller;
use sdb_emulator::pack::PackBuilder;
use sdb_emulator::{QuiescenceConfig, SoaCohort};
use sdb_fleet::{
    run_fleet_with_engine, run_trace_soa, CohortSpec, DeviceOutcome, EngineKind, FleetReport,
    FleetSpec, PackTemplate, PolicySpec,
};
use sdb_observe::{MetricsRegistry, Observer, SampleValue};
use sdb_policy::{HistoryForecaster, Planner, PlannerConfig};
use sdb_rng::derive_seed;
use sdb_tsdb::{RegistryScraper, RetentionConfig, TsdbStore};
use sdb_workloads::traces::Trace;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Devices of `fleet-soa-day`: one to two seconds a repetition.
const SOA_DEVICES: usize = 2048;
/// Devices of `fleet-planned-day`: each replans a full day, so two to four
/// seconds a repetition.
const PLANNED_DEVICES: usize = 64;
/// The simulated day.
const HOURS: f64 = 24.0;
/// Devices of the SoA-against-scalar equivalence subsample.
const EQUIV_DEVICES: usize = 128;
/// Both fleet workloads run the engine users run on large fleets; its
/// planner cohorts fall back to the scalar driver.
const ENGINE: EngineKind = EngineKind::Soa;
/// Devices of the planner-fallback subsample.
const FALLBACK_DEVICES: usize = 4;
/// The planned policy: 8 h horizon, 30 min replan.
const PLANNED: PolicySpec = PolicySpec::Planned {
    horizon_s: 8.0 * 3600.0,
    replan_s: 1800.0,
};
/// The fleet engine's planner warm-up: seven previous days, salted seeds,
/// EWMA weight 0.3. The replay must build the same forecaster; the
/// report comparison in the traced run catches any drift.
const PLANNER_HISTORY_DAYS: u64 = 7;
const PLANNER_HISTORY_SALT: u64 = 0x9E37_79B9_7F4A_7C15;
const FORECAST_ALPHA: f64 = 0.3;

/// One of the two fleet workloads.
pub struct Fleet {
    planned: bool,
    seed: u64,
    devices: usize,
    hours: f64,
    strata: Vec<FleetSpec>,
    device_hours: f64,
    first_json: Option<Vec<String>>,
    registry: MetricsRegistry,
    store: TsdbStore,
    reps: i64,
}

impl Fleet {
    /// `fleet-planned-day` when `planned`, else `fleet-soa-day`.
    pub fn new(planned: bool, seed: u64) -> Self {
        Self {
            planned,
            seed,
            devices: if planned {
                PLANNED_DEVICES
            } else {
                SOA_DEVICES
            },
            hours: HOURS,
            strata: Vec::new(),
            device_hours: 0.0,
            first_json: None,
            registry: MetricsRegistry::new(),
            store: TsdbStore::new(RetentionConfig::default()),
            reps: 0,
        }
    }

    /// The default population of `devices` over the workload's day.
    fn population(&self, devices: usize) -> FleetSpec {
        let spec = FleetSpec::default_population(devices, self.seed).with_hours(self.hours);
        if self.planned {
            spec.with_policy(PLANNED)
        } else {
            spec
        }
    }

    /// Runs every stratum; their reports and merged registry.
    fn run(&self) -> Result<(Vec<FleetReport>, MetricsRegistry), String> {
        let registry = MetricsRegistry::new();
        let mut reports = Vec::with_capacity(self.strata.len());
        for spec in &self.strata {
            let (report, stats) = run_fleet_with_engine(spec, THREADS, ENGINE)?;
            registry.merge_from(&stats.registry);
            reports.push(report);
        }
        Ok((reports, registry))
    }
}

#[cfg(test)]
impl Fleet {
    /// A few devices over two hours: every call and oracle, in seconds.
    pub fn smoke(planned: bool, seed: u64) -> Self {
        Self {
            devices: 10,
            hours: 2.0,
            ..Self::new(planned, seed)
        }
    }
}

/// `population` split into one fleet per cohort, each holding its
/// weight's share of the devices. A seed then changes the devices' days
/// but not the cohort mix, which would otherwise move the cost per
/// device-hour by several percent between seeds at 64 devices.
pub fn stratified(population: &FleetSpec, seed: u64) -> Vec<FleetSpec> {
    population
        .cohorts
        .iter()
        .enumerate()
        .map(|(i, c)| FleetSpec {
            devices: (c.weight * population.devices as f64).round() as usize,
            master_seed: derive_seed(seed, i as u64),
            cohorts: vec![c.clone()],
            sim: population.sim,
        })
        .collect()
}

/// Simulated device-hours of `spec`'s input traces.
pub fn input_device_hours(spec: &FleetSpec) -> f64 {
    (0..spec.devices as u64)
        .map(|d| {
            let cohort = &spec.cohorts[spec.cohort_of(d)];
            cohort.workload.build(spec.device_seed(d)).duration_s() / 3600.0
        })
        .sum()
}

/// A report any correct run produces: rates in range, finite totals.
fn sane(r: &FleetReport) -> bool {
    (0.0..=1.0).contains(&r.brownout_rate)
        && r.supplied_j_total.is_finite()
        && r.supplied_j_total > 0.0
        && r.life_s.mean.is_finite()
        && (0.0..=1.0).contains(&r.final_soc.mean)
}

impl Workload for Fleet {
    fn engine(&self) -> &'static str {
        ENGINE.name()
    }

    fn setup(&mut self) -> Result<(), String> {
        self.strata = stratified(&self.population(self.devices), self.seed);
        for spec in &self.strata {
            spec.validate()?;
        }
        self.device_hours = self.strata.iter().map(input_device_hours).sum();
        // Warm-up: a few devices through the same engine.
        let warm = self.population(THREADS * 2).with_hours(1.0);
        run_fleet_with_engine(&warm, THREADS, ENGINE)?;
        Ok(())
    }

    fn device_hours(&self) -> f64 {
        self.device_hours
    }

    fn rep(&mut self, checks: &mut Checks) -> Result<Rep, String> {
        let (out, rep) = measured(|| self.run());
        let (reports, registry) = out?;
        let json: Vec<String> = reports.iter().map(FleetReport::to_json).collect();
        let first = self.first_json.get_or_insert_with(|| json.clone());
        for ((r, j), (spec, f)) in reports
            .iter()
            .zip(&json)
            .zip(self.strata.iter().zip(first.iter()))
        {
            checks.check(
                spec.devices as u64,
                f == j && sane(r) && r.devices == spec.devices,
                "fleet report differs between repetitions or is out of range",
            );
        }
        RegistryScraper::new(self.store.clone()).scrape(&registry, self.reps * 1_000_000);
        self.reps += 1;
        self.registry = registry;
        Ok(rep)
    }

    fn oracles(&mut self, checks: &mut Checks) -> Result<(), String> {
        // The first devices of every stratum, under both engines: planner
        // cohorts fall back to the scalar driver bit-exactly, greedy ones
        // stay within the documented fast-forward bounds.
        let devices = if self.planned {
            FALLBACK_DEVICES
        } else {
            EQUIV_DEVICES
        };
        for spec in stratified(&self.population(devices), self.seed) {
            let (scalar, _) = run_fleet_with_engine(&spec, THREADS, EngineKind::Scalar)?;
            let (soa, _) = run_fleet_with_engine(&spec, THREADS, EngineKind::Soa)?;
            let ok = if self.planned {
                scalar.to_json() == soa.to_json()
            } else {
                within_soa_bounds(&scalar, &soa)
            };
            checks.check(
                spec.devices as u64,
                ok,
                "the SoA engine differs from the scalar engine beyond its documented bounds",
            );
        }
        Ok(())
    }

    fn served(&self) -> Served {
        Served::registry_scrapes(self.registry.clone(), self.store.clone())
    }

    fn traced(&mut self, layers: &mut Layers, checks: &mut Checks) -> Result<Vec<Span>, String> {
        let untraced = self.rep(checks)?;
        let epoch = Instant::now();
        let mut all: Option<Replay> = None;
        for (i, spec) in self.strata.iter().enumerate() {
            let r = replay(spec, ENGINE, epoch)?;
            let replayed = FleetReport::from_outcomes(spec, &r.outcomes, &r.registry);
            let expected = self.first_json.as_ref().and_then(|f| f.get(i));
            checks.check(
                spec.devices as u64,
                expected == Some(&replayed.to_json()),
                "traced replay differs from the untraced fleet report",
            );
            for o in &r.outcomes {
                let ok = o.simulated_s > 0.0
                    && o.supplied_j.is_finite()
                    && (0.0..=1.0).contains(&o.mean_final_soc);
                checks.check(1, ok, "device outcome out of range");
            }
            match all.as_mut() {
                Some(a) => a.absorb(r),
                None => all = Some(r),
            }
        }
        let all = all.ok_or("no fleet strata")?;
        layers.set("tracing.overhead_frac", all.wall_s / untraced.wall_s - 1.0);
        fleet_layers(layers, &all);
        Ok(all.spans)
    }
}

/// The documented SoA-against-scalar report bounds (DESIGN.md §14,
/// `SOA_EQUIV.txt`).
pub fn within_soa_bounds(scalar: &FleetReport, soa: &FleetReport) -> bool {
    let rel = |a: f64, b: f64| (a - b).abs() / a.abs().max(1e-9);
    scalar.devices == soa.devices
        && scalar.brownout_rate == soa.brownout_rate
        && rel(scalar.supplied_j_total, soa.supplied_j_total) < 1e-2
        && (scalar.final_soc.mean - soa.final_soc.mean).abs() < 1e-3
        && rel(scalar.life_s.mean, soa.life_s.mean) < 1e-3
}

/// A planner that times every `plan` call.
struct TimedPlanner {
    inner: Planner,
    calls: u64,
    plan_ns: u64,
}

impl LookaheadPolicy for TimedPlanner {
    fn plan(
        &mut self,
        t_s: f64,
        micro: &Microcontroller,
        input: &PolicyInput,
    ) -> Option<PlanUpdate> {
        let t0 = Instant::now();
        let out = self.inner.plan(t_s, micro, input);
        self.plan_ns += u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.calls += 1;
        out
    }

    fn observe_step(&mut self, t_s: f64, dt_s: f64, load_w: f64) {
        self.inner.observe_step(t_s, dt_s, load_w);
    }
}

/// What the traced replay produced.
pub struct Replay {
    /// Per-device outcomes in device order.
    pub outcomes: Vec<DeviceOutcome>,
    /// Merged shard registries.
    pub registry: MetricsRegistry,
    /// Every span of every shard.
    pub spans: Vec<Span>,
    /// Replay wall time, s.
    pub wall_s: f64,
    /// Fast-forwarded ticks.
    pub ff_ticks: u64,
    /// Planner calls, replans and time in `plan`, ns.
    pub plan: (u64, u64, u64),
}

/// Instantiates a cohort's pack, as the fleet engine does.
fn build_pack(pack: &PackTemplate) -> Microcontroller {
    let mut builder = PackBuilder::new();
    for slot in &pack.batteries {
        builder = builder.battery_at(slot.spec.clone(), slot.initial_soc, slot.profile);
    }
    builder.build()
}

/// The SoA lane of a cohort, as the fleet engine builds it: greedy
/// policies on packs without thermal simulation get one, everything else
/// runs the scalar driver.
fn lane_for(cohort: &CohortSpec) -> Option<SoaCohort> {
    if !matches!(
        cohort.policy,
        PolicySpec::Blend(_) | PolicySpec::Preserve { .. }
    ) {
        return None;
    }
    let template = build_pack(&cohort.pack);
    if template.cells().iter().any(|c| c.temperature_c().is_some()) {
        return None;
    }
    Some(SoaCohort::new(&template, 1, QuiescenceConfig::default()))
}

/// A finished device's outcome, as the fleet engine folds it.
fn outcome(micro: &Microcontroller, device: u64, cohort: usize, r: &SimResult) -> DeviceOutcome {
    let cycles: Vec<u32> = micro
        .query_battery_status()
        .iter()
        .map(|s| s.cycle_count)
        .collect();
    let specs: Vec<_> = micro.cells().iter().map(|c| c.spec()).collect();
    DeviceOutcome {
        device,
        cohort,
        life_s: r.battery_life_s(),
        browned_out: r.first_brownout_s.is_some(),
        simulated_s: r.simulated_s,
        supplied_j: r.supplied_j,
        unmet_j: r.unmet_j,
        circuit_loss_j: r.circuit_loss_j,
        cell_heat_j: r.cell_heat_j,
        wear_ccb: ccb(&wear_ratios(&cycles, &specs)),
        mean_final_soc: r.final_soc.iter().sum::<f64>() / r.final_soc.len().max(1) as f64,
    }
}

impl Replay {
    /// Folds another replay of the same run into this one.
    pub fn absorb(&mut self, other: Replay) {
        self.outcomes.extend(other.outcomes);
        self.registry.merge_from(&other.registry);
        self.spans = spans::merge(vec![std::mem::take(&mut self.spans), other.spans]);
        self.wall_s += other.wall_s;
        self.ff_ticks += other.ff_ticks;
        self.plan = (
            self.plan.0 + other.plan.0,
            self.plan.1 + other.plan.1,
            self.plan.2 + other.plan.2,
        );
    }
}

/// One device of the fleet engine's driver, each call into a layer inside
/// a span: its outcome, fast-forwarded ticks and planner totals.
fn replay_device(
    t: &mut Tracer,
    spec: &FleetSpec,
    d: u64,
    lane: Option<&mut SoaCohort>,
    obs: &Observer,
) -> (DeviceOutcome, u64, (u64, u64, u64)) {
    let ci = spec.cohort_of(d);
    let cohort = &spec.cohorts[ci];
    let seed = spec.device_seed(d);
    let mut micro = t.span("emulator.pack_build", d, |_| build_pack(&cohort.pack));
    micro.set_observer(obs.clone());
    let mut rt = SdbRuntime::new(micro.battery_count());
    rt.set_observer(obs.clone());
    rt.set_update_period(cohort.update_period_s);
    let trace = t.span("workloads.trace_build", d, |_| cohort.workload.build(seed));
    let (result, ff, plan) = match cohort.policy {
        PolicySpec::Blend(v) => {
            rt.set_discharge_directive(DischargeDirective::new(v));
            replay_greedy(t, spec, d, &mut micro, &mut rt, &trace, lane)
        }
        PolicySpec::Preserve {
            efficient,
            inefficient,
            threshold_w,
        } => {
            rt.set_preserve(Some(PreservePolicy::new(
                efficient,
                inefficient,
                threshold_w,
            )));
            replay_greedy(t, spec, d, &mut micro, &mut rt, &trace, lane)
        }
        PolicySpec::Planned {
            horizon_s,
            replan_s,
        } => {
            let history: Vec<_> = (1..=PLANNER_HISTORY_DAYS)
                .map(|k| {
                    let s = seed.wrapping_add(k.wrapping_mul(PLANNER_HISTORY_SALT));
                    t.span("workloads.trace_build", d, |_| cohort.workload.build(s))
                })
                .collect();
            let forecaster = t.span("policy.forecaster_build", d, |_| {
                HistoryForecaster::from_history(history.iter().map(Arc::as_ref), FORECAST_ALPHA)
            });
            let cfg = PlannerConfig {
                horizon_s,
                replan_period_s: replan_s,
                update_period_s: cohort.update_period_s,
                ..PlannerConfig::default()
            };
            let mut p = TimedPlanner {
                inner: Planner::new(cfg, Box::new(forecaster)),
                calls: 0,
                plan_ns: 0,
            };
            let r = t.span("core.run_trace_planned", d, |_| {
                run_trace_planned(&mut micro, &mut rt, &trace, &spec.sim, &mut p)
            });
            (r, 0, (p.calls, p.inner.replans(), p.plan_ns))
        }
        PolicySpec::Oracle => unreachable!("rejected by replay"),
    };
    (outcome(&micro, d, ci, &result), ff, plan)
}

/// A greedy device: the hybrid SoA driver when its cohort has a lane,
/// the scalar one otherwise.
fn replay_greedy(
    t: &mut Tracer,
    spec: &FleetSpec,
    d: u64,
    micro: &mut Microcontroller,
    rt: &mut SdbRuntime,
    trace: &Trace,
    lane: Option<&mut SoaCohort>,
) -> (SimResult, u64, (u64, u64, u64)) {
    match lane {
        Some(soa) => {
            let (r, ff) = t.span("fleet.soa_device", d, |_| {
                run_trace_soa(micro, rt, trace, &spec.sim, soa)
            });
            (r, ff, (0, 0, 0))
        }
        None => {
            let r = t.span("core.run_trace", d, |_| {
                run_trace(micro, rt, trace, &spec.sim)
            });
            (r, 0, (0, 0, 0))
        }
    }
}

/// Replays the fleet engine's per-device calls on `THREADS` shards with a
/// span around each call into a layer.
///
/// # Errors
///
/// Returns a message for a policy the replay does not drive, or if a
/// shard panicked.
pub fn replay(spec: &FleetSpec, engine: EngineKind, epoch: Instant) -> Result<Replay, String> {
    if spec
        .cohorts
        .iter()
        .any(|c| matches!(c.policy, PolicySpec::Oracle))
    {
        return Err("the replay drives greedy and planned cohorts only".to_owned());
    }
    let start = Instant::now();
    let next = AtomicUsize::new(0);
    let shards: Vec<Replay> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let next = &next;
                s.spawn(move || {
                    // Like the engine's shard: one observer, and each
                    // cohort's SoA lane built on first use and reused.
                    let obs = Observer::new();
                    let reg = obs.registry().expect("fresh observer has a registry");
                    let mut lanes: Vec<Option<Option<SoaCohort>>> =
                        (0..spec.cohorts.len()).map(|_| None).collect();
                    let mut t = Tracer::new(epoch);
                    let mut shard = Replay {
                        outcomes: Vec::new(),
                        registry: reg.clone(),
                        spans: Vec::new(),
                        wall_s: 0.0,
                        ff_ticks: 0,
                        plan: (0, 0, 0),
                    };
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= spec.devices {
                            break;
                        }
                        let d = i as u64;
                        let ci = spec.cohort_of(d);
                        let lane = lanes[ci]
                            .get_or_insert_with(|| match engine {
                                EngineKind::Soa => lane_for(&spec.cohorts[ci]),
                                EngineKind::Scalar => None,
                            })
                            .as_mut();
                        obs.set_clock(0.0);
                        let (out, ff, plan) =
                            t.span("fleet.device", d, |t| replay_device(t, spec, d, lane, &obs));
                        if ff > 0 {
                            reg.counter("sdb_fleet_ff_ticks_total", &[]).add(ff);
                        }
                        reg.counter("sdb_fleet_devices_total", &[]).inc();
                        shard.outcomes.push(out);
                        shard.ff_ticks += ff;
                        shard.plan = (
                            shard.plan.0 + plan.0,
                            shard.plan.1 + plan.1,
                            shard.plan.2 + plan.2,
                        );
                    }
                    shard.spans = t.into_spans();
                    shard
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "replay shard panicked".to_owned()))
            .collect::<Result<Vec<_>, String>>()
    })?;
    let mut all = Replay {
        outcomes: Vec::with_capacity(spec.devices),
        registry: MetricsRegistry::new(),
        spans: Vec::new(),
        wall_s: start.elapsed().as_secs_f64(),
        ff_ticks: 0,
        plan: (0, 0, 0),
    };
    for shard in shards {
        all.absorb(Replay {
            wall_s: 0.0,
            ..shard
        });
    }
    all.outcomes.sort_by_key(|o| o.device);
    Ok(all)
}

/// `(count, sum)` of a span histogram the program exports, summed over
/// label sets.
pub fn histogram(registry: &MetricsRegistry, name: &str) -> (u64, u64) {
    registry
        .samples()
        .into_iter()
        .filter(|s| s.name == name)
        .fold((0, 0), |(c, s), m| match m.value {
            SampleValue::Histogram { count, sum } => (c + count, s + sum),
            _ => (c, s),
        })
}

/// Cost of one fast-forwarded tick: a standby phone pack parked in an SoA
/// lane, advanced in stretches as the hybrid driver does.
pub fn ff_tick_ns() -> f64 {
    const LOAD_W: f64 = 0.05;
    const DT_S: f64 = 60.0;
    const TARGET_TICKS: u64 = 200_000;
    let mut micro = build_pack(&PackTemplate::phone());
    let mut soa = SoaCohort::new(&micro, 1, QuiescenceConfig::default());
    let (mut ticks, mut ns) = (0u64, 0u128);
    for _ in 0..100_000 {
        if ticks >= TARGET_TICKS {
            break;
        }
        let report = micro.step(LOAD_W, 0.0, DT_S);
        if !soa.try_enter(0, &micro, &report, LOAD_W, DT_S) {
            continue;
        }
        loop {
            let k = soa.max_ticks(0, LOAD_W, DT_S);
            if k == 0 {
                break;
            }
            let t0 = Instant::now();
            std::hint::black_box(soa.advance(0, LOAD_W, DT_S, k));
            ns += t0.elapsed().as_nanos();
            ticks += u64::from(k);
        }
        soa.exit(0, &mut micro);
    }
    if ticks == 0 {
        0.0
    } else {
        ns as f64 / ticks as f64
    }
}

/// Per-layer metrics of a fleet replay, including the reconciliation of
/// device time against layer costs.
pub fn fleet_layers(layers: &mut Layers, r: &Replay) {
    let tot = spans::totals(&r.spans);
    let get = |n: &str| tot.get(n).copied().unwrap_or_default();
    let (steps, step_ns) = histogram(&r.registry, "sdb_micro_step_ns");
    let (evals, eval_ns) = histogram(&r.registry, "sdb_policy_eval_ns");
    let (ticks, tick_ns) = histogram(&r.registry, "sdb_trace_step_ns");
    let (calls, replans, plan_ns) = r.plan;
    let per = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let tick_self = tick_ns.saturating_sub(step_ns + eval_ns + plan_ns);
    let device = get("fleet.device");
    let ff_ns = ff_tick_ns();

    layers.set(
        "workloads.trace_build_us",
        get("workloads.trace_build").mean_ns() / 1e3,
    );
    layers.set(
        "emulator.pack_build_us",
        get("emulator.pack_build").mean_ns() / 1e3,
    );
    layers.set("emulator.micro_step_ns", per(step_ns, steps));
    layers.set("emulator.micro_steps", steps as f64);
    layers.set("core.policy_eval_ns", per(eval_ns, evals));
    layers.set("core.tick_self_ns", per(tick_self, ticks));
    layers.set("core.ticks", (ticks + r.ff_ticks) as f64);
    layers.set("fleet.ff_tick_frac", per(r.ff_ticks, ticks + r.ff_ticks));
    layers.set("fleet.ff_tick_ns", ff_ns);
    layers.set(
        "fleet.soa_device_ms",
        get("fleet.soa_device").mean_ns() / 1e6,
    );
    layers.set(
        "fleet.device_ms_p99",
        stats::percentile(&spans::durations(&r.spans, "fleet.device"), 99.0) / 1e6,
    );
    layers.set(
        "fleet.shard_busy_frac",
        device.total_ns as f64 / 1e9 / (r.wall_s * THREADS as f64),
    );
    // Device time the layer costs predict: every scalar tick (micro-step,
    // policy eval, plan and tick self time), trace and pack builds, the
    // forecaster, and fast-forwarded ticks at their measured cost.
    let predicted = tick_ns as f64
        + get("workloads.trace_build").total_ns as f64
        + get("emulator.pack_build").total_ns as f64
        + get("policy.forecaster_build").total_ns as f64
        + r.ff_ticks as f64 * ff_ns;
    layers.set(
        "fleet.unexplained_frac",
        1.0 - predicted / (device.total_ns as f64).max(1.0),
    );
    layers.set("policy.plan_ms", per(plan_ns, replans) / 1e6);
    layers.set("policy.plan_calls", calls as f64);
    layers.set("policy.replans", replans as f64);
    layers.set("policy.plan_share", per(plan_ns, device.total_ns));
    layers.set(
        "policy.forecaster_build_us",
        get("policy.forecaster_build").mean_ns() / 1e3,
    );
}
