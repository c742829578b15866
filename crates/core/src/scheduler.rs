//! Simulation driver: runtime + emulator + workload traces.
//!
//! This is the equivalent of the paper's emulator harness (Section 4.3):
//! measured power traces are fed into the battery emulation while the SDB
//! Runtime adjusts ratios, and the driver books energy, losses, and
//! depletion times for the Section 5 analyses.
//!
//! Every `run_trace*` entry point except the allocation-free rollout
//! kernel [`run_trace_prepared`] wraps one private driver loop, generic
//! over what it talks to: the firmware directly, or the firmware behind a
//! lossy [`Link`]. An optional [`LookaheadPolicy`] plans before each
//! point, and on the direct path an optional [`SoaCohort`] lane
//! fast-forwards quiescent stretches.

use crate::lookahead::LookaheadPolicy;
use crate::policy::PolicyInput;
use crate::runtime::SdbRuntime;
use sdb_emulator::link::{Command, Link};
use sdb_emulator::micro::{Microcontroller, StepReport};
use sdb_emulator::SoaCohort;
use sdb_observe::SpanName;
use sdb_prof::Phase;
use sdb_workloads::traces::{Trace, TracePoint};

/// Options for a simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimOptions {
    /// Maximum simulation step, seconds.
    pub max_dt_s: f64,
    /// Stop as soon as load goes unserved.
    pub stop_on_brownout: bool,
}

impl Default for SimOptions {
    fn default() -> Self {
        Self {
            max_dt_s: 60.0,
            stop_on_brownout: false,
        }
    }
}

/// Result of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Wall-clock simulated, seconds.
    pub simulated_s: f64,
    /// Energy delivered to the load, joules.
    pub supplied_j: f64,
    /// Load energy that went unserved, joules.
    pub unmet_j: f64,
    /// Circuit losses, joules.
    pub circuit_loss_j: f64,
    /// Cell resistive heat, joules.
    pub cell_heat_j: f64,
    /// External energy consumed, joules.
    pub external_j: f64,
    /// Time of first unserved load, if any, seconds.
    pub first_brownout_s: Option<f64>,
    /// Per-battery time of first emptiness, seconds.
    pub battery_empty_s: Vec<Option<f64>>,
    /// Per-hour total losses (circuit + cell heat), joules.
    pub hourly_loss_j: Vec<f64>,
    /// Per-hour load energy, joules.
    pub hourly_load_j: Vec<f64>,
    /// Final per-battery SoC.
    pub final_soc: Vec<f64>,
}

impl SimResult {
    /// Total losses, joules.
    #[must_use]
    pub fn total_loss_j(&self) -> f64 {
        self.circuit_loss_j + self.cell_heat_j
    }

    /// Effective battery life: time until the first brownout, or the full
    /// simulated span if the load was always served, seconds.
    #[must_use]
    pub fn battery_life_s(&self) -> f64 {
        self.first_brownout_s.unwrap_or(self.simulated_s)
    }
}

/// Runs `trace` against the pack, letting `runtime` steer the ratios.
#[must_use]
pub fn run_trace(
    micro: &mut Microcontroller,
    runtime: &mut SdbRuntime,
    trace: &Trace,
    opts: &SimOptions,
) -> SimResult {
    run_trace_with(micro, runtime, trace, opts, None, None, |_, _| {}).0
}

/// As [`run_trace`], additionally invoking `observer` after every step
/// with the elapsed time and the step report (telemetry capture, live
/// plotting, custom bookkeeping).
pub fn run_trace_observed<F>(
    micro: &mut Microcontroller,
    runtime: &mut SdbRuntime,
    trace: &Trace,
    opts: &SimOptions,
    observer: F,
) -> SimResult
where
    F: FnMut(f64, &StepReport),
{
    run_trace_with(micro, runtime, trace, opts, None, None, observer).0
}

/// As [`run_trace`], with a [`LookaheadPolicy`] in the loop: before every
/// trace point the policy may commit a [`crate::lookahead::PlanUpdate`]
/// (applied via [`SdbRuntime::commit_plan`], which forces the runtime to
/// re-evaluate immediately), and after every step the realized load is
/// fed back through [`LookaheadPolicy::observe_step`]. With a policy that
/// never plans this is byte-identical to [`run_trace`].
#[must_use]
pub fn run_trace_planned(
    micro: &mut Microcontroller,
    runtime: &mut SdbRuntime,
    trace: &Trace,
    opts: &SimOptions,
    policy: &mut dyn LookaheadPolicy,
) -> SimResult {
    run_trace_with(micro, runtime, trace, opts, Some(policy), None, |_, _| {}).0
}

/// The hybrid trace driver of the SoA fleet engine: scalar sync ticks
/// interleaved with closed-form fast-forward of runs of identical
/// quiescent trace points through lane 0 of `soa`. Returns the run result
/// and the number of fast-forwarded ticks.
///
/// The scalar ticks execute the exact `tick → step` instruction sequence
/// of [`run_trace`]; only the fast-forwarded stretches deviate, within
/// the documented kernel bound. Skipped work stays accounted: the pack's
/// step counter and the runtime's policy-eval clock are credited for
/// every fast-forwarded tick ([`Microcontroller::credit_skipped_steps`] /
/// [`SdbRuntime::note_fast_forward`]).
///
/// # Panics
///
/// Panics if the emulated hardware rejects a runtime push (fatal in
/// simulation, as in [`run_trace`]).
pub fn run_trace_soa(
    micro: &mut Microcontroller,
    runtime: &mut SdbRuntime,
    trace: &Trace,
    opts: &SimOptions,
    soa: &mut SoaCohort,
) -> (SimResult, u64) {
    run_trace_with(micro, runtime, trace, opts, None, Some(soa), |_, _| {})
}

/// The direct driver with every option: an optional [`LookaheadPolicy`]
/// (as in [`run_trace_planned`]), an optional SoA lane (as in
/// [`run_trace_soa`]), and `observer` after every scalar step (as in
/// [`run_trace_observed`]; fast-forwarded stretches have no step report).
/// Returns the run result and the number of fast-forwarded ticks.
///
/// # Panics
///
/// Panics if the emulated hardware rejects a runtime push (fatal in
/// simulation).
pub fn run_trace_with<F>(
    micro: &mut Microcontroller,
    runtime: &mut SdbRuntime,
    trace: &Trace,
    opts: &SimOptions,
    policy: Option<&mut dyn LookaheadPolicy>,
    soa: Option<&mut SoaCohort>,
    mut observer: F,
) -> (SimResult, u64)
where
    F: FnMut(f64, &StepReport),
{
    drive(
        micro,
        runtime,
        trace,
        opts,
        policy,
        soa,
        |_, _| {},
        |t, _, report| observer(t, report),
    )
}

/// What the driver loop talks to: the firmware directly, or the firmware
/// behind a lossy [`Link`]. Statically dispatched, so each driver keeps
/// its own monomorphized hot loop.
trait Target {
    fn micro(&self) -> &Microcontroller;
    fn micro_mut(&mut self) -> &mut Microcontroller;
    /// The runtime's turn at one trace point.
    fn tick(&mut self, runtime: &mut SdbRuntime, input: &PolicyInput, dt_s: f64);
    fn step(&mut self, load_w: f64, external_w: f64, dt_s: f64) -> StepReport;
    /// Runs once after the last point.
    fn finish(&mut self, _runtime: &mut SdbRuntime) {}
}

impl Target for Microcontroller {
    fn micro(&self) -> &Microcontroller {
        self
    }
    fn micro_mut(&mut self) -> &mut Microcontroller {
        self
    }
    fn tick(&mut self, runtime: &mut SdbRuntime, input: &PolicyInput, dt_s: f64) {
        // Runtime failures (hardware rejection) are fatal in simulation.
        let _prof = sdb_prof::sub(Phase::RuntimeTick);
        runtime
            .tick(self, input, dt_s)
            .expect("runtime push rejected by emulated hardware");
    }
    fn step(&mut self, load_w: f64, external_w: f64, dt_s: f64) -> StepReport {
        Microcontroller::step(self, load_w, external_w, dt_s)
    }
}

/// A pack behind a lossy [`Link`], with the status heartbeat's clock.
struct Linked<'a> {
    link: &'a mut Link,
    status_period_s: f64,
    since_status_s: f64,
}

impl Target for Linked<'_> {
    fn micro(&self) -> &Microcontroller {
        self.link.micro()
    }
    fn micro_mut(&mut self) -> &mut Microcontroller {
        self.link.micro_mut()
    }
    fn tick(&mut self, runtime: &mut SdbRuntime, input: &PolicyInput, dt_s: f64) {
        // Link traffic: response drain, runtime tick + supervision over
        // the lossy transport, and the status heartbeat.
        let _prof = sdb_prof::sub(Phase::LinkStep);
        runtime.observe_responses(&self.link.take_responses());
        runtime
            .tick(&mut *self.link, input, dt_s)
            .expect("link send is local and infallible");
        runtime
            .supervise(&mut *self.link, dt_s)
            .expect("link send is local and infallible");
        self.since_status_s += dt_s;
        if self.since_status_s >= self.status_period_s {
            self.since_status_s = 0.0;
            self.link.send(Command::QueryBatteryStatus);
            runtime.note_command_sent();
        }
    }
    fn step(&mut self, load_w: f64, external_w: f64, dt_s: f64) -> StepReport {
        self.link.step(load_w, external_w, dt_s)
    }
    fn finish(&mut self, runtime: &mut SdbRuntime) {
        runtime.observe_responses(&self.link.take_responses());
    }
}

/// The energy, loss and depletion books of one run.
struct Books {
    start_s: f64,
    totals0: (f64, f64, f64, f64, f64),
    elapsed: f64,
    first_brownout: Option<f64>,
    battery_empty: Vec<Option<f64>>,
    hourly_loss: Vec<f64>,
    hourly_load: Vec<f64>,
}

impl Books {
    fn new(micro: &Microcontroller) -> Self {
        Self {
            start_s: micro.time_s(),
            totals0: micro.energy_totals_j(),
            elapsed: 0.0,
            first_brownout: None,
            battery_empty: vec![None; micro.battery_count()],
            hourly_loss: Vec::new(),
            hourly_load: Vec::new(),
        }
    }

    /// Apportions a constant-rate span starting now across the hour
    /// buckets it straddles, then advances the clock past it.
    fn book(&mut self, dur_s: f64, loss_w: f64, load_w: f64) {
        let mut t = self.elapsed;
        let mut remaining = dur_s;
        while remaining > 1e-9 {
            let hour = (t / 3600.0) as usize;
            let take = remaining.min((hour + 1) as f64 * 3600.0 - t);
            if self.hourly_loss.len() <= hour {
                self.hourly_loss.resize(hour + 1, 0.0);
                self.hourly_load.resize(hour + 1, 0.0);
            }
            self.hourly_loss[hour] += loss_w * take;
            self.hourly_load[hour] += load_w * take;
            t += take;
            remaining -= take;
        }
        self.elapsed += dur_s;
    }

    /// Records emptied batteries and the first brownout after a step;
    /// returns whether the run stops here.
    fn settle(&mut self, micro: &Microcontroller, report: &StepReport, opts: &SimOptions) -> bool {
        for (empty, cell) in self.battery_empty.iter_mut().zip(micro.cells()) {
            if empty.is_none() && cell.is_empty() {
                *empty = Some(self.elapsed);
            }
        }
        if report.unmet_w > 1e-9 && self.first_brownout.is_none() {
            self.first_brownout = Some(self.elapsed);
            return opts.stop_on_brownout;
        }
        false
    }

    fn finish(self, micro: &Microcontroller) -> SimResult {
        let (d0, cl0, ch0, u0, e0) = self.totals0;
        let (d1, cl1, ch1, u1, e1) = micro.energy_totals_j();
        SimResult {
            simulated_s: micro.time_s() - self.start_s,
            supplied_j: d1 - d0,
            unmet_j: u1 - u0,
            circuit_loss_j: cl1 - cl0,
            cell_heat_j: ch1 - ch0,
            external_j: e1 - e0,
            first_brownout_s: self.first_brownout,
            battery_empty_s: self.battery_empty,
            hourly_loss_j: self.hourly_loss,
            hourly_load_j: self.hourly_load,
            final_soc: micro.cells().iter().map(|c| c.soc()).collect(),
        }
    }
}

/// The one driver loop behind every `run_trace*` entry point except
/// [`run_trace_prepared`]. Per point: `pre_step` hook → policy input →
/// optional lookahead plan → runtime tick → emulator step → policy
/// feedback → books → `on_step` hook; then, with an SoA lane, the
/// fast-forward stretch. Returns the result and the fast-forwarded
/// tick count.
#[allow(clippy::too_many_arguments)]
fn drive<T: Target>(
    target: &mut T,
    runtime: &mut SdbRuntime,
    trace: &Trace,
    opts: &SimOptions,
    mut policy: Option<&mut dyn LookaheadPolicy>,
    mut soa: Option<&mut SoaCohort>,
    mut pre_step: impl FnMut(f64, &mut T),
    mut on_step: impl FnMut(f64, &T, &StepReport),
) -> (SimResult, u64) {
    // Clone of the runtime's observer handle for span timing (shares the
    // same registry; cheap `Option<Arc>` clone).
    let obs = runtime.observer().clone();
    // The scheduler step is the profiler's sampling gate: it advances
    // the per-device tick, and the plan/tick sub-phases plus the nested
    // micro step inherit its hot/cold decision. The SoA engine's scalar
    // sync ticks count under their own phase.
    let step_phase = if soa.is_some() {
        Phase::SoaStep
    } else {
        Phase::TraceStep
    };
    let mut books = Books::new(target.micro());
    let mut input = PolicyInput::from_micro(target.micro());
    let mut ff_ticks = 0u64;

    let resampled = trace.resampled(opts.max_dt_s);
    let points = resampled.points();
    let mut i = 0;
    while i < points.len() {
        let p = &points[i];
        i += 1;
        let span = obs.span(SpanName::TraceStep);
        let prof = sdb_prof::step(step_phase);
        pre_step(books.elapsed, target);
        input.refill_from_micro(target.micro());
        input.load_w = p.load_w;
        input.external_w = p.external_w;
        if let Some(policy) = policy.as_deref_mut() {
            let _prof = sdb_prof::sub(Phase::PolicyPlan);
            if let Some(plan) = policy.plan(books.elapsed, target.micro(), &input) {
                runtime.commit_plan(&plan);
            }
        }
        target.tick(runtime, &input, p.dur_s);
        let report = target.step(p.load_w, p.external_w, p.dur_s);
        if let Some(policy) = policy.as_deref_mut() {
            policy.observe_step(books.elapsed + p.dur_s, p.dur_s, p.load_w);
        }
        books.book(
            p.dur_s,
            report.circuit_loss_w + report.cell_heat_w,
            report.load_w,
        );
        on_step(books.elapsed, target, &report);
        if books.settle(target.micro(), &report, opts) {
            break;
        }
        // The fast-forward stretch is a gating step of its own, never
        // nested under this point's.
        drop(prof);
        drop(span);
        if let Some(soa) = soa.as_deref_mut() {
            let skipped = fast_forward(
                soa,
                target.micro_mut(),
                runtime,
                &mut books,
                &report,
                p,
                &points[i..],
            );
            i += skipped as usize;
            ff_ticks += skipped;
        }
    }
    target.finish(runtime);
    (books.finish(target.micro()), ff_ticks)
}

/// Minimum run of identical upcoming trace points worth the
/// snapshot-in/snapshot-out cost of parking a lane.
const MIN_STRETCH_POINTS: usize = 4;

/// The SoA stretch step after the scalar sync tick `report` at point `p`:
/// when the `next` points replay `p` exactly and the quiescence
/// classifier admits the pack, park it in lane 0 and fast-forward with
/// the closed-form kernel, re-syncing at every boundary the kernel
/// reports. Returns the number of fast-forwarded ticks.
fn fast_forward(
    soa: &mut SoaCohort,
    micro: &mut Microcontroller,
    runtime: &mut SdbRuntime,
    books: &mut Books,
    report: &StepReport,
    p: &TracePoint,
    next: &[TracePoint],
) -> u64 {
    if p.external_w != 0.0 {
        return 0;
    }
    let run = next
        .iter()
        .take_while(|q| {
            q.load_w.to_bits() == p.load_w.to_bits()
                && q.external_w == 0.0
                && q.dur_s.to_bits() == p.dur_s.to_bits()
        })
        .count();
    if run < MIN_STRETCH_POINTS || !soa.try_enter(0, micro, report, p.load_w, p.dur_s) {
        return 0;
    }
    let mut remaining = u32::try_from(run).unwrap_or(u32::MAX);
    let mut skipped = 0u64;
    while remaining > 0 {
        let k = soa.max_ticks(0, p.load_w, p.dur_s).min(remaining);
        if k == 0 {
            break;
        }
        let totals = {
            let _prof = sdb_prof::step(Phase::FastForward);
            soa.advance(0, p.load_w, p.dur_s, k)
        };
        let span_s = f64::from(k) * p.dur_s;
        books.book(
            span_s,
            (totals.circuit_loss_j + totals.cell_heat_j) / span_s,
            p.load_w,
        );
        runtime.note_fast_forward(p.dur_s, u64::from(k));
        skipped += u64::from(k);
        remaining -= k;
    }
    soa.exit(0, micro);
    if skipped > 0 {
        micro.credit_skipped_steps(skipped);
    }
    skipped
}

/// The scalar subset of [`SimResult`] that rollout scoring consumes —
/// `Copy`, so [`run_trace_prepared`] returns without heap allocation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PreparedResult {
    /// Wall-clock simulated, seconds.
    pub simulated_s: f64,
    /// Energy delivered to the load, joules.
    pub supplied_j: f64,
    /// Load energy that went unserved, joules.
    pub unmet_j: f64,
    /// Circuit losses, joules.
    pub circuit_loss_j: f64,
    /// Cell resistive heat, joules.
    pub cell_heat_j: f64,
    /// External energy consumed, joules.
    pub external_j: f64,
    /// Time of first unserved load, if any, seconds.
    pub first_brownout_s: Option<f64>,
}

impl PreparedResult {
    /// Total losses, joules.
    #[must_use]
    pub fn total_loss_j(&self) -> f64 {
        self.circuit_loss_j + self.cell_heat_j
    }

    /// As [`SimResult::battery_life_s`].
    #[must_use]
    pub fn battery_life_s(&self) -> f64 {
        self.first_brownout_s.unwrap_or(self.simulated_s)
    }
}

/// The allocation-free rollout driver: runs pre-resampled `points`
/// against the pack, reusing the caller's [`PolicyInput`] buffer.
///
/// Planner rollouts call this thousands of times per plan cycle; it
/// executes the same `tick → step` instruction sequence as [`run_trace`]
/// (so scores are bit-identical to a [`run_trace`] rollout over the same
/// resampled points) but skips the per-call trace resample and all
/// per-run bookkeeping vectors. The caller resamples once with
/// `trace.resampled(opts.max_dt_s)` and reuses the points across
/// candidates.
///
/// # Panics
///
/// Panics if the emulated hardware rejects a runtime push (fatal in
/// simulation, as in [`run_trace`]).
pub fn run_trace_prepared(
    micro: &mut Microcontroller,
    runtime: &mut SdbRuntime,
    points: &[TracePoint],
    opts: &SimOptions,
    input: &mut PolicyInput,
) -> PreparedResult {
    let start = micro.time_s();
    let (d0, cl0, ch0, u0, e0) = micro.energy_totals_j();
    let mut first_brownout = None;
    let mut elapsed = 0.0f64;
    for p in points {
        let _prof = sdb_prof::step(Phase::TraceStep);
        input.refill_from_micro(micro);
        input.load_w = p.load_w;
        input.external_w = p.external_w;
        {
            let _prof = sdb_prof::sub(Phase::RuntimeTick);
            runtime
                .tick(micro, input, p.dur_s)
                .expect("runtime push rejected by emulated hardware");
        }
        let report = micro.step(p.load_w, p.external_w, p.dur_s);
        elapsed += p.dur_s;
        if report.unmet_w > 1e-9 && first_brownout.is_none() {
            first_brownout = Some(elapsed);
            if opts.stop_on_brownout {
                break;
            }
        }
    }
    let (d1, cl1, ch1, u1, e1) = micro.energy_totals_j();
    PreparedResult {
        simulated_s: micro.time_s() - start,
        supplied_j: d1 - d0,
        unmet_j: u1 - u0,
        circuit_loss_j: cl1 - cl0,
        cell_heat_j: ch1 - ch0,
        external_j: e1 - e0,
        first_brownout_s: first_brownout,
    }
}

/// Options for a linked (lossy-transport) simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkedSimOptions {
    /// The underlying simulation options.
    pub sim: SimOptions,
    /// Period of the status heartbeat (`QueryBatteryStatus`) the driver
    /// sends over the link — the responses feed the runtime's watchdog and
    /// stuck-gauge detector, seconds.
    pub status_period_s: f64,
}

impl Default for LinkedSimOptions {
    fn default() -> Self {
        Self {
            sim: SimOptions::default(),
            status_period_s: 30.0,
        }
    }
}

/// As [`run_trace`], but driving the pack through the lossy [`Link`]
/// instead of touching the firmware directly: commands can be dropped,
/// delayed, or duplicated, responses arrive asynchronously and are fed
/// back into the runtime's graceful-degradation layer
/// ([`SdbRuntime::observe_responses`] / [`SdbRuntime::supervise`]).
#[must_use]
pub fn run_trace_linked(
    link: &mut Link,
    runtime: &mut SdbRuntime,
    trace: &Trace,
    opts: &LinkedSimOptions,
) -> SimResult {
    run_trace_linked_planned_with(link, runtime, trace, opts, None, |_, _| {}, |_, _, _| {})
}

/// As [`run_trace_linked`], with two hooks: `pre_step` runs before each
/// point (fault-plan application gets mutable link access), `on_step`
/// after it with ground-truth link access (telemetry capture, invariant
/// checking over the step report).
pub fn run_trace_linked_with<P, F>(
    link: &mut Link,
    runtime: &mut SdbRuntime,
    trace: &Trace,
    opts: &LinkedSimOptions,
    pre_step: P,
    on_step: F,
) -> SimResult
where
    P: FnMut(f64, &mut Link),
    F: FnMut(f64, &Link, &StepReport),
{
    run_trace_linked_planned_with(link, runtime, trace, opts, None, pre_step, on_step)
}

/// As [`run_trace_linked_with`], with an optional [`LookaheadPolicy`] in
/// the loop — the linked counterpart of [`run_trace_planned`], so
/// planner-steered runtimes can be exercised under lossy transport and
/// fault injection (planner-aware chaos). Before every point the policy
/// may commit a plan (committed host-side via
/// [`SdbRuntime::commit_plan`]; the resulting directive still travels
/// over the lossy link like any other push), and after every step the
/// realized load is fed back through [`LookaheadPolicy::observe_step`].
/// With `policy == None` this is [`run_trace_linked_with`].
pub fn run_trace_linked_planned_with<P, F>(
    link: &mut Link,
    runtime: &mut SdbRuntime,
    trace: &Trace,
    opts: &LinkedSimOptions,
    policy: Option<&mut dyn LookaheadPolicy>,
    mut pre_step: P,
    mut on_step: F,
) -> SimResult
where
    P: FnMut(f64, &mut Link),
    F: FnMut(f64, &Link, &StepReport),
{
    let mut target = Linked {
        link,
        status_period_s: opts.status_period_s,
        // Force a status heartbeat on the very first point.
        since_status_s: f64::INFINITY,
    };
    drive(
        &mut target,
        runtime,
        trace,
        &opts.sim,
        policy,
        None,
        |t, l| pre_step(t, l.link),
        |t, l, report| on_step(t, l.link, report),
    )
    .0
}

/// Charges the pack from `external_w` at idle until the pack's total
/// stored charge reaches each fraction in `targets` (of total rated
/// capacity), or `max_s` elapses. Returns the time each target was reached.
///
/// # Panics
///
/// Panics if `targets` is not sorted ascending.
#[must_use]
pub fn run_charge_session(
    micro: &mut Microcontroller,
    runtime: &mut SdbRuntime,
    external_w: f64,
    targets: &[f64],
    max_s: f64,
    dt_s: f64,
) -> Vec<Option<f64>> {
    assert!(
        targets.windows(2).all(|w| w[0] <= w[1]),
        "targets must be ascending"
    );
    let total_cap_ah: f64 = micro.cells().iter().map(|c| c.spec().capacity_ah).sum();
    let mut reached: Vec<Option<f64>> = vec![None; targets.len()];
    let mut elapsed = 0.0;
    while elapsed < max_s {
        let input = PolicyInput::from_micro(micro).with_external(external_w);
        runtime
            .tick(micro, &input, dt_s)
            .expect("runtime push rejected by emulated hardware");
        micro.step(0.0, external_w, dt_s);
        elapsed += dt_s;
        let stored_ah: f64 = micro
            .cells()
            .iter()
            .map(|c| c.soc() * c.spec().capacity_ah)
            .sum();
        let frac = stored_ah / total_cap_ah;
        for (i, &t) in targets.iter().enumerate() {
            if reached[i].is_none() && frac >= t {
                reached[i] = Some(elapsed);
            }
        }
        if reached.last().is_some_and(Option::is_some) {
            break;
        }
    }
    reached
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::DischargeDirective;
    use sdb_battery_model::chemistry::Chemistry;
    use sdb_battery_model::spec::BatterySpec;
    use sdb_emulator::pack::PackBuilder;
    use sdb_emulator::profile::ProfileKind;

    fn pack(soc: f64) -> Microcontroller {
        PackBuilder::new()
            .battery_at(
                BatterySpec::from_chemistry("a", Chemistry::Type2CoStandard, 2.0),
                soc,
                ProfileKind::Standard,
            )
            .battery_at(
                BatterySpec::from_chemistry("b", Chemistry::Type3CoPower, 2.0),
                soc,
                ProfileKind::Fast,
            )
            .build()
    }

    #[test]
    fn constant_load_served() {
        let mut m = pack(1.0);
        let mut rt = SdbRuntime::new(2);
        let result = run_trace(
            &mut m,
            &mut rt,
            &Trace::constant(4.0, 3600.0),
            &SimOptions::default(),
        );
        assert!((result.simulated_s - 3600.0).abs() < 1e-6);
        assert!(result.unmet_j < 1e-6);
        assert!((result.supplied_j - 4.0 * 3600.0).abs() / (4.0 * 3600.0) < 0.01);
        assert!(result.first_brownout_s.is_none());
        assert_eq!(result.hourly_load_j.len(), 1);
    }

    #[test]
    fn depletion_detected() {
        // Two 2 Ah cells ≈ 15 Wh total; a 20 W load kills them in ~40 min.
        let mut m = pack(1.0);
        let mut rt = SdbRuntime::new(2);
        rt.set_discharge_directive(DischargeDirective::new(1.0));
        let result = run_trace(
            &mut m,
            &mut rt,
            &Trace::constant(20.0, 4.0 * 3600.0),
            &SimOptions::default(),
        );
        let life = result.battery_life_s();
        assert!(result.first_brownout_s.is_some());
        assert!(life > 30.0 * 60.0 && life < 80.0 * 60.0, "life = {life}");
        // Brownout occurs when the pack can no longer *supply the power*,
        // which can precede exact coulomb-emptiness; both cells must be
        // nearly drained though.
        assert!(
            result.final_soc.iter().all(|&s| s < 0.10),
            "{:?}",
            result.final_soc
        );
        assert!(result.unmet_j > 0.0);
    }

    #[test]
    fn stop_on_brownout_truncates() {
        let mut m = pack(0.05);
        let mut rt = SdbRuntime::new(2);
        let result = run_trace(
            &mut m,
            &mut rt,
            &Trace::constant(10.0, 3600.0),
            &SimOptions {
                stop_on_brownout: true,
                ..SimOptions::default()
            },
        );
        assert!(result.simulated_s < 3600.0);
        assert!(result.first_brownout_s.is_some());
    }

    #[test]
    fn hourly_bookkeeping_sums_to_totals() {
        let mut m = pack(1.0);
        let mut rt = SdbRuntime::new(2);
        let result = run_trace(
            &mut m,
            &mut rt,
            &Trace::constant(5.0, 2.5 * 3600.0),
            &SimOptions::default(),
        );
        assert_eq!(result.hourly_load_j.len(), 3);
        let hourly_sum: f64 = result.hourly_loss_j.iter().sum();
        assert!((hourly_sum - result.total_loss_j()).abs() / result.total_loss_j() < 0.01);
    }

    #[test]
    fn prepared_matches_run_trace_bit_exactly() {
        let trace = Trace::constant(6.0, 2.0 * 3600.0);
        let opts = SimOptions {
            stop_on_brownout: true,
            ..SimOptions::default()
        };
        let mut m1 = pack(0.6);
        let mut rt1 = SdbRuntime::new(2);
        let full = run_trace(&mut m1, &mut rt1, &trace, &opts);

        let mut m2 = pack(0.6);
        let mut rt2 = SdbRuntime::new(2);
        let resampled = trace.resampled(opts.max_dt_s);
        let mut input = PolicyInput::from_micro(&m2);
        let lean = run_trace_prepared(&mut m2, &mut rt2, resampled.points(), &opts, &mut input);

        assert_eq!(full.simulated_s.to_bits(), lean.simulated_s.to_bits());
        assert_eq!(full.supplied_j.to_bits(), lean.supplied_j.to_bits());
        assert_eq!(full.unmet_j.to_bits(), lean.unmet_j.to_bits());
        assert_eq!(full.circuit_loss_j.to_bits(), lean.circuit_loss_j.to_bits());
        assert_eq!(full.cell_heat_j.to_bits(), lean.cell_heat_j.to_bits());
        assert_eq!(full.first_brownout_s, lean.first_brownout_s);
        // The packs themselves evolved identically.
        assert_eq!(
            m1.cells()
                .iter()
                .map(|c| c.soc().to_bits())
                .collect::<Vec<_>>(),
            m2.cells()
                .iter()
                .map(|c| c.soc().to_bits())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn linked_ideal_matches_direct() {
        let mut m = pack(1.0);
        let mut rt = SdbRuntime::new(2);
        let trace = Trace::constant(4.0, 3600.0);
        let direct = run_trace(&mut m, &mut rt, &trace, &SimOptions::default());

        let mut link = Link::ideal(pack(1.0));
        let mut rt2 = SdbRuntime::new(2);
        let linked = run_trace_linked(&mut link, &mut rt2, &trace, &LinkedSimOptions::default());
        // A perfect zero-latency link is physically equivalent to driving
        // the firmware directly.
        assert!((direct.supplied_j - linked.supplied_j).abs() < 1e-9);
        assert!((direct.total_loss_j() - linked.total_loss_j()).abs() < 1e-9);
        assert_eq!(direct.final_soc, linked.final_soc);
    }

    #[test]
    fn linked_survives_lossy_link() {
        use crate::runtime::ResilienceConfig;
        let mut link = Link::ideal(pack(1.0));
        link.seed_faults(11);
        link.set_fault_drop_per_mille(300);
        let mut rt = SdbRuntime::new(2);
        rt.enable_resilience(ResilienceConfig::default());
        let result = run_trace_linked(
            &mut link,
            &mut rt,
            &Trace::constant(4.0, 3600.0),
            &LinkedSimOptions::default(),
        );
        assert!((result.simulated_s - 3600.0).abs() < 1e-6);
        assert!(
            result.unmet_j < 1e-6,
            "load went unserved: {}",
            result.unmet_j
        );
        assert!(link.stats().dropped > 0);
    }

    #[test]
    fn linked_planned_with_inert_policy_matches_plain_linked() {
        use crate::lookahead::{LookaheadPolicy, PlanUpdate};
        struct Never;
        impl LookaheadPolicy for Never {
            fn plan(
                &mut self,
                _t_s: f64,
                _micro: &Microcontroller,
                _input: &crate::policy::PolicyInput,
            ) -> Option<PlanUpdate> {
                None
            }
            fn observe_step(&mut self, _t_s: f64, _dt_s: f64, _load_w: f64) {}
        }
        let trace = Trace::constant(4.0, 3600.0);
        let mut link = Link::ideal(pack(1.0));
        let mut rt = SdbRuntime::new(2);
        let plain = run_trace_linked(&mut link, &mut rt, &trace, &LinkedSimOptions::default());

        let mut link2 = Link::ideal(pack(1.0));
        let mut rt2 = SdbRuntime::new(2);
        let mut policy = Never;
        let planned = run_trace_linked_planned_with(
            &mut link2,
            &mut rt2,
            &trace,
            &LinkedSimOptions::default(),
            Some(&mut policy),
            |_, _| {},
            |_, _, _| {},
        );
        // A policy that never plans leaves the linked instruction sequence
        // untouched: bit-identical results.
        assert_eq!(plain, planned);
    }

    #[test]
    fn charge_session_reaches_targets_in_order() {
        let mut m = pack(0.0);
        let mut rt = SdbRuntime::new(2);
        rt.set_update_period(30.0);
        let times = run_charge_session(&mut m, &mut rt, 30.0, &[0.2, 0.5, 0.8], 8.0 * 3600.0, 30.0);
        assert!(times.iter().all(Option::is_some), "{times:?}");
        assert!(times[0].unwrap() < times[1].unwrap());
        assert!(times[1].unwrap() < times[2].unwrap());
    }

    #[test]
    fn charge_session_times_out_gracefully() {
        let mut m = pack(0.0);
        let mut rt = SdbRuntime::new(2);
        // 1 W external cannot reach 80 % in one simulated hour.
        let times = run_charge_session(&mut m, &mut rt, 1.0, &[0.8], 3600.0, 60.0);
        assert_eq!(times, vec![None]);
    }
}
