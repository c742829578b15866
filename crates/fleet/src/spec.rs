//! Declarative fleet populations.
//!
//! A fleet is a weighted mixture of cohorts. Each cohort names a pack
//! template (battery specs shared behind `Arc` so a ten-thousand-device
//! cohort builds its specs once), a workload family, and a policy. Device
//! `i` of the fleet is assigned a cohort and a private RNG stream purely
//! from `(master_seed, i)`, so the population — and therefore the whole
//! fleet report — is reproducible from one integer.

use sdb_battery_model::chemistry::Chemistry;
use sdb_battery_model::library;
use sdb_battery_model::spec::BatterySpec;
use sdb_core::policy::{DischargeDirective, PreservePolicy};
use sdb_core::runtime::SdbRuntime;
use sdb_core::scheduler::SimOptions;
use sdb_emulator::micro::Microcontroller;
use sdb_emulator::pack::PackBuilder;
use sdb_emulator::profile::ProfileKind;
use sdb_policy::{HistoryForecaster, Planner, PlannerConfig};
use sdb_rng::{derive_seed, DetRng};
use sdb_workloads::traces::Trace;
use sdb_workloads::Activity;
use std::sync::Arc;

/// Stream-salt so cohort assignment draws are decorrelated from the
/// device's own simulation stream.
const COHORT_SALT: u64 = 0xC0C0_57A7_5DB0_F1EE;

/// Seed offset separating a planned policy's forecast warm-up days from
/// the evaluated trace, so planners train on the device's *habit*, never
/// on the day being judged.
const PLANNER_HISTORY_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// How many previous days a planned policy's forecaster folds in.
const PLANNER_HISTORY_DAYS: u64 = 7;

/// One battery slot of a pack template.
#[derive(Debug, Clone)]
pub struct BatterySlot {
    /// The (immutable, shared) electrochemical spec.
    pub spec: Arc<BatterySpec>,
    /// Initial state of charge in `[0, 1]`.
    pub initial_soc: f64,
    /// Charging profile installed in the slot.
    pub profile: ProfileKind,
}

/// A pack configuration shared by every device of a cohort. The specs are
/// behind `Arc`: building the template costs one spec construction per
/// slot no matter how many devices instantiate it.
#[derive(Debug, Clone)]
pub struct PackTemplate {
    /// The slots, in hardware order.
    pub batteries: Vec<BatterySlot>,
}

impl PackTemplate {
    /// A template from `(spec, initial_soc, profile)` triples.
    #[must_use]
    pub fn new(slots: Vec<(BatterySpec, f64, ProfileKind)>) -> Self {
        Self {
            batteries: slots
                .into_iter()
                .map(|(spec, initial_soc, profile)| BatterySlot {
                    spec: Arc::new(spec),
                    initial_soc,
                    profile,
                })
                .collect(),
        }
    }

    /// Instantiates the template as a fresh pack. The builder takes the
    /// `Arc`'d specs directly, so no per-device spec copy is made.
    #[must_use]
    pub fn build(&self) -> Microcontroller {
        let mut builder = PackBuilder::new();
        for slot in &self.batteries {
            builder = builder.battery_at(slot.spec.clone(), slot.initial_soc, slot.profile);
        }
        builder.build()
    }

    /// The same pack shape with each slot's chemistry substituted: slot
    /// `i` takes `chems[i % chems.len()]`, keeping its capacity, initial
    /// SoC, and charging profile. This is the chemistry axis of the
    /// campaign matrix — one scenario's pack swept across the chemistry
    /// library without disturbing the rest of the cell configuration.
    ///
    /// # Panics
    ///
    /// Panics if `chems` is empty.
    #[must_use]
    pub fn with_chemistries(&self, chems: &[Chemistry]) -> Self {
        assert!(!chems.is_empty(), "chemistry substitution needs a value");
        Self {
            batteries: self
                .batteries
                .iter()
                .enumerate()
                .map(|(i, slot)| {
                    let chem = chems[i % chems.len()];
                    BatterySlot {
                        spec: Arc::new(BatterySpec::from_chemistry(
                            &slot.spec.name,
                            chem,
                            slot.spec.capacity_ah,
                        )),
                        initial_soc: slot.initial_soc,
                        profile: slot.profile,
                    }
                })
                .collect(),
        }
    }

    /// The paper's §5.2 watch: 200 mAh Li-ion + 200 mAh bendable strap.
    #[must_use]
    pub fn watch() -> Self {
        Self::new(vec![
            (
                library::watch_li_ion().spec().clone(),
                1.0,
                ProfileKind::Standard,
            ),
            (
                library::watch_bendable().spec().clone(),
                1.0,
                ProfileKind::Gentle,
            ),
        ])
    }

    /// A phone pack: 3 Ah high-energy + 1 Ah high-power.
    #[must_use]
    pub fn phone() -> Self {
        Self::new(vec![
            (
                BatterySpec::from_chemistry("high-energy", Chemistry::Type2CoStandard, 3.0),
                1.0,
                ProfileKind::Standard,
            ),
            (
                BatterySpec::from_chemistry("high-power", Chemistry::Type3CoPower, 1.0),
                1.0,
                ProfileKind::Fast,
            ),
        ])
    }

    /// The §5.1 tablet hybrid: 4 Ah high-energy + 4 Ah fast-charge.
    #[must_use]
    pub fn tablet_hybrid() -> Self {
        Self::new(vec![
            (
                BatterySpec::from_chemistry("high-energy", Chemistry::Type2CoStandard, 4.0),
                1.0,
                ProfileKind::Standard,
            ),
            (
                BatterySpec::from_chemistry("fast-charge", Chemistry::Type3CoPower, 4.0),
                1.0,
                ProfileKind::Fast,
            ),
        ])
    }
}

/// The workload family a cohort's devices run. Seeded families draw the
/// device's private seed, so two devices of one cohort live different
/// days; [`WorkloadSpec::Shared`] replays one `Arc`'d trace on every
/// device (built once per cohort).
#[derive(Debug, Clone)]
pub enum WorkloadSpec {
    /// Every device replays the same trace.
    Shared(Arc<Trace>),
    /// The Figure 13 watch day, seeded per device.
    WatchDay {
        /// Hour of the one-hour GPS run (`None` = no run).
        run_hour: Option<f64>,
    },
    /// The smartphone day, seeded per device.
    PhoneDay,
    /// A tablet mixed-activity session, seeded per device.
    TabletMixed {
        /// Seconds per activity segment.
        segment_s: f64,
        /// Total session length, seconds.
        total_s: f64,
    },
    /// Any workload clipped to a maximum duration (the last segment is
    /// shortened to land exactly on the boundary).
    Truncated {
        /// The workload being clipped.
        inner: Box<WorkloadSpec>,
        /// Maximum trace duration, seconds.
        max_s: f64,
    },
}

impl WorkloadSpec {
    /// Materializes the trace for one device. `seed` is the device's
    /// private stream seed.
    #[must_use]
    pub fn build(&self, seed: u64) -> Arc<Trace> {
        match self {
            WorkloadSpec::Shared(t) => Arc::clone(t),
            WorkloadSpec::WatchDay { run_hour } => {
                Arc::new(sdb_workloads::traces::watch_day(seed, *run_hour))
            }
            WorkloadSpec::PhoneDay => Arc::new(sdb_workloads::traces::phone_day(seed)),
            WorkloadSpec::TabletMixed { segment_s, total_s } => {
                Arc::new(sdb_workloads::traces::tablet_session(
                    seed,
                    &[Activity::Network, Activity::Compute, Activity::Interactive],
                    *segment_s,
                    *total_s,
                ))
            }
            WorkloadSpec::Truncated { inner, max_s } => {
                let full = inner.build(seed);
                if full.duration_s() <= *max_s {
                    return full;
                }
                let mut clipped = Trace::new();
                let mut remaining = *max_s;
                for p in full.points() {
                    if remaining <= 0.0 {
                        break;
                    }
                    let dur = p.dur_s.min(remaining);
                    clipped.push(p.load_w, p.external_w, dur);
                    remaining -= dur;
                }
                Arc::new(clipped)
            }
        }
    }
}

/// The policy a cohort's runtime applies.
#[derive(Debug, Clone, Copy)]
pub enum PolicySpec {
    /// A fixed discharge-directive blend (0 = CCB/longevity, 1 = RBL).
    Blend(f64),
    /// The workload-aware watch preserve policy.
    Preserve {
        /// Index of the efficient battery.
        efficient: usize,
        /// Index of the inefficient (strap) battery.
        inefficient: usize,
        /// Load threshold (watts) above which the efficient cell engages.
        threshold_w: f64,
    },
    /// The `sdb-policy` receding-horizon planner: a history forecaster
    /// warm-started from previous days of the cohort's own workload
    /// family steers the directive through rollout planning.
    Planned {
        /// Lookahead horizon, seconds.
        horizon_s: f64,
        /// Re-plan cadence, seconds.
        replan_s: f64,
    },
    /// The perfect-forecast oracle planner over each device's own trace —
    /// the upper bound on what any forecast-driven policy could achieve.
    Oracle,
}

impl PolicySpec {
    /// Installs the policy on a device's `runtime`. Greedy policies set
    /// the runtime's directive and return `None`. Planner policies leave
    /// it alone and return the device's planner: the planned forecaster
    /// warms up on previous days of the device's `workload` family
    /// (derived from its `seed`), the oracle plans over its own `trace`.
    /// `update_period_s` is the runtime's policy re-evaluation period,
    /// which the planner's rollouts reproduce.
    #[must_use]
    pub fn install(
        self,
        runtime: &mut SdbRuntime,
        workload: &WorkloadSpec,
        seed: u64,
        trace: &Arc<Trace>,
        update_period_s: f64,
    ) -> Option<Planner> {
        match self {
            Self::Blend(v) => {
                runtime.set_discharge_directive(DischargeDirective::new(v));
                None
            }
            Self::Preserve {
                efficient,
                inefficient,
                threshold_w,
            } => {
                runtime.set_preserve(Some(PreservePolicy::new(
                    efficient,
                    inefficient,
                    threshold_w,
                )));
                None
            }
            Self::Planned {
                horizon_s,
                replan_s,
            } => {
                let history: Vec<Arc<Trace>> = (1..=PLANNER_HISTORY_DAYS)
                    .map(|k| {
                        workload.build(seed.wrapping_add(k.wrapping_mul(PLANNER_HISTORY_SALT)))
                    })
                    .collect();
                let forecaster =
                    HistoryForecaster::from_history(history.iter().map(Arc::as_ref), 0.3);
                let cfg = PlannerConfig {
                    horizon_s,
                    replan_period_s: replan_s,
                    update_period_s,
                    ..PlannerConfig::default()
                };
                Some(Planner::new(cfg, Box::new(forecaster)))
            }
            Self::Oracle => {
                let cfg = PlannerConfig {
                    candidates: 17,
                    update_period_s,
                    ..PlannerConfig::default()
                };
                Some(Planner::oracle(cfg, Arc::clone(trace)))
            }
        }
    }
}

/// One weighted cohort of the fleet.
#[derive(Debug, Clone)]
pub struct CohortSpec {
    /// Human-readable cohort name (appears in the report).
    pub name: String,
    /// Relative weight of the cohort in the population (need not sum to 1).
    pub weight: f64,
    /// The pack every device of the cohort carries.
    pub pack: PackTemplate,
    /// The workload family the cohort runs.
    pub workload: WorkloadSpec,
    /// The policy the cohort's runtime applies.
    pub policy: PolicySpec,
    /// Runtime policy re-evaluation period, seconds.
    pub update_period_s: f64,
}

/// A full fleet description: how many devices, which cohorts, the master
/// seed, and the simulation options shared by every device.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// Number of devices in the fleet.
    pub devices: usize,
    /// Master seed; every per-device stream is derived from it.
    pub master_seed: u64,
    /// The weighted cohort mixture.
    pub cohorts: Vec<CohortSpec>,
    /// Simulation options applied to every device.
    pub sim: SimOptions,
}

impl FleetSpec {
    /// A heterogeneous default population: phone commuters (50 %), watch
    /// runners under the preserve policy (30 %), and tablet hybrids on
    /// pure RBL (20 %) — one cohort per Section 5 scenario family.
    #[must_use]
    pub fn default_population(devices: usize, master_seed: u64) -> Self {
        Self {
            devices,
            master_seed,
            cohorts: vec![
                CohortSpec {
                    name: "phone-commuter".to_owned(),
                    weight: 0.5,
                    pack: PackTemplate::phone(),
                    workload: WorkloadSpec::PhoneDay,
                    policy: PolicySpec::Blend(0.5),
                    update_period_s: 60.0,
                },
                CohortSpec {
                    name: "watch-runner".to_owned(),
                    weight: 0.3,
                    pack: PackTemplate::watch(),
                    workload: WorkloadSpec::WatchDay {
                        run_hour: Some(9.0),
                    },
                    policy: PolicySpec::Preserve {
                        efficient: 0,
                        inefficient: 1,
                        threshold_w: 0.3,
                    },
                    update_period_s: 60.0,
                },
                CohortSpec {
                    name: "tablet-hybrid".to_owned(),
                    weight: 0.2,
                    pack: PackTemplate::tablet_hybrid(),
                    workload: WorkloadSpec::TabletMixed {
                        segment_s: 300.0,
                        total_s: 4.0 * 3600.0,
                    },
                    policy: PolicySpec::Blend(1.0),
                    update_period_s: 60.0,
                },
            ],
            sim: SimOptions::default(),
        }
    }

    /// Replaces every cohort's policy with `policy` — how `sdb fleet
    /// --policy planned|oracle` pits the lookahead planners against the
    /// default population's greedy mix on identical packs and workloads.
    #[must_use]
    pub fn with_policy(mut self, policy: PolicySpec) -> Self {
        for cohort in &mut self.cohorts {
            cohort.policy = policy;
        }
        self
    }

    /// Clips every cohort's workload to the first `hours` hours (each
    /// device still runs its own cohort-appropriate trace) — handy for
    /// benches and smoke tests where a full 24 h day per device is
    /// overkill.
    #[must_use]
    pub fn with_hours(mut self, hours: f64) -> Self {
        for cohort in &mut self.cohorts {
            let inner = std::mem::replace(
                &mut cohort.workload,
                WorkloadSpec::Shared(Arc::new(Trace::constant(0.0, 1.0))),
            );
            cohort.workload = match inner {
                // Already truncated: tighten the bound instead of nesting.
                WorkloadSpec::Truncated { inner, max_s } => WorkloadSpec::Truncated {
                    inner,
                    max_s: max_s.min(hours * 3600.0),
                },
                other => WorkloadSpec::Truncated {
                    inner: Box::new(other),
                    max_s: hours * 3600.0,
                },
            };
        }
        self
    }

    /// Validates the spec: at least one device and one cohort, positive
    /// total weight, valid per-cohort fields (including finite, positive
    /// truncation bounds).
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.devices == 0 {
            return Err("fleet needs at least one device".to_owned());
        }
        if self.cohorts.is_empty() {
            return Err("fleet needs at least one cohort".to_owned());
        }
        let total: f64 = self.cohorts.iter().map(|c| c.weight).sum();
        if !(total.is_finite() && total > 0.0) {
            return Err(format!(
                "cohort weights must sum to a positive value, got {total}"
            ));
        }
        for c in &self.cohorts {
            if !(c.weight.is_finite() && c.weight >= 0.0) {
                return Err(format!(
                    "cohort `{}` has invalid weight {}",
                    c.name, c.weight
                ));
            }
            if c.pack.batteries.is_empty() {
                return Err(format!("cohort `{}` has an empty pack", c.name));
            }
            if c.update_period_s <= 0.0 {
                return Err(format!(
                    "cohort `{}` has non-positive update period",
                    c.name
                ));
            }
            let mut workload = &c.workload;
            while let WorkloadSpec::Truncated { inner, max_s } = workload {
                if !(max_s.is_finite() && *max_s > 0.0) {
                    return Err(format!(
                        "cohort `{}` has truncation bound {max_s} s (must be finite and positive)",
                        c.name
                    ));
                }
                workload = inner;
            }
        }
        Ok(())
    }

    /// The cohort index device `device` belongs to: a weighted draw from a
    /// stream derived from the master seed and the device index —
    /// deterministic, independent of execution order.
    ///
    /// # Panics
    ///
    /// Panics on an empty cohort list (callers validate first).
    #[must_use]
    pub fn cohort_of(&self, device: u64) -> usize {
        let total: f64 = self.cohorts.iter().map(|c| c.weight).sum();
        let mut rng = DetRng::seed_from_u64(derive_seed(self.master_seed ^ COHORT_SALT, device));
        let mut draw = rng.next_f64() * total;
        for (i, c) in self.cohorts.iter().enumerate() {
            draw -= c.weight;
            if draw < 0.0 {
                return i;
            }
        }
        self.cohorts.len() - 1
    }

    /// The private RNG stream seed of device `device`.
    #[must_use]
    pub fn device_seed(&self, device: u64) -> u64 {
        derive_seed(self.master_seed, device)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_population_validates() {
        let spec = FleetSpec::default_population(100, 7);
        assert!(spec.validate().is_ok());
        assert_eq!(spec.cohorts.len(), 3);
    }

    #[test]
    fn cohort_assignment_is_deterministic_and_weighted() {
        let spec = FleetSpec::default_population(0, 99);
        let n = 10_000u64;
        let mut counts = [0usize; 3];
        for d in 0..n {
            let c = spec.cohort_of(d);
            assert_eq!(c, spec.cohort_of(d), "assignment must be stable");
            counts[c] += 1;
        }
        let frac = |i: usize| counts[i] as f64 / n as f64;
        assert!((frac(0) - 0.5).abs() < 0.03, "phone share {}", frac(0));
        assert!((frac(1) - 0.3).abs() < 0.03, "watch share {}", frac(1));
        assert!((frac(2) - 0.2).abs() < 0.03, "tablet share {}", frac(2));
    }

    #[test]
    fn chemistry_substitution_keeps_shape_and_cycles_values() {
        let base = PackTemplate::phone();
        let sub = base.with_chemistries(&[Chemistry::Type1LfpPower, Chemistry::OtherLto]);
        assert_eq!(sub.batteries.len(), base.batteries.len());
        assert_eq!(sub.batteries[0].spec.chemistry, Chemistry::Type1LfpPower);
        assert_eq!(sub.batteries[1].spec.chemistry, Chemistry::OtherLto);
        for (s, b) in sub.batteries.iter().zip(&base.batteries) {
            assert_eq!(s.spec.capacity_ah, b.spec.capacity_ah);
            assert_eq!(s.initial_soc, b.initial_soc);
            assert_eq!(s.profile, b.profile);
        }
        // A single chemistry fills every slot.
        let mono = base.with_chemistries(&[Chemistry::OtherNmc]);
        assert!(mono
            .batteries
            .iter()
            .all(|s| s.spec.chemistry == Chemistry::OtherNmc));
    }

    #[test]
    fn validation_catches_bad_specs() {
        let mut spec = FleetSpec::default_population(10, 1);
        spec.devices = 0;
        assert!(spec.validate().is_err());

        let mut spec = FleetSpec::default_population(10, 1);
        spec.cohorts.clear();
        assert!(spec.validate().is_err());

        let mut spec = FleetSpec::default_population(10, 1);
        for c in &mut spec.cohorts {
            c.weight = 0.0;
        }
        assert!(spec.validate().is_err());

        let mut spec = FleetSpec::default_population(10, 1);
        spec.cohorts[0].update_period_s = 0.0;
        assert!(spec.validate().is_err());

        // The truncation horizon must be finite and positive.
        for hours in [f64::NAN, f64::INFINITY, -5.0, 0.0] {
            let spec = FleetSpec::default_population(10, 1).with_hours(hours);
            let err = spec.validate().unwrap_err();
            assert!(err.contains("truncation bound"), "hours {hours}: {err}");
        }
        assert!(FleetSpec::default_population(10, 1)
            .with_hours(0.5)
            .validate()
            .is_ok());
    }

    #[test]
    fn shared_workload_reuses_the_trace() {
        let t = Arc::new(Trace::constant(2.0, 600.0));
        let w = WorkloadSpec::Shared(Arc::clone(&t));
        let a = w.build(1);
        let b = w.build(2);
        assert!(Arc::ptr_eq(&a, &b), "shared traces must not be rebuilt");
    }

    #[test]
    fn seeded_workloads_differ_per_device() {
        let w = WorkloadSpec::WatchDay {
            run_hour: Some(9.0),
        };
        let a = w.build(1);
        let b = w.build(2);
        assert_ne!(a.points(), b.points());
    }

    #[test]
    fn truncation_clips_to_the_hour_boundary() {
        let w = WorkloadSpec::Truncated {
            inner: Box::new(WorkloadSpec::WatchDay {
                run_hour: Some(9.0),
            }),
            max_s: 2.0 * 3600.0,
        };
        let t = w.build(5);
        assert!(
            (t.duration_s() - 7200.0).abs() < 1e-9,
            "got {}",
            t.duration_s()
        );
        // A bound longer than the day leaves the trace untouched.
        let w = WorkloadSpec::Truncated {
            inner: Box::new(WorkloadSpec::WatchDay {
                run_hour: Some(9.0),
            }),
            max_s: 100.0 * 3600.0,
        };
        assert!((w.build(5).duration_s() - 24.0 * 3600.0).abs() < 1e-6);
        // with_hours wraps every cohort and tightens on repeat.
        let spec = FleetSpec::default_population(4, 1)
            .with_hours(3.0)
            .with_hours(2.0);
        for c in &spec.cohorts {
            match &c.workload {
                WorkloadSpec::Truncated { max_s, inner } => {
                    assert!((max_s - 7200.0).abs() < 1e-9);
                    assert!(!matches!(**inner, WorkloadSpec::Truncated { .. }));
                }
                other => panic!("expected truncated workload, got {other:?}"),
            }
        }
    }

    #[test]
    fn device_seeds_are_distinct() {
        let spec = FleetSpec::default_population(10, 3);
        let mut seeds: Vec<u64> = (0..1000).map(|d| spec.device_seed(d)).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 1000);
    }
}
