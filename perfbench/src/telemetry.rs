//! `telemetry-serve`: a captured scalar fleet written as JSONL, read back,
//! analyzed and ingested into a `TsdbStore`, which the query batches then
//! serve while a writer appends the held-back devices' events.

use crate::spans::{self, Span, Tracer};
use crate::{measured, Checks, Layers, Rep, Served, Workload, THREADS};
use sdb_emulator::fnv1a_64;
use sdb_fleet::{run_fleet_captured, run_fleet_with_engine, EngineKind, FleetSpec};
use sdb_observe::{DeviceEvent, MetricsRegistry};
use sdb_trace::{analyze_jsonl, default_rules, from_jsonl, to_jsonl};
use sdb_tsdb::{ingest_events, RetentionConfig, TsdbStore};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Devices of the captured fleet, split by cohort as in the fleet
/// workloads: about 80k events and 14 MB of JSONL. At 64 devices the
/// store's longer series scan made the throughput spread over seeds half
/// as large again.
const DEVICES: usize = 32;
/// The last devices' events are held back and appended live during a
/// query batch; their series are never queried.
const LIVE_DEVICES: u64 = 2;
/// The simulated day.
const HOURS: f64 = 24.0;
/// The live fleet the writer stands for: the fleet size of the README's
/// `sdb fleet` examples. Its devices report in real time at the captured
/// stream's own per-device event rate, about 290 events/s in all.
const LIVE_FLEET_DEVICES: f64 = 10_000.0;
/// `to_prometheus_text` calls averaged for the render cost.
const RENDER_CALLS: u32 = 20;

/// What one pass of the pipeline produced.
struct Pipeline {
    registry: MetricsRegistry,
    events: Vec<DeviceEvent>,
    jsonl: String,
    decoded: Vec<DeviceEvent>,
    store: TsdbStore,
    /// Index of the first held-back event.
    split: usize,
    /// Whether a query batch has already appended the held-back events.
    fed: AtomicBool,
}

/// The `telemetry-serve` workload.
pub struct Telemetry {
    seed: u64,
    devices: usize,
    hours: f64,
    strata: Vec<FleetSpec>,
    device_hours: f64,
    last: Option<Pipeline>,
    first_digest: Option<u64>,
}

impl Telemetry {
    /// The workload for `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            devices: DEVICES,
            hours: HOURS,
            strata: Vec::new(),
            device_hours: 0.0,
            last: None,
            first_digest: None,
        }
    }
}

/// capture → `to_jsonl` → `from_jsonl` → `analyze_jsonl` →
/// `ingest_events`, each call inside a span. The strata are captured one
/// after another and numbered as one fleet.
fn pipeline(strata: &[FleetSpec], t: &mut Tracer) -> Result<Pipeline, String> {
    let registry = MetricsRegistry::new();
    let mut events = Vec::new();
    let mut offset = 0;
    for spec in strata {
        let (_, stats, captured) = t.span("observe.capture_fleet", 0, |_| {
            run_fleet_captured(spec, THREADS, true)
        })?;
        registry.merge_from(&stats.registry);
        events.extend(
            captured
                .ok_or("capture returned no events")?
                .into_iter()
                .map(|mut e| {
                    e.device += offset;
                    e
                }),
        );
        offset += spec.devices as u64;
    }
    let devices = offset;
    let jsonl = t.span("trace.encode", 0, |_| to_jsonl(&events));
    let decoded = t.span("trace.decode", 0, |_| from_jsonl(&jsonl))?;
    t.span("trace.analyze", 0, |_| {
        analyze_jsonl(&jsonl, default_rules())
    })?;
    let split = decoded.partition_point(|e| e.device < devices - LIVE_DEVICES);
    let store = TsdbStore::new(RetentionConfig::default());
    t.span("tsdb.ingest", 0, |_| {
        ingest_events(&store, &decoded[..split])
    });
    Ok(Pipeline {
        registry,
        events,
        jsonl,
        decoded,
        store,
        split,
        fed: AtomicBool::new(false),
    })
}

impl Telemetry {
    /// Devices over all strata.
    fn fleet_devices(&self) -> u64 {
        self.strata.iter().map(|s| s.devices as u64).sum()
    }
}

impl Workload for Telemetry {
    fn engine(&self) -> &'static str {
        "scalar"
    }

    fn setup(&mut self) -> Result<(), String> {
        let population =
            FleetSpec::default_population(self.devices, self.seed).with_hours(self.hours);
        self.strata = crate::fleet::stratified(&population, self.seed);
        for spec in &self.strata {
            spec.validate()?;
        }
        self.device_hours = self
            .strata
            .iter()
            .map(crate::fleet::input_device_hours)
            .sum();
        // Warm-up: the whole pipeline on a few devices for an hour.
        let warm = FleetSpec::default_population(THREADS * 2, self.seed).with_hours(1.0);
        pipeline(&[warm], &mut Tracer::new(Instant::now()))?;
        Ok(())
    }

    fn device_hours(&self) -> f64 {
        self.device_hours
    }

    fn rep(&mut self, checks: &mut Checks) -> Result<Rep, String> {
        self.last = None;
        let (out, rep) = measured(|| pipeline(&self.strata, &mut Tracer::new(Instant::now())));
        let p = out?;
        let digest = fnv1a_64(p.jsonl.as_bytes());
        let first = *self.first_digest.get_or_insert(digest);
        checks.check(
            self.fleet_devices(),
            digest == first,
            "captured JSONL differs between repetitions",
        );
        self.last = Some(p);
        Ok(rep)
    }

    fn oracles(&mut self, checks: &mut Checks) -> Result<(), String> {
        let p = self.last.as_ref().ok_or("no pipeline output")?;
        checks.check(
            1,
            p.decoded == p.events,
            "from_jsonl(to_jsonl(events)) is not bit-exact",
        );
        Ok(())
    }

    fn served(&self) -> Served {
        let p = self.last.as_ref().expect("served after a repetition");
        let live_from = format!("d{}", self.fleet_devices() - LIVE_DEVICES);
        let series = p
            .store
            .series_ids()
            .into_iter()
            .filter(|id| {
                id.labels
                    .iter()
                    .any(|(k, v)| k == "device" && device_index(v) < device_index(&live_from))
            })
            .map(|id| (id.name, id.labels))
            .collect();
        Served {
            registry: p.registry.clone(),
            store: p.store.clone(),
            series,
            // Each store receives the held-back events once, during the
            // first batch that serves it.
            live: if p.fed.swap(true, Ordering::SeqCst) {
                Vec::new()
            } else {
                p.decoded[p.split..].to_vec()
            },
            live_per_s: LIVE_FLEET_DEVICES * p.events.len() as f64
                / (self.fleet_devices() as f64 * self.hours * 3600.0),
        }
    }

    fn traced(&mut self, layers: &mut Layers, checks: &mut Checks) -> Result<Vec<Span>, String> {
        let untraced = self.rep(checks)?;
        self.last = None;
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch);
        let p = t.span("telemetry.pipeline", 0, |t| pipeline(&self.strata, t))?;
        let traced_s = epoch.elapsed().as_secs_f64();
        checks.check(
            self.fleet_devices(),
            Some(fnv1a_64(p.jsonl.as_bytes())) == self.first_digest && p.decoded == p.events,
            "traced pipeline differs from the untraced one",
        );
        let t0 = Instant::now();
        for spec in &self.strata {
            run_fleet_with_engine(spec, THREADS, EngineKind::Scalar)?;
        }
        let uncaptured_s = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        for _ in 0..RENDER_CALLS {
            std::hint::black_box(p.registry.to_prometheus_text());
        }
        let render_us = t0.elapsed().as_secs_f64() * 1e6 / f64::from(RENDER_CALLS);

        let spans = t.into_spans();
        let tot = spans::totals(&spans);
        let secs = |n: &str| tot.get(n).map_or(0.0, |t| t.total_ns as f64 / 1e9);
        let mb = p.jsonl.len() as f64 / 1e6;
        let st = p.store.stats();
        layers.set("tracing.overhead_frac", traced_s / untraced.wall_s - 1.0);
        layers.set("observe.events", p.events.len() as f64);
        layers.set(
            "observe.capture_overhead_frac",
            secs("observe.capture_fleet") / uncaptured_s - 1.0,
        );
        layers.set("observe.metrics_render_us", render_us);
        layers.set("trace.encode_mb_per_s", mb / secs("trace.encode"));
        layers.set("trace.decode_mb_per_s", mb / secs("trace.decode"));
        layers.set("trace.analyze_ms", secs("trace.analyze") * 1e3);
        layers.set(
            "tsdb.ingest_ns_per_sample",
            secs("tsdb.ingest") * 1e9 / st.appended.max(1) as f64,
        );
        layers.set("tsdb.series", st.series as f64);
        layers.set("tsdb.compression_ratio", st.compression_ratio());
        self.last = Some(p);
        Ok(spans)
    }
}

#[cfg(test)]
impl Telemetry {
    /// A few devices over an hour: every call and oracle, in seconds.
    pub fn smoke(seed: u64) -> Self {
        Self {
            devices: 6,
            hours: 1.0,
            ..Self::new(seed)
        }
    }
}

/// The index in a `d<index>` device label.
fn device_index(label: &str) -> u64 {
    label
        .strip_prefix('d')
        .and_then(|n| n.parse().ok())
        .unwrap_or(u64::MAX)
}
