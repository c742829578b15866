//! The SDB workspace benchmark: four workloads driven through the
//! crates' public entry points, with end-to-end metrics from an untraced
//! run (`--trace 0`) and per-layer metrics from a traced replay
//! (`--trace 1`). See `perfbench/README.md` for the metrics and why each
//! workload exists.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet-soa-day --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.

mod campaign;
mod fleet;
mod serve;
mod spans;
mod stats;
mod sys;
mod telemetry;

use sdb_observe::{DeviceEvent, MetricsRegistry};
use sdb_rng::DetRng;
use sdb_tsdb::TsdbStore;
use spans::Span;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Worker threads and connections: the load of one process on the
/// two-CPU hosts the benchmark is sized for.
pub const THREADS: usize = 2;
/// Set-ups per run, spread over it; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Timed repetitions at least, whatever `--seconds` says.
const MIN_REPS: usize = 3;
/// Series the query mix draws from what a workload serves.
const MIX_SERIES: usize = 16;
/// Where runs keep checkpoint logs, span dumps and records.
const OUT_DIR: &str = ".perfbench";

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    "fleet-soa-day",
    "fleet-planned-day",
    "campaign-faults",
    "telemetry-serve",
];

/// Per-layer metrics and their units, printed by every traced run; a
/// layer a workload does not call reads 0.
pub const LAYER_METRICS: [(&str, &str); 40] = [
    ("workloads.trace_build_us", "us"),
    ("emulator.pack_build_us", "us"),
    ("emulator.micro_step_ns", "ns"),
    ("emulator.micro_steps", "count"),
    ("core.policy_eval_ns", "ns"),
    ("core.tick_self_ns", "ns"),
    ("core.ticks", "count"),
    ("fleet.ff_tick_frac", "ratio"),
    ("fleet.ff_tick_ns", "ns"),
    ("fleet.soa_device_ms", "ms"),
    ("fleet.device_ms_p99", "ms"),
    ("fleet.shard_busy_frac", "ratio"),
    ("fleet.unexplained_frac", "ratio"),
    ("policy.plan_ms", "ms"),
    ("policy.plan_calls", "count"),
    ("policy.replans", "count"),
    ("policy.plan_share", "ratio"),
    ("policy.forecaster_build_us", "us"),
    ("chaos.linked_device_ms", "ms"),
    ("chaos.faults_injected", "count"),
    ("chaos.violations", "count"),
    ("campaign.clean_device_ms.scalar", "ms"),
    ("campaign.clean_device_ms.soa", "ms"),
    ("campaign.checkpoint_append_us", "us"),
    ("campaign.checkpoint_bytes_per_device", "B"),
    ("campaign.resume_ms", "ms"),
    ("observe.events", "count"),
    ("observe.capture_overhead_frac", "ratio"),
    ("observe.metrics_render_us", "us"),
    ("trace.encode_mb_per_s", "MB/s"),
    ("trace.decode_mb_per_s", "MB/s"),
    ("trace.analyze_ms", "ms"),
    ("tsdb.ingest_ns_per_sample", "ns"),
    ("tsdb.series", "count"),
    ("tsdb.compression_ratio", "ratio"),
    ("tsdb.query_direct_us.range", "us"),
    ("tsdb.query_direct_us.rate", "us"),
    ("tsdb.query_direct_us.quantile", "us"),
    ("tsdb.http_overhead_ms", "ms"),
    ("tracing.overhead_frac", "ratio"),
];

/// Units attempted and failed, and what failed.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Checks {
    /// Counts `units` attempted, all failed unless `ok`.
    pub fn check(&mut self, units: u64, ok: bool, what: &str) {
        self.tally(units, if ok { 0 } else { units }, what);
    }

    /// Counts `attempted` units of which `failed` failed.
    pub fn tally(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed.min(attempted);
        if failed > 0 && !self.notes.iter().any(|n| n == what) {
            self.notes.push(what.to_owned());
        }
    }
}

/// Per-layer metric values by name.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Sets `name`, which must be one of [`LAYER_METRICS`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            LAYER_METRICS.iter().any(|(n, _)| *n == name),
            "unknown layer metric {name}"
        );
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }
}

/// One timed repetition.
#[derive(Debug, Clone, Copy)]
pub struct Rep {
    /// Wall time, s.
    pub wall_s: f64,
    /// Process CPU time, s.
    pub cpu_s: f64,
    /// Resident-set high-water mark during the repetition, MB.
    pub peak_rss_mb: f64,
}

/// Runs `f` with wall time, CPU time and peak resident set measured.
pub fn measured<T>(f: impl FnOnce() -> T) -> (T, Rep) {
    sys::reset_peak_rss();
    let cpu0 = sys::cpu_s();
    let t0 = Instant::now();
    let out = f();
    let wall_s = t0.elapsed().as_secs_f64();
    let rep = Rep {
        wall_s,
        cpu_s: sys::cpu_s() - cpu0,
        peak_rss_mb: sys::peak_rss_mb(),
    };
    (out, rep)
}

/// What a workload's query batches serve.
pub struct Served {
    /// Served on `/metrics`.
    pub registry: MetricsRegistry,
    /// Served on `/query`.
    pub store: TsdbStore,
    /// Series the query mix may target (never written during the phase).
    pub series: Vec<(String, Vec<(String, String)>)>,
    /// Events a writer appends while the client runs.
    pub live: Vec<DeviceEvent>,
    /// The writer's rate, events/s.
    pub live_per_s: f64,
}

impl Served {
    /// A registry plus the store its per-repetition scrapes went into.
    pub fn registry_scrapes(registry: MetricsRegistry, store: TsdbStore) -> Self {
        let series = store
            .series_ids()
            .into_iter()
            .map(|id| (id.name, id.labels))
            .collect();
        Self {
            registry,
            store,
            series,
            live: Vec::new(),
            live_per_s: 0.0,
        }
    }
}

/// One benchmark workload.
pub trait Workload {
    /// The engine it runs, for the manifest.
    fn engine(&self) -> &'static str;
    /// Builds the spec and warms up; timed as part of `setup_s`.
    fn setup(&mut self) -> Result<(), String>;
    /// Simulated device-hours of one repetition's input.
    fn device_hours(&self) -> f64;
    /// One timed repetition, checked.
    fn rep(&mut self, checks: &mut Checks) -> Result<Rep, String>;
    /// Correctness oracles over the last repetition's output.
    fn oracles(&mut self, checks: &mut Checks) -> Result<(), String>;
    /// What a query batch serves now.
    fn served(&self) -> Served;
    /// An untraced repetition and a traced replay of the same calls;
    /// fills `layers` and returns the spans.
    fn traced(&mut self, layers: &mut Layers, checks: &mut Checks) -> Result<Vec<Span>, String>;
}

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => args.workload.clone_from(value),
            "--workload" => {
                return Err(format!(
                    "unknown workload `{value}` (expected {})",
                    WORKLOADS.join("|")
                ))
            }
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds `{value}`"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_owned());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}` (expected 0|1)")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_owned());
    }
    Ok(args)
}

fn make(name: &str, seed: u64) -> Box<dyn Workload> {
    match name {
        "fleet-soa-day" => Box::new(fleet::Fleet::new(false, seed)),
        "fleet-planned-day" => Box::new(fleet::Fleet::new(true, seed)),
        "campaign-faults" => Box::new(campaign::Campaign::new(seed, Path::new(OUT_DIR))),
        _ => Box::new(telemetry::Telemetry::new(seed)),
    }
}

/// The request mix over up to [`MIX_SERIES`] of the served series, drawn
/// from the seed.
fn mix_for(served: &Served, seed: u64) -> Result<Vec<serve::Request>, String> {
    let mut pool = served.series.clone();
    pool.sort();
    let mut rng = DetRng::seed_from_u64(seed);
    let mut picked = Vec::new();
    while picked.len() < MIX_SERIES && !pool.is_empty() {
        let i = (rng.next_u64() % pool.len() as u64) as usize;
        picked.push(pool.swap_remove(i));
    }
    if picked.is_empty() {
        return Err("nothing to query".to_owned());
    }
    serve::request_mix(&served.registry, &served.store, &picked)
}

/// Sends `n` requests against what the workload serves now.
fn query_batch(
    w: &dyn Workload,
    seed: u64,
    n: usize,
    tracer: Option<&mut spans::Tracer>,
    q: &mut serve::QueryPhase,
) -> Result<(), String> {
    let served = w.served();
    let mix = mix_for(&served, seed)?;
    serve::run(
        served.registry,
        &served.store,
        &mix,
        n,
        &served.live,
        served.live_per_s,
        tracer,
        q,
    )
}

/// Metric name, value and unit, in print order.
type Metrics = Vec<(String, f64, String)>;

/// One set-up: the baseline oracle, the workload's spec build and
/// warm-up, and a listener bound and released, as every query batch
/// will. Its wall time, s.
fn set_up(w: &mut dyn Workload, checks: &mut Checks) -> Result<f64, String> {
    let t0 = Instant::now();
    campaign::baseline_oracle(checks, Path::new(campaign::BASELINE_FILE))?;
    w.setup()?;
    sdb_tsdb::serve(
        &sdb_tsdb::ServeOptions::default(),
        MetricsRegistry::new(),
        TsdbStore::new(Default::default()),
    )
    .map_err(|e| format!("bind: {e}"))?
    .shutdown();
    Ok(t0.elapsed().as_secs_f64())
}

fn run(args: &Args, mut w: Box<dyn Workload>) -> Result<(Checks, Metrics, Vec<Span>), String> {
    let mut checks = Checks::default();
    let mut setup_s = vec![set_up(w.as_mut(), &mut checks)?];

    if args.trace {
        let mut layers = Layers::default();
        let mut spans = w.traced(&mut layers, &mut checks)?;
        let mut tracer = spans::Tracer::new(Instant::now());
        let mut q = serve::QueryPhase::default();
        query_batch(
            w.as_ref(),
            args.seed,
            serve::TRACED_REQUESTS,
            Some(&mut tracer),
            &mut q,
        )?;
        checks.tally(
            q.attempted,
            q.failed,
            q.first_error.as_deref().unwrap_or("query failed"),
        );
        for (kind, name) in [
            ("range", "tsdb.query_direct_us.range"),
            ("rate", "tsdb.query_direct_us.rate"),
            ("quantile", "tsdb.query_direct_us.quantile"),
        ] {
            let us: Vec<f64> = q
                .direct_us
                .iter()
                .filter(|(k, _)| *k == kind)
                .map(|(_, v)| *v)
                .collect();
            layers.set(name, stats::median(&us));
        }
        layers.set("tsdb.http_overhead_ms", stats::median(&q.overhead_ms));
        spans.extend(tracer.into_spans());
        let metrics = LAYER_METRICS
            .iter()
            .map(|(name, unit)| {
                (
                    (*name).to_owned(),
                    layers.0.get(name).copied().unwrap_or(0.0),
                    (*unit).to_owned(),
                )
            })
            .collect();
        return Ok((checks, metrics, spans));
    }

    // Set-ups, repetitions and query batches alternate over the whole
    // run, the set-ups and requests keeping pace with the clock, so all
    // three sample the same stretch of host time rather than three parts
    // of it, and the repetitions get most of it.
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut q = serve::QueryPhase::default();
    loop {
        let share = (start.elapsed().as_secs_f64() / args.seconds).min(1.0);
        let measuring = reps.len() < MIN_REPS || share < 1.0;
        if measuring {
            let due = (1 + (SETUP_REPS as f64 * share) as usize).min(SETUP_REPS);
            while setup_s.len() < due {
                setup_s.push(set_up(w.as_mut(), &mut checks)?);
            }
            reps.push(w.rep(&mut checks)?);
        }
        let share = (start.elapsed().as_secs_f64() / args.seconds).min(1.0);
        let due = if measuring {
            (serve::REQUESTS as f64 * share) as u64
        } else {
            serve::REQUESTS as u64
        };
        let n = due.saturating_sub(q.attempted);
        if n > 0 {
            query_batch(w.as_ref(), args.seed, n as usize, None, &mut q)?;
        }
        if !measuring {
            break;
        }
    }
    while setup_s.len() < SETUP_REPS {
        setup_s.push(set_up(w.as_mut(), &mut checks)?);
    }
    w.oracles(&mut checks)?;
    checks.tally(
        q.attempted,
        q.failed,
        q.first_error.as_deref().unwrap_or("query failed"),
    );
    if stats::samples_beyond(&q.latencies_ms, 90.0) < 10 {
        return Err("fewer than ten latency samples beyond the p90".to_owned());
    }

    let med = |f: fn(&Rep) -> f64| stats::median(&reps.iter().map(f).collect::<Vec<_>>());
    let dh = w.device_hours();
    let ok_share = 1.0 - checks.failed as f64 / checks.attempted.max(1) as f64;
    let m = |n: &str, v: f64, u: &str| (n.to_owned(), v, u.to_owned());
    let metrics = vec![
        m("setup_s", stats::median(&setup_s), "s"),
        m("device_hours_per_s", dh / med(|r| r.wall_s), "dev-h/s"),
        m(
            "cpu_s_per_device_hour",
            med(|r| r.cpu_s) / dh,
            "cpu-s/dev-h",
        ),
        m("peak_rss_mb", med(|r| r.peak_rss_mb), "MB"),
        m(
            "query_p50_ms",
            stats::percentile(&q.latencies_ms, 50.0),
            "ms",
        ),
        m(
            "query_p90_ms",
            stats::percentile(&q.latencies_ms, 90.0),
            "ms",
        ),
        m(
            "queries_per_s",
            (q.attempted - q.failed) as f64 / q.wall_s,
            "req/s",
        ),
        m("success_rate", ok_share, "ratio"),
    ];
    let pct = |p: f64| stats::percentile(&q.latencies_ms, p);
    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let (q1, q3) = stats::quartiles(&walls).unwrap_or_default();
    let (lo, hi) = (
        stats::percentile(&walls, 0.0),
        stats::percentile(&walls, 100.0),
    );
    eprintln!(
        "{}: {} repetitions (wall min/q1/q3/max {lo:.3}/{q1:.3}/{q3:.3}/{hi:.3} s), {:.1} device-hours each, \
         {} requests ({} written live), latency p90/p95/p98/p99/max {:.2}/{:.2}/{:.2}/{:.2}/{:.2} ms",
        args.workload,
        reps.len(),
        dh,
        q.attempted,
        q.written,
        pct(90.0),
        pct(95.0),
        pct(98.0),
        pct(99.0),
        pct(100.0)
    );
    Ok((checks, metrics, Vec::new()))
}

fn metrics_json(metrics: &Metrics) -> String {
    let mut out = String::from("{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push('}');
    out
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let w = make(&args.workload, args.seed);
    let manifest = sys::manifest_json(&args.workload, args.seed, w.engine(), THREADS, args.trace);
    println!("manifest {manifest}");
    let (checks, metrics, spans) = match run(&args, w) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    for note in &checks.notes {
        eprintln!("perfbench: check failed: {note}");
    }
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        checks.failed == 0,
        checks.attempted.max(1),
        checks.failed,
        metrics_json(&metrics)
    );
    let stem = format!(
        "{OUT_DIR}/{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let record = format!("{{\"manifest\": {manifest}, \"result\": {result}}}\n");
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(format!("{stem}.json"), record))
        .and_then(|()| {
            if spans.is_empty() {
                Ok(())
            } else {
                std::fs::write(format!("{stem}.spans.jsonl"), spans::to_jsonl(&spans))
            }
        });
    if let Err(e) = written {
        eprintln!("perfbench: write {stem}: {e}");
    }
    println!("{result}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn args_parse_and_reject() {
        let a = parse_args(&argv(
            "--workload fleet-soa-day --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("fleet-soa-day", 7, 10.0, true)
        );
        assert!(parse_args(&argv("--workload nope --seed 1")).is_err());
        assert!(parse_args(&argv("--workload telemetry-serve --trace 2")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
        assert!(parse_args(&argv("--workload telemetry-serve --seed")).is_err());
    }

    /// Every step of a run on a small input: set-up, repetitions, oracles,
    /// short query batches and the traced replay, with no failed check.
    fn smoke(mut w: Box<dyn Workload>) -> Layers {
        let mut checks = Checks::default();
        w.setup().unwrap();
        let mut q = serve::QueryPhase::default();
        for _ in 0..2 {
            let rep = w.rep(&mut checks).unwrap();
            assert!(rep.wall_s > 0.0 && rep.peak_rss_mb > 0.0);
            query_batch(w.as_ref(), 1, 4, None, &mut q).unwrap();
        }
        assert_eq!((q.attempted, q.failed), (8, 0), "{:?}", q.first_error);
        w.oracles(&mut checks).unwrap();
        let mut layers = Layers::default();
        let spans = w.traced(&mut layers, &mut checks).unwrap();
        assert!(!spans.is_empty());
        assert_eq!(checks.failed, 0, "{:?}", checks.notes);
        assert!(checks.attempted > 0);
        layers
    }

    #[test]
    fn baseline_oracle_passes_on_the_committed_baseline() {
        let mut checks = Checks::default();
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join(campaign::BASELINE_FILE);
        campaign::baseline_oracle(&mut checks, &path).unwrap();
        assert_eq!((checks.attempted, checks.failed), (48, 0));
    }

    #[test]
    fn smoke_fleet_soa_day() {
        let layers = smoke(Box::new(fleet::Fleet::smoke(false, 3)));
        assert!(layers.0["emulator.micro_steps"] > 0.0);
        assert!(layers.0["fleet.soa_device_ms"] > 0.0);
    }

    #[test]
    fn smoke_fleet_planned_day() {
        let layers = smoke(Box::new(fleet::Fleet::smoke(true, 3)));
        assert!(layers.0["policy.replans"] > 0.0);
        assert!(layers.0["policy.plan_ms"] > 0.0);
    }

    #[test]
    fn smoke_campaign_faults() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join(OUT_DIR)
            .join("test");
        let layers = smoke(Box::new(campaign::Campaign::smoke(3, &dir)));
        assert!(layers.0["chaos.faults_injected"] > 0.0);
        assert!(layers.0["campaign.checkpoint_bytes_per_device"] > 0.0);
    }

    #[test]
    fn smoke_telemetry_serve() {
        let layers = smoke(Box::new(telemetry::Telemetry::smoke(3)));
        assert!(layers.0["tsdb.series"] > 0.0);
        assert!(layers.0["trace.encode_mb_per_s"] > 0.0);
    }

    #[test]
    fn result_values_keep_their_digits() {
        let json = metrics_json(&vec![(
            "a".to_owned(),
            0.123_456_789_012_345,
            "s".to_owned(),
        )]);
        assert_eq!(
            json,
            "{\"a\": {\"value\": 0.123456789012345, \"unit\": \"s\"}}"
        );
    }
}
