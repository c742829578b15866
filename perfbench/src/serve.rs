//! The query batches every workload runs between its repetitions: its
//! products are served by `sdb_tsdb::serve` and one client thread sends a
//! fixed request mix in a closed loop over one connection at a time, the
//! way a dashboard user waits for each reply. An optional writer thread
//! appends held-back events at a fixed rate meanwhile, as a live feed
//! does.

use crate::spans::Tracer;
use sdb_observe::{DeviceEvent, MetricsRegistry};
use sdb_tsdb::{http::parse_query, ingest_events, query, serve, ServeOptions, TsdbStore};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Requests over one untraced run's batches: the reported p90 then rests
/// on thirty slower samples.
pub const REQUESTS: usize = 300;
/// Requests in a traced run's one batch.
pub const TRACED_REQUESTS: usize = 200;
/// A request slower than this counts as failed.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(5);
/// The writer wakes this often and appends the events due by then.
const WRITER_TICK: Duration = Duration::from_millis(10);

/// One request of the mix and the body it must return.
pub struct Request {
    /// Path and query string.
    pub target: String,
    /// Query kind for per-kind accounting (`metrics` for `/metrics`).
    pub kind: &'static str,
    /// The in-process result the HTTP body must equal.
    pub expected: String,
    /// The parsed query, for direct in-process timing.
    query: Option<sdb_tsdb::Query>,
}

fn encode(s: &str) -> String {
    s.bytes()
        .map(|b| {
            if b.is_ascii_alphanumeric() || b"-_.".contains(&b) {
                (b as char).to_string()
            } else {
                format!("%{b:02X}")
            }
        })
        .collect()
}

/// The request mix over `series` (metric name plus label pairs): for each
/// series a `/metrics` scrape and a range, rate and p99 query, in that
/// order. Expected bodies are computed in process before serving, so
/// `series` must not be written during the phase.
///
/// # Errors
///
/// Returns the parse error of a malformed generated query.
pub fn request_mix(
    registry: &MetricsRegistry,
    store: &TsdbStore,
    series: &[(String, Vec<(String, String)>)],
) -> Result<Vec<Request>, String> {
    let metrics_body = registry.to_prometheus_text();
    let mut out = Vec::with_capacity(series.len() * 4);
    for (name, labels) in series {
        out.push(Request {
            target: "/metrics".to_owned(),
            kind: "metrics",
            expected: metrics_body.clone(),
            query: None,
        });
        let mut base = format!("name={}", encode(name));
        for (k, v) in labels {
            base.push_str(&format!("&label.{}={}", encode(k), encode(v)));
        }
        for (kind, suffix) in [
            ("range", "&kind=range"),
            ("rate", "&kind=rate"),
            ("quantile", "&kind=quantile&q=0.99"),
        ] {
            let qs = format!("{base}{suffix}");
            let q = parse_query(&qs).map_err(|e| format!("generated query `{qs}`: {e}"))?;
            let expected = query::run(store, &q).to_json();
            out.push(Request {
                target: format!("/query?{qs}"),
                kind,
                expected,
                query: Some(q),
            });
        }
    }
    Ok(out)
}

/// One blocking GET; `(status, body)`.
fn get(addr: SocketAddr, target: &str) -> std::io::Result<(u16, Vec<u8>)> {
    let mut stream = TcpStream::connect_timeout(&addr, REQUEST_TIMEOUT)?;
    stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
    stream.write_all(format!("GET {target} HTTP/1.1\r\nHost: perfbench\r\n\r\n").as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| std::io::Error::other("no header terminator"))?;
    let status = std::str::from_utf8(&raw[..split])
        .ok()
        .and_then(|h| h.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other("bad status line"))?;
    Ok((status, raw[split + 4..].to_vec()))
}

/// What a query phase measured, over all its batches.
#[derive(Debug, Default)]
pub struct QueryPhase {
    /// Latency of every completed request, ms.
    pub latencies_ms: Vec<f64>,
    /// Requests sent.
    pub attempted: u64,
    /// Non-200, timed out, or wrong body.
    pub failed: u64,
    /// Wall time of the request loop, s.
    pub wall_s: f64,
    /// Events the writer appended.
    pub written: usize,
    /// Traced phases: per kind, in-process `query::run` durations, µs.
    pub direct_us: Vec<(&'static str, f64)>,
    /// Traced phases: HTTP latency minus the direct query time, ms.
    pub overhead_ms: Vec<f64>,
    /// First failure, for the log.
    pub first_error: Option<String>,
}

/// Serves `registry` and `store`, sends `n` requests cycling through
/// `mix` (continuing where `phase`'s earlier batches stopped), adds them
/// to `phase`, and stops the server. With `live`, a writer thread appends
/// those events to `store` at `live_per_s` events/s while the client
/// runs. With
/// `tracer`, each request also runs its query in process inside a span,
/// to split HTTP overhead from query time.
///
/// # Errors
///
/// Returns the bind error.
pub fn run(
    registry: MetricsRegistry,
    store: &TsdbStore,
    mix: &[Request],
    n: usize,
    live: &[DeviceEvent],
    live_per_s: f64,
    mut tracer: Option<&mut Tracer>,
    phase: &mut QueryPhase,
) -> Result<(), String> {
    let handle = serve(&ServeOptions::default(), registry.clone(), store.clone())
        .map_err(|e| format!("bind: {e}"))?;
    let addr = handle.addr();
    // One unmeasured `/healthz` first: the listener was just bound, and
    // its first connection would otherwise time the accept thread's start
    // rather than serving.
    if !matches!(get(addr, "/healthz"), Ok((200, _))) {
        phase.attempted += 1;
        phase.failed += 1;
        phase
            .first_error
            .get_or_insert_with(|| "/healthz failed".to_owned());
    }
    let done = AtomicBool::new(false);
    let written = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let start = Instant::now();
            let mut written = 0;
            while written < live.len() && !done.load(Ordering::SeqCst) {
                let due = ((start.elapsed().as_secs_f64() * live_per_s) as usize).min(live.len());
                ingest_events(store, &live[written..due]);
                written = due;
                std::thread::sleep(WRITER_TICK);
            }
            written
        });
        let start = Instant::now();
        let skip = usize::try_from(phase.attempted).unwrap_or(0) % mix.len().max(1);
        for req in mix.iter().cycle().skip(skip).take(n) {
            let id = phase.attempted;
            phase.attempted += 1;
            let t0 = Instant::now();
            let result = get(addr, &req.target);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let error = match result {
                Ok((200, body)) if body == req.expected.as_bytes() => None,
                Ok((200, _)) => Some(format!("{}: body differs from query::run", req.target)),
                Ok((status, _)) => Some(format!("{}: status {status}", req.target)),
                Err(e) => Some(format!("{}: {e}", req.target)),
            };
            match error {
                None => phase.latencies_ms.push(ms),
                Some(e) => {
                    phase.failed += 1;
                    phase.first_error.get_or_insert(e);
                }
            }
            if let Some(t) = tracer.as_deref_mut() {
                t.record(
                    "tsdb.http_request",
                    id,
                    t0,
                    t0 + Duration::from_secs_f64(ms / 1e3),
                );
                let direct_ns = t.span("tsdb.query_direct", id, |_| {
                    let t0 = Instant::now();
                    let body = match &req.query {
                        Some(q) => query::run(store, q).to_json(),
                        None => registry.to_prometheus_text(),
                    };
                    std::hint::black_box(body);
                    t0.elapsed().as_nanos() as f64
                });
                if req.query.is_some() {
                    phase.direct_us.push((req.kind, direct_ns / 1e3));
                }
                phase.overhead_ms.push(ms - direct_ns / 1e6);
            }
        }
        phase.wall_s += start.elapsed().as_secs_f64();
        done.store(true, Ordering::SeqCst);
        writer.join().expect("writer thread panicked")
    });
    phase.written += written;
    handle.shutdown();
    Ok(())
}
