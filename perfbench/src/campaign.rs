//! `campaign-faults`: every scenario, chemistry pair and fault intensity
//! under the greedy policy on both engines, with a checkpoint log, through
//! `run_campaign`; and a traced replay through `run_cell_device`.

use crate::spans::{self, Span, Tracer};
use crate::{measured, Checks, Layers, Rep, Served, Workload, THREADS};
use sdb_campaign::checkpoint;
use sdb_campaign::report::{CampaignReport, DeviceRecord};
use sdb_campaign::spec::{scenario, Cell};
use sdb_campaign::{
    compare, run_campaign, run_cell_device, Baseline, CampaignOptions, CampaignRun, CampaignSpec,
};
use sdb_fleet::WorkloadSpec;
use sdb_observe::MetricsRegistry;
use sdb_tsdb::{RegistryScraper, RetentionConfig, TsdbStore};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Devices per cell: 128 cells × 8 devices run in about a second.
const DEVICES_PER_CELL: usize = 8;
/// The simulated day.
const HOURS: f64 = 24.0;
/// The committed golden digests of the default 48-cell spec.
pub const BASELINE_FILE: &str = "CAMPAIGN_BASELINE.txt";

/// Runs `CampaignSpec::default()` (48 cells) and compares it with the
/// committed baseline: every cell checked, none new, none divergent.
///
/// # Errors
///
/// Returns a message when the baseline file is missing or malformed.
pub fn baseline_oracle(checks: &mut Checks, path: &Path) -> Result<(), String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let baseline = Baseline::parse(&text)?;
    let spec = CampaignSpec::default();
    let opts = CampaignOptions {
        threads: THREADS,
        ..CampaignOptions::default()
    };
    let report = complete(run_campaign(&spec, &opts)?)?;
    let cmp = compare(&report, &baseline)?;
    let cells = report.cells.len() as u64;
    checks.check(
        cells,
        cmp.divergences.is_empty() && cmp.new_cells.is_empty() && cmp.checked == report.cells.len(),
        "default campaign diverges from CAMPAIGN_BASELINE.txt",
    );
    Ok(())
}

fn complete(run: CampaignRun) -> Result<CampaignReport, String> {
    match run {
        CampaignRun::Complete(r) => Ok(*r),
        CampaignRun::Interrupted { completed, total } => {
            Err(format!("campaign stopped at {completed}/{total} units"))
        }
    }
}

/// One replay shard's records and spans.
type Shard = (Vec<DeviceRecord>, Vec<Span>);

/// The `campaign-faults` workload.
pub struct Campaign {
    spec: CampaignSpec,
    dir: PathBuf,
    device_hours: f64,
    report: Option<CampaignReport>,
    first_digest: Option<u64>,
    store: TsdbStore,
    registry: MetricsRegistry,
    reps: i64,
}

impl Campaign {
    /// The workload for `seed`, keeping its checkpoint logs under `dir`.
    pub fn new(seed: u64, dir: &Path) -> Self {
        let axis = |v: &[&str]| v.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>();
        Self {
            spec: CampaignSpec {
                scenarios: axis(&["standby", "phone-day", "watch-day", "tablet-mixed"]),
                chemistries: axis(&["co", "lfp", "nmc-lto", "bendable"]),
                faults: axis(&["none", "light", "moderate", "heavy"]),
                policies: axis(&["greedy"]),
                engines: axis(&["scalar", "soa"]),
                master_seed: seed,
                hours: HOURS,
                devices_per_cell: DEVICES_PER_CELL,
            },
            dir: dir.to_owned(),
            device_hours: 0.0,
            report: None,
            first_digest: None,
            store: TsdbStore::new(RetentionConfig::default()),
            registry: MetricsRegistry::new(),
            reps: 0,
        }
    }

    fn log(&self, name: &str) -> PathBuf {
        self.dir
            .join(format!("campaign-{}-{name}.log", self.spec.master_seed))
    }

    fn run_logged(&self, log: &Path) -> Result<CampaignReport, String> {
        let opts = CampaignOptions {
            threads: THREADS,
            checkpoint: Some(log.to_owned()),
            stop_after: None,
        };
        complete(run_campaign(&self.spec, &opts)?)
    }
}

#[cfg(test)]
impl Campaign {
    /// Every cell, one device each, over an hour.
    pub fn smoke(seed: u64, dir: &Path) -> Self {
        let mut w = Self::new(seed, dir);
        w.spec.devices_per_cell = 1;
        w.spec.hours = 1.0;
        w
    }
}

/// The truncated workload a campaign unit runs.
fn unit_workload(spec: &CampaignSpec, cell: &Cell) -> Result<WorkloadSpec, String> {
    Ok(WorkloadSpec::Truncated {
        inner: Box::new(scenario(&cell.scenario)?.workload),
        max_s: spec.hours * 3600.0,
    })
}

/// Per-cell counters and gauges, as a dashboard over the campaign shows
/// them.
fn cell_registry(report: &CampaignReport) -> MetricsRegistry {
    let reg = MetricsRegistry::new();
    for c in &report.cells {
        let labels = [("cell", c.key.as_str())];
        reg.counter("sdb_campaign_faults_total", &labels)
            .add(c.faults_injected());
        reg.counter("sdb_campaign_violations_total", &labels)
            .add(c.violations());
        reg.gauge("sdb_campaign_mean_life_h", &labels)
            .set(c.mean_life_h());
    }
    reg
}

/// Cells that fail a campaign check: invariant violations, or a faulted
/// cell whose devices' digests differ from its engine pair's.
fn failing_cells(report: &CampaignReport) -> u64 {
    let device_digests = |key: &str| {
        report.cell(key).map(|c| {
            c.devices
                .iter()
                .map(DeviceRecord::digest)
                .collect::<Vec<_>>()
        })
    };
    let pair_differs = |key: &str| {
        let (stem, engine) = key.rsplit_once('/').unwrap_or((key, ""));
        let other = if engine == "soa" { "scalar" } else { "soa" };
        !key.contains("/none/") && device_digests(key) != device_digests(&format!("{stem}/{other}"))
    };
    report
        .cells
        .iter()
        .filter(|c| c.violations() > 0 || pair_differs(&c.key))
        .count() as u64
}

impl Workload for Campaign {
    fn engine(&self) -> &'static str {
        "scalar+soa"
    }

    fn setup(&mut self) -> Result<(), String> {
        let cells = self.spec.cells()?;
        let mut hours = 0.0;
        for cell in &cells {
            let workload = unit_workload(&self.spec, cell)?;
            for d in 0..self.spec.devices_per_cell as u64 {
                hours += workload.build(self.spec.device_seed(cell, d)).duration_s() / 3600.0;
            }
        }
        self.device_hours = hours;
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| format!("create {}: {e}", self.dir.display()))?;
        // Warm-up: one faulted and one clean unit.
        for cell in cells.iter().filter(|c| c.engine.name() == "scalar").take(2) {
            run_cell_device(&self.spec, cell, 0)?;
        }
        Ok(())
    }

    fn device_hours(&self) -> f64 {
        self.device_hours
    }

    fn rep(&mut self, checks: &mut Checks) -> Result<Rep, String> {
        let log = self.log("timed");
        let _ = std::fs::remove_file(&log);
        self.report = None;
        let (out, rep) = measured(|| self.run_logged(&log));
        let report = out?;
        let first = *self.first_digest.get_or_insert(report.matrix_digest);
        let cells = report.cells.len() as u64;
        let bad = if report.matrix_digest == first {
            failing_cells(&report)
        } else {
            cells
        };
        checks.tally(
            cells,
            bad,
            "campaign cell with violations, a faulted engine-pair mismatch, or a digest that differs between repetitions",
        );
        self.registry = cell_registry(&report);
        RegistryScraper::new(self.store.clone()).scrape(&self.registry, self.reps * 1_000_000);
        self.reps += 1;
        self.report = Some(report);
        Ok(rep)
    }

    fn oracles(&mut self, checks: &mut Checks) -> Result<(), String> {
        let report = self.report.as_ref().ok_or("no campaign report")?;
        // Re-opening the finished log resumes every unit from it.
        let resumed = self.run_logged(&self.log("timed"))?;
        checks.check(
            report.cells.len() as u64,
            resumed.matrix_digest == report.matrix_digest,
            "resuming the finished checkpoint changes the matrix digest",
        );
        Ok(())
    }

    fn served(&self) -> Served {
        Served::registry_scrapes(self.registry.clone(), self.store.clone())
    }

    fn traced(&mut self, layers: &mut Layers, checks: &mut Checks) -> Result<Vec<Span>, String> {
        let untraced = self.rep(checks)?;
        let report = self.report.take().ok_or("no campaign report")?;
        let cells = self.spec.cells()?;
        let units: Vec<(usize, u64)> = cells
            .iter()
            .flat_map(|c| (0..self.spec.devices_per_cell as u64).map(move |d| (c.index, d)))
            .collect();
        let replay_log = self.log("replay");
        let mut file =
            std::fs::File::create(&replay_log).map_err(|e| format!("create log: {e}"))?;
        file.write_all(checkpoint::header(self.spec.config_digest()).as_bytes())
            .map_err(|e| format!("write log: {e}"))?;
        let file = Mutex::new(file);
        let epoch = Instant::now();
        let next = AtomicUsize::new(0);
        let shards: Vec<Result<Shard, String>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    let (next, units, cells, file) = (&next, &units, &cells, &file);
                    let spec = &self.spec;
                    s.spawn(move || -> Result<Shard, String> {
                        let mut t = Tracer::new(epoch);
                        let mut out = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(&(ci, d)) = units.get(i) else { break };
                            let cell = &cells[ci];
                            let name = match (cell.fault.as_str(), cell.engine.name()) {
                                ("none", "soa") => "campaign.clean_device.soa",
                                ("none", _) => "campaign.clean_device.scalar",
                                _ => "chaos.linked_device",
                            };
                            let rec = t.span("campaign.unit", i as u64, |t| {
                                let rec =
                                    t.span(name, i as u64, |_| run_cell_device(spec, cell, d))?;
                                t.span("campaign.checkpoint_append", i as u64, |_| {
                                    let line = checkpoint::record_line(&rec);
                                    let mut f = file.lock().expect("log lock");
                                    f.write_all(line.as_bytes()).and_then(|()| f.flush())
                                })
                                .map_err(|e| format!("append log: {e}"))?;
                                Ok::<_, String>(rec)
                            })?;
                            out.push(rec);
                        }
                        Ok((out, t.into_spans()))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("replay shard panicked".to_owned()))
                })
                .collect()
        });
        let wall_s = epoch.elapsed().as_secs_f64();
        let mut records = Vec::new();
        let mut span_lists = Vec::new();
        for shard in shards {
            let (r, sp) = shard?;
            records.extend(r);
            span_lists.push(sp);
        }
        records.sort_by_key(|r| (r.cell, r.device));
        for rec in &records {
            let expected = report.cells[rec.cell]
                .devices
                .get(rec.device as usize)
                .map(DeviceRecord::digest);
            checks.check(
                1,
                expected == Some(rec.digest()),
                "traced unit differs from the untraced campaign",
            );
        }
        let log_bytes = std::fs::metadata(&replay_log).map_or(0, |m| m.len());
        let t0 = Instant::now();
        let resumed = self.run_logged(&replay_log)?;
        let resume_ms = t0.elapsed().as_secs_f64() * 1e3;
        checks.check(
            report.cells.len() as u64,
            resumed.matrix_digest == report.matrix_digest,
            "resuming the replay's checkpoint changes the matrix digest",
        );

        let spans = spans::merge(span_lists);
        let tot = spans::totals(&spans);
        let mean_ms = |n: &str| tot.get(n).map_or(0.0, |t| t.mean_ns() / 1e6);
        layers.set("tracing.overhead_frac", wall_s / untraced.wall_s - 1.0);
        layers.set("chaos.linked_device_ms", mean_ms("chaos.linked_device"));
        layers.set(
            "chaos.faults_injected",
            records.iter().map(|r| r.faults_injected).sum::<u64>() as f64,
        );
        layers.set(
            "chaos.violations",
            records.iter().map(|r| r.violations).sum::<u64>() as f64,
        );
        layers.set(
            "campaign.clean_device_ms.scalar",
            mean_ms("campaign.clean_device.scalar"),
        );
        layers.set(
            "campaign.clean_device_ms.soa",
            mean_ms("campaign.clean_device.soa"),
        );
        layers.set(
            "campaign.checkpoint_append_us",
            tot.get("campaign.checkpoint_append")
                .map_or(0.0, |t| t.mean_ns() / 1e3),
        );
        layers.set(
            "campaign.checkpoint_bytes_per_device",
            log_bytes as f64 / records.len().max(1) as f64,
        );
        layers.set("campaign.resume_ms", resume_ms);
        Ok(spans)
    }
}
