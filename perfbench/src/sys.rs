//! Process resource readings from `/proc` and the run manifest.

use std::path::Path;
use std::process::Command;

/// Clock ticks per second of `/proc/self/stat` CPU times (`CLK_TCK`,
/// 100 on every Linux target the benchmark runs on).
const CLK_TCK: f64 = 100.0;

/// CPU seconds (user + system) this process has used, live and exited
/// threads included.
pub fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, 12 and 13 after the name.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / CLK_TCK
}

/// Resets the resident-set high-water mark to the current resident set,
/// so the next [`peak_rss_mb`] covers only what runs after this call.
pub fn reset_peak_rss() {
    // Not fatal: without the reset the peak still bounds the workload.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Resident-set high-water mark, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    // Git must not look for a repository above the working directory: a
    // checkout without `.git` reports `none` rather than a parent's hash.
    let ceiling = std::env::current_dir().ok()?.parent()?.to_owned();
    let out = Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
}

/// FNV-1a over the sorted paths and contents of every `.rs` and `.toml`
/// file under `dirs`: an identity of the measured source that holds in a
/// checkout without git metadata.
pub fn source_digest(dirs: &[&Path]) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if matches!(p.extension().and_then(|x| x.to_str()), Some("rs" | "toml")) {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for d in dirs {
        walk(d, &mut files);
    }
    files.sort();
    let mut all = Vec::new();
    for f in files {
        all.extend_from_slice(f.to_string_lossy().as_bytes());
        all.extend(std::fs::read(&f).unwrap_or_default());
    }
    sdb_emulator::fnv1a_64(&all)
}

/// The run manifest: what was measured, where, and how. Printed before
/// the result line and stored with every record.
pub fn manifest_json(
    workload: &str,
    seed: u64,
    engine: &str,
    threads: usize,
    trace: bool,
) -> String {
    let git = command_line("git", &["rev-parse", "--short=12", "HEAD"])
        .unwrap_or_else(|| "none".to_owned());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_owned());
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let src = source_digest(&[Path::new("crates"), Path::new("perfbench/src")]);
    format!(
        "{{\"git_hash\":\"{git}\",\"source_digest\":\"{src:016x}\",\"rustc\":\"{}\",\"nproc\":{nproc},\
         \"seed\":{seed},\"workload\":\"{workload}\",\"engine\":\"{engine}\",\"threads\":{threads},\
         \"trace\":{trace}}}",
        rustc.replace('"', "'")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_positive() {
        let burn: u64 = (0..5_000_000u64).fold(0, |a, x| a.wrapping_add(x * x));
        std::hint::black_box(burn);
        assert!(cpu_s() >= 0.0);
        reset_peak_rss();
        assert!(peak_rss_mb() > 0.0);
    }
}
