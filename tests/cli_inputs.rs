//! CLI input validation: bad values exit non-zero with a message instead
//! of running a meaningless simulation.

use std::process::Command;

#[test]
fn fleet_rejects_a_non_finite_or_non_positive_horizon() {
    for hours in ["nan", "-5", "0", "inf"] {
        let out = Command::new(env!("CARGO_BIN_EXE_sdb"))
            .args([
                "fleet",
                "--devices",
                "2",
                "--threads",
                "1",
                "--hours",
                hours,
            ])
            .output()
            .expect("sdb runs");
        assert!(!out.status.success(), "--hours {hours} was accepted");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("truncation bound"),
            "--hours {hours}: unexpected stderr {stderr}"
        );
        assert!(out.stdout.is_empty(), "--hours {hours} printed a report");
    }
}
