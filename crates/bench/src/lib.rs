//! Shared helpers for the Achilles benchmark harness.
//!
//! The `[[bin]]` targets of this crate regenerate every table and figure of
//! the paper's evaluation (§6); the Criterion benches under `benches/`
//! measure the machinery on scaled workloads. This module holds the small
//! formatting utilities they share.

use std::time::Duration;

/// Formats a duration as seconds with millisecond precision.
pub fn fmt_secs(d: Duration) -> String {
    format!("{:.3}s", d.as_secs_f64())
}

/// Value of a `--flag value` pair in the process arguments.
pub fn arg_value(flag: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            return args.next();
        }
    }
    None
}

/// Whether a bare `--flag` is present in the process arguments.
pub fn arg_present(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}

/// Like [`arg_value`], but a flag present without a value (missing or
/// another `--flag` in its place) is a hard usage error — no silent
/// fallback to the default.
pub fn arg_value_required(flag: &str) -> Option<String> {
    let value = arg_value(flag);
    if arg_present(flag) && value.as_deref().is_none_or(|v| v.starts_with("--")) {
        eprintln!("{flag} requires a value");
        std::process::exit(2);
    }
    value
}

/// Arms span tracing when `--trace FILE` is present and returns the
/// output path; the bin writes the file with [`write_trace`] once its
/// workload is done. Tracing is observation-only (see `achilles-obs`):
/// arming it changes no bench result.
pub fn trace_path_from_args() -> Option<std::path::PathBuf> {
    let path = arg_value_required("--trace")?;
    achilles_obs::set_tracing(true);
    Some(std::path::PathBuf::from(path))
}

/// Drains this thread's span buffer and writes the accumulated
/// Chrome-trace JSON to `path` (the `--trace` argument). Load the file in
/// `chrome://tracing` or Perfetto.
pub fn write_trace(path: &std::path::Path) {
    achilles_obs::drain_thread();
    achilles_obs::write_chrome_trace(path).expect("write trace file");
    println!("\n  wrote {}", path.display());
}

/// Host logical core count (1 when undetectable) — recorded in every
/// bench JSON so multicore measurements are interpretable: a sweep run on
/// a 1-core container cannot show real speedups, and the JSON now says so.
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Worker-thread count from `--workers N` (default 1 = sequential).
pub fn workers_from_args() -> usize {
    arg_value("--workers")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
        .max(1)
}

/// Renders a simple aligned two-column table row.
pub fn row(label: &str, value: impl std::fmt::Display) -> String {
    format!("  {label:<42} {value}")
}

/// Prints a section header.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// Replays discovered Trojans against the concrete deployment of any
/// [`TargetSpec`](achilles::TargetSpec) and prints the validation summary
/// — the shared `--validate` tail of the fig10/fig11/fuzzing bins. The
/// spec's `replay_target` factory supplies the deployment, so this helper
/// (and every bin built on it) names no protocol.
///
/// Returns the summary so callers can assert on it.
pub fn validate_findings(
    spec: &dyn achilles::TargetSpec,
    trojans: &[achilles::TrojanReport],
    workers: usize,
) -> achilles_replay::SessionValidationSummary {
    use achilles_replay::{validate_session_trojans, ReplayCorpus, SessionValidateConfig};
    let mut corpus = ReplayCorpus::new();
    let summary = validate_session_trojans(
        &*spec.replay_target(),
        trojans,
        &mut corpus,
        &SessionValidateConfig::default().with_workers(workers),
    );
    header(&format!("concrete replay validation ({})", spec.name()));
    println!("{}", row("witnesses replayed", summary.replayed));
    println!(
        "{}",
        row(
            "confirmed Trojans",
            format!(
                "{} ({:.0}%)",
                summary.confirmed,
                summary.confirmation_rate() * 100.0
            )
        )
    );
    println!(
        "{}",
        row("distinct crash signatures", corpus.distinct_signatures())
    );
    println!(
        "{}",
        row(
            "replay throughput",
            format!("{:.0} witnesses/s", summary.witnesses_per_sec())
        )
    );
    summary
}

/// A tiny fixed-width histogram for terminal "figures": draws `value`
/// against `max` as a bar of at most `width` characters.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    if max <= 0.0 {
        return String::new();
    }
    let n = ((value / max) * width as f64).round() as usize;
    "#".repeat(n.min(width))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_scales() {
        assert_eq!(bar(5.0, 10.0, 10), "#####");
        assert_eq!(bar(10.0, 10.0, 10), "##########");
        assert_eq!(bar(20.0, 10.0, 10), "##########", "clamped");
        assert_eq!(bar(1.0, 0.0, 10), "");
    }

    #[test]
    fn fmt_secs_millis() {
        assert_eq!(fmt_secs(Duration::from_millis(1500)), "1.500s");
    }
}
