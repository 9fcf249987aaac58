//! Regenerates **Figure 10** (§6.2): percentage of the known Trojan
//! messages discovered as a function of server-analysis time, plus the
//! §6.2 phase-time breakdown (client 3 min / preprocess 15 min / server
//! 45 min on the paper's testbed — shapes, not absolutes, are the target).
//!
//! ```text
//! cargo run --release -p achilles-bench --bin fig10_discovery \
//!     [-- --target NAME] [-- --workers N] [-- --validate]
//! ```
//!
//! The bin is registry-driven: `--target` selects any registered
//! [`TargetSpec`](achilles::TargetSpec) (default `fsp`, the paper's
//! figure) and the whole pipeline — discovery curve, expected-count check,
//! optional concrete replay — runs without naming a protocol.
//!
//! With `--check-proofs` (or `ACHILLES_CHECK_PROOFS=1`), every unsat
//! verdict the discovery produces is validated by the independent
//! certificate checker; the first rejection aborts the run.

use achilles::AchillesSession;
use achilles_bench::{
    arg_present, arg_value_required, bar, fmt_secs, header, row, trace_path_from_args,
    validate_findings, workers_from_args, write_trace,
};
use achilles_targets::builtin_registry;

fn main() {
    let trace = trace_path_from_args();
    let workers = workers_from_args();
    let registry = builtin_registry();
    let name = arg_value_required("--target").unwrap_or_else(|| "fsp".to_string());
    let Some(spec) = registry.get(&name) else {
        eprintln!(
            "unknown --target {name:?}; registered targets: {}",
            registry.names().join(", ")
        );
        std::process::exit(2);
    };
    let check_proofs = if arg_present("--check-proofs") {
        achilles_proofcheck::install_audit();
        true
    } else {
        achilles_proofcheck::install_audit_from_env()
    };
    header(&format!(
        "Figure 10 — Trojan discovery over server-analysis time ({name}, {workers} worker(s))"
    ));
    let (audit_before, _) = achilles_solver::proof_audit_stats();
    let mut session = AchillesSession::new(&**spec).workers(workers);
    let report = session.run();
    let cache_stats = session.engine().shared_cache().stats();
    let (audit_after, audit_wall) = achilles_solver::proof_audit_stats();

    println!(
        "{}",
        row(
            "phase: client predicate",
            fmt_secs(report.phase_times.client)
        )
    );
    println!(
        "{}",
        row(
            "phase: preprocessing",
            fmt_secs(report.phase_times.preprocess)
        )
    );
    println!(
        "{}",
        row(
            "phase: server analysis",
            fmt_secs(report.phase_times.server)
        )
    );
    println!("{}", row("Trojans discovered", report.trojans.len()));
    println!(
        "{}",
        row(
            "certified unsat",
            format!(
                "{} ({} subsumption hits)",
                cache_stats.certified_unsat, cache_stats.core_subsumption_hits
            )
        )
    );
    if check_proofs {
        let audited = audit_after - audit_before;
        println!(
            "{}",
            row(
                "proof audit",
                format!(
                    "{} certificates checked ({})",
                    audited,
                    fmt_secs(audit_wall)
                )
            )
        );
        assert!(
            audited >= cache_stats.certified_unsat,
            "the audit must cover every certificate the discovery published"
        );
    }

    let expected = spec.expected_trojans().unwrap_or(report.trojans.len()) as f64;

    // Discovery curve: found_at timestamps are relative to the server
    // analysis start.
    println!("\n  time_ms,percent_found");
    let mut rows = Vec::new();
    for (i, t) in report.trojans.iter().enumerate() {
        let pct = (i + 1) as f64 / expected * 100.0;
        rows.push((t.found_at.as_secs_f64() * 1000.0, pct));
    }
    // Downsample to at most 20 printed points to keep the figure readable.
    let step = (rows.len() / 20).max(1);
    for (i, (ms, pct)) in rows.iter().enumerate() {
        if i % step == 0 || i + 1 == rows.len() {
            println!("  {ms:.1},{pct:.1}  |{}", bar(*pct, 100.0, 40));
        }
    }

    let first = rows.first().map(|r| r.0).unwrap_or(0.0);
    let last = rows.last().map(|r| r.0).unwrap_or(0.0);
    let total_ms = report.phase_times.server.as_secs_f64() * 1000.0;
    header("paper vs measured");
    println!("  paper:    first Trojan at ~44% of server analysis, all by ~96% (20/43/45 min)");
    println!(
        "  measured: first at {:.0}% of server analysis, all by {:.0}% ({:.0}/{:.0}/{:.0} ms)",
        first / total_ms.max(1e-9) * 100.0,
        last / total_ms.max(1e-9) * 100.0,
        first,
        last,
        total_ms
    );
    println!("  shape:    discovery is incremental — interrupting early still yields results");
    if let Some(expected) = spec.expected_trojans() {
        assert_eq!(
            report.trojans.len(),
            expected,
            "all known {name} Trojans discovered"
        );
    }

    if arg_present("--validate") {
        let summary = validate_findings(&**spec, &report.trojans, workers);
        assert_eq!(
            summary.confirmed,
            report.trojans.len(),
            "every discovered Trojan replays to a concrete failure"
        );
    }

    if let Some(path) = &trace {
        write_trace(path);
    }
}
