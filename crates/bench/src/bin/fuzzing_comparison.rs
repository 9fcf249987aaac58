//! Regenerates the **§6.2 fuzzing comparison**: measured black-box fuzzing
//! throughput, the analytic probability of hitting a Trojan, the expected
//! discoveries per hour, and the false-positive flood — against Achilles
//! finding all 80 in one bounded run.
//!
//! ```text
//! cargo run --release -p achilles-bench --bin fuzzing_comparison
//! ```

use achilles::AchillesSession;
use achilles_bench::{arg_present, fmt_secs, header, row, validate_findings};
use achilles_fsp::{expected_length_mismatch_trojans, FspSpec};
use achilles_fuzz::{expectation, run_campaign, FuzzConfig};

fn main() {
    header("§6.2 — black-box fuzzing vs Achilles (FSP)");

    // In-process oracle classification: an upper bound on any fuzzer.
    let config = FuzzConfig {
        budget_tests: 5_000_000,
        ..FuzzConfig::default()
    };
    let report = run_campaign(&config);
    println!("{}", row("oracle-only tests executed", report.tests_run));
    println!("{}", row("oracle-only wall time", fmt_secs(report.elapsed)));
    println!(
        "{}",
        row(
            "oracle-only throughput (tests/min)",
            format!("{:.0}", report.tests_per_minute())
        )
    );

    // End-to-end against a deployed server (wire encode → parse → validate
    // → act → reply): the setup the paper's 75,000 tests/min measured.
    let e2e_config = FuzzConfig {
        budget_tests: 200_000,
        ..FuzzConfig::default()
    };
    let e2e = achilles_fuzz::run_e2e_campaign(&e2e_config);
    println!("{}", row("e2e tests executed", e2e.tests_run));
    println!("{}", row("e2e wall time", fmt_secs(e2e.elapsed)));
    println!(
        "{}",
        row(
            "e2e throughput (tests/min)",
            format!("{:.0}", e2e.tests_per_minute())
        )
    );
    println!("{}", row("messages accepted by server", e2e.accepted));
    println!(
        "{}",
        row("actual Trojans found by fuzzing", e2e.trojans_found)
    );

    let e = expectation(e2e.tests_per_minute(), false);
    println!("{}", row("Trojan messages in fuzzed space", e.trojan_count));
    println!(
        "{}",
        row("fuzzed space size", format!("{:.3e}", e.space_size))
    );
    println!(
        "{}",
        row(
            "P(random test is Trojan)",
            format!("{:.3e}", e.trojan_probability)
        )
    );
    println!(
        "{}",
        row(
            "expected Trojans per fuzzing hour",
            format!("{:.4}", e.expected_per_hour)
        )
    );
    println!(
        "{}",
        row(
            "accepted-but-valid msgs per hour (FPs)",
            format!("{:.1}", e.false_positives_per_hour)
        )
    );

    // Achilles on the same protocol and bounds.
    let spec = FspSpec::accuracy();
    let a = AchillesSession::new(&spec).run();
    let total = a.phase_times.total();
    println!("{}", row("Achilles: Trojans found", a.trojans.len()));
    println!("{}", row("Achilles: total analysis time", fmt_secs(total)));

    // Apples-to-apples (the paper compares fuzzing against Achilles' own
    // runtime — one hour there): expected Trojans from fuzzing in the time
    // Achilles needs to find all 80.
    let expected_in_achilles_window = e.expected_per_hour / 3600.0 * total.as_secs_f64();
    println!(
        "{}",
        row(
            "expected fuzz Trojans in Achilles' runtime",
            format!("{expected_in_achilles_window:.6}")
        )
    );

    header("paper vs measured");
    println!("  paper:    75,000 tests/min; expected Trojans in Achilles' 1h window ≈ 1e-5;");
    println!("            4.5M FPs/h; Achilles: all 80");
    println!(
        "  measured: {:.0} tests/min (e2e); expected in Achilles' {} window ≈ {:.6};",
        e2e.tests_per_minute(),
        fmt_secs(total),
        expected_in_achilles_window,
    );
    println!(
        "            {:.0} accepted-but-valid msgs/h to sift; Achilles: all {}",
        e.false_positives_per_hour,
        a.trojans.len()
    );
    println!("  shape:    in the time Achilles finds every Trojan class, fuzzing expects ~zero");
    let _ = report;
    assert_eq!(a.trojans.len(), expected_length_mismatch_trojans(8));
    assert_eq!(
        e2e.trojans_found, 0,
        "a bounded fuzzing campaign finds nothing"
    );
    assert!(
        expected_in_achilles_window < 0.01,
        "fuzzing expects ~zero in the window"
    );

    // Replay-validate Achilles' findings: fuzzing found zero real Trojans,
    // while every symbolic finding reproduces as a concrete failure.
    if arg_present("--validate") {
        let summary = validate_findings(&spec, &a.trojans, 1);
        assert_eq!(
            summary.confirmed,
            a.trojans.len(),
            "every discovered Trojan replays to a concrete failure"
        );
    }
}
