//! Regenerates **Table 1** (§6.2): Achilles vs classic symbolic execution
//! on FSP, plus the surrounding accuracy numbers (80 known Trojans, zero
//! false positives).
//!
//! ```text
//! cargo run --release -p achilles-bench --bin table1_accuracy
//! ```

use achilles::{classic_symex, AchillesSession, FieldMask};
use achilles_bench::{fmt_secs, header, row};
use achilles_fsp::{
    expected_length_mismatch_trojans, is_trojan, FspMessage, FspServer, FspServerConfig, FspSpec,
};
use achilles_solver::{Solver, TermPool};
use achilles_symvm::{ExploreConfig, SymMessage};

fn main() {
    header("Table 1 — Achilles vs classic symbolic execution (FSP, path length < 5)");

    // --- Achilles, the paper's accuracy configuration -------------------
    let spec = FspSpec::accuracy();
    let result = AchillesSession::new(&spec).run();
    let expected = expected_length_mismatch_trojans(spec.commands.len());
    let achilles_tp = result.trojans.iter().filter(|t| t.verified).count();
    let achilles_fp = result.trojans.len() - achilles_tp;

    println!("{}", row("known Trojan message classes", expected));
    println!("{}", row("client path predicates", result.client.len()));
    println!("{}", row("server paths completed", result.server_paths));
    println!(
        "{}",
        row(
            "server paths pruned by Trojan-set check",
            result.server_explore.pruned
        )
    );
    let times = &result.phase_times;
    println!("{}", row("phase: client predicate", fmt_secs(times.client)));
    println!(
        "{}",
        row("phase: preprocessing", fmt_secs(times.preprocess))
    );
    println!("{}", row("phase: server analysis", fmt_secs(times.server)));

    // --- Classic symbolic execution -------------------------------------
    // Vanilla exploration of the same server; one concrete test message per
    // accepting path per enumeration step. Every candidate that is not a
    // true Trojan is sifting noise for the developer (Table 1's FPs).
    let mut pool = TermPool::new();
    let mut solver = Solver::new();
    let server_msg = SymMessage::fresh(&mut pool, &achilles_fsp::layout(), "msg");
    let models_per_path = 100;
    let classic = classic_symex(
        &mut pool,
        &mut solver,
        &FspServer::new(FspServerConfig::default()),
        &server_msg,
        &ExploreConfig::default(),
        &FieldMask::none(),
        models_per_path,
    );
    let mut classic_tp_classes = std::collections::HashSet::new();
    let mut classic_fp = 0u64;
    for cand in &classic.candidates {
        let msg = FspMessage::from_field_values(&cand.fields);
        if is_trojan(&msg, &FspServerConfig::default(), false) {
            // Count Trojan *classes* (cmd, reported, actual) like the paper.
            let reported = (msg.bb_len as usize).min(achilles_fsp::MAX_PATH);
            let actual = msg.buf[..reported]
                .iter()
                .position(|&b| b == 0)
                .unwrap_or(reported);
            classic_tp_classes.insert((msg.cmd, reported, actual));
        } else {
            classic_fp += 1;
        }
    }

    println!(
        "\n  {:<30} {:>12} {:>24}",
        "", "Achilles", "Classic symbolic exec."
    );
    println!(
        "  {:<30} {:>12} {:>24}",
        "True positives",
        achilles_tp,
        classic_tp_classes.len()
    );
    println!(
        "  {:<30} {:>12} {:>24}",
        "False positives", achilles_fp, classic_fp
    );
    println!(
        "\n  (classic symex enumerated {} candidate messages over {} accepting paths\n   in {}; the tester must sift Trojans out by hand)",
        classic.candidates.len(),
        classic.accepting_paths,
        fmt_secs(classic.time),
    );

    // --- Paper-vs-measured summary --------------------------------------
    header("paper vs measured");
    println!("  paper:    Achilles TP=80 FP=0 | classic TP=80 FP=7,520");
    println!(
        "  measured: Achilles TP={achilles_tp} FP={achilles_fp} | classic TP={} FP={classic_fp}",
        classic_tp_classes.len(),
    );
    assert_eq!(
        achilles_tp, expected,
        "Achilles must find every known Trojan class"
    );
    assert_eq!(achilles_fp, 0, "and report no false positives");
}
