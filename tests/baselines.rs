//! Integration: the two baselines (classic symbolic execution, black-box
//! fuzzing) and the a-posteriori differencing agree with Achilles on *what*
//! is Trojan while demonstrating the paper's efficiency gaps.

use achilles::{
    a_posteriori_diff, classic_symex, prepare_client, AchillesSession, FieldMask, Optimizations,
};
use achilles_fsp::{
    expected_length_mismatch_trojans, extract_client_predicate, is_trojan, FspMessage, FspServer,
    FspServerConfig, FspSpec,
};
use achilles_fuzz::{expectation, run_campaign, run_e2e_campaign, FuzzConfig};
use achilles_solver::{Solver, TermPool};
use achilles_symvm::{ExploreConfig, SymMessage};

#[test]
fn classic_symex_finds_everything_but_cannot_tell() {
    let mut pool = TermPool::new();
    let mut solver = Solver::new();
    let server_msg = SymMessage::fresh(&mut pool, &achilles_fsp::layout(), "msg");
    let mut sc = FspServerConfig::default();
    sc.commands.truncate(1);
    let result = classic_symex(
        &mut pool,
        &mut solver,
        &FspServer::new(sc.clone()),
        &server_msg,
        &ExploreConfig::default(),
        &FieldMask::none(),
        25,
    );
    assert_eq!(result.accepting_paths, 14, "Σ_L (L+1) accepting paths");
    // Candidates mix Trojan and valid messages on the same paths.
    let mut trojan_classes = std::collections::HashSet::new();
    let mut false_positives = 0usize;
    for cand in &result.candidates {
        let msg = FspMessage::from_field_values(&cand.fields);
        if is_trojan(&msg, &sc, false) {
            let reported = msg.bb_len as usize;
            let actual = msg.buf[..reported]
                .iter()
                .position(|&b| b == 0)
                .unwrap_or(reported);
            trojan_classes.insert((reported, actual));
        } else {
            false_positives += 1;
        }
    }
    assert_eq!(trojan_classes.len(), expected_length_mismatch_trojans(1));
    assert!(false_positives > 0, "the sifting problem of Table 1");
}

#[test]
fn a_posteriori_equals_incremental() {
    let spec = FspSpec::accuracy().with_commands(2);
    let incremental = AchillesSession::new(&spec).run();

    let mut pool = TermPool::new();
    let mut solver = Solver::new();
    let client = extract_client_predicate(
        &mut pool,
        &mut solver,
        &spec.commands,
        &spec.client,
        &ExploreConfig::default(),
    );
    let server_msg = SymMessage::fresh(&mut pool, &achilles_fsp::layout(), "msg");
    let prepared = prepare_client(
        &mut pool,
        &mut solver,
        client,
        server_msg,
        FieldMask::none(),
        Optimizations::none(),
    );
    let ap = a_posteriori_diff(
        &mut pool,
        &mut solver,
        &FspServer::new(spec.server.clone()),
        &prepared,
        &ExploreConfig::default(),
    );
    assert_eq!(ap.trojans.len(), incremental.trojans.len());
    // Same Trojan classes.
    let classes = |trojans: &[achilles::TrojanReport]| {
        let mut v: Vec<(u8, u16, usize)> = trojans
            .iter()
            .map(|t| {
                let m = FspMessage::from_field_values(&t.witness_fields);
                let reported = m.bb_len as usize;
                let actual = m.buf[..reported]
                    .iter()
                    .position(|&b| b == 0)
                    .unwrap_or(reported);
                (m.cmd, m.bb_len, actual)
            })
            .collect();
        v.sort_unstable();
        v
    };
    assert_eq!(classes(&ap.trojans), classes(&incremental.trojans));
}

#[test]
fn fuzzing_finds_nothing_in_bounded_budgets() {
    // The campaign is deterministic per seed; this one is known to draw no
    // Trojan in 300k tests (the expectation is ~0.09, so some seeds do).
    let report = run_campaign(&FuzzConfig {
        budget_tests: 300_000,
        seed: 0xF022_ED12,
        ..FuzzConfig::default()
    });
    assert_eq!(report.trojans_found, 0);
    let e2e = run_e2e_campaign(&FuzzConfig {
        budget_tests: 5_000,
        ..FuzzConfig::default()
    });
    assert_eq!(e2e.trojans_found, 0);
    assert_eq!(e2e.tests_run, 5_000);
}

#[test]
fn fuzzing_expectation_is_negligible_in_achilles_window() {
    let achilles_run = AchillesSession::new(&FspSpec::accuracy().with_commands(2)).run();
    let window = achilles_run.phase_times.total();
    // Even at an (optimistic) million tests per minute, the expected number
    // of Trojans fuzzing finds in Achilles' runtime window is ~zero.
    let e = expectation(1_000_000.0, false);
    let expected_in_window = e.expected_per_hour / 3600.0 * window.as_secs_f64();
    assert!(expected_in_window < 0.01, "expected {expected_in_window}");
    assert_eq!(
        achilles_run.trojans.len(),
        expected_length_mismatch_trojans(2)
    );
}
