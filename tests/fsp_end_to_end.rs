//! Integration: FSP analysis results are injectable — symbolic findings
//! hold on the concretely deployed server, and the counting matches the
//! paper's arithmetic.

use achilles::{AchillesReport, AchillesSession, TrojanReport};
use achilles_fsp::{
    classify, expected_length_mismatch_trojans, expected_wildcard_trojans, is_trojan,
    server_accepts, FspMessage, FspServerConfig, FspServerRuntime, FspSpec, TrojanFamily, MAX_PATH,
};
use achilles_netsim::{Addr, SimFs};

fn run(spec: &FspSpec) -> AchillesReport {
    AchillesSession::new(spec).run()
}

/// `(length-mismatch, wildcard, other)` report counts.
fn family_counts(trojans: &[TrojanReport]) -> (usize, usize, usize) {
    let mut counts = (0, 0, 0);
    for t in trojans {
        match classify(t) {
            TrojanFamily::LengthMismatch { .. } => counts.0 += 1,
            TrojanFamily::Wildcard { .. } => counts.1 += 1,
            TrojanFamily::Other => counts.2 += 1,
        }
    }
    counts
}

#[test]
fn scaled_accuracy_counts_match_the_arithmetic() {
    for n_commands in [1, 2, 3] {
        let result = run(&FspSpec::accuracy().with_commands(n_commands));
        assert_eq!(
            result.trojans.len(),
            expected_length_mismatch_trojans(n_commands),
            "{n_commands} commands"
        );
        assert!(result.trojans.iter().all(|t| t.verified));
        assert_eq!(family_counts(&result.trojans).2, 0);
    }
}

#[test]
fn wildcard_mode_finds_both_families() {
    let result = run(&FspSpec::wildcard().with_commands(2));
    let (length_mismatches, wildcards, _) = family_counts(&result.trojans);
    assert_eq!(length_mismatches, expected_length_mismatch_trojans(2));
    assert_eq!(wildcards, expected_wildcard_trojans(2));
    assert!(result.trojans.iter().all(|t| t.verified));
}

#[test]
fn every_witness_is_injectable() {
    // Each reported witness, turned into wire bytes, must be accepted by a
    // concretely deployed server and classified Trojan by the oracle.
    let spec = FspSpec::accuracy().with_commands(2);
    let result = run(&spec);
    let mut server = FspServerRuntime::new(
        Addr::new("fspd"),
        SimFs::new(),
        FspServerConfig {
            commands: spec.commands.clone(),
            ..FspServerConfig::default()
        },
    );
    for t in &result.trojans {
        let msg = FspMessage::from_field_values(&t.witness_fields);
        assert!(
            is_trojan(&msg, &spec.server, spec.client.glob_expansion),
            "oracle agrees the witness is Trojan: {msg:?}"
        );
        let before = server.accepted;
        let _ = server.handle(&msg.to_wire());
        assert_eq!(
            server.accepted,
            before + 1,
            "deployed server accepted the witness"
        );
    }
}

#[test]
fn witnesses_carry_smuggled_payload_capability() {
    // §6.3 mismatched lengths: for every reported length-mismatch Trojan,
    // the bytes after the NUL are attacker-controlled payload. Check there
    // exists a witness with a non-zero smuggled byte.
    let result = run(&FspSpec::accuracy().with_commands(2));
    let mut found_capacity = false;
    for t in &result.trojans {
        if let TrojanFamily::LengthMismatch {
            reported, actual, ..
        } = classify(t)
        {
            assert!(actual < reported);
            if reported - actual > 1 {
                found_capacity = true;
            }
        }
    }
    assert!(found_capacity, "some Trojans have room for extra payload");
}

#[test]
fn fully_patched_server_rejects_all_witnesses() {
    let result = run(&FspSpec::wildcard().with_commands(1));
    let patched = FspServerConfig {
        check_actual_length: true,
        reject_wildcards: true,
        ..FspServerConfig::default()
    };
    for t in &result.trojans {
        let msg = FspMessage::from_field_values(&t.witness_fields);
        assert!(
            !server_accepts(&msg, &patched),
            "patched server must reject the witness {msg:?}"
        );
    }
}

#[test]
fn trojan_reports_cover_every_length_combination() {
    // The 1-command accuracy run must produce one report per
    // (reported, actual) pair with actual < reported — all Σ L = 10 classes.
    let result = run(&FspSpec::accuracy().with_commands(1));
    let mut classes: Vec<(usize, usize)> = result
        .trojans
        .iter()
        .filter_map(|t| match classify(t) {
            TrojanFamily::LengthMismatch {
                reported, actual, ..
            } => Some((reported, actual)),
            _ => None,
        })
        .collect();
    classes.sort_unstable();
    classes.dedup();
    let mut expected = Vec::new();
    for reported in 1..=MAX_PATH {
        for actual in 0..reported {
            expected.push((reported, actual));
        }
    }
    assert_eq!(classes, expected);
}

#[test]
fn refinement_confirms_fsp_witnesses() {
    // §4.1 future work, implemented: take Achilles' FSP witnesses back to
    // the client *programs* under fresh exploration bounds — every witness
    // must be confirmed (no utility can emit it).
    use achilles::{refine_witness, FieldMask};
    use achilles_fsp::{FspClient, FspClientConfig};
    use achilles_solver::{Solver, TermPool};
    use achilles_symvm::ExploreConfig;

    let spec = FspSpec::accuracy().with_commands(2);
    let result = run(&spec);
    let mut pool = TermPool::new();
    let mut solver = Solver::new();
    for t in result.trojans.iter().take(8) {
        for &cmd in &spec.commands {
            let client = FspClient::new(cmd, FspClientConfig::default());
            let r = refine_witness(
                &mut pool,
                &mut solver,
                &client,
                &t.witness_fields,
                &FieldMask::none(),
                &ExploreConfig::default(),
            );
            assert!(
                r.is_confirmed(),
                "utility {:?} must not generate the witness: {r:?}",
                cmd
            );
        }
    }
}

#[test]
fn refinement_refutes_valid_messages() {
    use achilles::{refine_witness, FieldMask, Refinement};
    use achilles_fsp::{Command, FspClient, FspClientConfig};
    use achilles_solver::{Solver, TermPool};
    use achilles_symvm::ExploreConfig;

    // A perfectly ordinary frm command is refuted immediately.
    let msg = FspMessage::request(Command::DelFile, b"ab");
    let mut pool = TermPool::new();
    let mut solver = Solver::new();
    let client = FspClient::new(Command::DelFile, FspClientConfig::default());
    let r = refine_witness(
        &mut pool,
        &mut solver,
        &client,
        &msg.field_values(),
        &FieldMask::none(),
        &ExploreConfig::default(),
    );
    assert!(matches!(r, Refinement::Refuted { .. }), "{r:?}");
}

#[test]
fn a_single_bit_flip_arms_the_wildcard_trojan() {
    // The paper's §6.3 remark made concrete: "a single bit flip can convert
    // the ASCII 'j' character into '*'". A correct client sends `frm filj`;
    // one flipped bit in flight turns it into `frm fil*` — a message no
    // correct (globbing) client would ever emit, which the server happily
    // acts on.
    use achilles_fsp::{client_can_generate, Command};
    use achilles_netsim::flip_bit;

    let honest = FspMessage::request(Command::DelFile, b"filj");
    assert!(server_accepts(&honest, &FspServerConfig::default()));
    assert!(client_can_generate(&honest, true));
    assert!(!is_trojan(&honest, &FspServerConfig::default(), true));

    // Find the bit position of 'j''s 0x40 bit within the wire image.
    let wire = honest.to_wire();
    let byte_idx = wire.iter().rposition(|&b| b == b'j').unwrap();
    let corrupted_wire = flip_bit(&wire, byte_idx * 8 + 6);
    let corrupted = FspMessage::from_wire(&corrupted_wire).unwrap();
    assert_eq!(corrupted.path_as_server_sees_it(), b"fil*");
    assert!(server_accepts(&corrupted, &FspServerConfig::default()));
    assert!(!client_can_generate(&corrupted, true));
    assert!(is_trojan(&corrupted, &FspServerConfig::default(), true));
}
