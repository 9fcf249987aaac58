//! A tour of the replay subsystem: discover → concretize → inject →
//! triage → minimize → persist.
//!
//! The paper validated every symbolically discovered Trojan by injecting
//! it into a real deployment (§6.3); this example does the same against
//! the concrete FSP server in wildcard mode, then shows what the replay
//! engine adds on top of raw injection: crash-signature triage, ddmin
//! witness minimization, fault-schedule variations, and the persistent
//! corpus that makes re-analysis incremental. Each single-message witness
//! replays as a one-slot session.
//!
//! ```text
//! cargo run --release -p achilles-examples --example replay_triage
//! ```

use achilles::AchillesSession;
use achilles_fsp::{classify, FspMessage, FspSpec, FspTarget, TrojanFamily};
use achilles_replay::{
    minimize_session, replay_session, validate_session_trojans, DeliveryFault, FaultSchedule,
    ReplayCorpus, SessionValidateConfig,
};

fn main() {
    // 1. Discover: one utility in wildcard mode — both Trojan families.
    let spec = FspSpec::wildcard().with_commands(1);
    let result = AchillesSession::new(&spec).run();
    let count = |family: fn(&TrojanFamily) -> bool| {
        result
            .trojans
            .iter()
            .filter(|t| family(&classify(t)))
            .count()
    };
    println!(
        "discovered {} Trojans ({} length-mismatch, {} wildcard)",
        result.trojans.len(),
        count(|f| matches!(f, TrojanFamily::LengthMismatch { .. })),
        count(|f| matches!(f, TrojanFamily::Wildcard { .. }))
    );

    // 2. Validate: replay every witness against the concrete deployment,
    //    minimizing the first witness of each crash signature.
    let target = FspTarget::new(spec.server.clone(), spec.client.glob_expansion);
    let mut corpus = ReplayCorpus::new();
    let validate_config = SessionValidateConfig {
        minimize: true,
        ..SessionValidateConfig::default()
    };
    let summary = validate_session_trojans(&target, &result.trojans, &mut corpus, &validate_config);
    println!(
        "replayed {} witnesses: {} confirmed ({:.0}%), {} distinct crash signatures",
        summary.replayed,
        summary.confirmed,
        summary.confirmation_rate() * 100.0,
        corpus.distinct_signatures()
    );
    assert_eq!(summary.confirmed, summary.replayed, "all witnesses confirm");

    // 3. Triage: signatures group witnesses into bug classes.
    println!("\ncrash signatures (first three):");
    for sig in summary.confirmed_signatures.iter().take(3) {
        println!("  {sig}");
    }

    // 4. Minimize: a multi-field witness shrinks to its essential fields.
    let shrunk = summary
        .minimized
        .iter()
        .find(|m| m.strictly_shrunk())
        .expect("some witness carries incidental solver junk");
    let msg = FspMessage::from_field_values(&shrunk.witness.fields[0]);
    println!(
        "\nminimized witness: {} of {} differing fields essential ({} replays)",
        shrunk.essential.len(),
        shrunk.original_delta.len(),
        shrunk.replays
    );
    println!(
        "  reduced message: cmd={:#x} bb_len={} buf={:?}",
        msg.cmd, msg.bb_len, msg.buf
    );

    // 5. Fault schedules: the same witness under network faults on its
    //    only slot. A single bit-flip (the paper's S3 motivator) can arm
    //    or disarm a Trojan.
    let witness = &summary.results[0].witness;
    for (label, fault) in [
        ("fault-free", DeliveryFault::none()),
        (
            "duplicated",
            DeliveryFault {
                duplicate: true,
                ..DeliveryFault::none()
            },
        ),
        (
            "dropped",
            DeliveryFault {
                drop: true,
                ..DeliveryFault::none()
            },
        ),
    ] {
        let r = replay_session(&target, witness, &FaultSchedule::at(0, fault));
        println!("  witness 0 under {label}: {:?}", r.verdict);
    }

    // 6. Persist: the corpus round-trips through its text form, and a
    //    second validation pass skips every known witness.
    let reloaded = ReplayCorpus::from_text(&corpus.to_text()).expect("a saved corpus parses back");
    assert_eq!(reloaded.len(), corpus.len());
    let second = validate_session_trojans(&target, &result.trojans, &mut corpus, &validate_config);
    println!(
        "\nre-analysis: {} witnesses skipped (known bytes), {} replayed",
        second.skipped_known, second.replayed
    );
    assert_eq!(second.replayed, 0, "nothing new to validate");

    // Bonus: minimization is itself deterministic — re-minimizing the same
    // witness replays the same signature.
    let again = minimize_session(
        &target,
        &summary.minimized[0].witness,
        &FaultSchedule::none(),
        &summary.minimized[0].signature,
    );
    assert_eq!(again.essential, summary.minimized[0].essential);
    println!("\nEvery symbolic Trojan reproduced as a concrete failure; triage is incremental.");
}
