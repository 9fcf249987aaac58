//! The `TargetSpec` conformance suite: every protocol in the built-in
//! registry must clear the same bar, with no protocol-specific code in
//! this file.
//!
//! For each registered spec, the contract is:
//!
//! 1. **Discovery** — an [`AchillesSession`] under the spec's default
//!    configuration discovers at least one Trojan (and exactly
//!    [`TargetSpec::expected_trojans`] when the spec declares the count),
//!    with every witness verified against the client predicate.
//! 2. **Concrete confirmation** — 100% of the discovered Trojans replay to
//!    [`ReplayVerdict::ConfirmedTrojan`] against the spec's
//!    [`replay_target`](achilles::TargetSpec::replay_target) deployment.
//! 3. **Corpus round-trip** — the confirmed witnesses survive
//!    serialization: reloading the corpus text reproduces the entries and
//!    makes re-validation fully incremental (everything skipped).
//! 4. **Codec coherence** — every witness encodes to wire bytes and
//!    decodes back to the same field values through the spec's codec
//!    hooks, and spec/target metadata agree.
//!
//! Specs that declare [`TargetSpec::sessions`] additionally clear the
//! session contract: ≥ 1 session Trojan discovered through
//! [`AchillesSession::run_sessions`] (exact when the session declares a
//! count), slot attribution present, 100% concrete confirmation under
//! [`FaultSchedule::none`], a session corpus round-trip with fully
//! incremental re-validation — and a **fault-schedule sensitivity
//! contract**: sweeping the witness's schedule space must find at least
//! one arming and one disarming schedule, and every schedule that drops
//! an arming slot must classify as `Disarmed` (dropping the message that
//! carries the poison defuses the Trojan, by construction).
//!
//! Session targets that **report state roots**
//! ([`ReplayTarget::reports_state_roots`](achilles::ReplayTarget::reports_state_roots))
//! additionally clear the divergence contract: the all-benign fault-free
//! session leaves every node's root in agreement (`root:agree:` in the
//! effects), sweeping a confirmed Trojan finds at least one `Diverged`
//! schedule, and every schedule that drops an arming slot restores
//! agreement — removing the poison removes the split.
//!
//! Specs whose replay targets are **snapshottable**
//! ([`ReplayTarget::boot_fork`](achilles::ReplayTarget::boot_fork)) also
//! clear the snapshot contract: snapshot → mutate via one delivery →
//! restore → re-deliver must yield the identical outcome and
//! [`CrashSignature`] as a fresh boot — the law the sweep fork-server's
//! correctness rests on.
//!
//! Adding a protocol crate + one registry registration automatically puts
//! it under this contract — that is the point of the API.

use achilles::{fields_to_wire, AchillesSession, InjectionOutcome, ReplayTarget, TargetSpec};
use achilles_replay::{
    replay_session, validate_session_trojans, CrashSignature, FaultSchedule, ReplayCorpus,
    ReplayVerdict, SessionValidateConfig, SessionWitness,
};
use achilles_targets::builtin_registry;

#[test]
fn registry_contains_the_shipped_protocols() {
    let registry = builtin_registry();
    for expected in ["fsp", "pbft", "paxos", "twopc", "gossip", "shardexec"] {
        assert!(
            registry.get(expected).is_some(),
            "{expected} missing from the built-in registry"
        );
    }
}

#[test]
fn every_registered_spec_meets_the_conformance_contract() {
    let registry = builtin_registry();
    assert!(!registry.is_empty());
    for spec in registry.iter() {
        conformance(&**spec);
    }
}

#[test]
fn every_declared_session_meets_the_session_contract() {
    let registry = builtin_registry();
    let mut specs_with_sessions = 0usize;
    for spec in registry.iter() {
        if spec.sessions().is_empty() {
            continue;
        }
        specs_with_sessions += 1;
        session_conformance(&**spec);
    }
    assert!(
        specs_with_sessions >= 2,
        "fsp and twopc both declare sessions"
    );
}

/// Checks the snapshot contract on `target`, with the per-slot benign
/// messages standing in for the witness (so the contract costs no
/// symbolic discovery): snapshot → mutate through the whole sequence →
/// restore → re-deliver must be indistinguishable from a fresh
/// [`replay_session`] under the fault-free schedule, for outcome and
/// signature alike. A single-message target is checked as a one-slot
/// session. Returns whether the target is snapshottable at all.
fn snapshot_contract(label: &str, target: &dyn ReplayTarget) -> bool {
    let Some(mut session) = target.boot_fork() else {
        return false;
    };
    let layouts = target.slot_layouts();
    let fields: Vec<Vec<u64>> = (0..layouts.len())
        .map(|slot| target.slot_benign_fields(slot))
        .collect();
    let wire: Vec<Vec<u8>> = fields
        .iter()
        .zip(&layouts)
        .map(|(f, layout)| {
            fields_to_wire(layout, f)
                .unwrap_or_else(|e| panic!("{label}: benign slot encodes: {e:?}"))
        })
        .collect();
    let witness = SessionWitness {
        index: 0,
        server_path_id: 0,
        fields,
        wire: wire.clone(),
    };
    let fresh = replay_session(target, &witness, &FaultSchedule::none());

    // Mutate the booted session through the whole benign sequence, then
    // restore to boot state and replay it for real.
    let snap = session.snapshot();
    let mut scratch = InjectionOutcome::default();
    for slot_wire in &wire {
        session.deliver(&(slot_wire.clone(), true), &mut scratch);
    }
    session.finish(&mut scratch);
    session.restore(&snap);
    let mut outcome = InjectionOutcome::default();
    for slot_wire in &wire {
        session.deliver(&(slot_wire.clone(), true), &mut outcome);
    }
    session.finish(&mut outcome);
    assert_eq!(
        outcome, fresh.outcome,
        "{label}: restored delivery must match a fresh boot's outcome"
    );
    let mut effects = outcome.effects.clone();
    effects.extend(
        fresh
            .trojan_slots
            .iter()
            .map(|s| format!("trojan-slot:{s}")),
    );
    assert_eq!(
        CrashSignature::for_session(target.name(), fresh.verdict, witness.slots(), effects),
        fresh.signature,
        "{label}: restored delivery must reproduce the fresh signature"
    );
    true
}

#[test]
fn every_snapshottable_target_honors_the_snapshot_contract() {
    let registry = builtin_registry();
    let snapshottable = registry
        .iter()
        .filter(|spec| snapshot_contract(spec.name(), &*spec.replay_target()))
        .count();
    assert!(
        snapshottable >= 6,
        "all six shipped protocols expose snapshottable replay targets \
         (found {snapshottable})"
    );
}

#[test]
fn every_snapshottable_session_target_honors_the_snapshot_contract() {
    let registry = builtin_registry();
    let mut snapshottable = 0usize;
    for spec in registry.iter() {
        for declared in spec.sessions() {
            let sname = format!("{}/{}", spec.name(), declared.name);
            let target = spec.session_replay_target(&declared.name);
            if snapshot_contract(&sname, &*target) {
                snapshottable += 1;
            }
        }
    }
    assert!(
        snapshottable >= 3,
        "fsp, twopc, and shardexec session targets are snapshottable \
         (found {snapshottable})"
    );
}

#[test]
fn every_root_reporting_session_target_honors_the_divergence_contract() {
    // Multi-node deployments that observe per-node state roots must
    // (a) agree on the all-benign fault-free session, (b) split under at
    // least one fault schedule of a confirmed Trojan sweep, and (c) return
    // to agreement on every schedule that drops an arming slot — the
    // poison, not the fault machinery, is what divides the replicas.
    let registry = builtin_registry();
    let mut root_reporting = 0usize;
    for spec in registry.iter() {
        let name = spec.name();
        let reporting: Vec<String> = spec
            .sessions()
            .iter()
            .filter(|d| spec.session_replay_target(&d.name).reports_state_roots())
            .map(|d| d.name.clone())
            .collect();
        if reporting.is_empty() {
            continue;
        }
        root_reporting += 1;

        // --- (a) Fault-free benign agreement. ------------------------------
        for session in &reporting {
            let sname = format!("{name}/{session}");
            let target = spec.session_replay_target(session);
            let layouts = target.slot_layouts();
            let fields: Vec<Vec<u64>> = (0..layouts.len())
                .map(|slot| target.slot_benign_fields(slot))
                .collect();
            let wire: Vec<Vec<u8>> = fields
                .iter()
                .zip(&layouts)
                .map(|(f, layout)| {
                    fields_to_wire(layout, f)
                        .unwrap_or_else(|e| panic!("{sname}: benign slot encodes: {e:?}"))
                })
                .collect();
            let witness = SessionWitness {
                index: 0,
                server_path_id: 0,
                fields,
                wire,
            };
            let benign = replay_session(&*target, &witness, &FaultSchedule::none());
            assert!(
                !benign.signature.diverged(),
                "{sname}: the all-benign fault-free session must not diverge"
            );
            assert!(
                benign
                    .outcome
                    .effects
                    .iter()
                    .any(|e| e.starts_with("root:agree:")),
                "{sname}: a root-reporting target must report agreement \
                 explicitly (effects: {:?})",
                benign.outcome.effects
            );
        }

        // --- (b) + (c): sweep a real Trojan. -------------------------------
        let sweeps = achilles_sweep::run_campaign(
            &**spec,
            &achilles_sweep::CampaignConfig::default(),
            &mut achilles_sweep::SweepCache::new(),
        );
        for sweep in &sweeps {
            if !reporting.contains(&sweep.session) {
                continue;
            }
            let sname = format!("{name}/{}", sweep.session);
            assert!(
                sweep.diverged >= 1,
                "{sname}: at least one schedule must leave the replicas \
                 silently split (Diverged)"
            );
            assert!(
                sweep
                    .matrices
                    .iter()
                    .any(|m| m.baseline_signature.diverged()),
                "{sname}: a confirmed Trojan's fault-free baseline records \
                 the split it causes"
            );
            for matrix in &sweep.matrices {
                for cell in &matrix.cells {
                    let drops_arming_slot =
                        cell.schedule.slots.iter().enumerate().any(|(slot, fault)| {
                            fault.drop && matrix.baseline_trojan_slots.contains(&slot)
                        });
                    if drops_arming_slot {
                        assert!(
                            !cell.signature.diverged(),
                            "{sname}: dropping the arming slot must restore \
                             replica agreement (schedule {:?})",
                            achilles_sweep::schedule_token(&cell.schedule),
                        );
                    }
                }
            }
        }
    }
    assert!(
        root_reporting >= 1,
        "shardexec reports state roots (found {root_reporting})"
    );
}

fn session_conformance(spec: &dyn TargetSpec) {
    let name = spec.name();
    let declared = spec.sessions();
    let reports = AchillesSession::new(spec).run_sessions();
    assert_eq!(reports.len(), declared.len(), "{name}: one report/session");
    for (session, report) in declared.iter().zip(&reports) {
        let sname = format!("{name}/{}", session.name);
        assert_eq!(report.session, session.name, "{sname}: provenance");
        assert!(
            !report.trojans.is_empty(),
            "{sname}: every declared session must host at least one Trojan"
        );
        if let Some(expected) = session.expected_trojans {
            assert_eq!(report.trojans.len(), expected, "{sname}: expected count");
        }
        assert_eq!(
            report.trojans.len(),
            report.trojan_slots.len(),
            "{sname}: slot attribution present for every report"
        );
        assert!(
            report.trojan_slots.iter().all(|s| !s.is_empty()),
            "{sname}: every report names its Trojan slots"
        );

        // --- Concrete confirmation under the fault-free schedule. ----------
        let target = spec.session_replay_target(&report.session);
        let mut corpus = ReplayCorpus::new();
        let summary = validate_session_trojans(
            &*target,
            &report.trojans,
            &mut corpus,
            &SessionValidateConfig {
                schedule: FaultSchedule::none(),
                ..SessionValidateConfig::default()
            },
        );
        assert_eq!(
            summary.replayed,
            report.trojans.len(),
            "{sname}: all replay"
        );
        assert_eq!(
            summary.confirmed,
            report.trojans.len(),
            "{sname}: 100% of session Trojans must confirm concretely"
        );
        assert!(summary
            .results
            .iter()
            .all(|r| r.verdict == ReplayVerdict::ConfirmedTrojan));
        // The concrete slot attribution overlaps the symbolic one.
        for (result, slots) in summary.results.iter().zip(&report.trojan_slots) {
            assert!(
                result.trojan_slots.iter().any(|s| slots.contains(s)),
                "{sname}: concrete and symbolic slot attribution agree on \
                 at least one slot ({:?} vs {:?})",
                result.trojan_slots,
                slots
            );
        }

        // --- Session corpus round-trip + incremental re-validation. --------
        let mut reloaded =
            ReplayCorpus::from_text(&corpus.to_text()).expect("a saved corpus parses back");
        assert_eq!(
            reloaded.entries(),
            corpus.entries(),
            "{sname}: session corpus text round-trip"
        );
        let second = validate_session_trojans(
            &*target,
            &report.trojans,
            &mut reloaded,
            &SessionValidateConfig::default(),
        );
        assert_eq!(second.replayed, 0, "{sname}: reloaded corpus skips all");
        assert_eq!(
            second.skipped_known,
            report.trojans.len(),
            "{sname}: incremental session re-validation"
        );
    }

    // --- Fault-schedule sensitivity contract. -------------------------------
    let sweeps = achilles_sweep::run_campaign(
        spec,
        &achilles_sweep::CampaignConfig::default(),
        &mut achilles_sweep::SweepCache::new(),
    );
    assert_eq!(sweeps.len(), declared.len(), "{name}: one sweep/session");
    for sweep in &sweeps {
        let sname = format!("{name}/{}", sweep.session);
        assert_eq!(
            sweep.confirmed_fault_free, sweep.discovered,
            "{sname}: every session Trojan confirms under the fault-free baseline"
        );
        assert!(
            sweep.armed + sweep.diverged >= 1,
            "{sname}: some schedule must leave the Trojan armed (or armed \
             and diverging, for root-reporting targets)"
        );
        assert!(
            sweep.disarmed >= 1,
            "{sname}: some schedule must disarm the Trojan"
        );
        for matrix in &sweep.matrices {
            for cell in &matrix.cells {
                // Drop-the-arming-slot disarms: a schedule whose only
                // faults are drops, at least one of them on a slot the
                // baseline attributes the Trojan to, removes the poison
                // from the wire and must classify as Disarmed.
                let drops_arming_slot =
                    cell.schedule.slots.iter().enumerate().any(|(slot, fault)| {
                        fault.drop && matrix.baseline_trojan_slots.contains(&slot)
                    });
                if drops_arming_slot {
                    assert_eq!(
                        cell.class,
                        achilles_sweep::ScheduleClass::Disarmed,
                        "{sname}: dropping the arming slot must disarm \
                         (schedule {:?})",
                        achilles_sweep::schedule_token(&cell.schedule),
                    );
                }
            }
        }
    }
}

fn conformance(spec: &dyn TargetSpec) {
    let name = spec.name();

    // --- Metadata sanity. --------------------------------------------------
    assert!(!name.is_empty());
    assert!(!spec.local_state_modes().is_empty(), "{name}: no modes");
    assert!(!spec.clients().is_empty(), "{name}: no client programs");
    let target = spec.replay_target();
    assert_eq!(target.name(), name, "{name}: spec/target name mismatch");
    assert_eq!(
        target.layout().fields().len(),
        spec.layout().fields().len(),
        "{name}: spec/target layout mismatch"
    );
    assert!(
        target.client_generable(&target.benign_fields()),
        "{name}: the benign message must be client-generable"
    );

    // --- 1. Discovery. -----------------------------------------------------
    let report = AchillesSession::new(spec).run();
    assert!(
        !report.trojans.is_empty(),
        "{name}: every registered target must host at least one Trojan"
    );
    if let Some(expected) = spec.expected_trojans() {
        assert_eq!(report.trojans.len(), expected, "{name}: expected count");
    }
    for t in &report.trojans {
        assert!(t.verified, "{name}: unverified witness (false positive?)");
        assert!(!spec.classify(t).is_empty(), "{name}: unclassifiable");
    }

    // --- 4. Codec coherence (checked before replay mutates anything). ------
    for t in &report.trojans {
        let wire = spec
            .encode(&t.witness_fields)
            .unwrap_or_else(|e| panic!("{name}: witness must encode: {e:?}"));
        let back = spec
            .decode(&wire)
            .unwrap_or_else(|e| panic!("{name}: wire must decode: {e:?}"));
        assert_eq!(back, t.witness_fields, "{name}: codec round-trip");
    }

    // --- 2. Concrete confirmation. -----------------------------------------
    // Single-message Trojans replay as one-slot sessions.
    let mut corpus = ReplayCorpus::new();
    let summary = validate_session_trojans(
        &*target,
        &report.trojans,
        &mut corpus,
        &SessionValidateConfig::default(),
    );
    assert_eq!(summary.replayed, report.trojans.len(), "{name}: all replay");
    assert_eq!(
        summary.confirmed,
        report.trojans.len(),
        "{name}: 100% of symbolic Trojans must confirm concretely"
    );
    assert!(summary
        .results
        .iter()
        .all(|r| r.verdict == ReplayVerdict::ConfirmedTrojan));
    assert!(corpus.distinct_signatures() >= 1, "{name}: no signatures");

    // --- 3. Corpus round-trip. ---------------------------------------------
    let mut reloaded =
        ReplayCorpus::from_text(&corpus.to_text()).expect("a saved corpus parses back");
    assert_eq!(
        reloaded.entries(),
        corpus.entries(),
        "{name}: corpus text round-trip"
    );
    let second = validate_session_trojans(
        &*target,
        &report.trojans,
        &mut reloaded,
        &SessionValidateConfig::default(),
    );
    assert_eq!(second.replayed, 0, "{name}: reloaded corpus skips all");
    assert_eq!(
        second.skipped_known,
        report.trojans.len(),
        "{name}: incremental re-validation"
    );
}
