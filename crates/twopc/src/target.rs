//! The 2PC [`TargetSpec`] and concrete deployment target.
//!
//! This is the crate that proves the protocol-agnostic API: everything —
//! symbolic programs, concrete coordinator, replay target, spec — lives
//! here, and the protocol joins discovery, validation, conformance
//! testing, and the bench bins through one registry registration, with
//! zero changes to `achilles-core`, `achilles-replay`, or any driver.

use std::sync::Arc;

use achilles::{
    Delivery, InjectionOutcome, ReplayTarget, SessionSlot, SessionSpec, SnapshotReplayTarget,
    TargetSnapshot, TargetSpec, TrojanReport,
};
use achilles_symvm::{MessageLayout, NodeProgram};

use crate::engine::{Coordinator, CoordinatorConfig, Decision, DECISION_TABLE_LEN};
use crate::programs::{
    ControllerProgram, CoordinatorProgram, ParticipantProgram, SessionCoordinatorProgram,
};
use crate::protocol::{
    decide_layout, layout, TwopcDecide, TwopcVote, DECISION_KIND, MAX_TXID, N_PARTICIPANTS,
    VOTE_KIND,
};

/// The 2PC deployment target: a coordinator mid-phase-1, waiting on the
/// last participant's vote for every transaction.
#[derive(Clone, Copy, Debug, Default)]
pub struct TwopcTarget {
    /// Coordinator build (patch toggle must match the analyzed server).
    pub config: CoordinatorConfig,
}

impl TwopcTarget {
    /// A target over the given coordinator build.
    pub fn new(config: CoordinatorConfig) -> TwopcTarget {
        TwopcTarget { config }
    }

    /// Boots the scenario: every participant has a recorded commit vote on
    /// every transaction, so any injected vote overwrites one tally slot
    /// and re-runs the (quorum-complete) decision handler — the injected
    /// byte decides, and an out-of-domain byte detonates the jump table
    /// immediately.
    fn boot(&self) -> Coordinator {
        let mut coordinator = Coordinator::new(self.config);
        for txid in 0..MAX_TXID as u16 {
            for participant in 0..N_PARTICIPANTS as u8 {
                assert!(coordinator.on_vote(txid, participant, 1));
            }
        }
        coordinator
    }
}

impl ReplayTarget for TwopcTarget {
    fn name(&self) -> &'static str {
        "twopc"
    }

    fn layout(&self) -> Arc<MessageLayout> {
        layout()
    }

    fn benign_fields(&self) -> Vec<u64> {
        TwopcVote::correct(0, (N_PARTICIPANTS - 1) as u8, true).field_values()
    }

    fn client_generable(&self, fields: &[u64]) -> bool {
        let [kind, txid, participant, vote] = fields else {
            return false;
        };
        *kind == VOTE_KIND
            && *txid < MAX_TXID
            && *participant < N_PARTICIPANTS
            && *vote < u64::from(DECISION_TABLE_LEN)
    }

    fn inject(&self, deliveries: &[Delivery]) -> InjectionOutcome {
        let mut session = TwopcForkSession::boot(self.boot());
        let mut outcome = InjectionOutcome::default();
        for delivery in deliveries {
            session.deliver(delivery, &mut outcome);
        }
        session.finish(&mut outcome);
        outcome
    }

    fn boot_fork(&self) -> Option<Box<dyn SnapshotReplayTarget + '_>> {
        Some(Box::new(TwopcForkSession::boot(self.boot())))
    }
}

/// The incremental deployment behind [`TwopcTarget`]: the quorum-complete
/// coordinator plus the tracked witness transaction; `finish` performs the
/// final decision read.
struct TwopcForkSession {
    coordinator: Coordinator,
    witness_tx: Option<u16>,
}

impl TwopcForkSession {
    fn boot(coordinator: Coordinator) -> TwopcForkSession {
        TwopcForkSession {
            coordinator,
            witness_tx: None,
        }
    }
}

impl SnapshotReplayTarget for TwopcForkSession {
    fn deliver(&mut self, delivery: &Delivery, outcome: &mut InjectionOutcome) {
        let (wire, is_witness) = delivery;
        let Ok(vote) = TwopcVote::from_wire(wire) else {
            outcome.accepted_each.push(false);
            outcome.effects.push("malformed".to_string());
            return;
        };
        if u64::from(vote.kind) != VOTE_KIND {
            outcome.accepted_each.push(false);
            outcome.effects.push("ignored:not-vote".to_string());
            return;
        }
        let crashed_before = self.coordinator.crashed();
        let accepted = self
            .coordinator
            .on_vote(vote.txid, vote.participant, vote.vote);
        outcome.accepted_each.push(accepted);
        if !accepted {
            outcome.effects.push(if crashed_before {
                "rejected:coordinator-wedged".to_string()
            } else {
                "rejected:validation".to_string()
            });
            return;
        }
        if *is_witness {
            self.witness_tx = Some(vote.txid);
        }
        if self.coordinator.crashed() && !crashed_before {
            outcome.effects.push("crash:decision-jump-oob".to_string());
        }
    }

    fn snapshot(&self) -> TargetSnapshot {
        TargetSnapshot::of((self.coordinator.clone(), self.witness_tx))
    }

    fn restore(&mut self, snapshot: &TargetSnapshot) {
        let (coordinator, witness_tx) = snapshot
            .get::<(Coordinator, Option<u16>)>()
            .expect("a 2PC fork session restores 2PC snapshots");
        self.coordinator = coordinator.clone();
        self.witness_tx = *witness_tx;
    }

    fn finish(&mut self, outcome: &mut InjectionOutcome) {
        if let Some(txid) = self.witness_tx {
            let decision = match self.coordinator.decide(txid) {
                Decision::Pending => "decision:pending",
                Decision::Commit => "decision:commit",
                Decision::Abort => "decision:abort",
            };
            outcome.effects.push(decision.to_string());
            if self.coordinator.crashed() && self.coordinator.decide(txid) == Decision::Commit {
                // The quorum that "committed" includes a vote no participant
                // cast: the transaction outcome is forged.
                outcome.effects.push("decision:forged-quorum".to_string());
            }
        }
    }
}

/// The 2PC session deployment: a *fresh* coordinator (no recorded votes),
/// processing a VOTE then a DECIDE in one session — the stateful scenario
/// where an out-of-domain vote is recorded without incident and detonates
/// only when the finalize request walks the tally.
///
/// Deliveries are parsed by their kind byte (votes and finalize requests
/// share the wire's first field).
#[derive(Clone, Copy, Debug, Default)]
pub struct TwopcSessionTarget {
    /// Coordinator build (patch toggle must match the analyzed server).
    pub config: CoordinatorConfig,
}

impl TwopcSessionTarget {
    /// A session target over the given coordinator build.
    pub fn new(config: CoordinatorConfig) -> TwopcSessionTarget {
        TwopcSessionTarget { config }
    }

    fn decide_generable(fields: &[u64]) -> bool {
        let [kind, txid, outcome] = fields else {
            return false;
        };
        *kind == DECISION_KIND && *txid < MAX_TXID && *outcome < u64::from(DECISION_TABLE_LEN)
    }
}

impl ReplayTarget for TwopcSessionTarget {
    fn name(&self) -> &'static str {
        "twopc"
    }

    fn layout(&self) -> Arc<MessageLayout> {
        layout()
    }

    fn benign_fields(&self) -> Vec<u64> {
        TwopcVote::correct(0, 0, true).field_values()
    }

    fn client_generable(&self, fields: &[u64]) -> bool {
        TwopcTarget::default().client_generable(fields)
    }

    fn slot_layouts(&self) -> Vec<Arc<MessageLayout>> {
        vec![layout(), decide_layout()]
    }

    fn slot_benign_fields(&self, slot: usize) -> Vec<u64> {
        if slot == 0 {
            TwopcVote::correct(0, 0, true).field_values()
        } else {
            TwopcDecide::correct(0, true).field_values()
        }
    }

    fn slot_generable(&self, slot: usize, fields: &[u64]) -> bool {
        if slot == 0 {
            self.client_generable(fields)
        } else {
            TwopcSessionTarget::decide_generable(fields)
        }
    }

    fn inject(&self, deliveries: &[Delivery]) -> InjectionOutcome {
        let mut session = TwopcSessionForkSession::boot(self.config);
        let mut outcome = InjectionOutcome::default();
        for delivery in deliveries {
            session.deliver(delivery, &mut outcome);
        }
        session.finish(&mut outcome);
        outcome
    }

    fn boot_fork(&self) -> Option<Box<dyn SnapshotReplayTarget + '_>> {
        Some(Box::new(TwopcSessionForkSession::boot(self.config)))
    }
}

/// The incremental deployment behind [`TwopcSessionTarget`]: a fresh
/// coordinator dispatching on the kind byte, plus the tracked witness
/// transaction; `finish` reads the witness transaction's decision.
struct TwopcSessionForkSession {
    coordinator: Coordinator,
    witness_tx: Option<u16>,
}

impl TwopcSessionForkSession {
    fn boot(config: CoordinatorConfig) -> TwopcSessionForkSession {
        TwopcSessionForkSession {
            coordinator: Coordinator::new(config),
            witness_tx: None,
        }
    }
}

impl SnapshotReplayTarget for TwopcSessionForkSession {
    fn deliver(&mut self, delivery: &Delivery, outcome: &mut InjectionOutcome) {
        let (wire, is_witness) = delivery;
        let coordinator = &mut self.coordinator;
        let crashed_before = coordinator.crashed();
        match wire.first().map(|&k| u64::from(k)) {
            Some(VOTE_KIND) => {
                let Ok(vote) = TwopcVote::from_wire(wire) else {
                    outcome.accepted_each.push(false);
                    outcome.effects.push("malformed".to_string());
                    return;
                };
                let accepted = coordinator.on_vote(vote.txid, vote.participant, vote.vote);
                outcome.accepted_each.push(accepted);
                if !accepted {
                    outcome.effects.push(if crashed_before {
                        "rejected:coordinator-wedged".to_string()
                    } else {
                        "rejected:validation".to_string()
                    });
                    return;
                }
                if *is_witness {
                    self.witness_tx = Some(vote.txid);
                }
                if coordinator.crashed() && !crashed_before {
                    outcome.effects.push("crash:decision-jump-oob".to_string());
                }
            }
            Some(DECISION_KIND) => {
                let Ok(decide) = TwopcDecide::from_wire(wire) else {
                    outcome.accepted_each.push(false);
                    outcome.effects.push("malformed".to_string());
                    return;
                };
                let poisoned = coordinator.tally_poisoned(decide.txid);
                let accepted = coordinator.on_decide(decide.txid, decide.outcome);
                outcome.accepted_each.push(accepted);
                if !accepted {
                    outcome.effects.push(if crashed_before {
                        "rejected:coordinator-wedged".to_string()
                    } else {
                        "rejected:validation".to_string()
                    });
                    return;
                }
                if coordinator.crashed() && !crashed_before {
                    outcome.effects.push("crash:decide-jump-oob".to_string());
                    if poisoned {
                        // The implicit interaction: the crash was armed
                        // by a vote recorded messages earlier.
                        outcome.effects.push("tally:poisoned".to_string());
                    }
                }
            }
            _ => {
                outcome.accepted_each.push(false);
                outcome.effects.push("ignored:unknown-kind".to_string());
            }
        }
    }

    fn snapshot(&self) -> TargetSnapshot {
        TargetSnapshot::of((self.coordinator.clone(), self.witness_tx))
    }

    fn restore(&mut self, snapshot: &TargetSnapshot) {
        let (coordinator, witness_tx) = snapshot
            .get::<(Coordinator, Option<u16>)>()
            .expect("a 2PC session restores 2PC snapshots");
        self.coordinator = coordinator.clone();
        self.witness_tx = *witness_tx;
    }

    fn finish(&mut self, outcome: &mut InjectionOutcome) {
        if let Some(txid) = self.witness_tx {
            let decision = match self.coordinator.decide(txid) {
                Decision::Pending => "decision:pending",
                Decision::Commit => "decision:commit",
                Decision::Abort => "decision:abort",
            };
            outcome.effects.push(decision.to_string());
        }
    }
}

/// The two-phase-commit protocol as a [`TargetSpec`].
#[derive(Clone, Copy, Debug, Default)]
pub struct TwopcSpec {
    /// The coordinator build under analysis (and replay).
    pub config: CoordinatorConfig,
}

impl TwopcSpec {
    /// A spec over the given coordinator build.
    pub fn new(config: CoordinatorConfig) -> TwopcSpec {
        TwopcSpec { config }
    }

    /// The patched build (vote domain validated): expects zero Trojans.
    pub fn patched() -> TwopcSpec {
        TwopcSpec::new(CoordinatorConfig {
            validate_vote_domain: true,
        })
    }
}

impl TargetSpec for TwopcSpec {
    fn name(&self) -> &'static str {
        "twopc"
    }

    fn description(&self) -> &'static str {
        "two-phase-commit coordinator: unvalidated vote byte crashes the decision logic"
    }

    fn layout(&self) -> Arc<MessageLayout> {
        layout()
    }

    fn clients(&self) -> Vec<Box<dyn NodeProgram + Sync + '_>> {
        vec![Box::new(ParticipantProgram)]
    }

    fn server(&self) -> Box<dyn NodeProgram + Sync + '_> {
        Box::new(CoordinatorProgram {
            config: self.config,
        })
    }

    fn expected_trojans(&self) -> Option<usize> {
        // One accepting coordinator path; the patched build closes it.
        if self.config.validate_vote_domain {
            Some(0)
        } else {
            Some(1)
        }
    }

    fn classify(&self, report: &TrojanReport) -> String {
        let vote = TwopcVote::from_field_values(&report.witness_fields).vote;
        if vote >= DECISION_TABLE_LEN {
            "vote-domain".to_string()
        } else {
            "other".to_string()
        }
    }

    fn replay_target(&self) -> Box<dyn ReplayTarget> {
        Box::new(TwopcTarget::new(self.config))
    }

    fn sessions(&self) -> Vec<SessionSpec> {
        vec![SessionSpec::new(
            "vote-decide",
            vec![
                SessionSlot::new("vote", layout(), vec![0]),
                SessionSlot::new("decide", decide_layout(), vec![1]),
            ],
        )
        // One accepting session path; the patched build closes both the
        // vote-domain and outcome-domain windows.
        .expecting(if self.config.validate_vote_domain {
            0
        } else {
            1
        })]
    }

    fn session_clients(&self) -> Vec<Box<dyn NodeProgram + Sync + '_>> {
        vec![Box::new(ParticipantProgram), Box::new(ControllerProgram)]
    }

    fn session_server(&self, _name: &str) -> Box<dyn NodeProgram + Sync + '_> {
        Box::new(SessionCoordinatorProgram {
            config: self.config,
        })
    }

    fn session_replay_target(&self, _name: &str) -> Box<dyn ReplayTarget> {
        Box::new(TwopcSessionTarget::new(self.config))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use achilles::AchillesSession;

    #[test]
    fn session_discovers_the_vote_domain_trojan() {
        let spec = TwopcSpec::default();
        let report = AchillesSession::new(&spec).run();
        assert_eq!(Some(report.trojans.len()), spec.expected_trojans());
        let t = &report.trojans[0];
        assert!(t.verified, "witness re-verified against the participant");
        let vote = TwopcVote::from_field_values(&t.witness_fields);
        assert_eq!(u64::from(vote.kind), VOTE_KIND);
        assert!(u64::from(vote.txid) < MAX_TXID);
        assert!(u64::from(vote.participant) < N_PARTICIPANTS);
        assert!(
            vote.vote >= DECISION_TABLE_LEN,
            "the only un-generable accepted field is an out-of-domain vote: {vote:?}"
        );
        assert_eq!(spec.classify(t), "vote-domain");
    }

    #[test]
    fn patched_build_is_trojan_free() {
        let spec = TwopcSpec::patched();
        let report = AchillesSession::new(&spec).run();
        assert_eq!(report.trojans.len(), 0, "the domain check closes the bug");
    }

    #[test]
    fn discovery_is_worker_count_invariant() {
        let spec = TwopcSpec::default();
        let seq = AchillesSession::new(&spec).run();
        let par = AchillesSession::new(&spec).workers(4).run();
        assert_eq!(
            seq.trojans
                .iter()
                .map(|t| t.witness_fields.clone())
                .collect::<Vec<_>>(),
            par.trojans
                .iter()
                .map(|t| t.witness_fields.clone())
                .collect::<Vec<_>>()
        );
        assert_eq!(seq.server_paths, par.server_paths);
    }

    #[test]
    fn declared_session_finds_the_vote_decide_trojan_with_slot_attribution() {
        let spec = TwopcSpec::default();
        let mut session = AchillesSession::new(&spec);
        let reports = session.run_sessions();
        assert_eq!(reports.len(), 1);
        let r = &reports[0];
        assert_eq!(r.session, "vote-decide");
        assert_eq!(Some(r.trojans.len()), r.expected_trojans);
        assert_eq!(
            r.trojan_slots[0],
            vec![0, 1],
            "both the vote byte and the outcome byte host Trojans"
        );
        let parts = r.split_fields(&r.trojans[0].witness_fields);
        let vote = TwopcVote::from_field_values(&parts[0]);
        let decide = TwopcDecide::from_field_values(&parts[1]);
        assert!(vote.vote >= DECISION_TABLE_LEN, "forged vote byte");
        assert_eq!(
            vote.txid, decide.txid,
            "the finalize targets the poisoned transaction"
        );

        // Patched build: both windows close.
        let patched = TwopcSpec::patched();
        let reports = AchillesSession::new(&patched).run_sessions();
        assert_eq!(reports[0].trojans.len(), 0);
    }

    #[test]
    fn session_poison_detonates_at_decide_time() {
        // The implicit interaction, concretely: the poisoned vote is
        // accepted without incident, and the coordinator only crashes when
        // the finalize request walks the tally one message later.
        let target = TwopcSessionTarget::default();
        let vote = TwopcVote {
            kind: VOTE_KIND as u8,
            txid: 4,
            participant: 1,
            vote: 0x77,
        };
        let decide = TwopcDecide::correct(4, true);
        let outcome = target.inject(&[(vote.to_wire(), true), (decide.to_wire(), true)]);
        assert_eq!(outcome.accepted_each, vec![true, true]);
        assert!(outcome
            .effects
            .contains(&"crash:decide-jump-oob".to_string()));
        assert!(outcome.effects.contains(&"tally:poisoned".to_string()));
        assert!(!target.slot_generable(0, &vote.field_values()));
        assert!(target.slot_generable(1, &decide.field_values()));

        // A fully benign session decides nothing unusual.
        let benign_vote = TwopcVote::correct(4, 1, true);
        let outcome = target.inject(&[(benign_vote.to_wire(), true), (decide.to_wire(), true)]);
        assert_eq!(outcome.accepted_each, vec![true, true]);
        assert!(!outcome.effects.iter().any(|e| e.starts_with("crash:")));
    }

    #[test]
    fn target_confirms_and_crashes_on_the_witness() {
        let target = TwopcTarget::default();
        let trojan = TwopcVote {
            kind: VOTE_KIND as u8,
            txid: 2,
            participant: 2,
            vote: 0x77,
        };
        let outcome = target.inject(&[(trojan.to_wire(), true)]);
        assert_eq!(outcome.accepted_each, vec![true]);
        assert!(outcome
            .effects
            .contains(&"crash:decision-jump-oob".to_string()));
        assert!(outcome
            .effects
            .contains(&"decision:forged-quorum".to_string()));
        assert!(!target.client_generable(&trojan.field_values()));

        // A benign final commit vote decides cleanly.
        let benign = TwopcVote::correct(2, 2, true);
        let outcome = target.inject(&[(benign.to_wire(), true)]);
        assert_eq!(outcome.accepted_each, vec![true]);
        assert!(outcome.effects.contains(&"decision:commit".to_string()));
        assert!(target.client_generable(&benign.field_values()));
    }
}
