//! The PBFT [`TargetSpec`] and concrete deployment target.
//!
//! [`PbftSpec`] exposes the MAC-attack analysis (§6.2) through the
//! protocol-agnostic trait; [`PbftTarget`] — previously hand-assembled in
//! the replay harness — boots the deterministic 4-replica cluster over
//! `SimClock` cost accounting per injection.

use std::sync::Arc;

use achilles::{
    Delivery, InjectionOutcome, ReplayTarget, SnapshotReplayTarget, TargetSnapshot, TargetSpec,
    TrojanReport,
};
use achilles_symvm::{MessageLayout, NodeProgram};

use crate::analysis::{classify, PbftTrojanFamily};
use crate::client::PbftClient;
use crate::cluster::{ClusterConfig, PbftCluster, SubmitOutcome};
use crate::mac::{N_CLIENTS, N_REPLICAS};
use crate::protocol::{layout, PbftRequest, COMMAND_LEN, MESSAGE_SIZE, REQUEST_TAG};
use crate::replica::{PbftReplica, PbftReplicaConfig};

/// The PBFT deployment target: the deterministic 4-replica cluster over
/// `SimClock` cost accounting.
#[derive(Clone, Copy, Debug, Default)]
pub struct PbftTarget {
    /// Cluster cost model and patch toggle.
    pub cluster: ClusterConfig,
}

impl PbftTarget {
    /// A target over the default cost model (vulnerable primary).
    pub fn new(cluster: ClusterConfig) -> PbftTarget {
        PbftTarget { cluster }
    }
}

impl ReplayTarget for PbftTarget {
    fn name(&self) -> &'static str {
        "pbft"
    }

    fn layout(&self) -> Arc<MessageLayout> {
        layout()
    }

    fn benign_fields(&self) -> Vec<u64> {
        PbftRequest::correct(0, 1, *b"op__").field_values()
    }

    fn client_generable(&self, fields: &[u64]) -> bool {
        let req = PbftRequest::from_field_values(fields);
        u64::from(req.tag) == REQUEST_TAG
            && u64::from(req.size) == MESSAGE_SIZE
            && usize::from(req.command_size) == COMMAND_LEN
            && req.extra <= 1
            && usize::from(req.replier) < N_REPLICAS
            && u64::from(req.cid) < N_CLIENTS
            && (0..N_REPLICAS).all(|r| req.mac_valid_for(r))
    }

    fn inject(&self, deliveries: &[Delivery]) -> InjectionOutcome {
        let mut session = PbftForkSession::boot(self.cluster);
        let mut outcome = InjectionOutcome::default();
        for delivery in deliveries {
            session.deliver(delivery, &mut outcome);
        }
        session.finish(&mut outcome);
        outcome
    }

    fn boot_fork(&self) -> Option<Box<dyn SnapshotReplayTarget + '_>> {
        Some(Box::new(PbftForkSession::boot(self.cluster)))
    }
}

/// The incremental deployment behind [`PbftTarget`]: one live 4-replica
/// cluster. No end-of-plan step.
struct PbftForkSession {
    cluster: PbftCluster,
}

impl PbftForkSession {
    fn boot(config: ClusterConfig) -> PbftForkSession {
        PbftForkSession {
            cluster: PbftCluster::new(config),
        }
    }
}

impl SnapshotReplayTarget for PbftForkSession {
    fn deliver(&mut self, delivery: &Delivery, outcome: &mut InjectionOutcome) {
        let (wire, is_witness) = delivery;
        let Ok(req) = PbftRequest::from_wire(wire) else {
            outcome.accepted_each.push(false);
            outcome.effects.push("malformed".to_string());
            return;
        };
        let submit = self.cluster.submit(&req);
        let (accepted, note) = match submit {
            SubmitOutcome::Executed => (true, "outcome:fast-path"),
            SubmitOutcome::RecoveredThenExecuted => (true, "outcome:recovered"),
            SubmitOutcome::DroppedByPrimary => (false, "outcome:dropped-by-primary"),
        };
        outcome.accepted_each.push(accepted);
        outcome.effects.push(note.to_string());
        if *is_witness {
            let bad = (0..N_REPLICAS).filter(|&r| !req.mac_valid_for(r)).count();
            if bad > 0 {
                outcome.effects.push(format!("bad_macs:{bad}"));
            }
        }
    }

    fn snapshot(&self) -> TargetSnapshot {
        TargetSnapshot::of(self.cluster.clone())
    }

    fn restore(&mut self, snapshot: &TargetSnapshot) {
        self.cluster = snapshot
            .get::<PbftCluster>()
            .expect("a pbft fork session restores pbft snapshots")
            .clone();
    }

    fn finish(&mut self, _outcome: &mut InjectionOutcome) {}
}

/// The PBFT protocol as a [`TargetSpec`]. The default is the paper's
/// setup: the vulnerable replica.
#[derive(Clone, Debug, Default)]
pub struct PbftSpec {
    /// The analyzed replica (the MAC-verification patch toggle).
    pub replica: PbftReplicaConfig,
    /// Cost model of the concrete cluster booted by the replay factory.
    /// Its MAC-verification toggle is *ignored*: the factory always
    /// derives it from `replica.verify_macs`, so the replayed deployment
    /// can never silently disagree with the analyzed replica.
    pub cluster: ClusterConfig,
}

impl PbftSpec {
    /// The paper's setup: vulnerable replica — the registry default.
    pub fn paper() -> PbftSpec {
        PbftSpec::default()
    }
}

impl TargetSpec for PbftSpec {
    fn name(&self) -> &'static str {
        "pbft"
    }

    fn description(&self) -> &'static str {
        "PBFT request handling: the unauthenticated-MAC attack (§6.2)"
    }

    fn layout(&self) -> Arc<MessageLayout> {
        layout()
    }

    fn clients(&self) -> Vec<Box<dyn NodeProgram + Sync + '_>> {
        vec![Box::new(PbftClient)]
    }

    fn server(&self) -> Box<dyn NodeProgram + Sync + '_> {
        Box::new(PbftReplica::new(self.replica.clone()))
    }

    fn expected_trojans(&self) -> Option<usize> {
        // One report per accepting replica path (read-only + pre_prepare),
        // both of the single MAC-attack type — unless the patch closes it.
        if self.replica.verify_macs {
            Some(0)
        } else {
            Some(2)
        }
    }

    fn classify(&self, report: &TrojanReport) -> String {
        match classify(report) {
            PbftTrojanFamily::MacAttack => "mac-attack".to_string(),
            PbftTrojanFamily::Other => "other".to_string(),
        }
    }

    fn replay_target(&self) -> Box<dyn ReplayTarget> {
        // Patch toggles must match the analyzed server: derive the
        // cluster's MAC check from the replica config under analysis.
        Box::new(PbftTarget::new(ClusterConfig {
            primary_verifies_macs: self.replica.verify_macs,
            ..self.cluster
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use achilles::AchillesSession;

    #[test]
    fn spec_session_rediscovers_the_mac_attack() {
        let spec = PbftSpec::paper();
        let report = AchillesSession::new(&spec).run();
        assert_eq!(Some(report.trojans.len()), spec.expected_trojans());
        for t in &report.trojans {
            assert_eq!(spec.classify(t), "mac-attack");
        }
    }

    #[test]
    fn default_spec_analyzes_like_the_paper_spec() {
        // The derived default and `paper()` must analyze identically,
        // witness verification included.
        let default = PbftSpec::default();
        let paper = PbftSpec::paper();
        let config = |spec: &PbftSpec| format!("{:?}", AchillesSession::new(spec).config());
        assert_eq!(config(&default), config(&paper));
        assert!(AchillesSession::new(&default).config().verify_witnesses);
        let witnesses = |spec: &PbftSpec| {
            let report = AchillesSession::new(spec).run();
            report
                .trojans
                .iter()
                .map(|t| (t.witness_fields.clone(), t.verified))
                .collect::<Vec<_>>()
        };
        let found = witnesses(&default);
        assert_eq!(found.len(), 2);
        assert_eq!(found, witnesses(&paper));
    }

    #[test]
    fn patched_spec_expects_zero() {
        let mut spec = PbftSpec::paper();
        spec.replica.verify_macs = true;
        let report = AchillesSession::new(&spec).run();
        assert_eq!(report.trojans.len(), 0);
        assert_eq!(spec.expected_trojans(), Some(0));
    }

    #[test]
    fn replay_factory_mirrors_the_analysis_patch() {
        // The cluster's MAC toggle is derived from the analyzed replica
        // even when the cost-model config disagrees: a correct request
        // must be accepted by both builds, while a corrupted-MAC request
        // is dropped exactly when the analysis is patched.
        for patched in [false, true] {
            let mut spec = PbftSpec::paper();
            spec.replica.verify_macs = patched;
            spec.cluster.primary_verifies_macs = !patched; // contradicts on purpose
            let target = spec.replay_target();
            let bad = PbftRequest::correct(0, 1, *b"op__").with_corrupted_mac(1);
            let outcome = target.inject(&[(bad.to_wire(), true)]);
            assert_eq!(
                outcome.accepted_each,
                vec![!patched],
                "patched analysis ⇒ patched deployment (and vice versa)"
            );
        }
    }
}
