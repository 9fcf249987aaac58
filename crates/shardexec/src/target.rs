//! The shardexec [`TargetSpec`] and concrete deployment targets.
//!
//! The first multi-node deployment in the registry: replay targets here
//! boot a three-shard cluster, observe per-shard state roots through a
//! [`DivergenceProbe`] after every delivery, and fold the observation
//! into the outcome's effects — so silent state divergence flows through
//! the ordinary signature triage, the sweep classifier's `Diverged`
//! class, and the fleetd query path with zero changes to the replay
//! harness.

use std::sync::Arc;

use achilles::{
    Delivery, DivergenceProbe, InjectionOutcome, ReplayTarget, SessionSlot, SessionSpec,
    SnapshotReplayTarget, StateRoot, TargetSnapshot, TargetSpec, TrojanReport,
};
use achilles_symvm::{MessageLayout, NodeProgram};

use crate::engine::{ReadResolution, ShardCluster, ShardexecConfig};
use crate::programs::{
    IngressWriteProgram, ReadClientProgram, SessionShardProgram, ShardWriteProgram,
    SyncRoundProgram,
};
use crate::protocol::{
    read_layout, sync_layout, write_layout, ShardRead, ShardSync, ShardWrite, MAX_VALUE, N_KEYS,
    N_SHARDS, READ_KIND, SYNC_KIND, WRITE_KIND,
};

fn write_generable(fields: &[u64]) -> bool {
    let [kind, sender, key, value] = fields else {
        return false;
    };
    // Some shard's write library can produce it: the library stamps
    // sender == key == its own id, so generable writes are exactly the
    // authentic ones.
    *kind == WRITE_KIND
        && *sender < N_SHARDS
        && *key < N_KEYS
        && sender == key
        && *value >= 1
        && *value < MAX_VALUE
}

fn sync_generable(fields: &[u64]) -> bool {
    let [kind, sender, key] = fields else {
        return false;
    };
    *kind == SYNC_KIND && *sender < N_SHARDS && *key < N_KEYS
}

fn read_generable(fields: &[u64]) -> bool {
    let [kind, key] = fields else {
        return false;
    };
    *kind == READ_KIND && *key < N_KEYS
}

/// Folds one accepted write's fabric-level observations into effects.
fn write_effects(write: &ShardWrite, outcome: &mut InjectionOutcome) {
    outcome.effects.push("write:applied".to_string());
    if write.sender != write.key {
        // The structural family marker: the fabric routed a write under
        // an identity no shard library would stamp on it.
        outcome.effects.push("family:sender-spoof".to_string());
    }
}

/// The single-message shardexec deployment target: a fresh three-shard
/// cluster ingesting `WRITE` broadcasts, with per-shard state roots
/// observed after every delivery — a forged sender splits the replicas
/// concretely within the injection.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardexecTarget {
    /// Cluster build (patch toggle must match the analyzed server).
    pub config: ShardexecConfig,
}

impl ShardexecTarget {
    /// A target over the given cluster build.
    pub fn new(config: ShardexecConfig) -> ShardexecTarget {
        ShardexecTarget { config }
    }
}

impl ReplayTarget for ShardexecTarget {
    fn name(&self) -> &'static str {
        "shardexec"
    }

    fn layout(&self) -> Arc<MessageLayout> {
        write_layout()
    }

    fn benign_fields(&self) -> Vec<u64> {
        ShardWrite::correct(0, 1).field_values()
    }

    fn client_generable(&self, fields: &[u64]) -> bool {
        write_generable(fields)
    }

    fn inject(&self, deliveries: &[Delivery]) -> InjectionOutcome {
        let mut session = ShardexecForkSession::boot(self.config);
        let mut outcome = InjectionOutcome::default();
        for delivery in deliveries {
            session.deliver(delivery, &mut outcome);
        }
        session.finish(&mut outcome);
        outcome
    }

    fn boot_fork(&self) -> Option<Box<dyn SnapshotReplayTarget + '_>> {
        Some(Box::new(ShardexecForkSession::boot(self.config)))
    }

    fn reports_state_roots(&self) -> bool {
        true
    }
}

/// The incremental deployment behind [`ShardexecTarget`]: one live
/// cluster plus the divergence probe. `inject` is a boot → deliver-each
/// → finish loop over this struct, so fork-server replay is equivalent
/// to cold-boot by construction — probe included, because the probe
/// rides in the snapshot payload.
struct ShardexecForkSession {
    cluster: ShardCluster,
    probe: DivergenceProbe,
}

impl ShardexecForkSession {
    fn boot(config: ShardexecConfig) -> ShardexecForkSession {
        ShardexecForkSession {
            cluster: ShardCluster::new(config),
            probe: DivergenceProbe::new(),
        }
    }
}

impl SnapshotReplayTarget for ShardexecForkSession {
    fn deliver(&mut self, delivery: &Delivery, outcome: &mut InjectionOutcome) {
        let (wire, _) = delivery;
        match ShardWrite::from_wire(wire) {
            Ok(write) if u64::from(write.kind) == WRITE_KIND => {
                let accepted = self.cluster.on_write(write.sender, write.key, write.value);
                outcome.accepted_each.push(accepted);
                if accepted {
                    write_effects(&write, outcome);
                } else {
                    outcome.effects.push("rejected:ingress".to_string());
                }
            }
            Ok(_) => {
                outcome.accepted_each.push(false);
                outcome.effects.push("ignored:not-write".to_string());
            }
            Err(_) => {
                outcome.accepted_each.push(false);
                outcome.effects.push("malformed".to_string());
            }
        }
        self.probe.observe(&self.cluster.roots());
    }

    fn snapshot(&self) -> TargetSnapshot {
        TargetSnapshot::of((self.cluster.clone(), self.probe.clone()))
    }

    fn restore(&mut self, snapshot: &TargetSnapshot) {
        let (cluster, probe) = snapshot
            .get::<(ShardCluster, DivergenceProbe)>()
            .expect("a shardexec fork session restores shardexec snapshots");
        self.cluster = cluster.clone();
        self.probe = probe.clone();
    }

    fn finish(&mut self, outcome: &mut InjectionOutcome) {
        outcome
            .effects
            .extend(self.probe.finish(&self.cluster.roots()));
    }

    fn state_roots(&self) -> Option<Vec<StateRoot>> {
        Some(self.cluster.roots())
    }
}

/// The shardexec session deployment: a *fresh* cluster processing a
/// `WRITE`, a `SYNC`, and a `READ` in one session — the stateful
/// scenario where a forged sender splits the replicas without incident
/// at slot 0, the anti-entropy round observes the split, and the client
/// read two messages later returns different answers depending on which
/// shard serves it.
///
/// Deliveries are parsed by their kind byte (all three wire formats
/// share the kind-first framing).
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardexecSessionTarget {
    /// Cluster build (patch toggle must match the analyzed server).
    pub config: ShardexecConfig,
}

impl ShardexecSessionTarget {
    /// A session target over the given cluster build.
    pub fn new(config: ShardexecConfig) -> ShardexecSessionTarget {
        ShardexecSessionTarget { config }
    }
}

impl ReplayTarget for ShardexecSessionTarget {
    fn name(&self) -> &'static str {
        "shardexec"
    }

    fn layout(&self) -> Arc<MessageLayout> {
        write_layout()
    }

    fn benign_fields(&self) -> Vec<u64> {
        ShardWrite::correct(0, 1).field_values()
    }

    fn client_generable(&self, fields: &[u64]) -> bool {
        write_generable(fields)
    }

    fn slot_layouts(&self) -> Vec<Arc<MessageLayout>> {
        vec![write_layout(), sync_layout(), read_layout()]
    }

    fn slot_benign_fields(&self, slot: usize) -> Vec<u64> {
        match slot {
            0 => ShardWrite::correct(0, 1).field_values(),
            1 => ShardSync::correct(0, 0).field_values(),
            _ => ShardRead::correct(0).field_values(),
        }
    }

    fn slot_generable(&self, slot: usize, fields: &[u64]) -> bool {
        match slot {
            0 => write_generable(fields),
            1 => sync_generable(fields),
            _ => read_generable(fields),
        }
    }

    fn inject(&self, deliveries: &[Delivery]) -> InjectionOutcome {
        let mut session = ShardexecSessionForkSession::boot(self.config);
        let mut outcome = InjectionOutcome::default();
        for delivery in deliveries {
            session.deliver(delivery, &mut outcome);
        }
        session.finish(&mut outcome);
        outcome
    }

    fn boot_fork(&self) -> Option<Box<dyn SnapshotReplayTarget + '_>> {
        Some(Box::new(ShardexecSessionForkSession::boot(self.config)))
    }

    fn reports_state_roots(&self) -> bool {
        true
    }
}

/// The incremental deployment behind [`ShardexecSessionTarget`]: one
/// live cluster plus the divergence probe, dispatching on the kind byte.
struct ShardexecSessionForkSession {
    cluster: ShardCluster,
    probe: DivergenceProbe,
}

impl ShardexecSessionForkSession {
    fn boot(config: ShardexecConfig) -> ShardexecSessionForkSession {
        ShardexecSessionForkSession {
            cluster: ShardCluster::new(config),
            probe: DivergenceProbe::new(),
        }
    }
}

impl SnapshotReplayTarget for ShardexecSessionForkSession {
    fn deliver(&mut self, delivery: &Delivery, outcome: &mut InjectionOutcome) {
        let (wire, _) = delivery;
        let cluster = &mut self.cluster;
        match wire.first().map(|&k| u64::from(k)) {
            Some(WRITE_KIND) => match ShardWrite::from_wire(wire) {
                Ok(write) => {
                    let accepted = cluster.on_write(write.sender, write.key, write.value);
                    outcome.accepted_each.push(accepted);
                    if accepted {
                        write_effects(&write, outcome);
                    } else {
                        outcome.effects.push("rejected:ingress".to_string());
                    }
                }
                Err(_) => {
                    outcome.accepted_each.push(false);
                    outcome.effects.push("malformed".to_string());
                }
            },
            Some(SYNC_KIND) => match ShardSync::from_wire(wire) {
                Ok(sync) => {
                    let accepted = cluster.on_sync(sync.sender, sync.key);
                    outcome.accepted_each.push(accepted);
                    if !accepted {
                        outcome.effects.push("rejected:sync".to_string());
                    } else if cluster.key_agrees(sync.key) {
                        outcome.effects.push("sync:agree".to_string());
                    } else {
                        // The anti-entropy round sees the replicas
                        // disagreeing — the split is now observable
                        // inside the cluster.
                        outcome.effects.push("sync:split".to_string());
                    }
                }
                Err(_) => {
                    outcome.accepted_each.push(false);
                    outcome.effects.push("malformed".to_string());
                }
            },
            Some(READ_KIND) => match ShardRead::from_wire(wire) {
                Ok(read) => {
                    let accepted = cluster.on_read(read.key);
                    outcome.accepted_each.push(accepted);
                    if !accepted {
                        outcome.effects.push("rejected:read".to_string());
                    } else {
                        match cluster.resolve(read.key) {
                            ReadResolution::Agree(_) => {
                                outcome.effects.push("read:agree".to_string());
                            }
                            ReadResolution::Split => {
                                // The client-visible symptom: which
                                // answer the read returns now depends on
                                // which shard serves it.
                                outcome.effects.push("read:split".to_string());
                            }
                        }
                    }
                }
                Err(_) => {
                    outcome.accepted_each.push(false);
                    outcome.effects.push("malformed".to_string());
                }
            },
            _ => {
                outcome.accepted_each.push(false);
                outcome.effects.push("ignored:unknown-kind".to_string());
            }
        }
        self.probe.observe(&self.cluster.roots());
    }

    fn snapshot(&self) -> TargetSnapshot {
        TargetSnapshot::of((self.cluster.clone(), self.probe.clone()))
    }

    fn restore(&mut self, snapshot: &TargetSnapshot) {
        let (cluster, probe) = snapshot
            .get::<(ShardCluster, DivergenceProbe)>()
            .expect("a shardexec session restores shardexec snapshots");
        self.cluster = cluster.clone();
        self.probe = probe.clone();
    }

    fn finish(&mut self, outcome: &mut InjectionOutcome) {
        outcome
            .effects
            .extend(self.probe.finish(&self.cluster.roots()));
    }

    fn state_roots(&self) -> Option<Vec<StateRoot>> {
        Some(self.cluster.roots())
    }
}

/// The sharded-executor protocol as a [`TargetSpec`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardexecSpec {
    /// The cluster build under analysis (and replay).
    pub config: ShardexecConfig,
}

impl ShardexecSpec {
    /// A spec over the given cluster build.
    pub fn new(config: ShardexecConfig) -> ShardexecSpec {
        ShardexecSpec { config }
    }

    /// The patched build (sender authenticated at ingress): expects zero
    /// Trojans.
    pub fn patched() -> ShardexecSpec {
        ShardexecSpec::new(ShardexecConfig {
            authenticate_sender: true,
        })
    }
}

impl TargetSpec for ShardexecSpec {
    fn name(&self) -> &'static str {
        "shardexec"
    }

    fn description(&self) -> &'static str {
        "sharded executor: unauthenticated cross-shard write sender silently splits the replicas"
    }

    fn layout(&self) -> Arc<MessageLayout> {
        write_layout()
    }

    fn clients(&self) -> Vec<Box<dyn NodeProgram + Sync + '_>> {
        (0..N_SHARDS)
            .map(|shard| Box::new(ShardWriteProgram { shard }) as Box<dyn NodeProgram + Sync>)
            .collect()
    }

    fn server(&self) -> Box<dyn NodeProgram + Sync + '_> {
        Box::new(IngressWriteProgram {
            config: self.config,
        })
    }

    fn expected_trojans(&self) -> Option<usize> {
        // One accepting ingress path; the patched build closes it.
        if self.config.authenticate_sender {
            Some(0)
        } else {
            Some(1)
        }
    }

    fn classify(&self, report: &TrojanReport) -> String {
        let write = ShardWrite::from_field_values(&report.witness_fields);
        if u64::from(write.kind) == WRITE_KIND && write.sender != write.key {
            "sender-spoof".to_string()
        } else {
            "other".to_string()
        }
    }

    fn replay_target(&self) -> Box<dyn ReplayTarget> {
        Box::new(ShardexecTarget::new(self.config))
    }

    fn sessions(&self) -> Vec<SessionSpec> {
        vec![SessionSpec::new(
            "write-sync-read",
            vec![
                SessionSlot::new("write", write_layout(), vec![0, 1, 2]),
                SessionSlot::new("sync", sync_layout(), vec![3]),
                SessionSlot::new("read", read_layout(), vec![4]),
            ],
        )
        // One accepting session path; only the write slot hosts a
        // window, and the patched build closes it.
        .expecting(if self.config.authenticate_sender {
            0
        } else {
            1
        })]
    }

    fn session_clients(&self) -> Vec<Box<dyn NodeProgram + Sync + '_>> {
        let mut clients: Vec<Box<dyn NodeProgram + Sync + '_>> = (0..N_SHARDS)
            .map(|shard| Box::new(ShardWriteProgram { shard }) as Box<dyn NodeProgram + Sync>)
            .collect();
        clients.push(Box::new(SyncRoundProgram));
        clients.push(Box::new(ReadClientProgram));
        clients
    }

    fn session_server(&self, _name: &str) -> Box<dyn NodeProgram + Sync + '_> {
        Box::new(SessionShardProgram {
            config: self.config,
        })
    }

    fn session_replay_target(&self, _name: &str) -> Box<dyn ReplayTarget> {
        Box::new(ShardexecSessionTarget::new(self.config))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use achilles::{effects_diverged, AchillesSession, DivergenceSignature};

    fn diverged(outcome: &InjectionOutcome) -> bool {
        effects_diverged(outcome.effects.iter().map(String::as_str))
    }

    #[test]
    fn discovery_finds_the_sender_spoof_trojan() {
        let spec = ShardexecSpec::default();
        let report = AchillesSession::new(&spec).run();
        assert_eq!(Some(report.trojans.len()), spec.expected_trojans());
        let t = &report.trojans[0];
        assert!(
            t.verified,
            "witness re-verified against the shard libraries"
        );
        let write = ShardWrite::from_field_values(&t.witness_fields);
        assert_eq!(u64::from(write.kind), WRITE_KIND);
        assert!(u64::from(write.sender) < N_SHARDS);
        assert!(u64::from(write.key) < N_KEYS);
        assert!(write.value >= 1 && u64::from(write.value) < MAX_VALUE);
        assert_ne!(
            write.sender, write.key,
            "the only un-generable accepted field pair is a forged sender: {write:?}"
        );
        assert_eq!(spec.classify(t), "sender-spoof");
    }

    #[test]
    fn patched_build_is_trojan_free() {
        let spec = ShardexecSpec::patched();
        let report = AchillesSession::new(&spec).run();
        assert_eq!(report.trojans.len(), 0, "sender auth closes the bug");
        let sessions = AchillesSession::new(&spec).run_sessions();
        assert_eq!(sessions[0].trojans.len(), 0);
    }

    #[test]
    fn declared_session_finds_the_trojan_with_write_slot_attribution() {
        let spec = ShardexecSpec::default();
        let mut session = AchillesSession::new(&spec);
        let reports = session.run_sessions();
        assert_eq!(reports.len(), 1);
        let r = &reports[0];
        assert_eq!(r.session, "write-sync-read");
        assert_eq!(r.slot_names, vec!["write", "sync", "read"]);
        assert_eq!(Some(r.trojans.len()), r.expected_trojans);
        assert_eq!(
            r.trojan_slots[0],
            vec![0],
            "only the write slot hosts the Trojan"
        );
        let parts = r.split_fields(&r.trojans[0].witness_fields);
        let write = ShardWrite::from_field_values(&parts[0]);
        let sync = ShardSync::from_field_values(&parts[1]);
        let read = ShardRead::from_field_values(&parts[2]);
        assert_ne!(write.sender, write.key, "forged sender identity");
        assert_eq!(sync.key, write.key, "the round probes the written key");
        assert_eq!(read.key, write.key, "the read resolves the written key");
    }

    #[test]
    fn forged_sender_splits_and_detonates_at_read_time() {
        // The implicit interaction, concretely: the forged write is
        // routed without incident, the anti-entropy round observes the
        // split, and the client read returns shard-dependent answers.
        let target = ShardexecSessionTarget::default();
        let forged = ShardWrite {
            kind: WRITE_KIND as u8,
            sender: 2,
            key: 0,
            value: 7,
        };
        let outcome = target.inject(&[
            (forged.to_wire(), true),
            (ShardSync::correct(1, 0).to_wire(), true),
            (ShardRead::correct(0).to_wire(), true),
        ]);
        assert_eq!(outcome.accepted_each, vec![true, true, true]);
        assert!(outcome.effects.contains(&"family:sender-spoof".to_string()));
        assert!(outcome.effects.contains(&"sync:split".to_string()));
        assert!(outcome.effects.contains(&"read:split".to_string()));
        assert!(
            diverged(&outcome),
            "the replicas split: {:?}",
            outcome.effects
        );
        let sig =
            DivergenceSignature::from_effects(outcome.effects.iter().map(String::as_str)).unwrap();
        assert_eq!(sig.first_split, 0, "the write itself splits the cluster");
        assert_eq!(
            sig.split_sets(),
            vec![vec!["shard0", "shard1"], vec!["shard2"]],
            "the forged sender names exactly the shard left behind"
        );
        assert!(!target.slot_generable(0, &forged.field_values()));
        assert!(target.slot_generable(1, &ShardSync::correct(1, 0).field_values()));
        assert!(target.slot_generable(2, &ShardRead::correct(0).field_values()));

        // A fully authentic session stays converged.
        let benign = ShardWrite::correct(0, 7);
        let outcome = target.inject(&[
            (benign.to_wire(), true),
            (ShardSync::correct(1, 0).to_wire(), true),
            (ShardRead::correct(0).to_wire(), true),
        ]);
        assert_eq!(outcome.accepted_each, vec![true, true, true]);
        assert!(!diverged(&outcome));
        assert!(outcome.effects.contains(&"sync:agree".to_string()));
        assert!(outcome.effects.contains(&"read:agree".to_string()));
    }

    #[test]
    fn single_message_target_confirms_and_diverges_on_the_witness() {
        let target = ShardexecTarget::default();
        let forged = ShardWrite {
            kind: WRITE_KIND as u8,
            sender: 1,
            key: 2,
            value: 40,
        };
        let outcome = target.inject(&[(forged.to_wire(), true)]);
        assert_eq!(outcome.accepted_each, vec![true]);
        assert!(outcome.effects.contains(&"family:sender-spoof".to_string()));
        assert!(diverged(&outcome));
        assert!(!target.client_generable(&forged.field_values()));

        // An authentic write stays converged.
        let benign = ShardWrite::correct(1, 40);
        let outcome = target.inject(&[(benign.to_wire(), true)]);
        assert_eq!(outcome.accepted_each, vec![true]);
        assert!(!diverged(&outcome));
        assert!(target.client_generable(&benign.field_values()));
    }

    #[test]
    fn discovery_is_worker_count_invariant() {
        let spec = ShardexecSpec::default();
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
}
