//! The sharded witness store: per-target shards of session-witness
//! corpora plus their sweep results.
//!
//! The store is plain data behind the service's state lock — shards hold
//! witnesses in ingest order (witness ids are indices, so a re-seeded
//! store answers queries in the same order the batch pipeline reports
//! witnesses), dedupe on the *canonical* record form
//! ([`session_witness_record`] of the parsed fields, so `"03,2/1"` and
//! `"3,2/1"` are one witness), and carry one optional [`WitnessResult`]
//! per witness — present once a campaign executor has published the
//! witness's sensitivity matrix for the current spec epoch.
//!
//! Durability reuses the **replay corpus format** (currently v4) verbatim:
//! a session shard serializes as one [`ReplayCorpus`] whose entry
//! signatures are the witnesses' fault-free baseline signatures. No
//! witness serialization of its own, no version of its own — a corpus
//! file written by the replay pipeline seeds a fleetd shard and vice
//! versa, and a corpus format bump rolls fleetd state over with it.

use std::collections::HashMap;
use std::sync::Arc;

use achilles::export::{parse_session_witness_record, session_witness_record};
use achilles::{SessionSpec, TargetSpec};
use achilles_replay::witness::fields_to_wire;
use achilles_replay::{CorpusEntry, ReplayCorpus, SessionWitness};
use achilles_sweep::SensitivityMatrix;
use achilles_symvm::MessageLayout;

/// One witness's published campaign result.
#[derive(Clone, Debug)]
pub struct WitnessResult {
    /// The sensitivity matrix, bit-identical to the batch pipeline's.
    pub matrix: SensitivityMatrix,
    /// Replays the campaign actually performed for this witness.
    pub replayed: usize,
    /// Cells answered from the sweep cache.
    pub cache_hits: usize,
}

/// One stored witness within a session shard.
#[derive(Clone, Debug)]
pub struct StoredWitness {
    /// Witness id — the index within the shard, in ingest order.
    pub id: usize,
    /// Canonical record form (the dedupe key).
    pub record: String,
    /// The concretized witness.
    pub witness: SessionWitness,
    /// The published result, once a campaign has completed for the
    /// current epoch.
    pub result: Option<WitnessResult>,
}

/// One declared session's witnesses and layouts.
#[derive(Clone, Debug)]
pub struct SessionShard {
    /// The declared session name.
    pub session: String,
    /// Per-slot wire layouts (validation + concretization at ingest).
    pub layouts: Vec<Arc<MessageLayout>>,
    /// Stored witnesses in ingest order (id = index).
    pub witnesses: Vec<StoredWitness>,
    known: HashMap<String, usize>,
}

impl SessionShard {
    fn new(spec: &SessionSpec) -> SessionShard {
        SessionShard {
            session: spec.name.clone(),
            layouts: spec.slots.iter().map(|slot| slot.layout.clone()).collect(),
            witnesses: Vec::new(),
            known: HashMap::new(),
        }
    }

    /// Parses, validates, and concretizes a witness record against this
    /// shard's slot layouts, returning the canonical record form and the
    /// witness.
    ///
    /// # Errors
    ///
    /// Describes the malformation: unparsable record, wrong slot count,
    /// wrong per-slot field count, or a field value the slot's wire
    /// layout cannot encode.
    pub fn witness_from_record(&self, record: &str) -> Result<(String, SessionWitness), String> {
        let fields = parse_session_witness_record(record)
            .ok_or_else(|| format!("unparsable witness record {record:?}"))?;
        if fields.len() != self.layouts.len() {
            return Err(format!(
                "session {} has {} slot(s), record has {}",
                self.session,
                self.layouts.len(),
                fields.len()
            ));
        }
        let mut wire = Vec::with_capacity(fields.len());
        for (slot, (slot_fields, layout)) in fields.iter().zip(&self.layouts).enumerate() {
            if slot_fields.len() != layout.num_fields() {
                return Err(format!(
                    "slot {slot} of session {} has {} field(s), record has {}",
                    self.session,
                    layout.num_fields(),
                    slot_fields.len()
                ));
            }
            wire.push(
                fields_to_wire(layout, slot_fields)
                    .map_err(|e| format!("slot {slot} is not wire-encodable: {e:?}"))?,
            );
        }
        let canonical = session_witness_record(&fields);
        let id = self.witnesses.len();
        Ok((
            canonical,
            SessionWitness {
                index: id,
                server_path_id: 0,
                fields,
                wire,
            },
        ))
    }

    /// The stored id of a canonical record, if present.
    pub fn lookup(&self, canonical: &str) -> Option<usize> {
        self.known.get(canonical).copied()
    }

    /// Stores a new witness, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if the canonical record is already stored — callers dedupe
    /// via [`SessionShard::lookup`] first.
    pub fn store(&mut self, canonical: String, witness: SessionWitness) -> usize {
        assert!(
            !self.known.contains_key(&canonical),
            "dedupe before storing"
        );
        let id = self.witnesses.len();
        self.known.insert(canonical.clone(), id);
        self.witnesses.push(StoredWitness {
            id,
            record: canonical,
            witness,
            result: None,
        });
        id
    }

    /// Drops one witness by id. Later ids shift down (ids are indices);
    /// their published results stay valid — only the eviction's cells are
    /// invalidated by the caller.
    pub fn evict(&mut self, id: usize) -> Option<StoredWitness> {
        if id >= self.witnesses.len() {
            return None;
        }
        let gone = self.witnesses.remove(id);
        self.known.remove(&gone.record);
        for witness in &mut self.witnesses[id..] {
            witness.id -= 1;
            *self
                .known
                .get_mut(&witness.record)
                .expect("stored witnesses stay indexed") = witness.id;
        }
        Some(gone)
    }

    /// Serializes the shard's *completed* witnesses as a replay corpus
    /// (entry signature = the witness's fault-free baseline signature).
    /// Pending witnesses are skipped — a drain precedes every save.
    pub fn to_corpus(&self) -> ReplayCorpus {
        let mut corpus = ReplayCorpus::new();
        for stored in &self.witnesses {
            if let Some(result) = &stored.result {
                corpus.insert(CorpusEntry::session(
                    result.matrix.baseline_signature.clone(),
                    &stored.witness.fields,
                    &[],
                ));
            }
        }
        corpus
    }
}

/// One registered target's shards.
#[derive(Clone, Debug)]
pub struct TargetShard {
    /// The target's registry name.
    pub target: String,
    /// Spec epoch: bumped by `EPOCH`, stamped onto enqueued work so
    /// results derived against an older spec are dropped, not published.
    pub epoch: u64,
    /// One shard per declared session, in declaration order (matching
    /// the batch pipeline's report order).
    pub sessions: Vec<SessionShard>,
}

impl TargetShard {
    /// The shard of one declared session.
    pub fn session(&self, name: &str) -> Option<&SessionShard> {
        self.sessions.iter().find(|s| s.session == name)
    }

    /// Mutable form of [`TargetShard::session`].
    pub fn session_mut(&mut self, name: &str) -> Option<&mut SessionShard> {
        self.sessions.iter_mut().find(|s| s.session == name)
    }
}

/// The whole witness store: one [`TargetShard`] per registered target.
#[derive(Clone, Debug, Default)]
pub struct WitnessStore {
    /// Registered targets in registration order.
    pub targets: Vec<TargetShard>,
}

impl WitnessStore {
    /// An empty store.
    pub fn new() -> WitnessStore {
        WitnessStore::default()
    }

    /// Activates a spec: one empty shard per declared session. Idempotent
    /// — re-registering keeps the existing shards and witnesses. Returns
    /// the number of session shards.
    pub fn register(&mut self, spec: &dyn TargetSpec) -> usize {
        if let Some(shard) = self.target(spec.name()) {
            return shard.sessions.len();
        }
        let sessions: Vec<SessionShard> = spec.sessions().iter().map(SessionShard::new).collect();
        let count = sessions.len();
        self.targets.push(TargetShard {
            target: spec.name().to_string(),
            epoch: 0,
            sessions,
        });
        count
    }

    /// The shard of one registered target.
    pub fn target(&self, name: &str) -> Option<&TargetShard> {
        self.targets.iter().find(|t| t.target == name)
    }

    /// Mutable form of [`WitnessStore::target`].
    pub fn target_mut(&mut self, name: &str) -> Option<&mut TargetShard> {
        self.targets.iter_mut().find(|t| t.target == name)
    }

    /// Total stored witnesses across every shard.
    pub fn witnesses(&self) -> usize {
        self.targets
            .iter()
            .flat_map(|t| &t.sessions)
            .map(|s| s.witnesses.len())
            .sum()
    }

    /// Total published results across every shard.
    pub fn results(&self) -> usize {
        self.targets
            .iter()
            .flat_map(|t| &t.sessions)
            .flat_map(|s| &s.witnesses)
            .filter(|w| w.result.is_some())
            .count()
    }
}
