//! The replay harness around a [`ReplayTarget`].
//!
//! A [`ReplayTarget`] (defined in `achilles-core`, produced by
//! [`TargetSpec::replay_target`](achilles::TargetSpec::replay_target) or
//! [`TargetSpec::session_replay_target`](achilles::TargetSpec::session_replay_target))
//! boots a fresh concrete deployment per injection and fires a delivery
//! plan of wire datagrams at it. Booting per injection is what makes
//! replay a pure function of the witness bytes: results are bit-identical
//! across worker counts, runs, and machines.
//!
//! [`replay_session`] is the harness around a target: [`plan_session`]
//! expands a [`FaultSchedule`] into the delivery plan (per slot: drop,
//! duplicate, a benign companion delivered first, single bit-flip via
//! [`achilles_netsim::flip_bit`] — the paper's S3 motivating fault), and
//! [`classify_session`] classifies the outcome against the per-slot
//! client-generability oracle and folds everything into a
//! [`CrashSignature`] for triage. A single-message witness is a one-slot
//! session: the target's `slot_*` defaults are its
//! [`layout`](ReplayTarget::layout),
//! [`benign_fields`](ReplayTarget::benign_fields) and
//! [`client_generable`](ReplayTarget::client_generable).
//!
//! The concrete deployments themselves live with their protocols
//! (`achilles_fsp::FspTarget`, `achilles_pbft::PbftTarget`,
//! `achilles_paxos::PaxosTarget`, `achilles_twopc::TwopcTarget`, …): the
//! harness never names a protocol, which is what lets a new protocol crate
//! plug into validation without touching this crate.

pub use achilles::{Delivery, InjectionOutcome, ReplayTarget};
use achilles_netsim::flip_bit;

use crate::signature::CrashSignature;
use crate::witness::{fields_to_wire, wire_to_fields, SessionWitness};

/// Network faults applied to *one delivery position* of a session replay,
/// addressed through a [`FaultSchedule`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeliveryFault {
    /// Drop this slot's witness message (the session never completes).
    pub drop: bool,
    /// Deliver this slot's witness message twice.
    pub duplicate: bool,
    /// Deliver a benign, correct-client message for this slot *before* the
    /// witness message (a benign interleaving between session slots).
    pub benign_before: bool,
    /// Flip one bit (0 = LSB of byte 0) of this slot's wire bytes before
    /// delivery.
    pub flip_bit: Option<usize>,
}

impl DeliveryFault {
    /// The fault-free delivery.
    pub fn none() -> DeliveryFault {
        DeliveryFault::default()
    }
}

/// A per-delivery fault schedule for a session replay: which fault (if
/// any) hits each slot of the message sequence.
///
/// Positions past the end of `slots` are fault-free, so
/// [`FaultSchedule::none`] is the fault-free schedule for *every* session
/// length.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    /// Per-slot faults, aligned with the session's slot order.
    pub slots: Vec<DeliveryFault>,
}

impl FaultSchedule {
    /// The fault-free schedule: every slot delivered once, verbatim, in
    /// order.
    pub fn none() -> FaultSchedule {
        FaultSchedule::default()
    }

    /// A schedule applying `fault` at `slot` (every other position
    /// fault-free).
    pub fn at(slot: usize, fault: DeliveryFault) -> FaultSchedule {
        FaultSchedule::none().with(slot, fault)
    }

    /// Sets the fault at `slot`, extending the schedule as needed.
    pub fn with(mut self, slot: usize, fault: DeliveryFault) -> FaultSchedule {
        if self.slots.len() <= slot {
            self.slots.resize(slot + 1, DeliveryFault::none());
        }
        self.slots[slot] = fault;
        self
    }

    /// The fault at `slot` (fault-free past the end).
    pub fn fault_for(&self, slot: usize) -> DeliveryFault {
        self.slots.get(slot).copied().unwrap_or_default()
    }
}

/// Classification of one witness replay.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ReplayVerdict {
    /// The deployment accepted a message no correct client generates — the
    /// symbolic finding is concretely confirmed.
    ConfirmedTrojan,
    /// The deployment accepted the message, but a correct client could have
    /// produced it (benign; not a Trojan).
    AcceptedGenerable,
    /// The deployment rejected every delivered copy.
    Rejected,
    /// The fault plan dropped the witness before delivery.
    Dropped,
}

impl ReplayVerdict {
    /// Stable corpus-form name.
    pub fn as_str(self) -> &'static str {
        match self {
            ReplayVerdict::ConfirmedTrojan => "confirmed",
            ReplayVerdict::AcceptedGenerable => "benign-accept",
            ReplayVerdict::Rejected => "rejected",
            ReplayVerdict::Dropped => "dropped",
        }
    }

    /// Parses the [`ReplayVerdict::as_str`] form.
    pub fn parse(s: &str) -> Option<ReplayVerdict> {
        Some(match s {
            "confirmed" => ReplayVerdict::ConfirmedTrojan,
            "benign-accept" => ReplayVerdict::AcceptedGenerable,
            "rejected" => ReplayVerdict::Rejected,
            "dropped" => ReplayVerdict::Dropped,
            _ => return None,
        })
    }
}

/// The full record of one session-witness replay.
#[derive(Clone, Debug)]
pub struct SessionReplayResult {
    /// The injected session witness (pre-fault provenance).
    pub witness: SessionWitness,
    /// Raw injection outcome over the whole delivery sequence.
    pub outcome: InjectionOutcome,
    /// The schedule *actually applied*. Differs from the requested one
    /// exactly when a fault could not be applied — an out-of-range
    /// `flip_bit` index is recorded here as `None`, so a schedule sweep
    /// never misclassifies an unflipped run as "survives bit-flip".
    pub applied: FaultSchedule,
    /// Per-slot generability of the *delivered* (post-fault) message;
    /// `None` for slots the schedule dropped.
    pub generable_slots: Vec<Option<bool>>,
    /// Delivered slots whose message no correct client can produce — the
    /// concrete slot attribution.
    pub trojan_slots: Vec<usize>,
    /// Final classification.
    pub verdict: ReplayVerdict,
    /// Structural signature for dedup/triage (slot-aware).
    pub signature: CrashSignature,
}

/// The expanded delivery plan of one (witness, schedule) cell — the
/// post-fault-application sequence the target actually consumes.
///
/// Built by [`plan_session`], executed either by a cold
/// [`ReplayTarget::inject`] (via [`replay_session`]) or incrementally by
/// the fork-server ([`crate::fork`]), and folded into a
/// [`SessionReplayResult`] by [`classify_session`]. Because the plan is
/// computed *before* execution, two schedules that expand to the same
/// delivery prefix share it byte-for-byte — the property the fork-server's
/// delivery-prefix trie keys on.
#[derive(Clone, Debug)]
pub struct SessionPlan {
    /// The expanded deliveries, in slot order (benign interleavings before
    /// each slot's possibly bit-flipped witness copies; dropped slots
    /// contribute nothing).
    pub deliveries: Vec<Delivery>,
    /// Slot index of each delivery, aligned with `deliveries`.
    pub delivery_slot: Vec<usize>,
    /// The schedule *actually applied* (out-of-range `flip_bit` entries
    /// recorded as `None`).
    pub applied: FaultSchedule,
    /// Per-slot generability of the *delivered* (post-fault) message;
    /// `None` for slots the schedule dropped.
    pub generable_slots: Vec<Option<bool>>,
}

/// Expands a (witness, schedule) cell into its [`SessionPlan`].
///
/// # Panics
///
/// Panics if the witness's slot count differs from the target's
/// [`slot_layouts`](ReplayTarget::slot_layouts).
pub fn plan_session(
    target: &dyn ReplayTarget,
    witness: &SessionWitness,
    schedule: &FaultSchedule,
) -> SessionPlan {
    let layouts = target.slot_layouts();
    assert_eq!(
        layouts.len(),
        witness.slots(),
        "session witness arity matches the target's slot layouts"
    );
    let mut applied = FaultSchedule {
        slots: Vec::with_capacity(witness.slots()),
    };
    let mut deliveries: Vec<Delivery> = Vec::new();
    // Slot index of each delivery, aligned with `deliveries`.
    let mut delivery_slot: Vec<usize> = Vec::new();
    let mut generable_slots: Vec<Option<bool>> = Vec::with_capacity(witness.slots());
    for (slot, ((slot_wire, slot_fields), layout)) in witness
        .wire
        .iter()
        .zip(&witness.fields)
        .zip(&layouts)
        .enumerate()
    {
        let fault = schedule.fault_for(slot);
        let mut applied_fault = fault;
        let mut wire = slot_wire.clone();
        let mut delivered_fields = slot_fields.clone();
        if fault.drop {
            // The slot's message never reaches the target: the duplicate
            // and the bit-flip were not applied to anything delivered.
            applied_fault.duplicate = false;
            applied_fault.flip_bit = None;
        } else if let Some(bit) = fault.flip_bit {
            if bit < wire.len() * 8 {
                wire = flip_bit(&wire, bit);
                delivered_fields = wire_to_fields(layout, &wire)
                    .expect("a flipped copy of an encodable message decodes");
            } else {
                applied_fault.flip_bit = None;
            }
        }
        if fault.benign_before {
            let benign = target.slot_benign_fields(slot);
            let bw =
                fields_to_wire(layout, &benign).expect("benign messages encode by construction");
            deliveries.push((bw, false));
            delivery_slot.push(slot);
        }
        if fault.drop {
            generable_slots.push(None);
        } else {
            deliveries.push((wire.clone(), true));
            delivery_slot.push(slot);
            if fault.duplicate {
                deliveries.push((wire, true));
                delivery_slot.push(slot);
            }
            generable_slots.push(Some(target.slot_generable(slot, &delivered_fields)));
        }
        applied.slots.push(applied_fault);
    }
    SessionPlan {
        deliveries,
        delivery_slot,
        applied,
        generable_slots,
    }
}

/// Folds an executed [`SessionPlan`]'s [`InjectionOutcome`] into the full
/// [`SessionReplayResult`] — classification is a pure function of (plan,
/// outcome), so cold-boot and fork-server execution classify identically.
pub fn classify_session(
    target: &dyn ReplayTarget,
    witness: &SessionWitness,
    plan: SessionPlan,
    outcome: InjectionOutcome,
) -> SessionReplayResult {
    debug_assert_eq!(outcome.accepted_each.len(), plan.deliveries.len());
    let any_dropped = plan.generable_slots.iter().any(Option::is_none);
    // A slot is accepted when at least one of its witness copies was.
    let session_accepted = (0..witness.slots()).all(|slot| {
        plan.generable_slots[slot].is_none()
            || outcome
                .accepted_each
                .iter()
                .zip(plan.deliveries.iter().zip(&plan.delivery_slot))
                .any(|(&a, ((_, w), &s))| a && *w && s == slot)
    });
    let trojan_slots: Vec<usize> = plan
        .generable_slots
        .iter()
        .enumerate()
        .filter(|(_, g)| **g == Some(false))
        .map(|(s, _)| s)
        .collect();
    let verdict = if any_dropped {
        ReplayVerdict::Dropped
    } else if session_accepted && !trojan_slots.is_empty() {
        ReplayVerdict::ConfirmedTrojan
    } else if session_accepted {
        ReplayVerdict::AcceptedGenerable
    } else {
        ReplayVerdict::Rejected
    };
    let mut effects = outcome.effects.clone();
    effects.extend(trojan_slots.iter().map(|s| format!("trojan-slot:{s}")));
    let signature = CrashSignature::for_session(target.name(), verdict, witness.slots(), effects);
    SessionReplayResult {
        witness: witness.clone(),
        outcome,
        applied: plan.applied,
        generable_slots: plan.generable_slots,
        trojan_slots,
        verdict,
        signature,
    }
}

/// Replays one session witness against a target under a per-delivery fault
/// schedule.
///
/// The delivery plan is the session's slots in order, expanded by the
/// schedule: benign interleavings before a slot, duplicated or dropped
/// slot messages, and single bit-flips at any position. The whole plan
/// goes through one [`ReplayTarget::inject`] delivery vector; the
/// deployment consumes it statefully.
///
/// Classification: a session whose schedule dropped any witness message is
/// [`ReplayVerdict::Dropped`]; otherwise the session must be *accepted in
/// every slot* (each slot's witness message accepted at least once) to
/// count as accepted, and it confirms as a Trojan when at least one
/// delivered slot's message is un-generable by that slot's correct
/// clients — `⋁ₛ ¬genₛ(mₛ)`.
///
/// # Panics
///
/// Panics if the witness's slot count differs from the target's
/// [`slot_layouts`](ReplayTarget::slot_layouts).
pub fn replay_session(
    target: &dyn ReplayTarget,
    witness: &SessionWitness,
    schedule: &FaultSchedule,
) -> SessionReplayResult {
    let plan = plan_session(target, witness, schedule);
    let outcome = target.inject(&plan.deliveries);
    classify_session(target, witness, plan, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::witness::session_from_report;
    use achilles::TrojanReport;
    use achilles_fsp::{Command, FspMessage, FspServerConfig, FspTarget};
    use achilles_paxos::{PaxosTarget, ProposerMode, ACCEPT_KIND};
    use achilles_pbft::{ClusterConfig, PbftRequest, PbftTarget};
    use std::time::Duration;

    /// The one-slot session witness of `fields` on `target`.
    fn one_slot(target: &dyn ReplayTarget, fields: Vec<u64>) -> SessionWitness {
        let report = TrojanReport {
            server_path_id: 0,
            constraints: vec![],
            witness_fields: fields,
            active_clients: 0,
            verified: true,
            found_at: Duration::ZERO,
            notes: vec![],
        };
        session_from_report(&target.slot_layouts(), 0, &report).unwrap()
    }

    /// Replays `msg` on `target` with `fault` on its only slot.
    fn replay_fsp(
        target: &FspTarget,
        msg: &FspMessage,
        fault: DeliveryFault,
    ) -> SessionReplayResult {
        let witness = one_slot(target, msg.field_values());
        replay_session(target, &witness, &FaultSchedule::at(0, fault))
    }

    #[test]
    fn fsp_length_mismatch_confirms() {
        let target = FspTarget::new(FspServerConfig::default(), false);
        let mut msg = FspMessage::request(Command::Stat, b"a");
        msg.bb_len = 3;
        msg.buf = [b'a', 0, 0x77, 0];
        let result = replay_fsp(&target, &msg, DeliveryFault::none());
        assert_eq!(result.verdict, ReplayVerdict::ConfirmedTrojan);
        assert!(result
            .signature
            .effects
            .iter()
            .any(|e| e.starts_with("family:len-mismatch:fstat")));
        assert!(result.signature.effects.contains(&"trojan-slot:0".into()));
        assert_eq!(result.signature.slots, 1);
    }

    #[test]
    fn fsp_benign_request_is_generable() {
        let target = FspTarget::new(FspServerConfig::default(), false);
        let msg = FspMessage::request(Command::DelFile, b"f1");
        let result = replay_fsp(&target, &msg, DeliveryFault::none());
        assert_eq!(result.verdict, ReplayVerdict::AcceptedGenerable);
        assert!(result.signature.effects.contains(&"fs:-f1".to_string()));
        assert!(result.trojan_slots.is_empty());
    }

    #[test]
    fn fsp_patched_server_rejects_the_witness() {
        let config = FspServerConfig {
            check_actual_length: true,
            ..FspServerConfig::default()
        };
        let target = FspTarget::new(config, false);
        let mut msg = FspMessage::request(Command::Stat, b"a");
        msg.bb_len = 3;
        msg.buf = [b'a', 0, 0x77, 0];
        let result = replay_fsp(&target, &msg, DeliveryFault::none());
        assert_eq!(result.verdict, ReplayVerdict::Rejected);
    }

    #[test]
    fn fault_plan_drop_and_duplicate() {
        let target = FspTarget::new(FspServerConfig::default(), false);
        let msg = FspMessage::request(Command::DelFile, b"f1");
        let dropped = replay_fsp(
            &target,
            &msg,
            DeliveryFault {
                drop: true,
                ..DeliveryFault::none()
            },
        );
        assert_eq!(dropped.verdict, ReplayVerdict::Dropped);
        let dup = replay_fsp(
            &target,
            &msg,
            DeliveryFault {
                duplicate: true,
                ..DeliveryFault::none()
            },
        );
        // First copy deletes /f1, the second copy fails on the missing file.
        assert_eq!(dup.outcome.accepted_each, vec![true, true]);
        assert!(dup.signature.effects.contains(&"reply:err".to_string()));
    }

    #[test]
    fn bit_flip_arms_the_wildcard() {
        // 'j' (0x6a) with bit 6 flipped is '*' (0x2a): a benign request for
        // file "j" becomes a wildcard Trojan in flight — the paper's
        // motivating single-bit corruption.
        let target = FspTarget::new(FspServerConfig::default(), true);
        let msg = FspMessage::request(Command::DelFile, b"j");
        let wire = msg.to_wire();
        // First payload byte of `buf` in the wire layout.
        let buf_byte = wire.len() - achilles_fsp::MAX_PATH;
        let result = replay_fsp(
            &target,
            &msg,
            DeliveryFault {
                flip_bit: Some(buf_byte * 8 + 6),
                ..DeliveryFault::none()
            },
        );
        // The *flipped* message is what the server saw — and what the
        // generability oracle must judge: a glob-expanding client can never
        // send a literal '*', so the in-flight corruption armed a Trojan.
        assert!(result
            .signature
            .effects
            .iter()
            .any(|e| e.starts_with("family:wildcard")));
        assert_eq!(
            result.generable_slots,
            vec![Some(false)],
            "no glob client sends a literal '*'"
        );
        assert_eq!(result.verdict, ReplayVerdict::ConfirmedTrojan);
    }

    #[test]
    fn out_of_range_flip_bit_is_recorded_as_not_applied() {
        // Regression: an out-of-range `flip_bit` index used to be silently
        // skipped while the result still looked like a faulted replay, so
        // a schedule sweep misclassified those runs as "survives bit-flip".
        let target = FspTarget::new(FspServerConfig::default(), false);
        let msg = FspMessage::request(Command::DelFile, b"f1");
        let wire_bits = msg.to_wire().len() * 8;
        let requested = DeliveryFault {
            flip_bit: Some(wire_bits + 3),
            ..DeliveryFault::none()
        };
        let result = replay_fsp(&target, &msg, requested);
        assert_eq!(
            result.applied.fault_for(0).flip_bit,
            None,
            "the fault never touched the wire and must be reported as such"
        );
        assert_eq!(result.applied.slots, vec![DeliveryFault::none()]);
        // The unflipped message is the benign original.
        assert_eq!(result.verdict, ReplayVerdict::AcceptedGenerable);

        // In-range flips still record as applied.
        let in_range = replay_fsp(
            &target,
            &msg,
            DeliveryFault {
                flip_bit: Some(6),
                ..DeliveryFault::none()
            },
        );
        assert_eq!(in_range.applied.fault_for(0).flip_bit, Some(6));

        // Drop masks the other witness faults: nothing was delivered, so
        // neither the duplicate nor the flip counts as applied.
        let masked = replay_fsp(
            &target,
            &msg,
            DeliveryFault {
                drop: true,
                duplicate: true,
                flip_bit: Some(6),
                ..DeliveryFault::none()
            },
        );
        assert_eq!(masked.verdict, ReplayVerdict::Dropped);
        let applied = masked.applied.fault_for(0);
        assert!(applied.drop);
        assert!(!applied.duplicate);
        assert_eq!(applied.flip_bit, None);
    }

    #[test]
    fn reorder_delivers_benign_companion_first() {
        let target = FspTarget::new(FspServerConfig::default(), false);
        let mut msg = FspMessage::request(Command::Stat, b"a");
        msg.bb_len = 2;
        msg.buf = [b'a', 0, 0, 0];
        let witness = one_slot(&target, msg.field_values());
        let schedule = FaultSchedule::at(
            0,
            DeliveryFault {
                benign_before: true,
                ..DeliveryFault::none()
            },
        );
        let plan = plan_session(&target, &witness, &schedule);
        let benign = fields_to_wire(&target.layout(), &target.benign_fields()).unwrap();
        assert_eq!(
            plan.deliveries,
            vec![(benign, false), (witness.wire[0].clone(), true)],
            "the benign companion goes out before the witness"
        );
        let result = replay_session(&target, &witness, &schedule);
        assert_eq!(result.outcome.accepted_each.len(), 2);
        assert_eq!(result.verdict, ReplayVerdict::ConfirmedTrojan);
    }

    #[test]
    fn pbft_witness_triggers_recovery() {
        let target = PbftTarget::new(ClusterConfig::default());
        let req = PbftRequest::correct(0, 1, *b"op__").with_corrupted_mac(1);
        let witness = one_slot(&target, req.field_values());
        let result = replay_session(&target, &witness, &FaultSchedule::none());
        assert_eq!(result.verdict, ReplayVerdict::ConfirmedTrojan);
        assert!(result
            .signature
            .effects
            .contains(&"outcome:recovered".to_string()));
        assert!(result.signature.effects.contains(&"bad_macs:1".to_string()));
    }

    #[test]
    fn pbft_correct_request_is_benign() {
        // False-positive guard: a correct client request must classify as
        // AcceptedGenerable, never as a confirmed Trojan.
        let target = PbftTarget::new(ClusterConfig::default());
        let req = PbftRequest::correct(2, 9, *b"op__");
        let witness = one_slot(&target, req.field_values());
        let result = replay_session(&target, &witness, &FaultSchedule::none());
        assert_eq!(result.verdict, ReplayVerdict::AcceptedGenerable);
        assert!(result
            .signature
            .effects
            .contains(&"outcome:fast-path".to_string()));
    }

    #[test]
    fn paxos_foreign_value_confirms() {
        let target = PaxosTarget::new(5, ProposerMode::Concrete(5, 7));
        let witness = one_slot(&target, vec![ACCEPT_KIND, 5, 99]);
        let result = replay_session(&target, &witness, &FaultSchedule::none());
        assert_eq!(result.verdict, ReplayVerdict::ConfirmedTrojan);
        assert!(result
            .signature
            .effects
            .contains(&"value:foreign".to_string()));
    }

    #[test]
    fn paxos_stale_ballot_rejected() {
        let target = PaxosTarget::new(10, ProposerMode::Concrete(10, 7));
        let witness = one_slot(&target, vec![ACCEPT_KIND, 3, 7]);
        let result = replay_session(&target, &witness, &FaultSchedule::none());
        assert_eq!(result.verdict, ReplayVerdict::Rejected);
    }
}
