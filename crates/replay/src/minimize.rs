//! ddmin-style witness minimization.
//!
//! A solver witness carries whatever values the model search happened to
//! pick: don't-care bytes, arbitrary padding, incidental field choices.
//! [`minimize_session`] shrinks a confirmed session witness to the
//! smallest set of `(slot, field)` pairs that still reproduces its
//! [`CrashSignature`], by resetting candidate fields to each slot's benign
//! baseline message and replaying — Zeller's delta debugging over the
//! *field-difference set* between witness and baseline. A single-message
//! witness is a one-slot session, so its pairs are all `(0, field)`.
//!
//! The output names the **essential fields**: the ones a developer has to
//! look at to understand the bug (for the FSP length-mismatch family,
//! `bb_len` and the NUL position; for PBFT, the corrupted authenticator;
//! everything else resets to benign values).
//!
//! Divergence Trojans get their own oracle: [`minimize_session_divergence`]
//! preserves the *split structure* (same nodes, same delivery index, via
//! [`DivergenceSignature::same_split`]) instead of the exact signature,
//! because resetting an incidental field changes the concrete state and so
//! every root digest — exact-signature ddmin could never shed anything.

use achilles::DivergenceSignature;

use crate::signature::CrashSignature;
use crate::target::{replay_session, FaultSchedule, ReplayTarget};
use crate::witness::{fields_to_wire, SessionWitness};

/// The ddmin complement loop over `(slot, field)` pairs: shrinks
/// `original` to a (locally) minimal subset for which `keep_ok` still
/// holds, in `O(|original|²)` probes worst-case — Zeller's delta debugging
/// with increasing granularity.
fn ddmin(
    original: &[(usize, usize)],
    mut keep_ok: impl FnMut(&[(usize, usize)]) -> bool,
) -> Vec<(usize, usize)> {
    let mut delta = original.to_vec();
    let mut granularity = 2usize;
    while delta.len() >= 2 {
        let chunk = delta.len().div_ceil(granularity);
        let mut reduced = false;
        let mut start = 0usize;
        while start < delta.len() {
            let end = (start + chunk).min(delta.len());
            // Try the complement: drop delta[start..end], keep the rest.
            let complement: Vec<(usize, usize)> = delta[..start]
                .iter()
                .chain(&delta[end..])
                .copied()
                .collect();
            if keep_ok(&complement) {
                delta = complement;
                granularity = granularity.saturating_sub(1).max(2);
                reduced = true;
                break;
            }
            start = end;
        }
        if !reduced {
            if granularity >= delta.len() {
                break;
            }
            granularity = (granularity * 2).min(delta.len());
        }
    }
    delta
}

/// A minimized session witness plus its provenance.
#[derive(Clone, Debug)]
pub struct MinimizedSessionWitness {
    /// The reduced session (essential fields keep their witness values,
    /// every other field is that slot's benign baseline).
    pub witness: SessionWitness,
    /// `(slot, field)` pairs that kept their witness value.
    pub essential: Vec<(usize, usize)>,
    /// `(slot, field)` pairs that differed from the baseline before
    /// minimization.
    pub original_delta: Vec<(usize, usize)>,
    /// The preserved signature.
    pub signature: CrashSignature,
    /// Replays spent minimizing.
    pub replays: usize,
}

impl MinimizedSessionWitness {
    /// Whether minimization strictly shrank the difference set.
    pub fn strictly_shrunk(&self) -> bool {
        self.essential.len() < self.original_delta.len()
    }
}

/// Builds the session candidate that keeps `kept` `(slot, field)` pairs at
/// their witness values and resets everything else to the per-slot benign
/// baselines.
fn project_session(
    target: &dyn ReplayTarget,
    witness: &SessionWitness,
    baselines: &[Vec<u64>],
    kept: &[(usize, usize)],
) -> SessionWitness {
    let mut fields: Vec<Vec<u64>> = baselines.to_vec();
    for &(slot, field) in kept {
        fields[slot][field] = witness.fields[slot][field];
    }
    let layouts = target.slot_layouts();
    let wire = fields
        .iter()
        .zip(&layouts)
        .map(|(f, l)| fields_to_wire(l, f).expect("projected session witness encodes"))
        .collect();
    SessionWitness {
        index: witness.index,
        server_path_id: witness.server_path_id,
        fields,
        wire,
    }
}

/// The per-slot benign baselines and the `(slot, field)` pairs where the
/// witness differs from them.
fn baselines_and_delta(
    target: &dyn ReplayTarget,
    witness: &SessionWitness,
) -> (Vec<Vec<u64>>, Vec<(usize, usize)>) {
    let baselines: Vec<Vec<u64>> = (0..witness.slots())
        .map(|s| target.slot_benign_fields(s))
        .collect();
    for (slot, (b, w)) in baselines.iter().zip(&witness.fields).enumerate() {
        assert_eq!(b.len(), w.len(), "slot {slot} baseline arity matches");
    }
    let delta = witness
        .fields
        .iter()
        .zip(&baselines)
        .enumerate()
        .flat_map(|(slot, (fields, baseline))| {
            fields
                .iter()
                .zip(baseline)
                .enumerate()
                .filter(|(_, (v, b))| v != b)
                .map(move |(i, _)| (slot, i))
        })
        .collect();
    (baselines, delta)
}

/// Minimizes a session witness to the smallest `(slot, field)` set
/// preserving `signature` — ddmin over the whole session's field-difference
/// set against the per-slot benign baselines, so the essential set names
/// both *which message of the sequence* matters and *which fields in it*.
///
/// `signature` must be the signature of replaying `witness` under
/// `schedule` (normally a
/// [`SessionReplayResult::signature`](crate::target::SessionReplayResult)).
pub fn minimize_session(
    target: &dyn ReplayTarget,
    witness: &SessionWitness,
    schedule: &FaultSchedule,
    signature: &CrashSignature,
) -> MinimizedSessionWitness {
    let (baselines, original_delta) = baselines_and_delta(target, witness);
    let mut replays = 0usize;

    let delta = ddmin(&original_delta, |kept| {
        replays += 1;
        let candidate = project_session(target, witness, &baselines, kept);
        replay_session(target, &candidate, schedule).signature == *signature
    });

    let minimized = project_session(target, witness, &baselines, &delta);
    MinimizedSessionWitness {
        witness: minimized,
        essential: delta,
        original_delta,
        signature: signature.clone(),
        replays,
    }
}

/// Minimizes a session witness to the smallest `(slot, field)` set that
/// still *splits the same nodes at the same delivery index* — ddmin with
/// [`DivergenceSignature::same_split`] as the preservation oracle instead
/// of exact signature equality.
///
/// Exact-signature ddmin is too strict for divergence Trojans: resetting
/// an incidental field (say, the written value) changes the concrete state
/// and with it every root *digest*, so no field could ever be shed even
/// though the split structure — which replicas disagree, and when — is the
/// bug. `divergence` must be the parsed divergence of replaying `witness`
/// under `schedule` (normally
/// [`CrashSignature::divergence`](crate::CrashSignature::divergence) of a
/// [`SessionReplayResult`](crate::target::SessionReplayResult) signature);
/// the returned witness is guaranteed to reproduce that split, and the
/// recorded `signature` is the minimized witness's own (its digests may
/// legitimately differ from the original's).
pub fn minimize_session_divergence(
    target: &dyn ReplayTarget,
    witness: &SessionWitness,
    schedule: &FaultSchedule,
    divergence: &DivergenceSignature,
) -> MinimizedSessionWitness {
    let (baselines, original_delta) = baselines_and_delta(target, witness);
    let mut replays = 0usize;

    let delta = ddmin(&original_delta, |kept| {
        replays += 1;
        let candidate = project_session(target, witness, &baselines, kept);
        replay_session(target, &candidate, schedule)
            .signature
            .divergence()
            .is_some_and(|d| d.same_split(divergence))
    });

    let minimized = project_session(target, witness, &baselines, &delta);
    replays += 1;
    let signature = replay_session(target, &minimized, schedule).signature;
    MinimizedSessionWitness {
        witness: minimized,
        essential: delta,
        original_delta,
        signature,
        replays,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::ReplayVerdict;
    use achilles_fsp::{Command, FspMessage, FspServerConfig, FspTarget};

    fn witness_of(msg: &FspMessage) -> SessionWitness {
        SessionWitness {
            index: 0,
            server_path_id: 0,
            fields: vec![msg.field_values()],
            wire: vec![msg.to_wire()],
        }
    }

    #[test]
    fn wildcard_witness_shrinks_to_the_star() {
        // A wildcard witness with three bytes of incidental junk: only the
        // command, the length, and the '*' byte matter for the signature.
        let target = FspTarget::new(FspServerConfig::default(), true);
        // The path bytes around the star are incidental; the star is the bug.
        let msg = FspMessage::request(Command::DelFile, b"x*yz");
        let witness = witness_of(&msg);
        let none = FaultSchedule::none();
        let full = replay_session(&target, &witness, &none);
        assert_eq!(full.verdict, ReplayVerdict::ConfirmedTrojan);
        let min = minimize_session(&target, &witness, &none, &full.signature);
        assert!(min.strictly_shrunk(), "essential {:?}", min.essential);
        // The star byte must survive: field buf[1] = index BUF_BASE + 1.
        assert!(min.essential.contains(&(0, achilles_fsp::BUF_BASE + 1)));
        // Re-replay of the minimized witness reproduces the signature.
        let again = replay_session(&target, &min.witness, &none);
        assert_eq!(again.signature, min.signature);
    }

    #[test]
    fn already_minimal_witness_is_stable() {
        let target = FspTarget::new(FspServerConfig::default(), false);
        // The benign baseline itself: delta only in fields that the replay
        // signature depends on entirely.
        let msg = FspMessage::request(Command::GetDir, b"f1");
        let witness = witness_of(&msg);
        let none = FaultSchedule::none();
        let full = replay_session(&target, &witness, &none);
        let min = minimize_session(&target, &witness, &none, &full.signature);
        assert!(min.essential.is_empty(), "witness equals the baseline");
        assert_eq!(min.replays, 0, "no delta, no replays");
    }
}
