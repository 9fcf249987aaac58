//! The opt-in `validate` step: replay every discovered Trojan.
//!
//! The paper's pipeline does not stop at symbolic discovery — every
//! candidate was validated by injecting the concrete message into a real
//! deployment and observing the failure. [`validate_session_trojans`]
//! closes that loop for the reproduction: it concretizes each report into
//! a [`SessionWitness`](crate::SessionWitness) split by the target's
//! [`slot_layouts`](ReplayTarget::slot_layouts), fires it at the
//! [`ReplayTarget`] under a fault schedule (fanning out over
//! [`achilles_symvm::parallel_map`] when `workers > 1` — replay is a pure
//! function of the witness, so results are identical for every worker
//! count), dedups confirmed failures by [`CrashSignature`], and
//! consults/extends a persistent [`ReplayCorpus`].
//!
//! One call serves both report shapes: the Trojans of an
//! [`AchillesReport`](achilles::AchillesReport) replay as one-slot
//! sessions against [`TargetSpec::replay_target`], those of a
//! [`SessionReport`](achilles::SessionReport) against
//! [`TargetSpec::session_replay_target`].
//!
//! [`TargetSpec::replay_target`]: achilles::TargetSpec::replay_target
//! [`TargetSpec::session_replay_target`]: achilles::TargetSpec::session_replay_target

use std::time::{Duration, Instant};

use achilles::TrojanReport;
use achilles_symvm::parallel_map;

use crate::corpus::{CorpusEntry, ReplayCorpus};
use crate::minimize::{minimize_session, MinimizedSessionWitness};
use crate::signature::CrashSignature;
use crate::target::{
    replay_session, FaultSchedule, ReplayTarget, ReplayVerdict, SessionReplayResult,
};
use crate::witness::session_from_report;

/// Configuration of one validation run.
#[derive(Clone, Debug, Default)]
pub struct SessionValidateConfig {
    /// Worker threads for the witness fan-out (0/1 = inline).
    pub workers: usize,
    /// Per-delivery fault schedule applied to every injection.
    pub schedule: FaultSchedule,
    /// ddmin-minimize (over slots × fields) each confirmed witness that is
    /// the first of its signature.
    pub minimize: bool,
}

impl SessionValidateConfig {
    /// Fan the replay out over `n` threads.
    pub fn with_workers(mut self, n: usize) -> SessionValidateConfig {
        self.workers = n.max(1);
        self
    }
}

/// Everything one validation pass produces.
#[derive(Debug)]
pub struct SessionValidationSummary {
    /// Per-witness replay results, in report order (skipped witnesses are
    /// absent).
    pub results: Vec<SessionReplayResult>,
    /// Distinct confirmed crash signatures, in first-seen order.
    pub confirmed_signatures: Vec<CrashSignature>,
    /// Minimized witnesses (first witness of each new signature, when
    /// minimization is on).
    pub minimized: Vec<MinimizedSessionWitness>,
    /// Witnesses replayed.
    pub replayed: usize,
    /// Witnesses skipped because the corpus already knew their exact
    /// per-slot bytes.
    pub skipped_known: usize,
    /// Replays that confirmed a Trojan (accepted in every slot, and some
    /// delivered slot ungenerable).
    pub confirmed: usize,
    /// Wall-clock time of the whole pass.
    pub elapsed: Duration,
}

impl SessionValidationSummary {
    /// Fraction of replayed witnesses that confirmed, in `[0, 1]`.
    pub fn confirmation_rate(&self) -> f64 {
        if self.replayed == 0 {
            return 1.0;
        }
        self.confirmed as f64 / self.replayed as f64
    }

    /// Witnesses per second of the replay pass.
    pub fn witnesses_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            return 0.0;
        }
        self.replayed as f64 / secs
    }
}

/// Replays `reports` against `target` under a fault schedule, updating
/// `corpus` with newly confirmed witnesses.
///
/// Each report's `witness_fields` is split by the target's
/// [`slot_layouts`](ReplayTarget::slot_layouts) — one slot for a
/// single-message target. Witnesses whose exact per-slot field values the
/// corpus already contains are skipped (re-analysis of an unchanged system
/// re-validates nothing); fresh witnesses of *known* signatures replay but
/// do not re-enter the minimization queue.
///
/// # Panics
///
/// Panics if a report's arity does not match the target's slot layouts.
pub fn validate_session_trojans(
    target: &dyn ReplayTarget,
    reports: &[TrojanReport],
    corpus: &mut ReplayCorpus,
    config: &SessionValidateConfig,
) -> SessionValidationSummary {
    let started = Instant::now();
    let layouts = target.slot_layouts();

    let mut skipped_known = 0usize;
    let witnesses: Vec<_> = reports
        .iter()
        .enumerate()
        .filter_map(|(i, r)| {
            let witness =
                session_from_report(&layouts, i, r).expect("slot layouts are wire-encodable");
            if corpus.knows_session_witness(&witness.fields) {
                skipped_known += 1;
                return None;
            }
            Some(witness)
        })
        .collect();

    let results: Vec<SessionReplayResult> =
        parallel_map(config.workers.max(1), &witnesses, |_, w| {
            replay_session(target, w, &config.schedule)
        });

    let mut summary = SessionValidationSummary {
        results: Vec::with_capacity(results.len()),
        confirmed_signatures: Vec::new(),
        minimized: Vec::new(),
        replayed: results.len(),
        skipped_known,
        confirmed: 0,
        elapsed: Duration::ZERO,
    };
    for result in results {
        if result.verdict == ReplayVerdict::ConfirmedTrojan {
            summary.confirmed += 1;
            let first_of_signature = !corpus.knows_signature(&result.signature);
            if first_of_signature {
                summary.confirmed_signatures.push(result.signature.clone());
            }
            let essential: Vec<(usize, usize)> = if config.minimize && first_of_signature {
                let min =
                    minimize_session(target, &result.witness, &config.schedule, &result.signature);
                let essential = min.essential.clone();
                summary.minimized.push(min);
                essential
            } else {
                Vec::new()
            };
            corpus.insert(CorpusEntry::session(
                result.signature.clone(),
                &result.witness.fields,
                &essential,
            ));
        }
        summary.results.push(result);
    }
    summary.elapsed = started.elapsed();
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use achilles_fsp::{Command, FspMessage, FspServerConfig, FspTarget};
    use std::time::Duration;

    fn report(msg: &FspMessage) -> TrojanReport {
        TrojanReport {
            server_path_id: 0,
            constraints: vec![],
            witness_fields: msg.field_values(),
            active_clients: 0,
            verified: true,
            found_at: Duration::ZERO,
            notes: vec![],
        }
    }

    fn length_trojan(cmd: Command, reported: u16, nul_at: usize) -> TrojanReport {
        let mut msg = FspMessage::request(cmd, b"abc");
        msg.bb_len = reported;
        msg.buf[nul_at] = 0;
        report(&msg)
    }

    #[test]
    fn confirms_dedups_and_skips() {
        let target = FspTarget::new(FspServerConfig::default(), false);
        let reports = vec![
            length_trojan(Command::Stat, 3, 1),
            length_trojan(Command::Stat, 3, 2), // different class
            length_trojan(Command::DelFile, 3, 1),
        ];
        let config = SessionValidateConfig::default();
        let mut corpus = ReplayCorpus::new();
        let summary = validate_session_trojans(&target, &reports, &mut corpus, &config);
        assert_eq!(summary.replayed, 3);
        assert_eq!(summary.confirmed, 3);
        assert!((summary.confirmation_rate() - 1.0).abs() < f64::EPSILON);
        assert_eq!(corpus.len(), 3);
        // One-slot witnesses persist in the single-message corpus form.
        assert!(corpus.entries().iter().all(|e| e.slot_lens.is_empty()));

        // Second pass over the same reports: everything is known bytes.
        let again = validate_session_trojans(&target, &reports, &mut corpus, &config);
        assert_eq!(again.skipped_known, 3);
        assert_eq!(again.replayed, 0);
    }

    #[test]
    fn worker_counts_agree() {
        let target = FspTarget::new(FspServerConfig::default(), false);
        let reports: Vec<TrojanReport> = (1..=3)
            .map(|r| length_trojan(Command::MakeDir, r as u16 + 1, r))
            .collect();
        let collect = |workers| {
            let mut corpus = ReplayCorpus::new();
            let summary = validate_session_trojans(
                &target,
                &reports,
                &mut corpus,
                &SessionValidateConfig::default().with_workers(workers),
            );
            summary
                .results
                .iter()
                .map(|r| (r.witness.fields.clone(), r.verdict, r.signature.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(collect(1), collect(4));
    }

    #[test]
    fn minimization_is_recorded_in_the_corpus() {
        let target = FspTarget::new(FspServerConfig::default(), false);
        let reports = vec![length_trojan(Command::Stat, 4, 1)];
        let mut corpus = ReplayCorpus::new();
        let config = SessionValidateConfig {
            minimize: true,
            ..SessionValidateConfig::default()
        };
        let summary = validate_session_trojans(&target, &reports, &mut corpus, &config);
        assert_eq!(summary.minimized.len(), 1);
        // One slot: the corpus's flat indices are the field indices.
        let essential: Vec<usize> = summary.minimized[0]
            .essential
            .iter()
            .map(|&(slot, field)| {
                assert_eq!(slot, 0);
                field
            })
            .collect();
        assert!(!essential.is_empty());
        assert_eq!(corpus.entries()[0].essential, essential);
    }
}
