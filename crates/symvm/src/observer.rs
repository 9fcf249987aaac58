//! Exploration observers.
//!
//! An observer watches one exploration and may veto paths while they are
//! being built. This is the mechanism behind the paper's central optimization
//! (Figure 7): during the *server* analysis, Achilles installs an observer
//! that tracks which client path predicates can still trigger the current
//! path and prunes the path as soon as no Trojan message can reach it.
//!
//! The observer is notified once per node of the exploration tree, not once
//! per run. The executor re-runs the program from the start for every
//! scheduled path, but when [`SymEnv::branch`](crate::SymEnv::branch)
//! schedules the untaken side of a branch it stores the observer's
//! [`PathObserver::checkpoint`] with that fork. A run from a fork first
//! [`PathObserver::resume`]s that checkpoint and then replays its decision
//! prefix silently: every replayed conjunct already passed the observer in
//! the run that made the fork. [`PathObserver::on_constraint`] fires only
//! for conjuncts past the replayed prefix, starting with the fork's own
//! branch condition. The run from the root (empty prefix) starts with
//! [`PathObserver::on_path_start`] instead, and
//! [`PathObserver::on_path_end`] fires for completed paths.
//!
//! The contract this relies on: an observer's per-path state must be a
//! function of the path prefix (the conjuncts and received messages seen so
//! far), so that restoring the checkpoint taken at a fork point is the same
//! as re-observing the prefix. Accumulated, cross-path output (reports,
//! counters) is not per-path state and is never checkpointed.

use achilles_solver::{Solver, TermId, TermPool};

use crate::message::SymMessage;
use crate::record::PathRecord;

/// Context handed to observer callbacks.
#[derive(Debug)]
pub struct ObserverCx<'a> {
    /// The term pool (observers may build queries).
    pub pool: &'a mut TermPool,
    /// The shared solver (queries are cached across paths).
    pub solver: &'a mut Solver,
    /// Path constraints so far, in order; the newest conjunct is last.
    pub pc: &'a [TermId],
    /// Messages received so far on this path.
    pub received: &'a [SymMessage],
}

/// An observer's per-path state at a fork point, packed into words.
///
/// Checkpoints travel with scheduled forks, including across the threads of
/// the parallel pool, so they hold plain data: bitsets of still-active
/// predicates, or any other fixed-size digest of the path prefix. They must
/// not hold [`TermId`]s, which are only meaningful in the pool of the worker
/// that took the checkpoint.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Checkpoint(pub Vec<u64>);

impl Checkpoint {
    /// Packs `bits` into words, bit `i` at word `i / 64`, position `i % 64`.
    pub fn from_bits(bits: impl IntoIterator<Item = bool>) -> Checkpoint {
        let mut words = Vec::new();
        for (i, bit) in bits.into_iter().enumerate() {
            if i % 64 == 0 {
                words.push(0);
            }
            if bit {
                words[i / 64] |= 1 << (i % 64);
            }
        }
        Checkpoint(words)
    }

    /// Bit `i` as packed by [`Checkpoint::from_bits`] (`false` past the end).
    pub fn bit(&self, i: usize) -> bool {
        self.0.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 == 1)
    }
}

/// Watches an exploration; may prune paths.
///
/// Per-path state must be a function of the path prefix (see the
/// [module docs](self)): [`PathObserver::resume`] of the checkpoint taken at
/// a fork point must leave the observer exactly as if it had observed the
/// fork's whole prefix. Observers without per-path state keep the no-op
/// defaults.
pub trait PathObserver {
    /// The run from the root (empty decision prefix) starts: per-path state
    /// resets to its empty-prefix value.
    fn on_path_start(&mut self) {}

    /// The per-path state now, stored with a fork scheduled at this point.
    fn checkpoint(&self) -> Checkpoint {
        Checkpoint::default()
    }

    /// A run from a fork starts: restores the state taken by
    /// [`PathObserver::checkpoint`] when the fork was scheduled.
    fn resume(&mut self, checkpoint: &Checkpoint) {
        let _ = checkpoint;
    }

    /// A constraint past the replayed prefix was appended to the path
    /// condition. Fires once per node of the exploration tree.
    ///
    /// Return `false` to prune the path (it is abandoned immediately and
    /// counted in [`ExploreStats::pruned`](crate::record::ExploreStats)).
    fn on_constraint(&mut self, cx: &mut ObserverCx<'_>) -> bool {
        let _ = cx;
        true
    }

    /// A path ran to completion and was recorded.
    fn on_path_end(&mut self, cx: &mut ObserverCx<'_>, record: &PathRecord) {
        let _ = (cx, record);
    }
}

/// An observer that does nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl PathObserver for NullObserver {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_observer_never_prunes() {
        let mut pool = TermPool::new();
        let mut solver = Solver::new();
        let mut obs = NullObserver;
        let mut cx = ObserverCx {
            pool: &mut pool,
            solver: &mut solver,
            pc: &[],
            received: &[],
        };
        obs.on_path_start();
        assert!(obs.on_constraint(&mut cx));
        assert_eq!(obs.checkpoint(), Checkpoint::default());
    }

    #[test]
    fn checkpoint_bits_round_trip() {
        let bits: Vec<bool> = (0..130).map(|i| i % 3 == 0 || i == 129).collect();
        let cp = Checkpoint::from_bits(bits.iter().copied());
        assert_eq!(cp.0.len(), 3);
        for (i, &b) in bits.iter().enumerate() {
            assert_eq!(cp.bit(i), b, "bit {i}");
        }
        assert!(!cp.bit(500));
        assert!(Checkpoint::from_bits(std::iter::empty()).0.is_empty());
    }
}
