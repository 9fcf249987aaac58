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
//!
//! Observers that re-check a growing query after every conjunct can also
//! keep the last model of each query in a [`LastModel`]: before calling the
//! solver they evaluate it on the conjuncts it has not been checked against,
//! and a model that satisfies them answers `Sat` without a search. The
//! models are part of the per-path state and travel in the [`Checkpoint`]
//! as [`CarriedModel`]s, keyed by variable fingerprints, so a fork resumed
//! on another worker keeps them.

use std::sync::Arc;

use achilles_solver::{Model, PortableModel, SatResult, Solver, TermId, TermPool};

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

/// An observer's per-path state at a fork point.
///
/// Checkpoints travel with scheduled forks, including across the threads of
/// the parallel pool, so they hold plain data: words (bitsets of
/// still-active predicates, or any other fixed-size digest of the path
/// prefix) and the last models of the observer's recurring queries, keyed
/// by variable fingerprints. They must not hold [`TermId`]s or
/// [`VarId`](achilles_solver::VarId)s, which are only meaningful in the pool
/// of the worker that took the checkpoint.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Checkpoint {
    /// Fixed-size per-path state, packed into words.
    pub words: Vec<u64>,
    /// One entry per [`LastModel`] the observer keeps, in the observer's
    /// own order (`None`: no model known).
    pub models: Vec<Option<CarriedModel>>,
}

impl Checkpoint {
    /// Packs `bits` into words, bit `i` at word `i / 64`, position `i % 64`
    /// (no models).
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
        Checkpoint {
            words,
            models: Vec::new(),
        }
    }

    /// Bit `i` as packed by [`Checkpoint::from_bits`] (`false` past the end).
    pub fn bit(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|w| w >> (i % 64) & 1 == 1)
    }

    /// Model `i` (`None` past the end).
    pub fn model(&self, i: usize) -> Option<&CarriedModel> {
        self.models.get(i).and_then(Option::as_ref)
    }
}

/// A [`LastModel`] in the pool-independent form a [`Checkpoint`] carries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CarriedModel {
    /// Number of leading path conjuncts (`pc[..checked]`) the model is known
    /// to satisfy.
    pub checked: usize,
    /// The model, shared so that cloning a checkpoint stays cheap.
    pub model: Arc<PortableModel>,
}

/// The last satisfying model of one query an observer re-checks as the path
/// condition grows (`pc ∧ rest`, with `rest` fixed or only weakening).
///
/// [`LastModel::covers`] evaluates the model on the conjuncts it has not
/// been checked against; when all evaluate to 1 the query is satisfiable
/// and the solver need not be called. Reuse only ever answers `Sat`, and a
/// model is only reused after it was evaluated, never assumed.
///
/// The model is held as a [`PortableModel`] (what checkpoints carry) and
/// translated into the current pool the first time it is evaluated after a
/// [`LastModel::resume`]; a model naming a variable the pool has never
/// interned is dropped.
#[derive(Clone, Debug, Default)]
pub struct LastModel {
    carried: Option<CarriedModel>,
    /// `carried` translated into the current pool, once needed.
    local: Option<Arc<Model>>,
}

impl LastModel {
    /// Whether the model satisfies `pc[checked..]` and every `extra`
    /// conjunct (for parts of the query that may have changed since). On
    /// success the model counts as checked against all of `pc`, which must
    /// extend the path condition the model was last checked on.
    pub fn covers(&mut self, pool: &TermPool, pc: &[TermId], extra: &[TermId]) -> bool {
        let Some(carried) = &mut self.carried else {
            return false;
        };
        if self.local.is_none() {
            match carried.model.to_model(pool) {
                Some(model) => self.local = Some(Arc::new(model)),
                None => {
                    self.clear();
                    return false;
                }
            }
        }
        let model = self.local.as_deref().expect("translated above");
        let covered = pc[carried.checked..]
            .iter()
            .chain(extra)
            .all(|&t| model.eval(pool, t) == Some(1));
        if covered {
            carried.checked = pc.len();
        }
        covered
    }

    /// Records the solver's answer to the query over all of `pc` (`pc_len`
    /// conjuncts): a `Sat` model is kept, `Unsat` and `Unknown` clear it.
    pub fn record(&mut self, pool: &TermPool, pc_len: usize, result: &SatResult) {
        match result {
            SatResult::Sat(model) => {
                self.carried = Some(CarriedModel {
                    checked: pc_len,
                    model: Arc::new(PortableModel::of(pool, model)),
                });
                self.local = Some(Arc::clone(model));
            }
            SatResult::Unsat(_) | SatResult::Unknown => self.clear(),
        }
    }

    /// Forgets the model.
    pub fn clear(&mut self) {
        *self = LastModel::default();
    }

    /// The model in checkpoint form.
    pub fn carried(&self) -> Option<CarriedModel> {
        self.carried.clone()
    }

    /// Restores a model taken by [`LastModel::carried`], possibly in
    /// another worker's pool.
    pub fn resume(carried: Option<&CarriedModel>) -> LastModel {
        LastModel {
            carried: carried.cloned(),
            local: None,
        }
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
        assert_eq!(cp.words.len(), 3);
        for (i, &b) in bits.iter().enumerate() {
            assert_eq!(cp.bit(i), b, "bit {i}");
        }
        assert!(!cp.bit(500));
        assert!(Checkpoint::from_bits(std::iter::empty()).words.is_empty());
        assert!(cp.model(0).is_none());
    }
}
