//! The observer checkpoint contract.
//!
//! A run from a fork resumes the observer checkpoint stored with the fork
//! and replays its decision prefix without notifying the observer. This
//! suite drives an observer whose per-path state is a running hash of the
//! path condition and checks, sequentially and at workers {1, 2, 4}, with
//! full and with capped budgets:
//!
//! * at every notification the resumed state equals the hash of
//!   `pc[..len - 1]` computed from scratch (and at path end, of the whole
//!   path condition);
//! * every node of the exploration tree is notified exactly once;
//! * the notification totals agree for every worker count.
//!
//! A second observer keeps a [`LastModel`] and checks that the models a
//! checkpoint carries translate by variable fingerprint into a pool that
//! interned the program's variables in another order.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use achilles_solver::{Solver, TermId, TermPool, Width};
use achilles_symvm::{
    CarriedModel, Checkpoint, Executor, ExploreConfig, LastModel, ObserverCx, PathObserver,
    PathRecord, PathResult, SymEnv,
};

const ROOT: u64 = 0xCBF2_9CE4_8422_2325;

/// Folds one conjunct's structural fingerprint into `state` (FNV-1a).
/// Structural fingerprints agree across worker pools, so the fold of a
/// path condition does too.
fn fold(state: u64, fp: u128) -> u64 {
    fp.to_le_bytes().iter().fold(state, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3)
    })
}

fn fold_all(pool: &TermPool, pc: &[TermId]) -> u64 {
    pc.iter().fold(ROOT, |h, &t| fold(h, pool.term_fp(t)))
}

/// Per-path state: the fold of the path condition so far.
#[derive(Debug, Default)]
struct FoldObserver {
    state: u64,
    /// The tree node of each notification: the fold including the new
    /// conjunct.
    notified: Vec<u64>,
    /// Notifications (and path ends) whose state disagreed with the fold
    /// computed from scratch.
    mismatches: Vec<String>,
}

impl PathObserver for FoldObserver {
    fn on_path_start(&mut self) {
        self.state = ROOT;
    }

    fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            words: vec![self.state],
            ..Checkpoint::default()
        }
    }

    fn resume(&mut self, checkpoint: &Checkpoint) {
        self.state = checkpoint.words[0];
    }

    fn on_constraint(&mut self, cx: &mut ObserverCx<'_>) -> bool {
        let (&newest, before) = cx.pc.split_last().expect("a conjunct was pushed");
        let expected = fold_all(cx.pool, before);
        if self.state != expected {
            self.mismatches.push(format!(
                "at pc length {}: state {:#x}, from scratch {expected:#x}",
                cx.pc.len(),
                self.state
            ));
        }
        self.state = fold(self.state, cx.pool.term_fp(newest));
        self.notified.push(self.state);
        // Prune a fixed fifth of the nodes, so resumed forks also meet
        // pruning.
        !self.state.is_multiple_of(5)
    }

    fn on_path_end(&mut self, cx: &mut ObserverCx<'_>, record: &PathRecord) {
        let expected = fold_all(cx.pool, &record.constraints);
        if self.state != expected {
            self.mismatches
                .push(format!("at end of path {:?}", record.decisions));
        }
    }
}

/// Decisions interleaved with forced conjuncts (assumes and one-sided
/// branches), so replayed prefixes hold both kinds.
fn program(env: &mut SymEnv<'_>) -> PathResult<()> {
    let x = env.sym("x", Width::W16);
    let y = env.sym("y", Width::W16);
    for i in 0..5u64 {
        let b = env.sym(&format!("b{i}"), Width::BOOL);
        if env.branch(b)? {
            let bound = env.constant(1000 * (6 - i), Width::W16);
            let below = env.pool_mut().ult(y, bound);
            env.assume(below)?;
        } else if i % 2 == 1 {
            let c = env.constant(300 * (i + 1), Width::W16);
            let lo = env.if_ult(x, c)?;
            env.note(if lo { "lo" } else { "hi" });
        }
    }
    // Forced whenever an assume above bounded `y`; a fork otherwise.
    let cap = env.constant(60_000, Width::W16);
    if env.if_ult(y, cap)? {
        env.mark_accept();
    }
    Ok(())
}

/// What one exploration notified, with the decisions and constraint folds
/// of the paths it kept.
struct Run {
    notified: Vec<u64>,
    mismatches: Vec<String>,
    /// Every prefix fold (length ≥ 1) of every kept path.
    kept_nodes: HashSet<u64>,
    kept_decisions: Vec<Vec<bool>>,
}

fn explore(workers: usize, max_paths: usize, max_runs: usize) -> Run {
    let mut pool = TermPool::new();
    let mut solver = Solver::new();
    let config = ExploreConfig {
        workers,
        max_paths,
        max_runs,
        ..ExploreConfig::default()
    };
    let mut exec = Executor::new(&mut pool, &mut solver, config);
    let (result, observers) = if workers == 1 {
        let mut observer = FoldObserver::default();
        let result = exec.explore_observed(&program, &mut observer);
        (result, vec![observer])
    } else {
        let outcome = exec.explore_parallel(&program, |_| FoldObserver::default());
        let observers = outcome.workers.into_iter().map(|w| w.observer).collect();
        (outcome.result, observers)
    };
    let mut kept_nodes = HashSet::new();
    for path in &result.paths {
        for len in 1..=path.constraints.len() {
            kept_nodes.insert(fold_all(&pool, &path.constraints[..len]));
        }
    }
    Run {
        notified: observers.iter().flat_map(|o| o.notified.clone()).collect(),
        mismatches: observers.into_iter().flat_map(|o| o.mismatches).collect(),
        kept_nodes,
        kept_decisions: result.paths.iter().map(|p| p.decisions.clone()).collect(),
    }
}

fn check(max_paths: usize, max_runs: usize) {
    let seq = explore(1, max_paths, max_runs);
    let seq_nodes: HashSet<u64> = seq.notified.iter().copied().collect();
    for workers in [1usize, 2, 4] {
        let run = explore(workers, max_paths, max_runs);
        let label = format!("workers={workers} max_paths={max_paths} max_runs={max_runs}");
        assert!(!run.kept_decisions.is_empty(), "{label}: nothing kept");
        assert_eq!(run.kept_decisions, seq.kept_decisions, "{label}");
        assert!(
            run.mismatches.is_empty(),
            "{label}: resumed state differs from the prefix fold: {:?}",
            run.mismatches
        );
        let nodes: HashSet<u64> = run.notified.iter().copied().collect();
        assert_eq!(
            nodes.len(),
            run.notified.len(),
            "{label}: a tree node was notified more than once"
        );
        assert!(
            run.kept_nodes.is_subset(&nodes),
            "{label}: a node on a kept path was never notified"
        );
        // The nodes a capped sequential run notified are notified at every
        // worker count. A capped parallel run may also notify nodes past
        // the canonical cut (items still in flight when the budget binds);
        // on the kept paths the totals agree exactly.
        assert!(seq_nodes.is_subset(&nodes), "{label}");
        let kept_notified = run
            .notified
            .iter()
            .filter(|n| run.kept_nodes.contains(n))
            .count();
        let seq_kept_notified = seq
            .notified
            .iter()
            .filter(|n| seq.kept_nodes.contains(n))
            .count();
        assert_eq!(kept_notified, seq_kept_notified, "{label}");
        if max_paths == usize::MAX && max_runs == usize::MAX {
            assert_eq!(run.notified.len(), seq.notified.len(), "{label}");
        }
    }
}

#[test]
fn resumed_state_matches_prefix_with_full_budgets() {
    check(usize::MAX, usize::MAX);
}

#[test]
fn resumed_state_matches_prefix_with_capped_budgets() {
    for (max_paths, max_runs) in [(5, usize::MAX), (usize::MAX, 9), (3, 7)] {
        check(max_paths, max_runs);
    }
}

/// Keeps the last model of the path condition itself and records, at every
/// path end, the checkpoint it would hand a fork scheduled there.
#[derive(Debug, Default)]
struct ModelObserver {
    last: LastModel,
    ends: Vec<(Vec<TermId>, Checkpoint)>,
}

impl PathObserver for ModelObserver {
    fn on_path_start(&mut self) {
        self.last.clear();
    }

    fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            models: vec![self.last.carried()],
            ..Checkpoint::default()
        }
    }

    fn resume(&mut self, checkpoint: &Checkpoint) {
        self.last = LastModel::resume(checkpoint.model(0));
    }

    fn on_constraint(&mut self, cx: &mut ObserverCx<'_>) -> bool {
        if !self.last.covers(cx.pool, cx.pc, &[]) {
            let result = cx.solver.check(cx.pool, cx.pc);
            self.last.record(cx.pool, cx.pc.len(), &result);
        }
        true
    }

    fn on_path_end(&mut self, _cx: &mut ObserverCx<'_>, record: &PathRecord) {
        self.ends
            .push((record.constraints.clone(), self.checkpoint()));
    }
}

#[test]
fn carried_models_translate_by_fingerprint() {
    let base = TermPool::new();
    let mut pool = base.fork(1);
    let mut solver = Solver::new();
    let mut observer = ModelObserver::default();
    Executor::new(&mut pool, &mut solver, ExploreConfig::default())
        .explore_observed(&program, &mut observer);
    assert!(!observer.ends.is_empty());

    let mut ids_differ = false;
    for (pc, checkpoint) in &observer.ends {
        let carried = checkpoint.model(0).expect("every kept path has a model");
        assert_eq!(carried.checked, pc.len());
        // Another worker's pool, which meets the path's `sym()` variables
        // in reverse order (importing the conjuncts last to first): its
        // variable ids differ from this pool's, the fingerprints agree.
        let mut other = base.fork(2);
        let mut memo = HashMap::new();
        let mut other_pc: Vec<TermId> = pc
            .iter()
            .rev()
            .map(|&t| other.import_term(&pool, t, &mut memo))
            .collect();
        other_pc.reverse();

        let here = carried.model.to_model(&pool).expect("the model's own pool");
        let there = carried
            .model
            .to_model(&other)
            .expect("every variable imported");
        for (v, value) in here.iter() {
            let w = other.var_by_fp(pool.var_fp(v)).expect("same fingerprint");
            ids_differ |= v != w;
            assert_eq!(there.value(w), Some(value));
        }

        // Resumed there and evaluated on the whole path condition, the
        // model still satisfies it; it does not satisfy the path's last
        // branch flipped.
        let from_scratch = CarriedModel {
            checked: 0,
            model: Arc::clone(&carried.model),
        };
        let mut resumed = LastModel::resume(Some(&from_scratch));
        assert!(resumed.covers(&other, &other_pc, &[]));
        let flipped = other.not(*other_pc.last().expect("non-empty path"));
        let mut resumed = LastModel::resume(Some(carried));
        assert!(!resumed.covers(&other, &other_pc, &[flipped]));
    }
    assert!(
        ids_differ,
        "the other pool interned the variables in another order"
    );
}
