//! The path-enumerating executor.
//!
//! This is the S2E replacement: it systematically explores the feasible
//! execution paths of a [`NodeProgram`] by *re-execution with decision
//! prefixes* (execution-generated testing). Every scheduled path is a vector
//! of branch decisions; the program runs from the start, replays the prefix
//! at each both-feasible branch point, and when it runs past the prefix the
//! executor forks: the current run takes one side and the untaken side is
//! pushed onto the worklist.
//!
//! A fork also carries the [`PathObserver::checkpoint`] taken where it was
//! scheduled, so observer state forks with the path the way S2E forks its
//! execution state. A run resumes the checkpoint and replays its prefix
//! without notifying the observer; only conjuncts past the prefix reach
//! [`PathObserver::on_constraint`], so each node of the exploration tree is
//! observed once, however many runs replay it (see [`crate::observer`]).
//! The checkpoint holds the observer's bitsets and the last models of its
//! recurring queries, keyed by variable fingerprints, so a resumed run can
//! answer a check its inherited model still satisfies without the solver.
//!
//! Re-execution trades CPU for simplicity and, combined with the
//! deterministic variable interning in [`SymEnv`](crate::env::SymEnv), keeps
//! path constraints structurally identical along shared prefixes — which the
//! solver's query cache exploits heavily.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use achilles_solver::{Solver, TermId, TermPool};

use crate::env::{Fork, Registry, SymEnv};
use crate::message::{MessageLayout, SymMessage};
use crate::observer::{NullObserver, ObserverCx, PathObserver};
use crate::parallel::ParallelOutcome;
use crate::program::{Halt, NodeProgram};
use crate::record::{ExploreResult, ExploreStats, PathRecord, Verdict};

/// Worklist ordering.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ExploreOrder {
    /// Depth-first (default): dives into specialized paths early, matching
    /// the incremental Trojan discovery behaviour of Figure 10.
    #[default]
    Dfs,
    /// Breadth-first: explores all short paths before long ones.
    Bfs,
}

/// Exploration limits and inputs.
#[derive(Clone, Debug)]
pub struct ExploreConfig {
    /// Stop after this many completed paths.
    pub max_paths: usize,
    /// Stop after this many program runs (safety valve).
    ///
    /// The budget is enforced *per exploration*, not per worker: raising
    /// [`ExploreConfig::workers`] never multiplies the number of runs.
    pub max_runs: usize,
    /// Maximum symbolic branch points per path.
    pub max_depth: usize,
    /// Worklist ordering.
    pub order: ExploreOrder,
    /// Number of worker threads for [`Executor::explore_parallel`].
    ///
    /// `1` (the default) keeps exploration on the calling thread with
    /// exactly the sequential behaviour. With `n > 1`, every worklist item
    /// (decision prefix) becomes a unit of work on a work-stealing pool:
    /// each worker owns a fork of the term pool and its own solver, and
    /// workers share solved queries through a
    /// [`SharedCache`](achilles_solver::SharedCache). Re-execution from
    /// deterministic decision prefixes makes every worker reproduce
    /// bit-identical constraints for the same path, so the merged result is
    /// independent of scheduling (paths are reported in canonical
    /// depth-first order).
    ///
    /// Scheduling-independence holds for capped runs too: the budgets are
    /// pool-global, in-flight items always finish, and the merge truncates
    /// the completed set to the first `max_runs` scheduled items / first
    /// `max_paths` paths in canonical depth-first order — the exact set a
    /// sequential capped run completes, for every worker count. (Execution
    /// *counters* other than `runs`/`completed` may still exceed a
    /// sequential capped run's, since workers keep exploring until the
    /// canonical bound proves the remainder lies past the cut.) One
    /// caveat remains: parallel scheduling is always depth-first per
    /// worker — [`ExploreOrder::Bfs`] explorations run sequentially, with
    /// the downgrade surfaced through
    /// [`ExploreStats::workers_effective`](crate::ExploreStats::workers_effective)
    /// (see [`Executor::explore_multi`]).
    pub workers: usize,
    /// Salt mixed into the identity tags of [`SymEnv::sym`](crate::SymEnv::sym)
    /// inputs and auto-created `recv` messages.
    ///
    /// Distinct explorations that share one pool lineage (the pipeline's
    /// client phase and server phase, say) must use distinct salts:
    /// otherwise two programs whose i-th `sym()` calls agree on name and
    /// width would produce two different variables with the *same*
    /// structural fingerprint, conflating unrelated queries in the
    /// cross-worker cache. `0` (the default) is the client/standalone
    /// family; the Trojan-search driver uses its own server-phase salt.
    pub sym_salt: u64,
    /// Name prefix for auto-created received messages (`msg` → `msg.cmd`).
    pub recv_prefix: String,
    /// Constraints seeded into every path (Constructed Symbolic Local State:
    /// constraints carried over from a previous node's analysis, §3.4).
    pub initial_constraints: Vec<TermId>,
    /// Messages delivered by `recv`, in order; past the end, fresh symbolic
    /// messages are created on demand.
    pub recv_script: Vec<SymMessage>,
}

impl Default for ExploreConfig {
    fn default() -> ExploreConfig {
        ExploreConfig {
            max_paths: 100_000,
            max_runs: 1_000_000,
            max_depth: 512,
            order: ExploreOrder::Dfs,
            workers: 1,
            sym_salt: 0,
            recv_prefix: "msg".to_string(),
            initial_constraints: Vec::new(),
            recv_script: Vec::new(),
        }
    }
}

impl ExploreConfig {
    /// A config whose first received message is a fresh symbolic message of
    /// `layout` named with `prefix` — the standard server-analysis setup.
    pub fn with_symbolic_message(
        pool: &mut TermPool,
        layout: &Arc<MessageLayout>,
        prefix: &str,
    ) -> (ExploreConfig, SymMessage) {
        let msg = SymMessage::fresh(pool, layout, prefix);
        let config = ExploreConfig {
            recv_script: vec![msg.clone()],
            recv_prefix: prefix.to_string(),
            ..ExploreConfig::default()
        };
        (config, msg)
    }
}

/// Explores the paths of node programs against a shared pool and solver.
///
/// # Examples
///
/// ```
/// use achilles_solver::{Solver, TermPool, Width};
/// use achilles_symvm::{ExploreConfig, Executor, SymEnv, PathResult};
///
/// let mut pool = TermPool::new();
/// let mut solver = Solver::new();
/// let mut exec = Executor::new(&mut pool, &mut solver, ExploreConfig::default());
///
/// // A program with one symbolic branch explores two paths.
/// let result = exec.explore(&|env: &mut SymEnv<'_>| -> PathResult<()> {
///     let x = env.sym("x", Width::W8);
///     let ten = env.constant(10, Width::W8);
///     if env.if_ult(x, ten)? {
///         env.mark_accept();
///     } else {
///         env.mark_reject();
///     }
///     Ok(())
/// });
/// assert_eq!(result.paths.len(), 2);
/// ```
#[derive(Debug)]
pub struct Executor<'a> {
    pool: &'a mut TermPool,
    solver: &'a mut Solver,
    config: ExploreConfig,
}

impl<'a> Executor<'a> {
    /// Creates an executor borrowing the shared pool and solver.
    pub fn new(
        pool: &'a mut TermPool,
        solver: &'a mut Solver,
        config: ExploreConfig,
    ) -> Executor<'a> {
        Executor {
            pool,
            solver,
            config,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ExploreConfig {
        &self.config
    }

    /// Explores all feasible paths of `program`.
    pub fn explore(&mut self, program: &dyn NodeProgram) -> ExploreResult {
        let mut observer = NullObserver;
        self.explore_observed(program, &mut observer)
    }

    /// Explores all feasible paths of a `Sync` program, using the pool of
    /// [`ExploreConfig::workers`] threads when it is greater than one.
    ///
    /// [`ExploreOrder::Bfs`] explorations always run sequentially: the
    /// work-stealing pool schedules depth-first per worker, so it cannot
    /// reproduce BFS completion order (which matters when a budget caps the
    /// search and the caller wants the shallowest paths). The downgrade is
    /// *explicit* in the result — [`ExploreStats::workers`] keeps the
    /// requested count while [`ExploreStats::workers_effective`] drops to
    /// `1` — so callers and benches never report phantom parallelism.
    pub fn explore_multi(&mut self, program: &(dyn NodeProgram + Sync)) -> ExploreResult {
        if self.config.workers <= 1 || self.config.order == ExploreOrder::Bfs {
            return self.explore(program);
        }
        self.explore_parallel(program, |_| NullObserver).result
    }

    /// Explores in parallel on [`ExploreConfig::workers`] work-stealing
    /// threads, giving each worker its own observer from `make_observer`.
    ///
    /// Workers run over forks of the shared pool with private solvers and a
    /// cross-worker query cache; the merged result has every term imported
    /// back into the shared pool and paths renumbered into canonical
    /// depth-first order (see [`crate::parallel`] for why this is
    /// deterministic). Callers that accumulated path-id-keyed data in their
    /// observers must remap it through [`ParallelOutcome::id_map`].
    pub fn explore_parallel<O, F>(
        &mut self,
        program: &(dyn NodeProgram + Sync),
        make_observer: F,
    ) -> ParallelOutcome<O>
    where
        O: PathObserver + Send,
        F: Fn(usize) -> O + Sync,
    {
        crate::parallel::explore_parallel(
            self.pool,
            self.solver,
            &self.config,
            program,
            make_observer,
        )
    }

    /// Explores with an observer that may prune paths (Achilles' server
    /// analysis).
    pub fn explore_observed(
        &mut self,
        program: &dyn NodeProgram,
        observer: &mut dyn PathObserver,
    ) -> ExploreResult {
        let _span = achilles_obs::span("explore", "symvm");
        let started = Instant::now();
        let solver_before = *self.solver.stats();
        let mut registry = Registry::new(self.config.recv_script.clone());
        let mut worklist: VecDeque<Fork> = VecDeque::new();
        worklist.push_back(Fork::root());
        let mut result = ExploreResult::default();
        let mut stats = ExploreStats {
            // `workers` echoes the request; `workers_effective` records that
            // this exploration actually ran on one thread (callers reach
            // this path either with `workers <= 1` or through the explicit
            // BFS downgrade in `explore_multi`).
            workers: self.config.workers.max(1),
            workers_effective: 1,
            ..ExploreStats::default()
        };

        while let Some(fork) = match self.config.order {
            ExploreOrder::Dfs => worklist.pop_back(),
            ExploreOrder::Bfs => worklist.pop_front(),
        } {
            if stats.runs >= self.config.max_runs {
                break;
            }
            stats.runs += 1;
            fork.start(observer);
            let mut env = SymEnv::new(
                self.pool,
                self.solver,
                observer,
                &mut registry,
                fork.decisions,
                &self.config.initial_constraints,
                self.config.max_depth,
                self.config.recv_prefix.clone(),
                self.config.sym_salt,
            );
            let run_result = program.run(&mut env);
            let out = env.into_output();

            stats.branch_checks += out.branch_checks;
            stats.unknown_branches += out.unknown_branches;
            stats.model_reuse_hits += out.model_reuse_hits;
            // Forks found before any halt are feasible alternates: keep them.
            for fork in out.forks {
                worklist.push_back(fork);
            }

            match run_result {
                Ok(()) => {
                    let verdict = out.verdict.unwrap_or(if out.sent.is_empty() {
                        Verdict::Reject
                    } else {
                        Verdict::Accept
                    });
                    let record = PathRecord {
                        id: result.paths.len(),
                        constraints: out.constraints,
                        sent: out.sent,
                        received: out.received,
                        verdict,
                        decisions: out.decisions,
                        branch_points: out.branch_points,
                        notes: out.notes,
                    };
                    let mut cx = ObserverCx {
                        pool: self.pool,
                        solver: self.solver,
                        pc: &record.constraints,
                        received: &record.received,
                    };
                    observer.on_path_end(&mut cx, &record);
                    result.paths.push(record);
                    stats.completed += 1;
                    if stats.completed >= self.config.max_paths {
                        break;
                    }
                }
                Err(Halt::Infeasible) => stats.infeasible += 1,
                Err(Halt::Dropped) => stats.dropped += 1,
                Err(Halt::Pruned) => stats.pruned += 1,
                Err(Halt::DepthExhausted) => stats.depth_exhausted += 1,
            }
        }
        let solver_after = self.solver.stats();
        stats.certified_unsat = solver_after.certified_unsat - solver_before.certified_unsat;
        stats.core_subsumption_hits =
            solver_after.core_subsumption_hits - solver_before.core_subsumption_hits;
        stats.wall_time = started.elapsed();
        result.stats = stats;
        self.solver.stats().record_metrics_delta(&solver_before);
        result.stats.record_metrics();
        result
    }

    /// Runs `program` once along a fully concrete path (no forking expected).
    ///
    /// This is the *Concrete Local State* entry point (§3.4): with concrete
    /// inputs in the receive script the program never branches symbolically,
    /// so exactly one path is produced (it is an error if the program still
    /// hits a symbolic branch — the config's `max_paths` is forced to 1).
    pub fn run_concrete(&mut self, program: &dyn NodeProgram) -> ExploreResult {
        let saved = self.config.max_paths;
        self.config.max_paths = 1;
        let result = {
            let mut observer = NullObserver;
            self.explore_observed(program, &mut observer)
        };
        self.config.max_paths = saved;
        result
    }

    /// Seeds additional path constraints for subsequent explorations.
    pub fn add_initial_constraints(&mut self, constraints: impl IntoIterator<Item = TermId>) {
        self.config.initial_constraints.extend(constraints);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::PathResult;
    use achilles_solver::Width;

    fn harness() -> (TermPool, Solver) {
        (TermPool::new(), Solver::new())
    }

    #[test]
    fn two_way_branch_gives_two_paths() {
        let (mut pool, mut solver) = harness();
        let mut exec = Executor::new(&mut pool, &mut solver, ExploreConfig::default());
        let result = exec.explore(&|env: &mut SymEnv<'_>| -> PathResult<()> {
            let x = env.sym("x", Width::W8);
            let five = env.constant(5, Width::W8);
            if env.if_ult(x, five)? {
                env.mark_accept();
            } else {
                env.mark_reject();
            }
            Ok(())
        });
        assert_eq!(result.paths.len(), 2);
        assert_eq!(result.accepting().count(), 1);
        assert_eq!(result.rejecting().count(), 1);
        assert_eq!(result.stats.runs, 2);
    }

    #[test]
    fn nested_branches_enumerate_all_combinations() {
        let (mut pool, mut solver) = harness();
        let mut exec = Executor::new(&mut pool, &mut solver, ExploreConfig::default());
        let result = exec.explore(&|env: &mut SymEnv<'_>| -> PathResult<()> {
            let mut count = 0u64;
            for i in 0..3 {
                let b = env.sym(&format!("b{i}"), Width::BOOL);
                if env.branch(b)? {
                    count += 1;
                }
            }
            env.note(format!("ones={count}"));
            env.mark_accept();
            Ok(())
        });
        assert_eq!(result.paths.len(), 8);
        // All 0..=3 counts appear.
        for ones in 0..=3 {
            let tag = format!("ones={ones}");
            assert!(
                result.paths.iter().any(|p| p.notes.contains(&tag)),
                "{tag} missing"
            );
        }
    }

    #[test]
    fn infeasible_side_not_explored() {
        let (mut pool, mut solver) = harness();
        let mut exec = Executor::new(&mut pool, &mut solver, ExploreConfig::default());
        let result = exec.explore(&|env: &mut SymEnv<'_>| -> PathResult<()> {
            let x = env.sym("x", Width::W8);
            let three = env.constant(3, Width::W8);
            env.assume_eq(x, three)?;
            let five = env.constant(5, Width::W8);
            // x == 3, so x < 5 is forced: only one path.
            if env.if_ult(x, five)? {
                env.mark_accept();
            } else {
                env.mark_reject();
            }
            Ok(())
        });
        assert_eq!(result.paths.len(), 1);
        assert_eq!(
            result.paths[0].branch_points, 0,
            "forced branch consumes no decision"
        );
        assert_eq!(result.accepting().count(), 1);
    }

    #[test]
    fn contradictory_assume_kills_path() {
        let (mut pool, mut solver) = harness();
        let mut exec = Executor::new(&mut pool, &mut solver, ExploreConfig::default());
        let result = exec.explore(&|env: &mut SymEnv<'_>| -> PathResult<()> {
            let x = env.sym("x", Width::W8);
            let three = env.constant(3, Width::W8);
            let four = env.constant(4, Width::W8);
            env.assume_eq(x, three)?;
            env.assume_eq(x, four)?;
            env.mark_accept();
            Ok(())
        });
        assert_eq!(result.paths.len(), 0);
        assert_eq!(result.stats.infeasible, 1);
    }

    #[test]
    fn depth_budget_stops_symbolic_loops() {
        let (mut pool, mut solver) = harness();
        let config = ExploreConfig {
            max_depth: 8,
            max_runs: 64,
            ..ExploreConfig::default()
        };
        let mut exec = Executor::new(&mut pool, &mut solver, config);
        let result = exec.explore(&|env: &mut SymEnv<'_>| -> PathResult<()> {
            // Unbounded symbolic loop: branch forever on fresh symbols.
            let mut i = 0usize;
            loop {
                let b = env.sym(&format!("b{i}"), Width::BOOL);
                if !env.branch(b)? {
                    break;
                }
                i += 1;
            }
            env.mark_accept();
            Ok(())
        });
        assert!(result.stats.depth_exhausted > 0);
        // Paths that exited before the budget are still completed.
        assert!(result.paths.len() >= 8);
    }

    #[test]
    fn recv_script_shared_across_paths() {
        let (mut pool, mut solver) = harness();
        let layout = MessageLayout::builder("m").field("a", Width::W8).build();
        let (config, msg) = ExploreConfig::with_symbolic_message(&mut pool, &layout, "in");
        let mut exec = Executor::new(&mut pool, &mut solver, config);
        let result = exec.explore(&|env: &mut SymEnv<'_>| -> PathResult<()> {
            let layout = MessageLayout::builder("m").field("a", Width::W8).build();
            let m = env.recv(&layout)?;
            let ten = env.constant(10, Width::W8);
            if env.if_ult(m.field("a"), ten)? {
                env.mark_accept();
            } else {
                env.mark_reject();
            }
            Ok(())
        });
        assert_eq!(result.paths.len(), 2);
        // Both paths constrain the same field variable.
        let var = msg.field("a");
        for p in &result.paths {
            assert_eq!(p.received.len(), 1);
            assert_eq!(p.received[0].field("a"), var);
        }
    }

    #[test]
    fn default_verdict_from_sending() {
        let (mut pool, mut solver) = harness();
        let layout = MessageLayout::builder("reply")
            .field("code", Width::W8)
            .build();
        let mut exec = Executor::new(&mut pool, &mut solver, ExploreConfig::default());
        let result = exec.explore(&|env: &mut SymEnv<'_>| -> PathResult<()> {
            let x = env.sym("x", Width::W8);
            let zero = env.constant(0, Width::W8);
            if env.if_eq(x, zero)? {
                // Reply → accepting by default.
                let layout = MessageLayout::builder("reply")
                    .field("code", Width::W8)
                    .build();
                let ok = env.constant(200, Width::W8);
                env.send(SymMessage::new(layout, vec![ok]));
            }
            Ok(())
        });
        let _ = layout;
        assert_eq!(result.accepting().count(), 1);
        assert_eq!(result.rejecting().count(), 1);
    }

    #[test]
    fn observer_prunes_paths() {
        struct PruneDeep;
        impl PathObserver for PruneDeep {
            fn on_constraint(&mut self, cx: &mut ObserverCx<'_>) -> bool {
                cx.pc.len() < 2
            }
        }
        let (mut pool, mut solver) = harness();
        let mut exec = Executor::new(&mut pool, &mut solver, ExploreConfig::default());
        let mut obs = PruneDeep;
        let result = exec.explore_observed(
            &|env: &mut SymEnv<'_>| -> PathResult<()> {
                for i in 0..4 {
                    let b = env.sym(&format!("b{i}"), Width::BOOL);
                    let _ = env.branch(b)?;
                }
                env.mark_accept();
                Ok(())
            },
            &mut obs,
        );
        assert_eq!(result.paths.len(), 0);
        assert!(result.stats.pruned > 0);
    }

    #[test]
    fn initial_constraints_restrict_all_paths() {
        let (mut pool, mut solver) = harness();
        // Pre-constrain x < 5 before exploration (constructed local state).
        let x = pool.fresh("x", Width::W8);
        let five = pool.constant(5, Width::W8);
        let lt = pool.ult(x, five);
        let config = ExploreConfig {
            initial_constraints: vec![lt],
            ..ExploreConfig::default()
        };
        let mut exec = Executor::new(&mut pool, &mut solver, config);
        let result = exec.explore(&|env: &mut SymEnv<'_>| -> PathResult<()> {
            // Re-intern the same variable name: the registry is fresh per
            // exploration, so get the var from the pool instead.
            let xv = env.sym("x2", Width::W8); // fresh var, unrelated
            let _ = xv;
            env.mark_accept();
            Ok(())
        });
        assert_eq!(result.paths.len(), 1);
        assert_eq!(result.paths[0].constraints, vec![lt]);
    }

    #[test]
    fn bfs_explores_shallow_paths_first() {
        let (mut pool, mut solver) = harness();
        let config = ExploreConfig {
            order: ExploreOrder::Bfs,
            ..ExploreConfig::default()
        };
        let mut exec = Executor::new(&mut pool, &mut solver, config);
        // A program where the false side of the first branch exits
        // immediately (depth 1) and the true side goes deeper (depth 3).
        let result = exec.explore(&|env: &mut SymEnv<'_>| -> PathResult<()> {
            let b0 = env.sym("b0", Width::BOOL);
            if !env.branch(b0)? {
                env.note("shallow");
                env.mark_accept();
                return Ok(());
            }
            for i in 1..3 {
                let b = env.sym(&format!("b{i}"), Width::BOOL);
                let _ = env.branch(b)?;
            }
            env.note("deep");
            env.mark_accept();
            Ok(())
        });
        assert_eq!(result.paths.len(), 5, "1 shallow + 4 deep leaves");
        // Under BFS the shallow path completes before the deepest ones.
        let shallow_pos = result
            .paths
            .iter()
            .position(|p| p.notes.contains(&"shallow".to_string()))
            .expect("shallow path exists");
        assert!(
            shallow_pos <= 1,
            "BFS finishes the depth-1 path early (pos {shallow_pos})"
        );
    }

    #[test]
    fn max_paths_caps_completed_paths() {
        let (mut pool, mut solver) = harness();
        let config = ExploreConfig {
            max_paths: 3,
            ..ExploreConfig::default()
        };
        let mut exec = Executor::new(&mut pool, &mut solver, config);
        let result = exec.explore(&|env: &mut SymEnv<'_>| -> PathResult<()> {
            for i in 0..4 {
                let b = env.sym(&format!("b{i}"), Width::BOOL);
                let _ = env.branch(b)?;
            }
            env.mark_accept();
            Ok(())
        });
        assert_eq!(result.paths.len(), 3, "exploration stopped at the cap");
    }

    #[test]
    fn run_concrete_single_path() {
        let (mut pool, mut solver) = harness();
        let layout = MessageLayout::builder("m").field("a", Width::W8).build();
        let concrete = SymMessage::concrete(&mut pool, &layout, &[42]);
        let config = ExploreConfig {
            recv_script: vec![concrete],
            ..ExploreConfig::default()
        };
        let mut exec = Executor::new(&mut pool, &mut solver, config);
        let result = exec.run_concrete(&|env: &mut SymEnv<'_>| -> PathResult<()> {
            let layout = MessageLayout::builder("m").field("a", Width::W8).build();
            let m = env.recv(&layout)?;
            let ten = env.constant(10, Width::W8);
            // 42 < 10 is concretely false: no fork, single path.
            if env.if_ult(m.field("a"), ten)? {
                env.mark_accept();
            } else {
                env.mark_reject();
            }
            Ok(())
        });
        assert_eq!(result.paths.len(), 1);
        assert_eq!(result.stats.runs, 1);
        assert_eq!(result.rejecting().count(), 1);
    }
}
