//! The incremental Trojan search (§3.2, §3.3 — Figure 7).
//!
//! Achilles does not materialize the server predicate `P_S` and difference
//! it against `P_C` a posteriori. Instead it installs a [`TrojanObserver`]
//! into the server exploration:
//!
//! * per path, it tracks the set of client path predicates that can still
//!   trigger the path (`pathS ∧ pathC_i` satisfiable); predicates that no
//!   longer match are **dropped** and their negations leave the Trojan query
//!   (if `pathS ∧ pathC_i` is unsat, `pathS ⇒ negate(pathC_i)` holds
//!   implicitly);
//! * when a drop was caused by a branch that depends on a single message
//!   field, the pre-computed [`DiffMatrix`] drops whole groups of related
//!   predicates without solver calls;
//! * after every conjunct it checks whether *any* Trojan message can still
//!   trigger the path (`pathS ∧ ⋀ negate(pathC_i)` for the active `i`);
//!   as soon as the answer is no, the path is pruned from the exploration;
//! * at every accepting path end, the same query's model is concretized into
//!   a witness message and (optionally) re-verified against every client
//!   path predicate.
//!
//! The active set is the observer's per-path state: it is checkpointed as a
//! bitset with every fork the executor schedules and resumed by the run
//! that explores the fork, so each conjunct is checked once, however many
//! re-executions replay it (S2E gets the same effect by forking the state).
//!
//! Each of those checks also keeps its last satisfying model
//! ([`LastModel`]), and the checkpoint carries the models too, keyed by
//! variable fingerprints so a stolen fork keeps them on any worker. Before
//! calling the solver a check evaluates the model on the conjuncts added
//! since it was found; if they all hold, the answer is `Sat` with no search.
//! Reuse only answers `Sat`, every observer decision only asks "is it
//! unsat?", and witnesses are canonicalized from the query alone
//! ([`canonical_witness_fields`]), so drops, prunes and witnesses are the
//! same as without reuse.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use achilles_solver::{Model, SatResult, Solver, TermId, TermPool, VarId};
use achilles_symvm::{
    Checkpoint, Executor, ExploreConfig, ExploreStats, LastModel, NodeProgram, ObserverCx,
    PathObserver, PathRecord, SymMessage, Verdict,
};

use crate::diff_matrix::DiffMatrix;
use crate::negate::{negate_path, NegateStats, NegatedPath};
use crate::predicate::{combine, ClientPredicate, FieldMask};
use crate::report::TrojanReport;

/// Toggles for the paper's optimizations (the §6.4 ablation switches these).
#[derive(Clone, Copy, Debug)]
pub struct Optimizations {
    /// Drop client predicates whose conjunction with the server path became
    /// unsatisfiable (§3.3, first optimization).
    pub drop_covered: bool,
    /// Use the pre-computed `differentFrom` matrix to drop related
    /// predicates without solver calls (§3.3, second optimization).
    pub use_diff_matrix: bool,
    /// Prune server paths that can no longer accept any Trojan message
    /// (Figure 7's discarded states).
    pub prune_paths: bool,
}

impl Default for Optimizations {
    fn default() -> Optimizations {
        Optimizations {
            drop_covered: true,
            use_diff_matrix: true,
            prune_paths: true,
        }
    }
}

impl Optimizations {
    /// Everything off: the non-optimized configuration of §6.4.
    pub fn none() -> Optimizations {
        Optimizations {
            drop_covered: false,
            use_diff_matrix: false,
            prune_paths: false,
        }
    }
}

/// The client predicate pre-processed for the server analysis: negations
/// (with the §4.1 soundness check applied) and the `differentFrom` matrix.
#[derive(Debug)]
pub struct PreparedClient {
    /// The extracted client predicate.
    pub client: ClientPredicate,
    /// The symbolic message the server will receive.
    pub server_msg: SymMessage,
    /// `negate(pathC_i)` per client path.
    pub negations: Vec<NegatedPath>,
    /// The `differentFrom` matrix (empty if the optimization is off).
    pub diff: Option<DiffMatrix>,
    /// The field mask in effect.
    pub mask: FieldMask,
    /// Negation statistics.
    pub negate_stats: NegateStats,
    /// Total pre-processing time.
    pub prep_time: Duration,
    /// Map from server message field variables to field indices (used to
    /// detect single-field branches for matrix propagation).
    field_of_var: HashMap<VarId, usize>,
}

/// Pre-processes a client predicate against the server message (§3 phase 1½:
/// "it pre-processes `P_C` to eliminate redundancy and to pre-compute
/// structure information").
pub fn prepare_client(
    pool: &mut TermPool,
    solver: &mut Solver,
    client: ClientPredicate,
    server_msg: SymMessage,
    mask: FieldMask,
    opts: Optimizations,
) -> PreparedClient {
    prepare_client_workers(pool, solver, client, server_msg, mask, opts, 1)
}

/// Negates every client path against `server_msg`, fanning the per-path work
/// out over up to `workers` threads.
///
/// Each path's negation is independent of every other's (the ROADMAP's
/// "embarrassingly parallel" loop), so workers take a strided share of the
/// paths on forks of the base pool, and the resulting clauses are imported
/// back in client-path order. Because the existential `λ'` copies are
/// interned by deterministic tags ([`rename_fresh_tagged`]), the imported
/// clauses are *fingerprint-identical* for every worker count — parallel
/// pre-processing never perturbs downstream solver models or the Trojan set.
///
/// [`rename_fresh_tagged`]: crate::predicate::rename_fresh_tagged
fn negate_all(
    pool: &mut TermPool,
    solver: &mut Solver,
    client: &ClientPredicate,
    server_msg: &SymMessage,
    mask: &FieldMask,
    workers: usize,
    stats: &mut NegateStats,
) -> Vec<NegatedPath> {
    let n = client.paths.len();
    if workers <= 1 || n < 2 {
        return client
            .paths
            .iter()
            .map(|p| negate_path(pool, solver, server_msg, p, mask, stats))
            .collect();
    }
    let workers = workers.min(n);
    type WorkerNegations = (TermPool, Vec<(usize, NegatedPath)>, NegateStats);
    let results: Vec<WorkerNegations> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                // Distinct nonce family from the exploration pool's forks so
                // ad-hoc variables can never alias across subsystems.
                let mut wpool = pool.fork(0x4E45_4700 + w as u64 + 1); // "NEG\0"
                let mut wsolver = Solver::with_config(solver.config().clone());
                if let Some(shared) = solver.shared_cache() {
                    // Inherit the engine's persistent cache: negation
                    // soundness checks publish into (and read from) the
                    // same pool of results every other phase uses.
                    wsolver = wsolver.with_shared_cache(Arc::clone(shared));
                }
                scope.spawn(move || {
                    let mut wstats = NegateStats::default();
                    let negs: Vec<(usize, NegatedPath)> = (w..n)
                        .step_by(workers)
                        .map(|i| {
                            let neg = negate_path(
                                &mut wpool,
                                &mut wsolver,
                                server_msg,
                                &client.paths[i],
                                mask,
                                &mut wstats,
                            );
                            (i, neg)
                        })
                        .collect();
                    (wpool, negs, wstats)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("negation worker panicked"))
            .collect()
    });

    // Deterministic merge: visit paths in client order, importing each
    // worker's clauses through a per-worker memo.
    let mut pools = Vec::with_capacity(workers);
    let mut by_index: HashMap<usize, (usize, NegatedPath)> = HashMap::new();
    for (w, (wpool, negs, wstats)) in results.into_iter().enumerate() {
        stats.concrete_fields += wstats.concrete_fields;
        stats.symbolic_fields += wstats.symbolic_fields;
        stats.skipped_unconstrained += wstats.skipped_unconstrained;
        stats.discarded_unsound += wstats.discarded_unsound;
        stats.time += wstats.time;
        pools.push(wpool);
        for (i, neg) in negs {
            by_index.insert(i, (w, neg));
        }
    }
    let mut memos: Vec<HashMap<TermId, TermId>> = vec![HashMap::new(); workers];
    (0..n)
        .map(|i| {
            let (w, neg) = by_index.remove(&i).expect("every path index was negated");
            let memo = &mut memos[w];
            NegatedPath {
                client_index: neg.client_index,
                field_clauses: neg
                    .field_clauses
                    .iter()
                    .map(|&(f, c)| (f, pool.import_term(&pools[w], c, memo)))
                    .collect(),
                disjunction: neg
                    .disjunction
                    .map(|d| pool.import_term(&pools[w], d, memo)),
            }
        })
        .collect()
}

/// [`prepare_client`] with the negation loop fanned out over `workers`
/// threads (see [`negate_all`]'s determinism argument). The `differentFrom`
/// matrix and field-variable map stay sequential.
pub fn prepare_client_workers(
    pool: &mut TermPool,
    solver: &mut Solver,
    client: ClientPredicate,
    server_msg: SymMessage,
    mask: FieldMask,
    opts: Optimizations,
    workers: usize,
) -> PreparedClient {
    let started = Instant::now();
    // Pre-processing is its own phase of the engine's persistent cache.
    if let Some(shared) = solver.shared_cache() {
        shared.advance_epoch();
    }
    let mut negate_stats = NegateStats::default();
    let negations = negate_all(
        pool,
        solver,
        &client,
        &server_msg,
        &mask,
        workers.max(1),
        &mut negate_stats,
    );
    let diff = if opts.use_diff_matrix {
        Some(DiffMatrix::compute(
            pool,
            solver,
            &server_msg,
            &client,
            &mask,
        ))
    } else {
        None
    };
    let mut field_of_var = HashMap::new();
    for (i, &t) in server_msg.values().iter().enumerate() {
        if let Some(v) = pool.as_var(t) {
            field_of_var.insert(v, i);
        }
    }
    PreparedClient {
        client,
        server_msg,
        negations,
        diff,
        mask,
        negate_stats,
        prep_time: started.elapsed(),
        field_of_var,
    }
}

/// One (path length, matching predicate count) sample — the raw data of
/// Figure 11.
///
/// A sample is taken once per explored server constraint (one node of the
/// exploration tree), when the constraint is first appended; runs that
/// replay a shared prefix add no samples for it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MatchSample {
    /// Length of the (partial) server path, counted in conjuncts.
    pub path_len: usize,
    /// Client path predicates still matching.
    pub matching: usize,
}

/// Counters for one Trojan search.
///
/// Formerly named `SearchStats`, which collided with the solver's
/// DPLL-search counters (`achilles_solver::SearchStats`); the rename keeps
/// both exportable without aliasing. Metrics registry series are fully
/// qualified: these export as `achilles_trojan_search_*`, the solver's as
/// `achilles_solver_search_*`.
///
/// Drops and checks are counted once per node of the server exploration
/// tree: a run replaying a shared prefix resumes the observer's checkpoint
/// instead of re-checking it, so the counters do not grow with the number
/// of re-executions and are the same for every worker count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TrojanSearchStats {
    /// Client predicates dropped by direct satisfiability checks.
    pub direct_drops: u64,
    /// Client predicates dropped through the `differentFrom` matrix.
    pub matrix_drops: u64,
    /// Trojan-existence checks issued.
    pub trojan_checks: u64,
    /// Paths pruned because no Trojan could trigger them.
    pub paths_pruned: u64,
    /// Witnesses that failed verification and were re-enumerated.
    pub witness_retries: u64,
    /// Drop and Trojan-existence checks answered `Sat` by the query's last
    /// model (carried with forks) instead of the solver.
    pub model_reuse_hits: u64,
}

impl TrojanSearchStats {
    /// Mirrors these counters into the process metrics registry
    /// ([`achilles_obs::global`]) as `achilles_trojan_search_*` series.
    /// Called once per pipeline run when the final report is assembled.
    pub fn record_metrics(&self) {
        use achilles_obs::Class::Deterministic;
        let reg = achilles_obs::global();
        for (name, value) in [
            (
                "achilles_trojan_search_direct_drops_total",
                self.direct_drops,
            ),
            (
                "achilles_trojan_search_matrix_drops_total",
                self.matrix_drops,
            ),
            ("achilles_trojan_search_checks_total", self.trojan_checks),
            (
                "achilles_trojan_search_paths_pruned_total",
                self.paths_pruned,
            ),
            (
                "achilles_trojan_search_witness_retries_total",
                self.witness_retries,
            ),
            (
                "achilles_trojan_search_model_reuse_total",
                self.model_reuse_hits,
            ),
        ] {
            reg.add(Deterministic, name, &[], value);
        }
    }
}

/// The [`PathObserver`] implementing Achilles' incremental search.
#[derive(Debug)]
pub struct TrojanObserver<'p> {
    prepared: &'p PreparedClient,
    opts: Optimizations,
    verify_witnesses: bool,
    active: Vec<bool>,
    active_count: usize,
    /// Last model of each client path's drop query `pathS ∧ pathC_i`.
    drop_models: Vec<LastModel>,
    /// Last model of the Trojan-existence query.
    trojan_model: LastModel,
    /// Trojans found so far (one per accepting server path with Trojans).
    pub reports: Vec<TrojanReport>,
    /// Figure 11 samples: (path length, matching predicates), one per
    /// explored constraint.
    pub samples: Vec<MatchSample>,
    /// Search counters.
    pub stats: TrojanSearchStats,
    started: Instant,
}

impl<'p> TrojanObserver<'p> {
    /// Creates an observer over a prepared client predicate.
    pub fn new(prepared: &'p PreparedClient, opts: Optimizations, verify_witnesses: bool) -> Self {
        let n = prepared.client.len();
        TrojanObserver {
            prepared,
            opts,
            verify_witnesses,
            active: vec![true; n],
            active_count: n,
            drop_models: vec![LastModel::default(); n],
            trojan_model: LastModel::default(),
            reports: Vec::new(),
            samples: Vec::new(),
            stats: TrojanSearchStats::default(),
            started: Instant::now(),
        }
    }

    /// The Trojan-existence query for the current path: `pc ∧ ⋀ negate_i`
    /// over the active client paths. `None` when some active negation is
    /// empty (its under-approximation is `false`, so no Trojan is provable).
    fn trojan_query(&self, pc: &[TermId]) -> Option<Vec<TermId>> {
        let mut query = pc.to_vec();
        for (i, neg) in self.prepared.negations.iter().enumerate() {
            if !self.active[i] {
                continue;
            }
            match neg.disjunction {
                Some(d) => query.push(d),
                None => return None,
            }
        }
        Some(query)
    }

    /// If the newest conjunct depends on exactly one unmasked server message
    /// field (and nothing else), returns that field's index.
    fn single_field_of(&self, pool: &TermPool, constraint: TermId) -> Option<usize> {
        let vars = pool.vars_of(constraint);
        let mut field = None;
        for v in vars {
            match self.prepared.field_of_var.get(&v) {
                Some(&f) => match field {
                    None => field = Some(f),
                    Some(prev) if prev == f => {}
                    Some(_) => return None, // two different fields
                },
                None => return None, // non-message variable involved
            }
        }
        field.filter(|f| !self.prepared.mask.contains(*f))
    }

    fn drop_pass(&mut self, cx: &mut ObserverCx<'_>) {
        let newest = match cx.pc.last() {
            Some(&c) => c,
            None => return,
        };
        // If the newest branch constrains a single message field, drops can
        // be propagated through the differentFrom matrix *before* paying for
        // the solver check on related predicates — the §3.3 optimization.
        let single_field = if self.opts.use_diff_matrix {
            self.single_field_of(cx.pool, newest)
        } else {
            None
        };
        for i in 0..self.active.len() {
            if !self.active[i] {
                continue;
            }
            if self.drop_models[i].covers(cx.pool, cx.pc, &[]) {
                self.stats.model_reuse_hits += 1;
                continue;
            }
            let q = combine(
                cx.pool,
                &self.prepared.server_msg,
                cx.pc,
                &self.prepared.client.paths[i],
                self.prepared.mask.indices(),
            );
            let result = cx.solver.check(cx.pool, &q);
            self.drop_models[i].record(cx.pool, cx.pc.len(), &result);
            if !result.is_unsat() {
                continue;
            }
            self.active[i] = false;
            self.active_count -= 1;
            self.stats.direct_drops += 1;
            // The drop was caused by the new single-field check: every
            // predicate with no extra values for that field dies with it,
            // without consulting the solver.
            if let (Some(diff), Some(field)) = (self.prepared.diff.as_ref(), single_field) {
                for j in 0..self.active.len() {
                    if !self.active[j] {
                        continue;
                    }
                    if diff.different(j, i, field) == Some(false) {
                        self.active[j] = false;
                        self.drop_models[j].clear();
                        self.active_count -= 1;
                        self.stats.matrix_drops += 1;
                    }
                }
            }
        }
    }

    /// Searches for a verified Trojan witness on an accepting path.
    fn witness(&mut self, cx: &mut ObserverCx<'_>, record: &PathRecord) -> Option<TrojanReport> {
        let mut query = self.trojan_query(&record.constraints)?;
        const MAX_RETRIES: usize = 4;
        for _ in 0..=MAX_RETRIES {
            self.stats.trojan_checks += 1;
            let model = match cx.solver.check(cx.pool, &query) {
                SatResult::Sat(m) => m,
                SatResult::Unsat(_) | SatResult::Unknown => return None,
            };
            let fields = canonical_witness_fields(
                cx.pool,
                cx.solver,
                &query,
                self.prepared.server_msg.values(),
                &model,
            );
            let verified = !self.verify_witnesses || self.verify(cx, &fields);
            if verified || !self.verify_witnesses {
                return Some(TrojanReport {
                    server_path_id: record.id,
                    constraints: record.constraints.clone(),
                    witness_fields: fields,
                    active_clients: self.active_count,
                    verified,
                    found_at: self.started.elapsed(),
                    notes: record.notes.clone(),
                });
            }
            // Exclude this witness and try again.
            self.stats.witness_retries += 1;
            let exclusion = self.exclude_witness(cx.pool, &fields);
            query.push(exclusion);
        }
        None
    }

    /// Confirms that no client path predicate can generate the witness.
    fn verify(&self, cx: &mut ObserverCx<'_>, fields: &[u64]) -> bool {
        for path in &self.prepared.client.paths {
            let mut q = path.constraints.clone();
            for (fi, (&expr, &value)) in path.message.values().iter().zip(fields).enumerate() {
                if self.prepared.mask.contains(fi) {
                    continue;
                }
                let w = cx.pool.width(expr);
                let c = cx.pool.constant(value, w);
                let eq = cx.pool.eq(expr, c);
                q.push(eq);
            }
            if cx.solver.is_sat(cx.pool, &q) {
                return false; // a correct client can generate it
            }
        }
        true
    }

    /// A constraint excluding the exact witness (differs in ≥ 1 unmasked field).
    fn exclude_witness(&self, pool: &mut TermPool, fields: &[u64]) -> TermId {
        let mut diffs = Vec::new();
        for (fi, (&sv, &value)) in self
            .prepared
            .server_msg
            .values()
            .iter()
            .zip(fields)
            .enumerate()
        {
            if self.prepared.mask.contains(fi) {
                continue;
            }
            let w = pool.width(sv);
            let c = pool.constant(value, w);
            let ne = pool.ne(sv, c);
            diffs.push(ne);
        }
        pool.or_all(diffs)
    }
}

/// Per-worker counters of one (possibly parallel) Trojan search.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkerSummary {
    /// Worker index (0 for the sequential path).
    pub worker: usize,
    /// Time this worker's solver spent searching.
    pub solve_time: Duration,
    /// Queries this worker's solver answered (including cache hits).
    pub queries: u64,
    /// Queries answered from the cross-worker shared cache.
    pub shared_hits: u64,
    /// Worklist items stolen from other workers.
    pub steals: u64,
    /// Time spent executing worklist items (excludes idle waiting).
    pub busy: Duration,
}

/// Everything one server-side Trojan search produces.
#[derive(Debug, Default)]
pub struct TrojanSearchOutcome {
    /// Trojan reports in canonical path order (terms valid in the caller's
    /// pool, including for parallel runs).
    pub reports: Vec<TrojanReport>,
    /// Figure 11 samples, one per explored constraint (summed over
    /// workers; worker-count invariant).
    pub samples: Vec<MatchSample>,
    /// Search counters, summed over workers.
    pub stats: TrojanSearchStats,
    /// Exploration counters, summed over workers.
    pub explore: ExploreStats,
    /// Completed server paths.
    pub server_paths: usize,
    /// Per-worker breakdown (one entry for sequential runs).
    pub workers: Vec<WorkerSummary>,
}

/// Canonicalizes a satisfiable witness query to its **lexicographically
/// least** model over `exprs`, in order: each expression is driven to its
/// minimal achievable value (binary search on `expr ≤ mid`) with every
/// earlier expression pinned to its minimum.
///
/// The returned values are a pure function of the query's constraint
/// *set*. A raw `check()` model is not: the solver's clause-split order
/// follows term-id order, and term ids differ between the base pool and a
/// parallel worker's fork — with several negation clauses in the query
/// (multi-client targets like shardexec), sequential and parallel runs
/// would concretize different-but-equally-valid witnesses. Canonicalizing
/// here is what keeps discovery witness-identical for every worker count.
///
/// `model` must satisfy `query`; it seeds the upper bounds.
pub fn canonical_witness_fields(
    pool: &mut TermPool,
    solver: &mut Solver,
    query: &[TermId],
    exprs: &[TermId],
    model: &Model,
) -> Vec<u64> {
    let mut pinned = query.to_vec();
    let mut current: Option<Arc<Model>> = None; // latest model satisfying `pinned`
    let mut fields = Vec::with_capacity(exprs.len());
    for &expr in exprs {
        let bound_model = current.as_deref().unwrap_or(model);
        let mut hi = bound_model.eval(pool, expr).unwrap_or(0);
        let mut lo = 0u64;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let w = pool.width(expr);
            let c = pool.constant(mid, w);
            let le = pool.ule(expr, c);
            pinned.push(le);
            let result = solver.check(pool, &pinned);
            pinned.pop();
            match result {
                SatResult::Sat(m) => {
                    hi = m.eval(pool, expr).unwrap_or(mid);
                    current = Some(m);
                }
                // Unknown is deterministic per assertion set: treating it
                // as "not provably achievable" keeps the result canonical.
                SatResult::Unsat(_) | SatResult::Unknown => lo = mid + 1,
            }
        }
        let w = pool.width(expr);
        let c = pool.constant(lo, w);
        let eq = pool.eq(expr, c);
        pinned.push(eq);
        fields.push(lo);
    }
    fields
}

/// Tag-family salt for the server phase's symbolic inputs (see
/// [`ExploreConfig::sym_salt`]); the client phase uses the default `0`.
const SERVER_SYM_SALT: u64 = 0x5352_5600; // "SRV\0"

/// Runs the incremental Trojan search over `server`, sequentially or on
/// [`ExploreConfig::workers`] work-stealing threads.
///
/// This is the shared driver behind
/// [`Achilles::analyze_server`](crate::pipeline::Achilles::analyze_server)
/// and the FSP/PBFT/Paxos analyses. In parallel mode every worker runs its own [`TrojanObserver`]
/// over a fork of `pool`; afterwards reports are imported back into `pool`,
/// their path ids remapped to the canonical depth-first numbering, and the
/// result sorted by path id — which makes the report *set* identical to a
/// sequential run's (timestamps and per-worker statistics aside).
pub fn run_trojan_search(
    pool: &mut TermPool,
    solver: &mut Solver,
    prepared: &PreparedClient,
    server: &(dyn NodeProgram + Sync),
    mut explore: ExploreConfig,
    opts: Optimizations,
    verify_witnesses: bool,
) -> TrojanSearchOutcome {
    // The server runs in the same pool lineage as the client exploration;
    // give its symbolic inputs their own tag family so a server `sym()` can
    // never share a fingerprint with the client's i-th input of the same
    // name and width (callers may override with a nonzero salt).
    if explore.sym_salt == 0 {
        explore.sym_salt = SERVER_SYM_SALT;
    }
    // The work-stealing pool schedules depth-first per worker and cannot
    // reproduce BFS completion order; keep BFS explorations sequential.
    if explore.workers <= 1 || explore.order == achilles_symvm::ExploreOrder::Bfs {
        let queries_before = solver.stats().queries;
        let solve_before = solver.stats().solve_time;
        let shared_before = solver.stats().shared_hits;
        // The sequential search is its own pipeline phase of the engine's
        // persistent cache: hits on entries an earlier phase published
        // (client extraction, preprocessing) are cross-phase reuse.
        let cross_before = solver.shared_cache().map(|s| {
            s.advance_epoch();
            s.stats().cross_epoch_hits
        });
        let item_started = Instant::now();
        let mut observer = TrojanObserver::new(prepared, opts, verify_witnesses);
        let mut result = {
            let mut exec = Executor::new(pool, solver, explore);
            exec.explore_observed(server, &mut observer)
        };
        let TrojanObserver {
            reports,
            samples,
            stats,
            ..
        } = observer;
        result.stats.shared_cache_hits = solver.stats().shared_hits - shared_before;
        if let (Some(before), Some(shared)) = (cross_before, solver.shared_cache()) {
            result.stats.cross_phase_cache_hits =
                shared.stats().cross_epoch_hits.saturating_sub(before);
        }
        let summary = WorkerSummary {
            worker: 0,
            solve_time: solver.stats().solve_time - solve_before,
            queries: solver.stats().queries - queries_before,
            shared_hits: solver.stats().shared_hits - shared_before,
            steals: 0,
            busy: item_started.elapsed(),
        };
        return TrojanSearchOutcome {
            reports,
            samples,
            stats,
            server_paths: result.paths.len(),
            explore: result.stats,
            workers: vec![summary],
        };
    }

    let outcome = {
        let mut exec = Executor::new(pool, solver, explore);
        exec.explore_parallel(server, |_| {
            TrojanObserver::new(prepared, opts, verify_witnesses)
        })
    };
    let server_paths = outcome.result.paths.len();
    let explore_stats = outcome.result.stats;
    let mut reports: Vec<TrojanReport> = Vec::new();
    let mut samples: Vec<MatchSample> = Vec::new();
    let mut stats = TrojanSearchStats::default();
    let mut workers = Vec::with_capacity(outcome.workers.len());
    for worker in outcome.workers {
        let observer = worker.observer;
        stats.direct_drops += observer.stats.direct_drops;
        stats.matrix_drops += observer.stats.matrix_drops;
        stats.trojan_checks += observer.stats.trojan_checks;
        stats.paths_pruned += observer.stats.paths_pruned;
        stats.witness_retries += observer.stats.witness_retries;
        stats.model_reuse_hits += observer.stats.model_reuse_hits;
        samples.extend(observer.samples);
        let mut memo = HashMap::new();
        for mut report in observer.reports {
            // Paths past a binding budget's canonical cut are absent from
            // the id map; their reports are discarded, exactly as a
            // sequential capped run would never have found them.
            let Some(&final_id) = outcome.id_map.get(&report.server_path_id) else {
                continue;
            };
            report.server_path_id = final_id;
            report.constraints = report
                .constraints
                .iter()
                .map(|&t| pool.import_term(&worker.pool, t, &mut memo))
                .collect();
            reports.push(report);
        }
        workers.push(WorkerSummary {
            worker: worker.worker,
            solve_time: worker.solver_stats.solve_time,
            queries: worker.solver_stats.queries,
            shared_hits: worker.solver_stats.shared_hits,
            steals: worker.steals,
            busy: worker.busy,
        });
    }
    // Canonical order: one report per accepting path, sorted like the paths.
    reports.sort_by_key(|r| r.server_path_id);
    TrojanSearchOutcome {
        reports,
        samples,
        stats,
        explore: explore_stats,
        server_paths,
        workers,
    }
}

impl PathObserver for TrojanObserver<'_> {
    fn on_path_start(&mut self) {
        self.active.iter_mut().for_each(|a| *a = true);
        self.active_count = self.active.len();
        self.drop_models.iter_mut().for_each(LastModel::clear);
        self.trojan_model.clear();
    }

    /// The active bitset, plus the drop queries' models followed by the
    /// Trojan query's.
    fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            models: self
                .drop_models
                .iter()
                .chain([&self.trojan_model])
                .map(LastModel::carried)
                .collect(),
            ..Checkpoint::from_bits(self.active.iter().copied())
        }
    }

    fn resume(&mut self, checkpoint: &Checkpoint) {
        for (i, a) in self.active.iter_mut().enumerate() {
            *a = checkpoint.bit(i);
        }
        self.active_count = self.active.iter().filter(|&&a| a).count();
        let n = self.drop_models.len();
        for (i, m) in self.drop_models.iter_mut().enumerate() {
            *m = LastModel::resume(checkpoint.model(i));
        }
        self.trojan_model = LastModel::resume(checkpoint.model(n));
    }

    fn on_constraint(&mut self, cx: &mut ObserverCx<'_>) -> bool {
        if self.opts.drop_covered {
            self.drop_pass(cx);
        }
        self.samples.push(MatchSample {
            path_len: cx.pc.len(),
            matching: self.active_count,
        });
        if !self.opts.prune_paths {
            return true;
        }
        match self.trojan_query(cx.pc) {
            None => {
                // Some active client path cannot be negated at all: the
                // under-approximated Trojan set is empty on this path.
                self.stats.paths_pruned += 1;
                false
            }
            Some(query) => {
                self.stats.trojan_checks += 1;
                // The active negations only shrink along a path, so a model
                // of the last query satisfies them all still.
                if self.trojan_model.covers(cx.pool, cx.pc, &[]) {
                    self.stats.model_reuse_hits += 1;
                    return true;
                }
                let result = cx.solver.check(cx.pool, &query);
                self.trojan_model.record(cx.pool, cx.pc.len(), &result);
                let keep = !result.is_unsat();
                if !keep {
                    self.stats.paths_pruned += 1;
                }
                keep
            }
        }
    }

    fn on_path_end(&mut self, cx: &mut ObserverCx<'_>, record: &PathRecord) {
        if record.verdict != Verdict::Accept {
            return;
        }
        if let Some(report) = self.witness(cx, record) {
            self.reports.push(report);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use achilles_solver::Width;
    use achilles_symvm::{Executor, ExploreConfig, MessageLayout, NodeProgram, PathResult, SymEnv};
    use std::sync::Arc;

    fn layout() -> Arc<MessageLayout> {
        MessageLayout::builder("m")
            .field("request", Width::W8)
            .field("address", Width::W32)
            .build()
    }

    /// Figure 3 client (READ/WRITE with validated address).
    struct PaperClient;
    impl NodeProgram for PaperClient {
        fn run(&self, env: &mut SymEnv<'_>) -> PathResult<()> {
            let op = env.sym("operationType", Width::W8);
            let addr = env.sym("address", Width::W32);
            let hundred = env.constant(100, Width::W32);
            let zero = env.constant(0, Width::W32);
            if !env.if_slt(addr, hundred)? {
                return Ok(());
            }
            if env.if_slt(addr, zero)? {
                return Ok(());
            }
            let read = env.constant(1, Width::W8);
            let req = if env.if_eq(op, read)? {
                env.constant(1, Width::W8)
            } else {
                env.constant(2, Width::W8)
            };
            env.send(SymMessage::new(layout(), vec![req, addr]));
            Ok(())
        }
    }

    /// Figure 2 server: READ forgets the `address < 0` check.
    struct PaperServer;
    impl NodeProgram for PaperServer {
        fn run(&self, env: &mut SymEnv<'_>) -> PathResult<()> {
            let msg = env.recv(&layout())?;
            let req = msg.field("request");
            let addr = msg.field("address");
            let hundred = env.constant(100, Width::W32);
            let one = env.constant(1, Width::W8);
            let two = env.constant(2, Width::W8);
            if env.if_eq(req, one)? {
                env.note("READ");
                if !env.if_slt(addr, hundred)? {
                    return Ok(()); // rejecting: continue
                }
                // Missing: address < 0 check (the Trojan window).
                env.mark_accept();
                return Ok(());
            }
            if env.if_eq(req, two)? {
                env.note("WRITE");
                if !env.if_slt(addr, hundred)? {
                    return Ok(());
                }
                let zero = env.constant(0, Width::W32);
                if env.if_slt(addr, zero)? {
                    return Ok(());
                }
                env.mark_accept();
                return Ok(());
            }
            Ok(())
        }
    }

    /// Phases 1 and 1½: the paper client's predicate, prepared against a
    /// symbolic server message.
    fn prepare(opts: Optimizations) -> (TermPool, Solver, PreparedClient, ExploreConfig) {
        let mut pool = TermPool::new();
        let mut solver = Solver::new();
        // Phase 1: client predicate.
        let client_result = {
            let mut exec = Executor::new(&mut pool, &mut solver, ExploreConfig::default());
            exec.explore(&PaperClient)
        };
        let client = ClientPredicate::from_exploration(&client_result);
        // Phase 1½: preprocessing.
        let (server_config, server_msg) =
            ExploreConfig::with_symbolic_message(&mut pool, &layout(), "msg");
        let prepared = prepare_client(
            &mut pool,
            &mut solver,
            client,
            server_msg,
            FieldMask::none(),
            opts,
        );
        (pool, solver, prepared, server_config)
    }

    fn run_pipeline(
        opts: Optimizations,
    ) -> (
        TermPool,
        PreparedClient,
        Vec<TrojanReport>,
        TrojanSearchStats,
        Vec<MatchSample>,
    ) {
        let (mut pool, mut solver, prepared, server_config) = prepare(opts);
        // Phase 2: server analysis.
        let mut observer = TrojanObserver::new(&prepared, opts, true);
        {
            let mut exec = Executor::new(&mut pool, &mut solver, server_config);
            exec.explore_observed(&PaperServer, &mut observer);
        }
        let TrojanObserver {
            reports,
            stats,
            samples,
            ..
        } = observer;
        (pool, prepared, reports, stats, samples)
    }

    #[test]
    fn finds_the_negative_address_trojan() {
        let (_pool, prepared, reports, _stats, _samples) = run_pipeline(Optimizations::default());
        assert_eq!(prepared.client.len(), 2);
        assert_eq!(reports.len(), 1, "exactly the READ path has Trojans");
        let r = &reports[0];
        assert!(r.verified);
        assert!(r.notes.contains(&"READ".to_string()));
        // The witness address is negative (or ≥ 100): not generable.
        let addr = Width::W32.to_signed(r.witness_fields[1]);
        assert!(!(0..100).contains(&addr), "addr = {addr}");
        // And its request field is READ.
        assert_eq!(r.witness_fields[0], 1);
    }

    #[test]
    fn non_optimized_finds_the_same_trojans() {
        let (_p1, _c1, optimized, stats_opt) = {
            let (p, c, r, s, _samples) = run_pipeline(Optimizations::default());
            drop((p, c));
            ((), (), r, s)
        };
        let (_p2, _c2, plain, stats_plain) = {
            let (p, c, r, s, _samples) = run_pipeline(Optimizations::none());
            drop((p, c));
            ((), (), r, s)
        };
        assert_eq!(optimized.len(), plain.len());
        assert_eq!(optimized[0].witness_fields[0], plain[0].witness_fields[0]);
        // The optimized run actually dropped predicates; the plain one did not.
        assert!(stats_opt.direct_drops > 0);
        assert_eq!(stats_plain.direct_drops, 0);
        assert_eq!(stats_plain.paths_pruned, 0);
    }

    #[test]
    fn samples_decrease_along_paths() {
        let (_pool, prepared, _reports, _stats, samples) = run_pipeline(Optimizations::default());
        assert_eq!(prepared.client.len(), 2);
        assert!(!samples.is_empty(), "one sample per explored constraint");
        assert!(
            samples.iter().all(|s| s.matching <= 2),
            "at most both client paths match: {samples:?}"
        );
        // The request branch splits READ from WRITE, so some path narrows
        // the matching set below both client paths.
        assert!(
            samples.iter().any(|s| s.matching < 2),
            "no sample narrowed: {samples:?}"
        );
    }

    #[test]
    fn model_reuse_is_verified_not_assumed() {
        let opts = Optimizations::default();
        let (mut pool, mut solver, prepared, _) = prepare(opts);
        let msg = prepared.server_msg.values().to_vec();
        let (req, addr) = (msg[0], msg[1]);
        let read = prepared
            .client
            .paths
            .iter()
            .position(|p| pool.as_const(p.message.values()[0]) == Some(1))
            .expect("a READ client path");
        let one = pool.constant(1, Width::W8);
        let hundred = pool.constant(100, Width::W32);
        // The server's READ branch, then its `address < 100` check failing.
        let is_read = pool.eq(req, one);
        let below = pool.slt(addr, hundred);
        let not_below = pool.not(below);

        fn observe(
            obs: &mut TrojanObserver<'_>,
            pool: &mut TermPool,
            solver: &mut Solver,
            pc: &[TermId],
        ) -> bool {
            obs.on_constraint(&mut ObserverCx {
                pool,
                solver,
                pc,
                received: &[],
            })
        }

        // Observe the READ branch and checkpoint: the READ predicate is still
        // active, with a model of `pathS ∧ pathC_read` to carry.
        let mut first = TrojanObserver::new(&prepared, opts, true);
        first.on_path_start();
        assert!(observe(&mut first, &mut pool, &mut solver, &[is_read]));
        assert!(first.active[read]);
        let checkpoint = first.checkpoint();
        let carried = checkpoint.model(read).expect("READ drop query was sat");
        let model = carried.model.to_model(&pool).expect("same pool");
        assert_eq!(carried.checked, 1);
        // The carried model fails the next conjunct (READ clients send
        // addresses below 100).
        assert_eq!(model.eval(&pool, not_below), Some(0));

        // Resumed from the checkpoint, the failing model sends the query to
        // the solver, which drops the READ predicate: exactly what an
        // observer that saw the whole prefix from scratch does.
        let pc = [is_read, not_below];
        let mut resumed = TrojanObserver::new(&prepared, opts, true);
        resumed.resume(&checkpoint);
        let queries = solver.stats().queries;
        let keep_resumed = observe(&mut resumed, &mut pool, &mut solver, &pc);
        assert!(solver.stats().queries > queries, "the solver was consulted");
        let mut fresh = TrojanObserver::new(&prepared, opts, true);
        fresh.on_path_start();
        observe(&mut fresh, &mut pool, &mut solver, &pc[..1]);
        let keep_fresh = observe(&mut fresh, &mut pool, &mut solver, &pc);
        assert!(!resumed.active[read], "READ dropped by the solver's Unsat");
        assert_eq!(resumed.active, fresh.active);
        assert_eq!(keep_resumed, keep_fresh);
        assert_eq!(resumed.stats.direct_drops, 1);

        // A conjunct the carried model does satisfy is answered by reuse,
        // and the READ predicate stays active.
        let value = model.value(pool.as_var(addr).unwrap()).unwrap();
        let pinned_value = pool.constant(value, Width::W32);
        let pinned = pool.eq(addr, pinned_value);
        let mut reused = TrojanObserver::new(&prepared, opts, true);
        reused.resume(&checkpoint);
        observe(&mut reused, &mut pool, &mut solver, &[is_read, pinned]);
        assert!(reused.active[read]);
        assert!(reused.stats.model_reuse_hits >= 1);
        assert_eq!(reused.stats.direct_drops, 0);
    }

    #[test]
    fn write_path_has_no_trojans() {
        let (_pool, _prepared, reports, stats, _samples) = run_pipeline(Optimizations::default());
        assert!(
            !reports
                .iter()
                .any(|r| r.notes.contains(&"WRITE".to_string())),
            "WRITE validates fully; it must not be reported"
        );
        // The WRITE accepting path was pruned before completion or produced
        // no witness; either way pruning must have engaged somewhere.
        assert!(stats.paths_pruned > 0 || stats.trojan_checks > 0);
    }
}
