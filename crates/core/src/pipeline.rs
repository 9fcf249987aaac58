//! The end-to-end Achilles pipeline.
//!
//! [`Achilles`] owns the shared term pool and solver and drives the three
//! phases of the paper:
//!
//! 1. **Client analysis** — explore the client program, capture sent
//!    messages → [`ClientPredicate`];
//! 2. **Pre-processing** — negate every client path predicate and compute
//!    the `differentFrom` matrix → [`PreparedClient`];
//! 3. **Server analysis** — explore the server with the [`TrojanObserver`]
//!    installed, incrementally emitting [`TrojanReport`]s.
//!
//! Local state (§3.4) is configured through [`LocalState`]: run the server
//! from concrete state, from state constructed by symbolic messages of a
//! previous analysis, or from annotated over-approximate state.

use std::sync::Arc;
use std::time::Duration;

use achilles_solver::{SharedCache, Solver, TermId, TermPool};
use achilles_symvm::{
    Executor, ExploreConfig, ExploreStats, MessageLayout, NodeProgram, SymMessage,
};

use crate::predicate::{ClientPredicate, FieldMask};
use crate::report::TrojanReport;
use crate::search::{
    prepare_client_workers, run_trojan_search, MatchSample, Optimizations, PreparedClient,
    TrojanSearchOutcome, TrojanSearchStats, WorkerSummary,
};

/// How the analyzed server node obtains its local state (§3.4).
#[derive(Clone, Debug, Default)]
pub enum LocalState {
    /// The program builds (or receives) fully concrete local state — the
    /// default: run the system concretely up to the point of interest.
    #[default]
    Concrete,
    /// Constructed Symbolic Local State: the constraints under which the
    /// state-building messages were produced are seeded into every server
    /// path, and the state itself may contain symbolic values.
    Constructed {
        /// Constraints carried over from the state-construction phase.
        constraints: Vec<TermId>,
    },
    /// Over-approximate Symbolic Local State: the server program itself
    /// replaces state reads with annotated symbolic values
    /// ([`SymEnv::sym`](achilles_symvm::SymEnv::sym) /
    /// [`SymEnv::sym_in_range`](achilles_symvm::SymEnv::sym_in_range));
    /// nothing extra is seeded here.
    OverApproximate,
}

/// Wall-clock time of each pipeline phase (the §6.2 breakdown).
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimes {
    /// Gathering the client predicate.
    pub client: Duration,
    /// Pre-processing the client predicate.
    pub preprocess: Duration,
    /// Analyzing the server (wall clock).
    pub server: Duration,
    /// CPU time spent across all server-analysis workers (equals `server`
    /// for single-threaded runs; up to `workers ×` it when scaling).
    pub server_cpu: Duration,
}

impl PhaseTimes {
    /// Total pipeline wall-clock time.
    pub fn total(&self) -> Duration {
        self.client + self.preprocess + self.server
    }
}

/// Everything one full Achilles run produces.
#[derive(Debug)]
pub struct AchillesReport {
    /// The extracted client predicate (pre-negation).
    pub client: ClientPredicate,
    /// The symbolic message analyzed by the server.
    pub server_msg: SymMessage,
    /// Discovered Trojan messages, in discovery order.
    pub trojans: Vec<TrojanReport>,
    /// Per-phase wall-clock times.
    pub phase_times: PhaseTimes,
    /// Figure 11 samples (path length vs matching predicates), one per
    /// explored server constraint.
    pub samples: Vec<MatchSample>,
    /// Search counters.
    pub search_stats: TrojanSearchStats,
    /// Client exploration counters.
    pub client_explore: ExploreStats,
    /// Server exploration counters (includes steals and shared-cache hits
    /// for parallel runs).
    pub server_explore: ExploreStats,
    /// Completed server paths.
    pub server_paths: usize,
    /// Per-worker server-analysis breakdown (one entry for sequential runs).
    pub server_workers: Vec<WorkerSummary>,
}

/// Configuration for a full pipeline run.
#[derive(Clone, Debug, Default)]
pub struct AchillesConfig {
    /// Field mask (checksums, digests, authenticators — §5.2).
    pub mask: FieldMask,
    /// Optimization toggles (§6.4 ablation).
    pub optimizations: Optimizations,
    /// Re-verify every witness against every client path predicate.
    pub verify_witnesses: bool,
    /// Client exploration limits.
    pub client_explore: ExploreConfig,
    /// Server exploration limits.
    pub server_explore: ExploreConfig,
    /// Server local-state mode.
    pub local_state: LocalState,
}

impl AchillesConfig {
    /// A configuration with verification on and default limits.
    pub fn verified() -> AchillesConfig {
        AchillesConfig {
            verify_witnesses: true,
            ..AchillesConfig::default()
        }
    }
}

/// The Achilles analysis engine: shared pool, solver, and pipeline drivers.
///
/// The engine owns one [`SharedCache`] for its whole lifetime, attached to
/// the base solver and inherited by every worker solver a parallel phase
/// spawns — so a query the client phase paid for is a cache hit during the
/// server-path drop checks, and stays one across later session analyses on
/// the same engine. Each phase is an epoch of the cache; the reuse is
/// reported per exploration as
/// [`ExploreStats::cross_phase_cache_hits`].
///
/// # Examples
///
/// See the crate-level docs for the full working example of the paper's §2.
#[derive(Debug)]
pub struct Achilles {
    /// The shared term pool (exposed for custom queries over the results).
    pub pool: TermPool,
    /// The shared caching solver.
    pub solver: Solver,
    shared: Arc<SharedCache>,
}

impl Default for Achilles {
    fn default() -> Achilles {
        // Opt-in proof auditing: when `ACHILLES_CHECK_PROOFS` is set, every
        // unsat verdict any engine produces is validated by the independent
        // checker (a rejection is a solver bug and panics loudly).
        achilles_proofcheck::install_audit_from_env();
        let shared = Arc::new(SharedCache::new());
        Achilles {
            pool: TermPool::new(),
            solver: Solver::new().with_shared_cache(Arc::clone(&shared)),
            shared,
        }
    }
}

impl Achilles {
    /// Creates an engine with default solver configuration.
    pub fn new() -> Achilles {
        Achilles::default()
    }

    /// The engine-lifetime shared query cache (every pipeline phase — and
    /// every worker solver a parallel phase spawns — publishes into and
    /// reads from this one cache).
    pub fn shared_cache(&self) -> &Arc<SharedCache> {
        &self.shared
    }

    /// Phase 1: extracts the client predicate from a client program.
    ///
    /// Honors [`ExploreConfig::workers`]: client exploration parallelizes the
    /// same way the server analysis does.
    pub fn extract_client_predicate(
        &mut self,
        client: &(dyn NodeProgram + Sync),
        config: &ExploreConfig,
    ) -> (ClientPredicate, ExploreStats) {
        let mut exec = Executor::new(&mut self.pool, &mut self.solver, config.clone());
        let result = exec.explore_multi(client);
        (ClientPredicate::from_exploration(&result), result.stats)
    }

    /// Phase 1½: pre-processes a client predicate against a fresh symbolic
    /// server message of `layout`.
    pub fn prepare(
        &mut self,
        client: ClientPredicate,
        layout: &Arc<MessageLayout>,
        mask: FieldMask,
        opts: Optimizations,
    ) -> PreparedClient {
        self.prepare_with_workers(client, layout, mask, opts, 1)
    }

    /// [`Achilles::prepare`] with the per-path negation loop fanned out
    /// over `workers` threads (deterministic: see
    /// [`prepare_client_workers`]).
    pub fn prepare_with_workers(
        &mut self,
        client: ClientPredicate,
        layout: &Arc<MessageLayout>,
        mask: FieldMask,
        opts: Optimizations,
        workers: usize,
    ) -> PreparedClient {
        let server_msg = SymMessage::fresh(&mut self.pool, layout, "msg");
        prepare_client_workers(
            &mut self.pool,
            &mut self.solver,
            client,
            server_msg,
            mask,
            opts,
            workers,
        )
    }

    /// Phase 2: analyzes the server with the Trojan observer installed.
    ///
    /// Sequential when `config.server_explore.workers <= 1`; otherwise the
    /// exploration fans out over a work-stealing pool with per-worker
    /// solvers and a shared query cache (see
    /// [`run_trojan_search`](crate::search::run_trojan_search)).
    pub fn analyze_server(
        &mut self,
        server: &(dyn NodeProgram + Sync),
        prepared: &PreparedClient,
        config: &AchillesConfig,
    ) -> TrojanSearchOutcome {
        let mut explore = config.server_explore.clone();
        explore.recv_script = vec![prepared.server_msg.clone()];
        if let LocalState::Constructed { constraints } = &config.local_state {
            explore.initial_constraints.extend_from_slice(constraints);
        }
        run_trojan_search(
            &mut self.pool,
            &mut self.solver,
            prepared,
            server,
            explore,
            config.optimizations,
            config.verify_witnesses,
        )
    }

    /// Runs the full pipeline: client → preprocessing → server.
    ///
    /// Every program in `clients` is explored and the predicates merged in
    /// order (`P_C` = union over clients, e.g. the eight FSP utilities);
    /// the exploration counters of the client phase are summed likewise.
    ///
    /// Phase timing comes from `achilles_obs` timed spans: each phase of
    /// [`PhaseTimes`] is the duration of the matching span, so the §6.2
    /// breakdown and the exported Chrome trace are views of one
    /// measurement. The run also mirrors its deterministic counters
    /// (Trojan-search drops/checks, proof-audit totals) into the process
    /// metrics registry.
    pub fn run(
        &mut self,
        clients: &[&(dyn NodeProgram + Sync)],
        server: &(dyn NodeProgram + Sync),
        layout: &Arc<MessageLayout>,
        config: &AchillesConfig,
    ) -> AchillesReport {
        let run_span = achilles_obs::timed("pipeline:run", "pipeline");

        let phase = achilles_obs::timed("phase:client", "pipeline");
        let mut parts = Vec::with_capacity(clients.len());
        let mut client_explore = ExploreStats::default();
        for &client in clients {
            let (pred, stats) = self.extract_client_predicate(client, &config.client_explore);
            accumulate_stats(&mut client_explore, &stats);
            parts.push(pred);
        }
        let client_pred = ClientPredicate::merge(parts);
        let client_time = phase.finish();

        let phase = achilles_obs::timed("phase:preprocess", "pipeline");
        let prepared = self.prepare_with_workers(
            client_pred,
            layout,
            config.mask.clone(),
            config.optimizations,
            config.server_explore.workers.max(1),
        );
        let preprocess_time = phase.finish();

        let phase = achilles_obs::timed("phase:server", "pipeline");
        let outcome = self.analyze_server(server, &prepared, config);
        let server_time = phase.finish();

        run_span.finish();
        let server_cpu: Duration = outcome.workers.iter().map(|w| w.busy).sum();
        outcome.stats.record_metrics();
        self.shared.stats().record_metrics();
        record_proof_audit_metrics();
        AchillesReport {
            client: prepared.client.clone(),
            server_msg: prepared.server_msg.clone(),
            trojans: outcome.reports,
            phase_times: PhaseTimes {
                client: client_time,
                preprocess: preprocess_time,
                server: server_time,
                server_cpu,
            },
            samples: outcome.samples,
            search_stats: outcome.stats,
            client_explore,
            server_explore: outcome.explore,
            server_paths: outcome.server_paths,
            server_workers: outcome.workers,
        }
    }
}

/// Accumulation of exploration counters across the client programs of one
/// run: plain-sum counters via [`ExploreStats::absorb_counters`] (shared
/// with the parallel worker merge), `workers` as max, the rest as sums.
fn accumulate_stats(into: &mut ExploreStats, part: &ExploreStats) {
    into.absorb_counters(part);
    into.workers = into.workers.max(part.workers);
    into.workers_effective = into.workers_effective.max(part.workers_effective);
    into.steals += part.steals;
    into.shared_cache_hits += part.shared_cache_hits;
    into.cross_phase_cache_hits += part.cross_phase_cache_hits;
    into.wall_time += part.wall_time;
}

/// Publishes the process-lifetime proof-audit totals (certificates checked
/// by the independent `achilles-proofcheck` auditor, and the wall time it
/// spent) as registry gauges. The count is workload-fixed when the audit is
/// installed; the time is wall.
pub(crate) fn record_proof_audit_metrics() {
    let (checked, spent) = achilles_solver::proof_audit_stats();
    let reg = achilles_obs::global();
    reg.set(
        achilles_obs::Class::Deterministic,
        "achilles_solver_proof_audit_checked_total",
        &[],
        checked,
    );
    reg.set(
        achilles_obs::Class::Wall,
        "achilles_solver_proof_audit_time_ns_total",
        &[],
        spent.as_nanos() as u64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use achilles_solver::Width;
    use achilles_symvm::{PathResult, SymEnv};

    fn layout() -> Arc<MessageLayout> {
        MessageLayout::builder("kv")
            .field("op", Width::W8)
            .field("key", Width::W16)
            .build()
    }

    fn client(env: &mut SymEnv<'_>) -> PathResult<()> {
        let key = env.sym("key", Width::W16);
        let limit = env.constant(1024, Width::W16);
        if !env.if_ult(key, limit)? {
            return Ok(());
        }
        let op = env.constant(1, Width::W8);
        env.send(SymMessage::new(layout(), vec![op, key]));
        Ok(())
    }

    fn server(env: &mut SymEnv<'_>) -> PathResult<()> {
        let msg = env.recv(&layout())?;
        let one = env.constant(1, Width::W8);
        if !env.if_eq(msg.field("op"), one)? {
            return Ok(());
        }
        // Bug: the server accepts keys up to 4096, clients only send < 1024.
        let limit = env.constant(4096, Width::W16);
        if !env.if_ult(msg.field("key"), limit)? {
            return Ok(());
        }
        env.mark_accept();
        Ok(())
    }

    #[test]
    fn full_pipeline_finds_oversized_keys() {
        let mut achilles = Achilles::new();
        let config = AchillesConfig::verified();
        let report = achilles.run(&[&client], &server, &layout(), &config);
        assert_eq!(report.client.len(), 1);
        assert_eq!(report.trojans.len(), 1);
        let t = &report.trojans[0];
        assert!(t.verified);
        let key = t.witness_fields[1];
        assert!(
            (1024..4096).contains(&key),
            "witness key {key} in the Trojan window"
        );
        assert!(report.phase_times.total() > Duration::ZERO);
        assert!(report.server_paths >= 1);
    }

    #[test]
    fn constructed_state_constraints_are_seeded() {
        let mut achilles = Achilles::new();
        // Pretend a previous phase pinned the state: key space reduced so the
        // Trojan window shrinks but survives.
        let (client_pred, _) =
            achilles.extract_client_predicate(&client, &ExploreConfig::default());
        let prepared = achilles.prepare(
            client_pred,
            &layout(),
            FieldMask::none(),
            Optimizations::default(),
        );
        let key_field = prepared.server_msg.field("key");
        let cap = achilles.pool.constant(2000, Width::W16);
        let seeded = achilles.pool.ult(key_field, cap);
        let config = AchillesConfig {
            verify_witnesses: true,
            local_state: LocalState::Constructed {
                constraints: vec![seeded],
            },
            ..AchillesConfig::default()
        };
        let outcome = achilles.analyze_server(&server, &prepared, &config);
        assert_eq!(outcome.reports.len(), 1);
        let key = outcome.reports[0].witness_fields[1];
        assert!(
            (1024..2000).contains(&key),
            "seeded constraint caps the witness: {key}"
        );
    }
}
