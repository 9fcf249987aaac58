//! The builder-style front door: [`AchillesSession`] runs the pipeline
//! against a [`TargetSpec`], and [`TargetRegistry`] selects specs by name.
//! It is the one way to analyze a protocol:
//!
//! ```text
//! let registry = builtin_registry();            // assembled once, elsewhere
//! let spec = registry.get("fsp").unwrap();
//! let report = AchillesSession::new(&**spec).workers(4).run();
//! ```
//!
//! and validation is
//! `achilles_replay::validate_session_trojans(&*spec.replay_target(), …)`.
//! Protocols join by implementing [`TargetSpec`] and registering — no
//! driver changes.

use std::fmt;
use std::sync::Arc;

use achilles_symvm::{MessageLayout, NodeProgram, SymMessage};

use crate::pipeline::{Achilles, AchillesConfig, AchillesReport, LocalState};
use crate::predicate::{ClientPredicate, FieldMask};
use crate::report::TrojanReport;
use crate::search::{prepare_client_workers, Optimizations};
use crate::sequence::analyze_sequence_with;
use crate::target::TargetSpec;

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// A named collection of [`TargetSpec`]s, in registration order.
///
/// The registry is the single point where protocols are enumerated:
/// drivers iterate it (conformance suites, the replay-validation bench) or
/// look a spec up by name (`--target fsp`). Registering a spec whose name
/// is already present replaces the earlier entry, so callers can override
/// a built-in configuration.
#[derive(Default)]
pub struct TargetRegistry {
    specs: Vec<Arc<dyn TargetSpec>>,
}

impl fmt::Debug for TargetRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TargetRegistry")
            .field("targets", &self.names())
            .finish()
    }
}

impl TargetRegistry {
    /// An empty registry.
    pub fn new() -> TargetRegistry {
        TargetRegistry::default()
    }

    /// Registers a spec under [`TargetSpec::name`], replacing any earlier
    /// spec of the same name.
    pub fn register(&mut self, spec: Arc<dyn TargetSpec>) -> &mut TargetRegistry {
        self.specs.retain(|s| s.name() != spec.name());
        self.specs.push(spec);
        self
    }

    /// The spec registered under `name`.
    pub fn get(&self, name: &str) -> Option<&Arc<dyn TargetSpec>> {
        self.specs.iter().find(|s| s.name() == name)
    }

    /// Registered names, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.specs.iter().map(|s| s.name()).collect()
    }

    /// Iterates the registered specs in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<dyn TargetSpec>> {
        self.specs.iter()
    }

    /// Number of registered specs.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

/// A builder-style pipeline run over one [`TargetSpec`].
///
/// The session owns the engine (pool + solver), starts from
/// [`AchillesConfig::verified`] with the spec's [`TargetSpec::mask`], and
/// exposes the common knobs as chainable setters. [`AchillesSession::run`] executes client predicate
/// extraction (merging every client program of the spec), pre-processing,
/// and the server Trojan search; the engine stays available afterwards for
/// rendering witnesses or issuing custom queries.
///
/// # Examples
///
/// ```
/// use achilles::AchillesSession;
/// # use std::sync::Arc;
/// # use achilles::{Delivery, InjectionOutcome, ReplayTarget, TargetSpec};
/// # use achilles_solver::Width;
/// # use achilles_symvm::{MessageLayout, NodeProgram, PathResult, SymEnv, SymMessage};
/// # fn layout() -> Arc<MessageLayout> {
/// #     MessageLayout::builder("kv").field("op", Width::W8).field("key", Width::W16).build()
/// # }
/// # struct KvTarget;
/// # impl ReplayTarget for KvTarget {
/// #     fn name(&self) -> &'static str { "kv" }
/// #     fn layout(&self) -> Arc<MessageLayout> { layout() }
/// #     fn benign_fields(&self) -> Vec<u64> { vec![1, 0] }
/// #     fn client_generable(&self, fields: &[u64]) -> bool { fields[1] < 1024 }
/// #     fn inject(&self, d: &[Delivery]) -> InjectionOutcome {
/// #         InjectionOutcome { accepted_each: d.iter().map(|(w, _)| w[0] == 1 && u64::from(w[1]) * 256 + u64::from(w[2]) < 4096).collect(), effects: vec![] }
/// #     }
/// # }
/// # struct KvSpec;
/// # fn client(env: &mut SymEnv<'_>) -> PathResult<()> {
/// #     let key = env.sym("key", Width::W16);
/// #     let limit = env.constant(1024, Width::W16);
/// #     if !env.if_ult(key, limit)? { return Ok(()); }
/// #     let op = env.constant(1, Width::W8);
/// #     env.send(SymMessage::new(layout(), vec![op, key]));
/// #     Ok(())
/// # }
/// # fn server(env: &mut SymEnv<'_>) -> PathResult<()> {
/// #     let msg = env.recv(&layout())?;
/// #     let one = env.constant(1, Width::W8);
/// #     if !env.if_eq(msg.field("op"), one)? { return Ok(()); }
/// #     let limit = env.constant(4096, Width::W16);
/// #     if !env.if_ult(msg.field("key"), limit)? { return Ok(()); }
/// #     env.mark_accept();
/// #     Ok(())
/// # }
/// # impl TargetSpec for KvSpec {
/// #     fn name(&self) -> &'static str { "kv" }
/// #     fn layout(&self) -> Arc<MessageLayout> { layout() }
/// #     fn clients(&self) -> Vec<Box<dyn NodeProgram + Sync + '_>> { vec![Box::new(client)] }
/// #     fn server(&self) -> Box<dyn NodeProgram + Sync + '_> { Box::new(server) }
/// #     fn replay_target(&self) -> Box<dyn ReplayTarget> { Box::new(KvTarget) }
/// # }
/// let spec = KvSpec;
/// let mut session = AchillesSession::new(&spec);
/// let report = session.run();
/// assert_eq!(report.trojans.len(), 1, "the server's oversized-key window");
/// ```
pub struct AchillesSession<'s> {
    spec: &'s dyn TargetSpec,
    config: AchillesConfig,
    engine: Achilles,
}

impl fmt::Debug for AchillesSession<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AchillesSession")
            .field("target", &self.spec.name())
            .field("config", &self.config)
            .finish()
    }
}

impl<'s> AchillesSession<'s> {
    /// A session over `spec`: witness verification on, default
    /// optimizations and exploration limits, one worker, and the spec's
    /// [`TargetSpec::mask`].
    pub fn new(spec: &'s dyn TargetSpec) -> AchillesSession<'s> {
        AchillesSession {
            spec,
            config: AchillesConfig {
                mask: spec.mask(),
                ..AchillesConfig::verified()
            },
            engine: Achilles::new(),
        }
    }

    /// Fans the client exploration, pre-processing, and server analysis
    /// out over `n` work-stealing workers (`1` = sequential). All three
    /// phases share the engine's persistent query cache, so raising the
    /// worker count also turns repeated queries *across* phases into
    /// cross-phase cache hits
    /// ([`ExploreStats::cross_phase_cache_hits`](achilles_symvm::ExploreStats)).
    pub fn workers(mut self, n: usize) -> AchillesSession<'s> {
        self.config.server_explore.workers = n.max(1);
        self.config.client_explore.workers = n.max(1);
        self
    }

    /// Re-verifies every witness against every client path predicate.
    pub fn verify_witnesses(mut self, on: bool) -> AchillesSession<'s> {
        self.config.verify_witnesses = on;
        self
    }

    /// Overrides the optimization toggles (§6.4 ablation).
    pub fn optimizations(mut self, opts: Optimizations) -> AchillesSession<'s> {
        self.config.optimizations = opts;
        self
    }

    /// Overrides the server local-state mode (§3.4).
    pub fn local_state(mut self, state: LocalState) -> AchillesSession<'s> {
        self.config.local_state = state;
        self
    }

    /// Overrides the field mask (§5.2).
    pub fn mask(mut self, mask: FieldMask) -> AchillesSession<'s> {
        self.config.mask = mask;
        self
    }

    /// The target this session analyzes.
    pub fn spec(&self) -> &'s dyn TargetSpec {
        self.spec
    }

    /// The effective pipeline configuration.
    pub fn config(&self) -> &AchillesConfig {
        &self.config
    }

    /// Mutable access to the configuration, for knobs without a dedicated
    /// setter (exploration budgets, say).
    pub fn config_mut(&mut self) -> &mut AchillesConfig {
        &mut self.config
    }

    /// The underlying engine (pool + solver), e.g. for rendering the
    /// constraints of a finished run.
    pub fn engine(&self) -> &Achilles {
        &self.engine
    }

    /// Consumes the session, returning the engine with the pool the
    /// reports' terms live in.
    pub fn into_engine(self) -> Achilles {
        self.engine
    }

    /// Runs the pipeline over the spec's client programs and server:
    /// exactly [`Achilles::run`] on the session's engine and configuration.
    pub fn run(&mut self) -> AchillesReport {
        let clients = self.spec.clients();
        let clients: Vec<&(dyn NodeProgram + Sync)> = clients.iter().map(|c| &**c).collect();
        let server = self.spec.server();
        self.engine
            .run(&clients, &*server, &self.spec.layout(), &self.config)
    }
}

// ---------------------------------------------------------------------------
// Session (multi-message) runs
// ---------------------------------------------------------------------------

/// Everything the analysis of one declared [`SessionSpec`] produced.
///
/// Each [`TrojanReport`]'s `witness_fields` is the *whole session* —
/// per-slot field values concatenated in slot order ([`SessionReport::split_fields`]
/// recovers the per-slot messages) — and `trojan_slots[i]` names the slots
/// whose message on report `i`'s path is un-generable by that slot's
/// correct clients (the slot attribution).
///
/// [`SessionSpec`]: crate::target::SessionSpec
#[derive(Debug)]
pub struct SessionReport {
    /// The declared session's name.
    pub session: String,
    /// Slot names, in slot order.
    pub slot_names: Vec<String>,
    /// Per-slot wire layouts, in slot order.
    pub layouts: Vec<Arc<MessageLayout>>,
    /// The spec's expected session-Trojan count hint.
    pub expected_trojans: Option<usize>,
    /// Discovered session Trojans, in canonical server-path order.
    pub trojans: Vec<TrojanReport>,
    /// Per-report slot attribution: which slots host the Trojan.
    pub trojan_slots: Vec<Vec<usize>>,
    /// Completed session server paths.
    pub server_paths: usize,
}

impl SessionReport {
    /// Per-slot field counts, in slot order.
    pub fn slot_field_counts(&self) -> Vec<usize> {
        self.layouts.iter().map(|l| l.num_fields()).collect()
    }

    /// Splits a concatenated session witness back into per-slot field
    /// vectors.
    ///
    /// # Panics
    ///
    /// Panics if `fields` does not have exactly the session's total arity.
    pub fn split_fields(&self, fields: &[u64]) -> Vec<Vec<u64>> {
        crate::export::split_fields_by_counts(fields, &self.slot_field_counts())
    }
}

impl<'s> AchillesSession<'s> {
    /// Runs the multi-message session analyses the spec declares: for each
    /// [`SessionSpec`](crate::target::SessionSpec), every referenced
    /// session client is explored once, each slot's client predicates are
    /// merged and pre-processed against a fresh symbolic slot message, and
    /// [`analyze_sequence`](crate::sequence::analyze_sequence) runs the
    /// session server over the work-stealing pool
    /// (`config.server_explore.workers`, budgets included) — so session
    /// Trojans are registry-drivable with the same worker-count
    /// bit-identity guarantee as the single-message search.
    ///
    /// Returns one [`SessionReport`] per declared session, in declaration
    /// order (empty when the spec declares none).
    ///
    /// # Panics
    ///
    /// Panics if a declared slot references a session-client index that is
    /// out of range.
    pub fn run_sessions(&mut self) -> Vec<SessionReport> {
        let _span = achilles_obs::span("session:run", "pipeline");
        let sessions = self.spec.sessions();
        if sessions.is_empty() {
            return Vec::new();
        }
        let clients = self.spec.session_clients();
        let mut preds = Vec::with_capacity(clients.len());
        for client in &clients {
            let (pred, _) = self
                .engine
                .extract_client_predicate(&**client, &self.config.client_explore);
            preds.push(pred);
        }
        let workers = self.config.server_explore.workers.max(1);
        let mut out = Vec::with_capacity(sessions.len());
        for session in sessions {
            let mut prepared = Vec::with_capacity(session.slots.len());
            for slot in &session.slots {
                let parts: Vec<ClientPredicate> = slot
                    .clients
                    .iter()
                    .map(|&ci| {
                        preds
                            .get(ci)
                            .unwrap_or_else(|| {
                                panic!(
                                    "session {:?} slot {:?} references client {ci}, \
                                     but the spec declares only {} session clients",
                                    session.name,
                                    slot.name,
                                    preds.len()
                                )
                            })
                            .clone()
                    })
                    .collect();
                let merged = ClientPredicate::merge(parts);
                let msg = SymMessage::fresh(
                    &mut self.engine.pool,
                    &slot.layout,
                    &format!("{}:{}", session.name, slot.name),
                );
                prepared.push(prepare_client_workers(
                    &mut self.engine.pool,
                    &mut self.engine.solver,
                    merged,
                    msg,
                    slot.mask.clone(),
                    self.config.optimizations,
                    workers,
                ));
            }
            let server = self.spec.session_server(&session.name);
            let (trojans, trojan_slots, server_paths) = analyze_sequence_with(
                &mut self.engine.pool,
                &mut self.engine.solver,
                &*server,
                prepared.iter().collect(),
                self.config.optimizations,
                self.config.server_explore.clone(),
            );
            out.push(SessionReport {
                session: session.name.clone(),
                slot_names: session.slots.iter().map(|s| s.name.clone()).collect(),
                layouts: session
                    .slots
                    .iter()
                    .map(|s| Arc::clone(&s.layout))
                    .collect(),
                expected_trojans: session.expected_trojans,
                trojans,
                trojan_slots,
                server_paths,
            });
        }
        // Same merge-point mirror as `Achilles::run`: session discovery
        // publishes through the engine-persistent shared cache, so its
        // series must reflect this path too.
        self.engine.shared_cache().stats().record_metrics();
        crate::pipeline::record_proof_audit_metrics();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::{Delivery, InjectionOutcome, ReplayTarget};
    use achilles_solver::Width;
    use achilles_symvm::{MessageLayout, NodeProgram, PathResult, SymEnv, SymMessage};

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
        let limit = env.constant(4096, Width::W16);
        if !env.if_ult(msg.field("key"), limit)? {
            return Ok(());
        }
        env.mark_accept();
        Ok(())
    }

    struct KvTarget;
    impl ReplayTarget for KvTarget {
        fn name(&self) -> &'static str {
            "kv"
        }
        fn layout(&self) -> Arc<MessageLayout> {
            layout()
        }
        fn benign_fields(&self) -> Vec<u64> {
            vec![1, 0]
        }
        fn client_generable(&self, fields: &[u64]) -> bool {
            fields[0] == 1 && fields[1] < 1024
        }
        fn inject(&self, deliveries: &[Delivery]) -> InjectionOutcome {
            InjectionOutcome {
                accepted_each: deliveries.iter().map(|_| true).collect(),
                effects: vec![],
            }
        }
    }

    struct KvSpec;
    impl crate::target::TargetSpec for KvSpec {
        fn name(&self) -> &'static str {
            "kv"
        }
        fn layout(&self) -> Arc<MessageLayout> {
            layout()
        }
        fn clients(&self) -> Vec<Box<dyn NodeProgram + Sync + '_>> {
            vec![Box::new(client)]
        }
        fn server(&self) -> Box<dyn NodeProgram + Sync + '_> {
            Box::new(server)
        }
        fn replay_target(&self) -> Box<dyn ReplayTarget> {
            Box::new(KvTarget)
        }
        fn expected_trojans(&self) -> Option<usize> {
            Some(1)
        }
    }

    /// A second client sending only `op = 2` messages: the server accepts
    /// none of them, so merging it in must leave the Trojan set unchanged
    /// while adding its path predicates to `P_C`.
    fn other_client(env: &mut SymEnv<'_>) -> PathResult<()> {
        let key = env.sym("key", Width::W16);
        let op = env.constant(2, Width::W8);
        env.send(SymMessage::new(layout(), vec![op, key]));
        Ok(())
    }

    /// [`KvSpec`] with two client programs.
    struct TwoClientKvSpec;
    impl crate::target::TargetSpec for TwoClientKvSpec {
        fn name(&self) -> &'static str {
            "kv2"
        }
        fn layout(&self) -> Arc<MessageLayout> {
            layout()
        }
        fn clients(&self) -> Vec<Box<dyn NodeProgram + Sync + '_>> {
            vec![Box::new(client), Box::new(other_client)]
        }
        fn server(&self) -> Box<dyn NodeProgram + Sync + '_> {
            Box::new(server)
        }
        fn replay_target(&self) -> Box<dyn ReplayTarget> {
            Box::new(KvTarget)
        }
    }

    #[test]
    fn session_matches_the_raw_pipeline() {
        type Clients = [&'static (dyn NodeProgram + Sync)];
        let one: &Clients = &[&client];
        let two: &Clients = &[&client, &other_client];
        let specs: [(&dyn crate::target::TargetSpec, &Clients); 2] =
            [(&KvSpec, one), (&TwoClientKvSpec, two)];
        for (spec, clients) in specs {
            let mut session = AchillesSession::new(spec);
            let via_session = session.run();

            let mut achilles = Achilles::new();
            let direct = achilles.run(clients, &server, &layout(), &AchillesConfig::verified());

            let name = spec.name();
            assert_eq!(via_session.client.len(), direct.client.len(), "{name}");
            assert_eq!(
                via_session.client_explore.completed, direct.client_explore.completed,
                "{name}"
            );
            assert_eq!(via_session.trojans.len(), direct.trojans.len(), "{name}");
            assert_eq!(
                via_session.trojans[0].witness_fields, direct.trojans[0].witness_fields,
                "{name}"
            );
            assert_eq!(via_session.server_paths, direct.server_paths, "{name}");
            assert_eq!(via_session.trojans.len(), 1, "{name}");
            // The engine stays usable for custom queries over the results.
            assert!(!session.engine().pool.is_empty());
        }
        assert_eq!(KvSpec.expected_trojans(), Some(1));
    }

    #[test]
    fn registry_selects_replaces_and_iterates() {
        let mut registry = TargetRegistry::new();
        registry.register(Arc::new(KvSpec));
        assert_eq!(registry.names(), vec!["kv"]);
        assert!(registry.get("kv").is_some());
        assert!(registry.get("nope").is_none());
        assert_eq!(registry.len(), 1);
        // Same-name registration replaces.
        registry.register(Arc::new(KvSpec));
        assert_eq!(registry.len(), 1);
        let report = AchillesSession::new(&**registry.get("kv").unwrap()).run();
        assert_eq!(report.trojans.len(), 1);
    }

    #[test]
    fn engine_cache_persists_across_phases_and_runs() {
        // The engine attaches one SharedCache for its lifetime: a later
        // phase's worker solvers re-use queries an earlier phase paid for,
        // and the reuse is visible as cross-phase cache hits — without
        // perturbing any result.
        let spec = KvSpec;
        let mut session = AchillesSession::new(&spec).workers(4);
        let first = session.run();
        let second = session.run();
        assert_eq!(
            first.trojans[0].witness_fields, second.trojans[0].witness_fields,
            "cache reuse never changes results"
        );
        assert!(
            second.client_explore.cross_phase_cache_hits > 0,
            "re-exploring the client re-uses the first run's published \
             queries (shared hits: {}, cross-phase: {})",
            second.client_explore.shared_cache_hits,
            second.client_explore.cross_phase_cache_hits,
        );
        let cache = session.engine().shared_cache().stats();
        assert!(cache.cross_epoch_hits > 0);
        assert!(cache.cross_epoch_hits <= cache.hits);
    }

    #[test]
    fn session_workers_knob_is_deterministic() {
        let spec = KvSpec;
        let seq = AchillesSession::new(&spec).run();
        let par = AchillesSession::new(&spec).workers(4).run();
        assert_eq!(seq.trojans.len(), par.trojans.len());
        assert_eq!(seq.trojans[0].witness_fields, par.trojans[0].witness_fields);
        assert_eq!(par.server_workers.len(), 4);
    }
}
