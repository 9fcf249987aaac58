//! Parallel determinism: `workers = 1` and `workers = 4` must produce
//! identical Trojan sets, path counts, and witnesses on the quickstart
//! scenario and on every built-in protocol spec.
//!
//! Why this holds by construction: the executor schedules paths as decision
//! prefixes and re-executes from the program start, so a path's constraint
//! *structure* is a function of its prefix alone — not of which worker runs
//! it. Workers explore in forks of the base pool, results are re-interned
//! into the base pool and sorted into canonical depth-first order, and every
//! per-path solver query is deterministic given its (structural) assertion
//! set. Only wall-clock-derived statistics may differ between runs.
//!
//! The guarantee covers capped runs too: a binding `max_paths`/`max_runs`
//! budget truncates the completed set to the canonical depth-first prefix
//! (in-flight items finish, the merge cuts at the sequential bound), so
//! capped parallel runs are bit-identical to capped sequential runs — the
//! capped-budget cases below pin exactly that.

use std::sync::Arc;

use achilles::{Achilles, AchillesConfig, TrojanReport};
use achilles_solver::Width;
use achilles_symvm::{ExploreConfig, MessageLayout, PathResult, SymEnv, SymMessage};

/// Key of a Trojan report for set comparison: the concrete witness plus the
/// path it was found on (timestamps excluded on purpose).
type ReportKey = (usize, Vec<u64>, usize, bool, Vec<String>);

fn report_key(r: &TrojanReport) -> ReportKey {
    (
        r.server_path_id,
        r.witness_fields.clone(),
        r.active_clients,
        r.verified,
        r.notes.clone(),
    )
}

fn report_keys(reports: &[TrojanReport]) -> Vec<ReportKey> {
    reports.iter().map(report_key).collect()
}

// ---------------------------------------------------------------------------
// Quickstart (the paper's §2 working example)
// ---------------------------------------------------------------------------

fn quickstart_layout() -> Arc<MessageLayout> {
    MessageLayout::builder("msg")
        .field("request", Width::W8)
        .field("address", Width::W32)
        .build()
}

fn quickstart_client(env: &mut SymEnv<'_>) -> PathResult<()> {
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
    env.send(SymMessage::new(quickstart_layout(), vec![read, addr]));
    Ok(())
}

fn quickstart_server(env: &mut SymEnv<'_>) -> PathResult<()> {
    let msg = env.recv(&quickstart_layout())?;
    let one = env.constant(1, Width::W8);
    if !env.if_eq(msg.field("request"), one)? {
        return Ok(());
    }
    let hundred = env.constant(100, Width::W32);
    if !env.if_slt(msg.field("address"), hundred)? {
        return Ok(());
    }
    env.mark_accept();
    Ok(())
}

fn run_quickstart(workers: usize) -> achilles::AchillesReport {
    let mut achilles = Achilles::new();
    let config = AchillesConfig {
        server_explore: ExploreConfig {
            workers,
            ..ExploreConfig::default()
        },
        ..AchillesConfig::verified()
    };
    achilles.run(
        &[&quickstart_client],
        &quickstart_server,
        &quickstart_layout(),
        &config,
    )
}

#[test]
fn quickstart_is_worker_count_invariant() {
    let seq = run_quickstart(1);
    let par = run_quickstart(4);
    assert_eq!(seq.server_paths, par.server_paths, "path counts");
    assert_eq!(
        report_keys(&seq.trojans),
        report_keys(&par.trojans),
        "trojan sets + witnesses"
    );
    assert_eq!(par.server_workers.len(), 4);
    assert_eq!(seq.server_workers.len(), 1);
    // The witness is the paper's negative-address READ in both runs.
    let addr = Width::W32.to_signed(par.trojans[0].witness_fields[1]);
    assert!(addr < 0, "addr = {addr}");
}

// ---------------------------------------------------------------------------
// Discovery counters (one observer notification per exploration-tree node)
// ---------------------------------------------------------------------------

#[test]
fn discovery_counters_are_worker_count_invariant() {
    // Forks carry the observer's checkpoint, so every node of the server
    // exploration tree is observed exactly once, by whichever worker runs
    // it. The Trojan-search counters, the solver queries and the Figure 11
    // sample count are therefore worker-count invariant, like the Trojan
    // reports themselves. Inputs: the wildcard FSP setup, every built-in
    // spec, and the Paxos constructed-state scenario.
    use achilles::{AchillesSession, TargetSpec};
    use achilles_fsp::analysis::{expected_length_mismatch_trojans, expected_wildcard_trojans};
    use achilles_fsp::FspSpec;
    use achilles_paxos::{AcceptorMode, PaxosSpec, ProposerMode};
    use achilles_targets::builtin_registry;

    let mut specs: Vec<(&str, Arc<dyn TargetSpec>, usize)> = vec![(
        "fsp-wildcard",
        Arc::new(FspSpec::wildcard()),
        expected_length_mismatch_trojans(8) + expected_wildcard_trojans(8),
    )];
    for spec in builtin_registry().iter() {
        let expected = spec
            .expected_trojans()
            .expect("built-in specs declare their Trojan count");
        specs.push((spec.name(), Arc::clone(spec), expected));
    }
    specs.push((
        "paxos-constructed",
        Arc::new(PaxosSpec::new(
            ProposerMode::Constructed(5),
            AcceptorMode::Concrete(5),
        )),
        1,
    ));
    for (name, spec, expected) in &specs {
        let run = |workers: usize| {
            let report = AchillesSession::new(&**spec).workers(workers).run();
            assert_eq!(report.server_workers.len(), workers, "{name}: worker stats");
            assert_eq!(report.server_explore.workers, workers, "{name}: workers");
            let queries: u64 = report.server_workers.iter().map(|w| w.queries).sum();
            (
                report.search_stats,
                queries,
                report.samples.len(),
                report.server_paths,
                report.server_explore.runs,
                report_keys(&report.trojans),
            )
        };
        let seq = run(1);
        assert_eq!(seq.5.len(), *expected, "{name}: Trojan count");
        for workers in [2usize, 4] {
            assert_eq!(run(workers), seq, "{name} at {workers} workers");
        }
    }
}

// ---------------------------------------------------------------------------
// Repeatability of the parallel path itself
// ---------------------------------------------------------------------------

#[test]
fn parallel_runs_are_repeatable() {
    use achilles::AchillesSession;
    use achilles_fsp::FspSpec;

    let spec = FspSpec::accuracy().with_commands(1);
    let run = || AchillesSession::new(&spec).workers(4).run();
    let (a, b) = (run(), run());
    assert_eq!(report_keys(&a.trojans), report_keys(&b.trojans));
    assert_eq!(a.server_paths, b.server_paths);
}

// ---------------------------------------------------------------------------
// Unscripted recv() across pool forks
// ---------------------------------------------------------------------------

#[test]
fn unscripted_recv_is_fork_invariant() {
    // `recv()` past the receive script auto-creates the message. Those
    // variables must be interned by (recv index, field, width) — not minted
    // with the pool's fork nonce — or parallel workers each create a
    // distinct copy of the "same" field and merged cross-path reasoning
    // treats them as unrelated. Two differently-forked pools running the
    // same program must therefore produce structurally identical
    // constraints (equal shared-cache keys).
    use achilles_solver::{SharedCache, Solver, TermPool};
    use achilles_symvm::Executor;

    fn server(env: &mut SymEnv<'_>) -> PathResult<()> {
        let msg = env.recv(&quickstart_layout())?;
        let one = env.constant(1, Width::W8);
        if !env.if_eq(msg.field("request"), one)? {
            return Ok(());
        }
        let hundred = env.constant(100, Width::W32);
        if !env.if_slt(msg.field("address"), hundred)? {
            return Ok(());
        }
        env.mark_accept();
        Ok(())
    }

    let base = TermPool::new();
    let keys_for = |nonce: u64| -> Vec<Box<[u128]>> {
        let mut pool = base.fork(nonce);
        let mut solver = Solver::new();
        let mut exec = Executor::new(&mut pool, &mut solver, ExploreConfig::default());
        let result = exec.explore(&server);
        assert!(!result.paths.is_empty());
        result
            .paths
            .iter()
            .map(|p| SharedCache::key_of(&pool, &p.constraints))
            .collect()
    };
    assert_eq!(
        keys_for(1),
        keys_for(2),
        "recv-created variables must not depend on the fork nonce"
    );
}

// ---------------------------------------------------------------------------
// Parallel pre-processing (the negation loop)
// ---------------------------------------------------------------------------

#[test]
fn prepare_client_is_worker_count_invariant() {
    // The per-path negation fan-out must not perturb anything downstream:
    // the full FSP pipeline with parallel preprocessing (workers flows into
    // `prepare_client_workers`) produces the identical Trojan set, and the
    // negation clauses themselves are structurally equal across worker
    // counts because the existential λ' copies are interned by
    // deterministic tags.
    use achilles::{prepare_client_workers, FieldMask, Optimizations};
    use achilles_fsp::extract_client_predicate;
    use achilles_solver::{SharedCache, Solver, TermPool};

    let prep_keys = |workers: usize| -> Vec<Vec<Box<[u128]>>> {
        let mut pool = TermPool::new();
        let mut solver = Solver::new();
        let client = extract_client_predicate(
            &mut pool,
            &mut solver,
            &achilles_fsp::Command::ANALYSIS_SET[..2],
            &achilles_fsp::FspClientConfig::default(),
            &ExploreConfig::default(),
        );
        let server_msg = SymMessage::fresh(&mut pool, &achilles_fsp::layout(), "msg");
        let prepared = prepare_client_workers(
            &mut pool,
            &mut solver,
            client,
            server_msg,
            FieldMask::none(),
            Optimizations::default(),
            workers,
        );
        prepared
            .negations
            .iter()
            .map(|n| {
                n.field_clauses
                    .iter()
                    .map(|&(_, c)| SharedCache::key_of(&pool, &[c]))
                    .collect()
            })
            .collect()
    };
    assert_eq!(
        prep_keys(1),
        prep_keys(4),
        "negation clauses must be fingerprint-identical across worker counts"
    );
}

// ---------------------------------------------------------------------------
// The a-posteriori baseline's differencing loop
// ---------------------------------------------------------------------------

#[test]
fn a_posteriori_diff_is_worker_count_invariant() {
    // The §6.4 baseline fans both its phases out over
    // `ExploreConfig::workers`: the server exploration on the
    // work-stealing pool, the differencing loop over `parallel_map_with`
    // with a forked pool + private solver per worker. Every differencing
    // query is over terms interned before the fan-out, so the Trojan set
    // and witnesses must be identical for every worker count.
    use achilles::{a_posteriori_diff, prepare_client, FieldMask, Optimizations};
    use achilles_fsp::{extract_client_predicate, FspServer};
    use achilles_solver::{Solver, TermPool};

    let run = |workers: usize| {
        let mut pool = TermPool::new();
        let mut solver = Solver::new();
        let client = extract_client_predicate(
            &mut pool,
            &mut solver,
            &achilles_fsp::Command::ANALYSIS_SET[..2],
            &achilles_fsp::FspClientConfig::default(),
            &ExploreConfig::default(),
        );
        let server_msg = SymMessage::fresh(&mut pool, &achilles_fsp::layout(), "msg");
        let prepared = prepare_client(
            &mut pool,
            &mut solver,
            client,
            server_msg,
            FieldMask::none(),
            Optimizations::none(),
        );
        let server_config = achilles_fsp::FspServerConfig {
            commands: achilles_fsp::Command::ANALYSIS_SET[..2].to_vec(),
            ..achilles_fsp::FspServerConfig::default()
        };
        let result = a_posteriori_diff(
            &mut pool,
            &mut solver,
            &FspServer::new(server_config),
            &prepared,
            &ExploreConfig {
                workers,
                ..ExploreConfig::default()
            },
        );
        (
            report_keys(&result.trojans),
            result.accepting_paths,
            result.total_paths,
        )
    };
    let (seq_keys, seq_accepting, seq_total) = run(1);
    let (par_keys, par_accepting, par_total) = run(4);
    assert!(!seq_keys.is_empty(), "the baseline finds the Trojans");
    assert_eq!(seq_keys, par_keys, "trojan sets + witnesses");
    assert_eq!(seq_accepting, par_accepting, "accepting paths");
    assert_eq!(seq_total, par_total, "total paths");
}

// ---------------------------------------------------------------------------
// Capped budgets (canonical truncation)
// ---------------------------------------------------------------------------

#[test]
fn capped_max_paths_pipeline_is_worker_count_invariant() {
    // A binding `max_paths` on the server exploration used to leave a
    // scheduling-dependent Trojan set (raced stop signal); the canonical
    // truncation makes capped runs bit-identical for every worker count.
    let run = |workers: usize, max_paths: usize| {
        let mut achilles = Achilles::new();
        let config = AchillesConfig {
            server_explore: ExploreConfig {
                workers,
                max_paths,
                ..ExploreConfig::default()
            },
            ..AchillesConfig::verified()
        };
        let spec = achilles_fsp::FspSpec::accuracy();
        use achilles::TargetSpec;
        let client = spec.clients().remove(0);
        let server = spec.server();
        let report = achilles.run(&[&*client], &*server, &achilles_fsp::layout(), &config);
        (report_keys(&report.trojans), report.server_paths)
    };
    for max_paths in [5usize, 17, 40] {
        let (seq_keys, seq_paths) = run(1, max_paths);
        let (par_keys, par_paths) = run(4, max_paths);
        assert_eq!(seq_paths, par_paths, "max_paths={max_paths}: path counts");
        assert!(seq_paths <= max_paths, "the cap binds or bounds");
        assert_eq!(
            seq_keys, par_keys,
            "max_paths={max_paths}: capped Trojan sets + witnesses"
        );
    }
}

#[test]
fn bfs_downgrade_is_surfaced_not_silent() {
    // BFS-ordered explorations run sequentially regardless of the worker
    // request; `workers_effective` must say so.
    use achilles_solver::{Solver, TermPool};
    use achilles_symvm::{Executor, ExploreOrder};

    fn program(env: &mut SymEnv<'_>) -> PathResult<()> {
        for i in 0..3 {
            let b = env.sym(&format!("b{i}"), Width::BOOL);
            let _ = env.branch(b)?;
        }
        env.mark_accept();
        Ok(())
    }

    let mut pool = TermPool::new();
    let mut solver = Solver::new();
    let config = ExploreConfig {
        workers: 4,
        order: ExploreOrder::Bfs,
        ..ExploreConfig::default()
    };
    let mut exec = Executor::new(&mut pool, &mut solver, config);
    let result = exec.explore_multi(&program);
    assert_eq!(result.stats.workers, 4, "the request is echoed");
    assert_eq!(
        result.stats.workers_effective, 1,
        "…but the downgrade to sequential is explicit"
    );

    // The DFS parallel path reports what it actually used.
    let mut pool = TermPool::new();
    let mut solver = Solver::new();
    let config = ExploreConfig {
        workers: 4,
        ..ExploreConfig::default()
    };
    let mut exec = Executor::new(&mut pool, &mut solver, config);
    let result = exec.explore_multi(&program);
    assert_eq!(result.stats.workers_effective, 4);
}

// ---------------------------------------------------------------------------
// Session (multi-message) search
// ---------------------------------------------------------------------------

#[test]
fn registry_session_trojans_are_worker_count_invariant() {
    // Session Trojans through the `TargetSpec` surface: every spec that
    // declares sessions must produce the identical session report for
    // workers 1 and 4 — including under a binding `max_paths` cap.
    use achilles::{AchillesSession, SessionReport};
    use achilles_targets::builtin_registry;

    let registry = builtin_registry();
    let mut specs_with_sessions = 0usize;
    for spec in registry.iter() {
        if spec.sessions().is_empty() {
            continue;
        }
        specs_with_sessions += 1;
        let key = |reports: &[SessionReport]| {
            reports
                .iter()
                .map(|r| {
                    (
                        r.session.clone(),
                        r.server_paths,
                        report_keys(&r.trojans),
                        r.trojan_slots.clone(),
                    )
                })
                .collect::<Vec<_>>()
        };
        let run = |workers: usize, max_paths: usize| {
            let mut session = AchillesSession::new(&**spec).workers(workers);
            session.config_mut().server_explore.max_paths = max_paths;
            key(&session.run_sessions())
        };
        let name = spec.name();
        let seq = run(1, usize::MAX >> 1);
        assert!(!seq.is_empty(), "{name}: declared sessions analyzed");
        assert_eq!(
            seq,
            run(4, usize::MAX >> 1),
            "{name}: uncapped bit-identity"
        );
        // A binding cap truncates canonically for both worker counts.
        let capped_seq = run(1, 7);
        assert_eq!(capped_seq, run(4, 7), "{name}: capped bit-identity");
    }
    assert!(specs_with_sessions >= 2, "fsp and twopc declare sessions");
}

#[test]
fn session_search_is_worker_count_invariant() {
    use achilles::{analyze_sequence, prepare_client, ClientPredicate, FieldMask, Optimizations};
    use achilles_solver::{Solver, TermPool};
    use achilles_symvm::Executor;
    use std::sync::Arc;

    fn hs_layout() -> Arc<MessageLayout> {
        MessageLayout::builder("hs")
            .field("token", Width::W16)
            .build()
    }
    fn hs_client(env: &mut SymEnv<'_>) -> PathResult<()> {
        let token = env.sym("token", Width::W16);
        let cap = env.constant(100, Width::W16);
        if !env.if_ult(token, cap)? {
            return Ok(());
        }
        env.send(SymMessage::new(hs_layout(), vec![token]));
        Ok(())
    }
    fn session_server(env: &mut SymEnv<'_>) -> PathResult<()> {
        let hs = env.recv(&hs_layout())?;
        let tcap = env.constant(200, Width::W16);
        if !env.if_ult(hs.field("token"), tcap)? {
            return Ok(());
        }
        let cmd = env.recv(&quickstart_layout())?;
        let one = env.constant(1, Width::W8);
        if !env.if_eq(cmd.field("request"), one)? {
            return Ok(());
        }
        env.mark_accept();
        Ok(())
    }

    let run = |workers: usize| {
        let mut pool = TermPool::new();
        let mut solver = Solver::new();
        let hs_pred = {
            let mut exec = Executor::new(&mut pool, &mut solver, ExploreConfig::default());
            ClientPredicate::from_exploration(&exec.explore(&hs_client))
        };
        let cmd_pred = {
            let mut exec = Executor::new(&mut pool, &mut solver, ExploreConfig::default());
            ClientPredicate::from_exploration(&exec.explore(&quickstart_client))
        };
        let hs_msg = SymMessage::fresh(&mut pool, &hs_layout(), "hs");
        let cmd_msg = SymMessage::fresh(&mut pool, &quickstart_layout(), "cmd");
        let hs_prep = prepare_client(
            &mut pool,
            &mut solver,
            hs_pred,
            hs_msg,
            FieldMask::none(),
            Optimizations::default(),
        );
        let cmd_prep = prepare_client(
            &mut pool,
            &mut solver,
            cmd_pred,
            cmd_msg,
            FieldMask::none(),
            Optimizations::default(),
        );
        let (reports, slots, paths) = analyze_sequence(
            &mut pool,
            &mut solver,
            &session_server,
            vec![&hs_prep, &cmd_prep],
            Optimizations::default(),
            workers,
        );
        (report_keys(&reports), slots, paths)
    };
    let (seq_keys, seq_slots, seq_paths) = run(1);
    let (par_keys, par_slots, par_paths) = run(4);
    assert!(!seq_keys.is_empty(), "the lax handshake hosts a Trojan");
    assert_eq!(seq_keys, par_keys, "session Trojan sets + witnesses");
    assert_eq!(seq_slots, par_slots, "Trojan slot attribution");
    assert_eq!(seq_paths, par_paths, "completed server paths");
}

// ---------------------------------------------------------------------------
// Fault-schedule sweeps
// ---------------------------------------------------------------------------

#[test]
fn sweep_classification_is_worker_count_invariant() {
    // The sweep campaign promises a bit-identical sensitivity matrix for
    // every worker count: replay is a pure function of the (witness,
    // schedule) pair and the parallel_map fan-out is order-preserving.
    // Pinned for every session-bearing spec in the built-in registry.
    use achilles_sweep::{run_campaign, schedule_token, CampaignConfig, SessionSweep, SweepCache};
    use achilles_targets::builtin_registry;

    fn key(sweeps: &[SessionSweep]) -> Vec<Vec<Vec<(String, String, String)>>> {
        sweeps
            .iter()
            .map(|s| {
                s.matrices
                    .iter()
                    .map(|m| {
                        m.cells
                            .iter()
                            .map(|c| {
                                (
                                    schedule_token(&c.schedule),
                                    c.class.to_string(),
                                    c.signature.to_line(),
                                )
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect()
    }

    let registry = builtin_registry();
    let mut swept = 0usize;
    for spec in registry.iter() {
        if spec.sessions().is_empty() {
            continue;
        }
        swept += 1;
        let name = spec.name();
        let seq = run_campaign(&**spec, &CampaignConfig::default(), &mut SweepCache::new());
        let par = run_campaign(
            &**spec,
            &CampaignConfig::default().with_workers(4),
            &mut SweepCache::new(),
        );
        assert_eq!(
            key(&seq),
            key(&par),
            "{name}: every (witness, schedule) classification is bit-identical \
             for workers 1 and 4"
        );
        assert!(
            seq.iter().all(|s| s.confirmed_fault_free == s.discovered),
            "{name}: fault-free baselines all confirm"
        );
    }
    assert!(swept >= 3, "fsp, twopc, and gossip declare sessions");
}

#[test]
fn sweep_campaigns_are_repeatable() {
    // Same campaign twice (fresh caches): identical cells — nothing in the
    // sweep depends on wall clock or scheduling.
    use achilles_gossip::GossipSpec;
    use achilles_sweep::{run_campaign, CampaignConfig, SweepCache};

    let spec = GossipSpec::default();
    let a = run_campaign(&spec, &CampaignConfig::default(), &mut SweepCache::new());
    let b = run_campaign(&spec, &CampaignConfig::default(), &mut SweepCache::new());
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.cells, y.cells);
        assert_eq!(x.armed, y.armed);
        assert_eq!(x.diverged, y.diverged);
        assert_eq!(x.disarmed, y.disarmed);
        assert_eq!(x.masked, y.masked);
        assert_eq!(x.new_signature, y.new_signature);
        for (ma, mb) in x.matrices.iter().zip(&y.matrices) {
            assert_eq!(ma.cells, mb.cells);
        }
    }
}

#[test]
fn cross_phase_cache_reuse_never_perturbs_session_results() {
    // The engine-persistent shared cache lets run_sessions() re-use
    // queries run() paid for (the session clients overlap the
    // single-message clients); the reports must match a fresh engine's.
    use achilles::AchillesSession;
    use achilles_targets::builtin_registry;

    let registry = builtin_registry();
    let spec = registry.get("twopc").expect("registered");

    // Warm engine: single-message run first, then sessions.
    let mut warm = AchillesSession::new(&**spec).workers(4);
    let _ = warm.run();
    let warm_reports = warm.run_sessions();
    let warm_cross = warm.engine().shared_cache().stats().cross_epoch_hits;

    // Cold engine: sessions only.
    let cold_reports = AchillesSession::new(&**spec).workers(4).run_sessions();

    assert!(
        warm_cross > 0,
        "re-exploring the shared participant program hits the cache \
         entries the single-message run published"
    );
    assert_eq!(warm_reports.len(), cold_reports.len());
    for (w, c) in warm_reports.iter().zip(&cold_reports) {
        assert_eq!(report_keys(&w.trojans), report_keys(&c.trojans));
        assert_eq!(w.trojan_slots, c.trojan_slots);
        assert_eq!(w.server_paths, c.server_paths);
    }
}

#[test]
fn core_subsumption_never_perturbs_session_results() {
    // The shared cache's unsat-core subsumption index answers superset
    // queries from previously proven cores. Like every reuse tier it is a
    // pure answer cache: for every worker count, reports with the index on
    // must be bit-identical to reports with it off — and on a target whose
    // sessions generate superset queries, the index must actually answer
    // some of them.
    use achilles::AchillesSession;
    use achilles_targets::builtin_registry;

    let registry = builtin_registry();
    let spec = registry.get("fsp").expect("registered");

    for workers in [1usize, 4] {
        let mut on = AchillesSession::new(&**spec).workers(workers);
        on.engine().shared_cache().set_subsumption(true);
        let on_reports = on.run_sessions();
        let on_stats = on.engine().shared_cache().stats();

        let mut off = AchillesSession::new(&**spec).workers(workers);
        off.engine().shared_cache().set_subsumption(false);
        let off_reports = off.run_sessions();
        let off_stats = off.engine().shared_cache().stats();

        assert!(
            on_stats.core_subsumption_hits > 0,
            "fsp session discovery at {workers} worker(s) generates superset \
             queries the core index answers"
        );
        assert_eq!(
            off_stats.core_subsumption_hits, 0,
            "a disabled index answers nothing"
        );
        assert!(
            on_stats.certified_unsat > 0 && off_stats.certified_unsat > 0,
            "both runs certify unsat verdicts"
        );
        assert_eq!(on_reports.len(), off_reports.len());
        for (a, b) in on_reports.iter().zip(&off_reports) {
            assert_eq!(
                report_keys(&a.trojans),
                report_keys(&b.trojans),
                "subsumption on/off drift at {workers} worker(s)"
            );
            assert_eq!(a.trojan_slots, b.trojan_slots);
            assert_eq!(a.server_paths, b.server_paths);
        }
    }
}

// ---------------------------------------------------------------------------
// Observer effect (span tracing)
// ---------------------------------------------------------------------------

#[test]
fn tracing_never_perturbs_results() {
    // `achilles-obs` tracing is observation-only by contract: arming it
    // must change no discovery or sweep answer. Full fsp session
    // discovery + fault-schedule sweep, tracing off vs on, at workers
    // {1, 4} — reports, witness sets, slot attribution, and every
    // (schedule, class, signature) matrix cell must be bit-identical.
    use achilles::AchillesSession;
    use achilles_sweep::{run_campaign, schedule_token, CampaignConfig, SweepCache};
    use achilles_targets::builtin_registry;

    let registry = builtin_registry();
    let spec = registry.get("fsp").expect("registered");

    let run = |workers: usize| {
        let reports = AchillesSession::new(&**spec)
            .workers(workers)
            .run_sessions();
        let discovery_key: Vec<_> = reports
            .iter()
            .map(|r| {
                (
                    r.session.clone(),
                    r.server_paths,
                    report_keys(&r.trojans),
                    r.trojan_slots.clone(),
                )
            })
            .collect();
        let sweeps = run_campaign(
            &**spec,
            &CampaignConfig::default().with_workers(workers),
            &mut SweepCache::new(),
        );
        let sweep_key: Vec<_> = sweeps
            .iter()
            .map(|s| {
                (
                    (s.armed, s.diverged, s.disarmed, s.masked, s.new_signature),
                    s.matrices
                        .iter()
                        .map(|m| {
                            m.cells
                                .iter()
                                .map(|c| {
                                    (
                                        schedule_token(&c.schedule),
                                        c.class.to_string(),
                                        c.signature.to_line(),
                                    )
                                })
                                .collect::<Vec<_>>()
                        })
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        (discovery_key, sweep_key)
    };

    for workers in [1usize, 4] {
        achilles_obs::set_tracing(false);
        let off = run(workers);
        achilles_obs::set_tracing(true);
        let on = run(workers);
        achilles_obs::drain_thread();
        let traced = achilles_obs::chrome_trace_json();
        achilles_obs::set_tracing(false);
        achilles_obs::clear_trace();
        assert!(
            traced.contains("session:run") && traced.contains("sweep:witness"),
            "the traced run recorded discovery and sweep spans"
        );
        assert_eq!(
            off, on,
            "tracing on/off drift at {workers} worker(s): the observer \
             changed the observation"
        );
    }
}
