//! `campaign`: the batch triage loop over every session-bearing spec —
//! session discovery with the proof audit on, a cold `sweep_report` into a
//! fresh `SweepCache`, then a warm `sweep_report` from the same cache.
//! Replay, planning and classification dominate; it is the only workload
//! that runs the proof checker, and the only batch use of the sweep cache.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use achilles::{AchillesSession, SessionReport, TargetSpec};
use achilles_solver::proof_audit_stats;
use achilles_sweep::{sweep_report, CampaignConfig, SessionSweep, SweepCache};

use crate::out::{cpu_s, ms, Output};
use crate::stream::Rng;
use crate::{Args, WORKERS};

/// One spec's cold and warm sweeps, one per session report.
type Sweeps = (Vec<SessionSweep>, Vec<SessionSweep>);

/// One spec's sweeps, or the message of the panic that ended its campaign.
type SpecResult = Result<Sweeps, String>;

/// Runs every spec's campaign once, in `order`, and returns the round's
/// wall time (ms), its layer counters and each spec's cold and warm
/// sweeps, or the panic message that ended the spec's campaign.
fn round(
    specs: &[Arc<dyn TargetSpec>],
    order: &[usize],
    config: &CampaignConfig,
) -> (f64, BTreeMap<String, f64>, Vec<(usize, SpecResult)>) {
    let round_span = achilles_obs::span("bench:campaign-round", "bench");
    let started = Instant::now();
    let mut counters = BTreeMap::new();
    let mut done = Vec::with_capacity(order.len());
    for &i in order {
        let spec = &*specs[i];
        let result = catch_unwind(AssertUnwindSafe(|| campaign(spec, config, &mut counters)))
            .map_err(|panic| {
                panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default()
            });
        done.push((i, result));
    }
    let wall_ms = ms(started.elapsed());
    drop(round_span);
    (wall_ms, counters, done)
}

/// Checks one spec's campaign: it did not panic (an audit rejection
/// panics), the warm sweep replayed nothing and matches the cold one, and
/// the cold matrices equal `reference`, which the first call sets.
fn check(out: &mut Output, name: &str, result: &SpecResult, reference: &mut Option<Vec<String>>) {
    out.attempted += 1;
    let (cold, warm) = match result {
        Ok(sweeps) => sweeps,
        Err(why) => return out.fail(format!("{name}: campaign panicked: {why}")),
    };
    let texts: Vec<String> = cold.iter().flat_map(matrix_texts).collect();
    let warm_texts: Vec<String> = warm.iter().flat_map(matrix_texts).collect();
    let warm_replayed: usize = warm.iter().map(|s| s.replayed).sum();
    if warm_replayed != 0 {
        out.fail(format!("{name}: warm sweep replayed {warm_replayed} cells"));
    } else if warm_texts != texts {
        out.fail(format!("{name}: warm matrices differ from cold"));
    } else if reference.get_or_insert_with(|| texts.clone()) != &texts {
        out.fail(format!(
            "{name}: cold matrices differ from the reference round"
        ));
    }
}

pub fn run(args: &Args, tracing: bool) -> Output {
    let mut out = Output::default();
    // Set-up builds the registry, installs the audit and runs one
    // reference round, cold, in spec order: its matrices are what every
    // measured round must repeat.
    let started = Instant::now();
    let registry = achilles_targets::builtin_registry();
    let specs: Vec<Arc<dyn TargetSpec>> = achilles_targets::session_bearing(&registry)
        .into_iter()
        .cloned()
        .collect();
    achilles_proofcheck::install_audit();
    let config = CampaignConfig::default().with_workers(WORKERS);
    let (_, _, reference) = round(&specs, &(0..specs.len()).collect::<Vec<_>>(), &config);
    out.setup_s.push(started.elapsed().as_secs_f64());
    let mut expected: Vec<Option<Vec<String>>> = vec![None; specs.len()];
    for (i, result) in &reference {
        check(&mut out, specs[*i].name(), result, &mut expected[*i]);
    }
    if args.setup_only {
        return out;
    }
    let mut rng = Rng::new(args.seed);

    achilles_obs::set_tracing(tracing);
    let cpu0 = cpu_s();
    let window = Instant::now();
    while out.op_ms.is_empty() || window.elapsed().as_secs_f64() < args.seconds {
        let mut order: Vec<usize> = (0..specs.len()).collect();
        rng.shuffle(&mut order);
        let (wall_ms, counters, done) = round(&specs, &order, &config);
        out.op_ms.push(wall_ms);
        out.rounds.push(counters);

        // Output checks, outside the round's time.
        let (mut cold_cells, mut cold_s) = (0usize, 0.0f64);
        for (i, result) in &done {
            if let Ok((cold, _)) = result {
                cold_cells += cold.iter().map(|s| s.cells).sum::<usize>();
                cold_s += cold.iter().map(|s| s.elapsed.as_secs_f64()).sum::<f64>();
            }
            check(&mut out, specs[*i].name(), result, &mut expected[*i]);
        }
        out.series("sweep_cells_per_s")
            .push(cold_cells as f64 / cold_s);
    }
    out.window_s = window.elapsed().as_secs_f64();
    out.cpu_s = cpu_s() - cpu0;
    out
}

fn matrix_texts(sweep: &SessionSweep) -> Vec<String> {
    sweep.matrices.iter().map(|m| m.to_text()).collect()
}

/// One spec's campaign: discovery, cold sweep, warm sweep.
fn campaign(
    spec: &dyn TargetSpec,
    config: &CampaignConfig,
    c: &mut BTreeMap<String, f64>,
) -> (Vec<SessionSweep>, Vec<SessionSweep>) {
    let mut add = |k: &str, v: f64| *c.entry(k.to_string()).or_insert(0.0) += v;
    let (audits, audit_time) = proof_audit_stats();
    let started = Instant::now();
    let mut session = AchillesSession::new(spec).workers(WORKERS);
    let reports: Vec<SessionReport> = {
        let _span = achilles_obs::span("bench:run_sessions", "core");
        session.run_sessions()
    };
    add("core.session_discover_s", started.elapsed().as_secs_f64());
    let (audits_after, audit_time_after) = proof_audit_stats();
    add("proofcheck.certs_checked", (audits_after - audits) as f64);
    add(
        "proofcheck.audit_s",
        (audit_time_after - audit_time).as_secs_f64(),
    );
    let cache_stats = session.engine().shared_cache().stats();
    add("solver.shared_hits", cache_stats.hits as f64);
    add(
        "solver.shared_lookups",
        (cache_stats.hits + cache_stats.misses) as f64,
    );
    add("solver.certified_unsat", cache_stats.certified_unsat as f64);
    add(
        "solver.subsumption_hits",
        cache_stats.core_subsumption_hits as f64,
    );

    let mut cache = SweepCache::new();
    let sweep = |cache: &mut SweepCache| -> Vec<SessionSweep> {
        reports
            .iter()
            .map(|report| {
                let _span = achilles_obs::span("bench:sweep_report", "sweep");
                sweep_report(spec, report, config, cache)
            })
            .collect()
    };
    let cold = sweep(&mut cache);
    let warm = sweep(&mut cache);
    for s in &cold {
        add("replay.plans", s.fork.plans as f64);
        add("replay.boots", s.fork.boots as f64);
        add("replay.restores", s.fork.snapshot_restores as f64);
        add(
            "replay.prefix_depth_sum",
            s.fork.shared_prefix_depth_sum as f64,
        );
        add("sweep.cells", s.cells as f64);
        add("sweep.replayed", s.replayed as f64);
        add("sweep.cold_s", s.elapsed.as_secs_f64());
    }
    for s in cold.iter().chain(&warm) {
        add("sweep.cache_hits", s.cache_hits as f64);
        add("sweep.lookups", (s.cache_hits + s.replayed) as f64);
    }
    for s in &warm {
        add("sweep.warm_s", s.elapsed.as_secs_f64());
    }
    (cold, warm)
}
