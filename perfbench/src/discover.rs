//! `discover`: single-message Trojan discovery, the paper's §6.3 wildcard
//! FSP spec plus every built-in spec, each on a fresh `AchillesSession`
//! at two workers with the proof audit off. Core search, symvm and the
//! solver do nearly all the work; replay, sweep and fleetd do none.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use achilles::{AchillesSession, TargetSpec};
use achilles_fsp::analysis::{expected_length_mismatch_trojans, expected_wildcard_trojans};
use achilles_fsp::FspSpec;

use crate::out::{cpu_s, ms, Output};
use crate::stream::Rng;
use crate::{Args, WORKERS};

/// The specs of one round with the Trojan count each must find.
fn round_specs() -> Vec<(String, Arc<dyn TargetSpec>, usize)> {
    let mut specs: Vec<(String, Arc<dyn TargetSpec>, usize)> = vec![(
        "fsp-wildcard".to_string(),
        Arc::new(FspSpec::wildcard()),
        expected_length_mismatch_trojans(8) + expected_wildcard_trojans(8),
    )];
    for spec in achilles_targets::builtin_registry().iter() {
        let expected = match spec.name() {
            "fsp" => 80,
            "pbft" => 2,
            _ => 1,
        };
        specs.push((spec.name().to_string(), Arc::clone(spec), expected));
    }
    specs
}

/// One spec's discovery result as the output checks compare it: the
/// Trojan count and the sorted witness fields.
type Found = (usize, Vec<Vec<u64>>);

/// Runs every spec once, in `order`, and returns the round's wall time
/// (ms), its layer counters and what each spec found.
fn round(
    specs: &[(String, Arc<dyn TargetSpec>, usize)],
    order: &[usize],
) -> (f64, BTreeMap<String, f64>, Vec<(usize, Found)>) {
    let round_span = achilles_obs::span("bench:discover-round", "bench");
    let started = Instant::now();
    let mut counters: BTreeMap<String, f64> = BTreeMap::new();
    let mut reports = Vec::with_capacity(order.len());
    for &i in order {
        let mut session = AchillesSession::new(&*specs[i].1).workers(WORKERS);
        let report = {
            let _span = achilles_obs::span("bench:AchillesSession::run", "core");
            session.run()
        };
        count(&mut counters, &report, &session);
        reports.push((i, report));
    }
    let wall_ms = ms(started.elapsed());
    drop(round_span);
    let found = reports
        .into_iter()
        .map(|(i, report)| {
            let mut witnesses: Vec<Vec<u64>> = report
                .trojans
                .iter()
                .map(|t| t.witness_fields.clone())
                .collect();
            witnesses.sort();
            (i, (report.trojans.len(), witnesses))
        })
        .collect();
    (wall_ms, counters, found)
}

pub fn run(args: &Args, tracing: bool) -> Output {
    let mut out = Output::default();
    // Set-up builds the specs and runs one reference round, cold, in spec
    // order: its witness sets are what every measured round must repeat.
    let started = Instant::now();
    let specs = round_specs();
    let (_, _, reference) = round(&specs, &(0..specs.len()).collect::<Vec<_>>());
    out.setup_s.push(started.elapsed().as_secs_f64());
    let mut expected: Vec<Vec<Vec<u64>>> = vec![Vec::new(); specs.len()];
    for (i, (trojans, witnesses)) in reference {
        let (name, _, want) = &specs[i];
        out.attempted += 1;
        if trojans != *want {
            out.fail(format!("{name}: {trojans} Trojans, expected {want}"));
        }
        expected[i] = witnesses;
    }
    if args.setup_only {
        return out;
    }
    // The seed orders the specs within each round; the specs themselves
    // are the paper's and the registry's.
    let mut rng = Rng::new(args.seed);

    achilles_obs::set_tracing(tracing);
    let cpu0 = cpu_s();
    let window = Instant::now();
    while out.op_ms.is_empty() || window.elapsed().as_secs_f64() < args.seconds {
        let mut order: Vec<usize> = (0..specs.len()).collect();
        rng.shuffle(&mut order);
        let (wall_ms, counters, found) = round(&specs, &order);
        out.op_ms.push(wall_ms);
        out.rounds.push(counters);

        // Output checks, outside the round's time.
        for (i, (trojans, witnesses)) in found {
            let name = &specs[i].0;
            out.attempted += 1;
            if witnesses != expected[i] {
                out.fail(format!(
                    "{name}: {trojans} Trojans, witness set differs from the reference round"
                ));
            }
        }
    }
    out.window_s = window.elapsed().as_secs_f64();
    out.cpu_s = cpu_s() - cpu0;
    out
}

fn count(
    c: &mut BTreeMap<String, f64>,
    report: &achilles::AchillesReport,
    session: &AchillesSession,
) {
    let mut add = |k: &str, v: f64| *c.entry(k.to_string()).or_insert(0.0) += v;
    let t = &report.phase_times;
    add("core.client_s", t.client.as_secs_f64());
    add("core.preprocess_s", t.preprocess.as_secs_f64());
    add("core.server_s", t.server.as_secs_f64());
    let s = &report.search_stats;
    add("core.trojan_checks", s.trojan_checks as f64);
    add(
        "core.predicates_dropped",
        (s.direct_drops + s.matrix_drops) as f64,
    );
    add("symvm.server_paths", report.server_paths as f64);
    add("symvm.paths_pruned", s.paths_pruned as f64);
    let e = &report.server_explore;
    add(
        "symvm.branch_checks",
        (e.branch_checks + report.client_explore.branch_checks) as f64,
    );
    add("symvm.steals", e.steals as f64);
    let workers = &report.server_workers;
    let busy: f64 = workers.iter().map(|w| w.busy.as_secs_f64()).sum();
    add("symvm.busy_s", busy);
    add(
        "symvm.capacity_s",
        t.server.as_secs_f64() * workers.len().max(1) as f64,
    );
    add(
        "solver.queries",
        workers.iter().map(|w| w.queries).sum::<u64>() as f64,
    );
    add(
        "solver.solve_s",
        workers.iter().map(|w| w.solve_time.as_secs_f64()).sum(),
    );
    let cache = session.engine().shared_cache().stats();
    add("solver.shared_hits", cache.hits as f64);
    add("solver.shared_lookups", (cache.hits + cache.misses) as f64);
    add("solver.certified_unsat", cache.certified_unsat as f64);
    add(
        "solver.subsumption_hits",
        cache.core_subsumption_hits as f64,
    );
}
