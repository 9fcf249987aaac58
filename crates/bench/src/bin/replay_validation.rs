//! Concrete replay validation of every symbolically discovered Trojan —
//! the reproduction of the paper's "we validated the vulnerabilities by
//! injecting Trojan messages into the system" step, plus a worker-scaling
//! sweep of the replay phase.
//!
//! The bin is registry-driven: it iterates every registered
//! [`TargetSpec`](achilles::TargetSpec) (or one selected with
//! `--target NAME`), discovers Trojans with an
//! [`AchillesSession`](achilles::AchillesSession) under the spec's default
//! configuration, replays all of them against the spec's concrete
//! deployment, dedups confirmed failures by crash signature,
//! ddmin-minimizes the first witness of each signature, and sweeps the
//! replay fan-out over `workers ∈ {1, 2, 4, 8}`. There is no per-protocol
//! code path: onboarding a protocol adds a row here automatically.
//!
//! ```text
//! cargo run --release -p achilles-bench --bin replay_validation -- --json
//! ```
//!
//! With `--corpus DIR`, each target's confirmed witnesses persist to
//! `DIR/<name>.corpus` (and `DIR/<name>.sessions.corpus`) across runs (the
//! CI cache wires this up keyed on the corpus format version), so
//! cross-commit re-validation is incremental: already-known witnesses are
//! skipped, not replayed.
//!
//! With `--sessions`, every declared multi-message session is additionally
//! discovered through [`AchillesSession::run_sessions`] and validated
//! under the fault-free [`FaultSchedule`](achilles_replay::FaultSchedule),
//! adding per-session rows to the report and to `BENCH_replay.json`.
//! Both kinds go through one driver,
//! [`validate_session_trojans`]: a single-message Trojan replays as a
//! one-slot session against the spec's `replay_target`, a session Trojan
//! against its `session_replay_target`.

use std::path::PathBuf;
use std::time::Instant;

use achilles::AchillesSession;
use achilles_bench::{arg_present, arg_value, arg_value_required, header, host_cores, row};
use achilles_replay::{validate_session_trojans, ReplayCorpus, SessionValidateConfig};
use achilles_targets::builtin_registry;

struct SystemRun {
    name: &'static str,
    discovered: usize,
    confirmed: usize,
    skipped_known: usize,
    signatures: usize,
    minimized_shrunk: usize,
    skipped_second_pass: usize,
}

struct SessionRun {
    name: &'static str,
    session: String,
    discovered: usize,
    confirmed: usize,
    skipped_known: usize,
    signatures: usize,
    skipped_second_pass: usize,
}

fn corpus_path(dir: &str, name: &str) -> PathBuf {
    PathBuf::from(dir).join(format!("{name}.corpus"))
}

/// Loads a corpus, treating a malformed file as empty *loudly* (the
/// strict parser reports the offending line; a CI cache hit on a corrupt
/// file should re-validate, not crash the bench).
fn load_corpus(path: &std::path::Path) -> ReplayCorpus {
    match ReplayCorpus::load(path) {
        Ok(corpus) => corpus,
        Err(e) => {
            eprintln!(
                "warning: ignoring corpus {} ({e}); re-validating from scratch",
                path.display()
            );
            ReplayCorpus::new()
        }
    }
}

fn session_corpus_path(dir: &str, name: &str) -> PathBuf {
    PathBuf::from(dir).join(format!("{name}.sessions.corpus"))
}

fn validate_sessions(spec: &dyn achilles::TargetSpec, corpus_dir: Option<&str>) -> Vec<SessionRun> {
    let name = spec.name();
    let mut driver = AchillesSession::new(spec);
    let reports = driver.run_sessions();
    let mut corpus = match corpus_dir {
        Some(dir) => load_corpus(&session_corpus_path(dir, name)),
        None => ReplayCorpus::new(),
    };
    let mut runs = Vec::with_capacity(reports.len());
    let config = SessionValidateConfig {
        minimize: true,
        ..SessionValidateConfig::default()
    };
    for report in &reports {
        let target = spec.session_replay_target(&report.session);
        let summary = validate_session_trojans(&*target, &report.trojans, &mut corpus, &config);
        // Second pass: the corpus must short-circuit every known session.
        let second = validate_session_trojans(&*target, &report.trojans, &mut corpus, &config);
        let run = SessionRun {
            name,
            session: report.session.clone(),
            discovered: report.trojans.len(),
            confirmed: summary.confirmed,
            skipped_known: summary.skipped_known,
            signatures: summary.confirmed_signatures.len(),
            skipped_second_pass: second.skipped_known,
        };
        println!(
            "{}",
            row(
                &format!("{name}/{}", run.session),
                format!(
                    "{} session Trojans, {} confirmed ({:.0}%), {} known-skipped, \
                     {} new signatures, {} skipped on re-run",
                    run.discovered,
                    run.confirmed,
                    summary.confirmation_rate() * 100.0,
                    run.skipped_known,
                    run.signatures,
                    run.skipped_second_pass,
                )
            )
        );
        assert_eq!(
            run.confirmed + run.skipped_known,
            run.discovered,
            "{name}/{}: every session Trojan must replay to a concrete \
             failure (or already be a known confirmed session witness)",
            run.session
        );
        assert_eq!(
            run.skipped_second_pass, run.discovered,
            "{name}/{}: the corpus must skip every known session witness",
            run.session
        );
        runs.push(run);
    }
    if let Some(dir) = corpus_dir {
        if !reports.is_empty() {
            std::fs::create_dir_all(dir).expect("create corpus dir");
            corpus
                .save(&session_corpus_path(dir, name))
                .expect("persist session corpus");
        }
    }
    runs
}

fn validate_system(
    spec: &dyn achilles::TargetSpec,
    trojans: &[achilles::TrojanReport],
    corpus_dir: Option<&str>,
) -> SystemRun {
    let name = spec.name();
    let mut corpus = match corpus_dir {
        Some(dir) => load_corpus(&corpus_path(dir, name)),
        None => ReplayCorpus::new(),
    };
    let config = SessionValidateConfig {
        minimize: true,
        ..SessionValidateConfig::default()
    };
    let target = spec.replay_target();
    let summary = validate_session_trojans(&*target, trojans, &mut corpus, &config);
    // Second pass: the corpus must short-circuit every known witness.
    let second = validate_session_trojans(&*target, trojans, &mut corpus, &config);
    if let Some(dir) = corpus_dir {
        std::fs::create_dir_all(dir).expect("create corpus dir");
        corpus
            .save(&corpus_path(dir, name))
            .expect("persist corpus");
    }
    // Distinct signatures of *this run's* witnesses (replayed or already
    // known), not of the whole historical corpus — keeps the bench column
    // meaningful when `--corpus` preloads prior runs.
    let witness_fields: std::collections::HashSet<&[u64]> = trojans
        .iter()
        .map(|t| t.witness_fields.as_slice())
        .collect();
    let run_signatures = corpus
        .entries()
        .iter()
        .filter(|e| witness_fields.contains(e.fields.as_slice()))
        .map(|e| e.signature.clone())
        .collect::<std::collections::HashSet<_>>()
        .len();
    let run = SystemRun {
        name,
        discovered: trojans.len(),
        confirmed: summary.confirmed,
        skipped_known: summary.skipped_known,
        signatures: run_signatures,
        minimized_shrunk: summary
            .minimized
            .iter()
            .filter(|m| m.strictly_shrunk())
            .count(),
        skipped_second_pass: second.skipped_known,
    };
    println!(
        "{}",
        row(
            name,
            format!(
                "{} discovered, {} confirmed ({:.0}%), {} known-skipped, {} signatures, \
                 {} minimized-shrunk, {} skipped on re-run",
                run.discovered,
                run.confirmed,
                summary.confirmation_rate() * 100.0,
                run.skipped_known,
                run.signatures,
                run.minimized_shrunk,
                run.skipped_second_pass,
            )
        )
    );
    assert_eq!(
        run.confirmed + run.skipped_known,
        run.discovered,
        "{name}: every symbolic Trojan must replay to a concrete failure \
         (or already be a known confirmed witness)"
    );
    assert_eq!(
        run.skipped_second_pass, run.discovered,
        "{name}: the corpus must skip every known witness on re-analysis"
    );
    run
}

fn main() {
    let registry = builtin_registry();
    let selected = arg_value_required("--target");
    let names: Vec<&str> = match &selected {
        Some(name) => {
            if registry.get(name).is_none() {
                eprintln!(
                    "unknown --target {name:?}; registered targets: {}",
                    registry.names().join(", ")
                );
                std::process::exit(2);
            }
            vec![name.as_str()]
        }
        None => registry.names(),
    };
    let corpus_dir = arg_value_required("--corpus");

    header(&format!(
        "Concrete replay validation ({})",
        names.join(" + ")
    ));

    // --- Discover and validate each registered system. --------------------
    let sessions_enabled = arg_present("--sessions");
    let mut runs = Vec::new();
    let mut session_runs = Vec::new();
    let mut largest: Option<(&str, Vec<achilles::TrojanReport>)> = None;
    for name in &names {
        let spec = registry.get(name).expect("validated above");
        let report = AchillesSession::new(&**spec).run();
        let run = validate_system(&**spec, &report.trojans, corpus_dir.as_deref());
        if largest
            .as_ref()
            .map(|(_, t)| t.len() < report.trojans.len())
            .unwrap_or(true)
        {
            largest = Some((run.name, report.trojans));
        }
        runs.push(run);
        if sessions_enabled {
            session_runs.extend(validate_sessions(&**spec, corpus_dir.as_deref()));
        }
    }

    // --- Worker sweep over the largest witness set. -----------------------
    let (sweep_name, sweep_trojans) = largest.expect("at least one target");
    header(&format!("replay fan-out sweep ({sweep_name} witnesses)"));
    let sweep_spec = registry.get(sweep_name).expect("validated above");
    let sweep_counts = [1usize, 2, 4, 8];
    // (workers requested, workers effective, wall seconds, witnesses/sec).
    let mut sweep: Vec<(usize, usize, f64, f64)> = Vec::new();
    let mut reference: Option<Vec<(Vec<u64>, String)>> = None;
    for &workers in &sweep_counts {
        let mut corpus = ReplayCorpus::new();
        let started = Instant::now();
        let summary = validate_session_trojans(
            &*sweep_spec.replay_target(),
            &sweep_trojans,
            &mut corpus,
            &SessionValidateConfig::default().with_workers(workers),
        );
        let wall = started.elapsed().as_secs_f64();
        let key: Vec<(Vec<u64>, String)> = summary
            .results
            .iter()
            .map(|r| (r.witness.flattened_fields(), r.signature.to_line()))
            .collect();
        match &reference {
            None => reference = Some(key),
            Some(r) => assert_eq!(
                r, &key,
                "replay results must be identical for every worker count"
            ),
        }
        let wps = summary.replayed as f64 / wall.max(1e-9);
        // The replay fan-out claims items from a shared cursor: more
        // workers than witnesses can never run.
        let effective = workers.min(summary.replayed.max(1));
        println!(
            "{}",
            row(
                &format!("workers={workers}"),
                format!("{wall:.3}s, {wps:.0} witnesses/s ({effective} effective)")
            )
        );
        sweep.push((workers, effective, wall, wps));
    }

    if arg_present("--json") {
        let path = arg_value("--json").unwrap_or_else(|| "BENCH_replay.json".to_string());
        let path = if path.starts_with("--") {
            "BENCH_replay.json".to_string()
        } else {
            path
        };
        let mut json = String::new();
        json.push_str("{\n  \"bench\": \"replay_validation\",\n");
        json.push_str(&format!("  \"host_cores\": {},\n", host_cores()));
        json.push_str("  \"systems\": [\n");
        for (i, r) in runs.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"system\": \"{}\", \"discovered\": {}, \"confirmed\": {}, \
                 \"known_skipped\": {}, \"signatures\": {}, \"minimized_shrunk\": {}, \
                 \"skipped_on_rerun\": {}}}{}\n",
                r.name,
                r.discovered,
                r.confirmed,
                r.skipped_known,
                r.signatures,
                r.minimized_shrunk,
                r.skipped_second_pass,
                if i + 1 == runs.len() { "" } else { "," },
            ));
        }
        json.push_str("  ],\n  \"sessions\": [\n");
        for (i, r) in session_runs.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"system\": \"{}\", \"session\": \"{}\", \"discovered\": {}, \
                 \"confirmed\": {}, \"known_skipped\": {}, \"signatures\": {}, \
                 \"skipped_on_rerun\": {}}}{}\n",
                r.name,
                r.session,
                r.discovered,
                r.confirmed,
                r.skipped_known,
                r.signatures,
                r.skipped_second_pass,
                if i + 1 == session_runs.len() { "" } else { "," },
            ));
        }
        json.push_str("  ],\n  \"sweep\": [\n");
        for (i, (workers, effective, wall, wps)) in sweep.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"workers\": {workers}, \"workers_effective\": {effective}, \
                 \"wall_s\": {wall:.4}, \
                 \"witnesses_per_sec\": {wps:.1}}}{}\n",
                if i + 1 == sweep.len() { "" } else { "," },
            ));
        }
        json.push_str("  ]\n}\n");
        std::fs::write(&path, json).expect("write bench json");
        println!("\n  wrote {path}");
    }
}
