//! Regenerates the **§6.4 optimization ablation**: Achilles' incremental
//! search (predicate dropping, differentFrom propagation, Trojan-set path
//! pruning) versus the non-optimized a-posteriori differencing
//! (paper: 1h03 vs 2h15, ≈2.1× speed-up, identical Trojans).
//!
//! Two workloads are measured:
//!
//! * **parse-only** — the server model of the accuracy experiment, whose
//!   exploration is so small that the incremental machinery cannot pay for
//!   itself (the paper's own caveat that vanilla symex "performs fewer
//!   computations" per path);
//! * **deep-processing** — the same server with state-dependent work after
//!   each well-formed parse (`post_parse_branching`), the regime of the
//!   paper's run: Trojan-set pruning skips every post-parse subtree, while
//!   the a-posteriori baseline explores and diffs all of them.
//!
//! ```text
//! cargo run --release -p achilles-bench --bin ablation_optimizations [-- --workers N]
//! ```

use std::time::{Duration, Instant};

use achilles::{a_posteriori_diff, prepare_client, AchillesSession, FieldMask, Optimizations};
use achilles_bench::{fmt_secs, header, row, workers_from_args};
use achilles_fsp::{FspServer, FspSpec};
use achilles_solver::{Solver, TermPool};
use achilles_symvm::{ExploreConfig, SymMessage};

struct Run {
    trojans: usize,
    time: Duration,
    direct_drops: u64,
    matrix_drops: u64,
    paths_pruned: u64,
}

fn incremental(opts: Optimizations, depth: usize) -> Run {
    let mut spec = FspSpec::accuracy();
    spec.server.post_parse_branching = depth;
    let mut session = AchillesSession::new(&spec)
        .workers(workers_from_args())
        .optimizations(opts);
    let started = Instant::now();
    let result = session.run();
    Run {
        trojans: result.trojans.len(),
        time: started.elapsed(),
        direct_drops: result.search_stats.direct_drops,
        matrix_drops: result.search_stats.matrix_drops,
        paths_pruned: result.server_explore.pruned as u64,
    }
}

fn a_posteriori(depth: usize) -> (usize, usize, Duration) {
    let mut pool = TermPool::new();
    let mut solver = Solver::new();
    let mut spec = FspSpec::accuracy();
    spec.server.post_parse_branching = depth;
    let started = Instant::now();
    let client = achilles_fsp::extract_client_predicate(
        &mut pool,
        &mut solver,
        &spec.commands,
        &spec.client,
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
    let result = a_posteriori_diff(
        &mut pool,
        &mut solver,
        &FspServer::new(spec.server.clone()),
        &prepared,
        &ExploreConfig::default(),
    );
    (
        result.trojans.len(),
        result.accepting_paths,
        started.elapsed(),
    )
}

fn run_workload(name: &str, depth: usize) -> (Run, Duration) {
    header(&format!(
        "workload: {name} (post-parse branching depth {depth})"
    ));

    let full = incremental(Optimizations::default(), depth);
    println!("{}", row("[full] Trojans", full.trojans));
    println!("{}", row("[full] time", fmt_secs(full.time)));
    println!(
        "{}",
        row("[full] predicates dropped directly", full.direct_drops)
    );
    println!(
        "{}",
        row(
            "[full] predicates dropped via differentFrom",
            full.matrix_drops
        )
    );
    println!("{}", row("[full] server paths pruned", full.paths_pruned));

    let no_matrix = Optimizations {
        use_diff_matrix: false,
        ..Optimizations::default()
    };
    let nm = incremental(no_matrix, depth);
    println!("{}", row("[no differentFrom] time", fmt_secs(nm.time)));

    let no_prune = Optimizations {
        prune_paths: false,
        ..Optimizations::default()
    };
    let np = incremental(no_prune, depth);
    println!("{}", row("[no path pruning] time", fmt_secs(np.time)));

    let (ap_trojans, ap_accepting, ap_time) = a_posteriori(depth);
    println!(
        "{}",
        row("[a-posteriori] accepting paths diffed", ap_accepting)
    );
    println!("{}", row("[a-posteriori] time", fmt_secs(ap_time)));

    assert_eq!(full.trojans, 80, "all Trojans found");
    assert_eq!(nm.trojans, 80);
    assert_eq!(np.trojans, 80);
    assert_eq!(ap_trojans, 80, "a-posteriori finds the same Trojans");
    (full, ap_time)
}

fn main() {
    let (_small_full, _small_ap) = run_workload("parse-only", 0);
    let (deep_full, deep_ap) = run_workload("deep-processing", 7);

    header("paper vs measured");
    println!("  paper:    optimized 1h03 vs non-optimized 2h15 (2.1× speed-up), same 80 Trojans");
    println!(
        "  measured: optimized {} vs a-posteriori {} ({:.2}× speed-up), same 80 Trojans",
        fmt_secs(deep_full.time),
        fmt_secs(deep_ap),
        deep_ap.as_secs_f64() / deep_full.time.as_secs_f64().max(1e-9),
    );
    println!("  note:     the parse-only workload is below the crossover (vanilla symex does");
    println!("            less work per path); with realistic post-parse processing the");
    println!("            incremental search wins, as in the paper.");
    assert!(
        deep_ap > deep_full.time,
        "incremental search must win on the deep-processing workload"
    );
}
