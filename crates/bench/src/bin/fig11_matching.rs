//! Regenerates **Figure 11** (§6.4): the number of client path predicates
//! that can still trigger each server execution path, as a function of the
//! length of the (partial) path. Uses the wildcard configuration so the
//! client predicate has hundreds of paths, like the paper's run.
//!
//! There is one sample per explored server constraint, i.e. per node of the
//! exploration tree: a prefix shared by many paths is sampled once, when it
//! is first explored, not again on every re-execution that replays it. The
//! per-length sample counts are therefore tree-node counts and do not depend
//! on the worker count.
//!
//! ```text
//! cargo run --release -p achilles-bench --bin fig11_matching [-- --workers N] [-- --validate]
//! ```
//!
//! With `--validate`, the discovered Trojans (wildcard family included) are
//! replayed against the concrete FSP deployment.

use achilles::AchillesSession;
use achilles_bench::{arg_present, bar, header, row, validate_findings, workers_from_args};
use achilles_fsp::FspSpec;
use std::collections::BTreeMap;

fn main() {
    let workers = workers_from_args();
    header(&format!(
        "Figure 11 — matching client path predicates vs server path length (FSP, {workers} worker(s))"
    ));
    let spec = FspSpec::wildcard();
    let result = AchillesSession::new(&spec).workers(workers).run();
    println!("{}", row("client path predicates", result.client.len()));
    println!("{}", row("samples collected", result.samples.len()));

    // Aggregate: per path length, min/mean/max matching predicates.
    let mut by_len: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for s in &result.samples {
        by_len.entry(s.path_len).or_default().push(s.matching);
    }
    println!("\n  path_len,min_matching,mean_matching,max_matching,samples");
    let overall_max = result.client.len() as f64;
    for (len, matches) in &by_len {
        let min = *matches.iter().min().unwrap();
        let max = *matches.iter().max().unwrap();
        let mean = matches.iter().sum::<usize>() as f64 / matches.len() as f64;
        println!(
            "  {len},{min},{mean:.1},{max},{n}  |{}",
            bar(mean, overall_max, 40),
            n = matches.len()
        );
    }

    header("paper vs measured");
    println!("  paper:    predicates start near the full set and fall as paths specialize");
    let first_len = by_len.keys().next().copied().unwrap_or(0);
    let last_len = by_len.keys().last().copied().unwrap_or(0);
    let first_mean: f64 = {
        let v = &by_len[&first_len];
        v.iter().sum::<usize>() as f64 / v.len() as f64
    };
    let last_mean: f64 = {
        let v = &by_len[&last_len];
        v.iter().sum::<usize>() as f64 / v.len() as f64
    };
    println!(
        "  measured: mean matching falls {first_mean:.0} → {last_mean:.0} between path lengths {first_len} and {last_len}"
    );
    assert!(
        last_mean < first_mean,
        "matching predicates must decrease with depth"
    );

    if arg_present("--validate") {
        let summary = validate_findings(&spec, &result.trojans, workers);
        assert_eq!(
            summary.confirmed,
            result.trojans.len(),
            "every discovered Trojan replays to a concrete failure"
        );
    }
}
