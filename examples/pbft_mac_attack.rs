//! The PBFT MAC attack, end to end (§6.3).
//!
//! 1. Achilles analyzes the PBFT client against the (primary) replica and
//!    reports a single Trojan type: requests whose authenticator no correct
//!    client can produce, accepted because the primary never verifies MACs.
//! 2. The cluster simulation quantifies the impact: a single client
//!    submitting corrupted-MAC requests forces expensive recoveries and
//!    collapses everyone's throughput.
//!
//! ```text
//! cargo run --release -p achilles-examples --example pbft_mac_attack
//! ```

use std::time::Instant;

use achilles::AchillesSession;
use achilles_pbft::{
    classify, run_workload, ClusterConfig, PbftRequest, PbftSpec, PbftTrojanFamily,
};

fn main() {
    println!("== Achilles analysis of the PBFT replica ==");
    let started = Instant::now();
    let result = AchillesSession::new(&PbftSpec::paper()).run();
    let total_time = started.elapsed();
    let families: Vec<PbftTrojanFamily> = result.trojans.iter().map(classify).collect();
    let mac_attacks = families
        .iter()
        .filter(|f| **f == PbftTrojanFamily::MacAttack)
        .count();
    // Two families exist: the MAC attack and everything else.
    let distinct = usize::from(mac_attacks > 0) + usize::from(mac_attacks < families.len());
    println!(
        "client predicates: {}, Trojan reports: {}, distinct types: {distinct}",
        result.client.len(),
        result.trojans.len(),
    );
    for (t, f) in result.trojans.iter().zip(&families) {
        let req = PbftRequest::from_field_values(&t.witness_fields);
        println!(
            "  [{:?}] witness: cid={} rid={} macs={:08x?} ({})",
            f,
            req.cid,
            req.rid,
            req.macs,
            t.notes.join("/")
        );
        assert_eq!(*f, PbftTrojanFamily::MacAttack);
    }
    println!("analysis time: {total_time:?} (the paper: \"a few seconds\")");

    println!("\n== impact: 4-replica cluster, 10,000 requests ==");
    let healthy = run_workload(ClusterConfig::default(), 10_000, 0);
    let attacked = run_workload(ClusterConfig::default(), 10_000, 10);
    println!(
        "healthy:             {:>8.0} req/s ({} recoveries)",
        healthy.throughput(),
        healthy.stats().recoveries
    );
    println!(
        "10% corrupted MACs:  {:>8.0} req/s ({} recoveries)",
        attacked.throughput(),
        attacked.stats().recoveries
    );
    let slowdown = healthy.throughput() / attacked.throughput();
    println!("slowdown: {slowdown:.1}x");
    assert!(slowdown > 10.0);

    println!("\n== with the fix of Clement et al. [10] ==");
    let patched = run_workload(
        ClusterConfig {
            primary_verifies_macs: true,
            ..ClusterConfig::default()
        },
        10_000,
        10,
    );
    println!(
        "patched:             {:>8.0} req/s ({} recoveries, {} requests dropped at the primary)",
        patched.throughput(),
        patched.stats().recoveries,
        patched.stats().dropped
    );
    assert_eq!(patched.stats().recoveries, 0);
    println!(
        "\nA node with a corrupted key — or a malicious client — can no longer \
         degrade the whole cluster."
    );
}
