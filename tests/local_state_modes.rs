//! Integration: the pipeline's `LocalState::Constructed` seeding (§3.4).
//! The three Paxos local-state modes are pinned by the `achilles-paxos`
//! unit tests (`programs::tests`).

use achilles::{Achilles, AchillesConfig, FieldMask, LocalState, Optimizations};
use achilles_solver::Width;
use achilles_symvm::{ExploreConfig, MessageLayout, PathResult, SymEnv, SymMessage};
use std::sync::Arc;

fn kv_layout() -> Arc<MessageLayout> {
    MessageLayout::builder("kv")
        .field("op", Width::W8)
        .field("slot", Width::W16)
        .build()
}

fn kv_client(env: &mut SymEnv<'_>) -> PathResult<()> {
    let slot = env.sym("slot", Width::W16);
    let cap = env.constant(64, Width::W16);
    if !env.if_ult(slot, cap)? {
        return Ok(());
    }
    let op = env.constant(1, Width::W8);
    env.send(SymMessage::new(kv_layout(), vec![op, slot]));
    Ok(())
}

fn kv_server(env: &mut SymEnv<'_>) -> PathResult<()> {
    let msg = env.recv(&kv_layout())?;
    let one = env.constant(1, Width::W8);
    if !env.if_eq(msg.field("op"), one)? {
        return Ok(());
    }
    let cap = env.constant(256, Width::W16); // bug: 4× the client's bound
    if !env.if_ult(msg.field("slot"), cap)? {
        return Ok(());
    }
    env.mark_accept();
    Ok(())
}

#[test]
fn pipeline_constructed_state_narrows_the_window() {
    let mut achilles = Achilles::new();
    let (pred, _) = achilles.extract_client_predicate(&kv_client, &ExploreConfig::default());
    let prepared = achilles.prepare(
        pred,
        &kv_layout(),
        FieldMask::none(),
        Optimizations::default(),
    );
    // The deployment scenario pins the server's view: slots above 100 were
    // never provisioned, so prior protocol steps imply slot < 100.
    let slot = prepared.server_msg.field("slot");
    let hundred = achilles.pool.constant(100, Width::W16);
    let seeded = achilles.pool.ult(slot, hundred);
    let config = AchillesConfig {
        verify_witnesses: true,
        local_state: LocalState::Constructed {
            constraints: vec![seeded],
        },
        ..AchillesConfig::default()
    };
    let outcome = achilles.analyze_server(&kv_server, &prepared, &config);
    assert_eq!(outcome.reports.len(), 1);
    let w = outcome.reports[0].witness_fields[1];
    assert!(
        (64..100).contains(&w),
        "the witness respects both the bug window and the scenario: {w}"
    );
}
