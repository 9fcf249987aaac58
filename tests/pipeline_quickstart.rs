//! Integration: the paper's §2 working example through the public pipeline
//! API, with checks on predicate structure, report quality, and
//! reproducibility.

use std::sync::Arc;

use achilles::{Achilles, AchillesConfig, FieldMask};
use achilles_solver::Width;
use achilles_symvm::{MessageLayout, PathResult, SymEnv, SymMessage};

const DATASIZE: u64 = 100;

fn layout() -> Arc<MessageLayout> {
    MessageLayout::builder("msg")
        .field("request", Width::W8)
        .field("address", Width::W32)
        .field("value", Width::W32)
        .build()
}

fn client(env: &mut SymEnv<'_>) -> PathResult<()> {
    let op = env.sym("operationType", Width::W8);
    let addr = env.sym("address", Width::W32);
    let datasize = env.constant(DATASIZE, Width::W32);
    if !env.if_slt(addr, datasize)? {
        return Ok(());
    }
    let zero = env.constant(0, Width::W32);
    if env.if_slt(addr, zero)? {
        return Ok(());
    }
    let read = env.constant(1, Width::W8);
    if env.if_eq(op, read)? {
        let req = env.constant(1, Width::W8);
        let value = env.sym("uninit", Width::W32);
        env.send(SymMessage::new(layout(), vec![req, addr, value]));
    } else {
        let req = env.constant(2, Width::W8);
        let value = env.sym("value", Width::W32);
        env.send(SymMessage::new(layout(), vec![req, addr, value]));
    }
    Ok(())
}

fn server(env: &mut SymEnv<'_>) -> PathResult<()> {
    let msg = env.recv(&layout())?;
    let datasize = env.constant(DATASIZE, Width::W32);
    let read = env.constant(1, Width::W8);
    let write = env.constant(2, Width::W8);
    if env.if_eq(msg.field("request"), read)? {
        if !env.if_slt(msg.field("address"), datasize)? {
            return Ok(());
        }
        env.note("READ");
        env.mark_accept();
        return Ok(());
    }
    if env.if_eq(msg.field("request"), write)? {
        if !env.if_slt(msg.field("address"), datasize)? {
            return Ok(());
        }
        let zero = env.constant(0, Width::W32);
        if env.if_slt(msg.field("address"), zero)? {
            return Ok(());
        }
        env.note("WRITE");
        env.mark_accept();
        return Ok(());
    }
    Ok(())
}

#[test]
fn working_example_full_pipeline() {
    let mut achilles = Achilles::new();
    let report = achilles.run(&[&client], &server, &layout(), &AchillesConfig::verified());

    // Figure 5: two client path predicates (READ and WRITE).
    assert_eq!(report.client.len(), 2);
    let requests: Vec<Option<u64>> = report
        .client
        .paths
        .iter()
        .map(|p| achilles.pool.as_const(p.message.field("request")))
        .collect();
    assert!(requests.contains(&Some(1)) && requests.contains(&Some(2)));

    // Exactly one Trojan: READ with a negative address.
    assert_eq!(report.trojans.len(), 1);
    let t = &report.trojans[0];
    assert!(t.verified);
    assert!(t.notes.contains(&"READ".to_string()));
    assert_eq!(t.witness_fields[0], 1);
    assert!(Width::W32.to_signed(t.witness_fields[1]) < 0);

    // Pipeline metadata is populated.
    assert!(report.server_paths >= 2);
    assert!(!report.samples.is_empty());
    assert!(report.search_stats.trojan_checks > 0);
}

#[test]
fn pipeline_is_deterministic() {
    let run = || {
        let mut achilles = Achilles::new();
        let report = achilles.run(&[&client], &server, &layout(), &AchillesConfig::verified());
        (
            report.client.len(),
            report.trojans.len(),
            report.trojans[0].witness_fields.clone(),
            report.server_paths,
        )
    };
    assert_eq!(run(), run(), "identical inputs must give identical reports");
}

#[test]
fn patched_server_has_no_trojans() {
    fn patched(env: &mut SymEnv<'_>) -> PathResult<()> {
        let msg = env.recv(&layout())?;
        let datasize = env.constant(DATASIZE, Width::W32);
        let read = env.constant(1, Width::W8);
        let write = env.constant(2, Width::W8);
        let zero = env.constant(0, Width::W32);
        let is_read = env.if_eq(msg.field("request"), read)?;
        let is_write = if is_read {
            false
        } else {
            env.if_eq(msg.field("request"), write)?
        };
        if !is_read && !is_write {
            return Ok(());
        }
        if !env.if_slt(msg.field("address"), datasize)? {
            return Ok(());
        }
        if env.if_slt(msg.field("address"), zero)? {
            return Ok(()); // the fix: both handlers check the lower bound
        }
        env.mark_accept();
        Ok(())
    }
    let mut achilles = Achilles::new();
    let report = achilles.run(&[&client], &patched, &layout(), &AchillesConfig::verified());
    assert_eq!(
        report.trojans.len(),
        0,
        "defensive server accepts exactly C"
    );
}

#[test]
fn masked_fields_do_not_generate_reports() {
    // Masking `address` hides the Trojan window entirely.
    let mut achilles = Achilles::new();
    let l = layout();
    let config = AchillesConfig {
        mask: FieldMask::by_names(&l, &["address", "value"]),
        ..AchillesConfig::verified()
    };
    let report = achilles.run(&[&client], &server, &l, &config);
    assert_eq!(report.trojans.len(), 0);
}
