//! Report export: render analysis results as Markdown.
//!
//! Trojan findings are fault-injection candidates (§4: "distributed system
//! developers … can incorporate the messages discovered by Achilles in
//! fault injection testing"), so they need to travel — into CI artifacts,
//! issue trackers, and fire-drill playbooks. This module renders an
//! [`AchillesReport`] (or a bare list of [`TrojanReport`]s) as
//! self-contained Markdown.

use std::fmt::Write as _;

use achilles_solver::TermPool;
use achilles_symvm::SymMessage;

use crate::pipeline::AchillesReport;
use crate::report::TrojanReport;

/// Renders a full pipeline report as Markdown.
pub fn report_to_markdown(pool: &TermPool, report: &AchillesReport) -> String {
    let mut out = String::new();
    out.push_str("# Achilles Trojan-message report\n\n");
    let _ = writeln!(out, "- client path predicates: **{}**", report.client.len());
    let _ = writeln!(out, "- server paths completed: **{}**", report.server_paths);
    let _ = writeln!(
        out,
        "- server paths pruned (no Trojan possible): **{}**",
        report.server_explore.pruned
    );
    let _ = writeln!(out, "- Trojan messages found: **{}**", report.trojans.len());
    let _ = writeln!(
        out,
        "- phases: client {:.3}s, preprocessing {:.3}s, server {:.3}s\n",
        report.phase_times.client.as_secs_f64(),
        report.phase_times.preprocess.as_secs_f64(),
        report.phase_times.server.as_secs_f64(),
    );
    out.push_str(&trojans_to_markdown(
        pool,
        &report.server_msg,
        &report.trojans,
    ));
    out
}

/// Renders Trojan reports as a Markdown table plus per-report details.
pub fn trojans_to_markdown(
    pool: &TermPool,
    server_msg: &SymMessage,
    trojans: &[TrojanReport],
) -> String {
    let mut out = String::new();
    if trojans.is_empty() {
        out.push_str("No Trojan messages: the server accepts exactly what clients send.\n");
        return out;
    }
    out.push_str("## Witnesses\n\n");
    out.push_str("| # | server path | verified | found at | ");
    for f in server_msg.layout().fields() {
        let _ = write!(out, "{} | ", f.name);
    }
    out.push('\n');
    out.push_str("|---|---|---|---|");
    for _ in server_msg.layout().fields() {
        out.push_str("---|");
    }
    out.push('\n');
    for (i, t) in trojans.iter().enumerate() {
        let _ = write!(
            out,
            "| {} | {} | {} | {:.3}s | ",
            i,
            t.server_path_id,
            if t.verified { "yes" } else { "NO" },
            t.found_at.as_secs_f64()
        );
        for v in &t.witness_fields {
            let _ = write!(out, "{v} | ");
        }
        out.push('\n');
    }
    out.push_str("\n## Path constraints\n\n");
    for (i, t) in trojans.iter().enumerate() {
        let _ = writeln!(
            out,
            "<details><summary>Trojan {} (path {}{})</summary>\n",
            i,
            t.server_path_id,
            if t.notes.is_empty() {
                String::new()
            } else {
                format!(": {}", t.notes.join("; "))
            },
        );
        out.push_str("```text\n");
        for &c in &t.constraints {
            let _ = writeln!(out, "{}", achilles_solver::render(pool, c));
        }
        out.push_str("```\n</details>\n\n");
    }
    out
}

/// Serializes a witness's field values as a stable, machine-readable record
/// (decimal, comma-separated) — the unit of the replay corpus format.
///
/// Reports render for humans ([`trojans_to_markdown`]); corpora need to
/// round-trip. Keeping both forms here means every consumer of exported
/// Trojans shares one vocabulary.
pub fn witness_record(fields: &[u64]) -> String {
    fields
        .iter()
        .map(u64::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

/// Parses a [`witness_record`] back into field values.
///
/// Returns `None` on any malformed component (corrupt corpus lines are
/// skipped, not trusted).
pub fn parse_witness_record(s: &str) -> Option<Vec<u64>> {
    if s.is_empty() {
        return Some(Vec::new());
    }
    s.split(',').map(|p| p.trim().parse().ok()).collect()
}

/// Serializes a multi-message session witness: one [`witness_record`] per
/// slot, slot boundaries marked with `/` (`"68,0,3/1,2"`). The session
/// analogue of [`witness_record`], and the unit of the v2 replay corpus
/// format.
pub fn session_witness_record(slots: &[Vec<u64>]) -> String {
    slots
        .iter()
        .map(|fields| witness_record(fields))
        .collect::<Vec<_>>()
        .join("/")
}

/// Parses a [`session_witness_record`] back into per-slot field values.
///
/// Returns `None` on any malformed component.
pub fn parse_session_witness_record(s: &str) -> Option<Vec<Vec<u64>>> {
    s.split('/').map(parse_witness_record).collect()
}

/// Splits a concatenated session witness back into per-slot field vectors
/// — the one definition of the slot-boundary encoding, shared by session
/// reports, the replay corpus, and witness concretization.
///
/// # Panics
///
/// Panics if `fields` does not have exactly `counts.iter().sum()` entries.
pub fn split_fields_by_counts(fields: &[u64], counts: &[usize]) -> Vec<Vec<u64>> {
    let mut out = Vec::with_capacity(counts.len());
    let mut offset = 0usize;
    for &count in counts {
        out.push(fields[offset..offset + count].to_vec());
        offset += count;
    }
    assert_eq!(offset, fields.len(), "witness arity matches the slot shape");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Achilles, AchillesConfig};
    use achilles_solver::Width;
    use achilles_symvm::{MessageLayout, PathResult, SymEnv};
    use std::sync::Arc;

    fn layout() -> Arc<MessageLayout> {
        MessageLayout::builder("kv")
            .field("op", Width::W8)
            .field("key", Width::W16)
            .build()
    }

    fn client(env: &mut SymEnv<'_>) -> PathResult<()> {
        let key = env.sym("key", Width::W16);
        let cap = env.constant(10, Width::W16);
        if !env.if_ult(key, cap)? {
            return Ok(());
        }
        let op = env.constant(1, Width::W8);
        env.send(achilles_symvm::SymMessage::new(layout(), vec![op, key]));
        Ok(())
    }

    fn server(env: &mut SymEnv<'_>) -> PathResult<()> {
        let msg = env.recv(&layout())?;
        let one = env.constant(1, Width::W8);
        if !env.if_eq(msg.field("op"), one)? {
            return Ok(());
        }
        let cap = env.constant(20, Width::W16);
        if !env.if_ult(msg.field("key"), cap)? {
            return Ok(());
        }
        env.mark_accept();
        Ok(())
    }

    #[test]
    fn markdown_contains_witness_table_and_constraints() {
        let mut achilles = Achilles::new();
        let report = achilles.run(&[&client], &server, &layout(), &AchillesConfig::verified());
        let md = report_to_markdown(&achilles.pool, &report);
        assert!(md.contains("# Achilles Trojan-message report"), "{md}");
        assert!(md.contains("| # | server path | verified |"), "{md}");
        assert!(md.contains("| op | key |"), "{md}");
        assert!(md.contains("```text"), "{md}");
        assert!(md.contains("msg.key"), "constraints rendered: {md}");
    }

    #[test]
    fn clean_reports_say_so() {
        let mut pool = TermPool::new();
        let msg = SymMessage::fresh(&mut pool, &layout(), "msg");
        let md = trojans_to_markdown(&pool, &msg, &[]);
        assert!(md.contains("No Trojan messages"));
    }

    #[test]
    fn witness_records_round_trip() {
        let fields = vec![0, 1, u64::MAX, 42];
        let record = witness_record(&fields);
        assert_eq!(parse_witness_record(&record), Some(fields));
        assert_eq!(parse_witness_record(""), Some(vec![]));
        assert_eq!(parse_witness_record("1,x,3"), None);
    }

    #[test]
    fn session_witness_records_round_trip() {
        let slots = vec![vec![68, 0, 3], vec![1, u64::MAX]];
        let record = session_witness_record(&slots);
        assert_eq!(record, "68,0,3/1,18446744073709551615");
        assert_eq!(parse_session_witness_record(&record), Some(slots));
        // A single-slot record is indistinguishable from a flat one.
        assert_eq!(parse_session_witness_record("1,2"), Some(vec![vec![1, 2]]));
        assert_eq!(parse_session_witness_record("1,2/x"), None);
    }

    #[test]
    fn split_fields_by_counts_recovers_slots() {
        assert_eq!(
            split_fields_by_counts(&[68, 0, 3, 1, 2], &[3, 2]),
            vec![vec![68, 0, 3], vec![1, 2]]
        );
        assert_eq!(split_fields_by_counts(&[], &[]), Vec::<Vec<u64>>::new());
    }
}
