//! `service`: resident fleetd in-process, one executor shard, under an
//! open loop from one generator thread. The seeded stream mixes fresh
//! witnesses (each swept by the executor), re-sent stored witnesses
//! (answered `dup`) and matrix reads, so both the write path (replay of
//! new cells) and the read path (dedupe and matrix rendering) are timed,
//! and contention on the service's queue, store and state lock shows.
//!
//! Every request is timed from when it was due, so a stall also charges
//! the requests queued behind it. A fresh ingest's latency runs from its
//! due time until its `QUERY` first returns the full matrix.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

use achilles::export::session_witness_record;
use achilles::{fields_to_wire, layout_widths, AchillesSession, SessionReport};
use achilles_fleetd::{Fleetd, FleetdConfig, ServiceStats};
use achilles_replay::{session_from_report, SessionWitness};
use achilles_sweep::{sweep_report, sweep_witness, CampaignConfig, SchedulePlanner, SweepCache};

use crate::out::{cpu_s, ms, Output};
use crate::stream::{generate, Base, Kind, Request, Shape};
use crate::{Args, WORKERS};

/// The offered load and its mix. No share below comes from a measured
/// trace: the repository holds no record of fleetd traffic (its soak
/// binary only ingests), so the mix is an assumption, chosen as follows.
///
/// - `rate_per_s`: 30 requests, i.e. 15 fresh witnesses per second, about
///   a quarter of what one executor sustains over a 30 s window on the
///   reference host (2 cores). Sustained capacity falls as the store
///   grows, because every `INGEST` scans the whole sweep cache under the
///   state lock: about 2 ms per call with the discovered corpus stored,
///   40 ms with 4,000 more witnesses; run saturated, the service averaged
///   45 witnesses/s over its first 4,000. At twice this load, queueing
///   made the latency swing with the shared host's speed by about 1.7
///   times as much as the CPU time did.
/// - `fresh_share`: a half. New witnesses are the service's main work
///   (their cells are replayed), and a half gives 300 ingest latencies in
///   a 20 s window, 15 of them above the p95.
/// - `dup_share`: a fifth. A re-sent record, as when two clients report
///   the same finding, costs only a dedupe lookup under the state lock; a
///   fifth keeps that path in every second of the stream (6/s) without
///   thinning the ingest samples.
/// - reads: the remaining 0.3, i.e. 180 `QUERY` latencies in a 20 s
///   window, 9 of them above the p95.
/// - `read_after_ns`: 2 s, twice the ingest latency limit, so on a
///   healthy service a read finds its matrix complete and times the
///   rendering, not the wait.
/// - `check_share`: 1/32, about 9 fresh records per 20 s window re-swept
///   in batch after the window, which bounds the time the check adds.
pub const SHAPE: Shape = Shape {
    rate_per_s: 30.0,
    fresh_share: 0.5,
    dup_share: 0.2,
    read_after_ns: 2_000_000_000,
    check_share: 1.0 / 32.0,
};

/// A fresh ingest whose matrix is not complete this long after it was due
/// counts as failed.
pub const LATENCY_LIMIT_MS: f64 = 1000.0;

/// A run whose generator sent any request later than this after its due
/// time is invalid: the offered load was not the stated one.
pub const GEN_LAG_BOUND_MS: f64 = 250.0;

/// How often outstanding fresh ingests are polled with `QUERY`.
const POLL: Duration = Duration::from_millis(1);

struct Setup {
    service: Fleetd,
    bases: Vec<Base>,
    reports: Vec<(String, SessionReport)>,
}

fn setup() -> Setup {
    let registry = achilles_targets::builtin_registry();
    let mut bases = Vec::new();
    let mut reports = Vec::new();
    let mut seen = HashSet::new();
    for spec in achilles_targets::session_bearing(&registry) {
        let mut session = AchillesSession::new(&**spec).workers(WORKERS);
        for report in session.run_sessions() {
            let widths: Vec<Vec<u32>> = report.layouts.iter().map(|l| layout_widths(l)).collect();
            for (i, trojan) in report.trojans.iter().enumerate() {
                let witness = session_from_report(&report.layouts, i, trojan)
                    .expect("session layouts are wire-encodable");
                let record = session_witness_record(&witness.fields);
                if !seen.insert((spec.name(), report.session.clone(), record)) {
                    continue;
                }
                let id = bases
                    .iter()
                    .filter(|b: &&Base| b.target == spec.name() && b.session == report.session)
                    .count();
                bases.push(Base {
                    target: spec.name().to_string(),
                    session: report.session.clone(),
                    fields: witness.fields,
                    widths: widths.clone(),
                    id,
                });
            }
            reports.push((spec.name().to_string(), report));
        }
    }
    let service = Fleetd::start(registry, FleetdConfig::default().shards(1))
        .expect("in-memory service starts");
    let mut registered = HashSet::new();
    for base in &bases {
        if registered.insert(base.target.clone()) {
            let reply = service.handle_line(&format!("REGISTER {}", base.target));
            assert!(
                reply.starts_with("OK "),
                "register {}: {reply}",
                base.target
            );
        }
        let reply = service.handle_line(&format!(
            "INGEST {}/{} {}",
            base.target,
            base.session,
            session_witness_record(&base.fields)
        ));
        assert!(
            reply.starts_with(&format!("OK id={} ", base.id)),
            "preload {}: {reply}",
            base.target
        );
        // One witness at a time, so set-up leaves the queue's peak depth
        // at one witness's cells.
        service.drain();
    }
    Setup {
        service,
        bases,
        reports,
    }
}

fn digest(text: &str) -> u64 {
    let mut h = DefaultHasher::new();
    text.hash(&mut h);
    h.finish()
}

/// The matrix payload of a `QUERY <target> <id>` reply, or `None` while
/// the witness is pending (or the reply is not a matrix at all).
fn matrix_payload(reply: &str) -> Option<String> {
    let mut lines = reply.lines();
    if !lines.next()?.starts_with("OK ") {
        return None;
    }
    let payload: Vec<&str> = lines.collect();
    let complete = payload.first()?.starts_with("witness ")
        && !payload.iter().any(|l| l.starts_with("pending "));
    complete.then(|| payload.join("\n"))
}

/// A matrix's `to_text` in the line framing `QUERY` replies use.
fn framed(text: &str) -> String {
    text.lines().collect::<Vec<_>>().join("\n")
}

struct Window<'a> {
    service: &'a Fleetd,
    stream: &'a [Request],
    started: Instant,
    out: Output,
    /// Fresh ingests still waiting for their matrix: stream indices.
    outstanding: Vec<usize>,
    /// First complete matrix seen per `(target, id)`, as a digest.
    seen: HashMap<(String, usize), u64>,
    /// Full texts of the fresh witnesses sampled for the batch check.
    sampled: Vec<(usize, String)>,
    ingest_call_ms: Vec<f64>,
    query_call_ms: Vec<f64>,
    query_ms: Vec<f64>,
    /// `QUERY` probes sent to see whether a fresh ingest's matrix is done.
    probes: usize,
    lag_max_ms: f64,
}

impl Window<'_> {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn call(&self, line: &str) -> String {
        let _span = achilles_obs::span("bench:handle_line", "fleetd");
        self.service.handle_line(line)
    }

    fn record_matrix(&mut self, r: &Request, text: &str) -> bool {
        let d = digest(text);
        *self.seen.entry((r.target.clone(), r.id)).or_insert(d) == d
    }

    /// Probes outstanding fresh ingests with `QUERY`, oldest first per
    /// target, and stops at a target's first pending one: the single
    /// executor drains its queue in arrival order, so the younger ones
    /// are pending too. This keeps the probes to about one per target
    /// with work outstanding per poll.
    fn poll(&mut self) {
        let stream = self.stream;
        let mut pending_targets: HashSet<&str> = HashSet::new();
        let mut still = Vec::with_capacity(self.outstanding.len());
        for i in std::mem::take(&mut self.outstanding) {
            let r = &stream[i];
            if pending_targets.contains(r.target.as_str()) {
                still.push(i);
                continue;
            }
            self.probes += 1;
            let reply = self.call(&format!("QUERY {} {}", r.target, r.id));
            let late_ms = (self.now_ns().saturating_sub(r.due_ns)) as f64 / 1e6;
            match matrix_payload(&reply) {
                Some(text) => {
                    self.out.op_ms.push(late_ms);
                    if late_ms > LATENCY_LIMIT_MS {
                        self.out
                            .fail(format!("ingest {i}: matrix after {late_ms:.1} ms"));
                    }
                    if !self.record_matrix(r, &text) {
                        self.out.fail(format!("ingest {i}: matrix changed"));
                    }
                    if r.check {
                        self.sampled.push((i, text));
                    }
                }
                None => {
                    pending_targets.insert(&r.target);
                    if late_ms > LATENCY_LIMIT_MS {
                        self.out
                            .fail(format!("ingest {i}: no matrix after {late_ms:.1} ms"));
                    } else {
                        still.push(i);
                    }
                }
            }
        }
        self.outstanding = still;
    }

    fn send(&mut self, i: usize) {
        let stream = self.stream;
        let r = &stream[i];
        let lag_ms = (self.now_ns().saturating_sub(r.due_ns)) as f64 / 1e6;
        self.lag_max_ms = self.lag_max_ms.max(lag_ms);
        let call = Instant::now();
        let reply = self.call(&r.line);
        let call_ms = ms(call.elapsed());
        let late_ms = (self.now_ns().saturating_sub(r.due_ns)) as f64 / 1e6;
        self.out.attempted += 1;
        match r.kind {
            Kind::Fresh => {
                self.ingest_call_ms.push(call_ms);
                if reply.starts_with(&format!("OK id={} cells=", r.id)) {
                    self.outstanding.push(i);
                } else {
                    self.out.fail(format!("ingest {i}: {reply}"));
                }
            }
            Kind::Dup => {
                if reply != format!("OK dup id={}", r.id) {
                    self.out.fail(format!("dup {i}: {reply}"));
                }
            }
            Kind::Read => {
                self.query_call_ms.push(call_ms);
                self.query_ms.push(late_ms);
                match matrix_payload(&reply) {
                    Some(text) if self.record_matrix(r, &text) => {}
                    Some(_) => self.out.fail(format!("read {i}: matrix changed")),
                    None => self.out.fail(format!("read {i}: {reply}")),
                }
            }
        }
    }
}

pub fn run(args: &Args, tracing: bool) -> Output {
    let started = Instant::now();
    let Setup {
        service,
        bases,
        reports,
    } = setup();
    let setup_s = vec![started.elapsed().as_secs_f64()];
    if args.setup_only {
        return Output {
            setup_s,
            ..Output::default()
        };
    }
    let before = service.stats();

    let stream = generate(&bases, &SHAPE, args.seed, args.seconds);

    achilles_obs::set_tracing(tracing);
    let cpu0 = cpu_s();
    let mut w = Window {
        service: &service,
        stream: &stream,
        started: Instant::now(),
        out: Output {
            setup_s,
            ..Output::default()
        },
        outstanding: Vec::new(),
        seen: HashMap::new(),
        sampled: Vec::new(),
        ingest_call_ms: Vec::new(),
        query_call_ms: Vec::new(),
        query_ms: Vec::new(),
        probes: 0,
        lag_max_ms: 0.0,
    };
    let mut last_poll = 0u64;
    for (i, request) in stream.iter().enumerate() {
        loop {
            let now = w.now_ns();
            if !w.outstanding.is_empty() && now >= last_poll + POLL.as_nanos() as u64 {
                w.poll();
                last_poll = w.now_ns();
            }
            let now = w.now_ns();
            if now >= request.due_ns {
                break;
            }
            let wait = Duration::from_nanos(request.due_ns - now);
            std::thread::sleep(if w.outstanding.is_empty() {
                wait
            } else {
                wait.min(POLL)
            });
        }
        w.send(i);
    }
    while !w.outstanding.is_empty() {
        std::thread::sleep(POLL);
        w.poll();
    }
    let window_s = w.started.elapsed().as_secs_f64();
    let cpu = cpu_s() - cpu0;
    achilles_obs::set_tracing(false);
    let after = service.stats();

    let mut out = std::mem::take(&mut w.out);
    out.window_s = window_s;
    out.cpu_s = cpu;
    if w.lag_max_ms > GEN_LAG_BOUND_MS {
        out.invalid.push(format!(
            "generator ran {:.1} ms late (bound {GEN_LAG_BOUND_MS} ms)",
            w.lag_max_ms
        ));
    }
    out.rounds.push(counters(&before, &after, &w));
    *out.series("query_ms") = std::mem::take(&mut w.query_ms);
    let (sampled, seen) = (std::mem::take(&mut w.sampled), std::mem::take(&mut w.seen));
    drop(w);
    // Joins the executor, so a traced run's executor spans reach the sink.
    drop(service);

    check(&mut out, &stream, &sampled, &seen, &bases, &reports);
    out
}

fn counters(before: &ServiceStats, after: &ServiceStats, w: &Window) -> BTreeMap<String, f64> {
    let d = |f: fn(&ServiceStats) -> usize| (f(after) - f(before)) as f64;
    let median = |v: &[f64]| {
        let mut v = v.to_vec();
        v.sort_by(f64::total_cmp);
        v.get(v.len() / 2).copied().unwrap_or(0.0)
    };
    BTreeMap::from([
        ("fleetd.replays".into(), d(|s| s.replays)),
        ("fleetd.cache_hits".into(), d(|s| s.cache_hits)),
        ("fleetd.duplicates".into(), d(|s| s.duplicates)),
        ("fleetd.busy_rejections".into(), d(|s| s.busy_rejections)),
        ("fleetd.peak_queue_cells".into(), after.peak_cells as f64),
        ("fleetd.ingest_call_ms".into(), median(&w.ingest_call_ms)),
        ("fleetd.query_call_ms".into(), median(&w.query_call_ms)),
        ("replay.plans".into(), d(|s| s.fork_plans)),
        ("replay.boots".into(), d(|s| s.boots)),
        ("replay.restores".into(), d(|s| s.snapshot_restores)),
        ("service.gen_lag_max_ms".into(), w.lag_max_ms),
        ("service.probe_queries".into(), w.probes as f64),
    ])
}

/// Output checks, outside the measured window: sampled fresh witnesses
/// against the batch sweep of the same record, and every matrix read of
/// a discovered witness against the batch `sweep_report`.
fn check(
    out: &mut Output,
    stream: &[Request],
    sampled: &[(usize, String)],
    seen: &HashMap<(String, usize), u64>,
    bases: &[Base],
    reports: &[(String, SessionReport)],
) {
    let registry = achilles_targets::builtin_registry();
    let config = CampaignConfig::default();
    let planner = SchedulePlanner::new(config.sweep.clone());
    for (i, text) in sampled {
        let r = &stream[*i];
        let spec = registry
            .get(&r.target)
            .expect("stream targets are built in");
        let layouts = spec
            .sessions()
            .into_iter()
            .find(|s| s.name == r.session)
            .expect("stream sessions are declared")
            .slots
            .iter()
            .map(|s| std::sync::Arc::clone(&s.layout))
            .collect::<Vec<_>>();
        let fields = achilles::export::parse_session_witness_record(&r.record)
            .expect("generated records parse");
        let wire = fields
            .iter()
            .zip(&layouts)
            .map(|(f, l)| fields_to_wire(l, f).expect("re-drawn fields fit their widths"))
            .collect();
        let witness = SessionWitness {
            index: r.id,
            server_path_id: 0,
            fields,
            wire,
        };
        let target = spec.session_replay_target(&r.session);
        let (matrix, _) = sweep_witness(
            &*target,
            &format!("{}/{}", r.target, r.session),
            &witness,
            &planner,
            1,
            config.fork,
            &mut SweepCache::new(),
        );
        if framed(&matrix.to_text()) != *text {
            out.fail(format!("ingest {i}: QUERY differs from the batch sweep"));
        }
    }
    let mut base_checked = 0;
    for (target, report) in reports {
        let spec = registry.get(target).expect("report targets are built in");
        let sweep = sweep_report(&**spec, report, &config, &mut SweepCache::new());
        for matrix in &sweep.matrices {
            let record = session_witness_record(&matrix.witness.fields);
            let Some(base) = bases.iter().find(|b| {
                &b.target == target
                    && b.session == report.session
                    && session_witness_record(&b.fields) == record
            }) else {
                continue;
            };
            if let Some(d) = seen.get(&(target.clone(), base.id)) {
                base_checked += 1;
                if *d != digest(&framed(&matrix.to_text())) {
                    out.fail(format!(
                        "{target} id {}: QUERY differs from sweep_report",
                        base.id
                    ));
                }
            }
        }
    }
    eprintln!(
        "service: {} fresh and {base_checked} discovered witnesses checked against the batch sweep",
        sampled.len()
    );
}
