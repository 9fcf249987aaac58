//! The seeded request stream of the `service` workload.
//!
//! The seed alone fixes the stream: the order in which the discovered
//! witnesses and their slots are mutated (each equally often, so every
//! seed offers the same mix), which field is re-drawn and to what value,
//! which requests re-send a stored record (answered `dup`) or read a
//! finished matrix, which fresh records are checked against the batch
//! sweep, and the Poisson arrival schedule. The service only ever sees the rendered protocol lines.

use std::collections::HashSet;

use achilles::export::session_witness_record;

/// SplitMix64: small, and fixed by its definition rather than by a crate
/// version, so one seed names one stream on every build.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is negligible for the
    /// small ranges drawn here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A discovered session witness the stream re-draws fields of. It is
/// preloaded into the service at set-up, so its id is known.
#[derive(Clone, Debug)]
pub struct Base {
    pub target: String,
    pub session: String,
    /// Per-slot field values.
    pub fields: Vec<Vec<u64>>,
    /// Per-slot field widths in bits.
    pub widths: Vec<Vec<u32>>,
    /// Witness id within its `target/session` store shard.
    pub id: usize,
}

/// The traffic shape. Shares are exact per stream (the seed orders the
/// kinds); whatever is left after `fresh_share + dup_share` is reads.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Offered load in requests per second (all kinds).
    pub rate_per_s: f64,
    pub fresh_share: f64,
    pub dup_share: f64,
    /// A read targets only witnesses ingested at least this long before
    /// it is due, so on a healthy service its matrix is complete.
    pub read_after_ns: u64,
    /// Probability that a fresh record is re-derived by the batch sweep
    /// after the run and compared byte for byte.
    pub check_share: f64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A record no earlier request carried: the service sweeps it.
    Fresh,
    /// A stored record sent again: the service answers `dup id=<id>`.
    Dup,
    /// `QUERY <target> <id>` of a witness due long enough ago.
    Read,
}

#[derive(Clone, Debug)]
pub struct Request {
    /// When the request is due, from the start of the measured window.
    pub due_ns: u64,
    pub kind: Kind,
    pub target: String,
    pub session: String,
    /// The witness record the request carries or reads.
    pub record: String,
    /// The witness id the service assigns (fresh) or already holds.
    pub id: usize,
    /// Fresh records only: compare with the batch sweep after the run.
    pub check: bool,
    /// The protocol line sent to the service.
    pub line: String,
}

struct Stored {
    target: String,
    session: String,
    record: String,
    id: usize,
    readable_from_ns: u64,
}

/// Generates the requests of a `seconds`-long window over `bases` from
/// `seed`: exactly `rate_per_s × seconds` of them, in exact shares, so
/// every seed offers the same amount of work.
///
/// # Panics
///
/// Panics if `bases` is empty or a base has no fields to re-draw.
pub fn generate(bases: &[Base], shape: &Shape, seed: u64, seconds: f64) -> Vec<Request> {
    assert!(!bases.is_empty(), "the stream mutates discovered witnesses");
    let mut rng = Rng::new(seed);
    let mut stored: Vec<Stored> = Vec::new();
    let mut seen: HashSet<(String, String, String)> = HashSet::new();
    let mut next_id: std::collections::HashMap<(String, String), usize> =
        std::collections::HashMap::new();
    for base in bases {
        let record = session_witness_record(&base.fields);
        seen.insert((base.target.clone(), base.session.clone(), record.clone()));
        let next = next_id
            .entry((base.target.clone(), base.session.clone()))
            .or_insert(0);
        *next = (*next).max(base.id + 1);
        stored.push(Stored {
            target: base.target.clone(),
            session: base.session.clone(),
            record,
            id: base.id,
            readable_from_ns: 0,
        });
    }

    let count = (shape.rate_per_s * seconds).round() as usize;
    // A Poisson process with `count` arrivals in the window places them
    // uniformly: independent users, open loop.
    let horizon_ns = seconds * 1e9;
    let mut dues: Vec<u64> = (0..count)
        .map(|_| (rng.unit() * horizon_ns) as u64)
        .collect();
    dues.sort_unstable();
    let fresh = (count as f64 * shape.fresh_share).round() as usize;
    let dup = (count as f64 * shape.dup_share).round() as usize;
    let mut kinds: Vec<Kind> = (0..count)
        .map(|i| match i {
            i if i < fresh => Kind::Fresh,
            i if i < fresh + dup => Kind::Dup,
            _ => Kind::Read,
        })
        .collect();
    rng.shuffle(&mut kinds);

    // Fresh records are dealt from a deck of every (base, slot) pair,
    // reshuffled each time it runs out, so every seed offers the same mix
    // of targets and re-drawn slots and only the order, fields and values
    // differ.
    let pairs: Vec<(usize, usize)> = bases
        .iter()
        .enumerate()
        .flat_map(|(b, base)| (0..base.fields.len()).map(move |slot| (b, slot)))
        .collect();
    let mut deck: Vec<(usize, usize)> = Vec::new();
    let mut out = Vec::with_capacity(count);
    for (due_ns, kind) in dues.into_iter().zip(kinds) {
        let request = if kind == Kind::Fresh {
            if deck.is_empty() {
                deck.clone_from(&pairs);
                rng.shuffle(&mut deck);
            }
            let (b, slot) = deck.pop().expect("the deck was just refilled");
            let base = &bases[b];
            let fields = redraw(base, slot, &mut rng, &seen);
            let record = session_witness_record(&fields);
            seen.insert((base.target.clone(), base.session.clone(), record.clone()));
            let next = next_id
                .get_mut(&(base.target.clone(), base.session.clone()))
                .expect("every base's shard has an id counter");
            let id = *next;
            *next += 1;
            stored.push(Stored {
                target: base.target.clone(),
                session: base.session.clone(),
                record: record.clone(),
                id,
                readable_from_ns: due_ns + shape.read_after_ns,
            });
            let check = rng.unit() < shape.check_share;
            request(due_ns, Kind::Fresh, &stored[stored.len() - 1], check)
        } else if kind == Kind::Dup {
            let pick = rng.below(stored.len());
            request(due_ns, Kind::Dup, &stored[pick], false)
        } else {
            // Bases are readable from the start, so the candidate set is
            // never empty; `stored` is in due order, so it is a prefix.
            let readable = stored.partition_point(|s| s.readable_from_ns <= due_ns);
            let pick = rng.below(readable);
            request(due_ns, Kind::Read, &stored[pick], false)
        };
        out.push(request);
    }
    out
}

fn request(due_ns: u64, kind: Kind, stored: &Stored, check: bool) -> Request {
    let line = match kind {
        Kind::Fresh | Kind::Dup => format!(
            "INGEST {}/{} {}",
            stored.target, stored.session, stored.record
        ),
        Kind::Read => format!("QUERY {} {}", stored.target, stored.id),
    };
    Request {
        due_ns,
        kind,
        target: stored.target.clone(),
        session: stored.session.clone(),
        record: stored.record.clone(),
        id: stored.id,
        check,
        line,
    }
}

/// Re-draws one field of `slot` of `base` within the field's width,
/// until the record is new.
fn redraw(
    base: &Base,
    slot: usize,
    rng: &mut Rng,
    seen: &HashSet<(String, String, String)>,
) -> Vec<Vec<u64>> {
    assert!(
        !base.fields[slot].is_empty(),
        "a slot has fields to re-draw"
    );
    loop {
        let field = rng.below(base.fields[slot].len());
        let width = base.widths[slot][field];
        let value = if width >= 64 {
            rng.next_u64()
        } else {
            rng.next_u64() & ((1u64 << width) - 1)
        };
        let mut fields = base.fields.clone();
        fields[slot][field] = value;
        let key = (
            base.target.clone(),
            base.session.clone(),
            session_witness_record(&fields),
        );
        if !seen.contains(&key) {
            return fields;
        }
    }
}

/// The stream as text, one `due_ns kind check line` row per request.
#[cfg(test)]
pub fn render(stream: &[Request]) -> String {
    let mut out = String::new();
    for r in stream {
        out.push_str(&format!(
            "{} {:?} {} {}\n",
            r.due_ns, r.kind, r.check, r.line
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bases() -> Vec<Base> {
        vec![
            Base {
                target: "fsp".into(),
                session: "login-cmd".into(),
                fields: vec![vec![3, 150], vec![68, 0, 1]],
                widths: vec![vec![8, 16], vec![8, 32, 8]],
                id: 0,
            },
            Base {
                target: "gossip".into(),
                session: "seed-sync-read".into(),
                fields: vec![vec![1], vec![2, 9]],
                widths: vec![vec![64], vec![16, 16]],
                id: 0,
            },
        ]
    }

    fn shape() -> Shape {
        Shape {
            rate_per_s: 100.0,
            fresh_share: 0.5,
            dup_share: 0.2,
            read_after_ns: 50_000_000,
            check_share: 0.1,
        }
    }

    #[test]
    fn same_seed_same_stream_and_other_seeds_differ() {
        let a = render(&generate(&bases(), &shape(), 7, 5.0));
        let b = render(&generate(&bases(), &shape(), 7, 5.0));
        assert_eq!(a, b, "a seed names one byte-identical stream");
        for other in [8, 9, 1 << 40] {
            let c = render(&generate(&bases(), &shape(), other, 5.0));
            assert_ne!(a, c, "seed {other} gives another stream");
        }
    }

    #[test]
    fn stream_is_well_formed() {
        let stream = generate(&bases(), &shape(), 3, 20.0);
        assert_eq!(stream.len(), 2000, "rate × seconds requests");
        let mut fresh = HashSet::new();
        let mut next = std::collections::HashMap::from([("fsp", 1usize), ("gossip", 1)]);
        let mut last_due = 0;
        for r in &stream {
            assert!(r.due_ns >= last_due, "due times never go back");
            last_due = r.due_ns;
            match r.kind {
                Kind::Fresh => {
                    assert!(fresh.insert(r.line.clone()), "fresh records are new");
                    let n = next.get_mut(r.target.as_str()).unwrap();
                    assert_eq!(r.id, *n, "ids are assigned in arrival order");
                    *n += 1;
                }
                Kind::Dup => assert!(r.line.starts_with("INGEST ")),
                Kind::Read => assert_eq!(r.line, format!("QUERY {} {}", r.target, r.id)),
            }
        }
        let count = |k| stream.iter().filter(|r| r.kind == k).count();
        assert_eq!(count(Kind::Fresh), 1000);
        assert_eq!(count(Kind::Dup), 400);
        assert_eq!(count(Kind::Read), 600);
        assert!(
            last_due < 20_000_000_000,
            "every request is due in the window"
        );
    }

    #[test]
    fn every_seed_offers_the_same_mix() {
        // 1,000 fresh records deal the 4 (base, slot) pairs 250 times.
        let mix = |seed| {
            let mut counts = std::collections::BTreeMap::new();
            for r in generate(&bases(), &shape(), seed, 20.0) {
                if r.kind == Kind::Fresh {
                    *counts.entry(r.target).or_insert(0) += 1;
                }
            }
            counts
        };
        let expected = std::collections::BTreeMap::from([
            ("fsp".to_string(), 500),
            ("gossip".to_string(), 500),
        ]);
        for seed in [1, 2, 1 << 40] {
            assert_eq!(mix(seed), expected, "seed {seed}");
        }
    }
}
