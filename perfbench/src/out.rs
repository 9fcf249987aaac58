//! The raw result of one workload run and its JSON rendering.

use std::collections::BTreeMap;
use std::time::Duration;

/// Everything a workload run measured. Timings are raw samples; `run.py`
/// takes medians and percentiles.
#[derive(Debug, Default)]
pub struct Output {
    /// Seconds per set-up, one sample per repetition.
    pub setup_s: Vec<f64>,
    /// The workload's unit of work: a discovery or campaign round, or a
    /// fresh ingest's due-to-matrix time. Milliseconds.
    pub op_ms: Vec<f64>,
    /// Process CPU seconds spent in the measured window.
    pub cpu_s: f64,
    /// Wall seconds of the measured window.
    pub window_s: f64,
    /// Operations attempted and failed (wrong output, refusal, error or
    /// latency-limit miss), at the finest grain the workload issues them.
    pub attempted: usize,
    pub failed: usize,
    /// Why operations failed (the first few).
    pub failures: Vec<String>,
    /// Why the run cannot be trusted (e.g. the generator fell behind).
    pub invalid: Vec<String>,
    /// Further named sample series (e.g. `query_ms`).
    pub series: BTreeMap<String, Vec<f64>>,
    /// Per-round layer counters; the service has one "round", its window.
    pub rounds: Vec<BTreeMap<String, f64>>,
}

impl Output {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }

    pub fn series(&mut self, name: &str) -> &mut Vec<f64> {
        self.series.entry(name.to_string()).or_default()
    }

    pub fn to_json(&self, workload: &str) -> String {
        let mut j = String::from("{");
        j.push_str(&format!("\"workload\": {}", string(workload)));
        j.push_str(&format!(", \"setup_s\": {}", list(&self.setup_s)));
        j.push_str(&format!(", \"op_ms\": {}", list(&self.op_ms)));
        j.push_str(&format!(", \"cpu_s\": {}", num(self.cpu_s)));
        j.push_str(&format!(", \"window_s\": {}", num(self.window_s)));
        j.push_str(&format!(", \"peak_rss_mb\": {}", num(peak_rss_mb())));
        j.push_str(&format!(", \"attempted\": {}", self.attempted));
        j.push_str(&format!(", \"failed\": {}", self.failed));
        let strings = |v: &[String]| {
            let items: Vec<String> = v.iter().map(|s| string(s)).collect();
            format!("[{}]", items.join(", "))
        };
        j.push_str(&format!(", \"failures\": {}", strings(&self.failures)));
        j.push_str(&format!(", \"invalid\": {}", strings(&self.invalid)));
        let series: Vec<String> = self
            .series
            .iter()
            .map(|(k, v)| format!("{}: {}", string(k), list(v)))
            .collect();
        j.push_str(&format!(", \"series\": {{{}}}", series.join(", ")));
        let rounds: Vec<String> = self
            .rounds
            .iter()
            .map(|r| {
                let kv: Vec<String> = r
                    .iter()
                    .map(|(k, v)| format!("{}: {}", string(k), num(*v)))
                    .collect();
                format!("{{{}}}", kv.join(", "))
            })
            .collect();
        j.push_str(&format!(", \"rounds\": [{}]", rounds.join(", ")));
        j.push('}');
        j
    }
}

fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

fn list(v: &[f64]) -> String {
    let items: Vec<String> = v.iter().map(|x| num(*x)).collect();
    format!("[{}]", items.join(", "))
}

fn string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The process's resident-set high-water mark (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// User + system CPU seconds of the whole process, exited threads
/// included (`/proc/self/stat`, in USER_HZ = 100 ticks per second).
pub fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, 12 and 13 after the name.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (tick(11), tick(12)) {
        (Some(u), Some(s)) => (u + s) / 100.0,
        _ => f64::NAN,
    }
}
