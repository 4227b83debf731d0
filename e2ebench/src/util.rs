//! Shared plumbing: the benchmark configuration, sample statistics, host
//! diagnostics (CPU time, steal, peak RSS), model digests and the result
//! record every workload fills in.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use logirec_core::LogiRec;
use logirec_obs::json::{self, Json};

/// The benchmark's fixed inputs: schedules, rates, limits and the reference
/// digests. Compiled in, so a run cannot pick up a different file.
const CONFIG_JSON: &str = include_str!("../workloads.json");

/// Parsed view of `workloads.json`.
pub struct Config(Json);

impl Config {
    pub fn load() -> Result<Self, String> {
        json::parse(CONFIG_JSON)
            .map(Config)
            .map_err(|e| format!("workloads.json: {e}"))
    }

    fn lookup(&self, path: &str) -> Result<&Json, String> {
        let mut node = &self.0;
        for key in path.split('.') {
            node = node
                .get(key)
                .ok_or_else(|| format!("workloads.json: missing {path}"))?;
        }
        Ok(node)
    }

    pub fn f64(&self, path: &str) -> Result<f64, String> {
        self.lookup(path)?
            .as_f64()
            .ok_or_else(|| format!("workloads.json: {path} is not a number"))
    }

    pub fn usize(&self, path: &str) -> Result<usize, String> {
        self.lookup(path)?
            .as_u64()
            .map(|n| n as usize)
            .ok_or_else(|| format!("workloads.json: {path} is not a whole number"))
    }

    pub fn f64_list(&self, path: &str) -> Result<Vec<f64>, String> {
        match self.lookup(path)? {
            Json::Arr(a) => a
                .iter()
                .map(|v| {
                    v.as_f64()
                        .ok_or_else(|| format!("workloads.json: {path} holds a non-number"))
                })
                .collect(),
            _ => Err(format!("workloads.json: {path} is not a list")),
        }
    }

    /// The recorded digest for `seed`, when `workloads.json` lists one.
    pub fn reference_digest(&self, which: &str, seed: u64) -> Option<String> {
        let node = self.lookup(&format!("reference_digests.{which}")).ok()?;
        node.get(&seed.to_string())
            .and_then(Json::as_str)
            .map(str::to_string)
    }
}

/// Hardware threads available to this process, read at run time. Every
/// thread and connection cap of the benchmark derives from it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Scratch directory for generated inputs (model files, traces, digests).
pub fn work_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/.work"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Linear-interpolated quantile of an ascending slice (the same rule as
/// numpy's default). `None` for an empty slice or a non-finite result,
/// which is how a failed request (recorded as +∞) surfaces.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    let v = if lo == hi {
        sorted[lo]
    } else {
        sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
    };
    v.is_finite().then_some(v)
}

/// Sorts a sample in place and returns it for [`quantile`].
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5).unwrap_or(f64::NAN)
}

/// FNV-1a over the bit patterns of every parameter table: two models share
/// a digest exactly when their parameters are bit-identical.
pub fn model_digest(model: &LogiRec) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for table in [&model.tags, &model.items, &model.users] {
        for &x in table.as_slice() {
            for b in x.to_bits().to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    format!("{h:016x}")
}

/// Process CPU seconds (user + system, all threads) from `/proc/self/stat`.
fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return f64::NAN;
    };
    // Fields after the parenthesised command name; utime and stime are the
    // 12th and 13th of those, in USER_HZ (fixed at 100 by the Linux ABI).
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return f64::NAN;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        f.get(i)
            .and_then(|s| s.parse::<f64>().ok())
            .unwrap_or(f64::NAN)
    };
    (tick(11) + tick(12)) / 100.0
}

/// Host-wide steal seconds summed over CPUs, from `/proc/stat`.
fn host_steal_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return f64::NAN;
    };
    let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
        return f64::NAN;
    };
    line.split_whitespace()
        .nth(8)
        .and_then(|s| s.parse::<f64>().ok())
        .map_or(f64::NAN, |t| t / 100.0)
}

/// Peak resident memory of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return f64::NAN;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Wall clock with CPU-time and steal diagnostics, so a noisy run can be
/// told apart from a slow one.
pub struct Phase {
    wall: Instant,
    cpu: f64,
    steal: f64,
}

impl Phase {
    pub fn start() -> Self {
        Self {
            wall: Instant::now(),
            cpu: process_cpu_s(),
            steal: host_steal_s(),
        }
    }

    pub fn wall_s(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }

    /// Prints `label: wall … cpu … steal …` and returns the wall seconds.
    pub fn report(&self, label: &str) -> f64 {
        let wall = self.wall_s();
        println!(
            "  {label}: wall {wall:.3}s  cpu {:.2}s  host steal {:.2}s",
            process_cpu_s() - self.cpu,
            host_steal_s() - self.steal
        );
        wall
    }
}

/// One metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run hands back to `main`.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness checks: (description, passed).
    pub checks: Vec<(String, bool)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        println!("  metric {name} = {value} {unit}");
        if !value.is_finite() {
            self.check(format!("{name} was measured"), false);
        }
        self.metrics.push(Metric { name, value, unit });
    }

    /// Folds a replay of another workload into this traced run: its checks
    /// and counts, and each metric this run has not reported itself.
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.checks.extend(other.checks);
        for m in other.metrics {
            if !self.metrics.iter().any(|have| have.name == m.name) {
                self.metrics.push(m);
            }
        }
    }

    /// Prints a named figure that the result line does not carry: either
    /// a workload's own reading of a shared metric (see `BENCHMARK.json`),
    /// or a figure whose spread across seeds on a shared host is wider than
    /// the largest regression bound `BENCHMARK.json` may set (25%).
    pub fn diagnostic(&self, name: &str, value: Option<f64>, unit: &str) {
        match value {
            Some(v) => println!("  diagnostic {name} = {v} {unit}"),
            None => println!("  diagnostic {name} = none measured"),
        }
    }

    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        let what = what.into();
        println!("  check {}: {what}", if ok { "ok  " } else { "FAIL" });
        self.checks.push((what, ok));
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    /// The single-line JSON result (the last line of stdout).
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() {
                m.value.to_string()
            } else {
                "null".to_string()
            };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Checks that a model digest repeats for a seed seen before in this
/// checkout (`.work/digests`) and matches the one `workloads.json` records.
pub fn check_digest(
    out: &mut Outcome,
    cfg: &Config,
    which: &str,
    seed: u64,
    digest: &str,
) -> Result<(), String> {
    println!("  {which} model digest (seed {seed}): {digest}");
    if let Some(want) = cfg.reference_digest(which, seed) {
        out.check(
            format!("{which} digest equals the one recorded for seed {seed}"),
            want == digest,
        );
    }
    let path = work_dir()?.join("digests");
    let key = format!("{which} {seed} ");
    let seen = std::fs::read_to_string(&path).unwrap_or_default();
    match seen.lines().find_map(|l| l.strip_prefix(&key)) {
        Some(prev) => out.check(
            format!("{which} digest repeats the earlier run with seed {seed}"),
            prev == digest,
        ),
        None => {
            let line = format!("{key}{digest}\n");
            std::fs::write(&path, seen + &line)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
    }
    Ok(())
}
