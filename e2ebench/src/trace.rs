//! The traced run's span recorder: the `logirec_obs` telemetry handle,
//! enabled on the benchmark's side only. Spans open around the calls into
//! each layer's public functions; each carries its parent's id, so the
//! spans of one training step or one request hang off that step's or
//! request's root span. Events stay in memory and are written out as JSONL
//! once the run ends.

use std::path::Path;

use logirec_obs::{validate_trace, SpanAgg, Telemetry};

use crate::util::Outcome;

pub struct Tracer {
    pub tel: Telemetry,
}

impl Tracer {
    pub fn new() -> Self {
        // Large enough to keep every span of a traced run in memory.
        let tel = Telemetry::builder()
            .ring_capacity(1 << 18)
            .build()
            .expect("ring-only telemetry");
        Self { tel }
    }

    /// Count, total and self time of every span named `name`.
    pub fn agg(&self, name: &str) -> SpanAgg {
        self.tel
            .span_aggs()
            .into_iter()
            .find(|(k, _)| *k == name)
            .map(|(_, a)| a)
            .unwrap_or_default()
    }

    /// Mean duration in µs of the spans named `name`.
    pub fn mean_us(&self, name: &str) -> f64 {
        let a = self.agg(name);
        a.total_us as f64 / a.count.max(1) as f64
    }

    /// Total µs of the spans named `name`, divided by `per` (steps, users…).
    pub fn per_us(&self, name: &str, per: usize) -> f64 {
        self.agg(name).total_us as f64 / per.max(1) as f64
    }

    pub fn counter(&self, name: &str) -> u64 {
        let snap = self.tel.metrics_snapshot();
        snap.counters
            .iter()
            .find(|(k, _)| *k == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Share of the root spans' time that their child spans cover (1 −
    /// self-time share of the root).
    pub fn leaf_coverage(&self, root: &str) -> f64 {
        let a = self.agg(root);
        1.0 - a.self_us as f64 / a.total_us.max(1) as f64
    }

    /// Fails the run for every named span that never fired.
    pub fn require(&self, out: &mut Outcome, names: &[&str]) {
        let aggs = self.tel.span_aggs();
        let missing: Vec<&str> = names
            .iter()
            .copied()
            .filter(|n| !aggs.iter().any(|(k, a)| k == n && a.count > 0))
            .collect();
        out.check(
            format!("every named span fired (missing: {missing:?})"),
            missing.is_empty(),
        );
    }

    /// Writes the recorded events as JSONL and checks that they form a
    /// well-nested trace.
    pub fn write(&self, out: &mut Outcome, path: &Path) -> Result<(), String> {
        let body: String = self
            .tel
            .recent_events()
            .iter()
            .map(|e| e.to_json() + "\n")
            .collect();
        std::fs::write(path, &body).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        let valid = validate_trace(&body);
        println!(
            "  trace written to {} ({} bytes)",
            path.display(),
            body.len()
        );
        out.check(
            format!("trace is well formed ({:?})", valid.as_ref().err()),
            valid.is_ok(),
        );
        Ok(())
    }
}
