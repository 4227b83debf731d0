//! Telemetry acceptance tests: a short training run must leave behind a
//! well-formed JSONL trace whose span tree mirrors what the trainer
//! actually did, recoveries must surface as structured events, and a
//! disabled handle must stay perfectly inert.

use std::path::PathBuf;

use logirec_suite::core::faults::{Fault, FaultPlan};
use logirec_suite::core::{train, LogiRecConfig};
use logirec_suite::data::{Dataset, DatasetSpec, Scale, Split};
use logirec_suite::eval::{evaluate_traced, USER_BLOCK};
use logirec_suite::obs::{validate_trace_file, Telemetry};

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("logirec-tel-{name}-{}.jsonl", std::process::id()))
}

fn dataset() -> Dataset {
    DatasetSpec::ciao(Scale::Tiny).generate(77)
}

fn traced_cfg(tel: &Telemetry) -> LogiRecConfig {
    LogiRecConfig {
        epochs: 4,
        eval_every: 2,
        patience: 0,
        mining: true,
        mining_refresh: 2,
        telemetry: tel.clone(),
        ..LogiRecConfig::test_config()
    }
}

/// The headline guarantee of `--trace-json`: every line parses, spans are
/// uniquely numbered and properly nested, all the instrumented phases
/// appear, and the epoch spans agree with the trainer's own report.
#[test]
fn train_trace_is_well_formed_and_matches_report() {
    let path = tmp("clean");
    let ckpt = std::env::temp_dir().join(format!("logirec-tel-ck-{}", std::process::id()));
    let tel = Telemetry::builder().jsonl(&path).build().expect("trace file");
    let ds = dataset();
    let mut cfg = traced_cfg(&tel);
    cfg.checkpoint_every = 2;
    cfg.checkpoint_path = Some(ckpt.clone());
    let (_, report) = train(cfg, &ds);
    tel.finish();

    let stats = validate_trace_file(&path).expect("trace validates");
    for kind in ["train", "epoch", "batch", "loss", "mining", "checkpoint", "eval"] {
        assert!(stats.span_count(kind) > 0, "missing span kind {kind:?}: {:?}", stats.span_kinds);
    }
    // Clean run: every epoch span is a completed epoch (rolled-back
    // attempts would add extra spans, but no faults are injected here).
    assert!(report.recoveries.is_empty());
    assert_eq!(stats.span_count("epoch"), report.epochs_run);
    assert_eq!(stats.span_count("train"), 1);
    // Both loss terms are timed every batch.
    assert_eq!(stats.span_count("loss"), 2 * stats.span_count("batch"));
    // finish() flushed the metric registry into the trace.
    assert!(stats.event_kinds.get("counter").is_some_and(|&n| n > 0));
    assert!(stats.event_kinds.get("histogram").is_some_and(|&n| n > 0));

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&ckpt);
}

/// Injected faults must show up as structured `recovery` events — one per
/// entry in `TrainReport.recoveries` — plus a matching counter.
#[test]
fn recoveries_surface_as_events_and_counters() {
    let path = tmp("faults");
    let tel = Telemetry::builder().jsonl(&path).build().expect("trace file");
    let ds = dataset();
    let mut cfg = traced_cfg(&tel);
    cfg.faults = Some(FaultPlan::new(
        11,
        vec![
            Fault::NanGradient { epoch: 1, step: 0 },
            Fault::ItemBoundaryEscape { epoch: 2 },
        ],
    ));
    let (_, report) = train(cfg, &ds);
    tel.finish();

    assert!(!report.recoveries.is_empty(), "faults should have fired");
    let stats = validate_trace_file(&path).expect("trace validates");
    assert_eq!(
        stats.event_kinds.get("recovery").copied().unwrap_or(0),
        report.recoveries.len(),
        "one recovery event per recorded recovery"
    );
    let snap = tel.metrics_snapshot();
    let recov = snap
        .counters
        .iter()
        .find(|(name, _)| *name == "trainer.recoveries")
        .map(|(_, v)| *v);
    assert_eq!(recov, Some(report.recoveries.len() as u64));

    let _ = std::fs::remove_file(&path);
}

/// The default config carries a disabled handle: training must neither
/// create files nor accumulate state, and the handle must report empty.
#[test]
fn disabled_telemetry_stays_inert() {
    let tel = Telemetry::disabled();
    let ds = dataset();
    let cfg = traced_cfg(&tel);
    assert!(!cfg.telemetry.is_enabled());
    let (_, report) = train(cfg, &ds);
    assert!(report.epochs_run > 0);

    assert!(tel.metrics_snapshot().counters.is_empty());
    assert!(tel.span_aggs().is_empty());
    assert!(tel.recent_events().is_empty());
    assert_eq!(tel.summary(), "telemetry disabled\n");
}

/// `evaluate` scores users a block at a time, yet `eval.score_user_us`
/// keeps one sample per evaluated user (the block's wall time over its
/// length), as do `eval.rank_metric_us` and the `eval.users` counter.
#[test]
fn eval_histograms_get_one_sample_per_evaluated_user() {
    let ds = dataset();
    let (model, _) = train(LogiRecConfig { epochs: 1, ..LogiRecConfig::test_config() }, &ds);
    let tel = Telemetry::enabled();
    // 3 threads leave each thread a user run that is not a whole number of
    // blocks, so ragged final blocks are counted too.
    let res = evaluate_traced(&model, &ds, Split::Test, &[10, 20], 3, &tel);
    let n = res.users.len() as u64;
    assert!(n > USER_BLOCK as u64 && !n.is_multiple_of(USER_BLOCK as u64), "{n} users");
    let snap = tel.metrics_snapshot();
    let count = |name: &str| snap.histograms.iter().find(|(h, _)| *h == name).map(|(_, s)| s.count);
    assert_eq!(count("eval.score_user_us"), Some(n));
    assert_eq!(count("eval.rank_metric_us"), Some(n));
    let users = snap.counters.iter().find(|(c, _)| *c == "eval.users").map(|(_, v)| *v);
    assert_eq!(users, Some(n));
}
