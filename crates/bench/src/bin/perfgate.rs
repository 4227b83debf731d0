//! `perfgate` — the perf-regression gate.
//!
//! Runs a pinned micro+macro suite (kernel distances, GCN propagation, a
//! tiny training run, `evaluate` per user, in-process serve latency),
//! writes the structured result as `BENCH_<n>.json`, and compares against
//! the last committed baseline with per-metric noise tolerances. Exits non-zero when any
//! gated metric regresses past its tolerance.
//!
//! ```text
//! perfgate                          run, write BENCH_8.json, compare vs auto baseline
//! perfgate --out FILE               write the suite elsewhere
//! perfgate --baseline auto|none|F   baseline selection (default auto: highest
//!                                   BENCH_<n>.json in the current directory)
//! perfgate --tolerance 2.0          override every gated metric's tolerance
//! perfgate --self-test              verify the gate flags a synthetic 2× slowdown
//! ```
//!
//! Baseline-update workflow: when a slowdown is intentional (e.g. a new
//! feature on the hot path), re-run `perfgate` and commit the refreshed
//! `BENCH_<n>.json` for the PR alongside the change; the next PR gates
//! against it. Tolerances are pinned here, not in the baseline, so
//! tightening them needs no baseline rewrite.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use logirec_bench::perf::{compare, find_latest_baseline, render_comparisons, PerfMetric, PerfSuite};
use logirec_core::stream::{fold_in_user, FoldInOptions};
use logirec_core::{graph, train, LogiRec, LogiRecConfig, Precision};
use logirec_data::{DatasetSpec, Scale, Split};
use logirec_eval::evaluate;
use logirec_hyperbolic::lorentz;
use logirec_linalg::{Embedding, Scalar, SplitMix64};
use logirec_obs::rss;
use logirec_serve::{
    Client, ClusterIndex, IndexConfig, ModelSnapshot, Request, ServeContext, Server, ServerConfig,
};

/// The PR this suite file belongs to (the `<n>` of `BENCH_<n>.json`).
const PR: u64 = 10;

const USAGE: &str =
    "usage: perfgate [--out FILE] [--baseline auto|none|FILE] [--tolerance F] [--self-test]";

fn main() -> ExitCode {
    match run(&std::env::args().skip(1).collect::<Vec<_>>()) {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfgate: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<String, String> {
    let mut out = PathBuf::from(format!("BENCH_{PR}.json"));
    let mut baseline = "auto".to_string();
    let mut tolerance: Option<f64> = None;
    let mut self_test = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out = PathBuf::from(it.next().ok_or("--out needs a path")?),
            "--baseline" => {
                baseline = it.next().ok_or("--baseline needs auto|none|FILE")?.clone();
            }
            "--tolerance" => {
                tolerance = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|t| *t >= 1.0)
                        .ok_or("--tolerance needs a ratio ≥ 1.0")?,
                );
            }
            "--self-test" => self_test = true,
            "--help" | "-h" => return Ok(format!("{USAGE}\n")),
            other => return Err(format!("unexpected argument {other:?}\n{USAGE}")),
        }
    }

    if self_test {
        return run_self_test();
    }

    // Resolve the baseline BEFORE writing this run's file, so `auto` can
    // never compare a run against itself.
    let base = match baseline.as_str() {
        "none" => None,
        "auto" => match find_latest_baseline(Path::new(".")) {
            None => None,
            Some((n, path)) => Some((format!("BENCH_{n}.json"), PerfSuite::load(&path)?)),
        },
        file => Some((file.to_string(), PerfSuite::load(Path::new(file))?)),
    };

    let mut suite = measure_suite();
    if let Some(t) = tolerance {
        for m in &mut suite.metrics {
            m.tolerance = t;
        }
    }
    std::fs::write(&out, suite.to_json())
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;

    let mut report = format!("perfgate: wrote {}\n", out.display());
    match base {
        None => {
            report.push_str("no baseline found; this run becomes the baseline\n");
            Ok(report)
        }
        Some((label, base)) => {
            let rows = compare(&base, &suite);
            report.push_str(&format!("baseline: {label} (pr {})\n", base.pr));
            report.push_str(&render_comparisons(&rows));
            let regressed: Vec<&str> =
                rows.iter().filter(|c| c.regressed).map(|c| c.name.as_str()).collect();
            if regressed.is_empty() {
                report.push_str("perfgate: OK — no gated metric regressed\n");
                Ok(report)
            } else {
                Err(format!(
                    "{report}perfgate: REGRESSED — {} past tolerance; if intentional, \
                     commit the refreshed {} as the new baseline",
                    regressed.join(", "),
                    out.display()
                ))
            }
        }
    }
}

/// Verifies the gate logic end to end on synthetic values: a 2× slowdown
/// on a gated metric must trip it, the same slowdown on an ungated metric
/// must not, and an in-tolerance wiggle must pass.
fn run_self_test() -> Result<String, String> {
    let mk = |values: &[(&str, f64, bool)]| PerfSuite {
        pr: PR,
        metrics: values
            .iter()
            .map(|(n, v, gate)| PerfMetric {
                name: n.to_string(),
                value: *v,
                unit: "us".to_string(),
                tolerance: 1.5,
                gate: *gate,
            })
            .collect(),
    };
    let base = mk(&[("gated", 100.0, true), ("wiggle", 100.0, true), ("info", 100.0, false)]);
    let cur = mk(&[("gated", 200.0, true), ("wiggle", 120.0, true), ("info", 200.0, false)]);
    // Round-trip through the serialized form, so the self-test also covers
    // the parser the tier-1 gate depends on.
    let base = PerfSuite::parse(&base.to_json()).map_err(|e| format!("round trip: {e}"))?;
    let rows = compare(&base, &cur);
    let verdicts: Vec<(&str, bool)> =
        rows.iter().map(|c| (c.name.as_str(), c.regressed)).collect();
    if verdicts != [("gated", true), ("wiggle", false), ("info", false)] {
        return Err(format!(
            "self-test FAILED: expected only the gated 2× slowdown to regress, got \
             {verdicts:?}\n{}",
            render_comparisons(&rows)
        ));
    }
    Ok("perfgate: self-test OK — synthetic 2× slowdown flagged, noise and info passed\n"
        .to_string())
}

/// Runs the pinned measurement suite. Lower is better for every metric.
fn measure_suite() -> PerfSuite {
    let mut metrics = Vec::new();

    // Kernel micro-benchmarks: best-of-5 mean over a fixed iteration count
    // (best-of absorbs scheduler noise on shared machines).
    let (x64, y64) = dist_fixture::<f64>(7);
    metrics.push(PerfMetric {
        name: "kernel.dist_f64_ns".to_string(),
        value: best_of(5, || mean_ns(20_000, || lorentz::distance(&x64, &y64))),
        unit: "ns".to_string(),
        tolerance: 1.8,
        gate: true,
    });
    let (x32, y32) = dist_fixture::<f32>(7);
    metrics.push(PerfMetric {
        name: "kernel.dist_f32_ns".to_string(),
        value: best_of(5, || mean_ns(20_000, || lorentz::distance(&x32, &y32))),
        unit: "ns".to_string(),
        tolerance: 1.8,
        gate: true,
    });

    // GCN propagation over the tiny CD graph (the per-epoch macro kernel),
    // through the cached `PropGraph` path the trainer runs; the cache is
    // built once, outside the timed closure, as the trainer does.
    let ds = DatasetSpec::cd(Scale::Tiny).generate(1);
    let prop = graph::PropGraph::build(&ds.train);
    let mut rng = SplitMix64::new(2);
    let zu: Embedding = Embedding::normal(ds.n_users(), 64, 0.1, &mut rng);
    let zv: Embedding = Embedding::normal(ds.n_items(), 64, 0.1, &mut rng);
    metrics.push(PerfMetric {
        name: "kernel.propagate_us".to_string(),
        value: best_of(3, || {
            mean_ns(5, || graph::propagate_forward_graph(&prop, &zu, &zv, 2, 1)) / 1e3
        }),
        unit: "us".to_string(),
        tolerance: 1.8,
        gate: true,
    });

    // End-to-end training wall time per epoch, tiny scale.
    let ds = DatasetSpec::ciao(Scale::Tiny).generate(3);
    let cfg = LogiRecConfig { epochs: 3, ..LogiRecConfig::test_config() };
    let epochs = cfg.epochs as f64;
    let t0 = Instant::now();
    let (fold_model, _) = train(cfg, &ds);
    metrics.push(PerfMetric {
        name: "train.epoch_ms".to_string(),
        value: t0.elapsed().as_secs_f64() * 1e3 / epochs,
        unit: "ms".to_string(),
        tolerance: 2.0,
        gate: true,
    });

    // `evaluate` wall time per evaluated user at ciao Small scale (d=32),
    // through the blocked scorer the trainer and the CLI run. One thread, so
    // the number is per-user CPU time. Informational until its run-to-run
    // spread is known.
    {
        let ds = DatasetSpec::ciao(Scale::Small).generate(3);
        let cfg = LogiRecConfig { dim: 32, ..LogiRecConfig::test_config() };
        let mut m: LogiRec = LogiRec::new(cfg, &ds);
        m.propagate(&ds.train);
        metrics.push(PerfMetric {
            name: "eval.user_us".to_string(),
            value: best_of(3, || {
                let t0 = Instant::now();
                let res = evaluate(&m, &ds, Split::Test, &[10, 20], 1);
                t0.elapsed().as_secs_f64() * 1e6 / res.users.len().max(1) as f64
            }),
            unit: "us".to_string(),
            tolerance: 2.0,
            gate: false,
        });
    }

    // Cold-start fold-in: per-user cost of streaming a new user into the
    // trained model (a few RSGD steps on the new row only, frozen tables).
    {
        let mut m = fold_model;
        m.propagate(&ds.train);
        let positives: Vec<usize> = ds.train.items_of(0).to_vec();
        let opts = FoldInOptions::for_config(&m.cfg);
        metrics.push(PerfMetric {
            name: "stream.fold_in_user_us".to_string(),
            value: best_of(5, || {
                mean_ns(20, || fold_in_user(&mut m, &positives, &opts).expect("fold in")) / 1e3
            }),
            unit: "us".to_string(),
            tolerance: 2.0,
            gate: true,
        });
    }

    // Serve p95 under nominal load, from the server's own authoritative
    // latency histogram (the same numbers `{"stats":true}` reports).
    metrics.push(PerfMetric {
        name: "serve.p95_us".to_string(),
        value: serve_p95_us(&ds, false),
        unit: "us".to_string(),
        tolerance: 2.5,
        gate: true,
    });

    // Approx-tier p95 on the same load, served through the clustered index
    // (force_approx routes every request there).
    metrics.push(PerfMetric {
        name: "serve.approx_p95_us".to_string(),
        value: serve_p95_us(&ds, true),
        unit: "us".to_string(),
        tolerance: 2.5,
        gate: true,
    });

    // Retrieval-index build time at a ~10k-item catalog (the off-request-
    // path cost every snapshot swap pays when an index is configured).
    let mut rng = SplitMix64::new(5);
    let catalog: Embedding = Embedding::normal(10_000, 17, 0.3, &mut rng);
    metrics.push(PerfMetric {
        name: "index.build_ms".to_string(),
        value: best_of(3, || {
            let t0 = Instant::now();
            std::hint::black_box(ClusterIndex::build(
                &catalog,
                logirec_core::Geometry::Hyperbolic,
                &IndexConfig::default(),
            ));
            t0.elapsed().as_secs_f64() * 1e3
        }),
        unit: "ms".to_string(),
        tolerance: 2.0,
        gate: true,
    });

    // Peak RSS: informational — allocator and kernel dependent, never gates.
    if let Some(peak) = rss::sample_peak_rss_bytes() {
        metrics.push(PerfMetric {
            name: "process.peak_rss_bytes".to_string(),
            value: peak as f64,
            unit: "bytes".to_string(),
            tolerance: 2.0,
            gate: false,
        });
    }

    PerfSuite { pr: PR, metrics }
}

/// Two points on the hyperboloid at 64 spatial dimensions.
fn dist_fixture<S: Scalar>(seed: u64) -> (Vec<S>, Vec<S>) {
    let mut rng = SplitMix64::new(seed);
    let mut unit = || S::from_f64((2.0 * rng.next_f64() - 1.0) * 0.1);
    let z: Vec<S> = (0..64).map(|_| unit()).collect();
    let w: Vec<S> = (0..64).map(|_| unit()).collect();
    (lorentz::exp_origin(&z), lorentz::exp_origin(&w))
}

/// Mean wall time in ns of `iters` calls to `f`.
fn mean_ns<T>(iters: u64, mut f: impl FnMut() -> T) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

/// Minimum over `reps` runs of `f` — the noise-robust estimate.
fn best_of(reps: u64, mut f: impl FnMut() -> f64) -> f64 {
    (0..reps).map(|_| f()).fold(f64::INFINITY, f64::min)
}

/// Starts an in-process server, drives ~200 nominal requests at low
/// concurrency, and reads the measured tier's p95 from the server's
/// latency histogram (fallback-path p95 if nothing was served on it).
/// With `approx` the snapshot carries a default clustered index and every
/// request is forced through it.
fn serve_p95_us(ds: &logirec_data::Dataset, approx: bool) -> f64 {
    let cfg = LogiRecConfig { dim: 16, ..LogiRecConfig::test_config() };
    let model = LogiRec::new(cfg, ds);
    let ctx = Arc::new(ServeContext::from_dataset(ds));
    let index_cfg = approx.then(IndexConfig::default);
    let snapshot = ModelSnapshot::build_with_index(model, Precision::F64, &ctx, "perfgate", index_cfg)
        .expect("snapshot build");
    let server_cfg = ServerConfig {
        max_inflight: 8,
        default_deadline_ms: 1000,
        force_approx: approx,
        ..ServerConfig::default()
    };
    let server = Server::start(server_cfg, Arc::clone(&ctx), snapshot).expect("server start");
    let addr = server.addr();
    let n_users = ctx.n_users();
    let mut client = Client::connect(addr).expect("connect");
    for i in 0..200usize {
        let req = Request {
            id: i as u64,
            user: (i * 31) % n_users,
            k: 10,
            deadline_ms: Some(1000),
        };
        let _ = client.recommend(&req).expect("nominal request");
    }
    let [exact, approx_lat, fallback, _] = server.latency_snapshot();
    server.shutdown();
    let h = if approx {
        if approx_lat.count > 0 { approx_lat } else { fallback }
    } else if exact.count > 0 {
        exact
    } else {
        fallback
    };
    h.quantile(0.95) as f64
}
