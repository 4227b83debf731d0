//! `serve-ciao` (read-only, open loop over a rate ladder) and
//! `signup-ciao` (fold-in publishes beside a steady read stream), both
//! against an in-process `Server` over a clustered-index snapshot.
//!
//! The served model is a generated input: the dataset and the model are
//! made from a fixed seed (`serving_model.seed` in `workloads.json`), trained
//! on a short fixed schedule and written to a model file before anything is
//! timed. The workload seed draws the load: arrival times, users and tiers.
//! A fixed model keeps the approx tier's per-query work — which follows how
//! well the index clusters a particular model — the same from seed to seed.
//! Set-up then pays what a server boot pays — the serving context, loading
//! the model file, `ModelSnapshot::build_with_index` and `Server::start` —
//! several times, reporting the median.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use logirec_core::{io::save_model, train, LogiRec, LogiRecConfig, Precision};
use logirec_data::{Dataset, DatasetSpec, ReplayScenario, Scale};
use logirec_eval::ranking::top_k_indices;
use logirec_linalg::SplitMix64;
use logirec_serve::protocol::{encode_request, encode_response, parse_message};
use logirec_serve::{
    ClusterIndex, IndexConfig, ModelSnapshot, Request, Response, ServeContext, ServedBy, Server,
    ServerConfig, SnapshotStore,
};

use crate::loadgen::{drive, poisson, summarize, Ask, Done, Mix, Planned, Reply};
use crate::trace::Tracer;
use crate::train::train_config;
use crate::util::{
    check_digest, median, nproc, peak_rss_mib, quantile, sorted, work_dir, Config, Outcome, Phase,
};

/// A booted server plus what the checks need.
struct Booted {
    server: Server,
    /// The model as loaded from the model file (no forward state).
    model: LogiRec,
    ctx: Arc<ServeContext>,
    setup_s: f64,
}

fn mix(cfg: &Config) -> Result<Mix, String> {
    Ok(Mix {
        k: cfg.usize("serve.k")?,
        exact_deadline_ms: cfg.usize("serve.exact_deadline_ms")? as u64,
        approx_deadline_ms: cfg.usize("serve.approx_deadline_ms")? as u64,
        approx_share: cfg.f64("serve.approx_share")?,
    })
}

/// Trains the serving model on `ds` and writes it to the work directory.
fn serving_model(
    cfg: &Config,
    which: &str,
    seed: u64,
    ds: &Dataset,
    out: &mut Outcome,
) -> Result<PathBuf, String> {
    let phase = Phase::start();
    let (model, report) = train(train_config(cfg, seed, "serving_model")?, ds);
    phase.report(&format!("serving model ({which}), not timed"));
    if !model.all_finite() || !report.recoveries.is_empty() {
        return Err(format!(
            "serving model training failed: {:?}",
            report.recoveries
        ));
    }
    check_digest(out, cfg, which, seed, &crate::util::model_digest(&model))?;
    let path = work_dir()?.join(format!("{which}-{seed}.logirec"));
    save_model(&model, &path).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

fn boot(cfg: &Config, ds: &Dataset, path: &Path) -> Result<Booted, String> {
    let threads = nproc();
    let base = LogiRecConfig {
        train_threads: threads,
        eval_threads: threads,
        ..LogiRecConfig::default()
    };
    let server_cfg = ServerConfig {
        default_deadline_ms: cfg.usize("serve.exact_deadline_ms")? as u64,
        approx_deadline_ms: cfg.usize("serve.approx_deadline_ms")? as u64,
        ..ServerConfig::default()
    };
    let mut times = Vec::new();
    let mut server: Option<(Server, Arc<ServeContext>)> = None;
    for _ in 0..cfg.usize("setup_repeats")? {
        if let Some((s, _)) = server.take() {
            s.shutdown();
        }
        let phase = Phase::start();
        let ctx = Arc::new(ServeContext::from_dataset(ds));
        let model = logirec_serve::load_serving_model(path, base.clone())?;
        let snap = ModelSnapshot::build_with_index(
            model,
            Precision::F64,
            &ctx,
            "e2ebench",
            Some(IndexConfig::default()),
        )?;
        let s = Server::start(server_cfg.clone(), Arc::clone(&ctx), snap)
            .map_err(|e| format!("server start failed: {e}"))?;
        times.push(phase.wall_s());
        server = Some((s, ctx));
    }
    let (server, ctx) = server.ok_or("setup_repeats must be at least 1")?;
    println!("  set-up (context + load + snapshot/index build + start): {times:.3?} s");
    Ok(Booted {
        server,
        model: logirec_serve::load_serving_model(path, base)?,
        ctx,
        setup_s: median(&times),
    })
}

/// Exact top-k of every user in `users` on `snap`, computed over `nproc`
/// threads off the measured path.
fn reference_top_k(snap: &ModelSnapshot, users: &[usize], k: usize) -> HashMap<usize, Vec<usize>> {
    let mut users = users.to_vec();
    users.sort_unstable();
    users.dedup();
    let chunk = users.len().div_ceil(nproc()).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = users
            .chunks(chunk)
            .map(|c| {
                s.spawn(move || {
                    let mut scratch = Vec::new();
                    c.iter()
                        .map(|&u| (u, snap.top_k(u, k, &mut scratch).expect("known user").0))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread panicked"))
            .collect()
    })
}

/// Quantiles `qs` of a request class in the least disturbed of its
/// measurement windows (the lowest of the per-window figures). Windows are
/// spread across the run, and host noise on a shared machine only ever adds
/// latency, so the best window is the steadiest estimate of what the system
/// itself costs; every window's figures are printed beside it.
fn best_window(windows: &[Vec<&Done>], qs: &[f64], label: &str) -> Vec<Option<f64>> {
    let per_window: Vec<Vec<f64>> = windows
        .iter()
        .map(|w| {
            let lat = sorted(w.iter().map(|d| d.latency_us).collect());
            qs.iter()
                .map(|&q| quantile(&lat, q).unwrap_or(f64::INFINITY))
                .collect()
        })
        .collect();
    let n = windows.iter().map(Vec::len).min().unwrap_or(0);
    println!("  {label}: per-window quantiles {qs:?} in us: {per_window:.0?} (>= {n} samples per window)");
    (0..qs.len())
        .map(|i| {
            Some(
                per_window
                    .iter()
                    .map(|w| w[i])
                    .fold(f64::INFINITY, f64::min),
            )
            .filter(|v| v.is_finite())
        })
        .collect()
}

/// Splits `done` into `n` windows of equal length by due time.
fn by_due_time<'a>(done: &[&'a Done], n: usize) -> Vec<Vec<&'a Done>> {
    let (lo, hi) = done.iter().fold((u64::MAX, 0), |(lo, hi), d| {
        (lo.min(d.planned.due_us), hi.max(d.planned.due_us))
    });
    let span = (hi.saturating_sub(lo) / n as u64).max(1) + 1;
    let mut out = vec![Vec::new(); n];
    for &d in done {
        out[((d.planned.due_us - lo) / span) as usize].push(d);
    }
    out
}

/// The rate ladder's verdicts so far.
#[derive(Default)]
struct LadderState {
    max_rps: Option<f64>,
    misses: usize,
}

impl LadderState {
    /// A rung passes when its p99 meets the limit with no growing backlog;
    /// a rung where the generator itself fell behind is discarded.
    fn record(&mut self, rate: f64, done: &[Done], limit_us: f64, max_lag_us: f64) -> bool {
        let s = summarize(&done.iter().collect::<Vec<_>>());
        let valid = s.lag_p99_us <= max_lag_us;
        let pass = s.p99_us.is_some_and(|p| p <= limit_us) && s.backlog_growth <= 2.0;
        let verdict = match (valid, pass) {
            (false, _) => "invalid: the generator fell behind",
            (true, true) => "meets the limit",
            (true, false) => "misses the limit",
        };
        println!("  {}  -> {verdict}", s.line(&format!("rung {rate}/s")));
        if valid && pass {
            self.max_rps = Some(rate);
            self.misses = 0;
        } else if valid {
            self.misses += 1;
        }
        valid && pass
    }

    /// A rung missed on both attempts, twice in a row, ends the ladder, so
    /// a noisy rung below saturation does not decide the result.
    fn stopped(&self) -> bool {
        self.misses >= 4
    }
}

/// Samples a window needs for ten of them to lie beyond its p99.
const P99_SAMPLES: usize = 1000;
/// Samples a window needs for a steady p50.
const P50_SAMPLES: usize = 200;

fn need(v: Option<f64>, what: &str) -> Result<f64, String> {
    v.ok_or_else(|| format!("{what}: a failed request landed on the percentile"))
}

pub fn run_serve(cfg: &Config, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let model_seed = cfg.usize("serving_model.seed")? as u64;
    let ds = DatasetSpec::ciao(Scale::Paper).generate(model_seed);
    let path = serving_model(cfg, "serve", model_seed, &ds, &mut out)?;
    let b = boot(cfg, &ds, &path)?;
    let addr = b.server.addr();
    let mix = mix(cfg)?;
    let conns = nproc();
    let n_users = b.ctx.n_users();
    let limit_us = cfg.f64("serve.latency_limit_us")?;
    let max_lag_us = cfg.f64("serve.max_lag_us")?;
    let ref_rps = cfg.f64("serve.reference_rps")?;
    let rates = cfg.f64_list("serve.ladder_rps")?;
    let min_rung = cfg.f64("serve.min_rung_requests")?;
    let ref_share = cfg.f64("serve.reference_share")?;
    println!(
        "serve-ciao: load seed {seed}, model seed {model_seed}, {n_users} users, {} items, {conns} connections, reference {ref_rps}/s, \
         limit p99 <= {limit_us}us",
        b.ctx.n_items()
    );

    // Exact top-k of every user on the served snapshot, computed before
    // the load starts so replies are checked as they come in and only the
    // reference windows' samples are kept.
    let snap = b.server.store().get();
    let all_users: Vec<usize> = (0..n_users).collect();
    let want = reference_top_k(&snap, &all_users, mix.k);
    let mut exact_bad = 0usize;
    let mut check = |done: &[Done]| {
        exact_bad += done
            .iter()
            .filter(|d| {
                d.served_by() == Some(ServedBy::Exact) && d.items() != want[&d.planned.user()]
            })
            .count();
    };
    let windows = cfg.usize("serve.reference_windows")?;
    let mut rng = SplitMix64::new(seed ^ 0x5e12_7e00);
    let origin = Instant::now();
    let ref_s = seconds * ref_share / if traced { 2.0 } else { 1.0 };
    let rung_s = seconds * (1.0 - ref_share) / rates.len() as f64;
    // Reference windows alternate with ladder rungs, so a burst of host
    // noise lands in a few windows or rungs rather than in one whole phase.
    let per_gap = rates.len().div_ceil(windows);
    let mut pending: std::collections::VecDeque<f64> = if traced {
        Default::default()
    } else {
        rates.into()
    };
    let mut ladder = LadderState::default();
    let mut ref_windows: Vec<Vec<Done>> = Vec::new();
    let run = |rng: &mut SplitMix64, rate: f64, secs: f64| {
        let start = origin.elapsed().as_micros() as u64 + 100_000;
        drive(
            addr,
            &poisson(rng, rate, start, secs, n_users, conns, &mix),
            origin,
            &mix,
        )
    };
    for w in 0..windows {
        let phase = Phase::start();
        let done = run(&mut rng, ref_rps, ref_s / windows as f64)?;
        phase.report(&format!("reference window {w}"));
        let s = summarize(&done.iter().collect::<Vec<_>>());
        println!("  {}", s.line(&format!("reference {ref_rps}/s window {w}")));
        out.attempted += s.sent as u64;
        out.failed += (s.sent - s.succeeded) as u64;
        check(&done);
        ref_windows.push(done);
        // The last window is followed by every rung still to run.
        let gap = if w + 1 == windows {
            usize::MAX
        } else {
            per_gap
        };
        for _ in 0..gap {
            let Some(rate) = pending.pop_front().filter(|_| !ladder.stopped()) else {
                break;
            };
            // A rung gets a second attempt before it counts as missed.
            for _ in 0..2 {
                let done = run(&mut rng, rate, rung_s.max(min_rung / rate))?;
                let passed = ladder.record(rate, &done, limit_us, max_lag_us);
                check(&done);
                if passed {
                    break;
                }
            }
        }
    }
    let reference: Vec<Done> = ref_windows.iter().flatten().cloned().collect();

    out.check(
        format!("every exact reply equals ModelSnapshot::top_k ({exact_bad} differ)"),
        exact_bad == 0,
    );
    let (mut hits, mut total) = (0usize, 0usize);
    for d in reference
        .iter()
        .filter(|d| d.served_by() == Some(ServedBy::Approx))
    {
        let w = &want[&d.planned.user()];
        hits += d.items().iter().filter(|v| w.contains(v)).count();
        total += w.len();
    }

    if traced {
        trace_serve(&mut out, cfg, &b, &reference, seed)?;
    } else {
        // Per request class, consecutive reference windows are merged until
        // each holds enough samples for its quantile.
        let class = |approx: bool, min_samples: usize| -> Vec<Vec<&Done>> {
            let per: Vec<Vec<&Done>> = ref_windows
                .iter()
                .map(|w| {
                    w.iter()
                        .filter(|d| d.planned.is_approx() == approx)
                        .collect()
                })
                .collect();
            let fewest = per.iter().map(Vec::len).min().unwrap_or(0).max(1);
            let group = min_samples.div_ceil(fewest).clamp(1, per.len().max(1));
            per.chunks(group).map(|g| g.concat()).collect()
        };
        let quantile_of = |approx: bool, q: f64, min_samples: usize, label: &str| {
            best_window(&class(approx, min_samples), &[q], label)[0]
        };
        let e50 = quantile_of(false, 0.5, P50_SAMPLES, "exact tier");
        let e99 = quantile_of(false, 0.99, P99_SAMPLES, "exact tier");
        let a50 = quantile_of(true, 0.5, P50_SAMPLES, "approx tier");
        let a99 = quantile_of(true, 0.99, P99_SAMPLES, "approx tier");
        let approx: Vec<&Done> = class(true, 1).into_iter().flatten().collect();
        for (tier, is_approx) in [("exact", false), ("approx", true)] {
            let server = sorted(
                reference
                    .iter()
                    .filter(|d| d.planned.is_approx() == is_approx)
                    .map(|d| d.server_us)
                    .filter(|v| v.is_finite())
                    .collect(),
            );
            out.diagnostic(
                &format!("serve.{tier}.server_p50_us"),
                quantile(&server, 0.5),
                "us",
            );
        }
        let scored: Vec<f64> = approx
            .iter()
            .filter_map(|d| match &d.reply {
                Reply::Read(r) => r.approx.as_ref().map(|a| a.scored as f64),
                _ => None,
            })
            .collect();
        println!(
            "  approx tier scored {:.1}% of the catalog per query on average",
            100.0 * scored.iter().sum::<f64>()
                / scored.len().max(1) as f64
                / b.ctx.n_items() as f64
        );
        let (e50, a50) = (need(e50, "exact p50")?, need(a50, "approx p50")?);
        out.diagnostic("serve.exact.p50_us", Some(e50), "us");
        out.diagnostic("serve.exact.p99_us", e99, "us");
        out.diagnostic("serve.approx.p50_us", Some(a50), "us");
        out.diagnostic("serve.approx.p99_us", a99, "us");
        // The sustainable rate follows the host's speed, which drifts between
        // runs on a shared machine by more than the largest bound allows.
        out.diagnostic("serve.max_rps", ladder.max_rps, "1/s");
        // Reads 1 on every run with the default index on these models.
        out.diagnostic(
            "approx.recall_at_10",
            Some(hits as f64 / total.max(1) as f64),
            "ratio",
        );
        out.metric("setup_s", b.setup_s, "s");
        out.metric("peak_rss_mb", peak_rss_mib(), "MiB");
        out.metric("primary_us", e50, "us");
        out.metric("secondary_us", a50, "us");
    }
    b.server.shutdown();
    Ok(out)
}

/// Replays requests of the reference schedule in process, one span per
/// call into each serving layer, and times the index build.
fn trace_serve(
    out: &mut Outcome,
    cfg: &Config,
    b: &Booted,
    live: &[Done],
    seed: u64,
) -> Result<(), String> {
    let tr = Tracer::new();
    let tel = &tr.tel;
    let snap = b.server.store().get();
    let ctx = snap.ctx();
    let n_items = ctx.n_items();
    let k = cfg.usize("serve.k")?;
    let mut scratch = vec![0.0f64; n_items];
    let mut scan = Vec::new();
    let replays = live.len().min(cfg.usize("serve.trace_requests")?);
    for (i, d) in live.iter().take(replays).enumerate() {
        let (user, approx) = (d.planned.user(), d.planned.is_approx());
        let deadline = if approx {
            cfg.usize("serve.approx_deadline_ms")?
        } else {
            cfg.usize("serve.exact_deadline_ms")?
        };
        let line = encode_request(&Request {
            id: i as u64,
            user,
            k,
            deadline_ms: Some(deadline as u64),
        });
        let mut req = tel.span("request");
        req.field("request", i as u64);
        let sp = tel.span("serve.parse");
        let msg = parse_message(&line);
        sp.close();
        if msg.is_err() {
            out.check("replayed request line parses", false);
        }
        let (items, scores, served_by) = if approx {
            let sp = tel.span("serve.approx");
            let (items, scores, probe) = snap
                .approx_top_k(user, k, None)
                .ok()
                .flatten()
                .ok_or("no index")?;
            sp.close();
            scan.push(probe.scan_fraction());
            (items, scores, ServedBy::Approx)
        } else {
            let sp = tel.span("serve.score");
            snap.score_user(user, &mut scratch);
            sp.close();
            let sp = tel.span("serve.mask_topk");
            ctx.seen()
                .mask_scores(user, &mut scratch)
                .map_err(|e| e.to_string())?;
            let items = top_k_indices(&scratch, k);
            sp.close();
            let scores = items.iter().map(|&v| scratch[v]).collect();
            if d.served_by() == Some(ServedBy::Exact) && items != d.items() {
                out.check(
                    format!("replayed exact top-k for user {user} equals the served reply"),
                    false,
                );
            }
            (items, scores, ServedBy::Exact)
        };
        let sp = tel.span("serve.encode");
        let resp = Response {
            id: i as u64,
            served_by,
            reason: None,
            model_version: snap.version(),
            items,
            scores,
            latency_us: 0,
            approx: None,
        };
        std::hint::black_box(encode_response(&resp));
        sp.close();
        req.close();
    }
    // Index build on the served item table, repeated for a median.
    let mut m = b.model.clone();
    m.propagate(ctx.train());
    let mut build_ms = Vec::new();
    for _ in 0..cfg.usize("setup_repeats")? {
        let _sp = tel.span("index.build");
        let t = Instant::now();
        std::hint::black_box(ClusterIndex::build(
            &m.state().item_final,
            m.cfg.geometry,
            &IndexConfig::default(),
        ));
        build_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    tr.require(
        out,
        &[
            "request",
            "serve.parse",
            "serve.score",
            "serve.mask_topk",
            "serve.approx",
            "serve.encode",
            "index.build",
        ],
    );

    let server_us = sorted(
        live.iter()
            .map(|d| d.server_us)
            .filter(|v| v.is_finite())
            .collect(),
    );
    let queue_us = sorted(
        live.iter()
            .filter(|d| d.ok())
            .map(|d| d.latency_us - d.server_us)
            .collect(),
    );
    let lag_us = sorted(live.iter().map(|d| d.lag_us).collect());
    out.metric("serve.parse_us", tr.mean_us("serve.parse"), "us");
    out.metric("serve.encode_us", tr.mean_us("serve.encode"), "us");
    out.metric("serve.score_us", tr.mean_us("serve.score"), "us");
    out.metric("serve.mask_topk_us", tr.mean_us("serve.mask_topk"), "us");
    // Computed from table sizes, not measured: the item table plus the
    // user row one exact query reads.
    let ambient = m.cfg.ambient_dim();
    let scan_bytes = (n_items + 1) * ambient * std::mem::size_of::<f64>();
    println!("  kernel.scan_bytes is computed from table sizes ({n_items} items + 1 user row x {ambient} f64)");
    out.metric("kernel.scan_bytes", scan_bytes as f64, "bytes");
    out.metric("serve.approx_us", tr.mean_us("serve.approx"), "us");
    out.metric(
        "index.scan_fraction",
        scan.iter().sum::<f64>() / scan.len().max(1) as f64,
        "ratio",
    );
    out.metric("index.build_ms", median(&build_ms), "ms");
    out.metric(
        "serve.server_us",
        quantile(&server_us, 0.5).unwrap_or(f64::NAN),
        "us",
    );
    out.metric(
        "serve.queue_wait_us",
        quantile(&queue_us, 0.5).unwrap_or(f64::NAN),
        "us",
    );
    out.metric(
        "loadgen.lag_us",
        quantile(&lag_us, 0.99).unwrap_or(f64::NAN),
        "us",
    );
    out.metric(
        "trace.request_leaf_coverage",
        tr.leaf_coverage("request"),
        "ratio",
    );
    // Traced in-process request against the untraced server's own timing.
    let served_mean = server_us.iter().sum::<f64>() / server_us.len().max(1) as f64;
    out.metric(
        "trace.request_replay_ratio",
        tr.mean_us("request") / served_mean,
        "ratio",
    );
    tr.write(
        out,
        &work_dir()?.join(format!("trace-serve-ciao-{seed}.jsonl")),
    )
}

pub fn run_signup(cfg: &Config, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let spec = DatasetSpec::ciao(Scale::Paper);
    let model_seed = cfg.usize("serving_model.seed")? as u64;
    let sc = ReplayScenario::build(&spec, model_seed, cfg.f64("signup.cold_fraction")?);
    let path = serving_model(cfg, "signup", model_seed, &sc.warm, &mut out)?;
    let b = boot(cfg, &sc.warm, &path)?;
    let mix = mix(cfg)?;
    let n_warm = sc.n_warm_users();
    let read_rps = cfg.f64("signup.read_rps")?;
    let interval_us = (cfg.f64("signup.interval_ms")? * 1e3) as u64;
    let phase_s = if traced { seconds / 2.0 } else { seconds };
    let n_signups = ((phase_s * 1e6) as u64 / interval_us).min(sc.cold.len() as u64) as usize;
    println!(
        "signup-ciao: load seed {seed}, model seed {model_seed}, {n_warm} warm users, {} cold, reads {read_rps}/s, one signup every {} ms \
         ({n_signups} signups)",
        sc.cold.len(),
        interval_us / 1000
    );

    // Reads on connection 0; on connection 1 each signup is followed by a
    // read of the new user, which the server runs after the publish.
    let mut rng = SplitMix64::new(seed ^ 0x5167_0b00);
    let mut plan = poisson(&mut rng, read_rps, 200_000, phase_s, n_warm, 1, &mix);
    for (i, cold) in sc.cold.iter().take(n_signups).enumerate() {
        let due_us = 200_000 + i as u64 * interval_us;
        plan.push(Planned {
            due_us,
            conn: 1,
            ask: Ask::FoldIn {
                positives: cold.fold_in.clone(),
            },
        });
        plan.push(Planned {
            due_us,
            conn: 1,
            ask: Ask::Read {
                user: cold.id,
                approx: false,
            },
        });
    }
    plan.sort_by_key(|p| p.due_us);
    let base = b.server.store().get();
    let phase = Phase::start();
    let done = drive(b.server.addr(), &plan, Instant::now(), &mix)?;
    phase.report("signup phase");

    let reads: Vec<&Done> = done.iter().filter(|d| d.planned.conn == 0).collect();
    let folds: Vec<&Done> = done
        .iter()
        .filter(|d| matches!(d.planned.ask, Ask::FoldIn { .. }))
        .collect();
    let follow: Vec<&Done> = done
        .iter()
        .filter(|d| d.planned.conn == 1 && !matches!(d.planned.ask, Ask::FoldIn { .. }))
        .collect();
    let swapped = folds.iter().filter(|d| d.ok()).count();
    out.check(
        format!("every fold-in acknowledged swapped ({swapped} of {n_signups})"),
        swapped == n_signups,
    );
    let versions: Vec<u64> = folds
        .iter()
        .map(|d| match d.reply {
            Reply::FoldIn { version, .. } => version,
            _ => 0,
        })
        .collect();
    out.check(
        "model versions strictly increase",
        versions.windows(2).all(|w| w[0] < w[1]),
    );
    let ids_ok = folds
        .iter()
        .zip(&sc.cold)
        .all(|(d, c)| matches!(d.reply, Reply::FoldIn { new_id: Some(id), .. } if id == c.id));
    out.check("fold-ins assign the cold users' ids in order", ids_ok);
    out.check(
        "each new user's next read is served exact",
        follow.iter().all(|d| d.ok()),
    );

    let s = summarize(&reads);
    println!("  {}", s.line(&format!("reads {read_rps}/s")));
    let publish_ms = sorted(folds.iter().map(|d| d.latency_us / 1e3).collect());
    let lag_ms = sorted(folds.iter().map(|d| d.lag_us / 1e3).collect());
    println!(
        "  signups: sent {n_signups} ok {swapped}  publish p50 {:?} ms p90 {:?} ms (n={})  lag p99 {:?} ms",
        quantile(&publish_ms, 0.5),
        quantile(&publish_ms, 0.9),
        publish_ms.len(),
        quantile(&lag_ms, 0.99)
    );
    out.attempted += (s.sent + n_signups) as u64;
    out.failed += (s.sent - s.succeeded + n_signups - swapped) as u64;

    // Warm users' rows are untouched by fold-ins, so every exact read must
    // still equal the base snapshot's exact top-k.
    let users: Vec<usize> = reads.iter().map(|d| d.planned.user()).collect();
    let want = reference_top_k(&base, &users, mix.k);
    let bad = reads
        .iter()
        .filter(|d| d.served_by() == Some(ServedBy::Exact) && d.items() != want[&d.planned.user()])
        .count();
    out.check(
        format!("every exact read equals the base snapshot's top_k ({bad} differ)"),
        bad == 0,
    );

    if traced {
        // Reads in flight during a publish, timed from due time to their
        // reply whatever tier answered (the read summary counts failures).
        let overlap = sorted(
            reads
                .iter()
                .filter(|d| {
                    folds
                        .iter()
                        .any(|g| d.sent_us < g.done_us && d.done_us > g.sent_us)
                })
                .map(|d| d.done_us.saturating_sub(d.planned.due_us) as f64)
                .collect(),
        );
        println!("  reads overlapping a publish: {}", overlap.len());
        out.metric(
            "signup.read_overlap.p99_us",
            quantile(&overlap, 0.99).unwrap_or(f64::NAN),
            "us",
        );
        out.metric("loadgen.lag_us", s.lag_p99_us, "us");
        let live_ms = quantile(&publish_ms, 0.5).unwrap_or(f64::NAN);
        trace_signup(&mut out, cfg, &b, &sc, seed, live_ms)?;
    } else {
        let windows = cfg.usize("signup.windows")?;
        let publish = best_window(
            &by_due_time(&folds, windows),
            &[0.5, 0.9],
            "publish round trip",
        );
        let read = best_window(&by_due_time(&reads, windows), &[0.5, 0.99], "reads");
        let publish_p50_us = need(publish[0], "publish p50")?;
        let read_p50_us = need(read[0], "read p50")?;
        out.diagnostic("signup.publish_ms.p50", Some(publish_p50_us / 1e3), "ms");
        out.diagnostic("signup.publish_ms.p90", publish[1].map(|v| v / 1e3), "ms");
        out.diagnostic("signup.read.p50_us", Some(read_p50_us), "us");
        out.diagnostic("signup.read.p99_us", read[1], "us");
        out.metric("setup_s", b.setup_s, "s");
        out.metric("peak_rss_mb", peak_rss_mib(), "MiB");
        out.metric("primary_us", publish_p50_us, "us");
        out.metric("secondary_us", read_p50_us, "us");
    }
    b.server.shutdown();
    Ok(out)
}

/// Replays signups in process: the whole `ModelSnapshot::fold_in` plus
/// `SnapshotStore::swap`, then the same publish split into its calls —
/// clone, `fold_in_user`, `build_with_index` — on a copy of the model.
fn trace_signup(
    out: &mut Outcome,
    cfg: &Config,
    b: &Booted,
    sc: &ReplayScenario,
    seed: u64,
    live_publish_ms: f64,
) -> Result<(), String> {
    use logirec_core::stream::{fold_in_user, FoldInOptions};
    let tr = Tracer::new();
    let tel = &tr.tel;
    let store = SnapshotStore::new(ModelSnapshot::build_with_index(
        b.model.clone(),
        Precision::F64,
        &b.ctx,
        "replay",
        Some(IndexConfig::default()),
    )?);
    let mut model = b.model.clone();
    model.propagate(b.ctx.train());
    let mut ctx = Arc::clone(&b.ctx);
    let n = cfg.usize("signup.trace_signups")?.min(sc.cold.len());
    for (i, cold) in sc.cold.iter().take(n).enumerate() {
        let mut publish = tel.span("publish");
        publish.field("signup", i as u64);
        let current = store.get();
        let sp = tel.span("snapshot.fold_in");
        let (candidate, new_id) = current.fold_in(false, &cold.fold_in, None, None)?;
        sp.close();
        let sp = tel.span("store.swap");
        store.swap(candidate);
        sp.close();
        publish.close();

        let mut split = tel.span("publish.split");
        split.field("signup", i as u64);
        let sp = tel.span("snapshot.clone");
        let mut grown = model.clone();
        sp.close();
        let sp = tel.span("stream.fold_in");
        let opts = FoldInOptions::for_config(&grown.cfg);
        let report =
            fold_in_user(&mut grown, &cold.fold_in, &opts).map_err(|e| format!("fold-in: {e}"))?;
        sp.close();
        let sp = tel.span("snapshot.context");
        let next_ctx = Arc::new(
            ctx.with_new_user(&cold.fold_in)
                .map_err(|e| e.to_string())?,
        );
        sp.close();
        let sp = tel.span("snapshot.build");
        let built = ModelSnapshot::build_with_index(
            grown.clone(),
            Precision::F64,
            &next_ctx,
            "replay",
            Some(IndexConfig::default()),
        )?;
        sp.close();
        split.close();
        let mut scratch = Vec::new();
        let via_split = built
            .top_k(report.id, 10, &mut scratch)
            .map_err(|e| e.to_string())?;
        let via_store = store
            .get()
            .top_k(new_id, 10, &mut scratch)
            .map_err(|e| e.to_string())?;
        if report.id != new_id || via_split != via_store {
            out.check(
                format!(
                    "split publish of cold user {} matches ModelSnapshot::fold_in",
                    cold.id
                ),
                false,
            );
        }
        model = grown;
        ctx = next_ctx;
    }
    let mut item_final = model.clone();
    item_final.propagate(ctx.train());
    let mut build_ms = Vec::new();
    for _ in 0..cfg.usize("setup_repeats")? {
        let _sp = tel.span("index.build");
        let t = Instant::now();
        std::hint::black_box(ClusterIndex::build(
            &item_final.state().item_final,
            item_final.cfg.geometry,
            &IndexConfig::default(),
        ));
        build_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    tr.require(
        out,
        &[
            "publish",
            "snapshot.fold_in",
            "store.swap",
            "publish.split",
            "snapshot.clone",
            "stream.fold_in",
            "snapshot.build",
            "index.build",
        ],
    );
    out.metric(
        "snapshot.fold_in_ms",
        tr.mean_us("snapshot.fold_in") / 1e3,
        "ms",
    );
    out.metric("store.swap_us", tr.mean_us("store.swap"), "us");
    out.metric("snapshot.clone_us", tr.mean_us("snapshot.clone"), "us");
    out.metric("stream.fold_in_us", tr.mean_us("stream.fold_in"), "us");
    out.metric(
        "snapshot.build_ms",
        tr.mean_us("snapshot.build") / 1e3,
        "ms",
    );
    out.metric("index.build_ms", median(&build_ms), "ms");
    out.metric(
        "trace.publish_leaf_coverage",
        tr.leaf_coverage("publish.split"),
        "ratio",
    );
    // The traced in-process publish against the live round trip, which
    // also pays the protocol and competes with reads.
    out.metric(
        "trace.publish_replay_ratio",
        tr.mean_us("publish") / 1e3 / live_publish_ms,
        "ratio",
    );
    tr.write(
        out,
        &work_dir()?.join(format!("trace-signup-ciao-{seed}.jsonl")),
    )
}
