//! `train-ciao`: one `logirec_core::train` call on a fixed schedule,
//! followed by repeated `logirec_eval::evaluate` passes on the test split.
//!
//! The traced variant replays the same epoch step by step through the
//! public functions the trainer calls, in the trainer's order, with a span
//! around each layer. The replayed model must be bit-identical to the one
//! `train` returned, which is what makes its layer times stand for the
//! real step.

use logirec_core::losses::{logic_loss_grad_sharded, rank_loss_grad_sharded, LogicBatch};
use logirec_core::mining::{combine_weights, consistency_weights, granularity_weights};
use logirec_core::{parallel, train, LogiRec, LogiRecConfig, PropGraph};
use logirec_data::{BatchIter, Dataset, DatasetSpec, NegativeSampler, Scale, Split};
use logirec_eval::ranking::top_k_indices;
use logirec_eval::{evaluate, ndcg_at_k, recall_at_k, Ranker};
use logirec_hyperbolic::rsgd;
use logirec_linalg::{Embedding, SplitMix64};

use crate::trace::Tracer;
use crate::util::{check_digest, median, nproc, peak_rss_mib, work_dir, Config, Outcome, Phase};

const KS: [usize; 2] = [10, 20];

/// Spans the traced replay must record.
const SPANS: [&str; 14] = [
    "step",
    "data.batch",
    "graph.forward",
    "loss.rank",
    "grad.scatter",
    "graph.backward",
    "loss.logic",
    "rsgd.apply",
    "mining",
    "mining.refresh",
    "eval.user",
    "eval.score",
    "eval.topk",
    "eval.metric",
];

pub fn train_config(cfg: &Config, seed: u64, prefix: &str) -> Result<LogiRecConfig, String> {
    let threads = nproc();
    Ok(LogiRecConfig {
        dim: cfg.usize("dim")?,
        epochs: cfg.usize(&format!("{prefix}.epochs"))?,
        batch_size: cfg.usize(&format!("{prefix}.batch_size"))?,
        lr: cfg.f64(&format!("{prefix}.lr"))?,
        eval_every: 0,
        seed,
        train_threads: threads,
        eval_threads: threads,
        ..LogiRecConfig::default()
    })
}

pub fn run(cfg: &Config, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let spec = DatasetSpec::ciao(Scale::Paper);

    // Set-up: generating the dataset from the seed, repeated for a median.
    let mut setup = Vec::new();
    let mut ds = None;
    for _ in 0..cfg.usize("setup_repeats")? {
        let p = Phase::start();
        ds = Some(spec.generate(seed));
        setup.push(p.wall_s());
    }
    let ds = ds.expect("at least one set-up repeat");
    println!(
        "train-ciao: ciao paper seed {seed}: {} users, {} items, {} train pairs, {} threads",
        ds.n_users(),
        ds.n_items(),
        ds.train.len(),
        nproc()
    );

    // The timed part: the same `train` call several times, each followed by
    // an `evaluate` pass, then more passes until `seconds` have passed. The
    // host's speed drifts within a run, so the passes are spread across it;
    // the fastest train call and the median pass stand for the code (a pass
    // lasts about a second, and the fastest of such short samples swings
    // more from run to run than their median). A traced run needs one call,
    // for the digest and the real step time.
    let tcfg = train_config(cfg, seed, "train")?;
    let steps = ds.train.len().div_ceil(tcfg.batch_size) * tcfg.epochs;
    let phase = Phase::start();
    let mut train_s = f64::INFINITY;
    let mut trained: Option<(LogiRec, String)> = None;
    let mut passes = EvalPasses::default();
    let repeats = if traced {
        1
    } else {
        cfg.usize("train.repeats")?
    };
    for _ in 0..repeats {
        let p = Phase::start();
        let (model, report) = train(tcfg.clone(), &ds);
        train_s = train_s.min(p.report("train"));
        let digest = crate::util::model_digest(&model);
        out.check("trained model is all finite", model.all_finite());
        out.check(
            format!(
                "TrainReport has no recoveries ({})",
                report.recoveries.len()
            ),
            report.recoveries.is_empty(),
        );
        out.check(
            "TrainReport ran every epoch",
            report.epochs_run == tcfg.epochs,
        );
        if let Some((_, first)) = &trained {
            out.check(
                "repeated train calls give bit-identical models",
                *first == digest,
            );
        }
        out.attempted += steps as u64;
        out.failed += report.recoveries.len() as u64;
        passes.run(&mut out, &model, &ds, tcfg.eval_threads);
        trained.get_or_insert((model, digest));
    }
    let (model, digest) = trained.ok_or("train.repeats must be at least 1")?;
    check_digest(&mut out, cfg, "train", seed, &digest)?;

    let min_passes = cfg.usize("train.min_eval_passes")?;
    while !traced && (passes.rates.len() < min_passes || phase.wall_s() < seconds) {
        passes.run(&mut out, &model, &ds, tcfg.eval_threads);
    }
    let (eval_rates, eval_wall, recall10) = (passes.rates, passes.walls, passes.recall10);
    let recall10 = recall10.expect("at least one pass");
    println!(
        "  {} evaluate passes, recall@10 {recall10}",
        eval_rates.len()
    );

    if traced {
        replay(
            &mut out,
            &ds,
            &tcfg,
            &digest,
            train_s / steps as f64,
            recall10,
            median(&eval_wall),
        )?;
        return Ok(out);
    }
    let pairs_per_s = (ds.train.len() * tcfg.epochs) as f64 / train_s;
    let users_per_s = median(&eval_rates);
    out.diagnostic("train.pairs_per_s", Some(pairs_per_s), "1/s");
    // Deterministic per seed, but its spread across seeds is inherent to a
    // one-epoch model; the digest checks above guard what is learned.
    out.diagnostic("train.recall_at_10", Some(recall10), "ratio");
    out.diagnostic("eval.users_per_s", Some(users_per_s), "1/s");
    out.metric("setup_s", median(&setup), "s");
    out.metric("peak_rss_mb", peak_rss_mib(), "MiB");
    out.metric("primary_us", 1e6 / pairs_per_s, "us");
    out.metric("secondary_us", 1e6 / users_per_s, "us");
    Ok(out)
}

/// `evaluate` passes on the test split, each checked against the first.
#[derive(Default)]
struct EvalPasses {
    /// Users evaluated per second, one entry per pass.
    rates: Vec<f64>,
    walls: Vec<f64>,
    recall10: Option<f64>,
}

impl EvalPasses {
    fn run(&mut self, out: &mut Outcome, model: &LogiRec, ds: &Dataset, threads: usize) {
        let p = Phase::start();
        let res = evaluate(model, ds, Split::Test, &KS, threads);
        let wall = p.report("evaluate");
        self.rates.push(res.users.len() as f64 / wall);
        self.walls.push(wall);
        out.attempted += res.users.len() as u64;
        let r = res.recall_at(10);
        if *self.recall10.get_or_insert(r) != r {
            out.check("evaluate is deterministic across passes", false);
        }
    }
}

/// Replays one `train` call step by step with spans around each layer, then
/// one evaluation pass user by user, and reports the per-layer metrics.
fn replay(
    out: &mut Outcome,
    ds: &Dataset,
    tcfg: &LogiRecConfig,
    digest: &str,
    real_step_s: f64,
    recall10: f64,
    eval_wall_s: f64,
) -> Result<(), String> {
    let tr = Tracer::new();
    let tel = &tr.tel;
    let cfg = tcfg.clone().validated();
    let threads = cfg.train_threads;
    let n_users = ds.n_users();
    let mut model = LogiRec::new(cfg.clone(), ds);
    // The trainer's fresh RNG state (`TrainerState::fresh`).
    let mut rng = SplitMix64::new(cfg.seed.wrapping_mul(0x9E37_79B9) ^ 0x1357_9BDF);
    let pg = PropGraph::build(&ds.train);
    let rel = &ds.relations;
    let exclusion: Vec<_> = rel.exclusion.iter().map(|&(a, b, _)| (a, b)).collect();
    let intersection = if cfg.use_int {
        rel.intersection_pairs()
    } else {
        Vec::new()
    };
    let con = cfg.mining.then(|| consistency_weights(ds));
    let table_rows = model.users.rows() + model.items.rows() + model.tags.rows();
    let (mut steps, mut rows_touched) = (0usize, 0usize);
    let mut alpha: Option<Vec<f64>> = None;

    let phase = Phase::start();
    for epoch in 0..cfg.epochs {
        let lr = cfg.lr * cfg.lr_decay.powi(epoch as i32);
        if let Some(con) = &con {
            if alpha.is_none() || epoch % cfg.mining_refresh.max(1) == 0 {
                let _mining = tel.span("mining");
                let sp = tel.span("graph.forward");
                model.propagate_graph(&pg);
                sp.close();
                let _sp = tel.span("mining.refresh");
                let gr = granularity_weights(&model, n_users);
                alpha = Some(combine_weights(con, &gr, cfg.alpha_floor));
            }
        }
        let mut sampler = NegativeSampler::new(&ds.train, rng.fork(1_000 + epoch as u64));
        sampler.instrument(tel);
        let mut batch_rng = rng.fork(2_000 + epoch as u64);
        let mut logic_rng = rng.fork(3_000 + epoch as u64);
        let mut batches = BatchIter::new(&ds.train, cfg.batch_size, &mut batch_rng);
        for _ in 0..batches.n_batches() {
            let mut step = tel.span("step");
            step.field("step", steps as u64);

            // data: the batch, its sampled negatives and the logic samples.
            let sp = tel.span("data.batch");
            let batch = batches.next().expect("n_batches batches");
            let mut triplets = Vec::with_capacity(batch.len() * cfg.negatives);
            for &(u, vp) in &batch {
                for _ in 0..cfg.negatives {
                    triplets.push((u, vp, sampler.sample(u)));
                }
            }
            let (mut mem, mut hie, mut ex, mut int) =
                (Vec::new(), Vec::new(), Vec::new(), Vec::new());
            let mut weights = Vec::new();
            if cfg.lambda > 0.0 {
                let batch_frac = batch.len() as f64 / ds.train.len().max(1) as f64;
                let w =
                    |n_total: usize, n: usize| cfg.lambda * batch_frac * n_total as f64 / n as f64;
                if cfg.use_mem && !rel.membership.is_empty() {
                    mem = sample_slice(&rel.membership, cfg.logic_batch, &mut logic_rng);
                    weights.push(w(rel.membership.len(), mem.len()));
                }
                if cfg.use_hie && !rel.hierarchy.is_empty() {
                    hie = sample_slice(&rel.hierarchy, cfg.logic_batch, &mut logic_rng);
                    weights.push(w(rel.hierarchy.len(), hie.len()));
                }
                if cfg.use_ex && !exclusion.is_empty() {
                    ex = sample_slice(&exclusion, cfg.logic_batch, &mut logic_rng);
                    weights.push(w(exclusion.len(), ex.len()));
                }
                if cfg.use_int && !intersection.is_empty() {
                    int = sample_slice(&intersection, cfg.logic_batch, &mut logic_rng);
                    weights.push(w(intersection.len(), int.len()));
                }
            }
            sp.close();

            let sp = tel.span("graph.forward");
            model.propagate_graph(&pg);
            sp.close();

            let sp = tel.span("loss.rank");
            let rg = rank_loss_grad_sharded(
                &model,
                &triplets,
                cfg.margin,
                alpha.as_deref(),
                1.0 / cfg.negatives as f64,
                threads,
            );
            sp.close();

            let sp = tel.span("grad.scatter");
            let ambient = cfg.ambient_dim();
            let mut g_user_final = Embedding::zeros(model.users.rows(), ambient);
            let mut g_item_final = Embedding::zeros(model.items.rows(), ambient);
            rg.users.scatter_add(&mut g_user_final);
            rg.items.scatter_add(&mut g_item_final);
            sp.close();

            let sp = tel.span("graph.backward");
            let (g_users, mut g_items) =
                model.backward_rank_graph(&g_user_final, &g_item_final, &pg);
            sp.close();

            let sp = tel.span("loss.logic");
            let mut logic: Vec<(LogicBatch<'_>, f64)> = Vec::new();
            let mut w = weights.iter().copied();
            // Same batch order as the trainer: membership, hierarchy,
            // exclusion, intersection.
            if !mem.is_empty() {
                logic.push((LogicBatch::Membership(&mem), w.next().expect("weight")));
            }
            if !hie.is_empty() {
                logic.push((LogicBatch::Hierarchy(&hie), w.next().expect("weight")));
            }
            if !ex.is_empty() {
                logic.push((LogicBatch::Exclusion(&ex), w.next().expect("weight")));
            }
            if !int.is_empty() {
                logic.push((LogicBatch::Intersection(&int), w.next().expect("weight")));
            }
            let lg = logic_loss_grad_sharded(&model, &logic, threads);
            sp.close();

            let sp = tel.span("grad.scatter");
            let mut g_tags = Embedding::zeros(model.tags.rows(), cfg.dim);
            lg.tags.scatter_add(&mut g_tags);
            lg.items.scatter_add(&mut g_items);
            sp.close();
            rows_touched += rg.users.nnz() + rg.items.nnz() + lg.rows_touched();

            let sp = tel.span("rsgd.apply");
            if g_users.all_finite() && g_items.all_finite() && g_tags.all_finite() {
                apply_updates(&mut model, &g_users, &g_items, &g_tags, lr);
            } else {
                out.check(format!("replayed step {steps} has finite gradients"), false);
            }
            sp.close();
            step.close();
            steps += 1;
        }
    }
    phase.report("traced train replay");
    let replay_digest = crate::util::model_digest(&model);
    out.check(
        format!("replayed model is bit-identical to train's ({replay_digest})"),
        replay_digest == digest,
    );

    // One evaluation pass, user by user, with the evaluator's masking.
    model.propagate_graph(&pg);
    let phase = Phase::start();
    let test = ds.split(Split::Test);
    let users: Vec<usize> = (0..n_users)
        .filter(|&u| !test.items_of(u).is_empty())
        .collect();
    let mut scores = vec![0.0f64; ds.n_items()];
    let mut recall_sum = 0.0;
    for &u in &users {
        let _user = tel.span("eval.user");
        let sp = tel.span("eval.score");
        model.score_user(u, &mut scores);
        sp.close();
        let sp = tel.span("eval.topk");
        for &v in ds.train.items_of(u).iter().chain(ds.validation.items_of(u)) {
            scores[v] = f64::NEG_INFINITY;
        }
        let top = top_k_indices(&scores, KS[1]);
        sp.close();
        let _sp = tel.span("eval.metric");
        let truth = test.items_of(u);
        let mut metric = 0.0;
        for k in KS {
            let list = &top[..k.min(top.len())];
            metric += ndcg_at_k(list, truth);
            if k == 10 {
                recall_sum += recall_at_k(list, truth);
            }
        }
        std::hint::black_box(metric);
    }
    phase.report("traced evaluate replay");
    let replay_recall = recall_sum / users.len().max(1) as f64;
    out.check(
        format!("replayed recall@10 {replay_recall} equals evaluate's {recall10}"),
        replay_recall == recall10,
    );

    tr.require(out, &SPANS);
    let draws = tr.counter("sampler.draws");
    let step_us = tr.mean_us("step");
    let eval_user_us = tr.mean_us("eval.user");
    out.metric("data.batch_us", tr.per_us("data.batch", steps), "us");
    out.metric(
        "data.sampler.reject_ratio",
        tr.counter("sampler.rejections") as f64 / draws.max(1) as f64,
        "ratio",
    );
    out.metric("graph.forward_us", tr.mean_us("graph.forward"), "us");
    out.metric("graph.backward_us", tr.mean_us("graph.backward"), "us");
    out.metric("loss.rank_us", tr.mean_us("loss.rank"), "us");
    out.metric("loss.logic_us", tr.mean_us("loss.logic"), "us");
    out.metric("grad.scatter_us", tr.per_us("grad.scatter", steps), "us");
    out.metric(
        "grad.rows_touched",
        rows_touched as f64 / steps.max(1) as f64,
        "count",
    );
    out.metric(
        "grad.touched_ratio",
        rows_touched as f64 / (steps.max(1) * table_rows) as f64,
        "ratio",
    );
    out.metric("rsgd.apply_us", tr.mean_us("rsgd.apply"), "us");
    out.metric("mining.refresh_us", tr.mean_us("mining.refresh"), "us");
    out.metric("eval.score_us", tr.mean_us("eval.score"), "us");
    out.metric("eval.topk_us", tr.mean_us("eval.topk"), "us");
    out.metric("eval.metric_us", tr.mean_us("eval.metric"), "us");
    let coverage = tr.leaf_coverage("step");
    out.metric("trace.step_leaf_coverage", coverage, "ratio");
    out.check(
        format!(
            "leaf spans cover {:.1}% of the replayed step (≥ 90%)",
            100.0 * coverage
        ),
        coverage >= 0.9,
    );
    // Both sides run identical work, so this ratio is the tracing overhead
    // on a training step.
    out.metric(
        "trace.replay_step_ratio",
        step_us / (real_step_s * 1e6),
        "ratio",
    );
    // `evaluate` fans users out over its threads; compare per-user CPU time.
    let untraced_user_us = eval_wall_s * 1e6 * nproc() as f64 / users.len().max(1) as f64;
    out.metric(
        "trace.eval_replay_ratio",
        eval_user_us / untraced_user_us,
        "ratio",
    );
    let path = work_dir()?.join(format!("trace-train-ciao-{}.jsonl", cfg.seed));
    tr.write(out, &path)
}

/// The trainer's logic-relation sampler (uniform with replacement).
fn sample_slice<T: Copy>(all: &[T], n: usize, rng: &mut SplitMix64) -> Vec<T> {
    if all.len() <= n {
        return all.to_vec();
    }
    (0..n).map(|_| all[rng.index(all.len())]).collect()
}

/// One Riemannian SGD step per hyperbolic parameter family, skipping rows
/// with an all-zero gradient, as the trainer does.
fn apply_updates(
    model: &mut LogiRec,
    g_users: &Embedding,
    g_items: &Embedding,
    g_tags: &Embedding,
    lr: f64,
) {
    let threads = model.cfg.train_threads;
    let nonzero = |g: &[f64]| g.iter().any(|&x| x != 0.0);
    parallel::for_each_row(&mut model.users, threads, |u, row| {
        if nonzero(g_users.row(u)) {
            rsgd::lorentz_step(row, g_users.row(u), lr);
        }
    });
    parallel::for_each_row(&mut model.items, threads, |v, row| {
        if nonzero(g_items.row(v)) {
            rsgd::poincare_step(row, g_items.row(v), lr);
        }
    });
    parallel::for_each_row(&mut model.tags, threads, |t, row| {
        if nonzero(g_tags.row(t)) {
            rsgd::hyperplane_step(row, g_tags.row(t), lr);
        }
    });
}
