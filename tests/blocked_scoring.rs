//! The blocked multi-user scorer must be invisible in every number it
//! produces: `Ranker::score_users` over any block equals the stacked
//! `score_user` rows bit for bit (both precisions, both geometries, every
//! block length through a ragged tail past one full block), and `evaluate`
//! — which now scores its users a block at a time — returns the same
//! `EvalResult`, per-user vectors included, as a ranker that only knows
//! `score_user`, at thread counts whose per-thread user runs do not divide
//! into blocks.

use std::sync::OnceLock;

use logirec_suite::baselines::hyper::LorentzScorer;
use logirec_suite::core::{FilteredRanker, Geometry, LogiRec, LogiRecConfig, LogicFilter};
use logirec_suite::data::{Dataset, DatasetSpec, Scale, Split};
use logirec_suite::eval::{evaluate, EvalResult, Ranker, USER_BLOCK};
use logirec_suite::linalg::Scalar;
use proptest::prelude::*;

/// A ranker that only forwards `score_user`, so `evaluate` drives it
/// through the trait's per-user default `score_users`.
struct PerUser<'a>(&'a dyn Ranker);

impl Ranker for PerUser<'_> {
    fn score_user(&self, u: usize, out: &mut [f64]) {
        self.0.score_user(u, out)
    }
}

/// `dim = 12`: one full 8-lane f32 chunk plus a 4-element tail.
fn model<S: Scalar>(ds: &Dataset, geometry: Geometry) -> LogiRec<S> {
    let cfg = LogiRecConfig { dim: 12, geometry, ..LogiRecConfig::test_config() };
    let mut m = LogiRec::<f64>::new(cfg, ds).cast::<S>();
    m.propagate(&ds.train);
    m
}

struct Models {
    ds: Dataset,
    hyp64: LogiRec<f64>,
    hyp32: LogiRec<f32>,
    euc64: LogiRec<f64>,
    euc32: LogiRec<f32>,
}

fn tiny_models() -> &'static Models {
    static MODELS: OnceLock<Models> = OnceLock::new();
    MODELS.get_or_init(|| {
        let ds = DatasetSpec::ciao(Scale::Tiny).generate(5);
        Models {
            hyp64: model(&ds, Geometry::Hyperbolic),
            hyp32: model(&ds, Geometry::Hyperbolic),
            euc64: model(&ds, Geometry::Euclidean),
            euc32: model(&ds, Geometry::Euclidean),
            ds,
        }
    })
}

/// `score_users(users)` against `score_user` per user, and `score_user`
/// against the per-pair distance (`score_user` runs the same kernel with a
/// one-user block, so the per-pair reference pins what both compute).
/// Compared as bits.
fn assert_block_matches<S: Scalar>(m: &LogiRec<S>, users: &[usize], label: &str) {
    let n_items = m.state().item_final.rows();
    let mut block = vec![f64::NAN; users.len() * n_items];
    m.score_users(users, &mut block);
    let mut single = vec![0.0; n_items];
    for (i, &u) in users.iter().enumerate() {
        m.score_user(u, &mut single);
        let row = &block[i * n_items..(i + 1) * n_items];
        for (v, (a, b)) in row.iter().zip(&single).enumerate() {
            let pair = -m.pair_distance(u, v);
            assert!(
                a.to_bits() == b.to_bits() && b.to_bits() == pair.to_bits(),
                "{label}: block of {} users, lane {i} (user {u}), item {v}: \
                 block {a}, score_user {b}, pair {pair}",
                users.len()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn score_users_equals_stacked_score_user_bitwise(
        raw in prop::collection::vec(0usize..1_000_000, USER_BLOCK + 1),
    ) {
        let m = tiny_models();
        let users: Vec<usize> = raw.iter().map(|&r| r % m.ds.n_users()).collect();
        for len in 1..=USER_BLOCK + 1 {
            let block = &users[..len];
            assert_block_matches(&m.hyp64, block, "hyperbolic f64");
            assert_block_matches(&m.hyp32, block, "hyperbolic f32");
            assert_block_matches(&m.euc64, block, "euclidean f64");
            assert_block_matches(&m.euc32, block, "euclidean f32");
        }
    }
}

fn assert_results_identical(a: &EvalResult, b: &EvalResult, label: &str) {
    assert_eq!(a.users, b.users, "{label}: users");
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&a.per_user_recall), bits(&b.per_user_recall), "{label}: per-user recall");
    assert_eq!(bits(&a.per_user_ndcg), bits(&b.per_user_ndcg), "{label}: per-user ndcg");
    let map_bits = |m: &std::collections::BTreeMap<usize, f64>| {
        m.iter().map(|(&k, v)| (k, v.to_bits())).collect::<Vec<_>>()
    };
    assert_eq!(map_bits(&a.recall), map_bits(&b.recall), "{label}: recall");
    assert_eq!(map_bits(&a.ndcg), map_bits(&b.ndcg), "{label}: ndcg");
}

const THREADS: [usize; 4] = [1, 2, 3, 7];

/// Blocked `evaluate` of `ranker` against the per-user reference.
fn assert_evaluate_matches(ranker: &dyn Ranker, ds: &Dataset, label: &str) {
    let reference = evaluate(&PerUser(ranker), ds, Split::Test, &[10, 20], 1);
    for threads in THREADS {
        let blocked = evaluate(ranker, ds, Split::Test, &[10, 20], threads);
        assert_results_identical(&reference, &blocked, &format!("{label}, {threads} threads"));
    }
}

fn small() -> Dataset {
    let ds = DatasetSpec::ciao(Scale::Small).generate(9);
    // The per-thread user runs must leave ragged final blocks, or the tail
    // path goes untested.
    let n = (0..ds.n_users()).filter(|&u| !ds.test.items_of(u).is_empty()).count();
    assert!(
        THREADS.iter().any(|&t| !n.div_ceil(t).is_multiple_of(USER_BLOCK)),
        "{n} evaluated users divide into blocks at every thread count"
    );
    ds
}

#[test]
fn evaluate_is_bitwise_unchanged_by_blocking_for_logirec() {
    let ds = small();
    assert_evaluate_matches(&model::<f64>(&ds, Geometry::Hyperbolic), &ds, "LogiRec f64");
    assert_evaluate_matches(&model::<f32>(&ds, Geometry::Hyperbolic), &ds, "LogiRec f32");
    assert_evaluate_matches(&model::<f64>(&ds, Geometry::Euclidean), &ds, "LogiRec euclidean");
}

#[test]
fn evaluate_is_bitwise_unchanged_by_blocking_for_lorentz_scorer() {
    let ds = small();
    let m = model::<f64>(&ds, Geometry::Hyperbolic);
    let st = m.state();
    let scorer = LorentzScorer { users: st.user_final.clone(), items: st.item_final.clone() };
    assert_evaluate_matches(&scorer, &ds, "LorentzScorer");
}

#[test]
fn evaluate_is_bitwise_unchanged_by_blocking_for_filtered_ranker() {
    let ds = small();
    let m = model::<f64>(&ds, Geometry::Hyperbolic);
    let penalty = 50.0;
    let filter = LogicFilter::build(&m, &ds, -1.0, penalty);
    let ranker = FilteredRanker { model: &m, filter: &filter, item_tags: &ds.item_tags };

    // Every lane of a block one user past `USER_BLOCK` against the
    // per-pair score minus the filter's penalty.
    let users: Vec<usize> = (0..=USER_BLOCK).map(|i| (i * 37) % ds.n_users()).collect();
    let n = ds.n_items();
    let mut block = vec![f64::NAN; users.len() * n];
    ranker.score_users(&users, &mut block);
    let mut penalized = 0;
    for (i, &u) in users.iter().enumerate() {
        for v in 0..n {
            let mut want = -m.pair_distance(u, v);
            if filter.item_excluded(u, &ds.item_tags[v]) {
                want -= penalty;
                penalized += 1;
            }
            let got = block[i * n + v];
            assert_eq!(got.to_bits(), want.to_bits(), "lane {i} (user {u}), item {v}");
        }
    }
    assert!(penalized > 0, "the filter must penalize some pairs of the block");

    // The filter must move some user's metrics, or comparing evaluate runs
    // would not notice a block that skipped it.
    let plain = evaluate(&m, &ds, Split::Test, &[10, 20], 1);
    let filtered = evaluate(&ranker, &ds, Split::Test, &[10, 20], 1);
    assert_ne!(plain.per_user_ndcg, filtered.per_user_ndcg, "filter changes no metric");
    assert_evaluate_matches(&ranker, &ds, "FilteredRanker");
}
