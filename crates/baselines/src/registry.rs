//! Uniform registry over the 13 baselines (and hooks for the two LogiRec
//! configurations), used by the Table II/III harness.

use logirec_data::Dataset;
use logirec_eval::Ranker;

use crate::common::BaselineConfig;
use crate::graphs::{train_agcn, train_lightgcn};
use crate::hyper::{train_gdcf, train_hgcf, train_hyperml};
use crate::metric::{train_cml, train_cmlf, train_sml};
use crate::mf::{train_amf, train_bprmf};
use crate::neural::train_neumf;
use crate::transc::train_transc;

/// The paper's four baseline groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    /// BPRMF, NeuMF.
    General,
    /// CML, SML, HyperML.
    MetricLearning,
    /// CMLF, AMF, TransC, AGCN.
    TagBased,
    /// LightGCN, HGCF, GDCF, HRCF.
    GraphBased,
}

/// One of the 13 baseline methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Method {
    Bprmf,
    Neumf,
    Cml,
    Sml,
    HyperMl,
    Cmlf,
    Amf,
    TransC,
    Agcn,
    LightGcn,
    Hgcf,
    Gdcf,
    Hrcf,
}

/// A trained baseline: a boxed ranker plus its display name.
pub struct TrainedModel {
    /// Method display name (paper spelling).
    pub name: &'static str,
    scorer: Box<dyn Ranker + Send + Sync>,
}

impl Ranker for TrainedModel {
    fn score_user(&self, u: usize, out: &mut [f64]) {
        self.scorer.score_user(u, out)
    }

    fn score_users(&self, users: &[usize], out: &mut [f64]) {
        self.scorer.score_users(users, out)
    }
}

impl Method {
    /// All methods in the paper's Table II row order.
    pub fn all() -> [Method; 13] {
        [
            Method::Bprmf,
            Method::Neumf,
            Method::Cml,
            Method::Sml,
            Method::HyperMl,
            Method::Cmlf,
            Method::Amf,
            Method::TransC,
            Method::Agcn,
            Method::LightGcn,
            Method::Hgcf,
            Method::Gdcf,
            Method::Hrcf,
        ]
    }

    /// Paper spelling of the method name.
    pub fn label(&self) -> &'static str {
        match self {
            Method::Bprmf => "BPRMF",
            Method::Neumf => "NeuMF",
            Method::Cml => "CML",
            Method::Sml => "SML",
            Method::HyperMl => "HyperML",
            Method::Cmlf => "CMLF",
            Method::Amf => "AMF",
            Method::TransC => "TransC",
            Method::Agcn => "AGCN",
            Method::LightGcn => "LightGCN",
            Method::Hgcf => "HGCF",
            Method::Gdcf => "GDCF",
            Method::Hrcf => "HRCF",
        }
    }

    /// Which comparison group the method belongs to.
    pub fn group(&self) -> Group {
        match self {
            Method::Bprmf | Method::Neumf => Group::General,
            Method::Cml | Method::Sml | Method::HyperMl => Group::MetricLearning,
            Method::Cmlf | Method::Amf | Method::TransC | Method::Agcn => Group::TagBased,
            Method::LightGcn | Method::Hgcf | Method::Gdcf | Method::Hrcf => Group::GraphBased,
        }
    }

    /// Parses a method from its (case-insensitive) label.
    pub fn parse(s: &str) -> Option<Method> {
        Method::all().into_iter().find(|m| m.label().eq_ignore_ascii_case(s))
    }

    /// Validation-tuned learning rate per method (grid-searched on the
    /// synthetic benchmarks, mirroring the paper's per-baseline tuning).
    /// Batched full-graph methods need smaller steps than per-sample SGD.
    pub fn tuned_lr(&self) -> f64 {
        match self {
            Method::Hgcf | Method::Hrcf => 0.003,
            Method::LightGcn | Method::Agcn => 0.1,
            _ => 0.05,
        }
    }

    /// Applies the method's tuned hyperparameters on top of a base config.
    pub fn tuned(&self, base: &BaselineConfig) -> BaselineConfig {
        BaselineConfig { lr: self.tuned_lr(), ..base.clone() }
    }
}

/// Trains `method` on `ds` and returns a uniform trained handle.
pub fn train_method(method: Method, cfg: &BaselineConfig, ds: &Dataset) -> TrainedModel {
    let scorer: Box<dyn Ranker + Send + Sync> = match method {
        Method::Bprmf => Box::new(train_bprmf(cfg, ds)),
        Method::Neumf => Box::new(train_neumf(cfg, ds)),
        Method::Cml => Box::new(train_cml(cfg, ds)),
        Method::Sml => Box::new(train_sml(cfg, ds)),
        Method::HyperMl => Box::new(train_hyperml(cfg, ds)),
        Method::Cmlf => Box::new(train_cmlf(cfg, ds)),
        Method::Amf => Box::new(train_amf(cfg, ds)),
        Method::TransC => Box::new(train_transc(cfg, ds)),
        Method::Agcn => Box::new(train_agcn(cfg, ds)),
        Method::LightGcn => Box::new(train_lightgcn(cfg, ds)),
        Method::Hgcf => Box::new(train_hgcf(cfg, ds, false)),
        Method::Gdcf => Box::new(train_gdcf(cfg, ds)),
        Method::Hrcf => Box::new(train_hgcf(cfg, ds, true)),
    };
    TrainedModel { name: method.label(), scorer }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logirec_data::{DatasetSpec, Scale, Split};
    use logirec_eval::evaluate;

    #[test]
    fn registry_covers_thirteen_methods_with_unique_labels() {
        let all = Method::all();
        assert_eq!(all.len(), 13);
        let mut labels: Vec<&str> = all.iter().map(|m| m.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 13);
    }

    #[test]
    fn parse_round_trips() {
        for m in Method::all() {
            assert_eq!(Method::parse(m.label()), Some(m));
            assert_eq!(Method::parse(&m.label().to_lowercase()), Some(m));
        }
        assert_eq!(Method::parse("nope"), None);
    }

    #[test]
    fn groups_match_paper_taxonomy() {
        assert_eq!(Method::Bprmf.group(), Group::General);
        assert_eq!(Method::HyperMl.group(), Group::MetricLearning);
        assert_eq!(Method::Agcn.group(), Group::TagBased);
        assert_eq!(Method::Hrcf.group(), Group::GraphBased);
    }

    /// Smoke-train every method on a tiny dataset: all must produce finite
    /// scores and retrieve at least something.
    #[test]
    fn every_method_trains_and_ranks() {
        let ds = DatasetSpec::ciao(Scale::Tiny).generate(7);
        let cfg = BaselineConfig { epochs: 3, layers: 2, ..BaselineConfig::test_config() };
        for method in Method::all() {
            let model = train_method(method, &cfg, &ds);
            let res = evaluate(&model, &ds, Split::Validation, &[10], 2);
            let r = res.recall_at(10);
            assert!(r.is_finite() && r >= 0.0, "{}: recall {r}", model.name);
            let mut scores = vec![0.0; ds.n_items()];
            model.score_user(0, &mut scores);
            assert!(scores.iter().all(|s| s.is_finite()), "{} produced NaN", model.name);
        }
    }
}
