#![warn(missing_docs)]

//! Evaluation substrate: full-ranking top-K metrics, the Wilcoxon
//! signed-rank significance test, and multi-seed aggregation.
//!
//! Following the paper (Section VI-A2, citing Krichene & Rendle), metrics
//! are computed by ranking **all** items (no sampled negatives), masking the
//! user's known interactions from other splits. Recall@K and NDCG@K are
//! averaged over users with non-empty ground truth; per-user values are kept
//! so two methods can be compared with the Wilcoxon signed-rank test exactly
//! as the paper's `*` markers do.

pub mod metrics;
pub mod ranking;
pub mod stats;

pub use metrics::{ndcg_at_k, recall_at_k};
pub use ranking::{evaluate, evaluate_traced, top_k_scored, EvalResult, Ranker, USER_BLOCK};
pub use stats::{mean_std, wilcoxon_signed_rank, MeanStd};
