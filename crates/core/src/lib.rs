//! # cfa-core
//!
//! **Cross-feature analysis** for anomaly detection — the contribution of
//! *"Cross-Feature Analysis for Detecting Ad-Hoc Routing Anomalies"*
//! (Huang, Fan, Lee, Yu; ICDCS 2003).
//!
//! The idea: strong correlations exist between the features of *normal*
//! events. Train one classifier per feature, `Cᵢ : {f₁ … fᵢ₋₁, fᵢ₊₁ … f_L}
//! → fᵢ`, on normal data only (Algorithm 1). At detection time, an event is
//! scored by how well the ensemble's predictions agree with its actual
//! feature values:
//!
//! * **average match count** (Algorithm 2) — the fraction of sub-models
//!   whose predicted value equals the true value;
//! * **average probability** (Algorithm 3) — the mean probability the
//!   sub-models assign to the true values, a strictly more informative
//!   weighting of the same evidence.
//!
//! Events scoring below a threshold — chosen as a lower quantile of the
//! scores of normal events at a desired false-alarm rate — are flagged as
//! anomalies.
//!
//! # Example
//!
//! ```
//! use cfa_core::{AnomalyDetector, ScoreMethod, Verdict};
//! use cfa_ml::{AnyLearner, NominalTable, naive_bayes::NaiveBayes};
//!
//! // Normal data: feature 1 always equals feature 0; feature 2 free.
//! let rows: Vec<Vec<u8>> = (0..60).map(|i| {
//!     let a = (i % 2) as u8;
//!     vec![a, a, (i % 3) as u8]
//! }).collect();
//! let normal = NominalTable::new(
//!     vec!["a".into(), "b".into(), "c".into()],
//!     vec![2, 2, 3],
//!     rows,
//! ).unwrap();
//! let det = AnomalyDetector::fit(
//!     &AnyLearner::Bayes(NaiveBayes::default()), &normal, ScoreMethod::AvgProbability, 0.05,
//! );
//! // A vector violating the a == b correlation scores as anomalous.
//! assert_eq!(det.classify(&[0, 1, 0]), Verdict::Anomaly);
//! assert_eq!(det.classify(&[1, 1, 0]), Verdict::Normal);
//! ```

pub mod detector;
pub mod eval;
pub mod example2node;
pub mod model;
pub mod online;
pub mod parallel;
pub mod persist;
pub mod reduction;
pub mod threshold;

pub use cfa_ml::compiled::{CompiledEnsemble, CompiledModel};
pub use detector::{AnomalyDetector, SnapshotVerdict, Verdict};
pub use eval::{PrPoint, ScoredEvent};
pub use model::{CrossFeatureModel, ScoreMethod};
pub use online::{smooth, Alarm, MonitorReport, NodeScoreSeries, OnlineMonitor, MONITOR_STEP_SECS};
pub use parallel::Parallelism;
pub use persist::{ModelArtifact, FORMAT_VERSION, MAGIC, MAX_PAYLOAD_BYTES};
pub use reduction::{
    select_informative, submodel_predictability, submodel_predictability_with, SubModelStats,
};
pub use threshold::{fit_threshold, select_threshold, FittedThreshold};
