//! The train/evaluate pipeline used by every experiment: normal traces →
//! discretizer + cross-feature ensemble → scored, labelled events and the
//! paper's accuracy measures.

use crate::scenario::{Protocol, Scenario, TraceBundle};
use cfa_core::eval::{
    auc_above_diagonal, average_timeseries, optimal_point, recall_precision_curve,
};
use cfa_core::{
    smooth, AnomalyDetector, CrossFeatureModel, FittedThreshold, ModelArtifact, MonitorReport,
    OnlineMonitor, Parallelism, PrPoint, ScoreMethod, ScoredEvent,
};
use cfa_ml::persist::PersistError;
use cfa_ml::{AnyLearner, AnyModel, Learner, NaiveBayes, NominalTable, Ripper, C45};
use manet_features::{EqualFrequencyDiscretizer, FeatureMatrix, FeatureSpec};
use std::io::{Read, Write};

/// Which learner builds the sub-models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClassifierKind {
    /// C4.5 decision trees.
    C45,
    /// RIPPER ordered rules.
    Ripper,
    /// Naive Bayes.
    NaiveBayes,
}

impl ClassifierKind {
    /// All kinds, in the paper's presentation order.
    pub const ALL: [ClassifierKind; 3] = [
        ClassifierKind::C45,
        ClassifierKind::Ripper,
        ClassifierKind::NaiveBayes,
    ];

    /// Display name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            ClassifierKind::C45 => "C4.5",
            ClassifierKind::Ripper => "RIPPER",
            ClassifierKind::NaiveBayes => "NBC",
        }
    }
}

/// A learner that erases the concrete model type, so one pipeline handles
/// all three classifier families. Produces [`AnyModel`]s (a closed enum
/// rather than a trait object), so every trained ensemble is persistable.
#[derive(Debug, Clone, Copy)]
pub struct DynLearner(pub ClassifierKind);

impl Learner for DynLearner {
    type Model = AnyModel;

    fn fit(&self, table: &NominalTable, class_col: usize) -> AnyModel {
        let learner = match self.0 {
            ClassifierKind::C45 => AnyLearner::C45(C45::default()),
            ClassifierKind::Ripper => AnyLearner::Ripper(Ripper::default()),
            ClassifierKind::NaiveBayes => AnyLearner::Bayes(NaiveBayes::default()),
        };
        learner.fit(table, class_col)
    }
}

/// One trace's scores, kept per-trace for time-series plots.
#[derive(Debug, Clone)]
pub struct ScoredTrace {
    /// `(snapshot time, score)` pairs.
    pub series: Vec<(f64, f64)>,
    /// Ground-truth label per snapshot.
    pub labels: Vec<bool>,
    /// Whether the trace contained any attack.
    pub attacked: bool,
}

/// The result of a full experiment.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Recall–precision curve from sweeping the decision threshold.
    pub curve: Vec<PrPoint>,
    /// Area between the curve and the random-guess diagonal.
    pub auc: f64,
    /// The operating point closest to (1, 1).
    pub optimal: Option<PrPoint>,
    /// Threshold chosen from training scores at the pipeline's
    /// false-alarm rate.
    pub threshold: f64,
    /// Every test event with its score and ground truth.
    pub events: Vec<ScoredEvent>,
    /// Per-trace score series (for Figures 3 and 5).
    pub traces: Vec<ScoredTrace>,
    /// Scores of all normal-trace events (for density plots).
    pub normal_scores: Vec<f64>,
    /// Scores of all attack-trace events.
    pub abnormal_scores: Vec<f64>,
}

impl Outcome {
    /// Averaged score time-series over the normal test traces
    /// (bucket = 100 s, matching the paper's figures' resolution).
    pub fn normal_series(&self, bucket_secs: f64) -> Vec<(f64, f64)> {
        let traces: Vec<Vec<(f64, f64)>> = self
            .traces
            .iter()
            .filter(|t| !t.attacked)
            .map(|t| t.series.clone())
            .collect();
        average_timeseries(&traces, bucket_secs)
    }

    /// Averaged score time-series over the attack test traces.
    pub fn abnormal_series(&self, bucket_secs: f64) -> Vec<(f64, f64)> {
        let traces: Vec<Vec<(f64, f64)>> = self
            .traces
            .iter()
            .filter(|t| t.attacked)
            .map(|t| t.series.clone())
            .collect();
        average_timeseries(&traces, bucket_secs)
    }

    /// Detection recall/precision at the trained threshold.
    pub fn at_threshold(&self) -> (f64, f64) {
        let mut tp = 0usize;
        let mut fp = 0usize;
        let positives = self.events.iter().filter(|e| e.is_anomaly).count();
        for e in &self.events {
            if cfa_core::is_alarm(e.score, self.threshold) {
                if e.is_anomaly {
                    tp += 1;
                } else {
                    fp += 1;
                }
            }
        }
        let recall = tp as f64 / positives.max(1) as f64;
        let precision = tp as f64 / (tp + fp).max(1) as f64;
        (recall, precision)
    }
}

/// The experiment pipeline configuration.
#[derive(Debug, Clone)]
pub struct Pipeline {
    /// Learner for the sub-models.
    pub classifier: ClassifierKind,
    /// Score combiner (Algorithm 2 or 3).
    pub method: ScoreMethod,
    /// Discretization buckets (the paper uses 5).
    pub n_buckets: usize,
    /// Target training false-alarm rate for threshold selection.
    pub false_alarm_rate: f64,
    /// Pre-filtering sample size for the discretizer (`None` = all rows).
    pub discretizer_sample: Option<usize>,
    /// Moving-average smoothing of score series, in snapshots (1 = none).
    /// An alarm decision then rests on a short run of windows rather than
    /// a single 5 s sample, suppressing single-window noise while attacks
    /// (≥ 100 s) remain fully visible.
    pub smoothing: usize,
    /// Thread budget for ensemble training and batch scoring. Defaults to
    /// `CFA_THREADS` (or all cores); results are bit-identical for every
    /// setting.
    pub parallelism: Parallelism,
}

impl Pipeline {
    /// A pipeline with the paper's defaults (5 buckets, 5% false-alarm
    /// budget, 500-row discretizer prefilter).
    pub fn new(classifier: ClassifierKind, method: ScoreMethod) -> Pipeline {
        Pipeline {
            classifier,
            method,
            n_buckets: EqualFrequencyDiscretizer::PAPER_BUCKETS,
            false_alarm_rate: 0.05,
            discretizer_sample: Some(500),
            smoothing: 6,
            parallelism: Parallelism::from_env(),
        }
    }

    /// Overrides the discretization bucket count (ablation studies).
    pub fn with_buckets(mut self, n: usize) -> Pipeline {
        self.n_buckets = n;
        self
    }

    /// Overrides the false-alarm budget.
    pub fn with_false_alarm_rate(mut self, fa: f64) -> Pipeline {
        self.false_alarm_rate = fa;
        self
    }

    /// Enables moving-average score smoothing over `k` snapshots.
    pub fn with_smoothing(mut self, k: usize) -> Pipeline {
        self.smoothing = k.max(1);
        self
    }

    /// Overrides the thread budget (scores are identical regardless).
    pub fn with_parallelism(mut self, par: Parallelism) -> Pipeline {
        self.parallelism = par;
        self
    }

    /// Default training vantage nodes: several honest nodes spread across
    /// the id space (avoiding the default attacker ids 7 and 11), so the
    /// normal profile covers the variety of roles a node can play.
    pub fn default_train_nodes(n_nodes: u16) -> Vec<manet_sim::NodeId> {
        [0u16, 5, 10, 15, 20, 25]
            .into_iter()
            .filter(|&i| i < n_nodes)
            .map(manet_sim::NodeId)
            .collect()
    }

    /// Runs scenarios and evaluates: trains on `train` (must be normal),
    /// scores all test bundles, and computes the paper's measures.
    ///
    /// Training rows are extracted from [`Pipeline::default_train_nodes`]
    /// vantage points of the single training run; evaluation uses each
    /// test scenario's own monitored node.
    ///
    /// # Panics
    ///
    /// Panics if `train` contains attacks or `abnormal_tests` is empty.
    pub fn run(
        &self,
        train: &Scenario,
        normal_tests: &[Scenario],
        abnormal_tests: &[Scenario],
    ) -> Outcome {
        assert!(
            !train.is_attacked(),
            "the detector must be trained on normal data only"
        );
        assert!(
            !abnormal_tests.is_empty(),
            "need at least one attack trace to evaluate detection"
        );
        let train_bundles = train.run_nodes(&Self::default_train_nodes(train.n_nodes));
        let mut test_bundles: Vec<TraceBundle> = normal_tests.iter().map(Scenario::run).collect();
        test_bundles.extend(abnormal_tests.iter().map(Scenario::run));
        self.evaluate(&train_bundles, &test_bundles)
    }

    /// Trains the discretizer, ensemble, and threshold on pre-computed
    /// normal bundles, producing a [`TrainedPipeline`] that can score
    /// batch matrices or monitor live simulations. Training rows are the
    /// concatenation of all `train` bundles; the threshold is fitted on
    /// the detector's own smoothed scores of them.
    ///
    /// # Panics
    ///
    /// Panics if any training bundle has attack labels, or there are no
    /// training rows.
    pub fn fit(&self, train: &[TraceBundle]) -> TrainedPipeline {
        assert!(!train.is_empty(), "need training bundles");
        assert!(
            train.iter().all(|b| b.labels.iter().all(|&l| !l)),
            "training bundle contains attack windows"
        );
        let mut train_matrix = train[0].matrix.clone(); // audit: allow(D006, reason = "fit() asserts a non-empty training set on entry")
        for b in train.iter().skip(1) {
            train_matrix.rows.extend(b.matrix.rows.iter().cloned());
            train_matrix.times.extend(b.matrix.times.iter().copied());
        }
        let disc = EqualFrequencyDiscretizer::fit(
            &train_matrix,
            self.n_buckets,
            self.discretizer_sample,
            train[0].scenario.seed, // audit: allow(D006, reason = "fit() asserts a non-empty training set on entry")
        );
        let train_table = disc.transform(&train_matrix).expect("same schema"); // audit: allow(D006, reason = "discretizer was fitted on this very matrix; schemas match by construction")

        // The f64 rows are done with: free them before the ensemble is
        // trained and lowered.
        drop(train_matrix);
        let learner = DynLearner(self.classifier);
        let model = CrossFeatureModel::train_with(&learner, &train_table, self.parallelism);
        let detector = AnomalyDetector::with_threshold(model, self.method, f64::NEG_INFINITY);
        let train_scores = smooth(
            &detector.score_table(&train_table, self.parallelism),
            self.smoothing,
        );
        let fitted = cfa_core::fit_threshold(&train_scores, self.false_alarm_rate);
        TrainedPipeline {
            artifact: ModelArtifact {
                spec: Some(FeatureSpec::new()),
                discretizer: disc,
                detector: detector.at_threshold(fitted.threshold),
                fitted,
                smoothing: u32::try_from(self.smoothing.max(1)).unwrap_or(u32::MAX),
            },
            parallelism: self.parallelism,
        }
    }

    /// The same pipeline over pre-computed bundles (lets experiments reuse
    /// expensive simulations): [`Pipeline::fit`] followed by batch scoring
    /// of every test bundle.
    ///
    /// # Panics
    ///
    /// As [`Pipeline::fit`].
    pub fn evaluate(&self, train: &[TraceBundle], tests: &[TraceBundle]) -> Outcome {
        let trained = self.fit(train);
        let threshold = trained.fitted_threshold().threshold;

        let mut events = Vec::new();
        let mut traces = Vec::new();
        let mut normal_scores = Vec::new();
        let mut abnormal_scores = Vec::new();
        for bundle in tests {
            let scores = trained.score_matrix(&bundle.matrix);
            let attacked = bundle.scenario.is_attacked();
            for (&score, &is_anomaly) in scores.iter().zip(&bundle.labels) {
                events.push(ScoredEvent { score, is_anomaly });
            }
            if attacked {
                abnormal_scores.extend_from_slice(&scores);
            } else {
                normal_scores.extend_from_slice(&scores);
            }
            traces.push(ScoredTrace {
                series: bundle.matrix.times.iter().copied().zip(scores).collect(),
                labels: bundle.labels.clone(),
                attacked,
            });
        }
        let curve = recall_precision_curve(&events);
        Outcome {
            auc: auc_above_diagonal(&curve),
            optimal: optimal_point(&curve),
            threshold,
            events,
            traces,
            normal_scores,
            abnormal_scores,
            curve,
        }
    }
}

/// A fitted pipeline: discretizer + ensemble + threshold, ready to score
/// batch matrices ([`TrainedPipeline::score_matrix`]) or to monitor a live
/// simulation as it runs ([`TrainedPipeline::stream_scenario`]).
///
/// Both paths apply the same trailing moving-average smoothing the
/// pipeline trained with, so their scores are bit-identical for identical
/// audit streams.
pub struct TrainedPipeline {
    artifact: ModelArtifact,
    parallelism: Parallelism,
}

impl TrainedPipeline {
    /// The fitted threshold together with the target false-alarm rate it
    /// was selected for — the pair the artifact writer persists.
    pub fn fitted_threshold(&self) -> FittedThreshold {
        self.artifact.fitted
    }

    /// The fitted discretizer.
    pub fn discretizer(&self) -> &EqualFrequencyDiscretizer {
        &self.artifact.discretizer
    }

    /// The trained detector (ensemble + threshold).
    pub fn detector(&self) -> &AnomalyDetector {
        &self.artifact.detector
    }

    /// Does nothing: the detector is built lowered. It stays only because
    /// `perfbench/` still calls it, and that harness changes only together
    /// with the benchmark definition.
    pub fn compile(&mut self) {}

    /// The persistable [`ModelArtifact`] this pipeline scores with.
    pub fn into_artifact(self) -> ModelArtifact {
        self.artifact
    }

    /// Serializes the trained pipeline as a `CFAM` artifact.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Io`] if the sink fails.
    pub fn save(&self, out: &mut impl Write) -> Result<(), PersistError> {
        self.artifact.save(out)
    }

    /// Rebuilds a trained pipeline from a [`ModelArtifact`]. Scores are
    /// bit-identical to the pipeline that produced the artifact.
    pub fn from_artifact(artifact: ModelArtifact, parallelism: Parallelism) -> TrainedPipeline {
        TrainedPipeline {
            artifact,
            parallelism,
        }
    }

    /// Loads a trained pipeline from a `CFAM` artifact stream.
    ///
    /// # Errors
    ///
    /// As [`ModelArtifact::load`]: every corruption mode is a typed
    /// [`PersistError`], never a panic.
    pub fn load(input: &mut impl Read) -> Result<TrainedPipeline, PersistError> {
        let artifact = ModelArtifact::load(input)?;
        Ok(Self::from_artifact(artifact, Parallelism::from_env()))
    }

    /// The trailing moving-average window, in snapshots.
    fn smoothing(&self) -> usize {
        self.artifact.smoothing as usize
    }

    /// Scores a continuous feature matrix: discretize, score the table on
    /// the detector's engine across the thread budget, smooth. One
    /// smoothed score per row.
    ///
    /// # Panics
    ///
    /// Panics if `matrix` does not have the training schema.
    pub fn score_matrix(&self, matrix: &FeatureMatrix) -> Vec<f64> {
        let (disc, detector) = (&self.artifact.discretizer, &self.artifact.detector);
        let table = disc.transform(matrix).expect("same schema"); // audit: allow(D006, reason = "documented contract: score_matrix requires the training schema")
        smooth(
            &detector.score_table(&table, self.parallelism),
            self.smoothing(),
        )
    }

    /// The same as [`TrainedPipeline::score_matrix`]. It stays only
    /// because `perfbench/` still calls it, and that harness changes only
    /// together with the benchmark definition.
    ///
    /// # Panics
    ///
    /// Panics if `matrix` does not have the training schema.
    pub fn score_matrix_compiled(&self, matrix: &FeatureMatrix) -> Vec<f64> {
        self.score_matrix(matrix)
    }

    /// Runs `scenario` under an [`OnlineMonitor`] watching its monitored
    /// node: the simulation's audit events stream through an incremental
    /// extractor, and every snapshot is scored the moment it finalises.
    /// No full `NodeTrace` is retained anywhere; memory is bounded by the
    /// extractor's sliding-window state.
    ///
    /// The report's score series is bit-identical to
    /// [`TrainedPipeline::score_matrix`] over the batch bundle of the same
    /// scenario, and its alarms carry sim-time detection latencies.
    ///
    /// # Panics
    ///
    /// Panics if the scenario is invalid or monitors a compromised node.
    pub fn stream_scenario(&self, scenario: &Scenario) -> MonitorReport {
        let monitored = [scenario.monitored];
        scenario.validate_vantages(&monitored);
        let (detector, disc) = (&self.artifact.detector, &self.artifact.discretizer);
        match scenario.protocol {
            Protocol::Dsr => OnlineMonitor::new(scenario.build_dsr(), &monitored, detector, disc)
                .with_smoothing(self.smoothing())
                .run(),
            Protocol::Aodv => OnlineMonitor::new(scenario.build_aodv(), &monitored, detector, disc)
                .with_smoothing(self.smoothing())
                .run(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Attack, Protocol, Transport};

    fn base(seed: u64) -> Scenario {
        Scenario::paper_default(Protocol::Aodv, Transport::Cbr)
            .with_nodes(25)
            .with_connections(12)
            .with_duration(400.0)
            .with_seed(seed)
    }

    #[test]
    fn pipeline_mechanics_hold_at_miniature_scale() {
        // 400 s / 25 nodes is far below the scale where cross-feature
        // analysis has signal (the paper uses 10 000 s); here we verify the
        // plumbing only. Detection quality is asserted at full scale by
        // `tests/detection_quality.rs` and the cfa-bench harness.
        let pipeline = Pipeline::new(ClassifierKind::C45, ScoreMethod::AvgProbability);
        let attacked = base(3).with_attack(Attack::blackhole_at(&[200.0]));
        let outcome = pipeline.run(&base(1), &[base(2)], &[attacked]);
        assert_eq!(outcome.events.len(), 160, "two test traces of 80 snapshots");
        assert!((0.0..=1.0).contains(&outcome.threshold));
        assert!(outcome.events.iter().any(|e| e.is_anomaly));
        assert!(outcome.events.iter().any(|e| !e.is_anomaly));
        assert!(!outcome.curve.is_empty());
        assert!(outcome.optimal.is_some());
        assert_eq!(outcome.traces.len(), 2);
        assert!(!outcome.traces[0].attacked && outcome.traces[1].attacked);
        assert!(!outcome.normal_series(100.0).is_empty());
        assert!(!outcome.abnormal_series(100.0).is_empty());
        // Scores are probabilities.
        assert!(outcome
            .events
            .iter()
            .all(|e| (0.0..=1.0).contains(&e.score)));
    }

    #[test]
    fn smoothing_reduces_score_variance() {
        let raw = vec![0.2, 0.9, 0.1, 0.8, 0.3, 0.7];
        let smoothed = smooth(&raw, 3);
        let var = |v: &[f64]| {
            let m = v.iter().sum::<f64>() / v.len() as f64;
            v.iter().map(|x| (x - m).powi(2)).sum::<f64>() / v.len() as f64
        };
        assert!(var(&smoothed) < var(&raw));
        assert_eq!(smooth(&raw, 1), raw, "k = 1 is the identity");
        assert_eq!(smoothed.len(), raw.len());
        // Trailing average: first element unchanged.
        assert_eq!(smoothed[0], raw[0]);
        assert!((smoothed[2] - (0.2 + 0.9 + 0.1) / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "normal data only")]
    fn rejects_attacked_training_scenario() {
        let pipeline = Pipeline::new(ClassifierKind::NaiveBayes, ScoreMethod::MatchCount);
        let attacked = base(1).with_attack(Attack::blackhole_at(&[100.0]));
        let _ = pipeline.run(&attacked, &[], std::slice::from_ref(&attacked));
    }
}
