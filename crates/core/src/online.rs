//! Online monitoring: anomaly detection *during* a simulation run.
//!
//! [`OnlineMonitor`] is the paper's deployment posture made concrete: each
//! monitored node scores its own audit stream as it is produced. The
//! monitor couples a configured (not yet started) [`Simulator`] to one
//! [`IncrementalExtractor`] per monitored node (installed as that node's
//! trace sink), advances the simulation in snapshot-sized steps, and runs
//! every completed 140-feature snapshot through a trained
//! [`AnomalyDetector`] the moment the snapshot finalises — raising alarms
//! mid-run, with the sim-time detection latency recorded on each alarm.
//!
//! Unmonitored nodes get a [`NullSink`], so a long run's memory is bounded
//! by the monitored nodes' sliding-window state: no full
//! [`NodeTrace`](manet_sim::NodeTrace) is retained anywhere.
//!
//! Scores seen by the alarm logic are smoothed with the same trailing
//! moving average the batch pipeline applies, so post-hoc scoring of the
//! same run reproduces the monitor's decisions exactly.

use crate::detector::AnomalyDetector;
use crate::threshold::is_alarm;
use manet_features::{EqualFrequencyDiscretizer, IncrementalExtractor};
use manet_sim::sink::NullSink;
use manet_sim::{Agent, NodeId, SimTime, Simulator};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// An anomaly raised mid-simulation by an [`OnlineMonitor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Alarm {
    /// The node whose audit stream scored anomalous.
    pub node: NodeId,
    /// The snapshot (window-end) time that scored anomalous, seconds.
    pub snapshot_time: f64,
    /// The simulation clock when the alarm was raised, seconds.
    pub detected_at: f64,
    /// The (smoothed) score that fell below the threshold.
    pub score: f64,
}

impl Alarm {
    /// Sim-time detection latency: how long after the anomalous window
    /// closed the alarm fired.
    pub fn latency(&self) -> f64 {
        self.detected_at - self.snapshot_time
    }
}

/// One monitored node's full score series from a monitored run.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeScoreSeries {
    /// The monitored node.
    pub node: NodeId,
    /// `(snapshot time, smoothed score)` pairs, in time order.
    pub series: Vec<(f64, f64)>,
}

/// What a monitored run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorReport {
    /// All alarms raised, in detection order.
    pub alarms: Vec<Alarm>,
    /// Per-node score series (for time-series figures).
    pub series: Vec<NodeScoreSeries>,
}

/// Per-node streaming state.
struct Tap {
    node: NodeId,
    extractor: Rc<RefCell<IncrementalExtractor>>,
    /// Last `<= smoothing` raw scores, oldest first.
    recent: VecDeque<f64>,
    series: Vec<(f64, f64)>,
}

/// A live alarm observer: boxed so the monitor need not be generic over
/// the closure type (see [`OnlineMonitor::with_alarm_sink`]).
type AlarmSink<'a> = Box<dyn FnMut(&Alarm) + 'a>;

/// Couples a running [`Simulator`] to per-node extractors and a trained
/// detector; see the module docs.
pub struct OnlineMonitor<'a, A: Agent> {
    sim: Simulator<A>,
    detector: &'a AnomalyDetector,
    discretizer: &'a EqualFrequencyDiscretizer,
    smoothing: usize,
    taps: Vec<Tap>,
    row_buf: Vec<u8>,
    /// Class-probability scratch reused across every scored snapshot.
    score_buf: Vec<f64>,
    alarms: Vec<Alarm>,
    /// Optional live observer, invoked the moment each alarm is raised
    /// (before the run finishes) — the hook a streaming front end uses to
    /// push alarms to subscribers instead of waiting for the report.
    sink: Option<AlarmSink<'a>>,
}

/// The snapshot cadence in seconds, which is also the monitor's step size.
pub const MONITOR_STEP_SECS: f64 = 5.0;

/// Trailing moving average over `k` scores (`k <= 1` is the identity):
/// score *i* becomes the mean of scores `i + 1 - k ..= i` (of all scores
/// so far near the start). The batch pipeline smooths with this, and
/// [`OnlineMonitor`] takes the same mean one snapshot at a time, so batch
/// and streamed scores are bit-identical.
pub fn smooth(scores: &[f64], k: usize) -> Vec<f64> {
    if k <= 1 {
        return scores.to_vec();
    }
    (0..scores.len())
        .map(|i| {
            // audit: allow(D006, reason = "i.saturating_sub(k - 1) <= i < len by construction")
            trailing_mean(scores[i.saturating_sub(k - 1)..=i].iter())
        })
        .collect()
}

/// The mean of a score window, summed oldest to newest: the one float
/// order batch and streaming smoothing share.
fn trailing_mean<'w>(window: impl ExactSizeIterator<Item = &'w f64>) -> f64 {
    let n = window.len();
    window.sum::<f64>() / n as f64
}

impl<'a, A: Agent> OnlineMonitor<'a, A> {
    /// Prepares a monitor over a configured, **not yet started** simulator.
    /// Installs an incremental extractor as the trace sink of every node in
    /// `monitored` and a [`NullSink`] on every other node.
    ///
    /// # Panics
    ///
    /// Panics if `monitored` is empty, mentions a node twice or out of
    /// range, or if the simulation has already started.
    pub fn new(
        mut sim: Simulator<A>,
        monitored: &[NodeId],
        detector: &'a AnomalyDetector,
        discretizer: &'a EqualFrequencyDiscretizer,
    ) -> OnlineMonitor<'a, A> {
        assert!(!monitored.is_empty(), "monitor at least one node");
        let mut taps: Vec<Tap> = Vec::with_capacity(monitored.len());
        for i in 0..sim.config().n_nodes {
            let node = NodeId(i);
            if monitored.contains(&node) {
                let extractor = Rc::new(RefCell::new(IncrementalExtractor::new()));
                sim.set_sink(node, Box::new(extractor.clone()));
                taps.push(Tap {
                    node,
                    extractor,
                    recent: VecDeque::new(),
                    series: Vec::new(),
                });
            } else {
                sim.set_sink(node, Box::new(NullSink));
            }
        }
        assert_eq!(
            taps.len(),
            monitored.len(),
            "monitored nodes must be distinct and in range"
        );
        OnlineMonitor {
            sim,
            detector,
            discretizer,
            smoothing: 1,
            taps,
            row_buf: Vec::new(),
            score_buf: Vec::new(),
            alarms: Vec::new(),
            sink: None,
        }
    }

    /// Applies the batch pipeline's trailing moving-average smoothing over
    /// `k` snapshots before the threshold decision (`k = 1` is raw scores).
    pub fn with_smoothing(mut self, k: usize) -> OnlineMonitor<'a, A> {
        self.smoothing = k.max(1);
        self
    }

    /// Installs a live alarm observer, called once per alarm at the moment
    /// it is raised (in detection order, before [`OnlineMonitor::run`]
    /// returns its report). The final [`MonitorReport`] still contains
    /// every alarm; the sink is for streaming consumers that cannot wait
    /// for the run to end.
    pub fn with_alarm_sink(mut self, sink: impl FnMut(&Alarm) + 'a) -> OnlineMonitor<'a, A> {
        self.sink = Some(Box::new(sink));
        self
    }

    /// Runs the simulation to its configured duration, scoring snapshots
    /// as they finalise, and reports every alarm with its latency.
    pub fn run(mut self) -> MonitorReport {
        let duration = self.sim.config().duration;
        let step = SimTime::from_secs(MONITOR_STEP_SECS);
        while self.sim.now() < duration {
            let next = (self.sim.now() + step).min(duration);
            self.sim.run_until(next);
            let now = self.sim.now();
            for tap in &mut self.taps {
                tap.extractor.borrow_mut().advance_to(now);
            }
            self.score_ready(now.as_secs());
        }
        // Flush windows the watermark could not prove complete (e.g. the
        // final snapshot's velocity winner).
        for tap in &mut self.taps {
            tap.extractor.borrow_mut().finish(duration);
        }
        self.score_ready(duration.as_secs());
        MonitorReport {
            alarms: self.alarms,
            series: self
                .taps
                .into_iter()
                .map(|t| NodeScoreSeries {
                    node: t.node,
                    series: t.series,
                })
                .collect(),
        }
    }

    /// Scores whatever snapshots each tap has completed. Extractors are
    /// independent, so draining tap-by-tap preserves the per-tap score
    /// and alarm order of the batch pipeline.
    fn score_ready(&mut self, now_secs: f64) {
        for tap in &mut self.taps {
            let rows = tap.extractor.borrow_mut().drain_rows();
            for row in rows {
                self.discretizer
                    .transform_row_into(&row.values, &mut self.row_buf);
                let raw = self.detector.score_with(&self.row_buf, &mut self.score_buf);
                tap.recent.push_back(raw);
                if tap.recent.len() > self.smoothing {
                    tap.recent.pop_front();
                }
                let smoothed = trailing_mean(tap.recent.iter());
                tap.series.push((row.time, smoothed));
                if is_alarm(smoothed, self.detector.threshold()) {
                    let alarm = Alarm {
                        node: tap.node,
                        snapshot_time: row.time,
                        detected_at: now_secs,
                        score: smoothed,
                    };
                    if let Some(sink) = self.sink.as_mut() {
                        sink(&alarm);
                    }
                    self.alarms.push(alarm);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ScoreMethod;
    use cfa_ml::{AnyLearner, NaiveBayes};
    use manet_features::FeatureExtractor;
    use manet_sim::agent::FloodAgent;
    use manet_sim::app::{App, AppCtx, AppData, AppKind, FlowId};
    use manet_sim::SimConfig;

    /// A periodic constant-bit-rate source driving steady traffic.
    struct Cbr {
        node: NodeId,
        dst: NodeId,
        period: f64,
        seq: u32,
    }

    impl App for Cbr {
        fn node(&self) -> NodeId {
            self.node
        }
        fn flow(&self) -> FlowId {
            FlowId(1)
        }
        fn start(&mut self, ctx: &mut AppCtx<'_>) {
            ctx.schedule_tick(SimTime::from_secs(self.period), 0);
        }
        fn on_tick(&mut self, ctx: &mut AppCtx<'_>, _tag: u32) {
            ctx.send_data(
                self.dst,
                256,
                AppData {
                    flow: FlowId(1),
                    seq: self.seq,
                    kind: AppKind::Cbr,
                },
            );
            self.seq += 1;
            ctx.schedule_tick(SimTime::from_secs(self.period), 0);
        }
        fn on_receive(&mut self, _ctx: &mut AppCtx<'_>, _d: AppData, _s: u32, _f: NodeId) {}
    }

    fn sim_with_traffic(seed: u64, duration: f64) -> Simulator<FloodAgent> {
        let cfg = SimConfig::builder()
            .nodes(8)
            .field(150.0, 150.0)
            .range(250.0)
            .duration_secs(duration)
            .base_loss(0.0)
            .seed(seed)
            .build();
        let mut sim = Simulator::new(cfg, |_| FloodAgent::new());
        sim.add_app(Box::new(Cbr {
            node: NodeId(0),
            dst: NodeId(5),
            period: 0.8,
            seq: 0,
        }));
        sim
    }

    /// The batch pipeline's trailing moving average as first written:
    /// the oracle for [`super::smooth`] and the monitor's window.
    fn smooth(scores: &[f64], k: usize) -> Vec<f64> {
        if k <= 1 {
            return scores.to_vec();
        }
        scores
            .iter()
            .enumerate()
            .map(|(i, _)| {
                let lo = i.saturating_sub(k - 1);
                let w = &scores[lo..=i];
                w.iter().sum::<f64>() / w.len() as f64
            })
            .collect()
    }

    #[test]
    fn monitor_alarms_match_post_hoc_scoring_of_the_same_run() {
        let duration = 120.0;
        let node = NodeId(5);
        let smoothing = 3;

        // Train on one run's trace, from the monitored node's vantage.
        let mut train_sim = sim_with_traffic(11, duration);
        train_sim.run();
        let train_matrix =
            FeatureExtractor::new().extract(train_sim.trace(node), SimTime::from_secs(duration));
        let disc = EqualFrequencyDiscretizer::fit(&train_matrix, 5, None, 7);
        let table = disc.transform(&train_matrix).expect("schema");
        let detector = AnomalyDetector::fit(
            &AnyLearner::Bayes(NaiveBayes::default()),
            &table,
            ScoreMethod::AvgProbability,
            0.2,
        );

        // Post-hoc reference: replay an identical run through the batch path.
        let mut batch_sim = sim_with_traffic(23, duration);
        batch_sim.run();
        let matrix =
            FeatureExtractor::new().extract(batch_sim.trace(node), SimTime::from_secs(duration));
        let batch_table = disc.transform(&matrix).expect("schema");
        let raw: Vec<f64> = batch_table
            .to_rows()
            .iter()
            .map(|r| detector.score(r))
            .collect();
        let expected_scores = smooth(&raw, smoothing);
        let expected_alarm_times: Vec<f64> = matrix
            .times
            .iter()
            .zip(&expected_scores)
            .filter(|&(_, &s)| s < detector.threshold())
            .map(|(&t, _)| t)
            .collect();

        // Streamed: the same run, scored live.
        let report = OnlineMonitor::new(sim_with_traffic(23, duration), &[node], &detector, &disc)
            .with_smoothing(smoothing)
            .run();

        assert_eq!(report.series.len(), 1);
        let series = &report.series[0].series;
        assert_eq!(
            series.iter().map(|&(t, _)| t).collect::<Vec<_>>(),
            matrix.times,
            "one scored snapshot per batch row"
        );
        for (&(t, s), &e) in series.iter().zip(&expected_scores) {
            assert!(
                s.to_bits() == e.to_bits(),
                "smoothed score diverged at t={t}: {s} != {e}"
            );
        }
        let got_alarm_times: Vec<f64> = report.alarms.iter().map(|a| a.snapshot_time).collect();
        assert_eq!(got_alarm_times, expected_alarm_times);
        for a in &report.alarms {
            assert_eq!(a.node, node);
            assert!(
                a.latency() >= 0.0 && a.latency() <= MONITOR_STEP_SECS,
                "alarm latency {} outside one monitor step",
                a.latency()
            );
        }
    }

    #[test]
    fn alarm_sink_sees_every_alarm_live_and_in_order() {
        let duration = 120.0;
        let node = NodeId(5);
        let mut train_sim = sim_with_traffic(11, duration);
        train_sim.run();
        let m =
            FeatureExtractor::new().extract(train_sim.trace(node), SimTime::from_secs(duration));
        let disc = EqualFrequencyDiscretizer::fit(&m, 5, None, 7);
        let table = disc.transform(&m).expect("schema");
        let det = AnomalyDetector::fit(
            &AnyLearner::Bayes(NaiveBayes::default()),
            &table,
            ScoreMethod::AvgProbability,
            0.2,
        );
        let streamed: RefCell<Vec<Alarm>> = RefCell::new(Vec::new());
        let report = OnlineMonitor::new(sim_with_traffic(23, duration), &[node], &det, &disc)
            .with_smoothing(3)
            .with_alarm_sink(|a| streamed.borrow_mut().push(*a))
            .run();
        assert!(!report.alarms.is_empty(), "fixture must raise alarms");
        assert_eq!(streamed.into_inner(), report.alarms);
    }

    #[test]
    fn quiet_runs_raise_no_alarms_on_their_own_profile() {
        let duration = 100.0;
        let node = NodeId(5);
        let mut train_sim = sim_with_traffic(3, duration);
        train_sim.run();
        let m =
            FeatureExtractor::new().extract(train_sim.trace(node), SimTime::from_secs(duration));
        let disc = EqualFrequencyDiscretizer::fit(&m, 5, None, 1);
        let table = disc.transform(&m).expect("schema");
        let det = AnomalyDetector::fit(
            &AnyLearner::Bayes(NaiveBayes::default()),
            &table,
            ScoreMethod::AvgProbability,
            0.0,
        );
        // Same seed => same run: with a 0 false-alarm budget the threshold
        // sits at the minimum training score, so nothing can dip below it.
        let report = OnlineMonitor::new(sim_with_traffic(3, duration), &[node], &det, &disc).run();
        assert!(report.alarms.is_empty(), "alarms: {:?}", report.alarms);
        assert_eq!(report.series[0].series.len(), 20);
    }
}
