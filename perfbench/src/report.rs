//! What one run reports: operations attempted and failed per phase, the
//! metrics, and the final JSON line.
//!
//! Every workload reports the same metrics, so that each metric can be
//! compared across commits on every workload: [`END_TO_END`] untraced,
//! [`PER_LAYER`] traced. `BENCHMARK.json` lists the same names and units,
//! and a run whose result line would hold any other set fails. What only
//! one workload measures is printed as a note above the result line.

use crate::stats::{Pct, WindowedPct};

/// The end-to-end metrics and their units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("op_p50_ms", "ms"),
    ("rows_per_s", "rows/s"),
];

/// The per-layer metrics and their units.
pub const PER_LAYER: [(&str, &str); 18] = [
    ("sim.run_s", "s"),
    ("sim.events", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.frames_delivered", "count"),
    ("sim.frames_lost", "count"),
    ("features.rows", "count"),
    ("features.extract_us_per_row", "us"),
    ("features.disc_us_per_row", "us"),
    ("ml.train_s", "s"),
    ("ml.compile_ms", "ms"),
    ("ml.score_us_per_row", "us"),
    ("ml.submodel_evals", "count"),
    ("sim.self_pct", "%"),
    ("features.self_pct", "%"),
    ("ml.self_pct", "%"),
    ("core.self_pct", "%"),
    ("bench.self_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// The layers whose self-time share is a per-layer metric: every workload
/// calls into each of them. (`serve` only runs in the `serve` workload,
/// which prints its share as a note.)
pub const SHARED_LAYERS: [&str; 5] = ["sim", "features", "ml", "core", "bench"];

/// A metric value: a measured quantity or an exact count.
#[derive(Debug, Clone, Copy)]
enum Value {
    Measured(f64),
    Count(u64),
}

/// Operations of one phase of a workload.
#[derive(Debug, Clone)]
struct Phase {
    name: &'static str,
    attempted: u64,
    failed: u64,
}

/// Collects a run's operations, failures and metrics.
#[derive(Debug, Default)]
pub struct Report {
    phases: Vec<Phase>,
    metrics: Vec<(String, Value, &'static str)>,
}

impl Report {
    /// Counts `n` operations attempted in `phase`.
    pub fn attempt(&mut self, phase: &'static str, n: u64) {
        self.tally(phase, n, 0);
    }

    /// Counts one failed operation or check in `phase` and says why.
    pub fn fail(&mut self, phase: &'static str, why: &str) {
        println!("FAILED [{phase}] {why}");
        self.tally(phase, 0, 1);
    }

    /// Checks `ok`; a false check is a failure of `phase`.
    pub fn check(&mut self, phase: &'static str, ok: bool, why: &str) {
        if !ok {
            self.fail(phase, why);
        }
    }

    fn tally(&mut self, name: &'static str, attempted: u64, failed: u64) {
        match self.phases.iter_mut().find(|p| p.name == name) {
            Some(p) => {
                p.attempted += attempted;
                p.failed += failed;
            }
            None => self.phases.push(Phase {
                name,
                attempted,
                failed,
            }),
        }
    }

    /// Adds a measured metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        println!("metric {name} = {value} {unit}");
        self.metrics
            .push((name.to_string(), Value::Measured(value), unit));
    }

    /// Prints a value that is not a metric of every workload.
    pub fn note(&self, name: &str, value: f64, unit: &str) {
        println!("note {name} = {value} {unit}");
    }

    /// Prints the sample count of percentile `name` and checks it;
    /// returns the percentile's value.
    pub fn pct(&mut self, name: &str, p: Option<Pct>, min_samples: usize) -> Option<f64> {
        let Some(p) = p else {
            self.fail("report", &format!("{name} has no samples"));
            return None;
        };
        println!(
            "  {name}: n = {} samples, {} beyond the percentile",
            p.n, p.beyond
        );
        if p.n < min_samples {
            self.fail(
                "report",
                &format!("{name} rests on {} samples, below {min_samples}", p.n),
            );
        }
        Some(p.value)
    }

    /// Prints what per-window percentile `name` rests on; returns its
    /// value.
    pub fn windowed(&mut self, name: &str, p: Option<WindowedPct>) -> Option<f64> {
        let Some(p) = p else {
            self.fail(
                "report",
                &format!("{name} has no window with enough samples"),
            );
            return None;
        };
        println!(
            "  {name}: median over {} windows; the smallest holds {} samples, {} beyond the percentile",
            p.windows, p.fewest.n, p.fewest.beyond
        );
        Some(p.value)
    }

    /// Adds an exact count.
    pub fn count(&mut self, name: &str, value: u64, unit: &'static str) {
        println!("metric {name} = {value} {unit}");
        self.metrics
            .push((name.to_string(), Value::Count(value), unit));
    }

    /// Total operations attempted.
    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(|p| p.attempted).sum()
    }

    /// Total failures.
    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|p| p.failed).sum()
    }

    /// The ways the metrics differ from `expected`: missing, repeated,
    /// unexpected or in another unit, and values that are not finite.
    fn mismatches(&self, expected: &[(&str, &str)]) -> Vec<String> {
        let mut out = Vec::new();
        for &(name, unit) in expected {
            let found: Vec<&str> = self
                .metrics
                .iter()
                .filter(|(n, _, _)| n == name)
                .map(|&(_, _, u)| u)
                .collect();
            match found.as_slice() {
                [] => out.push(format!("metric {name} is missing")),
                [u] if *u == unit => {}
                [u] => out.push(format!("metric {name} is in {u}, not {unit}")),
                _ => out.push(format!("metric {name} is reported {} times", found.len())),
            }
        }
        for (name, value, _) in &self.metrics {
            if !expected.iter().any(|&(n, _)| n == name) {
                out.push(format!("metric {name} is not in the manifest"));
            }
            if let Value::Measured(v) = value {
                if !v.is_finite() {
                    out.push(format!("metric {name} is not a finite number"));
                }
            }
        }
        out
    }

    /// Prints the per-phase tally and, last, the JSON result line. The
    /// metrics must be exactly `expected`.
    pub fn finish(&mut self, expected: &[(&str, &str)]) {
        for why in self.mismatches(expected) {
            self.fail("report", &why);
        }
        for p in &self.phases {
            println!(
                "phase {}: {} attempted, {} failed",
                p.name, p.attempted, p.failed
            );
        }
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed() == 0 && self.attempted() > 0,
            self.attempted().max(1),
            self.failed()
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                json.push_str(", ");
            }
            let value = match *value {
                Value::Measured(v) if v.is_finite() => format!("{v}"),
                Value::Measured(_) => "0".to_string(),
                Value::Count(c) => c.to_string(),
            };
            json.push_str(&format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        json.push_str("}}");
        println!("{json}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_must_hold_exactly_the_expected_metrics() {
        let expected = [("a_s", "s"), ("b", "count")];
        let mut r = Report::default();
        r.attempt("x", 1);
        r.metric("a_s", 1.5, "s");
        assert_eq!(r.mismatches(&expected), vec!["metric b is missing"]);
        r.count("b", 3, "count");
        assert!(r.mismatches(&expected).is_empty());
        r.metric("c", 2.0, "ms");
        r.metric("a_s", f64::NAN, "ms");
        assert_eq!(
            r.mismatches(&expected),
            vec![
                "metric a_s is reported 2 times",
                "metric c is not in the manifest",
                "metric a_s is not a finite number",
            ]
        );
        r.finish(&expected);
        assert_eq!(r.failed(), 3);
    }

    #[test]
    fn the_manifest_lists_are_distinct_and_name_the_shared_layers() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|&(n, _)| n)
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
        for layer in SHARED_LAYERS {
            let share = format!("{layer}.self_pct");
            assert!(PER_LAYER.iter().any(|&(n, u)| n == share && u == "%"));
        }
    }
}
