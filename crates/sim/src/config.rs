//! Scenario configuration.

use crate::time::SimTime;

/// Parameters of a simulation scenario.
///
/// Defaults match the experimental setup of §4.1 of the paper: a
/// 1000 m × 1000 m field, random-waypoint mobility with 20 m/s maximum
/// speed and 10 000 s of virtual time. The settings no scenario varies are
/// constants with the paper's values: [`SimConfig::PAUSE`],
/// [`SimConfig::MOBILITY_SAMPLE_INTERVAL`], [`SimConfig::BANDWIDTH_BPS`]
/// and [`SimConfig::MAC_JITTER`]. Nodes always overhear unicast frames
/// addressed to others, which DSR's eavesdropping route learning needs.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of nodes in the network.
    pub n_nodes: u16,
    /// Field width in metres.
    pub width: f64,
    /// Field height in metres.
    pub height: f64,
    /// Radio transmission range in metres (ns-2's default 250 m).
    pub range: f64,
    /// Interference range in metres, within which concurrent transmissions
    /// raise the loss probability (ns-2's default carrier-sense 550 m).
    pub interference_range: f64,
    /// Baseline frame-loss probability on an in-range link.
    pub base_loss: f64,
    /// Random-waypoint maximum speed, m/s.
    pub max_speed: f64,
    /// Total virtual duration of the run.
    pub duration: SimTime,
    /// Master seed from which all component RNG streams derive.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            n_nodes: 50,
            width: 1000.0,
            height: 1000.0,
            range: 250.0,
            interference_range: 550.0,
            base_loss: 0.005,
            max_speed: 20.0,
            duration: SimTime::from_secs(10_000.0),
            seed: 1,
        }
    }
}

impl SimConfig {
    /// Random-waypoint pause time: the paper's 10 s.
    pub const PAUSE: SimTime = SimTime::from_micros(10_000_000);

    /// Interval between the mobility samples written to node traces: 5 s,
    /// the paper's snapshot period.
    pub const MOBILITY_SAMPLE_INTERVAL: SimTime = SimTime::from_micros(5_000_000);

    /// Link bandwidth in bits/s (2 Mb/s, the classic 802.11 ns-2 setting).
    pub const BANDWIDTH_BPS: f64 = 2_000_000.0;

    /// Upper end of the uniform MAC queueing/backoff jitter added to each
    /// transmission, in seconds.
    pub const MAC_JITTER: f64 = 0.002;

    /// Starts building a configuration from the paper's defaults.
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder::default()
    }

    /// Validates invariants the simulator relies on.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_nodes == 0 {
            return Err("n_nodes must be at least 1".into());
        }
        if self.width <= 0.0 || self.height <= 0.0 {
            return Err("field dimensions must be positive".into());
        }
        if self.range <= 0.0 {
            return Err("radio range must be positive".into());
        }
        if self.interference_range < self.range {
            return Err("interference range must be >= radio range".into());
        }
        if !(0.0..1.0).contains(&self.base_loss) {
            return Err("base_loss must be in [0, 1)".into());
        }
        if self.max_speed <= 0.0 {
            return Err("max_speed must be positive".into());
        }
        Ok(())
    }
}

/// Builder for [`SimConfig`].
///
/// ```
/// use manet_sim::SimConfig;
/// let cfg = SimConfig::builder().nodes(30).seed(9).duration_secs(100.0).build();
/// assert_eq!(cfg.n_nodes, 30);
/// ```
#[derive(Debug, Default, Clone)]
pub struct SimConfigBuilder {
    cfg: SimConfig,
}

impl SimConfigBuilder {
    /// Sets the number of nodes.
    pub fn nodes(mut self, n: u16) -> Self {
        self.cfg.n_nodes = n;
        self
    }

    /// Sets the field dimensions in metres.
    pub fn field(mut self, width: f64, height: f64) -> Self {
        self.cfg.width = width;
        self.cfg.height = height;
        self
    }

    /// Sets the radio range in metres.
    pub fn range(mut self, metres: f64) -> Self {
        self.cfg.range = metres;
        self
    }

    /// Sets the run duration in seconds.
    pub fn duration_secs(mut self, secs: f64) -> Self {
        self.cfg.duration = SimTime::from_secs(secs);
        self
    }

    /// Sets the baseline frame-loss probability.
    pub fn base_loss(mut self, p: f64) -> Self {
        self.cfg.base_loss = p;
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Finishes the build.
    ///
    /// # Panics
    ///
    /// Panics if the resulting configuration is invalid (see
    /// [`SimConfig::validate`]).
    pub fn build(self) -> SimConfig {
        if let Err(e) = self.cfg.validate() {
            panic!("invalid SimConfig: {e}"); // audit: allow(D006, reason = "documented panic contract: build() rejects invalid configurations at setup time")
        }
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let c = SimConfig::default();
        assert_eq!(c.width, 1000.0);
        assert_eq!(c.height, 1000.0);
        assert_eq!(SimConfig::PAUSE.as_secs(), 10.0);
        assert_eq!(c.max_speed, 20.0);
        assert_eq!(c.duration.as_secs(), 10_000.0);
        assert_eq!(SimConfig::MOBILITY_SAMPLE_INTERVAL.as_secs(), 5.0);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builder_overrides() {
        let c = SimConfig::builder()
            .nodes(5)
            .field(200.0, 300.0)
            .range(100.0)
            .duration_secs(10.0)
            .base_loss(0.0)
            .seed(99)
            .build();
        assert_eq!(c.n_nodes, 5);
        assert_eq!(c.width, 200.0);
        assert_eq!(c.height, 300.0);
        assert_eq!(c.range, 100.0);
        assert_eq!(c.base_loss, 0.0);
        assert_eq!(c.seed, 99);
    }

    #[test]
    #[should_panic(expected = "invalid SimConfig")]
    fn build_rejects_zero_nodes() {
        let _ = SimConfig::builder().nodes(0).build();
    }

    #[test]
    fn validate_catches_bad_interference_range() {
        let c = SimConfig {
            interference_range: 10.0,
            ..SimConfig::default()
        };
        assert!(c.validate().is_err());
    }
}
