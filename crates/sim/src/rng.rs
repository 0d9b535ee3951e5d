//! Deterministic random-number streams.
//!
//! Every stochastic component (mobility of each node, each agent, each
//! traffic source, the radio) draws from its own independent stream derived
//! from the scenario's master seed, so results are reproducible regardless
//! of event interleaving changes in unrelated components.

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The RNG used throughout the simulator (a small, fast, seedable PRNG).
pub type SimRng = SmallRng;

/// Derives an independent child stream from a master seed and a stream
/// label.
///
/// The derivation mixes `label` into the seed with a SplitMix64-style
/// finalizer so adjacent labels produce unrelated streams.
///
/// ```
/// use manet_sim::rng::derive_stream;
/// use rand::Rng;
/// let mut a = derive_stream(1, 100);
/// let mut b = derive_stream(1, 101);
/// assert_ne!(a.gen::<u64>(), b.gen::<u64>());
/// ```
pub fn derive_stream(master_seed: u64, label: u64) -> SimRng {
    let mut z = master_seed ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    SimRng::seed_from_u64(z)
}

/// Stream labels for the simulator's own components. Agents and apps use
/// labels offset by their node/app index (see [`StreamLabel`]).
#[derive(Debug, Clone, Copy)]
pub enum StreamLabel {
    /// The radio model's loss/jitter stream.
    Radio,
    /// Mobility stream of one node.
    Mobility(u16),
    /// Protocol agent stream of one node.
    Agent(u16),
    /// Application stream of one traffic endpoint.
    App(u32),
}

impl StreamLabel {
    /// Encodes the label as a unique 64-bit value.
    pub fn encode(self) -> u64 {
        match self {
            StreamLabel::Radio => 1,
            StreamLabel::Mobility(n) => 0x1_0000 + n as u64,
            StreamLabel::Agent(n) => 0x2_0000 + n as u64,
            StreamLabel::App(a) => 0x3_0000_0000 + a as u64,
        }
    }

    /// Derives this component's stream from the master seed.
    pub fn stream(self, master_seed: u64) -> SimRng {
        derive_stream(master_seed, self.encode())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn streams_are_deterministic() {
        let mut a = derive_stream(7, 3);
        let mut b = derive_stream(7, 3);
        for _ in 0..10 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn labels_do_not_collide() {
        let labels = [
            StreamLabel::Radio.encode(),
            StreamLabel::Mobility(0).encode(),
            StreamLabel::Mobility(1).encode(),
            StreamLabel::Agent(0).encode(),
            StreamLabel::Agent(1).encode(),
            StreamLabel::App(0).encode(),
        ];
        let mut sorted = labels.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), labels.len());
    }
}
