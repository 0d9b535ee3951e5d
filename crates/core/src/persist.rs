//! The `CFAM` artifact container: the full trained detector on disk.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//!      0     4  magic  b"CFAM"
//!      4     2  format version (currently 1)
//!      6     8  payload length in bytes
//!     14     8  FNV-1a 64 checksum of the payload bytes
//!     22     n  payload (ModelArtifact encoding, see below)
//! ```
//!
//! The payload is the [`cfa_ml::Persist`] encoding of a [`ModelArtifact`]:
//! optional [`FeatureSpec`], fitted [`EqualFrequencyDiscretizer`], score
//! method, the per-feature [`AnyModel`] ensemble, the
//! [`FittedThreshold`], and the smoothing window. Loading is strict —
//! wrong magic, a future version, a bad checksum, truncation, or an
//! oversized declared length each produce a typed
//! [`PersistError`], never a panic — and a loaded
//! artifact reproduces bit-identical scores because every `f64` travels
//! as its exact bit pattern.

use crate::detector::AnomalyDetector;
use crate::model::{CrossFeatureModel, ScoreMethod};
use crate::threshold::FittedThreshold;
use cfa_ml::persist::{fnv1a64, Persist, PersistError, Reader, Writer};
use cfa_ml::AnyModel;
use manet_features::{EqualFrequencyDiscretizer, FeatureSpec};
use std::io::{Read, Write};

/// The four magic bytes opening every artifact.
pub const MAGIC: [u8; 4] = *b"CFAM";

/// The newest artifact format version this build reads and writes.
pub const FORMAT_VERSION: u16 = 1;

/// Cap on the payload a loader will accept (a full 140-feature ensemble
/// is a few MiB; this bounds allocation on a corrupt length field).
pub const MAX_PAYLOAD_BYTES: u64 = 256 << 20;

const HEADER_BYTES: usize = 22;

/// Everything needed to score events exactly as the training process did:
/// the feature layout, the discretization cutpoints, the per-feature
/// classifier ensemble, the scoring method, the fitted threshold with its
/// target false-alarm rate, and the score-smoothing window.
#[derive(Debug)]
pub struct ModelArtifact {
    /// The feature layout the ensemble was trained over, when the
    /// canonical 140-feature spec was used (`None` for ad-hoc tables).
    pub spec: Option<FeatureSpec>,
    /// The fitted equal-frequency discretizer (continuous row → buckets).
    pub discretizer: EqualFrequencyDiscretizer,
    /// The trained detector: ensemble + method + threshold, lowered to
    /// the compiled engine when it was built.
    pub detector: AnomalyDetector,
    /// The threshold/false-alarm-rate pair the detector was calibrated to.
    pub fitted: FittedThreshold,
    /// Trailing moving-average window applied to score streams (1 = none).
    pub smoothing: u32,
}

fn method_tag(m: ScoreMethod) -> u8 {
    match m {
        ScoreMethod::MatchCount => 0,
        ScoreMethod::AvgProbability => 1,
    }
}

fn method_from_tag(t: u8) -> Result<ScoreMethod, PersistError> {
    match t {
        0 => Ok(ScoreMethod::MatchCount),
        1 => Ok(ScoreMethod::AvgProbability),
        _ => Err(PersistError::Malformed("unknown score-method tag")),
    }
}

impl Persist for ModelArtifact {
    fn write_into(&self, w: &mut Writer) {
        match &self.spec {
            None => w.u8(0),
            Some(spec) => {
                w.u8(1);
                spec.write_into(w);
            }
        }
        self.discretizer.write_into(w);
        w.u8(method_tag(self.detector.method()));
        let models = self.detector.model().sub_models();
        w.seq_len(models.len());
        for m in models {
            m.write_into(w);
        }
        w.f64(self.fitted.threshold);
        w.f64(self.fitted.false_alarm_rate);
        w.u32(self.smoothing);
    }

    fn read_from(r: &mut Reader) -> Result<Self, PersistError> {
        let spec = match r.u8()? {
            0 => None,
            1 => Some(FeatureSpec::read_from(r)?),
            _ => return Err(PersistError::Malformed("unknown feature-spec tag")),
        };
        let discretizer = EqualFrequencyDiscretizer::read_from(r)?;
        let method = method_from_tag(r.u8()?)?;
        let n_models = r.seq_len(1)?;
        if n_models == 0 {
            return Err(PersistError::Malformed("artifact holds no sub-models"));
        }
        let mut models = Vec::with_capacity(n_models);
        for _ in 0..n_models {
            models.push(AnyModel::read_from(r)?);
        }
        if models.len() != discretizer.cards().len() {
            return Err(PersistError::Malformed(
                "sub-model count != discretizer column count",
            ));
        }
        // Sub-model i predicts feature i from the other n_models - 1.
        if models.iter().any(|m| m.n_attrs() != n_models - 1) {
            return Err(PersistError::Malformed(
                "sub-model attribute count != feature count - 1",
            ));
        }
        let threshold = r.f64()?;
        let false_alarm_rate = r.f64()?;
        if !(0.0..1.0).contains(&false_alarm_rate) {
            return Err(PersistError::Malformed("false-alarm rate outside [0, 1)"));
        }
        let smoothing = r.u32()?;
        if smoothing == 0 {
            return Err(PersistError::Malformed("smoothing window must be >= 1"));
        }
        let detector = AnomalyDetector::with_threshold(
            CrossFeatureModel::from_sub_models(models),
            method,
            threshold,
        );
        Ok(ModelArtifact {
            spec,
            discretizer,
            detector,
            fitted: FittedThreshold {
                threshold,
                false_alarm_rate,
            },
            smoothing,
        })
    }
}

impl ModelArtifact {
    /// Serializes the artifact into a `CFAM` container. Byte-deterministic:
    /// identical artifacts always produce identical files.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Io`] if the sink fails.
    pub fn save(&self, out: &mut impl Write) -> Result<(), PersistError> {
        let payload = self.to_bytes();
        out.write_all(&MAGIC)?;
        out.write_all(&FORMAT_VERSION.to_le_bytes())?;
        out.write_all(&(payload.len() as u64).to_le_bytes())?;
        out.write_all(&fnv1a64(&payload).to_le_bytes())?;
        out.write_all(&payload)?;
        out.flush()?;
        Ok(())
    }

    /// Loads an artifact from a `CFAM` container, validating magic,
    /// version, payload length, and checksum before decoding.
    ///
    /// # Errors
    ///
    /// Every corruption mode maps to a typed [`PersistError`]: wrong magic
    /// → [`PersistError::BadMagic`], future version →
    /// [`PersistError::UnsupportedVersion`], length over
    /// [`MAX_PAYLOAD_BYTES`] → [`PersistError::TooLarge`], short reads →
    /// [`PersistError::Truncated`], checksum failure →
    /// [`PersistError::ChecksumMismatch`], and structural damage →
    /// [`PersistError::Malformed`].
    pub fn load(input: &mut impl Read) -> Result<ModelArtifact, PersistError> {
        let mut header = [0u8; HEADER_BYTES];
        read_exact_or_truncated(input, &mut header)?;
        // audit: allow(D006, reason = "header is a fixed [u8; 22] array; every range below is statically in bounds")
        if header[0..4] != MAGIC {
            let mut found = [0u8; 4];
            // audit: allow(D006, reason = "statically in-bounds range of the fixed-size header")
            found.copy_from_slice(&header[0..4]);
            return Err(PersistError::BadMagic { found });
        }
        // audit: allow(D006, reason = "statically in-bounds indices of the fixed-size header")
        let version = u16::from_le_bytes([header[4], header[5]]);
        if version > FORMAT_VERSION {
            return Err(PersistError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let mut len8 = [0u8; 8];
        // audit: allow(D006, reason = "statically in-bounds range of the fixed-size header")
        len8.copy_from_slice(&header[6..14]);
        let payload_len = u64::from_le_bytes(len8);
        if payload_len > MAX_PAYLOAD_BYTES {
            return Err(PersistError::TooLarge {
                declared: payload_len,
                cap: MAX_PAYLOAD_BYTES,
            });
        }
        let mut sum8 = [0u8; 8];
        // audit: allow(D006, reason = "statically in-bounds range of the fixed-size header")
        sum8.copy_from_slice(&header[14..22]);
        let expected = u64::from_le_bytes(sum8);

        // Read exactly the declared payload via a limited reader, so even a
        // hostile length field within the cap cannot over-read the source.
        let mut payload = Vec::new();
        input
            .take(payload_len)
            .read_to_end(&mut payload)
            .map_err(PersistError::Io)?;
        if (payload.len() as u64) < payload_len {
            return Err(PersistError::Truncated {
                needed: payload_len,
                available: payload.len() as u64,
            });
        }
        let found = fnv1a64(&payload);
        if found != expected {
            return Err(PersistError::ChecksumMismatch { expected, found });
        }
        ModelArtifact::from_bytes(&payload)
    }
}

/// `read_exact` that reports how far it got instead of a bare
/// `UnexpectedEof`.
fn read_exact_or_truncated(input: &mut impl Read, buf: &mut [u8]) -> Result<(), PersistError> {
    let mut filled = 0;
    while filled < buf.len() {
        // audit: allow(D006, reason = "filled < buf.len() by the loop condition, so the range start is always in bounds")
        match input.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(PersistError::Truncated {
                    needed: buf.len() as u64,
                    available: filled as u64,
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(PersistError::Io(e)),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfa_ml::{AnyLearner, Learner, NaiveBayes, NominalTable};
    use manet_features::FeatureMatrix;

    fn tiny_artifact() -> ModelArtifact {
        // Three correlated continuous columns -> discretizer + ensemble.
        let rows: Vec<Vec<f64>> = (0..60)
            .map(|i| {
                let v = f64::from(i % 10);
                vec![v, v * 2.0, 30.0 - v]
            })
            .collect();
        let matrix = FeatureMatrix {
            names: vec!["a".into(), "b".into(), "c".into()],
            times: (0..60).map(f64::from).collect(),
            rows,
        };
        let disc = EqualFrequencyDiscretizer::fit(&matrix, 5, None, 7);
        let table = disc.transform(&matrix).unwrap();
        let learner = AnyLearner::Bayes(NaiveBayes::default());
        let models: Vec<AnyModel> = (0..table.n_cols())
            .map(|i| learner.fit(&table, i))
            .collect();
        let model = CrossFeatureModel::from_sub_models(models);
        let detector = AnomalyDetector::with_threshold(model, ScoreMethod::AvgProbability, 0.25);
        ModelArtifact {
            spec: None,
            discretizer: disc,
            detector,
            fitted: FittedThreshold {
                threshold: 0.25,
                false_alarm_rate: 0.01,
            },
            smoothing: 1,
        }
    }

    fn saved_bytes(a: &ModelArtifact) -> Vec<u8> {
        let mut out = Vec::new();
        a.save(&mut out).unwrap();
        out
    }

    #[test]
    fn save_load_round_trip_is_bit_identical() {
        let artifact = tiny_artifact();
        let bytes = saved_bytes(&artifact);
        let loaded = ModelArtifact::load(&mut bytes.as_slice()).unwrap();

        assert_eq!(artifact.discretizer, loaded.discretizer);
        assert_eq!(artifact.fitted, loaded.fitted);
        assert_eq!(artifact.smoothing, loaded.smoothing);
        assert_eq!(artifact.detector.method(), loaded.detector.method());
        assert_eq!(
            artifact.detector.threshold().to_bits(),
            loaded.detector.threshold().to_bits()
        );
        assert_eq!(
            artifact.detector.model().sub_models(),
            loaded.detector.model().sub_models()
        );

        // Scores agree bitwise.
        let mut scratch = Vec::new();
        let mut row = Vec::new();
        for v in 0..10 {
            let cont = [f64::from(v), f64::from(v) * 2.0, 30.0 - f64::from(v)];
            artifact.discretizer.transform_row_into(&cont, &mut row);
            let a = artifact.detector.score_snapshot_with(&row, &mut scratch);
            let b = loaded.detector.score_snapshot_with(&row, &mut scratch);
            assert_eq!(a.score.to_bits(), b.score.to_bits());
            assert_eq!(a.verdict, b.verdict);
        }
    }

    #[test]
    fn sub_model_of_the_wrong_width_is_rejected() {
        // Sub-model 2 trained on a four-column table conditions on three
        // attributes where the three-feature ensemble supplies two. No
        // detector can hold it (building one asserts the widths), so its
        // encoding is spliced into valid bytes and the header's length
        // and checksum recomputed: the decoder is what must reject it.
        let artifact = tiny_artifact();
        let wide = NominalTable::new(
            (0..4).map(|i| format!("w{i}")).collect(),
            vec![2; 4],
            (0..8u8).map(|i| vec![i % 2, i / 2 % 2, i / 4, 0]).collect(),
        )
        .unwrap();
        let mut bytes = saved_bytes(&artifact);
        let old = artifact.detector.model().sub_models()[2].to_bytes();
        let at = bytes.windows(old.len()).rposition(|w| w == old).unwrap();
        let wide_model = AnyLearner::Bayes(NaiveBayes::default()).fit(&wide, 2);
        bytes.splice(at..at + old.len(), wide_model.to_bytes());
        let payload_len = (bytes.len() - HEADER_BYTES) as u64;
        bytes[6..14].copy_from_slice(&payload_len.to_le_bytes());
        let sum = fnv1a64(&bytes[HEADER_BYTES..]);
        bytes[14..22].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            ModelArtifact::load(&mut bytes.as_slice()),
            Err(PersistError::Malformed(_))
        ));
    }

    #[test]
    fn saving_twice_is_byte_deterministic() {
        let artifact = tiny_artifact();
        assert_eq!(saved_bytes(&artifact), saved_bytes(&artifact));
    }

    #[test]
    fn flipped_magic_is_rejected() {
        let mut bytes = saved_bytes(&tiny_artifact());
        bytes[0] = b'X';
        assert!(matches!(
            ModelArtifact::load(&mut bytes.as_slice()),
            Err(PersistError::BadMagic { found }) if found[0] == b'X'
        ));
    }

    #[test]
    fn future_version_is_rejected() {
        let mut bytes = saved_bytes(&tiny_artifact());
        bytes[4..6].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        assert!(matches!(
            ModelArtifact::load(&mut bytes.as_slice()),
            Err(PersistError::UnsupportedVersion { found, supported })
                if found == FORMAT_VERSION + 1 && supported == FORMAT_VERSION
        ));
    }

    #[test]
    fn corrupted_payload_fails_the_checksum() {
        let mut bytes = saved_bytes(&tiny_artifact());
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        assert!(matches!(
            ModelArtifact::load(&mut bytes.as_slice()),
            Err(PersistError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn truncation_at_every_byte_is_a_typed_error() {
        let bytes = saved_bytes(&tiny_artifact());
        for cut in 0..bytes.len() {
            let err = ModelArtifact::load(&mut &bytes[..cut])
                .expect_err("truncated artifact must not load");
            assert!(
                !matches!(err, PersistError::Io(_)),
                "cut at {cut} surfaced as raw Io: {err}"
            );
        }
    }

    #[test]
    fn oversized_declared_payload_is_rejected_before_allocation() {
        let mut bytes = saved_bytes(&tiny_artifact());
        bytes[6..14].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            ModelArtifact::load(&mut bytes.as_slice()),
            Err(PersistError::TooLarge { .. })
        ));
    }
}
