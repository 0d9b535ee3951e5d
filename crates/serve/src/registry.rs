//! The multi-model registry: named, hot-swappable scoring artifacts.
//!
//! A fleet deployment serves one model per protocol/region/tenant and
//! retrains as traffic drifts, so the server keeps a name → model map
//! instead of a single baked-in artifact. Each value is an
//! `Arc<ModelEntry>` holding the fitted discretizer and the detector
//! (lowered to the compiled engine when the artifact was decoded);
//! `LOAD` of an existing name builds the replacement entry completely
//! *outside* the map lock, then swaps the `Arc` in one `BTreeMap::insert`
//! under it.
//!
//! That swap is the whole atomicity story: a scoring job captures its
//! `Arc<ModelEntry>` once at dispatch, so every row of a batch is scored
//! by exactly one model generation — a batch in flight during a swap
//! finishes on the old entry (kept alive by its `Arc`), and the first
//! batch dispatched after the swap sees the new one. There is no state
//! in between, which is what lets the swap-shaker assert `to_bits`
//! identity before/during/after a live `LOAD`.
//!
//! Lock discipline (cfa-audit D014): the map mutex is held only for
//! `BTreeMap` operations — never across artifact decode (which lowers the
//! ensemble), any socket I/O, or the drop of a displaced model:
//! [`Registry::insert_artifact`] hands the entry it replaced back to the
//! caller, so the reactor answers the `LOAD` before freeing it.

use crate::protocol::{put_name, put_u32, put_u64, valid_name};
use crate::server::lock;
use cfa_core::{AnomalyDetector, ModelArtifact};
use manet_features::EqualFrequencyDiscretizer;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Upper bound on registered models — bounds memory against a client
/// that LOADs unique names in a loop (cfa-audit D007 discipline).
pub const MAX_MODELS: usize = 256;

/// One loaded model: everything a worker needs to score a batch, behind
/// an `Arc` so hot-swap is a pointer swap and in-flight batches keep
/// scoring the generation they started on.
pub struct ModelEntry {
    /// Registry name this entry is (or was) stored under.
    pub name: String,
    /// The fitted equal-frequency discretizer (continuous row → buckets).
    pub disc: EqualFrequencyDiscretizer,
    /// The trained detector, already lowered to the compiled engine.
    pub detector: AnomalyDetector,
    /// Row width the model scores.
    pub n_features: usize,
    /// Per-name swap counter, starting at 1; bumps on every `LOAD` over
    /// an existing name so LIST output shows retrain churn.
    pub generation: u64,
}

/// Why an artifact could not be registered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegistryError {
    /// The name fails [`valid_name`].
    BadName,
    /// The registry already holds [`MAX_MODELS`] other names.
    Full,
}

/// The name → model map, shared by the reactor (LOAD/UNLOAD/LIST/lookup)
/// and nothing else long-lived — workers hold `Arc<ModelEntry>`s, not
/// the registry.
#[derive(Default)]
pub struct Registry {
    models: Mutex<BTreeMap<String, Arc<ModelEntry>>>,
}

impl Registry {
    /// Registers `artifact` under `name`, atomically replacing any
    /// previous entry, and returns the entry it replaced. The artifact
    /// arrives decoded and lowered, before the map lock is taken; the lock
    /// covers only the generation read and the `insert`, and the
    /// displaced entry is freed by the caller, outside it.
    ///
    /// # Errors
    ///
    /// [`RegistryError::BadName`] for an invalid name;
    /// [`RegistryError::Full`] when adding a *new* name would exceed
    /// [`MAX_MODELS`] (swapping an existing name always succeeds).
    pub fn insert_artifact(
        &self,
        name: &str,
        artifact: ModelArtifact,
    ) -> Result<Option<Arc<ModelEntry>>, RegistryError> {
        if !valid_name(name) {
            return Err(RegistryError::BadName);
        }
        let n_features = artifact.discretizer.cards().len();
        let mut entry = ModelEntry {
            name: name.to_string(),
            disc: artifact.discretizer,
            detector: artifact.detector,
            n_features,
            generation: 1,
        };
        let mut map = lock(&self.models);
        // audit: allow(D014, reason = "BTreeMap::get on the guarded map itself; the analyzer name-resolves it to lock-taking workspace methods")
        match map.get(name) {
            Some(prev) => entry.generation = prev.generation + 1,
            // audit: allow(D014, reason = "BTreeMap::len on the guarded map itself; no second lock is acquired")
            None if map.len() >= MAX_MODELS => return Err(RegistryError::Full),
            None => {}
        }
        // audit: allow(D014, reason = "BTreeMap::insert on the guarded map itself; the registry holds its single lock only here")
        Ok(map.insert(entry.name.clone(), Arc::new(entry)))
    }

    /// The current entry for `name`, if registered.
    pub fn get(&self, name: &str) -> Option<Arc<ModelEntry>> {
        lock(&self.models).get(name).cloned()
    }

    /// Drops `name` from the map and hands back its entry, if it was
    /// registered; in-flight batches against it finish on their captured
    /// `Arc`. The caller chooses when to free the model: the lock is
    /// released before this returns.
    pub fn remove(&self, name: &str) -> Option<Arc<ModelEntry>> {
        lock(&self.models).remove(name)
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        lock(&self.models).len()
    }

    /// Whether no models are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends the LIST response body — `[u32 count]` then per model
    /// `[u8 name_len] name [u32 n_features] [u64 generation]` — in
    /// `BTreeMap` (lexicographic) order, so output is deterministic
    /// (cfa-audit D001 keeps hash maps out of this crate).
    pub fn list_into(&self, resp: &mut Vec<u8>) {
        let map = lock(&self.models);
        // audit: allow(D014, reason = "BTreeMap::len on the guarded map itself; the encode loop takes no further locks")
        put_u32(resp, map.len() as u32);
        for entry in map.values() {
            // audit: allow(D014, reason = "pure byte-append encoder under the single registry lock; no lock-taking callee")
            put_name(resp, &entry.name);
            put_u32(resp, entry.n_features as u32);
            put_u64(resp, entry.generation);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cfa_core::{CrossFeatureModel, FittedThreshold, ScoreMethod};
    use cfa_ml::{AnyLearner, Learner, NaiveBayes};
    use manet_features::FeatureMatrix;

    /// A naive Bayes artifact over three correlated features.
    pub(crate) fn tiny_artifact(threshold: f64) -> ModelArtifact {
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
        let models: Vec<cfa_ml::AnyModel> = (0..table.n_cols())
            .map(|i| learner.fit(&table, i))
            .collect();
        let detector = AnomalyDetector::with_threshold(
            CrossFeatureModel::from_sub_models(models),
            ScoreMethod::AvgProbability,
            threshold,
        );
        ModelArtifact {
            spec: None,
            discretizer: disc,
            detector,
            fitted: FittedThreshold {
                threshold,
                false_alarm_rate: 0.01,
            },
            smoothing: 1,
        }
    }

    fn insert(reg: &Registry, name: &str, threshold: f64) -> Arc<ModelEntry> {
        reg.insert_artifact(name, tiny_artifact(threshold)).unwrap();
        reg.get(name).unwrap()
    }

    #[test]
    fn insert_get_remove_lifecycle() {
        let reg = Registry::default();
        assert!(reg.is_empty());
        let entry = insert(&reg, "alpha", 0.25);
        assert_eq!(entry.generation, 1);
        assert_eq!(entry.n_features, 3);
        assert!(reg.get("alpha").is_some());
        assert!(reg.get("beta").is_none());
        assert!(reg.remove("alpha").is_some());
        assert!(reg.remove("alpha").is_none());
    }

    #[test]
    fn swap_bumps_generation_and_replaces_atomically() {
        let reg = Registry::default();
        insert(&reg, "m", 0.25);
        let held = reg.get("m").unwrap();
        let swapped = insert(&reg, "m", 0.75);
        assert_eq!(swapped.generation, 2);
        // The held Arc still scores the old generation.
        assert_eq!(held.detector.threshold().to_bits(), 0.25f64.to_bits());
        assert_eq!(
            reg.get("m").unwrap().detector.threshold().to_bits(),
            0.75f64.to_bits()
        );
    }

    #[test]
    fn a_swap_hands_back_the_displaced_entry() {
        let reg = Registry::default();
        let first = reg.insert_artifact("m", tiny_artifact(0.25)).unwrap();
        assert!(first.is_none(), "a new name displaces nothing");
        let old = reg
            .insert_artifact("m", tiny_artifact(0.75))
            .unwrap()
            .expect("the swap hands back the entry it replaced");
        assert_eq!(old.generation, 1);
        assert_eq!(old.detector.threshold().to_bits(), 0.25f64.to_bits());
        // The map holds no reference: dropping `old` frees the model.
        assert_eq!(Arc::strong_count(&old), 1);
        assert_eq!(reg.get("m").unwrap().generation, 2);
    }

    #[test]
    fn remove_hands_back_the_entry() {
        let reg = Registry::default();
        insert(&reg, "m", 0.25);
        let removed = reg
            .remove("m")
            .expect("a registered name hands back its entry");
        assert_eq!(removed.detector.threshold().to_bits(), 0.25f64.to_bits());
        assert!(reg.get("m").is_none());
        // The map holds no reference: dropping `removed` frees the model.
        assert_eq!(Arc::strong_count(&removed), 1);
    }

    #[test]
    fn bad_names_and_overflow_are_typed() {
        let reg = Registry::default();
        assert!(matches!(
            reg.insert_artifact("not ok", tiny_artifact(0.25)),
            Err(RegistryError::BadName)
        ));
        for i in 0..MAX_MODELS {
            insert(&reg, &format!("m{i}"), 0.25);
        }
        assert!(matches!(
            reg.insert_artifact("one-too-many", tiny_artifact(0.25)),
            Err(RegistryError::Full)
        ));
        // Swapping an existing name still works at the cap.
        assert_eq!(insert(&reg, "m0", 0.5).generation, 2);
    }

    #[test]
    fn list_body_is_sorted_and_decodable() {
        let reg = Registry::default();
        insert(&reg, "zeta", 0.25);
        insert(&reg, "alpha", 0.25);
        let mut body = Vec::new();
        reg.list_into(&mut body);
        assert_eq!(crate::protocol::u32_le(&body), Some(2));
        let (first, rest) = crate::protocol::parse_name(&body[4..]).unwrap();
        assert_eq!(first, "alpha");
        let (second, _) = crate::protocol::parse_name(&rest[12..]).unwrap();
        assert_eq!(second, "zeta");
    }
}
