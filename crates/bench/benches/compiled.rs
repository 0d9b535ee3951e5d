//! Criterion micro-benchmarks: interpreted vs compiled execution engine.
//!
//! Two layers of comparison, both at the paper's 140-feature width:
//! one lowered sub-model per family against its interpreted form, and the
//! full 140-sub-model ensemble scored per-row and in structure-of-arrays
//! batch order. The compiled engine is `to_bits`-identical to the
//! interpreted ensemble (the determinism shaker proves it), so these
//! numbers are pure execution-cost deltas, not accuracy trade-offs.

use cfa_core::{CrossFeatureModel, Parallelism, ScoreMethod};
use cfa_ml::{
    AnyLearner, Classifier, CompiledMethod, CompiledModel, Learner, NaiveBayes, NominalTable,
    Ripper, C45,
};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::{Rng, SeedableRng};

fn paper_width_table(rows: usize, seed: u64) -> NominalTable {
    let cols = 140;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let data: Vec<Vec<u8>> = (0..rows)
        .map(|_| {
            let base: u8 = rng.gen_range(0..5);
            (0..cols)
                .map(|_| {
                    if rng.gen_bool(0.5) {
                        base
                    } else {
                        rng.gen_range(0..5)
                    }
                })
                .collect()
        })
        .collect();
    NominalTable::new(
        (0..cols).map(|i| format!("f{i}")).collect(),
        vec![5; cols],
        data,
    )
    .expect("valid table")
}

/// One sub-model per family predicting column 0 of the paper-width table:
/// the interpreted `class_probs_into` walk vs the same model lowered to
/// its flat executable form.
fn bench_compiled_models(c: &mut Criterion) {
    let mut group = c.benchmark_group("compiled_model");
    let table = paper_width_table(400, 3);
    let row = table.row_vec(0);
    for (name, learner) in [
        ("c45", AnyLearner::C45(C45::default())),
        ("ripper", AnyLearner::Ripper(Ripper::default())),
        ("nbc", AnyLearner::Bayes(NaiveBayes::default())),
    ] {
        let model = learner.fit(&table, 0);
        let compiled = CompiledModel::compile(&model, 0);
        let mut probs = Vec::new();
        group.bench_function(format!("{name}_probs_interpreted"), |b| {
            b.iter(|| model.class_probs_into(&row, 0, &mut probs))
        });
        group.bench_function(format!("{name}_probs_compiled"), |b| {
            b.iter(|| compiled.class_probs_into(&row, &mut probs))
        });
    }
    group.finish();
}

/// The deployed-monitor workload: the full 140-sub-model ensemble, one
/// event at a time and as a 2 000-row batch, interpreted vs compiled
/// (structure-of-arrays order for the batch).
fn bench_compiled_ensemble(c: &mut Criterion) {
    let mut group = c.benchmark_group("compiled_ensemble");
    group.sample_size(10);
    let table = paper_width_table(1000, 3);
    let model = CrossFeatureModel::train(&AnyLearner::Bayes(NaiveBayes::default()), &table);
    let engine = model.compile();
    let row = table.row_vec(0);
    let events = paper_width_table(2000, 7);
    let packed: Vec<u8> = events.to_rows().into_iter().flatten().collect();

    let mut scratch = Vec::new();
    group.bench_function("140_submodels_row_prob_interpreted", |b| {
        b.iter(|| model.score_with(&row, ScoreMethod::AvgProbability, &mut scratch))
    });
    group.bench_function("140_submodels_row_prob_compiled", |b| {
        b.iter(|| engine.score_row(&row, CompiledMethod::AvgProbability, &mut scratch))
    });
    group.bench_function("140_submodels_row_match_interpreted", |b| {
        b.iter(|| model.score_with(&row, ScoreMethod::MatchCount, &mut scratch))
    });
    group.bench_function("140_submodels_row_match_compiled", |b| {
        b.iter(|| engine.score_row(&row, CompiledMethod::MatchCount, &mut scratch))
    });

    let mut out = Vec::new();
    group.bench_function("140_submodels_2k_rows_interpreted_serial", |b| {
        b.iter(|| model.scores_with(&events, ScoreMethod::AvgProbability, Parallelism::serial()))
    });
    group.bench_function("140_submodels_2k_rows_compiled_soa", |b| {
        b.iter(|| {
            engine.score_batch(
                &packed,
                CompiledMethod::AvgProbability,
                &mut out,
                &mut scratch,
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_compiled_models, bench_compiled_ensemble);
criterion_main!(benches);
