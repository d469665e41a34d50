//! Language-model substrate kernels: BPE training/encoding, n-gram
//! perplexity, retrieval queries, and the whole paper-default training
//! run behind `Artisan::new(ArtisanOptions::paper_default())`.

use artisan_dataset::corpus::generate_corpus;
use artisan_dataset::{DatasetConfig, OpampDataset};
use artisan_llm::{BpeTokenizer, DomainLm, NgramLm, TfIdfIndex};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use std::hint::black_box;

fn bench_llm(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let docs = generate_corpus(&mut rng, 30);
    let refs: Vec<&str> = docs.iter().map(String::as_str).collect();

    let mut group = c.benchmark_group("llm");
    group.sample_size(10);
    group.bench_function("bpe/train_30docs_1k_vocab", |b| {
        b.iter(|| black_box(BpeTokenizer::train(black_box(&refs), 1000)))
    });

    let tok = BpeTokenizer::train(&refs, 1000);
    group.bench_function("bpe/encode_doc", |b| {
        b.iter(|| black_box(tok.encode(black_box(&docs[0]))))
    });

    let mut lm = NgramLm::new(3, tok.vocab_size() + 1);
    for d in &docs {
        lm.observe(&tok.encode(d));
    }
    let probe = tok.encode(&docs[1]);
    group.bench_function("ngram/perplexity_doc", |b| {
        b.iter(|| black_box(lm.perplexity(black_box(&probe))))
    });

    let mut idx = TfIdfIndex::new();
    for d in &docs {
        idx.add_document(d);
    }
    idx.finalize();
    group.bench_function("tfidf/query_top5", |b| {
        b.iter(|| black_box(idx.query("miller compensation dominant pole", 5)))
    });

    // The agent's whole training: the 1/1000-scale dataset, DAPT and SFT
    // at the agent's vocabulary budget and order.
    group.bench_function("train/paper_default", |b| {
        b.iter(|| {
            let dataset = OpampDataset::build(&DatasetConfig::default(), 2024);
            let mut lm = DomainLm::new(1500, 3);
            lm.pretrain(&dataset.pretraining_documents());
            lm.fine_tune(&dataset.fine_tuning_pairs());
            black_box(lm)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_llm);
criterion_main!(benches);
