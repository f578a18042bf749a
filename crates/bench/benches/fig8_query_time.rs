//! Figure 8: query processing time of Q1–Q4 under the five strategies
//! (BN, BF, MN, MV, HV).
//!
//! Knobs (environment): `XVR_BENCH_SCALE` (default 0.01 — roughly 1/50 of
//! the paper's document, same shape), `XVR_BENCH_VIEWS` (default 1000, as
//! in the paper).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use xvr_bench::{build_paper_engine, paper_document, PaperWorkload};
use xvr_core::{QueryOptions, Strategy};

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn workload() -> PaperWorkload {
    let scale = env_f64("XVR_BENCH_SCALE", 0.01);
    let views = env_usize("XVR_BENCH_VIEWS", 1000);
    let doc = paper_document(scale, 0x5eed);
    build_paper_engine(doc, views, 42, usize::MAX)
}

fn fig8(c: &mut Criterion) {
    let w = workload();
    let mut group = c.benchmark_group("fig8_query_time");
    group.sample_size(10);
    for (tq, q) in &w.queries {
        for strategy in Strategy::all() {
            // A fresh snapshot (and so a cold rewrite cache) per answer.
            let answer = || {
                w.engine
                    .snapshot()
                    .query(q, &QueryOptions::strategy(strategy))
                    .answer
            };
            // Stay robust if some strategy cannot answer a query.
            if answer().is_err() {
                continue;
            }
            group.bench_with_input(BenchmarkId::new(strategy.as_str(), tq.name), q, |b, _| {
                b.iter(|| answer().unwrap().codes.len())
            });
        }
    }
    group.finish();
}

criterion_group!(benches, fig8);
criterion_main!(benches);
