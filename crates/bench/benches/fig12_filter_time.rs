//! Figure 12: VFILTER filtering time of Q1–Q4 against automata built from
//! growing view sets (the paper uses 1000..8000 views).
//!
//! Knob: `XVR_BENCH_SETS` — comma-separated sizes (default
//! "1000,2000,4000,8000").

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use xvr_bench::{paper_document, test_queries, view_sets};
use xvr_core::filter::{build_nfa, filter_views_metered, FilterOptions};
use xvr_core::StageCounters;
use xvr_pattern::parse_pattern_with;

fn sizes() -> Vec<usize> {
    std::env::var("XVR_BENCH_SETS")
        .unwrap_or_else(|_| "1000,2000,4000,8000".to_owned())
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect()
}

fn fig12(c: &mut Criterion) {
    let doc = paper_document(0.002, 0x5eed);
    let sizes = sizes();
    let sets = view_sets(&doc, &sizes, 0xF1);
    let nfas: Vec<_> = sets.iter().map(build_nfa).collect();
    let mut labels = doc.labels.clone();
    let queries: Vec<_> = test_queries()
        .into_iter()
        .map(|tq| (tq.name, parse_pattern_with(tq.xpath, &mut labels).unwrap()))
        .collect();

    let mut group = c.benchmark_group("fig12_filter_time");
    for ((size, set), nfa) in sizes.iter().zip(sets.iter()).zip(nfas.iter()) {
        for (name, q) in &queries {
            group.bench_with_input(BenchmarkId::new(*name, size), q, |b, q| {
                b.iter(|| {
                    filter_views_metered(
                        q,
                        set,
                        nfa,
                        FilterOptions::default(),
                        &mut StageCounters::new(),
                    )
                    .candidates
                    .len()
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, fig12);
criterion_main!(benches);
