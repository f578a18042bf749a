//! Microbenchmarks of the substrates: parsing, Dewey decoding, pattern
//! evaluation engines, the holistic join, and NFA operations. Not a paper
//! figure — these guard the building blocks' performance.

use criterion::{criterion_group, criterion_main, Criterion};

use xvr_core::filter::{build_nfa, filter_views_metered, FilterOptions};
use xvr_core::{StageCounters, ViewSet};
use xvr_pattern::generator::QueryConfig;
use xvr_pattern::{distinct_positive_patterns, eval, eval_bf, eval_bn, parse_pattern_with};
use xvr_xml::generator::{generate, Config};
use xvr_xml::{serialize, NodeIndex, PathIndex};

fn micro(c: &mut Criterion) {
    let doc = generate(&Config::tiny(5));
    let xml = serialize(&doc.tree, &doc.labels);
    c.bench_function("xml_parse_2k_nodes", |b| {
        b.iter(|| xvr_xml::parse_document(&xml).unwrap().len())
    });

    c.bench_function("dewey_code_and_decode", |b| {
        let nodes: Vec<_> = doc.tree.iter().collect();
        b.iter(|| {
            let mut total = 0usize;
            for &n in nodes.iter().step_by(7) {
                let code = doc.dewey.code_of(&doc.tree, n);
                total += doc.fst.decode(code.components()).unwrap().len();
            }
            total
        })
    });

    let mut labels = doc.labels.clone();
    let q = parse_pattern_with("//open_auction[bidder]//increase", &mut labels).unwrap();
    let nidx = NodeIndex::build(&doc.tree, &doc.labels);
    let pidx = PathIndex::build(&doc.tree, &doc.labels);
    c.bench_function("eval_naive", |b| b.iter(|| eval(&q, &doc.tree).len()));
    c.bench_function("eval_bn", |b| {
        b.iter(|| eval_bn(&q, &doc.tree, &nidx).len())
    });
    c.bench_function("eval_bf", |b| b.iter(|| eval_bf(&q, &doc, &pidx).len()));

    let patterns = distinct_positive_patterns(&doc, QueryConfig::paper_view_workload(9), 200);
    c.bench_function("nfa_build_200_views", |b| {
        b.iter(|| {
            let mut set = ViewSet::new();
            for p in &patterns {
                set.add(p.clone());
            }
            build_nfa(&set).state_count()
        })
    });

    let mut set = ViewSet::new();
    for p in &patterns {
        set.add(p.clone());
    }
    let nfa = build_nfa(&set);
    c.bench_function("vfilter_one_query_200_views", |b| {
        b.iter(|| {
            filter_views_metered(
                &q,
                &set,
                &nfa,
                FilterOptions::default(),
                &mut StageCounters::new(),
            )
            .candidates
            .len()
        })
    });
}

criterion_group!(benches, micro);
criterion_main!(benches);
