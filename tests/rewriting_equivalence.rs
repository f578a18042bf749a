//! The headline correctness property: whenever the system answers a query
//! from materialized views, the answer equals direct evaluation on the base
//! document — across random documents, view sets, and queries.

use proptest::prelude::*;

use xvr_core::{
    rewrite_metered, rewrite_scan_metered, AnswerError, Engine, EngineConfig, QueryOptions,
    RewriteCache, StageCounters, Strategy,
};
use xvr_pattern::distinct_positive_patterns;
use xvr_pattern::generator::{QueryConfig, QueryGenerator};
use xvr_xml::generator::{generate, Config};

fn run_trial(doc_seed: u64, view_seed: u64, query_seed: u64, n_views: usize) -> (usize, usize) {
    let doc = generate(&Config::tiny(doc_seed));
    let views =
        distinct_positive_patterns(&doc, QueryConfig::paper_view_workload(view_seed), n_views);
    let mut engine = Engine::new(doc, EngineConfig::default());
    for v in views {
        engine.add_view(v).unwrap();
    }
    let doc = engine.doc().clone();
    let snap = engine.snapshot();
    let mut gen = QueryGenerator::new(&doc.fst, QueryConfig::paper_query_workload(query_seed));
    let mut answered = 0usize;
    let mut total = 0usize;
    for _ in 0..8 {
        let Some(q) = gen.generate_positive(&doc, 30) else {
            continue;
        };
        total += 1;
        let reference = snap
            .query(&q, &QueryOptions::strategy(Strategy::Bn))
            .answer
            .unwrap()
            .codes;
        for strategy in [Strategy::Mv, Strategy::Hv, Strategy::Cb] {
            match snap.query(&q, &QueryOptions::strategy(strategy)).answer {
                Ok(a) => {
                    assert_eq!(
                        a.codes,
                        reference,
                        "{strategy} wrong on {} (doc {doc_seed}, views {view_seed})",
                        q.display(&doc.labels)
                    );
                    answered += 1;
                }
                Err(AnswerError::NotAnswerable) => {}
                Err(e) => panic!("{strategy}: {e}"),
            }
        }
    }
    (answered, total)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random workloads: view answers must equal direct evaluation.
    #[test]
    fn view_answers_equal_direct_evaluation(
        doc_seed in 0u64..1000,
        view_seed in 0u64..1000,
        query_seed in 0u64..1000,
    ) {
        run_trial(doc_seed, view_seed, query_seed, 30);
    }
}

/// Join differential: the galloping flat-code join — uncached, and twice
/// through a `RewriteCache` shared by the whole seed — and the legacy
/// scan-merge join return identical results on the identical selection,
/// under both `Mv` and `Hv`. Selection does not depend on the join, so this
/// covers every answer the pipeline serves for these strategies; the
/// served answer is checked against the scan join too. The oracle sweeps
/// the same property as `join_equivalence` over full XMark-like cases in
/// CI.
#[test]
fn galloping_and_scan_joins_agree() {
    let mut checked = [0usize; 2];
    for seed in 0..6u64 {
        let doc = generate(&Config::tiny(seed));
        let views =
            distinct_positive_patterns(&doc, QueryConfig::paper_view_workload(seed + 31), 30);
        let mut engine = Engine::new(doc, EngineConfig::default());
        for v in views {
            engine.add_view(v).unwrap();
        }
        let snap = engine.snapshot();
        let doc = snap.doc();
        let cache = RewriteCache::new();
        let mut gen = QueryGenerator::new(
            &doc.fst,
            QueryConfig::paper_query_workload(seed.wrapping_add(62)),
        );
        for _ in 0..8 {
            let Some(q) = gen.generate_positive(doc, 30) else {
                continue;
            };
            for (i, strategy) in [Strategy::Mv, Strategy::Hv].into_iter().enumerate() {
                let (Some(sel), _, _) = snap.lookup(&q, strategy, &mut StageCounters::new()) else {
                    continue;
                };
                let (views, store) = (snap.views(), snap.store());
                let gallop = |cache| {
                    rewrite_metered(
                        &q,
                        &sel,
                        views,
                        store,
                        &doc.fst,
                        cache,
                        &mut StageCounters::new(),
                    )
                };
                let scan =
                    rewrite_scan_metered(&q, &sel, store, &doc.fst, &mut StageCounters::new());
                let what = format!("{strategy} on {} (seed {seed})", q.display(&doc.labels));
                assert_eq!(gallop(None), scan, "uncached join disagrees: {what}");
                for pass in 0..2 {
                    assert_eq!(
                        gallop(Some(&cache)),
                        scan,
                        "cached join disagrees (pass {pass}): {what}"
                    );
                }
                let served = snap.query(&q, &QueryOptions::strategy(strategy)).answer;
                assert_eq!(
                    served.map(|a| a.codes).ok(),
                    scan.ok(),
                    "served answer disagrees: {what}"
                );
                checked[i] += 1;
            }
        }
    }
    assert!(
        checked.iter().all(|&n| n > 0),
        "differential never exercised the joins (Mv {}, Hv {})",
        checked[0],
        checked[1]
    );
}

/// Aggregate sanity: across many seeds, a healthy fraction of queries is
/// actually answered from views (guards against vacuous success).
#[test]
fn answering_rate_is_nontrivial() {
    let mut answered = 0usize;
    let mut total = 0usize;
    for seed in 0..12u64 {
        let (a, t) = run_trial(seed, seed.wrapping_add(77), seed.wrapping_add(154), 40);
        answered += a;
        total += t;
    }
    assert!(total >= 50, "generator starved: {total}");
    assert!(
        answered * 10 >= total,
        "answered only {answered} of {total} strategy-queries"
    );
}
