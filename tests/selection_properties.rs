//! Properties of the selection algorithms: minimality of the heuristic,
//! minimum ≤ heuristic cardinality, and filter/selection consistency.

use proptest::prelude::*;

use xvr_core::filter::{build_nfa, filter_views_metered, FilterOptions};
use xvr_core::leafcover::Obligations;
use xvr_core::select::{select_heuristic_metered, select_minimum_metered};
use xvr_core::{StageCounters, ViewSet};
use xvr_pattern::distinct_positive_patterns;
use xvr_pattern::generator::{QueryConfig, QueryGenerator};
use xvr_xml::generator::{generate, Config};

fn workload(
    doc_seed: u64,
    view_seed: u64,
    n_views: usize,
) -> (xvr_xml::Document, ViewSet, xvr_core::Nfa) {
    let doc = generate(&Config::tiny(doc_seed));
    let patterns =
        distinct_positive_patterns(&doc, QueryConfig::paper_view_workload(view_seed), n_views);
    let mut views = ViewSet::new();
    for p in patterns {
        views.add(p);
    }
    let nfa = build_nfa(&views);
    (doc, views, nfa)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The heuristic result is minimal: no unit can be dropped; and the
    /// exhaustive minimum never uses more views.
    #[test]
    fn heuristic_minimal_and_minimum_no_larger(
        doc_seed in 0u64..500,
        view_seed in 0u64..500,
        query_seed in 0u64..500,
    ) {
        let (doc, views, nfa) = workload(doc_seed, view_seed, 30);
        let mut gen = QueryGenerator::new(&doc.fst, QueryConfig::paper_query_workload(query_seed));
        for _ in 0..5 {
            let Some(q) = gen.generate_positive(&doc, 30) else { continue };
            let mut counters = StageCounters::new();
            let outcome = filter_views_metered(&q, &views, &nfa, FilterOptions::default(), &mut counters);
            let ob = Obligations::of(&q);
            let heuristic = select_heuristic_metered(&q, &views, &outcome, &ob, &mut counters);
            let minimum = select_minimum_metered(&q, &views, &outcome.candidates, &ob, 4, &mut counters);
            match (&heuristic, &minimum) {
                (Some(h), Some(m)) => {
                    prop_assert!(
                        m.view_ids().len() <= h.view_ids().len(),
                        "minimum {} > heuristic {} on {}",
                        m.view_ids().len(), h.view_ids().len(), q.display(&doc.labels)
                    );
                }
                // The heuristic may fail where the exhaustive search
                // succeeds (greedy commitment), but not vice versa.
                (Some(_), None) => prop_assert!(false,
                    "heuristic answered but minimum did not: {}", q.display(&doc.labels)),
                _ => {}
            }
        }
    }

    /// Filtering does not change answerability: the minimum selection over
    /// all views succeeds iff it succeeds over the filtered candidates
    /// (VFILTER keeps every view that has a homomorphism into the query).
    #[test]
    fn filtering_preserves_answerability(
        doc_seed in 0u64..500,
        view_seed in 0u64..500,
        query_seed in 0u64..500,
    ) {
        let (doc, views, nfa) = workload(doc_seed, view_seed, 25);
        let all: Vec<_> = views.ids().collect();
        let mut gen = QueryGenerator::new(&doc.fst, QueryConfig::paper_query_workload(query_seed));
        for _ in 0..4 {
            let Some(q) = gen.generate_positive(&doc, 30) else { continue };
            let mut counters = StageCounters::new();
            let outcome = filter_views_metered(&q, &views, &nfa, FilterOptions::default(), &mut counters);
            let ob = Obligations::of(&q);
            let unfiltered = select_minimum_metered(&q, &views, &all, &ob, 3, &mut counters);
            let filtered = select_minimum_metered(&q, &views, &outcome.candidates, &ob, 3, &mut counters);
            prop_assert_eq!(
                unfiltered.is_some(),
                filtered.is_some(),
                "filtering changed answerability of {}",
                q.display(&doc.labels)
            );
            if let (Some(u), Some(f)) = (unfiltered, filtered) {
                prop_assert_eq!(u.view_ids().len(), f.view_ids().len());
            }
        }
    }
}

/// The candidate set always contains every view the selection ends up
/// using (selection never reaches outside the filter output).
#[test]
fn selection_uses_only_candidates() {
    let (doc, views, nfa) = workload(3, 4, 40);
    let mut gen = QueryGenerator::new(&doc.fst, QueryConfig::paper_query_workload(5));
    for _ in 0..20 {
        let Some(q) = gen.generate_positive(&doc, 30) else {
            continue;
        };
        let mut counters = StageCounters::new();
        let outcome =
            filter_views_metered(&q, &views, &nfa, FilterOptions::default(), &mut counters);
        let ob = Obligations::of(&q);
        if let Some(sel) = select_heuristic_metered(&q, &views, &outcome, &ob, &mut counters) {
            for v in sel.view_ids() {
                assert!(outcome.candidates.contains(&v));
            }
        }
    }
}
