//! The paper's evaluation workload, reconstructed.
//!
//! Section VI materializes 1000 positive views over a 56.2 MB XMark
//! document (generator knobs: `max_depth=4`, `prob_wild=prob_edge=0.2`,
//! `num_pred=1`, `num_nestedpath=1`) and runs four test queries "extracted
//! based on the XMark project": Q1 answered by one view, Q2/Q3 by two, Q4
//! by three (Table III). The table's concrete queries are not printed in
//! the paper, so we define four queries over the same schema with exactly
//! those properties, plus the *planted* views that realize them.

use xvr_core::{Engine, EngineConfig, ViewSet};
use xvr_pattern::generator::QueryConfig;
use xvr_pattern::{distinct_patterns, distinct_positive_patterns, TreePattern};
use xvr_xml::generator::{generate, Config};
use xvr_xml::Document;

/// One Table III test query.
#[derive(Clone, Debug)]
pub struct TestQuery {
    /// Q1..Q4.
    pub name: &'static str,
    /// XPath source.
    pub xpath: &'static str,
    /// Number of views the paper says answer it.
    pub expected_views: usize,
}

/// The four test queries (Table III analogues over the XMark schema).
pub fn test_queries() -> Vec<TestQuery> {
    vec![
        TestQuery {
            name: "Q1",
            xpath: "/site/open_auctions/open_auction[bidder]/initial",
            expected_views: 1,
        },
        TestQuery {
            name: "Q2",
            xpath: "/site/people/person[address/city][profile/age]/name",
            expected_views: 2,
        },
        TestQuery {
            name: "Q3",
            xpath: "/site/regions/europe/item[incategory][mailbox/mail/from]/name",
            expected_views: 2,
        },
        TestQuery {
            name: "Q4",
            xpath:
                "/site/open_auctions/open_auction[seller][annotation/author][interval/end]/current",
            expected_views: 3,
        },
    ]
}

/// XPath-expressible approximations of the XMark benchmark queries (value
/// comparisons and joins dropped — our fragment is `/`, `//`, `*`, `[]`,
/// and attribute predicates). Useful as a realistic secondary workload.
pub fn xmark_queries() -> Vec<(&'static str, &'static str)> {
    vec![
        ("X1", "/site/people/person[@id]/name"),
        ("X2", "/site/open_auctions/open_auction/bidder/increase"),
        ("X6", "/site/regions//item"),
        ("X7", "//description//listitem"),
        ("X13", "/site/regions/australia/item[name]/description"),
        ("X14", "//item[description]/name"),
        (
            "X15",
            "/site/closed_auctions/closed_auction/annotation/description/parlist/listitem",
        ),
        ("X17", "/site/people/person[homepage]/name"),
        ("X19", "/site/regions//item[name]/location"),
        (
            "X20",
            "/site/people/person[profile/gender][profile/age]/name",
        ),
    ]
}

/// Views planted so that Q1–Q4 are answerable by exactly 1/2/2/3 views.
pub fn planted_views() -> Vec<&'static str> {
    vec![
        // Q1: answered by itself.
        "/site/open_auctions/open_auction[bidder]/initial",
        // Q2: one view per branch, both anchoring on name.
        "/site/people/person[address/city]/name",
        "/site/people/person[profile/age]/name",
        // Q3: one view per branch.
        "/site/regions/europe/item[incategory]/name",
        "/site/regions/europe/item[mailbox/mail/from]/name",
        // Q4: one view per branch.
        "/site/open_auctions/open_auction[seller]/current",
        "/site/open_auctions/open_auction[annotation/author]/current",
        "/site/open_auctions/open_auction[interval/end]/current",
    ]
}

/// Generate the evaluation document. The paper's document is 56.2 MB
/// (XMark scale ≈ 0.5); `scale` trades fidelity for runtime — 0.01 gives
/// roughly 100k nodes and keeps full benchmark runs in minutes.
pub fn paper_document(scale: f64, seed: u64) -> Document {
    generate(&Config::scale(scale).with_seed(seed))
}

/// A fully built engine with planted + random positive views.
pub struct PaperWorkload {
    /// The engine with all views materialized.
    pub engine: Engine,
    /// Parsed test queries.
    pub queries: Vec<(TestQuery, TreePattern)>,
}

/// Build the Section VI-A workload: `n_views` total (planted first, then
/// random positive views), materialized under `fragment_budget`.
pub fn build_paper_engine(
    doc: Document,
    n_views: usize,
    seed: u64,
    fragment_budget: usize,
) -> PaperWorkload {
    let random = distinct_positive_patterns(
        &doc,
        QueryConfig::paper_query_workload(seed),
        n_views.saturating_sub(planted_views().len()),
    );
    let mut engine = Engine::new(
        doc,
        EngineConfig {
            fragment_budget,
            ..EngineConfig::default()
        },
    );
    for src in planted_views() {
        engine.add_view_str(src).expect("planted view parses");
    }
    for v in random {
        engine.add_view(v).expect("generated view fits the catalog");
    }
    let queries = test_queries()
        .into_iter()
        .map(|tq| {
            let p = engine.parse(tq.xpath).expect("test query parses");
            (tq, p)
        })
        .collect();
    PaperWorkload { engine, queries }
}

/// Build the Section VI-B view sets V1..Vk with the paper's sizes
/// (1000, 2000, …): plain distinct patterns (`num_nestedpath = 2`), no
/// positivity filter, no materialization — these only feed VFILTER.
pub fn view_sets(doc: &Document, sizes: &[usize], seed: u64) -> Vec<ViewSet> {
    let max = sizes.iter().copied().max().unwrap_or(0);
    let all = distinct_patterns(
        &doc.fst,
        &doc.labels,
        QueryConfig::paper_view_workload(seed),
        max,
    );
    sizes
        .iter()
        .map(|&n| {
            let mut set = ViewSet::new();
            for p in all.iter().take(n) {
                set.add(p.clone());
            }
            set
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xvr_core::{Answer, AnswerError, EngineSnapshot, QueryOptions, Strategy};

    fn answer(snap: &EngineSnapshot, q: &TreePattern, s: Strategy) -> Result<Answer, AnswerError> {
        snap.query(q, &QueryOptions::strategy(s)).answer
    }

    /// Table III: with only the planted views, Q1–Q4 are answered by
    /// exactly 1/2/2/3 views, and the answers equal direct evaluation.
    #[test]
    fn table_iii_view_counts() {
        let doc = paper_document(0.002, 7);
        let mut engine = Engine::new(doc, EngineConfig::default());
        for src in planted_views() {
            engine.add_view_str(src).unwrap();
        }
        for tq in test_queries() {
            let q = engine.parse(tq.xpath).unwrap();
            let snap = engine.snapshot();
            let reference = answer(&snap, &q, Strategy::Bn).unwrap();
            assert!(
                !reference.codes.is_empty(),
                "{} is not positive on the test document",
                tq.name
            );
            let a = answer(&snap, &q, Strategy::Hv)
                .unwrap_or_else(|e| panic!("{} not answerable from planted views: {e}", tq.name));
            assert_eq!(a.codes, reference.codes, "{}", tq.name);
            assert_eq!(
                a.views_used.len(),
                tq.expected_views,
                "{} should use {} views, used {:?}",
                tq.name,
                tq.expected_views,
                a.views_used
            );
        }
    }

    #[test]
    fn full_workload_answers_test_queries() {
        let doc = paper_document(0.002, 7);
        let w = build_paper_engine(doc, 100, 11, usize::MAX);
        let snap = w.engine.snapshot();
        for (tq, q) in &w.queries {
            let reference = answer(&snap, q, Strategy::Bf).unwrap();
            for strategy in [Strategy::Mv, Strategy::Hv] {
                let a = answer(&snap, q, strategy)
                    .unwrap_or_else(|e| panic!("{} under {strategy}: {e}", tq.name));
                assert_eq!(a.codes, reference.codes, "{} {strategy}", tq.name);
            }
        }
    }

    #[test]
    fn xmark_queries_run_and_engines_agree() {
        let doc = paper_document(0.004, 7);
        let snap = Engine::new(doc, EngineConfig::default()).snapshot();
        let mut positive = 0usize;
        let mut labels = snap.labels().clone();
        for (name, src) in xmark_queries() {
            let q = xvr_pattern::parse_pattern_with(src, &mut labels).unwrap();
            let bn = answer(&snap, &q, Strategy::Bn).unwrap();
            let bf = answer(&snap, &q, Strategy::Bf).unwrap();
            assert_eq!(bn.codes, bf.codes, "{name}");
            if !bn.codes.is_empty() {
                positive += 1;
            }
        }
        assert!(positive >= 8, "only {positive} XMark queries positive");
    }

    #[test]
    fn xmark_queries_answerable_as_self_views() {
        let doc = paper_document(0.004, 7);
        let mut engine = Engine::new(doc, EngineConfig::default());
        let queries: Vec<_> = xmark_queries()
            .into_iter()
            .map(|(n, src)| (n, engine.parse(src).unwrap()))
            .collect();
        for (_, q) in &queries {
            engine.add_view(q.clone()).unwrap();
        }
        let snap = engine.snapshot();
        for (name, q) in &queries {
            let reference = answer(&snap, q, Strategy::Bn).unwrap();
            if reference.codes.is_empty() {
                continue;
            }
            let a = answer(&snap, q, Strategy::Hv).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(a.codes, reference.codes, "{name}");
        }
    }

    #[test]
    fn view_sets_have_requested_sizes() {
        let doc = paper_document(0.002, 7);
        let sets = view_sets(&doc, &[50, 100], 3);
        assert_eq!(sets[0].len(), 50);
        assert_eq!(sets[1].len(), 100);
    }
}
