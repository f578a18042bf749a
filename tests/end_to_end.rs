//! End-to-end integration: the full store-and-query pipeline over
//! generated XMark-like documents, cross-checking every strategy against
//! direct evaluation.

use xvr_core::{AnswerError, Engine, EngineConfig, QueryOptions, Strategy};
use xvr_pattern::generator::{QueryConfig, QueryGenerator};
use xvr_pattern::{distinct_positive_patterns, eval};
use xvr_xml::generator::{generate, Config};

/// Build an engine over a small generated document with `n_views` random
/// positive views.
fn build_engine(doc_seed: u64, view_seed: u64, n_views: usize) -> Engine {
    let doc = generate(&Config::tiny(doc_seed));
    let views =
        distinct_positive_patterns(&doc, QueryConfig::paper_view_workload(view_seed), n_views);
    let mut engine = Engine::new(doc, EngineConfig::default());
    for v in views {
        engine.add_view(v).unwrap();
    }
    engine
}

#[test]
fn strategies_agree_on_random_workload() {
    let engine = build_engine(11, 12, 60);
    let doc = engine.doc().clone();
    let snap = engine.snapshot();
    let mut gen = QueryGenerator::new(&doc.fst, QueryConfig::paper_query_workload(13));
    let mut answered = 0usize;
    let mut attempted = 0usize;
    for _ in 0..40 {
        let Some(q) = gen.generate_positive(&doc, 50) else {
            continue;
        };
        attempted += 1;
        let reference = snap
            .query(&q, &QueryOptions::strategy(Strategy::Bn))
            .answer
            .unwrap()
            .codes;
        let bf = snap
            .query(&q, &QueryOptions::strategy(Strategy::Bf))
            .answer
            .unwrap()
            .codes;
        assert_eq!(bf, reference, "BF mismatch on {}", q.display(&doc.labels));
        for strategy in [Strategy::Mn, Strategy::Mv, Strategy::Hv, Strategy::Cb] {
            match snap.query(&q, &QueryOptions::strategy(strategy)).answer {
                Ok(a) => {
                    assert_eq!(
                        a.codes,
                        reference,
                        "{strategy} mismatch on {}",
                        q.display(&doc.labels)
                    );
                    answered += 1;
                }
                Err(AnswerError::NotAnswerable) => {}
                Err(e) => panic!("{strategy} failed on {}: {e}", q.display(&doc.labels)),
            }
        }
    }
    assert!(attempted >= 20, "query generator starved: {attempted}");
    assert!(
        answered >= 5,
        "no strategy ever answered from views ({answered} of {attempted})"
    );
}

#[test]
fn self_view_always_answers() {
    // Register each query as its own view: HV must answer it exactly.
    let doc = generate(&Config::tiny(21));
    let queries = distinct_positive_patterns(&doc, QueryConfig::paper_query_workload(22), 25);
    let mut engine = Engine::new(doc, EngineConfig::default());
    for q in &queries {
        engine.add_view(q.clone()).unwrap();
    }
    let doc = engine.doc().clone();
    let snap = engine.snapshot();
    for q in &queries {
        let reference: Vec<String> = eval(q, &doc.tree)
            .into_iter()
            .map(|n| doc.dewey.code_of(&doc.tree, n).to_string())
            .collect();
        let a = snap
            .query(q, &QueryOptions::strategy(Strategy::Hv))
            .answer
            .unwrap_or_else(|e| panic!("{} not answered: {e}", q.display(&doc.labels)));
        let got: Vec<String> = a.codes.iter().map(|c| c.to_string()).collect();
        assert_eq!(got, reference, "{}", q.display(&doc.labels));
    }
}

#[test]
fn mv_answers_subset_of_mn() {
    // MV sees only filtered candidates; anything MV answers, MN must too
    // (filtering never loses answerability).
    let engine = build_engine(31, 32, 40);
    let doc = engine.doc().clone();
    let snap = engine.snapshot();
    let mut gen = QueryGenerator::new(&doc.fst, QueryConfig::paper_query_workload(33));
    for _ in 0..20 {
        let Some(q) = gen.generate_positive(&doc, 50) else {
            continue;
        };
        let mv = snap.query(&q, &QueryOptions::strategy(Strategy::Mv)).answer;
        let mn = snap.query(&q, &QueryOptions::strategy(Strategy::Mn)).answer;
        if mv.is_ok() {
            assert!(mn.is_ok(), "{}", q.display(&doc.labels));
        }
    }
}

#[test]
fn fragment_budget_never_breaks_correctness() {
    // With a small byte cap some views get truncated; answers must remain
    // exact (truncated views are skipped, never misused).
    let doc = generate(&Config::tiny(41));
    let views = distinct_positive_patterns(&doc, QueryConfig::paper_view_workload(42), 40);
    let mut engine = Engine::new(
        doc,
        EngineConfig {
            fragment_budget: 8 * 1024,
            ..EngineConfig::default()
        },
    );
    for v in views {
        engine.add_view(v).unwrap();
    }
    let doc = engine.doc().clone();
    let snap = engine.snapshot();
    let mut gen = QueryGenerator::new(&doc.fst, QueryConfig::paper_query_workload(43));
    for _ in 0..20 {
        let Some(q) = gen.generate_positive(&doc, 50) else {
            continue;
        };
        let reference = snap
            .query(&q, &QueryOptions::strategy(Strategy::Bn))
            .answer
            .unwrap()
            .codes;
        if let Ok(a) = snap.query(&q, &QueryOptions::strategy(Strategy::Hv)).answer {
            assert_eq!(a.codes, reference, "{}", q.display(&doc.labels));
        }
    }
}
