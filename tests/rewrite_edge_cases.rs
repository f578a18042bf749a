//! Targeted edge cases for the rewriting stage: nested fragments, repeated
//! views at multiple join positions, root answers, wildcard views, and
//! budget interactions.

use xvr_core::{Answer, AnswerError, Engine, EngineConfig, QueryOptions, Strategy};
use xvr_pattern::TreePattern;
use xvr_xml::parse_document;
use xvr_xml::samples::book_document;

/// `q` answered under `strategy` on a fresh snapshot of `engine`.
fn answer(engine: &Engine, q: &TreePattern, strategy: Strategy) -> Result<Answer, AnswerError> {
    engine
        .snapshot()
        .query(q, &QueryOptions::strategy(strategy))
        .answer
}

fn check_all(engine: &Engine, q: &TreePattern) {
    let reference = answer(engine, q, Strategy::Bn).unwrap().codes;
    for strategy in [Strategy::Mv, Strategy::Hv, Strategy::Cb] {
        match answer(engine, q, strategy) {
            Ok(a) => assert_eq!(
                a.codes,
                reference,
                "{strategy} on {}",
                q.display(engine.labels())
            ),
            Err(AnswerError::NotAnswerable) => {}
            Err(e) => panic!("{strategy}: {e}"),
        }
    }
}

#[test]
fn nested_fragments_join_correctly() {
    // Sections nest (s//s); fragments of //s overlap, and answers can come
    // from inner and outer fragments.
    let doc = book_document();
    let mut engine = Engine::new(doc, EngineConfig::default());
    engine.add_view_str("//s").unwrap();
    for qsrc in ["//s//p", "//s/s/p", "//s[.//i]//p", "//s//s"] {
        let q = engine.parse(qsrc).unwrap();
        let a = answer(&engine, &q, Strategy::Hv).expect(qsrc);
        let reference = answer(&engine, &q, Strategy::Bn).unwrap().codes;
        assert_eq!(a.codes, reference, "{qsrc}");
    }
}

#[test]
fn one_view_joined_at_two_positions() {
    // Q = /b/s[s/p]/s/p needs //s/p both as a branch witness and as the
    // answer; a single materialized view serves both.
    let doc = book_document();
    let mut engine = Engine::new(doc, EngineConfig::default());
    engine.add_view_str("//s/p").unwrap();
    let q = engine.parse("/b/s[s/p]/s/p").unwrap();
    check_all(&engine, &q);
    let a = answer(&engine, &q, Strategy::Mv).unwrap();
    assert_eq!(a.views_used.len(), 1);
    assert!(!a.codes.is_empty());
}

#[test]
fn answer_at_pattern_root() {
    // The query returns its own root bindings; the anchor's m is the root.
    let doc = book_document();
    let mut engine = Engine::new(doc, EngineConfig::default());
    engine.add_view_str("//s[t][p]").unwrap();
    let q = engine.parse("//s[t][p]").unwrap();
    check_all(&engine, &q);
    let a = answer(&engine, &q, Strategy::Hv).unwrap();
    assert_eq!(a.codes.len(), 6, "every section has a title and paragraph");
}

#[test]
fn wildcard_answer_view() {
    // A view returning wildcard nodes still answers concrete queries: the
    // skeleton join checks the concrete label from the decoded codes.
    let doc = book_document();
    let mut engine = Engine::new(doc, EngineConfig::default());
    engine.add_view_str("//s/*").unwrap();
    for qsrc in ["//s/p", "//s/f", "//s/t"] {
        let q = engine.parse(qsrc).unwrap();
        let a = answer(&engine, &q, Strategy::Hv).expect(qsrc);
        let reference = answer(&engine, &q, Strategy::Bn).unwrap().codes;
        assert_eq!(a.codes, reference, "{qsrc}");
    }
}

#[test]
fn descendant_anchored_self_view() {
    // Identity views with `//` roots and floating branches (solo rule).
    let doc = book_document();
    let mut engine = Engine::new(doc, EngineConfig::default());
    let queries = ["//s[.//i]//p", "//*[t]/f", "//s[f//i][t]/p"];
    for qsrc in queries {
        let q = engine.parse(qsrc).unwrap();
        engine.add_view(q.clone()).unwrap();
    }
    for qsrc in queries {
        let q = engine.parse(qsrc).unwrap();
        check_all(&engine, &q);
        assert!(answer(&engine, &q, Strategy::Hv).is_ok(), "{qsrc}");
    }
}

#[test]
fn empty_answer_sets_round_trip() {
    // Queries with empty answers must yield empty from views too (never
    // error, never fabricate).
    let doc = book_document();
    let mut engine = Engine::new(doc, EngineConfig::default());
    engine.add_view_str("//s[a]/p").unwrap(); // no section has an author
    engine.add_view_str("//s[t]/p").unwrap();
    let q = engine.parse("//s[a]/p").unwrap();
    if let Ok(a) = answer(&engine, &q, Strategy::Hv) {
        assert!(a.codes.is_empty());
    }
}

#[test]
fn single_node_document() {
    let doc = parse_document("<a/>").unwrap();
    let mut engine = Engine::new(doc, EngineConfig::default());
    engine.add_view_str("/a").unwrap();
    let q = engine.parse("/a").unwrap();
    let a = answer(&engine, &q, Strategy::Hv).unwrap();
    assert_eq!(a.codes.len(), 1);
    let q2 = engine.parse("/a/b").unwrap();
    assert!(answer(&engine, &q2, Strategy::Bn).unwrap().codes.is_empty());
}

#[test]
fn deep_chain_document() {
    // A pathological 60-deep chain: codes, joins and recursion depths hold.
    let mut xml = String::new();
    for _ in 0..30 {
        xml.push_str("<a><b>");
    }
    xml.push('x');
    for _ in 0..30 {
        xml.push_str("</b></a>");
    }
    let doc = parse_document(&xml).unwrap();
    let mut engine = Engine::new(doc, EngineConfig::default());
    engine.add_view_str("//a//b").unwrap();
    let q = engine.parse("//a/b[.//b]").unwrap();
    check_all(&engine, &q);
    let reference = answer(&engine, &q, Strategy::Bn).unwrap();
    assert_eq!(reference.codes.len(), 29);
}

#[test]
fn attr_predicates_through_rewriting() {
    let doc =
        parse_document(r#"<r><s k="1"><p/><t/></s><s><p/><t/></s><s k="2"><p/></s></r>"#).unwrap();
    let mut engine = Engine::new(doc, EngineConfig::default());
    engine.add_view_str("//s[@k]/p").unwrap();
    engine.add_view_str("//s[t]/p").unwrap();
    // Query needs both @k and [t]: only the first s qualifies.
    let q = engine.parse("//s[@k][t]/p").unwrap();
    check_all(&engine, &q);
    let a = answer(&engine, &q, Strategy::Hv).unwrap();
    assert_eq!(a.codes.len(), 1);
    // Value-specific query answered by the existence view + fragment check?
    // The @k="2" node has no t; @k="1" has one.
    let q2 = engine.parse(r#"//s[@k="1"][t]/p"#).unwrap();
    let reference = answer(&engine, &q2, Strategy::Bn).unwrap().codes;
    assert_eq!(reference.len(), 1);
    if let Ok(a2) = answer(&engine, &q2, Strategy::Hv) {
        assert_eq!(a2.codes, reference);
    }
}

#[test]
fn anchor_above_other_units() {
    // Anchor binds high (sections), another unit binds deep (images);
    // their codes relate by proper prefix across several levels.
    let doc = book_document();
    let mut engine = Engine::new(doc, EngineConfig::default());
    engine.add_view_str("//s[t]").unwrap(); // anchor candidate (m = s)
    engine.add_view_str("//f/i").unwrap(); // deep unit (m = i)
    let q = engine.parse("//s[t][f/i]/p").unwrap();
    check_all(&engine, &q);
    let a = answer(&engine, &q, Strategy::Hv).expect("answerable");
    let direct = answer(&engine, &q, Strategy::Bn).unwrap().codes;
    assert_eq!(a.codes, direct);
    assert!(!a.codes.is_empty());
}

#[test]
fn three_way_join() {
    let doc = book_document();
    let mut engine = Engine::new(doc, EngineConfig::default());
    engine.add_view_str("//s[t]/p").unwrap();
    engine.add_view_str("//s/f[t]").unwrap();
    engine.add_view_str("//f/i").unwrap();
    // Needs p (anchor), the figure title, and the image — three units.
    let q = engine.parse("//s[f[t]/i][t]/p").unwrap();
    check_all(&engine, &q);
    let a = answer(&engine, &q, Strategy::Hv).expect("answerable");
    let direct = answer(&engine, &q, Strategy::Bn).unwrap().codes;
    assert_eq!(a.codes, direct);
    assert_eq!(direct.len(), 5, "all figure sections' paragraphs");
}
