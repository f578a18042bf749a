//! Document updates with incremental view maintenance: answers after
//! appends must equal a freshly built engine's, and unaffected views must
//! not be re-materialized.

use xvr_core::{Engine, EngineConfig, EngineSnapshot, QueryOptions, Strategy};
use xvr_pattern::TreePattern;
use xvr_xml::samples::book_document;
use xvr_xml::{CodeStability, DeweyCode};

/// `q`'s answer codes under `strategy`, which must answer it.
fn codes(snap: &EngineSnapshot, q: &TreePattern, strategy: Strategy) -> Vec<DeweyCode> {
    snap.query(q, &QueryOptions::strategy(strategy))
        .answer
        .unwrap()
        .codes
}

fn fresh_reference(engine: &Engine, views: &[&str], qsrc: &str) -> Vec<String> {
    // Rebuild an engine over the *updated* document and answer from views.
    let mut fresh = Engine::new(engine.doc().clone(), EngineConfig::default());
    for v in views {
        fresh.add_view_str(v).unwrap();
    }
    let q = fresh.parse(qsrc).unwrap();
    codes(&fresh.snapshot(), &q, Strategy::Hv)
        .iter()
        .map(|c| c.to_string())
        .collect()
}

#[test]
fn stable_append_updates_affected_views_only() {
    let views = ["//s[t]/p", "//s[p]/f", "//f/i"];
    let mut engine = Engine::new(book_document(), EngineConfig::default());
    for v in views {
        engine.add_view_str(v).unwrap();
    }
    // Append a paragraph under section 0.8.2 (which had no figure): known
    // label pair → stable codes.
    let stats = engine
        .append_xml(&"0.8.2".parse::<DeweyCode>().unwrap(), "<p>new</p>")
        .unwrap();
    assert_eq!(stats.stability, CodeStability::Stable);
    // Views mentioning p or s are affected; //f/i is not (no p, s labels).
    assert_eq!(stats.views_rematerialized, 2, "{stats:?}");
    assert_eq!(stats.views_skipped, 1);
    // Answers equal a fresh engine over the updated document.
    for qsrc in ["//s[t]/p", "//s[f//i][t]/p"] {
        let q = engine.parse(qsrc).unwrap();
        let snap = engine.snapshot();
        let got: Vec<String> = codes(&snap, &q, Strategy::Hv)
            .iter()
            .map(|c| c.to_string())
            .collect();
        assert_eq!(got, fresh_reference(&engine, &views, qsrc), "{qsrc}");
        // And equal direct evaluation.
        let direct: Vec<String> = codes(&snap, &q, Strategy::Bn)
            .iter()
            .map(|c| c.to_string())
            .collect();
        assert_eq!(got, direct, "{qsrc}");
    }
}

#[test]
fn alphabet_growing_append_rematerializes_everything() {
    let views = ["//s[t]/p", "//f/i"];
    let mut engine = Engine::new(book_document(), EngineConfig::default());
    for v in views {
        engine.add_view_str(v).unwrap();
    }
    // An author under a section: new (s, a) pair → re-encode.
    let stats = engine
        .append_xml(&"0.8".parse::<DeweyCode>().unwrap(), "<a>New Author</a>")
        .unwrap();
    assert_eq!(stats.stability, CodeStability::Reencoded);
    assert_eq!(stats.views_rematerialized, 2);
    assert_eq!(stats.views_skipped, 0);
    for qsrc in ["//s[t]/p", "//f/i", "//s[a]/p"] {
        let q = engine.parse(qsrc).unwrap();
        let snap = engine.snapshot();
        let hv = snap.query(&q, &QueryOptions::strategy(Strategy::Hv)).answer;
        let direct = codes(&snap, &q, Strategy::Bn);
        if let Ok(a) = hv {
            assert_eq!(a.codes, direct, "{qsrc}");
        }
    }
    // The section now has an author: //s[a]/p is non-empty.
    let q = engine.parse("//s[a]/p").unwrap();
    assert!(!codes(&engine.snapshot(), &q, Strategy::Bn).is_empty());
}

#[test]
fn repeated_appends_stay_consistent() {
    let mut engine = Engine::new(book_document(), EngineConfig::default());
    engine.add_view_str("//s[t]/p").unwrap();
    let root_code: DeweyCode = "0".parse().unwrap();
    for i in 0..5 {
        let xml = format!("<s><t>new {i}</t><p>body {i}</p></s>");
        engine.append_xml(&root_code, &xml).unwrap();
    }
    let q = engine.parse("//s[t]/p").unwrap();
    let snap = engine.snapshot();
    let direct = codes(&snap, &q, Strategy::Bn);
    let via_views = codes(&snap, &q, Strategy::Hv);
    assert_eq!(via_views, direct);
    assert_eq!(direct.len(), 8 + 5);
}

/// Label-table sync across `append_xml`: a snapshot taken *before* an
/// append that interns a brand-new label must keep decoding the old label
/// space unchanged, while the writer resolves the new label immediately.
/// (Regression guard: the writer mutates its label table via
/// `Arc::make_mut`, which must copy-on-write rather than mutate the table
/// the frozen snapshot shares.)
#[test]
fn append_with_new_label_leaves_snapshot_frozen() {
    let mut engine = Engine::new(book_document(), EngineConfig::default());
    engine.add_view_str("//s[t]/p").unwrap();
    let frozen = engine.snapshot();
    let q_old = frozen.parse("//s[t]/p").unwrap();
    let before: Vec<String> = frozen
        .query(&q_old, &QueryOptions::strategy(Strategy::Hv))
        .answer
        .unwrap()
        .codes
        .iter()
        .map(|c| c.to_string())
        .collect();

    // `z` is not in the book alphabet: the append interns a new label.
    let root: DeweyCode = "0".parse().unwrap();
    engine.append_xml(&root, "<z><p>appendix</p></z>").unwrap();

    // The frozen snapshot neither sees the appended subtree nor the new
    // label: its answers are byte-identical, and parsing `//z` resolves to
    // a fresh non-matching label, so it evaluates to the empty answer.
    let after: Vec<String> = frozen
        .query(&q_old, &QueryOptions::strategy(Strategy::Hv))
        .answer
        .unwrap()
        .codes
        .iter()
        .map(|c| c.to_string())
        .collect();
    assert_eq!(after, before);
    let q_new = frozen.parse("//z/p").unwrap();
    assert!(frozen
        .query(&q_new, &QueryOptions::strategy(Strategy::Bn))
        .answer
        .unwrap()
        .codes
        .is_empty());

    // The writer resolves the new label: direct evaluation finds the
    // appended node, and a post-append snapshot decodes it too.
    let q_new = engine.parse("//z/p").unwrap();
    let q_old_w = engine.parse("//s[t]/p").unwrap();
    let thawed = engine.snapshot();
    assert_eq!(codes(&thawed, &q_new, Strategy::Bn).len(), 1);
    // And the old query now also covers the appended <p> via its view
    // (the append rematerializes affected views in the writer).
    assert_eq!(
        codes(&thawed, &q_old_w, Strategy::Hv),
        codes(&thawed, &q_old_w, Strategy::Bn)
    );
}

/// An append re-materializes only the views it can change, and only
/// those stop being shared with the pre-append snapshot: skipped views'
/// fragments stay pointer-equal, view definitions are never copied, and
/// the pre-append snapshot keeps its answers.
#[test]
fn append_keeps_skipped_views_shared() {
    let views = ["//s[t]/p", "//s[p]/f", "//f/i"];
    let mut engine = Engine::new(book_document(), EngineConfig::default());
    let ids: Vec<_> = views
        .iter()
        .map(|v| engine.add_view_str(v).unwrap())
        .collect();
    let old = engine.snapshot();
    let queries: Vec<TreePattern> = ["//s[t]/p", "//f/i", "//s[f//i][t]/p"]
        .iter()
        .map(|q| old.parse(q).unwrap())
        .collect();
    let answers = |snap: &EngineSnapshot| -> Vec<Vec<DeweyCode>> {
        queries
            .iter()
            .flat_map(|q| [codes(snap, q, Strategy::Bn), codes(snap, q, Strategy::Hv)])
            .collect()
    };
    let before = answers(&old);

    // A <p> under section 0.8.2 changes the views that mention p or s
    // and leaves //f/i alone.
    let stats = engine
        .append_xml(&"0.8.2".parse::<DeweyCode>().unwrap(), "<p>new</p>")
        .unwrap();
    assert_eq!(stats.stability, CodeStability::Stable);
    assert!(stats.views_skipped > 0, "{stats:?}");
    let new = engine.snapshot();

    let skipped = [ids[2]];
    let mut shared = 0;
    for &v in &ids {
        assert!(std::ptr::eq(old.views().view(v), new.views().view(v)));
        let same = std::ptr::eq(old.store().get(v).unwrap(), new.store().get(v).unwrap());
        assert_eq!(same, skipped.contains(&v), "{v:?}");
        shared += same as usize;
    }
    assert_eq!(shared, stats.views_skipped);
    assert_eq!(ids.len() - shared, stats.views_rematerialized);
    assert_eq!(answers(&old), before);
}

#[test]
fn update_errors() {
    let mut engine = Engine::new(book_document(), EngineConfig::default());
    let bad_code: DeweyCode = "9.9.9".parse().unwrap();
    assert!(matches!(
        engine.append_xml(&bad_code, "<p/>"),
        Err(xvr_core::UpdateError::NoSuchNode(_))
    ));
    let root: DeweyCode = "0".parse().unwrap();
    assert!(matches!(
        engine.append_xml(&root, "<unclosed>"),
        Err(xvr_core::UpdateError::Parse(_))
    ));
}
