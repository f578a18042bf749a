//! Integration tests of the observability layer and the unified
//! `EngineSnapshot::query` API on the XMark workload:
//!
//! * `QueryOptions` built via `default()`/`with_strategy` and via the
//!   wire protocol's `WireOptions` answer byte-identically to the
//!   `strategy(...)` constructor across all six strategies;
//! * merged batch counters are identical whether the batch ran on one
//!   worker thread or oversubscribed;
//! * with metrics collection off, nothing is ever recorded in the
//!   snapshot's cumulative accumulator;
//! * the `QueryOptions` builder and the crate-root re-exports of the
//!   request/response types work as documented.

use xvr_bench::{build_paper_engine, paper_document, xmark_queries};
// Every request/response/wire type must be reachable from the crate root.
use xvr_core::{
    Counter, EngineSnapshot, MetricsReport, QueryOptions, QueryReport, SnapshotMetrics,
    StageCounters, Strategy, WireOptions,
};
use xvr_pattern::TreePattern;

fn xmark_snapshot() -> (EngineSnapshot, Vec<TreePattern>) {
    let doc = paper_document(0.002, 7);
    let workload = build_paper_engine(doc, 40, 11, usize::MAX);
    let mut engine = workload.engine;
    let mut queries: Vec<TreePattern> = Vec::new();
    for (_, src) in xmark_queries() {
        let q = engine.parse(src).unwrap();
        engine.add_view(q.clone()).unwrap();
        queries.push(q);
    }
    queries.extend(workload.queries.into_iter().map(|(_, q)| q));
    (engine.snapshot(), queries)
}

/// Every way to build `QueryOptions` — the `strategy(...)` constructor,
/// `default().with_strategy(...)`, and decoding the wire protocol's
/// `WireOptions` — answers byte-identically for all six strategies, so
/// a served query and an embedded one cannot diverge.
#[test]
fn options_constructions_are_byte_identical() {
    let (snap, queries) = xmark_snapshot();
    let render = |r: &Result<xvr_core::Answer, xvr_core::AnswerError>| match r {
        Ok(a) => Ok(a.codes.iter().map(|c| c.to_string()).collect::<Vec<_>>()),
        Err(e) => Err(e.clone()),
    };
    assert_eq!(
        QueryOptions::default(),
        QueryOptions::strategy(Strategy::Hv)
    );
    for strategy in Strategy::all_extended() {
        let canonical = QueryOptions::strategy(strategy);
        let fluent = QueryOptions::default().with_strategy(strategy);
        let wired: QueryOptions = WireOptions::strategy(strategy).into();
        assert_eq!(fluent, canonical, "{strategy}");
        assert_eq!(wired, canonical, "{strategy}");
        for q in &queries {
            let reference = snap.query(q, &canonical).answer;
            assert_eq!(
                render(&snap.query(q, &fluent).answer),
                render(&reference),
                "{strategy}: with_strategy"
            );
            assert_eq!(
                render(&snap.query(q, &wired).answer),
                render(&reference),
                "{strategy}: via WireOptions"
            );
        }
        // And the round trip back to the wire preserves the switches.
        assert!(
            !QueryOptions::from(WireOptions::from(canonical.with_cache(false))).use_cache,
            "{strategy}"
        );
    }
}

/// Counter merging is commutative addition, so the merged batch counters
/// cannot depend on worker count or scheduling: jobs=1 and an
/// oversubscribed pool produce identical counters (on the uncached path —
/// shared-cache hit/miss counts legitimately depend on which worker warms
/// an entry first).
#[test]
fn batch_counters_deterministic_across_jobs() {
    let (snap, queries) = xmark_snapshot();
    for strategy in [Strategy::Mv, Strategy::Hv, Strategy::Cb] {
        let options = QueryOptions::strategy(strategy)
            .with_cache(false)
            .with_metrics();
        let reference = snap.query_batch(&queries, &options, 1).counters;
        assert!(!reference.is_zero(), "{strategy}: workload records nothing");
        for jobs in [2, 4, queries.len() + 29] {
            let merged = snap.query_batch(&queries, &options, jobs).counters;
            assert_eq!(merged, reference, "{strategy} jobs={jobs}");
        }
    }
}

/// With `collect_metrics` off (the default), queries leave no residue:
/// the snapshot's cumulative accumulator stays empty and the outcome
/// carries no report.
#[test]
fn disabled_metrics_record_nothing() {
    let (snap, queries) = xmark_snapshot();
    assert!(snap.metrics().is_empty());
    for strategy in Strategy::all_extended() {
        for q in &queries {
            let outcome = snap.query(q, &QueryOptions::strategy(strategy));
            assert!(outcome.report.is_none(), "{strategy}");
        }
    }
    snap.query_batch(&queries, &QueryOptions::strategy(Strategy::Hv), 4);
    // Trace-only collection must not record metrics either.
    snap.query(
        &queries[0],
        &QueryOptions::strategy(Strategy::Hv).with_trace(),
    );
    assert!(
        snap.metrics().is_empty(),
        "metrics recorded without collect_metrics"
    );
    assert_eq!(snap.metrics().queries(), 0);

    // And once requested, they do land.
    snap.query(
        &queries[0],
        &QueryOptions::strategy(Strategy::Hv).with_metrics(),
    );
    assert_eq!(snap.metrics().queries(), 1);
    assert!(!snap.metrics().is_empty());
}

/// The fluent builder composes, `QueryOptions` is `Copy`, and the
/// report's shape follows the switches exactly.
#[test]
fn query_options_builder_and_report_shape() {
    let options = QueryOptions::strategy(Strategy::Mv);
    assert!(options.use_cache && !options.collect_trace && !options.collect_metrics);
    let full = options.with_cache(false).with_trace().with_metrics();
    assert!(!full.use_cache && full.collect_trace && full.collect_metrics);
    // `options` is Copy: the builder returned new values, the original is
    // untouched.
    assert!(options.use_cache);

    let (snap, queries) = xmark_snapshot();
    let outcome = snap.query(&queries[0], &full);
    let report: QueryReport = outcome.report.expect("trace+metrics requested");
    let counters: StageCounters = report.counters.clone().expect("metrics requested");
    assert!(counters.get(Counter::FilterRuns) >= 1);
    assert!(report.trace.is_some());
    // Reports render human-readably with per-stage timings.
    let rendered = format!("{report}");
    assert!(rendered.contains("stages: filter"), "{rendered}");

    let metrics: &SnapshotMetrics = snap.metrics();
    let summary: MetricsReport = metrics.report();
    assert_eq!(summary.queries, 1);
    assert!(format!("{summary}").contains("queries: 1"));
}
