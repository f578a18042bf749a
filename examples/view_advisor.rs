//! A "view advisor" session: given thousands of candidate views, show how
//! VFILTER prunes them for a query, and compare the heuristic (minimal)
//! against the exhaustive (minimum) selection.
//!
//! ```sh
//! cargo run --release --example view_advisor
//! ```

use std::time::Instant;

use xvr_core::filter::{build_nfa, filter_views_metered, FilterOptions};
use xvr_core::leafcover::Obligations;
use xvr_core::select::{select_heuristic_metered, select_minimum_metered};
use xvr_core::{StageCounters, ViewSet};
use xvr_pattern::generator::QueryConfig;
use xvr_pattern::{distinct_patterns, exists_hom, parse_pattern_in};
use xvr_xml::generator::{generate, Config};

fn main() {
    let doc = generate(&Config::tiny(1));
    // 2000 candidate view definitions (not materialized — the advisor only
    // reasons about answerability).
    let patterns = distinct_patterns(
        &doc.fst,
        &doc.labels,
        QueryConfig::paper_view_workload(17),
        2000,
    );
    let mut views = ViewSet::new();
    for p in &patterns {
        views.add(p.clone());
    }
    let t0 = Instant::now();
    let nfa = build_nfa(&views);
    println!(
        "VFILTER over {} views: {} states, {} transitions, {} bytes (built in {:.0}ms)",
        views.len(),
        nfa.state_count(),
        nfa.transition_count(),
        nfa.serialized_size(),
        t0.elapsed().as_secs_f64() * 1e3
    );

    let queries = [
        "/site/people/person[profile/age]/name",
        "//open_auction[bidder]//increase",
        "/site/regions/europe/item[name]/description//text",
    ];
    for src in queries {
        // Read-only parse against the document's frozen label table —
        // unknown names would resolve to fresh non-matching labels.
        let q = parse_pattern_in(src, &doc.labels).unwrap();
        let mut counters = StageCounters::new();
        let t0 = Instant::now();
        let outcome =
            filter_views_metered(&q, &views, &nfa, FilterOptions::default(), &mut counters);
        let filter_us = t0.elapsed().as_micros();
        // Ground truth: views with a homomorphism into the query.
        let v_q = views.iter().filter(|v| exists_hom(&v.pattern, &q)).count();
        println!("\nquery {src}");
        println!(
            "  VFILTER kept {} of {} views in {}µs (true containing views: {}, utility {:.2})",
            outcome.candidates.len(),
            views.len(),
            filter_us,
            v_q,
            if v_q > 0 {
                outcome.candidates.len() as f64 / v_q as f64
            } else {
                f64::NAN
            }
        );
        let ob = Obligations::of(&q);
        match select_heuristic_metered(&q, &views, &outcome, &ob, &mut counters) {
            Some(sel) => {
                println!(
                    "  heuristic selection: {} view(s): {}",
                    sel.view_ids().len(),
                    sel.units
                        .iter()
                        .map(|u| views.view(u.view).pattern.display(&doc.labels).to_string())
                        .collect::<Vec<_>>()
                        .join("  +  ")
                );
                let min =
                    select_minimum_metered(&q, &views, &outcome.candidates, &ob, 3, &mut counters);
                if let Some(min) = min {
                    println!("  minimum selection:   {} view(s)", min.view_ids().len());
                }
            }
            None => println!("  not answerable from the candidate views"),
        }
    }
}
