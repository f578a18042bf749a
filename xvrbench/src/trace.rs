//! In-memory span recording and the traced, composed query pipeline.
//!
//! Spans are recorded by the benchmark around its calls into the
//! program's public functions; nothing inside the program is
//! instrumented. A span's self time is its duration minus the part of it
//! its child spans cover.

use std::io::Write as _;
use std::time::Instant;

use xvr_core::{
    filter_views_metered, rewrite_metered, select_heuristic_metered, EngineSnapshot, FilterOptions,
    Obligations, RewriteCache, StageCounters, ViewId,
};
use xvr_pattern::eval_bn;
use xvr_xml::DeweyCode;

/// One recorded span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// Records spans in memory; [`Tracer::write_tsv`] writes them out.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span. A root span
    /// starts a new request id.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let parent = self.open.last().copied();
        if parent.is_none() {
            self.request += 1;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent,
            request: self.request,
        });
        self.open.push(id);
        id
    }

    pub fn end(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now();
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Write every span as a tab-separated line:
    /// `id name start_ns end_ns parent request`.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\trequest")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

/// Self time of every span, nanoseconds: its duration minus the union of
/// its children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Answer one query the way a client of the server does — `Hv`, and
/// `Bn` when `Hv` cannot answer — by chaining the pipeline's public
/// stages: parse → filter_views → usable-view filter → select_heuristic
/// → rewrite with a cache, or eval_bn. Returns the answer and whether it
/// fell back to `Bn`.
pub fn composed(
    snap: &EngineSnapshot,
    cache: &RewriteCache,
    src: &str,
    t: &mut Tracer,
    counters: &mut StageCounters,
) -> (Vec<DeweyCode>, bool) {
    let root = t.begin("request");
    let q = t
        .span("parse", || snap.parse(src))
        .expect("generated query parses");
    let filtered = t.span("filter", || {
        filter_views_metered(
            &q,
            snap.views(),
            snap.nfa(),
            FilterOptions::default(),
            counters,
        )
    });
    let selection = t.span("select", || {
        // Views whose materialization was truncated cannot answer.
        let usable: Vec<ViewId> = filtered
            .candidates
            .iter()
            .copied()
            .filter(|&v| snap.store().get(v).is_some_and(|m| m.complete()))
            .collect();
        let mut outcome = filtered;
        for list in &mut outcome.lists {
            list.retain(|(v, _)| usable.contains(v));
        }
        outcome.candidates = usable;
        select_heuristic_metered(&q, snap.views(), &outcome, &Obligations::of(&q), counters)
    });
    let answer = match selection {
        Some(selection) => {
            let codes = t.span("rewrite", || {
                rewrite_metered(
                    &q,
                    &selection,
                    snap.views(),
                    snap.store(),
                    &snap.doc().fst,
                    Some(cache),
                    counters,
                )
            });
            (codes.expect("selected views rewrite"), false)
        }
        None => (t.span("eval", || eval_codes(snap, &q)), true),
    };
    t.end(root);
    answer
}

/// `Bn` evaluation rendered as sorted Dewey codes, as the snapshot does.
pub fn eval_codes(snap: &EngineSnapshot, q: &xvr_pattern::TreePattern) -> Vec<DeweyCode> {
    let doc = snap.doc();
    let mut codes: Vec<DeweyCode> = eval_bn(q, &doc.tree, snap.node_index())
        .into_iter()
        .map(|n| doc.dewey.code_of(&doc.tree, n))
        .collect();
    codes.sort();
    codes
}

/// Per-name totals over `spans`: (calls, self ns).
pub fn by_name(
    spans: &[Span],
    selfs: &[u64],
) -> std::collections::BTreeMap<&'static str, (u64, u64)> {
    let mut out = std::collections::BTreeMap::new();
    for (s, &own) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_insert((0u64, 0u64));
        e.0 += 1;
        e.1 += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            span("request", 0, 100, None),    // 0
            span("parse", 5, 15, Some(0)),    // 1: leaf sibling
            span("select", 20, 70, Some(0)),  // 2: sibling with a child
            span("inner", 30, 50, Some(2)),   // 3: nested two deep
            span("rewrite", 70, 95, Some(0)), // 4: abutting sibling
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![100 - 10 - 50 - 25, 10, 50 - 20, 20, 25]);
        // Self times partition the root's interval exactly.
        assert_eq!(selfs.iter().sum::<u64>(), 100);
    }

    #[test]
    fn self_time_counts_overlapping_children_once_and_clips_them() {
        let spans = vec![
            span("root", 10, 110, None),
            span("a", 20, 60, Some(0)),
            span("b", 40, 80, Some(0)),   // overlaps a by 20
            span("c", 100, 130, Some(0)), // runs past the parent's end
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn tracer_nests_spans_and_numbers_requests() {
        let mut t = Tracer::new();
        let r = t.begin("request");
        t.span("parse", || ());
        t.span("filter", t_sleep);
        t.end(r);
        t.span("request", || ());
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, Some(0));
        assert_eq!(t.spans[3].parent, None);
        assert_eq!(t.spans[2].request, 1);
        assert_eq!(t.spans[3].request, 2);
        let selfs = self_times(&t.spans);
        let totals = by_name(&t.spans, &selfs);
        assert_eq!(totals["request"].0, 2);
        assert!(totals["filter"].1 > 0);
    }

    fn t_sleep() {
        std::thread::sleep(std::time::Duration::from_micros(50));
    }
}
