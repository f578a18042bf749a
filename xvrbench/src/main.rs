//! The xvr benchmark: an in-process `xvr_core::Server` driven over
//! loopback TCP by one load process with at most two connections.
//!
//! ```text
//! cargo run --release --offline --manifest-path xvrbench/Cargo.toml -- \
//!     --workload hot|mixed|churn --seed N --seconds S --trace 0|1
//! ```
//!
//! Every answer is checked against ground truth computed at set-up. The
//! last line of stdout is one JSON object: `correct`, `attempted`,
//! `failed`, and the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics of the traced in-process replay (`--trace 1`). See README.md
//! for the workloads, the metrics and how the layers map onto them.

mod gen;
mod load;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use xvr_core::serve::percentile;
use xvr_core::{
    AnswerError, Client, Counter, Engine, EngineConfig, EngineSnapshot, MaterializedStore,
    QueryOptions, Request, Response, RewriteCache, Server, ServerConfig, StageCounters, Strategy,
    ViewSet, WireOptions,
};
use xvr_xml::{parse_document, DeweyCode};

use gen::{Inputs, Workload, Write};
use load::{Checker, Limit, Pace, Requests, SwapGate, Truth};
use trace::Tracer;

/// Per-view materialization budget, bytes: the paper's 128 KB.
const VIEW_BUDGET: usize = 128 * 1024;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Warm-up requests before anything is measured.
const WARMUP: u64 = 400;
/// Requests the traced run replays in-process.
const REPLAY: u64 = 3000;
/// Largest relative gap between the summed layer self times and the
/// untraced in-process time that the traced run accepts as adding up.
const SUM_TOLERANCE: f64 = 0.15;
/// Open-loop latency percentiles are taken per slice of this length, and
/// the fast-decile slice is reported (`fast_latency_us`).
const LATENCY_SLICE: Duration = Duration::from_millis(200);
/// Closed-loop throughput is counted per slice of this length, and the
/// fast-decile slice is reported.
const QPS_SLICE: Duration = Duration::from_millis(100);
/// Which percentile of a per-slice or per-operation time is reported:
/// the fast decile. A shared host runs slower for stretches of a tenth of
/// a second or more, and a run's median moves with how much of it such
/// stretches cover; its fast decile moves far less.
const FAST: f64 = 10.0;

/// The read phases take turns in rounds of this length, so that both
/// sample the whole measured span: a round runs the open loop for
/// `OPEN_SHARE` of it, then the closed loop for the rest.
const ROUND: Duration = Duration::from_secs(2);
/// Share of each round given to the open loop: its percentiles need the
/// samples, while closed-loop throughput settles in a few slices.
const OPEN_SHARE: f64 = 0.6;

/// Offered open-loop read rate, requests per second: a quarter or less of
/// each workload's closed-loop ceiling at the slowest the reference host
/// ran it, so that a slow stretch does not build a queue.
fn open_rate(w: Workload) -> f64 {
    match w {
        Workload::Hot => 1500.0,
        Workload::Mixed => 600.0,
        Workload::Churn => 500.0,
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10u64, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().ok().filter(|&s| s > 0).ok_or_else(bad)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload hot|mixed|churn is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Where the run writes the documents `SwapDoc` loads and the span file.
fn work_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
        .join("work")
}

/// Everything set-up produces: inputs, the served engine with its
/// catalog materialized, and ground truth.
struct Setup {
    inputs: Inputs,
    engine: Engine,
    truth: Truth,
    doc_paths: Vec<String>,
    doc_nodes: Vec<u64>,
}

fn engine_config() -> EngineConfig {
    EngineConfig {
        fragment_budget: VIEW_BUDGET,
        ..EngineConfig::default()
    }
}

fn render(codes: &[DeweyCode]) -> Vec<String> {
    codes.iter().map(|c| c.to_string()).collect()
}

fn setup(inputs: Inputs, work: &Path) -> Setup {
    let workload = inputs.workload;
    let mut doc_paths = Vec::new();
    for (i, xml) in inputs.docs.iter().enumerate() {
        let path = work.join(format!("doc-{}-{i}.xml", workload.name()));
        std::fs::write(&path, xml).expect("write document");
        doc_paths.push(path.to_string_lossy().into_owned());
    }
    let parse = |xml: &str| parse_document(xml).expect("generated XML parses");
    let mut engine = Engine::new(parse(&inputs.docs[0]), engine_config());
    for v in &inputs.views {
        engine.add_view_str(v).expect("generated view parses");
    }
    // Ground truth on every document a read can meet: only the first
    // unless reads run beside the swaps.
    let resident = if workload == Workload::Churn { 2 } else { 1 };
    let mut doc_nodes = Vec::new();
    let mut codes = Vec::new();
    for (i, xml) in inputs.docs.iter().enumerate() {
        let truth = Engine::new(parse(xml), EngineConfig::default()).snapshot();
        doc_nodes.push(truth.doc().len() as u64);
        if i < resident {
            codes.push(
                inputs
                    .queries
                    .iter()
                    .map(|q| {
                        let p = truth.parse(q).expect("generated query parses");
                        let answer = truth.query(&p, &QueryOptions::strategy(Strategy::Bn));
                        render(&answer.answer.expect("Bn always answers").codes)
                    })
                    .collect(),
            );
        }
    }
    Setup {
        inputs,
        engine,
        truth: Truth { codes },
        doc_paths,
        doc_nodes,
    }
}

/// Peak resident set size of this process, MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

fn pct_us(ns: &mut [u64], p: f64) -> f64 {
    ns.sort_unstable();
    percentile(ns, p) as f64 / 1e3
}

/// The `p`th open-loop latency percentile of each slice of every round,
/// and the fast decile of those, microseconds.
fn fast_latency_us(open: &[load::ReadStats], p: f64) -> f64 {
    let per_slice = open
        .iter()
        .flat_map(|r| r.slice_percentiles(p, LATENCY_SLICE));
    load::percentile_of(per_slice, FAST) as f64 / 1e3
}

fn mean(xs: &[u64]) -> f64 {
    xs.iter().sum::<u64>() as f64 / xs.len().max(1) as f64
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xvrbench: {e}");
            eprintln!(
                "usage: xvrbench --workload hot|mixed|churn --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let work = work_dir();
    std::fs::create_dir_all(&work).expect("create work directory");
    let w = args.workload;
    let rounds = (args.seconds as f64 / ROUND.as_secs_f64()).round().max(1.0) as u64;
    let open_for = ROUND.as_secs_f64() * OPEN_SHARE;
    let closed_for = ROUND.mul_f64(1.0 - OPEN_SHARE);
    println!(
        "xvrbench: workload={} seed={} seconds={} trace={} cores={}",
        w.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );

    // ---- Set-up, several times: the median is `setup_s`. ----
    let mut setup_ns = Vec::new();
    let mut fingerprints = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let t = Instant::now();
        let s = setup(Inputs::generate(w, args.seed), &work);
        setup_ns.push(t.elapsed().as_nanos() as u64);
        fingerprints.push(s.inputs.fingerprint());
        built = Some(s);
    }
    let Setup {
        inputs,
        engine,
        truth,
        doc_paths,
        doc_nodes,
    } = built.expect("at least one set-up");
    let inputs_repeat = fingerprints.iter().all(|&f| f == fingerprints[0]);
    println!(
        "inputs: fingerprint {:016x} ({}), {} nodes, {} doc bytes, {} views, {} queries, {} writes",
        fingerprints[0],
        if inputs_repeat {
            "identical across set-ups"
        } else {
            "DIFFERS across set-ups"
        },
        doc_nodes[0],
        inputs.docs[0].len(),
        inputs.views.len(),
        inputs.queries.len(),
        inputs.writes.len()
    );
    let store_ratio = engine.store().total_bytes() as f64 / inputs.docs[0].len() as f64;
    let replay_snapshot = args.trace.then(|| engine.snapshot());

    // ---- Serve. ----
    let requests = Requests::new(&inputs.queries);
    let server = Server::bind(
        "127.0.0.1:0",
        engine,
        inputs.views.clone(),
        ServerConfig {
            jobs: 2,
            force_metrics: true,
        },
    )
    .expect("bind a loopback port");
    let addr = server.local_addr().to_string();
    let server_thread = std::thread::spawn(move || server.run());
    let gate = SwapGate::default();
    let checker = Checker {
        truth: &truth,
        gate: &gate,
    };
    let stop = AtomicBool::new(false);
    let mut clients = load::connect(&addr, 2);
    let phase = |clients: &mut [Client], stream, rate, limit, from| {
        load::read_phase(
            clients,
            &inputs,
            &requests,
            &checker,
            stream,
            Pace { rate, limit, from },
            &stop,
        )
    };

    let warm = phase(&mut clients, 2, None, Limit::Count(WARMUP), 0);
    // The traced run's round trips: one connection, closed loop, over the
    // requests the in-process replay answers, from the same cache state.
    let round_trips = args
        .trace
        .then(|| phase(&mut clients[..1], 0, None, Limit::Count(REPLAY), 0));
    let rate = open_rate(w);
    // Reads: one open-loop and one closed-loop phase per round (`churn`:
    // one of each, the open loop beside the write script).
    let (open, writes, closed) = if w == Workload::Churn {
        // Reads on one connection beside the write script on the other.
        let (reader, admin) = clients.split_at_mut(1);
        let (open, writes) = std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                let stats =
                    load::write_phase(&mut admin[0], &inputs, &doc_paths, &doc_nodes, &gate);
                stop.store(true, Ordering::SeqCst);
                stats
            });
            let open = phase(reader, 0, Some(rate), Limit::Stop, 0);
            (open, writer.join().expect("admin thread panicked"))
        });
        let closed = phase(
            &mut clients,
            1,
            None,
            Limit::Time(closed_for * rounds as u32),
            0,
        );
        (vec![open], writes, vec![closed])
    } else {
        let per_round = (rate * open_for) as u64;
        let (mut open, mut closed) = (Vec::new(), Vec::new());
        let mut closed_sent = 0;
        for r in 0..rounds {
            open.push(phase(
                &mut clients,
                0,
                Some(rate),
                Limit::Count(per_round),
                r * per_round,
            ));
            let c = phase(&mut clients, 1, None, Limit::Time(closed_for), closed_sent);
            closed_sent += c.attempted;
            closed.push(c);
        }
        let writes = load::write_phase(&mut clients[0], &inputs, &doc_paths, &doc_nodes, &gate);
        (open, writes, closed)
    };
    let shutdown = clients[0].call(&Request::Shutdown);
    drop(clients);
    let served = server_thread.join().expect("server thread panicked");
    let shut_ok = matches!(shutdown, Ok(Response::ShuttingDown)) && served.is_ok();

    let reads = [&warm]
        .into_iter()
        .chain(&open)
        .chain(&closed)
        .chain(round_trips.as_ref());
    let (mut attempted, mut failed, mut fallbacks) = (writes.attempted, writes.failed, 0);
    for r in reads {
        attempted += r.attempted;
        failed += r.failed;
        fallbacks += r.fallbacks;
        for e in &r.errors {
            eprintln!("read failure: {e}");
        }
    }
    for e in &writes.errors {
        eprintln!("write failure: {e}");
    }
    let error_frac = failed as f64 / attempted as f64;
    println!(
        "reads: {} open-loop at {rate} q/s ({} fallbacks to Bn overall), {} closed-loop, in {rounds} rounds; writes: {} adds, {} swaps; error_frac {error_frac} ({failed}/{attempted})",
        open.iter().map(|r| r.attempted).sum::<u64>(),
        fallbacks,
        closed.iter().map(|r| r.attempted).sum::<u64>(),
        writes.add_view_ns.len(),
        writes.swap_doc_ns.len()
    );

    let mut add_ns = writes.add_view_ns.clone();
    let mut swap_ns = writes.swap_doc_ns.clone();
    let end_to_end = vec![
        m("query_p50_us", fast_latency_us(&open, 50.0), "us"),
        m("query_p90_us", fast_latency_us(&open, 90.0), "us"),
        m(
            "throughput_qps",
            load::percentile_of(
                closed.iter().flat_map(|r| r.slice_counts(QPS_SLICE)),
                100.0 - FAST,
            ) as f64
                / QPS_SLICE.as_secs_f64(),
            "1/s",
        ),
        m("add_view_ms", pct_us(&mut add_ns, FAST) / 1e3, "ms"),
        m("store_bytes_per_doc_byte", store_ratio, "ratio"),
        m("peak_rss_mb", peak_rss_mb(), "MiB"),
        m("setup_s", pct_us(&mut setup_ns, 50.0) / 1e6, "s"),
    ];
    println!("-- end to end (untraced) --");
    print_metrics(&end_to_end);
    println!("{:<28} {:>16} ratio", "error_frac", error_frac);

    let mut correct = failed == 0 && inputs_repeat && shut_ok;
    let metrics = match (replay_snapshot, round_trips) {
        (Some(snap), Some(rt)) => {
            let replay = replay(&snap, &inputs, &truth, &work);
            correct &= replay.failed == 0;
            attempted += replay.attempted;
            failed += replay.failed;
            let mut layers = replay.metrics;
            layers.push(m(
                "serve.overhead_us",
                pct_us(&mut rt.latencies(), 50.0) - replay.inprocess_p50_us,
                "us",
            ));
            layers.push(m("serve.swap_doc_s", pct_us(&mut swap_ns, 50.0) / 1e6, "s"));
            layers.push(m(
                "loadgen.lag_p99_us",
                pct_us(
                    &mut open.iter().flat_map(|r| r.lags()).collect::<Vec<_>>(),
                    99.0,
                ),
                "us",
            ));
            println!("-- per layer (traced in-process replay) --");
            print_metrics(&layers);
            layers
        }
        _ => end_to_end,
    };
    for d in &doc_paths {
        std::fs::remove_file(d).ok();
    }
    if metrics.iter().any(|x| !x.value.is_finite()) {
        eprintln!("xvrbench: a metric is not a finite number");
        correct = false;
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name,
                if x.value.is_finite() { x.value } else { -1.0 },
                x.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_metrics(metrics: &[Metric]) {
    for x in metrics {
        println!("{:<28} {:>16.4} {}", x.name, x.value, x.unit);
    }
}

/// What the traced in-process replay produced.
struct Replay {
    metrics: Vec<Metric>,
    inprocess_p50_us: f64,
    attempted: u64,
    failed: u64,
}

/// Replay the measured run's open-loop requests in-process on the
/// initial snapshot: once untraced through `EngineSnapshot::query`, the
/// way the server answers, and once through the traced composition of
/// the pipeline's public stages, whose answers must be byte-identical.
/// Then time the write path's layers on the run's write script.
fn replay(snap: &EngineSnapshot, inputs: &Inputs, truth: &Truth, work: &Path) -> Replay {
    let requests: Vec<usize> = (0..REPLAY).map(|i| inputs.request(0, i)).collect();
    let warmup: Vec<usize> = (0..WARMUP).map(|i| inputs.request(2, i)).collect();
    let hv = QueryOptions::strategy(Strategy::Hv).with_metrics();
    let bn = QueryOptions::strategy(Strategy::Bn);
    let mut failed = 0u64;

    // Untraced: parse + query, re-sent as Bn when Hv cannot answer.
    let serve = |qi: usize, counters: &mut StageCounters| -> (Vec<DeweyCode>, bool) {
        let q = snap
            .parse(&inputs.queries[qi])
            .expect("generated query parses");
        let outcome = snap.query(&q, &hv);
        if let Some(c) = outcome.report.and_then(|r| r.counters) {
            counters.merge(&c);
        }
        match outcome.answer {
            Ok(a) => (a.codes, false),
            Err(AnswerError::NotAnswerable) => (
                snap.query(&q, &bn).answer.expect("Bn always answers").codes,
                true,
            ),
            Err(e) => panic!("query #{qi}: {e}"),
        }
    };
    let mut scratch = StageCounters::new();
    for &qi in &warmup {
        serve(qi, &mut scratch);
    }
    let mut counters = StageCounters::new();
    let mut untraced_ns = Vec::with_capacity(requests.len());
    let mut answers = Vec::with_capacity(requests.len());
    let mut fallbacks = 0u64;
    for &qi in &requests {
        let t = Instant::now();
        let (codes, fallback) = serve(qi, &mut counters);
        untraced_ns.push(t.elapsed().as_nanos() as u64);
        fallbacks += fallback as u64;
        answers.push(render(&codes));
    }

    // Traced: the composed pipeline with a benchmark-owned rewrite cache,
    // warmed on the same requests.
    let cache = RewriteCache::new();
    let mut discard = Tracer::new();
    for &qi in &warmup {
        trace::composed(
            snap,
            &cache,
            &inputs.queries[qi],
            &mut discard,
            &mut scratch,
        );
    }
    let mut t = Tracer::new();
    for (i, &qi) in requests.iter().enumerate() {
        let (codes, _) = trace::composed(snap, &cache, &inputs.queries[qi], &mut t, &mut scratch);
        let codes = render(&codes);
        if codes != answers[i] || codes != truth.codes[0][qi] {
            failed += 1;
            eprintln!("composed pipeline disagrees on query #{qi}");
        }
    }
    let request_roots: Vec<usize> = (0..t.spans.len())
        .filter(|&i| t.spans[i].parent.is_none())
        .collect();

    // Ground-truth cross-check, one eval_bn per distinct query.
    let mut distinct: Vec<usize> = requests.clone();
    distinct.sort_unstable();
    distinct.dedup();
    for &qi in &distinct {
        let q = snap
            .parse(&inputs.queries[qi])
            .expect("generated query parses");
        let root = t.begin("truth");
        let codes = t.span("eval", || trace::eval_codes(snap, &q));
        t.end(root);
        if render(&codes) != truth.codes[0][qi] {
            failed += 1;
            eprintln!("eval_bn disagrees with ground truth on query #{qi}");
        }
    }

    // Wire: what the server decodes and encodes per request.
    let mut response_bytes = 0u64;
    for (i, &qi) in requests.iter().enumerate() {
        let request = Request::Query {
            query: inputs.queries[qi].clone(),
            options: WireOptions::strategy(Strategy::Hv),
        };
        let response = Response::Answer {
            codes: answers[i].clone(),
            strategy: Strategy::Hv,
            views_used: 1,
            candidates: 1,
            filter_us: 1,
            selection_us: 1,
            rewrite_us: 1,
        };
        let (req, resp) = t.span("wire.encode", || (request.encode(), response.encode()));
        response_bytes += resp.len() as u64;
        let (req, resp) = t.span("wire.decode", || {
            (Request::decode(&req), Response::decode(&resp))
        });
        if req.ok() != Some(request) || resp.ok() != Some(response) {
            failed += 1;
        }
    }

    // Write path: materialize the script's views, clone the store the
    // way copy-on-write does, parse both documents, build engines and
    // take snapshots.
    let mut added = ViewSet::new();
    let mut store = MaterializedStore::new();
    let mut nodes = 0u64;
    for write in &inputs.writes {
        if let Write::AddView(src) = write {
            let id = added.add(snap.parse(src).expect("generated view parses"));
            t.span("materialize", || {
                store.materialize(snap.doc(), &added, id, VIEW_BUDGET);
            });
            let view = store.get(id).expect("just materialized");
            nodes += view
                .fragments
                .trees()
                .iter()
                .map(|f| f.len() as u64)
                .sum::<u64>();
        }
    }
    drop(t.span("materialize.store_clone", || snap.store().clone()));
    let truncated = snap
        .views()
        .ids()
        .filter(|&v| !snap.store().get(v).is_some_and(|m| m.complete()))
        .count();
    for xml in &inputs.docs {
        let doc = t.span("xml.parse", || {
            parse_document(xml).expect("generated XML parses")
        });
        let engine = t.span("engine.new", || Engine::new(doc, engine_config()));
        for _ in 0..100 {
            drop(t.span("engine.snapshot", || engine.snapshot()));
        }
    }

    if let Err(e) = t.write_tsv(&work.join(format!("trace-{}.tsv", inputs.workload.name()))) {
        eprintln!("could not write spans: {e}");
    }

    // ---- Aggregate. ----
    let selfs = trace::self_times(&t.spans);
    let totals = trace::by_name(&t.spans, &selfs);
    let per_call = |name: &str, scale: f64| {
        totals
            .get(name)
            .map_or(0.0, |&(calls, ns)| ns as f64 / calls as f64 / scale)
    };
    let n = requests.len() as f64;
    let per_query = |c: Counter| counters.get(c) as f64 / n;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let traced_ns: Vec<u64> = request_roots
        .iter()
        .filter(|&&r| t.spans[r].name == "request")
        .map(|&r| t.spans[r].end_ns - t.spans[r].start_ns)
        .collect();
    let root_self: Vec<u64> = request_roots
        .iter()
        .filter(|&&r| t.spans[r].name == "request")
        .map(|&r| selfs[r])
        .collect();
    let inprocess_us = mean(&untraced_ns) / 1e3;
    let layer_sum_us = (mean(&traced_ns) - mean(&root_self)) / 1e3;
    let sum_gap = (layer_sum_us - inprocess_us).abs() / inprocess_us;
    let materialize_s = totals.get("materialize").map_or(0, |t| t.1) as f64 / 1e9;
    println!(
        "layers add up: {layer_sum_us:.2} us of {inprocess_us:.2} us in-process (gap {:.1}%, tolerance {:.0}%): {}",
        sum_gap * 100.0,
        SUM_TOLERANCE * 100.0,
        if sum_gap <= SUM_TOLERANCE { "yes" } else { "NO" }
    );
    let metrics = vec![
        m("parse.self_us", per_call("parse", 1e3), "us"),
        m("filter.self_us", per_call("filter", 1e3), "us"),
        m(
            "filter.nfa_states",
            per_query(Counter::FilterNfaStates),
            "count",
        ),
        m(
            "filter.candidates",
            per_query(Counter::FilterViewsAdmitted),
            "count",
        ),
        m(
            "filter.useful_ratio",
            ratio(
                counters.get(Counter::SelectViews),
                counters.get(Counter::FilterViewsAdmitted),
            ),
            "ratio",
        ),
        m("select.self_us", per_call("select", 1e3), "us"),
        m(
            "select.leafcover_attempts",
            per_query(Counter::SelectLeafCoverAttempts),
            "count",
        ),
        m(
            "select.view_answered_frac",
            1.0 - fallbacks as f64 / n,
            "ratio",
        ),
        m("rewrite.self_us", per_call("rewrite", 1e3), "us"),
        m(
            "rewrite.cache_hit_ratio",
            ratio(
                counters.get(Counter::RewriteCacheHits),
                counters.get(Counter::RewriteCacheHits) + counters.get(Counter::RewriteCacheMisses),
            ),
            "ratio",
        ),
        m(
            "rewrite.dewey_comparisons",
            per_query(Counter::RewriteDeweyComparisons),
            "count",
        ),
        m(
            "rewrite.gallop_probes",
            per_query(Counter::RewriteGallopProbes),
            "count",
        ),
        m("eval.self_us", per_call("eval", 1e3), "us"),
        m("eval.fallback_frac", fallbacks as f64 / n, "ratio"),
        m("wire.encode_us", per_call("wire.encode", 1e3), "us"),
        m("wire.decode_us", per_call("wire.decode", 1e3), "us"),
        m("wire.response_bytes", response_bytes as f64 / n, "bytes"),
        m("materialize.view_ms", per_call("materialize", 1e6), "ms"),
        m(
            "materialize.nodes_per_s",
            nodes as f64 / materialize_s,
            "1/s",
        ),
        m("materialize.truncated_views", truncated as f64, "count"),
        m(
            "materialize.store_clone_ms",
            per_call("materialize.store_clone", 1e6),
            "ms",
        ),
        m("engine.new_ms", per_call("engine.new", 1e6), "ms"),
        m("engine.snapshot_us", per_call("engine.snapshot", 1e3), "us"),
        m("xml.parse_ms", per_call("xml.parse", 1e6), "ms"),
        m("trace.inprocess_us", inprocess_us, "us"),
        m("trace.layer_sum_us", layer_sum_us, "us"),
        m("trace.sum_gap_frac", sum_gap, "ratio"),
        m(
            "trace.overhead_us",
            mean(&traced_ns) / 1e3 - inprocess_us,
            "us",
        ),
    ];
    let mut sorted = untraced_ns;
    Replay {
        metrics,
        inprocess_p50_us: pct_us(&mut sorted, 50.0),
        attempted: requests.len() as u64,
        failed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gen::Shape;

    /// The ground-truth gate over a real server: correct truth passes
    /// every read, and one injected wrong answer fails exactly the reads
    /// of that query.
    #[test]
    fn ground_truth_gate_fails_an_injected_wrong_answer() {
        let shape = Shape {
            scale: 0.002,
            random_views: 30,
            pool: 0,
            adds: 2,
            swaps: 1,
        };
        let work = work_dir().join(format!("test-{}", std::process::id()));
        std::fs::create_dir_all(&work).unwrap();
        let s = setup(Inputs::generate_with(Workload::Hot, shape, 3), &work);
        let requests = Requests::new(&s.inputs.queries);
        let server = Server::bind(
            "127.0.0.1:0",
            s.engine,
            s.inputs.views.clone(),
            ServerConfig::default(),
        )
        .unwrap();
        let addr = server.local_addr().to_string();
        let thread = std::thread::spawn(move || server.run());
        let mut clients = load::connect(&addr, 1);
        let gate = SwapGate::default();
        let stop = AtomicBool::new(false);
        let mut wrong = Truth {
            codes: s.truth.codes.clone(),
        };
        assert!(!wrong.codes[0][0].is_empty(), "Q1 is positive");
        wrong.codes[0][0].pop();
        let mut failures = Vec::new();
        for truth in [&s.truth, &wrong] {
            let checker = Checker { truth, gate: &gate };
            let pace = Pace {
                rate: None,
                limit: Limit::Count(8),
                from: 0,
            };
            let stats =
                load::read_phase(&mut clients, &s.inputs, &requests, &checker, 0, pace, &stop);
            assert_eq!(stats.attempted, 8);
            failures.push(stats.failed);
        }
        // Round-robin over four queries: query 0 is read twice.
        assert_eq!(failures, vec![0, 2]);
        let writes = load::write_phase(
            &mut clients[0],
            &s.inputs,
            &s.doc_paths,
            &s.doc_nodes,
            &gate,
        );
        assert_eq!((writes.attempted, writes.failed), (3, 0));
        clients[0].call(&Request::Shutdown).unwrap();
        drop(clients);
        thread.join().unwrap().unwrap();
        std::fs::remove_dir_all(&work).ok();
    }
}
