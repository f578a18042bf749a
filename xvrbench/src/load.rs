//! The load process: reads (closed- and open-loop) and the admin write
//! script, driven over loopback TCP with `xvr_core::Client`, every reply
//! checked against ground truth.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use xvr_core::serve::percentile;
use xvr_core::{Client, Request, Response, Status, Strategy, WireOptions};

use crate::gen::{Inputs, Write};

/// Ground truth: `codes[doc][query]` is the query's `Bn` answer on that
/// document, rendered exactly as the server renders codes.
pub struct Truth {
    pub codes: Vec<Vec<Vec<String>>>,
}

/// Which document is resident, shared by the admin connection and the
/// readers. The counter is even while no swap is in flight and odd while
/// one is; after `k` completed swaps the resident document is
/// `k % 2` (the script alternates, starting from document 0).
#[derive(Default)]
pub struct SwapGate {
    counter: AtomicU64,
}

impl SwapGate {
    fn read(&self) -> u64 {
        self.counter.load(Ordering::SeqCst)
    }

    fn bump(&self) {
        self.counter.fetch_add(1, Ordering::SeqCst);
    }
}

/// Checks a read's answer. A read that overlapped no swap must equal the
/// truth on the document resident throughout; one that overlapped a swap
/// may equal the truth on either document.
pub struct Checker<'a> {
    pub truth: &'a Truth,
    pub gate: &'a SwapGate,
}

impl Checker<'_> {
    fn accepts(&self, query: usize, codes: &[String], before: u64, after: u64) -> bool {
        if before == after && before.is_multiple_of(2) {
            let doc = ((before / 2) % 2) as usize;
            self.truth.codes[doc.min(self.truth.codes.len() - 1)][query] == codes
        } else {
            self.truth.codes.iter().any(|doc| doc[query] == codes)
        }
    }
}

/// Pre-encoded request payloads: per query, the `Hv` request and the
/// `Bn` request a client re-sends when `Hv` is not answerable.
pub struct Requests {
    hv: Vec<Vec<u8>>,
    bn: Vec<Vec<u8>>,
}

impl Requests {
    pub fn new(queries: &[String]) -> Requests {
        let encode = |strategy| {
            queries
                .iter()
                .map(|q| {
                    Request::Query {
                        query: q.clone(),
                        options: WireOptions::strategy(strategy),
                    }
                    .encode()
                })
                .collect()
        };
        Requests {
            hv: encode(Strategy::Hv),
            bn: encode(Strategy::Bn),
        }
    }
}

/// What one read returned.
enum Read {
    Answer { codes: Vec<String>, fallback: bool },
    Failed(String),
}

fn read(client: &mut Client, requests: &Requests, query: usize) -> Read {
    match client.call_raw(&requests.hv[query]) {
        Ok(Response::Answer { codes, .. }) => Read::Answer {
            codes,
            fallback: false,
        },
        Ok(Response::Error {
            status: Status::NotAnswerable,
            ..
        }) => match client.call_raw(&requests.bn[query]) {
            Ok(Response::Answer { codes, .. }) => Read::Answer {
                codes,
                fallback: true,
            },
            other => Read::Failed(format!("Bn re-send: {other:?}")),
        },
        other => Read::Failed(format!("{other:?}")),
    }
}

/// Outcome counts and samples of a read phase.
#[derive(Default)]
pub struct ReadStats {
    pub attempted: u64,
    pub failed: u64,
    pub fallbacks: u64,
    pub samples: Vec<Sample>,
    pub wall: Duration,
    /// The first few failures, for the log.
    pub errors: Vec<String>,
}

impl ReadStats {
    fn merge(&mut self, other: ReadStats) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.fallbacks += other.fallbacks;
        self.samples.extend(other.samples);
        for e in other.errors {
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
    }

    fn record(&mut self, outcome: Read, query: usize, checker: &Checker, before: u64, after: u64) {
        self.attempted += 1;
        match outcome {
            Read::Answer { codes, fallback } => {
                self.fallbacks += fallback as u64;
                if !checker.accepts(query, &codes, before, after) {
                    self.fail(format!("wrong answer to query #{query}"));
                }
            }
            Read::Failed(e) => self.fail(e),
        }
    }

    fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(e);
        }
    }

    /// Latencies, nanoseconds, ascending.
    pub fn latencies(&self) -> Vec<u64> {
        sorted(self.samples.iter().map(|s| s.latency_ns))
    }

    /// Generator lags, nanoseconds, ascending.
    pub fn lags(&self) -> Vec<u64> {
        sorted(self.samples.iter().map(|s| s.lag_ns))
    }

    /// Split the phase into `width`-long slices by completion time (a
    /// last partial slice is dropped) and return each slice's samples.
    fn slices(&self, width: Duration) -> Vec<Vec<&Sample>> {
        let width = width.as_nanos() as u64;
        let full = (self.wall.as_nanos() as u64 / width).max(1) as usize;
        let mut slices = vec![Vec::new(); full];
        for s in &self.samples {
            if let Some(slice) = slices.get_mut((s.done_ns / width) as usize) {
                slice.push(s);
            }
        }
        slices
    }

    /// The `p`th latency percentile of each `width`-long slice of the
    /// phase that completed a request, nanoseconds.
    pub fn slice_percentiles(&self, p: f64, width: Duration) -> Vec<u64> {
        self.slices(width)
            .into_iter()
            .filter(|slice| !slice.is_empty())
            .map(|slice| percentile(&sorted(slice.iter().map(|s| s.latency_ns)), p))
            .collect()
    }

    /// Requests completed in each `width`-long slice of the phase.
    pub fn slice_counts(&self, width: Duration) -> Vec<u64> {
        self.slices(width)
            .into_iter()
            .map(|slice| slice.len() as u64)
            .collect()
    }
}

/// The `q`th percentile of `values`.
pub fn percentile_of(values: impl IntoIterator<Item = u64>, q: f64) -> u64 {
    percentile(&sorted(values), q)
}

/// One completed read.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// When the final reply arrived, nanoseconds after the phase started.
    pub done_ns: u64,
    /// To its final reply from when it was sent, or, in open loop, from
    /// when it was due if it had to queue behind busy connections,
    /// nanoseconds.
    pub latency_ns: u64,
    /// How late the generator sent it, nanoseconds (0 in closed loop).
    pub lag_ns: u64,
}

fn sorted(values: impl IntoIterator<Item = u64>) -> Vec<u64> {
    let mut v: Vec<u64> = values.into_iter().collect();
    v.sort_unstable();
    v
}

/// When a read phase stops.
#[derive(Clone, Copy, Debug)]
pub enum Limit {
    /// After this many requests.
    Count(u64),
    /// Once this long has passed.
    Time(Duration),
    /// When the caller raises the phase's stop flag.
    Stop,
}

/// How a read phase is paced.
#[derive(Clone, Copy, Debug)]
pub struct Pace {
    /// Closed loop when `None`: each connection sends its next request
    /// when the previous reply arrives. Open loop at this many requests
    /// per second otherwise: the phase's `i`th request is due `i / rate`
    /// seconds after its start, on one timeline shared by the connections.
    /// Its latency runs from when it was due if no connection was free by
    /// then, and from when it was sent otherwise.
    pub rate: Option<f64>,
    pub limit: Limit,
    /// Index of the phase's first request in its stream, so that phases
    /// taking turns continue one stream instead of repeating it.
    pub from: u64,
}

/// Yield until `deadline` passes, without sleeping: a CPU that idles
/// between requests is parked by the hypervisor, and waking it again adds
/// the host's scheduling delay to the request sent next.
fn wait_until(deadline: Instant) {
    while Instant::now() < deadline {
        std::thread::yield_now();
    }
}

/// One read phase over `clients`, drawing queries from read stream
/// `stream` of `inputs`.
pub fn read_phase(
    clients: &mut [Client],
    inputs: &Inputs,
    requests: &Requests,
    checker: &Checker,
    stream: u64,
    pace: Pace,
    stop: &AtomicBool,
) -> ReadStats {
    let cursor = AtomicU64::new(0);
    let t0 = Instant::now();
    let mut total = ReadStats::default();
    std::thread::scope(|scope| {
        let workers: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(k, client)| {
                let cursor = &cursor;
                scope.spawn(move || {
                    pin_to_cpu(k);
                    let mut stats = ReadStats::default();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let over = match pace.limit {
                            Limit::Count(n) => i >= n,
                            Limit::Time(length) => t0.elapsed() >= length,
                            Limit::Stop => stop.load(Ordering::SeqCst),
                        };
                        if over {
                            break;
                        }
                        let (start, lag_ns) = match pace.rate {
                            None => (Instant::now(), 0),
                            Some(rate) => {
                                let due = t0 + Duration::from_secs_f64(i as f64 / rate);
                                let queued = Instant::now() >= due;
                                wait_until(due);
                                let sent = Instant::now();
                                // Queued behind busy connections: the wait
                                // counts. Otherwise the connection was idle
                                // at the due time, and any lateness is the
                                // generator's, not the server's; it is
                                // reported as the lag.
                                (
                                    if queued { due } else { sent },
                                    (sent - due).as_nanos() as u64,
                                )
                            }
                        };
                        let query = inputs.request(stream, pace.from + i);
                        let before = checker.gate.read();
                        let outcome = read(client, requests, query);
                        let done = Instant::now();
                        stats.samples.push(Sample {
                            done_ns: (done - t0).as_nanos() as u64,
                            latency_ns: (done - start).as_nanos() as u64,
                            lag_ns,
                        });
                        let after = checker.gate.read();
                        stats.record(outcome, query, checker, before, after);
                    }
                    stats
                })
            })
            .collect();
        for w in workers {
            total.merge(w.join().expect("read worker panicked"));
        }
    });
    total.wall = t0.elapsed();
    total
}

/// The CPUs this thread may run on.
fn allowed_cpus() -> Vec<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    }
    let mut allowed = [0u64; 16];
    // SAFETY: `allowed` is a writable 128-byte CPU set, the size passed;
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, 128, allowed.as_mut_ptr()) } != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|&c| allowed[c / 64] & (1 << (c % 64)) != 0)
        .collect()
}

/// Restrict the calling thread to the `k`th CPU it may run on (modulo
/// their number), so each connection's client thread keeps one CPU and
/// the scheduler cannot flip between placements mid-run.
fn pin_to_cpu(k: usize) {
    extern "C" {
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let cpus = allowed_cpus();
    if cpus.is_empty() {
        return;
    }
    let cpu = cpus[k % cpus.len()];
    let mut mask = [0u64; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a readable 128-byte CPU set, the size passed.
    unsafe { sched_setaffinity(0, 128, mask.as_ptr()) };
}

/// Outcome of the admin write script.
#[derive(Default)]
pub struct WriteStats {
    pub attempted: u64,
    pub failed: u64,
    pub add_view_ns: Vec<u64>,
    pub swap_doc_ns: Vec<u64>,
    pub errors: Vec<String>,
}

/// Run the write script on `client`, checking every reply: the epoch
/// advances by one per write, the view count by one per `AddView`, and
/// the node count is the resident document's.
pub fn write_phase(
    client: &mut Client,
    inputs: &Inputs,
    doc_paths: &[String],
    doc_nodes: &[u64],
    gate: &SwapGate,
) -> WriteStats {
    let mut stats = WriteStats::default();
    let mut epoch = 0u64;
    let mut views = inputs.views.len() as u32;
    let mut resident = 0usize;
    for write in &inputs.writes {
        stats.attempted += 1;
        let (request, next_views, next_doc) = match write {
            Write::AddView(xpath) => (
                Request::AddView {
                    xpath: xpath.clone(),
                },
                views + 1,
                resident,
            ),
            Write::SwapDoc(d) => (
                Request::SwapDoc {
                    path: doc_paths[*d].clone(),
                },
                views,
                *d,
            ),
        };
        let swap = matches!(write, Write::SwapDoc(_));
        if swap {
            gate.bump();
        }
        let t = Instant::now();
        let reply = client.call(&request);
        let took = t.elapsed().as_nanos() as u64;
        let ok = matches!(
            &reply,
            Ok(Response::Swapped { epoch: e, nodes, views: v })
                if *e == epoch + 1 && *v == next_views && *nodes == doc_nodes[next_doc]
        );
        if ok {
            epoch += 1;
            views = next_views;
            resident = next_doc;
            if swap {
                stats.swap_doc_ns.push(took);
            } else {
                stats.add_view_ns.push(took);
            }
        } else {
            stats.failed += 1;
            if stats.errors.len() < 5 {
                stats.errors.push(format!("{write:?}: {reply:?}"));
            }
        }
        if swap {
            gate.bump();
            // A failed swap leaves the old document serving: count one
            // more swap so the gate names the resident document again.
            if (gate.read() / 2) % 2 != resident as u64 {
                gate.bump();
                gate.bump();
            }
        }
    }
    stats
}

/// Connect `n` clients to `addr`.
pub fn connect(addr: &str, n: usize) -> Vec<Client> {
    (0..n)
        .map(|_| Client::connect_retry(addr, Duration::from_secs(5)).expect("connect to server"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checker_pins_the_resident_document_and_relaxes_across_swaps() {
        let on = |code: &str| vec![vec![code.to_string()]];
        let truth = Truth {
            codes: vec![on("0.1"), on("0.2")],
        };
        let gate = SwapGate::default();
        let c = Checker {
            truth: &truth,
            gate: &gate,
        };
        let (a, b) = (["0.1".to_string()], ["0.2".to_string()]);
        // No swap overlapped: only the resident document's answer.
        assert!(c.accepts(0, &a, 0, 0) && !c.accepts(0, &b, 0, 0));
        assert!(c.accepts(0, &b, 2, 2) && !c.accepts(0, &a, 2, 2));
        assert!(c.accepts(0, &a, 4, 4));
        // A swap overlapped: either document, but nothing else.
        assert!(c.accepts(0, &a, 1, 1) && c.accepts(0, &b, 1, 2) && c.accepts(0, &a, 0, 2));
        assert!(!c.accepts(0, &[], 1, 2));
    }
}
