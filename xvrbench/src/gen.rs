//! Seeded input generation: the documents, the view catalog, the read
//! queries and their request stream, and the admin write script.
//!
//! Everything is derived from the workload seed and nothing else, so the
//! same seed always yields byte-identical inputs ([`Inputs::fingerprint`]
//! shows it). The server only ever receives the generated text: document
//! XML files, view XPath sources and query XPath sources.

use xvr_bench::{planted_views, test_queries};
use xvr_pattern::generator::QueryConfig;
use xvr_pattern::{distinct_positive_patterns, TreePattern};
use xvr_xml::generator::{generate, Config};
use xvr_xml::{parse_document, serialize, Document};

/// SplitMix64: a tiny, seedable, statistically solid generator. Also used
/// as a mixing function to derive independent sub-seeds.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A sub-seed for one purpose (`salt`) of one workload seed.
fn derive(seed: u64, salt: u64) -> u64 {
    SplitMix64::new(seed ^ salt.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
}

/// Zipf(s) over ranks `0..n`: rank `r` is drawn with probability
/// proportional to `1 / (r + 1)^s`.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf over an empty range");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// The three benchmark workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Hot,
    Mixed,
    Churn,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "hot" => Some(Workload::Hot),
            "mixed" => Some(Workload::Mixed),
            "churn" => Some(Workload::Churn),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Hot => "hot",
            Workload::Mixed => "mixed",
            Workload::Churn => "churn",
        }
    }

    /// Generation parameters of this workload.
    pub fn shape(self) -> Shape {
        match self {
            Workload::Hot | Workload::Mixed => Shape {
                scale: 0.01,
                random_views: 1000,
                pool: if self == Workload::Mixed { 2000 } else { 0 },
                adds: 60,
                swaps: 2,
            },
            Workload::Churn => Shape {
                scale: 0.05,
                random_views: 392,
                pool: 0,
                adds: 100,
                swaps: 3,
            },
        }
    }
}

/// Generation parameters.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// XMark-like document scale factor.
    pub scale: f64,
    /// Random positive views added after the planted ones.
    pub random_views: usize,
    /// Size of the generated query pool (0: Table III queries only).
    pub pool: usize,
    /// `AddView` requests in the write script.
    pub adds: usize,
    /// `SwapDoc` requests in the write script.
    pub swaps: usize,
}

/// Zipf exponent of the `mixed` request stream.
pub const ZIPF_S: f64 = 1.0;

/// Client populations of the `mixed` stream. Each ranks the pool in its
/// own random order, and requests cycle through the populations, so the
/// stream's cost does not hang on the few queries one ranking happens to
/// put on top.
pub const POPULATIONS: usize = 128;

/// One admin request of the write script.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Write {
    /// Register (and materialize) a new view.
    AddView(String),
    /// Swap the resident document for `Inputs::docs[i]`.
    SwapDoc(usize),
}

/// Every generated input of one workload run.
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    /// Serialized documents; `docs[0]` is resident at start, `SwapDoc`
    /// alternates between the two.
    pub docs: Vec<String>,
    /// The initial catalog, planted Table III views first.
    pub views: Vec<String>,
    /// Distinct read queries.
    pub queries: Vec<String>,
    /// Zipf sampler over `queries` (`mixed`); round-robin otherwise.
    zipf: Option<Zipf>,
    /// Per client population, a random rank → query index permutation.
    rank_to_query: Vec<Vec<u32>>,
    pub writes: Vec<Write>,
}

fn render(patterns: &[TreePattern], doc: &Document) -> Vec<String> {
    patterns
        .iter()
        .map(|p| p.display(&doc.labels).to_string())
        .collect()
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        Inputs::generate_with(workload, workload.shape(), seed)
    }

    /// [`Inputs::generate`] with explicit generation parameters.
    pub fn generate_with(workload: Workload, shape: Shape, seed: u64) -> Inputs {
        let docs: Vec<String> = (0..2)
            .map(|i| {
                let d = generate(&Config::scale(shape.scale).with_seed(derive(seed, 1 + i)));
                serialize(&d.tree, &d.labels)
            })
            .collect();
        // Views and queries are generated against the document exactly as
        // the server will parse it, so their label spaces agree.
        let doc = parse_document(&docs[0]).expect("generated XML parses");
        let mut views: Vec<String> = planted_views().iter().map(|s| s.to_string()).collect();
        // One generator run yields the catalog and, after it, the views the
        // write script adds: all distinct, none already in the catalog.
        let wanted = shape.random_views + shape.adds;
        let fresh = render(
            &distinct_positive_patterns(
                &doc,
                QueryConfig::paper_view_workload(derive(seed, 3)),
                wanted + views.len(),
            ),
            &doc,
        );
        let mut fresh: Vec<String> = fresh.into_iter().filter(|v| !views.contains(v)).collect();
        assert!(
            fresh.len() >= wanted,
            "generator produced {} distinct views, {wanted} wanted",
            fresh.len()
        );
        fresh.truncate(wanted);
        let adds = fresh.split_off(shape.random_views);
        views.extend(fresh);

        let queries: Vec<String> = if shape.pool == 0 {
            test_queries().iter().map(|q| q.xpath.to_string()).collect()
        } else {
            let pool = render(
                &distinct_positive_patterns(
                    &doc,
                    QueryConfig::paper_query_workload(derive(seed, 4)),
                    shape.pool,
                ),
                &doc,
            );
            assert!(
                pool.len() * 10 >= shape.pool * 9,
                "query pool has {} of {} queries",
                pool.len(),
                shape.pool
            );
            pool
        };
        let zipf = (shape.pool > 0).then(|| Zipf::new(queries.len(), ZIPF_S));
        let mut rng = SplitMix64::new(derive(seed, 5));
        let rank_to_query = (0..POPULATIONS)
            .map(|_| {
                let mut order: Vec<u32> = (0..queries.len() as u32).collect();
                for i in (1..order.len()).rev() {
                    let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                    order.swap(i, j);
                }
                order
            })
            .collect();

        // The write script: the adds in order, with the swaps spread
        // evenly between them, alternating to the other document.
        let mut writes = Vec::with_capacity(shape.adds + shape.swaps);
        let per_swap = shape.adds / (shape.swaps + 1);
        let mut swaps_done = 0;
        for (i, v) in adds.into_iter().enumerate() {
            writes.push(Write::AddView(v));
            if swaps_done < shape.swaps && (i + 1) % per_swap.max(1) == 0 {
                swaps_done += 1;
                writes.push(Write::SwapDoc(swaps_done % 2));
            }
        }
        while swaps_done < shape.swaps {
            swaps_done += 1;
            writes.push(Write::SwapDoc(swaps_done % 2));
        }

        Inputs {
            workload,
            seed,
            docs,
            views,
            queries,
            zipf,
            rank_to_query,
            writes,
        }
    }

    /// The query index of request `i` of the read stream named `stream`.
    /// Each request is drawn independently, so any phase can start
    /// anywhere in the stream without replaying the ones before.
    pub fn request(&self, stream: u64, i: u64) -> usize {
        match &self.zipf {
            None => (i % self.queries.len() as u64) as usize,
            Some(zipf) => {
                let mut rng = SplitMix64::new(
                    derive(self.seed, 0x100 + stream) ^ i.wrapping_mul(0x2545_F491_4F6C_DD1D),
                );
                let population = &self.rank_to_query[(i % POPULATIONS as u64) as usize];
                population[zipf.sample(&mut rng)] as usize
            }
        }
    }

    /// FNV-1a over every generated input (documents, catalog, queries,
    /// the first requests of each stream, the write script).
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        for d in &self.docs {
            h.str(d);
        }
        for v in &self.views {
            h.str(v);
        }
        for q in &self.queries {
            h.str(q);
        }
        for stream in 0..3 {
            for i in 0..4096 {
                h.u64(self.request(stream, i) as u64);
            }
        }
        for w in &self.writes {
            match w {
                Write::AddView(v) => h.str(v),
                Write::SwapDoc(d) => h.u64(*d as u64),
            }
        }
        h.0
    }
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_rank_frequency_follows_the_power_law() {
        let n = 100;
        let zipf = Zipf::new(n, 1.0);
        let mut rng = SplitMix64::new(7);
        let draws = 200_000;
        let mut freq = vec![0u64; n];
        for _ in 0..draws {
            freq[zipf.sample(&mut rng)] += 1;
        }
        let h: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
        for (rank, &f) in freq.iter().enumerate().take(10) {
            let expected = draws as f64 / ((rank + 1) as f64 * h);
            let err = (f as f64 - expected).abs() / expected;
            assert!(err < 0.05, "rank {rank}: {f} draws, expected {expected:.0}");
        }
        // Rank 1 is drawn about twice as often as rank 2, ten times as
        // often as rank 10.
        let r12 = freq[0] as f64 / freq[1] as f64;
        let r110 = freq[0] as f64 / freq[9] as f64;
        assert!((1.8..2.2).contains(&r12), "f1/f2 = {r12}");
        assert!((8.5..11.5).contains(&r110), "f1/f10 = {r110}");
        assert!(freq.iter().all(|&f| f > 0));
    }

    #[test]
    fn zipf_is_deterministic_per_seed() {
        let zipf = Zipf::new(2000, 1.0);
        let draw = |seed| {
            let mut rng = SplitMix64::new(seed);
            (0..1000).map(|_| zipf.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
    }

    #[test]
    fn fingerprint_repeats_for_a_seed_and_differs_across_seeds() {
        let shape = Shape {
            scale: 0.002,
            random_views: 40,
            pool: 60,
            adds: 6,
            swaps: 2,
        };
        let a = Inputs::generate_with(Workload::Mixed, shape, 11);
        let b = Inputs::generate_with(Workload::Mixed, shape, 11);
        let c = Inputs::generate_with(Workload::Mixed, shape, 12);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn write_script_adds_distinct_new_views_and_alternates_documents() {
        let shape = Shape {
            scale: 0.002,
            random_views: 40,
            pool: 0,
            adds: 12,
            swaps: 3,
        };
        let inputs = Inputs::generate_with(Workload::Churn, shape, 5);
        let adds: Vec<&String> = inputs
            .writes
            .iter()
            .filter_map(|w| match w {
                Write::AddView(v) => Some(v),
                Write::SwapDoc(_) => None,
            })
            .collect();
        let swaps: Vec<usize> = inputs
            .writes
            .iter()
            .filter_map(|w| match w {
                Write::SwapDoc(d) => Some(*d),
                Write::AddView(_) => None,
            })
            .collect();
        assert_eq!(adds.len(), 12);
        assert_eq!(swaps, vec![1, 0, 1]);
        let distinct: std::collections::HashSet<&String> = adds.iter().copied().collect();
        assert_eq!(distinct.len(), adds.len());
        assert!(adds.iter().all(|v| !inputs.views.contains(v)));
        assert_eq!(inputs.views.len(), 48);
    }
}
