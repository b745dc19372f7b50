//! The seeded request mix of the `serve-mixed` workload.
//!
//! The class shares start from the repository's own serve load test
//! (`crates/bench/src/bin/serve_load.rs`): 70 % probes, 20 % shared-grid
//! sweeps, 10 % unique sweeps. The split inside each group is the
//! benchmark's own choice, so that every serving path carries load: probes
//! half at `sim` and half at `auto`; unique sweeps mostly sub-grids whose
//! cells are all memoized (checkpoint-bound) and a trickle over cells never
//! seen before (simulation-bound). None of this is measured client
//! behaviour; it is a synthetic mix.
//!
//! Two closed-loop clients share the mix: client 0 keeps one connection
//! alive, client 1 opens a connection per request. Each client draws its
//! own request stream from the seed, so the same seed always yields the
//! same request list. Requests that must be unique within a run (sub-grid
//! sweeps and sweeps over never-seen cells) come from seeded pools split
//! evenly between the clients, so no two requests of a run share a cache
//! key however the clients interleave.

use gasnub::core::Grid;
use gasnub::memsim::rng::Rng;

/// Draws `0..n` (`n > 0`).
fn below(rng: &mut Rng, n: usize) -> usize {
    rng.gen_range(0, n as u64) as usize
}

/// The sub-stream of [`Rng::fork`] the unique pools are shuffled with;
/// the clients' own streams are forks 0 and 1.
const POOL_STREAM: u64 = 0x5bd1_e995;

/// The surfaces the server computes during warm-up, at `sim` and at
/// `auto`. Probes and shared-grid sweeps read their cells, and every
/// sub-grid of them is fully memoized in the server.
pub const WARM: [(&str, &str); 4] = [
    ("t3d", "load"),
    ("t3d", "deposit"),
    ("t3e", "load"),
    ("t3e", "fetch"),
];

/// The request classes, in the order reports list them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// A probe of a memoized cell at `sim`.
    ProbeSim,
    /// A probe of a warmed cell at `auto`.
    ProbeAuto,
    /// A warm-up surface again: served from the memory cache.
    SweepMemory,
    /// A sub-grid of a warm surface, unique in the run: computed, but every
    /// cell is a memo hit, so checkpoint writes bound it.
    SweepComputed,
    /// A one-cell sweep over a cell no request has touched.
    SweepNovel,
}

impl Class {
    pub const ALL: [Class; 5] = [
        Class::ProbeSim,
        Class::ProbeAuto,
        Class::SweepMemory,
        Class::SweepComputed,
        Class::SweepNovel,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Class::ProbeSim => "probe_sim",
            Class::ProbeAuto => "probe_auto",
            Class::SweepMemory => "sweep_memory",
            Class::SweepComputed => "sweep_computed",
            Class::SweepNovel => "sweep_novel",
        }
    }

    /// Share of each client's requests, in parts per thousand: the 70 %
    /// probes, 20 % shared sweeps and 10 % unique sweeps of the repository's
    /// serve load test, split as the module docs say.
    fn weight(self) -> usize {
        match self {
            Class::ProbeSim => 350,
            Class::ProbeAuto => 350,
            Class::SweepMemory => 200,
            Class::SweepComputed => 90,
            Class::SweepNovel => 10,
        }
    }

    /// The `X-Gasnub-Source` the cache design requires for this class
    /// (`None`: probes carry no source header).
    pub fn expected_source(self) -> Option<&'static str> {
        match self {
            Class::ProbeSim | Class::ProbeAuto => None,
            Class::SweepMemory => Some("memory"),
            Class::SweepComputed | Class::SweepNovel => Some("computed"),
        }
    }
}

/// One request of the mix.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Request {
    pub class: Class,
    pub machine: &'static str,
    pub op: &'static str,
    pub tier: &'static str,
    pub what: What,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum What {
    Probe {
        ws: u64,
        stride: u64,
    },
    Sweep {
        strides: Vec<u64>,
        working_sets: Vec<u64>,
    },
}

impl Request {
    pub fn path(&self) -> &'static str {
        match self.what {
            What::Probe { .. } => "/v1/probe",
            What::Sweep { .. } => "/v1/sweep",
        }
    }

    pub fn body(&self) -> String {
        let head = format!(
            "{{\"machine\":\"{}\",\"op\":\"{}\",\"tier\":\"{}\"",
            self.machine, self.op, self.tier
        );
        let list = |xs: &[u64]| xs.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
        match &self.what {
            What::Probe { ws, stride } => {
                format!("{head},\"ws_bytes\":{ws},\"stride\":{stride}}}")
            }
            What::Sweep {
                strides,
                working_sets,
            } => format!(
                "{head},\"grid\":{{\"strides\":[{}],\"working_sets\":[{}]}}}}",
                list(strides),
                list(working_sets)
            ),
        }
    }

    pub fn grid(&self) -> Option<Grid> {
        match &self.what {
            What::Sweep {
                strides,
                working_sets,
            } => Some(Grid {
                strides: strides.clone(),
                working_sets: working_sets.clone(),
            }),
            What::Probe { .. } => None,
        }
    }

    /// A warm-up sweep: the full quick grid of a warm surface.
    pub fn warm_sweep(pair: (&'static str, &'static str), tier: &'static str) -> Request {
        let q = Grid::quick();
        Request {
            class: Class::SweepMemory,
            machine: pair.0,
            op: pair.1,
            tier,
            what: What::Sweep {
                strides: q.strides,
                working_sets: q.working_sets,
            },
        }
    }
}

/// Every non-empty subset of `axis`, the whole axis last.
fn subsets(axis: &[u64]) -> Vec<Vec<u64>> {
    (1..1u32 << axis.len())
        .map(|mask| {
            axis.iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, &v)| v)
                .collect()
        })
        .collect()
}

/// Seeded pools of run-unique sweeps: one client's share.
#[derive(Debug, Clone)]
struct Pools {
    /// `(warm pair index, strides, working sets)`.
    subgrids: Vec<(usize, Vec<u64>, Vec<u64>)>,
    /// `(warm pair index, working set, stride)` off the quick grid.
    novel: Vec<(usize, u64, u64)>,
}

impl Pools {
    fn new(seed: u64, client: usize) -> Pools {
        let q = Grid::quick();
        let mut subgrids = Vec::new();
        let mut novel = Vec::new();
        for pair in 0..WARM.len() {
            // Each sub-grid leaves out at least one stride or working set,
            // so none equals the warm surface's own (memory-cached) grid.
            for s in subsets(&q.strides) {
                for w in subsets(&q.working_sets) {
                    if s != q.strides || w != q.working_sets {
                        subgrids.push((pair, s.clone(), w));
                    }
                }
            }
            // Odd strides and 1 KiB multiples miss every quick-grid cell
            // and every paper probe.
            for k in 3..=256u64 {
                for stride in [3, 5, 7] {
                    let ws = k * 1024;
                    if !q.working_sets.contains(&ws) {
                        novel.push((pair, ws, stride));
                    }
                }
            }
        }
        let mut rng = Rng::new(seed).fork(POOL_STREAM);
        rng.shuffle(&mut subgrids);
        rng.shuffle(&mut novel);
        fn share<T>(pool: Vec<T>, client: usize) -> Vec<T> {
            pool.into_iter().skip(client).step_by(2).collect()
        }
        Pools {
            subgrids: share(subgrids, client),
            novel: share(novel, client),
        }
    }
}

/// One client's endless, seeded request stream.
#[derive(Debug, Clone)]
pub struct Stream {
    rng: Rng,
    pools: Pools,
    next_subgrid: usize,
    next_novel: usize,
}

impl Stream {
    pub fn new(seed: u64, client: usize) -> Stream {
        Stream {
            rng: Rng::new(seed).fork(client as u64),
            pools: Pools::new(seed, client),
            next_subgrid: 0,
            next_novel: 0,
        }
    }

    fn class(&mut self) -> Class {
        let mut roll = below(&mut self.rng, 1000);
        for class in Class::ALL {
            if roll < class.weight() {
                return class;
            }
            roll -= class.weight();
        }
        unreachable!("class weights sum to 1000")
    }

    /// The next request, or `None` once a unique pool is used up (the run
    /// then reports it as an error rather than repeat a cache key).
    pub fn next_request(&mut self) -> Option<Request> {
        let q = Grid::quick();
        let class = self.class();
        let pair = WARM[below(&mut self.rng, WARM.len())];
        let ws = q.working_sets[below(&mut self.rng, q.working_sets.len())];
        let stride = q.strides[below(&mut self.rng, q.strides.len())];
        let probe = |tier| Request {
            class,
            machine: pair.0,
            op: pair.1,
            tier,
            what: What::Probe { ws, stride },
        };
        Some(match class {
            Class::ProbeSim => probe("sim"),
            Class::ProbeAuto => probe("auto"),
            Class::SweepMemory => {
                let tier = if below(&mut self.rng, 2) == 0 {
                    "sim"
                } else {
                    "auto"
                };
                Request::warm_sweep(pair, tier)
            }
            Class::SweepComputed => {
                let (p, strides, working_sets) =
                    self.pools.subgrids.get(self.next_subgrid)?.clone();
                self.next_subgrid += 1;
                Request {
                    class,
                    machine: WARM[p].0,
                    op: WARM[p].1,
                    tier: "sim",
                    what: What::Sweep {
                        strides,
                        working_sets,
                    },
                }
            }
            Class::SweepNovel => {
                let (p, ws, stride) = *self.pools.novel.get(self.next_novel)?;
                self.next_novel += 1;
                Request {
                    class,
                    machine: WARM[p].0,
                    op: WARM[p].1,
                    tier: "sim",
                    what: What::Sweep {
                        strides: vec![stride],
                        working_sets: vec![ws],
                    },
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, HashSet};

    fn take(seed: u64, client: usize, n: usize) -> Vec<Request> {
        let mut s = Stream::new(seed, client);
        (0..n).map(|_| s.next_request().unwrap()).collect()
    }

    fn expected_sources(reqs: &[Request]) -> BTreeMap<(Class, Option<&'static str>), usize> {
        let mut counts = BTreeMap::new();
        for r in reqs {
            *counts
                .entry((r.class, r.class.expected_source()))
                .or_default() += 1;
        }
        counts
    }

    #[test]
    fn the_same_seed_gives_the_same_requests_and_source_counts() {
        for client in 0..2 {
            let a = take(7, client, 2000);
            let b = take(7, client, 2000);
            assert_eq!(a, b);
            assert_eq!(expected_sources(&a), expected_sources(&b));
        }
        assert_ne!(take(7, 0, 200), take(8, 0, 200));
    }

    #[test]
    fn unique_classes_never_repeat_a_cache_key_across_clients() {
        // The pause between requests bounds each client to 500 requests a second
        // however fast the server answers, so 15000 requests per client
        // cover a 30-second timed section.
        for seed in [3, 17, 1001] {
            let mut seen = HashSet::new();
            for client in 0..2 {
                for r in take(seed, client, 15_000) {
                    if matches!(r.class, Class::SweepComputed | Class::SweepNovel) {
                        let key = (r.machine, r.op, r.tier, r.what.clone());
                        assert!(seen.insert(key), "repeated {r:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn unique_sweeps_differ_from_the_warm_surfaces() {
        let q = Grid::quick();
        for r in take(11, 1, 3000) {
            if let (Class::SweepComputed | Class::SweepNovel, Some(g)) = (r.class, r.grid()) {
                assert_ne!(g, q);
            }
        }
    }

    #[test]
    fn every_class_appears_in_a_short_stream() {
        let classes: HashSet<Class> = take(1, 0, 500).iter().map(|r| r.class).collect();
        assert_eq!(classes.len(), Class::ALL.len());
    }

    #[test]
    fn request_bodies_are_the_server_json_shape() {
        let r = Request::warm_sweep(WARM[0], "auto");
        assert_eq!(
            r.body(),
            "{\"machine\":\"t3d\",\"op\":\"load\",\"tier\":\"auto\",\"grid\":\
             {\"strides\":[1,2,8,16,64],\"working_sets\":[2048,32768,524288,4194304,8388608]}}"
        );
    }
}
