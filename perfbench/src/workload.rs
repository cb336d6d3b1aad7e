//! Seeded workload generation.
//!
//! Every input a run feeds the stack — grids, variants, right-hand sides —
//! is drawn here from the `--seed` argument, so the same seed always
//! yields the same job list. The program under test only ever receives
//! the generated inputs.

use vr_cg::baselines::PipelinedCg;
use vr_cg::overlap_k1::OverlapK1Cg;
use vr_cg::predict_recompute::PredictRecomputeCg;
use vr_cg::standard::StandardCg;
use vr_cg::CgVariant;

/// The three workloads of `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One caller, standard CG on the 512² Poisson stencil (N = 2^18):
    /// past L2, the memory wall.
    SolveLarge,
    /// One caller, mixed variants on 128²..256² grids: synchronization-bound.
    SolveSmall,
    /// Two tenants of an in-process `vr-svc` daemon over loopback TCP.
    SvcTcp,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::SolveLarge, Workload::SolveSmall, Workload::SvcTcp];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SolveLarge => "solve-large",
            Workload::SolveSmall => "solve-small",
            Workload::SvcTcp => "svc-tcp",
        }
    }

    pub fn from_name(s: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Relative tolerance of every solve in the workload.
    pub fn rtol(self) -> f64 {
        match self {
            Workload::SolveLarge => 1e-6,
            Workload::SolveSmall | Workload::SvcTcp => 1e-8,
        }
    }

    /// Inclusive range the grid side is drawn from.
    pub fn grid_range(self) -> (usize, usize) {
        match self {
            Workload::SolveLarge => (512, 512),
            Workload::SolveSmall => (128, 256),
            Workload::SvcTcp => (32, 64),
        }
    }

    /// Variants the workload draws from, in equal shares.
    pub fn variants(self) -> &'static [Variant] {
        match self {
            Workload::SolveSmall => &Variant::ALL,
            // the daemon's throughput route, and the memory-wall baseline
            Workload::SolveLarge | Workload::SvcTcp => &[Variant::Standard],
        }
    }

    /// Grid side at which per-call layer probes (kernel timings, the
    /// vr-sim prediction) are taken: the middle of the drawn range.
    pub fn probe_grid(self) -> usize {
        let (lo, hi) = self.grid_range();
        (lo + hi) / 2
    }
}

/// The CG variants the library workloads draw from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    Standard,
    OverlapK1,
    Pipelined,
    PredictRecompute,
}

impl Variant {
    pub const ALL: [Variant; 4] = [
        Variant::Standard,
        Variant::OverlapK1,
        Variant::Pipelined,
        Variant::PredictRecompute,
    ];

    /// Registry key (as in `vr_cg::registry`).
    pub fn key(self) -> &'static str {
        match self {
            Variant::Standard => "standard",
            Variant::OverlapK1 => "overlap_k1",
            Variant::Pipelined => "pipelined",
            Variant::PredictRecompute => "predict_recompute",
        }
    }

    /// The solver, built with the registry's canonical parameters.
    pub fn solver(self) -> Box<dyn CgVariant> {
        match self {
            Variant::Standard => Box::new(StandardCg::new()),
            Variant::OverlapK1 => Box::new(OverlapK1Cg::new().with_resync(20)),
            Variant::Pipelined => Box::new(PipelinedCg::new()),
            Variant::PredictRecompute => Box::new(PredictRecomputeCg::new()),
        }
    }
}

/// One solve request: operator grid side, variant, right-hand-side seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Job {
    pub grid: usize,
    pub variant: Variant,
    /// Seed of the right-hand side; below 2^62 so it also fits the
    /// daemon's non-negative wire integer.
    pub rhs_seed: u64,
}

/// SplitMix64: a small, well-mixed generator owned by the benchmark so
/// its inputs never depend on the program's own generators.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// Uniform in `[-1, 1)`.
    pub fn signed_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Shuffle `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.range(0, i));
        }
    }
}

/// Jobs per balanced block of a [`JobStream`].
pub const BLOCK: usize = 16;

/// The endless job list of one caller of a workload. Callers are numbered
/// from 0; each draws from its own stream of the run's seed.
///
/// Jobs come in shuffled blocks of [`BLOCK`]: one grid from each
/// sixteenth of the grid range, and every variant equally often, each
/// variant once per run of consecutive sixteenths. Every grid and variant
/// is still equally likely, but each seed gets the same mix of costs. With
/// independent draws the mix alone moved solve-small's median solve time
/// by about 10% between seeds.
#[derive(Debug, Clone)]
pub struct JobStream {
    workload: Workload,
    rng: SplitMix64,
    /// The rest of the current block, taken from the back.
    block: Vec<Job>,
}

impl JobStream {
    pub fn new(workload: Workload, seed: u64, caller: u64) -> Self {
        // decorrelate callers and workloads sharing one seed
        let mut mix = SplitMix64::new(seed ^ caller.wrapping_mul(0xD1B5_4A32_D192_ED03));
        let salt = match workload {
            Workload::SolveLarge => 1,
            Workload::SolveSmall => 2,
            Workload::SvcTcp => 3,
        };
        let start = mix.next_u64() ^ salt;
        JobStream {
            workload,
            rng: SplitMix64::new(start),
            block: Vec::with_capacity(BLOCK),
        }
    }

    fn refill(&mut self) {
        let (lo, hi) = self.workload.grid_range();
        let span = (hi - lo + 1) as f64;
        let mut variants = self.workload.variants().to_vec();
        debug_assert_eq!(BLOCK % variants.len(), 0);
        for stratum in 0..BLOCK {
            let k = stratum % variants.len();
            if k == 0 {
                self.rng.shuffle(&mut variants);
            }
            let u = (stratum as f64 + self.rng.unit()) / BLOCK as f64;
            self.block.push(Job {
                grid: lo + ((u * span) as usize).min(hi - lo),
                variant: variants[k],
                rhs_seed: self.rng.next_u64() >> 2,
            });
        }
        self.rng.shuffle(&mut self.block);
    }
}

impl Iterator for JobStream {
    type Item = Job;

    fn next(&mut self) -> Option<Job> {
        if self.block.is_empty() {
            self.refill();
        }
        self.block.pop()
    }
}

/// The right-hand side of a library job: `n` entries uniform in `[-1, 1)`.
pub fn rhs(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed);
    (0..n).map(|_| rng.signed_unit()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first(workload: Workload, seed: u64, caller: u64, k: usize) -> Vec<Job> {
        JobStream::new(workload, seed, caller).take(k).collect()
    }

    #[test]
    fn same_seed_same_job_list() {
        for w in Workload::ALL {
            assert_eq!(first(w, 7, 0, 64), first(w, 7, 0, 64), "{}", w.name());
            assert_eq!(first(w, 7, 1, 64), first(w, 7, 1, 64), "{}", w.name());
        }
        assert_eq!(rhs(1000, 42), rhs(1000, 42));
    }

    #[test]
    fn different_seeds_and_callers_differ() {
        let w = Workload::SolveSmall;
        assert_ne!(first(w, 7, 0, 16), first(w, 8, 0, 16));
        assert_ne!(first(w, 7, 0, 16), first(w, 7, 1, 16));
        assert_ne!(rhs(64, 1), rhs(64, 2));
    }

    #[test]
    fn jobs_stay_inside_the_workload_definition() {
        for w in Workload::ALL {
            let (lo, hi) = w.grid_range();
            let jobs = first(w, 3, 0, 2000);
            assert!(jobs.iter().all(|j| (lo..=hi).contains(&j.grid)));
            assert!(jobs.iter().all(|j| j.rhs_seed < 1 << 62));
            if w == Workload::SolveSmall {
                // every variant and both grid ends are drawn
                for v in Variant::ALL {
                    assert!(jobs.iter().any(|j| j.variant == v), "{}", v.key());
                }
                assert!(jobs.iter().any(|j| j.grid == lo));
                assert!(jobs.iter().any(|j| j.grid == hi));
            } else {
                assert!(jobs.iter().all(|j| j.variant == Variant::Standard));
            }
        }
    }

    #[test]
    fn every_block_has_the_same_mix() {
        let w = Workload::SolveSmall;
        let (lo, hi) = w.grid_range();
        for seed in [1, 2, 3] {
            for block in first(w, seed, 0, 8 * BLOCK).chunks(BLOCK) {
                for v in Variant::ALL {
                    let n = block.iter().filter(|j| j.variant == v).count();
                    assert_eq!(n, BLOCK / Variant::ALL.len(), "{}", v.key());
                }
                // one grid from each sixteenth of the range
                let span = hi - lo + 1;
                let mut grids: Vec<usize> = block.iter().map(|j| j.grid).collect();
                grids.sort_unstable();
                for (i, g) in grids.into_iter().enumerate() {
                    let (s_lo, s_hi) = (lo + i * span / BLOCK, lo + (i + 1) * span / BLOCK);
                    assert!((s_lo..=s_hi).contains(&g), "grid {g} in sixteenth {i}");
                }
            }
        }
    }

    #[test]
    fn rhs_entries_are_in_the_unit_interval() {
        let b = rhs(10_000, 9);
        assert!(b.iter().all(|v| (-1.0..1.0).contains(v)));
        let mean = b.iter().sum::<f64>() / b.len() as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("hit"), None);
    }
}
