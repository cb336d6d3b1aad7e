//! The library workloads (`solve-large`, `solve-small`): one caller runs a
//! closed loop of `CgVariant::solve` calls on the 2-D Poisson stencil, each
//! on a seeded right-hand side, and checks every answer against the true
//! residual.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use vr_cg::{CgVariant, SolveOptions, SolveResult};
use vr_linalg::kernels::{norm2, DotMode};
use vr_linalg::stencil::Stencil2d;
use vr_linalg::LinearOperator;
use vr_obs::critpath::{attribute, Report};
use vr_obs::{TraceLog, Tracer};
use vr_par::team::Team;

use crate::host::{peak_rss_mib, Host};
use crate::report::Outcome;
use crate::stats::{median, percentile};
use crate::trace::BenchSpan;
use crate::workload::{rhs, JobStream, Variant, Workload};

/// Team width of every library solve (clamped to the host by
/// `with_threads`).
pub const WIDTH: usize = 2;
/// Set-up repetitions behind the reported median.
const SETUP_REPS: usize = 15;
/// Iteration cap of the set-up's warm-up solves.
const WARMUP_ITERS: usize = 20;
/// Spans per shard the traced run can hold for one solve: standard CG at
/// N = 2^18 records about 30 per iteration over ~1250 iterations.
pub const TRACE_CAPACITY: usize = 1 << 18;
/// f64 vectors standard CG keeps live (b, x, r, p, A·p).
const STANDARD_VECTORS: usize = 5;
/// Relative excess of the true residual over the tolerance an answer may
/// show. Solvers stop on their recursive residual, which drifts from the
/// true one in finite precision: pipelined CG's true residual lands up to
/// 1% above the tolerance on 256² grids, standard CG's stays below it. A
/// wrong answer misses by orders of magnitude, not by 10%.
pub const RESIDUAL_GAP: f64 = 0.1;

/// Options of every library solve: the workload's tolerance, Tree dots,
/// `with_threads(WIDTH)`, default kernel policies.
pub fn base_opts(rtol: f64) -> SolveOptions {
    SolveOptions::default()
        .with_tol(rtol)
        .with_dot_mode(DotMode::Tree)
        .with_threads(WIDTH)
}

/// Median seconds from a caller's start to its first timed call, over
/// [`SETUP_REPS`] fresh starts. Each builds the operator, spawns a team
/// and attaches it to the options (what `with_threads` does on first use
/// in a process), then runs one untimed solve of every variant the
/// workload draws, capped at [`WARMUP_ITERS`] iterations, on the largest
/// grid. The capped solves finish lazy set-up (first-touch allocation,
/// kernel dispatch), and they make every run reach the workload's peak
/// memory before timing. Without them `peak_rss_mb` depends on the seed's
/// job order, because the allocator's state when the largest shapes arrive
/// decides the peak: solve-small read 7.5 to 11.9 MiB across seeds.
fn setup_secs(w: Workload) -> f64 {
    let width = WIDTH.min(vr_cg::solver::host_cpus());
    let hi = w.grid_range().1;
    let b = rhs(hi * hi, 0);
    let mut secs = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let a = Stencil2d::poisson(hi);
        let mut opts = SolveOptions::default()
            .with_tol(w.rtol())
            .with_dot_mode(DotMode::Tree)
            .with_max_iters(WARMUP_ITERS);
        if width >= 2 {
            opts = opts.with_team(Arc::new(Team::new(width)));
        }
        for v in w.variants() {
            std::hint::black_box(v.solver().solve(&a, &b, None, &opts));
        }
        secs.push(t0.elapsed().as_secs_f64());
        drop(opts); // joins the team's workers outside the timed span
    }
    median(&secs).expect("SETUP_REPS > 0")
}

/// One generated solve: operator, right-hand side and its norm.
struct Input {
    variant: Variant,
    a: Stencil2d,
    b: Vec<f64>,
    bnorm: f64,
}

impl Input {
    fn new(job: crate::workload::Job) -> Self {
        let b = rhs(job.grid * job.grid, job.rhs_seed);
        Input {
            variant: job.variant,
            a: Stencil2d::poisson(job.grid),
            bnorm: norm2(&b),
            b,
        }
    }

    /// True relative residual ‖b − A·x‖ / ‖b‖ of `res`, and whether the
    /// answer passes: converged, its recursive residual within `rtol`, and
    /// its true residual within `rtol` up to [`RESIDUAL_GAP`].
    fn check(&self, res: &SolveResult, rtol: f64) -> (bool, f64) {
        let rel = res.true_residual(&self.a, &self.b) / self.bnorm;
        let ok = res.converged
            && res.final_residual <= rtol * self.bnorm
            && rel <= rtol * (1.0 + RESIDUAL_GAP);
        (ok, rel)
    }
}

/// Solver-layer tallies over the checked solves of a run.
#[derive(Default)]
pub struct CgAccum {
    solves: usize,
    iters: usize,
    matvecs: usize,
    dots: usize,
    max_rel_true: f64,
    ms_by_variant: BTreeMap<&'static str, Vec<f64>>,
}

impl CgAccum {
    pub fn add(&mut self, variant: &'static str, secs: f64, res: &SolveResult, rel_true: f64) {
        self.solves += 1;
        self.iters += res.iterations;
        self.matvecs += res.counts.matvecs;
        self.dots += res.counts.dots;
        self.max_rel_true = self.max_rel_true.max(rel_true);
        self.ms_by_variant
            .entry(variant)
            .or_default()
            .push(secs * 1e3);
    }

    /// Set the `cg.*` metrics; `solve_ms` overrides the per-variant
    /// samples when the solves ran elsewhere (the daemon).
    pub fn report(&self, out: &mut Outcome, solve_ms: Option<(&'static str, &[f64])>) {
        let per_iter = |count: usize| count as f64 / self.iters.max(1) as f64;
        out.set(
            "cg.iters_per_solve",
            self.iters as f64 / self.solves.max(1) as f64,
        );
        out.set("cg.matvecs_per_iter", per_iter(self.matvecs));
        out.set("cg.dots_per_iter", per_iter(self.dots));
        out.set("cg.true_rel_residual.max", self.max_rel_true);
        for v in Variant::ALL {
            let samples = match solve_ms {
                Some((key, ms)) if key == v.key() => Some(ms),
                Some(_) => None,
                None => self.ms_by_variant.get(v.key()).map(Vec::as_slice),
            };
            let p50 = samples.and_then(median).unwrap_or(0.0);
            out.set(
                match v {
                    Variant::Standard => "cg.solve_ms.standard.p50",
                    Variant::OverlapK1 => "cg.solve_ms.overlap_k1.p50",
                    Variant::Pipelined => "cg.solve_ms.pipelined.p50",
                    Variant::PredictRecompute => "cg.solve_ms.predict_recompute.p50",
                },
                p50,
            );
        }
    }
}

/// Critical-path and tracing tallies over traced/untraced solve pairs.
#[derive(Default)]
pub struct TraceAccum {
    /// traced ÷ untraced wall time, one per pair
    ratios: Vec<f64>,
    reduction_wait_ns: u64,
    matvec_ns: u64,
    vector_ns: u64,
    overhead_ns: u64,
    total_ns: u64,
    iters: usize,
    bytes: u64,
    dropped: u64,
    bits_differ: usize,
    /// Solver spans of the last traced solve, for the Chrome trace.
    pub last_log: Option<TraceLog>,
}

impl TraceAccum {
    /// Fold one pair: the untraced and traced runs of the same solve.
    pub fn add(
        &mut self,
        untraced: (&SolveResult, f64),
        traced: (&SolveResult, f64),
        log: TraceLog,
    ) {
        let report: Report = attribute(&log);
        self.ratios.push(traced.1 / untraced.1);
        let t = &report.totals;
        self.reduction_wait_ns += t.reduction_wait_ns;
        self.matvec_ns += t.matvec_ns;
        self.vector_ns += t.vector_ns;
        self.overhead_ns += t.overhead_ns;
        self.total_ns += t.total_ns;
        self.iters += report.iters.len();
        self.bytes += report.total_bytes();
        self.dropped += log.dropped;
        let same_bits = untraced.0.iterations == traced.0.iterations
            && untraced.0.x.len() == traced.0.x.len()
            && untraced
                .0
                .x
                .iter()
                .zip(&traced.0.x)
                .all(|(u, t)| u.to_bits() == t.to_bits());
        if !same_bits {
            self.bits_differ += 1;
        }
        self.last_log = Some(log);
    }

    /// Set the `iter.*`, `kernel.bytes_per_iter`, `kernel.gbps`,
    /// `kernel.frac_of_triad` and `trace.overhead_frac` metrics and the two
    /// trace checks. Needs `roofline.triad_gbps` already set.
    pub fn report(&self, out: &mut Outcome) {
        let iters = self.iters.max(1) as f64;
        out.set(
            "iter.reduction_wait_us",
            self.reduction_wait_ns as f64 / iters / 1e3,
        );
        out.set("iter.matvec_us", self.matvec_ns as f64 / iters / 1e3);
        out.set("iter.vector_us", self.vector_ns as f64 / iters / 1e3);
        out.set("iter.overhead_us", self.overhead_ns as f64 / iters / 1e3);
        out.set("kernel.bytes_per_iter", self.bytes as f64 / iters);
        let gbps = self.bytes as f64 / self.total_ns.max(1) as f64;
        out.set("kernel.gbps", gbps);
        let triad = out
            .metrics
            .get("roofline.triad_gbps")
            .copied()
            .unwrap_or(0.0);
        out.set(
            "kernel.frac_of_triad",
            if triad > 0.0 { gbps / triad } else { 0.0 },
        );
        out.set(
            "trace.overhead_frac",
            median(&self.ratios).map_or(0.0, |r| r - 1.0),
        );
        out.note(format!(
            "traced pairs {}: spans dropped {}, iterate bits differ in {}; \
             kernel bytes are computed from vr-obs span byte counts",
            self.ratios.len(),
            self.dropped,
            self.bits_differ
        ));
        out.check("critpath dropped == 0", self.dropped == 0);
        out.check(
            "traced iterates == untraced, bit for bit",
            self.bits_differ == 0,
        );
    }
}

/// Run a library workload for `seconds`; traced runs report per-layer
/// metrics and write a Chrome trace to `chrome`.
pub fn run(
    w: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    host: &Host,
    chrome: &std::path::Path,
) -> Outcome {
    let mut out = Outcome::default();
    let rtol = w.rtol();
    let (lo, hi) = w.grid_range();
    out.note(host.working_set_line(
        &format!("(standard CG, grid {hi})"),
        STANDARD_VECTORS * 8 * hi * hi,
    ));
    out.note(format!(
        "closed loop, one caller; grids {lo}..={hi}, rtol {rtol:e}, width {WIDTH}, Tree dots"
    ));
    if traced {
        run_traced(w, seed, seconds, chrome, &mut out);
    } else {
        run_timed(w, seed, seconds, &mut out);
    }
    out
}

fn run_timed(w: Workload, seed: u64, seconds: f64, out: &mut Outcome) {
    let rtol = w.rtol();
    out.set("setup_s", setup_secs(w));
    let opts = base_opts(rtol);
    let mut secs = Vec::new();
    let start = Instant::now();
    for job in JobStream::new(w, seed, 0) {
        if !secs.is_empty() && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let input = Input::new(job);
        let solver = input.variant.solver();
        let t0 = Instant::now();
        let res = solver.solve(&input.a, &input.b, None, &opts);
        secs.push(t0.elapsed().as_secs_f64());
        out.tally.record(input.check(&res, rtol).0);
    }
    out.set("solve_s.p50", median(&secs).expect("at least one solve"));
    out.set("jobs_per_s", secs.len() as f64 / secs.iter().sum::<f64>());
    out.set("peak_rss_mb", peak_rss_mib().unwrap_or(f64::NAN));
    out.note(format!(
        "solves {}; solve_s.p90 {}",
        secs.len(),
        percentile(&secs, 90.0).map_or("n/a (needs >= 100 solves)".into(), |v| format!("{v:.6} s"))
    ));
}

fn run_traced(w: Workload, seed: u64, seconds: f64, chrome: &std::path::Path, out: &mut Outcome) {
    let rtol = w.rtol();
    let opts = base_opts(rtol);
    let tracer = Arc::new(Tracer::new(WIDTH, TRACE_CAPACITY));
    let traced_opts = opts.clone().with_tracer(Arc::clone(&tracer));
    let mut spans: Vec<BenchSpan> = Vec::new();

    let probe_op = Stencil2d::poisson(w.probe_grid());
    crate::probe::run(&probe_op, &opts, &tracer, &mut spans, out);
    out.note(format!(
        "probes at grid {} (N = {})",
        w.probe_grid(),
        probe_op.dim()
    ));

    let mut cg = CgAccum::default();
    let mut tr = TraceAccum::default();
    let mut live_min = usize::MAX;
    let start = Instant::now();
    for job in JobStream::new(w, seed, 0) {
        if cg.solves > 0 && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let input = Input::new(job);
        let solver: Box<dyn CgVariant> = input.variant.solver();
        let mut timed = |o: &SolveOptions, name: &'static str| {
            let s = tracer.now_ns();
            let t0 = Instant::now();
            let res = solver.solve(&input.a, &input.b, None, o);
            let secs = t0.elapsed().as_secs_f64();
            spans.push(BenchSpan {
                name,
                tid: 0,
                start_ns: s,
                end_ns: tracer.now_ns(),
            });
            (res, secs)
        };
        let (plain, plain_s) = timed(&opts, "bench.solve");
        let (with_trace, traced_s) = timed(&traced_opts, "bench.solve.traced");
        let (ok, rel) = input.check(&plain, rtol);
        out.tally.record(ok);
        cg.add(input.variant.key(), plain_s, &plain, rel);
        tr.add((&plain, plain_s), (&with_trace, traced_s), tracer.drain());
        live_min = live_min.min(opts.team.as_ref().map_or(1, |t| t.live_width()));
    }
    cg.report(out, None);
    tr.report(out);
    out.set("team.live_width.min", live_min as f64);
    for name in [
        "svc.submit_ms.p50",
        "svc.solve_ms.p50",
        "svc.outside_solve_ms.p50",
        "svc.batched_frac",
        "svc.batch_width.mean",
        "svc.rejected_frac",
        "svc.reduction_wait_share",
    ] {
        out.set(name, 0.0);
    }
    out.note(format!(
        "solves {}; svc.* = 0 (the workload does not reach the daemon)",
        cg.solves
    ));
    let log = tr.last_log.take().unwrap_or(TraceLog {
        spans: Vec::new(),
        dropped: 0,
    });
    match crate::trace::write_chrome(chrome, &log, &spans) {
        Ok(()) => out.note(format!("chrome trace: {}", chrome.display())),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", chrome.display()),
    }
}
