//! Layer probes: single calls into one layer, timed at a workload's own
//! vector length and team width, plus the vr-sim prediction at that length.

use std::time::Instant;

use vr_cg::{OpCounts, SolveOptions};
use vr_linalg::LinearOperator;
use vr_obs::Tracer;
use vr_par::team;
use vr_sim::model::MachineModel;

use crate::report::Outcome;
use crate::stats::median;
use crate::trace::BenchSpan;
use crate::workload::Variant;

/// Wall time each probe may spend repeating its call.
const PROBE_SECS: f64 = 0.25;
/// Iteration cap of the diagnostic per-iteration solves behind
/// `cg.k1_speedup_measured`.
const K1_ITERS: usize = 100;

/// Median seconds of `f` over repeated calls, each bracketed by a bench
/// span; at least 5 calls, then until [`PROBE_SECS`] has passed.
fn time_calls(
    name: &'static str,
    tracer: &Tracer,
    spans: &mut Vec<BenchSpan>,
    mut f: impl FnMut(),
) -> f64 {
    let start = Instant::now();
    let mut secs = Vec::new();
    while secs.len() < 5 || (start.elapsed().as_secs_f64() < PROBE_SECS && secs.len() < 10_000) {
        let s = tracer.now_ns();
        let t0 = Instant::now();
        f();
        secs.push(t0.elapsed().as_secs_f64());
        spans.push(BenchSpan {
            name,
            tid: 0,
            start_ns: s,
            end_ns: tracer.now_ns(),
        });
    }
    median(&secs).expect("at least five calls")
}

/// Run every probe against operator `a` with the workload's options
/// (team, dot mode, tolerance) and set the probe metrics on `out`.
pub fn run(
    a: &dyn LinearOperator,
    opts: &SolveOptions,
    tracer: &Tracer,
    spans: &mut Vec<BenchSpan>,
    out: &mut Outcome,
) {
    let team = opts.team();
    let team = team.as_deref();
    let n = a.dim();
    let x: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64 * 1e-3).collect();
    let mut y = vec![0.0; n];
    let mut counts = OpCounts::default();

    let epoch_s = match team {
        Some(t) => time_calls("bench.team_epoch", tracer, spans, || {
            t.try_run(&|shard| {
                std::hint::black_box(shard);
            })
            .expect("an idle team is not poisoned");
        }),
        None => 0.0,
    };
    out.set("team.epoch_us", epoch_s * 1e6);

    let matvec_s = time_calls("bench.matvec", tracer, spans, || {
        opts.matvec(a, &x, &mut y, &mut counts);
        std::hint::black_box(&y);
    });
    out.set("kernel.matvec_us", matvec_s * 1e6);
    let dot_s = time_calls("bench.dot", tracer, spans, || {
        std::hint::black_box(opts.dot(&x, &y));
    });
    out.set("kernel.dot_us", dot_s * 1e6);

    // STREAM-convention triad traffic (two reads, one write: 24 B/element)
    // through the team's own axpy at the workload's length and width.
    let axpy_s = time_calls("bench.triad", tracer, spans, || {
        team::par_axpy_in(team, 1e-9, &x, &mut y);
        std::hint::black_box(&y);
    });
    out.set("roofline.triad_gbps", 24.0 * n as f64 / axpy_s / 1e9);

    let per_iter = |v: Variant| {
        let capped = opts.clone().with_max_iters(K1_ITERS);
        let b: Vec<f64> = crate::workload::rhs(n, 0x6b31);
        let solver = v.solver();
        let s = tracer.now_ns();
        let t0 = Instant::now();
        let res = solver.solve(a, &b, None, &capped);
        let secs = t0.elapsed().as_secs_f64() / res.iterations.max(1) as f64;
        (secs, s, tracer.now_ns())
    };
    // alternate the two variants so drift hits both sides of the ratio
    let (mut std_s, mut k1_s) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        for (v, dst, name) in [
            (Variant::Standard, &mut std_s, "bench.k1_probe.standard"),
            (Variant::OverlapK1, &mut k1_s, "bench.k1_probe.overlap_k1"),
        ] {
            let (secs, start_ns, end_ns) = per_iter(v);
            dst.push(secs);
            spans.push(BenchSpan {
                name,
                tid: 0,
                start_ns,
                end_ns,
            });
        }
    }
    let ratio = median(&std_s).expect("3 samples") / median(&k1_s).expect("3 samples");
    out.set("cg.k1_speedup_measured", ratio);

    out.set("sim.k1_speedup_pred", k1_speedup_pred(n));
}

/// Steady-state critical-path ratio standard CG ÷ overlapped (k = 1) CG
/// on the paper's machine, for a 5-point operator of dimension `n`.
pub fn k1_speedup_pred(n: usize) -> f64 {
    let m = MachineModel::pram();
    let iters = 8;
    let standard = vr_sim::builders::standard_cg(n, 5, iters).steady_cycle_time(&m);
    let k1 = vr_sim::builders::overlap_k1(n, 5, iters).steady_cycle_time(&m);
    standard / k1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k1_prediction_grows_toward_two_with_n() {
        let small = k1_speedup_pred(1 << 10);
        let large = k1_speedup_pred(1 << 20);
        assert!(
            small > 1.0 && large > small && large < 2.0,
            "{small} {large}"
        );
    }
}
