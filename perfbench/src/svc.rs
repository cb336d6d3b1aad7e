//! The `svc-tcp` workload: an in-process `vr-svc` daemon on loopback TCP
//! with two tenants, each holding one connection and running a closed
//! loop (next submit after the previous `Done`).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use vr_cg::standard::StandardCg;
use vr_cg::CgVariant;
use vr_linalg::gen;
use vr_linalg::kernels::norm2;
use vr_obs::{TraceLog, Tracer};
use vr_svc::{
    Client, Completed, JobSpec, OperatorSpec, RhsSpec, Server, ServerConfig, ShutdownMode,
};

use crate::host::Host;
use crate::library::{base_opts, CgAccum, TraceAccum, TRACE_CAPACITY, WIDTH};
use crate::report::Outcome;
use crate::stats::{mean, median, percentile};
use crate::trace::BenchSpan;
use crate::workload::{Job, JobStream, Workload};

const TENANTS: usize = 2;
/// Daemon starts behind the reported set-up median.
const SETUP_REPS: usize = 101;

/// One job as a tenant saw it.
struct Record {
    job: Job,
    /// `Client::submit` → `Accepted`.
    submit_ms: f64,
    /// `Client::submit` → `Done` received.
    job_ms: f64,
    /// The terminal event, or why there was none.
    done: Result<Completed, String>,
}

struct Daemon {
    server: Server,
    clients: Vec<Client>,
}

impl Daemon {
    /// `Server::start` with the ephemeral-TCP defaults, then one connection
    /// per tenant, each confirmed by a ping.
    fn start() -> Result<Daemon, String> {
        let server = Server::start(ServerConfig::tcp_ephemeral())
            .map_err(|e| format!("Server::start: {e}"))?;
        let addr = format!("tcp:{}", server.addr());
        let mut clients = Vec::with_capacity(TENANTS);
        for _ in 0..TENANTS {
            let c = Client::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
            c.ping().map_err(|e| format!("ping: {e}"))?;
            clients.push(c);
        }
        Ok(Daemon { server, clients })
    }

    fn stop(self) {
        drop(self.clients);
        self.server.shutdown(ShutdownMode::Drain);
        self.server.join();
    }
}

/// Start, time and stop the daemon `SETUP_REPS` times; return the median
/// set-up seconds and a fresh daemon for the measurement.
fn setup() -> Result<(f64, Daemon), String> {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let d = Daemon::start()?;
        secs.push(t0.elapsed().as_secs_f64());
        d.stop();
    }
    Ok((median(&secs).expect("SETUP_REPS > 0"), Daemon::start()?))
}

/// One tenant's closed loop until `seconds` after `start`.
fn tenant(
    client: &Client,
    jobs: JobStream,
    start: Instant,
    seconds: f64,
    tracer: &Tracer,
    tid: usize,
) -> (Vec<Record>, Vec<BenchSpan>) {
    let mut records = Vec::new();
    let mut spans = Vec::new();
    for job in jobs {
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let spec = JobSpec::new(
            OperatorSpec::Poisson2d { grid: job.grid },
            RhsSpec::Seeded {
                seed: job.rhs_seed,
                count: 1,
            },
        );
        let s0 = tracer.now_ns();
        let t0 = Instant::now();
        let submitted = client.submit(spec);
        let submit_ms = t0.elapsed().as_secs_f64() * 1e3;
        let s1 = tracer.now_ns();
        spans.push(BenchSpan {
            name: "bench.submit",
            tid,
            start_ns: s0,
            end_ns: s1,
        });
        let done = match submitted {
            Ok(handle) => handle
                .wait()
                .ok_or_else(|| "connection closed before Done".to_string()),
            Err(r) => Err(format!("rejected: {} ({})", r.reason, r.detail)),
        };
        let job_ms = t0.elapsed().as_secs_f64() * 1e3;
        spans.push(BenchSpan {
            name: "bench.wait",
            tid,
            start_ns: s1,
            end_ns: tracer.now_ns(),
        });
        records.push(Record {
            job,
            submit_ms,
            job_ms,
            done,
        });
    }
    (records, spans)
}

/// Whether a daemon answer passes: converged, with its reported residual
/// within `tol · ‖b‖` of the right-hand side the seed expands to.
fn answer_ok(r: &Record, tol: f64) -> bool {
    let Ok(done) = &r.done else {
        return false;
    };
    let b = gen::rand_vector(r.job.grid * r.job.grid, r.job.rhs_seed);
    done.converged && done.residuals.len() == 1 && done.residuals[0] <= tol * norm2(&b)
}

/// The E24c contract: the first unbatched job of each grid must match a
/// local width-2 Tree library solve on the same CSR operator bit for bit
/// (iterations and final residual). Returns the indices of mismatches; in
/// traced runs also folds traced/untraced reference pairs into `acc`.
fn reference_check(
    records: &[Record],
    tol: f64,
    tracer: &Arc<Tracer>,
    spans: &mut Vec<BenchSpan>,
    mut acc: Option<(&mut CgAccum, &mut TraceAccum)>,
) -> (Vec<usize>, usize) {
    let mut first: BTreeMap<usize, usize> = BTreeMap::new();
    for (i, r) in records.iter().enumerate() {
        if let Ok(d) = &r.done {
            if d.routing.batch_width == 1 && d.routing.variant == "standard" {
                first.entry(r.job.grid).or_insert(i);
            }
        }
    }
    let opts = base_opts(tol).with_max_iters(2000);
    let traced_opts = opts.clone().with_tracer(Arc::clone(tracer));
    let mut bad = Vec::new();
    for &i in first.values() {
        let r = &records[i];
        let done = r.done.as_ref().expect("filtered to answered jobs");
        let a = gen::poisson2d(r.job.grid);
        let b = gen::rand_vector(a.nrows(), r.job.rhs_seed);
        let s = tracer.now_ns();
        let t0 = Instant::now();
        let local = StandardCg::new().solve(&a, &b, None, &opts);
        let local_s = t0.elapsed().as_secs_f64();
        spans.push(BenchSpan {
            name: "bench.reference_solve",
            tid: 0,
            start_ns: s,
            end_ns: tracer.now_ns(),
        });
        let same = local.converged == done.converged
            && local.iterations == done.iterations
            && done.residuals.first().map(|v| v.to_bits()) == Some(local.final_residual.to_bits());
        if !same {
            bad.push(i);
        }
        if let Some((cg, tr)) = acc.as_mut() {
            let rel = local.true_residual(&a, &b) / norm2(&b);
            cg.add("standard", local_s, &local, rel);
            let t0 = Instant::now();
            let with_trace = StandardCg::new().solve(&a, &b, None, &traced_opts);
            let traced_s = t0.elapsed().as_secs_f64();
            let log = tracer.drain();
            tr.add((&local, local_s), (&with_trace, traced_s), log);
        }
    }
    (bad, first.len())
}

pub fn run(
    seed: u64,
    seconds: f64,
    traced: bool,
    host: &Host,
    chrome: &std::path::Path,
) -> Result<Outcome, String> {
    let w = Workload::SvcTcp;
    let tol = w.rtol();
    let mut out = Outcome::default();
    let (lo, hi) = w.grid_range();
    // CSR with 5 nonzeros a row (8 B value + 8 B index) and a row pointer,
    // plus standard CG's 5 vectors
    out.note(host.working_set_line(
        &format!("(CSR + standard CG, grid {hi})"),
        (5 * 16 + 8 + 5 * 8) * hi * hi,
    ));
    out.note(format!(
        "closed loop, {TENANTS} tenants on loopback TCP; Poisson2d grids {lo}..={hi}, \
         one seeded column, tol {tol:e}, throughput class, batchable"
    ));
    let (setup_s, daemon) = setup()?;
    // the clock of every bench span; traced runs also record the reference
    // solves into it
    let tracer = Arc::new(if traced {
        Tracer::new(WIDTH, TRACE_CAPACITY)
    } else {
        Tracer::new(1, 1)
    });
    let mut spans: Vec<BenchSpan> = Vec::new();

    let start = Instant::now();
    let results: Vec<(Vec<Record>, Vec<BenchSpan>)> = std::thread::scope(|s| {
        let handles: Vec<_> = daemon
            .clients
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let jobs = JobStream::new(w, seed, i as u64);
                let tracer = &*tracer;
                s.spawn(move || tenant(c, jobs, start, seconds, tracer, i + 1))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("tenant thread panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut records = Vec::new();
    for (r, sp) in results {
        records.extend(r);
        spans.extend(sp);
    }

    let (_queued, admitted, rejected, _completed, _width, stats_live_width) = daemon.clients[0]
        .stats()
        .map_err(|e| format!("stats: {e}"))?;
    let team = daemon.server.team();
    if traced {
        let probe_op = gen::poisson2d(w.probe_grid());
        let opts = base_opts(tol).with_team(Arc::clone(&team));
        crate::probe::run(&probe_op, &opts, &tracer, &mut spans, &mut out);
        out.note(format!(
            "probes at grid {} on the daemon's team",
            w.probe_grid()
        ));
    }
    let live_width = team.live_width().min(stats_live_width);
    drop(team);
    daemon.stop();

    let mut cg = CgAccum::default();
    let mut tr = TraceAccum::default();
    let acc = traced.then_some((&mut cg, &mut tr));
    let (bad, grids) = reference_check(&records, tol, &tracer, &mut spans, acc);
    for (i, r) in records.iter().enumerate() {
        out.tally.record(answer_ok(r, tol) && !bad.contains(&i));
    }
    out.note(format!(
        "bit identity vs local width-2 Tree solve: {} of {grids} grids differ",
        bad.len()
    ));

    let answered: Vec<&Completed> = records
        .iter()
        .filter_map(|r| r.done.as_ref().ok())
        .collect();
    let job_ms: Vec<f64> = records
        .iter()
        .filter(|r| r.done.is_ok())
        .map(|r| r.job_ms)
        .collect();
    let solve_ms: Vec<f64> = answered.iter().map(|d| d.solve_ms).collect();
    let p50 = |xs: &[f64]| median(xs).ok_or_else(|| "no job completed".to_string());
    let tail = |xs: &[f64]| {
        percentile(xs, 90.0).map_or("n/a (needs >= 100 jobs)".to_string(), |v| {
            format!("{v:.3} ms")
        })
    };
    out.note(format!(
        "jobs {} answered of {} submitted in {wall_s:.2} s",
        answered.len(),
        records.len()
    ));
    out.note(format!(
        "job_ms (submit -> Done) p50 {:.3} ms, p90 {}; daemon solve_ms p50 {:.3} ms, p90 {}",
        p50(&job_ms)?,
        tail(&job_ms),
        p50(&solve_ms)?,
        tail(&solve_ms)
    ));

    if !traced {
        out.set("setup_s", setup_s);
        // the tenant's time to a solution: submit until Done is received
        out.set("solve_s.p50", p50(&job_ms)? / 1e3);
        out.set("jobs_per_s", answered.len() as f64 / wall_s);
        out.set(
            "peak_rss_mb",
            crate::host::peak_rss_mib().unwrap_or(f64::NAN),
        );
        return Ok(out);
    }

    cg.report(&mut out, Some(("standard", &solve_ms)));
    tr.report(&mut out);
    out.set("team.live_width.min", live_width as f64);
    let submit_ms: Vec<f64> = records.iter().map(|r| r.submit_ms).collect();
    out.set("svc.submit_ms.p50", median(&submit_ms).unwrap_or(0.0));
    out.set("svc.solve_ms.p50", p50(&solve_ms)?);
    let outside: Vec<f64> = records
        .iter()
        .filter_map(|r| r.done.as_ref().ok().map(|d| r.job_ms - d.solve_ms))
        .collect();
    out.set("svc.outside_solve_ms.p50", p50(&outside)?);
    let n = answered.len().max(1) as f64;
    out.set(
        "svc.batched_frac",
        answered.iter().filter(|d| d.routing.batched).count() as f64 / n,
    );
    let widths: Vec<f64> = answered
        .iter()
        .map(|d| d.routing.batch_width as f64)
        .collect();
    out.set("svc.batch_width.mean", mean(&widths).unwrap_or(0.0));
    out.set(
        "svc.rejected_frac",
        rejected as f64 / (admitted + rejected).max(1) as f64,
    );
    let shares: Vec<f64> = answered
        .iter()
        .filter_map(|d| d.phase_shares.map(|p| p[0]))
        .collect();
    out.set("svc.reduction_wait_share", mean(&shares).unwrap_or(0.0));
    out.note("cg.* and iter.* come from the local reference solves on the daemon's CSR operator");

    let log = tr.last_log.take().unwrap_or(TraceLog {
        spans: Vec::new(),
        dropped: 0,
    });
    match crate::trace::write_chrome(chrome, &log, &spans) {
        Ok(()) => out.note(format!("chrome trace: {}", chrome.display())),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", chrome.display()),
    }
    Ok(out)
}
