//! Metric catalogue, run outcome, and the result line.
//!
//! The catalogue here and `BENCHMARK.json` name the same metrics with the
//! same units (a self-test holds them together). A run in timed mode
//! (`--trace 0`) must set every end-to-end metric and a traced run every
//! per-layer metric — no more, no fewer — or it fails instead of printing
//! a partial result.

use std::collections::BTreeMap;

use vr_obs::json::Json;

use crate::host::Host;
use crate::stats::Tally;

/// Metrics a user of the stack sees; reported by timed runs.
pub const END_TO_END: &[(&str, &str)] = &[
    ("solve_s.p50", "s"),
    ("jobs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Metrics of single layers; reported by traced runs. A layer the
/// workload never reaches reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("cg.iters_per_solve", "count"),
    ("cg.matvecs_per_iter", "count"),
    ("cg.dots_per_iter", "count"),
    ("cg.true_rel_residual.max", "ratio"),
    ("cg.solve_ms.standard.p50", "ms"),
    ("cg.solve_ms.overlap_k1.p50", "ms"),
    ("cg.solve_ms.pipelined.p50", "ms"),
    ("cg.solve_ms.predict_recompute.p50", "ms"),
    ("cg.k1_speedup_measured", "ratio"),
    ("iter.reduction_wait_us", "us"),
    ("iter.matvec_us", "us"),
    ("iter.vector_us", "us"),
    ("iter.overhead_us", "us"),
    ("trace.overhead_frac", "ratio"),
    ("kernel.bytes_per_iter", "B"),
    ("kernel.gbps", "GB/s"),
    ("roofline.triad_gbps", "GB/s"),
    ("kernel.frac_of_triad", "ratio"),
    ("kernel.matvec_us", "us"),
    ("kernel.dot_us", "us"),
    ("team.epoch_us", "us"),
    ("team.live_width.min", "count"),
    ("svc.submit_ms.p50", "ms"),
    ("svc.solve_ms.p50", "ms"),
    ("svc.outside_solve_ms.p50", "ms"),
    ("svc.batched_frac", "ratio"),
    ("svc.batch_width.mean", "count"),
    ("svc.rejected_frac", "ratio"),
    ("svc.reduction_wait_share", "ratio"),
    ("sim.k1_speedup_pred", "ratio"),
];

/// Everything one run produced.
#[derive(Default)]
pub struct Outcome {
    pub tally: Tally,
    /// Named whole-run checks (bit identity, trace completeness).
    pub checks: Vec<(String, bool)>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines: sample counts, tails, working sets.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }

    /// The result object, or why the run may not print one: a catalogue
    /// metric missing, an unknown one set, or a non-finite value.
    pub fn result(&self, traced: bool) -> Result<Json, String> {
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        if let Some(extra) = self
            .metrics
            .keys()
            .find(|k| !catalogue.iter().any(|(n, _)| n == *k))
        {
            return Err(format!("metric {extra} is not in the catalogue"));
        }
        let mut metrics = Vec::with_capacity(catalogue.len());
        for &(name, unit) in catalogue {
            let value = *self
                .metrics
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            metrics.push((
                name.to_string(),
                vr_obs::json!({ "value": value, "unit": unit }),
            ));
        }
        Ok(Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Int(self.tally.attempted as i64)),
            ("failed".into(), Json::Int(self.tally.failed as i64)),
            ("metrics".into(), Json::Obj(metrics)),
        ]))
    }

    /// Human-readable report (everything but the result line).
    pub fn render(&self, host: &Host, header: &str) -> String {
        let mut out = format!("{header}\n{host}\n");
        for line in &self.notes {
            out.push_str(&format!("  {line}\n"));
        }
        for (name, ok) in &self.checks {
            out.push_str(&format!(
                "  check {name}: {}\n",
                if *ok { "ok" } else { "FAILED" }
            ));
        }
        out.push_str(&format!(
            "  answers: {} attempted, {} failed, failed_frac {}\n",
            self.tally.attempted,
            self.tally.failed,
            self.tally.failed_frac()
        ));
        for (name, value) in &self.metrics {
            let unit = END_TO_END
                .iter()
                .chain(PER_LAYER)
                .find(|(n, _)| n == name)
                .map_or("?", |(_, u)| u);
            out.push_str(&format!("  {name:<36} {value:>14.6} {unit}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalogue and `BENCHMARK.json` must agree name for name.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let doc = vr_obs::json::parse(&text).expect("BENCHMARK.json parses");
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = catalogue
                .iter()
                .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        let ours: Vec<&str> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn result_requires_every_catalogue_metric() {
        let mut o = Outcome::default();
        for (name, _) in END_TO_END {
            o.set(name, 1.5);
        }
        let json = o.result(false).expect("complete").compact();
        assert!(json.starts_with("{\"correct\":true,\"attempted\":0,\"failed\":0,"));
        assert!(json.contains("\"setup_s\":{\"value\":1.5,\"unit\":\"s\"}"));
        assert!(
            o.result(true).is_err(),
            "end-to-end metrics are not per-layer"
        );
        o.metrics.remove("setup_s");
        assert!(o.result(false).is_err());
        o.set("setup_s", f64::NAN);
        assert!(o.result(false).is_err());
    }

    #[test]
    fn failures_and_checks_clear_correct() {
        let mut o = Outcome::default();
        o.tally.record(true);
        assert!(o.correct());
        o.check("bits", false);
        assert!(!o.correct());
        let mut o = Outcome::default();
        o.tally.record(false);
        assert!(!o.correct());
    }
}
