//! The benchmark's own spans, kept in memory and written out at the end of
//! a traced run as one Chrome trace together with the solver's spans.
//!
//! The solver's spans come from the `vr_obs::Tracer` attached through
//! `SolveOptions::with_tracer`; the benchmark's spans bracket each call it
//! makes into a layer. Both read the tracer's clock, so they share one
//! time origin in the written trace.

use std::path::Path;

use vr_obs::TraceLog;

/// One call the benchmark made into the stack.
#[derive(Debug, Clone, Copy)]
pub struct BenchSpan {
    pub name: &'static str,
    /// Calling thread (0 = main, 1.. = tenant threads).
    pub tid: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Write `solver` plus `bench` as a single Chrome trace-event file.
pub fn write_chrome(path: &Path, solver: &TraceLog, bench: &[BenchSpan]) -> std::io::Result<()> {
    let doc = render_chrome(solver, bench)
        .ok_or_else(|| std::io::Error::other("unexpected vr_obs::chrome layout"))?;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, doc)
}

/// `solver` rendered by `vr_obs::chrome`, with `bench` spliced into its
/// event list on a process track of their own (pid 2), one thread track
/// per calling thread.
fn render_chrome(solver: &TraceLog, bench: &[BenchSpan]) -> Option<String> {
    let mut doc = vr_obs::chrome::trace_json(solver);
    let at = doc.rfind("\n  ],\n  \"otherData\"")?;
    let mut events = String::new();
    let mut first = solver.spans.is_empty();
    for s in bench {
        if !first {
            events.push(',');
        }
        first = false;
        events.push_str(&format!(
            "\n    {{\"name\": \"{}\", \"cat\": \"bench\", \"ph\": \"X\", \"ts\": {:.3}, \
             \"dur\": {:.3}, \"pid\": 2, \"tid\": {}}}",
            s.name,
            s.start_ns as f64 / 1000.0,
            s.end_ns.saturating_sub(s.start_ns) as f64 / 1000.0,
            s.tid
        ));
    }
    doc.insert_str(at, &events);
    Some(doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_obs::{Span, SpanKind};

    #[test]
    fn merged_trace_is_valid_json_with_both_tracks() {
        let solver = TraceLog {
            spans: vec![(
                0,
                Span {
                    start_ns: 1000,
                    end_ns: 3000,
                    bytes: 64,
                    kind: SpanKind::Matvec,
                },
            )],
            dropped: 0,
        };
        let bench = [BenchSpan {
            name: "bench.solve",
            tid: 0,
            start_ns: 500,
            end_ns: 4000,
        }];
        let text = render_chrome(&solver, &bench).expect("render");
        let doc = vr_obs::json::parse(&text).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(|e| e.as_arr())
            .expect("events");
        let names: Vec<&str> = events
            .iter()
            .map(|e| e.get("name").and_then(|n| n.as_str()).expect("name"))
            .collect();
        assert_eq!(names, ["matvec", "bench.solve"]);

        // an empty solver log still yields valid JSON
        let empty = TraceLog {
            spans: vec![],
            dropped: 0,
        };
        let text = render_chrome(&empty, &bench).expect("render");
        vr_obs::json::parse(&text).expect("valid JSON");
    }
}
