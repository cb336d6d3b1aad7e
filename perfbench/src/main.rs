//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <solve-large|solve-small|svc-tcp> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. A timed run (`--trace 0`) prints every
//! end-to-end metric of `BENCHMARK.json`; a traced run (`--trace 1`)
//! prints every per-layer metric and writes a Chrome trace. Every answer
//! is checked. The last line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; the lines above it are
//! the human-readable report, also saved under `perfbench/out/`.

mod host;
mod library;
mod probe;
mod report;
mod stats;
mod svc;
mod trace;
mod workload;

use std::process::ExitCode;

use workload::Workload;

const USAGE: &str = "usage: perfbench --workload <solve-large|solve-small|svc-tcp> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, 1, 10, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).ok_or_else(|| bad("unknown workload"))?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|&s| (1..=600).contains(&s))
                    .ok_or_else(|| bad("expected 1..=600"))?;
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        traced,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = host::Host::probe();
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.traced)
    );
    // relative to the checkout root, where the benchmark runs
    let out_dir = std::path::Path::new("perfbench/out");
    // one Chrome trace per workload (the latest traced run): traces are
    // megabytes, reports are not
    let chrome = out_dir.join(format!("{}.chrome.json", args.workload.name()));
    let seconds = args.seconds as f64;
    let ticks = host::cpu_ticks();
    let outcome = match args.workload {
        Workload::SolveLarge | Workload::SolveSmall => Ok(library::run(
            args.workload,
            args.seed,
            seconds,
            args.traced,
            &host,
            &chrome,
        )),
        Workload::SvcTcp => svc::run(args.seed, seconds, args.traced, &host, &chrome),
    };
    let mut outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    outcome.note(host::steal_line(ticks));
    let result = match outcome.result(args.traced) {
        Ok(r) => r.compact(),
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    let header = format!(
        "perfbench {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.traced)
    );
    let text = outcome.render(&host, &header);
    print!("{text}");
    let saved = std::fs::create_dir_all(out_dir).and_then(|()| {
        std::fs::write(
            out_dir.join(format!("{stem}.txt")),
            format!("{text}{result}\n"),
        )
    });
    if let Err(e) = saved {
        eprintln!(
            "perfbench: could not save the report under {}: {e}",
            out_dir.display()
        );
    }
    println!("{result}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse(&[
            "--workload",
            "svc-tcp",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ]);
        assert_eq!(
            a,
            Ok(Args {
                workload: Workload::SvcTcp,
                seed: 7,
                seconds: 20,
                traced: true
            })
        );
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "solve-small", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "solve-small", "--seconds", "0"]).is_err());
        assert!(parse(&["--workload", "solve-small", "--seed"]).is_err());
        assert!(parse(&["--workload", "solve-small", "--bogus", "1"]).is_err());
    }
}
