//! The repository's benchmark.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <replay-full|serve-read|serve-ingest> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs (a fixed world, traffic from the seed),
//! drives the library's public API from outside, checks its outputs, and
//! prints one JSON result as the last line of standard output:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//!
//! `--trace 0` measures the end-to-end metrics. `--trace 1` runs the
//! workload twice in the process, untraced and then with the library's
//! observability and trace rings on plus the benchmark's own spans, and
//! reports the per-layer metrics and the tracing overhead. It also writes
//! the spans, the program's trace events and every per-layer metric with
//! the end-to-end metrics it should move to
//! `perfbench/out/<workload>-seed<n>.trace.json`.
//!
//! See `perfbench/README.md` for the workloads and the metric catalogue.

mod loadgen;
mod metrics;
mod procfs;
mod spans;
mod stats;
mod workloads;

use dlinfma_obs::{self as obs, JsonValue};
use metrics::{end_to_end_units, per_layer_units, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{run_pass, Ctx, Pass, Workload};

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn print_pass(pass: &Pass) {
    for line in &pass.lines {
        println!("{line}");
    }
    for (name, ok) in &pass.checks {
        println!("check {}: {name}", if *ok { "ok" } else { "FAILED" });
    }
}

fn result_line(pass: &Pass, metrics: JsonValue) -> String {
    let correct = pass.checks.iter().all(|(_, ok)| *ok) && pass.failed == 0;
    JsonValue::Obj(vec![
        ("correct".into(), JsonValue::Bool(correct)),
        ("attempted".into(), JsonValue::Num(pass.attempted as f64)),
        ("failed".into(), JsonValue::Num(pass.failed as f64)),
        ("metrics".into(), metrics),
    ])
    .render()
}

/// Writes the traced pass's spans, the program's trace events and the
/// per-layer metrics with their layer → end-to-end mapping.
fn write_trace(args: &Args, pass: &Pass, capture: &obs::TraceCapture) -> Result<PathBuf, String> {
    let mut doc = obs::chrome_trace_json(capture);
    let bench_events = spans::chrome_events(&pass.logs.iter().collect::<Vec<_>>());
    let layers: Vec<JsonValue> = PER_LAYER
        .iter()
        .map(|m| {
            JsonValue::Obj(vec![
                ("name".into(), JsonValue::Str(m.name.into())),
                (
                    "value".into(),
                    JsonValue::Num(pass.layers.get(m.name).unwrap_or(f64::NAN)),
                ),
                ("unit".into(), JsonValue::Str(m.unit.into())),
                ("moves".into(), JsonValue::Str(m.moves.into())),
                ("on".into(), JsonValue::Str(m.on.into())),
            ])
        })
        .collect();
    if let JsonValue::Obj(fields) = &mut doc {
        for (k, v) in fields.iter_mut() {
            if let (true, JsonValue::Arr(events)) = (k == "traceEvents", v) {
                events.extend(bench_events.iter().cloned());
            }
        }
        fields.push((
            "perfbench".into(),
            JsonValue::Obj(vec![
                (
                    "workload".into(),
                    JsonValue::Str(args.workload.name().into()),
                ),
                ("seed".into(), JsonValue::Num(args.seed as f64)),
                ("per_layer".into(), JsonValue::Arr(layers)),
            ]),
        ));
    }
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "{}-seed{}.trace.json",
        args.workload.name(),
        args.seed
    ));
    std::fs::write(&path, doc.render()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn run() -> Result<(), String> {
    let args = parse_args(std::env::args().skip(1))?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        origin: Instant::now(),
    };
    if !args.trace {
        let pass = run_pass(args.workload, &ctx, false, true)?;
        print_pass(&pass);
        for m in END_TO_END {
            let v = pass.e2e.get(m.name).unwrap_or(f64::NAN);
            println!(
                "{:<20} {v:>16.6} {:<4} ({} is better)",
                m.name, m.unit, m.better
            );
        }
        let metrics = pass.e2e.to_json(end_to_end_units())?;
        println!("{}", result_line(&pass, metrics));
        return Ok(());
    }

    let untraced = run_pass(args.workload, &ctx, false, false)?;
    obs::reset_all();
    obs::enable();
    obs::trace_enable();
    let traced = run_pass(args.workload, &ctx, true, false);
    let capture = obs::take_trace();
    let mut traced = traced?;
    obs::reset_all();
    let overhead = 100.0 * (traced.headline_s / untraced.headline_s - 1.0);
    traced.layers.set("trace.overhead_pct", overhead);
    traced.checks.extend(
        untraced
            .checks
            .iter()
            .map(|(name, ok)| (format!("untraced pass: {name}"), *ok)),
    );
    traced.attempted += untraced.attempted;
    traced.failed += untraced.failed;
    print_pass(&traced);
    println!(
        "tracing overhead: headline {:.6} s traced vs {:.6} s untraced ({overhead:+.2}%)",
        traced.headline_s, untraced.headline_s
    );
    println!(
        "{:<28} {:>16} {:<6} moves -> on",
        "per-layer metric", "value", "unit"
    );
    for m in PER_LAYER {
        let v = traced.layers.get(m.name).unwrap_or(f64::NAN);
        println!(
            "{:<28} {v:>16.6} {:<6} {} -> {}",
            m.name, m.unit, m.moves, m.on
        );
    }
    let path = write_trace(&args, &traced, &capture)?;
    println!("trace written to {}", path.display());
    let metrics = traced.layers.to_json(per_layer_units())?;
    println!("{}", result_line(&traced, metrics));
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload serve-read --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(a.workload, Workload::ServeRead);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(args("--workload nope --seed 1 --seconds 1").is_err());
        assert!(args("--workload replay-full --seed 1 --seconds 0").is_err());
        assert!(args("--workload replay-full --seconds 1").is_err());
        assert!(args("--workload replay-full --seed 1 --seconds 1 --trace 2").is_err());
    }
}
