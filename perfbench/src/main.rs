//! Wall-clock benchmark of KeystoneML: set-up, fit, apply and closed-loop
//! serving on three Table-4-shaped workloads, with output checks and an
//! outside-in per-layer trace.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload text_lbfgs --seed 1 --seconds 55 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, with `--trace 1` the per-layer ones;
//! `perfbench/README.md` lists both. The lines before it are for people.

mod bench;
mod span;
mod workloads;

use std::path::PathBuf;

use keystoneml::obs::json::JVal;

use bench::{median, run_cycles, shared_probes, Layers, Tally};
use span::Spans;
use workloads::{CifarConv, TextLbfgs, TimitSweep, Workload};

/// End-to-end metrics registered in `BENCHMARK.json`; a run prints more.
const END_TO_END: [&str; 8] = [
    "setup_s",
    "fit_records_per_s",
    "apply_records_per_s",
    "serve_p90_ms",
    "serve_records_per_s",
    "accuracy",
    "peak_rss_mb",
    "success_rate",
];

/// Per-layer metrics and their units, as registered in `BENCHMARK.json`.
const PER_LAYER: [(&str, &str); 32] = [
    ("workloads.generate_s", "s"),
    ("linalg.peak_gflops", "GFLOP/s"),
    ("linalg.gemm_gflops", "GFLOP/s"),
    ("linalg.gemm_peak_frac", "fraction"),
    ("linalg.gram_gflops", "GFLOP/s"),
    ("linalg.qr_gflops", "GFLOP/s"),
    ("linalg.fft_gflops", "GFLOP/s"),
    ("linalg.spmv_gflops", "GFLOP/s"),
    ("dataflow.region_overhead_us", "us"),
    ("dataflow.regions_per_fit", "count"),
    ("dataflow.task_busy_s", "s"),
    ("dataflow.task_wait_frac", "fraction"),
    ("dataflow.cache_hit_ratio", "fraction"),
    ("dataflow.cache_bytes", "bytes"),
    ("optimizer.optimize_s", "s"),
    ("optimizer.profile_s", "s"),
    ("optimizer.optimize_frac", "fraction"),
    ("optimizer.decisions_changed", "count"),
    ("forest.fit_s", "s"),
    ("forest.solo_fit_s", "s"),
    ("forest.overhead_ratio", "ratio"),
    ("forest.fits_executed", "count"),
    ("executor.node_evals", "count"),
    ("executor.sim_wall_ratio", "ratio"),
    ("ops.featurize_s", "s"),
    ("ops.featurize_us_per_record", "us"),
    ("solvers.solve_s", "s"),
    ("serve.batcher_us_per_request", "us"),
    ("serve.wave_exec_ms", "ms"),
    ("obs.capture_s", "s"),
    ("obs.retained_records", "count"),
    ("trace.overhead_frac", "fraction"),
];

/// Set-ups per run; `setup_s` is their median and the last one is used.
const SETUP_REPS: usize = 9;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(0.0),
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n{e}"
            );
            std::process::exit(2);
        }
    };
    match args.workload.as_str() {
        "text_lbfgs" => run::<TextLbfgs>(&args),
        "timit_sweep" => run::<TimitSweep>(&args),
        "cifar_conv" => run::<CifarConv>(&args),
        other => {
            eprintln!("unknown workload {other}: text_lbfgs, timit_sweep or cifar_conv");
            std::process::exit(2);
        }
    }
}

fn run<W: Workload>(args: &Args) {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "workload={} seed={} seconds={} trace={} workers={workers}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let spans = Spans::new(args.trace);
    let mut setup_walls = Vec::new();
    let mut prep = None;
    for _ in 0..SETUP_REPS {
        drop(prep.take());
        let (p, secs) = spans.time("perfbench::setup", || W::setup(args.seed, workers, &spans));
        setup_walls.push(secs);
        prep = Some(p);
    }
    let prep = prep.expect("at least one set-up");
    let setup_s = median(setup_walls);

    let mut tally = Tally::default();
    let last = run_cycles::<W>(&prep, args.seconds, args.trace, &spans, &mut tally);

    println!(
        "samples: fits={} traced_fits={} applies={} waves={} attempted={} failed={}",
        tally.fit_walls.len(),
        tally.traced_fit_walls.len(),
        tally.apply_walls.len(),
        tally.wave_ms.len(),
        tally.attempted,
        tally.failed
    );
    let mut decisions: Vec<(&String, usize)> = Vec::new();
    for d in &tally.decisions {
        match decisions.iter_mut().find(|(seen, _)| *seen == d) {
            Some((_, n)) => *n += 1,
            None => decisions.push((d, 1)),
        }
    }
    for (d, n) in decisions {
        println!("decisions ({n} fits): {d}");
    }
    let walls: Vec<String> = tally.fit_walls.iter().map(|w| format!("{w:.3}")).collect();
    println!("fit walls (s): {}", walls.join(" "));
    for f in &tally.failures {
        println!("failed: {f}");
    }
    let e2e = tally.end_to_end(setup_s);
    for (name, value, unit) in &e2e {
        println!("{name} = {value} {unit}");
    }

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let Some((fit, serve_ctx)) = last else {
            eprintln!("no cycle completed, so there is nothing to probe");
            std::process::exit(1);
        };
        let mut layers = Layers::new();
        layers.insert(
            "workloads.generate_s",
            median(spans.secs_of("keystone-workloads::")),
        );
        shared_probes(&prep, &fit, &serve_ctx, &tally, &spans, &mut layers);
        W::probes(&prep, &fit, &spans, &mut layers);
        let path = PathBuf::from(format!(
            ".bench_build/perfbench/spans-{}-{}.jsonl",
            args.workload, args.seed
        ));
        let header = format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"spans\":{}}}",
            args.workload,
            args.seed,
            spans.len()
        );
        match spans.write(&path, &header) {
            Ok(()) => println!("spans: {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = *layers
                    .get(name)
                    .unwrap_or_else(|| panic!("no probe produced {name}"));
                (name, value, unit)
            })
            .collect()
    } else {
        e2e.into_iter()
            .filter(|(name, _, _)| END_TO_END.contains(name))
            .collect()
    };
    for (name, value, unit) in &metrics {
        println!("{name}: {value} {unit}");
    }
    let result = JVal::obj(vec![
        ("correct", JVal::Bool(tally.failed == 0)),
        ("attempted", JVal::UInt(tally.attempted)),
        ("failed", JVal::UInt(tally.failed)),
        (
            "metrics",
            JVal::Obj(
                metrics
                    .iter()
                    .map(|&(name, value, unit)| {
                        (
                            name.to_string(),
                            JVal::obj(vec![("value", JVal::Num(value)), ("unit", JVal::str(unit))]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", result.render());
}
