//! Serving smoke test + latency report.
//!
//! Fits a depth-16 per-record chain (fusion off and on), then drives the
//! `keystone-serve` front-end with a seeded load generator across a
//! batch-size × linger sweep. Writes `target/serving_report.json` with the
//! *virtual* quantities only — per-config p50/p99 latency, wave counts,
//! makespan, admission counters, and the latency histogram — so two runs of
//! this example are byte-identical (CI compares them with `cmp`). Measured
//! wall QPS goes to stdout only.
//!
//! Asserts, as the CI smoke floor:
//! * zero dropped responses in every configuration,
//! * sustained QPS above a modest floor on the fused chain,
//! * micro-batching (batch >= 8) beats batch=1 QPS on the fused chain —
//!   per-wave dispatch overhead amortizes across the batch.

use keystoneml::core::context::ExecContext;
use keystoneml::core::operator::Transformer;
use keystoneml::core::optimizer::PipelineOptions;
use keystoneml::core::pipeline::Pipeline;
use keystoneml::core::profiler::ProfileOptions;
use keystoneml::dataflow::json::JVal;
use keystoneml::serve::{BatchPolicy, LoadGen, Server};

const DEPTH: usize = 16;
const DIM: usize = 16;
const REQUESTS: usize = 2_000;
const MEAN_GAP_SECS: f64 = 1e-5;
const QPS_FLOOR: f64 = 50.0;

struct AxPlusB {
    a: f64,
    b: f64,
}

impl Transformer<Vec<f64>, Vec<f64>> for AxPlusB {
    fn apply(&self, x: &Vec<f64>) -> Vec<f64> {
        x.iter().map(|v| self.a * v + self.b).collect()
    }
}

fn chain() -> Pipeline<Vec<f64>, Vec<f64>> {
    let mut pipe = Pipeline::<Vec<f64>, Vec<f64>>::input();
    for i in 0..DEPTH {
        pipe = pipe.and_then(AxPlusB {
            a: 1.0 + i as f64 * 1e-3,
            b: 0.5,
        });
    }
    pipe
}

fn opts(fusion: bool) -> PipelineOptions {
    PipelineOptions {
        profile: ProfileOptions {
            sizes: vec![8, 16],
            seed: 17,
            select_operators: true,
            deterministic_timing: true,
        },
        ..PipelineOptions::full()
    }
    .with_fusion(fusion)
}

fn main() {
    let pool: Vec<Vec<f64>> = (0..64)
        .map(|r| (0..DIM).map(|c| (r * DIM + c) as f64 * 1e-4).collect())
        .collect();

    let mut configs = Vec::new();
    let mut fused_qps_batch1 = 0.0f64;
    let mut fused_qps_batch8 = 0.0f64;
    println!(
        "serving: depth-{DEPTH} chain, {REQUESTS} requests, mean gap {MEAN_GAP_SECS}s\n\
         {:<8} {:>6} {:>9} {:>13} {:>13} {:>9} {:>7}",
        "fusion", "batch", "linger", "p50-secs", "p99-secs", "qps", "waves"
    );
    for fusion in [false, true] {
        let fit_ctx = ExecContext::default_cluster();
        let (fitted, _) = chain().fit(&fit_ctx, &opts(fusion));
        for (max_batch, linger) in [(1usize, 0.0f64), (8, 1e-4), (32, 1e-3)] {
            let server = Server::new(
                &fitted,
                BatchPolicy::new(max_batch, linger).with_queue_capacity(REQUESTS),
            );
            let serve_ctx = ExecContext::default_cluster();
            // Warm-up wave (cache population, allocator), then measured run.
            let _ = server.run(
                LoadGen::new(7).requests_from_pool(64, MEAN_GAP_SECS, &pool),
                &serve_ctx,
            );
            let serve_ctx = ExecContext::default_cluster();
            let requests = LoadGen::new(42).requests_from_pool(REQUESTS, MEAN_GAP_SECS, &pool);
            let outcome = server.run(requests, &serve_ctx);

            assert!(
                outcome.rejects.is_empty() && outcome.responses.len() == REQUESTS,
                "dropped responses: {} served, {} rejected (fusion={fusion}, batch={max_batch})",
                outcome.responses.len(),
                outcome.rejects.len()
            );
            let qps = outcome.qps();
            if fusion && max_batch == 1 {
                fused_qps_batch1 = qps;
            }
            if fusion && max_batch == 8 {
                fused_qps_batch8 = qps;
            }
            println!(
                "{:<8} {:>6} {:>9.0e} {:>13.6} {:>13.6} {:>9.0} {:>7}",
                fusion,
                max_batch,
                linger,
                outcome.latency_percentile(50.0),
                outcome.latency_percentile(99.0),
                qps,
                outcome.batches.len()
            );

            let hist = serve_ctx
                .metrics
                .histogram("serve.latency_secs")
                .expect("serve records its latency histogram");
            // Virtual quantities only: wall QPS would differ between runs.
            configs.push(JVal::obj(vec![
                ("fusion", JVal::Bool(fusion)),
                ("batch", JVal::UInt(max_batch as u64)),
                ("linger_secs", JVal::Num(linger)),
                ("p50_secs", JVal::Num(outcome.latency_percentile(50.0))),
                ("p99_secs", JVal::Num(outcome.latency_percentile(99.0))),
                ("waves", JVal::UInt(outcome.batches.len() as u64)),
                ("makespan_secs", JVal::Num(outcome.makespan_secs)),
                ("admitted", JVal::UInt(outcome.responses.len() as u64)),
                ("rejected", JVal::UInt(0)),
                (
                    "latency_buckets",
                    JVal::Arr(
                        hist.bucket_counts()
                            .iter()
                            .map(|&c| JVal::UInt(c))
                            .collect(),
                    ),
                ),
            ]));
        }
    }

    assert!(
        fused_qps_batch1 >= QPS_FLOOR && fused_qps_batch8 >= QPS_FLOOR,
        "sustained QPS below floor: batch1={fused_qps_batch1:.0}, batch8={fused_qps_batch8:.0}"
    );
    assert!(
        fused_qps_batch8 > fused_qps_batch1,
        "micro-batching must beat batch=1 on the fused chain: \
         batch8={fused_qps_batch8:.0} qps vs batch1={fused_qps_batch1:.0} qps"
    );

    let report = JVal::obj(vec![
        ("depth", JVal::UInt(DEPTH as u64)),
        ("requests", JVal::UInt(REQUESTS as u64)),
        ("configs", JVal::Arr(configs)),
    ])
    .render();
    std::fs::create_dir_all("target").expect("create target/");
    std::fs::write("target/serving_report.json", &report).expect("write serving report");
    println!("report: target/serving_report.json");
}
