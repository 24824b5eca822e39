//! Partition-level observability, end to end: fitting a real pipeline
//! leaves one [`TaskSpan`] per partition for every partition-parallel node,
//! the [`PipelineReport`] join carries skew/utilization for those nodes,
//! and the Chrome trace export is valid trace-event JSON.

use std::collections::HashMap;

use keystoneml::dataflow::json;
use keystoneml::prelude::*;

/// Busy-waits per record so every partition does measurable work.
struct BusyWork(u64);
impl Transformer<Vec<f64>, Vec<f64>> for BusyWork {
    fn apply(&self, x: &Vec<f64>) -> Vec<f64> {
        let mut acc = 0.0f64;
        for i in 0..self.0 * 100 {
            acc += (i as f64).sqrt();
        }
        std::hint::black_box(acc);
        x.clone()
    }
}

/// Subtracts the training mean of the first component (uses `aggregate`,
/// one of the instrumented partition-parallel operations).
struct MeanShift;
impl Estimator<Vec<f64>, Vec<f64>> for MeanShift {
    fn fit(
        &self,
        data: &DistCollection<Vec<f64>>,
        _ctx: &ExecContext,
    ) -> Box<dyn Transformer<Vec<f64>, Vec<f64>>> {
        let n = data.count().max(1) as f64;
        let mu = data.aggregate(0.0, |a, x| a + x[0], |a, b| a + b) / n;
        struct Shift(f64);
        impl Transformer<Vec<f64>, Vec<f64>> for Shift {
            fn apply(&self, x: &Vec<f64>) -> Vec<f64> {
                x.iter().map(|v| v - self.0).collect()
            }
        }
        Box::new(Shift(mu))
    }
}

fn fit_pipeline() -> (ExecContext, FitReport) {
    let train = DistCollection::from_vec((0..768).map(|i| vec![i as f64, 1.0]).collect(), 4);
    let pipe = Pipeline::<Vec<f64>, Vec<f64>>::input()
        .and_then(BusyWork(20))
        .and_then_est(MeanShift, &train);
    let ctx = ExecContext::default_cluster();
    let opts = PipelineOptions {
        profile: ProfileOptions {
            sizes: vec![64, 128],
            seed: 7,
            select_operators: true,
            ..Default::default()
        },
        ..Default::default()
    };
    let (_fitted, report) = pipe.fit(&ctx, &opts);
    (ctx, report)
}

#[test]
fn every_instrumented_node_has_a_span_per_partition() {
    let (ctx, report) = fit_pipeline();
    let spans = ctx.metrics.spans();
    assert!(!spans.is_empty(), "fit recorded no task spans");

    // Every span is well formed: a stamped executor node, a worker lane
    // within the cluster, and a non-negative duration.
    for s in &spans {
        assert!(s.stage_id.is_some(), "span {:?} missing node id", s.stage);
        assert!(s.end_us >= s.start_us, "negative duration in {:?}", s);
        assert!(s.duration_secs() >= 0.0);
        assert!(
            s.worker < ctx.resources.workers,
            "worker lane {} out of range",
            s.worker
        );
    }

    // Per node: the partitions covered form a contiguous 0..=max set with
    // at least one span each — no partition of a partition-parallel
    // operation escapes measurement.
    let mut by_node: HashMap<u64, Vec<&keystoneml::prelude::TaskSpan>> = HashMap::new();
    for s in &spans {
        by_node.entry(s.stage_id.unwrap()).or_default().push(s);
    }
    for (node, group) in &by_node {
        let max_p = group.iter().map(|s| s.partition).max().unwrap();
        for p in 0..=max_p {
            assert!(
                group.iter().any(|s| s.partition == p),
                "node {node} covered partition {max_p} but not {p}"
            );
        }
        // Lane attribution records the pool thread that actually ran the
        // partition, so two spans on the same (node, lane) can never
        // overlap in time — a lane is one thread running tasks serially.
        let mut by_lane: HashMap<usize, Vec<(u64, u64)>> = HashMap::new();
        for s in group {
            by_lane
                .entry(s.worker)
                .or_default()
                .push((s.start_us, s.end_us));
        }
        for (lane, mut intervals) in by_lane {
            intervals.sort_unstable();
            for w in intervals.windows(2) {
                assert!(
                    w[1].0 >= w[0].1,
                    "node {node} lane {lane}: spans {:?} and {:?} overlap",
                    w[0],
                    w[1]
                );
            }
        }
    }

    // Every executed operator node in the report owns at least one span,
    // and the skew join landed on its row.
    for n in &report.observability.nodes {
        let is_op = n.label.starts_with("transform:")
            || n.label.starts_with("fit:")
            || n.label.starts_with("apply:");
        if n.execs > 0 && is_op {
            assert!(n.task_spans >= 1, "executed node {} has no spans", n.label);
            assert!(n.partitions >= 1);
            let skew = n.skew_ratio.expect("skew joined");
            let util = n.utilization.expect("utilization joined");
            assert!(skew >= 1.0 && skew.is_finite(), "bad skew {skew}");
            assert!((0.0..=1.0).contains(&util), "bad utilization {util}");
        }
    }
}

#[test]
fn chrome_trace_from_fit_is_valid_trace_event_json() {
    let (ctx, _report) = fit_pipeline();
    let trace = chrome_trace_json(&ctx.metrics, &ctx.sim);
    let doc = json::parse(&trace).unwrap_or_else(|off| panic!("trace JSON invalid at byte {off}"));
    let events = doc.as_arr().expect("trace is a JSON array");
    assert!(!events.is_empty());

    let mut pids_with_spans = Vec::new();
    for e in events {
        let ph = e.get("ph").and_then(|v| v.as_str()).expect("ph field");
        match ph {
            "X" => {
                // Complete events carry pid/tid/ts/dur/name.
                let pid = e.get("pid").and_then(|v| v.as_f64()).expect("pid");
                for key in ["tid", "ts", "dur"] {
                    let v = e.get(key).and_then(|v| v.as_f64());
                    assert!(v.is_some_and(|x| x >= 0.0), "bad {key} in {ph} event");
                }
                assert!(e.get("name").and_then(|v| v.as_str()).is_some());
                pids_with_spans.push(pid as u64);
            }
            "M" => {
                assert!(e.get("name").and_then(|v| v.as_str()).is_some());
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }
    // Both process groups render: measured worker lanes (pid 1) and the
    // simulated cluster ledger (pid 2 — default_cluster charges SimClock).
    assert!(
        pids_with_spans.contains(&1),
        "no measured worker-lane events"
    );
    assert!(pids_with_spans.contains(&2), "no simulated-cluster events");
}
