//! The workload-independent part of a run: fit → apply → serve cycles with
//! output checks, and the per-layer probes every workload shares.

use std::collections::{BTreeMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use keystoneml::core::operator::AnyData;
use keystoneml::core::optimizer::{
    build_mat_problem, eliminate_common_subexpressions, fit_forest, fit_roots, fuse_chains_with,
};
use keystoneml::core::profiler::{profile_and_select, ProfileOptions};
use keystoneml::core::record::Record;
use keystoneml::core::trace::TraceEvent;
use keystoneml::dataflow::cache::{CacheManager, CachePolicy};
use keystoneml::dataflow::metrics::TaskSpan;
use keystoneml::prelude::*;
use keystoneml::serve::{percentile, Arrival, MicroBatcher};
use keystoneml::workloads::pipelines::predictions;

use crate::span::Spans;
use crate::workloads::Workload;

/// Requests per `Server::run` call: one wave under the default policy.
const WAVE: usize = 8;

/// Cycles a run makes even when they take longer than `--seconds`.
const MIN_CYCLES: usize = 3;

/// Held-out applies per cycle.
const APPLIES_PER_CYCLE: usize = 3;

/// Per-layer metric values by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Generated inputs and the pipelines built over them.
pub struct Prepared<A: Record> {
    /// The microbenchmarked descriptor every context in the run shares, so
    /// cost-based selection sees the same machine in every fit.
    pub resources: ResourceDesc,
    pub train: DistCollection<A>,
    pub train_onehot: DistCollection<Vec<f64>>,
    pub test: DistCollection<A>,
    pub test_labels: Vec<usize>,
    /// One pipeline (fitted with `Pipeline::fit`) or several tenants over
    /// one graph (fitted together with `fit_forest`).
    pub tenants: Vec<Pipeline<A, Vec<f64>>>,
    pub opts: PipelineOptions,
}

impl<A: Record> Prepared<A> {
    /// A fresh context on the run's calibrated descriptor.
    pub fn ctx(&self) -> ExecContext {
        ExecContext::new(self.resources.clone())
    }
}

/// One completed fit.
pub struct Fit<A: Record> {
    pub fitted: Vec<FittedPipeline<A, Vec<f64>>>,
    /// The fit report of the executed plan (the shared plan's on a forest
    /// that shared, else the first tenant's).
    pub report: FitReport,
    /// `(shared, fits executed)` when the workload fits a forest.
    pub forest: Option<(bool, usize)>,
    pub ctx: ExecContext,
    pub wall_s: f64,
}

impl<A: Record> Fit<A> {
    /// The optimizer decisions of this fit, as one comparable line.
    pub fn decisions(&self) -> String {
        let choices: Vec<String> = self
            .report
            .choices
            .iter()
            .map(|(node, pick)| format!("{node}={pick}"))
            .collect();
        let shared = match self.forest {
            Some((shared, _)) => format!(" shared={shared}"),
            None => String::new(),
        };
        format!(
            "choices=[{}] cache=[{}]{shared}",
            choices.join(","),
            self.report.cache_set_labels.join(",")
        )
    }
}

/// Fits every tenant: `Pipeline::fit` for one, `fit_forest` for several.
pub fn fit<A: Record>(prep: &Prepared<A>, spans: &Spans) -> Fit<A> {
    let ctx = prep.ctx();
    if prep.tenants.len() == 1 {
        let ((fitted, report), wall_s) = spans.time("keystone-core::Pipeline::fit", || {
            prep.tenants[0].fit(&ctx, &prep.opts)
        });
        return Fit {
            fitted: vec![fitted],
            report,
            forest: None,
            ctx,
            wall_s,
        };
    }
    let ((fitted, mut forest), wall_s) = spans
        .time("keystone-core::optimizer::multi::fit_forest", || {
            fit_forest(&prep.tenants, &ctx, &prep.opts)
        });
    // fit_forest measures each tenant solo and the shared plan once, then
    // replays the winner: one more fit when sharing wins, N when it does not.
    let n = prep.tenants.len();
    let fits_executed = forest.solo_secs.len() + 1 + if forest.shared { 1 } else { n };
    let report = match forest.fit.take() {
        Some(r) => r,
        None => forest.solo_reports.remove(0),
    };
    Fit {
        fitted,
        report,
        forest: Some((forest.shared, fits_executed)),
        ctx,
        wall_s,
    }
}

/// Bit patterns of every output row, for exact comparisons.
fn bits(rows: &[Vec<f64>]) -> Vec<Vec<u64>> {
    rows.iter()
        .map(|r| r.iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// Median (mean of the middle two for an even count; 0 when empty).
pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Median of `reps` timed calls of `f`, each recorded as a span.
pub fn median_secs<T>(
    spans: &Spans,
    name: &'static str,
    reps: usize,
    mut f: impl FnMut() -> T,
) -> f64 {
    median(
        (0..reps)
            .map(|_| {
                let (out, secs) = spans.time(name, &mut f);
                std::hint::black_box(out);
                secs
            })
            .collect(),
    )
}

/// Everything the cycles measured.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Failures other than serving rejects: failed output checks and
    /// panics. Any one of them zeroes `success_rate`.
    pub checks_failed: u64,
    pub fit_walls: Vec<f64>,
    pub traced_fit_walls: Vec<f64>,
    pub fit_records: usize,
    pub apply_walls: Vec<f64>,
    pub apply_records: usize,
    pub wave_ms: Vec<f64>,
    pub served: usize,
    pub serve_wall_s: f64,
    pub accuracy: Vec<f64>,
    pub decisions: Vec<String>,
    pub solo_fit_s: f64,
    pub failures: Vec<String>,
}

impl Tally {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.checks_failed += 1;
        eprintln!("check failed: {what}");
        self.failures.push(what);
    }

    /// Distinct decision sets seen, minus one.
    pub fn decisions_changed(&self) -> usize {
        let set: HashSet<&String> = self.decisions.iter().collect();
        set.len().saturating_sub(1)
    }

    /// Every end-to-end figure with its unit: the gated ones and those
    /// only printed.
    pub fn end_to_end(&self, setup_s: f64) -> Vec<(&'static str, f64, &'static str)> {
        let fit_s = median(self.fit_walls.clone());
        let apply_s = median(self.apply_walls.clone());
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        // A failed check is rare next to thousands of requests, so it would
        // barely move `1 - error_rate`; it zeroes the gated figure instead.
        let success_rate = if self.checks_failed > 0 {
            0.0
        } else {
            1.0 - error_rate
        };
        vec![
            ("setup_s", setup_s, "s"),
            (
                "fit_records_per_s",
                self.fit_records as f64 / fit_s.max(1e-12),
                "records/s",
            ),
            (
                "apply_records_per_s",
                self.apply_records as f64 / apply_s.max(1e-12),
                "records/s",
            ),
            ("serve_p50_ms", percentile(&self.wave_ms, 50.0), "ms"),
            ("serve_p90_ms", percentile(&self.wave_ms, 90.0), "ms"),
            ("serve_p99_ms", percentile(&self.wave_ms, 99.0), "ms"),
            (
                "serve_records_per_s",
                self.served as f64 / self.serve_wall_s.max(1e-12),
                "records/s",
            ),
            ("accuracy", median(self.accuracy.clone()), "fraction"),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
            ("success_rate", success_rate, "fraction"),
            ("error_rate", error_rate, "fraction"),
        ]
    }
}

/// `VmHWM` of this process, MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Applies every fitted tenant to the held-out set; returns outputs per
/// tenant and the apply wall seconds (summed over tenants).
fn apply_all<A: Record>(
    prep: &Prepared<A>,
    fit: &Fit<A>,
    spans: &Spans,
) -> (Vec<Vec<Vec<f64>>>, f64) {
    let mut wall = 0.0;
    let outs = fit
        .fitted
        .iter()
        .map(|f| {
            let (out, secs) = spans.time("keystone-core::FittedPipeline::apply", || {
                f.apply(&prep.test, &fit.ctx).collect()
            });
            wall += secs;
            out
        })
        .collect();
    (outs, wall)
}

/// Runs fit → apply → serve cycles until `seconds` have passed (at least
/// [`MIN_CYCLES`]). With `trace`, every other cycle records spans.
pub fn run_cycles<W: Workload>(
    prep: &Prepared<W::In>,
    seconds: f64,
    trace: bool,
    spans: &Spans,
    tally: &mut Tally,
) -> Option<(Fit<W::In>, ExecContext)> {
    let train_n = prep.train.count();
    let test_records: Vec<W::In> = prep.test.collect();
    let tenants = prep.tenants.len();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut last = None;
    let mut cycle = 0usize;
    while cycle < MIN_CYCLES || Instant::now() < deadline {
        let traced = trace && cycle % 2 == 1;
        spans.set_enabled(traced);
        spans.set_run(cycle as u32 + 1);
        cycle += 1;

        tally.attempted += 1;
        let fit = match catch_unwind(AssertUnwindSafe(|| fit(prep, spans))) {
            Ok(f) => f,
            Err(_) => {
                tally.fail(format!("cycle {cycle}: fit panicked"));
                continue;
            }
        };
        if traced {
            tally.traced_fit_walls.push(fit.wall_s);
        } else {
            tally.fit_walls.push(fit.wall_s);
        }
        tally.fit_records = train_n * tenants;
        tally.decisions.push(fit.decisions());

        // Apply is short next to a fit, so each cycle applies several
        // times; every call is one sample.
        let mut outs = Vec::new();
        for _ in 0..APPLIES_PER_CYCLE {
            tally.attempted += tenants as u64;
            match catch_unwind(AssertUnwindSafe(|| apply_all(prep, &fit, spans))) {
                Ok((o, apply_s)) => {
                    tally.apply_walls.push(apply_s);
                    outs = o;
                }
                Err(_) => tally.fail(format!("cycle {cycle}: apply panicked")),
            }
        }
        if outs.is_empty() {
            continue;
        }
        tally.apply_records = test_records.len() * tenants;
        let worst = outs
            .iter()
            .map(|o| {
                let preds = predictions(&DistCollection::from_vec(o.clone(), 1));
                accuracy(&preds, &prep.test_labels)
            })
            .fold(f64::INFINITY, f64::min);
        tally.accuracy.push(worst);
        if worst < W::ACCURACY_FLOOR {
            tally.fail(format!(
                "cycle {cycle}: accuracy {worst:.4} below floor {}",
                W::ACCURACY_FLOOR
            ));
        }
        let expected: Vec<Vec<Vec<u64>>> = outs.iter().map(|o| bits(o)).collect();
        if tenants > 1 && cycle == 1 {
            check_solo_tenant(prep, &expected[0], spans, tally);
        }

        // Closed loop, one client: the next wave goes out when the previous
        // returns. Waves rotate over tenants and walk the held-out set.
        let servers: Vec<Server<W::In, Vec<f64>>> = fit
            .fitted
            .iter()
            .map(|f| Server::new(f, BatchPolicy::default()))
            .collect();
        let serve_ctx = prep.ctx();
        let serve_start = Instant::now();
        for w in 0..W::WAVES_PER_CYCLE {
            let t = w % tenants;
            let first = (w * WAVE) % test_records.len();
            let idx: Vec<usize> = (0..WAVE)
                .map(|i| (first + i) % test_records.len())
                .collect();
            let requests: Vec<Request<W::In>> = idx
                .iter()
                .enumerate()
                .map(|(i, &r)| Request {
                    id: i as u64,
                    arrival_secs: 0.0,
                    record: test_records[r].clone(),
                })
                .collect();
            tally.attempted += WAVE as u64;
            let run = catch_unwind(AssertUnwindSafe(|| {
                spans.time("keystone-serve::Server::run", || {
                    servers[t].run(requests, &serve_ctx)
                })
            }));
            let (outcome, secs) = match run {
                Ok(r) => r,
                Err(_) => {
                    tally.failed += WAVE as u64 - 1;
                    tally.fail(format!("cycle {cycle}: wave {w} panicked"));
                    continue;
                }
            };
            tally.wave_ms.push(secs * 1e3);
            tally.failed += outcome.rejects.len() as u64;
            tally.served += outcome.responses.len();
            for resp in &outcome.responses {
                let r = idx[resp.id as usize];
                let got: Vec<u64> = resp.output.iter().map(|v| v.to_bits()).collect();
                if got != expected[t][r] {
                    tally.fail(format!(
                        "cycle {cycle}: served record {r} (tenant {t}) differs from apply"
                    ));
                }
            }
        }
        tally.serve_wall_s += serve_start.elapsed().as_secs_f64();
        last = Some((fit, serve_ctx));
    }
    spans.set_enabled(trace);
    spans.set_run(0);
    last
}

/// Checks that tenant 0 of a forest fit predicts bit-identically to the
/// same pipeline fitted alone, and keeps the solo fit's wall seconds.
fn check_solo_tenant<A: Record>(
    prep: &Prepared<A>,
    forest_bits: &[Vec<u64>],
    spans: &Spans,
    tally: &mut Tally,
) {
    tally.attempted += 2;
    let run = catch_unwind(AssertUnwindSafe(|| {
        let ctx = prep.ctx();
        let ((solo, _), solo_s) = spans.time("keystone-core::Pipeline::fit", || {
            prep.tenants[0].fit(&ctx, &prep.opts)
        });
        (bits(&solo.apply(&prep.test, &ctx).collect()), solo_s)
    }));
    match run {
        Ok((solo_bits, solo_s)) => {
            tally.solo_fit_s = solo_s;
            if solo_bits != forest_bits {
                tally.fail("forest tenant 0 differs from its solo fit".to_string());
            }
        }
        Err(_) => tally.fail("solo-tenant check panicked".to_string()),
    }
}

/// Regions of a fit's partition tasks: consecutive spans of one
/// `(stage, op_seq)` wave, a repeated partition starting a new region.
fn regions(spans: &[TaskSpan]) -> Vec<&[TaskSpan]> {
    let mut out = Vec::new();
    let mut start = 0;
    let mut seen: HashSet<usize> = HashSet::new();
    for (i, s) in spans.iter().enumerate() {
        let same = i > start
            && spans[start].stage == s.stage
            && spans[start].stage_id == s.stage_id
            && spans[start].op_seq == s.op_seq
            && !seen.contains(&s.partition);
        if i > start && !same {
            out.push(&spans[start..i]);
            start = i;
            seen.clear();
        }
        seen.insert(s.partition);
    }
    if start < spans.len() {
        out.push(&spans[start..]);
    }
    out
}

/// Per-layer probes shared by every workload: dataflow, executor,
/// optimizer, serve and obs.
pub fn shared_probes<A: Record>(
    prep: &Prepared<A>,
    fit: &Fit<A>,
    serve_ctx: &ExecContext,
    tally: &Tally,
    spans: &Spans,
    out: &mut Layers,
) {
    let workers = prep.resources.workers;
    let fit_s = median(tally.traced_fit_walls.clone());
    out.insert("linalg.peak_gflops", prep.resources.gflops_per_worker / 1e9);

    // keystone-dataflow: an empty parallel region, then the fit's own tasks.
    let empty = DistCollection::from_vec(vec![0u64; workers], workers);
    let region = median_secs(spans, "keystone-dataflow::DistCollection::map", 400, || {
        empty.map(|x| *x)
    });
    out.insert("dataflow.region_overhead_us", region * 1e6);
    let tasks = fit.ctx.metrics.spans();
    let regs = regions(&tasks);
    let (mut wall, mut tail) = (0.0, 0.0);
    for r in &regs {
        let start = r.iter().map(|s| s.start_us).min().unwrap_or(0);
        let end = r.iter().map(|s| s.end_us).max().unwrap_or(0);
        let first_done = r.iter().map(|s| s.end_us).min().unwrap_or(0);
        wall += end.saturating_sub(start) as f64;
        tail += end.saturating_sub(first_done) as f64;
    }
    out.insert("dataflow.regions_per_fit", regs.len() as f64);
    out.insert(
        "dataflow.task_busy_s",
        tasks.iter().map(TaskSpan::duration_secs).sum(),
    );
    out.insert(
        "dataflow.task_wait_frac",
        if wall > 0.0 { tail / wall } else { 0.0 },
    );
    let (mut hits, mut misses, mut bytes) = (0u64, 0u64, 0u64);
    let mut node_evals = 0usize;
    for e in fit.ctx.tracer.events() {
        match e.event {
            TraceEvent::CacheHit { .. } => hits += 1,
            TraceEvent::CacheMiss { .. } => misses += 1,
            TraceEvent::CacheAdmit { bytes: b, .. } => bytes += b,
            TraceEvent::NodeEnd { .. } => node_evals += 1,
            _ => {}
        }
    }
    let lookups = hits + misses;
    out.insert(
        "dataflow.cache_hit_ratio",
        if lookups > 0 {
            hits as f64 / lookups as f64
        } else {
            0.0
        },
    );
    out.insert("dataflow.cache_bytes", bytes as f64);

    // keystone-core::executor.
    out.insert("executor.node_evals", node_evals as f64);
    out.insert(
        "executor.sim_wall_ratio",
        fit.ctx.sim.total_seconds() / fit.wall_s.max(1e-12),
    );

    // keystone-core::optimizer: the passes of `Pipeline::fit`, called one by
    // one on tenant 0's graph.
    let pipe = &prep.tenants[0];
    let (mut cse_s, mut prof_s, mut mat_s, mut fuse_s) = (vec![], vec![], vec![], vec![]);
    for _ in 0..3 {
        let snapshot = pipe.graph_snapshot();
        let (cse, s) = spans.time(
            "keystone-core::optimizer::eliminate_common_subexpressions",
            || eliminate_common_subexpressions(&snapshot),
        );
        cse_s.push(s);
        let output = cse.remap[&pipe.output_node()];
        let mut graph = cse.graph;
        let roots = fit_roots(&graph, output);
        let ctx = prep.ctx();
        let popts = ProfileOptions {
            select_operators: true,
            ..prep.opts.profile.clone()
        };
        let (profile, s) = spans.time("keystone-core::profiler::profile_and_select", || {
            profile_and_select(&mut graph, &roots, &ctx, &popts)
        });
        prof_s.push(s);
        let budget = prep
            .opts
            .mem_budget
            .unwrap_or_else(|| ctx.resources.total_cache_bytes());
        let (set, s) = spans.time("keystone-core::optimizer::greedy_materialization", || {
            build_mat_problem(&graph, &profile, &roots).greedy_cache_set(budget)
        });
        mat_s.push(s);
        let (_, s) = spans.time("keystone-core::optimizer::fuse_chains_with", || {
            fuse_chains_with(&graph, output, &set, prep.opts.columnar_enabled())
        });
        fuse_s.push(s);
    }
    let optimize_s = median(cse_s) + median(prof_s.clone()) + median(mat_s) + median(fuse_s);
    out.insert("optimizer.optimize_s", optimize_s);
    out.insert("optimizer.profile_s", median(prof_s));
    out.insert("optimizer.optimize_frac", optimize_s / fit_s.max(1e-12));
    out.insert(
        "optimizer.decisions_changed",
        tally.decisions_changed() as f64,
    );

    // keystone-core::optimizer::multi.
    let (fit_walls, solo, fits) = match fit.forest {
        Some((_, fits)) => (fit_s, tally.solo_fit_s, fits as f64),
        None => (0.0, 0.0, 0.0),
    };
    out.insert("forest.fit_s", fit_walls);
    out.insert("forest.solo_fit_s", solo);
    out.insert(
        "forest.overhead_ratio",
        if solo > 0.0 {
            fit_walls / (solo * prep.tenants.len() as f64)
        } else {
            0.0
        },
    );
    out.insert("forest.fits_executed", fits);

    // keystone-serve: the batcher alone, then one wave through the plan.
    let batcher = MicroBatcher::new(BatchPolicy::default());
    let per_call = median_secs(spans, "keystone-serve::MicroBatcher::run", 2000, || {
        let arrivals: Vec<Arrival<u32>> = (0..WAVE as u64)
            .map(|id| Arrival {
                id,
                at_secs: 0.0,
                payload: 0,
            })
            .collect();
        batcher.run(arrivals, |_| 0.0)
    });
    out.insert("serve.batcher_us_per_request", per_call * 1e6 / WAVE as f64);
    let plan = fit.fitted[0].plan();
    let keys = plan
        .reusable_nodes()
        .into_iter()
        .map(|n| n as u64)
        .collect();
    let cache = std::sync::Arc::new(CacheManager::new(u64::MAX, CachePolicy::Pinned(keys)));
    let wave: Vec<A> = prep.test.collect().into_iter().take(WAVE).collect();
    let ctx = prep.ctx();
    let wave_s = median_secs(
        spans,
        "keystone-core::ExecutablePlan::execute_erased_with_cache",
        200,
        || {
            let input = AnyData::wrap(DistCollection::from_vec(wave.clone(), 1));
            plan.execute_erased_with_cache(input, &ctx, cache.clone())
        },
    );
    out.insert("serve.wave_exec_ms", wave_s * 1e3);

    // keystone-obs.
    let capture = median_secs(spans, "keystone-obs::RunArtifact::capture_fit", 3, || {
        RunArtifact::capture_fit(&fit.report, &plan, &fit.ctx, &CaptureOptions::default()).to_json()
    });
    out.insert("obs.capture_s", capture);
    out.insert(
        "obs.retained_records",
        (serve_ctx.tracer.len() + serve_ctx.metrics.span_count() + serve_ctx.sim.entries().len())
            as f64,
    );
    let untraced = median(tally.fit_walls.clone());
    out.insert(
        "trace.overhead_frac",
        if untraced > 0.0 {
            fit_s / untraced - 1.0
        } else {
            0.0
        },
    );
}
