//! The three Table-4-shaped workloads: inputs from the seed, the pipelines
//! over them, and the per-layer probes that need the workload's own types.

use keystoneml::core::operator::{
    Estimator, OptimizableLabelEstimator, OptimizableTransformer, Transformer,
};
use keystoneml::core::record::Record;
use keystoneml::linalg::fft::{fft2_inplace, next_pow2, Complex};
use keystoneml::linalg::gemm::{gram, matmul};
use keystoneml::linalg::qr::QrFactorization;
use keystoneml::linalg::sparse::CsrMatrix;
use keystoneml::ops::image::{
    Convolver, FilterBank, Image, ImageVectorizer, Pooler, SymmetricRectifier,
};
use keystoneml::ops::stats::RandomFeatures;
use keystoneml::ops::text::{CommonSparseFeatures, LowerCase, NGrams, Tokenizer, Trim};
use keystoneml::prelude::*;
use keystoneml::solvers::features::Features;
use keystoneml::solvers::logistic::one_hot;
use keystoneml::workloads::pipelines::{
    cifar_pipeline, text_classification_pipeline, CifarPipelineConfig, TextPipelineConfig,
};
use keystoneml::workloads::{
    sweep_pipelines, AmazonLike, ImageDatasetSpec, SweepConfig, TimitLike,
};

use crate::bench::{median_secs, Fit, Layers, Prepared};
use crate::span::Spans;

/// What differs between workloads.
pub trait Workload {
    /// Record type the pipelines take.
    type In: Record;
    /// Held-out accuracy below which a cycle's check fails.
    const ACCURACY_FLOOR: f64;
    /// `Server::run` calls per cycle.
    const WAVES_PER_CYCLE: usize;
    /// Generates the inputs from `seed` (the only place the seed goes) and
    /// builds the pipelines.
    fn setup(seed: u64, workers: usize, spans: &Spans) -> Prepared<Self::In>;
    /// Probes of the featurizers, the solver and the kernels at this
    /// workload's shapes.
    fn probes(prep: &Prepared<Self::In>, fit: &Fit<Self::In>, spans: &Spans, out: &mut Layers);
}

fn calibrated(workers: usize, spans: &Spans) -> ResourceDesc {
    spans
        .time("keystone-core::ExecContext::calibrated", || {
            ExecContext::calibrated(workers)
        })
        .0
        .resources
}

/// The physical operator the fit chose for the first logical node whose
/// label contains `logical`.
fn choice(report: &FitReport, logical: &str) -> String {
    report
        .choices
        .iter()
        .find(|(node, _)| node.contains(logical))
        .map(|(_, pick)| pick.clone())
        .unwrap_or_else(|| panic!("the fit made no choice for {logical}"))
}

/// Median wall seconds of the chosen solver fitted on pre-featurized data.
fn solve_probe<F: Features>(
    solver: &LinearSolverOp,
    chosen: &str,
    x: &DistCollection<F>,
    y: &DistCollection<Vec<f64>>,
    ctx: &ExecContext,
    spans: &Spans,
) -> f64 {
    let options =
        <LinearSolverOp as OptimizableLabelEstimator<F, Vec<f64>, Vec<f64>>>::options(solver);
    let option = options
        .iter()
        .find(|o| o.name == chosen)
        .expect("the chosen solver is one of the options");
    median_secs(spans, "keystone-solvers::LabelEstimator::fit", 3, || {
        option.op.fit(x, y, ctx)
    })
}

fn matrix(rows: usize, cols: usize, salt: u64) -> DenseMatrix {
    DenseMatrix::from_fn(rows, cols, |i, j| {
        let h = (i as u64 * 0x9E37_79B9 + j as u64 * 0x85EB_CA6B + salt) % 1000;
        h as f64 / 500.0 - 1.0
    })
}

/// Repetitions of a kernel of `flops` that take about 20 ms at 2 GFLOP/s,
/// at least three.
fn reps_for(flops: f64) -> usize {
    ((0.02 * 2e9 / flops.max(1.0)) as usize).clamp(3, 2000)
}

/// GEMM, Gram and QR GF/s at an `n × d` design matrix with `k` outputs.
fn dense_kernels(n: usize, d: usize, k: usize, spans: &Spans, out: &mut Layers) {
    let a = matrix(n, d, 1);
    let w = matrix(d, k, 2);
    let flops = 2.0 * (n * d * k) as f64;
    let s = median_secs(
        spans,
        "keystone-linalg::gemm::matmul",
        reps_for(flops),
        || matmul(&a, &w),
    );
    let gemm = flops / s / 1e9;
    out.insert("linalg.gemm_gflops", gemm);
    out.insert("linalg.gemm_peak_frac", gemm / out["linalg.peak_gflops"]);
    let flops = (n * d * (d + 1)) as f64;
    let s = median_secs(
        spans,
        "keystone-linalg::gemm::gram",
        reps_for(flops),
        || gram(&a),
    );
    out.insert("linalg.gram_gflops", flops / s / 1e9);
    let flops = 2.0 * (n * d * d) as f64 - 2.0 * (d * d * d) as f64 / 3.0;
    let reps = reps_for(flops);
    let copies: Vec<DenseMatrix> = (0..reps).map(|_| a.clone()).collect();
    let mut copies = copies.into_iter();
    let s = median_secs(
        spans,
        "keystone-linalg::qr::QrFactorization::new",
        reps,
        || QrFactorization::new(copies.next().expect("one copy per rep")),
    );
    out.insert("linalg.qr_gflops", flops / s / 1e9);
}

/// GF/s of one 2-D FFT at the size the `cifar_conv` FFT convolver pads a
/// 32×32 plane to. It takes no workload input, so every workload probes it.
fn fft_kernel(spans: &Spans, out: &mut Layers) {
    let side = next_pow2(32);
    let grid: Vec<Complex> = (0..side * side)
        .map(|i| Complex::new((i % 13) as f64 * 0.1, 0.0))
        .collect();
    let flops = 5.0 * (side * side) as f64 * ((side * side) as f64).log2();
    let s = median_secs(spans, "keystone-linalg::fft::fft2_inplace", 500, || {
        let mut g = grid.clone();
        fft2_inplace(&mut g, side, side, false);
        g
    });
    out.insert("linalg.fft_gflops", flops / s / 1e9);
}

/// `text_lbfgs`: Amazon-like reviews through the Fig. 2 text pipeline with
/// the 20-iteration L-BFGS solver.
pub struct TextLbfgs;

const TEXT_DOCS: usize = 12_000;

impl TextLbfgs {
    fn config() -> TextPipelineConfig {
        TextPipelineConfig {
            max_features: 20_000,
            max_ngram: 2,
            solver: LinearSolverOp {
                lbfgs_iters: 20,
                ..LinearSolverOp::default()
            },
        }
    }
}

impl Workload for TextLbfgs {
    type In = String;
    const ACCURACY_FLOOR: f64 = 0.85;
    const WAVES_PER_CYCLE: usize = 1000;

    fn setup(seed: u64, workers: usize, spans: &Spans) -> Prepared<String> {
        let resources = calibrated(workers, spans);
        let ((train, test), _) =
            spans.time("keystone-workloads::AmazonLike::generate_split", || {
                AmazonLike {
                    docs: TEXT_DOCS,
                    seed,
                    partitions: workers,
                    ..AmazonLike::default()
                }
                .generate_split(0.2)
            });
        let train_onehot = one_hot(&train.labels, 2);
        let pipe = text_classification_pipeline(&Self::config(), &train.docs, &train_onehot);
        Prepared {
            resources,
            train: train.docs,
            train_onehot,
            test: test.docs,
            test_labels: test.labels.collect(),
            tenants: vec![pipe],
            opts: PipelineOptions::full(),
        }
    }

    fn probes(prep: &Prepared<String>, fit: &Fit<String>, spans: &Spans, out: &mut Layers) {
        let cfg = Self::config();
        let ctx = prep.ctx();
        let featurize = || {
            let docs = Trim.apply_collection(&prep.train, &ctx);
            let docs = LowerCase.apply_collection(&docs, &ctx);
            let tokens = Tokenizer.apply_collection(&docs, &ctx);
            let grams = NGrams::new(1, cfg.max_ngram).apply_collection(&tokens, &ctx);
            let model = CommonSparseFeatures::new(cfg.max_features).fit(&grams, &ctx);
            model.apply_collection(&grams, &ctx)
        };
        let featurize_s = median_secs(spans, "keystone-ops::text::featurize", 3, featurize);
        let features = featurize();
        let n = prep.train.count();
        out.insert("ops.featurize_s", featurize_s);
        out.insert("ops.featurize_us_per_record", featurize_s * 1e6 / n as f64);
        let chosen = choice(&fit.report, "LinearSolver");
        let solve = solve_probe(
            &cfg.solver,
            &chosen,
            &features,
            &prep.train_onehot,
            &ctx,
            spans,
        );
        out.insert("solvers.solve_s", solve);

        let rows = features.collect();
        let dim = rows.first().map_or(1, |r| r.dim());
        dense_kernels(n.min(2048), dim.min(128), 2, spans, out);
        let csr = CsrMatrix::from_rows(&rows);
        let x: Vec<f64> = (0..csr.cols()).map(|j| (j % 7) as f64 * 0.1).collect();
        let flops = 2.0 * csr.nnz() as f64;
        let s = median_secs(
            spans,
            "keystone-linalg::sparse::CsrMatrix::matvec",
            50,
            || csr.matvec(&x),
        );
        out.insert("linalg.spmv_gflops", flops / s / 1e9);
        fft_kernel(spans, out);
    }
}

/// `timit_sweep`: TIMIT-like dense vectors through the 4-λ stacking sweep,
/// fitted as one forest.
pub struct TimitSweep;

// 480 training and 240 held-out records: enough held-out records that
// accuracy moves by little between seeds.
const TIMIT_RECORDS: usize = 720;
const TIMIT_CLASSES: usize = 16;

impl TimitSweep {
    fn config() -> SweepConfig {
        SweepConfig {
            // The default bandwidth suits 8-dimensional inputs; at 64
            // dimensions it leaves the random features at chance.
            gamma: 0.1,
            ..SweepConfig::default()
        }
    }
}

impl Workload for TimitSweep {
    type In = Vec<f64>;
    const ACCURACY_FLOOR: f64 = 0.6;
    const WAVES_PER_CYCLE: usize = 200;

    fn setup(seed: u64, workers: usize, spans: &Spans) -> Prepared<Vec<f64>> {
        let resources = calibrated(workers, spans);
        let ((train, test), _) =
            spans.time("keystone-workloads::TimitLike::generate_split", || {
                TimitLike {
                    n: TIMIT_RECORDS,
                    dim: 64,
                    classes: TIMIT_CLASSES,
                    seed,
                    partitions: workers,
                    ..TimitLike::default()
                }
                .generate_split(1.0 / 3.0)
            });
        let train_onehot = one_hot(&train.labels, TIMIT_CLASSES);
        let tenants = sweep_pipelines(&Self::config(), &train.data, &train_onehot);
        Prepared {
            resources,
            train: train.data,
            train_onehot,
            test: test.data,
            test_labels: test.labels.collect(),
            tenants,
            opts: PipelineOptions::full(),
        }
    }

    fn probes(prep: &Prepared<Vec<f64>>, fit: &Fit<Vec<f64>>, spans: &Spans, out: &mut Layers) {
        let cfg = Self::config();
        let ctx = prep.ctx();
        let featurize = || {
            let blocks: Vec<Vec<Vec<f64>>> = (0..cfg.blocks)
                .map(|b| {
                    RandomFeatures {
                        out_dim: cfg.block_dim,
                        gamma: cfg.gamma,
                        seed: cfg.seed.wrapping_add(b as u64),
                    }
                    .apply_collection(&prep.train, &ctx)
                    .collect()
                })
                .collect();
            let rows: Vec<Vec<f64>> = (0..blocks[0].len())
                .map(|i| blocks.iter().flat_map(|b| b[i].iter().copied()).collect())
                .collect();
            DistCollection::from_vec(rows, prep.train.num_partitions())
        };
        let featurize_s = median_secs(spans, "keystone-ops::stats::RandomFeatures", 3, featurize);
        let features = featurize();
        let n = prep.train.count();
        out.insert("ops.featurize_s", featurize_s);
        out.insert("ops.featurize_us_per_record", featurize_s * 1e6 / n as f64);
        // The trunk's base solve is the first solver the profiler resolves.
        let chosen = choice(&fit.report, "LinearSolver");
        let solve = solve_probe(
            &cfg.trunk_solver,
            &chosen,
            &features,
            &prep.train_onehot,
            &ctx,
            spans,
        );
        out.insert("solvers.solve_s", solve);
        dense_kernels(n, cfg.blocks * cfg.block_dim, TIMIT_CLASSES, spans, out);
        out.insert("linalg.spmv_gflops", 0.0);
        fft_kernel(spans, out);
    }
}

/// `cifar_conv`: CIFAR-like images through the convolutional pipeline.
pub struct CifarConv;

// 180 training and 120 held-out images.
const CIFAR_IMAGES: usize = 300;
const CIFAR_CLASSES: usize = 10;

impl CifarConv {
    fn config() -> CifarPipelineConfig {
        CifarPipelineConfig {
            filters: 8,
            ..CifarPipelineConfig::default()
        }
    }
}

impl Workload for CifarConv {
    type In = Image;
    const ACCURACY_FLOOR: f64 = 0.5;
    const WAVES_PER_CYCLE: usize = 120;

    fn setup(seed: u64, workers: usize, spans: &Spans) -> Prepared<Image> {
        let resources = calibrated(workers, spans);
        let ((train, test), _) = spans.time(
            "keystone-workloads::ImageDatasetSpec::generate_split",
            || {
                ImageDatasetSpec {
                    classes: CIFAR_CLASSES,
                    seed,
                    partitions: workers,
                    ..ImageDatasetSpec::cifar_like(CIFAR_IMAGES)
                }
                .generate_split(0.4)
            },
        );
        let train_onehot = one_hot(&train.labels, CIFAR_CLASSES);
        let pipe = cifar_pipeline(&Self::config(), &train.images, &train_onehot);
        Prepared {
            resources,
            train: train.images,
            train_onehot,
            test: test.images,
            test_labels: test.labels.collect(),
            tenants: vec![pipe],
            opts: PipelineOptions::full(),
        }
    }

    fn probes(prep: &Prepared<Image>, fit: &Fit<Image>, spans: &Spans, out: &mut Layers) {
        let cfg = Self::config();
        let ctx = prep.ctx();
        let bank = FilterBank::random(cfg.filters, cfg.filter_size, cfg.seed);
        let conv_choice = choice(&fit.report, "Convolver");
        let options = Convolver::new(bank, 3).options();
        let conv = options
            .iter()
            .find(|o| o.name == conv_choice)
            .expect("the chosen convolver is one of the options");
        let featurize = || {
            let maps = conv.op.apply_collection(&prep.train, &ctx);
            let maps = SymmetricRectifier { alpha: 0.25 }.apply_collection(&maps, &ctx);
            let pooled = Pooler::new(cfg.pool).apply_collection(&maps, &ctx);
            ImageVectorizer.apply_collection(&pooled, &ctx)
        };
        let featurize_s = median_secs(spans, "keystone-ops::image::featurize", 3, featurize);
        let features = featurize();
        let n = prep.train.count();
        out.insert("ops.featurize_s", featurize_s);
        out.insert("ops.featurize_us_per_record", featurize_s * 1e6 / n as f64);
        let chosen = choice(&fit.report, "LinearSolver");
        let solve = solve_probe(
            &cfg.solver,
            &chosen,
            &features,
            &prep.train_onehot,
            &ctx,
            spans,
        );
        out.insert("solvers.solve_s", solve);
        let d = features.collect().first().map_or(1, Vec::len);
        dense_kernels(n, d, CIFAR_CLASSES, spans, out);
        out.insert("linalg.spmv_gflops", 0.0);
        fft_kernel(spans, out);
    }
}
