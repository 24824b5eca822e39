//! Multi-tenant forest optimization (ROADMAP item 5): Algorithm 1 and the
//! whole-pipeline passes generalized from one DAG to a *forest* of tenant
//! pipelines fitted concurrently — the hyperparameter-sweep / per-segment
//! regime where SystemML-style plan costing pays for itself across many
//! near-identical plans rather than a single one.
//!
//! Three cooperating layers:
//!
//! 1. **Cross-pipeline CSE** ([`merge_forest`]): tenant graph snapshots are
//!    concatenated (input ids offset) and run through the existing
//!    [`eliminate_common_subexpressions`] pass. Because CSE signatures are
//!    content-addressed, structurally-identical prefixes across tenants — the
//!    shared featurization trunk of a sweep — collapse into one shared plan
//!    region. Every node the merge leaves shared by ≥ 2 tenants is reported
//!    as a deterministic [`TraceEvent::CrossCseMerge`].
//! 2. **Global greedy materialization** ([`forest_cache_set`]): one shared
//!    cache budget allocated by a forest-wide `MatProblem` whose sink set is
//!    the union of every tenant's fit roots, so reuse counts sum demand
//!    *across* tenants. The chosen set is the better of the forest-wide
//!    greedy solution and the budget-trimmed union of per-tenant greedy
//!    solutions, so it dominates or equals the per-tenant answer on
//!    estimated cost by construction.
//! 3. **Fair wave scheduling** ([`WaveScheduler`]): a deterministic
//!    deficit-round-robin scheduler interleaves estimator waves from the
//!    concurrent fits on the shared executor. Each wave runs under a
//!    `tenant{i}` stage tag, so [`SimClock`](keystone_dataflow::simclock::
//!    SimClock) charges land in per-tenant lanes (rendered as separate
//!    tracks by the Chrome-trace exporter) and per-tenant rows appear in
//!    `PipelineReport`/`RunArtifact`.
//!
//! **Invariant**: each tenant's fitted pipeline is bit-identical to the
//! pipeline a solo [`Pipeline::fit`] would produce — forest optimization may
//! only change *when* and *what is shared*, never *what is computed*.
//!
//! **Choosing the plan**: [`fit_forest`] decides shared vs. independent
//! fits *before* executing anything, as §4 chooses a physical plan from
//! sampled profiles and a cost model. It merges the forest and profiles the
//! merged graph once, then prices both strategies on the one forest
//! `MatProblem`: the shared plan at its forest cache set, each tenant alone
//! at the greedy set of its own restriction ([`tenant_subproblem`]). The
//! cheaper plan is fitted once. With truthfully declared operators the
//! prediction is the executor's charge schedule, so the forest's simulated
//! cost never exceeds the sum of solo costs; the differential oracle checks
//! that against solo fits measured outside the optimizer. Operators that
//! charge the clock themselves are priced by extrapolating what they charged
//! on the profiling samples.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::Instant;

use keystone_dataflow::cache::{CacheManager, CachePolicy};
use keystone_dataflow::simclock::SimClock;

use crate::context::ExecContext;
use crate::executor::Executor;
use crate::graph::{Graph, NodeId, NodeKind};
use crate::optimizer::{
    build_mat_problem, eliminate_common_subexpressions, fit_roots, labels_of, CachingStrategy,
    MatProblem, OptLevel, PipelineOptions,
};
use crate::pipeline::{ExecutablePlan, FitReport, FittedPipeline, Pipeline};
use crate::profiler::{profile_and_select, ProfileOptions};
use crate::record::Record;
use crate::report::TenantRow;
use crate::trace::{TraceEvent, Tracer};

/// One shared node the forest canonicalizer found: a plan region used by
/// two or more tenants, merged into a single node of the forest graph.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossMerge {
    /// Node id in the merged forest graph.
    pub node: NodeId,
    /// Node label.
    pub label: String,
    /// How many tenants' outputs depend on this node.
    pub tenants: usize,
    /// Content-addressed structural signature (kind tag + label + input
    /// signatures, recursively) — stable under tenant permutation *and*
    /// across runs, unlike the node id.
    pub signature: u64,
}

/// Result of [`merge_forest`]: the canonical forest graph plus per-tenant
/// output ids into it.
#[derive(Clone)]
pub struct ForestMerge {
    /// The merged forest graph.
    pub graph: Graph,
    /// Each tenant's output node in the merged graph, input order.
    pub outputs: Vec<NodeId>,
    /// Nodes removed by cross-pipeline CSE.
    pub eliminated: usize,
    /// Computation nodes shared by ≥ 2 tenants, ascending node id.
    pub merges: Vec<CrossMerge>,
}

/// Forest-level canonicalizer: concatenates tenant graph snapshots
/// (offsetting node ids) and runs single-pipeline CSE over the result, so
/// structurally-identical prefixes across tenants merge into one shared
/// region. With one tenant this is exactly `eliminate_common_subexpressions`
/// — the concatenation of a single graph is the graph itself — which is the
/// N=1 degeneration law the property tests pin down.
///
/// `merges` reports every Transform/Estimate/ModelApply node that ended up
/// on ≥ 2 tenants' ancestry paths, in ascending node-id order. Shared
/// RuntimeInput/DataSource nodes are excluded: sources are "shared" by
/// construction, not by optimization, and reporting them would make every
/// forest look like it merged something.
/// Content-recursive structural signatures that are stable across *runs*:
/// FNV over the node's kind tag, its label bytes, and its inputs'
/// signatures. Unlike [`Graph::signatures`] — whose per-node identity is the
/// operator `Arc` address, perfect for intra-process CSE but different on
/// every invocation — these can be embedded in deterministic artifacts and
/// compared across processes.
fn stable_signatures(graph: &Graph) -> Vec<u64> {
    let mut sig = vec![0u64; graph.nodes.len()];
    for (id, node) in graph.nodes.iter().enumerate() {
        let mut h = 0xcbf29ce484222325u64; // FNV offset basis
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x100000001b3);
        };
        mix(node.kind.tag() as u64);
        for b in node.label.bytes() {
            mix(b as u64);
        }
        for &input in &node.inputs {
            mix(sig[input]);
        }
        sig[id] = h;
    }
    sig
}

pub fn merge_forest(graphs: &[(Graph, NodeId)]) -> ForestMerge {
    assert!(!graphs.is_empty(), "merge_forest needs at least one tenant");
    let mut concat = Graph::new();
    let mut outputs: Vec<NodeId> = Vec::new();
    for (g, out) in graphs {
        let offset = concat.len();
        for n in &g.nodes {
            let inputs: Vec<NodeId> = n.inputs.iter().map(|&i| i + offset).collect();
            concat.add(n.kind.clone(), inputs, n.label.clone());
        }
        assert!(*out < g.len(), "tenant output must be in its graph");
        outputs.push(out + offset);
    }
    let r = eliminate_common_subexpressions(&concat);
    let outputs: Vec<NodeId> = outputs.iter().map(|o| r.remap[o]).collect();

    let ancestries: Vec<HashSet<NodeId>> =
        outputs.iter().map(|&o| r.graph.ancestors(&[o])).collect();
    let sigs = stable_signatures(&r.graph);
    let mut merges: Vec<CrossMerge> = Vec::new();
    for (id, node) in r.graph.nodes.iter().enumerate() {
        let tenants = ancestries.iter().filter(|a| a.contains(&id)).count();
        let computation = matches!(
            node.kind,
            NodeKind::Transform(_) | NodeKind::Estimate(_) | NodeKind::ModelApply
        );
        if tenants >= 2 && computation {
            merges.push(CrossMerge {
                node: id,
                label: node.label.clone(),
                tenants,
                signature: sigs[id],
            });
        }
    }
    ForestMerge {
        graph: r.graph,
        outputs,
        eliminated: r.eliminated,
        merges,
    }
}

/// Restricts a forest `MatProblem` to one tenant: keeps the DAG shape but
/// zeroes execution time outside the ancestor closure of the tenant's sinks
/// and requests only those sinks — exactly what `build_mat_problem` would
/// have produced had the tenant been optimized alone on the merged graph.
pub fn tenant_subproblem(problem: &MatProblem, sinks: &[usize]) -> MatProblem {
    let mut relevant: HashSet<usize> = HashSet::new();
    let mut stack: Vec<usize> = sinks.to_vec();
    while let Some(v) = stack.pop() {
        if relevant.insert(v) {
            stack.extend(problem.nodes[v].inputs.iter().copied());
        }
    }
    let nodes = problem
        .nodes
        .iter()
        .enumerate()
        .map(|(i, n)| {
            let mut n = n.clone();
            if !relevant.contains(&i) {
                n.t_secs = 0.0;
            }
            n
        })
        .collect();
    MatProblem {
        nodes,
        sinks: sinks.to_vec(),
    }
}

/// Shrinks a cache set until it fits the budget, each step dropping the
/// member whose removal costs the least estimated runtime (ties broken by
/// smallest node id, so the result is deterministic).
pub fn trim_to_budget(
    problem: &MatProblem,
    mut set: HashSet<usize>,
    budget: u64,
) -> HashSet<usize> {
    while problem.set_bytes(&set) > budget {
        let mut members: Vec<usize> = set
            .iter()
            .copied()
            .filter(|&v| !problem.nodes[v].always_cached)
            .collect();
        members.sort_unstable();
        let mut best: Option<(f64, usize)> = None;
        for &v in &members {
            set.remove(&v);
            let runtime = problem.est_runtime(&set);
            set.insert(v);
            if best.is_none_or(|(r, _)| runtime < r) {
                best = Some((runtime, v));
            }
        }
        match best {
            Some((_, v)) => {
                set.remove(&v);
            }
            // Only always-cached members remain; they are budget-free.
            None => break,
        }
    }
    set
}

/// Global greedy materialization over one shared budget. Candidates are the
/// forest-wide greedy Algorithm 1 solution (reuse counts summed across
/// tenants) and the budget-trimmed union of per-tenant greedy solutions; the
/// one with the lower forest-estimated runtime wins, ties going to the
/// forest-wide set. The result therefore dominates or equals the per-tenant
/// answer on estimated total cost *by construction* — the property the ISSUE
/// asks the property tests to hold.
pub fn forest_cache_set(
    problem: &MatProblem,
    tenant_sinks: &[Vec<usize>],
    budget: u64,
) -> HashSet<usize> {
    let forest = problem.greedy_cache_set(budget);
    let mut union: HashSet<usize> = HashSet::new();
    for sinks in tenant_sinks {
        let sub = tenant_subproblem(problem, sinks);
        union.extend(sub.greedy_cache_set(budget));
    }
    let trimmed = trim_to_budget(problem, union, budget);
    if problem.est_runtime(&forest) <= problem.est_runtime(&trimmed) {
        forest
    } else {
        trimmed
    }
}

/// One schedulable unit of fit work: an estimator wave belonging to a
/// tenant, with the profiler's cost estimate attached for deficit
/// accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct Wave {
    /// Owning tenant index.
    pub tenant: usize,
    /// Estimator node to evaluate.
    pub node: NodeId,
    /// Estimated seconds for the wave (0.0 when unprofiled).
    pub est_cost: f64,
}

/// Deterministic deficit-round-robin over per-tenant wave queues.
///
/// The quantum is fixed at the cost of the most expensive wave in the forest
/// (clamped to ≥ 1.0 so zero-cost forests still progress), so every visit of
/// a non-empty lane can afford its front wave and dispatches exactly one.
/// That makes the fairness laws sharp, not asymptotic:
///
/// * **work-conserving** — `schedule` drains every queue; the output is a
///   permutation of the input waves;
/// * **starvation-free** — between two consecutive waves of any tenant with
///   queued work, at most N−1 waves of other tenants run;
/// * **deterministic** — the schedule is a pure function of the input;
/// * **N=1 degeneration** — with one tenant the schedule is the input order,
///   i.e. today's single-pipeline wave order.
#[derive(Debug)]
pub struct WaveScheduler {
    queues: Vec<VecDeque<Wave>>,
    deficits: Vec<f64>,
    quantum: f64,
    cursor: usize,
}

impl WaveScheduler {
    /// Builds a scheduler over per-tenant wave lists (tenant order = lane
    /// order; each list already topological for its tenant).
    pub fn new(per_tenant: Vec<Vec<Wave>>) -> Self {
        let quantum = per_tenant
            .iter()
            .flatten()
            .map(|w| w.est_cost)
            .fold(0.0f64, f64::max)
            .max(1.0);
        let deficits = vec![0.0; per_tenant.len()];
        WaveScheduler {
            queues: per_tenant.into_iter().map(VecDeque::from).collect(),
            deficits,
            quantum,
            cursor: 0,
        }
    }

    /// Whether every lane has drained.
    pub fn is_empty(&self) -> bool {
        self.queues.iter().all(|q| q.is_empty())
    }

    /// Dispatches the next wave, or `None` when all lanes are drained.
    pub fn next_wave(&mut self) -> Option<Wave> {
        if self.is_empty() {
            return None;
        }
        loop {
            let t = self.cursor;
            self.cursor = (self.cursor + 1) % self.queues.len();
            if self.queues[t].is_empty() {
                // An idle lane forfeits its accumulated credit (classic DRR).
                self.deficits[t] = 0.0;
                continue;
            }
            self.deficits[t] += self.quantum;
            let cost = self.queues[t].front().expect("non-empty lane").est_cost;
            if cost <= self.deficits[t] {
                let w = self.queues[t].pop_front().expect("non-empty lane");
                // Cap the carried credit so float growth stays bounded; with
                // quantum ≥ every wave cost the cap never changes behavior.
                self.deficits[t] = (self.deficits[t] - w.est_cost).min(self.quantum);
                if self.queues[t].is_empty() {
                    self.deficits[t] = 0.0;
                }
                return Some(w);
            }
        }
    }

    /// Runs the scheduler to completion, returning the full dispatch order.
    pub fn schedule(mut self) -> Vec<Wave> {
        let mut out = Vec::new();
        while let Some(w) = self.next_wave() {
            out.push(w);
        }
        out
    }
}

/// What the forest fit decided, predicted and measured.
#[derive(Debug)]
pub struct ForestReport {
    /// Whether the shared (merged-forest) plan was executed. `false` means
    /// the fit fell back to sequential solo fits — either sharing was not
    /// predicted cheaper, or the opt level was [`OptLevel::None`].
    pub shared: bool,
    /// Per-tenant solo-fit cost, simulated seconds. On the shared path no
    /// tenant ran alone, so this is *predicted*: the tenant's restriction of
    /// the forest `MatProblem` at its own greedy cache set, priced at what
    /// the executor charges (profiled seconds spread over the workers, plus
    /// the charges operators such as solvers make themselves, extrapolated
    /// from the profiling samples), plus what profiling the tenant's nodes
    /// charged. On the fallback path the solo fits did run, and this is
    /// their measured cost.
    pub solo_secs: Vec<f64>,
    /// Predicted simulated cost of the shared plan, seconds: what its one
    /// profiling pass charged plus the forest `MatProblem` at the forest
    /// cache set, priced like `solo_secs`. `None` when nothing was predicted
    /// (one tenant, or [`OptLevel::None`]).
    pub est_shared_secs: Option<f64>,
    /// Measured total simulated cost of the forest fit as executed, seconds
    /// (equal to `solo_secs.iter().sum()` on the fallback path).
    pub forest_secs: f64,
    /// Full-scale fits executed: 1 on the shared path, one per tenant on
    /// the fallback path.
    pub fits_executed: usize,
    /// Shared computation nodes found by cross-pipeline CSE (empty when the
    /// fallback path ran).
    pub cross_merges: Vec<CrossMerge>,
    /// Per-tenant attribution rows (also exported on the fit report's
    /// `observability.tenants` and, from there, `RunArtifact`).
    pub tenants: Vec<TenantRow>,
    /// The merged-plan fit report when the shared path ran.
    pub fit: Option<FitReport>,
    /// Per-tenant fit reports when the fallback path ran.
    pub solo_reports: Vec<FitReport>,
}

impl ForestReport {
    /// Sum of the per-tenant solo costs, seconds.
    pub fn total_solo_secs(&self) -> f64 {
        self.solo_secs.iter().sum()
    }

    /// Simulated-cost speedup of the executed forest plan over N
    /// independent fits: predicted solo cost over measured forest cost on
    /// the shared path, 1.0 on the fallback path.
    pub fn speedup(&self) -> f64 {
        if self.forest_secs > 0.0 {
            self.total_solo_secs() / self.forest_secs
        } else {
            1.0
        }
    }
}

/// Optimizes and fits N tenant pipelines as one forest.
///
/// Strategy selection is *predict-then-fit*: the forest is merged and its
/// merged graph profiled once, both strategies are priced on one forest
/// `MatProblem`, and only the cheaper one executes — one full-scale fit on
/// the shared path. The shared plan must be strictly cheaper; ties fall
/// back to fitting each tenant alone, exactly as `tenants[i].fit(ctx, opts)`
/// in tenant order. The profiling pass charges a side ledger that `ctx`
/// adopts only on the shared path, so the fallback leaves `ctx` with
/// exactly the sequential fits' charges and events.
///
/// Each returned [`FittedPipeline`] is bit-identical (same models, same
/// predictions) to the one `tenants[i].fit(ctx, opts)` would produce alone;
/// the differential oracle's forest axis (`keystone-testkit`) holds this
/// across opt level × budget × fusion × columnar cells.
///
/// With one tenant this delegates wholly to [`Pipeline::fit`] — same trace
/// events, same `SimClock` ledger, bit-equal plan.
pub fn fit_forest<A: Record, B: Record>(
    tenants: &[Pipeline<A, B>],
    ctx: &ExecContext,
    opts: &PipelineOptions,
) -> (Vec<FittedPipeline<A, B>>, ForestReport) {
    assert!(!tenants.is_empty(), "fit_forest needs at least one tenant");
    // One tenant has nothing to share, and OptLevel::None runs no CSE at
    // all (per the options contract): go straight to solo fits.
    if tenants.len() == 1 || opts.level == OptLevel::None {
        return fit_sequential(tenants, ctx, opts);
    }

    // 1. Cross-pipeline CSE over the concatenated snapshots.
    let t0 = Instant::now();
    let graphs: Vec<(Graph, NodeId)> = tenants
        .iter()
        .map(|t| (t.graph_snapshot(), t.output_node()))
        .collect();
    let ForestMerge {
        mut graph,
        outputs,
        eliminated,
        merges,
    } = merge_forest(&graphs);
    let tenant_roots: Vec<Vec<NodeId>> = outputs.iter().map(|&o| fit_roots(&graph, o)).collect();
    let mut all_roots: Vec<NodeId> = tenant_roots.iter().flatten().copied().collect();
    all_roots.sort_unstable();
    all_roots.dedup();

    // 2. One profiling pass over the union of fit-relevant subgraphs, on a
    // side ledger that `ctx` adopts only if the shared plan runs.
    let probe = ExecContext {
        sim: SimClock::new(),
        tracer: Tracer::new(),
        ..ctx.clone()
    };
    let popts = ProfileOptions {
        select_operators: opts.level == OptLevel::Full,
        ..opts.profile.clone()
    };
    let mut profile = profile_and_select(&mut graph, &all_roots, &probe, &popts);

    // 3. Price both strategies on one forest `MatProblem`. Greedy caching
    // prices each plan at the set it would pin; rule-based caching pins
    // nothing. LRU residency depends on the access order, which the problem
    // does not model, so LRU prices the shared plan at its upper bound
    // (nothing cached) and each solo fit at its lower bound (everything
    // cached): sharing then wins whatever LRU keeps.
    let budget = opts
        .mem_budget
        .unwrap_or_else(|| ctx.resources.total_cache_bytes());
    let problem = build_mat_problem(&graph, &profile, &all_roots);
    let cache_set = match opts.caching {
        CachingStrategy::Greedy => forest_cache_set(&problem, &tenant_roots, budget),
        _ => HashSet::new(),
    };
    // Sets are chosen on `problem`, as each path's own optimizer would,
    // but priced at what the executor charges: profiled seconds spread over
    // the workers, plus whatever a node charges the clock itself — which
    // replaces the profiled estimate for an estimator. Each plan also pays
    // what its own profiling pass charged.
    let workers = ctx.resources.workers.max(1) as f64;
    let mut priced = problem.clone();
    for (&id, charge) in &profile.self_charged {
        let own = charge.per_exec_secs * workers;
        let t = &mut priced.nodes[id].t_secs;
        *t = match graph.nodes[id].kind {
            NodeKind::Estimate(_) => own,
            _ => *t + own,
        };
    }
    let est_shared_secs = probe.sim.total_seconds() + priced.est_runtime(&cache_set) / workers;
    let solo_secs: Vec<f64> = tenant_roots
        .iter()
        .map(|roots| {
            let set = match opts.caching {
                CachingStrategy::Greedy => {
                    tenant_subproblem(&problem, roots).greedy_cache_set(budget)
                }
                CachingStrategy::RuleBased => HashSet::new(),
                CachingStrategy::Lru { .. } => (0..problem.nodes.len()).collect(),
            };
            let profiling: f64 = graph
                .topo_ancestors(roots)
                .iter()
                .filter_map(|v| profile.self_charged.get(v))
                .map(|c| c.profiling_secs)
                .sum();
            profiling + tenant_subproblem(&priced, roots).est_runtime(&set) / workers
        })
        .collect();

    // Relative margin: with nothing to share the two sums agree up to
    // summation order, and a tie must fall back.
    let total_solo: f64 = solo_secs.iter().sum();
    if est_shared_secs >= total_solo * (1.0 - 1e-9) {
        let (fitted, mut report) = fit_sequential(tenants, ctx, opts);
        report.est_shared_secs = Some(est_shared_secs);
        return (fitted, report);
    }

    // 4. The shared plan wins: the rest mirrors `Pipeline::fit` stage for
    // stage, generalized to multiple outputs. Merge events first, in
    // ascending node-id order by construction of `merges`, then the
    // profiling pass's charges and events.
    let mark = ctx.sim.mark();
    for m in &merges {
        ctx.tracer.record(TraceEvent::CrossCseMerge {
            node: m.node,
            label: m.label.clone(),
            tenants: m.tenants,
            signature: m.signature,
        });
    }
    // Per-tenant shared-node counts, taken before fusion rewrites labels.
    let shared_counts: Vec<usize> = outputs
        .iter()
        .map(|&o| {
            let anc = graph.ancestors(&[o]);
            merges.iter().filter(|m| anc.contains(&m.node)).count()
        })
        .collect();
    ctx.sim.append(&probe.sim);
    ctx.tracer.append(&probe.tracer);

    // 5. Global materialization under the one shared budget.
    let observer = Arc::new(crate::trace::TraceCacheObserver(ctx.tracer.clone()));
    let cache = match opts.caching {
        CachingStrategy::RuleBased => {
            CacheManager::new(0, CachePolicy::Pinned(HashSet::new())).with_observer(observer)
        }
        CachingStrategy::Lru { admission_fraction } => {
            CacheManager::new(budget, CachePolicy::Lru { admission_fraction })
                .with_observer(observer)
        }
        CachingStrategy::Greedy => {
            let mut picks: Vec<usize> = cache_set.iter().copied().collect();
            picks.sort_unstable();
            for &node in &picks {
                let mut without = cache_set.clone();
                without.remove(&node);
                ctx.tracer.record(TraceEvent::MaterializePick {
                    node,
                    label: graph.nodes[node].label.clone(),
                    est_saving_secs: problem.est_runtime(&without)
                        - problem.est_runtime(&cache_set),
                    size_bytes: problem.nodes[node].size_bytes,
                });
            }
            let keys: HashSet<u64> = cache_set.iter().map(|&v| v as u64).collect();
            CacheManager::new(budget, CachePolicy::Pinned(keys)).with_observer(observer)
        }
    };
    let choices: Vec<(String, String)> = profile
        .choices
        .iter()
        .map(|(id, name)| (graph.nodes[*id].label.clone(), name.clone()))
        .collect();

    // 5b. Whole-stage fusion with every tenant output as a barrier.
    let mut fused: Vec<(NodeId, Vec<String>)> = Vec::new();
    let mut fused_nodes = 0;
    let mut columnar_chains = 0;
    if opts.fusion_enabled() {
        let result = crate::optimizer::fusion::fuse_chains_multi(
            &graph,
            &outputs,
            &cache_set,
            opts.columnar_enabled(),
        );
        graph = result.graph;
        crate::optimizer::merge_profiles(&mut profile, &result.chains);
        fused_nodes = result.absorbed;
        columnar_chains = result.columnar_chains;
        for chain in &result.chains {
            ctx.tracer.record(TraceEvent::FusionMerge {
                node: chain.tail,
                label: graph.nodes[chain.tail].label.clone(),
                members: chain.labels.clone(),
            });
            fused.push((chain.tail, chain.labels.clone()));
        }
    }
    let optimize_secs = t0.elapsed().as_secs_f64();

    // 6. Fair wave scheduling: every tenant's estimator waves interleave on
    // one executor. A shared root appears in several tenants' wave lists;
    // the first wave computes it (charged to that tenant's lane) and later
    // waves hit the model memo — that asymmetry is the saving being
    // reported, not an accounting bug. The adaptive controller is not
    // threaded through the shared path: mid-fit cache revisions are a
    // per-pipeline feature and would break the bit-identity invariant.
    let profiles = Arc::new(profile.nodes.clone());
    let executor =
        Executor::new(&graph, ctx.clone(), Arc::new(cache)).with_profiles(profiles.clone());
    let waves: Vec<Vec<Wave>> = tenant_roots
        .iter()
        .enumerate()
        .map(|(i, roots)| {
            roots
                .iter()
                .map(|&node| Wave {
                    tenant: i,
                    node,
                    est_cost: profiles
                        .get(&node)
                        .map(|p| p.est_secs(p.records_hint))
                        .unwrap_or(0.0),
                })
                .collect()
        })
        .collect();
    for wave in WaveScheduler::new(waves).schedule() {
        // The clock's ambient prefix scopes every charge the wave makes —
        // the executor's own (`fit:...`) and the ones operators issue
        // themselves (a solver's `solve:lbfgs`) — into the tenant's lane.
        ctx.sim
            .set_stage_prefix(Some(format!("tenant{}", wave.tenant)));
        let _ = executor.eval(wave.node);
    }
    ctx.sim.set_stage_prefix(None);
    let models = executor.models();

    // 7. Per-tenant attribution rows from the SimClock lanes the stage tags
    // produced, next to each tenant's predicted solo cost.
    let lanes: HashMap<String, f64> = ctx.sim.by_stage().into_iter().collect();
    let rows: Vec<TenantRow> = (0..tenants.len())
        .map(|i| TenantRow {
            tenant: i,
            output: outputs[i],
            fit_roots: tenant_roots[i].clone(),
            shared_nodes: shared_counts[i],
            sim_secs: lanes.get(&format!("tenant{i}")).copied().unwrap_or(0.0),
            solo_secs: solo_secs[i],
        })
        .collect();

    let mut observability = crate::report::PipelineReport::build_with_metrics(
        &graph,
        &profile,
        &ctx.tracer,
        Some(&ctx.metrics),
    );
    observability.tenants = rows.clone();
    let fit_report = FitReport {
        optimize_secs,
        eliminated_nodes: eliminated,
        choices,
        fused,
        fused_nodes,
        columnar_chains,
        cache_set_labels: labels_of(&graph, &cache_set),
        cache_set: cache_set.clone(),
        adaptation: crate::optimizer::AdaptationReport::default(),
        dot: graph.to_dot(&cache_set),
        profile,
        observability,
    };

    // 8. Every tenant gets a typed plan over the one shared graph, rooted at
    // its own output. Models and profiles are shared Arcs — sharing the
    // artifact, not just the fit.
    let graph_arc = Arc::new(graph);
    let fitted: Vec<FittedPipeline<A, B>> = outputs
        .iter()
        .map(|&out| {
            FittedPipeline::from_plan(Arc::new(ExecutablePlan::new(
                graph_arc.clone(),
                out,
                models.clone(),
                profiles.clone(),
            )))
        })
        .collect();
    let report = ForestReport {
        shared: true,
        solo_secs,
        est_shared_secs: Some(est_shared_secs),
        forest_secs: ctx.sim.seconds_since(mark),
        fits_executed: 1,
        cross_merges: merges,
        tenants: rows,
        fit: Some(fit_report),
        solo_reports: Vec::new(),
    };
    (fitted, report)
}

/// Fits every tenant alone on `ctx`, in tenant order, reporting each fit's
/// measured cost: the fallback path, and the whole fit for one tenant or at
/// [`OptLevel::None`].
fn fit_sequential<A: Record, B: Record>(
    tenants: &[Pipeline<A, B>],
    ctx: &ExecContext,
    opts: &PipelineOptions,
) -> (Vec<FittedPipeline<A, B>>, ForestReport) {
    let mut fitted = Vec::new();
    let mut reports = Vec::new();
    let mut rows = Vec::new();
    let mut measured = Vec::new();
    for (i, t) in tenants.iter().enumerate() {
        let mark = ctx.sim.mark();
        let (f, r) = t.fit(ctx, opts);
        let secs = ctx.sim.seconds_since(mark);
        let output = f.plan().output_node();
        rows.push(TenantRow {
            tenant: i,
            output,
            fit_roots: fit_roots(f.plan().graph(), output),
            shared_nodes: 0,
            sim_secs: secs,
            solo_secs: secs,
        });
        measured.push(secs);
        fitted.push(f);
        reports.push(r);
    }
    (
        fitted,
        ForestReport {
            shared: false,
            forest_secs: measured.iter().sum(),
            solo_secs: measured,
            est_shared_secs: None,
            fits_executed: tenants.len(),
            cross_merges: Vec::new(),
            tenants: rows,
            fit: None,
            solo_reports: reports,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wave(tenant: usize, node: usize, cost: f64) -> Wave {
        Wave {
            tenant,
            node,
            est_cost: cost,
        }
    }

    #[test]
    fn scheduler_single_tenant_preserves_input_order() {
        let waves = vec![vec![wave(0, 3, 5.0), wave(0, 1, 0.5), wave(0, 7, 2.0)]];
        let order = WaveScheduler::new(waves.clone()).schedule();
        assert_eq!(order, waves[0]);
    }

    #[test]
    fn scheduler_round_robins_equal_lanes() {
        let waves = vec![
            vec![wave(0, 0, 1.0), wave(0, 1, 1.0)],
            vec![wave(1, 2, 1.0), wave(1, 3, 1.0)],
        ];
        let order = WaveScheduler::new(waves).schedule();
        let tenants: Vec<usize> = order.iter().map(|w| w.tenant).collect();
        assert_eq!(tenants, vec![0, 1, 0, 1]);
    }

    #[test]
    fn scheduler_drains_unequal_lanes() {
        let waves = vec![
            vec![wave(0, 0, 10.0)],
            vec![wave(1, 1, 0.1), wave(1, 2, 0.1), wave(1, 3, 0.1)],
        ];
        let order = WaveScheduler::new(waves).schedule();
        assert_eq!(order.len(), 4);
        // Work-conserving: all four waves dispatched exactly once.
        let mut nodes: Vec<usize> = order.iter().map(|w| w.node).collect();
        nodes.sort_unstable();
        assert_eq!(nodes, vec![0, 1, 2, 3]);
    }

    #[test]
    fn trim_to_budget_is_deterministic_and_fits() {
        let problem = MatProblem {
            nodes: vec![
                crate::optimizer::MatNode {
                    t_secs: 1.0,
                    size_bytes: 8,
                    weight: 1,
                    always_cached: true,
                    inputs: vec![],
                    label: "src".into(),
                },
                crate::optimizer::MatNode {
                    t_secs: 5.0,
                    size_bytes: 100,
                    weight: 1,
                    always_cached: false,
                    inputs: vec![0],
                    label: "a".into(),
                },
                crate::optimizer::MatNode {
                    t_secs: 2.0,
                    size_bytes: 100,
                    weight: 1,
                    always_cached: false,
                    inputs: vec![1],
                    label: "b".into(),
                },
            ],
            sinks: vec![2, 2],
        };
        let all: HashSet<usize> = [1, 2].into_iter().collect();
        let trimmed = trim_to_budget(&problem, all, 100);
        assert!(problem.set_bytes(&trimmed) <= 100);
        assert_eq!(trimmed.len(), 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::operator::{
        AnyData, ErasedEstimator, ErasedTransformer, Estimator, Transformer, TypedEstimator,
        TypedTransformer,
    };
    use keystone_dataflow::collection::DistCollection;
    use proptest::prelude::*;

    struct Id;
    impl Transformer<f64, f64> for Id {
        fn apply(&self, x: &f64) -> f64 {
            *x
        }
    }

    struct MeanEst;
    impl Estimator<f64, f64> for MeanEst {
        fn fit(
            &self,
            _data: &DistCollection<f64>,
            _ctx: &ExecContext,
        ) -> Box<dyn Transformer<f64, f64>> {
            Box::new(Id)
        }
    }

    /// Shared building blocks for a forest: operator `Arc`s and the data
    /// source `AnyData` are created once and cloned into every tenant graph,
    /// because CSE structural identity is `Arc`/pointer identity — exactly
    /// the sharing a real sweep's prefix cloning produces.
    struct ForestKit {
        src: AnyData,
        ops: Vec<Arc<dyn ErasedTransformer>>,
        ests: Vec<Arc<dyn ErasedEstimator>>,
    }

    impl ForestKit {
        fn new() -> Self {
            ForestKit {
                src: AnyData::wrap(DistCollection::from_vec(vec![1.0f64, 2.0], 1)),
                ops: (0..4)
                    .map(|_| Arc::new(TypedTransformer::new(Id)) as _)
                    .collect(),
                ests: (0..4)
                    .map(|_| Arc::new(TypedEstimator::new(MeanEst)) as _)
                    .collect(),
            }
        }

        /// Builds one tenant graph: shared source, `trunk` transform stages,
        /// `head` transform stages, then one estimator (+ model apply) —
        /// `est_idx` selects which estimator `Arc`, so tenants can share or
        /// not share their estimator boundary.
        fn tenant(&self, trunk: &[usize], head: &[usize], est_idx: usize) -> (Graph, NodeId) {
            let mut g = Graph::new();
            let mut cur = g.add(NodeKind::DataSource(self.src.clone()), vec![], "src");
            for (i, &op) in trunk.iter().enumerate() {
                cur = g.add(
                    NodeKind::Transform(self.ops[op % self.ops.len()].clone()),
                    vec![cur],
                    format!("trunk{i}"),
                );
            }
            for (i, &op) in head.iter().enumerate() {
                cur = g.add(
                    NodeKind::Transform(self.ops[op % self.ops.len()].clone()),
                    vec![cur],
                    format!("head{i}"),
                );
            }
            let est = g.add(
                NodeKind::Estimate(self.ests[est_idx % self.ests.len()].clone()),
                vec![cur],
                "est",
            );
            let apply = g.add(NodeKind::ModelApply, vec![est, cur], "apply");
            (g, apply)
        }
    }

    /// The permutation-stable identity of a merge event set: node ids shift
    /// with tenant order, but (signature, label, tenants) must not.
    fn merge_keys(merges: &[CrossMerge]) -> Vec<(u64, String, usize)> {
        let mut keys: Vec<_> = merges
            .iter()
            .map(|m| (m.signature, m.label.clone(), m.tenants))
            .collect();
        keys.sort();
        keys
    }

    fn forest_strategy() -> impl Strategy<
        Value = (
            Vec<usize>,      // trunk op picks (shared by all tenants)
            Vec<Vec<usize>>, // per-tenant head op picks
        ),
    > {
        (
            proptest::collection::vec(0usize..4, 0..5),
            proptest::collection::vec(proptest::collection::vec(0usize..4, 0..4), 2..5),
        )
    }

    /// Records the size of every training set it is fitted on: full-scale
    /// fits see all of it, profiling fits only a sample.
    struct CountingFit(Arc<parking_lot::Mutex<Vec<usize>>>);
    impl Estimator<f64, f64> for CountingFit {
        fn fit(
            &self,
            data: &DistCollection<f64>,
            _ctx: &ExecContext,
        ) -> Box<dyn Transformer<f64, f64>> {
            self.0.lock().push(data.count());
            Box::new(Id)
        }
    }

    /// Options whose profiling samples (8 and 16 records) are smaller than
    /// the 64-record training set, with a deterministic profiling clock.
    fn sampled_opts() -> PipelineOptions {
        PipelineOptions {
            profile: ProfileOptions {
                sizes: vec![8, 16],
                deterministic_timing: true,
                ..ProfileOptions::default()
            },
            ..PipelineOptions::pipe_only()
        }
    }

    fn train64() -> DistCollection<f64> {
        DistCollection::from_vec((0..64).map(f64::from).collect(), 2)
    }

    #[test]
    fn shared_trunk_is_profiled_once_and_fitted_once() {
        let trunk_fits = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let train = train64();
        let trunk = Pipeline::<f64, f64>::input()
            .and_then(Id)
            .and_then_est(CountingFit(trunk_fits.clone()), &train);
        let tenants: Vec<Pipeline<f64, f64>> = (0..3)
            .map(|_| trunk.and_then(Id).and_then_est(MeanEst, &train))
            .collect();
        let ctx = ExecContext::default_cluster();
        let (fitted, report) = fit_forest(&tenants, &ctx, &sampled_opts());
        assert_eq!(fitted.len(), 3);
        assert!(
            report.shared,
            "the shared trunk estimator makes sharing cheaper"
        );
        assert_eq!(report.fits_executed, 1);
        // One profiling pass (one fit per sample size), one full-scale fit.
        assert_eq!(*trunk_fits.lock(), vec![8, 16, 64]);
        let est = report.est_shared_secs.expect("the shared path is priced");
        assert!(est < report.total_solo_secs());
        assert!(report.forest_secs <= report.total_solo_secs());
    }

    #[test]
    fn fallback_ledger_equals_sequential_solo_fits() {
        // Independent graphs: nothing to share, so the forest falls back.
        let train = train64();
        let tenants: Vec<Pipeline<f64, f64>> = (0..3)
            .map(|_| {
                Pipeline::<f64, f64>::input()
                    .and_then(Id)
                    .and_then_est(MeanEst, &train)
            })
            .collect();
        let opts = sampled_opts();
        let forest_ctx = ExecContext::default_cluster();
        let (_, report) = fit_forest(&tenants, &forest_ctx, &opts);
        assert!(!report.shared);
        assert_eq!(report.fits_executed, 3);
        assert!(report.est_shared_secs.is_some());

        let solo_ctx = ExecContext::default_cluster();
        for t in &tenants {
            let _ = t.fit(&solo_ctx, &opts);
        }
        let a = forest_ctx.sim.entries();
        let b = solo_ctx.sim.entries();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.stage, y.stage);
            assert_eq!(x.exec_secs.to_bits(), y.exec_secs.to_bits());
        }
        assert_eq!(forest_ctx.tracer.len(), solo_ctx.tracer.len());
        assert_eq!(report.forest_secs, report.total_solo_secs());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Merging the already-merged forest again (every tenant handing in
        /// the same canonical graph) collapses straight back to it: same
        /// node count, same merge-event identity.
        #[test]
        fn prop_merge_idempotent(spec in forest_strategy()) {
            let (trunk, heads) = spec;
            let kit = ForestKit::new();
            let tenants: Vec<(Graph, NodeId)> = heads
                .iter()
                .enumerate()
                .map(|(t, head)| kit.tenant(&trunk, head, t))
                .collect();
            let once = merge_forest(&tenants);
            let again: Vec<(Graph, NodeId)> = once
                .outputs
                .iter()
                .map(|&o| (once.graph.clone(), o))
                .collect();
            let twice = merge_forest(&again);
            prop_assert_eq!(twice.graph.len(), once.graph.len());
            prop_assert_eq!(
                twice.eliminated,
                (again.len() - 1) * once.graph.len()
            );
            prop_assert_eq!(merge_keys(&twice.merges), merge_keys(&once.merges));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Tenant order is presentation, not semantics: permuting the
        /// tenants yields the same merge-event identity set and the same
        /// amount of sharing.
        #[test]
        fn prop_merge_order_invariant(spec in forest_strategy()) {
            let (trunk, heads) = spec;
            let kit = ForestKit::new();
            let tenants: Vec<(Graph, NodeId)> = heads
                .iter()
                .enumerate()
                .map(|(t, head)| kit.tenant(&trunk, head, t))
                .collect();
            let forward = merge_forest(&tenants);
            let reversed: Vec<(Graph, NodeId)> = tenants.iter().rev().cloned().collect();
            let backward = merge_forest(&reversed);
            prop_assert_eq!(forward.graph.len(), backward.graph.len());
            prop_assert_eq!(forward.eliminated, backward.eliminated);
            prop_assert_eq!(merge_keys(&forward.merges), merge_keys(&backward.merges));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The canonicalizer never merges across an estimator boundary:
        /// tenants with distinct estimator `Arc`s keep distinct Estimate and
        /// ModelApply nodes even under a fully shared trunk, so every merge
        /// event names a trunk node.
        #[test]
        fn prop_no_merge_across_estimator_boundary(spec in forest_strategy()) {
            let (trunk, heads) = spec;
            let kit = ForestKit::new();
            // Identical heads maximize mergeable structure; only the
            // estimator Arc differs per tenant.
            let tenants: Vec<(Graph, NodeId)> = (0..heads.len())
                .map(|t| kit.tenant(&trunk, &trunk, t))
                .collect();
            let merged = merge_forest(&tenants);
            let est_nodes = merged
                .graph
                .nodes
                .iter()
                .filter(|n| matches!(n.kind, NodeKind::Estimate(_)))
                .count();
            prop_assert_eq!(est_nodes, tenants.len());
            // Outputs (the per-tenant ModelApply nodes) stay distinct.
            let mut outs = merged.outputs.clone();
            outs.sort_unstable();
            outs.dedup();
            prop_assert_eq!(outs.len(), tenants.len());
            for m in &merged.merges {
                prop_assert!(
                    m.label != "est" && m.label != "apply",
                    "merged across estimator boundary: {:?}", m
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// N=1 degenerates to single-pipeline CSE bitwise: same node
        /// sequence (labels and inputs), same elimination count, no merge
        /// events.
        #[test]
        fn prop_single_tenant_degenerates_to_cse(spec in forest_strategy()) {
            let (trunk, heads) = spec;
            let kit = ForestKit::new();
            let (g, out) = kit.tenant(&trunk, &heads[0], 0);
            let solo = eliminate_common_subexpressions(&g);
            let merged = merge_forest(&[(g.clone(), out)]);
            prop_assert_eq!(merged.graph.len(), solo.graph.len());
            for (a, b) in merged.graph.nodes.iter().zip(&solo.graph.nodes) {
                prop_assert_eq!(&a.label, &b.label);
                prop_assert_eq!(&a.inputs, &b.inputs);
            }
            prop_assert_eq!(merged.outputs[0], solo.remap[&out]);
            prop_assert_eq!(merged.eliminated, solo.eliminated);
            prop_assert!(merged.merges.is_empty());
        }
    }

    fn lanes_strategy() -> impl Strategy<Value = Vec<Vec<u32>>> {
        proptest::collection::vec(proptest::collection::vec(0u32..8, 0..6), 1..5)
    }

    fn build_lanes(costs: &[Vec<u32>]) -> Vec<Vec<Wave>> {
        let mut node = 0usize;
        costs
            .iter()
            .enumerate()
            .map(|(t, lane)| {
                lane.iter()
                    .map(|&c| {
                        node += 1;
                        Wave {
                            tenant: t,
                            node,
                            est_cost: c as f64 * 0.5,
                        }
                    })
                    .collect()
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Work-conserving and per-lane order-preserving: every submitted
        /// wave is dispatched exactly once, and each lane's waves appear in
        /// submission order.
        #[test]
        fn prop_scheduler_work_conserving(costs in lanes_strategy()) {
            let lanes = build_lanes(&costs);
            let order = WaveScheduler::new(lanes.clone()).schedule();
            let total: usize = lanes.iter().map(Vec::len).sum();
            prop_assert_eq!(order.len(), total);
            for (t, lane) in lanes.iter().enumerate() {
                let got: Vec<usize> = order
                    .iter()
                    .filter(|w| w.tenant == t)
                    .map(|w| w.node)
                    .collect();
                let want: Vec<usize> = lane.iter().map(|w| w.node).collect();
                prop_assert_eq!(got, want);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Starvation-free: while a lane still has waves queued, at most
        /// N−1 waves from other lanes run between two of its consecutive
        /// dispatches (quantum ≥ max wave cost ⇒ every round-robin visit of
        /// a non-empty lane dispatches).
        #[test]
        fn prop_scheduler_bounded_wave_gap(costs in lanes_strategy()) {
            let lanes = build_lanes(&costs);
            let n = lanes.len();
            let order = WaveScheduler::new(lanes).schedule();
            for t in 0..n {
                let positions: Vec<usize> = order
                    .iter()
                    .enumerate()
                    .filter(|(_, w)| w.tenant == t)
                    .map(|(i, _)| i)
                    .collect();
                for pair in positions.windows(2) {
                    prop_assert!(
                        pair[1] - pair[0] <= n,
                        "lane {} starved: gap {} with {} lanes",
                        t, pair[1] - pair[0], n
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Deterministic: the schedule is a pure function of the input.
        #[test]
        fn prop_scheduler_deterministic(costs in lanes_strategy()) {
            let lanes = build_lanes(&costs);
            let a = WaveScheduler::new(lanes.clone()).schedule();
            let b = WaveScheduler::new(lanes).schedule();
            prop_assert_eq!(a, b);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// One lane collapses to input order — no reordering, no deficit
        /// effects.
        #[test]
        fn prop_scheduler_single_lane_is_input_order(lane in proptest::collection::vec(0u32..8, 0..8)) {
            let lanes = build_lanes(&[lane]);
            let order = WaveScheduler::new(lanes.clone()).schedule();
            prop_assert_eq!(order, lanes.into_iter().next().unwrap());
        }
    }
}
