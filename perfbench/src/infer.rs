//! The inference workloads: a real QUInt8 forward pass of a μLayer plan
//! on the host worker pools, one caller running inferences back to back
//! (closed loop). Each inference is timed from call to return.
//!
//! The untraced run times `evaluate_plan_with_backend` on the bare
//! `ParallelBackend`. The traced run alternates that (the baseline for
//! the tracing overhead) with inferences through [`Timed`], which times
//! every `run_node`; those spans are paired with the backend's own part
//! spans (`take_timings`) and allocations are counted. A plan with split
//! nodes then runs the single-pool baseline for the split gain.

use std::error::Error;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use uexec::{ExecConfig, NodeTiming, ParallelBackend, PoolMode};
use ukernels::PathChoice;
use unn::{Calibration, Graph, ModelId, Weights};
use uruntime::{evaluate_plan, evaluate_plan_with_backend, ExecBackend, ExecutionPlan, PartTask};
use usoc::{SocSpec, WorkClass};
use utensor::{DType, Tensor, TensorError};

use crate::alloc;
use crate::reference::Reference;
use crate::report::{median, overhead_pct, p1, ratio, Host, Outcome};
use crate::trace::{Recorder, CHUNKS, TID_CALLER, TID_WORKERS};
use crate::Args;

/// Kernel path of every worker, set here rather than read from the
/// environment.
const KERNEL_PATH: PathChoice = PathChoice::Auto;
/// Workers per pool in cooperative mode: 1 CPU + 1 "GPU" worker.
const COOP_THREADS: usize = 1;
/// Workers of the single-pool baseline: the same total as cooperative.
const SINGLE_THREADS: usize = 2;
/// Distinct seeded inputs the closed loop cycles through.
const INPUTS: usize = 2;
/// Chunks of the untraced run's timed part. The host-speed reference
/// runs at each gap between them, so it samples the host about once
/// every `--seconds` ÷ 15 (`reference.rs`). Each workload's set-up count
/// divides it.
const UNTRACED_CHUNKS: usize = 15;
/// Inferences whose spans go into the trace file.
const TRACED_OPS: usize = 64;

type Res<T> = Result<T, Box<dyn Error>>;

/// One inference workload: which network, at which size, how many
/// times a run sets it up (`setup_s` is the median), and whether its
/// best case is assembled from the `run_node` calls.
pub struct Workload {
    pub model: ModelId,
    pub miniature: bool,
    pub setup_reps: usize,
    /// Time every `run_node` of the untraced run and report the best
    /// case call by call (`METRICS.md` says why). Meant for inferences
    /// so long that a run holds fewer than 100 of them; the per-call
    /// samples are kept for the whole run.
    pub best_by_parts: bool,
}

/// Everything set-up produces; the timed loop only reads it.
struct Prepared {
    spec: SocSpec,
    graph: Graph,
    weights: Weights,
    calib: Calibration,
    plan: ExecutionPlan,
    backend: ParallelBackend,
    inputs: Vec<Tensor>,
}

/// Set-up stage durations, seconds.
struct Stages {
    total: f64,
    weights: f64,
    calibrate: f64,
    plan: f64,
    spawn: f64,
    warmup: f64,
}

/// Seeded inputs in [-1, 1).
fn make_inputs(graph: &Graph, seed: u64) -> Res<Vec<Tensor>> {
    let shape = graph.input_shape().clone();
    let mut rng = testkit::Rng::seed_from_u64(seed ^ 0x1A7E_5EED);
    (0..INPUTS)
        .map(|_| {
            let mut data = vec![0.0f32; shape.numel()];
            rng.fill_f32(&mut data, -1.0, 1.0);
            Ok(Tensor::from_f32(shape.clone(), data)?)
        })
        .collect()
}

/// The cooperative backend: 1 CPU + 1 "GPU" worker.
fn spawn_pools(spec: &SocSpec) -> ParallelBackend {
    let cfg = ExecConfig::with_threads(COOP_THREADS).with_kernel_path(KERNEL_PATH);
    ParallelBackend::new(spec, &cfg, PoolMode::Cooperative)
}

/// Graph, weights, calibration, plan, pool spawn and one warm-up
/// inference: everything before the first timed operation.
fn prepare(w: &Workload, seed: u64) -> Res<(Prepared, Stages)> {
    let t0 = Instant::now();
    let graph = if w.miniature {
        w.model.build_miniature()
    } else {
        w.model.build()
    };
    let weights = Weights::random(&graph, seed)?;
    let inputs = make_inputs(&graph, seed)?;
    let t1 = Instant::now();
    let calib = unn::calibrate(&graph, &weights, &inputs)?;
    let t2 = Instant::now();
    let spec = SocSpec::exynos_7420();
    let plan = ulayer::ULayer::new(spec.clone())?.plan(&graph)?.plan;
    let t3 = Instant::now();
    let backend = spawn_pools(&spec);
    let t4 = Instant::now();
    evaluate_plan_with_backend(&graph, &plan, &weights, &calib, &inputs[0], &backend)?;
    backend.take_timings();
    let t5 = Instant::now();
    let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();
    let stages = Stages {
        total: secs(t0, t5),
        weights: secs(t0, t1),
        calibrate: secs(t1, t2),
        plan: secs(t2, t3),
        spawn: secs(t3, t4),
        warmup: secs(t4, t5),
    };
    let prepared = Prepared {
        spec,
        graph,
        weights,
        calib,
        plan,
        backend,
        inputs,
    };
    Ok((prepared, stages))
}

/// The sequential evaluator's outputs for every input: the reference
/// each timed output must match bit for bit.
///
/// The calling thread evaluates with the workers' kernel configuration
/// (blocked kernels, the same path, direct convolutions). The blocked
/// F16 GEMM accumulates in K panels, so against the naive kernels a
/// "GPU" part with more than one panel differs within its ULP bound,
/// not bit for bit; with equal kernels any difference is the backend's.
fn references(p: &Prepared, plan: &ExecutionPlan) -> Res<Vec<Vec<Tensor>>> {
    let cfg = ExecConfig::with_threads(1).with_kernel_path(KERNEL_PATH);
    let prev = (
        ukernels::set_blocked_kernels(true),
        ukernels::set_kernel_path(cfg.kernel_path),
        ukernels::set_direct_conv(cfg.direct_conv()),
    );
    let refs = p
        .inputs
        .iter()
        .map(|x| Ok(evaluate_plan(&p.graph, plan, &p.weights, &p.calib, x)?))
        .collect();
    ukernels::set_blocked_kernels(prev.0);
    ukernels::set_kernel_path(prev.1);
    ukernels::set_direct_conv(prev.2);
    refs
}

fn bit_identical(got: &[Tensor], want: &[Tensor]) -> bool {
    got.len() == want.len() && got.iter().zip(want).all(|(a, b)| a.bit_equal(b))
}

/// Runs inference `i` (input `i mod INPUTS`) and checks its output,
/// counting it in `out`. Returns its start, wall seconds and whether it
/// succeeded.
fn infer_once(
    p: &Prepared,
    plan: &ExecutionPlan,
    backend: &dyn ExecBackend,
    refs: &[Vec<Tensor>],
    i: usize,
    out: &mut Outcome,
    count_allocs: bool,
) -> (Instant, f64, bool) {
    let k = i % p.inputs.len();
    alloc::set_enabled(count_allocs);
    let start = Instant::now();
    let result =
        evaluate_plan_with_backend(&p.graph, plan, &p.weights, &p.calib, &p.inputs[k], backend);
    let wall = start.elapsed().as_secs_f64();
    alloc::set_enabled(false);
    out.attempted += 1;
    let ok = match result {
        Ok(outs) if bit_identical(&outs, &refs[k]) => true,
        Ok(_) => {
            out.fail(format!("inference {i}: output differs from evaluate_plan"));
            false
        }
        Err(e) => {
            out.fail(format!("inference {i}: {e}"));
            false
        }
    };
    (start, wall, ok)
}

/// Runs inferences back to back for `budget` (at least one), numbering
/// them from `*next` on. Once the clock has stopped, `after` sees every
/// inference's index, start, wall seconds and whether it succeeded.
/// Returns the wall seconds of the successful ones.
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    p: &Prepared,
    plan: &ExecutionPlan,
    backend: &dyn ExecBackend,
    refs: &[Vec<Tensor>],
    budget: Duration,
    next: &mut usize,
    out: &mut Outcome,
    count_allocs: bool,
    mut after: impl FnMut(usize, Instant, f64, bool),
) -> Vec<f64> {
    let mut lat = Vec::new();
    let end = Instant::now() + budget;
    let first = *next;
    while *next == first || Instant::now() < end {
        let i = *next;
        let (start, wall, ok) = infer_once(p, plan, backend, refs, i, out, count_allocs);
        if ok {
            lat.push(wall);
        }
        after(i, start, wall, ok);
        *next += 1;
    }
    lat
}

/// One `run_node` call as seen from outside the backend.
struct NodeCall {
    /// The node, or `None` for an empty task batch.
    node: Option<usize>,
    start: Instant,
    wall_s: f64,
}

/// An [`ExecBackend`] that times every `run_node` of the backend it
/// wraps and marks the call for the allocation counter.
struct Timed<'a> {
    inner: &'a ParallelBackend,
    calls: Mutex<Vec<NodeCall>>,
}

impl<'a> Timed<'a> {
    fn new(inner: &'a ParallelBackend, nodes: usize) -> Timed<'a> {
        Timed {
            inner,
            calls: Mutex::new(Vec::with_capacity(nodes)),
        }
    }

    /// The calls of the last inference paired with the backend's own
    /// node timings (the backend records none for an empty batch).
    fn drain(&self) -> Result<Vec<(NodeCall, Option<NodeTiming>)>, String> {
        let calls: Vec<NodeCall> = self
            .calls
            .lock()
            .expect("no run_node panicked while holding the call log")
            .drain(..)
            .collect();
        let mut timings = self.inner.take_timings().into_iter();
        calls
            .into_iter()
            .map(|c| {
                let t = match c.node {
                    None => None,
                    Some(n) => match timings.next() {
                        Some(t) if t.node == n => Some(t),
                        _ => return Err(format!("no backend timing for node {n}")),
                    },
                };
                Ok((c, t))
            })
            .collect()
    }
}

impl ExecBackend for Timed<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn run_node(&self, tasks: &[PartTask<'_>]) -> Result<Vec<Tensor>, TensorError> {
        let start = Instant::now();
        alloc::enter_node();
        let result = self.inner.run_node(tasks);
        alloc::leave_node();
        let wall_s = start.elapsed().as_secs_f64();
        self.calls
            .lock()
            .expect("no run_node panicked while holding the call log")
            .push(NodeCall {
                node: tasks.first().map(|t| t.node.0),
                start,
                wall_s,
            });
        result
    }
}

/// Kernel class buckets of the `ukernels.*` metrics.
const GEMM: usize = 0;
const POINTWISE: usize = 1;
const DEPTHWISE: usize = 2;
const OTHER: usize = 3;

/// Static per-node facts of a plan: class, parts, MACs and bytes.
struct NodeWork {
    class: usize,
    parts: usize,
    macs: u64,
    bytes: u64,
}

fn node_work(p: &Prepared) -> Res<Vec<NodeWork>> {
    let shapes = p.graph.infer_shapes()?;
    let mut out = Vec::with_capacity(p.graph.len());
    for (i, node) in p.graph.nodes().iter().enumerate() {
        let in_shape = node
            .inputs
            .first()
            .map_or(p.graph.input_shape(), |d| &shapes[d.0]);
        let parts: Vec<(usoc::DtypePlan, f64)> = match &p.plan.placements[i] {
            uruntime::NodePlacement::Single { dtypes, .. } => vec![(*dtypes, 1.0)],
            uruntime::NodePlacement::Split { parts } => {
                parts.iter().map(|&(_, d, f)| (d, f)).collect()
            }
        };
        let works: Vec<usoc::KernelWork> = parts
            .iter()
            .map(|&(d, f)| usoc::layer_work(&node.kind, in_shape, &shapes[i], d, f))
            .collect();
        let class = match works[0].class {
            WorkClass::Gemm => GEMM,
            WorkClass::Pointwise => POINTWISE,
            WorkClass::Depthwise => DEPTHWISE,
            _ => OTHER,
        };
        out.push(NodeWork {
            class,
            parts: parts.len(),
            macs: works.iter().map(|w| w.macs).sum(),
            bytes: works.iter().map(|w| w.total_bytes()).sum(),
        });
    }
    Ok(out)
}

/// Per-inference sums over the traced phase.
#[derive(Default)]
struct Traced {
    inferences: usize,
    wall: f64,
    node: f64,
    dispatch: f64,
    imbalance: f64,
    cpu_busy: f64,
    gpu_busy: f64,
    class_longest: [f64; 4],
    class_parts: [f64; 4],
    allocs_inside: u64,
    bytes_inside: u64,
    allocs_outside: u64,
}

/// Runs workload `w` and fills `out`.
pub fn run(w: &Workload, args: &Args, out: &mut Outcome) -> Res<()> {
    let budget = Duration::from_secs_f64(args.seconds);
    if !args.trace {
        return run_untraced(w, args.seed, budget, out);
    }
    let mut setups = Vec::with_capacity(w.setup_reps);
    let mut prepared = None;
    for _ in 0..w.setup_reps.max(1) {
        drop(prepared.take()); // the previous set-up and its pools go first
        let (p, s) = prepare(w, args.seed)?;
        setups.push(s);
        prepared = Some(p);
    }
    let p = prepared.expect("at least one set-up");
    let refs = references(&p, &p.plan)?;

    let stage = |f: fn(&Stages) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    out.set("setup.weights_ms", stage(|s| s.weights) * 1e3, setups.len());
    out.set(
        "setup.calibrate_ms",
        stage(|s| s.calibrate) * 1e3,
        setups.len(),
    );
    out.set("ulayer.plan_ms", stage(|s| s.plan) * 1e3, setups.len());
    out.set("uexec.spawn_ms", stage(|s| s.spawn) * 1e3, setups.len());
    out.set("setup.warmup_ms", stage(|s| s.warmup) * 1e3, setups.len());

    let work = node_work(&p)?;
    let split_nodes: Vec<usize> = (0..work.len()).filter(|&i| work[i].parts > 1).collect();
    // Untraced and traced chunks alternate; a plan that splits any node
    // also gets a split-gain phase.
    let phases = if split_nodes.is_empty() { 1.0 } else { 1.5 };
    let chunk = budget.div_f64(phases * 2.0 * CHUNKS as f64);

    let timed = Timed::new(&p.backend, p.graph.len());
    let mut rec = Recorder::new(TRACED_OPS, &["cpu-pool", "gpu-pool"]);
    let mut acc = Traced::default();
    let gpu = p.spec.gpu();
    let names: Vec<&str> = p.graph.nodes().iter().map(|n| n.name.as_str()).collect();
    let mut broken = None;
    let mut record = |i: usize, start: Instant, wall: f64, ok: bool| {
        let drained = timed.drain();
        if !ok {
            return;
        }
        let calls = match drained {
            Ok(c) => c,
            Err(e) => {
                broken.get_or_insert(e);
                return;
            }
        };
        acc.inferences += 1;
        acc.wall += wall;
        rec.span(i, TID_CALLER, "inference", start, wall);
        for (call, timing) in calls {
            acc.node += call.wall_s;
            let Some(t) = timing else {
                acc.dispatch += call.wall_s;
                continue;
            };
            let spans: Vec<f64> = t.parts.iter().map(|pt| pt.seconds).collect();
            let longest = spans.iter().copied().fold(0.0, f64::max);
            let shortest = spans.iter().copied().fold(f64::INFINITY, f64::min);
            let wk = &work[t.node];
            acc.dispatch += call.wall_s - longest;
            if wk.parts > 1 {
                acc.imbalance += longest - shortest;
            }
            acc.class_longest[wk.class] += longest;
            acc.class_parts[wk.class] += spans.iter().sum::<f64>();
            rec.span(i, TID_CALLER, names[t.node], call.start, call.wall_s);
            for pt in &t.parts {
                let on_gpu = pt.device == gpu;
                if on_gpu {
                    acc.gpu_busy += pt.seconds;
                } else {
                    acc.cpu_busy += pt.seconds;
                }
                if rec.wants(i) {
                    let tid = TID_WORKERS[usize::from(on_gpu)];
                    let name = format!("{} part {}", names[t.node], pt.part_index);
                    rec.span(i, tid, name, call.start, pt.seconds.min(call.wall_s));
                }
            }
        }
    };
    let (before_in, before_out) = alloc::totals();
    let (mut base, mut traced, mut next) = (Vec::new(), Vec::new(), 0);
    for _ in 0..CHUNKS {
        let drain = |_, _, _, _| {
            p.backend.take_timings();
        };
        base.extend(closed_loop(
            &p, &p.plan, &p.backend, &refs, chunk, &mut next, out, false, drain,
        ));
        traced.extend(closed_loop(
            &p,
            &p.plan,
            &timed,
            &refs,
            chunk,
            &mut next,
            out,
            true,
            &mut record,
        ));
    }
    let (after_in, after_out) = alloc::totals();
    acc.allocs_inside = after_in.count - before_in.count;
    acc.bytes_inside = after_in.bytes - before_in.bytes;
    acc.allocs_outside = after_out.count - before_out.count;
    if let Some(e) = broken {
        out.problem(format!("traced run: {e}"));
    }

    let (split_gain, gain_pairs) = if split_nodes.is_empty() {
        (0.0, 0)
    } else {
        single_pool_gain(&p, &refs, &split_nodes, budget.div_f64(3.0), out)?
    };

    let n = acc.inferences.max(1) as f64;
    let per_inf_ms = |v: f64| v / n * 1e3;
    let samples = acc.inferences;
    out.set(
        "uruntime.functional.self_ms",
        per_inf_ms(acc.wall - acc.node),
        samples,
    );
    out.set("uexec.node_ms", per_inf_ms(acc.node), samples);
    out.set("uexec.dispatch_ms", per_inf_ms(acc.dispatch), samples);
    out.set(
        "uexec.dispatch_us_per_node",
        acc.dispatch / n / work.len() as f64 * 1e6,
        samples,
    );
    out.set("uexec.imbalance_ms", per_inf_ms(acc.imbalance), samples);
    out.set("uexec.split_nodes", split_nodes.len() as f64, 1);
    out.set("uexec.cpu_busy_ms", per_inf_ms(acc.cpu_busy), samples);
    out.set("uexec.gpu_busy_ms", per_inf_ms(acc.gpu_busy), samples);
    out.set("uexec.split_gain_ms", split_gain * 1e3, gain_pairs);
    out.set(
        "uexec.allocs_per_inf",
        acc.allocs_inside as f64 / n,
        samples,
    );
    out.set(
        "uexec.alloc_kb_per_inf",
        acc.bytes_inside as f64 / n / 1024.0,
        samples,
    );
    out.set(
        "uruntime.functional.allocs_per_inf",
        acc.allocs_outside as f64 / n,
        samples,
    );
    let class_ms = [
        "ukernels.gemm_ms",
        "ukernels.pointwise_ms",
        "ukernels.depthwise_ms",
        "ukernels.other_ms",
    ];
    for (c, name) in class_ms.into_iter().enumerate() {
        out.set(name, per_inf_ms(acc.class_longest[c]), samples);
    }
    let gmacs = [
        (GEMM, "ukernels.gemm_gmacs"),
        (POINTWISE, "ukernels.pointwise_gmacs"),
        (DEPTHWISE, "ukernels.depthwise_gmacs"),
    ];
    for (c, name) in gmacs {
        let macs: u64 = work.iter().filter(|w| w.class == c).map(|w| w.macs).sum();
        let rate = ratio(macs as f64 * n, acc.class_parts[c]) / 1e9;
        out.set(name, rate, samples);
    }
    out.set(
        "ukernels.macs_per_inf",
        work.iter().map(|w| w.macs).sum::<u64>() as f64,
        1,
    );
    out.set(
        "ukernels.mbytes_per_inf",
        work.iter().map(|w| w.bytes).sum::<u64>() as f64 / 1e6,
        1,
    );
    let kernels: f64 = acc.class_longest.iter().sum();
    println!(
        "accounting per inference: self {:.4} + node {:.4} = wall {:.4} ms; dispatch {:.4} + kernels {:.4} = node {:.4} ms",
        per_inf_ms(acc.wall - acc.node),
        per_inf_ms(acc.node),
        per_inf_ms(acc.wall),
        per_inf_ms(acc.dispatch),
        per_inf_ms(kernels),
        per_inf_ms(acc.node),
    );
    out.set(
        "trace.overhead_pct",
        overhead_pct(&base, &traced),
        traced.len(),
    );
    crate::write_trace(args, &rec, out)?;
    Ok(())
}

/// The untraced run: the end-to-end metrics. The first set-up comes
/// before any timed inference. The others are spread over the run,
/// between chunks of inferences, so that their median samples the run's
/// host conditions rather than only its first seconds; each replaces
/// the set-up before it. The host-speed reference runs before the first
/// set-up, between set-ups and at the end, when no pool thread is alive.
fn run_untraced(w: &Workload, seed: u64, budget: Duration, out: &mut Outcome) -> Res<()> {
    let mut reference = Reference::new(out.host.workers);
    reference.burst();
    let (mut p, s) = prepare(w, seed)?;
    let mut setups = vec![s.total];
    let refs = references(&p, &p.plan)?;
    // A set-up every `setup_every` gaps; at the other gaps only the
    // pools are dropped and spawned again, so the reference still runs
    // with no pool thread alive.
    let setup_every = (UNTRACED_CHUNKS / w.setup_reps.max(1)).max(1);
    let chunk = budget.div_f64(UNTRACED_CHUNKS as f64);
    let (mut lat, mut next, mut walls) = (Vec::new(), 0, CallWalls::default());
    for k in 0..UNTRACED_CHUNKS {
        lat.extend(if w.best_by_parts {
            walls.closed_loop(&p, &refs, chunk, &mut next, out)
        } else {
            closed_loop(
                &p,
                &p.plan,
                &p.backend,
                &refs,
                chunk,
                &mut next,
                out,
                false,
                |_, _, _, _| {
                    p.backend.take_timings();
                },
            )
        });
        if k + 1 == UNTRACED_CHUNKS {
            break;
        }
        if (k + 1) % setup_every == 0 {
            drop(p); // the previous set-up and its pools go first
            reference.burst();
            let (again, s) = prepare(w, seed)?;
            setups.push(s.total);
            p = again;
        } else {
            let Prepared {
                spec,
                graph,
                weights,
                calib,
                plan,
                backend,
                inputs,
            } = p;
            drop(backend);
            reference.burst();
            let backend = spawn_pools(&spec);
            p = Prepared {
                spec,
                graph,
                weights,
                calib,
                plan,
                backend,
                inputs,
            };
        }
    }
    drop(p);
    reference.burst();
    let ops: Vec<(f64, u64)> = lat.iter().map(|&w| (w, 1)).collect();
    if w.best_by_parts {
        walls.report(lat.len(), out);
    } else {
        out.timings(&ops);
    }
    out.tails(&ops);
    out.set("setup_s", median(&setups), setups.len());
    out.at_reference_speed(&reference);
    Ok(())
}

/// The wall of every `run_node` call, by its position in the
/// inference, and of the time outside the calls, over a run's
/// successful inferences. The plan is fixed, so every inference makes
/// the same calls in the same order.
#[derive(Default)]
struct CallWalls {
    calls_s: Vec<Vec<f64>>,
    outside_s: Vec<f64>,
    broken: Option<String>,
}

impl CallWalls {
    /// [`closed_loop`] through [`Timed`] on the untraced backend,
    /// recording every inference's calls.
    fn closed_loop(
        &mut self,
        p: &Prepared,
        refs: &[Vec<Tensor>],
        budget: Duration,
        next: &mut usize,
        out: &mut Outcome,
    ) -> Vec<f64> {
        let timed = Timed::new(&p.backend, p.graph.len());
        closed_loop(
            p,
            &p.plan,
            &timed,
            refs,
            budget,
            next,
            out,
            false,
            |i, _, wall, ok| match timed.drain() {
                Ok(calls) if ok => self.record(i, wall, &calls),
                Ok(_) => {}
                Err(e) => {
                    self.broken.get_or_insert(e);
                }
            },
        )
    }

    fn record(&mut self, i: usize, wall: f64, calls: &[(NodeCall, Option<NodeTiming>)]) {
        if self.calls_s.is_empty() {
            self.calls_s = vec![Vec::new(); calls.len()];
        } else if calls.len() != self.calls_s.len() {
            self.broken.get_or_insert(format!(
                "inference {i} made {} run_node calls, the first made {}",
                calls.len(),
                self.calls_s.len()
            ));
            return;
        }
        for ((call, _), walls) in calls.iter().zip(&mut self.calls_s) {
            walls.push(call.wall_s);
        }
        let inside: f64 = calls.iter().map(|(c, _)| c.wall_s).sum();
        self.outside_s.push(wall - inside);
    }

    /// Sets `lat_p1_ms` and `sim_frames_per_s` from the best-case
    /// inference assembled call by call: the 1st percentile of each call
    /// position's wall plus that of the time outside the calls, out of
    /// `n` inferences.
    fn report(&self, n: usize, out: &mut Outcome) {
        if let Some(e) = &self.broken {
            out.problem(format!("untraced run: {e}"));
        }
        if !self.outside_s.is_empty() {
            let inside: f64 = self.calls_s.iter().map(|w| p1(w)).sum();
            out.best_op(p1(&self.outside_s) + inside, 1, n);
        }
    }
}

/// Σ over split nodes of (single-pool node wall − cooperative node
/// wall), seconds per inference, and the inference pairs behind it. The
/// single-pool side runs the single-processor QUInt8 plan on one pool of
/// [`SINGLE_THREADS`].
/// Cooperative and single-pool inferences alternate, so both sides see
/// the same host conditions.
fn single_pool_gain(
    p: &Prepared,
    coop_refs: &[Vec<Tensor>],
    split_nodes: &[usize],
    budget: Duration,
    out: &mut Outcome,
) -> Res<(f64, usize)> {
    let plan = uruntime::single_processor_plan(&p.graph, &p.spec, p.spec.cpu(), DType::QUInt8)?;
    let refs = references(p, &plan)?;
    let cfg = ExecConfig::with_threads(SINGLE_THREADS).with_kernel_path(KERNEL_PATH);
    let backend = ParallelBackend::new(&p.spec, &cfg, PoolMode::SinglePool);
    evaluate_plan_with_backend(
        &p.graph,
        &plan,
        &p.weights,
        &p.calib,
        &p.inputs[0],
        &backend,
    )?;
    backend.take_timings();

    let sides = [
        (&p.plan, Timed::new(&p.backend, p.graph.len()), coop_refs),
        (&plan, Timed::new(&backend, p.graph.len()), &refs[..]),
    ];
    // Per side: summed wall of each node, and inferences counted.
    let mut walls = [vec![0.0; p.graph.len()], vec![0.0; p.graph.len()]];
    let mut runs = [0usize; 2];
    let end = Instant::now() + budget;
    let mut i = 0;
    while i == 0 || Instant::now() < end {
        for (side, (plan, timed, refs)) in sides.iter().enumerate() {
            let (_, _, ok) = infer_once(p, plan, timed, refs, i, out, false);
            match timed.drain() {
                Ok(calls) if ok => {
                    runs[side] += 1;
                    for (c, _) in calls {
                        if let Some(n) = c.node {
                            walls[side][n] += c.wall_s;
                        }
                    }
                }
                Err(e) if ok => out.problem(format!("split-gain run: {e}")),
                _ => {}
            }
        }
        i += 1;
    }
    let mean = |side: usize, n: usize| walls[side][n] / runs[side].max(1) as f64;
    let gain = split_nodes.iter().map(|&n| mean(1, n) - mean(0, n)).sum();
    Ok((gain, runs[0].min(runs[1])))
}

/// Host fingerprint of the inference workloads.
pub fn host() -> Host {
    Host::detect(KERNEL_PATH, 2 * COOP_THREADS)
}
