//! The simulator workload, serve-overload, with the fleet layer in its
//! traced run; both run as batch jobs on one host thread. What is
//! measured is how fast the host simulates, never the simulated
//! latencies: those are outputs of the model, checked for invariants and
//! digested, so repeats of a run must produce byte-identical reports.

use std::error::Error;
use std::sync::Arc;
use std::time::{Duration, Instant};

use simcore::{ArrivalKind, ArrivalProcess, FleetScenario, SimSpan, SimTime, TieOrder};
use testkit::rng::fnv1a;
use ukernels::PathChoice;
use ulayer::{PlannerSession, ReusePolicy, ULayer};
use unn::{Graph, ModelId, Weights};
use uruntime::{FleetCohort, FleetConfig, FleetNetwork, InstanceAdapter, LadderRung, ServeConfig};
use usoc::SocSpec;

use crate::reference::Reference;
use crate::report::{median, overhead_pct, p1, Host, Outcome};
use crate::trace::{Recorder, CHUNKS, TID_CALLER};
use crate::Args;

type Res<T> = Result<T, Box<dyn Error>>;

/// Frames per SoC per serve call. Serving cost is superlinear in the
/// stream length, so the workload fixes it.
const SERVE_FRAMES: usize = 8192;
/// Planner probes timed together. A serve call is timed in parts (probe
/// batches and `serve_stream`) so that its best case can be taken part
/// by part (`METRICS.md` says why).
const PROBE_BATCH: usize = 512;
/// Admission queue bound (the `repro serve` default).
const SERVE_QUEUE: usize = 8;
/// Fleet size and frames per device: 524288 frames per `run_fleet` call
/// on a working set small enough to stay in cache.
const FLEET_DEVICES: usize = 128;
const FLEET_FRAMES: usize = 4096;
/// Set-ups per run; `setup_s` is their median. The set-up takes a
/// millisecond, so many repeats keep the median steady.
const SETUP_REPS: usize = 15;
/// Operations whose spans go into the trace file.
const TRACED_OPS: usize = 256;

/// Host fingerprint of serve-overload: one thread, no kernels.
pub fn host() -> Host {
    Host::detect(PathChoice::Auto, 1)
}

/// Timed operations for `budget` (at least one), numbered from `*next`
/// on; `op` returns the frames it offered, or why it failed. Returns the
/// wall seconds and frames of each successful operation.
fn batch_loop(
    budget: Duration,
    next: &mut usize,
    out: &mut Outcome,
    mut op: impl FnMut(usize) -> Result<u64, String>,
) -> Vec<(f64, u64)> {
    let mut done = Vec::new();
    let end = Instant::now() + budget;
    let first = *next;
    while *next == first || Instant::now() < end {
        let i = *next;
        let start = Instant::now();
        let result = op(i);
        let wall = start.elapsed().as_secs_f64();
        out.attempted += 1;
        match result {
            Ok(frames) => done.push((wall, frames)),
            Err(e) => out.fail(format!("operation {i}: {e}")),
        }
        *next += 1;
    }
    done
}

/// The traced run's timed part: [`CHUNKS`] untraced chunks alternating
/// with as many traced ones over `budget`, numbered from `*next` on;
/// `op(i, traced)` runs operation `i`. Returns the (untraced, traced)
/// operations.
#[allow(clippy::type_complexity)]
fn alternate(
    budget: Duration,
    next: &mut usize,
    out: &mut Outcome,
    mut op: impl FnMut(usize, bool) -> Result<u64, String>,
) -> (Vec<(f64, u64)>, Vec<(f64, u64)>) {
    let chunk = budget.div_f64(2.0 * CHUNKS as f64);
    let (mut base, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..CHUNKS {
        base.extend(batch_loop(chunk, next, out, |i| op(i, false)));
        traced.extend(batch_loop(chunk, next, out, |i| op(i, true)));
    }
    (base, traced)
}

/// Checks `digest` against the first one seen in `slot`.
fn same_digest(slot: &mut Option<u64>, digest: u64) -> Result<(), String> {
    match *slot {
        None => {
            *slot = Some(digest);
            Ok(())
        }
        Some(d) if d == digest => Ok(()),
        Some(d) => Err(format!("report digest {digest:016x} differs from {d:016x}")),
    }
}

/// One SoC of the serving workload.
struct ServeSoc<'a> {
    spec: SocSpec,
    session: PlannerSession<'a>,
    ladder: Arc<Vec<LadderRung>>,
    arrivals: Vec<SimTime>,
    cfg: ServeConfig,
    digest: Option<u64>,
    /// Wall seconds of every probe batch and every `serve_stream` call.
    batch_s: Vec<f64>,
    serve_s: Vec<f64>,
}

/// The first ladder of each SoC (a plan-cache miss) and its seeded
/// bursty arrival schedule at 2x the full rung's rate; returns the
/// per-SoC states and the mean first-ladder seconds.
fn prepare_serve<'a>(
    rts: &'a [ULayer],
    specs: &[SocSpec],
    graph: &Graph,
    seed: u64,
) -> Res<(Vec<ServeSoc<'a>>, f64)> {
    let mut socs = Vec::with_capacity(specs.len());
    let mut miss = 0.0;
    for (rt, spec) in rts.iter().zip(specs) {
        let t = Instant::now();
        let mut session = PlannerSession::new(rt, ReusePolicy::Bucketed);
        let ladder = session.ladder(graph, None)?;
        miss += t.elapsed().as_secs_f64();
        let full = uruntime::execute_plan(spec, graph, &ladder[0].plan)?.latency;
        let mean = SimSpan::from_nanos((full.as_nanos() / 2).max(1));
        let arrivals =
            ArrivalProcess::from_kind(ArrivalKind::Bursty, mean).times(SERVE_FRAMES, seed);
        socs.push(ServeSoc {
            spec: spec.clone(),
            session,
            ladder,
            arrivals,
            cfg: ServeConfig {
                queue_capacity: SERVE_QUEUE,
                deadline: full * 2u64,
            },
            digest: None,
            batch_s: Vec::new(),
            serve_s: Vec::new(),
        });
    }
    Ok((socs, miss / specs.len() as f64))
}

/// Serve-side sums of a traced phase, seconds and counts.
#[derive(Default)]
struct ServeSums {
    probe_s: f64,
    probes: u64,
    serve_s: f64,
    frames: u64,
}

/// One serve operation: for every SoC, one planner probe per arriving
/// frame, then `serve_stream` over the whole schedule.
fn serve_op(
    graph: &Graph,
    socs: &mut [ServeSoc<'_>],
    sums: &mut ServeSums,
    mut span: impl FnMut(String, Instant, f64),
) -> Result<u64, String> {
    let mut offered = 0;
    for soc in socs.iter_mut() {
        let t = Instant::now();
        for _ in 0..soc.arrivals.len() / PROBE_BATCH {
            let batch = Instant::now();
            for _ in 0..PROBE_BATCH {
                soc.session.ladder(graph, None).map_err(|e| e.to_string())?;
            }
            soc.batch_s.push(batch.elapsed().as_secs_f64());
        }
        let probe_s = t.elapsed().as_secs_f64();
        let t2 = Instant::now();
        let report = uruntime::serve_stream(&soc.spec, graph, &soc.ladder, &soc.arrivals, &soc.cfg)
            .map_err(|e| e.to_string())?;
        let serve_s = t2.elapsed().as_secs_f64();
        soc.serve_s.push(serve_s);
        span(format!("ladder probes {}", soc.spec.name), t, probe_s);
        span(format!("serve_stream {}", soc.spec.name), t2, serve_s);
        sums.probe_s += probe_s;
        sums.probes += soc.arrivals.len() as u64;
        sums.serve_s += serve_s;
        sums.frames += report.offered;
        report.check_invariants()?;
        if report.offered != soc.arrivals.len() as u64 {
            return Err(format!(
                "served {} of {} frames",
                report.offered,
                soc.arrivals.len()
            ));
        }
        let digest = fnv1a(
            format!(
                "{:?}",
                (
                    &report.frames,
                    &report.rung_counts,
                    &report.rung_latency,
                    report.queue_peak,
                    &report.latencies,
                )
            )
            .as_bytes(),
        );
        same_digest(&mut soc.digest, digest)?;
        offered += report.offered;
    }
    Ok(offered)
}

/// One serve-overload set-up: graph, planner runtimes, then the first
/// ladders and arrival schedules. Hands `use_it` the stage seconds
/// (total, graph and runtimes, mean first ladder) and the state.
fn with_serve_setup<R>(
    specs: &[SocSpec],
    seed: u64,
    use_it: impl for<'a> FnOnce([f64; 3], &'a Graph, Vec<ServeSoc<'a>>) -> Res<R>,
) -> Res<R> {
    let t0 = Instant::now();
    let graph = ModelId::SqueezeNet.build();
    let rts = specs
        .iter()
        .map(|s| ULayer::new(s.clone()))
        .collect::<Result<Vec<_>, _>>()?;
    let graph_s = t0.elapsed().as_secs_f64();
    let (socs, miss) = prepare_serve(&rts, specs, &graph, seed)?;
    use_it([t0.elapsed().as_secs_f64(), graph_s, miss], &graph, socs)
}

/// The serve-overload workload.
pub fn run_serve(args: &Args, out: &mut Outcome) -> Res<()> {
    let specs = SocSpec::evaluated();
    let again = || with_serve_setup(&specs, args.seed, |t, _, _| Ok(t));
    // The host-speed reference of the untraced run: before the first
    // set-up, between set-ups and at the end (`reference.rs`).
    let mut reference = Reference::new(out.host.workers);
    if !args.trace {
        reference.burst();
    }
    with_serve_setup(&specs, args.seed, |first, graph, mut socs| {
        let mut setups = vec![first];
        let stage = |setups: &[[f64; 3]], k: usize| {
            median(&setups.iter().map(|s| s[k]).collect::<Vec<_>>())
        };
        let budget = Duration::from_secs_f64(args.seconds);
        let mut sums = ServeSums::default();
        if !args.trace {
            // The other set-ups are spread over the run, between chunks of
            // calls, so their median samples the run's host conditions
            // rather than only its first milliseconds.
            let (mut ops, mut next) = (Vec::new(), 0);
            for k in 0..SETUP_REPS {
                let chunk = budget.div_f64(SETUP_REPS as f64);
                ops.extend(batch_loop(chunk, &mut next, out, |_| {
                    serve_op(graph, &mut socs, &mut sums, |_, _, _| {})
                }));
                reference.burst();
                if k + 1 < SETUP_REPS {
                    setups.push(again()?);
                }
            }
            // The best-case call, assembled from each part's 1st
            // percentile.
            let best: f64 = socs
                .iter()
                .filter(|soc| !soc.serve_s.is_empty())
                .map(|soc| {
                    let batches = (soc.arrivals.len() / PROBE_BATCH) as f64;
                    batches * p1(&soc.batch_s) + p1(&soc.serve_s)
                })
                .sum();
            if !ops.is_empty() {
                out.best_op(best, ops[0].1, ops.len());
            }
            out.tails(&ops);
            out.set("setup_s", stage(&setups, 0), setups.len());
            out.at_reference_speed(&reference);
            return Ok(());
        }
        for _ in 1..SETUP_REPS {
            setups.push(again()?);
        }
        let hits_before: u64 = socs.iter().map(|s| s.session.stats().cache_hits).sum();
        let probes_before: u64 = socs.iter().map(|s| s.session.stats().frames).sum();
        let mut rec = Recorder::new(TRACED_OPS, &[]);
        let mut untraced_sums = ServeSums::default();
        let mut next = 0;
        let (base, traced) = alternate(budget.mul_f64(2.0 / 3.0), &mut next, out, |i, traced| {
            if !traced {
                return serve_op(graph, &mut socs, &mut untraced_sums, |_, _, _| {});
            }
            let start = Instant::now();
            let r = serve_op(graph, &mut socs, &mut sums, |name, t, d| {
                rec.span(i, TID_CALLER, name, t, d)
            });
            rec.span(i, TID_CALLER, "serve", start, start.elapsed().as_secs_f64());
            r
        });
        let hits: u64 = socs
            .iter()
            .map(|s| s.session.stats().cache_hits)
            .sum::<u64>()
            - hits_before;
        let probes: u64 =
            socs.iter().map(|s| s.session.stats().frames).sum::<u64>() - probes_before;

        let mut rung_s = Vec::new();
        for soc in &socs {
            for rung in soc.ladder.iter() {
                let t = Instant::now();
                uruntime::execute_plan(&soc.spec, graph, &rung.plan)?;
                rung_s.push(t.elapsed().as_secs_f64());
            }
        }

        let n = traced.len();
        out.set("setup.weights_ms", stage(&setups, 1) * 1e3, SETUP_REPS);
        out.set(
            "ulayer.plancache.miss_ms",
            stage(&setups, 2) * 1e3,
            SETUP_REPS,
        );
        out.set(
            "ulayer.plancache.probe_us",
            sums.probe_s / sums.probes.max(1) as f64 * 1e6,
            n,
        );
        out.set(
            "ulayer.plancache.hit_rate",
            hits as f64 / probes.max(1) as f64,
            n,
        );
        out.set(
            "uruntime.serve.admit_us_per_frame",
            sums.serve_s / sums.frames.max(1) as f64 * 1e6,
            n,
        );
        out.set(
            "uruntime.engine.rung_exec_ms",
            rung_s.iter().sum::<f64>() / rung_s.len().max(1) as f64 * 1e3,
            rung_s.len(),
        );
        let walls = |ops: &[(f64, u64)]| ops.iter().map(|o| o.0).collect::<Vec<_>>();
        out.set(
            "trace.overhead_pct",
            overhead_pct(&walls(&base), &walls(&traced)),
            n,
        );
        fleet_layer(args.seed, budget / 3, &mut next, &mut rec, out)?;
        crate::write_trace(args, &rec, out)?;
        Ok(())
    })
}

/// The fleet layer, measured in serve-overload's traced run for the
/// last `budget`: `run_fleet` on SqueezeNet with the mixed Exynos
/// cohorts under the `ThrottleWave` storm, plan cache on, FIFO order. It
/// bypasses the planner session and `serve_stream`, so it shows whether
/// a serving change moved the fleet's own event loop.
fn fleet_layer(
    seed: u64,
    budget: Duration,
    next: &mut usize,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> Res<()> {
    let mut builds = Vec::new();
    let mut fleet = None;
    for _ in 0..SETUP_REPS {
        drop(fleet.take());
        let graph = ModelId::SqueezeNet.build();
        let weights = Weights::random(&graph, seed)?;
        let net = FleetNetwork::new("squeezenet", graph, weights);
        let mut build_s = 0.0;
        let mut cohorts = Vec::new();
        for spec in SocSpec::evaluated() {
            let ladder = ULayer::new(spec.clone())?.degradation_ladder(&net.graph, None)?;
            let t = Instant::now();
            cohorts.push(FleetCohort::build(&spec, &net.graph, &ladder)?);
            build_s += t.elapsed().as_secs_f64();
        }
        builds.push(build_s);
        fleet = Some((net, cohorts));
    }
    let (net, cohorts) = fleet.expect("SETUP_REPS >= 1");
    let cfg = FleetConfig {
        devices: FLEET_DEVICES,
        frames: FLEET_FRAMES,
        seed,
        arrivals: ArrivalKind::Bursty,
        mean_interval: SimSpan::ZERO,
        deadline: SimSpan::ZERO,
        queue_capacity: SERVE_QUEUE,
        order: TieOrder::Fifo,
        plan_cache: true,
        ..FleetConfig::default()
    };
    let adapter = || -> Box<dyn InstanceAdapter> { Box::new(ulayer::DriftAdapter::new()) };
    let mut digest = None;
    let mut last = None;
    let ops = batch_loop(budget, next, out, |i| {
        let start = Instant::now();
        let report = uruntime::run_fleet(
            &net,
            &cohorts,
            Some(FleetScenario::ThrottleWave),
            &cfg,
            &adapter,
        )
        .map_err(|e| e.to_string())?;
        rec.span(
            i,
            TID_CALLER,
            "run_fleet",
            start,
            start.elapsed().as_secs_f64(),
        );
        report.check_invariants()?;
        let expected = (FLEET_DEVICES * FLEET_FRAMES) as u64;
        if report.offered != expected {
            return Err(format!(
                "fleet offered {} of {expected} frames",
                report.offered
            ));
        }
        same_digest(&mut digest, fnv1a(report.digest().as_bytes()))?;
        last = Some((report.plan_hit_rate(), report.queue_peak, report.throttled));
        Ok(report.offered)
    });
    let n = ops.len();
    let wall: f64 = ops.iter().map(|&(w, _)| w).sum();
    let frames: u64 = ops.iter().map(|&(_, f)| f).sum();
    out.set(
        "uruntime.fleet.cohort_build_ms",
        median(&builds) * 1e3,
        builds.len(),
    );
    out.set(
        "uruntime.fleet.us_per_frame",
        wall / frames.max(1) as f64 * 1e6,
        n,
    );
    if let Some((hit_rate, queue_peak, throttled)) = last {
        out.set("uruntime.fleet.plan_hit_rate", hit_rate, n);
        out.set("uruntime.fleet.queue_peak", queue_peak as f64, n);
        out.set("uruntime.fleet.throttled", throttled as f64, n);
    }
    Ok(())
}
