//! Result assembly: percentiles, the host fingerprint, peak memory and
//! the one-line JSON result the benchmark ends with.

use std::collections::BTreeMap;

use simcore::JsonValue;

use crate::reference::{Reference, NOMINAL_S};
use crate::trace::obj;

/// Nearest-rank quantile of an ascending-sorted, non-empty sample.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Median of an unsorted sample (nearest rank); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Tracing overhead in %: the traced phase's 1st-percentile operation
/// against the untraced phase's; 0 when either phase has none.
pub fn overhead_pct(untraced: &[f64], traced: &[f64]) -> f64 {
    if untraced.is_empty() || traced.is_empty() {
        return 0.0;
    }
    (p1(traced) / p1(untraced) - 1.0) * 100.0
}

/// 1st percentile (nearest rank) of a non-empty, unsorted sample.
pub fn p1(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.01)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("parsing VmHWM: {e}"))?;
    Ok(kb / 1024.0)
}

/// What a wall-clock number depends on besides the code: comparable
/// only across runs with an identical fingerprint.
pub struct Host {
    pub parallelism: usize,
    pub cpu_features: String,
    pub kernel_path_requested: String,
    pub kernel_path: String,
    pub workers: usize,
}

impl Host {
    /// The fingerprint for a workload using `workers` compute threads
    /// with kernel path `path`.
    pub fn detect(path: ukernels::PathChoice, workers: usize) -> Host {
        Host {
            parallelism: std::thread::available_parallelism().map_or(1, |p| p.get()),
            cpu_features: ukernels::cpu_features(),
            kernel_path_requested: path.as_str().to_string(),
            kernel_path: path.resolve().as_str().to_string(),
            workers,
        }
    }

    pub fn json(&self) -> JsonValue {
        obj(vec![
            (
                "available_parallelism",
                JsonValue::Num(self.parallelism as f64),
            ),
            ("cpu_features", JsonValue::Str(self.cpu_features.clone())),
            (
                "kernel_path_requested",
                JsonValue::Str(self.kernel_path_requested.clone()),
            ),
            ("kernel_path", JsonValue::Str(self.kernel_path.clone())),
            ("workers", JsonValue::Num(self.workers as f64)),
        ])
    }

    pub fn line(&self) -> String {
        format!(
            "host: available_parallelism={} cpu_features={} kernel_path={} (requested {}) workers={}",
            self.parallelism,
            self.cpu_features,
            self.kernel_path,
            self.kernel_path_requested,
            self.workers
        )
    }
}

/// End-to-end metrics (untraced run): name and unit. Every workload
/// reports each of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("lat_p1_ms", "ms"),
    ("sim_frames_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (traced run): name and unit. A workload that does
/// not reach a layer reports 0 for it. `METRICS.md` gives each one's
/// meaning.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("uruntime.functional.self_ms", "ms"),
    ("uexec.node_ms", "ms"),
    ("uexec.dispatch_ms", "ms"),
    ("uexec.dispatch_us_per_node", "us"),
    ("uexec.imbalance_ms", "ms"),
    ("uexec.split_nodes", "count"),
    ("uexec.cpu_busy_ms", "ms"),
    ("uexec.gpu_busy_ms", "ms"),
    ("uexec.split_gain_ms", "ms"),
    ("uexec.allocs_per_inf", "count"),
    ("uexec.alloc_kb_per_inf", "KiB"),
    ("uruntime.functional.allocs_per_inf", "count"),
    ("ukernels.gemm_ms", "ms"),
    ("ukernels.pointwise_ms", "ms"),
    ("ukernels.depthwise_ms", "ms"),
    ("ukernels.other_ms", "ms"),
    ("ukernels.gemm_gmacs", "GMAC/s"),
    ("ukernels.pointwise_gmacs", "GMAC/s"),
    ("ukernels.depthwise_gmacs", "GMAC/s"),
    ("ukernels.macs_per_inf", "count"),
    ("ukernels.mbytes_per_inf", "MB"),
    ("setup.weights_ms", "ms"),
    ("setup.calibrate_ms", "ms"),
    ("ulayer.plan_ms", "ms"),
    ("uexec.spawn_ms", "ms"),
    ("setup.warmup_ms", "ms"),
    ("ulayer.plancache.probe_us", "us"),
    ("ulayer.plancache.hit_rate", "ratio"),
    ("ulayer.plancache.miss_ms", "ms"),
    ("uruntime.serve.admit_us_per_frame", "us"),
    ("uruntime.engine.rung_exec_ms", "ms"),
    ("uruntime.fleet.us_per_frame", "us"),
    ("uruntime.fleet.cohort_build_ms", "ms"),
    ("uruntime.fleet.plan_hit_rate", "ratio"),
    ("uruntime.fleet.queue_peak", "count"),
    ("uruntime.fleet.throttled", "count"),
    ("trace.overhead_pct", "%"),
];

/// The outcome of one workload run.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is not correct: failed operations and failed checks.
    pub problems: Vec<String>,
    /// Metric values with the number of samples behind each.
    values: BTreeMap<&'static str, (f64, usize)>,
    /// Printed figures outside the catalogue: name, value, unit, samples.
    notes: Vec<(&'static str, f64, &'static str, usize)>,
    pub host: Host,
}

impl Outcome {
    pub fn new(host: Host) -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            values: BTreeMap::new(),
            notes: Vec::new(),
            host,
        }
    }

    /// Sets a catalogued metric computed from `samples` samples.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|&(n, _)| n == name),
            "metric {name} is not in the catalogue"
        );
        self.values.insert(name, (value, samples));
    }

    /// Sets `lat_p1_ms` and `sim_frames_per_s` from a run's operations,
    /// each `(wall seconds, frames)`, all offering the same frames. The
    /// 1st percentile (the fastest operation when there are fewer than
    /// 100) gives the reported figures (`METRICS.md` says why).
    pub fn timings(&mut self, ops: &[(f64, u64)]) {
        let walls: Vec<f64> = ops.iter().map(|o| o.0).collect();
        if let Some(&(_, frames)) = ops.first() {
            self.best_op(p1(&walls), frames, ops.len());
        }
    }

    /// Sets `lat_p1_ms` and `sim_frames_per_s` from the best-case
    /// operation: `secs` seconds for `frames` frames, out of `n`.
    pub fn best_op(&mut self, secs: f64, frames: u64, n: usize) {
        self.set("lat_p1_ms", secs * 1e3, n);
        self.set("sim_frames_per_s", frames as f64 / secs, n);
    }

    /// Expresses `lat_p1_ms`, `sim_frames_per_s` and `setup_s` at the
    /// reference's nominal speed (`reference.rs` says why), and prints
    /// the measured figures and the reference beside them.
    pub fn at_reference_speed(&mut self, reference: &Reference) {
        let Some((best, n)) = reference.best() else {
            return;
        };
        let k = NOMINAL_S / best;
        self.notes.push(("reference_ms", best * 1e3, "ms", n));
        let scaled = [
            ("lat_p1_ms", "measured_lat_p1_ms", k),
            ("sim_frames_per_s", "measured_sim_frames_per_s", 1.0 / k),
            ("setup_s", "measured_setup_s", k),
        ];
        for (name, measured, factor) in scaled {
            let unit = END_TO_END.iter().find(|m| m.0 == name).map_or("", |m| m.1);
            if let Some(v) = self.values.get_mut(name) {
                self.notes.push((measured, v.0, unit, v.1));
                v.0 *= factor;
            }
        }
    }

    /// Prints the median, p90 and mean throughput of the operations
    /// beside the reported figures.
    pub fn tails(&mut self, ops: &[(f64, u64)]) {
        if ops.is_empty() {
            return;
        }
        let n = ops.len();
        let mut walls: Vec<f64> = ops.iter().map(|o| o.0).collect();
        walls.sort_by(f64::total_cmp);
        let frames: u64 = ops.iter().map(|o| o.1).sum();
        self.notes
            .push(("lat_p50_ms", quantile(&walls, 0.5) * 1e3, "ms", n));
        self.notes
            .push(("lat_p90_ms", quantile(&walls, 0.9) * 1e3, "ms", n));
        let mean_fps = frames as f64 / walls.iter().sum::<f64>();
        self.notes.push(("mean_frames_per_s", mean_fps, "1/s", n));
    }

    /// Records a failed operation with its reason.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.problems.push(why);
    }

    /// Records a failed check that is not an operation.
    pub fn problem(&mut self, why: String) {
        self.problems.push(why);
    }

    /// Prints the human-readable report, then the one-line JSON result
    /// as the last line of standard output: the end-to-end metrics, or
    /// the per-layer ones when `traced`.
    pub fn print(&self, workload: &str, seed: u64, traced: bool) {
        println!("workload: {workload} seed={seed} traced={traced}");
        println!("{}", self.host.line());
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        let mut metrics = Vec::with_capacity(catalogue.len());
        for &(name, unit) in catalogue {
            let (value, samples) = self.values.get(name).copied().unwrap_or((0.0, 0));
            println!("metric {name:<36} {value:>16.4} {unit:<7} (n={samples})");
            metrics.push((
                name.to_string(),
                obj(vec![
                    ("value", JsonValue::Num(value)),
                    ("unit", JsonValue::Str(unit.into())),
                ]),
            ));
        }
        for &(name, value, unit, samples) in &self.notes {
            println!("info   {name:<36} {value:>16.4} {unit:<7} (n={samples})");
        }
        for p in self.problems.iter().take(8) {
            println!("FAILED: {p}");
        }
        println!(
            "operations: attempted={} failed={}",
            self.attempted, self.failed
        );
        let correct = self.failed == 0 && self.problems.is_empty() && self.attempted > 0;
        println!(
            "{}",
            obj(vec![
                ("correct", JsonValue::Bool(correct)),
                ("attempted", JsonValue::Num(self.attempted as f64)),
                ("failed", JsonValue::Num(self.failed as f64)),
                ("metrics", JsonValue::Obj(metrics)),
            ])
            .render()
        );
    }
}
