//! The host-speed reference: a fixed loop of the benchmark's own,
//! timed on as many threads as the workload uses. The development host's
//! speed drifts by a fifth or more over minutes, longer than a run, and
//! that drift moves every timing of a run together (`METRICS.md` shows
//! it).
//! The timing metrics are therefore reported at the reference's nominal
//! speed: measured × [`NOMINAL_S`] ÷ the reference's 1st percentile in
//! the same run. The reference runs only in bursts while the program
//! under test has no thread alive (before the first set-up, between
//! set-ups and after the last operation), so that nothing the program
//! does can slow it or speed it up.

use std::hint::black_box;
use std::sync::Barrier;
use std::time::Instant;

use crate::report::p1;

/// Reference samples per burst.
const BURST: usize = 48;
/// 16-lane rows of each of the two input arrays of a thread (2 × 64 KiB,
/// so the loop runs from the L2 cache).
const ROWS: usize = 1024;
/// Passes over the arrays per sample: about 1 ms on the development host.
const PASSES: usize = 500;
/// Best-case seconds of one sample on the development host with one
/// thread; two threads read about 10% more. Fixed, so that a metric
/// keeps its meaning across runs: only the measured reference moves.
pub const NOMINAL_S: f64 = 1.0e-3;

/// One cache line of inputs: the alignment keeps every run's loads
/// alike, whatever address the allocator returns.
#[derive(Clone, Copy)]
#[repr(align(64))]
struct Row([f32; 16]);

/// The reference of one run: its inputs and its samples so far.
pub struct Reference {
    threads: usize,
    a: Vec<Row>,
    b: Vec<Row>,
    samples: Vec<f64>,
}

/// One thread's share of a sample: [`PASSES`] dot products of two
/// arrays in 16 independent lanes. Returns the sum so that the work is
/// not optimized away.
fn kernel(a: &[Row], b: &[Row]) -> f32 {
    let mut acc = [0.0f32; 16];
    for _ in 0..PASSES {
        for (x, y) in black_box(a).iter().zip(black_box(b)) {
            for ((lane, x), y) in acc.iter_mut().zip(&x.0).zip(&y.0) {
                *lane += x * y;
            }
        }
    }
    acc.iter().sum()
}

impl Reference {
    /// A reference timed on `threads` threads at once.
    pub fn new(threads: usize) -> Reference {
        let row = |i: usize, m: usize| Row(std::array::from_fn(|j| ((i + j) % m) as f32 * 0.25));
        Reference {
            threads: threads.max(1),
            a: (0..ROWS).map(|i| row(i, 7)).collect(),
            b: (0..ROWS).map(|i| row(i, 5)).collect(),
            samples: Vec::new(),
        }
    }

    /// Runs [`BURST`] samples. Each sample starts its threads together
    /// and takes the slowest thread's time. Call only while the program
    /// under test has no thread alive.
    pub fn burst(&mut self) {
        let (a, b) = (&self.a[..], &self.b[..]);
        for _ in 0..BURST {
            let start = Barrier::new(self.threads);
            let slowest = std::thread::scope(|s| {
                let handles: Vec<_> = (0..self.threads)
                    .map(|_| {
                        s.spawn(|| {
                            start.wait();
                            let t = Instant::now();
                            black_box(kernel(a, b));
                            t.elapsed().as_secs_f64()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("the reference loop does not panic"))
                    .fold(0.0, f64::max)
            });
            self.samples.push(slowest);
        }
    }

    /// The 1st-percentile sample in seconds and the sample count; `None`
    /// before the first burst.
    pub fn best(&self) -> Option<(f64, usize)> {
        (!self.samples.is_empty()).then(|| (p1(&self.samples), self.samples.len()))
    }
}
