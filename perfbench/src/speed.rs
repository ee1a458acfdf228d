//! The host's current speed, measured with a fixed reference kernel run
//! between requests, and the scaling it gives to measured times.
//!
//! The benchmark runs on virtual machines that share their cores' caches
//! and memory with other tenants. Over seconds to minutes the same request
//! takes anywhere between 1× and about 1.8× its best time, and whole runs
//! can land in a slow or a fast stretch. The reference kernel — a naive
//! 2-path join over a fixed graph, materialized, sorted and rendered, all
//! code of the benchmark's own — feels those stretches much as the
//! program does: over 2.5 s windows its median follows the `paths`
//! median latency with a correlation of about 0.9 and a slope of 1.0.
//!
//! Each measured time is scaled by `NOMINAL_MS / m`, where `m` is the
//! median kernel time within ±1 s of the middle of the measurement. The
//! `adj_*` metrics and `setup_s` are such times: milliseconds (seconds)
//! at the reference speed. The kernel never calls the program, so a
//! change that makes the program X% slower makes the scaled figure X%
//! larger; only the host's drift cancels. The raw figures are printed
//! beside them. See `LAYERS.md` for the spreads measured with and without.

use std::hint::black_box;
use std::io::Write;
use std::time::{Duration, Instant};

use crate::report::Samples;

/// A typical kernel time on the machine the benchmark was calibrated on
/// (2 vCPUs of an Intel Xeon host at 2.0 GHz; 4.5 to 8 ms depending on
/// the host's state), so scaled figures there read close to raw ones.
const NOMINAL_MS: f64 = 5.0;
/// The least time between two reference runs of one thread.
const PACE: Duration = Duration::from_millis(100);
/// Reference runs within this distance of a request scale it.
const WINDOW: Duration = Duration::from_secs(1);
/// When a window holds fewer runs than this, the nearest runs are used.
const MIN_RUNS: usize = 5;
/// Kernel runs after each set-up: set-ups are few and close together, so
/// one run each would leave their scale resting on a handful of runs.
const SETUP_RUNS: usize = 3;

/// The reference kernel: a naive 2-path `E(x, y), E(y, z)` over a fixed
/// skewed graph (independent of `--seed`), with buffers of its own so the
/// program's heap does not change its cost.
pub struct Reference {
    edges: Vec<(usize, usize)>,
    starts: Vec<usize>,
    rows: Vec<[usize; 3]>,
    out: Vec<u8>,
    checksum: u64,
}

fn lcg(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *x >> 11
}

impl Reference {
    const NODES: usize = 1_500;

    pub fn new() -> Reference {
        let mut x = 0x5EED;
        let node = |x: &mut u64| {
            let r = (lcg(x) % 1_000_000) as f64 / 1e6;
            (Self::NODES as f64 * r * r * r) as usize
        };
        let mut edges: Vec<(usize, usize)> = (0..3_000)
            .map(|_| (node(&mut x), node(&mut x)))
            .filter(|(u, v)| u != v)
            .collect();
        edges.sort_unstable();
        edges.dedup();
        let mut r = Reference {
            edges,
            starts: Vec::new(),
            rows: Vec::new(),
            out: Vec::new(),
            checksum: 0,
        };
        r.checksum = r.join();
        r
    }

    /// The join: a CSR index over the sorted edges, every result row,
    /// sorted descending, rendered as tab-separated text. Returns a
    /// checksum of the text.
    fn join(&mut self) -> u64 {
        self.starts.clear();
        self.starts.resize(Self::NODES + 1, 0);
        for &(u, _) in &self.edges {
            self.starts[u + 1] += 1;
        }
        for i in 1..self.starts.len() {
            self.starts[i] += self.starts[i - 1];
        }
        self.rows.clear();
        for &(x, y) in &self.edges {
            for &(_, z) in &self.edges[self.starts[y]..self.starts[y + 1]] {
                self.rows.push([x, y, z]);
            }
        }
        self.rows.sort_unstable_by(|a, b| b.cmp(a));
        self.out.clear();
        for r in &self.rows {
            let _ = writeln!(self.out, "{}\t{}\t{}", r[0], r[1], r[2]);
        }
        self.out
            .iter()
            .fold(0u64, |h, &b| h.wrapping_mul(31).wrapping_add(u64::from(b)))
    }

    /// Runs the kernel once; its wall time in ms, or `None` if its output
    /// differed from the first run's.
    pub fn run(&mut self) -> Option<f64> {
        let t0 = Instant::now();
        let sum = black_box(self.join());
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        (sum == self.checksum).then_some(ms)
    }
}

/// One thread's reference runs, each stamped with when it ran.
#[derive(Default)]
pub struct SpeedLog {
    runs: Vec<(Instant, f64)>,
    last: Option<Instant>,
    pub bad: u64,
}

impl SpeedLog {
    /// Runs the kernel unless this log ran it less than [`PACE`] ago.
    pub fn paced(&mut self, kernel: &mut Reference) {
        if self.last.is_some_and(|t| t.elapsed() < PACE) {
            return;
        }
        self.sample(kernel);
    }

    /// Runs the kernel [`SETUP_RUNS`] times.
    pub fn after_setup(&mut self, kernel: &mut Reference) {
        for _ in 0..SETUP_RUNS {
            self.sample(kernel);
        }
    }

    /// Runs the kernel now.
    pub fn sample(&mut self, kernel: &mut Reference) {
        let now = Instant::now();
        match kernel.run() {
            Some(ms) => self.runs.push((now, ms)),
            None => self.bad += 1,
        }
        self.last = Some(Instant::now());
    }

    pub fn merge(&mut self, other: SpeedLog) {
        self.runs.extend(other.runs);
        self.bad += other.bad;
    }

    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// The median reference time over the whole log.
    pub fn median_ms(&self) -> f64 {
        Samples::from(self.runs.iter().map(|r| r.1).collect::<Vec<_>>()).median()
    }

    /// A scaler over this log's runs.
    pub fn scale(mut self) -> Scale {
        self.runs.sort_by_key(|r| r.0);
        Scale { runs: self.runs }
    }
}

/// Scales latencies by the reference speed around them.
pub struct Scale {
    runs: Vec<(Instant, f64)>,
}

impl Scale {
    /// `NOMINAL_MS / m`, where `m` is the median reference time within
    /// [`WINDOW`] of `at` (or of the [`MIN_RUNS`] runs nearest to it).
    pub fn factor(&self, at: Instant) -> f64 {
        if self.runs.is_empty() {
            return 1.0;
        }
        let lo = self.runs.partition_point(|r| r.0 + WINDOW < at);
        let hi = self.runs.partition_point(|r| r.0 <= at + WINDOW);
        let (lo, hi) = if hi - lo >= MIN_RUNS.min(self.runs.len()) {
            (lo, hi)
        } else {
            let mid = self.runs.partition_point(|r| r.0 < at);
            let n = MIN_RUNS.min(self.runs.len());
            let lo = mid.saturating_sub(n / 2).min(self.runs.len() - n);
            (lo, lo + n)
        };
        let near = Samples::from(self.runs[lo..hi].iter().map(|r| r.1).collect::<Vec<_>>());
        NOMINAL_MS / near.median()
    }

    /// `value` measured over `[start, end]`, scaled by the speed at its
    /// middle.
    pub fn adjust(&self, value: f64, start: Instant, end: Instant) -> f64 {
        value * self.factor(start + (end - start) / 2)
    }
}

/// Measurements, each with the interval it was taken over.
#[derive(Default)]
pub struct Stamped(Vec<(Instant, Instant, f64)>);

impl Stamped {
    pub fn push(&mut self, start: Instant, end: Instant, value: f64) {
        self.0.push((start, end, value));
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn raw(&self) -> Samples {
        Samples::from(self.0.iter().map(|m| m.2).collect::<Vec<_>>())
    }

    pub fn adjusted(&self, scale: &Scale) -> Samples {
        Samples::from(
            self.0
                .iter()
                .map(|&(start, end, v)| scale.adjust(v, start, end))
                .collect::<Vec<_>>(),
        )
    }
}
