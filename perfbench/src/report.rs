//! Samples, percentiles, and the run's printed result.
//!
//! A run prints a human-readable report (one metric per line, with its
//! unit and, for percentiles, the sample count) and then, as its last
//! line, the one JSON object the benchmark contract asks for:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! JSON carries the end-to-end metrics, with `--trace 1` the per-layer
//! ones.

use std::fs;

/// A bag of measurements (milliseconds unless stated otherwise).
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    /// Nearest-rank quantile (`q` in `0..=1`); 0 for an empty bag.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = (q * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }
}

impl From<Vec<f64>> for Samples {
    fn from(v: Vec<f64>) -> Self {
        Samples(v)
    }
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One named metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count behind a percentile or median, when there is one.
    pub samples: Option<usize>,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// The gated end-to-end metrics (`BENCHMARK.json` `end_to_end`).
    pub end_to_end: Vec<Metric>,
    /// The remaining end-to-end figures, printed but not gated: their
    /// spread between runs on a shared machine is wider than any bound
    /// the gate allows (see `LAYERS.md`).
    pub figures: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Informational lines (input sizes, ungated figures, notes).
    pub info: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str, n: Option<usize>) {
        self.end_to_end.push(Metric {
            name,
            value,
            unit,
            samples: n,
        });
    }

    pub fn figure(&mut self, name: &'static str, value: f64, unit: &'static str, n: Option<usize>) {
        self.figures.push(Metric {
            name,
            value,
            unit,
            samples: n,
        });
    }

    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric {
            name,
            value,
            unit,
            samples: None,
        });
    }

    pub fn info(&mut self, line: impl Into<String>) {
        self.info.push(line.into());
    }

    /// Counts one checked operation, failed or not.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Prints the report and the final JSON line.
    pub fn print(&self, trace: bool) {
        for line in &self.info {
            println!("# {line}");
        }
        println!(
            "# failed_frac = {} ({} failed / {} attempted)",
            ratio(self.failed as f64, self.attempted as f64),
            self.failed,
            self.attempted
        );
        let lists = [
            ("figure", &self.figures),
            ("end_to_end", &self.end_to_end),
            ("per_layer", &self.per_layer),
        ];
        for (kind, metrics) in lists {
            for m in metrics.iter() {
                let n = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
                println!("# {kind} {} = {} {}{n}", m.name, m.value, m.unit);
            }
        }
        let chosen = if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let metrics: Vec<String> = chosen
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// A finite JSON number (non-finite values print as 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The process's peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
