//! Results of one run: every metric with its unit and sample count, the
//! output-check verdict, and the one-line JSON record.

use std::fmt::Write as _;

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json` and the benchmark's README.
    pub name: String,
    /// The value; NaN when the workload gives the metric nothing to
    /// measure.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples the value rests on.
    pub samples: u64,
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (requests sent, writes sent, checks run).
    pub attempted: u64,
    /// Operations that failed, were refused, or failed an output check.
    pub failed: u64,
    /// What each failure was (capped; the count is in `failed`).
    pub failures: Vec<String>,
    /// Every metric the run measured.
    pub metrics: Vec<Metric>,
    /// Free-form lines printed before the metrics (reconciliation).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: u64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Records one failed operation or check.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(why.into());
        }
    }

    /// Whether every operation succeeded and every output check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The named metric's value.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The human-readable report: one line per metric with unit and
    /// sample count.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for note in &self.notes {
            let _ = writeln!(out, "{note}");
        }
        for m in &self.metrics {
            if m.value.is_finite() {
                let _ = writeln!(
                    out,
                    "  {:<32} {:>14.4} {:<10} n={}",
                    m.name, m.value, m.unit, m.samples
                );
            } else {
                let _ = writeln!(
                    out,
                    "  {:<32} {:>14} {:<10} (no work on this workload)",
                    m.name, "n/a", m.unit
                );
            }
        }
        for failure in &self.failures {
            let _ = writeln!(out, "  FAILED: {failure}");
        }
        out
    }

    /// The final JSON record, reporting exactly `names`.
    pub fn json(&self, names: &[&str]) -> String {
        let mut metrics = String::new();
        for (i, name) in names.iter().enumerate() {
            let (value, unit) = self
                .metrics
                .iter()
                .find(|m| m.name == *name)
                .map_or((f64::NAN, ""), |m| (m.value, m.unit));
            let value = if value.is_finite() {
                format!("{value}")
            } else {
                "null".to_string()
            };
            let _ = write!(
                metrics,
                "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
                if i == 0 { "" } else { ", " }
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}
