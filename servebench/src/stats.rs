//! Small statistics helpers: quantiles of raw samples, the server's
//! exported histograms, and process/disk facts read from the OS.

use std::path::Path;

/// The `q` quantile (nearest rank) of `samples`, which it sorts.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.sort_unstable_by(|a, b| a.total_cmp(b));
    let rank = ((samples.len() as f64 * q).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// Median of a few repeated measurements.
pub fn median(mut values: Vec<f64>) -> f64 {
    quantile(&mut values, 0.5)
}

/// Peak resident set (`VmHWM`) of this process, MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

const FAMILY: &str = "spgraph_request_latency_seconds";

/// One latency histogram as the server exports it on `/metrics`:
/// cumulative bucket counts by upper bound (µs).
#[derive(Debug, Clone, Default)]
pub struct ExportedHistogram {
    /// `(upper bound µs, cumulative count)`, the `+Inf` bucket last.
    pub buckets: Vec<(f64, u64)>,
    /// Observations.
    pub count: u64,
}

impl ExportedHistogram {
    /// Parses the `spgraph_request_latency_seconds` family for request
    /// `type` out of a Prometheus text exposition.
    pub fn parse(exposition: &str, request_type: &str) -> ExportedHistogram {
        let label = format!("type=\"{request_type}\"");
        let mut out = ExportedHistogram::default();
        for line in exposition.lines() {
            if !line.starts_with(FAMILY) || !line.contains(&label) {
                continue;
            }
            let Some((series, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let Ok(value) = value.parse::<f64>() else {
                continue;
            };
            if series.contains("_bucket{") {
                let le = series
                    .split("le=\"")
                    .nth(1)
                    .and_then(|rest| rest.split('"').next())
                    .unwrap_or("+Inf");
                let bound = le.parse::<f64>().map_or(f64::INFINITY, |s| s * 1e6);
                out.buckets.push((bound, value as u64));
            } else if series.contains("_count{") {
                out.count = value as u64;
            }
        }
        out
    }

    /// The observations made since `earlier` was read.
    pub fn minus(&self, earlier: &ExportedHistogram) -> ExportedHistogram {
        let buckets = self
            .buckets
            .iter()
            .map(|&(bound, cumulative)| {
                let before = earlier
                    .buckets
                    .iter()
                    .find(|&&(b, _)| b == bound)
                    .map_or(0, |&(_, c)| c);
                (bound, cumulative.saturating_sub(before))
            })
            .collect();
        ExportedHistogram {
            buckets,
            count: self.count.saturating_sub(earlier.count),
        }
    }

    /// The `q` quantile in µs, interpolated linearly inside the bucket it
    /// falls in (the same estimate Prometheus' `histogram_quantile`
    /// makes). NaN when empty.
    pub fn quantile_us(&self, q: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        let rank = q * self.count as f64;
        let mut lower = (0.0, 0u64);
        for &(bound, cumulative) in &self.buckets {
            if cumulative as f64 >= rank {
                if !bound.is_finite() {
                    return lower.0;
                }
                let inside = (cumulative - lower.1) as f64;
                let share = if inside > 0.0 {
                    (rank - lower.1 as f64) / inside
                } else {
                    1.0
                };
                return lower.0 + (bound - lower.0) * share;
            }
            lower = (bound, cumulative);
        }
        lower.0
    }
}

/// Reads one unlabelled counter out of a Prometheus text exposition.
pub fn exported_counter(exposition: &str, name: &str) -> f64 {
    exposition
        .lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
        .and_then(|value| value.trim().parse().ok())
        .unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn histogram_interpolates_inside_a_bucket() {
        let text = "\
spgraph_request_latency_seconds_bucket{type=\"query\",le=\"0.00001\"} 50
spgraph_request_latency_seconds_bucket{type=\"query\",le=\"0.000025\"} 100
spgraph_request_latency_seconds_bucket{type=\"query\",le=\"+Inf\"} 100
spgraph_request_latency_seconds_count{type=\"query\"} 100
spgraph_request_latency_seconds_count{type=\"write\"} 7
";
        let h = ExportedHistogram::parse(text, "query");
        assert_eq!(h.count, 100);
        assert!((h.quantile_us(0.25) - 5.0).abs() < 1e-9);
        assert!((h.quantile_us(0.75) - 17.5).abs() < 1e-9);
        assert_eq!(exported_counter("a_total 3\nb_total 4\n", "b_total"), 4.0);
    }
}

/// Samples binned into fixed windows of a timed phase, so a run reports
/// the median window rather than letting a burst of host noise in one
/// part of the run move the whole figure.
#[derive(Debug, Clone)]
pub struct Windows {
    start: std::time::Instant,
    width_ns: u128,
    width_s: f64,
    /// Samples per window.
    pub bins: Vec<Vec<f64>>,
}

/// Medians over a phase's windows.
#[derive(Debug, Clone, Copy)]
pub struct WindowSummary {
    /// Median of the windows' samples per second.
    pub per_s: f64,
    /// Median of the windows' medians.
    pub p50: f64,
    /// Median of the windows' 99th percentiles.
    pub p99: f64,
    /// Samples in all windows.
    pub samples: u64,
}

impl Windows {
    /// `count` windows of `width_s` seconds from `start`.
    pub fn new(start: std::time::Instant, width_s: f64, count: usize) -> Windows {
        Windows {
            start,
            width_ns: (width_s * 1e9) as u128,
            width_s,
            bins: vec![Vec::new(); count.max(1)],
        }
    }

    /// Bins `value` by the instant `at` it belongs to; instants past the
    /// last window are dropped.
    pub fn record(&mut self, at: std::time::Instant, value: f64) {
        let offset = at.saturating_duration_since(self.start).as_nanos();
        if let Some(bin) = self.bins.get_mut((offset / self.width_ns) as usize) {
            bin.push(value);
        }
    }

    /// Every thread's windows pooled (same start and width), or `None`
    /// when there are none.
    pub fn merged<'a>(parts: impl IntoIterator<Item = &'a Windows>) -> Option<Windows> {
        let mut parts = parts.into_iter();
        let mut all = parts.next()?.clone();
        for part in parts {
            for (bin, more) in all.bins.iter_mut().zip(&part.bins) {
                bin.extend_from_slice(more);
            }
        }
        Some(all)
    }

    /// Median rate, median and 99th percentile over the windows.
    pub fn summary(&self) -> WindowSummary {
        let mut rates = Vec::new();
        let mut p50s = Vec::new();
        let mut p99s = Vec::new();
        let mut samples = 0;
        for bin in &self.bins {
            samples += bin.len() as u64;
            rates.push(bin.len() as f64 / self.width_s);
            if !bin.is_empty() {
                let mut bin = bin.clone();
                p50s.push(quantile(&mut bin, 0.5));
                p99s.push(quantile(&mut bin, 0.99));
            }
        }
        WindowSummary {
            per_s: median(rates),
            p50: median(p50s),
            p99: median(p99s),
            samples,
        }
    }
}
