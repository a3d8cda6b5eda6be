//! Small measurement helpers: sample quantiles, process memory, and a
//! reader for the program's Prometheus `/metrics` text.

use std::collections::BTreeMap;

/// The `q`-quantile of `values` by the nearest-rank method (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank - 1]
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// A `/proc/self/status` field in kB (`VmRSS`, `VmHWM`), 0 if unreadable.
pub fn proc_status_kb(field: &str) -> f64 {
    let Ok(text) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    text.lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// Resets the process's `VmHWM` to its current RSS (Linux 4.0 and
/// later); false if the kernel refused.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// CPU time the calling thread has run, in seconds, from
/// `/proc/thread-self/schedstat` (nanosecond resolution). On a guest
/// kernel with paravirtual steal-time accounting this leaves out the time
/// the hypervisor ran someone else, which wall time does not.
pub fn thread_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|text| text.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |ns| ns / 1e9)
}

/// CPU time run so far by the threads of this process that are alive now,
/// in seconds (each thread's `schedstat`, steal left out as above).
/// Threads spawned and joined between two calls, such as the generator's,
/// count in neither.
pub fn live_threads_cpu_s() -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    tasks
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("schedstat")).ok())
        .filter_map(|text| text.split_whitespace().next()?.parse::<f64>().ok())
        .sum::<f64>()
        / 1e9
}

/// One scrape of a Prometheus text exposition: plain samples by full name
/// (labels included) and histogram buckets by series.
#[derive(Debug, Clone, Default)]
pub struct Scrape {
    samples: BTreeMap<String, f64>,
}

/// A histogram assembled from one or more scraped series (per-bucket
/// counts keyed by upper bound, plus sum and count).
#[derive(Debug, Clone, Default)]
pub struct Hist {
    buckets: BTreeMap<u64, (f64, f64)>,
    /// Sum of observations.
    pub sum: f64,
    /// Number of observations.
    pub count: f64,
}

impl Scrape {
    /// Parses Prometheus text (`name{labels} value` lines; comments skipped).
    pub fn parse(text: &str) -> Scrape {
        let mut samples = BTreeMap::new();
        for line in text.lines() {
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            if let Some((name, value)) = line.rsplit_once(' ') {
                if let Ok(v) = value.parse::<f64>() {
                    samples.insert(name.to_owned(), v);
                }
            }
        }
        Scrape { samples }
    }

    /// Sum of every sample of `base` over all its label sets.
    pub fn total(&self, base: &str) -> f64 {
        self.samples
            .iter()
            .filter(|(name, _)| matches(name, base, &[]))
            .map(|(_, v)| v)
            .sum()
    }

    /// The histogram `base` summed over all series matching `labels`.
    pub fn hist(&self, base: &str, labels: &[&str]) -> Hist {
        let mut hist = Hist::default();
        let bucket = format!("{base}_bucket");
        // Cumulative counts per series, then differenced into buckets.
        let mut series: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
        for (name, &v) in &self.samples {
            if matches(name, &bucket, labels) {
                let (head, le) = name
                    .rsplit_once(",le=\"")
                    .or_else(|| name.rsplit_once("{le=\""))
                    .expect("bucket line carries le");
                let le = le.trim_end_matches("\"}");
                let le = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().unwrap_or(f64::INFINITY)
                };
                series.entry(head.to_owned()).or_default().push((le, v));
            } else if matches(name, &format!("{base}_sum"), labels) {
                hist.sum += v;
            } else if matches(name, &format!("{base}_count"), labels) {
                hist.count += v;
            }
        }
        for mut points in series.into_values() {
            points.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut below = 0.0;
            for (le, cum) in points {
                let entry = hist.buckets.entry(le.to_bits()).or_insert((le, 0.0));
                entry.1 += cum - below;
                below = cum;
            }
        }
        hist
    }
}

fn matches(name: &str, base: &str, labels: &[&str]) -> bool {
    let (head, rest) = match name.split_once('{') {
        Some((head, rest)) => (head, rest),
        None => (name, ""),
    };
    head == base && labels.iter().all(|l| rest.contains(l))
}

impl Hist {
    /// Adds `other`'s observations to `self`.
    pub fn absorb(&mut self, other: Hist) {
        for (key, (le, n)) in other.buckets {
            self.buckets.entry(key).or_insert((le, 0.0)).1 += n;
        }
        self.sum += other.sum;
        self.count += other.count;
    }

    /// `self − before`: the observations made between two scrapes.
    pub fn since(&self, before: &Hist) -> Hist {
        let mut out = self.clone();
        for (key, (_, n)) in &before.buckets {
            if let Some(entry) = out.buckets.get_mut(key) {
                entry.1 -= n;
            }
        }
        out.sum -= before.sum;
        out.count -= before.count;
        out
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count > 0.0 {
            self.sum / self.count
        } else {
            0.0
        }
    }

    /// The `q`-quantile, interpolated linearly inside the log₂ bucket that
    /// holds it (the program's own `Histogram::quantile` rule).
    pub fn quantile(&self, q: f64) -> f64 {
        let mut bounds: Vec<(f64, f64)> = self.buckets.values().copied().collect();
        bounds.sort_by(|a, b| a.0.total_cmp(&b.0));
        let total: f64 = bounds.iter().map(|b| b.1).sum();
        if total <= 0.0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * total).ceil().max(1.0);
        let mut cum = 0.0;
        let mut finite = 0.0;
        for (le, n) in bounds {
            if n <= 0.0 {
                continue;
            }
            let below = cum;
            cum += n;
            if cum >= rank {
                // The unbounded top bucket reports the largest finite bound.
                if le.is_infinite() {
                    return finite;
                }
                let lower = le / 2.0;
                return lower + (le - lower) * (rank - below) / n;
            }
            finite = le;
        }
        0.0
    }
}
