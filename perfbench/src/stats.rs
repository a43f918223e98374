//! Order statistics, with the same quartile rule as Python's
//! `statistics.quantiles(values, n=4)` (the "exclusive" method), so a
//! quartile printed here matches one recomputed from the raw samples.

/// A sample's median, quartiles and size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// An exact value (a count or a single measurement): every quantile is
    /// the value itself.
    pub fn exact(value: f64) -> Summary {
        Summary {
            median: value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    /// Summarise a sample; an empty sample summarises as 0 with `n = 0`.
    pub fn of(values: &[f64]) -> Summary {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            median: quantile(&sorted, 1, 2),
            q1: quantile(&sorted, 1, 4),
            q3: quantile(&sorted, 3, 4),
            n: sorted.len(),
        }
    }
}

/// The `i`-th of the `n`-quantiles of an ascending sample, by the
/// exclusive method: position `i·(len+1)/n`, interpolated between its
/// neighbours (and extrapolated past the ends, as Python does).
pub fn quantile(sorted: &[f64], i: usize, n: usize) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        len => {
            let m = len + 1;
            let j = (i * m / n).clamp(1, len - 1);
            let delta = (i * m) as f64 - (j * n) as f64;
            (sorted[j - 1] * (n as f64 - delta) + sorted[j] * delta) / n as f64
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
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
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&values);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([5, 1], n=4) == [0.0, 3.0, 6.0]
        let s = Summary::of(&[5.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.0, 3.0, 6.0));
    }
}
