//! The harness's own arithmetic: percentiles with the sample-count rule,
//! medians, the failure tally, peak RSS.

/// Samples that must lie beyond a reported percentile.
pub const BEYOND: usize = 10;

/// Why a percentile was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TooFewSamples {
    /// The requested quantile.
    pub q_per_mille: u32,
    /// Samples available.
    pub have: usize,
    /// Samples needed for [`BEYOND`] of them to lie past the rank.
    pub need: usize,
}

impl std::fmt::Display for TooFewSamples {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "p{} needs {} samples so that {BEYOND} lie beyond it, have {}; run longer",
            self.q_per_mille as f64 / 10.0,
            self.need,
            self.have
        )
    }
}

/// The nearest-rank `q`-quantile (`q` in per mille: 500, 900, 990) of
/// ascending `sorted`, refused unless at least [`BEYOND`] samples lie
/// strictly beyond the chosen rank.
pub fn percentile(sorted: &[u64], q_per_mille: u32) -> Result<u64, TooFewSamples> {
    let n = sorted.len();
    // 1-based nearest rank: ceil(q · n).
    let rank = (n * q_per_mille as usize).div_ceil(1000).max(1);
    if n < rank + BEYOND {
        let need = (BEYOND * 1000).div_ceil(1000 - q_per_mille as usize);
        return Err(TooFewSamples {
            q_per_mille,
            have: n,
            need,
        });
    }
    Ok(sorted[rank - 1])
}

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Attempted and failed operations. A refusal, a serving error, a caught
/// panic and a wrong answer each count as one failed *attempt*, so
/// `failed_share` is over everything tried, not over what was served.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Of those: refused, errored, panicked or answered wrongly.
    pub failed: u64,
}

impl Tally {
    /// Count one operation.
    pub fn record(&mut self, failed: bool) {
        self.attempted += 1;
        self.failed += failed as u64;
    }

    /// `failed / attempted` (0 for an empty tally).
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` does not say.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_keeps_ten_samples_beyond_or_refuses() {
        let v: Vec<u64> = (1..=100).collect();
        // p90 of 100: rank 90, exactly 10 beyond.
        assert_eq!(percentile(&v, 900), Ok(90));
        assert_eq!(percentile(&v, 500), Ok(50));
        // p99 of 100: rank 99, one beyond — refused, needs 1000.
        let e = percentile(&v, 990).unwrap_err();
        assert_eq!((e.have, e.need), (100, 1000));
        // 99 samples: p90 rank 90, 9 beyond — refused.
        assert!(percentile(&v[..99], 900).is_err());
        let big: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&big, 990), Ok(990));
        assert!(percentile(&[], 500).is_err());
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn a_refused_op_counts_as_attempted() {
        let mut t = Tally::default();
        t.record(false);
        t.record(true); // refused
        t.record(false);
        t.record(true); // wrong answer
        assert_eq!((t.attempted, t.failed), (4, 2));
        assert!((t.failed_share() - 0.5).abs() < 1e-12);
        assert_eq!(Tally::default().failed_share(), 0.0);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if let Some(m) = peak_rss_mib() {
            assert!(m > 0.0);
        }
    }
}
