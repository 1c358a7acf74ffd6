//! The benchmark's own arithmetic, kept apart from anything that runs so
//! it can be tested on known data: nearest-rank percentiles and the
//! sample floor behind a tail percentile, medians, the geomean behind
//! `sim_mips`, the failure tally behind `ok_frac`, and metric-name
//! validity.

/// Samples a tail percentile needs beyond its rank before it is
/// reported: a p90 needs 100 samples, a p99 needs 1000.
pub const MIN_BEYOND_TAIL: usize = 10;

/// Nearest-rank percentile (`pct` in 1..=100): the smallest sample with
/// at least `pct` percent of all samples at or below it.
pub fn nearest_rank(values: &[f64], pct: u32) -> Option<f64> {
    if values.is_empty() || pct == 0 || pct > 100 {
        return None;
    }
    let sorted = sorted(values);
    let rank = (pct as usize * sorted.len()).div_ceil(100);
    Some(sorted[rank - 1])
}

/// A tail percentile, refused unless at least [`MIN_BEYOND_TAIL`]
/// samples lie beyond its rank.
pub fn tail_percentile(values: &[f64], pct: u32) -> Result<f64, String> {
    if pct == 0 || pct > 100 {
        return Err(format!("p{pct} is not a percentile"));
    }
    let n = values.len();
    let beyond = n - (pct as usize * n).div_ceil(100);
    if beyond < MIN_BEYOND_TAIL {
        return Err(format!(
            "p{pct} needs {MIN_BEYOND_TAIL} samples beyond it; {n} samples leave {beyond}"
        ));
    }
    nearest_rank(values, pct).ok_or_else(|| "no samples".to_string())
}

/// The median (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let s = sorted(values);
    let m = s.len() / 2;
    Some(if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    })
}

/// The geometric mean of strictly positive, finite values.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| !v.is_finite() || *v <= 0.0) {
        return None;
    }
    Some((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

/// Latency percentiles of a batch class whose samples come from cells of
/// very different lengths, where a percentile over the pooled samples
/// would jump between cells from run to run. p50 is the geomean over
/// cells of each cell's p50; p90 scales it by the p90 of every sample
/// divided by its own cell's p50, a pool that must carry ten samples
/// beyond its p90.
pub fn cell_latency(per_cell: &[Vec<f64>]) -> Result<(f64, f64), String> {
    let p50s: Vec<f64> = per_cell
        .iter()
        .map(|s| nearest_rank(s, 50).unwrap_or(f64::NAN))
        .collect();
    let typical = geomean(&p50s).ok_or("a cell has no positive samples")?;
    let relative: Vec<f64> = per_cell
        .iter()
        .zip(&p50s)
        .flat_map(|(s, m)| s.iter().map(move |x| x / m))
        .collect();
    Ok((typical, typical * tail_percentile(&relative, 90)?))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// How one measured operation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Completed, and its result matched the reference.
    Ok,
    /// No response: connect, write or read failed.
    Transport,
    /// A response with a status other than 200.
    Status(u16),
    /// An in-process run returned an error.
    Error,
    /// Completed, but the result differs from the reference.
    Mismatch,
}

/// Operations attempted and failed; every outcome but [`Outcome::Ok`]
/// is a failure.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that did not end [`Outcome::Ok`].
    pub failed: u64,
}

impl Tally {
    /// Counts one operation.
    pub fn record(&mut self, outcome: Outcome) {
        self.attempted += 1;
        if outcome != Outcome::Ok {
            self.failed += 1;
        }
    }

    /// Operations that succeeded.
    pub fn ok(&self) -> u64 {
        self.attempted - self.failed
    }

    /// Failed ÷ attempted; with nothing attempted, nothing succeeded.
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// A metric name: 1 to 64 letters, digits, `_`, `.` and `-`, starting
/// with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_smallest_sample_covering_the_rank() {
        let v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50), Some(5.0));
        assert_eq!(nearest_rank(&v, 90), Some(9.0));
        assert_eq!(nearest_rank(&v, 91), Some(10.0));
        assert_eq!(nearest_rank(&v, 100), Some(10.0));
        assert_eq!(nearest_rank(&v, 1), Some(1.0));
        assert_eq!(nearest_rank(&[7.0], 50), Some(7.0));
        assert_eq!(nearest_rank(&[], 50), None);
        assert_eq!(nearest_rank(&v, 0), None);
        assert_eq!(nearest_rank(&v, 101), None);
    }

    #[test]
    fn p90_is_refused_below_one_hundred_samples() {
        let v: Vec<f64> = (0..99).map(f64::from).collect();
        assert!(tail_percentile(&v, 90).is_err());
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 90), Ok(89.0));
        let v: Vec<f64> = (0..999).map(f64::from).collect();
        assert!(tail_percentile(&v, 99).is_err());
        assert!(tail_percentile(&v, 50).is_ok());
        assert!(tail_percentile(&[], 50).is_err());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn geomean_behind_sim_mips() {
        let g = geomean(&[1.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-12, "{g}");
        let g = geomean(&[2.0, 8.0, 4.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12, "{g}");
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, f64::NAN]), None);
    }

    #[test]
    fn cell_latency_is_the_typical_cell_scaled_by_the_pooled_tail() {
        // Two cells 100x apart, each with 50 samples spread 1.0..1.49x
        // around its own p50 of 1.24x.
        let cell =
            |base: f64| -> Vec<f64> { (0..50).map(|i| base * (1.0 + i as f64 / 100.0)).collect() };
        let (p50, p90) = cell_latency(&[cell(1.0), cell(100.0)]).unwrap();
        assert!((p50 - 10.0 * 1.24).abs() < 1e-9, "{p50}");
        // The pooled relative p90 is the 45th of 50 in each cell.
        assert!((p90 / p50 - 1.44 / 1.24).abs() < 1e-9, "{p90}");
        assert!(
            cell_latency(&[cell(1.0)]).is_err(),
            "50 samples cannot back a p90"
        );
        assert!(cell_latency(&[cell(1.0), vec![]]).is_err());
    }

    #[test]
    fn transport_errors_and_non_200_responses_are_failures() {
        let mut t = Tally::default();
        for o in [
            Outcome::Ok,
            Outcome::Transport,
            Outcome::Status(503),
            Outcome::Status(429),
            Outcome::Mismatch,
            Outcome::Error,
            Outcome::Ok,
            Outcome::Ok,
        ] {
            t.record(o);
        }
        assert_eq!(t.attempted, 8);
        assert_eq!(t.failed, 5);
        assert_eq!(t.ok(), 3);
        assert!((t.fail_frac() - 5.0 / 8.0).abs() < 1e-12);
        assert_eq!(Tally::default().fail_frac(), 1.0);
    }

    #[test]
    fn metric_names_are_letters_digits_and_three_marks() {
        for ok in [
            "setup_s",
            "cpu.ns_per_inst",
            "gen.late_ms_p99",
            "9lives",
            "a-b",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".x",
            "has space",
            "slash/name",
            "é",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
    }
}
