//! The Fault Sim Report: per-pattern activation and detection statistics.

use std::collections::BTreeMap;
use std::fmt;

/// Statistics for one injected test pattern (one clock cycle at the target
/// module).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatternStats {
    /// The clock-cycle stamp of the pattern.
    pub cc: u64,
    /// Faults *activated* by the pattern (site carries the opposite of the
    /// stuck value in the good machine).
    pub activated: u32,
    /// Faults newly *detected* at the module outputs by this pattern.
    pub detected: u32,
}

/// The paper's stage-3 output: "a detailed report which contains a list of
/// each test pattern injected, the number of activated faults, and the
/// number of detected faults per pattern."
///
/// Which fault a pattern detected is recorded once, as the detection
/// stamps of the run's [`FaultList`](crate::FaultList); the report keeps
/// the counts.
///
/// # Examples
///
/// ```
/// use warpstl_fault::FaultSimReport;
///
/// let mut r = FaultSimReport::new();
/// r.record_pattern(10, 4, 1);
/// r.record_pattern(11, 3, 0);
/// assert_eq!(r.total_detected(), 1);
/// assert_eq!(r.detections_at_cc(10), 1);
/// assert_eq!(r.detections_at_cc(11), 0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSimReport {
    patterns: Vec<PatternStats>,
    by_cc: BTreeMap<u64, u32>,
    untestable: u32,
}

impl FaultSimReport {
    /// An empty report.
    #[must_use]
    pub fn new() -> FaultSimReport {
        FaultSimReport::default()
    }

    /// Appends a pattern's statistics. Patterns sharing a `cc` accumulate.
    pub fn record_pattern(&mut self, cc: u64, activated: u32, detected: u32) {
        self.patterns.push(PatternStats {
            cc,
            activated,
            detected,
        });
        if detected > 0 {
            *self.by_cc.entry(cc).or_insert(0) += detected;
        }
    }

    /// Records how many target faults the run excluded as statically
    /// proven untestable, so reports account for them explicitly instead
    /// of silently inflating the undetected count.
    pub fn set_untestable(&mut self, untestable: u32) {
        self.untestable = untestable;
    }

    /// Target faults excluded as statically proven untestable.
    #[must_use]
    pub fn untestable_count(&self) -> u32 {
        self.untestable
    }

    /// Merges another report (used when a module has several instances whose
    /// pattern streams are simulated separately).
    pub fn merge(&mut self, other: &FaultSimReport) {
        self.patterns.extend_from_slice(&other.patterns);
        for (&cc, &d) in &other.by_cc {
            *self.by_cc.entry(cc).or_insert(0) += d;
        }
        // Instances of one module share its fault universe, so the
        // untestable set is common, not additive.
        self.untestable = self.untestable.max(other.untestable);
    }

    /// Per-pattern statistics in simulation order.
    #[must_use]
    pub fn patterns(&self) -> &[PatternStats] {
        &self.patterns
    }

    /// Total newly-detected faults.
    #[must_use]
    pub fn total_detected(&self) -> u32 {
        self.by_cc.values().sum()
    }

    /// Newly-detected faults at clock cycle `cc` — the quantity the
    /// instruction-labeling algorithm queries (`FSR_cc` in the paper's
    /// Fig. 2).
    #[must_use]
    pub fn detections_at_cc(&self, cc: u64) -> u32 {
        self.by_cc.get(&cc).copied().unwrap_or(0)
    }

    /// Newly-detected faults within `[start, end)` clock cycles.
    #[must_use]
    pub fn detections_in_range(&self, start: u64, end: u64) -> u32 {
        self.by_cc.range(start..end).map(|(_, &d)| d).sum()
    }

    /// The clock cycles at which at least one fault was newly detected.
    pub fn detecting_ccs(&self) -> impl Iterator<Item = u64> + '_ {
        self.by_cc.keys().copied()
    }

    /// The cumulative detection curve: `(cc, detections so far)` at every
    /// detecting clock cycle, in time order. Divide the counts by the
    /// fault-universe size for a coverage-versus-test-time curve — the plot
    /// behind the paper's duration/coverage trade-off and the reordering
    /// extension.
    ///
    /// # Examples
    ///
    /// ```
    /// use warpstl_fault::FaultSimReport;
    ///
    /// let mut r = FaultSimReport::new();
    /// r.record_pattern(10, 1, 3);
    /// r.record_pattern(20, 1, 0);
    /// r.record_pattern(30, 1, 2);
    /// assert_eq!(r.detection_curve(), vec![(10, 3), (30, 5)]);
    /// ```
    #[must_use]
    pub fn detection_curve(&self) -> Vec<(u64, u32)> {
        let mut acc = 0u32;
        self.by_cc
            .iter()
            .map(|(&cc, &d)| {
                acc += d;
                (cc, acc)
            })
            .collect()
    }
}

impl fmt::Display for FaultSimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "# Fault Sim Report: {} patterns", self.patterns.len())?;
        writeln!(f, "# cc activated detected")?;
        for p in &self.patterns {
            writeln!(f, "{} {} {}", p.cc, p.activated, p.detected)?;
        }
        writeln!(f, "# untestable (pruned): {}", self.untestable)?;
        writeln!(f, "# total detected: {}", self.total_detected())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_queries() {
        let mut r = FaultSimReport::new();
        r.record_pattern(5, 1, 2);
        r.record_pattern(9, 1, 1);
        r.record_pattern(20, 1, 4);
        assert_eq!(r.detections_in_range(0, 10), 3);
        assert_eq!(r.detections_in_range(10, 30), 4);
        assert_eq!(r.detections_in_range(21, 30), 0);
        assert_eq!(r.detecting_ccs().collect::<Vec<_>>(), vec![5, 9, 20]);
    }

    #[test]
    fn same_cc_accumulates() {
        let mut r = FaultSimReport::new();
        r.record_pattern(7, 0, 1);
        r.record_pattern(7, 0, 2);
        assert_eq!(r.detections_at_cc(7), 3);
        assert_eq!(r.patterns().len(), 2);
    }

    #[test]
    fn merge_combines() {
        let mut a = FaultSimReport::new();
        a.record_pattern(1, 2, 1);
        let mut b = FaultSimReport::new();
        b.record_pattern(1, 0, 2);
        b.record_pattern(3, 0, 1);
        a.merge(&b);
        assert_eq!(a.detections_at_cc(1), 3);
        assert_eq!(a.total_detected(), 4);
        assert_eq!(a.patterns().len(), 3);
    }

    #[test]
    fn detection_curve_is_monotone() {
        let mut r = FaultSimReport::new();
        r.record_pattern(5, 0, 2);
        r.record_pattern(1, 0, 1);
        r.record_pattern(9, 0, 4);
        let curve = r.detection_curve();
        assert_eq!(curve, vec![(1, 1), (5, 3), (9, 7)]);
        assert!(curve
            .windows(2)
            .all(|w| w[0].1 <= w[1].1 && w[0].0 < w[1].0));
        assert_eq!(curve.last().unwrap().1, r.total_detected());
    }

    #[test]
    fn display_is_parseable_text() {
        let mut r = FaultSimReport::new();
        r.record_pattern(2, 5, 1);
        let s = r.to_string();
        assert!(s.contains("2 5 1"));
        assert!(s.contains("total detected: 1"));
    }
}
