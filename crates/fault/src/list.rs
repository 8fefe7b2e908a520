//! The fault list: the mutable detection ledger shared across test programs.

use std::fmt;

use crate::{Fault, FaultUniverse};

/// Index of a fault within its [`FaultUniverse`]'s collapsed list.
pub type FaultId = usize;

/// Detection status of one fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultStatus {
    /// Not yet detected by any simulated pattern.
    Undetected,
    /// Detected; records where.
    Detected {
        /// The clock-cycle stamp of the detecting pattern.
        cc: u64,
        /// The index of the detecting pattern within its sequence.
        pattern: usize,
        /// Which fault-simulation run detected it (runs are numbered by the
        /// caller via [`FaultList::begin_run`]; the paper runs one per PTP).
        run: u32,
    },
}

/// The fault list report of the paper's stage 3: "initially includes all
/// faults of a target module; after each fault simulation the list is
/// updated, and detected faults are removed, so subsequent fault simulations
/// and PTPs applied to the same module only target those missing undetected
/// faults."
///
/// The ledger is generic over the fault type `F` so every fault model shares
/// one detection/coverage/report machinery: stuck-at lists are
/// `FaultList<Fault>` (the default), bridging lists are
/// [`BridgeList`](crate::BridgeList) (`FaultList<BridgeFault>`).
///
/// # Examples
///
/// ```
/// use warpstl_fault::{FaultList, FaultUniverse};
/// use warpstl_netlist::Builder;
///
/// let mut b = Builder::new("n");
/// let x = b.input("x");
/// let y = b.not(x);
/// b.output("y", y);
/// let u = FaultUniverse::enumerate(&b.finish());
/// let list = FaultList::new(&u);
/// assert_eq!(list.undetected().count(), u.collapsed_len());
/// assert_eq!(list.coverage(), 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct FaultList<F = Fault> {
    faults: Vec<F>,
    status: Vec<FaultStatus>,
    weights: Vec<u32>,
    total_weight: u64,
    untestable: Vec<bool>,
    untestable_weight: u64,
    current_run: u32,
}

impl FaultList {
    /// A fresh list with every fault of `universe` undetected.
    #[must_use]
    pub fn new(universe: &FaultUniverse) -> FaultList {
        let n = universe.collapsed_len();
        let weights: Vec<u32> = (0..n).map(|i| universe.class_size(i)).collect();
        let total_weight = weights.iter().map(|&w| w as u64).sum();
        FaultList {
            faults: universe.faults().to_vec(),
            status: vec![FaultStatus::Undetected; n],
            weights,
            total_weight,
            untestable: vec![false; n],
            untestable_weight: 0,
            current_run: 0,
        }
    }
}

impl<F> FaultList<F> {
    /// A fresh unit-weight ledger over an arbitrary fault population (the
    /// constructor the non-stuck-at models use; bridging faults carry no
    /// equivalence-class collapsing, so every fault weighs 1).
    #[must_use]
    pub fn from_faults(faults: Vec<F>) -> FaultList<F> {
        let n = faults.len();
        FaultList {
            faults,
            status: vec![FaultStatus::Undetected; n],
            weights: vec![1; n],
            total_weight: n as u64,
            untestable: vec![false; n],
            untestable_weight: 0,
            current_run: 0,
        }
    }

    /// Marks the classes flagged in `bitmap` (indexed by [`FaultId`]) as
    /// statically proven untestable. Untestability is a property of the
    /// universe, not of any simulation run: it splits the marked classes
    /// out of the [`coverage`](FaultList::coverage) denominator and
    /// survives [`reset`](FaultList::reset). Marks accumulate (set union)
    /// across calls; entries beyond the list length are ignored.
    pub fn mark_untestable(&mut self, bitmap: &[bool]) {
        for (id, &flag) in bitmap.iter().enumerate().take(self.len()) {
            if flag {
                self.untestable[id] = true;
            }
        }
        self.untestable_weight = self
            .untestable
            .iter()
            .zip(&self.weights)
            .filter(|(&u, _)| u)
            .map(|(_, &w)| w as u64)
            .sum();
    }

    /// Whether fault `id` is marked statically untestable.
    #[must_use]
    pub fn is_untestable(&self, id: FaultId) -> bool {
        self.untestable.get(id).copied().unwrap_or(false)
    }

    /// Number of collapsed classes marked untestable.
    #[must_use]
    pub fn untestable_count(&self) -> usize {
        self.untestable.iter().filter(|&&u| u).count()
    }

    /// The uncollapsed weight of the untestable classes — the amount
    /// removed from the coverage denominator.
    #[must_use]
    pub fn untestable_weight(&self) -> u64 {
        self.untestable_weight
    }

    /// The number of collapsed faults tracked.
    #[must_use]
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the list is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The status of fault `id`.
    #[must_use]
    pub fn status(&self, id: FaultId) -> FaultStatus {
        self.status[id]
    }

    /// Starts a new fault-simulation run (one per PTP in the paper's flow)
    /// and returns its number.
    pub fn begin_run(&mut self) -> u32 {
        self.current_run += 1;
        self.current_run
    }

    /// Marks fault `id` detected at (`cc`, `pattern`) in the current run.
    /// Already-detected faults are left untouched (first detection wins).
    pub fn mark_detected(&mut self, id: FaultId, cc: u64, pattern: usize) {
        if matches!(self.status[id], FaultStatus::Undetected) {
            self.status[id] = FaultStatus::Detected {
                cc,
                pattern,
                run: self.current_run,
            };
        }
    }

    /// Iterates the ids of undetected faults.
    pub fn undetected(&self) -> impl Iterator<Item = FaultId> + '_ {
        self.status
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s, FaultStatus::Undetected))
            .map(|(i, _)| i)
    }

    /// Iterates `(id, cc, pattern, run)` for detected faults.
    pub fn detected(&self) -> impl Iterator<Item = (FaultId, u64, usize, u32)> + '_ {
        self.status.iter().enumerate().filter_map(|(i, s)| match s {
            FaultStatus::Detected { cc, pattern, run } => Some((i, *cc, *pattern, *run)),
            FaultStatus::Undetected => None,
        })
    }

    /// Fault coverage over the *full* (uncollapsed) universe: the weighted
    /// fraction of detected equivalence classes among the *testable* ones.
    /// Statically-proven-untestable classes are split out of the
    /// denominator — no pattern sequence can ever detect them, so counting
    /// them would only misreport every STL as incomplete. When every fault
    /// is untestable the coverage is vacuously `1.0` (the
    /// `collapse_ratio`-style guard against a `0/0`); an empty list stays
    /// at `0.0`.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        self.weighted_coverage(|id| matches!(self.status[id], FaultStatus::Detected { .. }))
    }

    /// The [`coverage`](FaultList::coverage) this list would report if
    /// exactly the faults flagged in `detected` (indexed by [`FaultId`],
    /// entries beyond the slice unflagged) were detected: same weights,
    /// same denominator, same integer sum, so the result is bit-identical
    /// to the coverage of a list holding that detected set.
    #[must_use]
    pub fn coverage_of(&self, detected: &[bool]) -> f64 {
        self.weighted_coverage(|id| detected.get(id).copied().unwrap_or(false))
    }

    fn weighted_coverage(&self, detected: impl Fn(FaultId) -> bool) -> f64 {
        if self.total_weight == 0 {
            return 0.0;
        }
        let testable_weight = self.total_weight - self.untestable_weight;
        if testable_weight == 0 {
            return 1.0;
        }
        let detected: u64 = (0..self.len())
            .filter(|&id| !self.untestable[id] && detected(id))
            .map(|id| u64::from(self.weights[id]))
            .sum();
        detected as f64 / testable_weight as f64
    }

    /// Per-fault detection flags, indexed by [`FaultId`]: which faults are
    /// detected, without their stamps. Snapshot one before a run to diff
    /// what the run detected, or feed one to
    /// [`coverage_of`](FaultList::coverage_of).
    #[must_use]
    pub fn detection_flags(&self) -> Vec<bool> {
        self.status
            .iter()
            .map(|s| matches!(s, FaultStatus::Detected { .. }))
            .collect()
    }

    /// The total (uncollapsed) fault count the coverage denominator uses.
    #[must_use]
    pub fn total_weight(&self) -> u64 {
        self.total_weight
    }

    /// Resets every fault to undetected (used to re-evaluate a compacted
    /// STL from scratch).
    pub fn reset(&mut self) {
        self.status.fill(FaultStatus::Undetected);
        self.current_run = 0;
    }
}

impl<F: Copy> FaultList<F> {
    /// The fault with id `id`.
    #[must_use]
    pub fn fault(&self, id: FaultId) -> F {
        self.faults[id]
    }
}

impl<F: fmt::Display> FaultList<F> {
    /// Serializes the list as the paper's *fault list report*: one line per
    /// collapsed fault with its status.
    ///
    /// ```text
    /// FAULTLIST 1 <collapsed> <total>
    /// n3/SA1 detected 120 4 1
    /// n5.in0/SA0 undetected
    /// ```
    #[must_use]
    pub fn to_report_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "FAULTLIST 1 {} {}", self.len(), self.total_weight);
        for (i, f) in self.faults.iter().enumerate() {
            match self.status[i] {
                FaultStatus::Undetected => {
                    let _ = writeln!(s, "{f} undetected");
                }
                FaultStatus::Detected { cc, pattern, run } => {
                    let _ = writeln!(s, "{f} detected {cc} {pattern} {run}");
                }
            }
        }
        s
    }

    /// Restores detection statuses from a report produced by
    /// [`FaultList::to_report_text`] over the *same* universe.
    ///
    /// # Errors
    ///
    /// Returns a message when the header, fault names, order, or statuses
    /// do not match this list's universe.
    pub fn apply_report_text(&mut self, text: &str) -> Result<(), String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty report")?;
        let mut h = header.split_whitespace();
        if h.next() != Some("FAULTLIST") || h.next() != Some("1") {
            return Err("bad header".into());
        }
        let n: usize = h
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or("bad fault count")?;
        if n != self.len() {
            return Err(format!("report has {n} faults, list has {}", self.len()));
        }
        let mut max_run = 0;
        let mut status = vec![FaultStatus::Undetected; self.len()];
        for (i, line) in lines.enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            if i >= self.len() {
                return Err("too many rows".into());
            }
            let mut parts = line.split_whitespace();
            let name = parts.next().ok_or("missing fault name")?;
            if name != self.faults[i].to_string() {
                return Err(format!("row {i}: expected {}, got {name}", self.faults[i]));
            }
            match parts.next() {
                Some("undetected") => {}
                Some("detected") => {
                    let cc = parts.next().and_then(|v| v.parse().ok()).ok_or("bad cc")?;
                    let pattern = parts
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("bad pattern")?;
                    let run: u32 = parts.next().and_then(|v| v.parse().ok()).ok_or("bad run")?;
                    max_run = max_run.max(run);
                    status[i] = FaultStatus::Detected { cc, pattern, run };
                }
                other => return Err(format!("row {i}: bad status {other:?}")),
            }
        }
        self.status = status;
        self.current_run = max_run;
        Ok(())
    }
}

impl<F: fmt::Display> fmt::Display for FaultList<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let det = self.detected().count();
        write!(
            f,
            "fault list: {}/{} collapsed detected, FC {:.2}%",
            det,
            self.len(),
            self.coverage() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warpstl_netlist::Builder;

    fn universe() -> FaultUniverse {
        let mut b = Builder::new("t");
        let x = b.input("x");
        let y = b.input("y");
        let z = b.xor(x, y);
        b.output("z", z);
        FaultUniverse::enumerate(&b.finish())
    }

    #[test]
    fn mark_and_coverage() {
        let u = universe();
        let mut l = FaultList::new(&u);
        assert_eq!(l.coverage(), 0.0);
        l.begin_run();
        l.mark_detected(0, 5, 2);
        assert!(l.coverage() > 0.0);
        assert_eq!(
            l.status(0),
            FaultStatus::Detected {
                cc: 5,
                pattern: 2,
                run: 1
            }
        );
        // First detection wins.
        l.mark_detected(0, 9, 9);
        assert_eq!(
            l.status(0),
            FaultStatus::Detected {
                cc: 5,
                pattern: 2,
                run: 1
            }
        );
    }

    #[test]
    fn full_detection_reaches_one() {
        let u = universe();
        let mut l = FaultList::new(&u);
        l.begin_run();
        for id in 0..l.len() {
            l.mark_detected(id, 0, 0);
        }
        assert!((l.coverage() - 1.0).abs() < 1e-12);
        assert_eq!(l.undetected().count(), 0);
        assert_eq!(l.detected().count(), l.len());
    }

    #[test]
    fn runs_are_recorded() {
        let u = universe();
        let mut l = FaultList::new(&u);
        assert_eq!(l.begin_run(), 1);
        l.mark_detected(0, 0, 0);
        assert_eq!(l.begin_run(), 2);
        l.mark_detected(1, 0, 0);
        let runs: Vec<u32> = l.detected().map(|(_, _, _, r)| r).collect();
        assert_eq!(runs, vec![1, 2]);
    }

    #[test]
    fn report_text_round_trips() {
        let u = universe();
        let mut l = FaultList::new(&u);
        l.begin_run();
        l.mark_detected(0, 42, 7);
        l.begin_run();
        l.mark_detected(2, 99, 1);
        let text = l.to_report_text();
        let mut l2 = FaultList::new(&u);
        l2.apply_report_text(&text).unwrap();
        assert_eq!(l2.status(0), l.status(0));
        assert_eq!(l2.status(1), FaultStatus::Undetected);
        assert_eq!(l2.status(2), l.status(2));
        assert_eq!(l2.coverage(), l.coverage());
        // Runs continue where the report left off.
        assert_eq!(l2.begin_run(), 3);
    }

    #[test]
    fn report_text_rejects_mismatches() {
        let u = universe();
        let mut l = FaultList::new(&u);
        assert!(l.apply_report_text("").is_err());
        assert!(l.apply_report_text("FAULTLIST 2 0 0\n").is_err());
        assert!(l
            .apply_report_text(&format!("FAULTLIST 1 {} 0\nbogus undetected\n", l.len()))
            .is_err());
        let good = l.to_report_text();
        let tampered = good.replace("undetected", "detected x y z");
        assert!(l.apply_report_text(&tampered).is_err());
    }

    #[test]
    fn untestable_marks_split_the_coverage_denominator() {
        let u = universe();
        let mut l = FaultList::new(&u);
        let mut bitmap = vec![false; l.len()];
        bitmap[0] = true;
        l.mark_untestable(&bitmap);
        assert!(l.is_untestable(0));
        assert!(!l.is_untestable(1));
        assert_eq!(l.untestable_count(), 1);
        assert!(l.untestable_weight() > 0);
        // Detecting every *testable* fault reaches full coverage even
        // though class 0 stays undetected.
        l.begin_run();
        for id in 1..l.len() {
            l.mark_detected(id, 0, 0);
        }
        assert!((l.coverage() - 1.0).abs() < 1e-12, "{}", l.coverage());
        // Marks survive a reset (they are a property of the universe).
        l.reset();
        assert!(l.is_untestable(0));
        assert_eq!(l.coverage(), 0.0);
        // Marking everything untestable makes coverage vacuously 1.0.
        l.mark_untestable(&vec![true; l.len()]);
        assert_eq!(l.coverage(), 1.0);
        // Marks accumulate idempotently.
        l.mark_untestable(&bitmap);
        assert_eq!(l.untestable_count(), l.len());
        assert_eq!(l.untestable_weight(), l.total_weight());
    }

    #[test]
    fn flag_coverage_equals_list_coverage() {
        let u = universe();
        let mut l = FaultList::new(&u);
        let mut bitmap = vec![false; l.len()];
        bitmap[1] = true;
        l.mark_untestable(&bitmap);
        assert_eq!(l.detection_flags(), vec![false; l.len()]);
        assert_eq!(l.coverage_of(&l.detection_flags()), l.coverage());
        l.begin_run();
        l.mark_detected(0, 3, 0);
        l.mark_detected(1, 3, 0); // untestable: never counts
        l.mark_detected(2, 4, 1);
        let flags = l.detection_flags();
        assert_eq!(&flags[..3], &[true, true, true]);
        assert_eq!(flags.iter().filter(|&&f| f).count(), 3);
        assert_eq!(l.coverage_of(&flags).to_bits(), l.coverage().to_bits());
        // Short slices leave the tail unflagged.
        assert_eq!(l.coverage_of(&flags[..1]), l.coverage_of(&[true]));
        assert_eq!(l.coverage_of(&[]), 0.0);
    }

    #[test]
    fn reset_clears_everything() {
        let u = universe();
        let mut l = FaultList::new(&u);
        l.begin_run();
        l.mark_detected(0, 0, 0);
        l.reset();
        assert_eq!(l.coverage(), 0.0);
        assert_eq!(l.begin_run(), 1);
    }
}
