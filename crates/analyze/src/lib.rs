//! Static testability analysis for warpstl netlists.
//!
//! One pass over a [`Netlist`] yields an
//! [`Analysis`] with two halves:
//!
//! - [`Scoap`] — SCOAP controllability (`CC0`/`CC1`) and observability
//!   (`CO`) scores per net (Goldstein 1979). Downstream consumers use
//!   them to guide PODEM pin choices and to summarize how hard a module's
//!   nets are to observe.
//! - [`AnalyzeReport`] — structural lints (combinational loops, undriven
//!   nets, dead logic behind constants, gates unreachable from any
//!   output, implication-proven redundant logic) as structured
//!   [`Diagnostic`]s. Error-severity findings gate the compaction
//!   pipeline before any fault simulation runs.
//! - [`Implications`] and [`Untestability`] — a FIRE-style static
//!   implication graph over (net, value) literals, and the
//!   fault-independent untestability proofs plus equivalence merges it
//!   yields. Downstream consumers prune proven-redundant faults from the
//!   fault universe before any simulation and hand PODEM implied
//!   assignments.
//!
//! The analysis is purely structural: it never simulates, so it is safe
//! to run on malformed netlists (that is the point of the lint gate).

#![warn(missing_docs)]

mod diag;
mod implications;
mod lint;
mod scoap;
mod untestable;

pub use diag::{AnalyzeReport, AnalyzeStats, Diagnostic, ImplicationStats, Rule, Severity};
pub use implications::{literal, literal_parts, Implications};
pub use lint::lint;
pub use scoap::Scoap;
pub use untestable::{EquivMerge, Untestability};

use warpstl_netlist::Netlist;
use warpstl_obs::{Obs, ObsExt};

/// The combined result of one analysis pass: SCOAP scores, lints, and the
/// static implication products.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// SCOAP controllability/observability scores per net.
    pub scoap: Scoap,
    /// Structural lint findings (including implication-derived
    /// `redundant-logic` warnings), with implication counts attached.
    pub report: AnalyzeReport,
    /// The static implication graph.
    pub implications: Implications,
    /// Untestability proofs and equivalence merges.
    pub untestable: Untestability,
}

impl Analysis {
    /// Whether the netlist passed the lint gate (no error-severity
    /// diagnostics; warnings allowed).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.report.is_clean()
    }
}

/// Analyzes `netlist`: computes SCOAP scores and runs every lint pass.
///
/// # Examples
///
/// ```
/// use warpstl_netlist::modules::ModuleKind;
///
/// let netlist = ModuleKind::DecoderUnit.build();
/// let analysis = warpstl_analyze::analyze(&netlist);
/// assert!(analysis.is_clean());
/// let out = netlist.outputs().nets()[0];
/// assert_eq!(analysis.scoap.co(out), 0); // outputs observe themselves
/// ```
#[must_use]
pub fn analyze(netlist: &Netlist) -> Analysis {
    analyze_observed(netlist, None)
}

/// [`analyze`] with observability: emits `analyze.scoap` /
/// `analyze.lint` / `analyze.implications` spans under `analyze.run`,
/// plus `analyze.errors` / `analyze.warnings` / `untestable.proven`
/// counters and one `analyze.rule.<name>` counter per rule that fired.
#[must_use]
pub fn analyze_observed(netlist: &Netlist, obs: Obs<'_>) -> Analysis {
    let run = obs.span("analyze", "analyze.run");
    let scoap = {
        let _s = obs.span("analyze", "analyze.scoap");
        Scoap::compute(netlist)
    };
    let mut report = {
        let _s = obs.span("analyze", "analyze.lint");
        lint::lint(netlist)
    };
    let (implications, untestable) = {
        let _s = obs.span("analyze", "analyze.implications");
        let imp = Implications::compute(netlist);
        let unt = Untestability::compute(netlist, &imp);
        (imp, unt)
    };
    report
        .diagnostics
        .extend(untestable.diagnostics().iter().cloned());
    report.implications = ImplicationStats {
        edges: implications.edge_count(),
        impossible: implications.impossible_count(),
        untestable: untestable.proven_count(),
        merges: untestable.merges().len(),
    };
    obs.add("untestable.proven", untestable.proven_count() as u64);
    let stats = report.stats();
    obs.add("analyze.errors", stats.total_errors() as u64);
    obs.add("analyze.warnings", stats.total_warnings() as u64);
    for rule in Rule::ALL {
        let i = rule.index();
        let fired = stats.errors[i] + stats.warnings[i];
        if fired > 0 {
            obs.add(&format!("analyze.rule.{}", rule.name()), fired as u64);
        }
    }
    drop(run.with_arg("gates", netlist.gates().len()));
    Analysis {
        scoap,
        report,
        implications,
        untestable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warpstl_netlist::{fixtures, modules::ModuleKind};
    use warpstl_obs::Recorder;

    #[test]
    fn bundled_modules_are_clean() {
        for kind in ModuleKind::ALL {
            let netlist = kind.build();
            let a = analyze(&netlist);
            assert!(a.is_clean(), "{}: {}", kind.name(), a.report);
        }
    }

    #[test]
    fn loop_fixture_fails_the_gate() {
        let a = analyze(&fixtures::combinational_loop());
        assert!(!a.is_clean());
    }

    #[test]
    fn redundant_fixture_yields_untestable_counts_and_lint() {
        let a = analyze(&fixtures::redundant_logic());
        // Warnings only: the fixture is valid, so the gate stays open.
        assert!(a.is_clean());
        let st = a.report.implications;
        assert!(st.untestable > 0, "no untestable faults proven");
        assert!(st.impossible > 0, "no impossible literals");
        assert!(st.edges > 0);
        assert!(st.merges > 0, "mux select degeneracy should merge pin 1");
        assert!(
            a.report
                .diagnostics
                .iter()
                .any(|d| d.rule == Rule::RedundantLogic),
            "{}",
            a.report
        );
        let j = a.report.to_json();
        assert!(j.contains("\"untestable\":"), "{j}");
        assert!(j.contains("redundant-logic"), "{j}");
    }

    #[test]
    fn observed_run_emits_spans_and_counters() {
        let rec = Recorder::new();
        let a = analyze_observed(&fixtures::combinational_loop(), Some(&rec));
        assert!(!a.is_clean());
        let spans = rec.spans();
        for name in [
            "analyze.run",
            "analyze.scoap",
            "analyze.lint",
            "analyze.implications",
        ] {
            assert_eq!(
                spans.iter().filter(|s| s.name == name).count(),
                1,
                "expected exactly one {name} span"
            );
        }
        let metrics = rec.metrics();
        assert_eq!(
            metrics.counter("analyze.errors"),
            a.report.error_count() as u64
        );
        assert!(metrics.counter("analyze.rule.comb-loop") >= 1);
    }
}
