//! The compaction pipeline's error type.

use std::error::Error;
use std::fmt;

use warpstl_gpu::SimError;
use warpstl_verify::VerifyReport;

/// Why a compaction run aborted: the GPU model failed, or the
/// post-reduction verification gate found the compacted PTP malformed.
#[derive(Debug, Clone)]
pub enum CompactionError {
    /// The logic simulation raised an error.
    Sim(SimError),
    /// The static verifier found errors in the compacted PTP; the pipeline
    /// stopped before the evaluation fault simulations. The full structured
    /// report is attached.
    Verify {
        /// The PTP that failed verification.
        name: String,
        /// The verifier's findings.
        report: VerifyReport,
    },
}

impl fmt::Display for CompactionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompactionError::Sim(e) => write!(f, "simulation error: {e}"),
            CompactionError::Verify { name, report } => write!(
                f,
                "compacted PTP {name} failed verification with {} error(s):\n{report}",
                report.error_count()
            ),
        }
    }
}

impl Error for CompactionError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CompactionError::Sim(e) => Some(e),
            CompactionError::Verify { .. } => None,
        }
    }
}

impl From<SimError> for CompactionError {
    fn from(e: SimError) -> CompactionError {
        CompactionError::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warpstl_verify::{Diagnostic, Rule};

    #[test]
    fn verify_variant_displays_report() {
        let err = CompactionError::Verify {
            name: "IMM".into(),
            report: VerifyReport {
                name: "IMM".into(),
                program_len: 3,
                diagnostics: vec![Diagnostic::error(Rule::UseBeforeDef, 1, "R1 undefined")],
            },
        };
        let s = err.to_string();
        assert!(s.contains("failed verification with 1 error(s)"));
        assert!(s.contains("use-before-def"));
        assert!(err.source().is_none());
    }

    #[test]
    fn sim_variant_converts_and_chains() {
        let err: CompactionError = SimError::ConstWrite { addr: 0xdead }.into();
        assert!(matches!(err, CompactionError::Sim(_)));
        assert!(err.source().is_some());
    }
}
