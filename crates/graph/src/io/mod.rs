//! Readers and writers for the on-disk graph formats the paper's datasets
//! ship in, so the real files can replace the calibrated generators when
//! available:
//!
//! * [`dimacs`] — 9th DIMACS implementation challenge `.gr` format
//!   (`USA-road-d.*` roadmaps),
//! * [`snap`] — SNAP whitespace-separated edge lists (`gplus_combined.txt`,
//!   `soc-LiveJournal1.txt`),
//! * [`rodinia`] — the Rodinia BFS input format (`graph4096.txt`, …).
//!
//! All readers parse from any `BufRead`, report malformed input via
//! [`ParseError`] instead of panicking, and have matching writers used by
//! the round-trip tests.

pub mod dimacs;
pub mod rodinia;
pub mod snap;

use std::fmt;

/// Most elements a reader reserves on a header count's word alone; past
/// it, vectors grow only as the records that back the count arrive.
pub(crate) const MAX_RESERVE: usize = 1 << 20;

/// Error raised by the graph file parsers.
#[derive(Debug)]
pub enum ParseError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structurally invalid content, with a line number and description.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        reason: String,
    },
}

impl ParseError {
    pub(crate) fn malformed(line: usize, reason: impl Into<String>) -> Self {
        ParseError::Malformed {
            line,
            reason: reason.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Io(e) => write!(f, "i/o error: {e}"),
            ParseError::Malformed { line, reason } => {
                write!(f, "malformed input at line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for ParseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseError::Io(e) => Some(e),
            ParseError::Malformed { .. } => None,
        }
    }
}

impl From<std::io::Error> for ParseError {
    fn from(e: std::io::Error) -> Self {
        ParseError::Io(e)
    }
}
