//! Host-side execution parameters for the software FS2 sweep.
//!
//! The real FS2 board keeps pace with the disk because the Double Buffer
//! overlaps one track's transfer with the previous track's matching; the
//! *simulated* sweep has no such free lunch — it pays host CPU time per
//! clause. [`Fs2Config`] selects how that host work reads its clauses.
//! It does not affect the answer set or any modelled time: satisfiers, FS2
//! matching time, disk time, and double-buffer overlap accounting are
//! byte-identical at either setting — only host wall-clock changes.

/// Host-side FS2 sweep configuration.
///
/// # Examples
///
/// ```
/// use clare_fs2::Fs2Config;
///
/// let c = Fs2Config::paper();
/// assert!(c.predecoded());
/// assert!(!c.with_predecoded(false).predecoded());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fs2Config {
    predecoded: bool,
}

impl Fs2Config {
    /// The default configuration: matching over pre-decoded clause
    /// streams.
    pub fn paper() -> Self {
        Fs2Config { predecoded: true }
    }

    /// True (the default) if the sweep matches pre-decoded clause-head
    /// streams from the knowledge base's arena; false re-decodes every
    /// record's bytes per retrieval — the retained reference path, kept
    /// for equivalence tests and as the bench baseline.
    pub fn predecoded(&self) -> bool {
        self.predecoded
    }

    /// Selects between the pre-decoded arena path and the byte-decoding
    /// reference path. The verdicts and modelled times are identical.
    pub fn with_predecoded(mut self, predecoded: bool) -> Self {
        self.predecoded = predecoded;
        self
    }
}

impl Default for Fs2Config {
    fn default() -> Self {
        Self::paper()
    }
}
