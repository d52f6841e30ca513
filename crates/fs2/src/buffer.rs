//! The Double Buffer (§3.2, Figure 4).
//!
//! Two identical memory banks alternate: one accepts the clause streaming
//! in from disk while the other feeds the previously stored clause to the
//! Test Unification Engine. "Selection control is basically generated by a
//! toggle flip flop … the clock period is variable and is equal to the
//! time taken for the Double Buffer to read in 2 clauses."
//!
//! The pipeline consequence matters for throughput: clause *k* is matched
//! while clause *k+1* transfers, so a track's elapsed time is governed by
//! `max(transfer, match)` per clause, not their sum.

/// The two alternating banks.
#[derive(Debug, Clone, Default)]
pub struct DoubleBuffer {
    banks: [Vec<u8>; 2],
    /// Which bank currently accepts input (the toggle flip flop).
    input_bank: usize,
    fills: u64,
}

impl DoubleBuffer {
    /// An empty double buffer; bank 0 takes the first fill.
    pub fn new() -> Self {
        Self::default()
    }

    /// Streams a clause record into the input bank and toggles the banks.
    /// Returns `true` once both banks hold data (output is meaningful).
    pub fn fill(&mut self, record: &[u8]) -> bool {
        self.banks[self.input_bank].clear();
        self.banks[self.input_bank].extend_from_slice(record);
        self.input_bank ^= 1;
        self.fills += 1;
        self.fills >= 2
    }

    /// The clause available for matching: the bank filled before the
    /// current input bank.
    pub fn output(&self) -> &[u8] {
        // After a fill the toggle points at the *other* bank, which is the
        // one just written; the engine reads the one written previously —
        // i.e. the current input bank's contents from two fills ago…
        // except immediately after a fill, output is the newest complete
        // record, which lives in the bank the toggle just left.
        &self.banks[self.input_bank ^ 1]
    }

    /// Number of fills so far.
    pub fn fills(&self) -> u64 {
        self.fills
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banks_alternate() {
        let mut db = DoubleBuffer::new();
        assert!(!db.fill(&[1, 1]), "first fill: no output yet");
        assert_eq!(db.output(), &[1, 1]);
        assert!(db.fill(&[2, 2]));
        assert_eq!(db.output(), &[2, 2]);
        assert!(db.fill(&[3, 3]));
        assert_eq!(db.output(), &[3, 3]);
        assert_eq!(db.fills(), 3);
    }
}
