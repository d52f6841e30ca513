//! The Writable Control Store: microinstructions and the standard
//! microprogram (§3.1).
//!
//! "The WCS consists of a bank of fast bipolar RAM which holds the
//! microprogram instruction for coordinating the overall FS2 hardware
//! during a query. … The RAM can hold a maximum of 2048 microprogram
//! instructions, each 64 bits wide. … The output of the MPC … can derive
//! either from the MPC's internal counter or externally from the branch
//! address field … Another external source comes from the output of the
//! Map ROM."
//!
//! This module gives the simulator a real microprogram artifact:
//!
//! * [`MicroInstruction`] — a sequencer field (AMD 2910A-style next-address
//!   control) plus the datapath control fields (selector branches,
//!   register latches, memory write enables), packed to and from the
//!   64-bit WCS word format.
//! * [`Microprogram::standard`] — the hand-written microprogram for the
//!   adopted Level-3 algorithm: the polling loop, the Map ROM dispatch
//!   point, one routine per Table 1 operation (whose per-cycle selector
//!   settings are cross-validated against the Figure 6–12 routes in
//!   [`ops`](crate::ops)), and the complex-term counter loop.
//! * [`Wcs`] — the 2048×64-bit RAM with Microprogramming-mode loading.
//!
//! Nothing steps the program: which routine fires for a type pair is the
//! [`map`](crate::map) dispatch, and how long it takes is the route sum in
//! [`ops`](crate::ops).

use crate::components::{Component, WCS_INSTRUCTIONS};
use crate::ops::HwOp;
use std::fmt;

/// A selector's configured branch for one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SelBranch {
    /// The selector's left input.
    Left,
    /// The selector's right input.
    Right,
    /// Not driven this cycle.
    #[default]
    Hold,
}

impl SelBranch {
    fn to_bits(self) -> u64 {
        match self {
            SelBranch::Hold => 0,
            SelBranch::Left => 1,
            SelBranch::Right => 2,
        }
    }
}

/// Condition codes the sequencer can branch on — the CC register inputs
/// of Figure 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CondCode {
    /// CC bit 0: a new clause is ready in the Double Buffer.
    ClauseReady,
    /// The comparator's HIT output.
    Hit,
    /// The database element counter reached zero.
    DbCounterZero,
    /// The query element counter reached zero.
    QueryCounterZero,
}

impl CondCode {
    fn to_bits(self) -> u64 {
        match self {
            CondCode::ClauseReady => 0,
            CondCode::Hit => 1,
            CondCode::DbCounterZero => 2,
            CondCode::QueryCounterZero => 3,
        }
    }
}

/// Next-address control (a subset of the AMD 2910A instruction set the
/// paper's WCS is built around).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sequencer {
    /// Advance to the next instruction (internal counter).
    Continue,
    /// Unconditional jump to the branch address field.
    Jump(u16),
    /// Jump if the condition holds, else continue.
    CondJump(CondCode, u16),
    /// Take the next address from the Map ROM (type-pair dispatch).
    JumpMap,
    /// Busy-wait on a condition: loop at this address until it holds —
    /// the MPC's "polling routine".
    Poll(CondCode),
}

/// Datapath control fields: what the TUE does during this microcycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct DatapathControl {
    /// Selector 1 branch (In-bus vs DB Memory data, to comparator A).
    pub sel1: SelBranch,
    /// Selector 2 branch (DB Memory A-address source).
    pub sel2: SelBranch,
    /// Selector 3 branch (Query Memory vs DB Memory data, to B).
    pub sel3: SelBranch,
    /// Selector 4 branch (Query Memory data-in source).
    pub sel4: SelBranch,
    /// Selector 5 branch (database data toward Query Memory).
    pub sel5: SelBranch,
    /// Selector 6 branch (Query Memory address source; left = microcode
    /// bits 13–20 during a search).
    pub sel6: SelBranch,
    /// Latch Reg1 (cross-binding reference holding register).
    pub latch_reg1: bool,
    /// Latch Reg3 (DB Memory data-in register).
    pub latch_reg3: bool,
    /// Write the DB Memory this cycle.
    pub write_db_memory: bool,
    /// Write the Query Memory this cycle.
    pub write_query_memory: bool,
    /// Strobe the comparator and latch HIT into CC.
    pub compare: bool,
    /// Decrement the database element counter.
    pub dec_db_counter: bool,
    /// Decrement the query element counter.
    pub dec_query_counter: bool,
    /// Query Memory address driven on microcode bits 13–20 ("ub13-20" in
    /// the figures): which query word the left branch of Sel6 presents.
    pub q_address: u8,
    /// Drive the DB Memory B address port from Reg1 instead of the In-bus
    /// (the second cycle of DB_CROSS_BOUND_FETCH).
    pub b_addr_from_reg1: bool,
}

impl DatapathControl {
    /// True if this cycle drives any part of the datapath (as opposed to
    /// a pure sequencer step).
    pub fn is_active(&self) -> bool {
        *self != DatapathControl::default()
    }

    /// True if the control fields are consistent with the given datapath
    /// routes: every selector a route passes through must be driven, and
    /// a selector no route touches must hold.
    pub fn consistent_with_routes(
        &self,
        db_route: &[Component],
        query_route: &[Component],
    ) -> bool {
        let uses = |c: Component| db_route.contains(&c) || query_route.contains(&c);
        let sel_ok = |branch: SelBranch, c: Component| (branch != SelBranch::Hold) == uses(c);
        sel_ok(self.sel1, Component::Sel1)
            && sel_ok(self.sel2, Component::Sel2)
            && sel_ok(self.sel3, Component::Sel3)
            && sel_ok(self.sel4, Component::Sel4)
            && sel_ok(self.sel5, Component::Sel5)
            && sel_ok(self.sel6, Component::Sel6)
            && self.latch_reg3 == uses(Component::Reg3)
            // Reg1 is latched when it terminates the db route (the write
            // into the register); reading it at a route's head needs no
            // enable.
            && (db_route.last() != Some(&Component::Reg1) || self.latch_reg1)
    }
}

/// One 64-bit WCS word.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MicroInstruction {
    /// Next-address control.
    pub sequencer: Sequencer,
    /// Datapath control fields.
    pub control: DatapathControl,
    /// Listing label (diagnostic; not part of the 64-bit word).
    pub label: &'static str,
}

// 64-bit layout (bits, LSB first):
//   0..4    sequencer opcode
//   4..6    condition code
//   6..17   branch address (11 bits: 2048 words)
//   17..29  sel1..sel6, 2 bits each
//   29..36  latch/write/compare/counter enables
//   36..44  query-word address (ub13-20)
//   44      DB Memory B-address source (0 = In-bus, 1 = Reg1)
//   45..64  reserved (zero)
const SEQ_CONTINUE: u64 = 0;
const SEQ_JUMP: u64 = 1;
const SEQ_COND_JUMP: u64 = 2;
const SEQ_JUMP_MAP: u64 = 3;
const SEQ_POLL: u64 = 4;

impl MicroInstruction {
    /// A pure sequencer step with an idle datapath.
    pub fn sequencer_only(sequencer: Sequencer, label: &'static str) -> Self {
        MicroInstruction {
            sequencer,
            control: DatapathControl::default(),
            label,
        }
    }

    /// Packs the instruction into its 64-bit WCS word.
    pub fn to_word(&self) -> u64 {
        let (op, cc, addr) = match self.sequencer {
            Sequencer::Continue => (SEQ_CONTINUE, 0, 0u16),
            Sequencer::Jump(a) => (SEQ_JUMP, 0, a),
            Sequencer::CondJump(cc, a) => (SEQ_COND_JUMP, cc.to_bits(), a),
            Sequencer::JumpMap => (SEQ_JUMP_MAP, 0, 0),
            Sequencer::Poll(cc) => (SEQ_POLL, cc.to_bits(), 0),
        };
        let c = &self.control;
        let mut word = op | (cc << 4) | ((addr as u64 & 0x7FF) << 6);
        word |= c.sel1.to_bits() << 17;
        word |= c.sel2.to_bits() << 19;
        word |= c.sel3.to_bits() << 21;
        word |= c.sel4.to_bits() << 23;
        word |= c.sel5.to_bits() << 25;
        word |= c.sel6.to_bits() << 27;
        word |= (c.latch_reg1 as u64) << 29;
        word |= (c.latch_reg3 as u64) << 30;
        word |= (c.write_db_memory as u64) << 31;
        word |= (c.write_query_memory as u64) << 32;
        word |= (c.compare as u64) << 33;
        word |= (c.dec_db_counter as u64) << 34;
        word |= (c.dec_query_counter as u64) << 35;
        word |= (c.q_address as u64) << 36;
        word |= (c.b_addr_from_reg1 as u64) << 44;
        word
    }
}

impl fmt::Display for MicroInstruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:<24} {:?}", self.label, self.sequencer)?;
        if self.control.is_active() {
            write!(f, "  [datapath active]")?;
        }
        Ok(())
    }
}

/// The assembled microprogram: instructions plus routine entry points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Microprogram {
    instructions: Vec<MicroInstruction>,
    poll_entry: u16,
    dispatch_entry: u16,
    op_entries: [(HwOp, u16); 7],
}

impl Microprogram {
    /// The standard Level-3 microprogram.
    pub fn standard() -> Self {
        fn push(instructions: &mut Vec<MicroInstruction>, i: MicroInstruction) -> u16 {
            let at = instructions.len() as u16;
            instructions.push(i);
            at
        }
        let mut instructions = Vec::new();

        // 0: the polling routine — "the MPC is engaged in a polling
        // routine [that] repeatedly monitors the zeroth bit of the
        // conditional code".
        let poll_entry = push(
            &mut instructions,
            MicroInstruction::sequencer_only(Sequencer::Poll(CondCode::ClauseReady), "POLL_CLAUSE"),
        );
        // 1: dispatch on the (db, query) type-tag pair via the Map ROM.
        let dispatch_entry = push(
            &mut instructions,
            MicroInstruction::sequencer_only(Sequencer::JumpMap, "DISPATCH"),
        );

        // Forward declarations: accept/reject live at known offsets after
        // the routines. We assemble routines first and patch jumps via
        // closures over computed addresses, so instead assemble with
        // placeholder targets and fix them after layout. To keep this
        // readable we lay out accept/reject immediately and jump backward
        // from routines.
        let accept_entry = push(
            &mut instructions,
            MicroInstruction::sequencer_only(Sequencer::Jump(poll_entry), "ACCEPT_NEXT_ARG"),
        );
        let reject_entry = push(
            &mut instructions,
            MicroInstruction::sequencer_only(Sequencer::Jump(poll_entry), "REJECT_CLAUSE"),
        );

        // One routine per hardware operation. Cycle k of HwOp::cycles()
        // maps to one instruction whose selector settings realise that
        // cycle's routes (Figures 6–12); the final instruction carries the
        // terminal action and branches on HIT.
        let mut op_entries = Vec::new();
        for op in HwOp::ALL {
            let entry = instructions.len() as u16;
            let cycles = op.cycles();
            for (k, _cycle) in cycles.iter().enumerate() {
                let last = k + 1 == cycles.len();
                let mut control = op_cycle_control(op, k);
                if last {
                    match op {
                        HwOp::DbStore => control.write_db_memory = true,
                        HwOp::QueryStore => control.write_query_memory = true,
                        _ => control.compare = true,
                    }
                }
                let sequencer = if last {
                    match op {
                        // Stores always succeed: back to the next pair.
                        HwOp::DbStore | HwOp::QueryStore => Sequencer::Jump(accept_entry),
                        // Compares branch on HIT.
                        _ => Sequencer::CondJump(CondCode::Hit, accept_entry),
                    }
                } else {
                    Sequencer::Continue
                };
                push(
                    &mut instructions,
                    MicroInstruction {
                        sequencer,
                        control,
                        label: op.name(),
                    },
                );
            }
            // Fall-through of a failed compare: reject the clause.
            if !matches!(op, HwOp::DbStore | HwOp::QueryStore) {
                push(
                    &mut instructions,
                    MicroInstruction::sequencer_only(Sequencer::Jump(reject_entry), "FAIL"),
                );
            }
            op_entries.push((op, entry));
        }

        // The complex-term element loop: decrement both counters and exit
        // when either reaches zero (the two-counter rule of §3.1).
        push(
            &mut instructions,
            MicroInstruction {
                sequencer: Sequencer::CondJump(CondCode::DbCounterZero, accept_entry),
                control: DatapathControl {
                    dec_db_counter: true,
                    dec_query_counter: true,
                    ..DatapathControl::default()
                },
                label: "ELEMENT_LOOP",
            },
        );
        push(
            &mut instructions,
            MicroInstruction::sequencer_only(
                Sequencer::CondJump(CondCode::QueryCounterZero, accept_entry),
                "ELEMENT_LOOP_Q",
            ),
        );
        push(
            &mut instructions,
            MicroInstruction::sequencer_only(Sequencer::Jump(dispatch_entry), "ELEMENT_NEXT"),
        );

        Microprogram {
            instructions,
            poll_entry,
            dispatch_entry,
            op_entries: op_entries.try_into().expect("seven ops"),
        }
    }

    /// The instructions in WCS order.
    pub fn instructions(&self) -> &[MicroInstruction] {
        &self.instructions
    }

    /// Number of WCS words used.
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// True if the program is empty (never for [`standard`](Self::standard)).
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// Entry address of the polling routine.
    pub fn poll_entry(&self) -> u16 {
        self.poll_entry
    }

    /// Entry address of the Map ROM dispatch instruction.
    pub fn dispatch_entry(&self) -> u16 {
        self.dispatch_entry
    }

    /// Entry address of the routine for `op`.
    pub fn op_entry(&self, op: HwOp) -> u16 {
        self.op_entries
            .iter()
            .find(|(o, _)| *o == op)
            .expect("every op has a routine")
            .1
    }

    /// The body of `op`'s routine (its datapath cycles, excluding the
    /// FAIL trampoline).
    pub fn op_routine(&self, op: HwOp) -> &[MicroInstruction] {
        let start = self.op_entry(op) as usize;
        &self.instructions[start..start + op.cycle_count()]
    }

    /// The assembled 64-bit words, ready for Microprogramming-mode
    /// loading.
    pub fn words(&self) -> Vec<u64> {
        self.instructions
            .iter()
            .map(MicroInstruction::to_word)
            .collect()
    }
}

impl fmt::Display for Microprogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "WCS listing — {} of {} instructions used",
            self.len(),
            WCS_INSTRUCTIONS
        )?;
        for (addr, instruction) in self.instructions.iter().enumerate() {
            let c = &instruction.control;
            let mut fields = Vec::new();
            for (name, branch) in [
                ("sel1", c.sel1),
                ("sel2", c.sel2),
                ("sel3", c.sel3),
                ("sel4", c.sel4),
                ("sel5", c.sel5),
                ("sel6", c.sel6),
            ] {
                match branch {
                    SelBranch::Left => fields.push(format!("{name}=L")),
                    SelBranch::Right => fields.push(format!("{name}=R")),
                    SelBranch::Hold => {}
                }
            }
            if c.latch_reg1 {
                fields.push("reg1".into());
            }
            if c.latch_reg3 {
                fields.push("reg3".into());
            }
            if c.write_db_memory {
                fields.push("wr-db".into());
            }
            if c.write_query_memory {
                fields.push("wr-q".into());
            }
            if c.compare {
                fields.push("cmp".into());
            }
            if c.dec_db_counter {
                fields.push("dec-dbc".into());
            }
            if c.dec_query_counter {
                fields.push("dec-qc".into());
            }
            if c.b_addr_from_reg1 {
                fields.push("baddr=reg1".into());
            }
            if c.q_address != 0 {
                fields.push(format!("ub13-20={}", c.q_address));
            }
            writeln!(
                f,
                "{addr:>4}  {:<22} {:<34} {}",
                instruction.label,
                format!("{:?}", instruction.sequencer),
                fields.join(" ")
            )?;
        }
        Ok(())
    }
}

/// The selector/latch settings realising cycle `k` of `op` — transcribed
/// from the figures' route descriptions ("left branch of Sel1", "right
/// branch of Sel3", …).
fn op_cycle_control(op: HwOp, k: usize) -> DatapathControl {
    use SelBranch::{Left, Right};
    let mut c = DatapathControl::default();
    match (op, k) {
        // Fig. 6: db = In-bus -> left Sel1; query = left Sel6 -> QMem ->
        // right Sel3.
        (HwOp::Match, 0) => {
            c.sel1 = Left;
            c.sel6 = Left;
            c.sel3 = Right;
        }
        // Fig. 7: db = left Sel1 -> left Sel2 (DB Memory A address);
        // query = left Sel6 -> QMem -> Reg3.
        (HwOp::DbStore, 0) => {
            c.sel1 = Left;
            c.sel2 = Left;
            c.sel6 = Left;
            c.latch_reg3 = true;
        }
        // Fig. 8: db = left Sel1 -> right Sel5 -> left Sel4; query = left
        // Sel6 addresses the Query Memory.
        (HwOp::QueryStore, 0) => {
            c.sel1 = Left;
            c.sel5 = Right;
            c.sel4 = Left;
            c.sel6 = Left;
        }
        // Fig. 9: db = DB Memory B data -> right Sel1; query as MATCH.
        (HwOp::DbFetch, 0) => {
            c.sel1 = Right;
            c.sel6 = Left;
            c.sel3 = Right;
        }
        // Fig. 10 cycle 1: query = left Sel6 -> QMem -> right Sel3 ->
        // right Sel2 -> DB Memory A address; db = left Sel1 (held after).
        (HwOp::QueryFetch, 0) => {
            c.sel1 = Left;
            c.sel6 = Left;
            c.sel3 = Right;
            c.sel2 = Right;
        }
        // Fig. 10 cycle 2: binding out of DB Memory via left Sel3.
        (HwOp::QueryFetch, 1) => {
            c.sel3 = Left;
        }
        // Fig. 11 cycle 1: db = DB Memory B data -> Reg1; query route as
        // MATCH (set up early).
        (HwOp::DbCrossBoundFetch, 0) => {
            c.latch_reg1 = true;
            c.sel6 = Left;
            c.sel3 = Right;
        }
        // Fig. 11 cycle 2: Reg1 -> DB Memory B address -> right Sel1.
        (HwOp::DbCrossBoundFetch, 1) => {
            c.sel1 = Right;
            c.b_addr_from_reg1 = true;
        }
        // Fig. 12 cycle 1: query = left Sel6 -> QMem -> right Sel3 ->
        // right Sel2; db = left Sel1 (held).
        (HwOp::QueryCrossBoundFetch, 0) => {
            c.sel1 = Left;
            c.sel6 = Left;
            c.sel3 = Right;
            c.sel2 = Right;
        }
        // Fig. 12 cycle 2: DB Memory A-data recycles through the left
        // branch of Sel3 back onto the A address port via Sel2's
        // Sel3-side input.
        (HwOp::QueryCrossBoundFetch, 1) => {
            c.sel3 = Left;
            c.sel2 = Right;
        }
        // Fig. 12 cycle 3: DB Memory -> left Sel3 to the B port.
        (HwOp::QueryCrossBoundFetch, 2) => {
            c.sel3 = Left;
        }
        _ => unreachable!("no cycle {k} in {op}"),
    }
    c
}

/// The WCS RAM: 2048 words of 64 bits, loadable in Microprogramming mode.
#[derive(Debug, Clone)]
pub struct Wcs {
    ram: Vec<u64>,
}

/// Error loading a microprogram that exceeds the WCS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WcsOverflowError {
    /// Instructions in the offending program.
    pub instructions: usize,
}

impl fmt::Display for WcsOverflowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "microprogram of {} instructions exceeds the {WCS_INSTRUCTIONS}-word WCS",
            self.instructions
        )
    }
}

impl std::error::Error for WcsOverflowError {}

impl Wcs {
    /// An empty (all-zero) control store.
    pub fn new() -> Self {
        Wcs {
            ram: vec![0; WCS_INSTRUCTIONS],
        }
    }

    /// Loads a program at address zero.
    ///
    /// # Errors
    ///
    /// Returns [`WcsOverflowError`] if the program exceeds 2048 words.
    pub fn load(&mut self, program: &Microprogram) -> Result<(), WcsOverflowError> {
        let words = program.words();
        if words.len() > WCS_INSTRUCTIONS {
            return Err(WcsOverflowError {
                instructions: words.len(),
            });
        }
        self.ram[..words.len()].copy_from_slice(&words);
        for slot in &mut self.ram[words.len()..] {
            *slot = 0;
        }
        Ok(())
    }
}

impl Default for Wcs {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_program_fits_the_wcs() {
        let p = Microprogram::standard();
        assert!(p.len() <= WCS_INSTRUCTIONS);
        assert!(p.len() >= 20, "a real program, not a stub: {}", p.len());
        let mut wcs = Wcs::new();
        wcs.load(&p).unwrap();
    }

    /// Unpacks a 64-bit WCS word (labels are lost).
    fn from_word(word: u64) -> MicroInstruction {
        let sel = |bits: u64| match bits & 0b11 {
            1 => SelBranch::Left,
            2 => SelBranch::Right,
            _ => SelBranch::Hold,
        };
        let cc = match (word >> 4) & 0b11 {
            0 => CondCode::ClauseReady,
            1 => CondCode::Hit,
            2 => CondCode::DbCounterZero,
            _ => CondCode::QueryCounterZero,
        };
        let addr = ((word >> 6) & 0x7FF) as u16;
        let sequencer = match word & 0xF {
            SEQ_JUMP => Sequencer::Jump(addr),
            SEQ_COND_JUMP => Sequencer::CondJump(cc, addr),
            SEQ_JUMP_MAP => Sequencer::JumpMap,
            SEQ_POLL => Sequencer::Poll(cc),
            _ => Sequencer::Continue,
        };
        let control = DatapathControl {
            sel1: sel(word >> 17),
            sel2: sel(word >> 19),
            sel3: sel(word >> 21),
            sel4: sel(word >> 23),
            sel5: sel(word >> 25),
            sel6: sel(word >> 27),
            latch_reg1: word & (1 << 29) != 0,
            latch_reg3: word & (1 << 30) != 0,
            write_db_memory: word & (1 << 31) != 0,
            write_query_memory: word & (1 << 32) != 0,
            compare: word & (1 << 33) != 0,
            dec_db_counter: word & (1 << 34) != 0,
            dec_query_counter: word & (1 << 35) != 0,
            q_address: ((word >> 36) & 0xFF) as u8,
            b_addr_from_reg1: word & (1 << 44) != 0,
        };
        MicroInstruction {
            sequencer,
            control,
            label: "",
        }
    }

    #[test]
    fn word_encoding_roundtrips() {
        for instruction in Microprogram::standard().instructions() {
            let back = from_word(instruction.to_word());
            assert_eq!(
                back.sequencer, instruction.sequencer,
                "{}",
                instruction.label
            );
            assert_eq!(back.control, instruction.control, "{}", instruction.label);
        }
    }

    #[test]
    fn routine_lengths_match_figure_cycle_counts() {
        let p = Microprogram::standard();
        for op in HwOp::ALL {
            assert_eq!(
                p.op_routine(op).len(),
                op.cycle_count(),
                "{op}: one instruction per figure cycle"
            );
        }
    }

    #[test]
    fn selector_settings_consistent_with_figure_routes() {
        // The microprogram's control fields and the ops module's route
        // lists describe the same figures; cross-validate them.
        let p = Microprogram::standard();
        for op in HwOp::ALL {
            for (k, (instruction, cycle)) in p.op_routine(op).iter().zip(op.cycles()).enumerate() {
                assert!(
                    instruction
                        .control
                        .consistent_with_routes(cycle.db_route, cycle.query_route),
                    "{op} cycle {k}: control {:?} vs routes {:?}/{:?}",
                    instruction.control,
                    cycle.db_route,
                    cycle.query_route
                );
            }
        }
    }

    #[test]
    fn terminal_actions_encoded() {
        let p = Microprogram::standard();
        let last = |op: HwOp| p.op_routine(op).last().unwrap().control;
        assert!(last(HwOp::DbStore).write_db_memory);
        assert!(last(HwOp::QueryStore).write_query_memory);
        assert!(last(HwOp::Match).compare);
        assert!(last(HwOp::QueryCrossBoundFetch).compare);
        assert!(!last(HwOp::DbStore).compare);

        // Control flow: poll for a clause, dispatch on the Map ROM, and
        // leave every routine for the accept or the reject entry.
        let code = p.instructions();
        let at = |label: &str| code.iter().position(|i| i.label == label).unwrap();
        let poll = at("POLL_CLAUSE");
        assert_eq!(poll, p.poll_entry() as usize);
        assert_eq!(code[poll].sequencer, Sequencer::Poll(CondCode::ClauseReady));
        assert_eq!(at("DISPATCH"), poll + 1);
        assert_eq!(p.dispatch_entry() as usize, poll + 1);
        assert_eq!(code[poll + 1].sequencer, Sequencer::JumpMap);
        let accept = at("ACCEPT_NEXT_ARG") as u16;
        let reject = Sequencer::Jump(at("REJECT_CLAUSE") as u16);
        for op in HwOp::ALL {
            let end = p.op_entry(op) as usize + op.cycle_count() - 1;
            if matches!(op, HwOp::DbStore | HwOp::QueryStore) {
                assert_eq!(code[end].sequencer, Sequencer::Jump(accept), "{op}");
            } else {
                let hit = Sequencer::CondJump(CondCode::Hit, accept);
                assert_eq!(code[end].sequencer, hit, "{op}");
                assert_eq!(code[end + 1].sequencer, reject, "{op} falls through");
            }
        }
    }

    #[test]
    fn overflow_rejected() {
        let mut wcs = Wcs::new();
        let mut big = Microprogram::standard();
        while big.instructions.len() <= WCS_INSTRUCTIONS {
            big.instructions
                .push(MicroInstruction::sequencer_only(Sequencer::Continue, "PAD"));
        }
        assert!(wcs.load(&big).is_err());
    }
}
