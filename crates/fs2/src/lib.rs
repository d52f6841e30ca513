//! FS2 — the second-stage filter of the CLARE engine (§3 of the paper).
//!
//! A route-accurate software simulation of the partial-test-unification
//! hardware:
//!
//! * [`components`] — the datapath components of the Test Unification
//!   Engine (Figure 5) with the propagation delays printed under
//!   Figures 6–12 (selectors 20 ns, Query Memory 35 ns, DB Memory 25 ns,
//!   registers 20 ns, comparator 30 ns, Double Buffer output 20 ns).
//! * [`ops`] — the seven hardware operations (MATCH, DB_STORE,
//!   QUERY_STORE, DB_FETCH, QUERY_FETCH, DB_CROSS_BOUND_FETCH,
//!   QUERY_CROSS_BOUND_FETCH) defined by their per-cycle datapath routes.
//!   **Table 1 is derived, not transcribed**: each execution time is the
//!   sum over cycles of the longest parallel route, plus the terminal
//!   comparator or memory-write delay.
//! * [`control`] — the 8-bit control register, the four operational modes
//!   (Read Result / Search / Microprogramming / Set Query), and the
//!   FS1/FS2 select bit, as mapped into the host's VMEbus space.
//! * [`memory`] — Query Memory and DB Memory as arrays of 32-bit PIF
//!   words, with the "reset to pointing to itself" idiom for unbound
//!   variable cells.
//! * [`map`] — the Map ROM: dispatch on the pair of 8-bit type tags to a
//!   microroutine, per the three type categories of §3.1.
//! * [`micro`] — the Writable Control Store and the standard Level-3
//!   microprogram as a listing: 64-bit words, one routine per Table 1
//!   operation, selector settings cross-checked against the routes of
//!   [`ops`]. Nothing executes it; [`engine`] implements the semantics.
//! * [`engine`] — the matching engine: walks the pre-loaded query stream
//!   against each clause head stream, drives the seven operations, and
//!   renders a verdict with an op histogram and nanosecond timing; a
//!   [`MatchObserver`] records the op sequence or a per-pair [`Trace`].
//! * [`trace`] — renders a recorded [`Trace`] as a table.
//! * [`result`] — the Result Memory with its 6-bit satisfier counter and
//!   9-bit offset counter (32 KB, one disk track worst case).
//! * [`buffer`] — the Double Buffer alternation model.
//! * [`device`] — `Fs2Device`, tying control modes, engine, buffers, and
//!   result memory together for track-at-a-time searches.

#![warn(missing_docs)]

pub mod buffer;
pub mod components;
pub mod control;
pub mod device;
pub mod engine;
pub mod map;
pub mod memory;
pub mod micro;
pub mod ops;
pub mod result;
pub mod trace;

pub use control::{ControlRegister, FilterSelect, OperationalMode};
pub use device::{Fs2Device, SearchStats};
pub use engine::{
    Fs2Engine, MatchObserver, Selection, StreamVerdict, Trace, TraceStep, TrackVerdict,
};
pub use micro::Microprogram;
pub use ops::{HwOp, RouteTrace};
pub use result::ResultMemory;
