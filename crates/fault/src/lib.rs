//! Deterministic fault injection for the CLARE storage and network path.
//!
//! The paper's engine streams clauses off a disk, filters them in
//! hardware, and (in our reproduction) serves them over TCP — three
//! places where bytes can rot, reads can come up short, and workers can
//! die. This crate is the one switchboard every layer consults before
//! trusting its inputs:
//!
//! * [`crc32c`] — the Castagnoli checksum guarding disk tracks, `.ckb`
//!   sections, and wire frames (hand-rolled, resumable, slicing-by-8).
//! * [`FaultInjector`] — a trait deciding, per *site* and *context*,
//!   whether to corrupt the operation in flight. The default is a no-op;
//!   production code pays one relaxed atomic load per injection point.
//! * [`DeterministicInjector`] — a seeded injector whose every decision
//!   is a pure hash of `(seed, site, context)`. No sequence counters, no
//!   shared state: the same seed produces the same faults regardless of
//!   thread interleaving, which is what lets the chaos harness replay
//!   10,000 schedules and diff answers against a fault-free run.
//! * [`install`] — swaps an injector into the process-wide registry and
//!   returns an RAII guard. The guard also holds a global lock, so chaos
//!   tests in one binary serialize instead of corrupting each other.
//!
//! Injection *sites* are coarse, stable names ([`FaultSite`]); the
//! *context* is a site-specific 64-bit key (track index, byte offset,
//! request id) so faults land on addressable units that tests can reason
//! about.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]

pub mod crc32c;

pub use crc32c::{crc32c, crc32c_append};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

/// Declares [`FaultSite`] from one table: each site's docs, its index
/// (the explicit discriminant, which `DeterministicInjector` hashes, so
/// every seeded chaos schedule depends on it) and its report name.
macro_rules! fault_sites {
    ($( $(#[$doc:meta])* $site:ident = $index:literal => $name:literal, )*) => {
        /// Where in the pipeline a fault decision is being made.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum FaultSite {
            $( $(#[$doc])* $site = $index, )*
        }

        /// Number of distinct [`FaultSite`]s (sizes the counter arrays).
        pub const SITE_COUNT: usize = [$($index),*].len();

        impl FaultSite {
            /// All sites, in counter index order.
            pub const ALL: [FaultSite; SITE_COUNT] = [$(FaultSite::$site),*];

            /// Index of this site in [`Self::ALL`].
            pub fn index(self) -> usize {
                self as usize
            }

            /// Stable display name (used in chaos reports).
            pub fn name(self) -> &'static str {
                match self {
                    $(FaultSite::$site => $name,)*
                }
            }
        }
    };
}

fault_sites! {
    /// A disk [`Track`](../clare_disk/volume/struct.Track.html) being
    /// delivered to a reader. Context: track index mixed with a hash of
    /// the file name. Menu: bit flips, short reads.
    DiskTrackRead = 0 => "disk_track_read",
    /// A chunk read while loading a `.ckb` knowledge-base image.
    /// Context: byte offset of the chunk. Menu: bit flips, short reads.
    KbRead = 1 => "kb_read",
    /// A chunk written while saving a `.ckb` image. Context: byte offset.
    /// Menu: torn write (the file ends here, as if power was lost).
    CkbWrite = 2 => "ckb_write",
    /// The server writing a reply frame. Context: request id. Menu:
    /// dropped frame, half-written frame, bit flip in the payload.
    NetServerSend = 3 => "net_server_send",
    /// The client writing a request frame. Context: request id. Menu:
    /// dropped frame, half-written frame.
    NetClientSend = 4 => "net_client_send",
    /// The epoll reactor pulling bytes off a ready socket. Context: the
    /// connection token mixed with the read round. Menu: short read
    /// (deliver only a prefix of what the kernel had — the frame
    /// reassembler must pick up mid-frame), spurious wakeup (an EAGAIN
    /// storm: the readiness notification yields no bytes this round).
    /// Both are *transparent* faults: answers must stay byte-identical.
    NetReactorRead = 5 => "net_reactor_read",
    /// The epoll reactor flushing a connection's outbound queue.
    /// Context: the connection token mixed with the flush round. Menu:
    /// torn write (only a prefix of the pending bytes — possibly
    /// splitting a frame's length prefix — leaves this round; the rest
    /// must follow on a later `EPOLLOUT`). Transparent: replies must
    /// still arrive byte-identical.
    NetReactorWrite = 6 => "net_reactor_write",
    /// The write-ahead log appending a commit batch. Context: the first
    /// sequence number of the batch. Menu: torn append (a prefix of the
    /// batch's frames reaches the file and the append reports failure, as
    /// if power was lost mid-write — the batch is never acknowledged, and
    /// replay-on-open must truncate the torn tail).
    WalAppend = 7 => "wal_append",
    /// The cluster router forwarding a shipped WAL frame to a shard's
    /// backup. Context: the record's sequence number. Menu: `Drop` (the
    /// frame never leaves — the resend window must recover it),
    /// `Delay` (the call site holds the frame one slot and swaps it with
    /// its successor — a reorder), `Truncate` (the call site forwards
    /// the frame twice — a duplicate). The last two are site-interpreted
    /// shapes, the established pattern for worker-style sites.
    ReplSend = 8 => "repl_send",
    /// A backup applying a shipped WAL frame. Context: the record's
    /// sequence number. Menu: `Drop` (refuse the frame with an error
    /// reply, forcing the router to retry), `Delay` (stall before
    /// applying).
    ReplApply = 9 => "repl_apply",
    /// A serving worker beginning to execute a dequeued job. Context:
    /// the request id. Menu: `Delay` only — the worker stalls before
    /// touching the engine, so chaos schedules can pin workers long
    /// enough that queued jobs outlive their deadlines and must be shed
    /// (never executed, never cached).
    WorkerStall = 10 => "worker_stall",
}

/// What the injector asks the call site to do to the operation in
/// flight. Offsets and lengths are raw 64-bit values; the call site
/// reduces them modulo its buffer size, so one action shape serves every
/// site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Proceed untouched (the default, and the only answer the no-op
    /// injector ever gives).
    None,
    /// Flip one bit of the payload. The call site takes
    /// `bit % (len * 8)`.
    FlipBit {
        /// Raw bit selector, reduced modulo the payload bit length.
        bit: u64,
    },
    /// Deliver or persist only a prefix. The call site keeps
    /// `keep % len` bytes (possibly zero).
    Truncate {
        /// Raw length selector, reduced modulo the payload length.
        keep: u64,
    },
    /// Drop the operation entirely (a frame that never hits the wire).
    Drop,
    /// Stall for roughly this long before proceeding (worker sites).
    Delay {
        /// Stall duration in microseconds.
        micros: u64,
    },
}

/// A fault decision source. Implementations must be cheap and pure:
/// `decide` is called on hot paths and must give the same answer for the
/// same `(site, context)` pair for the lifetime of the injector.
pub trait FaultInjector: Send + Sync {
    /// The fault (if any) to apply at `site` for the unit identified by
    /// `context`.
    fn decide(&self, site: FaultSite, context: u64) -> FaultAction;
}

/// Per-site fault probabilities, in permille (0..=1000).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultPlan {
    permille: [u32; SITE_COUNT],
}

impl FaultPlan {
    /// A plan that injects nothing anywhere.
    pub fn none() -> Self {
        Self::default()
    }

    /// A plan injecting at every site with the same probability.
    pub fn uniform(permille: u32) -> Self {
        FaultPlan {
            permille: [permille.min(1000); SITE_COUNT],
        }
    }

    /// Sets one site's fault probability (builder style).
    pub fn with(mut self, site: FaultSite, permille: u32) -> Self {
        self.permille[site.index()] = permille.min(1000);
        self
    }

    /// This site's fault probability in permille.
    pub fn permille(&self, site: FaultSite) -> u32 {
        self.permille[site.index()]
    }
}

/// SplitMix64 finalizer — a strong 64-bit mix.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A seeded injector whose decisions are pure functions of
/// `(seed, site, context)` — deterministic under any thread
/// interleaving, which is what makes chaos schedules replayable.
#[derive(Debug, Clone)]
pub struct DeterministicInjector {
    seed: u64,
    plan: FaultPlan,
}

impl DeterministicInjector {
    /// An injector driven by `seed` with per-site rates from `plan`.
    pub fn new(seed: u64, plan: FaultPlan) -> Self {
        DeterministicInjector { seed, plan }
    }
}

impl FaultInjector for DeterministicInjector {
    fn decide(&self, site: FaultSite, context: u64) -> FaultAction {
        let p = self.plan.permille(site);
        if p == 0 {
            return FaultAction::None;
        }
        let h = mix64(self.seed ^ mix64((site.index() as u64 + 1) ^ context.rotate_left(17)));
        if (h % 1000) as u32 >= p {
            return FaultAction::None;
        }
        // More independent bits pick the action and its parameter.
        let choice = mix64(h);
        let param = mix64(choice);
        match site {
            FaultSite::DiskTrackRead | FaultSite::KbRead => {
                if choice.is_multiple_of(2) {
                    FaultAction::FlipBit { bit: param }
                } else {
                    FaultAction::Truncate { keep: param }
                }
            }
            FaultSite::CkbWrite => FaultAction::Truncate { keep: param },
            FaultSite::NetServerSend => match choice % 3 {
                0 => FaultAction::Drop,
                1 => FaultAction::Truncate { keep: param },
                _ => FaultAction::FlipBit { bit: param },
            },
            FaultSite::NetClientSend => {
                if choice.is_multiple_of(2) {
                    FaultAction::Drop
                } else {
                    FaultAction::Truncate { keep: param }
                }
            }
            FaultSite::NetReactorRead => {
                if choice.is_multiple_of(2) {
                    // Short read: the reactor caps how much it pulls off
                    // the socket this round.
                    FaultAction::Truncate { keep: param }
                } else {
                    // Spurious wakeup: zero bytes this round, as if the
                    // readiness notification raced a draining peer.
                    FaultAction::Drop
                }
            }
            FaultSite::NetReactorWrite => FaultAction::Truncate { keep: param },
            FaultSite::WalAppend => FaultAction::Truncate { keep: param },
            FaultSite::ReplSend => match choice % 3 {
                0 => FaultAction::Drop,
                1 => FaultAction::Delay {
                    micros: param % 500,
                },
                _ => FaultAction::Truncate { keep: param },
            },
            FaultSite::ReplApply => {
                if choice.is_multiple_of(2) {
                    FaultAction::Drop
                } else {
                    FaultAction::Delay {
                        micros: param % 500,
                    }
                }
            }
            // Worker stalls reach up to 100 ms — long enough to push a
            // queued job past a 50 ms deadline, short enough that chaos
            // schedules stay fast.
            FaultSite::WorkerStall => FaultAction::Delay {
                micros: param % 100_000,
            },
        }
    }
}

/// The always-clean injector the registry falls back to.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopInjector;

impl FaultInjector for NoopInjector {
    fn decide(&self, _site: FaultSite, _context: u64) -> FaultAction {
        FaultAction::None
    }
}

// --- process-wide registry ----------------------------------------------

/// Fast-path flag: injection points pay one relaxed load when no
/// injector is installed.
static ENABLED: AtomicBool = AtomicBool::new(false);
static INJECTOR: RwLock<Option<Arc<dyn FaultInjector>>> = RwLock::new(None);
/// Serializes chaos tests within one binary: [`install`] holds this for
/// the guard's lifetime.
static INSTALL_LOCK: Mutex<()> = Mutex::new(());
/// Faults actually handed out, per site (for chaos assertions).
static INJECTED: [AtomicU64; SITE_COUNT] = {
    #[allow(clippy::declare_interior_mutable_const)]
    const ZERO: AtomicU64 = AtomicU64::new(0);
    [ZERO; SITE_COUNT]
};

fn read_injector() -> Option<Arc<dyn FaultInjector>> {
    match INJECTOR.read() {
        Ok(slot) => slot.clone(),
        Err(poisoned) => poisoned.into_inner().clone(),
    }
}

/// The fault decision for `site`/`context`. This is the call every
/// injection point makes; with no injector installed it is one relaxed
/// atomic load.
pub fn decide(site: FaultSite, context: u64) -> FaultAction {
    if !ENABLED.load(Ordering::Relaxed) {
        return FaultAction::None;
    }
    let Some(injector) = read_injector() else {
        return FaultAction::None;
    };
    let action = injector.decide(site, context);
    if action != FaultAction::None {
        INJECTED[site.index()].fetch_add(1, Ordering::Relaxed);
    }
    action
}

/// True when an injector is installed (cheap; used to skip building
/// fault-only context values on hot paths).
pub fn active() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Faults handed out so far, indexed like [`FaultSite::ALL`].
pub fn injected_counts() -> [u64; SITE_COUNT] {
    let mut out = [0u64; SITE_COUNT];
    for (slot, counter) in out.iter_mut().zip(INJECTED.iter()) {
        *slot = counter.load(Ordering::Relaxed);
    }
    out
}

/// Total faults handed out so far across all sites.
pub fn injected_total() -> u64 {
    injected_counts().iter().sum()
}

/// Keeps an injector installed; uninstalls on drop. Holding the guard
/// also holds a process-wide lock, so concurrent `install` calls (e.g.
/// chaos tests running in one binary) serialize.
pub struct InstallGuard {
    _lock: MutexGuard<'static, ()>,
}

impl std::fmt::Debug for InstallGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("InstallGuard")
    }
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        ENABLED.store(false, Ordering::SeqCst);
        match INJECTOR.write() {
            Ok(mut slot) => *slot = None,
            Err(poisoned) => *poisoned.into_inner() = None,
        }
    }
}

/// Installs `injector` as the process-wide fault source until the
/// returned guard drops. Blocks while another guard is alive.
pub fn install(injector: Arc<dyn FaultInjector>) -> InstallGuard {
    let lock = match INSTALL_LOCK.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    match INJECTOR.write() {
        Ok(mut slot) => *slot = Some(injector),
        Err(poisoned) => *poisoned.into_inner() = Some(injector),
    }
    ENABLED.store(true, Ordering::SeqCst);
    InstallGuard { _lock: lock }
}

/// Applies a [`FaultAction`] to a byte buffer in place, returning `true`
/// when the buffer was changed. `Drop`/`Delay` are call-site
/// behaviors and leave the buffer alone.
pub fn corrupt_in_place(action: FaultAction, bytes: &mut Vec<u8>) -> bool {
    match action {
        FaultAction::FlipBit { bit } if !bytes.is_empty() => {
            let i = (bit % (bytes.len() as u64 * 8)) as usize;
            bytes[i / 8] ^= 1 << (i % 8);
            true
        }
        FaultAction::Truncate { keep } if !bytes.is_empty() => {
            let keep = (keep % bytes.len() as u64) as usize;
            bytes.truncate(keep);
            true
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_table_indices_and_names_are_consistent() {
        for (i, site) in FaultSite::ALL.iter().enumerate() {
            assert_eq!(site.index(), i, "{site:?}");
        }
        let mut names: Vec<&str> = FaultSite::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SITE_COUNT, "duplicate site names");
    }

    #[test]
    fn noop_injector_never_faults() {
        let inj = NoopInjector;
        for site in FaultSite::ALL {
            for ctx in 0..100 {
                assert_eq!(inj.decide(site, ctx), FaultAction::None);
            }
        }
    }

    #[test]
    fn decisions_are_pure_and_seed_sensitive() {
        let plan = FaultPlan::uniform(500);
        let a = DeterministicInjector::new(42, plan);
        let b = DeterministicInjector::new(42, plan);
        let c = DeterministicInjector::new(43, plan);
        let mut diverged = false;
        for site in FaultSite::ALL {
            for ctx in 0..200u64 {
                assert_eq!(a.decide(site, ctx), b.decide(site, ctx), "not pure");
                if a.decide(site, ctx) != c.decide(site, ctx) {
                    diverged = true;
                }
            }
        }
        assert!(diverged, "seeds 42 and 43 gave identical schedules");
    }

    #[test]
    fn rates_roughly_track_the_plan() {
        let inj = DeterministicInjector::new(7, FaultPlan::uniform(250));
        let hits = (0..4000u64)
            .filter(|&ctx| inj.decide(FaultSite::DiskTrackRead, ctx) != FaultAction::None)
            .count();
        // 25% nominal; accept a generous band.
        assert!((600..1400).contains(&hits), "hit rate {hits}/4000");
    }

    #[test]
    fn site_menus_are_respected() {
        let inj = DeterministicInjector::new(9, FaultPlan::uniform(1000));
        for ctx in 0..500u64 {
            match inj.decide(FaultSite::CkbWrite, ctx) {
                FaultAction::Truncate { .. } => {}
                other => panic!("CkbWrite produced {other:?}"),
            }
            match inj.decide(FaultSite::WalAppend, ctx) {
                FaultAction::Truncate { .. } => {}
                other => panic!("WalAppend produced {other:?}"),
            }
            match inj.decide(FaultSite::WorkerStall, ctx) {
                FaultAction::Delay { micros } => assert!(micros < 100_000),
                other => panic!("WorkerStall produced {other:?}"),
            }
        }
    }

    #[test]
    fn registry_roundtrip_and_counters() {
        assert_eq!(decide(FaultSite::KbRead, 1), FaultAction::None);
        let before = injected_total();
        {
            let _guard = install(Arc::new(DeterministicInjector::new(
                3,
                FaultPlan::uniform(1000),
            )));
            assert!(active());
            let mut any = false;
            for ctx in 0..32 {
                if decide(FaultSite::KbRead, ctx) != FaultAction::None {
                    any = true;
                }
            }
            assert!(any, "a 100% plan never fired");
            assert!(injected_total() > before);
        }
        assert!(!active());
        assert_eq!(decide(FaultSite::KbRead, 1), FaultAction::None);
    }

    #[test]
    fn corrupt_in_place_flips_and_truncates() {
        let mut buf = vec![0u8; 16];
        assert!(corrupt_in_place(
            FaultAction::FlipBit { bit: 130 },
            &mut buf
        ));
        assert_eq!(buf.iter().map(|b| b.count_ones()).sum::<u32>(), 1);
        let mut buf = vec![1u8; 16];
        assert!(corrupt_in_place(
            FaultAction::Truncate { keep: 21 },
            &mut buf
        ));
        assert_eq!(buf.len(), 5);
        let mut empty: Vec<u8> = Vec::new();
        assert!(!corrupt_in_place(
            FaultAction::FlipBit { bit: 3 },
            &mut empty
        ));
    }
}
