//! The cluster router: placement, log-shipping replication, failover.
//!
//! The router is a thin, stateless-about-data layer: it never holds
//! clauses, only connections and replication bookkeeping. Reads and
//! writes route by predicate ([`ShardMap`]); each shard's committed ops
//! stream back to the router over a `SUBSCRIBE_LOG` connection and are
//! forwarded to the shard's backup as `LOG_FRAME` requests, with a
//! resend window bridging dropped, duplicated, or reordered frames
//! (the [`clare_fault::FaultSite::ReplSend`] /
//! [`clare_fault::FaultSite::ReplApply`] chaos sites).
//!
//! Writes are acknowledged *semi-synchronously*: the cluster receipt's
//! `replicated` flag is true only when the backup had durably applied
//! every sequence the commit occupies before the receipt was returned.
//! After a failover, answers from a backup that might be behind the
//! acknowledged write frontier are flagged degraded — delivered, never
//! dropped, but marked.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use clare_core::{CommitReceipt, RequestContext, Retrieval, SearchMode, ServerStats};
use clare_net::protocol::{ErrorReply, CAP_FRAME_CRC};
use clare_net::{ClientConfig, ErrorCode, NetClient, NetError, Service};
use clare_term::parser::parse_program;
use clare_term::{SymbolTable, Term};

use crate::error::ClusterError;
use crate::map::{Placement, ShardMap};

/// Router tuning knobs.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Client configuration for every backend connection.
    pub client: ClientConfig,
    /// How long a write waits for the shard's backup to apply it before
    /// the receipt returns with `replicated: false` (and the shard is
    /// marked lagging). Writes never block longer than this.
    pub repl_sync_timeout: Duration,
    /// Consecutive failed health probes before a primary is considered
    /// down and (with [`RouterConfig::auto_failover`]) its backup is
    /// promoted.
    pub heartbeat_misses: u32,
    /// Promote automatically from [`Router::tick_health`]; with this
    /// off, probes still count misses but promotion is manual.
    pub auto_failover: bool,
    /// Connect/read timeout for one health probe.
    pub health_timeout: Duration,
    /// Consecutive breaker-relevant failures (`Busy` refusals, I/O or
    /// protocol failures, timeouts) on one shard before its circuit
    /// breaker opens and requests fast-fail with
    /// [`ClusterError::ShardUnavailable`] instead of piling onto a sick
    /// backend. 0 disables the breaker.
    pub breaker_threshold: u32,
    /// How long an open breaker holds requests off before admitting a
    /// single half-open probe; the probe's outcome closes or re-opens it.
    pub breaker_cooldown: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            client: ClientConfig::default(),
            repl_sync_timeout: Duration::from_secs(2),
            heartbeat_misses: 3,
            auto_failover: true,
            health_timeout: Duration::from_millis(250),
            breaker_threshold: 4,
            breaker_cooldown: Duration::from_millis(250),
        }
    }
}

/// Circuit-breaker state machine for one shard.
///
/// `Closed` (healthy) —K consecutive failures→ `Open` (fast-fail every
/// request) —cooldown elapses→ `HalfOpen` (exactly one probe request
/// admitted; everyone else still fast-fails) —probe succeeds→ `Closed`,
/// —probe fails→ `Open` again with a fresh cooldown.
#[derive(Debug, Clone, Copy)]
enum BreakerState {
    Closed,
    Open { since: Instant },
    HalfOpen,
}

#[derive(Debug)]
struct Breaker {
    consecutive: u32,
    state: BreakerState,
}

impl Breaker {
    fn new() -> Breaker {
        Breaker {
            consecutive: 0,
            state: BreakerState::Closed,
        }
    }
}

/// A commit receipt as the cluster saw it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterReceipt {
    /// The shard primary's own receipt.
    pub receipt: CommitReceipt,
    /// Which shard the write landed on.
    pub shard: usize,
    /// True when the shard's backup had applied every sequence this
    /// commit occupies before the receipt was returned — the write
    /// survives losing the primary. Always false for a shard with no
    /// backup, and for writes whose semi-sync wait timed out (the shard
    /// is then marked lagging and post-failover answers run degraded).
    pub replicated: bool,
}

/// Replication state for one shard's backup.
struct BackupState {
    addr: String,
    /// Shipping (and, after promotion, bootstrap) connection.
    ship: Mutex<NetClient>,
    /// Highest sequence the backup confirmed applied.
    applied: Mutex<u64>,
    applied_cv: Condvar,
    /// Ship records fetched from the primary but not yet confirmed by
    /// the backup, in sequence order. Dropped/reordered/duplicated
    /// forwards recover by re-shipping from here.
    window: Mutex<VecDeque<(u64, Vec<u8>)>>,
    stop: AtomicBool,
    thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

struct Shard {
    index: usize,
    primary_addr: String,
    serving: Mutex<NetClient>,
    backup: Option<Arc<BackupState>>,
    /// The backup was promoted; `serving` now points at it.
    failed_over: AtomicBool,
    /// Set at promotion when the backup may be behind the acknowledged
    /// write frontier: every answer it serves is flagged degraded.
    stale: AtomicBool,
    /// A semi-sync wait timed out: replication is (or was) behind the
    /// acknowledgements this router handed out.
    lagging: AtomicBool,
    /// Highest sequence acknowledged to cluster clients on this shard.
    last_acked: AtomicU64,
    /// Consecutive failed health probes.
    misses: AtomicU64,
    /// Serving-path circuit breaker (see [`BreakerState`]).
    breaker: Mutex<Breaker>,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The cluster router. Cheap to share behind an `Arc`; every method
/// takes `&self`.
pub struct Router {
    map: ShardMap,
    cfg: RouterConfig,
    shards: Vec<Arc<Shard>>,
    /// Symbol namespace shared by all backends (snapshot of shard 0 at
    /// connect time; the hello fingerprint pins all bases equal).
    symbols: SymbolTable,
    fingerprint: u64,
}

impl Router {
    /// Connects to every backend in the map, verifies they serve the
    /// same knowledge base (hello fingerprints), and starts one
    /// replication thread per backed-up shard.
    pub fn connect(map: ShardMap, cfg: RouterConfig) -> Result<Router, ClusterError> {
        if map.shards.is_empty() {
            return Err(ClusterError::Unroutable("an empty shard map".to_owned()));
        }
        let mut expected = map.fingerprint;
        let mut check = |addr: &str, got: u64| -> Result<(), ClusterError> {
            match expected {
                Some(want) if want != got => Err(ClusterError::FingerprintMismatch {
                    addr: addr.to_owned(),
                    expected: want,
                    got,
                }),
                Some(_) => Ok(()),
                None => {
                    expected = Some(got);
                    Ok(())
                }
            }
        };

        let mut shards = Vec::with_capacity(map.shards.len());
        for (index, spec) in map.shards.iter().enumerate() {
            let serving = NetClient::connect(spec.primary.as_str(), cfg.client.clone())?;
            check(&spec.primary, serving.kb_fingerprint())?;
            let backup = match &spec.backup {
                Some(addr) => {
                    let ship = NetClient::connect(addr.as_str(), cfg.client.clone())?;
                    check(addr, ship.kb_fingerprint())?;
                    Some(Arc::new(BackupState {
                        addr: addr.clone(),
                        ship: Mutex::new(ship),
                        applied: Mutex::new(0),
                        applied_cv: Condvar::new(),
                        window: Mutex::new(VecDeque::new()),
                        stop: AtomicBool::new(false),
                        thread: Mutex::new(None),
                    }))
                }
                None => None,
            };
            shards.push(Arc::new(Shard {
                index,
                primary_addr: spec.primary.clone(),
                serving: Mutex::new(serving),
                backup,
                failed_over: AtomicBool::new(false),
                stale: AtomicBool::new(false),
                lagging: AtomicBool::new(false),
                last_acked: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                breaker: Mutex::new(Breaker::new()),
            }));
        }

        let symbols = lock(&shards[0].serving).symbols()?;
        let fingerprint = expected.unwrap_or(0);
        let router = Router {
            map,
            cfg,
            shards,
            symbols,
            fingerprint,
        };
        for shard in &router.shards {
            router.start_repl_thread(shard);
        }
        Ok(router)
    }

    /// The knowledge-base fingerprint every backend agreed on.
    pub fn kb_fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Whether the shard's backup has been promoted.
    pub fn is_failed_over(&self, shard: usize) -> bool {
        self.shards
            .get(shard)
            .is_some_and(|s| s.failed_over.load(Ordering::Relaxed))
    }

    /// The symbol namespace shared by every backend. Parse query terms
    /// against a clone of this table, exactly like the single-node
    /// client idiom. Predicates asserted at runtime should be
    /// pre-declared in the base knowledge base so their symbols exist
    /// in every backend's namespace.
    pub fn symbols(&self) -> SymbolTable {
        self.symbols.clone()
    }

    // ------------------------------------------------------------------
    // Placement
    // ------------------------------------------------------------------

    /// A stable byte signature for a bound first argument, or `None`
    /// when it cannot pin a hot sub-shard (variables, compounds).
    fn arg_sig(term: &Term, symbols: &SymbolTable) -> Option<Vec<u8>> {
        match term {
            Term::Atom(sym) => symbols.try_atom_text(*sym).map(|text| {
                let mut sig = Vec::with_capacity(text.len() + 2);
                sig.extend_from_slice(b"a:");
                sig.extend_from_slice(text.as_bytes());
                sig
            }),
            Term::Int(value) => {
                let mut sig = Vec::with_capacity(10);
                sig.extend_from_slice(b"i:");
                sig.extend_from_slice(&value.to_le_bytes());
                Some(sig)
            }
            _ => None,
        }
    }

    fn place_term(&self, term: &Term) -> Result<Placement, ClusterError> {
        let (functor, arity) = term
            .functor_arity()
            .ok_or_else(|| ClusterError::Unroutable("a term with no functor".to_owned()))?;
        let name = self
            .symbols
            .try_atom_text(functor)
            .ok_or_else(|| {
                ClusterError::Unroutable(
                    "a predicate outside the cluster's symbol namespace".to_owned(),
                )
            })?
            .to_owned();
        let sig = match term {
            Term::Struct { args, .. } => Self::arg_sig(&args[0], &self.symbols),
            _ => None,
        };
        Ok(self.map.place(&name, arity, sig.as_deref()))
    }

    /// Clause-head placement during a write: parsed against `scratch`
    /// (the router's namespace plus any names new in this source).
    fn place_head(&self, head: &Term, scratch: &SymbolTable) -> Result<usize, ClusterError> {
        let (functor, arity) = head
            .functor_arity()
            .ok_or_else(|| ClusterError::Unroutable("a clause with no head functor".to_owned()))?;
        let name = scratch
            .try_atom_text(functor)
            .ok_or_else(|| ClusterError::Unroutable("an unresolvable head functor".to_owned()))?;
        let sig = match head {
            Term::Struct { args, .. } => Self::arg_sig(&args[0], scratch),
            _ => None,
        };
        match self.map.place(name, arity, sig.as_deref()) {
            Placement::One(shard) => Ok(shard),
            Placement::All => Err(ClusterError::Unroutable(format!(
                "a clause of hot predicate {name}/{arity} without a bound first argument"
            ))),
        }
    }

    // ------------------------------------------------------------------
    // Circuit breaker
    // ------------------------------------------------------------------

    /// Whether this failure says something about the *shard's* health
    /// (overload refusals, dead or garbled transport, timeouts) rather
    /// than about the one request (parse rejections, budget trips, a
    /// replication gap). Only health failures feed the breaker —
    /// otherwise a stream of malformed writes would take a healthy
    /// shard out of rotation.
    fn breaker_relevant(e: &ClusterError) -> bool {
        match e {
            ClusterError::Net(net) => match net {
                NetError::Busy { .. } => true,
                NetError::Remote { code, .. } => *code == ErrorCode::Busy,
                // Io, framing, protocol: the transport itself died or
                // desynced — the connection-fatal set.
                other => other.is_connection_fatal(),
            },
            _ => false,
        }
    }

    /// Admission check before touching a shard's backend. `Ok(())`
    /// means proceed (and, in half-open, that this request *is* the
    /// probe); `Err` is the typed fast-fail.
    fn breaker_admit(&self, shard: &Shard) -> Result<(), ClusterError> {
        if self.cfg.breaker_threshold == 0 {
            return Ok(());
        }
        let mut breaker = lock(&shard.breaker);
        match breaker.state {
            BreakerState::Closed => Ok(()),
            BreakerState::Open { since } => {
                let elapsed = since.elapsed();
                if elapsed >= self.cfg.breaker_cooldown {
                    // Cooldown over: this request becomes the probe.
                    breaker.state = BreakerState::HalfOpen;
                    clare_trace::metrics().router_breaker_half_open_probes.inc();
                    Ok(())
                } else {
                    clare_trace::metrics().router_breaker_rejections.inc();
                    Err(ClusterError::ShardUnavailable {
                        shard: shard.index,
                        retry_after: self.cfg.breaker_cooldown - elapsed,
                    })
                }
            }
            BreakerState::HalfOpen => {
                // A probe is already in flight; keep everyone else out
                // until it resolves.
                clare_trace::metrics().router_breaker_rejections.inc();
                Err(ClusterError::ShardUnavailable {
                    shard: shard.index,
                    retry_after: self.cfg.breaker_cooldown,
                })
            }
        }
    }

    /// Feeds one backend conversation's outcome into the shard's
    /// breaker. Success closes it from any state; a health-relevant
    /// failure opens it after [`RouterConfig::breaker_threshold`]
    /// consecutive misses — or immediately when it was the half-open
    /// probe that failed.
    fn breaker_record(&self, shard: &Shard, outcome: Result<(), &ClusterError>) {
        if self.cfg.breaker_threshold == 0 {
            return;
        }
        let mut breaker = lock(&shard.breaker);
        match outcome {
            Ok(()) => {
                breaker.consecutive = 0;
                breaker.state = BreakerState::Closed;
            }
            Err(e) if Self::breaker_relevant(e) => {
                breaker.consecutive = breaker.consecutive.saturating_add(1);
                let probe_failed = matches!(breaker.state, BreakerState::HalfOpen);
                if probe_failed || breaker.consecutive >= self.cfg.breaker_threshold {
                    if !matches!(breaker.state, BreakerState::Open { .. }) {
                        clare_trace::metrics().router_breaker_opens.inc();
                    }
                    breaker.state = BreakerState::Open {
                        since: Instant::now(),
                    };
                }
            }
            // Request-specific failures neither trip nor reset: they say
            // nothing about shard health either way.
            Err(_) => {}
        }
    }

    // ------------------------------------------------------------------
    // Reads
    // ------------------------------------------------------------------

    /// Routes one retrieval. Hot predicates queried without a bound
    /// first argument fan out to every shard and the answers merge in
    /// shard order; everything else touches exactly one backend.
    pub fn retrieve(&self, query: &Term, mode: SearchMode) -> Result<Retrieval, ClusterError> {
        clare_trace::metrics().cluster_routed.inc();
        match self.place_term(query)? {
            Placement::One(shard) => self.retrieve_on(shard, query, mode),
            Placement::All => {
                let mut parts = Vec::with_capacity(self.shards.len());
                for shard in 0..self.shards.len() {
                    parts.push(self.retrieve_on(shard, query, mode)?);
                }
                merge_retrievals(parts).ok_or_else(|| {
                    ClusterError::Unroutable("a broadcast with no shards".to_owned())
                })
            }
        }
    }

    fn retrieve_on(
        &self,
        shard: usize,
        query: &Term,
        mode: SearchMode,
    ) -> Result<Retrieval, ClusterError> {
        let shard = &self.shards[shard];
        self.breaker_admit(shard)?;
        let result = lock(&shard.serving)
            .retrieve(query, mode)
            .map_err(ClusterError::from);
        self.breaker_record(shard, result.as_ref().map(|_| ()));
        let mut retrieval = result?;
        if shard.failed_over.load(Ordering::Relaxed) && shard.stale.load(Ordering::Relaxed) {
            retrieval.mark_degraded();
            clare_trace::metrics().cluster_degraded_answers.inc();
        }
        Ok(retrieval)
    }

    // ------------------------------------------------------------------
    // Writes
    // ------------------------------------------------------------------

    /// Routes a durable assert to the owning shard's primary, then
    /// waits (bounded) for the backup to apply it.
    pub fn assert(&self, module: &str, source: &str) -> Result<ClusterReceipt, ClusterError> {
        self.write(module, source, true)
    }

    /// Routes a durable retract; same placement and semi-sync rules as
    /// [`Router::assert`].
    pub fn retract(&self, module: &str, source: &str) -> Result<ClusterReceipt, ClusterError> {
        self.write(module, source, false)
    }

    fn write(
        &self,
        module: &str,
        source: &str,
        is_assert: bool,
    ) -> Result<ClusterReceipt, ClusterError> {
        let mut scratch = self.symbols.clone();
        let clauses =
            parse_program(source, &mut scratch).map_err(|e| ClusterError::Parse(e.to_string()))?;
        let mut target: Option<usize> = None;
        for clause in &clauses {
            let shard = self.place_head(clause.head(), &scratch)?;
            match target {
                None => target = Some(shard),
                Some(first) if first != shard => {
                    return Err(ClusterError::CrossShardWrite {
                        first,
                        other: shard,
                    })
                }
                Some(_) => {}
            }
        }
        let target =
            target.ok_or_else(|| ClusterError::Parse("no clauses in the source".to_owned()))?;

        clare_trace::metrics().cluster_routed.inc();
        let shard = &self.shards[target];
        self.breaker_admit(shard)?;
        let result = {
            let mut serving = lock(&shard.serving);
            if is_assert {
                serving.assert(module, source)
            } else {
                serving.retract(module, source)
            }
        }
        .map_err(ClusterError::from);
        self.breaker_record(shard, result.as_ref().map(|_| ()));
        let receipt = result?;

        let replicated = if receipt.seqs.end > receipt.seqs.start {
            let last = receipt.seqs.end - 1;
            shard.last_acked.fetch_max(last, Ordering::Relaxed);
            self.await_replication(shard, last)
        } else {
            // A no-op commit occupies no sequence; there is nothing to
            // replicate, so it is as safe as the shard's topology.
            shard.backup.is_some()
        };
        Ok(ClusterReceipt {
            receipt,
            shard: target,
            replicated,
        })
    }

    /// Blocks until the shard's backup applied through `last`, the
    /// semi-sync timeout elapses (marking the shard lagging), or the
    /// shard has no backup.
    fn await_replication(&self, shard: &Shard, last: u64) -> bool {
        let Some(backup) = &shard.backup else {
            return false;
        };
        if shard.failed_over.load(Ordering::Relaxed) {
            // The backup *is* the serving node now; nothing ships past it.
            return false;
        }
        let deadline = Instant::now() + self.cfg.repl_sync_timeout;
        loop {
            {
                let applied = lock(&backup.applied);
                if *applied >= last {
                    return true;
                }
                let now = Instant::now();
                if now < deadline {
                    // Wake periodically to nudge window recovery below
                    // (a dropped forward resends from the window).
                    let wait = (deadline - now).min(Duration::from_millis(20));
                    let (guard, _) = backup
                        .applied_cv
                        .wait_timeout(applied, wait)
                        .unwrap_or_else(|e| e.into_inner());
                    if *guard >= last {
                        return true;
                    }
                }
            }
            if let Some(applied) = Self::drain_window(backup, false) {
                if applied >= last {
                    return true;
                }
            }
            if Instant::now() >= deadline {
                shard.lagging.store(true, Ordering::Relaxed);
                return false;
            }
        }
    }

    // ------------------------------------------------------------------
    // Replication
    // ------------------------------------------------------------------

    fn start_repl_thread(&self, shard: &Arc<Shard>) {
        let Some(backup) = shard.backup.clone() else {
            return;
        };
        let shard = Arc::clone(shard);
        let mut sub_cfg = self.cfg.client.clone();
        // The subscription socket mostly sits in a blocking read; a
        // short timeout keeps the stop flag responsive.
        sub_cfg.read_timeout = Duration::from_millis(100);
        sub_cfg.busy_retries = 0;
        sub_cfg.reconnect_retries = 0;
        let handle = std::thread::Builder::new()
            .name(format!("clare-repl-{}", shard.index))
            .spawn({
                let shard = Arc::clone(&shard);
                let backup = Arc::clone(&backup);
                move || repl_loop(&shard, &backup, &sub_cfg)
            });
        match handle {
            Ok(handle) => *lock(&backup.thread) = Some(handle),
            Err(_) => shard.lagging.store(true, Ordering::Relaxed),
        }
    }

    /// Ships as much of the window as the backup will take right now.
    /// Returns the backup's new applied frontier when it moved.
    ///
    /// With `inject` set this is a [`clare_fault::FaultSite::ReplSend`]
    /// site: a frame can be held back (drop — it stays in the window
    /// and a later pass resends), shipped after its successor
    /// (reorder — the backup answers `ReplGap` and an in-order recovery
    /// pass follows), or shipped twice (duplicate — the second apply is
    /// an idempotent skip).
    fn drain_window(backup: &BackupState, inject: bool) -> Option<u64> {
        let mut window = lock(&backup.window);
        let mut ship = lock(&backup.ship);
        let mut inject = inject && clare_fault::active();
        let mut frontier = None;
        let mut i = 0;
        while i < window.len() {
            let (seq, bytes) = window[i].clone();
            if inject {
                match clare_fault::decide(clare_fault::FaultSite::ReplSend, seq) {
                    clare_fault::FaultAction::Drop => break,
                    clare_fault::FaultAction::Delay { .. } => {
                        // Reorder: ship the successor first; the gap
                        // reply downgrades to an in-order recovery pass.
                        i += 1;
                        continue;
                    }
                    clare_fault::FaultAction::Truncate { .. } => {
                        // Duplicate: one extra ship, then the normal one.
                        clare_trace::metrics().cluster_repl_frames.inc();
                        let _ = ship.ship_log_frame(bytes.clone());
                    }
                    _ => {}
                }
            }
            clare_trace::metrics().cluster_repl_frames.inc();
            match ship.ship_log_frame(bytes) {
                Ok(applied) => {
                    while window.front().is_some_and(|(s, _)| *s <= applied) {
                        window.pop_front();
                    }
                    if applied > frontier.unwrap_or(0) {
                        frontier = Some(applied);
                    }
                    i = 0;
                }
                Err(NetError::Remote {
                    code: ErrorCode::ReplGap,
                    ..
                }) => {
                    // Out-of-order ship (or a hole the backup noticed):
                    // recover strictly in order, faults off.
                    inject = false;
                    i = 0;
                }
                Err(_) => break,
            }
        }
        drop(ship);
        drop(window);
        if let Some(applied) = frontier {
            let mut guard = lock(&backup.applied);
            if applied > *guard {
                *guard = applied;
            }
            backup.applied_cv.notify_all();
        }
        frontier
    }

    // ------------------------------------------------------------------
    // Health and failover
    // ------------------------------------------------------------------

    /// Probes every non-failed-over primary once; after
    /// [`RouterConfig::heartbeat_misses`] consecutive failures (and with
    /// auto-failover on) the backup is promoted. Returns the shards
    /// promoted by this tick. Call periodically — the `clare-cluster`
    /// binary does so from a timer thread; tests call it directly for
    /// determinism.
    pub fn tick_health(&self) -> Vec<usize> {
        let mut promoted = Vec::new();
        for shard in &self.shards {
            if shard.failed_over.load(Ordering::Relaxed) {
                continue;
            }
            if self.probe(&shard.primary_addr) {
                shard.misses.store(0, Ordering::Relaxed);
                continue;
            }
            let misses = shard.misses.fetch_add(1, Ordering::Relaxed) + 1;
            if misses >= u64::from(self.cfg.heartbeat_misses)
                && self.cfg.auto_failover
                && shard.backup.is_some()
                && self.promote(shard.index).is_ok()
            {
                promoted.push(shard.index);
            }
        }
        promoted
    }

    /// One health probe: a fresh connection plus a ping, under the
    /// health timeout. A connection-limit refusal still counts as alive.
    fn probe(&self, addr: &str) -> bool {
        let cfg = ClientConfig {
            connect_timeout: self.cfg.health_timeout,
            read_timeout: self.cfg.health_timeout,
            write_timeout: self.cfg.health_timeout,
            busy_retries: 0,
            reconnect_retries: 0,
        };
        match NetClient::connect(addr, cfg) {
            Ok(mut client) => client.ping().is_ok(),
            Err(NetError::Busy { .. }) => true,
            Err(_) => false,
        }
    }

    /// Promotes the shard's backup to serving: stops log shipping,
    /// flushes what remains of the resend window, and points the
    /// shard's serving connection at the backup. When the backup could
    /// not be brought up to the acknowledged write frontier the shard
    /// is marked stale and every answer it serves is flagged degraded.
    pub fn promote(&self, shard: usize) -> Result<(), ClusterError> {
        let shard = self
            .shards
            .get(shard)
            .ok_or(ClusterError::NoBackup(shard))?;
        let Some(backup) = &shard.backup else {
            return Err(ClusterError::NoBackup(shard.index));
        };
        if shard.failed_over.swap(true, Ordering::SeqCst) {
            return Ok(());
        }
        backup.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = lock(&backup.thread).take() {
            let _ = handle.join();
        }
        // Final flush: every record the primary pushed before dying gets
        // one last chance to reach the backup (faults off — this is
        // recovery, and injected refusals at the backup just retry).
        for _ in 0..200 {
            Self::drain_window(backup, false);
            if lock(&backup.window).is_empty() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let behind = *lock(&backup.applied) < shard.last_acked.load(Ordering::Relaxed);
        let stale =
            shard.lagging.load(Ordering::Relaxed) || behind || !lock(&backup.window).is_empty();
        shard.stale.store(stale, Ordering::Relaxed);

        let fresh = NetClient::connect(backup.addr.as_str(), self.cfg.client.clone())?;
        *lock(&shard.serving) = fresh;
        clare_trace::metrics().cluster_failovers.inc();
        Ok(())
    }
}

/// The router behind a [`NetServer`](clare_net::NetServer): what the
/// `clare-cluster` daemon serves. Solve, consult and the replication
/// opcodes keep the trait's `Unsupported` answers.
impl Service for Router {
    fn fingerprint(&self) -> u64 {
        self.kb_fingerprint()
    }

    /// The router forwards queries without their budget tail, so it
    /// grants the CRC capability only.
    fn caps(&self) -> u8 {
        CAP_FRAME_CRC
    }

    /// Queries in one pass may route to different shards, so each is
    /// routed on its own (batch results equal individual retrievals, so
    /// this is lossless); the first failure fails the pass.
    fn retrieve_batch(
        &self,
        queries: &[Term],
        mode: SearchMode,
        _cx: &mut RequestContext,
    ) -> Result<Vec<Retrieval>, ErrorReply> {
        queries
            .iter()
            .map(|query| self.retrieve(query, mode).map_err(ErrorReply::from))
            .collect()
    }

    fn assert_source(&self, module: &str, source: &str) -> Result<CommitReceipt, ErrorReply> {
        Ok(self.assert(module, source)?.receipt)
    }

    fn retract_source(&self, module: &str, source: &str) -> Result<CommitReceipt, ErrorReply> {
        Ok(self.retract(module, source)?.receipt)
    }

    /// Aggregated service statistics across every serving backend.
    fn stats(&self) -> Result<ServerStats, ErrorReply> {
        let mut total = ServerStats::default();
        for shard in &self.shards {
            let s = lock(&shard.serving).stats().map_err(ClusterError::from)?;
            total.retrievals += s.retrievals;
            total.batches += s.batches;
            total.solves += s.solves;
            total.updates += s.updates;
            total.rejected += s.rejected;
            total.degraded += s.degraded;
            total.total_elapsed += s.total_elapsed;
        }
        Ok(total)
    }

    fn symbols(&self) -> SymbolTable {
        Router::symbols(self)
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        for shard in &self.shards {
            if let Some(backup) = &shard.backup {
                backup.stop.store(true, Ordering::Relaxed);
                if let Some(handle) = lock(&backup.thread).take() {
                    let _ = handle.join();
                }
            }
        }
    }
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("shards", &self.shards.len())
            .field("hot", &self.map.hot)
            .field("fingerprint", &self.fingerprint)
            .finish_non_exhaustive()
    }
}

/// One shard's replication pump: subscribe to the primary's commit log,
/// forward each pushed record to the backup through the resend window,
/// and report the backup's applied frontier back to the primary.
fn repl_loop(shard: &Arc<Shard>, backup: &Arc<BackupState>, sub_cfg: &ClientConfig) {
    let mut sub: Option<NetClient> = None;
    while !backup.stop.load(Ordering::Relaxed) {
        if sub.is_none() {
            let from = lock(&backup.window)
                .back()
                .map(|(seq, _)| *seq)
                .unwrap_or_else(|| *lock(&backup.applied));
            match NetClient::connect(shard.primary_addr.as_str(), sub_cfg.clone()) {
                Ok(mut client) => match client.subscribe_log(from) {
                    Ok(_) => sub = Some(client),
                    Err(NetError::Remote {
                        code: ErrorCode::ReplGap,
                        ..
                    }) => {
                        // The primary compacted past our frontier; the
                        // log can no longer bridge the difference.
                        shard.lagging.store(true, Ordering::Relaxed);
                        return;
                    }
                    Err(_) => {
                        std::thread::sleep(Duration::from_millis(50));
                        continue;
                    }
                },
                Err(_) => {
                    std::thread::sleep(Duration::from_millis(50));
                    continue;
                }
            }
        }
        let Some(client) = sub.as_mut() else {
            continue;
        };
        match client.next_log_frame() {
            Ok(bytes) => {
                let Some(record) = clare_wal::decode_ship_record(&bytes) else {
                    continue;
                };
                {
                    let mut window = lock(&backup.window);
                    if window.back().is_none_or(|(seq, _)| *seq < record.seq) {
                        window.push_back((record.seq, bytes));
                    }
                }
                if let Some(applied) = Router::drain_window(backup, true) {
                    let _ = client.repl_ack(applied);
                }
            }
            Err(NetError::Io(e))
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Idle: opportunistically re-ship anything still queued
                // (recovers frames a fault held back).
                Router::drain_window(backup, true);
            }
            Err(_) => sub = None,
        }
    }
}

/// Merges per-shard answers for a hot predicate queried without a bound
/// first argument. Candidates concatenate in shard order; counts sum;
/// the modelled wall-clock is the slowest shard (they run in parallel)
/// while component times sum (total hardware/host work done).
pub fn merge_retrievals(parts: Vec<Retrieval>) -> Option<Retrieval> {
    let mut iter = parts.into_iter();
    let mut merged = iter.next()?;
    for part in iter {
        merged.candidates.extend(part.candidates);
        let s = &mut merged.stats;
        let p = part.stats;
        // Every shard holds the full base file, so base-derived totals
        // agree; overlay additions differ per shard and sum.
        s.clauses_total = s.clauses_total.max(p.clauses_total);
        s.after_fs1 = match (s.after_fs1, p.after_fs1) {
            (Some(a), Some(b)) => Some(a + b),
            (a, b) => a.or(b),
        };
        s.after_fs2 = match (s.after_fs2, p.after_fs2) {
            (Some(a), Some(b)) => Some(a + b),
            (a, b) => a.or(b),
        };
        s.candidates += p.candidates;
        s.unified += p.unified;
        s.false_drops += p.false_drops;
        s.disk_time += p.disk_time;
        s.fs1_time += p.fs1_time;
        s.fs2_time += p.fs2_time;
        s.software_filter_time += p.software_filter_time;
        s.full_unify_time += p.full_unify_time;
        s.elapsed = s.elapsed.max(p.elapsed);
        s.bytes_from_disk += p.bytes_from_disk;
        s.result_memory_overflows += p.result_memory_overflows;
        s.quarantined_tracks += p.quarantined_tracks;
        s.degraded |= p.degraded;
    }
    Some(merged)
}
