//! The serving core's intake: event-driven connection handling for
//! thousands of concurrent clients on a handful of threads.
//!
//! ```text
//!             ┌────────────── reactor shard (one thread) ──────────────┐
//!   listener ─► nonblocking accept ─► Conn { FrameReader, Outbound }   │
//!             │        epoll_wait ─► readable: read → reassemble →     │
//!             │                       process_burst → bounded queue ───┼─► workers
//!             │                      writable: flush Outbound ◄────────┼── remainder
//!             └────────────────────────▲───────────────────────────────┘      │
//!                                      │ eventfd kick (bytes queued)   socket ◄┘ reply
//! ```
//!
//! A level-triggered epoll loop over nonblocking sockets. Frames are
//! reassembled incrementally per connection (the [`FrameReader`] carries
//! partial frames across readiness events, under the 16 MiB bound and the
//! CRC trailer capability) and decoded bursts flow into the bounded worker
//! pool. Replies come back through the connection's [`Outbound`]: the
//! thread that produced a reply writes it to the socket itself, and only
//! what the kernel does not take goes onto the bounded queue, with an
//! eventfd kick so the owning shard flushes it and parks the remainder
//! against `EPOLLOUT`. A worker that finds the queue at capacity blocks —
//! bounded by the write timeout — which is how a slow client exerts
//! backpressure on the service instead of ballooning memory.
//!
//! It is the workspace's only listener (`clare-served` and the
//! `clare-cluster` router both serve through it); the handshake grants
//! the [`Service`](crate::Service)'s capabilities and its fingerprint.
//!
//! Each connection has one shared object, its [`Outbound`]: the shard,
//! every job decoded from the connection and any log watcher it
//! registered hold the same `Arc`. It owns the socket, the reply queue,
//! the in-flight job count and the checksum capability negotiated at the
//! handshake.
//!
//! Invariants: replies are byte-identical to in-process answers, pipelined
//! requests complete out of order, consecutive same-predicate retrieves
//! coalesce into one hardware batch pass, a frame reaches the socket whole
//! and in queue order whoever writes it, and shutdown drains queued jobs
//! without dropping queued replies. A half-closed peer (pipeline, then
//! `shutdown(WR)`, then read) is owed a reply for everything it decoded:
//! the connection is released only when its [`Outbound`]'s in-flight
//! count hits zero *and* its queue has flushed.

// Identical contract to server.rs: untrusted input must degrade, never
// abort. CI greps for this gate; do not remove it.
#![deny(clippy::unwrap_used)]

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::protocol::{
    admit_client, encode, encode_server_hello, opcode, ErrorCode, ErrorReply, Frame, FrameReader,
    HelloStatus, ServerHello, CAP_FRAME_CRC, CLIENT_HELLO_LEN, MAX_FRAME_LEN, PROTOCOL_VERSION,
};
use crate::server::{process_burst, NetConfig, Shared};

/// Epoll token of the listening socket (shard 0 only).
const TOKEN_LISTENER: u64 = 0;
/// Epoll token of a shard's eventfd wakeup.
const TOKEN_WAKE: u64 = 1;
/// First token handed to a connection.
pub(crate) const TOKEN_FIRST_CONN: u64 = 2;

/// How many over-limit connections may be held awaiting their hello so
/// they can be told *why* they were refused (busy + retry hint). Accepts
/// beyond this courtesy budget are dropped outright — the fd cost of
/// politeness stays bounded no matter how hard the intake is hammered.
const REFUSED_BUDGET: usize = 32;

/// How long a refused connection may wait for its client hello before
/// the busy reply is abandoned and the socket released.
const REFUSED_DEADLINE: Duration = Duration::from_secs(2);

/// How often a shard scans its connections for expired deadlines (idle,
/// refused, closing) — also the longest it sleeps in `epoll_wait`.
const DEADLINE_SCAN_INTERVAL: Duration = Duration::from_millis(25);

thread_local! {
    /// True inside a reactor shard thread. [`Outbound::enqueue`] consults
    /// this to skip backpressure parking: the reactor must never block on
    /// a queue only it can drain.
    static IN_REACTOR: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

// --- thin epoll / eventfd wrappers --------------------------------------

/// An owned `epoll` instance.
struct Epoll {
    fd: RawFd,
}

impl Epoll {
    fn new() -> std::io::Result<Epoll> {
        let fd = unsafe { libc::epoll_create1(libc::EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: libc::c_int, fd: RawFd, events: u32, token: u64) -> std::io::Result<()> {
        let mut ev = libc::epoll_event { events, u64: token };
        let rc = unsafe { libc::epoll_ctl(self.fd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(())
    }

    fn add(&self, fd: RawFd, events: u32, token: u64) -> std::io::Result<()> {
        self.ctl(libc::EPOLL_CTL_ADD, fd, events, token)
    }

    fn modify(&self, fd: RawFd, events: u32, token: u64) -> std::io::Result<()> {
        self.ctl(libc::EPOLL_CTL_MOD, fd, events, token)
    }

    fn del(&self, fd: RawFd) {
        let _ = self.ctl(libc::EPOLL_CTL_DEL, fd, 0, 0);
    }

    /// Waits up to `timeout` for readiness. `EINTR` surfaces as an empty
    /// event set; any other failure is returned so the shard can quiesce
    /// instead of busy-spinning on a broken epoll fd.
    fn wait(&self, events: &mut [libc::epoll_event], timeout: Duration) -> std::io::Result<usize> {
        let ms = libc::c_int::try_from(timeout.as_millis()).unwrap_or(libc::c_int::MAX);
        let n = unsafe {
            libc::epoll_wait(
                self.fd,
                events.as_mut_ptr(),
                events.len() as libc::c_int,
                ms,
            )
        };
        if n < 0 {
            let err = std::io::Error::last_os_error();
            return if err.kind() == std::io::ErrorKind::Interrupted {
                Ok(0)
            } else {
                Err(err)
            };
        }
        Ok(n as usize)
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe {
            libc::close(self.fd);
        }
    }
}

/// An `eventfd`-backed wakeup: any thread bumps the counter to pull a
/// shard out of `epoll_wait`.
struct WakeFd {
    fd: RawFd,
}

impl WakeFd {
    fn new() -> std::io::Result<WakeFd> {
        let fd = unsafe { libc::eventfd(0, libc::EFD_CLOEXEC | libc::EFD_NONBLOCK) };
        if fd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(WakeFd { fd })
    }

    fn wake(&self) {
        let one: u64 = 1;
        unsafe {
            libc::write(self.fd, (&one as *const u64).cast(), 8);
        }
    }

    fn drain(&self) {
        let mut buf: u64 = 0;
        unsafe {
            libc::read(self.fd, (&mut buf as *mut u64).cast(), 8);
        }
    }
}

impl Drop for WakeFd {
    fn drop(&mut self) {
        unsafe {
            libc::close(self.fd);
        }
    }
}

// --- cross-thread mailboxes ----------------------------------------------

/// One shard's cross-thread mailbox: workers (and the shutdown path) talk
/// to a running shard exclusively through this — token kicks for fresh
/// outbound bytes, and connection handoffs from the accepting shard.
pub(crate) struct ShardQueue {
    wake: WakeFd,
    /// Tokens whose [`Outbound`] gained bytes since the last drain.
    kicked: Mutex<Vec<u64>>,
    /// Connections accepted by shard 0 but owned by this shard.
    handoff: Mutex<Vec<(u64, TcpStream, bool)>>,
}

impl ShardQueue {
    pub(crate) fn new() -> std::io::Result<Arc<ShardQueue>> {
        Ok(Arc::new(ShardQueue {
            wake: WakeFd::new()?,
            kicked: Mutex::new(Vec::new()),
            handoff: Mutex::new(Vec::new()),
        }))
    }

    /// Wakes the shard with no associated token (shutdown, handoff).
    pub(crate) fn kick(&self) {
        self.wake.wake();
    }

    fn kick_token(&self, token: u64) {
        self.kicked
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(token);
        self.wake.wake();
    }

    fn take_kicked(&self) -> Vec<u64> {
        std::mem::take(&mut *self.kicked.lock().unwrap_or_else(|e| e.into_inner()))
    }

    fn take_handoff(&self) -> Vec<(u64, TcpStream, bool)> {
        std::mem::take(&mut *self.handoff.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

/// Outcome of one flush attempt against a connection's socket.
enum FlushOutcome {
    /// Everything queued left; no `EPOLLOUT` interest needed.
    Drained,
    /// The kernel buffer filled (or a torn-write fault cut the round
    /// short); the remainder parks against `EPOLLOUT`.
    Parked,
    /// The socket failed or the queue was condemned; close the
    /// connection.
    Dead,
}

/// The per-connection object shared by the shard that owns the
/// connection's readiness events, every job decoded from it and any log
/// watcher it registered: its socket, the bounded queue of reply bytes
/// the socket has not taken yet, the count of jobs still owed a reply, and
/// the frame checksum capability negotiated at the handshake.
///
/// Every write happens under the queue lock and a sender writes directly
/// only when nothing is queued ahead, so a frame reaches the wire whole
/// and queued bytes always precede later frames. When the queue is at
/// capacity senders park on the condvar — bounded by the stall timeout —
/// until the shard's flushing makes room (write-side backpressure).
pub(crate) struct Outbound {
    shard: Arc<ShardQueue>,
    token: u64,
    /// The connection's nonblocking socket, one handle for every reader
    /// and writer. [`close_conn`] shuts it down, so the peer sees the close
    /// when the shard decides it; the fd goes with the last holder (a job
    /// or log watcher may outlive the `Conn`).
    stream: TcpStream,
    /// Queue capacity in bytes; enqueues past it park the caller.
    cap: usize,
    /// How long an enqueue may stay parked before the connection is
    /// condemned as a non-consuming peer.
    stall_timeout: Duration,
    /// The shard has stopped reading this connection and releases it once
    /// its in-flight jobs finish and the queue drains.
    closing: AtomicBool,
    /// Jobs decoded from this connection still queued or executing. A
    /// half-closed connection owes a reply per in-flight job, so the shard
    /// may not release it while this is nonzero.
    in_flight: AtomicUsize,
    /// Negotiated at the handshake: append a CRC32C trailer to every
    /// reply frame. `Relaxed` suffices: the shard stores it before any
    /// job exists, and every other sender (a worker, a log watcher) got
    /// its job through the queue mutex after that store.
    checksums: AtomicBool,
    /// Bytes the socket has accepted, from either kind of writer. The
    /// shard's deadline scan reads it as evidence of write-side progress.
    written: AtomicU64,
    /// The stream is condemned (a write failed, the peer stopped
    /// consuming, or the shard dropped the connection): sends are no-ops
    /// and the shard closes the connection if it has not already. Only
    /// stored under the queue lock, so a parked sender cannot miss it;
    /// atomic so [`Outbound::send`] can skip encoding without the lock.
    dead: AtomicBool,
    inner: Mutex<OutboundInner>,
    room: Condvar,
}

struct OutboundInner {
    /// Encoded frames awaiting the wire, oldest first.
    segments: std::collections::VecDeque<Vec<u8>>,
    /// Bytes of the front segment already written.
    front_written: usize,
    /// Total unwritten bytes across all segments.
    queued: usize,
    /// Write rounds performed (fault-injection context).
    write_rounds: u64,
}

impl Outbound {
    fn new(shard: Arc<ShardQueue>, token: u64, stream: TcpStream, cfg: &NetConfig) -> Arc<Self> {
        Arc::new(Outbound {
            shard,
            token,
            stream,
            cap: cfg.outbound_queue_bytes.max(1),
            stall_timeout: cfg.write_timeout,
            closing: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            checksums: AtomicBool::new(false),
            written: AtomicU64::new(0),
            dead: AtomicBool::new(false),
            inner: Mutex::new(OutboundInner {
                segments: std::collections::VecDeque::new(),
                front_written: 0,
                queued: 0,
                write_rounds: 0,
            }),
            room: Condvar::new(),
        })
    }

    /// One `write(2)` by whoever holds the queue lock. This is the
    /// [`clare_fault::FaultSite::NetReactorWrite`] injection point: a torn
    /// write offers the kernel only a prefix this round (possibly splitting
    /// a frame's length prefix across `EPOLLOUT` wakeups) — transparent to
    /// the peer. Returns the kernel's answer and whether the round was torn.
    fn write_round(&self, write_rounds: &mut u64, bytes: &[u8]) -> (std::io::Result<usize>, bool) {
        let mut offer = bytes.len();
        if clare_fault::active() {
            let ctx = self.token.rotate_left(32) ^ *write_rounds;
            if let clare_fault::FaultAction::Truncate { keep } =
                clare_fault::decide(clare_fault::FaultSite::NetReactorWrite, ctx)
            {
                offer = ((keep as usize) % offer.max(1)).max(1);
            }
        }
        *write_rounds += 1;
        let result = (&self.stream).write(&bytes[..offer]);
        if let Ok(n) = result {
            self.written.fetch_add(n as u64, Ordering::Relaxed);
        }
        (result, offer < bytes.len())
    }

    /// Sends encoded bytes: straight to the socket when nothing is queued
    /// ahead (a complete write wakes no one), the rest onto the queue with
    /// a kick to the owning shard. Blocks (bounded by the stall timeout)
    /// while the queue is at capacity — unless called from the shard
    /// thread itself, which must never park on a queue only it can drain.
    /// A no-op once the connection is gone or condemned.
    fn enqueue(&self, bytes: Vec<u8>) {
        let m = clare_trace::metrics();
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if self.is_dead() {
            return;
        }
        if !IN_REACTOR.with(|f| f.get()) {
            let mut deadline = None;
            while inner.queued >= self.cap {
                m.net_reactor_backpressure_stalls.inc();
                let now = Instant::now();
                let deadline = *deadline.get_or_insert(now + self.stall_timeout);
                if now >= deadline {
                    // A peer that never drains its replies is condemned
                    // rather than allowed to wedge the worker pool.
                    self.condemn(inner);
                    return;
                }
                let (guard, _) = self
                    .room
                    .wait_timeout(inner, deadline - now)
                    .unwrap_or_else(|e| e.into_inner());
                inner = guard;
                if self.is_dead() {
                    return;
                }
            }
        }
        let mut sent = 0;
        if inner.segments.is_empty() {
            match self.write_round(&mut inner.write_rounds, &bytes).0 {
                Ok(n) if n == bytes.len() => return,
                Ok(n) if n > 0 => sent = n,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::Interrupted
                    ) => {}
                Ok(_) | Err(_) => {
                    self.condemn(inner);
                    return;
                }
            }
            // The peer is not keeping up: from here the shard's flush and
            // `EPOLLOUT` take over, and later frames queue behind this one.
            m.net_reactor_partial_writes.inc();
            inner.front_written = sent;
        }
        let rest = bytes.len() - sent;
        m.net_reactor_outbound_bytes.add(rest as i64);
        inner.queued += rest;
        inner.segments.push_back(bytes);
        drop(inner);
        self.shard.kick_token(self.token);
    }

    /// Writes one frame; a failed write condemns the connection, later
    /// sends become no-ops and the shard drops it.
    ///
    /// This is the server-side network fault-injection point
    /// ([`clare_fault::FaultSite::NetServerSend`], keyed by request id and
    /// opcode): a reply frame can be silently dropped, cut short (after
    /// which the byte stream is unrecoverable, so the connection is
    /// condemned), or bit-flipped in flight.
    pub(crate) fn send(&self, frame: &Frame) {
        if self.is_dead() {
            return;
        }
        let mut bytes = frame.encoded_with(self.checksums.load(Ordering::Relaxed));
        if clare_fault::active() {
            let ctx = frame.request_id ^ (u64::from(frame.opcode) << 56);
            match clare_fault::decide(clare_fault::FaultSite::NetServerSend, ctx) {
                clare_fault::FaultAction::Drop => return,
                action @ clare_fault::FaultAction::Truncate { .. } => {
                    clare_fault::corrupt_in_place(action, &mut bytes);
                    self.enqueue(bytes);
                    self.condemn(self.inner.lock().unwrap_or_else(|e| e.into_inner()));
                    return;
                }
                action @ clare_fault::FaultAction::FlipBit { .. } => {
                    clare_fault::corrupt_in_place(action, &mut bytes);
                }
                _ => {}
            }
        }
        // Counted before the write: once the bytes are on the wire the
        // peer can act on the reply — and read these counters — before
        // this thread runs again.
        let m = clare_trace::metrics();
        m.net_frames_out.inc();
        m.net_bytes_out.add(bytes.len() as u64);
        self.enqueue(bytes);
    }

    pub(crate) fn send_error(&self, request_id: u64, reply: &ErrorReply) {
        self.send(&Frame::new(request_id, opcode::ERROR, encode(reply)));
    }

    /// Accounts one decoded job headed for the worker pool. Must happen
    /// before the job becomes visible to workers, or the job could finish
    /// (and the connection close) before it was ever counted.
    pub(crate) fn job_started(&self) {
        self.in_flight.fetch_add(1, Ordering::SeqCst);
    }

    /// The job is done — reply sent, shed, or panicked — and its reply is
    /// on the socket or the queue, so the shard needs waking only if it
    /// has parked the connection as closing and this was the last job it
    /// waits for. The shard stores the flag *before* its own
    /// [`Outbound::idle`] check and both sides are SeqCst, so either it
    /// sees the count at zero or this sees the flag.
    pub(crate) fn job_finished(&self) {
        if self.in_flight.fetch_sub(1, Ordering::SeqCst) == 1 && self.closing() {
            self.shard.kick_token(self.token);
        }
    }

    /// No decoded jobs from this connection are still queued or executing
    /// — every reply it is owed is on the socket or in the queue.
    fn idle(&self) -> bool {
        self.in_flight.load(Ordering::SeqCst) == 0
    }

    fn condemn(&self, inner: std::sync::MutexGuard<'_, OutboundInner>) {
        self.dead.store(true, Ordering::SeqCst);
        drop(inner);
        self.room.notify_all();
        self.shard.kick_token(self.token);
    }

    /// The connection is gone or condemned.
    pub(crate) fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    /// Unwritten bytes currently queued.
    fn pending(&self) -> usize {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).queued
    }

    /// The shard is waiting to release this connection.
    fn closing(&self) -> bool {
        self.closing.load(Ordering::SeqCst)
    }

    /// Reactor-side: stop reading; close once idle and flushed. Stored
    /// before the shard's own [`Outbound::idle`] check, SeqCst like the
    /// count (see [`Outbound::job_finished`]).
    fn set_closing(&self) {
        self.closing.store(true, Ordering::SeqCst);
    }

    /// Reactor-side: the connection is gone. Unparks waiting workers and
    /// returns the bytes discarded (for gauge accounting).
    fn close(&self) -> usize {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        self.dead.store(true, Ordering::SeqCst);
        let dropped = inner.queued;
        inner.segments.clear();
        inner.queued = 0;
        inner.front_written = 0;
        drop(inner);
        self.room.notify_all();
        dropped
    }

    /// Reactor-side: writes queued bytes to the socket until the queue
    /// drains or the kernel pushes back.
    fn flush(&self) -> FlushOutcome {
        let m = clare_trace::metrics();
        let mut guard = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let inner = &mut *guard;
        let was_dead = self.is_dead();
        let outcome = loop {
            let Some(front) = inner.segments.front() else {
                break if was_dead {
                    FlushOutcome::Dead
                } else {
                    FlushOutcome::Drained
                };
            };
            let (result, torn) =
                self.write_round(&mut inner.write_rounds, &front[inner.front_written..]);
            match result {
                Ok(0) => {
                    self.dead.store(true, Ordering::SeqCst);
                    break FlushOutcome::Dead;
                }
                Ok(n) => {
                    m.net_reactor_outbound_bytes.add(-(n as i64));
                    inner.queued -= n;
                    inner.front_written += n;
                    if inner.front_written == front.len() {
                        inner.segments.pop_front();
                        inner.front_written = 0;
                    } else if torn {
                        // An injected torn write: yield the round so the
                        // remainder demonstrably crosses a readiness
                        // boundary.
                        m.net_reactor_partial_writes.inc();
                        break FlushOutcome::Parked;
                    }
                    if inner.queued < self.cap / 2 {
                        self.room.notify_all();
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    m.net_reactor_partial_writes.inc();
                    break FlushOutcome::Parked;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead.store(true, Ordering::SeqCst);
                    break FlushOutcome::Dead;
                }
            }
        };
        drop(guard);
        self.room.notify_all();
        outcome
    }
}

// --- per-connection state ------------------------------------------------

enum ConnState {
    /// Awaiting the fixed-size client hello. `refuse` marks a connection
    /// over the admission limit: it still gets the busy hello (so the
    /// client learns *why*) before closing.
    Hello { got: usize, refuse: bool },
    /// Handshake complete; frames flow.
    Active,
    /// Handshake refused (busy or version mismatch): the reply hello is
    /// sent exactly once, all further input is discarded, and the
    /// connection closes once it has flushed. Terminal — without
    /// this state, extra client bytes arriving after the refusal would
    /// re-enter the hello completion branch and duplicate the reply.
    Rejected,
}

struct Conn {
    token: u64,
    state: ConnState,
    hello: [u8; CLIENT_HELLO_LEN],
    fr: FrameReader,
    outbound: Arc<Outbound>,
    /// When a byte last moved in either direction, as far as the shard
    /// has observed (reads at once, writes at the next deadline scan).
    last_activity: Instant,
    /// [`Outbound::written`] at the last deadline scan.
    seen_written: u64,
    /// Event mask currently registered with epoll for this socket.
    interest: u32,
    /// Counted against the connection limit (refused conns are not).
    admitted: bool,
    /// Read rounds performed (fault-injection context).
    read_rounds: u64,
}

/// What a readiness round decided about a connection's fate.
enum ConnVerdict {
    Keep,
    Close,
}

// --- the shard loop ------------------------------------------------------

/// A shard's acknowledgement that it has stopped turning input into jobs:
/// counted into [`Shared::quiesced_shards`] exactly once — when the shard
/// says so, or when it exits without having said so, by a panic included —
/// so `NetServer::shutdown` never waits on a shard that is gone.
struct Quiesce<'a>(Option<&'a Shared>);

impl Quiesce<'_> {
    fn ack(&mut self) {
        if let Some(shared) = self.0.take() {
            shared.quiesced_shards.fetch_add(1, Ordering::SeqCst);
        }
    }
}

impl Drop for Quiesce<'_> {
    fn drop(&mut self) {
        self.ack();
    }
}

/// Runs one reactor shard until shutdown completes. Shard 0 owns the
/// listener; connections are distributed across shards by token.
pub(crate) fn run_shard(
    shard_idx: usize,
    mut listener: Option<TcpListener>,
    shards: Vec<Arc<ShardQueue>>,
    shared: Arc<Shared>,
) {
    IN_REACTOR.with(|f| f.set(true));
    let mut quiesce = Quiesce(Some(&shared));
    let me = Arc::clone(&shards[shard_idx]);
    let setup = || {
        let epoll = Epoll::new()?;
        epoll.add(me.wake.fd, libc::EPOLLIN, TOKEN_WAKE)?;
        if let Some(l) = &listener {
            epoll.add(l.as_raw_fd(), libc::EPOLLIN, TOKEN_LISTENER)?;
        }
        std::io::Result::Ok(epoll)
    };
    let Ok(epoll) = setup() else {
        // Without its epoll instance this shard cannot serve; returning
        // quiesces it, so shutdown never hangs waiting for it.
        return;
    };

    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut events = vec![libc::epoll_event { events: 0, u64: 0 }; 256];
    let mut draining = false;
    let mut last_deadline_scan = Instant::now();
    let m = clare_trace::metrics();

    loop {
        if shared.shutdown.load(Ordering::SeqCst) && !draining {
            // Stop the intake: close the listener and stop decoding
            // input, but keep the loop alive to flush replies the
            // workers are still producing.
            draining = true;
            if let Some(l) = listener.take() {
                epoll.del(l.as_raw_fd());
            }
            quiesce.ack();
        }
        if shared.reactor_exit.load(Ordering::SeqCst) {
            break;
        }
        #[cfg(test)]
        if shared.panic_in_shard.load(Ordering::SeqCst) {
            panic!("test hook: a reactor shard panics");
        }

        let n = match epoll.wait(&mut events, DEADLINE_SCAN_INTERVAL) {
            Ok(n) => n,
            Err(_) => {
                // A fatal epoll failure (EBADF and friends) cannot be
                // served around: acknowledge quiesce so shutdown never
                // hangs on this shard, then fall through to the final
                // drain (best-effort flush, release every fd) instead of
                // spinning on a broken fd.
                quiesce.ack();
                break;
            }
        };
        if n > 0 {
            m.net_reactor_wakeups.inc();
            m.net_reactor_events.add(n as u64);
        }
        for ev in events.iter().take(n) {
            let token = ev.u64;
            let bits = ev.events;
            match token {
                TOKEN_LISTENER => {
                    if !draining {
                        accept_ready(
                            &epoll,
                            listener.as_ref(),
                            &shards,
                            shard_idx,
                            &shared,
                            &mut conns,
                        );
                    }
                }
                TOKEN_WAKE => {
                    me.wake.drain();
                    for (token, stream, admitted) in me.take_handoff() {
                        register_conn(&epoll, &mut conns, &shared, &me, token, stream, admitted);
                    }
                    for token in me.take_kicked() {
                        if let Some(conn) = conns.get_mut(&token) {
                            if matches!(service_write(&epoll, conn), ConnVerdict::Close) {
                                close_conn(&epoll, &mut conns, &shared, token);
                            }
                        }
                    }
                }
                token => {
                    let Some(conn) = conns.get_mut(&token) else {
                        continue;
                    };
                    let mut verdict = ConnVerdict::Keep;
                    if bits & (libc::EPOLLERR | libc::EPOLLHUP) != 0 {
                        verdict = ConnVerdict::Close;
                    } else {
                        if bits & (libc::EPOLLIN | libc::EPOLLRDHUP) != 0
                            && !draining
                            && !conn.outbound.closing()
                        {
                            verdict = service_read(&epoll, conn, &shared);
                        }
                        if matches!(verdict, ConnVerdict::Keep) && bits & libc::EPOLLOUT != 0 {
                            verdict = service_write(&epoll, conn);
                        }
                    }
                    if matches!(verdict, ConnVerdict::Close) {
                        close_conn(&epoll, &mut conns, &shared, token);
                    }
                }
            }
        }

        // Deadline scan: reap peers that stopped making progress so they
        // stop pinning connection slots and fds. One pass per interval is
        // O(connections) and runs a few dozen times a second — no timer
        // wheel needed at the scale one shard carries. `last_activity`
        // advances on *either* direction of progress (bytes read, or
        // bytes the socket accepted from a flush or a direct write), so a
        // healthy slow reader working through a large backlog is never
        // reaped mid-stream.
        if !draining && last_deadline_scan.elapsed() >= DEADLINE_SCAN_INTERVAL {
            last_deadline_scan = Instant::now();
            let mut reap = Vec::new();
            for (token, c) in conns.iter_mut() {
                let written = c.outbound.written.load(Ordering::Relaxed);
                if written != c.seen_written {
                    c.seen_written = written;
                    c.last_activity = last_deadline_scan;
                }
                let stalled_for = c.last_activity.elapsed();
                let expired = if !c.admitted {
                    // Refused conns get a short dedicated deadline to
                    // collect their busy hello, not the idle timeout.
                    stalled_for >= REFUSED_DEADLINE
                } else if c.outbound.closing() {
                    // Flush-and-close is bounded: once nothing is in
                    // flight and the flush makes no progress for a
                    // write timeout, the peer has stopped consuming.
                    c.outbound.idle() && stalled_for >= shared.cfg.write_timeout
                } else {
                    shared
                        .cfg
                        .idle_timeout
                        .is_some_and(|limit| stalled_for >= limit)
                };
                if expired {
                    reap.push(*token);
                }
            }
            for token in reap {
                m.net_idle_reaps.inc();
                close_conn(&epoll, &mut conns, &shared, token);
            }
        }
    }

    // Final drain: the workers have exited (their last replies are on
    // the sockets or in the outbound queues); flush what the peers will
    // accept, bounded by the write timeout, then release everything.
    // Dropping `epoll` (and the per-conn streams) closes every fd this
    // shard owns.
    let deadline = Instant::now() + shared.cfg.write_timeout;
    while conns.values().any(|c| c.outbound.pending() > 0) && Instant::now() < deadline {
        let stalled: Vec<u64> = conns
            .iter()
            .filter(|(_, c)| c.outbound.pending() > 0)
            .map(|(t, _)| *t)
            .collect();
        let mut progressed = false;
        for token in stalled {
            if let Some(conn) = conns.get_mut(&token) {
                let before = conn.outbound.pending();
                if matches!(conn.outbound.flush(), FlushOutcome::Dead) {
                    close_conn(&epoll, &mut conns, &shared, token);
                    progressed = true;
                } else if let Some(conn) = conns.get(&token) {
                    progressed |= conn.outbound.pending() < before;
                }
            }
        }
        if !progressed {
            // Nothing moved this round: wait for kernel buffers to open
            // up rather than spinning. A broken epoll fd degrades to a
            // plain sleep so the bounded drain still terminates.
            if epoll.wait(&mut events, Duration::from_millis(20)).is_err() {
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
    let tokens: Vec<u64> = conns.keys().copied().collect();
    for token in tokens {
        close_conn(&epoll, &mut conns, &shared, token);
    }
}

/// Accepts every pending connection on the listener, distributing them
/// across shards round-robin by token.
fn accept_ready(
    epoll: &Epoll,
    listener: Option<&TcpListener>,
    shards: &[Arc<ShardQueue>],
    shard_idx: usize,
    shared: &Arc<Shared>,
    conns: &mut HashMap<u64, Conn>,
) {
    let Some(listener) = listener else { return };
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                stream.set_nodelay(true).ok();
                let active = shared.connections.load(Ordering::Relaxed);
                let admitted = active < shared.cfg.max_connections;
                if admitted {
                    shared.connections.fetch_add(1, Ordering::Relaxed);
                    clare_trace::metrics().net_connections.add(1);
                } else {
                    shared.service.note_rejected();
                    clare_trace::metrics().net_busy_rejections.inc();
                    if shared.refused.load(Ordering::Relaxed) >= REFUSED_BUDGET {
                        // The courtesy budget is spent: drop the accept
                        // without the busy hello rather than let refused
                        // fds grow without bound.
                        continue;
                    }
                    shared.refused.fetch_add(1, Ordering::Relaxed);
                }
                let token = shared.next_token.fetch_add(1, Ordering::Relaxed);
                let target = (token % shards.len() as u64) as usize;
                if target == shard_idx {
                    register_conn(
                        epoll,
                        conns,
                        shared,
                        &shards[shard_idx],
                        token,
                        stream,
                        admitted,
                    );
                } else {
                    shards[target]
                        .handoff
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .push((token, stream, admitted));
                    shards[target].kick();
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

fn register_conn(
    epoll: &Epoll,
    conns: &mut HashMap<u64, Conn>,
    shared: &Arc<Shared>,
    shard: &Arc<ShardQueue>,
    token: u64,
    stream: TcpStream,
    admitted: bool,
) {
    let fd = stream.as_raw_fd();
    let outbound = Outbound::new(Arc::clone(shard), token, stream, &shared.cfg);
    let conn = Conn {
        token,
        state: ConnState::Hello {
            got: 0,
            refuse: !admitted,
        },
        hello: [0u8; CLIENT_HELLO_LEN],
        fr: FrameReader::new(MAX_FRAME_LEN),
        outbound,
        last_activity: Instant::now(),
        seen_written: 0,
        interest: libc::EPOLLIN | libc::EPOLLRDHUP,
        admitted,
        read_rounds: 0,
    };
    if epoll
        .add(fd, libc::EPOLLIN | libc::EPOLLRDHUP, token)
        .is_err()
    {
        release_accounting(shared, &conn);
        return;
    }
    clare_trace::metrics().net_reactor_connections.add(1);
    conns.insert(token, conn);
}

fn release_accounting(shared: &Arc<Shared>, conn: &Conn) {
    if conn.admitted {
        shared.connections.fetch_sub(1, Ordering::Relaxed);
        clare_trace::metrics().net_connections.add(-1);
    } else {
        shared.refused.fetch_sub(1, Ordering::Relaxed);
    }
}

fn close_conn(epoll: &Epoll, conns: &mut HashMap<u64, Conn>, shared: &Arc<Shared>, token: u64) {
    let Some(conn) = conns.remove(&token) else {
        return;
    };
    epoll.del(conn.outbound.stream.as_raw_fd());
    let dropped = conn.outbound.close();
    // Nothing more will be written: make the close visible to the peer
    // now, even if a job or log watcher still holds the fd open.
    let _ = conn.outbound.stream.shutdown(std::net::Shutdown::Both);
    let m = clare_trace::metrics();
    if dropped > 0 {
        m.net_reactor_outbound_bytes.add(-(dropped as i64));
    }
    m.net_reactor_connections.add(-1);
    release_accounting(shared, &conn);
}

/// Pulls every byte the kernel has for `conn`, advancing the handshake
/// and reassembling frames. This is the
/// [`clare_fault::FaultSite::NetReactorRead`] injection point: a short
/// read caps how much leaves the kernel this round (the frame must be
/// reassembled across rounds), a spurious wakeup delivers nothing (the
/// level-triggered loop simply re-reports readiness).
fn service_read(epoll: &Epoll, conn: &mut Conn, shared: &Arc<Shared>) -> ConnVerdict {
    let mut tmp = [0u8; 16 * 1024];
    let mut saw_eof = false;
    loop {
        let mut cap = tmp.len();
        if clare_fault::active() {
            let ctx = conn.token.rotate_left(32) ^ conn.read_rounds;
            match clare_fault::decide(clare_fault::FaultSite::NetReactorRead, ctx) {
                clare_fault::FaultAction::Truncate { keep } => {
                    cap = ((keep as usize) % tmp.len()).max(1);
                }
                clare_fault::FaultAction::Drop => {
                    // EAGAIN storm: pretend the readiness was spurious.
                    conn.read_rounds += 1;
                    break;
                }
                _ => {}
            }
        }
        conn.read_rounds += 1;
        match (&conn.outbound.stream).read(&mut tmp[..cap]) {
            Ok(0) => {
                saw_eof = true;
                break;
            }
            Ok(n) => {
                conn.last_activity = Instant::now();
                ingest(conn, &tmp[..n], shared);
                if conn.outbound.closing() {
                    // The handshake was refused mid-round: stop pulling
                    // input; what remains buffered is discarded.
                    break;
                }
                if n < cap {
                    // The kernel gave less than asked: nothing more is
                    // buffered, and level-triggered epoll re-reports if
                    // more arrives before the next wait.
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return ConnVerdict::Close,
        }
    }

    // Decode whatever completed this round in one burst, so everything
    // already buffered can coalesce.
    drain_frames(conn, shared);

    if saw_eof {
        // Half-close: the peer is done sending but may still be reading.
        // Serve what was decoded — including the burst just handed to the
        // workers, whose replies do not exist yet — then flush-and-close.
        conn.outbound.set_closing();
    }
    if conn.outbound.closing() {
        if conn.outbound.idle() && conn.outbound.pending() == 0 {
            return ConnVerdict::Close;
        }
        // Drop read interest (a half-closed peer would otherwise report
        // EPOLLRDHUP on every wait, spinning the shard until the last
        // reply lands) and wait on worker completions + flushes.
        sync_interest(epoll, conn, conn.outbound.pending() > 0);
    }
    ConnVerdict::Keep
}

/// Feeds raw bytes through the handshake state machine into the frame
/// reassembler.
fn ingest(conn: &mut Conn, mut bytes: &[u8], shared: &Arc<Shared>) {
    if matches!(conn.state, ConnState::Rejected) {
        // Terminal: the refusal hello is already sent; anything else the
        // peer sends is discarded.
        return;
    }
    if let ConnState::Hello { got, refuse } = &mut conn.state {
        let need = CLIENT_HELLO_LEN - *got;
        let take = need.min(bytes.len());
        conn.hello[*got..*got + take].copy_from_slice(&bytes[..take]);
        *got += take;
        bytes = &bytes[take..];
        if *got < CLIENT_HELLO_LEN {
            return;
        }
        let fingerprint = shared.service.fingerprint();
        let hello = if *refuse {
            ServerHello {
                version: PROTOCOL_VERSION,
                status: HelloStatus::Busy,
                retry_after_ms: shared.cfg.retry_after_ms,
                caps: 0,
                fingerprint,
            }
        } else {
            admit_client(&conn.hello, shared.service.caps(), fingerprint)
        };
        conn.outbound.enqueue(encode_server_hello(&hello).to_vec());
        if hello.status != HelloStatus::Ok {
            conn.state = ConnState::Rejected;
            conn.outbound.set_closing();
            return;
        }
        let checksums = hello.caps & CAP_FRAME_CRC != 0;
        conn.fr.set_checksums(checksums);
        conn.outbound.checksums.store(checksums, Ordering::Relaxed);
        conn.state = ConnState::Active;
    }
    if !bytes.is_empty() {
        conn.fr.feed(bytes);
    }
}

/// Pops every complete frame and hands the burst to the shared
/// decode/coalesce/enqueue path.
fn drain_frames(conn: &mut Conn, shared: &Arc<Shared>) {
    // Frames flow only once the handshake has completed.
    if !matches!(conn.state, ConnState::Active) {
        return;
    }
    let mut burst = Vec::new();
    let mut fatal = false;
    loop {
        match conn.fr.try_frame() {
            Ok(Some(frame)) => burst.push(frame),
            Ok(None) => break,
            Err(e) => {
                // The stream cannot be resynchronised after a length or
                // checksum violation: report once, serve what decoded,
                // then flush-and-close.
                conn.outbound
                    .send_error(0, &ErrorReply::new(ErrorCode::Malformed, e.to_string()));
                fatal = true;
                break;
            }
        }
    }
    if !burst.is_empty() {
        process_burst(shared, &conn.outbound, burst);
    }
    if fatal {
        conn.outbound.set_closing();
    }
}

/// Flushes a connection's outbound queue, parking against `EPOLLOUT`
/// when the kernel pushes back.
fn service_write(epoll: &Epoll, conn: &mut Conn) -> ConnVerdict {
    match conn.outbound.flush() {
        FlushOutcome::Drained => {
            if conn.outbound.closing() && conn.outbound.idle() {
                return ConnVerdict::Close;
            }
            sync_interest(epoll, conn, false);
            ConnVerdict::Keep
        }
        FlushOutcome::Parked => {
            sync_interest(epoll, conn, true);
            ConnVerdict::Keep
        }
        FlushOutcome::Dead => ConnVerdict::Close,
    }
}

/// Re-registers the socket's epoll interest to match what the connection
/// can still make progress on: read bits while input is processed (never
/// once closing), `EPOLLOUT` while a flush is parked.
fn sync_interest(epoll: &Epoll, conn: &mut Conn, want_write: bool) {
    let mut mask = 0;
    if !conn.outbound.closing() {
        mask |= libc::EPOLLIN | libc::EPOLLRDHUP;
    }
    if want_write {
        mask |= libc::EPOLLOUT;
    }
    if mask != conn.interest {
        conn.interest = mask;
        let _ = epoll.modify(conn.outbound.stream.as_raw_fd(), mask, conn.token);
    }
}
