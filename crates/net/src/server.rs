//! The serving front-end: one connection-intake core — the epoll event
//! loop in [`crate::reactor`] — feeding a bounded worker pool over one
//! shared [`ClauseRetrievalServer`].
//!
//! ```text
//!   reactor shard ──► bounded job queue ──► workers
//!        ▲                                     │ reply
//!        └── queued remainder ◄── ConnWriter ◄─┘ (socket first)
//! ```
//!
//! The shard decodes frames and enqueues jobs; workers execute them against
//! the CRS and send replies through the connection's shared [`ConnWriter`],
//! so pipelined requests complete out of order (responses are matched by
//! request id, not position). A reply is written to the connection's
//! nonblocking socket by the thread that produced it; only what the kernel
//! does not take at once is queued for the shard to flush (see
//! [`crate::reactor::Outbound`]). A burst holding several same-predicate
//! retrievals is coalesced into one `retrieve_batch` job — safe because
//! the core pins batch results to be identical to individual retrievals —
//! and a full queue sheds load with a `Busy` error frame carrying a retry
//! hint instead of stalling the socket.

// The serving loop handles untrusted input and must degrade, not abort:
// fallible results are matched or turned into error frames. CI greps for
// this gate; do not remove it.
#![deny(clippy::unwrap_used)]

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use clare_core::{ClauseRetrievalServer, SolveOptions};
use clare_kb::KbConfig;
use clare_term::{Symbol, Term};

use crate::protocol::{
    decode_consult, decode_repl_ack, decode_retrieve, decode_retrieve_batch, decode_solve,
    decode_subscribe_log, encode_commit_receipt, encode_error, encode_retrieval, encode_retrievals,
    encode_seq_reply, encode_server_stats, encode_server_stats_extended, encode_solve_outcome,
    encode_symbols, opcode, BudgetExt, ConsultReq, ErrorCode, ErrorReply, Frame, RetrieveBatchReq,
    RetrieveReq, SolveReq, MAX_FRAME_LEN, STATS_REQ_EXTENDED,
};
use crate::reactor::Outbound;

/// Tuning knobs for [`NetServer`].
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Reactor shard threads. Each shard owns an epoll instance and a
    /// subset of the connections; shard 0 also owns the listener. More
    /// than one shard only helps once a single event loop saturates a
    /// core.
    pub reactor_shards: usize,
    /// Per-connection outbound reply queue capacity in bytes. The queue
    /// only holds what the peer's socket did not take at once; a worker
    /// finding it at capacity parks until the event loop flushes room —
    /// bounded by `write_timeout`, after which the non-consuming peer is
    /// dropped.
    pub outbound_queue_bytes: usize,
    /// Worker threads executing retrievals (the service parallelism).
    pub workers: usize,
    /// Concurrent connections accepted before new ones are refused with a
    /// busy hello.
    pub max_connections: usize,
    /// Jobs buffered before the intake sheds load with `Busy` error
    /// frames.
    pub queue_depth: usize,
    /// How long a reply may wait on a peer that has stopped reading: a
    /// worker parked on a full outbound queue, or a closing connection's
    /// final flush, gives up after this long and the peer is dropped.
    pub write_timeout: Duration,
    /// Retry hint attached to busy hellos and `Busy` error frames.
    pub retry_after_ms: u32,
    /// Frame length cap enforced on incoming frames.
    pub max_frame_len: u32,
    /// Coalesce pipelined same-predicate retrieves into one batch job.
    pub coalesce: bool,
    /// Knowledge-base compilation config for consult-updates.
    pub kb_config: KbConfig,
    /// Drop a connection after this long without a byte moving in either
    /// direction (half-open peers otherwise pin a connection slot and an
    /// fd forever). `None` disables the reap.
    pub idle_timeout: Option<Duration>,
    /// Accept the [`crate::protocol::CAP_FRAME_CRC`] capability when a
    /// client requests it.
    /// Checksums only apply on connections where the client asked for
    /// them.
    pub frame_checksums: bool,
    /// CoDel-style queue-sojourn shedding target. When set, the worker
    /// pool notes each job's queue sojourn at dequeue; once sojourns stay
    /// above the target for a full target-length window the intake starts
    /// refusing *new* jobs with `Busy` (counted by `budget.codel_sheds`)
    /// until a dequeued job has waited less than the target again. Under
    /// sustained overload this keeps queue time bounded near the target
    /// instead of letting every request absorb the full queue depth.
    /// `None` (the default) disables sojourn shedding; the queue-full
    /// bound still applies.
    pub codel_target: Option<Duration>,
    /// Fault injection for tests: a worker panics when it picks up a
    /// `stats` job. Exercises the panic-isolation path (Internal error
    /// replies + `net.worker_panics`) without any adversarial input.
    #[doc(hidden)]
    pub debug_panic_on_stats: bool,
    /// Test-only throttle: every worker sleeps this long before executing
    /// a job, so shutdown-drain tests can reliably catch replies still in
    /// flight.
    #[doc(hidden)]
    pub debug_worker_delay: Option<Duration>,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            reactor_shards: 1,
            outbound_queue_bytes: 1 << 20,
            workers: 4,
            max_connections: 64,
            queue_depth: 256,
            write_timeout: Duration::from_secs(10),
            retry_after_ms: 100,
            max_frame_len: MAX_FRAME_LEN,
            coalesce: true,
            kb_config: KbConfig::default(),
            idle_timeout: Some(Duration::from_secs(300)),
            frame_checksums: true,
            codel_target: None,
            debug_panic_on_stats: false,
            debug_worker_delay: None,
        }
    }
}

/// Serialized writer for one connection, shared by every worker holding a
/// job from it.
pub(crate) struct ConnWriter {
    /// Where encoded frames go: the connection's socket when nothing is
    /// queued ahead, its bounded outbound queue otherwise.
    outbound: Arc<Outbound>,
    /// Jobs decoded from this connection still queued or executing. A
    /// half-closed connection owes a reply per in-flight job, so the
    /// reactor may not release it while this is nonzero.
    in_flight: AtomicUsize,
    /// Negotiated on this connection's handshake: append a CRC32C
    /// trailer to every outgoing frame.
    checksums: bool,
}

impl ConnWriter {
    pub(crate) fn new(outbound: Arc<Outbound>, checksums: bool) -> Self {
        ConnWriter {
            outbound,
            in_flight: AtomicUsize::new(0),
            checksums,
        }
    }

    /// Accounts one decoded job headed for the worker pool. Must happen
    /// before the job becomes visible to workers, or the job could finish
    /// (and the connection close) before it was ever counted.
    pub(crate) fn job_started(&self) {
        self.in_flight.fetch_add(1, Ordering::SeqCst);
    }

    /// The job is done — reply sent, shed, or panicked — and its reply is
    /// on the socket or the outbound queue, so the shard needs waking only
    /// if it has parked the connection as closing and this was the last
    /// job it waits for. The shard stores the flag *before* its own
    /// [`ConnWriter::idle`] check and both sides are SeqCst, so either it
    /// sees the count at zero or this sees the flag.
    pub(crate) fn job_finished(&self) {
        if self.in_flight.fetch_sub(1, Ordering::SeqCst) == 1 && self.outbound.closing() {
            self.outbound.kick();
        }
    }

    /// No decoded jobs are outstanding on this connection.
    pub(crate) fn idle(&self) -> bool {
        self.in_flight.load(Ordering::SeqCst) == 0
    }

    /// Writes one frame; a failed write condemns the connection, later
    /// sends become no-ops and the shard drops it.
    ///
    /// This is the server-side network fault-injection point
    /// ([`clare_fault::FaultSite::NetServerSend`], keyed by request id and
    /// opcode): a reply frame can be silently dropped, cut short (after
    /// which the byte stream is unrecoverable, so the connection is marked
    /// dead), or bit-flipped in flight.
    pub(crate) fn send(&self, frame: &Frame) {
        if self.outbound.is_dead() {
            return;
        }
        let mut bytes = frame.encoded_with(self.checksums);
        if clare_fault::active() {
            let ctx = frame.request_id ^ (u64::from(frame.opcode) << 56);
            match clare_fault::decide(clare_fault::FaultSite::NetServerSend, ctx) {
                clare_fault::FaultAction::Drop => return,
                action @ clare_fault::FaultAction::Truncate { .. } => {
                    clare_fault::corrupt_in_place(action, &mut bytes);
                    self.outbound.enqueue(bytes);
                    self.outbound.mark_dead();
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
        self.outbound.enqueue(bytes);
    }

    pub(crate) fn send_error(
        &self,
        request_id: u64,
        code: ErrorCode,
        retry_after_ms: u32,
        message: String,
    ) {
        let reply = ErrorReply {
            code,
            retry_after_ms,
            message,
        };
        self.send(&Frame::new(request_id, opcode::ERROR, encode_error(&reply)));
    }
}

/// One unit of work for the pool.
enum Work {
    Retrieve(RetrieveReq),
    Batch(RetrieveBatchReq),
    /// Pipelined same-predicate retrieves folded into one batch; each
    /// member keeps its own request id and is answered as a plain
    /// `Retrieve` reply.
    Coalesced {
        req: RetrieveBatchReq,
        member_ids: Vec<u64>,
    },
    Solve(SolveReq),
    Consult(ConsultReq),
    /// Durable assert through the WAL-serialized commit path; answered
    /// with a commit receipt.
    Assert(ConsultReq),
    /// Durable retract of one structurally matching clause; answered with
    /// a commit receipt.
    Retract(ConsultReq),
    Stats {
        /// The request carried [`STATS_REQ_EXTENDED`]: reply with the
        /// legacy struct plus the versioned metrics snapshot.
        extended: bool,
    },
    Symbols,
    /// Replication: register this connection as a log subscriber from the
    /// given frontier; every commit is then pushed to it as a
    /// request-id-0 `LOG_FRAME`.
    SubscribeLog {
        /// Resume point — the subscriber already holds ops `1..=from_seq`.
        from_seq: u64,
    },
    /// Replication: one shipped WAL record to apply to this (backup)
    /// server's overlay; answered with the applied-through sequence.
    LogFrame(clare_wal::WalRecord),
    /// Replication: the downstream backup has durably applied through
    /// `seq`; updates the primary's lag gauge.
    ReplAck {
        /// Highest sequence the backup reports applied.
        seq: u64,
    },
}

struct Job {
    request_id: u64,
    work: Work,
    writer: Arc<ConnWriter>,
    accepted: Instant,
    deadline_micros: u64,
    /// Work ceilings from the request's budget extension
    /// ([`BudgetExt::NONE`] for unlimited requests).
    budget: BudgetExt,
}

/// Queue-sojourn controller state (see [`NetConfig::codel_target`]).
#[derive(Default)]
struct CodelState {
    /// When dequeued sojourns first went (and stayed) above the target.
    above_since: Option<Instant>,
    /// Sojourn has been above target for a full window: refuse new jobs.
    shedding: bool,
}

pub(crate) struct Shared {
    pub(crate) crs: Arc<ClauseRetrievalServer>,
    pub(crate) cfg: NetConfig,
    /// Stops the intake (accepting and input processing); no new work
    /// enters the queue.
    pub(crate) shutdown: AtomicBool,
    /// Set once the intake has drained; lets idle workers exit.
    drained: AtomicBool,
    /// Tells reactor shards the workers are gone: final-flush outbound
    /// queues, close every fd, and exit.
    pub(crate) reactor_exit: AtomicBool,
    /// Shards that have acknowledged `shutdown` (stopped producing jobs).
    /// Workers may only drain once every shard has quiesced, or a job
    /// enqueued late would be dropped with its reply unsent.
    pub(crate) quiesced_shards: AtomicUsize,
    /// Test hook: every reactor shard panics at its next loop turn.
    #[cfg(test)]
    pub(crate) panic_in_shard: AtomicBool,
    /// Epoll token allocator.
    pub(crate) next_token: AtomicU64,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    /// Sojourn-shedding controller; inert unless `cfg.codel_target` is set.
    codel: Mutex<CodelState>,
    pub(crate) connections: AtomicUsize,
    /// Over-limit connections currently held for a polite busy hello.
    /// Bounds the fd cost of refusal: accepts beyond the courtesy budget
    /// are dropped outright.
    pub(crate) refused: AtomicUsize,
}

impl Shared {
    /// Enqueues a job unless the queue is full or the sojourn controller
    /// is shedding. On refusal the caller sheds load; admission control
    /// is accounted on the CRS stats.
    fn try_enqueue(&self, job: Job) -> Result<(), Box<Job>> {
        if self.cfg.codel_target.is_some() {
            let mut codel = self.codel.lock().unwrap_or_else(|e| e.into_inner());
            if codel.shedding {
                // An empty queue is CoDel's exit condition: the backlog
                // has drained, so the next sojourn is below target by
                // construction. Without this unlatch a burst could leave
                // the gate shedding forever — refusals never enqueue, so
                // no dequeue would ever observe the recovery.
                let drained = self
                    .queue
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .is_empty();
                if drained {
                    codel.shedding = false;
                    codel.above_since = None;
                } else {
                    drop(codel);
                    clare_trace::metrics().budget_codel_sheds.inc();
                    return Err(Box::new(job));
                }
            }
        }
        let mut queue = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        if queue.len() >= self.cfg.queue_depth {
            return Err(Box::new(job));
        }
        queue.push_back(job);
        clare_trace::metrics()
            .net_queue_depth
            .set(queue.len() as i64);
        drop(queue);
        self.queue_cv.notify_one();
        Ok(())
    }

    /// Feeds one dequeued job's queue sojourn to the controller: a
    /// below-target sojourn resets it (stop shedding); sojourns that stay
    /// above target for a full target-length window start shedding.
    fn note_sojourn(&self, sojourn: Duration) {
        let Some(target) = self.cfg.codel_target else {
            return;
        };
        let mut codel = self.codel.lock().unwrap_or_else(|e| e.into_inner());
        if sojourn < target {
            codel.above_since = None;
            codel.shedding = false;
        } else {
            let since = *codel.above_since.get_or_insert_with(Instant::now);
            if since.elapsed() >= target {
                codel.shedding = true;
            }
        }
    }

    /// Blocks for the next job; `None` means the pool is draining and the
    /// queue is empty, i.e. the worker should exit.
    fn dequeue(&self) -> Option<Job> {
        let mut queue = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(job) = queue.pop_front() {
                let sojourn = job.accepted.elapsed();
                let m = clare_trace::metrics();
                m.net_queue_depth.set(queue.len() as i64);
                m.net_queue_wait_ns.record(sojourn.as_nanos() as u64);
                drop(queue);
                self.note_sojourn(sojourn);
                return Some(job);
            }
            if self.drained.load(Ordering::Acquire) {
                return None;
            }
            let (q, _) = self
                .queue_cv
                .wait_timeout(queue, Duration::from_millis(50))
                .unwrap_or_else(|e| e.into_inner());
            queue = q;
        }
    }
}

/// A running PIF-over-TCP front-end for a [`ClauseRetrievalServer`].
///
/// Bind with [`NetServer::bind`], connect with
/// [`NetClient`](crate::NetClient), stop with [`NetServer::shutdown`]
/// (dropping the server also shuts it down). The underlying CRS is shared:
/// in-process callers and networked clients observe the same knowledge
/// base, statistics, and update stream.
pub struct NetServer {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    workers: Vec<std::thread::JoinHandle<()>>,
    /// Reactor shard threads.
    reactors: Vec<std::thread::JoinHandle<()>>,
    /// Shard mailboxes, kept to kick shards awake during shutdown.
    shards: Vec<Arc<crate::reactor::ShardQueue>>,
}

impl NetServer {
    /// Binds `addr` and starts serving `crs`.
    ///
    /// `addr` may use port 0 to let the OS pick; the bound address is
    /// reported by [`NetServer::local_addr`].
    ///
    /// # Errors
    ///
    /// Propagates bind and epoll/eventfd failures. The intake is an epoll
    /// loop, so on targets other than Linux this returns
    /// [`std::io::ErrorKind::Unsupported`].
    pub fn bind(
        crs: Arc<ClauseRetrievalServer>,
        addr: impl ToSocketAddrs,
        cfg: NetConfig,
    ) -> std::io::Result<NetServer> {
        if !cfg!(target_os = "linux") {
            return Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "clare-net serves through epoll, which this target does not have",
            ));
        }
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        // Everything fallible happens before the first thread is spawned.
        let nshards = cfg.reactor_shards.max(1);
        let mut shards = Vec::with_capacity(nshards);
        for _ in 0..nshards {
            shards.push(crate::reactor::ShardQueue::new()?);
        }

        let shared = Arc::new(Shared {
            crs,
            cfg: cfg.clone(),
            shutdown: AtomicBool::new(false),
            drained: AtomicBool::new(false),
            reactor_exit: AtomicBool::new(false),
            quiesced_shards: AtomicUsize::new(0),
            #[cfg(test)]
            panic_in_shard: AtomicBool::new(false),
            next_token: AtomicU64::new(crate::reactor::TOKEN_FIRST_CONN),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            codel: Mutex::new(CodelState::default()),
            connections: AtomicUsize::new(0),
            refused: AtomicUsize::new(0),
        });

        let workers = (0..cfg.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("clare-net-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();

        let mut listener = Some(listener);
        let reactors = (0..nshards)
            .map(|i| {
                let shards_all = shards.clone();
                let shared = Arc::clone(&shared);
                let l = listener.take(); // shard 0 owns the listener
                std::thread::Builder::new()
                    .name(format!("clare-net-reactor-{i}"))
                    .spawn(move || crate::reactor::run_shard(i, l, shards_all, shared))
                    .expect("spawn reactor shard")
            })
            .collect();

        Ok(NetServer {
            shared,
            local_addr,
            workers,
            reactors,
            shards,
        })
    }

    /// The bound listening address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shared retrieval service behind this listener.
    pub fn crs(&self) -> &Arc<ClauseRetrievalServer> {
        &self.shared.crs
    }

    /// Gracefully stops the server: the listener closes, the intake stops
    /// decoding input, queued requests are drained by the workers, their
    /// replies are flushed to the peers (the reactor keeps its event loop
    /// alive until every outbound queue is empty or the write timeout
    /// passes), and all threads join.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Intake quiesce: wake every shard, then wait for each to
        // acknowledge it has stopped turning input into jobs. The shards
        // keep running — they still have replies to flush. Only after
        // that may idle workers exit, so nothing queued is dropped on the
        // floor.
        for shard in &self.shards {
            shard.kick();
        }
        let nshards = self.reactors.len();
        while self.shared.quiesced_shards.load(Ordering::SeqCst) < nshards {
            std::thread::sleep(Duration::from_millis(1));
        }
        self.shared.drained.store(true, Ordering::Release);
        self.shared.queue_cv.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // The workers are gone, so every reply that will ever exist is
        // written or queued: tell the shards to final-flush and release
        // their fds (connections, listener, epoll, eventfd).
        self.shared.reactor_exit.store(true, Ordering::SeqCst);
        for shard in &self.shards {
            shard.kick();
        }
        for h in self.reactors.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("local_addr", &self.local_addr)
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

/// Decodes a burst of frames into jobs — coalescing runs of same-predicate
/// retrieves — and enqueues them, shedding load when the queue is full.
/// Malformed payloads are answered with error frames; the connection
/// stays up.
pub(crate) fn process_burst(shared: &Arc<Shared>, writer: &Arc<ConnWriter>, burst: Vec<Frame>) {
    /// A decoded retrieve waiting to be grouped.
    struct PendingRetrieve {
        id: u64,
        req: RetrieveReq,
        key: Option<(Symbol, usize)>,
    }

    let mut pending: Vec<PendingRetrieve> = Vec::new();
    let mut jobs: Vec<Job> = Vec::new();

    let flush_pending = |pending: &mut Vec<PendingRetrieve>, jobs: &mut Vec<Job>| {
        while !pending.is_empty() {
            // Take the head's group: the longest prefix sharing its
            // coalescing key (same predicate, mode, deadline, and budget).
            let head_key = pending[0].key;
            let head_mode = pending[0].req.mode;
            let head_deadline = pending[0].req.deadline_micros;
            let head_budget = pending[0].req.budget;
            let groupable = head_key.is_some();
            let mut n = 1;
            while groupable
                && n < pending.len()
                && pending[n].key == head_key
                && pending[n].req.mode == head_mode
                && pending[n].req.deadline_micros == head_deadline
                && pending[n].req.budget == head_budget
            {
                n += 1;
            }
            let group: Vec<PendingRetrieve> = pending.drain(..n).collect();
            if group.len() == 1 {
                let p = group.into_iter().next().expect("nonempty group");
                jobs.push(Job {
                    request_id: p.id,
                    work: Work::Retrieve(p.req),
                    writer: Arc::clone(writer),
                    accepted: Instant::now(),
                    deadline_micros: head_deadline,
                    budget: head_budget,
                });
            } else {
                let m = clare_trace::metrics();
                m.net_coalesced_groups.inc();
                m.net_coalesced_members.add(group.len() as u64);
                let member_ids: Vec<u64> = group.iter().map(|p| p.id).collect();
                let queries: Vec<Term> = group.into_iter().map(|p| p.req.query).collect();
                jobs.push(Job {
                    request_id: member_ids[0],
                    work: Work::Coalesced {
                        req: RetrieveBatchReq {
                            mode: head_mode,
                            deadline_micros: head_deadline,
                            budget: head_budget,
                            queries,
                        },
                        member_ids,
                    },
                    writer: Arc::clone(writer),
                    accepted: Instant::now(),
                    deadline_micros: head_deadline,
                    budget: head_budget,
                });
            }
        }
    };

    for frame in burst {
        let id = frame.request_id;
        if let op @ opcode::PING..=opcode::REPL_ACK = frame.opcode {
            let m = clare_trace::metrics();
            m.net_frames_in[(op - opcode::PING) as usize].inc();
            m.net_bytes_in.add(frame.payload.len() as u64);
        }
        let work = match frame.opcode {
            opcode::PING => {
                flush_pending(&mut pending, &mut jobs);
                writer.send(&Frame::new(id, opcode::PING | opcode::REPLY, Vec::new()));
                continue;
            }
            opcode::RETRIEVE => match decode_retrieve(&frame.payload) {
                Ok(req) => {
                    if shared.cfg.coalesce {
                        let key = req.query.functor_arity();
                        pending.push(PendingRetrieve { id, req, key });
                        continue;
                    }
                    Work::Retrieve(req)
                }
                Err(e) => {
                    writer.send_error(id, ErrorCode::Malformed, 0, e.to_string());
                    continue;
                }
            },
            opcode::RETRIEVE_BATCH => match decode_retrieve_batch(&frame.payload) {
                Ok(req) => Work::Batch(req),
                Err(e) => {
                    writer.send_error(id, ErrorCode::Malformed, 0, e.to_string());
                    continue;
                }
            },
            opcode::SOLVE => match decode_solve(&frame.payload) {
                Ok(req) => Work::Solve(req),
                Err(e) => {
                    writer.send_error(id, ErrorCode::Malformed, 0, e.to_string());
                    continue;
                }
            },
            opcode::CONSULT => match decode_consult(&frame.payload) {
                Ok(req) => Work::Consult(req),
                Err(e) => {
                    writer.send_error(id, ErrorCode::Malformed, 0, e.to_string());
                    continue;
                }
            },
            // Assert/retract reuse the consult payload shape (module +
            // source text); they differ only in which commit op runs.
            opcode::ASSERT => match decode_consult(&frame.payload) {
                Ok(req) => Work::Assert(req),
                Err(e) => {
                    writer.send_error(id, ErrorCode::Malformed, 0, e.to_string());
                    continue;
                }
            },
            opcode::RETRACT => match decode_consult(&frame.payload) {
                Ok(req) => Work::Retract(req),
                Err(e) => {
                    writer.send_error(id, ErrorCode::Malformed, 0, e.to_string());
                    continue;
                }
            },
            // The request payload selects the reply shape: empty keeps the
            // plain 56-byte struct; a leading STATS_REQ_EXTENDED byte
            // asks for the versioned metrics snapshot appended to it.
            opcode::STATS => Work::Stats {
                extended: frame.payload.first() == Some(&STATS_REQ_EXTENDED),
            },
            opcode::SYMBOLS => Work::Symbols,
            opcode::SUBSCRIBE_LOG => match decode_subscribe_log(&frame.payload) {
                Ok(req) => Work::SubscribeLog {
                    from_seq: req.from_seq,
                },
                Err(e) => {
                    writer.send_error(id, ErrorCode::Malformed, 0, e.to_string());
                    continue;
                }
            },
            // The payload is one WAL ship record (`encode_ship_record`),
            // exactly the bytes a subscriber push carries.
            opcode::LOG_FRAME => match clare_wal::decode_ship_record(&frame.payload) {
                Some(record) => Work::LogFrame(record),
                None => {
                    writer.send_error(
                        id,
                        ErrorCode::Malformed,
                        0,
                        "malformed WAL ship record".to_owned(),
                    );
                    continue;
                }
            },
            opcode::REPL_ACK => match decode_repl_ack(&frame.payload) {
                Ok(ack) => Work::ReplAck { seq: ack.seq },
                Err(e) => {
                    writer.send_error(id, ErrorCode::Malformed, 0, e.to_string());
                    continue;
                }
            },
            other => {
                writer.send_error(
                    id,
                    ErrorCode::Unsupported,
                    0,
                    format!("unknown opcode {other:#04x}"),
                );
                continue;
            }
        };
        flush_pending(&mut pending, &mut jobs);
        let (deadline_micros, budget) = match &work {
            Work::Retrieve(req) => (req.deadline_micros, req.budget),
            Work::Solve(req) => (req.deadline_micros, req.budget),
            Work::Batch(req) => (req.deadline_micros, req.budget),
            _ => (0, BudgetExt::NONE),
        };
        jobs.push(Job {
            request_id: id,
            work,
            writer: Arc::clone(writer),
            accepted: Instant::now(),
            deadline_micros,
            budget,
        });
    }
    flush_pending(&mut pending, &mut jobs);

    for job in jobs {
        job.writer.job_started();
        if let Err(job) = shared.try_enqueue(job) {
            shed(shared, &job);
            job.writer.job_finished();
        }
    }
}

/// Sheds one refused job: every affected request id gets a `Busy` error
/// frame with the retry hint, and the rejection is counted on the CRS.
fn shed(shared: &Shared, job: &Job) {
    let ids: Vec<u64> = match &job.work {
        Work::Coalesced { member_ids, .. } => member_ids.clone(),
        _ => vec![job.request_id],
    };
    for id in ids {
        shared.crs.note_rejected();
        clare_trace::metrics().net_busy_rejections.inc();
        job.writer.send_error(
            id,
            ErrorCode::Busy,
            shared.cfg.retry_after_ms,
            "request queue full".to_owned(),
        );
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.dequeue() {
        // A panic while serving one request (e.g. on adversarial input)
        // must not take the worker down or leave the client hanging: the
        // affected ids get an Internal error and the pool keeps serving.
        let ids: Vec<u64> = match &job.work {
            Work::Coalesced { member_ids, .. } => member_ids.clone(),
            _ => vec![job.request_id],
        };
        let writer = Arc::clone(&job.writer);
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| execute(shared, job)));
        if outcome.is_err() {
            clare_trace::metrics().net_worker_panics.inc();
            for id in ids {
                writer.send_error(
                    id,
                    ErrorCode::Internal,
                    0,
                    "request processing panicked".to_owned(),
                );
            }
        }
        writer.job_finished();
    }
}

/// True when the job's deadline elapsed while it sat in the queue.
fn deadline_expired(job: &Job) -> bool {
    job.deadline_micros > 0 && job.accepted.elapsed() > Duration::from_micros(job.deadline_micros)
}

/// Sends the typed error for a tripped budget. Deadline trips report
/// `DeadlineExpired`, the code a deadline that expires in the queue also
/// gets; step and candidate ceilings report `BudgetExceeded` with the trip
/// reason in the message.
fn send_budget_exceeded(writer: &ConnWriter, ids: &[u64], e: &clare_core::BudgetExceeded) {
    clare_core::CancelToken::record_trip(e.reason.unwrap_or(clare_core::BudgetReason::Deadline));
    let (code, message) = match e.reason {
        Some(clare_core::BudgetReason::Deadline) | None => (
            ErrorCode::DeadlineExpired,
            "deadline expired mid-execution; partial work discarded".to_owned(),
        ),
        Some(reason) => (ErrorCode::BudgetExceeded, format!("{e}: {reason}")),
    };
    for &id in ids {
        writer.send_error(id, code, 0, message.clone());
    }
}

fn execute(shared: &Arc<Shared>, job: Job) {
    if let Some(delay) = shared.cfg.debug_worker_delay {
        std::thread::sleep(delay);
    }
    // Worker-side stall fault point (chaos schedules only): pins this
    // worker for a bounded delay *before* the queue-expiry check, so a
    // deterministic schedule can force jobs to outlive their deadline in
    // the queue and prove they are shed, not executed.
    if clare_fault::active() {
        if let clare_fault::FaultAction::Delay { micros } =
            clare_fault::decide(clare_fault::FaultSite::WorkerStall, job.request_id)
        {
            std::thread::sleep(Duration::from_micros(micros));
        }
    }
    let ids: Vec<u64> = match &job.work {
        Work::Coalesced { member_ids, .. } => member_ids.clone(),
        _ => vec![job.request_id],
    };
    if deadline_expired(&job) {
        // The deadline elapsed while the job sat in the queue: shed it
        // without executing — running it would waste a worker on an
        // answer the client has already given up on.
        clare_trace::metrics().budget_expired_in_queue.inc();
        for id in ids {
            job.writer.send_error(
                id,
                ErrorCode::DeadlineExpired,
                0,
                "deadline elapsed before execution".to_owned(),
            );
        }
        return;
    }
    // The end-to-end cancellation token: the deadline is anchored at
    // *arrival* (queue time counts against it), the work ceilings come
    // from the budget extension. Unlimited for no-budget requests —
    // CancelToken::starting_at returns the zero-cost unlimited token.
    let cancel = clare_core::CancelToken::starting_at(
        &clare_core::QueryBudget {
            deadline_micros: job.deadline_micros,
            solve_step_limit: job.budget.solve_step_limit,
            candidate_limit: job.budget.candidate_limit,
        },
        job.accepted,
    );

    let crs = &shared.crs;
    match job.work {
        Work::Retrieve(req) => {
            // A lone retrieve is a coalesced group of one.
            match crs.retrieve_batch(std::slice::from_ref(&req.query), req.mode, &cancel) {
                Ok(retrievals) => {
                    for (&id, retrieval) in ids.iter().zip(&retrievals) {
                        job.writer.send(&Frame::new(
                            id,
                            opcode::RETRIEVE | opcode::REPLY,
                            encode_retrieval(retrieval),
                        ));
                    }
                }
                Err(e) => send_budget_exceeded(&job.writer, &ids, &e),
            }
        }
        Work::Coalesced { req, member_ids } => {
            // One hardware pass; each member answered as if it had been a
            // lone retrieve. Identical bytes are guaranteed by the core's
            // batch-equals-individual property. A budget trip anywhere
            // fails the whole group — members share one (identical)
            // budget, so none of them would have finished either.
            match crs.retrieve_batch(&req.queries, req.mode, &cancel) {
                Ok(retrievals) => {
                    for (id, retrieval) in member_ids.into_iter().zip(&retrievals) {
                        job.writer.send(&Frame::new(
                            id,
                            opcode::RETRIEVE | opcode::REPLY,
                            encode_retrieval(retrieval),
                        ));
                    }
                }
                Err(e) => send_budget_exceeded(&job.writer, &member_ids, &e),
            }
        }
        Work::Batch(req) => match crs.retrieve_batch(&req.queries, req.mode, &cancel) {
            Ok(retrievals) => job.writer.send(&Frame::new(
                job.request_id,
                opcode::RETRIEVE_BATCH | opcode::REPLY,
                encode_retrievals(&retrievals),
            )),
            Err(e) => send_budget_exceeded(&job.writer, &ids, &e),
        },
        Work::Solve(req) => {
            let options = SolveOptions {
                mode: req.mode,
                max_solutions: usize::try_from(req.max_solutions).unwrap_or(usize::MAX),
                max_depth: usize::try_from(req.max_depth).unwrap_or(usize::MAX),
            };
            match crs.solve_goals(&req.goals, &req.var_names, &options, &cancel) {
                Ok(outcome) => job.writer.send(&Frame::new(
                    job.request_id,
                    opcode::SOLVE | opcode::REPLY,
                    encode_solve_outcome(&outcome),
                )),
                Err(e) => send_budget_exceeded(&job.writer, &ids, &e),
            }
        }
        Work::Consult(req) => {
            let mut tx = crs.begin_update();
            let result = tx
                .consult(&req.module, &req.source)
                .map_err(|e| e.to_string())
                .and_then(|()| {
                    tx.commit(shared.cfg.kb_config.clone())
                        .map(|_| ())
                        .map_err(|e| e.to_string())
                });
            match result {
                Ok(()) => job.writer.send(&Frame::new(
                    job.request_id,
                    opcode::CONSULT | opcode::REPLY,
                    encode_consult_ok(),
                )),
                Err(reason) => {
                    job.writer
                        .send_error(job.request_id, ErrorCode::ConsultRejected, 0, reason)
                }
            }
        }
        Work::Assert(req) => match crs.assert_source(&req.module, &req.source) {
            Ok(receipt) => job.writer.send(&Frame::new(
                job.request_id,
                opcode::ASSERT | opcode::REPLY,
                encode_commit_receipt(&receipt),
            )),
            Err(e) => {
                job.writer
                    .send_error(job.request_id, ErrorCode::ConsultRejected, 0, e.to_string())
            }
        },
        Work::Retract(req) => match crs.retract_source(&req.module, &req.source) {
            Ok(receipt) => job.writer.send(&Frame::new(
                job.request_id,
                opcode::RETRACT | opcode::REPLY,
                encode_commit_receipt(&receipt),
            )),
            Err(e) => {
                job.writer
                    .send_error(job.request_id, ErrorCode::ConsultRejected, 0, e.to_string())
            }
        },
        Work::Stats { extended } => {
            if shared.cfg.debug_panic_on_stats {
                panic!("debug_panic_on_stats fault injection");
            }
            let payload = if extended {
                encode_server_stats_extended(&crs.stats(), &clare_trace::metrics().snapshot())
            } else {
                encode_server_stats(&crs.stats())
            };
            job.writer.send(&Frame::new(
                job.request_id,
                opcode::STATS | opcode::REPLY,
                payload,
            ));
        }
        Work::Symbols => {
            // The overlay symbols are a strict superset of the base's, so
            // clients can parse queries against overlay-only predicates.
            let symbols = crs.symbols();
            job.writer.send(&Frame::new(
                job.request_id,
                opcode::SYMBOLS | opcode::REPLY,
                encode_symbols(&symbols),
            ));
        }
        Work::SubscribeLog { from_seq } => {
            // Catch-up and live pushes both ride the connection's writer
            // as request-id-0 LOG_FRAMEs; the watcher unregisters itself
            // (returns false) once the connection dies.
            let writer = Arc::clone(&job.writer);
            let watcher: clare_core::LogWatcher = Box::new(move |records| {
                for record in records {
                    if writer.outbound.is_dead() {
                        return false;
                    }
                    writer.send(&Frame::new(
                        0,
                        opcode::LOG_FRAME,
                        clare_wal::encode_ship_record(record.seq, &record.op),
                    ));
                }
                !writer.outbound.is_dead()
            });
            match crs.subscribe_ops(from_seq, watcher) {
                Ok(current) => job.writer.send(&Frame::new(
                    job.request_id,
                    opcode::SUBSCRIBE_LOG | opcode::REPLY,
                    encode_seq_reply(current),
                )),
                Err(clare_core::SubscribeError::Gap { folded_through }) => {
                    job.writer.send_error(
                        job.request_id,
                        ErrorCode::ReplGap,
                        0,
                        format!("log folded through seq {folded_through}; resync from a snapshot"),
                    );
                }
            }
        }
        Work::LogFrame(record) => {
            // Backup-side apply fault point: a chaos schedule can refuse
            // the frame (the router must retry/resend) or stall it.
            if clare_fault::active() {
                match clare_fault::decide(clare_fault::FaultSite::ReplApply, record.seq) {
                    clare_fault::FaultAction::Drop => {
                        job.writer.send_error(
                            job.request_id,
                            ErrorCode::Busy,
                            1,
                            "replication apply refused (injected)".to_owned(),
                        );
                        return;
                    }
                    clare_fault::FaultAction::Delay { micros } => {
                        std::thread::sleep(Duration::from_micros(micros));
                    }
                    _ => {}
                }
            }
            match crs.apply_replicated(&record) {
                Ok(applied) => job.writer.send(&Frame::new(
                    job.request_id,
                    opcode::LOG_FRAME | opcode::REPLY,
                    encode_seq_reply(applied),
                )),
                Err(clare_core::CommitError::ReplicaGap { expected }) => {
                    job.writer.send_error(
                        job.request_id,
                        ErrorCode::ReplGap,
                        0,
                        format!("expected seq {expected}, got {}", record.seq),
                    );
                }
                Err(e) => {
                    job.writer.send_error(
                        job.request_id,
                        ErrorCode::ConsultRejected,
                        0,
                        e.to_string(),
                    );
                }
            }
        }
        Work::ReplAck { seq } => {
            // The primary's view of how far its backup trails; reads can
            // consult this to judge failover staleness.
            let lag = crs.current_seq().saturating_sub(seq);
            clare_trace::metrics()
                .cluster_repl_lag_frames
                .set(i64::try_from(lag).unwrap_or(i64::MAX));
            job.writer.send(&Frame::new(
                job.request_id,
                opcode::REPL_ACK | opcode::REPLY,
                Vec::new(),
            ));
        }
    }
}

/// The (empty) payload of a successful consult reply.
fn encode_consult_ok() -> Vec<u8> {
    Vec::new()
}

#[cfg(test)]
mod tests {
    use super::*;
    use clare_core::CrsOptions;
    use clare_kb::{KbBuilder, KbConfig};

    #[test]
    fn shutdown_completes_after_a_reactor_shard_panics() {
        let kb = KbBuilder::new().finish(KbConfig::default());
        let crs = Arc::new(ClauseRetrievalServer::new(kb, CrsOptions::default()));
        let server = NetServer::bind(crs, "127.0.0.1:0", NetConfig::default()).expect("bind");
        server.shared.panic_in_shard.store(true, Ordering::SeqCst);
        for shard in &server.shards {
            shard.kick();
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while !server.reactors.iter().all(|h| h.is_finished()) {
            assert!(
                Instant::now() < deadline,
                "the hook did not stop the shards"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let (done, finished) = std::sync::mpsc::channel();
        let shutdown = std::thread::spawn(move || {
            server.shutdown();
            let _ = done.send(());
        });
        // On a hang the thread is left behind: joining it would hang too.
        assert!(
            finished.recv_timeout(Duration::from_secs(10)).is_ok(),
            "shutdown waited forever on panicked shards"
        );
        shutdown.join().expect("shutdown thread");
    }
}
