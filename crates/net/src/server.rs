//! The serving front-end: one connection-intake core — the epoll event
//! loop in [`crate::reactor`] — feeding a bounded worker pool over one
//! shared [`Service`]: a [`ClauseRetrievalServer`](clare_core::ClauseRetrievalServer),
//! or the `clare-cluster` router in front of several.
//!
//! ```text
//!   reactor ──► bounded job queue ──► workers
//!        ▲                                     │ reply
//!        └── queued remainder ◄── Outbound ◄───┘ (socket first)
//! ```
//!
//! The reactor decodes frames and enqueues jobs; workers execute them against
//! the service and send replies through the connection's shared [`Outbound`],
//! so pipelined requests complete out of order (responses are matched by
//! request id, not position). A reply is written to the connection's
//! nonblocking socket by the thread that produced it; only what the kernel
//! does not take at once is queued for the reactor to flush. Every retrieval
//! is one job kind: a RETRIEVE_BATCH request, or a run of pipelined
//! same-predicate RETRIEVEs coalesced into one `retrieve_batch` pass (a
//! lone one is a run of one) — safe because the core pins batch results to
//! be identical to individual retrievals. A full queue sheds load with a
//! `Busy` error frame carrying a retry hint instead of stalling the socket.

// The serving loop handles untrusted input and must degrade, not abort:
// fallible results are matched or turned into error frames. CI greps for
// this gate; do not remove it.
#![deny(clippy::unwrap_used)]

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use clare_core::{SearchMode, SolveOptions};
use clare_term::Symbol;
use clare_wal::WalRecord;

use crate::protocol::{
    decode, encode, opcode, AssertReq, BudgetExt, ConsultReq, ErrorCode, ErrorReply, Frame,
    MetricsReq, Ping, ReplAck, Request, RetractReq, RetrieveBatchReq, RetrieveReq, SolveReq,
    StatsReq, SubscribeLogReq, SymbolsReq, Tagged, STATS_REQ_EXTENDED,
};
use crate::reactor::Outbound;
use crate::Service;

/// Tuning knobs for [`NetServer`].
#[derive(Debug, Clone)]
pub struct NetConfig {
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
    /// Drop a connection after this long without a byte moving in either
    /// direction (half-open peers otherwise pin a connection slot and an
    /// fd forever). `None` disables the reap.
    pub idle_timeout: Option<Duration>,
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
            outbound_queue_bytes: 1 << 20,
            workers: 4,
            max_connections: 64,
            queue_depth: 256,
            write_timeout: Duration::from_secs(10),
            retry_after_ms: 100,
            idle_timeout: Some(Duration::from_secs(300)),
            codel_target: None,
            debug_panic_on_stats: false,
            debug_worker_delay: None,
        }
    }
}

/// One unit of work for the pool.
enum Work {
    /// One `retrieve_batch` pass over `req.queries`, answered as `answer`
    /// says.
    Retrieve {
        req: RetrieveBatchReq,
        answer: Answer,
    },
    Solve(SolveReq),
    Consult(ConsultReq),
    /// Durable assert through the WAL-serialized commit path; answered
    /// with a commit receipt.
    Assert(AssertReq),
    /// Durable retract of one structurally matching clause; answered with
    /// a commit receipt.
    Retract(RetractReq),
    Stats {
        /// The request carried [`STATS_REQ_EXTENDED`]: reply with the
        /// legacy struct plus the versioned metrics snapshot.
        extended: bool,
    },
    Symbols,
    /// Replication: register this connection as a log subscriber from the
    /// given frontier (it already holds ops `1..=from_seq`); every commit
    /// is then pushed to it as a request-id-0 `LOG_FRAME`.
    SubscribeLog(SubscribeLogReq),
    /// Replication: one shipped WAL record to apply to this (backup)
    /// server's overlay; answered with the applied-through sequence.
    LogFrame(WalRecord),
    /// Replication: the downstream backup has durably applied through
    /// `seq`; updates the primary's lag gauge.
    ReplAck(ReplAck),
}

/// How a retrieve job's results go back to the client.
enum Answer {
    /// Pipelined RETRIEVEs: one RETRIEVE reply per query, each on its own
    /// request id (the first is the job's).
    PerMember(Vec<u64>),
    /// One RETRIEVE_BATCH reply on the job's request id.
    Batch,
}

/// What pipelined RETRIEVEs must share to run as one batch pass:
/// predicate, mode, deadline and budget.
type CoalescingKey = ((Symbol, usize), SearchMode, u64, BudgetExt);

impl Work {
    /// Decodes a request frame as the [`Request`] table types its opcode:
    /// the one decode-or-error rule every opcode goes through. `Err` is the
    /// error frame the request is answered with instead — `Malformed` for a
    /// payload that does not decode, `Unsupported` for an unknown opcode.
    fn decode(frame: &Frame) -> Result<Work, ErrorReply> {
        let payload = &frame.payload;
        let work = match frame.opcode {
            RetrieveReq::OP => decode::<RetrieveReq>(payload).map(|req| Work::Retrieve {
                req: RetrieveBatchReq {
                    mode: req.mode,
                    deadline_micros: req.deadline_micros,
                    budget: req.budget,
                    queries: vec![req.query],
                },
                answer: Answer::PerMember(vec![frame.request_id]),
            }),
            RetrieveBatchReq::OP => decode(payload).map(|req| Work::Retrieve {
                req,
                answer: Answer::Batch,
            }),
            SolveReq::OP => decode(payload).map(Work::Solve),
            ConsultReq::OP => decode(payload).map(Work::Consult),
            AssertReq::OP => decode(payload).map(Work::Assert),
            RetractReq::OP => decode(payload).map(Work::Retract),
            // One opcode, two request types: the payload selects the reply
            // shape. Empty (StatsReq) keeps the plain 56-byte struct; a
            // leading STATS_REQ_EXTENDED byte (MetricsReq) asks for the
            // versioned metrics snapshot appended to it.
            StatsReq::OP => Ok(Work::Stats {
                extended: payload.first() == Some(&STATS_REQ_EXTENDED),
            }),
            SymbolsReq::OP => Ok(Work::Symbols),
            SubscribeLogReq::OP => decode(payload).map(Work::SubscribeLog),
            // The payload is one WAL ship record, exactly the bytes a
            // subscriber push carries.
            WalRecord::OP => decode(payload).map(Work::LogFrame),
            ReplAck::OP => decode(payload).map(Work::ReplAck),
            other => {
                return Err(ErrorReply::new(
                    ErrorCode::Unsupported,
                    format!("unknown opcode {other:#04x}"),
                ))
            }
        };
        work.map_err(|e| ErrorReply::new(ErrorCode::Malformed, e.to_string()))
    }

    /// The key under which a pipelined RETRIEVE may join the run before
    /// it; `None` for every other request, and for a query with no
    /// predicate.
    fn coalescing_key(&self) -> Option<CoalescingKey> {
        match self {
            Work::Retrieve {
                req,
                answer: Answer::PerMember(_),
            } => Some((
                req.queries.first()?.functor_arity()?,
                req.mode,
                req.deadline_micros,
                req.budget,
            )),
            _ => None,
        }
    }
}

/// One decoded request — or coalesced run of RETRIEVEs — on its way
/// through the pool, holding the connection it answers on.
struct Job {
    /// The request's id; a coalesced run's first member id.
    request_id: u64,
    work: Work,
    outbound: Arc<Outbound>,
    accepted: Instant,
}

impl Job {
    /// Every request id this job owes a reply: the members of a coalesced
    /// run, else the job's own id.
    fn ids(&self) -> &[u64] {
        match &self.work {
            Work::Retrieve {
                answer: Answer::PerMember(ids),
                ..
            } => ids,
            _ => std::slice::from_ref(&self.request_id),
        }
    }

    /// The request's deadline and work ceilings (zero and
    /// [`BudgetExt::NONE`] for requests that carry none).
    fn budget(&self) -> (u64, BudgetExt) {
        match &self.work {
            Work::Retrieve { req, .. } => (req.deadline_micros, req.budget),
            Work::Solve(req) => (req.deadline_micros, req.budget),
            _ => (0, BudgetExt::NONE),
        }
    }

    /// Sends `R`'s reply on the job's id.
    fn reply<R: Request>(&self, reply: &R::Reply) {
        self.outbound.send(&Frame::new(
            self.request_id,
            R::OP | opcode::REPLY,
            encode(reply),
        ));
    }

    /// Sends the same error frame to every id the job owes a reply.
    fn fail(&self, e: &ErrorReply) {
        for &id in self.ids() {
            self.outbound.send_error(id, e);
        }
    }
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
    pub(crate) service: Arc<dyn Service>,
    pub(crate) cfg: NetConfig,
    /// Stops the intake (accepting and input processing); no new work
    /// enters the queue.
    pub(crate) shutdown: AtomicBool,
    /// Set once the intake has drained; lets idle workers exit.
    drained: AtomicBool,
    /// Tells the reactor the workers are gone: final-flush outbound
    /// queues, close every fd, and exit.
    pub(crate) reactor_exit: AtomicBool,
    /// The reactor has acknowledged `shutdown` (stopped producing jobs).
    /// Workers may only drain once it has quiesced, or a job enqueued late
    /// would be dropped with its reply unsent.
    pub(crate) quiesced: AtomicBool,
    /// Test hook: the reactor panics at its next loop turn.
    #[cfg(test)]
    pub(crate) panic_in_reactor: AtomicBool,
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
    /// is accounted on the service's stats.
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

/// A running PIF-over-TCP front-end for a [`Service`].
///
/// Bind with [`NetServer::bind`], connect with
/// [`NetClient`](crate::NetClient), stop with [`NetServer::shutdown`]
/// (dropping the server also shuts it down). The service is shared:
/// in-process callers and networked clients observe the same knowledge
/// base, statistics, and update stream.
pub struct NetServer {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    workers: Vec<std::thread::JoinHandle<()>>,
    /// The reactor thread; `None` once joined.
    reactor: Option<std::thread::JoinHandle<()>>,
    /// The reactor's mailbox, kept to kick it awake during shutdown.
    kicks: Arc<crate::reactor::KickQueue>,
}

impl NetServer {
    /// Binds `addr` and starts serving `service`.
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
        service: Arc<impl Service>,
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
        let kicks = crate::reactor::KickQueue::new()?;

        let shared = Arc::new(Shared {
            service,
            cfg: cfg.clone(),
            shutdown: AtomicBool::new(false),
            drained: AtomicBool::new(false),
            reactor_exit: AtomicBool::new(false),
            quiesced: AtomicBool::new(false),
            #[cfg(test)]
            panic_in_reactor: AtomicBool::new(false),
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

        let reactor = {
            let kicks = Arc::clone(&kicks);
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("clare-net-reactor".to_owned())
                .spawn(move || crate::reactor::run_reactor(listener, kicks, shared))
                .expect("spawn reactor thread")
        };

        Ok(NetServer {
            shared,
            local_addr,
            workers,
            reactor: Some(reactor),
            kicks,
        })
    }

    /// The bound listening address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
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
        // Intake quiesce: wake the reactor, then wait for it to
        // acknowledge it has stopped turning input into jobs. It keeps
        // running — it still has replies to flush. Only after that may
        // idle workers exit, so nothing queued is dropped on the floor.
        self.kicks.kick();
        while !self.shared.quiesced.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
        self.shared.drained.store(true, Ordering::Release);
        self.shared.queue_cv.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // The workers are gone, so every reply that will ever exist is
        // written or queued: tell the reactor to final-flush and release
        // its fds (connections, listener, epoll, eventfd).
        self.shared.reactor_exit.store(true, Ordering::SeqCst);
        self.kicks.kick();
        if let Some(h) = self.reactor.take() {
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

/// Decodes a burst of frames into jobs — coalescing runs of same-key
/// retrieves — and enqueues them, shedding load when the queue is full.
/// Malformed payloads are answered with error frames; the connection
/// stays up.
pub(crate) fn process_burst(shared: &Arc<Shared>, outbound: &Arc<Outbound>, burst: Vec<Frame>) {
    let mut jobs: Vec<Job> = Vec::new();
    // The key of the last job while a following RETRIEVE may still join
    // it. Any other request, or a ping, ends the run; a request answered
    // with an error frame does not.
    let mut run: Option<CoalescingKey> = None;
    for frame in burst {
        let id = frame.request_id;
        if let op @ Ping::OP..=ReplAck::OP = frame.opcode {
            let m = clare_trace::metrics();
            m.net_frames_in[(op - opcode::PING) as usize].inc();
            m.net_bytes_in.add(frame.payload.len() as u64);
        }
        if frame.opcode == Ping::OP {
            run = None;
            outbound.send(&Frame::new(id, Ping::OP | opcode::REPLY, Vec::new()));
            continue;
        }
        let work = match Work::decode(&frame) {
            Ok(work) => work,
            Err(e) => {
                outbound.send_error(id, &e);
                continue;
            }
        };
        let key = work.coalescing_key();
        let work = match (jobs.last_mut(), work) {
            (
                Some(Job {
                    work:
                        Work::Retrieve {
                            req,
                            answer: Answer::PerMember(ids),
                        },
                    ..
                }),
                Work::Retrieve { req: next, .. },
            ) if key.is_some() && key == run => {
                req.queries.extend(next.queries);
                ids.push(id);
                continue;
            }
            (_, work) => work,
        };
        run = key;
        jobs.push(Job {
            request_id: id,
            work,
            outbound: Arc::clone(outbound),
            accepted: Instant::now(),
        });
    }

    for job in jobs {
        let members = job.ids().len();
        if members > 1 {
            let m = clare_trace::metrics();
            m.net_coalesced_groups.inc();
            m.net_coalesced_members.add(members as u64);
        }
        job.outbound.job_started();
        if let Err(job) = shared.try_enqueue(job) {
            // A refused job: every id it owes gets a `Busy` error frame
            // with the retry hint, and each rejection is counted.
            for _ in 0..job.ids().len() {
                shared.service.note_rejected();
                clare_trace::metrics().net_busy_rejections.inc();
            }
            job.fail(&ErrorReply {
                retry_after_ms: shared.cfg.retry_after_ms,
                ..ErrorReply::new(ErrorCode::Busy, "request queue full")
            });
            job.outbound.job_finished();
        }
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.dequeue() {
        // A panic while serving one request (e.g. on adversarial input)
        // must not take the worker down or leave the client hanging: the
        // affected ids get an Internal error and the pool keeps serving.
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| execute(shared, &job)));
        if outcome.is_err() {
            clare_trace::metrics().net_worker_panics.inc();
            job.fail(&ErrorReply::new(
                ErrorCode::Internal,
                "request processing panicked",
            ));
        }
        job.outbound.job_finished();
    }
}

fn execute(shared: &Arc<Shared>, job: &Job) {
    if let Some(delay) = shared.cfg.debug_worker_delay {
        std::thread::sleep(delay);
    }
    // Worker-side stall fault point (chaos schedules only), keyed by the
    // job's first request id: pins this worker for a bounded delay
    // *before* the queue-expiry check, so a deterministic schedule can
    // force jobs to outlive their deadline in the queue and prove they
    // are shed, not executed.
    if clare_fault::active() {
        if let clare_fault::FaultAction::Delay { micros } =
            clare_fault::decide(clare_fault::FaultSite::WorkerStall, job.request_id)
        {
            std::thread::sleep(Duration::from_micros(micros));
        }
    }
    let (deadline_micros, budget) = job.budget();
    if deadline_micros > 0 && job.accepted.elapsed() > Duration::from_micros(deadline_micros) {
        // The deadline elapsed while the job sat in the queue: shed it
        // without executing — running it would waste a worker on an
        // answer the client has already given up on.
        clare_trace::metrics().budget_expired_in_queue.inc();
        job.fail(&ErrorReply::new(
            ErrorCode::DeadlineExpired,
            "deadline elapsed before execution",
        ));
        return;
    }
    // The end-to-end cancellation token: the deadline is anchored at
    // *arrival* (queue time counts against it), the work ceilings come
    // from the budget extension. Unlimited for no-budget requests —
    // CancelToken::starting_at returns the zero-cost unlimited token.
    let cancel = clare_core::CancelToken::starting_at(
        &clare_core::QueryBudget {
            deadline_micros,
            solve_step_limit: budget.solve_step_limit,
            candidate_limit: budget.candidate_limit,
        },
        job.accepted,
    );
    let mut cx = clare_core::RequestContext::new(cancel);

    let service = &*shared.service;
    let served = match &job.work {
        // One pass. Pipelined members are each answered as if they had
        // been a lone retrieve; identical bytes are guaranteed by the
        // batch-equals-individual property. A failure anywhere fails the
        // whole job — members share one (identical) budget, so none of
        // them would have finished either.
        Work::Retrieve { req, answer } => service
            .retrieve_batch(&req.queries, req.mode, &mut cx)
            .map(|retrievals| match answer {
                Answer::PerMember(ids) => {
                    for (&id, retrieval) in ids.iter().zip(&retrievals) {
                        job.outbound.send(&Frame::new(
                            id,
                            RetrieveReq::OP | opcode::REPLY,
                            encode(retrieval),
                        ));
                    }
                }
                Answer::Batch => job.reply::<RetrieveBatchReq>(&retrievals),
            }),
        Work::Solve(req) => {
            let options = SolveOptions {
                mode: req.mode,
                max_solutions: usize::try_from(req.max_solutions).unwrap_or(usize::MAX),
                max_depth: usize::try_from(req.max_depth).unwrap_or(usize::MAX),
            };
            service
                .solve_goals(&req.goals, &req.var_names, &options, &mut cx)
                .map(|outcome| job.reply::<SolveReq>(&outcome))
        }
        // A successful consult's reply payload is empty.
        Work::Consult(req) => service
            .consult(&req.module, &req.source)
            .map(|()| job.reply::<ConsultReq>(&())),
        Work::Assert(Tagged(req)) => service
            .assert_source(&req.module, &req.source)
            .map(|receipt| job.reply::<AssertReq>(&receipt)),
        Work::Retract(Tagged(req)) => service
            .retract_source(&req.module, &req.source)
            .map(|receipt| job.reply::<RetractReq>(&receipt)),
        Work::Stats { extended } => {
            if shared.cfg.debug_panic_on_stats {
                panic!("debug_panic_on_stats fault injection");
            }
            service.stats().map(|stats| {
                if *extended {
                    job.reply::<MetricsReq>(&(stats, clare_trace::metrics().snapshot()));
                } else {
                    job.reply::<StatsReq>(&stats);
                }
            })
        }
        Work::Symbols => {
            job.reply::<SymbolsReq>(&service.symbols());
            Ok(())
        }
        Work::SubscribeLog(Tagged(from_seq)) => {
            // Catch-up and live pushes both ride the connection's
            // `Outbound` as request-id-0 LOG_FRAMEs; the watcher
            // unregisters itself (returns false) once the connection dies.
            let outbound = Arc::clone(&job.outbound);
            let watcher: clare_core::LogWatcher = Box::new(move |records| {
                for record in records {
                    if outbound.is_dead() {
                        return false;
                    }
                    outbound.send(&Frame::new(0, WalRecord::OP, encode(record)));
                }
                !outbound.is_dead()
            });
            service
                .subscribe_ops(*from_seq, watcher)
                .map(|current| job.reply::<SubscribeLogReq>(&current))
        }
        Work::LogFrame(record) => {
            // Backup-side apply fault point: a chaos schedule can refuse
            // the frame (the router must retry/resend) or stall it.
            if clare_fault::active() {
                match clare_fault::decide(clare_fault::FaultSite::ReplApply, record.seq) {
                    clare_fault::FaultAction::Drop => {
                        job.fail(&ErrorReply {
                            retry_after_ms: 1,
                            ..ErrorReply::new(
                                ErrorCode::Busy,
                                "replication apply refused (injected)",
                            )
                        });
                        return;
                    }
                    clare_fault::FaultAction::Delay { micros } => {
                        std::thread::sleep(Duration::from_micros(micros));
                    }
                    _ => {}
                }
            }
            service
                .apply_replicated(record)
                .map(|applied| job.reply::<WalRecord>(&applied))
        }
        Work::ReplAck(Tagged(seq)) => service.repl_ack(*seq).map(|()| job.reply::<ReplAck>(&())),
    };
    if let Err(e) = served {
        job.fail(&e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clare_core::{ClauseRetrievalServer, CrsOptions};
    use clare_kb::{KbBuilder, KbConfig};

    #[test]
    fn shutdown_completes_after_a_reactor_shard_panics() {
        let kb = KbBuilder::new().finish(KbConfig::default());
        let crs = Arc::new(ClauseRetrievalServer::new(kb, CrsOptions::default()));
        let server = NetServer::bind(crs, "127.0.0.1:0", NetConfig::default()).expect("bind");
        server.shared.panic_in_reactor.store(true, Ordering::SeqCst);
        server.kicks.kick();
        let deadline = Instant::now() + Duration::from_secs(10);
        while !server.reactor.as_ref().is_some_and(|h| h.is_finished()) {
            assert!(
                Instant::now() < deadline,
                "the hook did not stop the reactor"
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
            "shutdown waited forever on a panicked reactor"
        );
        shutdown.join().expect("shutdown thread");
    }
}
