//! The readiness-driven connection layer: one thread, one `poll(2)`
//! table, every connection.
//!
//! The old server pinned a worker thread per in-flight connection, so
//! 1 024 mostly-idle monitors cost 1 024 blocked threads. The reactor
//! replaces that with a single event loop owning every socket
//! non-blocking: a `poll` sweep (see [`crate::poll`]) reports which
//! connections have bytes, which can be flushed, and which hung up, and
//! the loop advances each one a state at a time. Scoring still happens
//! on the bounded worker pool — the reactor packages a SCORE body into a
//! [`Job`], queues it, and a worker pushes the finished job onto the
//! completion list and pokes the wake pipe (the successor of the old
//! self-connect shutdown hack: a socketpair whose read end sits in the
//! poll table, so worker completions and shutdown both wake the loop the
//! same way).
//!
//! Per-connection state machine:
//!
//! - at most one scoring request in flight (`busy`); read interest is
//!   dropped while it runs or while the outbox is above its high water
//!   mark, so a flooding client is throttled by TCP backpressure instead
//!   of unbounded buffering;
//! - a request of at least 2 × [`MIN_PART_ROWS`] rows that arrives while
//!   two or more workers are idle is split into contiguous row ranges,
//!   one job per idle worker; finished parts park on the connection, and
//!   the last one to arrive answers the request with every row in order;
//! - control-plane ops (PING/LOAD/UNLOAD/LIST/SUBSCRIBE/SHUTDOWN) are
//!   handled inline on the reactor thread — LOAD decodes and compiles an
//!   artifact inline, which stalls the loop for the duration; that is an
//!   accepted cost for a rare control operation and keeps the registry
//!   swap trivially ordered before the LOAD response;
//! - responses and pushed alarm frames queue into a per-connection
//!   outbox flushed on writability; `close_after_flush` drains the
//!   outbox before the socket drops.
//!
//! There are no per-connection socket timeouts: bounded buffers, the
//! connection cap, and the slow-consumer disconnect bound every resource
//! a stalled peer can hold, and an idle monitor connection is expected
//! to stay open for days. (No clock is read anywhere in the loop —
//! cfa-audit D002 keeps wall-time out of the serving crate.)
//!
//! Everything reachable from [`Reactor::run`] must stay panic-free:
//! cfa-audit's D006 rule roots here (alongside the workers' `score_job`),
//! which is why this file indexes nothing and unwraps nothing.

use crate::poll::PollSet;
use crate::protocol::{
    put_u32, u32_le, FrameLen, StatsFrame, DEFAULT_MODEL, OP_LIST, OP_LOAD, OP_PING, OP_SCORE,
    OP_SCORE_AS, OP_SHUTDOWN, OP_SUBSCRIBE, OP_UNLOAD, STATUS_BAD_NAME, STATUS_BUSY,
    STATUS_MALFORMED, STATUS_NO_MODEL, STATUS_OK, STATUS_SHUTTING_DOWN, STATUS_TOO_LARGE,
};
use crate::registry::{ModelEntry, RegistryError};
use crate::server::{lock, parse_score_body, reject_busy, Job, ScoreBody, Shared, MIN_PART_ROWS};
use crate::subscribe::SubscriberTable;
use cfa_core::ModelArtifact;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Pending-outbox level above which a connection stops being read (and,
/// for request/response traffic, effectively stops being served) until
/// it drains. Distinct from the subscriber cap, which disconnects.
pub(crate) const OUTBOX_HIGH_WATER: usize = 256 << 10;

/// Poll iterations the post-shutdown drain may take before the reactor
/// gives up on unflushed outboxes and exits anyway.
const MAX_DRAIN_TICKS: u32 = 1_000;

/// Read chunk size per non-blocking `read` call.
const READ_CHUNK: usize = 64 << 10;

/// Inbuf consumed-prefix size that triggers compaction.
const COMPACT_AT: usize = 4 << 10;

/// `slot_map` sentinel for the listener registration.
const SLOT_LISTENER: usize = usize::MAX;
/// `slot_map` sentinel for the wake-pipe registration.
const SLOT_WAKE: usize = usize::MAX - 1;

/// The wake pipe: a local socketpair whose read end lives in the poll
/// table. Workers (and tests) write a byte to wake the loop.
#[cfg(unix)]
pub(crate) type WakeStream = std::os::unix::net::UnixStream;
/// Loopback-TCP stand-in for platforms without `socketpair`.
#[cfg(not(unix))]
pub(crate) type WakeStream = TcpStream;

/// Builds the `(read_end, write_end)` wake pipe, both non-blocking.
pub(crate) fn wake_pair() -> std::io::Result<(WakeStream, WakeStream)> {
    #[cfg(unix)]
    {
        let (rx, tx) = WakeStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        Ok((rx, tx))
    }
    #[cfg(not(unix))]
    {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let tx = TcpStream::connect(listener.local_addr()?)?;
        let (rx, _) = listener.accept()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        Ok((rx, tx))
    }
}

/// Wakes the reactor. A full pipe (`WouldBlock`) already guarantees a
/// pending wake-up, so every outcome is success.
pub(crate) fn wake(tx: &WakeStream) {
    let _ = (&*tx).write(&[1u8]);
}

/// Identifies a connection across its slot's lifetimes: the slot index
/// plus a generation stamp, so a completion for a closed-and-reused slot
/// is recognized as stale and dropped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ConnToken {
    /// Slot index in the reactor's connection table.
    pub idx: u32,
    /// Generation the slot held when the token was minted.
    pub gen: u32,
}

/// Per-connection state owned by the reactor thread.
pub(crate) struct Conn {
    pub stream: TcpStream,
    pub gen: u32,
    /// Raw received bytes; `in_pos` is the parse cursor.
    pub inbuf: Vec<u8>,
    pub in_pos: usize,
    /// Queued response/event bytes; `out_pos` is the flush cursor.
    pub outbox: Vec<u8>,
    pub out_pos: usize,
    /// A scoring request is in flight; reads pause until it is answered.
    pub busy: bool,
    /// Finished parts of the in-flight request, when it was split; the
    /// last part to arrive merges them all.
    pub parked: Vec<Job>,
    /// Drain the outbox, then drop the socket.
    pub close_after_flush: bool,
    /// Model name this connection subscribed to, if any.
    pub subscribed: Option<String>,
}

impl Conn {
    /// Bytes queued but not yet flushed to the socket.
    pub fn pending_out(&self) -> usize {
        self.outbox.len().saturating_sub(self.out_pos)
    }

    /// Queues a complete response payload (status byte first) behind a
    /// length prefix.
    pub fn queue_payload(&mut self, payload: &[u8]) {
        put_u32(&mut self.outbox, payload.len() as u32);
        self.outbox.extend_from_slice(payload);
    }

    /// Queues a bare-status response.
    pub fn queue_status(&mut self, status: u8) {
        put_u32(&mut self.outbox, 1);
        self.outbox.push(status);
    }
}

enum IoStep {
    /// Bytes arrived (`true` = the chunk filled, so more may be pending).
    Progress(bool),
    /// Blocked; come back on the next readiness event.
    Blocked,
    /// Interrupted; retry immediately.
    Retry,
    /// EOF or fatal error; close the connection.
    Gone,
}

/// The event loop: connection table, poll set, subscriber table, and the
/// job round-trip to the worker pool.
pub(crate) struct Reactor {
    listener: TcpListener,
    wake_rx: WakeStream,
    shared: Arc<Shared>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_gen: u32,
    open_conns: usize,
    in_flight: usize,
    subs: SubscriberTable,
    poll: PollSet,
    slot_map: Vec<usize>,
    job_pool: Vec<Job>,
    done_scratch: Vec<Job>,
    /// The jobs of one request between build and enqueue.
    staged: Vec<Job>,
    resp_scratch: Vec<u8>,
    /// Worker threads in the pool, the most parts a request is split into.
    workers: usize,
    max_conns: usize,
    sub_outbox_cap: usize,
    drain_ticks: u32,
}

impl Reactor {
    /// Wires a reactor over an already non-blocking listener.
    pub fn new(
        listener: TcpListener,
        wake_rx: WakeStream,
        shared: Arc<Shared>,
        workers: usize,
        max_conns: usize,
        sub_outbox_cap: usize,
    ) -> Reactor {
        Reactor {
            listener,
            wake_rx,
            shared,
            conns: Vec::new(),
            free: Vec::new(),
            next_gen: 0,
            open_conns: 0,
            in_flight: 0,
            subs: SubscriberTable::default(),
            poll: PollSet::default(),
            slot_map: Vec::new(),
            job_pool: Vec::new(),
            done_scratch: Vec::new(),
            staged: Vec::new(),
            resp_scratch: Vec::new(),
            workers: workers.max(1),
            max_conns: max_conns.max(1),
            sub_outbox_cap: sub_outbox_cap.max(64),
            drain_ticks: 0,
        }
    }

    /// Runs the loop until shutdown completes. This is a cfa-audit D006
    /// panic-reachability root: nothing reachable from here may panic on
    /// network input.
    ///
    /// # Errors
    ///
    /// Returns the underlying OS error if the poll syscall itself fails
    /// fatally.
    pub fn run(mut self) -> std::io::Result<()> {
        loop {
            self.drain_done();
            let shutting = self.shared.shutdown.load(Ordering::SeqCst);
            if shutting {
                let flushed = self.conns.iter().flatten().all(|c| c.pending_out() == 0);
                if (self.in_flight == 0 && flushed) || self.drain_ticks > MAX_DRAIN_TICKS {
                    return Ok(());
                }
                self.drain_ticks += 1;
            }

            self.poll.clear();
            self.slot_map.clear();
            if !shutting {
                self.poll.register(&self.listener, true, false);
                self.slot_map.push(SLOT_LISTENER);
            }
            self.poll.register(&self.wake_rx, true, false);
            self.slot_map.push(SLOT_WAKE);
            for idx in 0..self.conns.len() {
                let Some(Some(conn)) = self.conns.get(idx) else {
                    continue;
                };
                let readable = !shutting
                    && !conn.busy
                    && !conn.close_after_flush
                    && conn.pending_out() <= OUTBOX_HIGH_WATER;
                let writable = conn.pending_out() > 0;
                if readable || writable {
                    self.poll.register(&conn.stream, readable, writable);
                    self.slot_map.push(idx);
                }
            }

            self.poll.wait()?;

            let slot_map = std::mem::take(&mut self.slot_map);
            for (slot, &target) in slot_map.iter().enumerate() {
                let ready = self.poll.readiness(slot);
                match target {
                    SLOT_LISTENER => {
                        if ready.readable {
                            self.accept_ready();
                        }
                    }
                    SLOT_WAKE => {
                        if ready.readable {
                            self.drain_wake();
                        }
                    }
                    idx => {
                        if ready.readable {
                            self.read_conn(idx);
                        }
                        if ready.writable {
                            self.flush_conn(idx);
                        }
                        if ready.closed && !ready.readable && !ready.writable {
                            self.close(idx);
                        }
                    }
                }
            }
            self.slot_map = slot_map;
        }
    }

    /// Accepts until the listener would block.
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => self.admit(stream),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                // Transient accept errors (EMFILE, ECONNABORTED, ...)
                // shed this sweep's backlog; the listener stays armed.
                Err(_) => return,
            }
        }
    }

    /// Installs an accepted socket, or rejects it with a connection-level
    /// BUSY frame when the table is full.
    fn admit(&mut self, stream: TcpStream) {
        if self.shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if self.open_conns >= self.max_conns {
            self.shared
                .counters
                .rejected_busy
                .fetch_add(1, Ordering::Relaxed);
            reject_busy(stream);
            return;
        }
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        // Request/response RPC: Nagle + delayed ACK would add tens of
        // milliseconds to every small frame.
        drop(stream.set_nodelay(true));
        self.shared
            .counters
            .accepted
            .fetch_add(1, Ordering::Relaxed);
        self.next_gen = self.next_gen.wrapping_add(1);
        let conn = Conn {
            stream,
            gen: self.next_gen,
            inbuf: Vec::new(),
            in_pos: 0,
            outbox: Vec::new(),
            out_pos: 0,
            busy: false,
            parked: Vec::new(),
            close_after_flush: false,
            subscribed: None,
        };
        match self.free.pop() {
            Some(idx) => {
                if let Some(slot) = self.conns.get_mut(idx) {
                    *slot = Some(conn);
                }
            }
            None => self.conns.push(Some(conn)),
        }
        self.open_conns += 1;
    }

    /// Empties the wake pipe.
    fn drain_wake(&mut self) {
        let mut buf = [0u8; 256];
        loop {
            match (&self.wake_rx).read(&mut buf) {
                Ok(0) => return,
                Ok(_) => continue,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    /// Drops a connection: slot freed, parked parts recycled,
    /// subscriptions swept, socket closed on drop. A job still in flight
    /// for it will be recognized as stale by its generation stamp and
    /// discarded.
    fn close(&mut self, idx: usize) {
        let Some(slot) = self.conns.get_mut(idx) else {
            return;
        };
        let Some(mut conn) = slot.take() else {
            return;
        };
        for part in conn.parked.drain(..) {
            recycle(&mut self.job_pool, part);
        }
        self.open_conns = self.open_conns.saturating_sub(1);
        if conn.subscribed.is_some() {
            // Slot indices are bounded by `max_conns`, far below u32::MAX.
            let Ok(idx32) = u32::try_from(idx) else {
                return;
            };
            self.subs.drop_conn(ConnToken {
                idx: idx32,
                gen: conn.gen,
            });
        }
        self.free.push(idx);
    }

    fn with_conn<R>(&mut self, idx: usize, f: impl FnOnce(&mut Conn) -> R) -> Option<R> {
        match self.conns.get_mut(idx) {
            Some(Some(c)) => Some(f(c)),
            _ => None,
        }
    }

    /// Reads until the socket would block, parsing frames as they
    /// complete. Reading pauses while a job is in flight or the outbox
    /// is above high water — TCP backpressure does the rest.
    fn read_conn(&mut self, idx: usize) {
        loop {
            let step = {
                let Some(Some(conn)) = self.conns.get_mut(idx) else {
                    return;
                };
                if conn.busy || conn.close_after_flush || conn.pending_out() > OUTBOX_HIGH_WATER {
                    return;
                }
                let old = conn.inbuf.len();
                conn.inbuf.resize(old + READ_CHUNK, 0);
                let outcome = match conn.inbuf.get_mut(old..) {
                    None => IoStep::Blocked,
                    Some(dst) => match conn.stream.read(dst) {
                        Ok(0) => IoStep::Gone,
                        Ok(n) => {
                            conn.inbuf.truncate(old + n);
                            IoStep::Progress(n == READ_CHUNK)
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => IoStep::Blocked,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => IoStep::Retry,
                        Err(_) => IoStep::Gone,
                    },
                };
                if !matches!(outcome, IoStep::Progress(_)) {
                    conn.inbuf.truncate(old);
                }
                outcome
            };
            match step {
                IoStep::Progress(maybe_more) => {
                    self.parse_conn(idx);
                    self.flush_conn(idx);
                    if !maybe_more {
                        return;
                    }
                }
                IoStep::Blocked => return,
                IoStep::Retry => continue,
                IoStep::Gone => {
                    self.close(idx);
                    return;
                }
            }
        }
    }

    /// Extracts complete frames from the inbuf and dispatches each,
    /// stopping when the connection goes busy (one job in flight) or the
    /// buffer runs dry; then compacts the consumed prefix.
    fn parse_conn(&mut self, idx: usize) {
        loop {
            let (start, end) = {
                let Some(Some(conn)) = self.conns.get_mut(idx) else {
                    return;
                };
                if conn.busy || conn.close_after_flush || conn.pending_out() > OUTBOX_HIGH_WATER {
                    break;
                }
                let avail = conn.inbuf.get(conn.in_pos..).unwrap_or(&[]);
                let Some(len4) = avail.get(..4) else {
                    break;
                };
                let mut prefix = [0u8; 4];
                for (dst, src) in prefix.iter_mut().zip(len4) {
                    *dst = *src;
                }
                match FrameLen::parse(prefix) {
                    Err(_) => {
                        // The declared length is absurd; there is nothing
                        // to resync to, so answer and hang up.
                        self.shared
                            .counters
                            .protocol_errors
                            .fetch_add(1, Ordering::Relaxed);
                        conn.queue_status(STATUS_TOO_LARGE);
                        conn.close_after_flush = true;
                        break;
                    }
                    Ok(len) => {
                        let need = 4 + len.get();
                        if avail.len() < need {
                            break;
                        }
                        let start = conn.in_pos + 4;
                        let end = conn.in_pos + need;
                        conn.in_pos = end;
                        (start, end)
                    }
                }
            };
            self.dispatch(idx, start, end);
        }
        if let Some(Some(conn)) = self.conns.get_mut(idx) {
            if conn.in_pos >= conn.inbuf.len() {
                conn.inbuf.clear();
                conn.in_pos = 0;
            } else if conn.in_pos >= COMPACT_AT {
                conn.inbuf.drain(..conn.in_pos);
                conn.in_pos = 0;
            }
        }
    }

    /// Routes one complete frame. The inbuf is temporarily moved out of
    /// the connection so opcode handlers can borrow the reactor freely.
    fn dispatch(&mut self, idx: usize, start: usize, end: usize) {
        // Slot indices are bounded by `max_conns`, far below u32::MAX.
        let Ok(idx32) = u32::try_from(idx) else {
            return;
        };
        let (inbuf, token) = {
            let Some(Some(conn)) = self.conns.get_mut(idx) else {
                return;
            };
            (
                std::mem::take(&mut conn.inbuf),
                ConnToken {
                    idx: idx32,
                    gen: conn.gen,
                },
            )
        };
        let payload = inbuf.get(start..end).unwrap_or(&[]);
        self.handle_frame(idx, token, payload);
        if let Some(Some(conn)) = self.conns.get_mut(idx) {
            conn.inbuf = inbuf;
        }
    }

    fn count_protocol_error(&self) {
        self.shared
            .counters
            .protocol_errors
            .fetch_add(1, Ordering::Relaxed);
    }

    fn count_ok(&self) {
        self.shared
            .counters
            .requests_ok
            .fetch_add(1, Ordering::Relaxed);
    }

    /// One request frame: control-plane ops run inline, SCORE bodies go
    /// to the worker pool.
    fn handle_frame(&mut self, idx: usize, token: ConnToken, payload: &[u8]) {
        let Some((&op, body)) = payload.split_first() else {
            self.count_protocol_error();
            self.with_conn(idx, |c| {
                c.queue_status(STATUS_MALFORMED);
                c.close_after_flush = true;
            });
            return;
        };
        if self.shared.shutdown.load(Ordering::SeqCst) && op != OP_SHUTDOWN {
            self.with_conn(idx, |c| {
                c.queue_status(STATUS_SHUTTING_DOWN);
                c.close_after_flush = true;
            });
            return;
        }
        match op {
            OP_PING if body.is_empty() => {
                // Count first so the frame reflects this request too.
                self.count_ok();
                let stats = self.stats_frame();
                let mut resp = std::mem::take(&mut self.resp_scratch);
                resp.clear();
                resp.push(STATUS_OK);
                stats.encode_into(&mut resp);
                self.with_conn(idx, |c| c.queue_payload(&resp));
                self.resp_scratch = resp;
            }
            OP_SHUTDOWN if body.is_empty() => self.op_shutdown(idx),
            OP_SCORE => self.dispatch_score(idx, token, DEFAULT_MODEL, body),
            OP_SCORE_AS => match crate::protocol::parse_name(body) {
                Some((name, rest)) => self.dispatch_score(idx, token, name, rest),
                None => {
                    self.count_protocol_error();
                    self.with_conn(idx, |c| c.queue_status(STATUS_BAD_NAME));
                }
            },
            OP_LOAD => self.op_load(idx, body),
            OP_UNLOAD => self.op_unload(idx, body),
            OP_LIST if body.is_empty() => {
                self.count_ok();
                let mut resp = std::mem::take(&mut self.resp_scratch);
                resp.clear();
                resp.push(STATUS_OK);
                self.shared.registry.list_into(&mut resp);
                self.with_conn(idx, |c| c.queue_payload(&resp));
                self.resp_scratch = resp;
            }
            OP_SUBSCRIBE => self.op_subscribe(idx, token, body),
            _ => {
                self.count_protocol_error();
                self.with_conn(idx, |c| c.queue_status(STATUS_MALFORMED));
            }
        }
    }

    /// LOAD: decode the artifact from the frame, register (hot-swap)
    /// under the name, answer OK. Runs inline on the reactor thread.
    fn op_load(&mut self, idx: usize, body: &[u8]) {
        let Some((name, rest)) = crate::protocol::parse_name(body) else {
            self.count_protocol_error();
            self.with_conn(idx, |c| c.queue_status(STATUS_BAD_NAME));
            return;
        };
        let mut reader = rest;
        let status = match ModelArtifact::load(&mut reader) {
            Err(_) => STATUS_MALFORMED,
            Ok(_) if !reader.is_empty() => STATUS_MALFORMED,
            Ok(artifact) => match self.shared.registry.insert_artifact(name, artifact) {
                Ok(_) => STATUS_OK,
                Err(RegistryError::BadName) => STATUS_BAD_NAME,
                Err(RegistryError::Full) => STATUS_BUSY,
            },
        };
        match status {
            STATUS_OK => self.count_ok(),
            STATUS_BUSY => {
                self.shared
                    .counters
                    .rejected_busy
                    .fetch_add(1, Ordering::Relaxed);
            }
            _ => self.count_protocol_error(),
        }
        self.with_conn(idx, |c| c.queue_status(status));
    }

    /// UNLOAD: drop the name; in-flight batches finish on their `Arc`.
    fn op_unload(&mut self, idx: usize, body: &[u8]) {
        let Some((name, rest)) = crate::protocol::parse_name(body) else {
            self.count_protocol_error();
            self.with_conn(idx, |c| c.queue_status(STATUS_BAD_NAME));
            return;
        };
        let status = if !rest.is_empty() {
            STATUS_MALFORMED
        } else if self.shared.registry.remove(name) {
            STATUS_OK
        } else {
            STATUS_NO_MODEL
        };
        if status == STATUS_OK {
            self.count_ok();
        } else {
            self.count_protocol_error();
        }
        self.with_conn(idx, |c| c.queue_status(status));
    }

    /// SUBSCRIBE: register the connection against an existing model's
    /// alarm stream. Re-subscribing moves the registration. (A model
    /// UNLOADed later keeps its subscribers; their stream simply goes
    /// quiet until the name is LOADed again.)
    fn op_subscribe(&mut self, idx: usize, token: ConnToken, body: &[u8]) {
        let Some((name, rest)) = crate::protocol::parse_name(body) else {
            self.count_protocol_error();
            self.with_conn(idx, |c| c.queue_status(STATUS_BAD_NAME));
            return;
        };
        if !rest.is_empty() {
            self.count_protocol_error();
            self.with_conn(idx, |c| c.queue_status(STATUS_MALFORMED));
            return;
        }
        if self.shared.registry.get(name).is_none() {
            self.count_protocol_error();
            self.with_conn(idx, |c| c.queue_status(STATUS_NO_MODEL));
            return;
        }
        let previous = self.with_conn(idx, |c| c.subscribed.take()).flatten();
        if let Some(old) = previous {
            self.subs.unsubscribe(&old, token);
        }
        self.subs.subscribe(name, token);
        let owned = name.to_string();
        self.with_conn(idx, |c| c.subscribed = Some(owned));
        self.count_ok();
        self.with_conn(idx, |c| c.queue_status(STATUS_OK));
    }

    /// SHUTDOWN: flag the pool, wake every worker, answer OK on this
    /// connection, and drop every other connection immediately (their
    /// in-flight responses are discarded — shutdown is not graceful
    /// per-client, only per-server: queued jobs still complete so the
    /// workers exit cleanly).
    fn op_shutdown(&mut self, idx: usize) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.job_ready.notify_all();
        self.count_ok();
        self.with_conn(idx, |c| {
            c.queue_status(STATUS_OK);
            c.close_after_flush = true;
        });
        for other in 0..self.conns.len() {
            if other != idx && matches!(self.conns.get(other), Some(Some(_))) {
                self.close(other);
            }
        }
        self.flush_conn(idx);
    }

    /// SCORE / SCORE_AS: resolve the model, cut the body into parts when
    /// workers are idle, admit every part into the bounded job queue or
    /// none (answering BUSY), and mark the connection busy until the
    /// request is answered.
    fn dispatch_score(&mut self, idx: usize, token: ConnToken, name: &str, body: &[u8]) {
        let Some(entry) = self.shared.registry.get(name) else {
            self.count_protocol_error();
            self.with_conn(idx, |c| c.queue_status(STATUS_NO_MODEL));
            return;
        };
        // Queued jobs count as in flight, so parts never push the queue
        // past its cap either.
        let idle = self
            .workers
            .min(self.shared.queue_cap)
            .saturating_sub(self.in_flight);
        let mut staged = std::mem::take(&mut self.staged);
        match parse_score_body(&entry, body) {
            Ok(batch) if idle >= 2 && batch.n_rows / MIN_PART_ROWS >= 2 => {
                let parts = idle.min(batch.n_rows / MIN_PART_ROWS);
                for part in 0..parts {
                    let mut job = self.fresh_job(token, &entry);
                    fill_part(&mut job, &batch, part, parts);
                    staged.push(job);
                }
            }
            // A whole request, or one whose header the worker answers
            // with an error status.
            _ => {
                let mut job = self.fresh_job(token, &entry);
                job.payload.extend_from_slice(body);
                staged.push(job);
            }
        }
        let parts = staged.len();
        let admitted = {
            let mut q = lock(&self.shared.jobs);
            let fits = q.len() + parts <= self.shared.queue_cap;
            if fits {
                q.extend(staged.drain(..));
            }
            fits
        };
        if admitted {
            for _ in 0..parts {
                self.shared.job_ready.notify_one();
            }
            self.in_flight += parts;
            self.with_conn(idx, |c| c.busy = true);
        } else {
            for job in staged.drain(..) {
                recycle(&mut self.job_pool, job);
            }
            self.shared
                .counters
                .rejected_busy
                .fetch_add(1, Ordering::Relaxed);
            self.with_conn(idx, |c| c.queue_status(STATUS_BUSY));
        }
        self.staged = staged;
    }

    /// A pooled job addressed to `token`, scoring against `entry`, as a
    /// whole request with an empty payload.
    fn fresh_job(&mut self, token: ConnToken, entry: &Arc<ModelEntry>) -> Job {
        let mut job = self.job_pool.pop().unwrap_or_default();
        job.conn = token;
        job.entry = Some(Arc::clone(entry));
        job.parts = 1;
        job.first_row = 0;
        job
    }

    /// Harvests completed jobs: a whole request is answered at once, a
    /// part parks on its connection until the request's last part
    /// arrives. Jobs for a closed connection are recycled unanswered.
    fn drain_done(&mut self) {
        {
            let mut done = lock(&self.shared.done);
            std::mem::swap(&mut *done, &mut self.done_scratch);
        }
        while let Some(job) = self.done_scratch.pop() {
            self.in_flight = self.in_flight.saturating_sub(1);
            let token = job.conn;
            let idx = token.idx as usize;
            let Some(Some(conn)) = self.conns.get_mut(idx) else {
                recycle(&mut self.job_pool, job);
                continue;
            };
            if conn.gen != token.gen {
                recycle(&mut self.job_pool, job);
                continue;
            }
            if job.parts <= 1 {
                self.answer(idx, job);
                continue;
            }
            let parts = job.parts as usize;
            conn.parked.push(job);
            if conn.parked.len() < parts {
                continue;
            }
            let merged = merge_parts(&mut conn.parked, &mut self.job_pool);
            if let Some(job) = merged {
                self.shared
                    .counters
                    .split_requests
                    .fetch_add(1, Ordering::Relaxed);
                self.answer(idx, job);
            }
        }
    }

    /// Answers a finished request on its (live) connection: count it,
    /// queue the response, fan its alarms out to subscribers, resume
    /// parsing any pipelined frames, and recycle the job carcass.
    fn answer(&mut self, idx: usize, job: Job) {
        if job.resp.first() == Some(&STATUS_OK) {
            self.count_ok();
        } else {
            self.count_protocol_error();
        }
        if let Some(Some(conn)) = self.conns.get_mut(idx) {
            conn.queue_payload(&job.resp);
            conn.busy = false;
        }
        if !job.alarms.is_empty() {
            if let Some(entry) = job.entry.as_ref() {
                self.subs.fanout_alarms(
                    &entry.name,
                    &job.alarms,
                    &mut self.conns,
                    self.sub_outbox_cap,
                    &self.shared.counters,
                );
            }
            self.close_doomed();
        }
        self.parse_conn(idx);
        self.flush_conn(idx);
        recycle(&mut self.job_pool, job);
    }

    /// Closes subscribers the last fan-out marked as slow consumers.
    fn close_doomed(&mut self) {
        while let Some(token) = self.subs.pop_doomed() {
            let idx = token.idx as usize;
            if matches!(self.conns.get(idx), Some(Some(c)) if c.gen == token.gen) {
                self.shared
                    .counters
                    .slow_disconnects
                    .fetch_add(1, Ordering::Relaxed);
                self.close(idx);
            }
        }
    }

    /// Flushes the outbox until the socket would block; closes the
    /// connection once drained if it is marked `close_after_flush`.
    fn flush_conn(&mut self, idx: usize) {
        loop {
            let step = {
                let Some(Some(conn)) = self.conns.get_mut(idx) else {
                    return;
                };
                if conn.pending_out() == 0 {
                    conn.outbox.clear();
                    conn.out_pos = 0;
                    if conn.close_after_flush {
                        IoStep::Gone
                    } else {
                        IoStep::Blocked
                    }
                } else {
                    let outcome = match conn.outbox.get(conn.out_pos..) {
                        None => IoStep::Blocked,
                        Some(chunk) => match conn.stream.write(chunk) {
                            Ok(0) => IoStep::Gone,
                            Ok(n) => {
                                conn.out_pos += n;
                                IoStep::Progress(true)
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => IoStep::Blocked,
                            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => IoStep::Retry,
                            Err(_) => IoStep::Gone,
                        },
                    };
                    if matches!(outcome, IoStep::Blocked) && conn.out_pos >= OUTBOX_HIGH_WATER {
                        // Keep the flushed prefix from growing without
                        // bound under sustained partial writes.
                        conn.outbox.drain(..conn.out_pos);
                        conn.out_pos = 0;
                    }
                    outcome
                }
            };
            match step {
                IoStep::Progress(_) | IoStep::Retry => continue,
                IoStep::Blocked => return,
                IoStep::Gone => {
                    self.close(idx);
                    return;
                }
            }
        }
    }

    /// Assembles the PING stats frame from the shared counters and the
    /// reactor's live gauges.
    fn stats_frame(&self) -> StatsFrame {
        let c = &self.shared.counters;
        let queue_depth = lock(&self.shared.jobs).len() as u32;
        StatsFrame {
            accepted: c.accepted.load(Ordering::Relaxed),
            rejected_busy: c.rejected_busy.load(Ordering::Relaxed),
            requests_ok: c.requests_ok.load(Ordering::Relaxed),
            protocol_errors: c.protocol_errors.load(Ordering::Relaxed),
            alarms_pushed: c.alarms_pushed.load(Ordering::Relaxed),
            slow_disconnects: c.slow_disconnects.load(Ordering::Relaxed),
            queue_depth,
            models: self.shared.registry.len() as u32,
            subscribers: self.subs.len() as u32,
            open_conns: self.open_conns as u32,
        }
    }
}

/// Fills `job` with part `part` of `parts` of a checked SCORE body: an
/// even, contiguous share of its rows behind their own header.
fn fill_part(job: &mut Job, batch: &ScoreBody<'_>, part: usize, parts: usize) {
    let first = batch.n_rows * part / parts;
    let end = batch.n_rows * (part + 1) / parts;
    let row_bytes = batch.n_cols * 8;
    // Both bounds are at most `n_rows`, which came off the wire as a u32.
    job.parts = parts as u32;
    job.first_row = first as u32;
    job.payload.clear();
    put_u32(&mut job.payload, (end - first) as u32);
    put_u32(&mut job.payload, batch.n_cols as u32);
    job.payload.extend_from_slice(
        batch
            .rows
            .get(first * row_bytes..end * row_bytes)
            .unwrap_or(&[]),
    );
}

/// Merges the finished parts of one split request into the response of
/// the whole: the rows in request order under one header, and every
/// alarm with its part's row offset added, in row order. If a part failed
/// (a validated body never does), the request answers that part's status.
/// Returns the merged job; the other parts go back to `pool`.
fn merge_parts(parked: &mut Vec<Job>, pool: &mut Vec<Job>) -> Option<Job> {
    parked.sort_unstable_by_key(|part| part.first_row);
    let failed = parked
        .iter()
        .map(|part| part.resp.first().copied().unwrap_or(STATUS_MALFORMED))
        .find(|&status| status != STATUS_OK);
    let mut parts = parked.drain(..);
    let mut head = parts.next()?;
    let mut n_rows = u32_le(head.resp.get(1..).unwrap_or(&[])).unwrap_or(0);
    for part in parts {
        n_rows += u32_le(part.resp.get(1..).unwrap_or(&[])).unwrap_or(0);
        head.resp
            .extend_from_slice(part.resp.get(5..).unwrap_or(&[]));
        head.alarms.extend(
            part.alarms
                .iter()
                .map(|&(row, score)| (row + part.first_row, score)),
        );
        recycle(pool, part);
    }
    if let Some(header) = head.resp.get_mut(1..5) {
        header.copy_from_slice(&n_rows.to_le_bytes());
    }
    if let Some(status) = failed {
        head.resp.clear();
        head.resp.push(status);
        head.alarms.clear();
    }
    Some(head)
}

/// Returns a job carcass to the pool, shedding oversized buffers so a
/// one-off 8 MiB LOAD-sized payload does not pin memory forever.
fn recycle(pool: &mut Vec<Job>, mut job: Job) {
    job.entry = None;
    job.conn = ConnToken::default();
    job.payload.clear();
    job.resp.clear();
    job.alarms.clear();
    if job.payload.capacity() > (1 << 20) {
        // audit: allow(D008, reason = "frees a buffer a one-off request grew past 1 MiB; Vec::new does not allocate")
        job.payload = Vec::new();
    }
    if job.resp.capacity() > (1 << 20) {
        // audit: allow(D008, reason = "frees a buffer a one-off request grew past 1 MiB; Vec::new does not allocate")
        job.resp = Vec::new();
    }
    if pool.len() < 64 {
        pool.push(job);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{tests::tiny_artifact, Registry};
    use std::net::SocketAddr;

    /// A reactor serving the three-feature test model as the default,
    /// with no worker threads: the tests play the workers by moving jobs
    /// from the queue to the completion list themselves.
    fn reactor(workers: usize) -> (Reactor, SocketAddr) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        listener
            .set_nonblocking(true)
            .expect("non-blocking listener");
        let addr = listener.local_addr().expect("local addr");
        let registry = Registry::default();
        registry
            .insert_artifact(DEFAULT_MODEL, tiny_artifact(0.25))
            .expect("register the test model");
        let (wake_rx, _) = wake_pair().expect("wake pair");
        let shared = Arc::new(Shared::new(registry, 64));
        (
            Reactor::new(listener, wake_rx, shared, workers, 16, 64),
            addr,
        )
    }

    /// Connects a client and admits it into the table.
    fn admit(r: &mut Reactor, addr: SocketAddr) -> (TcpStream, ConnToken) {
        let client = TcpStream::connect(addr).expect("connect");
        let before = r.open_conns;
        for _ in 0..1000 {
            r.accept_ready();
            if r.open_conns > before {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let idx = r.conns.iter().rposition(Option::is_some).expect("admitted");
        let conn = r.conns[idx].as_ref().expect("admitted");
        let token = ConnToken {
            idx: idx as u32,
            gen: conn.gen,
        };
        (client, token)
    }

    /// A SCORE body of `n_rows` rows of the test model's three features.
    fn score_body(n_rows: usize) -> Vec<u8> {
        let mut body = Vec::new();
        put_u32(&mut body, n_rows as u32);
        put_u32(&mut body, 3);
        for i in 0..n_rows * 3 {
            body.extend_from_slice(&(i as f64).to_le_bytes());
        }
        body
    }

    fn conn(r: &Reactor, token: ConnToken) -> &Conn {
        r.conns[token.idx as usize]
            .as_ref()
            .expect("live connection")
    }

    /// Dispatches one request of `n_rows` on `token`, takes its jobs off
    /// the queue and checks they cover the rows contiguously and in order.
    /// Returns the jobs.
    fn dispatch(r: &mut Reactor, token: ConnToken, n_rows: usize) -> Vec<Job> {
        let body = score_body(n_rows);
        r.dispatch_score(token.idx as usize, token, DEFAULT_MODEL, &body);
        let jobs: Vec<Job> = lock(&r.shared.jobs).drain(..).collect();
        let mut next_row = 0;
        for job in &jobs {
            assert_eq!(job.parts as usize, jobs.len());
            assert_eq!(job.first_row as usize, next_row);
            let rows = u32_le(&job.payload).expect("row count") as usize;
            let start = 8 + next_row * 24;
            assert_eq!(&job.payload[8..], &body[start..start + rows * 24]);
            next_row += rows;
        }
        assert_eq!(next_row, n_rows);
        jobs
    }

    #[test]
    fn requests_split_into_one_part_per_idle_worker_of_at_least_min_part_rows() {
        let (mut r, addr) = reactor(4);
        let (_client, token) = admit(&mut r, addr);
        for (n_rows, in_flight, parts) in [
            (1, 0, 1),
            (2 * MIN_PART_ROWS - 1, 0, 1),
            (2 * MIN_PART_ROWS, 0, 2),
            (3 * MIN_PART_ROWS, 0, 3),
            (253, 0, 4),
            (256, 0, 4),
            (256, 1, 3),
            (256, 2, 2),
            (256, 3, 1),
        ] {
            r.in_flight = in_flight;
            let jobs = dispatch(&mut r, token, n_rows);
            assert_eq!(jobs.len(), parts, "{n_rows} rows, {in_flight} in flight");
            assert_eq!(r.in_flight, in_flight + parts);
            for job in jobs {
                recycle(&mut r.job_pool, job);
            }
            r.conns[token.idx as usize].as_mut().expect("live").busy = false;
        }
        // A body whose header does not match the model goes whole, for
        // the worker to answer with its error status.
        r.in_flight = 0;
        let mut wrong_width = score_body(256);
        wrong_width[4] = 4;
        r.dispatch_score(token.idx as usize, token, DEFAULT_MODEL, &wrong_width);
        let jobs: Vec<Job> = lock(&r.shared.jobs).drain(..).collect();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].payload, wrong_width);
    }

    #[test]
    fn parked_parts_of_a_closed_connection_never_reach_the_next_one_in_its_slot() {
        let (mut r, addr) = reactor(4);
        let (client_a, a) = admit(&mut r, addr);
        let mut parts = dispatch(&mut r, a, 4 * MIN_PART_ROWS).into_iter();
        assert_eq!(r.in_flight, 4);
        // Two parts finish and park; then the connection goes away.
        lock(&r.shared.done).extend(parts.by_ref().take(2));
        r.drain_done();
        assert_eq!(conn(&r, a).parked.len(), 2);
        assert!(conn(&r, a).busy);
        drop(client_a);
        r.close(a.idx as usize);
        assert_eq!(r.job_pool.len(), 2, "parked parts are recycled at close");
        // The next connection takes over the slot; the late parts are stale.
        let (_client_b, b) = admit(&mut r, addr);
        assert_eq!(b.idx, a.idx);
        assert_ne!(b.gen, a.gen);
        lock(&r.shared.done).extend(parts);
        r.drain_done();
        let next = conn(&r, b);
        assert!(next.parked.is_empty());
        assert!(!next.busy);
        assert_eq!(
            next.pending_out(),
            0,
            "nothing is answered on the new connection"
        );
        assert_eq!(r.in_flight, 0);
        assert_eq!(r.job_pool.len(), 4);
        assert_eq!(r.shared.counters.split_requests.load(Ordering::Relaxed), 0);
    }
}
