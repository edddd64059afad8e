//! The open-loop load generator: two connections, two threads.
//!
//! The calling thread owns the producer connection. It sends request
//! groups on a fixed schedule — group `k` is due at `start + k / rate`
//! whether or not earlier groups were answered — and, while it waits for
//! the next due time, reads the producer's replies (`Ack`, `CtrlOk`,
//! `Error`) off the same socket. Each latency is measured from the
//! request's *intended* send time, so a server stall is charged to every
//! request that was due during it, not only to the one in flight (no
//! coordinated omission). How late the sender itself ran is its send lag.
//!
//! A reader thread owns the consumer connection, which subscribes to the
//! merged releases: delivery frames are digested in arrival order and merged
//! windows are timed for freshness. Producers and consumers are different
//! parties, and a separate consumer connection keeps acks from queueing
//! behind release bytes in one TCP stream.

use std::collections::{HashMap, VecDeque};
use std::io::{BufWriter, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pdp_server::frame::fnv1a;
use pdp_server::Frame;

use crate::workload::{Group, Op};

/// A running FNV-1a hash over a sequence of frame bodies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn update(&mut self, body: &[u8]) {
        let mut h = self.0;
        for &b in (body.len() as u32).to_le_bytes().iter().chain(body) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
    }
}

/// How a run paces its groups.
#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// Open loop: group `k` is due `k / per_s` seconds after the start.
    Rate { per_s: f64, groups: u64 },
    /// Saturation: keep `inflight` groups unanswered until `duration` has
    /// passed or `groups` groups were sent.
    InFlight {
        inflight: u64,
        duration: Duration,
        groups: u64,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Push,
    Other,
    Epoch,
    Control(u64),
}

#[derive(Debug)]
struct Pending {
    seq: u64,
    kind: Kind,
    intended: u64,
    ends_group: bool,
}

/// What was observed since the last [`Conn::take`].
#[derive(Debug, Clone, Default)]
pub struct Observed {
    /// Push acks: intended send → `Ack`, nanoseconds.
    pub ack_ns: Vec<f64>,
    /// `BeginEpoch` intended send → `CtrlOk`, nanoseconds.
    pub epoch_ns: Vec<f64>,
    /// Last event of a window intended send → its `DeliverMerged`.
    pub fresh_ns: Vec<f64>,
    /// Typed rejections and control replies with a wrong id.
    pub errors: u64,
}

/// What the sender did during one paced run.
#[derive(Debug, Clone, Default)]
pub struct Sent {
    pub groups: u64,
    pub events: u64,
    /// Actual minus intended send time per group, nanoseconds.
    pub lag_ns: Vec<f64>,
    /// Most groups outstanding when a group was sent.
    pub backlog_max: u64,
    /// Groups outstanding as each group was sent.
    pub backlog: Vec<u64>,
    pub elapsed: Duration,
}

/// The end-of-connection totals.
#[derive(Debug, Clone)]
pub struct Closed {
    pub digest: Digest,
    pub deliveries: u64,
    /// `ShutdownAck.events_ingested`.
    pub events_ingested: u64,
    pub errors: u64,
}

const CLOSED: &str = "server closed the connection";

fn io_err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

fn u64_at(body: &[u8], at: usize) -> Option<u64> {
    Some(u64::from_le_bytes(body.get(at..at + 8)?.try_into().ok()?))
}

/// Frames read off one socket; a read may stop anywhere in a frame.
struct Frames {
    stream: TcpStream,
    buf: Vec<u8>,
    at: usize,
}

impl Frames {
    fn new(stream: TcpStream) -> Frames {
        Frames {
            stream,
            buf: Vec::with_capacity(1 << 17),
            at: 0,
        }
    }

    /// One read, waiting at most `timeout` (`None`: until data arrives).
    /// `Ok(false)` when the wait timed out.
    fn fill(&mut self, timeout: Option<Duration>) -> Result<bool, String> {
        if self.at > 0 && self.at * 2 >= self.buf.len() {
            self.buf.drain(..self.at);
            self.at = 0;
        }
        if let Some(timeout) = timeout {
            if !readable(&self.stream, timeout).map_err(io_err("poll"))? {
                return Ok(false);
            }
        }
        let len = self.buf.len();
        self.buf.resize(len + (1 << 16), 0);
        let read = self.stream.read(&mut self.buf[len..]);
        self.buf.truncate(len + read.as_ref().map_or(0, |&n| n));
        match read {
            Ok(0) => Err(CLOSED.to_owned()),
            Ok(_) => Ok(true),
            Err(e) if e.kind() == ErrorKind::Interrupted => Ok(false),
            Err(e) => Err(format!("read: {e}")),
        }
    }

    /// The body of the next complete frame, its checksum verified.
    fn next(&mut self) -> Result<Option<&[u8]>, String> {
        let rest = &self.buf[self.at..];
        let Some(len) = rest.get(..4) else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(len.try_into().expect("4 bytes")) as usize;
        if rest.len() < 4 + len + 8 {
            return Ok(None);
        }
        let body = &rest[4..4 + len];
        if u64_at(rest, 4 + len) != Some(fnv1a(body)) || body.len() < 2 {
            return Err("corrupt frame from server".to_owned());
        }
        let start = self.at + 4;
        self.at += 4 + len + 8;
        Ok(Some(&self.buf[start..start + len]))
    }

    /// Wait for one whole frame and decode it (handshake replies).
    fn frame(&mut self) -> Result<Frame, String> {
        loop {
            if let Some(body) = self.next()? {
                return Frame::decode_body(body).map_err(|e| e.to_string());
            }
            self.fill(None)?;
        }
    }
}

/// `struct pollfd` of `poll(2)`.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

/// `struct timespec`.
#[repr(C)]
struct TimeSpec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const TimeSpec, sigmask: *const u8) -> i32;
}

/// Wait until `stream` has bytes to read or `timeout` passed. The sender
/// paces groups with sub-millisecond gaps, finer than the socket read
/// timeout (kept in scheduler ticks) can wait, so it waits in `ppoll`.
fn readable(stream: &TcpStream, timeout: Duration) -> std::io::Result<bool> {
    use std::os::fd::AsRawFd;
    const POLLIN: i16 = 0x001;
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = TimeSpec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` and `ts` are live, properly laid out (`repr(C)`, Linux
    // x86-64/aarch64 field types) for the duration of the call; one
    // descriptor is passed, and a null signal mask leaves it unchanged.
    let ready = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    match ready {
        0 => Ok(false),
        n if n > 0 => Ok(true),
        _ => {
            let e = std::io::Error::last_os_error();
            if e.kind() == ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(e)
            }
        }
    }
}

/// The consumer side, shared with the consumer thread.
#[derive(Default)]
struct Consumer {
    /// Window index → intended send time of the last batch touching it.
    window_last: HashMap<u64, u64>,
    fresh_ns: Vec<f64>,
    digest: Digest,
    deliveries: u64,
    failure: Option<String>,
}

struct Shared {
    consumer: Mutex<Consumer>,
    start: Instant,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Consumer> {
        self.consumer
            .lock()
            .expect("the consumer thread panicked holding its state")
    }

    fn now(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }
}

/// Connect and complete the `Hello` handshake.
fn hello(addr: SocketAddr, name: &str) -> Result<(TcpStream, Frames), String> {
    let stream = TcpStream::connect(addr).map_err(io_err("connect"))?;
    stream.set_nodelay(true).map_err(io_err("nodelay"))?;
    let mut frames = Frames::new(stream.try_clone().map_err(io_err("clone"))?);
    let mut write = stream;
    let hello = Frame::Hello {
        client: name.to_owned(),
    };
    write.write_all(&hello.encode()).map_err(io_err("hello"))?;
    match frames.frame()? {
        Frame::HelloAck { .. } => Ok((write, frames)),
        other => Err(format!("handshake failed: {other:?}")),
    }
}

/// One generator: a producer connection and, when subscribed, a consumer
/// connection.
pub struct Conn {
    writer: BufWriter<TcpStream>,
    replies: Frames,
    shared: Arc<Shared>,
    consumer: Option<(TcpStream, JoinHandle<()>)>,
    pending: VecDeque<Pending>,
    observed: Observed,
    acked_groups: u64,
    shutdown_events: Option<u64>,
    next_seq: u64,
    sent_groups: u64,
    events_sent: u64,
}

impl Conn {
    /// Connect the producer and, if `merged`, a consumer subscribed to
    /// merged releases.
    pub fn connect(addr: SocketAddr, merged: bool) -> Result<Conn, String> {
        let shared = Arc::new(Shared {
            consumer: Mutex::new(Consumer::default()),
            start: Instant::now(),
        });
        let consumer = if !merged {
            None
        } else {
            let (mut write, mut frames) = hello(addr, "perfbench-consumer")?;
            let sub = Frame::Subscribe {
                shard_releases: false,
                answers: false,
                merged: true,
            };
            // the server applies one connection's frames in order: once
            // the health reply is back, the subscription is in force for
            // every request the producer sends afterwards
            write
                .write_all(&sub.encode())
                .map_err(io_err("subscribe"))?;
            write
                .write_all(&Frame::Health.encode())
                .map_err(io_err("subscribe"))?;
            match frames.frame()? {
                Frame::HealthInfo { .. } => {}
                other => return Err(format!("subscription not confirmed: {other:?}")),
            }
            let reader = {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name("perfbench-consumer".to_owned())
                    .spawn(move || consume(frames, &shared))
                    .map_err(io_err("spawn consumer"))?
            };
            Some((write, reader))
        };
        let (write, replies) = hello(addr, "perfbench-producer")?;
        Ok(Conn {
            writer: BufWriter::with_capacity(1 << 16, write),
            replies,
            shared,
            consumer,
            pending: VecDeque::new(),
            observed: Observed::default(),
            acked_groups: 0,
            shutdown_events: None,
            next_seq: 1,
            sent_groups: 0,
            events_sent: 0,
        })
    }

    /// Read producer replies, waiting at most until `deadline`
    /// (nanoseconds on the generator clock; `None`: until one arrives).
    fn pump(&mut self, deadline: Option<u64>) -> Result<(), String> {
        let timeout = match deadline {
            Some(d) => match d.checked_sub(self.shared.now()) {
                Some(left) if left > 0 => Some(Duration::from_nanos(left)),
                _ => return Ok(()),
            },
            None => None,
        };
        if !self.replies.fill(timeout)? {
            return Ok(());
        }
        let now = self.shared.now();
        while let Some(body) = self.replies.next()? {
            let kind = body[1];
            let seq = match kind {
                0x82 | 0x89 => u64_at(body, 2).unwrap_or(0),
                0x83 => match Frame::decode_body(body) {
                    Ok(Frame::Error {
                        seq: Some(seq),
                        code,
                        message,
                    }) => {
                        eprintln!("perfbench: server rejected seq {seq}: {code:?} {message}");
                        seq
                    }
                    other => return Err(format!("unsequenced error from server: {other:?}")),
                },
                0x88 => {
                    self.shutdown_events = u64_at(body, 2);
                    continue;
                }
                other => {
                    return Err(format!(
                        "unexpected frame kind {other:#x} on the producer connection"
                    ))
                }
            };
            let id = u64_at(body, 10);
            let p = self
                .pending
                .pop_front()
                .ok_or_else(|| format!("reply to seq {seq} with nothing pending"))?;
            if p.seq != seq {
                return Err(format!("reply to seq {seq}, expected {}", p.seq));
            }
            let latency = now.saturating_sub(p.intended) as f64;
            match (kind, p.kind) {
                (0x83, _) => self.observed.errors += 1,
                (_, Kind::Push) => self.observed.ack_ns.push(latency),
                (_, Kind::Epoch) => self.observed.epoch_ns.push(latency),
                (_, Kind::Control(expected)) if id != Some(expected) => {
                    eprintln!("perfbench: control seq {seq} answered a wrong id");
                    self.observed.errors += 1;
                }
                _ => {}
            }
            if p.ends_group {
                self.acked_groups += 1;
            }
        }
        Ok(())
    }

    fn check_consumer(&self) -> Result<(), String> {
        match &self.shared.lock().failure {
            Some(f) => Err(format!("consumer connection: {f}")),
            None => Ok(()),
        }
    }

    /// Write one group's frames, all due at `intended`.
    fn send_group(&mut self, group: Group, intended: u64) -> Result<(), String> {
        if group.events > 0 {
            let mut consumer = self.shared.lock();
            for w in group.windows.0..=group.windows.1 {
                consumer.window_last.insert(w, intended);
            }
        }
        let n = group.ops.len();
        for (i, op) in group.ops.into_iter().enumerate() {
            let seq = self.next_seq;
            self.next_seq += 1;
            let kind = match &op {
                Op::Push(batch) => {
                    self.events_sent += batch.len() as u64;
                    Kind::Push
                }
                Op::BeginEpoch => Kind::Epoch,
                Op::Control(_, id) => Kind::Control(*id),
                Op::Watermark(_) | Op::Checkpoint => Kind::Other,
            };
            self.pending.push_back(Pending {
                seq,
                kind,
                intended,
                ends_group: i + 1 == n,
            });
            self.writer
                .write_all(&into_frame(op, seq).encode())
                .map_err(io_err("send"))?;
        }
        self.writer.flush().map_err(io_err("send"))?;
        self.sent_groups += 1;
        Ok(())
    }

    /// Send groups from `next` on the schedule `pace` describes, then wait
    /// for every reply.
    pub fn run(&mut self, next: &mut dyn FnMut() -> Group, pace: Pace) -> Result<Sent, String> {
        let mut sent = Sent::default();
        let begin = Instant::now();
        let base = self.shared.now();
        let events_before = self.events_sent;
        let mut k = 0u64;
        loop {
            let intended = match pace {
                Pace::Rate { per_s, groups } => {
                    if k >= groups {
                        break;
                    }
                    let due = base + (k as f64 * 1e9 / per_s) as u64;
                    while self.shared.now() < due {
                        self.pump(Some(due))?;
                    }
                    due
                }
                Pace::InFlight {
                    inflight,
                    duration,
                    groups,
                } => {
                    if k >= groups || begin.elapsed() >= duration {
                        break;
                    }
                    while self.sent_groups - self.acked_groups >= inflight {
                        self.pump(None)?;
                    }
                    self.shared.now()
                }
            };
            self.check_consumer()?;
            let backlog = self.sent_groups - self.acked_groups;
            sent.backlog_max = sent.backlog_max.max(backlog);
            sent.backlog.push(backlog);
            sent.lag_ns
                .push(self.shared.now().saturating_sub(intended) as f64);
            self.send_group(next(), intended)?;
            k += 1;
        }
        sent.groups = k;
        sent.events = self.events_sent - events_before;
        self.drain()?;
        sent.elapsed = begin.elapsed();
        Ok(sent)
    }

    /// Send `ops` one at a time, each after the previous one's reply.
    pub fn one_by_one(&mut self, ops: Vec<Op>) -> Result<(), String> {
        for op in ops {
            let group = Group {
                ops: vec![op],
                events: 0,
                windows: (1, 0),
            };
            let now = self.shared.now();
            self.send_group(group, now)?;
            self.drain()?;
        }
        Ok(())
    }

    /// Wait until every request sent so far has its reply.
    pub fn drain(&mut self) -> Result<(), String> {
        while !self.pending.is_empty() {
            self.pump(None)?;
        }
        Ok(())
    }

    /// Take what was observed so far.
    pub fn take(&mut self) -> Observed {
        let mut observed = std::mem::take(&mut self.observed);
        observed.fresh_ns = std::mem::take(&mut self.shared.lock().fresh_ns);
        observed
    }

    /// Events sent over the connection's lifetime.
    pub fn events_sent(&self) -> u64 {
        self.events_sent
    }

    /// Sequenced requests sent over the connection's lifetime.
    pub fn requests_sent(&self) -> u64 {
        self.next_seq - 1
    }

    /// Shut the server down and collect the totals.
    pub fn shutdown(mut self) -> Result<Closed, String> {
        self.drain()?;
        self.writer
            .write_all(&Frame::Shutdown.encode())
            .and_then(|()| self.writer.flush())
            .map_err(io_err("shutdown"))?;
        while self.shutdown_events.is_none() {
            self.pump(None)?;
        }
        // the server closes every connection once its writers have
        // flushed, which ends the consumer thread
        if let Some((_, reader)) = self.consumer.take() {
            reader
                .join()
                .map_err(|_| "consumer thread panicked".to_owned())?;
        }
        let consumer = self.shared.lock();
        if let Some(f) = &consumer.failure {
            return Err(format!("consumer connection: {f}"));
        }
        Ok(Closed {
            digest: consumer.digest,
            deliveries: consumer.deliveries,
            events_ingested: self.shutdown_events.expect("checked above"),
            errors: self.observed.errors,
        })
    }
}

impl Drop for Conn {
    fn drop(&mut self) {
        if let Some((stream, reader)) = self.consumer.take() {
            // unblock the consumer thread if the server is still up
            let _ = stream.shutdown(Shutdown::Both);
            let _ = reader.join();
        }
    }
}

/// The frame an op becomes under sequence number `seq`.
pub fn into_frame(op: Op, seq: u64) -> Frame {
    match op {
        Op::Push(events) => Frame::PushBatch { seq, events },
        other => other.frame(seq),
    }
}

/// The consumer thread: digest every delivery, time merged windows.
fn consume(mut frames: Frames, shared: &Shared) {
    loop {
        if let Err(e) = frames.fill(None) {
            // a close right after a whole frame is the end of the stream
            if frames.at < frames.buf.len() || e != CLOSED {
                shared.lock().failure.get_or_insert(e);
            }
            return;
        }
        let now = shared.now();
        let mut consumer = shared.lock();
        loop {
            let body = match frames.next() {
                Ok(Some(body)) => body,
                Ok(None) => break,
                Err(e) => {
                    consumer.failure.get_or_insert(e);
                    return;
                }
            };
            // only merged releases (0x86) are subscribed
            if body[1] != 0x86 {
                let kind = body[1];
                consumer.failure.get_or_insert(format!(
                    "unexpected frame kind {kind:#x} on the consumer connection"
                ));
                return;
            }
            consumer.digest.update(body);
            consumer.deliveries += 1;
            if let Some(at) = u64_at(body, 2).and_then(|w| consumer.window_last.remove(&w)) {
                consumer.fresh_ns.push(now.saturating_sub(at) as f64);
            }
        }
    }
}
