//! The wire layer: bounded line framing, the poll(2)-driven event loop
//! that fronts every connection, and the one client: [`Client`] (one
//! socket, read through the same [`LineFramer`] as the server, one
//! connect-with-deadline), the [`Backoff`] it and the degraded-mode probe
//! share, its one retry rule [`Retry`], and the one-shot [`request`].
//!
//! One I/O thread owns every socket. Requests are framed by
//! [`LineFramer`] (1 MiB cap with drain-to-newline resync), screening
//! verbs are handed to the worker pool tagged with the connection id,
//! catalog mutations, STATUS and SHUTDOWN are answered inline by
//! [`ServiceState::handle`](super::ServiceState::handle) under the state
//! lock, and completions plus subscription pushes come back through the
//! [`IoHub`](super::handlers::IoHub) queue, woken via a pipe. Responses
//! may complete out of order across pipelined worker-pool verbs — the
//! `req_id` echo is the correlation key.
//!
//! Every inline answer is counted in METRICS by `handle_frame`, as it is
//! queued for its connection (METRICS itself just before it is answered,
//! so its payload includes it); a worker's answer is counted by the
//! worker. Lines that do not parse as a request are not counted.
//!
//! Backpressure is a bounded write buffer: push events are shed once a
//! connection's buffer crosses the high-water mark, and a consumer so
//! slow that even responses would exceed the mark plus two max-size
//! lines is disconnected outright.

use super::handlers::{enqueue_screen, Enqueued, IoMsg, Shared};
use super::poll::{poll_fds, PollFd, POLLIN, POLLOUT};
use super::MAX_LINE_BYTES;
use crate::proto::{Envelope, PushEvent, Request, Response};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// How long a shutdown drains in-flight jobs and unflushed buffers
/// before the loop exits regardless.
const SHUTDOWN_DRAIN: Duration = Duration::from_secs(2);

/// A framed unit from the inbound byte stream.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Frame {
    Line(Vec<u8>),
    /// A line crossed the cap; one error is owed and the stream resyncs
    /// at the next newline.
    Oversized,
}

/// Incremental newline framer, fed whatever each read returned, for the
/// server's nonblocking sockets and [`Client`]'s blocking one alike: a
/// line over the cap is reported once, as soon as it crosses the cap, and
/// everything up to its newline is discarded, so the stream resyncs at
/// the next line.
pub(crate) struct LineFramer {
    buf: Vec<u8>,
    max: usize,
    resync: bool,
}

impl LineFramer {
    pub(crate) fn new(max: usize) -> LineFramer {
        LineFramer {
            buf: Vec::new(),
            max,
            resync: false,
        }
    }

    /// Feed freshly read bytes; complete frames append to `frames`.
    pub(crate) fn feed(&mut self, mut data: &[u8], frames: &mut Vec<Frame>) {
        while !data.is_empty() {
            match data.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    if self.resync {
                        self.resync = false;
                    } else {
                        self.buf.extend_from_slice(&data[..pos]);
                        if self.buf.len() > self.max {
                            frames.push(Frame::Oversized);
                            self.buf.clear();
                        } else {
                            frames.push(Frame::Line(std::mem::take(&mut self.buf)));
                        }
                    }
                    data = &data[pos + 1..];
                }
                None => {
                    if !self.resync {
                        self.buf.extend_from_slice(data);
                        if self.buf.len() > self.max {
                            frames.push(Frame::Oversized);
                            self.buf.clear();
                            self.resync = true;
                        }
                    }
                    data = &[];
                }
            }
        }
    }
}

/// Outbound byte queue for one connection: appended lines, a cursor for
/// partial nonblocking writes, and a high-water peak for the metrics
/// histogram.
pub(crate) struct WriteQueue {
    buf: Vec<u8>,
    start: usize,
    peak: usize,
}

impl WriteQueue {
    pub(crate) fn new() -> WriteQueue {
        WriteQueue {
            buf: Vec::new(),
            start: 0,
            peak: 0,
        }
    }

    pub(crate) fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Largest backlog this queue ever held, in bytes.
    pub(crate) fn peak(&self) -> usize {
        self.peak
    }

    pub(crate) fn push_line(&mut self, line: &str) {
        self.buf.extend_from_slice(line.as_bytes());
        self.buf.push(b'\n');
        self.peak = self.peak.max(self.pending());
    }

    /// Write as much as the sink takes right now. `Ok(true)` means the
    /// queue drained; `Ok(false)` means the sink would block.
    pub(crate) fn flush<W: Write>(&mut self, sink: &mut W) -> io::Result<bool> {
        while self.start < self.buf.len() {
            match sink.write(&self.buf[self.start..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.start += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    // Reclaim the consumed prefix once it dominates.
                    if self.start >= 4096 && self.start * 2 >= self.buf.len() {
                        self.buf.drain(..self.start);
                        self.start = 0;
                    }
                    return Ok(false);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.buf.clear();
        self.start = 0;
        Ok(true)
    }
}

/// Per-connection state owned by the event loop.
struct Conn {
    stream: TcpStream,
    framer: LineFramer,
    out: WriteQueue,
    /// Worker-pool jobs whose responses are still owed to this client.
    inflight: usize,
    /// Client half-closed its write side; finish flushing, then close.
    eof: bool,
    /// Fatal: drop the connection without further flushing.
    dead: bool,
    last_read: Instant,
}

impl Conn {
    fn new(stream: TcpStream, max_line_bytes: usize) -> Conn {
        Conn {
            stream,
            framer: LineFramer::new(max_line_bytes),
            out: WriteQueue::new(),
            inflight: 0,
            eof: false,
            dead: false,
            last_read: Instant::now(),
        }
    }
}

/// The single-threaded event loop behind [`Server::run`](super::Server::run):
/// nonblocking accept, per-connection framing and dispatch, worker
/// completions and subscription pushes via the wake pipe, and a bounded
/// drain once the shutdown flag is raised.
pub(crate) fn event_loop(listener: &TcpListener, wake_rx: &UnixStream, shared: &Shared) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    let _ = wake_rx.set_nonblocking(true);
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut order: Vec<u64> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    let mut scratch = vec![0u8; 16 * 1024];
    let mut next_id: u64 = 1;
    let mut drain_until: Option<Instant> = None;

    loop {
        let accepting = drain_until.is_none();
        fds.clear();
        order.clear();
        fds.push(PollFd::new(wake_rx.as_raw_fd(), POLLIN));
        if accepting {
            fds.push(PollFd::new(listener.as_raw_fd(), POLLIN));
        }
        let base = fds.len();
        for (&id, conn) in &conns {
            let mut events = 0i16;
            if accepting && !conn.eof && !conn.dead {
                events |= POLLIN;
            }
            if !conn.dead && conn.out.pending() > 0 {
                events |= POLLOUT;
            }
            fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
            order.push(id);
        }

        // Ticks are only needed for idle reaping and the drain deadline;
        // everything else arrives through the wake pipe or a socket.
        let timeout_ms = if drain_until.is_some() {
            50
        } else if shared.read_timeout.is_some() {
            250
        } else {
            60_000
        };
        if let Err(err) = poll_fds(&mut fds, timeout_ms) {
            eprintln!("kessler-service: poll failed: {err}");
            std::thread::sleep(Duration::from_millis(50));
        }

        if fds[0].readable() {
            drain_wake(wake_rx);
        }
        if accepting && fds[1].readable() {
            accept_new(listener, shared, &mut conns, &mut next_id);
        }
        for (i, &id) in order.iter().enumerate() {
            if !fds[base + i].readable() {
                continue;
            }
            let Some(conn) = conns.get_mut(&id) else {
                continue;
            };
            if accepting && !conn.eof && !conn.dead {
                service_reads(shared, id, conn, &mut scratch);
            }
        }

        route_io(shared, &mut conns);

        // Opportunistic flush: nonblocking writes usually complete
        // immediately; POLLOUT above only gates the wakeup.
        for conn in conns.values_mut() {
            if !conn.dead && conn.out.pending() > 0 && conn.out.flush(&mut conn.stream).is_err() {
                conn.dead = true;
            }
        }

        if drain_until.is_none() && shared.shutdown.load(Ordering::SeqCst) {
            drain_until = Some(Instant::now() + SHUTDOWN_DRAIN);
        }

        let now = Instant::now();
        let mut doomed: Vec<u64> = Vec::new();
        for (&id, conn) in &conns {
            let drained = conn.out.pending() == 0 && conn.inflight == 0;
            if conn.dead || (conn.eof && drained) {
                doomed.push(id);
            } else if let Some(idle) = shared.read_timeout {
                // Subscribers legitimately sit idle waiting for pushes;
                // everyone else gets reaped like the blocking server did.
                if drain_until.is_none()
                    && drained
                    && now.duration_since(conn.last_read) > idle
                    && !shared.subs.has_subs(id)
                {
                    doomed.push(id);
                }
            }
        }
        for id in doomed {
            close_conn(shared, &mut conns, id);
        }

        if let Some(deadline) = drain_until {
            let busy = conns
                .values()
                .any(|c| !c.dead && (c.out.pending() > 0 || c.inflight > 0));
            if !busy || now >= deadline {
                break;
            }
        }
    }

    let remaining: Vec<u64> = conns.keys().copied().collect();
    for id in remaining {
        close_conn(shared, &mut conns, id);
    }
}

fn drain_wake(wake_rx: &UnixStream) {
    let mut sink = [0u8; 256];
    let mut reader: &UnixStream = wake_rx;
    while matches!(reader.read(&mut sink), Ok(n) if n > 0) {}
}

fn accept_new(
    listener: &TcpListener,
    shared: &Shared,
    conns: &mut HashMap<u64, Conn>,
    next_id: &mut u64,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let id = *next_id;
                *next_id += 1;
                conns.insert(id, Conn::new(stream, shared.max_line_bytes));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
}

/// Read everything the socket has, frame it, and dispatch the frames.
fn service_reads(shared: &Shared, id: u64, conn: &mut Conn, scratch: &mut [u8]) {
    let mut frames: Vec<Frame> = Vec::new();
    loop {
        match conn.stream.read(scratch) {
            Ok(0) => {
                conn.eof = true;
                break;
            }
            Ok(n) => {
                conn.last_read = Instant::now();
                conn.framer.feed(&scratch[..n], &mut frames);
                if n < scratch.len() {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
    for frame in frames {
        // Once shutdown is requested, later-pipelined requests are not
        // started; their connection closes after the drain.
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        handle_frame(shared, id, conn, frame);
        if conn.dead {
            break;
        }
    }
}

fn handle_frame(shared: &Shared, id: u64, conn: &mut Conn, frame: Frame) {
    let response = match frame {
        Frame::Oversized => Response::error(format!(
            "request line exceeds the {}-byte cap",
            shared.max_line_bytes
        )),
        Frame::Line(bytes) => {
            // Strict UTF-8: lossy U+FFFD replacement could silently turn a
            // string field (satellite name, req_id) into a different value
            // that still parses and gets applied.
            let Ok(text) = std::str::from_utf8(&bytes) else {
                queue_response(
                    shared,
                    conn,
                    &Response::error("bad request: request line is not valid UTF-8"),
                );
                return;
            };
            let line = text.trim();
            if line.is_empty() {
                return;
            }
            match serde_json::from_str::<Envelope>(line) {
                Err(e) => Response::error(format!("bad request: {e}")),
                Ok(Envelope { req_id, request }) => {
                    let verb = request.kind();
                    let counted_early = matches!(request, Request::Metrics);
                    let mut response = match request {
                        req @ (Request::Screen | Request::Delta | Request::Advance { .. }) => {
                            // Screening runs on the worker pool against an
                            // enqueue-time snapshot; the response comes back
                            // through the io queue, possibly out of order.
                            match enqueue_screen(shared, req, req_id.clone(), id) {
                                Enqueued::Queued => {
                                    conn.inflight += 1;
                                    return;
                                }
                                Enqueued::Done(resp) => *resp,
                            }
                        }
                        Request::Cancel { id: job } => {
                            if shared.registry.cancel(&job) {
                                Response::ack()
                            } else {
                                Response::error(format!(
                                    "no queued or running job with req_id \"{job}\""
                                ))
                            }
                        }
                        Request::Subscribe { assets, all } => {
                            match shared.subs.subscribe(id, req_id.as_deref(), &assets, all) {
                                Ok(ack) => Response::with_subscription(ack),
                                Err(e) => Response::error(e),
                            }
                        }
                        Request::Unsubscribe { sub_id } => {
                            match shared.subs.unsubscribe(id, sub_id.as_deref()) {
                                Ok(ack) => Response::with_subscription(ack),
                                Err(e) => Response::error(e),
                            }
                        }
                        Request::Metrics => {
                            // Never touches the state lock or the WAL, and
                            // is counted before it is answered, so its own
                            // payload includes it. The subscriber gauge is
                            // read first: subs sits before metrics in the
                            // lock order.
                            let subscribers = shared.subs.active();
                            let mut metrics = shared.metrics.lock();
                            metrics.count_request(verb, true);
                            let mut snapshot = metrics.snapshot();
                            snapshot.subscribers = subscribers;
                            Response::with_metrics(snapshot)
                        }
                        req => {
                            if matches!(req, Request::Shutdown) {
                                shared.shutdown.store(true, Ordering::SeqCst);
                            }
                            shared.state.lock().handle(&req)
                        }
                    };
                    if !counted_early {
                        shared.metrics.lock().count_request(verb, response.ok);
                    }
                    response.req_id = req_id;
                    response
                }
            }
        }
    };
    queue_response(shared, conn, &response);
}

fn queue_response(shared: &Shared, conn: &mut Conn, response: &Response) {
    let line = serde_json::to_string(response)
        .unwrap_or_else(|_| r#"{"ok":false,"error":"response serialization failed"}"#.to_string());
    queue_response_line(shared, conn, &line);
}

/// Responses always queue — unless the consumer is so far behind that the
/// buffer would cross the high-water mark plus two max-size lines, at
/// which point it is disconnected as unrecoverable.
fn queue_response_line(shared: &Shared, conn: &mut Conn, line: &str) {
    let hard_cap = shared.write_highwater + 2 * shared.max_line_bytes;
    if conn.out.pending() + line.len() + 1 > hard_cap {
        shared.metrics.lock().served.slow_consumer_disconnects += 1;
        conn.dead = true;
        return;
    }
    conn.out.push_line(line);
}

/// Deliver worker completions and subscription pushes queued by other
/// threads. Push events are best-effort: past the high-water mark (or to
/// a vanished connection) they are shed and counted, never buffered
/// without bound.
fn route_io(shared: &Shared, conns: &mut HashMap<u64, Conn>) {
    let msgs = shared.io.drain();
    if msgs.is_empty() {
        return;
    }
    let mut pushed = 0u64;
    let mut dropped = 0u64;
    for msg in msgs {
        match msg {
            IoMsg::Respond { conn: id, line } => {
                let Some(conn) = conns.get_mut(&id) else {
                    continue;
                };
                conn.inflight = conn.inflight.saturating_sub(1);
                if !conn.dead {
                    queue_response_line(shared, conn, &line);
                }
            }
            IoMsg::Push { conn: id, line } => {
                match conns.get_mut(&id) {
                    Some(conn)
                        if !conn.dead
                            // +1 for the newline the push line will carry.
                            && conn.out.pending() + line.len() < shared.write_highwater =>
                    {
                        conn.out.push_line(&line);
                        pushed += 1;
                    }
                    _ => dropped += 1,
                }
            }
        }
    }
    if pushed > 0 || dropped > 0 {
        let served = &mut shared.metrics.lock().served;
        served.events_pushed += pushed;
        served.events_dropped += dropped;
    }
}

fn close_conn(shared: &Shared, conns: &mut HashMap<u64, Conn>, id: u64) {
    if let Some(conn) = conns.remove(&id) {
        shared.subs.drop_conn(id);
        shared
            .metrics
            .lock()
            .write_buffer_peak
            .record(conn.out.peak() as u64);
    }
}

/// One-shot request/response over a fresh connection.
pub fn request<A: ToSocketAddrs>(addr: A, req: &Request) -> io::Result<Response> {
    Client::connect(addr)?.send(req)
}

/// Try each candidate address under one shared deadline. The budget
/// shrinks as candidates fail, so a multi-A-record hostname cannot block
/// for candidate-count × timeout.
fn connect_by_deadline(addrs: &[SocketAddr], deadline: Instant) -> io::Result<TcpStream> {
    connect_with(addrs, deadline, TcpStream::connect_timeout)
}

/// The deadline loop behind [`connect_by_deadline`], with the dial
/// injectable so the budget arithmetic is testable without a network
/// that honors timeouts.
fn connect_with<T>(
    addrs: &[SocketAddr],
    deadline: Instant,
    mut dial: impl FnMut(&SocketAddr, Duration) -> io::Result<T>,
) -> io::Result<T> {
    let mut last_err: Option<io::Error> = None;
    for candidate in addrs {
        let Some(budget) = deadline
            .checked_duration_since(Instant::now())
            .filter(|d| !d.is_zero())
        else {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                match last_err {
                    Some(err) => format!("connect deadline exhausted; last error: {err}"),
                    None => "connect deadline exhausted".to_string(),
                },
            ));
        };
        match dial(candidate, budget) {
            Ok(stream) => return Ok(stream),
            Err(err) => last_err = Some(err),
        }
    }
    Err(last_err.unwrap_or_else(|| io::Error::other("no addresses to connect to")))
}

/// A persistent JSON-lines client connection: one socket, its replies
/// framed by the server's own `LineFramer` under [`MAX_LINE_BYTES`]. Push
/// events that arrive interleaved with responses (on subscribed
/// connections) are queued and handed out via [`Client::next_event`].
pub struct Client {
    stream: TcpStream,
    framer: LineFramer,
    /// Frames read off the socket but not handed out yet, in order.
    pending: std::vec::IntoIter<Frame>,
    events: VecDeque<PushEvent>,
}

impl Client {
    /// Connect with no deadline and no socket timeouts.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        Client::connect_within(addr, None)
    }

    /// Connect under one deadline `timeout` from now, shared by address
    /// resolution, the dial of every candidate address and the socket's
    /// read and write timeouts, which get what the connect left of it: a
    /// one-shot exchange ends within `timeout`, and each reply of a longer
    /// stream is bounded by that remainder. `None`, or a timeout too long
    /// for any deadline, waits forever.
    pub fn connect_within<A: ToSocketAddrs>(
        addr: A,
        timeout: Option<Duration>,
    ) -> io::Result<Client> {
        let Some(deadline) = timeout.and_then(|t| Instant::now().checked_add(t)) else {
            return Client::over(TcpStream::connect(addr)?);
        };
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let client = Client::over(connect_by_deadline(&addrs, deadline)?)?;
        let budget = deadline
            .saturating_duration_since(Instant::now())
            .max(Duration::from_millis(1));
        client.set_timeouts(Some(budget), Some(budget))?;
        Ok(client)
    }

    /// A client over a connected socket. Requests are single small lines
    /// whose sender then waits for the answer, so Nagle's algorithm could
    /// only ever hold one back.
    fn over(stream: TcpStream) -> io::Result<Client> {
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            framer: LineFramer::new(MAX_LINE_BYTES),
            pending: Vec::new().into_iter(),
            events: VecDeque::new(),
        })
    }

    /// Apply read/write deadlines to the connection (`None` = blocking).
    pub fn set_timeouts(&self, read: Option<Duration>, write: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(read)?;
        self.stream.set_write_timeout(write)
    }

    /// Send a request and block for its response.
    pub fn send(&mut self, req: &Request) -> io::Result<Response> {
        let line = serde_json::to_string(req)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        self.send_line(&line)
    }

    /// Send a request tagged with a `req_id` (echoed on the response; the
    /// handle `CANCEL` takes) and block for its response.
    pub fn send_tagged(&mut self, req: &Request, req_id: &str) -> io::Result<Response> {
        let envelope = Envelope {
            req_id: Some(req_id.to_string()),
            request: req.clone(),
        };
        let line = serde_json::to_string(&envelope)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        self.send_line(&line)
    }

    /// Send a raw line (not necessarily valid JSON) and read one response.
    /// Lines over [`MAX_LINE_BYTES`] are refused locally — the server
    /// would reject them anyway. Push events arriving first are queued.
    pub fn send_line(&mut self, line: &str) -> io::Result<Response> {
        if line.len() > MAX_LINE_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "request line of {} bytes exceeds the {MAX_LINE_BYTES}-byte protocol cap",
                    line.len()
                ),
            ));
        }
        // One segment: a line and its newline written separately meet
        // delayed ACK on the far side (40 ms a request on loopback).
        self.stream.write_all(format!("{line}\n").as_bytes())?;
        loop {
            let reply = self.read_wire_line()?;
            match serde_json::from_str::<Response>(&reply) {
                Ok(response) => return Ok(response),
                // Not a response: a push event, or else a bad response,
                // reported as such.
                Err(not_response) => match serde_json::from_str::<PushEvent>(&reply) {
                    Ok(event) => self.events.push_back(event),
                    Err(_) => return Err(io::Error::new(io::ErrorKind::InvalidData, not_response)),
                },
            }
        }
    }

    /// Next push event: queued ones first, otherwise block on the socket
    /// (honouring any read deadline from [`Client::set_timeouts`]).
    pub fn next_event(&mut self) -> io::Result<PushEvent> {
        if let Some(event) = self.events.pop_front() {
            return Ok(event);
        }
        let line = self.read_wire_line()?;
        serde_json::from_str::<PushEvent>(&line)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Push events already received and waiting in the local queue.
    pub fn queued_events(&self) -> usize {
        self.events.len()
    }

    /// The next line the server sent. A line over the cap is an
    /// `InvalidData` error; the framer drops the rest of it, so the next
    /// call reads the line after it.
    fn read_wire_line(&mut self) -> io::Result<String> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.pending.next() {
                Some(Frame::Line(bytes)) => {
                    return String::from_utf8(bytes)
                        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
                }
                Some(Frame::Oversized) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "server line exceeds the protocol cap",
                    ))
                }
                None => {}
            }
            let n = match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            let mut frames = Vec::new();
            self.framer.feed(&chunk[..n], &mut frames);
            self.pending = frames.into_iter();
        }
    }
}

/// Equal-jitter exponential backoff: each delay is half the nominal one
/// plus a uniformly random share of the other half, and the nominal delay
/// doubles from `initial` up to `max`. Clients re-trying a daemon that
/// just came back, or the probes of daemons degraded by one disk outage,
/// so do not retry in lockstep. The jitter is an LCG seeded by the caller.
pub struct Backoff {
    delay: Duration,
    max: Duration,
    rng: u64,
}

impl Backoff {
    /// A zero `initial` is taken as 1 ms, so the schedule still grows.
    pub fn new(initial: Duration, max: Duration, seed: u64) -> Backoff {
        Backoff {
            delay: initial.max(Duration::from_millis(1)),
            max,
            rng: seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// The jittered delay to sleep before the next attempt (advances the
    /// schedule).
    pub fn next_delay(&mut self) -> Duration {
        self.rng = self
            .rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let half = self.delay.as_micros() as u64 / 2;
        let jittered = Duration::from_micros(half + (self.rng >> 33) % (half + 1));
        self.delay = self.delay.saturating_mul(2).min(self.max);
        jittered
    }
}

/// May this transport error be retried for this request? Connection
/// refused means the request never reached a server, so even mutations
/// are safe. Anything after the connection was up (timeout, reset, EOF)
/// is ambiguous — the daemon may have applied the mutation and lost only
/// the reply — so mutations give up and the caller must check server
/// state, while read-only verbs retry freely.
fn transport_retryable(kind: io::ErrorKind, mutation: bool) -> bool {
    use io::ErrorKind;
    match kind {
        ErrorKind::ConnectionRefused => true,
        ErrorKind::TimedOut
        | ErrorKind::WouldBlock
        | ErrorKind::ConnectionReset
        | ErrorKind::ConnectionAborted
        | ErrorKind::BrokenPipe
        | ErrorKind::UnexpectedEof => !mutation,
        _ => false,
    }
}

/// The client's one retry rule: up to `retries` re-attempts of an
/// exchange, each after the next [`Backoff`] delay. A reply is re-sent
/// for only when the daemon answers `not_applied` (degraded mode, a full
/// queue), its guarantee that the request changed nothing, so a re-sent
/// mutation cannot apply twice. A transport error is retried when the
/// connection was refused, and for a read-only request also after a
/// timeout, reset or early close. Each retry is reported to
/// `on_retry(attempt, delay, why)` before its sleep; the library prints
/// nothing.
pub struct Retry<F> {
    pub retries: u64,
    pub backoff: Backoff,
    pub on_retry: F,
}

impl<F: FnMut(u64, Duration, &str)> Retry<F> {
    /// Run `exchange` (a connect and send, or a send over an open
    /// [`Client`]) under the rule; `mutation` says whether its request can
    /// change daemon state. A failure carries the attempts it took.
    pub fn send(
        &mut self,
        mutation: bool,
        exchange: impl FnMut() -> io::Result<Response>,
    ) -> Result<Response, (io::Error, u64)> {
        self.run(mutation, exchange, |response| {
            (!response.ok && response.not_applied).then(|| {
                response
                    .error
                    .clone()
                    .unwrap_or_else(|| "not applied".into())
            })
        })
    }

    /// Open a connection that will carry mutations: only a refused
    /// connection is retried.
    pub fn connect(
        &mut self,
        addr: &str,
        timeout: Option<Duration>,
    ) -> Result<Client, (io::Error, u64)> {
        self.run(true, || Client::connect_within(addr, timeout), |_| None)
    }

    fn run<T>(
        &mut self,
        mutation: bool,
        mut attempt: impl FnMut() -> io::Result<T>,
        not_applied: impl Fn(&T) -> Option<String>,
    ) -> Result<T, (io::Error, u64)> {
        let mut attempts: u64 = 1;
        loop {
            let why = match attempt() {
                Ok(reply) => match not_applied(&reply) {
                    Some(why) if attempts <= self.retries => why,
                    _ => return Ok(reply),
                },
                Err(err)
                    if attempts <= self.retries && transport_retryable(err.kind(), mutation) =>
                {
                    err.to_string()
                }
                Err(err) => return Err((err, attempts)),
            };
            let delay = self.backoff.next_delay();
            (self.on_retry)(attempts, delay, &why);
            std::thread::sleep(delay);
            attempts += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::SplitMix64;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    fn lines(frames: &[Frame]) -> Vec<String> {
        frames
            .iter()
            .map(|f| match f {
                Frame::Line(bytes) => String::from_utf8(bytes.clone()).unwrap(),
                Frame::Oversized => "<oversized>".to_string(),
            })
            .collect()
    }

    #[test]
    fn framer_splits_pipelined_lines_across_reads() {
        let mut framer = LineFramer::new(64);
        let mut frames = Vec::new();
        framer.feed(b"one\ntw", &mut frames);
        framer.feed(b"o\nthree\n", &mut frames);
        assert_eq!(lines(&frames), ["one", "two", "three"]);
    }

    #[test]
    fn framer_output_does_not_depend_on_how_reads_split_the_stream() {
        // Ordinary lines, an empty line, a line exactly at the cap, one of
        // cap + 1, an over-cap run whose newline comes much later, and a
        // trailing partial line — framed whole, under every two-way split
        // and under 1 000 seeded k-way splits. The closing newline fed
        // after each run shows the partial line was buffered identically.
        const CAP: usize = 16;
        let mut stream = b"alpha\nbeta gamma\n\n".to_vec();
        stream.extend_from_slice(&[b'c'; CAP]);
        stream.push(b'\n');
        stream.extend_from_slice(&[b'd'; CAP + 1]);
        stream.push(b'\n');
        stream.extend_from_slice(&[b'x'; 10 * CAP]);
        stream.extend_from_slice(b"\nafter\npartial");
        let framed = |cuts: &[usize]| {
            let mut framer = LineFramer::new(CAP);
            let mut frames = Vec::new();
            let mut from = 0;
            for &cut in cuts.iter().chain([&stream.len()]) {
                framer.feed(&stream[from..cut], &mut frames);
                from = cut;
            }
            framer.feed(b"\n", &mut frames);
            lines(&frames)
        };
        let whole = framed(&[]);
        let at_cap = "c".repeat(CAP);
        assert_eq!(
            whole,
            [
                "alpha",
                "beta gamma",
                "",
                at_cap.as_str(),
                "<oversized>",
                "<oversized>",
                "after",
                "partial"
            ]
        );
        for cut in 0..=stream.len() {
            assert_eq!(framed(&[cut]), whole, "split at {cut}");
        }
        let mut rng = SplitMix64(0x5eed_0f2a);
        for run in 0..1_000 {
            let k = 2 + rng.below(30);
            let mut cuts: Vec<usize> = (1..k)
                .map(|_| rng.below(stream.len() as u64 + 1) as usize)
                .collect();
            cuts.sort_unstable();
            assert_eq!(framed(&cuts), whole, "run {run}: cuts {cuts:?}");
        }
    }

    #[test]
    fn framer_reports_oversized_once_and_resyncs() {
        let mut framer = LineFramer::new(8);
        let mut frames = Vec::new();
        // Crosses the cap mid-read: reported immediately, once.
        framer.feed(b"0123456789", &mut frames);
        assert_eq!(frames, [Frame::Oversized]);
        // The rest of the doomed line is discarded silently...
        framer.feed(b"garbage-without-newline", &mut frames);
        assert_eq!(frames.len(), 1);
        // ...up to its newline, after which framing resumes.
        framer.feed(b"tail\nok\n", &mut frames);
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[1], Frame::Line(b"ok".to_vec()));
    }

    #[test]
    fn framer_cap_is_exclusive_of_the_newline() {
        let mut framer = LineFramer::new(8);
        let mut frames = Vec::new();
        framer.feed(b"12345678\n123456789\n12\n", &mut frames);
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[0], Frame::Line(b"12345678".to_vec()));
        assert_eq!(frames[1], Frame::Oversized);
        assert_eq!(frames[2], Frame::Line(b"12".to_vec()));
    }

    /// A sink that accepts a fixed number of bytes, then would block.
    struct Throttled {
        accepted: Vec<u8>,
        budget: usize,
    }

    impl Write for Throttled {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.budget == 0 {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(self.budget);
            self.accepted.extend_from_slice(&buf[..n]);
            self.budget -= n;
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_queue_tracks_partial_writes_and_peak() {
        let mut queue = WriteQueue::new();
        queue.push_line("hello");
        queue.push_line("world");
        assert_eq!(queue.pending(), 12);
        assert_eq!(queue.peak(), 12);

        let mut sink = Throttled {
            accepted: Vec::new(),
            budget: 7,
        };
        assert!(!queue.flush(&mut sink).unwrap());
        assert_eq!(queue.pending(), 5);
        // Peak reflects the high-water mark, not the current backlog.
        assert_eq!(queue.peak(), 12);

        let mut sink = Throttled {
            accepted: Vec::new(),
            budget: 100,
        };
        assert!(queue.flush(&mut sink).unwrap());
        assert_eq!(sink.accepted, b"orld\n");
        assert_eq!(queue.pending(), 0);
        assert_eq!(queue.peak(), 12);
    }

    #[test]
    fn connect_deadline_is_shared_across_candidates() {
        // A dial that burns 40ms per attempt and never connects stands in
        // for a black-holed address (real unrouted targets are unreliable
        // behind NATs and transparent proxies). The shared deadline must
        // cut the loop off after ~one budget, where the old per-candidate
        // logic allowed candidate-count × budget.
        let addrs: Vec<SocketAddr> = (1..=16)
            .map(|i| format!("192.0.2.{i}:9").parse().unwrap())
            .collect();
        let budget = Duration::from_millis(100);
        let deadline = Instant::now() + budget;
        let mut budgets: Vec<Duration> = Vec::new();
        let err = connect_with(&addrs, deadline, |_, remaining| -> io::Result<TcpStream> {
            budgets.push(remaining);
            std::thread::sleep(Duration::from_millis(40).min(remaining));
            Err(io::ErrorKind::TimedOut.into())
        })
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert!(
            budgets.len() < addrs.len(),
            "deadline should stop the loop long before all {} candidates; dialed {}",
            addrs.len(),
            budgets.len()
        );
        // Every attempt sees only what is left of the one shared budget,
        // strictly shrinking as earlier candidates consume it.
        assert!(budgets.iter().all(|b| *b <= budget), "budgets {budgets:?}");
        assert!(
            budgets.windows(2).all(|w| w[1] < w[0]),
            "budgets {budgets:?}"
        );
    }

    #[test]
    fn a_line_that_is_neither_reply_nor_event_reports_why_the_reply_failed() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut request = String::new();
            BufReader::new(&stream).read_line(&mut request).unwrap();
            (&stream).write_all(b"{\"ok\":\"yes\"}\n").unwrap();
            request
        });
        let mut client = Client::connect(addr).unwrap();
        let err = client.send(&Request::Status).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let message = err.to_string();
        assert!(!message.contains("push"), "{message}");
        assert!(message.contains("bool"), "{message}");
        assert!(server.join().unwrap().contains("STATUS"));
    }

    /// The client frames replies with the server's `LineFramer` over a
    /// real socket: a reply over the cap is refused and skipped, the
    /// connection carries on, a reply exactly at the cap parses, and a
    /// close is an unexpected EOF.
    #[test]
    fn client_reads_replies_through_the_line_framer() {
        let prefix = r#"{"ok":true,"error":""#;
        let at_cap = format!(
            "{prefix}{}\"}}",
            "y".repeat(MAX_LINE_BYTES - prefix.len() - 2)
        );
        assert_eq!(at_cap.len(), MAX_LINE_BYTES);
        let replies = [
            "x".repeat(MAX_LINE_BYTES + 1),
            r#"{"ok":true,"req_id":"after"}"#.to_string(),
            at_cap,
        ];
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut requests = BufReader::new(&stream);
            for reply in replies {
                requests.read_line(&mut String::new()).unwrap();
                (&stream)
                    .write_all(format!("{reply}\n").as_bytes())
                    .unwrap();
            }
            // Read the last request, then close without answering it.
            requests.read_line(&mut String::new()).unwrap();
        });
        let mut client = Client::connect(addr).unwrap();
        let err = client.send(&Request::Status).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        let after = client.send(&Request::Status).unwrap();
        assert_eq!(after.req_id.as_deref(), Some("after"));
        let exact = client.send(&Request::Status).unwrap();
        assert_eq!(exact.error.unwrap().len(), MAX_LINE_BYTES - 22);
        let err = client.send(&Request::Status).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
        server.join().unwrap();
    }

    #[test]
    fn backoff_is_exponential_jittered_and_capped() {
        for (initial, max) in [
            (Duration::from_millis(200), Duration::from_secs(5)),
            (Duration::from_millis(1), Duration::from_millis(5)),
        ] {
            let mut backoff = Backoff::new(initial, max, 42);
            let mut nominal = initial;
            for _ in 0..8 {
                let delay = backoff.next_delay();
                // Equal jitter: between half the nominal delay and the
                // full nominal delay.
                assert!(delay >= nominal / 2, "{delay:?} too short");
                assert!(delay <= nominal, "{delay:?} too long");
                nominal = (nominal * 2).min(max);
            }
            assert_eq!(backoff.delay, max, "capped");
        }
        // Different seeds walk different jitter schedules.
        let schedule = |seed| {
            let mut backoff =
                Backoff::new(Duration::from_millis(200), Duration::from_secs(5), seed);
            (0..4).map(|_| backoff.next_delay()).collect::<Vec<_>>()
        };
        assert_ne!(schedule(1), schedule(2));
    }

    #[test]
    fn transport_retry_policy_is_conservative_for_mutations() {
        use std::io::ErrorKind;
        // Connection refused = the request never arrived; safe for all.
        assert!(transport_retryable(ErrorKind::ConnectionRefused, true));
        assert!(transport_retryable(ErrorKind::ConnectionRefused, false));
        // Post-connect failures are ambiguous: the daemon may have applied
        // the mutation and lost only the reply.
        for kind in [
            ErrorKind::TimedOut,
            ErrorKind::ConnectionReset,
            ErrorKind::BrokenPipe,
            ErrorKind::UnexpectedEof,
        ] {
            assert!(!transport_retryable(kind, true), "{kind:?} must not retry");
            assert!(transport_retryable(kind, false), "{kind:?} should retry");
        }
        // Unknown errors never retry.
        assert!(!transport_retryable(ErrorKind::PermissionDenied, false));
    }

    /// `Retry` re-sends a `not_applied` rejection until the budget runs
    /// out, reporting each retry, and gives up at once on a transport
    /// error the rule does not allow for a mutation.
    #[test]
    fn retry_resends_only_what_did_not_apply() {
        let mut reported = Vec::new();
        let mut retry = Retry {
            retries: 2,
            backoff: Backoff::new(Duration::from_millis(1), Duration::from_millis(2), 7),
            on_retry: |attempt: u64, _: Duration, why: &str| {
                reported.push(format!("{attempt} {why}"))
            },
        };
        let rejected = || {
            let mut response = Response::error("degraded");
            response.not_applied = true;
            Ok(response)
        };
        let response = retry.send(true, rejected).unwrap();
        assert!(response.not_applied, "the last rejection is the answer");
        let (err, attempts) = retry
            .send(true, || Err(io::ErrorKind::TimedOut.into()))
            .unwrap_err();
        assert_eq!((err.kind(), attempts), (io::ErrorKind::TimedOut, 1));
        let (_, attempts) = retry
            .send(false, || Err(io::ErrorKind::TimedOut.into()))
            .unwrap_err();
        assert_eq!(attempts, 3);
        assert_eq!(reported.len(), 4, "{reported:?}");
        assert_eq!(reported[..2], ["1 degraded", "2 degraded"]);
    }

    #[test]
    fn connect_succeeds_within_the_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stream = connect_by_deadline(&[addr], Instant::now() + Duration::from_secs(5)).unwrap();
        assert_eq!(stream.peer_addr().unwrap(), addr);
    }

    #[test]
    fn connect_refuses_an_exhausted_deadline_without_dialing() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let err =
            connect_by_deadline(&[addr], Instant::now() - Duration::from_millis(1)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
    }
}
