//! The frame server behind `gpp-serve` and `gpp-gateway`: acceptor,
//! bounded queue, worker pool, connection loop, shutdown. A [`Handler`]
//! supplies the replies; the server owns the connection/worker policy.
//!
//! Architecture (no async runtime — sanctioned crates only):
//!
//! ```text
//!     acceptor (blocking accept) ◄── self-connect ── shutdown watcher
//!                   │ try_send
//!                   ▼
//!        crossbeam bounded channel  ──full──► Handler::reject
//!                   │ recv
//!        ┌──────────┼──────────┐
//!        ▼          ▼          ▼
//!     worker 0   worker 1   worker N      (scoped threads, respawned)
//!        └── serve_connection ──► Handler::reply ──► length-prefixed reply
//!
//!     Handler: ServiceState (gpp-serve; a full queue sheds its oldest)
//!            | GatewayState (gpp-gateway; a full queue answers `busy`)
//! ```
//!
//! Shutdown: a shared `AtomicBool` (set programmatically or by the
//! SIGINT/SIGTERM handler) stops the acceptor. The acceptor blocks in
//! `accept`, so a watcher thread notices the request and wakes it with
//! one connection to the listener's own address. Dropping the sender then
//! lets each worker drain the queue and finish in-flight requests before
//! the pool joins — no request that was accepted is abandoned.

use crate::metrics::Metrics;
use crate::protocol::{read_frame_limited, write_frame, FrameError, ProtocolError};
use crate::service::{
    busy_response_with_hint, error_json, shed_queue_response, ServeConfig, ServiceState,
};
use crossbeam::channel::{bounded, Receiver, TrySendError};
use std::borrow::Cow;
use std::io::{self, BufReader, Read};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often the shutdown watcher re-checks the shutdown flag and the
/// termination signal; also the back-off after a failed `accept`.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// What a [`FrameServer`] serves: the replies, the policy for a full
/// queue, and the counters. The server owns everything else.
pub trait Handler: Send + Sync + 'static {
    /// Prefix of log lines and thread names, e.g. `gpp-serve`.
    const NAME: &'static str;
    /// Whether a full queue sheds its oldest connection to admit a newcomer.
    const SHED_OLDEST: bool;
    /// Pool size, queue depth and per-frame limits.
    fn limits(&self) -> Limits;
    /// The reply to a payload that waited `queued`; `queue_len` wait now.
    fn reply(&self, payload: &str, queued: Duration, queue_len: usize) -> String;
    /// The reply to a connection rejected at a full queue; counts it too.
    fn reject(&self, why: Reject, queue_len: usize) -> String;
    /// Where caught panics, worker respawns and oversized frames count.
    fn metrics(&self) -> Option<&Metrics> {
        None
    }
    /// Runs beside the workers until `shutdown` is set (a prober).
    fn beside(&self, _shutdown: &AtomicBool) {}
}

/// The pool and frame limits a [`Handler`] is served under.
pub struct Limits {
    /// Worker threads (at least one runs).
    pub workers: usize,
    /// Bounded accept-queue depth (at least one).
    pub queue_depth: usize,
    /// Budget for reading one whole frame; also the write timeout.
    pub request_timeout: Duration,
    /// Largest accepted request frame; a bigger declared length gets a
    /// structured `too_large` reply before any allocation.
    pub max_frame_bytes: usize,
}

/// Why a connection is rejected at a full queue.
pub enum Reject {
    /// It was the oldest queued and was displaced by a newcomer.
    Shed,
    /// It arrived and found no slot.
    Busy,
}

/// A bound, ready-to-run frame server.
pub struct FrameServer<H> {
    handler: Arc<H>,
    listener: TcpListener,
    shutdown: Arc<AtomicBool>,
}

/// `gpp-serve`'s server.
pub type Server = FrameServer<ServiceState>;

/// Handle to a `gpp-serve` server on a background thread.
pub type ServerHandle = FrameHandle<ServiceState>;

impl Server {
    /// Binds the configured address (port 0 gives an ephemeral port).
    pub fn bind(config: ServeConfig) -> io::Result<Server> {
        FrameServer::listen(config.addr.clone(), ServiceState::new(config))
    }
}

impl<H: Handler> FrameServer<H> {
    /// Binds `addr` (port 0 gives an ephemeral port) to serve `handler`.
    pub fn listen(addr: impl ToSocketAddrs, handler: H) -> io::Result<FrameServer<H>> {
        Ok(FrameServer {
            handler: Arc::new(handler),
            listener: TcpListener::bind(addr)?,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The handler's shared state (stats, caches) — for embedding and
    /// tests.
    pub fn state(&self) -> Arc<H> {
        self.handler.clone()
    }

    /// Runs until the shutdown flag is set (blocking). Returns once every
    /// queued and in-flight request has been answered.
    pub fn run(self) -> io::Result<()> {
        let FrameServer {
            handler,
            listener,
            shutdown,
        } = self;
        let (handler, shutdown) = (&*handler, &*shutdown);
        let limits = handler.limits();
        // Each queue entry carries its enqueue instant so the worker can
        // attribute the accept-queue wait separately from compute time.
        let (tx, rx) = bounded::<(TcpStream, Instant)>(limits.queue_depth.max(1));

        std::thread::scope(|scope| {
            scope.spawn(|| handler.beside(shutdown));
            for w in 0..limits.workers.max(1) {
                let rx = rx.clone();
                // The respawn loop: per-request panics are already isolated
                // inside serve_connection; should anything else unwind, the
                // logical worker restarts on the same OS thread instead of
                // shrinking the pool (and instead of poisoning the scope
                // join, which would take the whole server down).
                scope.spawn(move || loop {
                    match catch_unwind(AssertUnwindSafe(|| worker_loop(w, &rx, handler, shutdown)))
                    {
                        Ok(()) => break, // channel disconnected: clean drain
                        Err(_) => {
                            count(handler, |m| &m.worker_respawns);
                            eprintln!("{}: worker {w} died; respawning", H::NAME);
                        }
                    }
                });
            }
            // `rx` lives until the scope ends, so `try_send` never sees a
            // disconnected channel.
            let accepted = accept_until_shutdown(&listener, shutdown, H::NAME, |stream| {
                let Err(TrySendError::Full(pair)) = tx.try_send((stream, Instant::now())) else {
                    return;
                };
                let queue_len = rx.len();
                // Shed-oldest-first (adaptive LIFO): the longest-queued
                // connection is the one most likely past its caller's
                // patience, so it is displaced and the fresh arrival takes
                // its slot. Only if no queued entry can be reclaimed
                // (workers drained the queue in the race window and it
                // refilled — impossible with one acceptor, but cheap to
                // guard) is the newcomer turned away.
                if H::SHED_OLDEST {
                    if let Some((oldest, _enqueued)) = rx.try_recv() {
                        reply_reject(oldest, handler.reject(Reject::Shed, queue_len));
                    }
                }
                if let Err(TrySendError::Full((stream, _))) = tx.try_send(pair) {
                    reply_reject(stream, handler.reject(Reject::Busy, queue_len));
                }
            });
            // Dropping the sender disconnects the workers once the queue
            // drains.
            drop(tx);
            accepted
        })
    }

    /// Runs the server on a background thread; returns a handle with the
    /// bound address and a clean shutdown path. Used by tests and by
    /// embedders that need the calling thread back.
    pub fn spawn(self) -> io::Result<FrameHandle<H>> {
        Ok(FrameHandle {
            addr: self.local_addr()?,
            shutdown: self.shutdown.clone(),
            state: self.state(),
            thread: std::thread::Builder::new()
                .name(format!("{}-acceptor", H::NAME))
                .spawn(move || self.run())?,
        })
    }
}

/// Handle to a [`FrameServer`] running on a background thread.
pub struct FrameHandle<H> {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    state: Arc<H>,
    thread: std::thread::JoinHandle<io::Result<()>>,
}

impl<H: Handler> FrameHandle<H> {
    /// The server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The handler's shared state.
    pub fn state(&self) -> Arc<H> {
        self.state.clone()
    }

    /// Requests shutdown and waits for the drain to complete.
    pub fn shutdown_and_join(self) -> io::Result<()> {
        self.shutdown.store(true, Ordering::SeqCst);
        match self.thread.join() {
            Ok(r) => r,
            Err(_) => Err(io::Error::other("server thread panicked")),
        }
    }
}

/// The accept loop. The listener stays blocking, so `accept` returns the
/// moment a client arrives, and each accepted stream goes to `on_accept`
/// (enqueue, or a busy/shed reply). After every `accept` the loop checks `shutdown` and
/// [`signals::requested`]; once either is set it drops the stream it just
/// accepted and returns. `shutdown` is set on every return, so the
/// caller's other threads see a signal too. `who` prefixes the log line
/// of a failed `accept`.
///
/// A scoped watcher thread makes that check every [`ACCEPT_POLL`] while
/// `accept` blocks, and on a request connects once to the listener's own
/// address to wake it: glibc's `signal()` installs handlers with
/// `SA_RESTART`, so SIGTERM alone never interrupts a blocking `accept`.
fn accept_until_shutdown(
    listener: &TcpListener,
    shutdown: &AtomicBool,
    who: &str,
    mut on_accept: impl FnMut(TcpStream),
) -> io::Result<()> {
    let wake = match listener.local_addr() {
        Ok(bound) => wake_addr(bound),
        Err(e) => {
            shutdown.store(true, Ordering::SeqCst);
            return Err(e);
        }
    };
    let stop_requested = || shutdown.load(Ordering::SeqCst) || signals::requested();
    let (done_tx, done_rx) = mpsc::channel::<()>();
    std::thread::scope(|scope| {
        // Exits once it has woken the acceptor, or when the accept loop
        // ends on its own and drops `done_tx`.
        scope.spawn(move || {
            while let Err(RecvTimeoutError::Timeout) = done_rx.recv_timeout(ACCEPT_POLL) {
                if stop_requested() && TcpStream::connect_timeout(&wake, ACCEPT_POLL).is_ok() {
                    return;
                }
            }
        });
        loop {
            let accepted = listener.accept();
            if stop_requested() {
                break;
            }
            match accepted {
                Ok((stream, _peer)) => on_accept(stream),
                Err(e) => {
                    // EMFILE and the like: back off instead of spinning.
                    eprintln!("{who}: accept failed: {e}");
                    std::thread::sleep(ACCEPT_POLL);
                }
            }
        }
        shutdown.store(true, Ordering::SeqCst);
        drop(done_tx);
    });
    Ok(())
}

/// Where the shutdown watcher connects to wake the acceptor: the bound
/// address, with an unspecified IP (`0.0.0.0`, `::`) replaced by loopback.
fn wake_addr(mut bound: SocketAddr) -> SocketAddr {
    if bound.ip().is_unspecified() {
        bound.set_ip(match bound {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    bound
}

fn worker_loop<H: Handler>(
    worker: usize,
    rx: &Receiver<(TcpStream, Instant)>,
    handler: &H,
    shutdown: &AtomicBool,
) {
    // recv() drains remaining queued connections after the acceptor drops
    // the sender, then reports Disconnected — exactly the shutdown drain
    // semantics we want.
    while let Ok((stream, enqueued)) = rx.recv() {
        if let Err(e) = serve_connection(stream, enqueued.elapsed(), rx, handler, shutdown) {
            // Client went away mid-request or a socket error: not fatal to
            // the server; note it and move on.
            if e.kind() != io::ErrorKind::UnexpectedEof {
                eprintln!("{}: worker {worker}: connection error: {e}", H::NAME);
            }
        }
    }
}

/// Serves one connection: any number of request frames until EOF. The
/// connection's queue wait is attributed to its first request; follow-up
/// frames on the same connection never waited, so they record zero.
///
/// One buffered reader lives as long as the connection, so a length line
/// and a small payload arrive in one `read`, and bytes read ahead of one
/// frame (a pipelined next frame) stay buffered for the next. Each reply
/// goes out in one write.
///
/// Robustness properties, in the order they apply per request:
///
/// * **Total read deadline** — the whole frame must arrive within
///   `request_timeout` ([`DeadlineRead`], re-armed per frame, bounds every
///   `read` by the remaining budget), so a slow-loris client trickling
///   bytes cannot pin a worker. A connection that sent no byte of a next
///   frame by then is idle, not slow, and closes like EOF.
/// * **Bounded allocation** — a frame declaring more than
///   `max_frame_bytes` gets a structured `too_large` reply before any
///   payload allocation, then the connection closes (it cannot be
///   resynchronized past an unread body).
/// * **Panic isolation** — [`Handler::reply`] runs under `catch_unwind`;
///   a panic becomes a structured `internal` reply and the connection
///   (and worker) live on.
fn serve_connection<H: Handler>(
    stream: TcpStream,
    queued: Duration,
    rx: &Receiver<(TcpStream, Instant)>,
    handler: &H,
    shutdown: &AtomicBool,
) -> io::Result<()> {
    let limits = handler.limits();
    stream.set_write_timeout(Some(limits.request_timeout))?;
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(DeadlineRead {
        stream: &stream,
        deadline: Instant::now(),
        between_frames: true,
        shutdown,
        armed: None,
    });
    let mut queued = queued;
    loop {
        let between_frames = reader.buffer().is_empty();
        let read = reader.get_mut();
        read.deadline = Instant::now() + limits.request_timeout;
        read.between_frames = between_frames;
        let payload = match read_frame_limited(&mut reader, limits.max_frame_bytes) {
            Ok(Some(p)) => p,
            Ok(None) => return Ok(()),
            Err(FrameError::TooLarge { declared, max }) => {
                count(handler, |m| &m.too_large_rejected);
                let reply = error_json(&ProtocolError::new(
                    "too_large",
                    format!("request frame of {declared} B exceeds the {max} B limit"),
                ))
                .render();
                return write_frame(&mut &stream, &reply);
            }
            Err(FrameError::Io(e)) => return Err(e),
        };
        let response = catch_unwind(AssertUnwindSafe(|| {
            handler.reply(&payload, queued, rx.len())
        }))
        .unwrap_or_else(|cause| {
            count(handler, |m| &m.panics_caught);
            let what = panic_message(&cause);
            error_json(&ProtocolError::new(
                "internal",
                format!("request handler panicked: {what}"),
            ))
            .render()
        });
        queued = Duration::ZERO;
        write_frame(&mut &stream, &response)?;
    }
}

/// `gpp-serve`'s handler: projections from the shared service state.
impl Handler for ServiceState {
    const NAME: &'static str = "gpp-serve";
    const SHED_OLDEST: bool = true;

    fn limits(&self) -> Limits {
        Limits {
            workers: self.config.workers,
            queue_depth: self.config.queue_depth,
            request_timeout: self.config.request_timeout,
            max_frame_bytes: self.config.max_frame_bytes,
        }
    }

    /// [`ServiceState::handle_timed`] under two fault points: injected
    /// corruption ([`gpp_fault::SERVE_FRAME_CORRUPT`]) mangles the payload
    /// before decoding, so it is answered like any other malformed
    /// request, and [`gpp_fault::SERVE_WORKER_PANIC`] panics the way a
    /// handler bug would.
    fn reply(&self, payload: &str, queued: Duration, queue_len: usize) -> String {
        let faults = &self.config.faults;
        let mut payload = Cow::Borrowed(payload);
        if faults.is_active() && faults.fires(gpp_fault::SERVE_FRAME_CORRUPT) {
            // The header magic is replaced, so decoding fails with
            // `bad-magic` the way a bit-flipped frame would.
            Metrics::bump(&self.metrics.frames_corrupted);
            payload = Cow::Owned(format!("xx!corrupt!{payload}"));
        }
        if faults.is_active() && faults.fires(gpp_fault::SERVE_WORKER_PANIC) {
            panic!("injected worker panic (serve.worker.panic)");
        }
        self.handle_timed(&payload, queue_len, queued)
    }

    /// `shed` or `busy`, each with a `retry_after_ms` hint.
    fn reject(&self, why: Reject, queue_len: usize) -> String {
        let hint = self.retry_after_hint_ms(queue_len);
        match why {
            Reject::Shed => {
                Metrics::bump(&self.metrics.shed_queue);
                shed_queue_response(hint)
            }
            Reject::Busy => {
                Metrics::bump(&self.metrics.rejected_busy);
                busy_response_with_hint(hint)
            }
        }
    }

    fn metrics(&self) -> Option<&Metrics> {
        Some(&self.metrics)
    }
}

/// Bumps one of the handler's counters, if it keeps them.
fn count<H: Handler>(handler: &H, counter: impl FnOnce(&Metrics) -> &AtomicU64) {
    if let Some(metrics) = handler.metrics() {
        Metrics::bump(counter(metrics));
    }
}

/// Best-effort text of a caught panic payload.
fn panic_message(cause: &Box<dyn std::any::Any + Send>) -> &str {
    if let Some(s) = cause.downcast_ref::<&str>() {
        s
    } else if let Some(s) = cause.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

/// How long one blocking read slice lasts before the shutdown flag is
/// re-checked. Short enough that drain is prompt; long enough that an
/// active connection pays a handful of extra syscalls at most.
const READ_POLL: Duration = Duration::from_millis(50);

/// An [`io::Read`] over a borrowed [`TcpStream`] that enforces a total
/// deadline: every read is bounded by the remainder of the budget (sliced
/// into [`READ_POLL`] chunks), so N slow reads cannot stretch the wait to
/// N × the per-read timeout — the slow-loris pattern a fixed
/// `set_read_timeout` allows. The socket timeout is only set when the
/// slice changes, which while more than one slice remains is never.
/// Between slices the shutdown flag is checked; a shutdown surfaces as
/// EOF, which the frame reader treats as a clean close when it arrives
/// between frames (an *incomplete* frame at shutdown was never an
/// accepted request, so dropping it keeps the drain guarantee intact).
/// So does the deadline while no byte of the frame has arrived.
struct DeadlineRead<'a> {
    stream: &'a TcpStream,
    /// When the frame being read must be complete; re-armed per frame.
    deadline: Instant,
    /// No byte of the frame being read has arrived yet.
    between_frames: bool,
    shutdown: &'a AtomicBool,
    /// The read timeout last set on the socket.
    armed: Option<Duration>,
}

impl Read for DeadlineRead<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            if self.shutdown.load(Ordering::SeqCst) || signals::requested() {
                return Ok(0);
            }
            let remaining = self.deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                if self.between_frames {
                    return Ok(0);
                }
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "read deadline exceeded (slow client)",
                ));
            }
            // set_read_timeout(Some(0)) would mean "no timeout"; clamp up.
            let slice = Some(remaining.min(READ_POLL).max(Duration::from_millis(1)));
            if self.armed != slice {
                self.stream.set_read_timeout(slice)?;
                self.armed = slice;
            }
            match self.stream.read(buf) {
                Ok(n) => {
                    if n > 0 {
                        self.between_frames = false;
                    }
                    return Ok(n);
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut
                        || e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Fast-path rejection when the queue is full: reply `busy`/`shed` and
/// hang up without processing the request, on a short-lived thread so the
/// acceptor keeps accepting. After the
/// reply we send FIN and drain whatever the client already wrote —
/// closing with unread data in the receive buffer makes the kernel RST
/// the connection, which can destroy the reply before the client reads
/// it.
fn reply_reject(mut stream: TcpStream, response: String) {
    std::thread::spawn(move || {
        stream
            .set_read_timeout(Some(Duration::from_millis(500)))
            .ok();
        stream
            .set_write_timeout(Some(Duration::from_millis(500)))
            .ok();
        stream.set_nodelay(true).ok();
        let _ = write_frame(&mut stream, &response);
        let _ = stream.shutdown(std::net::Shutdown::Write);
        let mut sink = [0u8; 1024];
        while matches!(io::Read::read(&mut stream, &mut sink), Ok(n) if n > 0) {}
    });
}

/// SIGINT / SIGTERM → shutdown flag, without any signal-handling crate.
pub mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    static SHUTDOWN_REQUESTED: AtomicBool = AtomicBool::new(false);

    /// Whether a termination signal arrived since [`install`].
    pub fn requested() -> bool {
        SHUTDOWN_REQUESTED.load(Ordering::SeqCst)
    }

    #[cfg(unix)]
    mod imp {
        use super::SHUTDOWN_REQUESTED;
        use std::sync::atomic::Ordering;

        // Setting an atomic flag is async-signal-safe; everything else
        // happens on the shutdown watcher's next tick, which wakes the
        // blocked acceptor (see `accept_until_shutdown`).
        extern "C" fn on_signal(_signum: i32) {
            SHUTDOWN_REQUESTED.store(true, Ordering::SeqCst);
        }

        extern "C" {
            // From libc, which std already links. usize holds the handler
            // function pointer (sighandler_t).
            fn signal(signum: i32, handler: usize) -> usize;
        }

        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;

        pub fn install() {
            unsafe {
                signal(SIGINT, on_signal as *const () as usize);
                signal(SIGTERM, on_signal as *const () as usize);
            }
        }
    }

    #[cfg(not(unix))]
    mod imp {
        pub fn install() {}
    }

    /// Installs SIGINT/SIGTERM handlers that set the shutdown flag. The
    /// CLI calls this for `gpp serve`; embedded servers (tests) usually
    /// prefer the handle's programmatic flag.
    pub fn install() {
        imp::install();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::read_frame;
    use std::io::Write;

    /// Serves the server side of one loopback connection on which the
    /// client first writes `sent`, under a 100 ms read deadline. Returns
    /// how the connection ended and what the client read back.
    fn serve_after(sent: &[u8]) -> (io::Result<()>, Vec<u8>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        client.write_all(sent).unwrap();
        let handler = ServiceState::new(ServeConfig {
            request_timeout: Duration::from_millis(100),
            ..ServeConfig::default()
        });
        let (_tx, rx) = bounded(1);
        let served = serve_connection(
            stream,
            Duration::ZERO,
            &rx,
            &handler,
            &AtomicBool::new(false),
        );
        let mut replies = Vec::new();
        client.read_to_end(&mut replies).unwrap();
        (served, replies)
    }

    #[test]
    fn an_idle_connection_at_its_read_deadline_closes_like_eof() {
        // A whole frame, then silence past the deadline: a clean close.
        let (served, replies) = serve_after(b"10\ngpp/1 ping");
        served.expect("an idle connection is not an error");
        let pong = read_frame(&mut &replies[..]).unwrap().unwrap();
        assert!(pong.starts_with("{\"ok\":true"), "{pong}");

        // No byte at all: also a clean close, with nothing written.
        let (served, replies) = serve_after(b"");
        served.expect("a connection that never spoke is not an error");
        assert!(replies.is_empty());

        // A frame cut short still times out as a slow client.
        let (served, replies) = serve_after(b"10\ngpp/1");
        assert_eq!(served.unwrap_err().kind(), io::ErrorKind::TimedOut);
        assert!(replies.is_empty());

        // So does a next frame cut short after a whole one.
        let (served, replies) = serve_after(b"10\ngpp/1 ping4\n");
        assert_eq!(served.unwrap_err().kind(), io::ErrorKind::TimedOut);
        assert!(!replies.is_empty());
    }
}
