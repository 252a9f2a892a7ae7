//! The frame server shared by `gpp-serve` and `gpp-gateway`, driven with a
//! toy handler: panic isolation per request, and frames that arrive
//! together on one connection.

use gpp_serve::metrics::Counter;
use gpp_serve::protocol::{read_frame, write_frame};
use gpp_serve::server::{FrameServer, Handler, Limits, Reject, Tally};
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(10);

/// Echoes each payload, and panics on `boom`.
#[derive(Default)]
struct Echo {
    panics_caught: Counter,
    other: Counter,
}

impl Handler for Echo {
    const NAME: &'static str = "echo";
    const SHED_OLDEST: bool = false;

    fn limits(&self) -> Limits {
        Limits {
            workers: 1,
            queue_depth: 4,
            request_timeout: TIMEOUT,
            max_frame_bytes: 1024,
        }
    }

    fn reply(&self, payload: &str, _queued: Duration, _queue_len: usize) -> String {
        assert_ne!(payload, "boom", "the toy handler panics on `boom`");
        format!("echo:{payload}")
    }

    fn reject(&self, _why: Reject, _queue_len: usize) -> String {
        "busy".to_string()
    }

    fn counter(&self, tally: Tally) -> &Counter {
        match tally {
            Tally::PanicsCaught => &self.panics_caught,
            _ => &self.other,
        }
    }
}

fn connect(addr: std::net::SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(TIMEOUT)).unwrap();
    stream
}

fn call(stream: &mut TcpStream, payload: &str) -> String {
    write_frame(stream, payload).unwrap();
    read_frame(stream).unwrap().expect("a reply frame")
}

/// A panicking reply becomes a structured `internal` error, and with one
/// worker both the same connection and a fresh one are served after it.
#[test]
fn a_panicking_reply_is_answered_and_the_worker_serves_on() {
    let server = FrameServer::listen("127.0.0.1:0", Echo::default())
        .unwrap()
        .spawn()
        .unwrap();
    let mut stream = connect(server.addr());
    let reply = call(&mut stream, "boom");
    assert!(
        reply.starts_with("{\"ok\":false,\"error\":{\"kind\":\"internal\""),
        "reply: {reply}"
    );
    assert!(reply.contains("request handler panicked"), "reply: {reply}");
    assert_eq!(call(&mut stream, "again"), "echo:again");
    // The one worker serves a connection until it closes.
    drop(stream);
    let mut fresh = connect(server.addr());
    assert_eq!(call(&mut fresh, "fresh"), "echo:fresh");
    assert_eq!(server.state().panics_caught.get(), 1);
    drop(fresh);
    server.shutdown_and_join().unwrap();
}

/// Two frames that reach the server in one segment are both answered, in
/// order: bytes read ahead of the first frame stay buffered for the next.
#[test]
fn frames_written_together_are_answered_in_order() {
    let server = FrameServer::listen("127.0.0.1:0", Echo::default())
        .unwrap()
        .spawn()
        .unwrap();
    let mut stream = connect(server.addr());
    stream.write_all(b"5\nfirst6\nsecond").unwrap();
    assert_eq!(
        read_frame(&mut stream).unwrap().as_deref(),
        Some("echo:first")
    );
    assert_eq!(
        read_frame(&mut stream).unwrap().as_deref(),
        Some("echo:second")
    );
    drop(stream);
    server.shutdown_and_join().unwrap();
}
