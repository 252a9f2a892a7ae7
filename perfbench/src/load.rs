//! The closed-loop load generator and the reference replies it checks
//! against.
//!
//! One client holds one persistent loopback connection and sends its next
//! frame as soon as the previous reply arrives. Every reply is compared
//! byte for byte with the replies an in-process service gives the same
//! requests.

use crate::gen::{Frame, Pool};
use crate::trace::Tracer;
use gpp_serve::{Client, ServeConfig, ServiceState};
use std::io;
use std::time::{Duration, Instant};

/// Connect, read and write timeout: far above any healthy reply time.
pub const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// The reply a request must get. A memo hit differs from a fresh reply
/// only in its `cached` flag, so both forms are accepted.
pub struct Expected {
    fresh: String,
    cached: String,
}

impl Expected {
    /// The reference replies for every request of `pool`, from an
    /// in-process service with the server's default configuration.
    pub fn for_pool(pool: &Pool) -> Result<Vec<Expected>, String> {
        let reference = ServiceState::new(ServeConfig::default());
        pool.items
            .iter()
            .map(|item| {
                let fresh = reference.handle(&item.payload, 0);
                if !fresh.starts_with("{\"ok\":true") || fresh.contains("\"diagnostics\"") {
                    return Err(format!(
                        "a generated request does not project cleanly: {}",
                        preview(&fresh)
                    ));
                }
                let cached = fresh.replacen("\"cached\":false", "\"cached\":true", 1);
                Ok(Expected { fresh, cached })
            })
            .collect()
    }

    pub fn matches(&self, reply: &str) -> bool {
        reply == self.fresh || reply == self.cached
    }

    /// `reply` without this request's reply at its start, if it starts
    /// with one.
    fn strip_from<'r>(&self, reply: &'r str) -> Option<&'r str> {
        reply
            .strip_prefix(self.fresh.as_str())
            .or_else(|| reply.strip_prefix(self.cached.as_str()))
    }
}

/// Whether `reply` is the right reply to `frame`: for a `batch` frame, the
/// batch envelope around each request's own reply, in order.
pub fn frame_matches(expected: &[Expected], frame: &Frame, reply: &str) -> bool {
    if !frame.batched {
        return expected[frame.items[0]].matches(reply);
    }
    let envelope = format!(
        "{{\"ok\":true,\"command\":\"batch\",\"count\":{},\"replies\":[",
        frame.items.len()
    );
    let Some(mut rest) = reply.strip_prefix(envelope.as_str()) else {
        return false;
    };
    for (k, &i) in frame.items.iter().enumerate() {
        if k > 0 {
            let Some(r) = rest.strip_prefix(',') else {
                return false;
            };
            rest = r;
        }
        let Some(r) = expected[i].strip_from(rest) else {
            return false;
        };
        rest = r;
    }
    rest == "]}"
}

/// The start of a reply, for error messages.
pub fn preview(reply: &str) -> String {
    reply.chars().take(240).collect()
}

/// Request counts of one load run.
#[derive(Default)]
pub struct Tally {
    /// Requests sent inside the measured window.
    pub attempted: u64,
    /// Of those, the ones without a reply equal to the reference.
    pub failed: u64,
    /// Frames without a reply equal to the reference over the whole run,
    /// warm-up included.
    pub errors: u64,
}

/// A frame answered correctly inside the measured window.
pub struct Sample {
    /// When it was sent, from the window's start.
    pub sent_at: Duration,
    /// Its round trip.
    pub rtt: Duration,
    /// The requests it carried.
    pub requests: u64,
}

pub struct LoadRun {
    pub samples: Vec<Sample>,
    pub tally: Tally,
    /// The client's spans when the run is traced.
    pub tracer: Option<Tracer>,
}

/// Runs the closed loop over `frames`, cycling: `warmup` unmeasured, then
/// `window` measured.
pub fn closed_loop(
    addr: &str,
    frames: &[Frame],
    expected: &[Expected],
    warmup: Duration,
    window: Duration,
    traced: bool,
) -> LoadRun {
    let origin = Instant::now();
    let measure_from = origin + warmup;
    let until = measure_from + window;
    let mut conn: Option<Client> = None;
    let mut run = LoadRun {
        samples: Vec::new(),
        tally: Tally::default(),
        tracer: traced.then(|| Tracer::new("client", origin)),
    };
    for frame in frames.iter().cycle() {
        let sent = Instant::now();
        if sent >= until {
            break;
        }
        let span = run.tracer.as_mut().map(|t| t.enter("client.rtt", None));
        let reply = call(&mut conn, addr, &frame.payload);
        let elapsed = sent.elapsed();
        if let (Some(t), Some(span)) = (run.tracer.as_mut(), span) {
            t.exit(span);
            t.finish();
        }
        let correct = reply
            .as_ref()
            .is_ok_and(|r| frame_matches(expected, frame, r));
        if !correct {
            if run.tally.errors == 0 {
                match &reply {
                    Ok(r) => eprintln!(
                        "perfbench: reply differs from the reference: {}",
                        preview(r)
                    ),
                    Err(e) => eprintln!("perfbench: request failed: {e}"),
                }
            }
            run.tally.errors += 1;
            if reply.is_err() {
                // Pace reconnect attempts to a server that went away.
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        if sent >= measure_from {
            let requests = frame.items.len() as u64;
            run.tally.attempted += requests;
            if correct {
                run.samples.push(Sample {
                    sent_at: sent - measure_from,
                    rtt: elapsed,
                    requests,
                });
            } else {
                run.tally.failed += requests;
            }
        }
    }
    run
}

/// Sends one frame on the client's connection, connecting first if the
/// previous call left none.
fn call(conn: &mut Option<Client>, addr: &str, payload: &str) -> io::Result<String> {
    if conn.is_none() {
        *conn = Some(Client::connect(addr, IO_TIMEOUT)?);
    }
    let reply = conn.as_mut().expect("connected above").call_raw(payload);
    if reply.is_err() {
        *conn = None;
    }
    reply
}
