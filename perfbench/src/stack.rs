//! The system under test as real processes on loopback ephemeral ports:
//! one `gpp serve`, or a `gpp gateway` in front of two `gpp serve`
//! shards. Dropping a [`Stack`] kills and reaps every process in it.

use crate::load::IO_TIMEOUT;
use gpp_serve::{Client, Request};
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};

/// Worker threads per server process (`--workers`).
pub const WORKERS: usize = 4;

/// `gpp serve` shards behind the gateway.
const SHARDS: usize = 2;

/// Search threads per server process (`GPP_THREADS`), fixed so the stack
/// does the same work on hosts with different core counts; one keeps the
/// search on the worker's own thread.
const SEARCH_THREADS: &str = "1";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Clients talk to `gpp serve` directly.
    Serve,
    /// Clients talk to `gpp gateway`, which forwards to the shards.
    Gateway,
}

pub struct Stack {
    pub tier: Tier,
    /// Where clients connect: the server, or the gateway.
    pub addr: String,
    /// The address of every `gpp serve` process.
    pub shards: Vec<String>,
    /// Each process with its stdout, held open so a late write cannot
    /// fail on a closed pipe.
    procs: Vec<(Child, BufReader<ChildStdout>)>,
}

impl Stack {
    /// Starts the tier's processes, each once the one before it is ready:
    /// `ready` has succeeded against a `gpp serve`, a gateway has answered
    /// a ping. Each process is first spoken to right after it prints its
    /// address, so the wait for its 10 ms accept poll is the same every
    /// time.
    pub fn start(
        gpp: &Path,
        tier: Tier,
        ready: &dyn Fn(&str) -> Result<(), String>,
    ) -> Result<Stack, String> {
        let mut stack = Stack {
            tier,
            addr: String::new(),
            shards: Vec::new(),
            procs: Vec::new(),
        };
        let workers = WORKERS.to_string();
        let servers = match tier {
            Tier::Serve => 1,
            Tier::Gateway => SHARDS,
        };
        for _ in 0..servers {
            let addr = stack.spawn(
                gpp,
                &["serve", "--addr", "127.0.0.1:0", "--workers", &workers],
            )?;
            ready(&addr)?;
            stack.shards.push(addr);
        }
        stack.addr = match tier {
            Tier::Serve => stack.shards[0].clone(),
            Tier::Gateway => stack.add_gateway(gpp)?,
        };
        Ok(stack)
    }

    /// Starts a `gpp gateway` in front of this stack's shards and returns
    /// its address once it answers a ping.
    pub fn add_gateway(&mut self, gpp: &Path) -> Result<String, String> {
        let workers = WORKERS.to_string();
        let shards = self.shards.clone();
        let mut args = vec!["gateway", "--addr", "127.0.0.1:0", "--workers", &workers];
        for shard in &shards {
            args.extend(["--shard", shard.as_str()]);
        }
        let addr = self.spawn(gpp, &args)?;
        let pong = Client::connect(addr.as_str(), IO_TIMEOUT)
            .and_then(|mut c| c.call(&Request::new(gpp_serve::Command::Ping)))
            .map_err(|e| format!("gateway ping failed: {e}"))?;
        if !pong.starts_with("{\"ok\":true") {
            return Err(format!("gateway ping answered {pong}"));
        }
        Ok(addr)
    }

    fn spawn(&mut self, gpp: &Path, args: &[&str]) -> Result<String, String> {
        let mut child = Command::new(gpp)
            .args(args)
            .env("GPP_THREADS", SEARCH_THREADS)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", gpp.display()))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        self.procs.push((child, stdout));
        let (_, stdout) = self.procs.last_mut().expect("pushed above");
        let mut line = String::new();
        loop {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    return Err(format!(
                        "`gpp {}` exited before printing its address",
                        args[0]
                    ))
                }
                Ok(_) => {
                    if let Some(addr) = line.trim_end().strip_prefix("GPP_ADDR=") {
                        return Ok(addr.to_string());
                    }
                }
            }
        }
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // The servers hold nothing worth draining: kill, then reap.
        for (child, _) in self.procs.iter_mut().rev() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}
