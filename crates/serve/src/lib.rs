//! `gpp-serve`: the long-running GROPHECY++ projection service.
//!
//! Turns the one-shot CLI pipeline (calibrate → analyze → project) into a
//! concurrent offload-advisor service: clients submit `.gsk` skeletons
//! plus options over a length-prefixed TCP protocol and get back the same
//! JSON reports `grophecy::report` emits, while the server amortizes the
//! expensive parts across requests:
//!
//! * **calibration cache** — the two-point PCIe benchmark runs once per
//!   (machine, seed), not once per request;
//! * **projection memo** — an LRU keyed by (machine, seed, the parsed
//!   program's content hash, hints) makes repeated what-if queries
//!   O(hash);
//! * **frame server** — a bounded queue and worker pool, shared with
//!   `gpp-gateway`; overload gets an immediate `shed`/`busy` rejection;
//! * **metrics** — a `stats` command reports counters, cache hit rates,
//!   queue depth and p50/p99 latency;
//! * **graceful shutdown** — SIGINT/SIGTERM (or a programmatic flag)
//!   stops accepting, drains the queue, finishes in-flight requests.
//!
//! See `README.md` ("The projection service") for the wire protocol.

pub mod cache;
pub mod client;
pub mod metrics;
pub mod protocol;
pub mod server;
pub mod service;

pub use client::{backoff_delay, request_once, request_with_retries, Client, RetryBudget};
pub use protocol::{batch_response, Command, ProtocolError, Request};
pub use server::{Server, ServerHandle};
pub use service::{ServeConfig, ServiceState};
