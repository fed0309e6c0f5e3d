//! Sweep-as-a-service: the `dgsched serve` daemon.
//!
//! A long-running process that accepts scenario-matrix requests over a
//! local socket and answers each one exactly once, no matter how many
//! times or how concurrently it is asked:
//!
//! - **Content-addressed cache** ([`cache`]): results are keyed by the
//!   128-bit sweep fingerprint and stored as the exact response bytes,
//!   so a cache hit is byte-identical to the original computation —
//!   verifiable with `cmp`, not just "equivalent".
//! - **Single-flight** ([`single_flight`]): concurrent identical
//!   requests share one sweep; followers block until the leader
//!   publishes.
//! - **Fair-share admission** ([`admission`]): distinct sweeps queue for
//!   bounded slots, granted round-robin across tenants.
//! - **Journaled execution**: every sweep runs through the replication
//!   journal, so a killed daemon loses at most one replication; the next
//!   request for the same sweep resumes from the journal on restart.
//! - **Wire protocol** ([`protocol`]): hand-rolled HTTP/1.1 over std
//!   `TcpListener` — no async runtime, blocking threads all the way
//!   down. `POST /sweep` returns the response JSON; add `?stream=1` for
//!   JSONL progress events as the sweep runs.
//!
//! `POST /oracle` (a sweep plus per-policy hindsight regret) shares the
//! whole lifecycle — cache probe, single-flight, admission, journaled
//! run, cache insert, publish — and answers with the same
//! [`SweepResponse`] shape, cached under a distinctly tagged fingerprint.
//! Its journal holds completed search restarts, so a killed daemon
//! resumes the search byte-identically; the oracle's base sweep is
//! recomputed on resume, not journaled. It has no progress events and
//! ignores `?stream=1`.

pub mod admission;
pub mod cache;
pub mod protocol;
pub mod server;
pub mod single_flight;

pub use admission::{Admission, Permit};
pub use cache::{CacheEntry, CacheLookup, ResultCache};
pub use protocol::{
    http_request, HttpResponse, OracleRequest, StreamEvent, SweepRequest, SweepResponse,
};
pub use server::{self_check, ServeConfig, Server, ServerHandle};
pub use single_flight::{FlightRole, SingleFlight};
