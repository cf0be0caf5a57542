//! rtdc-serve: a concurrent build-and-run daemon for the rtdc toolchain.
//!
//! The batch CLI rebuilds every image it touches. This crate turns the
//! toolchain into a *service*: a daemon that accepts newline-delimited
//! JSON requests (`build` / `run` / `trace` / `plan` / `stats`) over a
//! Unix domain socket, multiplexes independent [`rtdc_sim::Machine`]
//! instances across a worker pool, and serves repeated builds from a
//! **content-addressed image cache** keyed by
//! `(benchmark, scheme label, plan digest)`.
//!
//! The cache leans on two invariants the rest of the workspace already
//! maintains:
//!
//! * [`CompressionPlan::digest`] covers exactly the decisions that
//!   determine image bytes (scheme, handler variant, per-procedure
//!   placement) and nothing else — so equal digests mean equal images,
//!   and the digest is a sound cache key.
//! * Every [`MemoryImage`] is sealed with per-segment CRCs
//!   ([PR 5's integrity machinery]) — so a cache hit can be *proven*
//!   fresh by re-verifying, and a poisoned entry is rejected and
//!   rebuilt rather than served.
//!
//! Correctness under concurrency is the point, and it is tested, not
//! assumed: the battery in `tests/` drives real sockets with racing
//! clients and asserts byte-identical responses against the serial
//! path, rejection of in-place cache corruption, exact counter
//! reconciliation under LRU pressure, and typed errors (never a panic,
//! never a wedged pool) for arbitrary malformed input.
//!
//! [`CompressionPlan::digest`]: rtdc::plan::CompressionPlan::digest
//! [`MemoryImage`]: rtdc::image::MemoryImage
//! [PR 5's integrity machinery]: rtdc::integrity

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod pool;
pub mod protocol;
pub mod server;
pub mod store;

/// The workspace's JSON codec, shared with the trace reader and
/// `benchguard`; the protocol parses and renders every line through it.
pub use rtdc_sim::json;
