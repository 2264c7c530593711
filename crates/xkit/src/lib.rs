//! Zero-dependency runtime kit for the DNS-in-context workspace.
//!
//! Two small subsystems replace every external crate the workspace used
//! to pull from the registry:
//!
//! * [`rng`] — a seeded SplitMix64/Xoshiro256++ PRNG with the
//!   `Rng`/`RngExt`/`StdRng`/`SeedableRng` surface the simulator and the
//!   pairing layer previously took from `rand`, plus deterministic
//!   per-shard stream splitting ([`rng::StdRng::split`]) so parallel runs
//!   stay bit-reproducible at a fixed seed.
//! * [`par`] — scoped worker-pool helpers over `std::thread::scope` and
//!   `std::sync::Mutex`, replacing `crossbeam` + `parking_lot`.
//!
//! On top of those, [`fault`] provides a seeded deterministic fault
//! injector (drop/truncate/bit-flip/duplicate/reorder) used to prove the
//! capture pipeline degrades gracefully under hostile input, [`obs`]
//! provides the observability substrate — deterministic-merge metrics,
//! stage spans, and the workspace's single monotonic-clock seam —
//! [`collections`] provides an FxHash-backed [`collections::FastMap`]
//! for hot, never-iterated key-addressed maps, and [`bench`] holds the
//! counting allocator and JSON string escaping the repo benchmark
//! (`perfbench/`) measures with.

// `deny` rather than `forbid`: the one sanctioned exception is
// `bench::alloc`, whose `GlobalAlloc` impl is unsafe by definition of the
// trait. Every other module refuses unsafe code outright.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod collections;
pub mod fault;
pub mod obs;
pub mod par;
pub mod rng;
