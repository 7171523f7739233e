//! campaignd — the durable front-end the campaign runners were missing.
//!
//! The paper's full attack/defense matrix needs campaigns to run as a
//! long-lived *service*, not one-shot `cargo bench` invocations — and a
//! service driving millions of safety-critical simulations must itself
//! survive worker panics, slow clients, overload, and whole-process
//! restarts without losing or corrupting a single cell. The daemon is
//! therefore built robustness-first:
//!
//! * **Bounded queue, explicit backpressure** — `POST /jobs` either
//!   enqueues (202) or sheds load (429 + `Retry-After`) while the queue is
//!   at capacity; memory use is bounded by construction, not by hope.
//! * **Supervision** ([`supervisor`]) — cells execute through
//!   [`platform::pool::catch_cell`]'s per-cell panic capture; a
//!   panicked cell is retried with deterministic exponential backoff and,
//!   past the attempt budget, quarantined so one pathological seed cannot
//!   wedge the campaign. Per-job wall-clock deadlines bound runaway jobs.
//! * **Checkpoint/resume** ([`checkpoint`]) — every completed cell is
//!   appended to a write-ahead log keyed by the campaign's seed mix and
//!   fsync'd per chunk; `campaignd --resume` replays the job manifest and
//!   recomputes only the missing cells. The chaos test asserts the final
//!   report is byte-identical to an undisturbed run.
//! * **Hardened HTTP** ([`http`]) — a hand-rolled incremental HTTP/1.1
//!   parser over `std::net` (the offline, std-only build rules out tokio):
//!   read timeouts, header/body caps, Slowloris-resistant accumulation
//!   deadlines, pipelining, and graceful drain on `POST /shutdown`.
//!
//! Everything is `std`-only; determinism comes from the platform layer
//! (seed mixing, plan-order aggregation), robustness from this one.

#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod http;
pub mod server;
pub mod spec;
pub mod supervisor;
pub mod wire;
