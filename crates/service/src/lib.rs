//! Hardening-as-a-service: a local daemon that accepts harden /
//! analyze / profile jobs over a length-prefixed Unix-socket protocol
//! and answers them from a content-addressed artifact cache when it
//! can.
//!
//! Three layers of reuse, strongest first:
//!
//! 1. **Artifact cache** ([`artifact::ArtifactCache`]): whole-job
//!    results keyed by `(tool version, input bytes, canonical config,
//!    op)`, persisted on disk with atomic write-then-rename
//!    publication and fully verified reads. A warm hit does zero
//!    analysis.
//! 2. **In-flight dedupe** ([`server::Server`]): N concurrent
//!    identical requests cost one computation; followers wait on the
//!    leader's result and respond with [`proto::Source::Deduped`].
//! 3. **Kept base** ([`redfat_core::KeptBaseSlot`], through
//!    [`redfat_core::harden_cached`]): the disassembly, CFG leaders,
//!    roots and plans of the last image the daemon fully hardened. An
//!    input that edits that image without changing any instruction
//!    length or control flow skips the whole-image analysis and
//!    re-plans only the components it touches, with bytes identical to
//!    a one-shot harden. Every other input takes the full path, whose
//!    analysis becomes the new base.
//!
//! Correctness never depends on the caches: any verification failure
//! (truncated, bit-flipped, wrong-version entry) classifies as a miss
//! and the job recomputes.
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod artifact;
pub mod client;
pub mod proto;
pub mod server;

pub use artifact::{artifact_key, ArtifactCache, ArtifactEntry};
pub use client::Client;
pub use proto::{Op, ProtoError, Request, Response, Source};
pub use server::{render_harden_stats, Server, ServerConfig, ServerStats};
