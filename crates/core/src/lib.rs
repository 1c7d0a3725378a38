//! RedFat: complementary memory-error hardening for binaries.
//!
//! This crate is the paper's primary contribution -- the tool that takes
//! a (possibly stripped) binary image and produces a hardened binary in
//! which every heap-reachable memory access is guarded by the combined
//! **(Redzone)+(LowFat)** check of Figure 4, subject to the policy and
//! optimization configuration of §3, §5 and §6:
//!
//! * [`HardenConfig`] selects the optimization levels of Table 1
//!   (`unoptimized`, `+elim`, `+batch`, `+merge`, `-size`, `-reads`) and
//!   the low-fat policy (disabled / all sites / allow-list).
//! * [`harden`] runs the full pipeline: disassemble → recover CFG →
//!   plan batches → synthesize machine-code checks → trampoline rewrite.
//! * [`instrument_profile`] builds the *profiling* binary of the §5
//!   two-phase workflow; [`collect_allowlist`] turns the recorded
//!   per-site pass/fail counters into an [`AllowList`]; hardening with
//!   [`LowFatPolicy::AllowList`] closes the loop.
//! * [`analyze`] reports each memory-access site's verdict as the
//!   planner makes it under the default config (`redfat analyze`).
//! * [`run`] runs an image as a [`RunSpec`] says: on the fast execution
//!   tier unless the spec selects the step interpreter, which stays the
//!   reference that selftest's backend audit compares the tier against.
//!
//! The generated checks are real x86-64 code operating on the low-fat
//! SIZES/MAGICS tables installed by the runtime; no host-side shortcut
//! participates in detection.
// Production code must surface failures as structured errors, not
// panics: the pipeline feeds a long-running daemon. Deliberate
// exceptions carry an `allow` with a safety comment at the site.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
// The one `unsafe` block is the SHA-256 hardware dispatch in `digest`,
// which carries its own `allow` and a `SAFETY:` comment naming the
// run-time feature detection it relies on.
#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]

mod allowlist;
mod analyze;
mod checks;
mod config;
pub mod digest;
mod edit;
pub mod faults;
mod fuzz;
mod pipeline;
mod runner;
pub mod selftest;

pub use allowlist::AllowList;
pub use analyze::{analyze, AnalysisReport, SiteReport, SiteVerdict};
pub use checks::CHECK_SCRATCH_CANDIDATES;
pub use config::{HardenConfig, LowFatPolicy};
pub use digest::{sha256, Digest, Sha256, TOOL_VERSION};
pub use edit::{harden_cached, KeptBaseSlot, MemoryComponentCache};
pub use faults::{classify_bytes, fault_sweep, FaultConfig, FaultOutcome, FaultReport, Stage};
pub use fuzz::{fuzz_profile, FuzzConfig, FuzzOutcome};
pub use pipeline::{
    collect_allowlist, harden, harden_threaded, harden_with_bases, instrument_profile, ClobberInfo,
    HardenError, HardenStats, Hardened,
};
pub use redfat_emu::AllocPolicyKind;
pub use runner::{run, try_run_backend, RunOutcome, RunSpec};
