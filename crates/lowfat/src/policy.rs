//! The allocator-policy selector and the slot contract both policies keep.
//!
//! The paper's red-zone + low-fat heap is one slot allocator
//! (`alloc.rs`); [`AllocPolicyKind`] picks only where its slots come
//! from -- the paper's bump-or-reuse, or the randomized window after
//! Fully Randomized Pointers (PAPERS.md). Both keep the same contract
//! with the rest of the system, so the check emitter, the runtime hooks
//! and the oracle need not know which one runs (DESIGN.md §14).
//!
//! # What the emitted checks may assume
//!
//! The Figure-4 check sequence is compiled once and is *policy
//! independent*: it derives `base(ptr)` from the SIZES/MAGICS tables and
//! reads one metadata word at the object base. So for every object the
//! heap hands out, under either policy:
//!
//! 1. **Slot discipline.** The object occupies one *slot* -- a
//!    class-size-aligned chunk of the class's 32 GiB region -- so
//!    `lowfat_base(p)` computed by the table lookup lands on the slot
//!    base for any `p` inside the slot.
//! 2. **In-band metadata.** The `u64` at `base+0` holds the object's
//!    user *extent* `E`: user bytes live in `[base+16+delta,
//!    base+16+delta+size)` with `E = delta + size`, `E == 0` encodes
//!    Free (the §4.2 merged state), and `E <= class_size - 16` (the
//!    size-hardening bound). The word at `base+8` is the canary.
//! 3. **Readable guards.** Metadata reads issued by checks for stray
//!    pointers near the object (adjacent slots, region head/tail) see
//!    zeroed memory, never a fault.
//!
//! `delta` is the *allocation offset*: the default policy always uses
//! `delta == 0` (the user pointer is `base + 16`), while the randomized
//! policy may shift the user area within the slot's padding. A non-zero
//! delta turns the first `delta` bytes after the redzone into *slack*
//! that the merged check cannot distinguish from user data -- the
//! probabilistic-detection trade-off discussed in EXPERIMENTS.md.

/// Identifies an allocator policy (the `--alloc-policy` knob).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AllocPolicyKind {
    /// The paper's deterministic bump-or-reuse slot supply.
    #[default]
    LowFat,
    /// The randomized window: random slot selection plus randomized
    /// allocation offsets (Fully Randomized Pointers style).
    RandLowFat,
}

impl AllocPolicyKind {
    /// Every registered policy.
    pub const ALL: [AllocPolicyKind; 2] = [AllocPolicyKind::LowFat, AllocPolicyKind::RandLowFat];

    /// The CLI/wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            AllocPolicyKind::LowFat => "lowfat",
            AllocPolicyKind::RandLowFat => "rand-lowfat",
        }
    }

    /// Parses the CLI spelling.
    pub fn parse(s: &str) -> Option<AllocPolicyKind> {
        AllocPolicyKind::ALL.into_iter().find(|k| k.as_str() == s)
    }
}

impl std::fmt::Display for AllocPolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_roundtrips_through_strings() {
        for kind in AllocPolicyKind::ALL {
            assert_eq!(AllocPolicyKind::parse(kind.as_str()), Some(kind));
            assert_eq!(kind.to_string(), kind.as_str());
        }
        assert_eq!(AllocPolicyKind::parse("mesh"), None);
    }

    #[test]
    fn default_kind_is_the_paper_policy() {
        assert_eq!(AllocPolicyKind::default(), AllocPolicyKind::LowFat);
    }
}
