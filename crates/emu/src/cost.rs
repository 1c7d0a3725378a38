//! The performance cost model and execution counters.
//!
//! The experiments report *slowdown factors*: ratios of modeled cycles
//! between a hardened and a baseline run of the same workload. The model
//! prices instruction classes, memory traffic and control transfers; the
//! interesting quantities (how many check instructions execute, how many
//! trampoline jumps happen) come from the actual rewritten code, not from
//! the model.

/// Cycle prices for instruction classes and events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Every instruction.
    pub base: u64,
    /// Each memory access (load or store), on top of `base`.
    pub mem: u64,
    /// Extra for multiply.
    pub mul: u64,
    /// Extra for divide.
    pub div: u64,
    /// Extra for a taken conditional branch.
    pub branch_taken: u64,
    /// Extra for an unconditional control transfer (`jmp`/`call`/`ret`).
    pub transfer: u64,
    /// Extra when a control transfer crosses between the main text and
    /// the trampoline area -- the "loss of locality" cost of
    /// trampoline-based rewriting the paper's batching optimization
    /// attacks (§6, Example 2).
    pub cross_region: u64,
    /// A `syscall` trap into the runtime.
    pub syscall: u64,
    /// An `int3` trap-table dispatch (the rewriter's 1-byte fallback
    /// tactic; priced like a signal-handler round trip).
    pub int3_trap: u64,
    /// Per-instruction JIT/dispatch overhead; zero for native-style
    /// execution, positive for DBI-style tools (Memcheck baseline).
    pub dbi_dispatch: u64,
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel {
            base: 1,
            mem: 1,
            mul: 2,
            div: 20,
            branch_taken: 1,
            transfer: 1,
            cross_region: 2,
            syscall: 40,
            int3_trap: 120,
            dbi_dispatch: 0,
        }
    }
}

/// Execution counters accumulated by a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Instructions retired.
    pub instructions: u64,
    /// Modeled cycles.
    pub cycles: u64,
    /// Memory loads performed.
    pub loads: u64,
    /// Memory stores performed.
    pub stores: u64,
    /// Taken branches (conditional only).
    pub taken_branches: u64,
    /// Unconditional transfers (`jmp`/`call`/`ret`, direct or indirect).
    pub transfers: u64,
    /// Transfers that crossed the text/trampoline boundary.
    pub region_crossings: u64,
    /// Syscalls executed.
    pub syscalls: u64,
    /// `int3` trap-table dispatches.
    pub int3_traps: u64,
}

/// Observability counters for the translated execution tier
/// ([`crate::ExecBackend::Fast`]). A run on the step interpreter leaves
/// them all zero.
///
/// Deliberately *not* part of [`Counters`]: the backend lockstep oracle
/// requires `Counters` to be bit-identical between `step()` and the
/// translated tier, while cache probes, chain follows and inline-cache
/// hits are properties of the tier's machinery, not of the guest's
/// execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Block-cache probes that found an existing block.
    pub hits: u64,
    /// Block-cache probes that missed (block decoded, or the probe fell
    /// back to the step interpreter).
    pub misses: u64,
    /// Direct-exit links followed block-to-block without a cache probe.
    pub chain_follows: u64,
    /// Indirect-branch inline-cache hits (`ret`, indirect `jmp`/`call`).
    pub ic_hits: u64,
    /// Indirect-branch inline-cache misses (fell back to the probe path).
    pub ic_misses: u64,
    /// Code-segment invalidations (version bumps).
    pub invalidations: u64,
    /// Stale direct links and inline-cache entries severed after an
    /// invalidation.
    pub links_severed: u64,
}

impl std::fmt::Display for TraceStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "hits {}  misses {}  chain-follows {}  ic-hits {}  ic-misses {}  \
             invalidations {}  links-severed {}",
            self.hits,
            self.misses,
            self.chain_follows,
            self.ic_hits,
            self.ic_misses,
            self.invalidations,
            self.links_severed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_model_prices_are_sane() {
        let m = CostModel::default();
        assert!(m.base >= 1);
        assert!(m.int3_trap > m.syscall, "trap dispatch dwarfs a syscall");
        assert!(m.div > m.mul);
        assert_eq!(m.dbi_dispatch, 0, "native execution has no JIT tax");
    }
}
