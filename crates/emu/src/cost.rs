//! The performance cost model and execution counters.
//!
//! The experiments report *slowdown factors*: ratios of modeled cycles
//! between a hardened and a baseline run of the same workload. The
//! emulator only counts events ([`Counters`]); [`CostModel::price`]
//! turns the counts into cycles in one place, when a run returns. The
//! interesting quantities (how many check instructions execute, how many
//! trampoline jumps happen) come from the actual rewritten code, not from
//! the model.

use crate::exec::in_tramp;

/// Cycle prices, one per counted event. A runtime's prices are a
/// constant of its type ([`crate::Runtime::COST`]).
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
}

impl CostModel {
    /// Native execution: the prices of every run except DBI-style tools.
    pub const NATIVE: CostModel = CostModel {
        base: 1,
        mem: 1,
        mul: 2,
        div: 20,
        branch_taken: 1,
        transfer: 1,
        cross_region: 2,
        syscall: 40,
        int3_trap: 120,
    };

    /// Modeled cycles of the events in `c`: each count times its price.
    /// Ignores `c.cycles`.
    pub fn price(&self, c: &Counters) -> u64 {
        // Exhaustive on purpose: a new counter must get a price here.
        let Counters {
            instructions,
            cycles: _,
            loads,
            stores,
            muls,
            divs,
            taken_branches,
            transfers,
            region_crossings,
            syscalls,
            int3_traps,
        } = *c;
        instructions * self.base
            + (loads + stores) * self.mem
            + muls * self.mul
            + divs * self.div
            + taken_branches * self.branch_taken
            + transfers * self.transfer
            + region_crossings * self.cross_region
            + syscalls * self.syscall
            + int3_traps * self.int3_trap
    }
}

/// Execution counters accumulated by a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Instructions retired.
    pub instructions: u64,
    /// Modeled cycles: [`crate::Runtime::COST`] priced over the other
    /// counters, set whenever [`crate::Emu::run`] or
    /// [`crate::Emu::run_backend`] returns. Not kept up to date across
    /// bare [`crate::Emu::step`] / [`crate::Emu::step_fast`] calls.
    pub cycles: u64,
    /// Memory loads performed.
    pub loads: u64,
    /// Memory stores performed.
    pub stores: u64,
    /// Multiplies (`mul` and every `imul` form).
    pub muls: u64,
    /// Divides (`div` and `idiv`), including ones that fault.
    pub divs: u64,
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

impl Counters {
    /// Every priced event as a `(name, count)` pair, in display order
    /// (the names `redfat run --stats` prints).
    pub fn events(&self) -> [(&'static str, u64); 10] {
        // Exhaustive on purpose: a new counter must be listed here.
        let Counters {
            instructions,
            cycles: _,
            loads,
            stores,
            muls,
            divs,
            taken_branches,
            transfers,
            region_crossings,
            syscalls,
            int3_traps,
        } = *self;
        [
            ("instructions", instructions),
            ("loads", loads),
            ("stores", stores),
            ("muls", muls),
            ("divs", divs),
            ("taken-branches", taken_branches),
            ("transfers", transfers),
            ("region-crossings", region_crossings),
            ("syscalls", syscalls),
            ("int3-traps", int3_traps),
        ]
    }

    /// Counts a control transfer from `from` to `to` as a region
    /// crossing when it enters or leaves the trampoline area. Most
    /// transfers stay in one region, so the branch predicts well and
    /// skips the counter write.
    #[inline(always)]
    pub(crate) fn count_crossing(&mut self, from: u64, to: u64) {
        if in_tramp(from) != in_tramp(to) {
            self.region_crossings += 1;
        }
    }
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
    fn each_one_hot_vector_prices_at_its_event_price() {
        let m = CostModel::NATIVE;
        let one = |f: fn(&mut Counters)| {
            let mut c = Counters::default();
            f(&mut c);
            c
        };
        let hots = [
            (one(|c| c.instructions = 1), m.base),
            (one(|c| c.loads = 1), m.mem),
            (one(|c| c.stores = 1), m.mem),
            (one(|c| c.muls = 1), m.mul),
            (one(|c| c.divs = 1), m.div),
            (one(|c| c.taken_branches = 1), m.branch_taken),
            (one(|c| c.transfers = 1), m.transfer),
            (one(|c| c.region_crossings = 1), m.cross_region),
            (one(|c| c.syscalls = 1), m.syscall),
            (one(|c| c.int3_traps = 1), m.int3_trap),
        ];
        assert_eq!(hots.len(), Counters::default().events().len());
        for (c, price) in hots {
            let named: Vec<_> = c.events().into_iter().filter(|&(_, n)| n != 0).collect();
            assert_eq!(named.len(), 1, "{c:?}");
            assert_eq!(m.price(&c), price, "{}", named[0].0);
        }
    }

    #[test]
    fn price_ignores_cycles() {
        let c = Counters {
            instructions: 3,
            loads: 2,
            ..Counters::default()
        };
        let stale = Counters {
            cycles: 1_000_000,
            ..c
        };
        assert_eq!(CostModel::NATIVE.price(&stale), CostModel::NATIVE.price(&c));
        assert_eq!(CostModel::NATIVE.price(&c), 5);
    }

    #[test]
    fn prices_add_over_a_sum_of_vectors() {
        let a = Counters {
            instructions: 7,
            loads: 2,
            muls: 1,
            transfers: 3,
            syscalls: 1,
            ..Counters::default()
        };
        let b = Counters {
            instructions: 5,
            stores: 4,
            muls: 2,
            divs: 2,
            taken_branches: 1,
            region_crossings: 2,
            int3_traps: 1,
            ..Counters::default()
        };
        let sum = Counters {
            instructions: 12,
            cycles: 0,
            loads: 2,
            stores: 4,
            muls: 3,
            divs: 2,
            taken_branches: 1,
            transfers: 3,
            region_crossings: 2,
            syscalls: 1,
            int3_traps: 1,
        };
        let m = CostModel::NATIVE;
        assert_eq!(m.price(&sum), m.price(&a) + m.price(&b));
    }
}
