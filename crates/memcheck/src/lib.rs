//! A Valgrind-Memcheck-style baseline: redzone-only memory error
//! detection by **dynamic binary instrumentation**.
//!
//! The paper's principal comparator (Table 1 last column, Table 2) is
//! Valgrind Memcheck: a heavyweight DBI tool that JIT-translates the
//! binary and interposes on every memory access, tracking addressability
//! in shadow memory. This crate reproduces that *methodology* on the
//! emulator substrate:
//!
//! * the guest binary runs **uninstrumented** -- detection happens in the
//!   [`redfat_emu::Runtime::on_memory_access`] hook, exactly where a DBI
//!   tool's inserted checks would run;
//! * an object-granular shadow map (live ranges, freed ranges, redzones)
//!   classifies each heap access, giving Memcheck's redzone-only
//!   detection power: incremental overflows, underflows and
//!   use-after-free are caught, but accesses that **skip over redzones**
//!   into other live objects are not (paper Problem #1, Table 2);
//! * the JIT/dispatch overhead of DBI is modeled by a per-instruction
//!   dispatch cost ([`DBI_DISPATCH`]) plus a per-access check cost
//!   ([`SHADOW_CHECK`]), both part of the runtime's price vector
//!   (`<MemcheckRuntime as Runtime>::COST`) and calibrated to land in
//!   the ~10x regime the paper measures for Memcheck with leak checking
//!   and undef-value tracking disabled;
//! * Valgrind's documented inability to run some SPEC benchmarks
//!   (`dealII`, `zeusmp`: huge data segments, 80-bit x87) is modeled by
//!   [`MemcheckLimits`].

use redfat_elf::Image;
use redfat_emu::{
    syscalls, CostModel, Cpu, ErrorMode, HostRuntime, MemErrKind, MemoryError, Runtime,
    SyscallOutcome,
};
use redfat_vm::{layout, Vm};
use std::collections::BTreeMap;

/// Modeled cycles of DBI JIT/dispatch per guest instruction, on top of
/// the native price (EXPERIMENTS.md, "Cost-model calibration note").
pub const DBI_DISPATCH: u64 = 10;

/// Modeled cycles of the shadow-memory check per guest access, on top
/// of the native price.
pub const SHADOW_CHECK: u64 = 13;

/// Why Memcheck cannot run a given binary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NotRunnable {
    /// Data segment exceeds what Valgrind can map (documented SPEC
    /// failure for `dealII`).
    DataSegmentTooLarge(u64),
    /// The workload requires 80-bit x87 extended precision, which
    /// Valgrind truncates to 64-bit (documented SPEC failure for
    /// `zeusmp`).
    RequiresX87,
}

impl std::fmt::Display for NotRunnable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NotRunnable::DataSegmentTooLarge(sz) => {
                write!(f, "data segment of {sz} bytes exceeds Memcheck's limit")
            }
            NotRunnable::RequiresX87 => write!(f, "requires 80-bit x87 arithmetic"),
        }
    }
}

/// Modeled environmental limits of the Memcheck baseline.
#[derive(Debug, Clone, Copy)]
pub struct MemcheckLimits {
    /// Largest total data-segment size Memcheck will map.
    pub max_data_segment: u64,
}

impl Default for MemcheckLimits {
    fn default() -> MemcheckLimits {
        MemcheckLimits {
            max_data_segment: 32 << 20,
        }
    }
}

impl MemcheckLimits {
    /// Checks whether `image` is runnable under the modeled limits.
    ///
    /// `requires_x87` is workload-provenance metadata: this reproduction's
    /// ISA subset has no x87, so the flag records which synthetic SPEC
    /// stand-ins correspond to x87-dependent originals.
    pub fn check(&self, image: &Image, requires_x87: bool) -> Result<(), NotRunnable> {
        if requires_x87 {
            return Err(NotRunnable::RequiresX87);
        }
        let data: u64 = image
            .segments
            .iter()
            .filter(|s| !s.flags.executable())
            .map(|s| s.mem_size)
            .sum();
        if data > self.max_data_segment {
            return Err(NotRunnable::DataSegmentTooLarge(data));
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ObjState {
    Live { size: u64 },
    Freed { size: u64 },
}

/// The Memcheck-style runtime: delegates services to the standard host
/// runtime, maintains an object-granular shadow map, and checks every
/// guest memory access.
pub struct MemcheckRuntime {
    /// Underlying service runtime (allocator, IO).
    pub inner: HostRuntime,
    /// Shadow map: user pointer → object state.
    objects: BTreeMap<u64, ObjState>,
    /// Detected errors.
    pub errors: Vec<MemoryError>,
    /// Abort or log.
    pub mode: ErrorMode,
    /// Pending abort (set by the access hook, surfaced at the next
    /// syscall-like boundary via `take_fatal`).
    fatal: Option<MemoryError>,
}

impl MemcheckRuntime {
    /// Creates the runtime.
    pub fn new(mode: ErrorMode) -> MemcheckRuntime {
        MemcheckRuntime {
            inner: HostRuntime::new(ErrorMode::Log),
            objects: BTreeMap::new(),
            errors: Vec::new(),
            mode,
            fatal: None,
        }
    }

    /// Sets the guest input queue.
    pub fn with_input(mut self, input: Vec<i64>) -> MemcheckRuntime {
        self.inner = self.inner.with_input(input);
        self
    }

    /// Takes the fatal error recorded by the access hook, if any.
    pub fn take_fatal(&mut self) -> Option<MemoryError> {
        self.fatal.take()
    }

    /// Leak check (the `--leak-check` feature the paper disables for its
    /// fair-comparison runs): objects still live at this point, as
    /// `(user_ptr, size)` pairs in address order.
    pub fn leaked(&self) -> Vec<(u64, u64)> {
        self.objects
            .iter()
            .filter_map(|(&ptr, st)| match st {
                ObjState::Live { size } => Some((ptr, *size)),
                ObjState::Freed { .. } => None,
            })
            .collect()
    }

    /// Classifies a heap access. Returns the detected error kind, if any.
    fn classify(&self, addr: u64, len: u8) -> Option<MemErrKind> {
        // Only heap addresses are shadow-tracked.
        if addr < layout::heap_start() || addr >= layout::heap_end() {
            return None;
        }
        // Find the nearest object at or below addr.
        let (&user, state) = self.objects.range(..=addr).next_back()?;
        match *state {
            ObjState::Live { size } => {
                if addr + len as u64 <= user + size {
                    None // in bounds
                } else if addr < user + size {
                    // Straddles the end: partial overflow.
                    Some(MemErrKind::Bounds)
                } else {
                    // Past the object: redzone / padding / gap, *unless*
                    // it falls inside another live object (the skip case
                    // Memcheck cannot see) -- handled by the range lookup
                    // having picked this object only if no closer one
                    // exists. If the address belongs to no object's
                    // accessible range it is unaddressable.
                    Some(MemErrKind::Bounds)
                }
            }
            ObjState::Freed { size } => {
                if addr < user + size {
                    Some(MemErrKind::UseAfterFree)
                } else {
                    Some(MemErrKind::Bounds)
                }
            }
        }
    }
}

impl Runtime for MemcheckRuntime {
    // Every access is classified through the hook: the fast tier must
    // not elide it.
    const OBSERVES_MEMORY: bool = true;

    const COST: CostModel = CostModel {
        base: CostModel::NATIVE.base + DBI_DISPATCH,
        mem: CostModel::NATIVE.mem + SHADOW_CHECK,
        ..CostModel::NATIVE
    };

    fn on_load(&mut self, vm: &mut Vm) {
        self.inner.on_load(vm);
    }

    fn syscall(&mut self, cpu: &mut Cpu, vm: &mut Vm) -> SyscallOutcome {
        use redfat_x86::Reg::{Rax, Rdi, Rsi};
        // Surface a fatal access error at the next runtime boundary.
        if self.mode == ErrorMode::Abort {
            if let Some(e) = self.fatal.take() {
                return SyscallOutcome::Abort(e);
            }
        }
        let nr = cpu.get(Rax);
        let size_arg = cpu.get(Rdi);
        let calloc_sz = cpu.get(Rdi).wrapping_mul(cpu.get(Rsi));
        let realloc_ptr = cpu.get(Rdi);
        let realloc_sz = cpu.get(Rsi);
        let outcome = self.inner.syscall(cpu, vm);

        // Snoop allocator traffic to maintain the shadow map.
        match nr {
            syscalls::MALLOC => {
                let ptr = cpu.get(Rax);
                if ptr != 0 {
                    self.objects.insert(ptr, ObjState::Live { size: size_arg });
                }
            }
            syscalls::CALLOC => {
                let ptr = cpu.get(Rax);
                if ptr != 0 {
                    self.objects.insert(ptr, ObjState::Live { size: calloc_sz });
                }
            }
            syscalls::REALLOC => {
                let ptr = cpu.get(Rax);
                if realloc_ptr != 0 {
                    if let Some(ObjState::Live { size }) = self.objects.get(&realloc_ptr).copied() {
                        self.objects.insert(realloc_ptr, ObjState::Freed { size });
                    }
                }
                if ptr != 0 {
                    self.objects
                        .insert(ptr, ObjState::Live { size: realloc_sz });
                }
            }
            syscalls::FREE => {
                let ptr = size_arg;
                if let Some(ObjState::Live { size }) = self.objects.get(&ptr).copied() {
                    self.objects.insert(ptr, ObjState::Freed { size });
                }
            }
            _ => {}
        }
        outcome
    }

    fn on_memory_access(
        &mut self,
        _vm: &Vm,
        addr: u64,
        len: u8,
        is_write: bool,
        rip: u64,
    ) -> Result<(), MemoryError> {
        if let Some(kind) = self.classify(addr, len) {
            let err = MemoryError {
                site: rip,
                kind,
                is_write,
            };
            self.errors.push(err);
            if self.mode == ErrorMode::Abort && self.fatal.is_none() {
                self.fatal = Some(err);
                // Veto the access entirely in abort mode.
                return Err(err);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redfat_elf::{ImageKind, SegFlags, Segment};
    use redfat_emu::{Emu, RunResult};
    use redfat_x86::{Asm, Mem, Reg, Width};

    fn build_image(f: impl FnOnce(&mut Asm)) -> Image {
        let mut a = Asm::new(layout::CODE_BASE);
        f(&mut a);
        let p = a.finish().unwrap();
        Image {
            kind: ImageKind::Exec,
            entry: layout::CODE_BASE,
            segments: vec![Segment::new(p.base, SegFlags::RX, p.bytes)],
            symbols: vec![],
        }
    }

    fn sys(a: &mut Asm, nr: u64) {
        a.mov_ri(Width::W64, Reg::Rax, nr as i64);
        a.syscall();
    }

    fn run(img: &Image, input: Vec<i64>) -> (RunResult, Vec<MemoryError>) {
        let rt = MemcheckRuntime::new(ErrorMode::Abort).with_input(input);
        let mut emu = Emu::load_image(img, rt).expect("loads");
        let r = emu.run(1_000_000);
        (r, emu.runtime.errors.clone())
    }

    fn indexed_store(a: &mut Asm) {
        a.mov_ri(Width::W64, Reg::Rdi, 40);
        sys(a, syscalls::MALLOC);
        a.mov_rr(Width::W64, Reg::Rbx, Reg::Rax);
        sys(a, syscalls::READ_INT);
        a.mov_ri(Width::W64, Reg::Rcx, 1);
        a.mov_mr(Width::W64, Mem::bis(Reg::Rbx, Reg::Rax, 8, 0), Reg::Rcx);
        a.mov_ri(Width::W64, Reg::Rdi, 0);
        sys(a, syscalls::EXIT);
    }

    #[test]
    fn clean_access_passes() {
        let img = build_image(indexed_store);
        let (r, errors) = run(&img, vec![2]);
        assert_eq!(r, RunResult::Exited(0));
        assert!(errors.is_empty());
    }

    #[test]
    fn incremental_overflow_detected() {
        let img = build_image(indexed_store);
        // Index 5: just past the 40-byte object.
        let (r, _) = run(&img, vec![5]);
        assert!(matches!(r, RunResult::MemoryError(_)), "got {r:?}");
    }

    #[test]
    fn skip_over_redzone_missed() {
        // Two adjacent objects; a store from the first into the second's
        // user data is invisible to redzone-only checking.
        let img = build_image(|a| {
            a.mov_ri(Width::W64, Reg::Rdi, 40);
            sys(a, syscalls::MALLOC);
            a.mov_rr(Width::W64, Reg::Rbx, Reg::Rax);
            a.mov_ri(Width::W64, Reg::Rdi, 40);
            sys(a, syscalls::MALLOC);
            sys(a, syscalls::READ_INT);
            a.mov_ri(Width::W64, Reg::Rcx, 1);
            a.mov_mr(Width::W64, Mem::bis(Reg::Rbx, Reg::Rax, 8, 0), Reg::Rcx);
            a.mov_ri(Width::W64, Reg::Rdi, 0);
            sys(a, syscalls::EXIT);
        });
        // idx 10: 16 + 80 = 96 past the first base → inside the second
        // object's user data (objects 64 bytes apart, user at +80).
        let (r, errors) = run(&img, vec![10]);
        assert_eq!(r, RunResult::Exited(0), "Memcheck misses the skip");
        assert!(errors.is_empty());
    }

    #[test]
    fn use_after_free_detected() {
        let img = build_image(|a| {
            a.mov_ri(Width::W64, Reg::Rdi, 40);
            sys(a, syscalls::MALLOC);
            a.mov_rr(Width::W64, Reg::Rbx, Reg::Rax);
            a.mov_rr(Width::W64, Reg::Rdi, Reg::Rbx);
            sys(a, syscalls::FREE);
            a.mov_rm(Width::W64, Reg::Rcx, Mem::base(Reg::Rbx));
            a.mov_ri(Width::W64, Reg::Rdi, 0);
            sys(a, syscalls::EXIT);
        });
        let (r, errors) = run(&img, vec![]);
        let err = match r {
            RunResult::MemoryError(e) => e,
            other => panic!("expected UAF, got {other:?} ({errors:?})"),
        };
        assert_eq!(err.kind, MemErrKind::UseAfterFree);
    }

    #[test]
    fn dbi_overhead_is_charged() {
        // A heap store and load, and a stack push and pop.
        let img = build_image(|a| {
            a.mov_ri(Width::W64, Reg::Rdi, 40);
            sys(a, syscalls::MALLOC);
            a.mov_rr(Width::W64, Reg::Rbx, Reg::Rax);
            a.mov_ri(Width::W64, Reg::Rcx, 1);
            a.mov_mr(Width::W64, Mem::base(Reg::Rbx), Reg::Rcx);
            a.mov_rm(Width::W64, Reg::Rdx, Mem::base(Reg::Rbx));
            a.push_r(Reg::Rdx);
            a.pop_r(Reg::Rcx);
            a.mov_ri(Width::W64, Reg::Rdi, 0);
            sys(a, syscalls::EXIT);
        });
        let rt = HostRuntime::new(ErrorMode::Abort);
        let mut native = Emu::load_image(&img, rt).expect("loads");
        assert_eq!(native.run(1000), RunResult::Exited(0));
        let rt = MemcheckRuntime::new(ErrorMode::Abort);
        let mut mc = Emu::load_image(&img, rt).expect("loads");
        assert_eq!(mc.run(1000), RunResult::Exited(0));
        let (n, m) = (native.counters, mc.counters);
        assert_eq!(
            n.events(),
            m.events(),
            "the same events, priced differently"
        );
        assert_eq!((n.loads, n.stores), (2, 2), "{n:?}");
        assert_eq!(
            m.cycles - n.cycles,
            10 * n.instructions + 13 * (n.loads + n.stores),
            "{n:?}"
        );
    }

    #[test]
    fn leak_check_reports_live_objects() {
        let img = build_image(|a| {
            // Two allocations; only the first is freed.
            a.mov_ri(Width::W64, Reg::Rdi, 24);
            sys(a, syscalls::MALLOC);
            a.mov_rr(Width::W64, Reg::Rbx, Reg::Rax);
            a.mov_ri(Width::W64, Reg::Rdi, 48);
            sys(a, syscalls::MALLOC);
            a.mov_rr(Width::W64, Reg::Rdi, Reg::Rbx);
            sys(a, syscalls::FREE);
            a.mov_ri(Width::W64, Reg::Rdi, 0);
            sys(a, syscalls::EXIT);
        });
        let rt = MemcheckRuntime::new(ErrorMode::Abort);
        let mut emu = Emu::load_image(&img, rt).expect("loads");
        assert_eq!(emu.run(10_000), RunResult::Exited(0));
        let leaks = emu.runtime.leaked();
        assert_eq!(leaks.len(), 1);
        assert_eq!(leaks[0].1, 48, "the 48-byte object leaked");
    }

    #[test]
    fn limits_model_nr_rows() {
        let limits = MemcheckLimits::default();
        let small = build_image(|a| a.ret());
        assert!(limits.check(&small, false).is_ok());
        assert_eq!(limits.check(&small, true), Err(NotRunnable::RequiresX87));
        let mut big = small.clone();
        big.segments.push(Segment {
            vaddr: layout::GLOBALS_BASE,
            flags: SegFlags::RW,
            data: vec![],
            mem_size: 64 << 20,
        });
        assert!(matches!(
            limits.check(&big, false),
            Err(NotRunnable::DataSegmentTooLarge(_))
        ));
    }
}
