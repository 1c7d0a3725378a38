//! The guest/runtime interface: syscall numbers, the [`Runtime`] trait,
//! and the standard [`HostRuntime`] backed by the RedFat heap.
//!
//! Guest binaries reach the runtime through small `syscall` stubs (the
//! reproduction's PLT): function number in `rax`, arguments in
//! `rdi`/`rsi`/`rdx`, result in `rax`. Swapping the [`Runtime`]
//! implementation under an *unmodified* guest binary is the analogue of
//! the paper's `LD_PRELOAD` trick for replacing `malloc`.

use crate::cost::CostModel;
use crate::cpu::Cpu;
use redfat_lowfat::{AllocError, LowFatConfig, RedFatHeap};
use redfat_vm::Vm;
use std::collections::{HashMap, VecDeque};

/// Syscall function numbers (in `rax` at the `syscall` instruction).
pub mod syscalls {
    /// `exit(code)`: terminate the guest.
    pub const EXIT: u64 = 0;
    /// `malloc(size) -> ptr`.
    pub const MALLOC: u64 = 1;
    /// `free(ptr)`.
    pub const FREE: u64 = 2;
    /// `calloc(count, elem) -> ptr`.
    pub const CALLOC: u64 = 3;
    /// `realloc(ptr, size) -> ptr`.
    pub const REALLOC: u64 = 4;
    /// `print_int(v)`: append to the integer output stream.
    pub const PRINT_INT: u64 = 5;
    /// `print_char(c)`: append to the byte output stream.
    pub const PRINT_CHAR: u64 = 6;
    /// `read_int() -> (rax=value, rdx=1)` or `(0, rdx=0)` at EOF.
    pub const READ_INT: u64 = 7;
    /// `memory_error(site, kind_bits)`: raised by RedFat instrumentation.
    pub const MEMORY_ERROR: u64 = 8;
    /// `profile_event(site, passed)`: raised by profiling instrumentation.
    pub const PROFILE_EVENT: u64 = 9;
}

/// What a memory-error report means.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemErrKind {
    /// Out-of-bounds (includes redzone hits and, under the merged check,
    /// use-after-free: `SIZE == 0` fails the bounds test).
    Bounds,
    /// Metadata hardening failure (`SIZE > size(BASE) - 16`).
    Metadata,
    /// Use-after-free reported distinctly (unmerged check variant).
    UseAfterFree,
    /// A `free` of an object that is already free, rejected by the
    /// allocator.
    DoubleFree,
    /// A `free` of a pointer that is no allocation's base, rejected by
    /// the allocator.
    InvalidFree,
}

/// A guest memory error detected by instrumentation or by the
/// allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryError {
    /// Instrumentation site identifier (the patched instruction
    /// address); for a bad free, the address of the `syscall` that asked
    /// for it.
    pub site: u64,
    /// Error classification.
    pub kind: MemErrKind,
    /// Whether the offending access was a write (a free writes the
    /// object's metadata).
    pub is_write: bool,
}

impl std::fmt::Display for MemoryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "memory error at site {:#x}: {:?} ({})",
            self.site,
            self.kind,
            if self.is_write { "write" } else { "read" }
        )
    }
}

/// How the runtime reacts to a reported memory error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorMode {
    /// Abort execution (hardening deployments).
    Abort,
    /// Log and continue (bug-finding / testing deployments).
    Log,
}

/// Guest I/O state: an input queue and output streams.
#[derive(Debug, Clone, Default)]
pub struct GuestIo {
    /// Pending integer inputs for `read_int`.
    pub input: VecDeque<i64>,
    /// Integers printed via `print_int`.
    pub out_ints: Vec<i64>,
    /// Bytes printed via `print_char`.
    pub out_bytes: Vec<u8>,
}

impl GuestIo {
    /// Builds I/O state with the given input queue.
    pub fn with_input(input: Vec<i64>) -> GuestIo {
        GuestIo {
            input: input.into(),
            ..GuestIo::default()
        }
    }

    /// A stable digest of all output, used to assert that rewriting
    /// preserves program behavior.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a
        let mut feed = |b: u8| {
            h ^= b as u64;
            h = h.wrapping_mul(0x1_0000_01B3);
        };
        for v in &self.out_ints {
            for b in v.to_le_bytes() {
                feed(b);
            }
        }
        for &b in &self.out_bytes {
            feed(b);
        }
        h
    }
}

/// Per-site profiling counters collected during the profiling phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProfileStats {
    /// Times the site's LowFat check passed.
    pub passes: u64,
    /// Times the site's LowFat check failed (candidate false positive).
    pub fails: u64,
}

/// Result of a syscall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyscallOutcome {
    /// Continue execution.
    Continue,
    /// Guest exited with a status code.
    Exit(i64),
    /// Execution aborted on a memory error (hardening mode).
    Abort(MemoryError),
}

/// The runtime services a guest can reach.
pub trait Runtime {
    /// Whether [`Runtime::on_memory_access`] actually observes guest
    /// accesses. Consulted at compile time by the translated execution
    /// tier ([`crate::ExecBackend::Fast`]), whose memory paths dispatch
    /// no hook at all. `false` -- the default -- is correct for the
    /// stock [`HostRuntime`], whose instrumentation reports errors
    /// through syscalls rather than the hook. Any implementation that
    /// overrides [`Runtime::on_memory_access`] MUST set this to `true`;
    /// such runtimes then run on the step interpreter even when the
    /// fast tier is selected ([`crate::Emu::run_backend`] calls
    /// [`crate::Emu::run`], and `step_fast` retires one `step()`), so
    /// every access dispatches the hook in program order.
    const OBSERVES_MEMORY: bool = false;

    /// The cycle prices of a run under this runtime, applied by
    /// [`crate::Emu::run`] and [`crate::Emu::run_backend`] when they
    /// return. DBI-style tools override it with their dispatch and
    /// access-check costs.
    const COST: CostModel = CostModel::NATIVE;

    /// Called once after the image is loaded, before execution.
    fn on_load(&mut self, vm: &mut Vm);

    /// Handles a `syscall` trap. Function number in `rax`.
    fn syscall(&mut self, cpu: &mut Cpu, vm: &mut Vm) -> SyscallOutcome;

    /// Observes (and may veto) every guest memory access.
    ///
    /// Returns a detected error to veto the access. The default is
    /// permissive; DBI-style tools (Memcheck baseline) override it and
    /// price the check through [`Runtime::COST`].
    fn on_memory_access(
        &mut self,
        _vm: &Vm,
        _addr: u64,
        _len: u8,
        _is_write: bool,
        _rip: u64,
    ) -> Result<(), MemoryError> {
        Ok(())
    }
}

/// The standard runtime: RedFat heap (low-fat allocator + redzones),
/// guest I/O, memory-error collection and profiling support.
pub struct HostRuntime {
    /// The guest heap.
    pub heap: RedFatHeap,
    /// Guest I/O streams.
    pub io: GuestIo,
    /// Reaction to memory errors.
    pub error_mode: ErrorMode,
    /// Memory errors reported by instrumentation or by the allocator
    /// (all of them in `Log` mode; the fatal one in `Abort` mode).
    pub errors: Vec<MemoryError>,
    /// Profiling counters by site (populated by profiling binaries).
    pub profile: HashMap<u64, ProfileStats>,
}

impl HostRuntime {
    /// Creates a runtime with the default low-fat configuration.
    pub fn new(error_mode: ErrorMode) -> HostRuntime {
        HostRuntime::with_config(error_mode, LowFatConfig::default())
    }

    /// Creates a runtime whose heap is backed by the given allocator
    /// policy (default low-fat configuration otherwise).
    pub fn with_policy(
        error_mode: ErrorMode,
        policy: redfat_lowfat::AllocPolicyKind,
    ) -> HostRuntime {
        HostRuntime::with_config(
            error_mode,
            LowFatConfig {
                policy,
                ..LowFatConfig::default()
            },
        )
    }

    /// Creates a runtime with a custom allocator configuration.
    pub fn with_config(error_mode: ErrorMode, config: LowFatConfig) -> HostRuntime {
        HostRuntime {
            heap: RedFatHeap::new(config),
            io: GuestIo::default(),
            error_mode,
            errors: Vec::new(),
            profile: HashMap::new(),
        }
    }

    /// Sets the input queue.
    pub fn with_input(mut self, input: Vec<i64>) -> HostRuntime {
        self.io = GuestIo::with_input(input);
        self
    }

    fn decode_error(cpu: &Cpu) -> MemoryError {
        let site = cpu.get(redfat_x86::Reg::Rdi);
        let bits = cpu.get(redfat_x86::Reg::Rsi);
        let is_write = bits & 1 != 0;
        let kind = match bits >> 1 {
            1 => MemErrKind::Metadata,
            2 => MemErrKind::UseAfterFree,
            _ => MemErrKind::Bounds,
        };
        MemoryError {
            site,
            kind,
            is_write,
        }
    }

    /// Records `err`, and ends the guest with it in `Abort` mode.
    fn report(&mut self, err: MemoryError) -> SyscallOutcome {
        self.errors.push(err);
        match self.error_mode {
            ErrorMode::Abort => SyscallOutcome::Abort(err),
            ErrorMode::Log => SyscallOutcome::Continue,
        }
    }
}

impl Runtime for HostRuntime {
    fn on_load(&mut self, vm: &mut Vm) {
        self.heap.install(vm);
    }

    fn syscall(&mut self, cpu: &mut Cpu, vm: &mut Vm) -> SyscallOutcome {
        use redfat_x86::Reg::{Rax, Rdi, Rdx, Rsi};
        let nr = cpu.get(Rax);
        match nr {
            syscalls::EXIT => return SyscallOutcome::Exit(cpu.get(Rdi) as i64),
            syscalls::MALLOC => {
                let size = cpu.get(Rdi);
                match self.heap.malloc(vm, size) {
                    Ok(p) => cpu.set(Rax, p),
                    Err(_) => cpu.set(Rax, 0),
                }
            }
            syscalls::FREE => {
                // A free the allocator rejects leaves the heap as it was
                // and is a memory error of its own, at the `syscall`
                // (2 bytes, and `rip` is past it): it ends the guest in
                // Abort mode, as the paper's runtime aborts.
                let ptr = cpu.get(Rdi);
                cpu.set(Rax, 0);
                if ptr != 0 {
                    if let Err(e) = self.heap.free(vm, ptr) {
                        let kind = match e {
                            AllocError::DoubleFree(_) => MemErrKind::DoubleFree,
                            _ => MemErrKind::InvalidFree,
                        };
                        return self.report(MemoryError {
                            site: cpu.rip.wrapping_sub(2),
                            kind,
                            is_write: true,
                        });
                    }
                }
            }
            syscalls::CALLOC => {
                let (c, e) = (cpu.get(Rdi), cpu.get(Rsi));
                match self.heap.calloc(vm, c, e) {
                    Ok(p) => cpu.set(Rax, p),
                    Err(_) => cpu.set(Rax, 0),
                }
            }
            syscalls::REALLOC => {
                let (p, s) = (cpu.get(Rdi), cpu.get(Rsi));
                match self.heap.realloc(vm, p, s) {
                    Ok(p) => cpu.set(Rax, p),
                    Err(_) => cpu.set(Rax, 0),
                }
            }
            syscalls::PRINT_INT => {
                self.io.out_ints.push(cpu.get(Rdi) as i64);
                cpu.set(Rax, 0);
            }
            syscalls::PRINT_CHAR => {
                self.io.out_bytes.push(cpu.get(Rdi) as u8);
                cpu.set(Rax, 0);
            }
            syscalls::READ_INT => match self.io.input.pop_front() {
                Some(v) => {
                    cpu.set(Rax, v as u64);
                    cpu.set(Rdx, 1);
                }
                None => {
                    cpu.set(Rax, 0);
                    cpu.set(Rdx, 0);
                }
            },
            syscalls::MEMORY_ERROR => {
                cpu.set(Rax, 0);
                return self.report(Self::decode_error(cpu));
            }
            syscalls::PROFILE_EVENT => {
                let site = cpu.get(Rdi);
                let passed = cpu.get(Rsi) != 0;
                let entry = self.profile.entry(site).or_default();
                if passed {
                    entry.passes += 1;
                } else {
                    entry.fails += 1;
                }
                cpu.set(Rax, 0);
            }
            _ => {
                // Unknown syscall: report as exit with a distinctive code
                // rather than panicking the host.
                return SyscallOutcome::Exit(-0x515);
            }
        }
        SyscallOutcome::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_digest_distinguishes_outputs() {
        let mut a = GuestIo::default();
        let mut b = GuestIo::default();
        a.out_ints.push(1);
        b.out_ints.push(2);
        assert_ne!(a.digest(), b.digest());
        let mut c = GuestIo::default();
        c.out_ints.push(1);
        assert_eq!(a.digest(), c.digest());
    }

    #[test]
    fn error_decoding() {
        let mut cpu = Cpu::default();
        cpu.set(redfat_x86::Reg::Rdi, 0x401234);
        cpu.set(redfat_x86::Reg::Rsi, 0b11); // metadata | write
        let e = HostRuntime::decode_error(&cpu);
        assert_eq!(e.site, 0x401234);
        assert_eq!(e.kind, MemErrKind::Metadata);
        assert!(e.is_write);
    }
}
