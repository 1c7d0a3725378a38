//! Dynamic memory-access mix probe: classifies every guest access as
//! stack / heap / other. The stack share bounds what check elimination
//! can remove (Table 1, unopt vs +elim).

use redfat_emu::{Cpu, Emu, ErrorMode, HostRuntime, MemoryError, Runtime, SyscallOutcome};
use redfat_vm::{layout, Vm};
use redfat_workloads::spec;

struct Classify {
    inner: HostRuntime,
    stack: u64,
    heap: u64,
    other: u64,
}

impl Runtime for Classify {
    // Accesses are bucketed through the hook.
    const OBSERVES_MEMORY: bool = true;

    fn on_load(&mut self, vm: &mut Vm) {
        self.inner.on_load(vm);
    }
    fn syscall(&mut self, cpu: &mut Cpu, vm: &mut Vm) -> SyscallOutcome {
        self.inner.syscall(cpu, vm)
    }
    fn on_memory_access(
        &mut self,
        _vm: &Vm,
        addr: u64,
        _len: u8,
        _w: bool,
        _rip: u64,
    ) -> Result<(), MemoryError> {
        if addr >= layout::heap_start() {
            self.heap += 1;
        } else if addr > layout::STACK_TOP - layout::STACK_SIZE {
            self.stack += 1;
        } else {
            self.other += 1;
        }
        Ok(())
    }
}

fn main() {
    println!(
        "{:<12} {:>7} {:>7} {:>7} {:>12} {:>12}",
        "benchmark", "stack", "heap", "other", "instructions", "accesses"
    );
    for wl in spec::all() {
        let rt = Classify {
            inner: HostRuntime::new(ErrorMode::Log).with_input(wl.ref_input.clone()),
            stack: 0,
            heap: 0,
            other: 0,
        };
        let mut emu = Emu::load_image(&wl.image(), rt).expect("loads");
        let _ = emu.run(u64::MAX);
        let r = &emu.runtime;
        let total = (r.stack + r.heap + r.other) as f64;
        println!(
            "{:<12} {:>6.1}% {:>6.1}% {:>6.1}% {:>12} {:>12}",
            wl.name,
            100.0 * r.stack as f64 / total,
            100.0 * r.heap as f64 / total,
            100.0 * r.other as f64 / total,
            emu.counters.instructions,
            total as u64
        );
    }
}
