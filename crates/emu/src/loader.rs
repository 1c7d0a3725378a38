//! Image loading: ELF segments → guest address space, stack setup, and
//! trap-table discovery.
//!
//! Loading is the first stage that commits resources to an untrusted
//! image, so everything is validated *before* the first mapping: a
//! malformed image yields a structured [`LoadError`] naming the offending
//! segment, never a panic or an abort from the [`Vm`]'s mapping asserts.

use crate::exec::Emu;
use crate::runtime::Runtime;
use redfat_elf::{Image, ImageKind, SegFlags, Segment};
use redfat_vm::{layout, Prot, Vm};
use redfat_x86::{Asm, AsmError};

/// Upper bound on the total bytes of segment memory one address space
/// will back. Well-formed workloads stay far below this; the cap exists
/// so a corrupt `p_memsz` cannot make the loader allocate the declared
/// size on the host before any guest code runs.
pub const MAX_LOAD_BYTES: u64 = 256 << 20;

/// A structured image-loading failure.
///
/// Every variant carries the guest address that identifies the offending
/// segment, so corrupt inputs are diagnosable without a debugger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// `load_images` was called with an empty image list.
    NoImages,
    /// A segment's address range wraps the 64-bit address space.
    SegmentWraps {
        /// Segment virtual address.
        vaddr: u64,
        /// Declared in-memory size.
        mem_size: u64,
    },
    /// Total segment memory exceeds [`MAX_LOAD_BYTES`].
    ImageTooLarge {
        /// Virtual address of the segment that crossed the budget.
        vaddr: u64,
        /// Total bytes requested up to and including that segment.
        requested: u64,
    },
    /// Two segments overlap in the guest address space.
    SegmentOverlap {
        /// Virtual address of the later-sorted segment.
        vaddr: u64,
        /// Virtual address of the segment it collides with.
        other: u64,
    },
    /// A segment collides with an address range the runtime reserves
    /// (guest stack, libredfat tables, or the low-fat heap regions).
    ReservedCollision {
        /// Segment virtual address.
        vaddr: u64,
        /// Name of the reserved range.
        reserved: &'static str,
    },
    /// A trap-table segment declares more entries than its data holds.
    TruncatedTrapTable {
        /// Virtual address of the trap-table segment.
        segment: u64,
        /// Entry count declared in the table header.
        declared: u64,
        /// Entries actually backed by segment data.
        available: u64,
    },
    /// Assembling a runtime stub image failed (see [`stub_image`]).
    Asm(AsmError),
}

impl From<AsmError> for LoadError {
    fn from(e: AsmError) -> LoadError {
        LoadError::Asm(e)
    }
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::NoImages => write!(f, "no images to load"),
            LoadError::SegmentWraps { vaddr, mem_size } => {
                write!(
                    f,
                    "segment at {vaddr:#x} (size {mem_size:#x}) wraps the address space"
                )
            }
            LoadError::ImageTooLarge { vaddr, requested } => {
                write!(
                    f,
                    "segment at {vaddr:#x} pushes total load size to {requested} bytes \
                     (limit {MAX_LOAD_BYTES})"
                )
            }
            LoadError::SegmentOverlap { vaddr, other } => {
                write!(f, "segment at {vaddr:#x} overlaps segment at {other:#x}")
            }
            LoadError::ReservedCollision { vaddr, reserved } => {
                write!(
                    f,
                    "segment at {vaddr:#x} collides with the reserved {reserved} range"
                )
            }
            LoadError::TruncatedTrapTable {
                segment,
                declared,
                available,
            } => {
                write!(
                    f,
                    "trap table at {segment:#x} declares {declared} entries \
                     but has data for {available}"
                )
            }
            LoadError::Asm(e) => write!(f, "stub image assembly failed: {e}"),
        }
    }
}

impl std::error::Error for LoadError {}

/// Guest address ranges the runtime maps after the image segments; an
/// image segment inside any of them would make stack setup or the
/// allocator's table installation fault.
const RESERVED: [(u64, u64, &str); 3] = [
    (
        layout::STACK_TOP - layout::STACK_SIZE,
        layout::STACK_TOP,
        "stack",
    ),
    (
        layout::RUNTIME_BASE,
        layout::SCRATCH_BASE + layout::SCRATCH_SIZE,
        "libredfat runtime",
    ),
    (layout::heap_start(), layout::heap_end(), "low-fat heap"),
];

impl<R: Runtime> Emu<R> {
    /// Loads an ELF image into a fresh address space and prepares a guest
    /// ready to run: segments mapped with their declared protections, the
    /// stack mapped, `rsp`/`rip` initialized, the runtime's `on_load`
    /// hook fired (installing allocator tables), and any rewriter trap
    /// table registered.
    pub fn load_image(image: &Image, runtime: R) -> Result<Emu<R>, LoadError> {
        Self::load_images(&[image], runtime)
    }

    /// Loads several images into one address space (e.g. a main program
    /// plus separately (un)hardened libraries, paper §7.4). Execution
    /// starts at the first image's entry point; trap tables of every
    /// image are registered.
    pub fn load_images(images: &[&Image], mut runtime: R) -> Result<Emu<R>, LoadError> {
        let image = images.first().ok_or(LoadError::NoImages)?;

        // Validate every segment before the first mapping, so a corrupt
        // image cannot trip the Vm's overlap/wrap asserts or commit host
        // memory for an absurd declared size. Zero-size segments are
        // skipped (nothing to map).
        let mut spans: Vec<(u64, u64)> = Vec::new();
        let mut total = 0u64;
        for seg in images.iter().flat_map(|img| &img.segments) {
            let size = seg.mem_size.max(seg.data.len() as u64);
            if size == 0 {
                continue;
            }
            let end = seg.vaddr.checked_add(size).ok_or(LoadError::SegmentWraps {
                vaddr: seg.vaddr,
                mem_size: size,
            })?;
            total = total.saturating_add(size);
            if total > MAX_LOAD_BYTES {
                return Err(LoadError::ImageTooLarge {
                    vaddr: seg.vaddr,
                    requested: total,
                });
            }
            for &(lo, hi, name) in &RESERVED {
                if seg.vaddr < hi && end > lo {
                    return Err(LoadError::ReservedCollision {
                        vaddr: seg.vaddr,
                        reserved: name,
                    });
                }
            }
            spans.push((seg.vaddr, end));
        }
        spans.sort_unstable();
        for w in spans.windows(2) {
            if w[1].0 < w[0].1 {
                return Err(LoadError::SegmentOverlap {
                    vaddr: w[1].0,
                    other: w[0].0,
                });
            }
        }

        // Trap tables are parsed up front too: data segments beginning
        // with the magic quadword, then a count, then (addr, target)
        // pairs. Every field is read through a bounds-checked helper:
        // a declared count the data cannot back -- including one that
        // truncates mid-entry -- is a load error naming the segment,
        // never a wild slice or a panic.
        let mut traps: Vec<(u64, u64)> = Vec::new();
        for seg in images.iter().flat_map(|img| &img.segments) {
            if seg.data.len() < 16 {
                continue;
            }
            let Some(magic) = read_u64_le(&seg.data, 0) else {
                continue;
            };
            if magic != layout::TRAP_TABLE_MAGIC {
                continue;
            }
            let available = (seg.data.len() as u64 - 16) / 16;
            let truncated = |declared| LoadError::TruncatedTrapTable {
                segment: seg.vaddr,
                declared,
                available,
            };
            let declared = read_u64_le(&seg.data, 8).ok_or_else(|| truncated(0))?;
            if declared > available {
                return Err(truncated(declared));
            }
            for i in 0..declared as usize {
                let off = 16 + i * 16;
                let addr = read_u64_le(&seg.data, off).ok_or_else(|| truncated(declared))?;
                let target = read_u64_le(&seg.data, off + 8).ok_or_else(|| truncated(declared))?;
                traps.push((addr, target));
            }
        }

        let mut vm = Vm::new();
        for (n, image) in images.iter().enumerate() {
            for (i, seg) in image.segments.iter().enumerate() {
                if seg.mem_size.max(seg.data.len() as u64) == 0 {
                    continue;
                }
                let mut prot = Prot(0);
                if seg.flags.readable() {
                    prot = prot | Prot::R;
                }
                if seg.flags.writable() {
                    prot = prot | Prot::W;
                }
                if seg.flags.executable() {
                    prot = prot | Prot::X;
                }
                vm.map_with_data(
                    seg.vaddr,
                    seg.mem_size,
                    prot,
                    &format!("img{n}.seg{i}"),
                    &seg.data,
                );
            }
        }
        vm.map(
            layout::STACK_TOP - layout::STACK_SIZE,
            layout::STACK_SIZE,
            Prot::RW,
            "stack",
        );
        runtime.on_load(&mut vm);

        let mut emu = Emu::new(vm, runtime);
        emu.cpu.rip = image.entry;
        // 16-byte aligned stack with a small headroom; the sentinel return
        // address 0 is never popped because entry code ends in `exit`.
        emu.cpu.set(redfat_x86::Reg::Rsp, layout::STACK_TOP - 64);
        for (addr, target) in traps {
            emu.add_trap(addr, target);
        }
        Ok(emu)
    }
}

/// Reads the little-endian `u64` at byte offset `off`, or `None` when
/// the slice ends mid-field. All trap-table field reads go through
/// this so a truncated segment surfaces as a structured error at the
/// caller, never an out-of-bounds slice panic.
fn read_u64_le(data: &[u8], off: usize) -> Option<u64> {
    let bytes = data.get(off..off.checked_add(8)?)?;
    bytes.try_into().ok().map(u64::from_le_bytes)
}

/// Assembles a single-segment executable stub image at `base`: entry at
/// the first instruction, one `RX` segment holding the assembled bytes.
/// This is how runtime stubs and test fixtures become loadable
/// [`Image`]s; an assembly failure (unbound label, encoding overflow)
/// surfaces as [`LoadError::Asm`] instead of a panic, so a bad stub
/// degrades like any other malformed input.
pub fn stub_image(base: u64, build: impl FnOnce(&mut Asm)) -> Result<Image, LoadError> {
    let mut a = Asm::new(base);
    build(&mut a);
    let p = a.finish()?;
    Ok(Image {
        kind: ImageKind::Exec,
        entry: p.base,
        segments: vec![Segment::new(p.base, SegFlags::RX, p.bytes)],
        symbols: vec![],
    })
}

#[cfg(test)]
mod tests {
    use super::{stub_image, LoadError};
    use crate::runtime::{ErrorMode, HostRuntime};
    use crate::{Emu, RunResult};
    use redfat_elf::{Image, ImageKind, SegFlags, Segment};
    use redfat_vm::layout;
    use redfat_x86::{Asm, Reg, Width};

    /// Builds a tiny image from assembled code at CODE_BASE.
    fn image_of(build: impl FnOnce(&mut Asm)) -> Image {
        stub_image(layout::CODE_BASE, build).expect("assembles")
    }

    fn exit_with(a: &mut Asm, reg_holding_code: Reg) {
        if reg_holding_code != Reg::Rdi {
            a.mov_rr(Width::W64, Reg::Rdi, reg_holding_code);
        }
        a.mov_ri(Width::W64, Reg::Rax, crate::runtime::syscalls::EXIT as i64);
        a.syscall();
    }

    #[test]
    fn loads_and_exits() {
        let img = image_of(|a| {
            a.mov_ri(Width::W64, Reg::Rbx, 42);
            exit_with(a, Reg::Rbx);
        });
        let mut emu = Emu::load_image(&img, HostRuntime::new(ErrorMode::Abort)).expect("loads");
        assert_eq!(emu.run(1000), RunResult::Exited(42));
        assert!(emu.counters.instructions >= 3);
        assert!(emu.counters.cycles > emu.counters.instructions);
    }

    #[test]
    fn stack_is_usable() {
        let img = image_of(|a| {
            a.mov_ri(Width::W64, Reg::Rcx, 7);
            a.push_r(Reg::Rcx);
            a.pop_r(Reg::Rdi);
            a.mov_ri(Width::W64, Reg::Rax, 0);
            a.syscall();
        });
        let mut emu = Emu::load_image(&img, HostRuntime::new(ErrorMode::Abort)).expect("loads");
        assert_eq!(emu.run(1000), RunResult::Exited(7));
    }

    #[test]
    fn malloc_returns_heap_pointer() {
        let img = image_of(|a| {
            a.mov_ri(Width::W64, Reg::Rdi, 100);
            a.mov_ri(
                Width::W64,
                Reg::Rax,
                crate::runtime::syscalls::MALLOC as i64,
            );
            a.syscall();
            // Store and reload through the pointer.
            a.mov_ri(Width::W64, Reg::Rcx, 123);
            a.mov_mr(Width::W64, redfat_x86::Mem::base(Reg::Rax), Reg::Rcx);
            a.mov_rm(Width::W64, Reg::Rdi, redfat_x86::Mem::base(Reg::Rax));
            a.mov_ri(Width::W64, Reg::Rax, 0);
            a.syscall();
        });
        let mut emu = Emu::load_image(&img, HostRuntime::new(ErrorMode::Abort)).expect("loads");
        assert_eq!(emu.run(1000), RunResult::Exited(123));
    }

    #[test]
    fn trap_table_dispatches_int3() {
        // Code: int3 at a known address; trampoline sets rdi=9 and exits.
        let mut code = Asm::new(layout::CODE_BASE);
        code.int3();
        // Unreachable fallthrough.
        code.ud2();
        let code_p = code.finish().unwrap();

        let mut tramp = Asm::new(layout::TRAMPOLINE_BASE);
        tramp.mov_ri(Width::W64, Reg::Rdi, 9);
        tramp.mov_ri(Width::W64, Reg::Rax, 0);
        tramp.syscall();
        let tramp_p = tramp.finish().unwrap();

        let mut table = Vec::new();
        table.extend_from_slice(&layout::TRAP_TABLE_MAGIC.to_le_bytes());
        table.extend_from_slice(&1u64.to_le_bytes());
        table.extend_from_slice(&layout::CODE_BASE.to_le_bytes());
        table.extend_from_slice(&layout::TRAMPOLINE_BASE.to_le_bytes());

        let img = Image {
            kind: ImageKind::Exec,
            entry: layout::CODE_BASE,
            segments: vec![
                Segment::new(code_p.base, SegFlags::RX, code_p.bytes),
                Segment::new(tramp_p.base, SegFlags::RX, tramp_p.bytes),
                Segment::new(layout::GLOBALS_BASE, SegFlags::R, table),
            ],
            symbols: vec![],
        };
        let mut emu = Emu::load_image(&img, HostRuntime::new(ErrorMode::Abort)).expect("loads");
        assert_eq!(emu.run(100), RunResult::Exited(9));
        assert_eq!(emu.counters.int3_traps, 1);
    }

    #[test]
    fn stray_int3_is_an_error() {
        let img = image_of(|a| a.int3());
        let mut emu = Emu::load_image(&img, HostRuntime::new(ErrorMode::Abort)).expect("loads");
        assert!(matches!(
            emu.run(10),
            RunResult::Error(crate::EmuError::UnhandledInt3 { .. })
        ));
    }

    #[test]
    fn empty_image_list_is_an_error() {
        let err = Emu::load_images(&[], HostRuntime::new(ErrorMode::Abort))
            .err()
            .expect("must not load");
        assert_eq!(err, LoadError::NoImages);
    }

    #[test]
    fn truncated_trap_table_is_an_error() {
        // Declares 100 entries but carries data for exactly one.
        let mut table = Vec::new();
        table.extend_from_slice(&layout::TRAP_TABLE_MAGIC.to_le_bytes());
        table.extend_from_slice(&100u64.to_le_bytes());
        table.extend_from_slice(&layout::CODE_BASE.to_le_bytes());
        table.extend_from_slice(&layout::TRAMPOLINE_BASE.to_le_bytes());
        let img = Image {
            kind: ImageKind::Exec,
            entry: layout::CODE_BASE,
            segments: vec![
                Segment::new(layout::CODE_BASE, SegFlags::RX, vec![0xC3]),
                Segment::new(layout::GLOBALS_BASE, SegFlags::R, table),
            ],
            symbols: vec![],
        };
        let err = Emu::load_image(&img, HostRuntime::new(ErrorMode::Abort))
            .err()
            .expect("must not load");
        assert_eq!(
            err,
            LoadError::TruncatedTrapTable {
                segment: layout::GLOBALS_BASE,
                declared: 100,
                available: 1,
            }
        );
    }

    #[test]
    fn overlapping_segments_are_an_error() {
        let img = Image {
            kind: ImageKind::Exec,
            entry: layout::CODE_BASE,
            segments: vec![
                Segment::new(layout::CODE_BASE, SegFlags::RX, vec![0x90; 64]),
                Segment::new(layout::CODE_BASE + 32, SegFlags::RW, vec![0; 64]),
            ],
            symbols: vec![],
        };
        let err = Emu::load_image(&img, HostRuntime::new(ErrorMode::Abort))
            .err()
            .expect("must not load");
        assert_eq!(
            err,
            LoadError::SegmentOverlap {
                vaddr: layout::CODE_BASE + 32,
                other: layout::CODE_BASE,
            }
        );
    }

    #[test]
    fn segment_into_reserved_stack_is_an_error() {
        let img = Image {
            kind: ImageKind::Exec,
            entry: layout::CODE_BASE,
            segments: vec![
                Segment::new(layout::CODE_BASE, SegFlags::RX, vec![0xC3]),
                Segment::new(layout::STACK_TOP - 4096, SegFlags::RW, vec![0; 32]),
            ],
            symbols: vec![],
        };
        let err = Emu::load_image(&img, HostRuntime::new(ErrorMode::Abort))
            .err()
            .expect("must not load");
        assert!(matches!(
            err,
            LoadError::ReservedCollision {
                reserved: "stack",
                ..
            }
        ));
    }

    #[test]
    fn wrapping_and_oversized_segments_are_errors() {
        let wrap = Image {
            kind: ImageKind::Exec,
            entry: layout::CODE_BASE,
            segments: vec![Segment {
                vaddr: u64::MAX - 8,
                flags: SegFlags::RW,
                data: vec![],
                mem_size: 64,
            }],
            symbols: vec![],
        };
        assert!(matches!(
            Emu::load_image(&wrap, HostRuntime::new(ErrorMode::Abort))
                .err()
                .expect("must not load"),
            LoadError::SegmentWraps { .. }
        ));

        let huge = Image {
            kind: ImageKind::Exec,
            entry: layout::CODE_BASE,
            segments: vec![Segment {
                vaddr: layout::CODE_BASE,
                flags: SegFlags::RW,
                data: vec![],
                mem_size: u64::MAX / 2,
            }],
            symbols: vec![],
        };
        assert!(matches!(
            Emu::load_image(&huge, HostRuntime::new(ErrorMode::Abort))
                .err()
                .expect("must not load"),
            LoadError::ImageTooLarge { .. }
        ));
    }

    #[test]
    fn mid_entry_truncated_trap_table_is_an_error() {
        // Header intact, declared count intact, but the single declared
        // entry's data stops 8 bytes short: the checked reads must
        // surface TruncatedTrapTable, not panic on a slice conversion.
        let mut table = Vec::new();
        table.extend_from_slice(&layout::TRAP_TABLE_MAGIC.to_le_bytes());
        table.extend_from_slice(&1u64.to_le_bytes());
        table.extend_from_slice(&layout::CODE_BASE.to_le_bytes());
        // Missing the 8-byte target field entirely.
        let img = Image {
            kind: ImageKind::Exec,
            entry: layout::CODE_BASE,
            segments: vec![
                Segment::new(layout::CODE_BASE, SegFlags::RX, vec![0xC3]),
                Segment::new(layout::GLOBALS_BASE, SegFlags::R, table),
            ],
            symbols: vec![],
        };
        let err = Emu::load_image(&img, HostRuntime::new(ErrorMode::Abort))
            .err()
            .expect("must not load");
        assert!(
            matches!(err, LoadError::TruncatedTrapTable { declared: 1, .. }),
            "mid-entry truncation must classify as TruncatedTrapTable, got {err:?}"
        );
    }

    #[test]
    fn checked_u64_reads_never_slice_out_of_bounds() {
        use super::read_u64_le;
        let data = [1u8, 2, 3, 4, 5, 6, 7, 8, 9];
        assert_eq!(read_u64_le(&data, 0), Some(0x0807060504030201));
        assert_eq!(read_u64_le(&data, 1), Some(0x0908070605040302));
        assert_eq!(read_u64_le(&data, 2), None, "ends mid-field");
        assert_eq!(read_u64_le(&data, 9), None);
        assert_eq!(read_u64_le(&data, usize::MAX), None, "offset overflow");
        assert_eq!(read_u64_le(&[], 0), None);
    }

    #[test]
    fn stub_assembly_failure_is_a_structured_error() {
        // An unbound label makes `Asm::finish` fail; stub_image must
        // surface that as LoadError::Asm instead of panicking.
        let err = stub_image(layout::CODE_BASE, |a| {
            let never_bound = a.label();
            a.jmp_label(never_bound);
        })
        .expect_err("must not assemble");
        assert!(
            matches!(err, LoadError::Asm(redfat_x86::AsmError::UnboundLabel(_))),
            "unbound label must map to LoadError::Asm, got {err:?}"
        );
        // And the error carries a human-readable rendering.
        assert!(err.to_string().contains("stub image assembly failed"));
    }

    #[test]
    fn zero_size_segments_are_skipped() {
        let img = Image {
            kind: ImageKind::Exec,
            entry: layout::CODE_BASE,
            segments: vec![
                Segment::new(layout::GLOBALS_BASE, SegFlags::RW, vec![]),
                Segment::new(layout::CODE_BASE, SegFlags::RX, vec![0xC3]),
            ],
            symbols: vec![],
        };
        assert!(Emu::load_image(&img, HostRuntime::new(ErrorMode::Abort)).is_ok());
    }
}
