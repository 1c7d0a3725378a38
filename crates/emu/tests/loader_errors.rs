//! Loader robustness regressions: every malformed input that used to
//! panic inside `Emu::load_image`/`load_images` must now surface as a
//! structured [`LoadError`] through the public API.

use redfat_elf::{Image, ImageKind, SegFlags, Segment};
use redfat_emu::{Emu, ErrorMode, HostRuntime, LoadError, RunResult};
use redfat_vm::layout;

fn code_image() -> Image {
    // xor edi, edi; xor eax, eax (EXIT); syscall
    let code = vec![0x31, 0xFF, 0x31, 0xC0, 0x0F, 0x05];
    Image {
        kind: ImageKind::Exec,
        entry: layout::CODE_BASE,
        segments: vec![Segment::new(layout::CODE_BASE, SegFlags::RX, code)],
        symbols: vec![],
    }
}

fn rt() -> HostRuntime {
    HostRuntime::new(ErrorMode::Abort)
}

#[test]
fn empty_image_list_is_a_typed_error() {
    // Regression: `images.first().expect(...)` panicked on an empty
    // image list.
    let err = Emu::load_images(&[], rt()).err().expect("must not load");
    assert_eq!(err, LoadError::NoImages);
}

#[test]
fn truncated_trap_table_reports_segment_address() {
    // Regression: a trap table whose declared entry count exceeds the
    // segment data walked past the end and panicked. The structured
    // error names the offending segment.
    let mut img = code_image();
    let mut table = Vec::new();
    table.extend_from_slice(&layout::TRAP_TABLE_MAGIC.to_le_bytes());
    table.extend_from_slice(&100u64.to_le_bytes()); // declares 100 entries
    table.extend_from_slice(&[0u8; 16]); // data for exactly 1
    img.segments
        .push(Segment::new(layout::GLOBALS_BASE, SegFlags::RW, table));
    let err = Emu::load_image(&img, rt()).err().expect("must not load");
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
fn reserved_range_collision_is_a_typed_error() {
    let mut img = code_image();
    img.segments.push(Segment {
        vaddr: layout::STACK_TOP - 4096,
        flags: SegFlags::RW,
        data: vec![0; 32],
        mem_size: 8192,
    });
    let err = Emu::load_image(&img, rt()).err().expect("must not load");
    assert!(
        matches!(err, LoadError::ReservedCollision { .. }),
        "{err:?}"
    );
}

#[test]
fn well_formed_image_still_loads_and_runs() {
    let mut emu = Emu::load_image(&code_image(), rt()).expect("loads");
    assert!(matches!(emu.run(1_000), RunResult::Exited(0)));
}
