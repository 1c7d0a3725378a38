//! Micro-benchmarks for the substrates and the hardening pipeline itself
//! (host-side costs; the guest-side overheads are the table1/figure8
//! binaries' business).
//!
//! A dependency-free harness (`harness = false`): each case runs a warmup
//! batch, then measures wall time over enough iterations to smooth jitter
//! and prints ns/iter. `cargo bench -p redfat-bench` runs them all.

use redfat_core::{harden, run, HardenConfig, LowFatPolicy, RunSpec};
use redfat_emu::ErrorMode;
use redfat_lowfat::{LowFatConfig, RedFatHeap};
use redfat_minic::compile;
use redfat_vm::Vm;
use redfat_x86::{decode_one, encode, Inst, Mem, Op, Operands, Reg, Width};
use std::hint::black_box;
use std::time::Instant;

fn bench(name: &str, iters: u32, mut f: impl FnMut()) {
    for _ in 0..iters.div_ceil(10) {
        f();
    }
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let elapsed = start.elapsed();
    println!(
        "{name:32} {:>12.1} ns/iter ({iters} iters)",
        elapsed.as_nanos() as f64 / iters as f64
    );
}

fn bench_codec() {
    let inst = Inst::new(
        Op::Mov,
        Width::W64,
        Operands::MR {
            dst: Mem::bis(Reg::Rax, Reg::Rcx, 8, 0x40),
            src: Reg::Rdx,
        },
    );
    let bytes = encode(&inst, 0x40_0000).unwrap();
    bench("x86/encode-mov-sib", 500_000, || {
        black_box(encode(black_box(&inst), 0x40_0000).unwrap());
    });
    bench("x86/decode-mov-sib", 500_000, || {
        black_box(decode_one(black_box(&bytes), 0x40_0000).unwrap());
    });
}

fn bench_allocator() {
    bench("lowfat/malloc-free-64B-x128", 500, || {
        let mut vm = Vm::new();
        let mut heap = RedFatHeap::new(LowFatConfig::default());
        heap.install(&mut vm);
        for _ in 0..128 {
            let p = heap.malloc(&mut vm, 48).unwrap();
            heap.free(&mut vm, p).unwrap();
        }
    });
    let ptr = redfat_vm::layout::region_base(4) + 4096 + 24;
    bench("lowfat/base-size-lookup", 1_000_000, || {
        black_box(
            redfat_vm::layout::lowfat_base(black_box(ptr)) + redfat_vm::layout::lowfat_size(ptr),
        );
    });
}

fn demo_image() -> redfat_elf::Image {
    compile(
        "fn main() {
            var a = malloc(64 * 8);
            var sum = 0;
            for (var it = 0; it < 200; it = it + 1) {
                for (var i = 0; i < 64; i = i + 1) { a[i] = i * it; }
                for (var i = 0; i < 64; i = i + 1) { sum = sum + a[i]; }
            }
            print(sum);
            return 0;
        }",
    )
    .expect("compiles")
}

fn bench_pipeline() {
    let image = demo_image();
    bench("pipeline/harden-small-binary", 200, || {
        black_box(
            harden(
                black_box(&image),
                &HardenConfig::with_merge(LowFatPolicy::All),
            )
            .unwrap(),
        );
    });
}

fn bench_guest_execution() {
    let image = demo_image();
    let hardened = harden(&image, &HardenConfig::with_merge(LowFatPolicy::All))
        .unwrap()
        .image;
    let redzone = harden(&image, &HardenConfig::with_merge(LowFatPolicy::Disabled))
        .unwrap()
        .image;
    let spec = RunSpec::new(&[], ErrorMode::Log, u64::MAX);
    bench("guest/baseline", 50, || {
        black_box(run(&image, &spec).unwrap());
    });
    bench("guest/hardened-full", 50, || {
        black_box(run(&hardened, &spec).unwrap());
    });
    bench("guest/hardened-redzone-only", 50, || {
        black_box(run(&redzone, &spec).unwrap());
    });
}

fn main() {
    // `cargo bench` passes harness flags like `--bench`; ignore them.
    bench_codec();
    bench_allocator();
    bench_pipeline();
    bench_guest_execution();
}
