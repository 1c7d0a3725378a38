//! Regenerates the paper's **Figure 8**: overhead of write-protection
//! hardening on a very large binary ("kromium", the Chrome stand-in)
//! under the Kraken-like benchmark suite (§7.3).
//!
//! Also reports the §7.3 scalability statistics: binary size, number of
//! patched sites, trampoline bytes, patch-tactic split, and rewrite
//! wall-clock time.

use redfat_bench::geomean;
use redfat_core::{harden, run, HardenConfig, LowFatPolicy, RunSpec};
use redfat_emu::ErrorMode;
use redfat_workloads::{kraken, kromium};

fn main() {
    eprintln!("figure8: building kromium...");
    let t0 = std::time::Instant::now();
    let wl = kromium::build();
    let image = wl.image();
    let code_bytes: u64 = image.exec_segments().map(|s| s.data.len() as u64).sum();
    eprintln!(
        "figure8: kromium built in {:.1}s ({} KB of code)",
        t0.elapsed().as_secs_f64(),
        code_bytes / 1024
    );

    // Write-only hardening, as in the paper's Chrome experiment.
    let t1 = std::time::Instant::now();
    let cfg = HardenConfig::minus_reads(LowFatPolicy::All);
    let hardened = harden(&image, &cfg).expect("kromium hardens");
    let rewrite_secs = t1.elapsed().as_secs_f64();

    println!("Figure 8: kromium (Chrome stand-in) overhead under Kraken-like benchmarks");
    println!("(write-only (Redzone)+(LowFat) hardening, slowdown vs. baseline)");
    println!();

    let mut factors = Vec::new();
    for bench in kraken::all() {
        let input = [bench.kernel, bench.scale];
        let spec = RunSpec::new(&input, ErrorMode::Log, u64::MAX);
        let base = run(&image, &spec).expect("image loads");
        let hard = run(&hardened.image, &spec).expect("image loads");
        assert!(base.ok() && hard.ok(), "{} must run", bench.name);
        assert_eq!(
            base.io.digest(),
            hard.io.digest(),
            "{}: hardening changed output",
            bench.name
        );
        let factor = hard.counters.cycles as f64 / base.counters.cycles as f64;
        factors.push(factor);
        let bar = "#".repeat(((factor - 1.0) * 40.0).clamp(1.0, 60.0) as usize);
        println!("{:<22} {factor:>5.2}x  {bar}", bench.name);
    }
    let gm = geomean(factors.iter().copied());
    println!("{:<22} {gm:>5.2}x", "Geometric Mean");

    println!();
    println!("Scalability (paper §7.3):");
    println!("  code size           {:>10} bytes", code_bytes);
    println!("  rewrite time        {rewrite_secs:>10.2} s");
    println!(
        "  instrumented sites  {:>10}",
        hardened.stats.sites_lowfat + hardened.stats.sites_redzone
    );
    println!("  batches             {:>10}", hardened.stats.batches);
    println!(
        "  jmp patches         {:>10}",
        hardened.stats.rewrite.jmp_patches
    );
    println!(
        "  int3 patches        {:>10}",
        hardened.stats.rewrite.trap_patches
    );
    println!(
        "  trampoline bytes    {:>10}",
        hardened.stats.rewrite.trampoline_bytes
    );

    // Startup stability check (the "Chrome loads and runs stable" claim).
    let spec = RunSpec::new(&[0, 1], ErrorMode::Abort, u64::MAX);
    let startup = run(&hardened.image, &spec).expect("image loads");
    println!(
        "  hardened startup    {:>10}",
        if startup.ok() { "stable" } else { "FAILED" }
    );
}
