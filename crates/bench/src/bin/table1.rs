//! Regenerates the paper's **Table 1**: performance of RedFat and the
//! Memcheck baseline on the SPEC CPU2006 stand-in suite.
//!
//! Columns: coverage (% of ref-executed memory operands with the full
//! (Redzone)+(LowFat) check), baseline modeled cycles, then slowdown
//! factors for the eight RedFat configurations and Memcheck (NR where
//! the modeled Valgrind limits apply). Ends with the geometric means,
//! the static check-elimination accounting (syntactic vs. flow vs.
//! redundant) and the detected-real-error report of §7.1.

use redfat_bench::{geomean, parallel_map, table1_row, Table1Row};
use redfat_workloads::{spec, Lang};

fn lang_tag(lang: Lang) -> &'static str {
    match lang {
        Lang::C => "C  ",
        Lang::Cpp => "C++",
        Lang::Fortran => "F  ",
    }
}

fn main() {
    let threads = redfat_bench::threads_from_args(std::env::args());
    let suite = spec::all();
    eprintln!(
        "table1: running {} benchmarks on {} threads...",
        suite.len(),
        threads
    );
    let t0 = std::time::Instant::now();
    let rows: Vec<Table1Row> = parallel_map(suite, threads, table1_row);
    eprintln!("table1: done in {:.1}s", t0.elapsed().as_secs_f64());

    println!("Table 1: Performance of RedFat and Memcheck on the SPEC CPU2006 stand-in suite");
    println!("(slowdown factors vs. the uninstrumented baseline; modeled cycles)");
    println!();
    println!(
        "{:<12} {:>4} {:>9} {:>12} {:>8} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>9}",
        "Binary",
        "lang",
        "coverage",
        "Baseline(cy)",
        "unopt",
        "+elim",
        "+batch",
        "+merge",
        "+flow",
        "+redund",
        "-size",
        "-reads",
        "Memcheck"
    );
    for r in &rows {
        let mc = match r.memcheck {
            Some(v) => format!("{v:8.2}x"),
            None => "      NR".to_owned(),
        };
        println!(
            "{:<12} {:>4} {:>8.1}% {:>12} {:>7.2}x {:>6.2}x {:>6.2}x {:>6.2}x {:>6.2}x {:>6.2}x {:>6.2}x {:>6.2}x {}",
            r.name,
            lang_tag(r.lang),
            100.0 * r.coverage,
            r.baseline_cycles,
            r.redfat[0],
            r.redfat[1],
            r.redfat[2],
            r.redfat[3],
            r.redfat[4],
            r.redfat[5],
            r.redfat[6],
            r.redfat[7],
            mc
        );
    }

    let gm = |idx: usize| geomean(rows.iter().map(|r| r.redfat[idx]));
    let mc_gm = geomean(rows.iter().filter_map(|r| r.memcheck));
    println!(
        "{:<12} {:>4} {:>8.1}% {:>12} {:>7.2}x {:>6.2}x {:>6.2}x {:>6.2}x {:>6.2}x {:>6.2}x {:>6.2}x {:>6.2}x {:>8.2}x",
        "Geomean",
        "",
        100.0 * geomean(rows.iter().map(|r| r.coverage.max(1e-9))),
        rows.iter().map(|r| r.baseline_cycles).sum::<u64>() / rows.len() as u64,
        gm(0),
        gm(1),
        gm(2),
        gm(3),
        gm(4),
        gm(5),
        gm(6),
        gm(7),
        mc_gm
    );

    println!();
    println!("Static check elimination (sites):");
    println!(
        "{:<12} {:>10} {:>10} {:>10}",
        "Binary", "syntactic", "+flow", "redundant"
    );
    for r in &rows {
        println!(
            "{:<12} {:>10} {:>10} {:>10}",
            r.name, r.sites_elim, r.sites_flow, r.sites_redundant
        );
    }
    let flow_wins = rows
        .iter()
        .filter(|r| r.sites_flow > 0 && r.redfat[4] <= r.redfat[3])
        .count();
    println!(
        "+flow eliminates additional sites on {} / {} benchmarks",
        flow_wins,
        rows.len()
    );

    println!();
    println!("Detected errors (fully optimized config, log mode):");
    for r in rows.iter().filter(|r| r.errors_detected > 0) {
        println!(
            "  {:<12} {} distinct error site(s)",
            r.name, r.errors_detected
        );
    }
    let nr: Vec<&str> = rows
        .iter()
        .filter(|r| r.memcheck.is_none())
        .map(|r| r.name)
        .collect();
    println!("Memcheck NR rows: {nr:?}");
}
