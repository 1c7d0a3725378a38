//! Workloads for the RedFat experiments.
//!
//! The paper evaluates on SPEC CPU2006, four real-world CVEs, the Juliet
//! CWE-122 subset, and Google Chrome under the Kraken browser benchmark.
//! None of those artifacts can run on this substrate, so this crate
//! provides *synthetic stand-ins compiled from mini-C*, each imitating
//! the memory-access idiom of its original (see `DESIGN.md` §2 for the
//! substitution argument):
//!
//! * [`spec::all`] -- 29 benchmarks named after their SPEC counterparts,
//!   with `train` and `ref` inputs driving the §5 two-phase workflow.
//!   Benchmarks tagged Fortran embed non-zero-base array arithmetic (the
//!   `array - K` anti-idiom), reproducing the false-positive population
//!   of §7.1; `calculix`/`wrf` carry the paper's *real* planted read
//!   errors; `dealII`/`zeusmp` model the Memcheck NR rows.
//! * [`cve::all`] -- the four CVE reproductions of Table 2, each with a
//!   benign input and an attacker input whose offset skips over redzones.
//! * [`juliet::generate`] -- a 480-case non-incremental heap-overflow
//!   suite in the style of Juliet CWE-122.
//! * [`kraken::all`] -- the Kraken-like suite and [`kromium::build`], a
//!   very large generated binary standing in for Chrome (§7.3).
//! * [`skips::all`] -- computed-pointer slot-skip cases whose access
//!   carries no provenance: the bug class that separates the
//!   deterministic and randomized allocator policies.
//! * [`riprel::image`] -- a hand-assembled program whose globals are
//!   reached through rip-relative operands, which mini-C never emits.

pub mod cve;
pub mod juliet;
pub mod kraken;
pub mod kromium;
pub mod riprel;
pub mod skips;
pub mod spec;

use redfat_elf::Image;
use redfat_minic::compile;

/// Source language of the original benchmark (provenance/coloring).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lang {
    /// C.
    C,
    /// C++.
    Cpp,
    /// Fortran.
    Fortran,
}

/// A benchmark workload: source plus inputs and provenance metadata.
pub struct Workload {
    /// Benchmark name (SPEC name for the stand-ins).
    pub name: &'static str,
    /// Original benchmark's source language.
    pub lang: Lang,
    /// mini-C source.
    pub source: String,
    /// `train` input (profiling phase).
    pub train_input: Vec<i64>,
    /// `ref` input (measurement phase).
    pub ref_input: Vec<i64>,
    /// Models Valgrind's x87 limitation (`zeusmp`).
    pub requires_x87: bool,
    /// Expected planted real memory errors under full checking on the
    /// ref input (`calculix` = 4, `wrf` = 1).
    pub planted_errors: usize,
    /// Number of distinct anti-idiom (intentional OOB base) sites, which
    /// become false positives without the allow-list (§7.1).
    pub anti_idiom_sites: usize,
}

impl Workload {
    /// Compiles the workload to an ELF image.
    ///
    /// # Panics
    ///
    /// Panics if the embedded source fails to compile -- that is a bug in
    /// this crate, covered by tests.
    pub fn image(&self) -> Image {
        match compile(&self.source) {
            Ok(img) => img,
            Err(e) => panic!("workload {} failed to compile: {e}", self.name),
        }
    }
}

/// Shared mini-C prelude: a deterministic 63-bit LCG.
pub(crate) const PRELUDE: &str = "
global rngstate;
fn srnd(seed) { rngstate = seed * 2 + 1; return 0; }
fn rnd() {
    rngstate = rngstate * 6364136223846793005 + 1442695040888963407;
    return (rngstate >> 33) & 0x3fffffff;
}
";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prelude_compiles() {
        let src = format!("{PRELUDE} fn main() {{ srnd(1); print(rnd() > 0); return 0; }}");
        assert!(compile(&src).is_ok());
    }
}
