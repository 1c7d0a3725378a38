//! Structured per-site analysis reporting: what each memory-access site
//! is classified as, by which pass, and why. Backs the `redfat analyze`
//! CLI subcommand and the paper-style ablation accounting.

use crate::cfg::Cfg;
use crate::disasm::{disassemble, Disasm};
use crate::elim::can_reach_heap;
use crate::provenance::Provenance;
use crate::redundant::RedundantChecks;
use redfat_elf::Image;
use std::fmt;

/// Why a site does or does not carry a full check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteVerdict {
    /// Full Redzone + LowFat check required.
    Checked,
    /// Eliminated by the syntactic rule (`rsp`/`rip`/absolute base, no
    /// index).
    EliminatedSyntactic,
    /// Eliminated by flow-sensitive provenance: the abstract address
    /// span provably avoids the heap.
    EliminatedFlow,
    /// Full check downgraded to redzone-only: subsumed by the
    /// dominating check at `root`.
    Redundant {
        /// The dominating site whose full check subsumes this one.
        root: u64,
    },
}

impl fmt::Display for SiteVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SiteVerdict::Checked => write!(f, "checked"),
            SiteVerdict::EliminatedSyntactic => write!(f, "elim:syntactic"),
            SiteVerdict::EliminatedFlow => write!(f, "elim:flow"),
            SiteVerdict::Redundant { root } => write!(f, "redundant(root={root:#x})"),
        }
    }
}

/// Classification of one memory-access site.
#[derive(Debug, Clone)]
pub struct SiteReport {
    /// Instruction address.
    pub addr: u64,
    /// Entry address of the recovered function owning the site, when
    /// the site lies inside a recovered block (nearest function entry
    /// at or below the address).
    pub func: Option<u64>,
    /// Disassembly text.
    pub inst: String,
    /// Bytes accessed.
    pub len: u8,
    /// Whether the instruction writes memory.
    pub is_write: bool,
    /// The classification.
    pub verdict: SiteVerdict,
    /// Human-readable abstract address span at the site.
    pub span: String,
}

/// Whole-image analysis summary.
pub struct AnalysisReport {
    /// Per-site classifications, in address order.
    pub sites: Vec<SiteReport>,
    /// Number of recovered basic blocks.
    pub blocks: usize,
    /// Number of decoded instructions.
    pub insts: usize,
    /// Number of unknown-entry roots the dataflow was seeded with.
    pub roots: usize,
}

impl AnalysisReport {
    /// Count of sites with the given verdict kind.
    pub fn count(&self, f: impl Fn(&SiteVerdict) -> bool) -> usize {
        self.sites.iter().filter(|s| f(&s.verdict)).count()
    }

    /// Sites still carrying a full check.
    pub fn checked(&self) -> usize {
        self.count(|v| matches!(v, SiteVerdict::Checked))
    }

    /// Sites eliminated by the syntactic rule.
    pub fn eliminated_syntactic(&self) -> usize {
        self.count(|v| matches!(v, SiteVerdict::EliminatedSyntactic))
    }

    /// Sites additionally eliminated by provenance flow analysis.
    pub fn eliminated_flow(&self) -> usize {
        self.count(|v| matches!(v, SiteVerdict::EliminatedFlow))
    }

    /// Sites downgraded to redzone-only by the redundant pass.
    pub fn redundant(&self) -> usize {
        self.count(|v| matches!(v, SiteVerdict::Redundant { .. }))
    }
}

/// Runs the full static-analysis stack over an image -- disassembly, CFG
/// recovery, provenance, redundant-check elimination -- and classifies
/// every memory-access site the way the instrumentation pipeline would
/// under its most aggressive configuration (`instrument_reads = true`).
///
/// With `threads > 0` the analyses run per weakly-connected CFG
/// component, sharded across `threads` worker threads; `0` analyzes the
/// whole image on the calling thread. Each component carries the full
/// image-wide unknown-entry root set, so its provenance and
/// redundant-check results are exactly the whole-image results
/// restricted to it, and the report is the same at any thread count.
pub fn analyze_image(image: &Image, threads: usize) -> AnalysisReport {
    let disasm = disassemble(image);
    let cfg = Cfg::recover(&disasm, image.entry, &[]);
    let roots = crate::dataflow::unknown_entries(&disasm, &cfg, image.entry);
    // A site belongs to the nearest function entry at or below it that
    // starts a recovered block.
    let entries: Vec<u64> = cfg
        .func_entries
        .iter()
        .copied()
        .filter(|e| cfg.blocks.contains_key(e))
        .collect();
    let owner = |addr: u64| {
        entries[..entries.partition_point(|&e| e <= addr)]
            .last()
            .copied()
    };

    let analyze_shard = |sub: &Cfg| -> Vec<SiteReport> {
        let prov = Provenance::compute_with_roots(&disasm, sub, &roots);
        let needs_full = |addr: u64, inst: &redfat_x86::Inst| -> bool {
            let Some(mem) = inst.memory_access() else {
                return false;
            };
            can_reach_heap(&mem) && prov.site_can_reach_heap(&disasm, sub, addr, inst)
        };
        let redundant = RedundantChecks::compute_with_roots(&disasm, sub, &roots, needs_full);
        let mut sites = Vec::new();
        for block in sub.blocks.values() {
            for &addr in &block.insts {
                let (inst, _) = disasm.at(addr).expect("block member decoded");
                sites.extend(classify_site(
                    &disasm,
                    sub,
                    &prov,
                    &redundant,
                    addr,
                    inst,
                    owner(addr),
                ));
            }
        }
        sites
    };
    let mut sites: Vec<SiteReport> = if threads == 0 {
        analyze_shard(&cfg)
    } else {
        redfat_parallel::parallel_map(cfg.components(), threads, |sub| analyze_shard(sub))
            .into_iter()
            .flatten()
            .collect()
    };

    // Instructions outside every recovered block never acquire dataflow
    // facts, so their conservative classification needs no analysis:
    // syntactic elimination still applies, everything else stays checked
    // with an "unreached" span (exactly what the whole-image provenance
    // reports for them).
    let mut insts = 0usize;
    for (addr, inst, _) in disasm.iter() {
        insts += 1;
        if cfg.block_of(addr).is_some() {
            continue;
        }
        let Some(mem) = inst.memory_access() else {
            continue;
        };
        sites.push(SiteReport {
            addr,
            func: None,
            inst: inst.to_string(),
            len: inst.access_len().unwrap_or(8),
            is_write: inst.writes_memory(),
            verdict: if !can_reach_heap(&mem) {
                SiteVerdict::EliminatedSyntactic
            } else {
                SiteVerdict::Checked
            },
            span: "unreached".to_string(),
        });
    }
    sites.sort_by_key(|s| s.addr);

    AnalysisReport {
        sites,
        blocks: cfg.blocks.len(),
        insts,
        roots: roots.iter().filter(|r| cfg.blocks.contains_key(r)).count(),
    }
}

/// Classifies one memory-access site given its component's analyses.
fn classify_site(
    disasm: &Disasm,
    cfg: &Cfg,
    prov: &Provenance,
    redundant: &RedundantChecks,
    addr: u64,
    inst: &redfat_x86::Inst,
    func: Option<u64>,
) -> Option<SiteReport> {
    let mem = inst.memory_access()?;
    let verdict = if !can_reach_heap(&mem) {
        SiteVerdict::EliminatedSyntactic
    } else if !prov.site_can_reach_heap(disasm, cfg, addr, inst) {
        SiteVerdict::EliminatedFlow
    } else if let Some(root) = redundant.root_of(addr) {
        SiteVerdict::Redundant { root }
    } else {
        SiteVerdict::Checked
    };
    Some(SiteReport {
        addr,
        func,
        inst: inst.to_string(),
        len: inst.access_len().unwrap_or(8),
        is_write: inst.writes_memory(),
        verdict,
        span: prov.describe_span(disasm, cfg, addr, inst),
    })
}

/// Renders the report as the `redfat analyze` text output.
pub fn render(report: &AnalysisReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} instructions, {} blocks, {} dataflow roots",
        report.insts, report.blocks, report.roots
    );
    let _ = writeln!(
        out,
        "{} access sites: {} checked, {} elim:syntactic, {} elim:flow, {} redundant",
        report.sites.len(),
        report.checked(),
        report.eliminated_syntactic(),
        report.eliminated_flow(),
        report.redundant()
    );
    for s in &report.sites {
        let rw = if s.is_write { "W" } else { "R" };
        let func = s
            .func
            .map_or_else(|| "-".to_string(), |f| format!("{f:#x}"));
        let _ = writeln!(
            out,
            "{:#10x}  {rw}{}  {:<24} {:<24} fn={func:<10} {}",
            s.addr,
            s.len,
            s.verdict.to_string(),
            s.span,
            s.inst
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "fn weigh(x) {
            var t = malloc(4 * 8);
            for (var i = 0; i < 4; i = i + 1) { t[i] = x * i; }
            var s = 0;
            for (var i = 0; i < 4; i = i + 1) { s = s + t[i]; }
            free(t);
            return s;
        }
        fn main() {
            var a = malloc(16 * 8);
            var s = 0;
            for (var i = 0; i < 16; i = i + 1) { a[i] = weigh(i); }
            for (var i = 0; i < 16; i = i + 1) { s = s + a[i]; }
            print(s);
            free(a);
            return 0;
        }";

    #[test]
    fn threaded_analysis_matches_serial() {
        let image = redfat_minic::compile(SRC).unwrap();
        let serial = analyze_image(&image, 0);
        assert!(!serial.sites.is_empty());
        for threads in [1usize, 2, 8] {
            let par = analyze_image(&image, threads);
            assert_eq!(
                render(&serial),
                render(&par),
                "report differs at {threads} threads"
            );
            assert_eq!(serial.insts, par.insts);
            assert_eq!(serial.blocks, par.blocks);
            assert_eq!(serial.roots, par.roots);
        }
    }

    #[test]
    fn sites_carry_function_attribution() {
        let image = redfat_minic::compile(SRC).unwrap();
        let report = analyze_image(&image, 0);
        // Every in-block site is attributed to some recovered function.
        assert!(report.sites.iter().all(|s| s.func.is_some()));
        // More than one function exists, and sites spread across them.
        let funcs: std::collections::BTreeSet<u64> =
            report.sites.iter().filter_map(|s| s.func).collect();
        assert!(funcs.len() >= 2, "weigh and main both have sites");
    }
}
