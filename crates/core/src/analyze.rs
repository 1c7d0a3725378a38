//! The `redfat analyze` report: each memory-access site's verdict --
//! full check, redzone-only downgrade or no check -- with the operand's
//! abstract address span and the function that owns it. The planner
//! records the verdicts while it plans under the default config, so the
//! report says what `redfat harden` instruments, not a second reading
//! of the rule.

use crate::checks::PayloadMode;
use crate::config::HardenConfig;
use crate::pipeline::plan_image;
use redfat_elf::Image;
use redfat_x86::Inst;
use std::fmt;

/// Why a site does or does not carry a full check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteVerdict {
    /// Full Redzone + LowFat check.
    Checked,
    /// Eliminated by the syntactic rule (`rsp`/`rip`/absolute base, no
    /// index).
    EliminatedSyntactic,
    /// Eliminated by flow-sensitive provenance: the abstract address
    /// span provably avoids the heap.
    EliminatedFlow,
    /// Full check downgraded to redzone-only: every site of its merged
    /// check is subsumed by a dominating identical check, this one by
    /// the check at `root`.
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
    /// at or below the address that starts a block).
    pub func: Option<u64>,
    /// Disassembly text.
    pub inst: String,
    /// Bytes accessed.
    pub len: u8,
    /// Whether the instruction writes memory.
    pub is_write: bool,
    /// The classification.
    pub verdict: SiteVerdict,
    /// Human-readable abstract address span at the site: `unreached`
    /// for a site in no recovered block.
    pub span: String,
}

impl SiteReport {
    pub(crate) fn new(
        addr: u64,
        inst: &Inst,
        verdict: SiteVerdict,
        func: Option<u64>,
        span: String,
    ) -> SiteReport {
        SiteReport {
            addr,
            func,
            inst: inst.to_string(),
            len: inst.access_len().unwrap_or(8),
            is_write: inst.writes_memory(),
            verdict,
            span,
        }
    }
}

/// Whole-image analysis summary. Its `Display` is the `redfat analyze`
/// text.
#[derive(Default)]
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

    /// Sites carrying a full check.
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

/// Plans `image` as [`crate::harden_threaded`] does under
/// [`HardenConfig::default`] on `threads` threads, without the rewrite,
/// and reports every memory-access site's verdict. Planning shards
/// along CFG components, so the report is the same at any thread count.
pub fn analyze(image: &Image, threads: usize) -> AnalysisReport {
    let config = HardenConfig::default();
    plan_image(image, &config, PayloadMode::Harden, threads, true).1
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} instructions, {} blocks, {} dataflow roots",
            self.insts, self.blocks, self.roots
        )?;
        writeln!(
            f,
            "{} access sites: {} checked, {} elim:syntactic, {} elim:flow, {} redundant",
            self.sites.len(),
            self.checked(),
            self.eliminated_syntactic(),
            self.eliminated_flow(),
            self.redundant()
        )?;
        for s in &self.sites {
            let rw = if s.is_write { "W" } else { "R" };
            let func = s
                .func
                .map_or_else(|| "-".to_string(), |f| format!("{f:#x}"));
            writeln!(
                f,
                "{:#10x}  {rw}{}  {:<24} {:<24} fn={func:<10} {}",
                s.addr,
                s.len,
                s.verdict.to_string(),
                s.span,
                s.inst
            )?;
        }
        Ok(())
    }
}
