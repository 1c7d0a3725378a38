//! Hardening configuration: the knobs of Table 1.

use crate::allowlist::AllowList;
use crate::digest::{sha256, Digest};

/// Which memory operations receive the full (Redzone)+(LowFat) check, as
/// opposed to the (Redzone)-only fallback (paper §3, "opportunistic
/// hardening").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LowFatPolicy {
    /// Never use the LowFat component: (Redzone)-only everywhere. This is
    /// the methodology of redzone-only state-of-the-art tools.
    Disabled,
    /// Full (Redzone)+(LowFat) on every instrumented site, risking false
    /// positives on intentional out-of-bounds pointers (paper §7.1,
    /// "false positives" experiment).
    All,
    /// Full check only on allow-listed sites; (Redzone)-only elsewhere.
    /// The production configuration of the §5 workflow.
    AllowList(AllowList),
}

/// Hardening configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HardenConfig {
    /// Check elimination (§6): skip operands that provably cannot reach
    /// the heap.
    pub elim: bool,
    /// Check batching (§6): one trampoline per reorderable group.
    pub batch: bool,
    /// Check merging (§6): one range check per operand shape in a batch.
    pub merge: bool,
    /// Flow-sensitive check elimination: interval provenance analysis
    /// proving per-site that the address cannot reach the heap -- a
    /// strict superset of the syntactic `elim` rule. Requires `elim`.
    pub elim_flow: bool,
    /// Dominator-based redundant-check elimination: a full check
    /// subsumed by an identical dominating check is downgraded to
    /// redzone-only. Requires `elim_flow`.
    pub elim_redundant: bool,
    /// Metadata hardening (§4.2): validate `SIZE` against the immutable
    /// class size. Disabled by the `-size` column.
    pub size_harden: bool,
    /// Instrument reads as well as writes. Disabled by the `-reads`
    /// column (write-only hardening).
    pub instrument_reads: bool,
    /// The LowFat component policy.
    pub lowfat: LowFatPolicy,
    /// Ablation: emit the *pure* (LowFat) check of §2.1 -- class-size
    /// bounds from the base register only, no redzone fallback, no
    /// metadata -- instead of the combined Figure 4 check. Used by the
    /// complementarity experiment; never set in production.
    pub lowfat_only: bool,
}

impl HardenConfig {
    /// Table 1 "unoptimized": no optimizations, full checks everywhere
    /// the policy allows.
    pub fn unoptimized(lowfat: LowFatPolicy) -> HardenConfig {
        HardenConfig {
            elim: false,
            batch: false,
            merge: false,
            elim_flow: false,
            elim_redundant: false,
            size_harden: true,
            instrument_reads: true,
            lowfat,
            lowfat_only: false,
        }
    }

    /// Table 1 "+elim".
    pub fn with_elim(lowfat: LowFatPolicy) -> HardenConfig {
        HardenConfig {
            elim: true,
            ..HardenConfig::unoptimized(lowfat)
        }
    }

    /// Table 1 "+batch".
    pub fn with_batch(lowfat: LowFatPolicy) -> HardenConfig {
        HardenConfig {
            batch: true,
            ..HardenConfig::with_elim(lowfat)
        }
    }

    /// Table 1 "+merge" (fully optimized).
    pub fn with_merge(lowfat: LowFatPolicy) -> HardenConfig {
        HardenConfig {
            merge: true,
            ..HardenConfig::with_batch(lowfat)
        }
    }

    /// Table 1 "+flow": flow-sensitive provenance elimination on top of
    /// the syntactic optimizations.
    pub fn with_flow(lowfat: LowFatPolicy) -> HardenConfig {
        HardenConfig {
            elim_flow: true,
            ..HardenConfig::with_merge(lowfat)
        }
    }

    /// Table 1 "+redund" (fully optimized): dominator-based
    /// redundant-check elimination on top of "+flow".
    pub fn with_redundant(lowfat: LowFatPolicy) -> HardenConfig {
        HardenConfig {
            elim_redundant: true,
            ..HardenConfig::with_flow(lowfat)
        }
    }

    /// Table 1 "-size": fully optimized minus metadata hardening. The
    /// configuration that most closely matches Valgrind Memcheck's
    /// feature set.
    pub fn minus_size(lowfat: LowFatPolicy) -> HardenConfig {
        HardenConfig {
            size_harden: false,
            ..HardenConfig::with_redundant(lowfat)
        }
    }

    /// Table 1 "-reads": write-only hardening, the cheapest production
    /// configuration.
    pub fn minus_reads(lowfat: LowFatPolicy) -> HardenConfig {
        HardenConfig {
            instrument_reads: false,
            ..HardenConfig::minus_size(lowfat)
        }
    }

    /// Ablation: the pure low-fat-pointer methodology of §2.1, without
    /// the redzone component (detects non-incremental skips; misses
    /// use-after-free, redzone hits and padding overflows).
    pub fn lowfat_only() -> HardenConfig {
        HardenConfig {
            lowfat_only: true,
            ..HardenConfig::with_merge(LowFatPolicy::All)
        }
    }

    /// The canonical byte encoding of this configuration: a versioned
    /// tag, the eight boolean knobs and the LowFat policy (with the
    /// allow-list sites in sorted order). Two configs encode to the
    /// same bytes iff they are `==`,
    /// which makes [`Self::digest`] a sound cache-key component and the
    /// encoding itself a usable wire format for the service protocol.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(CONFIG_TAG);
        for flag in [
            self.elim,
            self.batch,
            self.merge,
            self.elim_flow,
            self.elim_redundant,
            self.size_harden,
            self.instrument_reads,
            self.lowfat_only,
        ] {
            out.push(flag as u8);
        }
        match &self.lowfat {
            LowFatPolicy::Disabled => out.push(0),
            LowFatPolicy::All => out.push(1),
            LowFatPolicy::AllowList(list) => {
                out.push(2);
                out.extend_from_slice(&(list.len() as u64).to_le_bytes());
                for site in list.iter() {
                    out.extend_from_slice(&site.to_le_bytes());
                }
            }
        }
        out
    }

    /// Decodes [`Self::canonical_bytes`]. Trailing garbage, a wrong
    /// tag, or a truncated allow-list are all hard errors -- a config
    /// that does not round-trip exactly must never be hardened under.
    pub fn from_canonical_bytes(bytes: &[u8]) -> Result<HardenConfig, String> {
        let rest = bytes
            .strip_prefix(CONFIG_TAG)
            .ok_or_else(|| "config encoding: bad or missing version tag".to_string())?;
        if rest.len() < FLAGS + 1 {
            return Err("config encoding: truncated flag block".to_string());
        }
        let (flags, rest) = rest.split_at(FLAGS);
        for (i, &b) in flags.iter().enumerate() {
            if b > 1 {
                return Err(format!("config encoding: flag {i} is {b}, not a bool"));
            }
        }
        let (policy, mut rest) = (rest[0], &rest[1..]);
        let lowfat = match policy {
            0 => LowFatPolicy::Disabled,
            1 => LowFatPolicy::All,
            2 => {
                if rest.len() < 8 {
                    return Err("config encoding: truncated allow-list count".to_string());
                }
                let (count_bytes, tail) = rest.split_at(8);
                let mut count_le = [0u8; 8];
                count_le.copy_from_slice(count_bytes);
                let count = u64::from_le_bytes(count_le);
                let need = (count as usize)
                    .checked_mul(8)
                    .ok_or_else(|| "config encoding: allow-list count overflows".to_string())?;
                if tail.len() < need {
                    return Err(format!(
                        "config encoding: allow-list declares {count} sites, {} bytes available",
                        tail.len()
                    ));
                }
                let (sites_bytes, tail) = tail.split_at(need);
                rest = tail;
                let mut list = AllowList::new();
                for chunk in sites_bytes.chunks_exact(8) {
                    let mut le = [0u8; 8];
                    le.copy_from_slice(chunk);
                    list.insert(u64::from_le_bytes(le));
                }
                LowFatPolicy::AllowList(list)
            }
            other => return Err(format!("config encoding: unknown policy byte {other}")),
        };
        if !rest.is_empty() {
            return Err(format!(
                "config encoding: {} trailing bytes after the LowFat policy",
                rest.len()
            ));
        }
        Ok(HardenConfig {
            elim: flags[0] == 1,
            batch: flags[1] == 1,
            merge: flags[2] == 1,
            elim_flow: flags[3] == 1,
            elim_redundant: flags[4] == 1,
            size_harden: flags[5] == 1,
            instrument_reads: flags[6] == 1,
            lowfat,
            lowfat_only: flags[7] == 1,
        })
    }

    /// Content digest of the canonical encoding: the config component
    /// of every artifact- and component-cache key.
    pub fn digest(&self) -> Digest {
        sha256(&self.canonical_bytes())
    }
}

/// Version tag of the canonical config encoding. Bump when the
/// encoding changes shape; old cache keys then miss instead of
/// colliding with entries produced under different semantics.
const CONFIG_TAG: &[u8] = b"redfat-config/v3\n";

/// Boolean knobs in the canonical encoding.
const FLAGS: usize = 8;

impl Default for HardenConfig {
    /// Fully optimized with full LowFat coverage (callers wanting the
    /// production workflow substitute an allow-list policy).
    fn default() -> HardenConfig {
        HardenConfig::with_redundant(LowFatPolicy::All)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_form_a_ladder() {
        let u = HardenConfig::unoptimized(LowFatPolicy::All);
        assert!(!u.elim && !u.batch && !u.merge);
        let e = HardenConfig::with_elim(LowFatPolicy::All);
        assert!(e.elim && !e.batch);
        let b = HardenConfig::with_batch(LowFatPolicy::All);
        assert!(b.elim && b.batch && !b.merge);
        let m = HardenConfig::with_merge(LowFatPolicy::All);
        assert!(m.elim && m.batch && m.merge && m.size_harden && m.instrument_reads);
        assert!(!m.elim_flow && !m.elim_redundant);
        let f = HardenConfig::with_flow(LowFatPolicy::All);
        assert!(f.merge && f.elim_flow && !f.elim_redundant);
        let d = HardenConfig::with_redundant(LowFatPolicy::All);
        assert!(d.elim_flow && d.elim_redundant && d.size_harden);
        let s = HardenConfig::minus_size(LowFatPolicy::All);
        assert!(!s.size_harden && s.instrument_reads && s.elim_redundant);
        let r = HardenConfig::minus_reads(LowFatPolicy::All);
        assert!(!r.size_harden && !r.instrument_reads);
    }

    #[test]
    fn canonical_roundtrip_all_presets() {
        let allow = LowFatPolicy::AllowList(AllowList::from_sites([0x40_1000, 0x40_2000]));
        let configs = [
            HardenConfig::unoptimized(LowFatPolicy::Disabled),
            HardenConfig::with_elim(LowFatPolicy::All),
            HardenConfig::with_batch(allow.clone()),
            HardenConfig::with_merge(LowFatPolicy::All),
            HardenConfig::with_flow(allow.clone()),
            HardenConfig::with_redundant(LowFatPolicy::All),
            HardenConfig::minus_size(LowFatPolicy::All),
            HardenConfig::minus_reads(allow),
            HardenConfig::lowfat_only(),
        ];
        for c in &configs {
            let bytes = c.canonical_bytes();
            let back = HardenConfig::from_canonical_bytes(&bytes)
                .unwrap_or_else(|e| panic!("roundtrip failed: {e}"));
            assert_eq!(&back, c);
        }
        // Distinct configs encode (and thus digest) distinctly.
        let mut seen = std::collections::HashSet::new();
        for c in &configs {
            assert!(seen.insert(c.digest()), "digest collision for {c:?}");
        }
    }

    #[test]
    fn canonical_decode_rejects_malformed() {
        let good = HardenConfig::default().canonical_bytes();
        assert!(HardenConfig::from_canonical_bytes(&[]).is_err());
        assert!(HardenConfig::from_canonical_bytes(b"not-a-config").is_err());
        // Truncations at every length must error, never panic.
        for len in 0..good.len() {
            assert!(
                HardenConfig::from_canonical_bytes(&good[..len]).is_err(),
                "truncation to {len} must be rejected"
            );
        }
        // Trailing garbage is rejected.
        let mut padded = good.clone();
        padded.push(0);
        assert!(HardenConfig::from_canonical_bytes(&padded).is_err());
        // Non-bool flag byte is rejected.
        let mut bad_flag = good.clone();
        bad_flag[CONFIG_TAG.len()] = 7;
        assert!(HardenConfig::from_canonical_bytes(&bad_flag).is_err());
        // Unknown policy byte is rejected.
        let mut bad_policy = good;
        let policy_at = CONFIG_TAG.len() + FLAGS;
        bad_policy[policy_at] = 9;
        assert!(HardenConfig::from_canonical_bytes(&bad_policy).is_err());
        // A truncated allow-list (declared count > bytes) is rejected.
        let listed =
            HardenConfig::with_merge(LowFatPolicy::AllowList(AllowList::from_sites([1, 2, 3])))
                .canonical_bytes();
        assert!(HardenConfig::from_canonical_bytes(&listed[..listed.len() - 4]).is_err());
    }

    /// The previous encoding carried a call-summary flag and an
    /// allocator-policy byte; bytes in it must never decode, whatever
    /// their payload, so an old cache key cannot alias a new config.
    #[test]
    fn canonical_decode_rejects_v2_bytes() {
        let mut v2 = b"redfat-config/v2\n".to_vec();
        // elim, batch, merge, flow, redundant, call summaries, size,
        // reads, lowfat_only; LowFat policy `All`; allocator `lowfat`.
        v2.extend_from_slice(&[1, 1, 1, 1, 1, 0, 1, 1, 0, 1, 0]);
        assert!(HardenConfig::from_canonical_bytes(&v2).is_err());
    }
}
