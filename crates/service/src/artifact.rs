//! Content-addressed on-disk artifact cache.
//!
//! Artifacts are keyed by `sha256(tool version, input digest, config
//! digest, op)` and stored one file per key under the cache directory,
//! named `<key-hex>.rfa`. Publication is atomic: the entry is written
//! to a unique temporary file in the same directory and `rename(2)`d
//! into place, so readers only ever observe absent or complete files
//! and concurrent writers of the same key are idempotent.
//!
//! Reads are *verified*: the file must carry the expected magic,
//! format version, tool version, key, and a payload digest matching
//! the payload bytes. Any mismatch -- truncation, bit flips, an entry
//! written by a different tool version -- classifies as a cache miss
//! (the caller recomputes and rewrites the entry); corrupt on-disk
//! state can cost recomputation but can never serve wrong bytes.

use redfat_core::digest::{sha256, Digest, Sha256, TOOL_VERSION};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// On-disk entry magic.
const ENTRY_MAGIC: &[u8; 8] = b"RFATCACH";
/// On-disk format version.
const ENTRY_FORMAT: u32 = 1;

/// One cached job result: the artifact bytes plus the pipeline's
/// statistics rendering, so a warm hit reproduces the whole response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtifactEntry {
    /// The output image bytes (may be empty for analyze-only jobs).
    pub artifact: Vec<u8>,
    /// Human-readable pipeline statistics.
    pub stats: String,
}

/// The content-addressed cache rooted at one directory.
pub struct ArtifactCache {
    dir: PathBuf,
    tmp_counter: AtomicU64,
}

/// Derives the artifact key for a job: every input that can change the
/// output participates -- tool version, the submitted bytes, the
/// canonical config, and the operation.
pub fn artifact_key(image_bytes: &[u8], config_bytes: &[u8], op_byte: u8) -> Digest {
    let mut h = Sha256::new();
    let tool = TOOL_VERSION.as_bytes();
    h.update_u64(tool.len() as u64);
    h.update(tool);
    h.update_u64(image_bytes.len() as u64);
    h.update(image_bytes);
    h.update_u64(config_bytes.len() as u64);
    h.update(config_bytes);
    h.update(&[op_byte]);
    h.finalize()
}

impl ArtifactCache {
    /// Opens (creating if needed) the cache directory.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<ArtifactCache> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(ArtifactCache {
            dir,
            tmp_counter: AtomicU64::new(0),
        })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the published entry for `key`.
    pub fn entry_path(&self, key: &Digest) -> PathBuf {
        self.dir.join(format!("{}.rfa", key.to_hex()))
    }

    /// Looks up `key`, verifying the entry end to end. Returns `None`
    /// -- a miss -- for absent, truncated, corrupted, mis-keyed, or
    /// wrong-tool-version entries alike.
    pub fn get(&self, key: &Digest) -> Option<ArtifactEntry> {
        let bytes = std::fs::read(self.entry_path(key)).ok()?;
        decode_entry(&bytes, key)
    }

    /// Publishes `entry` under `key` atomically: temp-file write, then
    /// rename into place. Concurrent publishes of the same key race
    /// benignly (equal content by key derivation).
    pub fn put(&self, key: &Digest, entry: &ArtifactEntry) -> std::io::Result<()> {
        let n = self.tmp_counter.fetch_add(1, Ordering::Relaxed);
        let tmp = self
            .dir
            .join(format!(".tmp-{}-{}-{n}", key.to_hex(), std::process::id()));
        let publish = (|| {
            let mut f = std::fs::File::create(&tmp)?;
            write_entry(&mut f, key, entry)?;
            f.sync_all()?;
            std::fs::rename(&tmp, self.entry_path(key))
        })();
        if publish.is_err() {
            // Best-effort cleanup of the orphaned temp file.
            let _ = std::fs::remove_file(&tmp);
        }
        publish
    }
}

/// Writes an entry: header (magic, format, tool version, key),
/// payload digest + length, then the payload (artifact + stats, each
/// length-prefixed). The payload is digested and written from `entry`
/// in place, never copied into a buffer of its own.
fn write_entry(out: &mut impl Write, key: &Digest, entry: &ArtifactEntry) -> std::io::Result<()> {
    let artifact_len = (entry.artifact.len() as u64).to_le_bytes();
    let stats_len = (entry.stats.len() as u64).to_le_bytes();
    let payload: [&[u8]; 4] = [
        &artifact_len,
        &entry.artifact,
        &stats_len,
        entry.stats.as_bytes(),
    ];
    let mut digest = Sha256::new();
    for part in payload {
        digest.update(part);
    }
    let payload_len: usize = payload.iter().map(|part| part.len()).sum();

    let mut header = Vec::with_capacity(128);
    header.extend_from_slice(ENTRY_MAGIC);
    header.extend_from_slice(&ENTRY_FORMAT.to_le_bytes());
    let tool = TOOL_VERSION.as_bytes();
    header.extend_from_slice(&(tool.len() as u64).to_le_bytes());
    header.extend_from_slice(tool);
    header.extend_from_slice(key.as_bytes());
    header.extend_from_slice(digest.finalize().as_bytes());
    header.extend_from_slice(&(payload_len as u64).to_le_bytes());
    header.extend_from_slice(&artifact_len);
    out.write_all(&header)?;
    out.write_all(&entry.artifact)?;
    let mut tail = Vec::with_capacity(8 + entry.stats.len());
    tail.extend_from_slice(&stats_len);
    tail.extend_from_slice(entry.stats.as_bytes());
    out.write_all(&tail)
}

/// Bounds-checked field reader over entry bytes; `None` anywhere means
/// the entry is corrupt and classifies as a miss.
struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.data.len())?;
        let out = &self.data[self.pos..end];
        self.pos = end;
        Some(out)
    }

    fn u32(&mut self) -> Option<u32> {
        let b = self.take(4)?;
        Some(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Option<u64> {
        let b = self.take(8)?;
        let mut le = [0u8; 8];
        le.copy_from_slice(b);
        Some(u64::from_le_bytes(le))
    }

    fn digest(&mut self) -> Option<Digest> {
        let b = self.take(32)?;
        let mut d = [0u8; 32];
        d.copy_from_slice(b);
        Some(Digest(d))
    }
}

/// Decodes and fully verifies entry bytes against the expected key.
fn decode_entry(bytes: &[u8], key: &Digest) -> Option<ArtifactEntry> {
    let mut r = Reader {
        data: bytes,
        pos: 0,
    };
    if r.take(ENTRY_MAGIC.len())? != ENTRY_MAGIC {
        return None;
    }
    if r.u32()? != ENTRY_FORMAT {
        return None;
    }
    let tool_len = r.u64()? as usize;
    if tool_len > bytes.len() {
        return None;
    }
    if r.take(tool_len)? != TOOL_VERSION.as_bytes() {
        return None;
    }
    if r.digest()? != *key {
        return None;
    }
    let payload_digest = r.digest()?;
    let payload_len = r.u64()? as usize;
    let payload = r.take(payload_len)?;
    if r.pos != bytes.len() {
        return None; // trailing bytes: not an entry we wrote
    }
    if sha256(payload) != payload_digest {
        return None;
    }

    let mut p = Reader {
        data: payload,
        pos: 0,
    };
    let artifact_len = p.u64()? as usize;
    let artifact = p.take(artifact_len)?.to_vec();
    let stats_len = p.u64()? as usize;
    let stats_bytes = p.take(stats_len)?;
    if p.pos != payload.len() {
        return None;
    }
    let stats = String::from_utf8(stats_bytes.to_vec()).ok()?;
    Some(ArtifactEntry { artifact, stats })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("redfat-artifact-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn put_get_roundtrip() {
        let dir = tmp_dir("roundtrip");
        let cache = ArtifactCache::open(&dir).unwrap();
        let key = artifact_key(b"image", b"config", 1);
        assert_eq!(cache.get(&key), None, "empty cache misses");
        let entry = ArtifactEntry {
            artifact: vec![7; 200],
            stats: "sites=3\n".to_string(),
        };
        cache.put(&key, &entry).unwrap();
        assert_eq!(cache.get(&key), Some(entry));
        // No stray temp files remain.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "temp files cleaned: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn put_writes_the_pinned_entry_layout() {
        let dir = tmp_dir("layout");
        let cache = ArtifactCache::open(&dir).unwrap();
        let key = artifact_key(b"image", b"config", 1);
        let entry = ArtifactEntry {
            artifact: vec![0xAA, 0xBB, 0xCC],
            stats: "sites=3\n".to_string(),
        };
        cache.put(&key, &entry).unwrap();

        let mut payload = Vec::new();
        payload.extend_from_slice(&3u64.to_le_bytes());
        payload.extend_from_slice(&[0xAA, 0xBB, 0xCC]);
        payload.extend_from_slice(&8u64.to_le_bytes());
        payload.extend_from_slice(b"sites=3\n");
        let mut expected = b"RFATCACH".to_vec();
        expected.extend_from_slice(&1u32.to_le_bytes());
        expected.extend_from_slice(&(TOOL_VERSION.len() as u64).to_le_bytes());
        expected.extend_from_slice(TOOL_VERSION.as_bytes());
        expected.extend_from_slice(key.as_bytes());
        expected.extend_from_slice(sha256(&payload).as_bytes());
        expected.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        expected.extend_from_slice(&payload);
        assert_eq!(std::fs::read(cache.entry_path(&key)).unwrap(), expected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_separates_inputs_configs_and_ops() {
        let base = artifact_key(b"image", b"config", 1);
        assert_ne!(base, artifact_key(b"imagf", b"config", 1));
        assert_ne!(base, artifact_key(b"image", b"confih", 1));
        assert_ne!(base, artifact_key(b"image", b"config", 2));
        // Length-prefixing prevents field aliasing.
        assert_ne!(artifact_key(b"ab", b"c", 1), artifact_key(b"a", b"bc", 1));
    }

    /// Two jobs differing only in the allocator policy must land in
    /// different cache slots: the policy byte rides in the canonical
    /// config bytes, which participate in the key verbatim.
    #[test]
    fn key_separates_allocator_policies() {
        use redfat_core::HardenConfig;
        let mut keys = std::collections::HashSet::new();
        for kind in redfat_core::AllocPolicyKind::ALL {
            let cfg = HardenConfig {
                alloc_policy: kind,
                ..HardenConfig::default()
            };
            assert!(
                keys.insert(artifact_key(b"image", &cfg.canonical_bytes(), 1)),
                "policy {kind} collided with another policy's cache key"
            );
        }
    }

    #[test]
    fn wrong_key_file_is_a_miss() {
        let dir = tmp_dir("wrongkey");
        let cache = ArtifactCache::open(&dir).unwrap();
        let key_a = artifact_key(b"a", b"", 1);
        let key_b = artifact_key(b"b", b"", 1);
        let entry = ArtifactEntry {
            artifact: vec![1],
            stats: String::new(),
        };
        cache.put(&key_a, &entry).unwrap();
        // Copy A's entry to B's path: the embedded key mismatch must
        // classify as a miss, never serve A's bytes for B.
        std::fs::copy(cache.entry_path(&key_a), cache.entry_path(&key_b)).unwrap();
        assert_eq!(cache.get(&key_b), None);
        assert_eq!(cache.get(&key_a), Some(entry));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
