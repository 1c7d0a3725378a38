//! End-to-end daemon tests: dedupe, artifact warm hits, edits through
//! the kept base, and corrupt-cache robustness.

use redfat_analysis::{disassemble, Cfg};
use redfat_core::selftest::{assert_same_bytes, SplitMix64};
use redfat_core::{harden_threaded, HardenConfig, LowFatPolicy};
use redfat_elf::Image;
use redfat_service::{
    artifact_key, ArtifactCache, ArtifactEntry, Client, Op, Response, Server, ServerConfig, Source,
};
use std::path::{Path, PathBuf};

/// A directory of its own under the temp dir, removed when dropped. A
/// failing test keeps it for a look and prints where it is.
struct Scratch(PathBuf);

impl std::ops::Deref for Scratch {
    type Target = Path;
    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("kept the failed test's directory {}", self.0.display());
        } else {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

fn scratch(tag: &str) -> Scratch {
    let dir = std::env::temp_dir().join(format!("redfat-daemon-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    Scratch(dir)
}

/// Starts a daemon on a scratch socket; returns (its directory, config,
/// join handle).
fn start(tag: &str, workers: usize) -> (Scratch, ServerConfig, std::thread::JoinHandle<String>) {
    let dir = scratch(tag);
    let config = ServerConfig {
        socket: dir.join("daemon.sock"),
        cache_dir: dir.join("cache"),
        workers,
        threads: 2,
    };
    let server = Server::bind(config.clone()).expect("bind daemon");
    let handle = std::thread::spawn(move || server.run().expect("daemon run"));
    (dir, config, handle)
}

/// One stand-in image, built once per test binary: `spec::all()`
/// compiles the whole suite, which is far too slow to repeat per test
/// in debug mode.
fn workload_image_bytes() -> Vec<u8> {
    static IMAGE: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    IMAGE
        .get_or_init(|| redfat_workloads::spec::all()[0].image().to_bytes())
        .clone()
}

fn counter(stats: &str, key: &str) -> u64 {
    for line in stats.lines() {
        if let Some(v) = line.strip_prefix(key).and_then(|r| r.strip_prefix('=')) {
            return v.parse().expect("counter value");
        }
    }
    panic!("counter {key} missing from stats:\n{stats}");
}

#[test]
fn concurrent_identical_requests_cost_one_computation() {
    let (_dir, config, handle) = start("dedupe", 2);
    let image = workload_image_bytes();
    let cfg = HardenConfig::default().canonical_bytes();

    const CLIENTS: usize = 4;
    let mut joins = Vec::new();
    for _ in 0..CLIENTS {
        let socket = config.socket.clone();
        let image = image.clone();
        let cfg = cfg.clone();
        joins.push(std::thread::spawn(move || {
            let mut c = Client::connect(&socket).expect("connect");
            c.job(Op::Harden, cfg, image).expect("submit")
        }));
    }
    let responses: Vec<Response> = joins
        .into_iter()
        .map(|j| j.join().expect("client"))
        .collect();

    let mut artifacts = Vec::new();
    for r in &responses {
        match r {
            Response::Ok { artifact, .. } => artifacts.push(artifact.clone()),
            Response::Err(e) => panic!("job failed: {e}"),
        }
    }
    // Every client gets the same bytes, and they match a direct
    // one-shot harden of the same image and config.
    let direct = harden_threaded(
        &redfat_elf::Image::parse(&image).expect("parse"),
        &HardenConfig::default(),
        2,
    )
    .expect("direct harden")
    .image
    .to_bytes();
    for a in &artifacts {
        assert_same_bytes("a deduplicated client's artifact", a, &direct);
    }

    // However the arrivals interleaved, exactly one computation ran;
    // everyone else was deduplicated in flight or hit the published
    // artifact.
    let mut c = Client::connect(&config.socket).expect("connect");
    let stats = c.stats().expect("stats");
    assert_eq!(counter(&stats, "computations"), 1, "stats:\n{stats}");
    assert_eq!(
        counter(&stats, "deduped") + counter(&stats, "artifact_hits"),
        (CLIENTS - 1) as u64,
        "stats:\n{stats}"
    );
    assert_eq!(counter(&stats, "errors"), 0, "stats:\n{stats}");

    c.shutdown().expect("shutdown");
    handle.join().expect("daemon thread");
}

#[test]
fn one_worker_computes_concurrent_distinct_jobs_in_turn() {
    let (_dir, config, handle) = start("one-worker", 1);
    let cfg = HardenConfig::default();
    let names = ["perlbench", "bzip2", "mcf", "libquantum"];
    let images: Vec<Image> = redfat_workloads::spec::all()
        .into_iter()
        .filter(|w| names.contains(&w.name))
        .map(|w| w.image())
        .collect();
    assert_eq!(images.len(), names.len(), "stand-ins exist");

    // Four clients at once, one compute slot: the jobs wait their turn
    // for the slot and each computes its own image.
    let joins: Vec<_> = images
        .iter()
        .map(|image| {
            let socket = config.socket.clone();
            let (cfg, bytes) = (cfg.canonical_bytes(), image.to_bytes());
            std::thread::spawn(move || {
                let mut c = Client::connect(&socket).expect("connect");
                c.job(Op::Harden, cfg, bytes).expect("submit")
            })
        })
        .collect();
    for ((image, join), name) in images.iter().zip(joins).zip(names) {
        match join.join().expect("client") {
            Response::Ok {
                source, artifact, ..
            } => {
                assert_eq!(source, Source::Computed, "{name}");
                let one_shot = harden_threaded(image, &cfg, 2).expect("one-shot harden");
                assert_same_bytes(name, &artifact, &one_shot.image.to_bytes());
            }
            Response::Err(e) => panic!("{name}: job failed: {e}"),
        }
    }

    let mut c = Client::connect(&config.socket).expect("connect");
    let stats = c.stats().expect("stats");
    assert_eq!(counter(&stats, "computations"), 4, "stats:\n{stats}");
    assert_eq!(counter(&stats, "errors"), 0, "stats:\n{stats}");

    c.shutdown().expect("shutdown");
    handle.join().expect("daemon thread");
}

#[test]
fn warm_artifact_hit_does_zero_analysis() {
    let (_dir, config, handle) = start("warm", 1);
    let image = workload_image_bytes();
    let cfg = HardenConfig::default().canonical_bytes();

    let mut c = Client::connect(&config.socket).expect("connect");
    let cold = c
        .job(Op::Harden, cfg.clone(), image.clone())
        .expect("cold submit");
    let (cold_bytes, cold_micros) = match cold {
        Response::Ok {
            source,
            artifact,
            micros,
            ..
        } => {
            assert_eq!(source, Source::Computed);
            (artifact, micros)
        }
        Response::Err(e) => panic!("cold job failed: {e}"),
    };
    let analyzed_after_cold = counter(&c.stats().expect("stats"), "components_analyzed");
    assert!(analyzed_after_cold > 0, "cold run analyzed components");

    let warm = c.job(Op::Harden, cfg, image).expect("warm submit");
    match warm {
        Response::Ok {
            source,
            artifact,
            micros,
            ..
        } => {
            assert_eq!(source, Source::ArtifactHit);
            assert_same_bytes("the warm hit", &artifact, &cold_bytes);
            assert!(
                micros <= cold_micros,
                "warm lookup ({micros}us) within cold compute ({cold_micros}us)"
            );
        }
        Response::Err(e) => panic!("warm job failed: {e}"),
    }
    let stats = c.stats().expect("stats");
    assert_eq!(
        counter(&stats, "components_analyzed"),
        analyzed_after_cold,
        "warm hit did zero analysis; stats:\n{stats}"
    );
    assert_eq!(counter(&stats, "artifact_hits"), 1);

    c.shutdown().expect("shutdown");
    handle.join().expect("daemon thread");
}

#[test]
fn another_config_takes_the_full_path() {
    let (_dir, config, handle) = start("incr", 1);
    let base = workload_image_bytes();
    let cfg = HardenConfig::default().canonical_bytes();

    let mut c = Client::connect(&config.socket).expect("connect");
    match c
        .job(Op::Harden, cfg.clone(), base.clone())
        .expect("cold submit")
    {
        Response::Ok { source, .. } => assert_eq!(source, Source::Computed),
        Response::Err(e) => panic!("cold job failed: {e}"),
    }
    let after_cold = c.stats().expect("stats");
    let analyzed_cold = counter(&after_cold, "components_analyzed");
    assert!(analyzed_cold > 1, "stand-in has multiple components");

    // Submitting a *different* config over the same image is a new
    // artifact key and no edit of the kept base: it must re-plan every
    // component (config changes invalidate analysis). `unoptimized`
    // keeps the recompute cheap (no elimination analyses run).
    let other = HardenConfig::unoptimized(LowFatPolicy::All).canonical_bytes();
    match c
        .job(Op::Harden, other, base.clone())
        .expect("second submit")
    {
        Response::Ok { source, .. } => assert_eq!(source, Source::Computed),
        Response::Err(e) => panic!("second job failed: {e}"),
    }
    let after_other = c.stats().expect("stats");
    assert!(
        counter(&after_other, "components_analyzed") > analyzed_cold,
        "different config re-analyzes; stats:\n{after_other}"
    );
    assert_eq!(counter(&after_other, "components_reused"), 0);
    assert_eq!(counter(&after_other, "kept_base_fallbacks"), 1);

    // Re-submitting the original config exercises the artifact cache,
    // not the kept base (whole-job hit short-circuits first).
    match c.job(Op::Harden, cfg, base).expect("resubmit") {
        Response::Ok { source, .. } => assert_eq!(source, Source::ArtifactHit),
        Response::Err(e) => panic!("resubmit failed: {e}"),
    }

    c.shutdown().expect("shutdown");
    handle.join().expect("daemon thread");
}

/// Byte addresses of low-bit flips of `image` that the kept base
/// answers as edits, each in another CFG component: the last byte of an
/// instruction that spans at least four bytes and under that flip keeps
/// its length and stays clear of control flow. Each component offers
/// its first flip, in address order, that moves the memory operand of a
/// batch anchor, else its first other flip. Flips of the first kind
/// change their component's checks, so a base that served a stale plan
/// would answer with other bytes; they come first, each kind in
/// component order.
fn component_flips(image: &Image, count: usize) -> Vec<u64> {
    let disasm = disassemble(image);
    let cfg = Cfg::recover(&disasm, image.entry, &[]);
    let anchors: Vec<u64> = harden_threaded(image, &HardenConfig::default(), 1)
        .expect("hardens")
        .clobbers
        .iter()
        .map(|&(anchor, _)| anchor)
        .collect();
    // `(false, at)` for a flip at `at` that moves an anchor's operand.
    let flippable = |addr: u64| {
        let &(inst, len) = disasm.at(addr)?;
        if len < 4 || inst.is_control_flow() {
            return None;
        }
        let mut bytes = image.read_bytes(addr, len as usize)?.to_vec();
        bytes[len as usize - 1] ^= 1;
        match redfat_x86::decode_one(&bytes, addr) {
            Ok((flipped, l)) if l == len && !flipped.is_control_flow() => {
                let moves = flipped.memory_access() != inst.memory_access();
                let checked = moves && anchors.binary_search(&addr).is_ok();
                Some((!checked, addr + u64::from(len) - 1))
            }
            _ => None,
        }
    };
    let mut flips: Vec<(bool, u64)> = cfg
        .component_starts()
        .iter()
        .filter_map(|starts| {
            let members = starts.iter().flat_map(|s| cfg.blocks[s].insts.iter());
            members.filter_map(|&addr| flippable(addr)).min()
        })
        .collect();
    flips.sort_by_key(|&(unchecked, _)| unchecked);
    assert!(flips.len() >= count, "components that take a flip");
    flips.into_iter().take(count).map(|(_, at)| at).collect()
}

/// `image` with the low bit of the byte at each address of `at` flipped.
fn flipped(image: &Image, at: &[u64]) -> Image {
    let mut out = image.clone();
    for &a in at {
        let seg = out
            .segments
            .iter_mut()
            .find(|s| s.vaddr <= a && a - s.vaddr < s.data.len() as u64)
            .expect("code lies in a segment");
        seg.data[(a - seg.vaddr) as usize] ^= 1;
    }
    out
}

/// Submits `image`, named `what` in failures, for hardening and checks
/// the reply against a one-shot harden and the daemon's kept-base
/// counters. Returns the reply stats.
fn harden_and_check(
    c: &mut Client,
    image: &Image,
    edits: u64,
    fallbacks: u64,
    what: &str,
) -> String {
    let cfg = HardenConfig::default();
    let reply = c
        .job(Op::Harden, cfg.canonical_bytes(), image.to_bytes())
        .expect("submit");
    let Response::Ok {
        source,
        artifact,
        stats,
        ..
    } = reply
    else {
        panic!("job failed: {reply:?}");
    };
    assert_eq!(source, Source::Computed, "{what}");
    let one_shot = harden_threaded(image, &cfg, 2).expect("one-shot harden");
    assert_same_bytes(what, &artifact, &one_shot.image.to_bytes());
    let server = c.stats().expect("stats");
    assert_eq!(
        counter(&server, "kept_base_edits"),
        edits,
        "{what}: {server}"
    );
    assert_eq!(
        counter(&server, "kept_base_fallbacks"),
        fallbacks,
        "{what}: {server}"
    );
    stats
}

/// Asserts that the job whose reply `stats` renders planned exactly
/// `fresh` components afresh.
fn assert_replanned(stats: &str, fresh: u64) {
    assert_eq!(
        counter(stats, "components_reused") + fresh,
        counter(stats, "components"),
        "{fresh} components planned afresh:\n{stats}"
    );
}

#[test]
fn edits_take_the_kept_base_and_a_new_image_replaces_it() {
    let (_dir, config, handle) = start("kept", 1);
    let mut c = Client::connect(&config.socket).expect("connect");

    // The first job finds no base and keeps its own.
    let first = Image::parse(&workload_image_bytes()).expect("parse");
    harden_and_check(&mut c, &first, 0, 0, "the first image");
    // Three chained edits, each flipping one more component on top of
    // the previous one. The base stays the first image, so edit k
    // re-plans the k components that differ from it.
    let flips = component_flips(&first, 3);
    for k in 1..=3 {
        let image = flipped(&first, &flips[..k]);
        let stats = harden_and_check(&mut c, &image, k as u64, 0, &format!("chained edit {k}"));
        assert_replanned(&stats, k as u64);
    }
    // A different image is no edit of the base and replaces it...
    let other = redfat_workloads::spec::by_name("bzip2")
        .expect("stand-in exists")
        .image();
    harden_and_check(&mut c, &other, 3, 1, "another stand-in");
    // ...so its own edit takes the kept base again, and an edit of the
    // first image no longer does.
    let other_flip = component_flips(&other, 1);
    assert_replanned(
        &harden_and_check(
            &mut c,
            &flipped(&other, &other_flip),
            4,
            1,
            "an edit of the other stand-in",
        ),
        1,
    );
    let stats = harden_and_check(
        &mut c,
        &flipped(&first, &flips[1..2]),
        4,
        2,
        "an edit of the first image",
    );
    assert_replanned(&stats, counter(&stats, "components"));

    c.shutdown().expect("shutdown");
    handle.join().expect("daemon thread");
}

#[test]
fn sibling_edits_and_alternating_images_count_by_the_last_full_harden() {
    let (_dir, config, handle) = start("siblings", 1);
    let mut c = Client::connect(&config.socket).expect("connect");
    let a = Image::parse(&workload_image_bytes()).expect("parse");
    let b = redfat_workloads::spec::by_name("bzip2")
        .expect("stand-in exists")
        .image();

    // Siblings: each is `a` with one component's flip, so each also
    // reverts the previous one's, yet each re-plans one component.
    let a_first = harden_and_check(&mut c, &a, 0, 0, "image a");
    let flips = component_flips(&a, 5);
    for k in 0..3 {
        let what = format!("sibling {k} of a");
        let stats = harden_and_check(&mut c, &flipped(&a, &flips[k..=k]), k as u64 + 1, 0, &what);
        assert_replanned(&stats, 1);
    }

    // A, B, A: B replaces the base, and the repeat of A is an artifact
    // hit that leaves the base and the counts alone.
    harden_and_check(&mut c, &b, 3, 1, "image b");
    let cfg = HardenConfig::default().canonical_bytes();
    match c.job(Op::Harden, cfg, a.to_bytes()).expect("resubmit") {
        Response::Ok { source, stats, .. } => {
            assert_eq!(source, Source::ArtifactHit);
            assert_eq!(stats, a_first, "the first answer's stats");
        }
        Response::Err(e) => panic!("resubmit failed: {e}"),
    }
    // So the next sibling of `a` takes the full path and becomes the
    // base, and the one after it differs from that base in two
    // components: its own flip and the reverted one.
    let stats = harden_and_check(&mut c, &flipped(&a, &flips[3..4]), 3, 2, "sibling 3 of a");
    assert_replanned(&stats, counter(&stats, "components"));
    let stats = harden_and_check(&mut c, &flipped(&a, &flips[4..5]), 4, 2, "sibling 4 of a");
    assert_replanned(&stats, 2);

    // Every counter the daemon renders, in order.
    let rendered = c.stats().expect("stats");
    let keys: Vec<&str> = rendered
        .lines()
        .filter_map(|l| l.split_once('=').map(|(k, _)| k))
        .collect();
    assert_eq!(
        keys,
        [
            "requests",
            "job_requests",
            "artifact_hits",
            "computations",
            "deduped",
            "errors",
            "components_analyzed",
            "components_reused",
            "kept_base_edits",
            "kept_base_fallbacks",
        ]
    );

    c.shutdown().expect("shutdown");
    handle.join().expect("daemon thread");
}

#[test]
fn malformed_and_non_job_requests_never_kill_the_daemon() {
    let (_dir, config, handle) = start("malformed", 1);

    // Garbage config bytes: structured error, daemon stays up.
    let mut c = Client::connect(&config.socket).expect("connect");
    match c
        .job(Op::Harden, vec![0xFF; 8], workload_image_bytes())
        .expect("submit garbage config")
    {
        Response::Err(e) => assert!(e.contains("bad config"), "error names the cause: {e}"),
        Response::Ok { .. } => panic!("garbage config must not harden"),
    }

    // Garbage image bytes likewise.
    let mut c = Client::connect(&config.socket).expect("connect");
    match c
        .job(
            Op::Harden,
            HardenConfig::default().canonical_bytes(),
            b"not an elf".to_vec(),
        )
        .expect("submit garbage image")
    {
        Response::Err(e) => assert!(e.contains("parse failed"), "error names the cause: {e}"),
        Response::Ok { .. } => panic!("garbage image must not harden"),
    }

    let mut c = Client::connect(&config.socket).expect("connect");
    let stats = c.stats().expect("stats");
    assert_eq!(counter(&stats, "errors"), 2, "stats:\n{stats}");
    assert_eq!(counter(&stats, "computations"), 0);

    c.shutdown().expect("shutdown");
    handle.join().expect("daemon thread");
}

/// Satellite: corrupt artifact entries -- truncations, bit flips,
/// wrong tool versions -- must classify as misses and recompute,
/// never panic and never serve stale or wrong bytes.
#[test]
fn corrupted_artifacts_are_misses_never_stale() {
    let dir = scratch("corrupt");
    let cache = ArtifactCache::open(dir.join("cache")).expect("open cache");
    let key = artifact_key(b"input-image", b"config-bytes", 1);
    let entry = ArtifactEntry {
        artifact: (0u16..700).map(|b| (b % 251) as u8).collect(),
        stats: "sites=9\ncomponents=3\n".to_string(),
    };
    cache.put(&key, &entry).expect("publish");
    let pristine = std::fs::read(cache.entry_path(&key)).expect("read entry");

    let mut rng = SplitMix64::new(0xC0FFEE);
    for case in 0..200 {
        let mut bytes = pristine.clone();
        match rng.below(3) {
            // Truncate at a random point (including empty).
            0 => bytes.truncate(rng.below(bytes.len() as u64) as usize),
            // Flip one random bit.
            1 => {
                let i = rng.below(bytes.len() as u64) as usize;
                bytes[i] ^= 1 << rng.below(8);
            }
            // Stamp a different tool version string over the header's
            // version field (same length, different bytes).
            _ => {
                let start = 8 + 4 + 8; // magic + format + length prefix
                let i = start + rng.below(8) as usize;
                bytes[i] = bytes[i].wrapping_add(1);
            }
        }
        if bytes == pristine {
            continue; // mutation was a no-op; nothing to assert
        }
        std::fs::write(cache.entry_path(&key), &bytes).expect("plant corruption");
        let got = cache.get(&key);
        assert_eq!(got, None, "case {case}: corrupt entry must miss");
        // Recompute-and-republish heals the entry.
        cache.put(&key, &entry).expect("republish");
        assert_eq!(cache.get(&key), Some(entry.clone()), "case {case}: healed");
    }
}

/// A daemon pointed at a cache directory full of corrupt entries
/// recomputes and heals without ever panicking.
#[test]
fn daemon_survives_poisoned_cache_directory() {
    let (_dir, config, handle) = start("poisoned", 1);
    let image = workload_image_bytes();
    let cfg = HardenConfig::default().canonical_bytes();

    let mut c = Client::connect(&config.socket).expect("connect");
    let cold = match c
        .job(Op::Harden, cfg.clone(), image.clone())
        .expect("cold submit")
    {
        Response::Ok { artifact, .. } => artifact,
        Response::Err(e) => panic!("cold job failed: {e}"),
    };

    // Corrupt the (single) published entry in place.
    let cache = ArtifactCache::open(&config.cache_dir).expect("open cache");
    let key = artifact_key(&image, &cfg, Op::Harden.to_byte());
    let path = cache.entry_path(&key);
    let mut bytes = std::fs::read(&path).expect("read entry");
    let mid = bytes.len() / 2;
    bytes.truncate(mid);
    std::fs::write(&path, &bytes).expect("truncate entry");

    // The truncated entry is a miss: the daemon recomputes (source is
    // Computed, not ArtifactHit) and still returns identical bytes.
    match c
        .job(Op::Harden, cfg.clone(), image.clone())
        .expect("resubmit")
    {
        Response::Ok {
            source, artifact, ..
        } => {
            assert_eq!(source, Source::Computed, "corrupt entry recomputes");
            assert_same_bytes("the recompute", &artifact, &cold);
        }
        Response::Err(e) => panic!("resubmit failed: {e}"),
    }

    // ... and the recompute healed the entry: next submit is a hit.
    match c.job(Op::Harden, cfg, image).expect("warm submit") {
        Response::Ok {
            source, artifact, ..
        } => {
            assert_eq!(source, Source::ArtifactHit);
            assert_same_bytes("the healed hit", &artifact, &cold);
        }
        Response::Err(e) => panic!("warm submit failed: {e}"),
    }

    c.shutdown().expect("shutdown");
    handle.join().expect("daemon thread");
}

#[test]
fn profile_op_and_analyze_op_have_distinct_artifacts() {
    let (_dir, config, handle) = start("ops", 1);
    let image = workload_image_bytes();
    let cfg = HardenConfig::default().canonical_bytes();

    let mut c = Client::connect(&config.socket).expect("connect");
    let profiled = match c
        .job(Op::Profile, cfg.clone(), image.clone())
        .expect("profile")
    {
        Response::Ok { artifact, .. } => artifact,
        Response::Err(e) => panic!("profile failed: {e}"),
    };
    assert!(!profiled.is_empty(), "profile op returns an image");

    let analyzed = match c.job(Op::Analyze, cfg, image).expect("analyze") {
        Response::Ok {
            artifact, stats, ..
        } => {
            assert!(stats.contains("sites_considered="), "analyze returns stats");
            artifact
        }
        Response::Err(e) => panic!("analyze failed: {e}"),
    };
    assert!(analyzed.is_empty(), "analyze op returns stats only");

    c.shutdown().expect("shutdown");
    handle.join().expect("daemon thread");
}
