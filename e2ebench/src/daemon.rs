//! `daemon-kromium`: one client of an in-process hardening daemon,
//! sending a seeded mix of edits and hits of kromium.
//!
//! Why this workload: it is harden-kromium's pipeline behind the
//! daemon's caches. An edit re-analyzes one of kromium's components and
//! writes an artifact; disassembly, CFG recovery, component keys, the
//! rewrite, SHA-256 and fsync remain. A hit is a verified read of that
//! artifact. Edits are structure-preserving byte flips: source-level
//! edits would shift later addresses and miss most components.

use crate::inputs::{daemon_ops, pick_edits, DaemonOp, Edit};
use crate::kromium;
use crate::report::{EndToEnd, Report};
use crate::setup_reps;
use crate::stats::{median, tail_percentile};
use redfat_core::{harden_threaded, HardenConfig};
use redfat_elf::Image;
use redfat_service::{Client, Op, Request, Response, Server, ServerConfig, Source};
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::Instant;

/// A running in-process daemon with one connected client. Dropping it
/// shuts the daemon down, joins its thread and removes its cache.
pub struct Daemon {
    /// The connection.
    pub client: Client,
    server: Option<JoinHandle<std::io::Result<String>>>,
    cache_dir: PathBuf,
}

impl Daemon {
    /// Starts a daemon with one worker, `threads` analysis threads and
    /// a fresh cache directory, both named after `tag` in the current
    /// directory (relative, so the socket path stays short).
    pub fn start(tag: &str, threads: usize) -> std::io::Result<Daemon> {
        let cache_dir = PathBuf::from(format!("cache-{tag}"));
        let _ = std::fs::remove_dir_all(&cache_dir);
        let socket = PathBuf::from(format!("{tag}.sock"));
        let server = Server::bind(ServerConfig {
            socket: socket.clone(),
            cache_dir: cache_dir.clone(),
            workers: 1,
            threads,
        })?;
        let handle = std::thread::spawn(move || server.run());
        Ok(Daemon {
            client: Client::connect(&socket)?,
            server: Some(handle),
            cache_dir,
        })
    }

    /// The daemon's counter named `key` from its `stats` rendering.
    pub fn stat(&mut self, key: &str) -> Option<u64> {
        let stats = self.client.stats().ok()?;
        stat_value(&stats, key)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.client.shutdown();
        if let Some(h) = self.server.take() {
            let _ = h.join();
        }
        let _ = std::fs::remove_dir_all(&self.cache_dir);
    }
}

/// Value of `key=value` in a stats rendering.
pub fn stat_value(stats: &str, key: &str) -> Option<u64> {
    stats
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix('=')?.parse().ok())
}

/// A harden request for `image` bytes under the default config.
pub fn harden_request(image: Vec<u8>) -> Request {
    Request {
        op: Op::Harden,
        config: HardenConfig::default().canonical_bytes(),
        image,
    }
}

/// The outcome of one request as the client saw it.
pub struct Reply {
    /// Client round trip in milliseconds.
    pub ms: f64,
    /// Server-reported time in milliseconds.
    pub server_ms: f64,
    /// Where the result came from (`None` for an error response).
    pub source: Option<Source>,
    /// The pipeline statistics rendering.
    pub stats: String,
    /// The artifact.
    pub artifact: Vec<u8>,
}

/// Sends `req` and times the round trip.
pub fn submit(client: &mut Client, req: &Request) -> Reply {
    let start = Instant::now();
    let resp = client.submit(req);
    let ms = start.elapsed().as_secs_f64() * 1e3;
    match resp {
        Ok(Response::Ok {
            source,
            micros,
            stats,
            artifact,
        }) => Reply {
            ms,
            server_ms: micros as f64 / 1e3,
            source: Some(source),
            stats,
            artifact,
        },
        _ => Reply {
            ms,
            server_ms: 0.0,
            source: None,
            stats: String::new(),
            artifact: Vec::new(),
        },
    }
}

/// Checks an edit's reply: computed, with exactly one component
/// analyzed afresh.
pub fn check_edit(reply: &Reply) -> Result<(), String> {
    let comps = stat_value(&reply.stats, "components");
    let reused = stat_value(&reply.stats, "components_reused");
    match (reply.source, comps, reused) {
        (Some(Source::Computed), Some(c), Some(r)) if r + 1 == c => Ok(()),
        _ => Err(format!(
            "edit: source {:?}, components {comps:?}, reused {reused:?}",
            reply.source
        )),
    }
}

/// Edits per run: one per requested second (an edit takes roughly
/// 0.45-0.6 s), at least five.
fn edits_for(seconds: u64) -> usize {
    (seconds as usize).max(5)
}

/// Hits per run: five per requested second, at least 100, so ten or
/// more samples lie beyond the logged p90.
fn hits_for(seconds: u64) -> usize {
    (5 * seconds as usize).max(100)
}

/// The primed daemon and the request variants of one set-up.
struct Setup {
    daemon: Daemon,
    image: Image,
    /// The daemon's artifact for the unedited image.
    primed: Vec<u8>,
    edits: Vec<Edit>,
    variants: Vec<Request>,
}

/// Runs the workload and fills `report`.
pub fn run(seed: u64, seconds: u64, threads: usize, report: &mut Report) {
    let n_edits = edits_for(seconds);
    let mut rep = 0;
    let (mut s, setup_s) = setup_reps(|| {
        rep += 1;
        let image = kromium::build(seed);
        let edits = pick_edits(&image, seed, n_edits);
        let variants = edits
            .iter()
            .map(|e| harden_request(e.apply(&image).to_bytes()))
            .collect();
        let mut daemon =
            Daemon::start(&format!("d{}-{rep}", std::process::id()), threads).expect("daemon");
        let prime = submit(&mut daemon.client, &harden_request(image.to_bytes()));
        assert_eq!(prime.source, Some(Source::Computed), "priming computes");
        Setup {
            daemon,
            image,
            primed: prime.artifact,
            edits,
            variants,
        }
    });

    let ops = daemon_ops(seed, n_edits, hits_for(seconds));
    let mut artifacts: Vec<Vec<u8>> = vec![Vec::new(); n_edits];
    let (mut edit_ms, mut hit_ms) = (Vec::new(), Vec::new());
    for op in &ops {
        let (DaemonOp::Edit(v) | DaemonOp::Hit(v)) = *op;
        let reply = submit(&mut s.daemon.client, &s.variants[v]);
        let checked = match op {
            DaemonOp::Edit(_) => {
                edit_ms.push(reply.ms);
                let ok = check_edit(&reply);
                artifacts[v] = reply.artifact;
                ok
            }
            DaemonOp::Hit(_) => {
                hit_ms.push(reply.ms);
                if reply.source == Some(Source::ArtifactHit) && reply.artifact == artifacts[v] {
                    Ok(())
                } else {
                    Err(format!(
                        "hit of variant {v}: {:?} or bytes differ",
                        reply.source
                    ))
                }
            }
        };
        report.op(checked.is_ok(), || checked.unwrap_err());
    }

    // Outside the timed loop: every artifact equals a one-shot harden,
    // and the primed artifact's startup run prints what kromium prints.
    let config = HardenConfig::default();
    for (v, edit) in s.edits.iter().enumerate() {
        let ok = harden_threaded(&edit.apply(&s.image), &config, threads)
            .is_ok_and(|h| h.image.to_bytes() == artifacts[v]);
        report.op(ok, || {
            format!("variant {v}: artifact differs from a one-shot harden")
        });
    }
    let startup = Image::parse(&s.primed)
        .map_err(|e| format!("primed artifact does not parse: {e}"))
        .and_then(|primed| kromium::startup_cycles_x(&s.image, &primed));
    let cycles_x = *startup.as_ref().unwrap_or(&f64::NAN);
    report.op(startup.is_ok(), || startup.unwrap_err());
    let counters = (
        s.daemon.stat("errors"),
        s.daemon.stat("artifact_hits"),
        s.daemon.stat("computations"),
    );
    let expected = (Some(0), Some(hit_ms.len() as u64), Some(n_edits as u64 + 1));
    report.op(counters == expected, || {
        format!("daemon counters (errors, hits, computations) {counters:?}, expected {expected:?}")
    });
    drop(s);

    report.note(format!(
        "hit p50 {:.3} ms over {} hits (log only)",
        median(&hit_ms),
        hit_ms.len()
    ));
    report.note(match tail_percentile(&hit_ms, 90.0) {
        Some(p90) => format!("hit p90 {p90:.3} ms over {} hits (log only)", hit_ms.len()),
        None => format!("hit p90 omitted: only {} hits", hit_ms.len()),
    });
    let artifact_kb: Vec<f64> = artifacts.iter().map(|a| a.len() as f64 / 1024.0).collect();
    EndToEnd {
        setup_s,
        op_ms: (
            median(&edit_ms),
            format!("median round trip of {} edits", edit_ms.len()),
        ),
        out_kb: (
            median(&artifact_kb),
            format!("exact, median artifact size of {} edits", artifacts.len()),
        ),
        cycles_x: (
            cycles_x,
            "exact, hardened/baseline modeled cycles of the primed artifact's startup run".into(),
        ),
    }
    .report(report);
}
