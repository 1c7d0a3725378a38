//! The daemon: accept loop, job scheduling, dedupe, and caching.
//!
//! One [`Server`] owns a Unix-domain listener, a [`WorkerPool`] that
//! runs pipeline jobs, an on-disk [`ArtifactCache`] for whole-job
//! results, and one [`KeptBaseSlot`]: the analysis of the last fully
//! hardened image, which an edit of that image re-does only where the
//! edit touches it. Request handling is
//! thread-per-connection (connections are few and local); the compute
//! itself is scheduled on the pool, so a flood of connections cannot
//! oversubscribe analysis.
//!
//! Identical concurrent requests are deduplicated: the first becomes
//! the *leader* and computes; followers block on the leader's
//! in-flight cell and reply from its result. N identical submissions
//! therefore cost one computation and N responses.

use crate::artifact::{artifact_key, ArtifactCache, ArtifactEntry};
use crate::proto::{read_frame, Op, ProtoError, Request, Response, Source};
use redfat_core::digest::Digest;
use redfat_core::{harden_cached, instrument_profile, HardenConfig, HardenStats, KeptBaseSlot};
use redfat_elf::Image;
use redfat_parallel::WorkerPool;
use std::collections::HashMap;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Unix-domain socket path to listen on.
    pub socket: PathBuf,
    /// Artifact cache directory.
    pub cache_dir: PathBuf,
    /// Worker threads executing pipeline jobs.
    pub workers: usize,
    /// Analysis threads per job (`harden_threaded` sharding).
    pub threads: usize,
}

/// Monotonic server counters. All relaxed: they are reporting, not
/// synchronization.
#[derive(Default)]
pub struct ServerStats {
    /// Requests received (all ops).
    pub requests: AtomicU64,
    /// Job requests (harden/analyze/profile).
    pub job_requests: AtomicU64,
    /// Jobs answered from the on-disk artifact cache.
    pub artifact_hits: AtomicU64,
    /// Jobs computed by this process.
    pub computations: AtomicU64,
    /// Jobs answered by joining another request's in-flight
    /// computation.
    pub deduped: AtomicU64,
    /// Jobs that failed (bad input, pipeline error).
    pub errors: AtomicU64,
    /// CFG components analyzed fresh across all computations.
    pub components_analyzed: AtomicU64,
    /// CFG components whose plans an edit reused from the kept base.
    pub components_reused: AtomicU64,
}

impl ServerStats {
    /// Renders the counters, then `kept`'s counts of harden/analyze
    /// jobs answered as an edit of the kept base (`kept_base_edits`)
    /// and of those that found a base but took the full path
    /// (`kept_base_fallbacks`), as `key=value` lines (the `Stats` op
    /// response body).
    pub fn render(&self, kept: &KeptBaseSlot) -> String {
        let mut s = String::new();
        let counters = [
            ("requests", &self.requests),
            ("job_requests", &self.job_requests),
            ("artifact_hits", &self.artifact_hits),
            ("computations", &self.computations),
            ("deduped", &self.deduped),
            ("errors", &self.errors),
            ("components_analyzed", &self.components_analyzed),
            ("components_reused", &self.components_reused),
        ]
        .map(|(k, v)| (k, v.load(Ordering::Relaxed)));
        let kept = [
            ("kept_base_edits", kept.edits()),
            ("kept_base_fallbacks", kept.fallbacks()),
        ];
        for (k, v) in counters.into_iter().chain(kept) {
            s.push_str(k);
            s.push('=');
            s.push_str(&v.to_string());
            s.push('\n');
        }
        s
    }
}

/// The result of one computed job, shared between the leader and any
/// deduplicated followers.
#[derive(Clone)]
struct JobOutput {
    entry: ArtifactEntry,
    micros: u64,
}

/// The cell followers block on while the leader computes.
struct Inflight {
    state: Mutex<Option<Result<Arc<JobOutput>, String>>>,
    done: Condvar,
}

impl Inflight {
    fn new() -> Inflight {
        Inflight {
            state: Mutex::new(None),
            done: Condvar::new(),
        }
    }

    fn fulfill(&self, result: Result<Arc<JobOutput>, String>) {
        *lock_riding_poison(&self.state) = Some(result);
        self.done.notify_all();
    }

    /// The leader's result once no new follower can find `cell`: moved
    /// out of the cell when no follower holds it either, else cloned as
    /// a follower's is.
    fn into_result(cell: Arc<Inflight>) -> Result<Arc<JobOutput>, String> {
        match Arc::try_unwrap(cell) {
            Ok(cell) => cell
                .state
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .unwrap_or_else(|| Err("job finished without a result".to_string())),
            Err(cell) => cell.wait(),
        }
    }

    fn wait(&self) -> Result<Arc<JobOutput>, String> {
        let mut state = lock_riding_poison(&self.state);
        loop {
            if let Some(result) = state.as_ref() {
                return result.clone();
            }
            state = match self.done.wait(state) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }
}

/// Locks a mutex, riding through poisoning: every critical section in
/// this module is a single read or single write of an `Option`/map
/// entry, so a panic elsewhere cannot leave the value mid-update.
fn lock_riding_poison<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// State shared by the accept loop, connection handlers, and pool jobs.
struct Shared {
    config: ServerConfig,
    stats: ServerStats,
    artifacts: ArtifactCache,
    /// The last fully hardened image's analysis. A job takes it out for
    /// its duration, so concurrent jobs never share it and at most one
    /// image's analysis is kept.
    base: KeptBaseSlot,
    pool: WorkerPool,
    inflight: Mutex<HashMap<Digest, Arc<Inflight>>>,
    shutdown: AtomicBool,
}

/// The hardening-as-a-service daemon.
pub struct Server {
    listener: UnixListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the daemon's socket and opens its caches. A stale socket
    /// file at the path (from a previous daemon) is replaced.
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        let artifacts = ArtifactCache::open(&config.cache_dir)?;
        if config.socket.exists() {
            std::fs::remove_file(&config.socket)?;
        }
        let listener = UnixListener::bind(&config.socket)?;
        let pool = WorkerPool::new(config.workers);
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                config,
                stats: ServerStats::default(),
                artifacts,
                base: KeptBaseSlot::new(),
                pool,
                inflight: Mutex::new(HashMap::new()),
                shutdown: AtomicBool::new(false),
            }),
        })
    }

    /// The bound socket path.
    pub fn socket(&self) -> &std::path::Path {
        &self.shared.config.socket
    }

    /// Serves requests until a `Shutdown` request arrives. Each
    /// connection gets a handler thread; job compute runs on the
    /// worker pool. Returns the final server statistics rendering.
    pub fn run(self) -> std::io::Result<String> {
        let mut handlers = Vec::new();
        for stream in self.listener.incoming() {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match stream {
                Ok(s) => s,
                Err(_) => continue,
            };
            let shared = self.shared.clone();
            if let Ok(h) = std::thread::Builder::new()
                .name("redfat-conn".to_string())
                .spawn(move || handle_connection(&shared, stream))
            {
                handlers.push(h);
            }
            // A handler may have processed Shutdown while we were
            // accepting; re-check before blocking on accept again.
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
        }
        for h in handlers {
            let _ = h.join();
        }
        let stats = self.shared.stats.render(&self.shared.base);
        let _ = std::fs::remove_file(&self.shared.config.socket);
        Ok(stats)
    }
}

/// Serves one connection: a sequence of request frames, each answered
/// with a response frame. Protocol errors answer with `Response::Err`
/// where a response can still be framed, and close the connection.
fn handle_connection(shared: &Arc<Shared>, stream: UnixStream) {
    let mut reader = match stream.try_clone() {
        Ok(r) => r,
        Err(_) => return,
    };
    let mut writer = stream;
    loop {
        let payload = match read_frame(&mut reader) {
            Ok(p) => p,
            // EOF or a poisoned length prefix: nothing more to answer.
            Err(_) => return,
        };
        shared.stats.requests.fetch_add(1, Ordering::Relaxed);
        let response = match Request::decode(&payload) {
            Ok(req) => dispatch(shared, req),
            Err(ProtoError::Malformed(m)) => {
                shared.stats.errors.fetch_add(1, Ordering::Relaxed);
                Response::Err(format!("malformed request: {m}"))
            }
            Err(ProtoError::Io(e)) => {
                shared.stats.errors.fetch_add(1, Ordering::Relaxed);
                Response::Err(format!("request i/o: {e}"))
            }
        };
        let closing = matches!(response, Response::Err(_));
        if response.write_frame(&mut writer).is_err() {
            return;
        }
        if closing {
            return;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
    }
}

fn dispatch(shared: &Arc<Shared>, req: Request) -> Response {
    match req.op {
        Op::Stats => Response::Ok {
            source: Source::Computed,
            micros: 0,
            stats: shared.stats.render(&shared.base),
            artifact: Vec::new(),
        },
        Op::Shutdown => {
            shared.shutdown.store(true, Ordering::SeqCst);
            // Wake the accept loop so `run` observes the flag even if
            // no further client ever connects.
            let _ = UnixStream::connect(&shared.config.socket);
            Response::Ok {
                source: Source::Computed,
                micros: 0,
                stats: String::new(),
                artifact: Vec::new(),
            }
        }
        Op::Harden | Op::Analyze | Op::Profile => handle_job(shared, req),
    }
}

fn handle_job(shared: &Arc<Shared>, req: Request) -> Response {
    shared.stats.job_requests.fetch_add(1, Ordering::Relaxed);
    let key = artifact_key(&req.image, &req.config, req.op.to_byte());

    // Warm path: a verified on-disk artifact answers immediately.
    let lookup_start = Instant::now();
    if let Some(entry) = shared.artifacts.get(&key) {
        shared.stats.artifact_hits.fetch_add(1, Ordering::Relaxed);
        return Response::Ok {
            source: Source::ArtifactHit,
            micros: elapsed_micros(lookup_start),
            stats: entry.stats,
            artifact: entry.artifact,
        };
    }

    // Cold path with in-flight dedupe: first arrival leads, the rest
    // follow its computation.
    let (cell, leader) = {
        let mut map = lock_riding_poison(&shared.inflight);
        match map.get(&key) {
            Some(cell) => (cell.clone(), false),
            None => {
                let cell = Arc::new(Inflight::new());
                map.insert(key, cell.clone());
                (cell, true)
            }
        }
    };

    if !leader {
        shared.stats.deduped.fetch_add(1, Ordering::Relaxed);
        return match cell.wait() {
            Ok(out) => Response::Ok {
                source: Source::Deduped,
                micros: out.micros,
                stats: out.entry.stats.clone(),
                artifact: out.entry.artifact.clone(),
            },
            Err(e) => Response::Err(e),
        };
    }

    let job_shared = shared.clone();
    let job_req = req;
    let handle = shared
        .pool
        .submit(move || compute_job(&job_shared, &job_req, &key));
    // A panicking job surfaces as Err through the pool's catch_unwind.
    let result = match handle.join() {
        Ok(r) => r,
        Err(panic_msg) => Err(panic_msg),
    };
    cell.fulfill(result);
    lock_riding_poison(&shared.inflight).remove(&key);

    match Inflight::into_result(cell) {
        Ok(out) => {
            shared.stats.computations.fetch_add(1, Ordering::Relaxed);
            // The artifact is moved, not copied, unless a follower still
            // holds the output.
            let out = Arc::try_unwrap(out).unwrap_or_else(|out| JobOutput::clone(&out));
            Response::Ok {
                source: Source::Computed,
                micros: out.micros,
                stats: out.entry.stats,
                artifact: out.entry.artifact,
            }
        }
        Err(e) => {
            shared.stats.errors.fetch_add(1, Ordering::Relaxed);
            Response::Err(e)
        }
    }
}

/// Runs one pipeline job on a worker thread and publishes its artifact.
fn compute_job(shared: &Shared, req: &Request, key: &Digest) -> Result<Arc<JobOutput>, String> {
    let start = Instant::now();
    let config =
        HardenConfig::from_canonical_bytes(&req.config).map_err(|e| format!("bad config: {e}"))?;
    let image = Image::parse(&req.image).map_err(|e| format!("parse failed: {e}"))?;
    let hardened = match req.op {
        Op::Harden | Op::Analyze => {
            harden_cached(&image, &config, shared.config.threads, &shared.base)
        }
        Op::Profile => instrument_profile(&image),
        // Non-job ops never reach compute (dispatch handles them).
        Op::Stats | Op::Shutdown => return Err("not a pipeline op".to_string()),
    }
    .map_err(|e| format!("pipeline failed: {e}"))?;
    drop(image);

    let stats = hardened.stats;
    let fresh = stats.components.saturating_sub(stats.components_reused);
    shared
        .stats
        .components_analyzed
        .fetch_add(fresh as u64, Ordering::Relaxed);
    shared
        .stats
        .components_reused
        .fetch_add(stats.components_reused as u64, Ordering::Relaxed);

    let artifact = match req.op {
        Op::Analyze => Vec::new(),
        _ => hardened.image.to_bytes(),
    };
    drop(hardened);
    let out = Arc::new(JobOutput {
        entry: ArtifactEntry {
            artifact,
            stats: render_harden_stats(&stats),
        },
        micros: elapsed_micros(start),
    });
    // Publication failure (disk full, permissions) degrades to an
    // uncached-but-correct response; the job itself succeeded.
    let _ = shared.artifacts.put(key, &out.entry);
    Ok(out)
}

fn elapsed_micros(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Renders pipeline statistics as `key=value` lines (the job response
/// body, and what the artifact cache persists alongside the bytes).
pub fn render_harden_stats(s: &HardenStats) -> String {
    format!(
        "sites_considered={}\nsites_eliminated={}\nsites_eliminated_flow={}\n\
         sites_redundant={}\nsites_lowfat={}\n\
         sites_redzone={}\nbatches={}\nchecks={}\nregs_saved={}\nflags_saved={}\n\
         sites_skipped={}\ncomponents={}\ncomponents_reused={}\ndegraded={}\n",
        s.sites_considered,
        s.sites_eliminated,
        s.sites_eliminated_flow,
        s.sites_redundant,
        s.sites_lowfat,
        s.sites_redzone,
        s.batches,
        s.checks,
        s.regs_saved,
        s.flags_saved,
        s.sites_skipped,
        s.components,
        s.components_reused,
        s.degraded(),
    )
}
