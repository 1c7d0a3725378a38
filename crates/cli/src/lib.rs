//! The `redfat` command-line tool: the user-facing shape of the paper's
//! released artifact (<https://github.com/GJDuck/RedFat>), adapted to
//! this reproduction's substrate.
//!
//! ```text
//! redfat compile  prog.mc  -o prog.elf          # mini-C → ELF
//! redfat harden   prog.elf -o prog.hard [opts]  # production hardening
//! redfat profile  prog.elf -o prog.prof         # §5 profiling binary
//! redfat genlist  prog.prof --input .. -o allow.lst
//! redfat run      prog.elf [--input ..] [--log] [--memcheck]
//! redfat disasm   prog.elf
//! redfat analyze  prog.elf
//! redfat stats    prog.elf
//! ```
//!
//! The library half ([`run_cli`]) is what the binary calls and what the
//! tests exercise: it performs all I/O through the filesystem and
//! returns the text it would print.

use redfat_core::{
    collect_allowlist, harden_threaded, instrument_profile, run, AllowList, HardenConfig,
    LowFatPolicy, RunSpec,
};
use redfat_elf::Image;
use redfat_emu::{AllocPolicyKind, Counters, Emu, ErrorMode, ExecBackend, RunResult, TraceStats};
use redfat_memcheck::MemcheckRuntime;
use redfat_parallel::resolve_threads;
use std::fmt::Write as _;

/// A CLI failure: message for stderr, suggested exit code.
#[derive(Debug)]
pub struct CliError {
    /// Human-readable message.
    pub message: String,
    /// Process exit code.
    pub code: i32,
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for CliError {}

fn err(message: impl Into<String>) -> CliError {
    CliError {
        message: message.into(),
        code: 1,
    }
}

const USAGE: &str = "usage: redfat <command> [args]

commands:
  compile <src.mc> -o <out.elf>        compile mini-C to an ELF image
  harden  <in.elf> -o <out.elf> [--strip] [opts]
                                       harden a binary (drop-in output);
                                       --strip strips symbols first
  profile <in.elf> -o <out.elf>        build the profiling binary (step 1 of Fig. 5)
  genlist <prof.elf> -o <allow.lst> [--input v,v,..]
                                       run the profiling binary, emit allow.lst
  fuzzlist <in.elf> -o <allow.lst> [--input seed,..] [--iters N]
                                       coverage-guided profiling (E9AFL-style)
  run     <in.elf> [--input v,v,..] [--log] [--memcheck] [--max-steps N]
          [--backend step|fast] [--stats]
          [--alloc-policy lowfat|rand-lowfat]
                                       --backend selects the execution tier
                                       (default fast; step is the reference
                                       interpreter); --stats prints the
                                       run's event counters (loads, stores,
                                       taken branches, transfers, region
                                       crossings, syscalls, int3 traps) and
                                       the translation-cache counters
                                       afterwards;
                                       --alloc-policy selects the heap backend
                                       (default lowfat)
  disasm  <in.elf>                     linear disassembly of code segments
  analyze <in.elf>                     per-site static analysis report
  stats   <in.elf>                     image and instrumentation-plan statistics
  selftest [--quick] [--alloc-policy lowfat|rand-lowfat]
                                       differential self-test: lockstep oracle
                                       and backend lockstep of the fast tier
                                       against the step interpreter (without
                                       --quick also on Table 1's configs);
                                       --alloc-policy picks the heap backend
                                       for the runs
  selftest --faults [--quick]          fault-injection sweep: seeded mutants of
                                       every stand-in driven through the full
                                       pipeline; any panic fails the sweep

  serve    --socket <sock> [--cache-dir <dir>] [--workers N]
                                       hardening-as-a-service daemon: accepts
                                       submit jobs, dedupes identical in-flight
                                       requests, and serves warm results from a
                                       content-addressed artifact cache
  submit   <in.elf> --socket <sock> [-o <out.elf>] [--op harden|analyze|profile]
           [harden opts]               submit a job to a running daemon
  svcstats --socket <sock>             print a running daemon's counters
  shutdown --socket <sock>             ask a running daemon to exit

`harden`, `analyze`, `selftest` and `serve` accept --threads N to set the
worker thread count (falls back to the REDFAT_THREADS environment variable,
then to the available parallelism); `selftest` audits that many stand-ins
at once, each hardened on one thread. Every command prints this text for -h
or --help and rejects any flag not listed here for it.

harden options:
  --allowlist <allow.lst>   full check only on listed sites (Fig. 5 step 2)
  --redzone-only            disable the LowFat component entirely
  --lowfat-only             ablation: pure class-size bounds checks
  --writes-only             do not instrument reads (-reads column)
  --no-size                 disable metadata hardening (-size column)
  --no-elim | --no-batch | --no-merge  disable an optimization (Table 1)
  --no-flow                 disable flow-sensitive provenance elimination
  --no-redundant            disable dominator-based redundant-check elimination";

struct Args {
    positional: Vec<String>,
    flags: std::collections::BTreeMap<String, Option<String>>,
}

/// Flags that take a value; every other flag is a switch.
const VALUE_FLAGS: [&str; 12] = [
    "-o",
    "--input",
    "--max-steps",
    "--allowlist",
    "--iters",
    "--threads",
    "--backend",
    "--socket",
    "--cache-dir",
    "--workers",
    "--op",
    "--alloc-policy",
];

/// The harden options: the flags [`harden_config`] reads.
const CONFIG_FLAGS: [&str; 10] = [
    "--allowlist",
    "--redzone-only",
    "--lowfat-only",
    "--writes-only",
    "--no-size",
    "--no-elim",
    "--no-batch",
    "--no-merge",
    "--no-flow",
    "--no-redundant",
];

/// The flags `cmd` takes besides `-h`/`--help`, and whether it also
/// takes the harden options; `None` for an unknown command.
fn command_flags(cmd: &str) -> Option<(&'static [&'static str], bool)> {
    Some(match cmd {
        "compile" | "profile" => (&["-o"], false),
        "harden" => (&["-o", "--strip", "--threads"], true),
        "genlist" => (&["-o", "--input", "--max-steps"], false),
        "fuzzlist" => (&["-o", "--input", "--iters", "--max-steps"], false),
        "run" => (
            &[
                "--input",
                "--log",
                "--memcheck",
                "--max-steps",
                "--backend",
                "--stats",
                "--alloc-policy",
            ],
            false,
        ),
        "analyze" => (&["--threads"], false),
        "selftest" => (
            &["--quick", "--faults", "--alloc-policy", "--threads"],
            false,
        ),
        "serve" => (
            &["--socket", "--cache-dir", "--workers", "--threads"],
            false,
        ),
        "submit" => (&["--socket", "-o", "--op"], true),
        "svcstats" | "shutdown" => (&["--socket"], false),
        "disasm" | "stats" | "help" | "--help" | "-h" => (&[], false),
        _ => return None,
    })
}

/// Splits `cmd`'s `argv` into positional arguments and flags. A flag
/// `cmd` does not take is an error, so a typo or another command's flag
/// fails at once instead of being ignored.
fn parse_args(cmd: &str, argv: &[String]) -> Result<Args, CliError> {
    let (own, config) =
        command_flags(cmd).ok_or_else(|| err(format!("unknown command {cmd:?}\n\n{USAGE}")))?;
    let takes = |f: &str| {
        matches!(f, "-h" | "--help") || own.contains(&f) || (config && CONFIG_FLAGS.contains(&f))
    };
    let mut positional = Vec::new();
    let mut flags = std::collections::BTreeMap::new();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        if !a.starts_with('-') {
            positional.push(a.clone());
        } else if !takes(a) {
            return Err(err(format!(
                "unknown flag {a} for `{cmd}` (see `redfat {cmd} --help`)"
            )));
        } else if VALUE_FLAGS.contains(&a.as_str()) {
            let v = it
                .next()
                .ok_or_else(|| err(format!("{a} requires a value")))?;
            flags.insert(a.clone(), Some(v.clone()));
        } else {
            flags.insert(a.clone(), None);
        }
    }
    Ok(Args { positional, flags })
}

impl Args {
    fn out(&self) -> Result<&str, CliError> {
        self.flags
            .get("-o")
            .and_then(|v| v.as_deref())
            .ok_or_else(|| err("missing -o <output>"))
    }

    fn has(&self, f: &str) -> bool {
        self.flags.contains_key(f)
    }

    fn input_values(&self) -> Result<Vec<i64>, CliError> {
        match self.flags.get("--input").and_then(|v| v.as_deref()) {
            None => Ok(Vec::new()),
            Some(s) => s
                .split(',')
                .filter(|p| !p.is_empty())
                .map(|p| {
                    p.trim()
                        .parse::<i64>()
                        .map_err(|e| err(format!("bad --input value {p:?}: {e}")))
                })
                .collect(),
        }
    }

    fn max_steps(&self) -> Result<u64, CliError> {
        match self.flags.get("--max-steps").and_then(|v| v.as_deref()) {
            None => Ok(1_000_000_000),
            Some(s) => s.parse().map_err(|e| err(format!("bad --max-steps: {e}"))),
        }
    }

    /// Execution backend for `run`: `--backend step|fast`.
    fn backend(&self) -> Result<ExecBackend, CliError> {
        match self.flags.get("--backend").and_then(|v| v.as_deref()) {
            None => Ok(ExecBackend::default()),
            Some(s) => {
                ExecBackend::parse(s).ok_or_else(|| err(format!("bad --backend {s:?} (step|fast)")))
            }
        }
    }

    /// Allocator backend: `--alloc-policy lowfat|rand-lowfat`.
    fn alloc_policy(&self) -> Result<AllocPolicyKind, CliError> {
        match self.flags.get("--alloc-policy").and_then(|v| v.as_deref()) {
            None => Ok(AllocPolicyKind::default()),
            Some(s) => AllocPolicyKind::parse(s)
                .ok_or_else(|| err(format!("bad --alloc-policy {s:?} (lowfat|rand-lowfat)"))),
        }
    }

    /// Daemon socket path: `--socket <path>` (required for the service
    /// commands).
    fn socket(&self) -> Result<&str, CliError> {
        self.flags
            .get("--socket")
            .and_then(|v| v.as_deref())
            .ok_or_else(|| err("missing --socket <path>"))
    }

    /// Worker thread count: `--threads N`, then `REDFAT_THREADS`, then
    /// the available parallelism.
    fn threads(&self) -> Result<usize, CliError> {
        let explicit = match self.flags.get("--threads").and_then(|v| v.as_deref()) {
            None => None,
            Some(s) => Some(
                s.parse::<usize>()
                    .map_err(|e| err(format!("bad --threads: {e}")))?,
            ),
        };
        Ok(resolve_threads(explicit))
    }
}

fn load_image(path: &str) -> Result<Image, CliError> {
    let bytes = std::fs::read(path).map_err(|e| err(format!("cannot read {path}: {e}")))?;
    Image::parse(&bytes).map_err(|e| err(format!("{path}: {e}")))
}

fn save_image(image: &Image, path: &str) -> Result<(), CliError> {
    std::fs::write(path, image.to_bytes()).map_err(|e| err(format!("cannot write {path}: {e}")))
}

fn harden_config(args: &Args) -> Result<HardenConfig, CliError> {
    let policy = if args.has("--redzone-only") {
        LowFatPolicy::Disabled
    } else if let Some(Some(path)) = args.flags.get("--allowlist") {
        let text =
            std::fs::read_to_string(path).map_err(|e| err(format!("cannot read {path}: {e}")))?;
        LowFatPolicy::AllowList(AllowList::from_text(&text).map_err(err)?)
    } else {
        LowFatPolicy::All
    };
    let mut cfg = HardenConfig::with_redundant(policy);
    if args.has("--no-elim") {
        // The flow passes refine `elim`; disabling it disables them too.
        cfg.elim = false;
        cfg.elim_flow = false;
    }
    if args.has("--no-flow") {
        cfg.elim_flow = false;
    }
    if args.has("--no-flow") || args.has("--no-redundant") || args.has("--no-elim") {
        cfg.elim_redundant = false;
    }
    if args.has("--no-batch") {
        cfg.batch = false;
    }
    if args.has("--no-merge") {
        cfg.merge = false;
    }
    if args.has("--no-size") {
        cfg.size_harden = false;
    }
    if args.has("--writes-only") {
        cfg.instrument_reads = false;
    }
    if args.has("--lowfat-only") {
        cfg.lowfat_only = true;
    }
    Ok(cfg)
}

/// Executes one CLI invocation; returns the stdout text.
pub fn run_cli(argv: &[String]) -> Result<String, CliError> {
    let Some((cmd, rest)) = argv.split_first() else {
        return Err(err(USAGE));
    };
    let args = parse_args(cmd, rest)?;
    let mut out = String::new();
    if args.has("-h") || args.has("--help") {
        writeln!(out, "{USAGE}").ok();
        return Ok(out);
    }

    match cmd.as_str() {
        "compile" => {
            let [src] = &args.positional[..] else {
                return Err(err("compile needs exactly one source file"));
            };
            let text =
                std::fs::read_to_string(src).map_err(|e| err(format!("cannot read {src}: {e}")))?;
            let image = redfat_minic::compile(&text).map_err(|e| err(e.to_string()))?;
            save_image(&image, args.out()?)?;
            let code: u64 = image.exec_segments().map(|s| s.data.len() as u64).sum();
            writeln!(out, "compiled {src}: {code} bytes of code").ok();
        }
        "harden" => {
            let [input] = &args.positional[..] else {
                return Err(err("harden needs exactly one input binary"));
            };
            let mut image = load_image(input)?;
            if args.has("--strip") {
                image.strip();
            }
            let cfg = harden_config(&args)?;
            let hardened =
                harden_threaded(&image, &cfg, args.threads()?).map_err(|e| err(e.to_string()))?;
            save_image(&hardened.image, args.out()?)?;
            let s = hardened.stats;
            writeln!(
                out,
                "hardened {input}: {} sites ({} full, {} redzone-only, {} eliminated, \
                 {} flow-eliminated, {} redundant), \
                 {} trampolines ({} jmp, {} int3), {} trampoline bytes \
                 ({} cold, {} hot, {} displaced, {} library), {} register saves, {} flag saves",
                s.sites_considered,
                s.sites_lowfat,
                s.sites_redzone,
                s.sites_eliminated,
                s.sites_eliminated_flow,
                s.sites_redundant,
                s.batches,
                s.rewrite.jmp_patches,
                s.rewrite.trap_patches,
                s.rewrite.trampoline_bytes,
                s.rewrite.cold_bytes,
                s.rewrite.hot_bytes,
                s.rewrite.displaced_bytes,
                s.rewrite.library_bytes,
                s.regs_saved,
                s.flags_saved
            )
            .ok();
        }
        "profile" => {
            let [input] = &args.positional[..] else {
                return Err(err("profile needs exactly one input binary"));
            };
            let image = load_image(input)?;
            let prof = instrument_profile(&image).map_err(|e| err(e.to_string()))?;
            save_image(&prof.image, args.out()?)?;
            writeln!(
                out,
                "profiling binary written: {} instrumented sites",
                prof.stats.sites_lowfat
            )
            .ok();
        }
        "genlist" => {
            let [prof] = &args.positional[..] else {
                return Err(err("genlist needs exactly one profiling binary"));
            };
            let image = load_image(prof)?;
            let input = args.input_values()?;
            let profiled = run(
                &image,
                &RunSpec::new(&input, ErrorMode::Log, args.max_steps()?),
            )
            .map_err(|e| err(format!("cannot load {prof}: {e}")))?;
            if !matches!(profiled.result, RunResult::Exited(_)) {
                return Err(err(format!(
                    "profiling run did not exit: {:?}",
                    profiled.result
                )));
            }
            let allow = collect_allowlist(&profiled.profile);
            std::fs::write(args.out()?, allow.to_text())
                .map_err(|e| err(format!("cannot write allow-list: {e}")))?;
            writeln!(
                out,
                "observed {} sites, allow-listed {}",
                profiled.profile.len(),
                allow.len()
            )
            .ok();
        }
        "fuzzlist" => {
            let [input] = &args.positional[..] else {
                return Err(err("fuzzlist needs exactly one binary"));
            };
            let image = load_image(input)?;
            let iters = match args.flags.get("--iters").and_then(|v| v.as_deref()) {
                None => 200,
                Some(s) => s.parse().map_err(|e| err(format!("bad --iters: {e}")))?,
            };
            let seeds = vec![args.input_values()?];
            let outcome = redfat_core::fuzz_profile(
                &image,
                &seeds,
                &redfat_core::FuzzConfig {
                    iterations: iters,
                    max_steps: args.max_steps()?,
                    ..redfat_core::FuzzConfig::default()
                },
            )
            .map_err(|e| err(e.to_string()))?;
            let allow = collect_allowlist(&outcome.profile);
            std::fs::write(args.out()?, allow.to_text())
                .map_err(|e| err(format!("cannot write allow-list: {e}")))?;
            writeln!(
                out,
                "{} executions, corpus {}, observed {} sites, allow-listed {}",
                outcome.executions,
                outcome.corpus.len(),
                outcome.profile.len(),
                allow.len()
            )
            .ok();
        }
        "run" => {
            let [input] = &args.positional[..] else {
                return Err(err("run needs exactly one binary"));
            };
            let image = load_image(input)?;
            let inputs = args.input_values()?;
            let steps = args.max_steps()?;
            let backend = args.backend()?;
            if args.has("--memcheck") {
                let rt = MemcheckRuntime::new(ErrorMode::Log).with_input(inputs);
                let mut emu = Emu::load_image(&image, rt)
                    .map_err(|e| err(format!("cannot load {input}: {e}")))?;
                let r = emu.run_backend(backend, steps);
                writeln!(out, "memcheck: {r:?}").ok();
                for e in &emu.runtime.errors {
                    writeln!(out, "memcheck error: {e}").ok();
                }
                let stats = args.has("--stats");
                write_run_counters(&mut out, &emu.counters, &emu.trace_stats(), stats);
            } else {
                let mode = if args.has("--log") {
                    ErrorMode::Log
                } else {
                    ErrorMode::Abort
                };
                let spec = RunSpec {
                    backend,
                    policy: args.alloc_policy()?,
                    ..RunSpec::new(&inputs, mode, steps)
                };
                let result =
                    run(&image, &spec).map_err(|e| err(format!("cannot load {input}: {e}")))?;
                writeln!(out, "{:?}", result.result).ok();
                for v in &result.io.out_ints {
                    writeln!(out, "{v}").ok();
                }
                if !result.io.out_bytes.is_empty() {
                    writeln!(out, "{}", String::from_utf8_lossy(&result.io.out_bytes)).ok();
                }
                for e in &result.errors {
                    writeln!(out, "error: {}", symbolize(&image, e)).ok();
                }
                let stats = args.has("--stats");
                write_run_counters(&mut out, &result.counters, &result.trace_stats, stats);
            }
        }
        "disasm" => {
            let [input] = &args.positional[..] else {
                return Err(err("disasm needs exactly one binary"));
            };
            let image = load_image(input)?;
            let d = redfat_analysis::disassemble(&image);
            for (addr, inst, _) in d.iter() {
                writeln!(out, "{addr:#x}: {inst}").ok();
            }
            for (start, end) in &d.unknown {
                writeln!(out, "{start:#x}..{end:#x}: <undecodable>").ok();
            }
        }
        "analyze" => {
            let [input] = &args.positional[..] else {
                return Err(err("analyze needs exactly one binary"));
            };
            let image = load_image(input)?;
            let report = redfat_analysis::analyze_image(&image, args.threads()?);
            out.push_str(&redfat_analysis::report::render(&report));
        }
        "stats" => {
            let [input] = &args.positional[..] else {
                return Err(err("stats needs exactly one binary"));
            };
            let image = load_image(input)?;
            let d = redfat_analysis::disassemble(&image);
            let cfg = redfat_analysis::Cfg::recover(&d, image.entry, &[]);
            let accesses = d
                .iter()
                .filter(|(_, i, _)| i.memory_access().is_some())
                .count();
            let eliminable = d
                .iter()
                .filter(|(_, i, _)| {
                    i.memory_access()
                        .is_some_and(|m| !redfat_analysis::can_reach_heap(&m))
                })
                .count();
            writeln!(out, "kind:            {:?}", image.kind).ok();
            writeln!(out, "entry:           {:#x}", image.entry).ok();
            writeln!(out, "segments:        {}", image.segments.len()).ok();
            writeln!(out, "memory:          {} bytes", image.memory_footprint()).ok();
            writeln!(out, "symbols:         {}", image.symbols.len()).ok();
            writeln!(out, "instructions:    {}", d.len()).ok();
            writeln!(out, "basic blocks:    {}", cfg.blocks.len()).ok();
            writeln!(out, "memory accesses: {accesses}").ok();
            writeln!(out, "eliminable:      {eliminable}").ok();
        }
        "selftest" => {
            let quick = args.has("--quick");
            if args.has("--faults") {
                if args.has("--alloc-policy") {
                    return Err(err("selftest --faults takes no --alloc-policy"));
                }
                run_faults(quick, args.threads()?, &mut out)?;
            } else {
                run_selftest(quick, args.alloc_policy()?, args.threads()?, &mut out)?;
            }
        }
        "serve" => {
            let socket = args.socket()?.to_string();
            let cache_dir = match args.flags.get("--cache-dir").and_then(|v| v.as_deref()) {
                Some(d) => d.to_string(),
                None => format!("{socket}.cache"),
            };
            let workers = match args.flags.get("--workers").and_then(|v| v.as_deref()) {
                None => 2,
                Some(s) => s.parse().map_err(|e| err(format!("bad --workers: {e}")))?,
            };
            let server = redfat_service::Server::bind(redfat_service::ServerConfig {
                socket: socket.clone().into(),
                cache_dir: cache_dir.into(),
                workers,
                threads: args.threads()?,
            })
            .map_err(|e| err(format!("cannot bind {socket}: {e}")))?;
            let stats = server
                .run()
                .map_err(|e| err(format!("daemon failed: {e}")))?;
            writeln!(out, "daemon exited; final counters:").ok();
            out.push_str(&stats);
        }
        "submit" => {
            let [input] = &args.positional[..] else {
                return Err(err("submit needs exactly one input binary"));
            };
            let op = match args.flags.get("--op").and_then(|v| v.as_deref()) {
                None | Some("harden") => redfat_service::Op::Harden,
                Some("analyze") => redfat_service::Op::Analyze,
                Some("profile") => redfat_service::Op::Profile,
                Some(other) => {
                    return Err(err(format!("bad --op {other:?} (harden|analyze|profile)")))
                }
            };
            let cfg = harden_config(&args)?;
            let image_bytes =
                std::fs::read(input).map_err(|e| err(format!("cannot read {input}: {e}")))?;
            let mut client = redfat_service::Client::connect(args.socket()?)
                .map_err(|e| err(format!("cannot connect to daemon: {e}")))?;
            match client
                .job(op, cfg.canonical_bytes(), image_bytes)
                .map_err(|e| err(format!("submit failed: {e}")))?
            {
                redfat_service::Response::Ok {
                    source,
                    micros,
                    stats,
                    artifact,
                } => {
                    let source = match source {
                        redfat_service::Source::Computed => "computed",
                        redfat_service::Source::ArtifactHit => "artifact-hit",
                        redfat_service::Source::Deduped => "deduped",
                    };
                    if let Some(Some(path)) = args.flags.get("-o") {
                        std::fs::write(path, &artifact)
                            .map_err(|e| err(format!("cannot write {path}: {e}")))?;
                    }
                    writeln!(
                        out,
                        "{input}: {source} in {micros}us, {} artifact bytes",
                        artifact.len()
                    )
                    .ok();
                    out.push_str(&stats);
                }
                redfat_service::Response::Err(e) => {
                    return Err(err(format!("daemon refused job: {e}")))
                }
            }
        }
        "svcstats" => {
            let mut client = redfat_service::Client::connect(args.socket()?)
                .map_err(|e| err(format!("cannot connect to daemon: {e}")))?;
            let stats = client
                .stats()
                .map_err(|e| err(format!("stats failed: {e}")))?;
            out.push_str(&stats);
        }
        "shutdown" => {
            let mut client = redfat_service::Client::connect(args.socket()?)
                .map_err(|e| err(format!("cannot connect to daemon: {e}")))?;
            client
                .shutdown()
                .map_err(|e| err(format!("shutdown failed: {e}")))?;
            writeln!(out, "daemon asked to shut down").ok();
        }
        "--help" | "-h" | "help" => {
            writeln!(out, "{USAGE}").ok();
        }
        other => return Err(err(format!("unknown command {other:?}\n\n{USAGE}"))),
    }
    Ok(out)
}

/// Writes a run's instruction and cycle totals; with `stats`, also the
/// events the cycles are priced from and the translation-cache counters.
fn write_run_counters(out: &mut String, c: &Counters, trace: &TraceStats, stats: bool) {
    writeln!(out, "instructions {}  cycles {}", c.instructions, c.cycles).ok();
    if stats {
        let events: Vec<String> = c.events().iter().map(|(k, v)| format!("{k} {v}")).collect();
        writeln!(out, "counters: {}", events.join("  ")).ok();
        writeln!(out, "trace-cache: {trace}").ok();
    }
}

/// The `selftest --faults` subcommand: the deterministic
/// fault-injection sweep.
///
/// Mutates well-formed images from every SPEC stand-in (truncations,
/// header/code/metadata byte flips, oversized table counts, corrupt
/// trap tables) and drives each mutant through the full
/// parse → harden → load → run chain. Every outcome must classify as
/// ok, a structured error, or a recorded degradation -- a panic
/// anywhere fails the invocation with a nonzero exit code, so CI can
/// gate on `redfat selftest --faults --quick`.
fn run_faults(quick: bool, threads: usize, out: &mut String) -> Result<(), CliError> {
    use redfat_core::{fault_sweep, FaultConfig};
    let config = FaultConfig {
        // Quick ≈ a 1k-mutant sweep (35 x 29 stand-ins); full is ~3.5k.
        mutants_per_workload: if quick { 35 } else { 120 },
        ..FaultConfig::default()
    };
    let report = fault_sweep(&config, threads);
    writeln!(
        out,
        "faults: {} mutants (seed {:#x}): {} ok, {} errors, {} degraded",
        report.cases, config.seed, report.ok, report.errors, report.degraded
    )
    .ok();
    for (stage, n) in &report.by_stage {
        writeln!(out, "  stage {stage}: {n} errors").ok();
    }
    if report.clean() {
        writeln!(out, "fault sweep passed").ok();
        Ok(())
    } else {
        Err(CliError {
            message: format!(
                "{out}fault sweep FAILED ({} unclassified):\n{}",
                report.failures.len(),
                report.failures.join("\n")
            ),
            code: 1,
        })
    }
}

/// The `selftest` subcommand: the differential self-test subsystem.
///
/// Runs the lockstep divergence oracle over every SPEC stand-in plus a
/// Juliet sample, each hardened as `redfat harden` hardens by default.
/// Every stand-in also runs the fast execution tier against the
/// single-step reference interpreter
/// ([`redfat_core::selftest::backend_lockstep`]) on each image the
/// paper's evaluation runs on the fast tier: the baseline, the default
/// hardened image and the profiling binary, and without `--quick` also
/// the images of Table 1's eight allow-list configs. The stand-ins are
/// audited `threads` at a time, each hardening on one thread, and
/// report in suite order. A lockstep failure shrinks to a minimal input
/// ([`redfat_core::selftest::lockstep`]), and any failure fails the
/// invocation with a nonzero exit code, so CI can gate on
/// `redfat selftest --quick`.
fn run_selftest(
    quick: bool,
    policy: AllocPolicyKind,
    threads: usize,
    out: &mut String,
) -> Result<(), CliError> {
    use redfat_core::selftest::lockstep;
    let mut failures: Vec<String> = Vec::new();
    writeln!(out, "alloc-policy: {policy}").ok();

    let max_steps: u64 = if quick { 50_000_000 } else { 400_000_000 };
    let config = HardenConfig::default();
    let audits = redfat_parallel::parallel_map(redfat_workloads::spec::all(), threads, |w| {
        audit_stand_in(w, quick, policy, max_steps)
    });
    for audit in audits {
        let (lines, stand_in_failures) = audit?;
        out.push_str(&lines);
        failures.extend(stand_in_failures);
    }

    // Juliet sample: benign and attack inputs both stay in lockstep (the
    // hardened run reports the planted errors but, in Log mode, continues
    // identically).
    let stride = if quick { 96 } else { 48 };
    let cases = redfat_workloads::juliet::generate();
    let mut jl_runs = 0usize;
    let mut jl_divergent = 0usize;
    let mut jl_reports = 0usize;
    for case in cases.iter().step_by(stride) {
        let image = case.workload.image();
        let hardened = harden_threaded(&image, &config, threads).map_err(|e| {
            err(format!(
                "selftest: hardening juliet {} failed: {e}",
                case.id
            ))
        })?;
        for input in [&case.benign_input, &case.attack_input] {
            let (rep, repro) = lockstep(&image, &hardened, input, max_steps, policy);
            jl_runs += 1;
            jl_reports += rep.hardened_errors;
            if let Some(repro) = repro {
                jl_divergent += 1;
                failures.push(format!("juliet {} {repro}", case.id));
            }
        }
    }
    writeln!(
        out,
        "juliet: {jl_runs} runs ({} cases), {jl_divergent} divergent, {jl_reports} check reports",
        cases.iter().step_by(stride).count()
    )
    .ok();

    if failures.is_empty() {
        writeln!(out, "selftest passed").ok();
        Ok(())
    } else {
        Err(CliError {
            message: format!("{out}selftest FAILED:\n{}", failures.join("\n")),
            code: 1,
        })
    }
}

/// One stand-in's share of `redfat selftest`: the backend audit of each
/// image it runs on the fast tier, then the hardened-vs-baseline
/// lockstep. Returns its report lines and failures.
fn audit_stand_in(
    w: &redfat_workloads::Workload,
    quick: bool,
    policy: AllocPolicyKind,
    max_steps: u64,
) -> Result<(String, Vec<String>), CliError> {
    use redfat_core::selftest::{backend_lockstep, lockstep};
    let mut out = String::new();
    let mut failures = Vec::new();
    let image = w.image();
    let input = if quick { &w.train_input } else { &w.ref_input };
    let harden = |cfg: &HardenConfig| {
        redfat_core::harden(&image, cfg)
            .map_err(|e| err(format!("selftest: hardening {} failed: {e}", w.name)))
    };
    let hardened = harden(&HardenConfig::default())?;
    let profiling = instrument_profile(&image)
        .map_err(|e| err(format!("selftest: profiling {} failed: {e}", w.name)))?;
    let ladder = if quick {
        Vec::new()
    } else {
        // Table 1's allow-list, from the profiling binary's train run on
        // the reference interpreter.
        let spec = RunSpec {
            backend: ExecBackend::Step,
            ..RunSpec::new(&w.train_input, ErrorMode::Log, max_steps)
        };
        let train = run(&profiling.image, &spec)
            .map_err(|e| err(format!("selftest: profiling {} failed: {e}", w.name)))?;
        let lowfat = LowFatPolicy::AllowList(collect_allowlist(&train.profile));
        HardenConfig::table1_ladder(lowfat)
            .iter()
            .map(|(name, cfg)| Ok((*name, harden(cfg)?)))
            .collect::<Result<Vec<_>, CliError>>()?
    };
    // Audit the translated tier against the step interpreter.
    let backend = ExecBackend::Fast;
    let audited = [
        ("baseline", &image),
        ("hardened", &hardened.image),
        ("profile", &profiling.image),
    ];
    let ladder_images = ladder.iter().map(|(name, h)| (*name, &h.image));
    for (kind, img) in audited.into_iter().chain(ladder_images) {
        let rep = backend_lockstep(img, input, backend, max_steps, policy);
        writeln!(
            out,
            "backend  {:<14} {:<10} {kind:<8} {:>9} blocks, {} divergences{}",
            w.name,
            backend.to_string(),
            rep.blocks,
            rep.divergences.len(),
            if rep.completed { "" } else { " (incomplete)" }
        )
        .ok();
        if !rep.clean() || !rep.completed {
            let detail = rep
                .divergences
                .first()
                .map(|d| d.detail.clone())
                .unwrap_or_else(|| "run did not complete within the step budget".into());
            failures.push(format!("backend {} {backend} ({kind}):\n{detail}", w.name));
        }
    }
    let (rep, repro) = lockstep(&image, &hardened, input, max_steps, policy);
    writeln!(
        out,
        "lockstep {:<14} {:>9} synced, {} divergences, {} check reports{}",
        w.name,
        rep.synced,
        rep.divergences.len(),
        rep.hardened_errors,
        if rep.completed { "" } else { " (incomplete)" }
    )
    .ok();
    if let Some(repro) = repro {
        failures.push(format!("lockstep {} {repro}", w.name));
    }
    Ok((out, failures))
}

/// Renders a memory error with the enclosing function name when the
/// image still carries symbols (bug-finding deployments keep them).
pub fn symbolize(image: &Image, e: &redfat_emu::MemoryError) -> String {
    let mut best: Option<(&str, u64)> = None;
    for s in &image.symbols {
        if s.value <= e.site {
            match best {
                Some((_, v)) if v >= s.value => {}
                _ => best = Some((&s.name, s.value)),
            }
        }
    }
    match best {
        Some((name, v)) => format!("{e} in {name}+{:#x}", e.site - v),
        None => e.to_string(),
    }
}
