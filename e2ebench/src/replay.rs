//! The traced run: the benchmark's own code calls each layer's public
//! functions inside spans and reports the per-layer metrics.
//!
//! The replay is the same for every workload, so every traced run
//! reports every per-layer metric: the analysis stages, check synthesis
//! and the rewrite on kromium; the emulator, VM and allocator on the
//! SPEC stand-ins; and the artifact cache, digest, component cache and
//! transport on kromium's daemon traffic. Where a layer's time is
//! measured traced and untraced in the same run, the difference is
//! reported as the tracing overhead.

use crate::daemon::{check_edit, harden_request, submit, Daemon, Reply};
use crate::inputs::{pick_edits, spec_order};
use crate::report::Report;
use crate::spec::{check_run, prepare_all, run_on, Prepared};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{kromium, MAX_STEPS};
use redfat_analysis::{
    can_reach_heap, disassemble, merge_checks, plan_batches, unknown_entries, Batch, Cfg, Liveness,
    Provenance, RedundantChecks,
};
use redfat_core::{
    harden_cached, harden_threaded, sha256, HardenConfig, Hardened, LowFatPolicy,
    MemoryComponentCache, RunOutcome,
};
use redfat_elf::Image;
use redfat_emu::{
    syscalls, Counters, Cpu, Emu, ErrorMode, ExecBackend, HostRuntime, Runtime, SyscallOutcome,
    TraceStats,
};
use redfat_parallel::geomean;
use redfat_service::{
    artifact_key, render_harden_stats, ArtifactCache, ArtifactEntry, Request, Source,
};
use redfat_vm::Vm;
use redfat_x86::{Inst, Reg};
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of each replayed call; medians are reported.
const REPS: usize = 5;
/// Edits and hits per side (untraced, traced) of the daemon replay.
const MINI_EDITS: usize = 3;
const MINI_HITS: usize = 20;

/// The analysis stages in pipeline order, as span names.
const STAGES: [&str; 8] = [
    "analysis.disasm",
    "analysis.cfg",
    "analysis.roots",
    "analysis.split",
    "analysis.liveness",
    "analysis.provenance",
    "analysis.redundant",
    "analysis.batch",
];

/// Per-layer metric names of the stages, in [`STAGES`] order.
const STAGE_METRICS: [&str; 8] = [
    "analysis.disasm_ms",
    "analysis.cfg_ms",
    "analysis.roots_ms",
    "analysis.split_ms",
    "analysis.liveness_ms",
    "analysis.provenance_ms",
    "analysis.redundant_ms",
    "analysis.batch_ms",
];

fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// Runs the replay and fills `report` with every per-layer metric.
pub fn run(seed: u64, threads: usize, report: &mut Report, tracer: &Tracer) {
    let image = kromium::build(seed);
    let hardened = pipeline_layers(&image, threads, report, tracer);
    service_layers(seed, &image, &hardened, threads, report, tracer);
    emu_layers(seed, threads, report, tracer);
}

/// The analysis stages, check synthesis plus rewrite, parallel speedup
/// and ELF serialization, on kromium.
fn pipeline_layers(
    image: &Image,
    threads: usize,
    report: &mut Report,
    tracer: &Tracer,
) -> Hardened {
    let config = HardenConfig::default();
    let hardened = harden_threaded(image, &config, threads).expect("kromium hardens");

    // Each repetition times the nproc harden, the serial harden and the
    // stage replay with and without recording back to back, so a change
    // of host speed between repetitions cannot set the stage sum against
    // a serial harden, or a traced replay against an untraced one, timed
    // in another state.
    let off = Tracer::off();
    let (mut parallel, mut serial, mut rests, mut overhead) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut stage_ms: Vec<Vec<f64>> = vec![Vec::new(); STAGES.len()];
    let (mut counts, mut spans) = (StageCounts::default(), 0);
    for _ in 0..REPS {
        parallel.push(time_ms(|| harden_threaded(image, &config, threads)).1);
        tracer.next_op();
        let one = {
            let _s = tracer.span("core.harden_serial");
            time_ms(|| harden_threaded(image, &config, 1)).1
        };
        let op = tracer.next_op();
        let before = tracer.len();
        let traced_ms;
        (counts, traced_ms) = time_ms(|| replay_stages(tracer, image, &config));
        spans = tracer.len() - before;
        let untraced_ms = time_ms(|| replay_stages(&off, image, &config)).1;
        let totals = tracer.op_totals_ms(op);
        let mut sum = 0.0;
        for (ms, stage) in stage_ms.iter_mut().zip(STAGES) {
            let t = totals.get(stage).copied().unwrap_or(0.0);
            sum += t;
            ms.push(t);
        }
        serial.push(one);
        rests.push(one - sum);
        overhead.push(traced_ms - untraced_ms);
    }
    let stage_medians: Vec<f64> = stage_ms.iter().map(|v| median(v)).collect();
    let rest = median(&rests);

    let s = &hardened.stats;
    report.op(
        counts.batches == s.batches && counts.checks == s.checks,
        || {
            format!(
                "replay plans {} batches / {} checks, harden {} / {}",
                counts.batches, counts.checks, s.batches, s.checks
            )
        },
    );
    report.op(rest > 0.0, || {
        format!("stage sum exceeds the serial harden by {:.3} ms", -rest)
    });

    for (name, ms) in STAGE_METRICS.iter().zip(&stage_medians) {
        report.metric(name, "ms", *ms, format!("median of {REPS} replays, serial"));
    }
    report.metric(
        "rewriter.rest_ms",
        "ms",
        rest,
        format!("derived: median over {REPS} of serial harden minus its stage sum"),
    );
    report.metric(
        "parallel.speedup",
        "ratio",
        median(&serial) / median(&parallel),
        format!("serial harden over harden at {threads} threads"),
    );
    report.metric(
        "trace.harden_p50_ms_delta",
        "ms",
        median(&overhead),
        format!("stage replay recording {spans} spans minus not recording, median of {REPS}"),
    );

    let to_bytes: Vec<f64> = (0..REPS)
        .map(|_| {
            let _s = tracer.span("elf.to_bytes");
            time_ms(|| black_box(hardened.image.to_bytes())).1
        })
        .collect();
    let request = image.to_bytes();
    let parse: Vec<f64> = (0..REPS)
        .map(|_| {
            let _s = tracer.span("elf.parse");
            let (parsed, ms) = time_ms(|| Image::parse(&request));
            report.op(parsed.is_ok_and(|p| p.to_bytes() == request), || {
                "request does not parse back to itself".into()
            });
            ms
        })
        .collect();
    report.metric(
        "elf.to_bytes_ms",
        "ms",
        median(&to_bytes),
        "hardened image".into(),
    );
    report.metric(
        "elf.parse_ms",
        "ms",
        median(&parse),
        "kromium request".into(),
    );

    let exact = |v: usize| (v as f64, "exact".to_string());
    for (name, unit, (value, basis)) in [
        ("analysis.insts", "count", exact(counts.insts)),
        ("analysis.blocks", "count", exact(counts.blocks)),
        ("analysis.components", "count", exact(counts.components)),
        ("core.sites_considered", "count", exact(s.sites_considered)),
        (
            "core.sites_eliminated",
            "count",
            exact(s.sites_eliminated + s.sites_eliminated_flow + s.sites_eliminated_interproc),
        ),
        ("core.sites_full", "count", exact(s.sites_lowfat)),
        ("core.sites_redzone", "count", exact(s.sites_redzone)),
        ("core.sites_redundant", "count", exact(s.sites_redundant)),
        ("core.checks", "count", exact(s.checks)),
        ("core.batches", "count", exact(s.batches)),
        (
            "rewriter.trampoline_kb",
            "KiB",
            (s.rewrite.trampoline_bytes as f64 / 1024.0, "exact".into()),
        ),
        (
            "rewriter.jmp_patches",
            "count",
            exact(s.rewrite.jmp_patches),
        ),
    ] {
        report.metric(name, unit, value, basis);
    }
    // Kromium takes a jump patch at every site, so the trap count is 0
    // and stays out of the metrics.
    report.note(format!(
        "rewriter trap patches {} (log only)",
        s.rewrite.trap_patches
    ));
    hardened
}

#[derive(Default)]
struct StageCounts {
    insts: usize,
    blocks: usize,
    components: usize,
    batches: usize,
    checks: usize,
}

/// Replays the pipeline's analysis and planning stages, serially and
/// with the same inputs `harden_threaded` gives them, one span per
/// stage call. Check synthesis and the rewrite are not public; they are
/// what `rewriter.rest_ms` derives.
fn replay_stages(tracer: &Tracer, image: &Image, config: &HardenConfig) -> StageCounts {
    let disasm = {
        let _s = tracer.span("analysis.disasm");
        disassemble(image)
    };
    let cfg = {
        let _s = tracer.span("analysis.cfg");
        Cfg::recover(&disasm, image.entry, &[])
    };
    let roots = {
        let _s = tracer.span("analysis.roots");
        unknown_entries(&disasm, &cfg, image.entry)
    };
    let components = {
        let _s = tracer.span("analysis.split");
        cfg.components()
    };
    let allowed = |site: u64| match &config.lowfat {
        LowFatPolicy::Disabled => false,
        LowFatPolicy::All => true,
        LowFatPolicy::AllowList(l) => l.contains(site),
    };
    let mut counts = StageCounts {
        insts: disasm.len(),
        blocks: cfg.blocks.len(),
        components: components.len(),
        ..StageCounts::default()
    };
    for sub in &components {
        {
            let _s = tracer.span("analysis.liveness");
            black_box(Liveness::compute(&disasm, sub));
        }
        let prov = config.elim_flow.then(|| {
            let _s = tracer.span("analysis.provenance");
            Provenance::compute_with_roots(&disasm, sub, &roots)
        });
        let filter = |addr: u64, inst: &Inst| {
            let Some(mem) = inst.memory_access() else {
                return false;
            };
            if !config.instrument_reads && !inst.writes_memory() {
                return false;
            }
            if config.elim && !can_reach_heap(&mem) {
                return false;
            }
            prov.as_ref()
                .is_none_or(|p| p.site_can_reach_heap(&disasm, sub, addr, inst))
        };
        if config.elim_redundant {
            let _s = tracer.span("analysis.redundant");
            black_box(RedundantChecks::compute_with_roots(
                &disasm,
                sub,
                &roots,
                |a, i| filter(a, i) && allowed(a),
            ));
        }
        let _s = tracer.span("analysis.batch");
        for batch in plan_batches(&disasm, sub, config.batch, filter) {
            counts.batches += 1;
            let (full, redzone): (Vec<u64>, Vec<u64>) =
                batch.members.iter().partition(|&&m| allowed(m));
            for members in [full, redzone].into_iter().filter(|m| !m.is_empty()) {
                let part = Batch {
                    anchor: batch.anchor,
                    members,
                };
                counts.checks += merge_checks(&disasm, &part, config.merge).len();
            }
        }
    }
    counts
}

/// The artifact cache, digest, component cache and daemon transport, on
/// kromium and its hardened image.
fn service_layers(
    seed: u64,
    image: &Image,
    hardened: &Hardened,
    threads: usize,
    report: &mut Report,
    tracer: &Tracer,
) {
    let config = HardenConfig::default();
    let request = harden_request(image.to_bytes());
    let op_byte = request.op.to_byte();
    let key = artifact_key(&request.image, &request.config, op_byte);
    let entry = ArtifactEntry {
        artifact: hardened.image.to_bytes(),
        stats: render_harden_stats(&hardened.stats),
    };
    let dir = format!("replay-cache-{}", std::process::id());
    let cache = ArtifactCache::open(&dir).expect("artifact cache directory");

    tracer.next_op();
    let mut key_ms = Vec::new();
    let mut put_ms = Vec::new();
    let mut get_ms = Vec::new();
    let mut sha_ms = Vec::new();
    for _ in 0..REPS {
        let _s = tracer.span("service.key");
        key_ms
            .push(time_ms(|| black_box(artifact_key(&request.image, &request.config, op_byte))).1);
    }
    for _ in 0..REPS {
        let _s = tracer.span("service.put");
        let (res, ms) = time_ms(|| cache.put(&key, &entry));
        report.op(res.is_ok(), || format!("artifact put failed: {res:?}"));
        put_ms.push(ms);
    }
    for _ in 0..REPS {
        let _s = tracer.span("service.get");
        let (got, ms) = time_ms(|| cache.get(&key));
        report.op(got.as_ref() == Some(&entry), || {
            "artifact get misses or differs".into()
        });
        get_ms.push(ms);
    }
    for _ in 0..REPS {
        let _s = tracer.span("core.digest");
        sha_ms.push(time_ms(|| black_box(sha256(&entry.artifact))).1);
    }
    let _ = std::fs::remove_dir_all(&dir);
    let entry_kib = entry.artifact.len() / 1024;
    report.metric(
        "service.key_ms",
        "ms",
        median(&key_ms),
        "artifact_key of the request".into(),
    );
    report.metric(
        "service.get_ms",
        "ms",
        median(&get_ms),
        format!("{entry_kib} KiB entry"),
    );
    report.metric(
        "service.put_ms",
        "ms",
        median(&put_ms),
        format!("{entry_kib} KiB entry"),
    );
    report.metric(
        "core.digest_mbps",
        "MB/s",
        entry.artifact.len() as f64 / 1e6 / (median(&sha_ms) / 1e3),
        format!("sha256 over the {entry_kib} KiB artifact"),
    );

    // An edit against a primed in-memory component cache.
    let components = MemoryComponentCache::new();
    black_box(harden_cached(image, &config, threads, &components).expect("primes"));
    let mut cached_ms = Vec::new();
    let mut reuse = 0.0;
    for edit in pick_edits(image, seed, REPS) {
        let variant = edit.apply(image);
        tracer.next_op();
        let _s = tracer.span("core.cached_harden");
        let (out, ms) = time_ms(|| harden_cached(&variant, &config, threads, &components));
        let stats = out.expect("edit hardens").stats;
        report.op(stats.components_reused + 1 == stats.components, || {
            format!(
                "cached edit reuses {} of {}",
                stats.components_reused, stats.components
            )
        });
        reuse = stats.components_reused as f64 / stats.components as f64;
        cached_ms.push(ms);
    }
    report.metric(
        "core.cached_harden_ms",
        "ms",
        median(&cached_ms),
        format!("median of {REPS} one-component edits"),
    );
    report.metric(
        "core.reuse_ratio",
        "ratio",
        reuse,
        "exact, components reused".into(),
    );

    daemon_transport(seed, image, threads, report, tracer);
}

/// A short exchange with a daemon; transport is the round trip minus the
/// server's time. Requests alternate between untraced and traced, so a
/// change of host speed falls on both sides alike. Tracing on this path
/// is one span per request, which is all the edit and hit deltas measure.
fn daemon_transport(
    seed: u64,
    image: &Image,
    threads: usize,
    report: &mut Report,
    tracer: &Tracer,
) {
    let mut daemon = Daemon::start(&format!("r{}", std::process::id()), threads).expect("daemon");
    let prime = submit(&mut daemon.client, &harden_request(image.to_bytes()));
    report.op(prime.source == Some(Source::Computed), || {
        "priming did not compute".into()
    });
    let variants: Vec<_> = pick_edits(image, seed, 2 * MINI_EDITS)
        .iter()
        .map(|e| harden_request(e.apply(image).to_bytes()))
        .collect();

    // Side 0 is untraced, side 1 traced.
    let mut edits: [Vec<f64>; 2] = Default::default();
    let mut hits: [Vec<f64>; 2] = Default::default();
    let (mut edit_transport, mut hit_transport) = (Vec::new(), Vec::new());
    let mut send = |i: usize, req: &Request| -> (usize, Reply) {
        tracer.next_op();
        let side = i % 2;
        let reply = if side == 1 {
            let _s = tracer.span("service.request");
            submit(&mut daemon.client, req)
        } else {
            submit(&mut daemon.client, req)
        };
        (side, reply)
    };
    let mut artifacts = Vec::new();
    for (i, req) in variants.iter().enumerate() {
        let (side, reply) = send(i, req);
        let ok = check_edit(&reply);
        report.op(ok.is_ok(), || ok.unwrap_err());
        edits[side].push(reply.ms);
        edit_transport.push(reply.ms - reply.server_ms);
        artifacts.push(reply.artifact);
    }
    for h in 0..2 * MINI_HITS {
        let v = h % variants.len();
        let (side, reply) = send(h, &variants[v]);
        report.op(
            reply.source == Some(Source::ArtifactHit) && reply.artifact == artifacts[v],
            || format!("replayed hit {h}: {:?} or bytes differ", reply.source),
        );
        hits[side].push(reply.ms);
        hit_transport.push(reply.ms - reply.server_ms);
    }
    let hits_served = daemon.stat("artifact_hits").unwrap_or(u64::MAX);
    let computations = daemon.stat("computations").unwrap_or(u64::MAX);
    let errors = daemon.stat("errors");
    drop(daemon);
    report.op(errors == Some(0), || {
        format!("daemon reports errors={errors:?}")
    });

    report.metric(
        "service.transport_ms",
        "ms",
        median(&hit_transport),
        format!(
            "hits: round trip minus server time, {} requests",
            hit_transport.len()
        ),
    );
    report.metric(
        "service.transport_edit_ms",
        "ms",
        median(&edit_transport),
        format!(
            "edits: round trip minus server time, {} requests",
            edit_transport.len()
        ),
    );
    report.metric(
        "service.artifact_hits",
        "count",
        hits_served as f64,
        "daemon stats".into(),
    );
    report.metric(
        "service.computations",
        "count",
        computations as f64,
        "daemon stats".into(),
    );
    report.metric(
        "trace.edit_p50_ms_delta",
        "ms",
        median(&edits[1]) - median(&edits[0]),
        format!("traced minus untraced edit median, {MINI_EDITS} each, alternated"),
    );
    report.metric(
        "trace.hit_p50_ms_delta",
        "ms",
        median(&hits[1]) - median(&hits[0]),
        format!("traced minus untraced hit median, {MINI_HITS} each, alternated"),
    );
}

/// Forwards to [`HostRuntime`] and records every syscall as a span:
/// allocator calls under `lowfat.alloc`, the rest under `emu.syscall`.
struct TimedRuntime<'t> {
    inner: HostRuntime,
    tracer: &'t Tracer,
}

impl Runtime for TimedRuntime<'_> {
    fn on_load(&mut self, vm: &mut Vm) {
        self.inner.on_load(vm);
    }

    fn syscall(&mut self, cpu: &mut Cpu, vm: &mut Vm) -> SyscallOutcome {
        let nr = cpu.get(Reg::Rax);
        let start = Instant::now();
        let out = self.inner.syscall(cpu, vm);
        let end = Instant::now();
        let name = match nr {
            syscalls::MALLOC | syscalls::CALLOC | syscalls::REALLOC => {
                self.tracer.count("lowfat.allocs", 1);
                "lowfat.alloc"
            }
            syscalls::FREE => {
                self.tracer.count("lowfat.frees", 1);
                "lowfat.alloc"
            }
            _ => "emu.syscall",
        };
        self.tracer.record(name, start, end);
        out
    }
}

/// One traced hardened run: load and execute inside spans, syscalls
/// recorded by [`TimedRuntime`].
fn traced_run(p: &Prepared, tracer: &Tracer) -> RunOutcome {
    let _run = tracer.span("emu.run");
    let mut emu = {
        let _s = tracer.span("emu.load");
        let runtime = TimedRuntime {
            inner: HostRuntime::new(ErrorMode::Log).with_input(p.input.clone()),
            tracer,
        };
        Emu::load_image(&p.hardened, runtime).expect("stand-in loads")
    };
    let result = {
        let _s = tracer.span("emu.exec");
        emu.run_backend(ExecBackend::Fast, MAX_STEPS)
    };
    let trace_stats = emu.trace_stats();
    RunOutcome {
        result,
        counters: emu.counters,
        io: emu.runtime.inner.io,
        errors: emu.runtime.inner.errors,
        profile: emu.runtime.inner.profile,
        trace_stats,
    }
}

/// One sweep over the SPEC stand-ins: hardened untraced and traced on
/// the fast tier, baseline on the fast tier, hardened under `step`.
fn emu_layers(seed: u64, threads: usize, report: &mut Report, tracer: &Tracer) {
    let prepared = prepare_all(threads);
    let mut total = Counters::default();
    let mut tstats = TraceStats::default();
    // (instructions, [untraced, traced, step] seconds, baseline (instructions, seconds))
    let mut rows: Vec<(f64, [f64; 3], (f64, f64))> = Vec::new();
    // Hardened over baseline modeled cycles, per stand-in.
    let mut cycles_x = Vec::new();
    for i in spec_order(seed, 0, prepared.len()) {
        let p = &prepared[i];
        let (untraced, u_ms) = time_ms(|| run_on(&p.hardened, &p.input, ExecBackend::Fast));
        let ok = check_run(p, &untraced);
        report.op(ok.is_ok(), || ok.unwrap_err());

        tracer.next_op();
        let (traced, t_ms) = time_ms(|| traced_run(p, tracer));
        let ok = check_run(p, &traced);
        report.op(ok.is_ok(), || ok.unwrap_err());
        let (counters, ts) = (traced.counters, traced.trace_stats);

        let (base, b_ms) = time_ms(|| run_on(&p.image, &p.input, ExecBackend::Fast));
        report.op(
            base.io.digest() == p.base_digest && base.counters.instructions == p.base_instructions,
            || format!("{}: baseline differs between step and fast", p.name),
        );
        let (step, s_ms) = time_ms(|| run_on(&p.hardened, &p.input, ExecBackend::Step));
        report.op(step.counters == untraced.counters, || {
            format!("{}: step and fast counters differ", p.name)
        });

        for (sum, v) in [
            (&mut total.instructions, counters.instructions),
            (&mut total.transfers, counters.transfers),
            (&mut total.region_crossings, counters.region_crossings),
            (&mut total.syscalls, counters.syscalls),
            (&mut total.loads, counters.loads),
            (&mut total.stores, counters.stores),
            (&mut tstats.misses, ts.misses),
            (&mut tstats.chain_follows, ts.chain_follows),
            (&mut tstats.ic_hits, ts.ic_hits),
            (&mut tstats.ic_misses, ts.ic_misses),
        ] {
            *sum += v;
        }
        cycles_x.push(untraced.counters.cycles as f64 / p.base_cycles as f64);
        rows.push((
            counters.instructions as f64 / 1e6,
            [u_ms / 1e3, t_ms / 1e3, s_ms / 1e3],
            (base.counters.instructions as f64 / 1e6, b_ms / 1e3),
        ));
    }

    let mips = |col: usize| geomean(rows.iter().map(|(work, t, _)| work / t[col]));
    let base_mips = geomean(rows.iter().map(|(_, _, (work, t))| work / t));
    let own = tracer.self_ms();
    let own_ms = |name: &str| own.get(name).copied().unwrap_or(0.0);
    let n = prepared.len();
    report.metric(
        "emu.load_ms",
        "ms",
        own_ms("emu.load"),
        format!("self time, {n} loads"),
    );
    report.metric(
        "emu.exec_ms",
        "ms",
        own_ms("emu.exec"),
        "self time, syscalls excluded".into(),
    );
    report.metric(
        "emu.syscall_ms",
        "ms",
        own_ms("emu.syscall"),
        "non-allocator syscalls".into(),
    );
    report.metric(
        "lowfat.alloc_ms",
        "ms",
        own_ms("lowfat.alloc"),
        "malloc/calloc/realloc/free".into(),
    );
    for (name, v) in [
        ("emu.instructions", total.instructions),
        ("emu.transfers", total.transfers),
        ("emu.region_crossings", total.region_crossings),
        ("emu.syscalls", total.syscalls),
        ("vm.loads", total.loads),
        ("vm.stores", total.stores),
        ("lowfat.allocs", tracer.counted("lowfat.allocs")),
        ("lowfat.frees", tracer.counted("lowfat.frees")),
        ("emu.translations", tstats.misses),
        ("emu.chain_follows", tstats.chain_follows),
    ] {
        report.metric(
            name,
            "count",
            v as f64,
            format!("exact, sum over {n} hardened runs"),
        );
    }
    report.metric(
        "emu.ic_hit_ratio",
        "ratio",
        tstats.ic_hits as f64 / (tstats.ic_hits + tstats.ic_misses).max(1) as f64,
        "exact, inline-cache hits over probes".into(),
    );
    report.metric(
        "emu.guest_mips",
        "Minstr/s",
        mips(0),
        "fast tier, hardened, untraced; geomean over stand-ins".into(),
    );
    report.metric(
        "core.cycles_x",
        "ratio",
        geomean(cycles_x),
        "exact, geomean hardened/baseline modeled cycles (Table 1, +redund)".into(),
    );
    report.metric(
        "emu.baseline_mips",
        "Minstr/s",
        base_mips,
        "fast tier, unhardened".into(),
    );
    report.metric(
        "emu.step_mips",
        "Minstr/s",
        mips(2),
        "step interpreter, hardened".into(),
    );
    report.metric(
        "trace.guest_mips_delta",
        "Minstr/s",
        mips(1) - mips(0),
        "traced minus untraced geomean, one sweep each".into(),
    );
}
