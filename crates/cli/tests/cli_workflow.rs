//! End-to-end CLI tests: the full Figure 5 workflow driven exactly as a
//! user would drive it, through files on disk.

use redfat_cli::run_cli;
use redfat_emu::{CostModel, Counters, Runtime};
use redfat_memcheck::MemcheckRuntime;
use std::path::{Path, PathBuf};

fn args(s: &[&str]) -> Vec<String> {
    s.iter().map(|a| a.to_string()).collect()
}

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

fn tmpdir(name: &str) -> Scratch {
    let dir = std::env::temp_dir().join(format!("redfat-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tempdir");
    Scratch(dir)
}

const ANTI_IDIOM_SRC: &str = "
fn main() {
    var t = malloc(16 * 8);
    var t1 = t - 64;
    for (var i = 0; i < 16; i = i + 1) { t[i] = i * i; }
    var buf = malloc(8 * 8);
    var pad = malloc(8 * 8);
    pad[0] = 1;
    var i = input();
    var j = input();
    print(t1[8 + i]);
    buf[j] = 7;
    return 0;
}";

#[test]
fn full_workflow_through_files() {
    let dir = tmpdir("workflow");
    let src = dir.join("prog.mc");
    let elf = dir.join("prog.elf");
    let prof = dir.join("prog.prof");
    let lst = dir.join("allow.lst");
    let hard = dir.join("prog.hard");
    std::fs::write(&src, ANTI_IDIOM_SRC).unwrap();

    // compile
    let out = run_cli(&args(&[
        "compile",
        src.to_str().unwrap(),
        "-o",
        elf.to_str().unwrap(),
    ]))
    .expect("compile");
    assert!(out.contains("bytes of code"));

    // profile + genlist
    run_cli(&args(&[
        "profile",
        elf.to_str().unwrap(),
        "-o",
        prof.to_str().unwrap(),
    ]))
    .expect("profile");
    let out = run_cli(&args(&[
        "genlist",
        prof.to_str().unwrap(),
        "--input",
        "3,2",
        "-o",
        lst.to_str().unwrap(),
    ]))
    .expect("genlist");
    assert!(out.contains("allow-listed"));
    let lst_text = std::fs::read_to_string(&lst).unwrap();
    assert!(lst_text.starts_with('#'));

    // harden with the allow-list
    let out = run_cli(&args(&[
        "harden",
        elf.to_str().unwrap(),
        "-o",
        hard.to_str().unwrap(),
        "--allowlist",
        lst.to_str().unwrap(),
    ]))
    .expect("harden");
    assert!(out.contains("trampolines"));

    // benign run: clean, same output as the original.
    let benign =
        run_cli(&args(&["run", hard.to_str().unwrap(), "--input", "5,2"])).expect("benign run");
    assert!(benign.contains("Exited(0)"), "{benign}");

    // attack run: detected.
    let attack = run_cli(&args(&[
        "run",
        hard.to_str().unwrap(),
        "--input",
        "5,12",
        "--log",
    ]))
    .expect("attack run");
    assert!(attack.contains("error:"), "{attack}");

    // memcheck on the ORIGINAL binary misses the skip.
    let mc = run_cli(&args(&[
        "run",
        elf.to_str().unwrap(),
        "--input",
        "5,12",
        "--memcheck",
    ]))
    .expect("memcheck run");
    assert!(mc.contains("Exited(0)"), "{mc}");
    assert!(!mc.contains("memcheck error"), "{mc}");
}

#[test]
fn disasm_and_stats() {
    let dir = tmpdir("disasm");
    let src = dir.join("p.mc");
    let elf = dir.join("p.elf");
    std::fs::write(&src, "fn main() { print(1); return 0; }").unwrap();
    run_cli(&args(&[
        "compile",
        src.to_str().unwrap(),
        "-o",
        elf.to_str().unwrap(),
    ]))
    .unwrap();

    let dis = run_cli(&args(&["disasm", elf.to_str().unwrap()])).unwrap();
    assert!(dis.contains("syscall"));
    assert!(dis.contains("0x400000:"));

    let stats = run_cli(&args(&["stats", elf.to_str().unwrap()])).unwrap();
    assert!(stats.contains("basic blocks"));
    assert!(stats.contains("kind:            Exec"));
}

/// `analyze` prints the planner's verdicts, so its per-site lines count
/// as many flow-eliminated and downgraded sites as `harden`'s summary:
/// on a program with both, and on the read-modify-write program whose
/// subsumed sites (`flow_properties.rs`) share one merged check with
/// their root, so that none is downgraded.
#[test]
fn analyze_reports_flow_verdicts() {
    let dir = tmpdir("analyze");
    let cases = [
        (
            "both",
            "global tab[4];
             fn main() {
                 var x = input();
                 var a = malloc(64);
                 var p = &tab;
                 p[1] = x;
                 a[2] = x;
                 if (x > 3) { a[2] = a[2] + 5; }
                 print(a[2] + p[1]);
                 free(a);
                 return 0;
             }",
            2,
            3,
        ),
        (
            "merged",
            "fn main() {
                 var a = malloc(64);
                 a[2] = 1;
                 a[2] = a[2] + 5;
                 a[2] = a[2] + 7;
                 print(a[2]);
                 return 0;
             }",
            0,
            0,
        ),
    ];
    for (name, source, flow, redundant) in cases {
        let src = dir.join(format!("{name}.mc"));
        let elf = dir.join(format!("{name}.elf"));
        let hard = dir.join(format!("{name}.hard"));
        std::fs::write(&src, source).unwrap();
        let (src, elf, hard) = (
            src.to_str().unwrap(),
            elf.to_str().unwrap(),
            hard.to_str().unwrap(),
        );
        run_cli(&args(&["compile", src, "-o", elf])).unwrap();

        let report = run_cli(&args(&["analyze", elf])).unwrap();
        let site_lines = |verdict: &str| {
            report
                .lines()
                .filter(|l| l.trim_start().starts_with("0x") && l.contains(verdict))
                .count()
        };
        assert_eq!(site_lines(" elim:flow "), flow, "{name}:\n{report}");
        assert_eq!(
            site_lines(" redundant(root="),
            redundant,
            "{name}:\n{report}"
        );
        let summary = run_cli(&args(&["harden", elf, "-o", hard])).unwrap();
        let counts = format!(" {flow} flow-eliminated, {redundant} redundant)");
        assert!(summary.contains(&counts), "{name}: {summary}");
    }
}

#[test]
fn harden_flags_change_the_plan() {
    let dir = tmpdir("flags");
    let src = dir.join("p.mc");
    let elf = dir.join("p.elf");
    std::fs::write(
        &src,
        "fn main() { var a = malloc(80); for (var i = 0; i < 10; i = i + 1) { a[i] = i; } print(a[4]); return 0; }",
    )
    .unwrap();
    run_cli(&args(&[
        "compile",
        src.to_str().unwrap(),
        "-o",
        elf.to_str().unwrap(),
    ]))
    .unwrap();

    let full = run_cli(&args(&[
        "harden",
        elf.to_str().unwrap(),
        "-o",
        dir.join("f.elf").to_str().unwrap(),
    ]))
    .unwrap();
    let writes_only = run_cli(&args(&[
        "harden",
        elf.to_str().unwrap(),
        "-o",
        dir.join("w.elf").to_str().unwrap(),
        "--writes-only",
    ]))
    .unwrap();
    let unopt = run_cli(&args(&[
        "harden",
        elf.to_str().unwrap(),
        "-o",
        dir.join("u.elf").to_str().unwrap(),
        "--no-elim",
        "--no-batch",
        "--no-merge",
    ]))
    .unwrap();
    let sites = |s: &str| -> usize {
        s.split(':')
            .nth(1)
            .unwrap()
            .trim()
            .split(' ')
            .next()
            .unwrap()
            .parse()
            .unwrap()
    };
    assert!(sites(&writes_only) < sites(&full));
    assert!(sites(&unopt) >= sites(&full));

    // Unknown flags/commands fail cleanly.
    assert!(run_cli(&args(&["frobnicate"])).is_err());
    let typo_out = dir.join("typo.hard");
    let e = run_cli(&args(&[
        "harden",
        elf.to_str().unwrap(),
        "-o",
        typo_out.to_str().unwrap(),
        "--no-elmi",
    ]))
    .unwrap_err();
    assert!(
        e.message.contains("unknown flag --no-elmi"),
        "{}",
        e.message
    );
    assert!(!typo_out.exists(), "a rejected flag writes no output");
    assert!(run_cli(&args(&["run", "/nonexistent.elf"])).is_err());
    for gone in ["superblock", "trace"] {
        let e = run_cli(&args(&["run", elf.to_str().unwrap(), "--backend", gone])).unwrap_err();
        assert_eq!(e.message, format!("bad --backend \"{gone}\" (step|fast)"));
    }
}

/// The `cycles` a `run --stats` printed, and its `counters:` line priced
/// by `model`.
fn printed_and_repriced(out: &str, model: &CostModel) -> (u64, u64) {
    let cycles = out
        .lines()
        .find_map(|l| l.strip_prefix("instructions ")?.split_once("  cycles "))
        .unwrap_or_else(|| panic!("no cycles: {out}"))
        .1
        .parse()
        .unwrap();
    let line = out
        .lines()
        .find_map(|l| l.strip_prefix("counters: "))
        .unwrap_or_else(|| panic!("no counters: {out}"));
    let mut c = Counters::default();
    for pair in line.split("  ") {
        let (name, v) = pair.split_once(' ').unwrap();
        *match name {
            "instructions" => &mut c.instructions,
            "loads" => &mut c.loads,
            "stores" => &mut c.stores,
            "muls" => &mut c.muls,
            "divs" => &mut c.divs,
            "taken-branches" => &mut c.taken_branches,
            "transfers" => &mut c.transfers,
            "region-crossings" => &mut c.region_crossings,
            "syscalls" => &mut c.syscalls,
            "int3-traps" => &mut c.int3_traps,
            other => panic!("unknown event {other:?}"),
        } = v.parse().unwrap();
    }
    let printed = c.events().map(|(k, v)| format!("{k} {v}")).join("  ");
    assert_eq!(printed, line, "every event printed once, in order");
    (cycles, model.price(&c))
}

#[test]
fn run_backends_print_identical_output() {
    let dir = tmpdir("backends");
    let src = dir.join("p.mc");
    let elf = dir.join("p.elf");
    let hard = dir.join("p.hard");
    std::fs::write(&src, ANTI_IDIOM_SRC).unwrap();
    run_cli(&args(&[
        "compile",
        src.to_str().unwrap(),
        "-o",
        elf.to_str().unwrap(),
    ]))
    .unwrap();
    run_cli(&args(&[
        "harden",
        elf.to_str().unwrap(),
        "-o",
        hard.to_str().unwrap(),
    ]))
    .unwrap();
    let run_image = |image: &std::path::Path, input: &str, backend: &str, flags: &[&str]| {
        let mut a = vec![
            "run",
            image.to_str().unwrap(),
            "--input",
            input,
            "--backend",
            backend,
        ];
        a.extend(flags);
        run_cli(&args(&a)).unwrap_or_else(|e| panic!("--backend {backend}: {e}"))
    };
    let run = |input: &str, backend: &str, flags: &[&str]| run_image(&elf, input, backend, flags);
    // Result, guest output, error reports and the counter line.
    let step = run("3,2", "step", &[]);
    assert!(
        step.lines().last().unwrap().starts_with("instructions "),
        "{step}"
    );
    assert_eq!(run("3,2", "fast", &[]), step, "--backend fast differs");

    // --stats adds the event counters, which match too; only the
    // translation-cache line is the fast tier's own. The printed cycles
    // are the printed events priced, for a baseline and a hardened
    // image alike.
    let without_cache = |out: String| -> String {
        out.lines()
            .filter(|l| !l.starts_with("trace-cache: "))
            .map(|l| format!("{l}\n"))
            .collect()
    };
    for image in [&elf, &hard] {
        let step_stats = run_image(image, "3,2", "step", &["--stats"]);
        let (cycles, repriced) = printed_and_repriced(&step_stats, &CostModel::NATIVE);
        assert_eq!(cycles, repriced, "{step_stats}");
        assert_eq!(
            without_cache(run_image(image, "3,2", "fast", &["--stats"])),
            without_cache(step_stats),
            "--stats: --backend fast differs"
        );
    }
    // With no --backend, `run` takes the fast tier, translation-cache
    // counters and all.
    let hard_path = hard.to_str().unwrap();
    let default = run_cli(&args(&["run", hard_path, "--input", "3,2", "--stats"])).unwrap();
    assert_eq!(default, run_image(&hard, "3,2", "fast", &["--stats"]));
    assert!(
        !default.contains("trace-cache: hits 0  misses 0 "),
        "{default}"
    );

    // Memcheck observes every access, so it runs on the step
    // interpreter whichever backend is selected: identical output with
    // the planted overflow triggered (`buf[9]`) and without it.
    for (input, overflows) in [("3,9", true), ("3,2", false)] {
        let step = run(input, "step", &["--memcheck"]);
        assert_eq!(
            step.contains("memcheck error: "),
            overflows,
            "--input {input}: {step}"
        );
        assert_eq!(
            run(input, "fast", &["--memcheck"]),
            step,
            "--memcheck --input {input}: --backend fast differs"
        );
    }
    // ... and is priced at its own DBI prices.
    let mc = run("3,2", "step", &["--memcheck", "--stats"]);
    let (cycles, repriced) = printed_and_repriced(&mc, &MemcheckRuntime::COST);
    assert_eq!(cycles, repriced, "{mc}");
}

#[test]
fn error_symbolization_names_the_function() {
    let dir = tmpdir("sym");
    let src = dir.join("p.mc");
    let elf = dir.join("p.elf");
    let hard = dir.join("p.hard");
    std::fs::write(
        &src,
        "fn vulnerable(buf, i) { buf[i] = 1; return 0; }
         fn main() { var a = malloc(40); var b = malloc(40); b[0] = 1; vulnerable(a, input()); return 0; }",
    )
    .unwrap();
    run_cli(&args(&[
        "compile",
        src.to_str().unwrap(),
        "-o",
        elf.to_str().unwrap(),
    ]))
    .unwrap();
    // Keep symbols (no --strip): bug-finding mode reports function names.
    run_cli(&args(&[
        "harden",
        elf.to_str().unwrap(),
        "-o",
        hard.to_str().unwrap(),
    ]))
    .unwrap();
    let out = run_cli(&args(&[
        "run",
        hard.to_str().unwrap(),
        "--input",
        "10",
        "--log",
    ]))
    .unwrap();
    assert!(out.contains("in vulnerable+"), "{out}");
}

#[test]
fn selftest_rejects_unknown_flags_and_answers_help_without_running() {
    // A typo must not fall through to the full-length selftest.
    let e = run_cli(&args(&["selftest", "--qiuck"])).unwrap_err();
    assert!(e.message.contains("--qiuck"), "{}", e.message);
    assert_eq!(e.code, 1);
    let usage = run_cli(&args(&["--help"])).expect("help succeeds");
    assert!(usage.starts_with("usage: redfat"), "{usage}");
    for help in ["--help", "-h"] {
        let out = run_cli(&args(&["selftest", help])).expect("help succeeds");
        assert_eq!(out, usage, "selftest {help} prints usage and runs nothing");
    }
}

#[test]
fn each_command_rejects_flags_it_does_not_take() {
    let dir = tmpdir("foreign");
    let src = dir.join("p.mc");
    let elf = dir.join("p.elf");
    std::fs::write(&src, "fn main() { var a = malloc(8); a[0] = 1; return 0; }").unwrap();
    let elf = elf.to_str().unwrap();
    run_cli(&args(&["compile", src.to_str().unwrap(), "-o", elf])).unwrap();

    // Another command's flags, which `harden` used to accept and ignore.
    let out = dir.join("p.hard");
    let out = out.to_str().unwrap();
    let e = run_cli(&args(&[
        "harden",
        elf,
        "-o",
        out,
        "--alloc-policy",
        "rand-lowfat",
        "--memcheck",
    ]))
    .unwrap_err();
    assert_eq!(e.code, 1);
    assert!(
        e.message.contains("--alloc-policy") && e.message.contains("`harden`"),
        "{}",
        e.message
    );
    assert!(!std::path::Path::new(out).exists(), "nothing hardened");

    // One flag of another command per command; each fails before the
    // command reads a file or opens a socket.
    let cases: [&[&str]; 13] = [
        &["compile", "p.mc", "-o", out, "--threads", "2"],
        &["harden", elf, "-o", out, "--memcheck"],
        &["profile", elf, "-o", out, "--no-elim"],
        &["genlist", elf, "-o", out, "--iters", "5"],
        &["fuzzlist", elf, "-o", out, "--log"],
        &["run", elf, "--no-elim"],
        &["disasm", elf, "--stats"],
        &["analyze", elf, "-o", out],
        &["stats", elf, "--quick"],
        &["selftest", "--quick", "--memcheck"],
        &["serve", "--socket", "s.sock", "--strip"],
        &["submit", elf, "--socket", "s.sock", "--strip"],
        &["svcstats", "--socket", "s.sock", "--op", "harden"],
    ];
    for case in cases {
        let e = run_cli(&args(case)).unwrap_err();
        let cmd = case[0];
        assert!(
            e.message.starts_with("unknown flag") && e.message.contains(&format!("`{cmd}`")),
            "{case:?}: {}",
            e.message
        );
    }
    let e = run_cli(&args(&["selftest", "--faults", "--alloc-policy", "lowfat"])).unwrap_err();
    assert!(e.message.contains("--alloc-policy"), "{}", e.message);
    // What a command does take still parses: `harden` takes every harden
    // option and `--strip`.
    run_cli(&args(&[
        "harden",
        elf,
        "-o",
        out,
        "--strip",
        "--threads",
        "1",
        "--no-elim",
        "--no-size",
        "--writes-only",
    ]))
    .unwrap();
}
