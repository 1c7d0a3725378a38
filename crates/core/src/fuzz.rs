//! Coverage-guided profiling (paper §5): "automated coverage-guided
//! testing tools, such as the American Fuzzy Lop (AFL) over binaries,
//! can be used to boost coverage" of the allow-list generation phase.
//!
//! This is a miniature E9AFL analogue: the profiling binary's
//! per-site events double as the coverage signal. Inputs that reach new
//! sites are kept as seeds and mutated further; the accumulated profile
//! across all executions feeds [`crate::collect_allowlist`].

use crate::pipeline::{instrument_profile, HardenError};
use crate::runner::{run, RunSpec};
use redfat_elf::Image;
use redfat_emu::{ErrorMode, ProfileStats, RunResult};
use redfat_vm::Rng64;
use std::collections::HashMap;

/// Configuration for the profiling fuzzer.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Total executions to spend.
    pub iterations: usize,
    /// Step budget per execution.
    pub max_steps: u64,
    /// Deterministic RNG seed.
    pub seed: u64,
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        FuzzConfig {
            iterations: 64,
            max_steps: 50_000_000,
            seed: 0xAF1,
        }
    }
}

/// Outcome of a fuzzing campaign.
pub struct FuzzOutcome {
    /// Merged per-site profile across all executions.
    pub profile: HashMap<u64, ProfileStats>,
    /// Inputs that discovered new coverage (the seed corpus).
    pub corpus: Vec<Vec<i64>>,
    /// Executions performed.
    pub executions: usize,
}

/// Mutates an input vector AFL-style: flip/replace/insert/remove/
/// perturb values.
fn mutate(rng: &mut Rng64, input: &[i64]) -> Vec<i64> {
    let mut out = input.to_vec();
    match rng.below_usize(5) {
        0 if !out.is_empty() => {
            // Small perturbation.
            let i = rng.below_usize(out.len());
            out[i] = out[i].wrapping_add(rng.next_u64() as i64 % 17 - 8);
        }
        1 if !out.is_empty() => {
            // Interesting-value replacement.
            const INTERESTING: [i64; 8] = [0, 1, -1, 2, 16, 64, 255, 4096];
            let i = rng.below_usize(out.len());
            out[i] = INTERESTING[rng.below_usize(INTERESTING.len())];
        }
        2 => out.push(rng.next_u64() as i64 % 128),
        3 if out.len() > 1 => {
            let i = rng.below_usize(out.len());
            out.remove(i);
        }
        _ if !out.is_empty() => {
            // Random replacement.
            let i = rng.below_usize(out.len());
            out[i] = (rng.next_u64() % 256) as i64;
        }
        _ => out.push(0),
    }
    out
}

/// Runs a coverage-guided profiling campaign over `image`, starting from
/// `seeds`, and returns the merged profile.
///
/// Crashing or non-exiting inputs contribute whatever profile events they
/// produced before dying (AFL keeps their coverage too), but are not
/// added to the corpus.
///
/// # Panics
///
/// Panics if the profiling binary does not load, which happens only
/// when `image` itself does not.
pub fn fuzz_profile(
    image: &Image,
    seeds: &[Vec<i64>],
    config: &FuzzConfig,
) -> Result<FuzzOutcome, HardenError> {
    let prof = instrument_profile(image)?;
    let mut rng = Rng64::new(config.seed);
    let mut profile: HashMap<u64, ProfileStats> = HashMap::new();
    let mut corpus: Vec<Vec<i64>> = seeds.to_vec();
    if corpus.is_empty() {
        corpus.push(Vec::new());
    }
    let mut executions = 0usize;

    let run_and_merge =
        |input: &Vec<i64>, profile: &mut HashMap<u64, ProfileStats>| -> (bool, usize) {
            // Safety of the expect: documented under `# Panics`.
            #[allow(clippy::expect_used)]
            let out = run(
                &prof.image,
                &RunSpec::new(input, ErrorMode::Log, config.max_steps),
            )
            .expect("profiling binary loads");
            let mut new_sites = 0usize;
            for (site, stats) in out.profile {
                let e = profile.entry(site).or_insert_with(|| {
                    new_sites += 1;
                    ProfileStats::default()
                });
                e.passes += stats.passes;
                e.fails += stats.fails;
            }
            (matches!(out.result, RunResult::Exited(_)), new_sites)
        };

    // Seed pass.
    for seed in corpus.clone() {
        run_and_merge(&seed, &mut profile);
        executions += 1;
    }

    // Mutation loop.
    while executions < config.iterations {
        let parent = corpus[rng.below_usize(corpus.len())].clone();
        let child = mutate(&mut rng, &parent);
        let (exited, new_sites) = run_and_merge(&child, &mut profile);
        executions += 1;
        if exited && new_sites > 0 {
            corpus.push(child);
        }
    }

    Ok(FuzzOutcome {
        profile,
        corpus,
        executions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::collect_allowlist;

    /// A program whose second mode only runs for inputs the initial seed
    /// does not contain -- the situation AFL-boosted profiling fixes.
    const GATED: &str = "
fn cold(a) {
    var s = 0;
    for (var i = 0; i < 8; i = i + 1) { s = s + a[i]; }
    return s;
}
fn main() {
    var a = malloc(8 * 8);
    for (var i = 0; i < 8; i = i + 1) { a[i] = i; }
    var v = input();
    var s = a[v & 7];
    if (v == 64) { s = s + cold(a); }
    print(s);
    return 0;
}";

    #[test]
    fn fuzzing_extends_coverage_beyond_seed() {
        let image = redfat_minic::compile(GATED).unwrap();

        // Single-seed profiling misses the gated path.
        let single = fuzz_profile(
            &image,
            &[vec![3]],
            &FuzzConfig {
                iterations: 1,
                ..FuzzConfig::default()
            },
        )
        .unwrap();
        let base_sites = single.profile.len();

        // The campaign discovers v == 64 via interesting-value mutation.
        let fuzzed = fuzz_profile(
            &image,
            &[vec![3]],
            &FuzzConfig {
                iterations: 300,
                ..FuzzConfig::default()
            },
        )
        .unwrap();
        assert!(
            fuzzed.profile.len() > base_sites,
            "fuzzing found no new sites ({base_sites})"
        );
        assert!(fuzzed.corpus.len() > 1, "corpus grew");

        // The resulting allow-list covers the cold function's accesses.
        let allow = collect_allowlist(&fuzzed.profile);
        assert!(allow.len() > collect_allowlist(&single.profile).len());
    }

    #[test]
    fn fuzzing_is_deterministic() {
        let image = redfat_minic::compile(GATED).unwrap();
        let cfg = FuzzConfig {
            iterations: 50,
            ..FuzzConfig::default()
        };
        let a = fuzz_profile(&image, &[vec![1]], &cfg).unwrap();
        let b = fuzz_profile(&image, &[vec![1]], &cfg).unwrap();
        assert_eq!(a.executions, b.executions);
        assert_eq!(a.corpus, b.corpus);
        // Full per-site counter equality, not just the site count: the
        // same seed must reproduce the identical merged profile.
        assert_eq!(a.profile, b.profile);
        assert_eq!(collect_allowlist(&a.profile), collect_allowlist(&b.profile));
    }

    #[test]
    fn fuzzed_allowlist_is_subset_of_exhaustive() {
        // GATED's behavior depends only on (v & 7, v == 64), so a sweep
        // of 0..=64 exercises every reachable site; a fuzzing campaign
        // can only visit a subset of those behaviors and must therefore
        // produce a subset allow-list (never allow a site the exhaustive
        // profile would withhold).
        let image = redfat_minic::compile(GATED).unwrap();
        let prof = instrument_profile(&image).unwrap();
        let mut exhaustive: HashMap<u64, ProfileStats> = HashMap::new();
        for v in 0..=64 {
            let out = run(&prof.image, &RunSpec::new(&[v], ErrorMode::Log, 50_000_000)).unwrap();
            assert!(matches!(out.result, RunResult::Exited(_)));
            for (site, stats) in out.profile {
                let e = exhaustive.entry(site).or_default();
                e.passes += stats.passes;
                e.fails += stats.fails;
            }
        }
        let exhaustive_allow = collect_allowlist(&exhaustive);

        let fuzzed = fuzz_profile(&image, &[vec![3]], &FuzzConfig::default()).unwrap();
        let fuzz_allow = collect_allowlist(&fuzzed.profile);
        assert!(!fuzz_allow.is_empty(), "campaign reached some sites");
        for site in fuzz_allow.iter() {
            assert!(
                exhaustive_allow.contains(site),
                "fuzzed allow-list site {site:#x} missing from exhaustive profile"
            );
        }
    }
}
