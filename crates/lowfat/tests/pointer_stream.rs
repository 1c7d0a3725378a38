//! Pins the heap's placement, bit for bit: a fixed seeded
//! malloc/calloc/realloc/free script runs through [`RedFatHeap`] under
//! each policy and two configurations, and a digest of every result
//! (returned pointer or error) must match the pinned value.
//!
//! The script reaches every placement path: fresh slots, reuse after the
//! quarantine drains, in-place and moving reallocs, zero-size objects,
//! window growth and OOM at a small subheap limit. Sizes run past 1 KiB
//! because only the power-of-two classes have room for the randomized
//! policy's non-zero allocation offsets.

use redfat_lowfat::{AllocError, AllocPolicyKind, LowFatConfig, RedFatHeap};
use redfat_vm::{Rng64, Vm};

/// Heap operations per run.
const OPS: u64 = 20_000;

/// FNV-1a over the little-endian bytes of each recorded word.
struct Digest(u64);

impl Digest {
    fn push(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn push_result(&mut self, r: Result<u64, AllocError>) {
        match r {
            Ok(p) => self.push(p),
            Err(AllocError::OutOfMemory) => self.push(u64::MAX - 1),
            Err(e) => panic!("unexpected {e}"),
        }
    }
}

fn size(r: &mut Rng64) -> u64 {
    match r.below(16) {
        0 => 0,
        1..=9 => r.range_u64(1, 241),
        10..=12 => r.range_u64(241, 1025),
        _ => r.range_u64(1025, 9000),
    }
}

/// Runs the script and returns the digest of every result it saw.
fn stream_digest(config: LowFatConfig) -> u64 {
    let mut r = Rng64::new(0x5712_EA11 ^ config.seed);
    let mut vm = Vm::new();
    let mut heap = RedFatHeap::new(config);
    heap.install(&mut vm);
    let mut live: Vec<u64> = Vec::new();
    let mut d = Digest(0xcbf2_9ce4_8422_2325);
    for _ in 0..OPS {
        match r.below(20) {
            0..=8 => {
                let res = heap.malloc(&mut vm, size(&mut r));
                d.push_result(res);
                live.extend(res.ok());
            }
            9..=10 => {
                let (count, elem) = (r.range_u64(1, 17), r.range_u64(1, 129));
                let res = heap.calloc(&mut vm, count, elem);
                d.push_result(res);
                live.extend(res.ok());
            }
            11..=12 if !live.is_empty() => {
                let i = r.below_usize(live.len());
                let res = heap.realloc(&mut vm, live[i], size(&mut r));
                d.push_result(res);
                if let Ok(q) = res {
                    live[i] = q;
                }
            }
            13..=19 if !live.is_empty() => {
                let p = live.swap_remove(r.below_usize(live.len()));
                heap.free(&mut vm, p).expect("live object frees");
                d.push(p);
            }
            _ => {}
        }
    }
    let s = heap.stats();
    for v in [s.allocs, s.frees, s.live, s.peak_live, s.bytes_requested] {
        d.push(v);
    }
    d.0
}

#[test]
fn pointer_streams_are_pinned() {
    let configs = |policy| {
        [
            LowFatConfig {
                policy,
                ..LowFatConfig::default()
            },
            LowFatConfig {
                policy,
                seed: 7,
                subheap_limit: 1 << 20,
                quarantine: 4,
            },
        ]
    };
    let got: Vec<(AllocPolicyKind, u64)> = AllocPolicyKind::ALL
        .into_iter()
        .flat_map(|policy| configs(policy).map(|c| (policy, stream_digest(c))))
        .collect();
    let want = [
        (AllocPolicyKind::LowFat, 0x9671_53c3_2e18_75df),
        (AllocPolicyKind::LowFat, 0x11b5_18b8_0b82_22c2),
        (AllocPolicyKind::RandLowFat, 0x0942_4a77_e104_3ab9),
        (AllocPolicyKind::RandLowFat, 0xb7ed_00ec_9506_16a2),
    ];
    assert_eq!(got, want);
}
