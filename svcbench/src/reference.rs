//! A fixed reference kernel that uses only the standard library: its
//! run time tracks how fast the host is running at the moment, whatever
//! the code under test does.

use crate::probe::{nanos_between, splitmix64};
use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::Instant;

/// Runs the kernel once (about a millisecond on a 2-core Xeon VM) and
/// returns its wall time in nanoseconds. The mix mirrors the service's
/// own: ordered-map churn, a priority queue, short-lived vectors.
pub fn kernel_ns() -> u64 {
    let start = Instant::now();
    let mut map = BTreeMap::new();
    let mut heap = BinaryHeap::new();
    let mut x = 0x5eed_u64;
    let mut acc = 0u64;
    for i in 0..4_000u64 {
        x = splitmix64(x);
        map.insert(x % 2_048, i);
        if let Some(v) = map.remove(&(x.rotate_left(17) % 2_048)) {
            acc = acc.wrapping_add(v);
        }
        heap.push(x >> 40);
        if heap.len() > 256 {
            acc = acc.wrapping_add(heap.pop().unwrap_or(0));
        }
        if i % 64 == 0 {
            let mut v: Vec<u64> = (0..64).map(|k| splitmix64(x ^ k)).collect();
            v.sort_unstable();
            acc = acc.wrapping_add(v[7]);
        }
    }
    black_box(acc);
    nanos_between(start, Instant::now())
}

/// The kernel's median run time on the host the benchmark's bounds were
/// set on (a 2-core Xeon VM). Wall metrics are reported at this speed.
const NOMINAL_NS: f64 = 800_000.0;

/// The factor that scales a wall time measured alongside `runs` kernel
/// runs totalling `total_ns` to the nominal host speed.
pub fn speed_factor(total_ns: u64, runs: u64) -> f64 {
    if runs == 0 || total_ns == 0 {
        return 1.0;
    }
    NOMINAL_NS / (total_ns as f64 / runs as f64)
}
