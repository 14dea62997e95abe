//! A host-speed probe that shares no code with the simulator.
//!
//! A shared host's speed can change by ±15% over minutes as other tenants
//! come and go, which swamps the differences the benchmark must resolve.
//! So every timed call (a replay, a set-up) is preceded by one short pass
//! of a fixed compute probe, and the call's host time is multiplied by
//! `REFERENCE_PROBE_S / probe time`: host seconds at the speed the host has
//! when one probe pass takes the reference time. The probe does the kinds
//! of work the simulator's hot path does (map lookups, short vector scans,
//! random draws through `ln` and `exp`) on data that stays in cache and
//! without allocating, so it follows the host's compute speed without
//! depending on heap state. It calls no code of the repository, so a
//! change to the simulator never moves it. In four back-to-back runs of
//! one input it cut the spread of the replay rate from about ±12% to
//! about ±1.5%.

use crate::clock;
use std::collections::BTreeMap;
use std::hint::black_box;

/// Probe time that defines the reference speed: about what one pass
/// takes on the 2-core Xeon VM the workloads were sized on.
pub const REFERENCE_PROBE_S: f64 = 0.015;

/// The probe's fixed data: a pointer-chasing cycle, an ordered map and
/// a small pool to scan.
pub struct Probe {
    next: Vec<u32>,
    map: BTreeMap<u32, u64>,
    pool: Vec<(u64, u32, bool)>,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Probe {
    /// Builds the probe's data (about 1 MB).
    pub fn new() -> Probe {
        const SLOTS: usize = 1 << 16;
        let mut order: Vec<u32> = (0..SLOTS as u32).collect();
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for i in (1..SLOTS).rev() {
            order.swap(i, (xorshift(&mut x) % (i as u64 + 1)) as usize);
        }
        let mut next = vec![0_u32; SLOTS];
        for w in 0..SLOTS {
            next[order[w] as usize] = order[(w + 1) % SLOTS];
        }
        let map = (0..10_000_u32)
            .map(|k| (k.wrapping_mul(2_654_435_761), u64::from(k)))
            .collect();
        let pool = (0..48).map(|i| (i as u64, i, i % 3 == 0)).collect();
        Probe { next, map, pool }
    }

    /// The host's speed now relative to the reference (above 1 when
    /// faster): a host time measured next to this call, multiplied by it,
    /// gives seconds at the reference speed.
    pub fn speed(&self) -> f64 {
        REFERENCE_PROBE_S / self.seconds()
    }

    /// Seconds for one pass.
    fn seconds(&self) -> f64 {
        let t = clock::now();
        let mut at = 0_u32;
        let mut x = 7_u64;
        let mut acc = 0_u64;
        let mut f = 0.0_f64;
        for _ in 0..100_000 {
            at = self.next[(at as usize + (xorshift(&mut x) as usize & 63)) % self.next.len()];
            let k = ((xorshift(&mut x) % 10_000) as u32).wrapping_mul(2_654_435_761);
            acc += self.map.get(&k).copied().unwrap_or(0) + u64::from(at);
            acc += self
                .pool
                .iter()
                .filter(|c| c.2)
                .min_by_key(|c| c.0)
                .map_or(0, |c| u64::from(c.1));
            let u = (xorshift(&mut x) >> 11) as f64 / (1_u64 << 53) as f64;
            f += (u.max(1e-12).ln() * 0.5).exp();
        }
        black_box((acc, f));
        t.elapsed().as_secs_f64()
    }
}
