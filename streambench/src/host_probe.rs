//! Host memory-latency probe.
//!
//! The benchmark's host clock runs on a shared machine whose memory
//! system slows down and speeds up with other tenants' load, by up to
//! 2× over minutes. The probe times a fixed chain of dependent loads
//! through a 64 MiB buffer the benchmark owns. Host time divided by
//! the probe's time per load ("hop") measures program cost in units
//! that slow down with the machine, so most of that drift cancels.
//! The probe's code and buffer never change with the program.

use std::time::Instant;

/// Buffer entries: 16 Mi `u32`, 64 MiB, well past the per-core L2.
const ENTRIES: usize = 16 << 20;
/// Dependent loads timed per measurement (~0.2 s).
const HOPS: u32 = 1 << 20;

pub struct MemProbe {
    /// `next[i]` is the entry after `i` on one cycle through all
    /// entries, so every load depends on the one before it.
    next: Vec<u32>,
}

impl MemProbe {
    /// Build the cycle (Sattolo's shuffle, fixed seed: the same buffer
    /// in every run).
    #[must_use]
    pub fn new() -> MemProbe {
        let mut next: Vec<u32> = (0..ENTRIES as u32).collect();
        let mut x: u64 = 0x5EED;
        for i in (1..ENTRIES).rev() {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            next.swap(i, (z % i as u64) as usize);
        }
        MemProbe { next }
    }

    /// Host ns per dependent load. One sequential pass first brings
    /// the buffer back in, so the time does not depend on how much of
    /// it the simulation before evicted.
    #[must_use]
    pub fn ns_per_hop(&self) -> f64 {
        let warm = self.next.iter().fold(0u32, |a, &v| a.wrapping_add(v));
        std::hint::black_box(warm);
        let t = Instant::now();
        let mut i = 0u32;
        for _ in 0..HOPS {
            i = self.next[i as usize];
        }
        std::hint::black_box(i);
        t.elapsed().as_nanos() as f64 / f64::from(HOPS)
    }
}

impl Default for MemProbe {
    fn default() -> MemProbe {
        MemProbe::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_chain_is_one_cycle_through_every_entry() {
        let p = MemProbe::new();
        let mut i = p.next[0];
        let mut steps = 1;
        while i != 0 {
            i = p.next[i as usize];
            steps += 1;
        }
        assert_eq!(steps, ENTRIES);
        assert!(p.ns_per_hop() > 0.0);
    }
}
