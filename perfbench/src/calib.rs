//! Host calibration kernel: a fixed hash loop plus a fixed pointer
//! chase, timed in the same process as every run. The figure is
//! recorded beside each run (never gated) so that numbers taken on two
//! hosts can be compared by the ratio of their calibration times.

use crate::stats::{median, mix};
use std::hint::black_box;
use std::time::Instant;

/// Hash-loop iterations (ALU and multiplier bound).
const HASH_ITERS: u64 = 8_000_000;
/// Pointer-chase table: 2 Mi entries of 4 bytes = 8 MiB, past any L2.
const CHASE_SLOTS: usize = 1 << 21;
/// Dependent loads per chase.
const CHASE_STEPS: usize = 2_000_000;

/// One calibration reading, in milliseconds.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// Median time of the hash loop.
    pub hash_ms: f64,
    /// Median time of the pointer chase.
    pub chase_ms: f64,
}

impl Calibration {
    /// Hash plus chase, the single figure two hosts compare.
    pub fn total_ms(&self) -> f64 {
        self.hash_ms + self.chase_ms
    }
}

fn hash_loop() -> u64 {
    let mut h = 0x1234_5678_9abc_def0u64;
    for i in 0..HASH_ITERS {
        h = mix(h ^ i);
    }
    h
}

/// A single cycle through every slot (Sattolo's shuffle with a fixed
/// generator), so the chase touches the whole table.
fn chase_table() -> Vec<u32> {
    let mut next: Vec<u32> = (0..CHASE_SLOTS as u32).collect();
    let mut s = 0x5eed_u64;
    for i in (1..CHASE_SLOTS).rev() {
        s = mix(s);
        let j = (s % i as u64) as usize;
        next.swap(i, j);
    }
    next
}

fn chase(table: &[u32]) -> u32 {
    let mut at = 0u32;
    for _ in 0..CHASE_STEPS {
        at = table[at as usize];
    }
    at
}

/// Runs each kernel three times and keeps the medians.
pub fn calibrate() -> Calibration {
    let table = chase_table();
    let mut hash = Vec::new();
    let mut walk = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        black_box(hash_loop());
        hash.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        black_box(chase(black_box(&table)));
        walk.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Calibration {
        hash_ms: median(&hash),
        chase_ms: median(&walk),
    }
}
