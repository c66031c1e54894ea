//! The host-speed reference: a fixed discrete-event flood written here,
//! independent of the `amac` crates, that an untraced run times between
//! its repetitions.
//!
//! On a shared host, neighbours slow the memory system for seconds to
//! minutes at a time. The reference has the simulator's shape (a binary
//! heap of timed events, per-node hash sets of seen messages, a grid
//! adjacency list, a few MiB in all), so it is slowed about as much as the
//! workloads are, while no change to the program under test can move it.
//! [`host_speed`] turns its median time in a run into a factor that
//! `events_per_s` is divided by.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::hint::black_box;
use std::time::Instant;

/// Grid side of the reference flood.
const SIDE: usize = 100;

/// Messages the reference floods.
const MESSAGES: u32 = 8;

/// Events one reference flood processes; it is deterministic.
pub const EVENTS: u64 = 316_808;

/// Median time of one reference flood on the 2-vCPU reference VM (Intel
/// Xeon guest) while its neighbours were quiet: the time at which
/// [`host_speed`] reads 1.
pub const QUIET_S: f64 = 0.036;

/// Runs the reference flood once and returns its wall seconds and the
/// events it processed.
pub fn reference() -> (f64, u64) {
    let started = Instant::now();
    let n = SIDE * SIDE;
    let adjacency: Vec<Vec<u32>> = (0..n)
        .map(|i| {
            let (row, col) = (i / SIDE, i % SIDE);
            let mut near = Vec::with_capacity(4);
            if row > 0 {
                near.push((i - SIDE) as u32);
            }
            if row + 1 < SIDE {
                near.push((i + SIDE) as u32);
            }
            if col > 0 {
                near.push((i - 1) as u32);
            }
            if col + 1 < SIDE {
                near.push((i + 1) as u32);
            }
            near
        })
        .collect();
    let mut seen: Vec<HashSet<u32>> = vec![HashSet::new(); n];
    let mut queue = BinaryHeap::new();
    for message in 0..MESSAGES {
        let origin = (message as usize * 7919) % n;
        queue.push(Reverse((0u64, origin as u32, message)));
    }
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut events = 0u64;
    while let Some(Reverse((time, node, message))) = queue.pop() {
        events += 1;
        if !seen[node as usize].insert(message) {
            continue;
        }
        for &next in &adjacency[node as usize] {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            queue.push(Reverse((time + 1 + state % 32, next, message)));
        }
    }
    black_box(&seen);
    (started.elapsed().as_secs_f64(), events)
}

/// How fast the host ran the reference, from its median time in a run:
/// 1 on the quiet reference VM, below 1 when neighbours slowed it.
pub fn host_speed(median_reference_s: f64) -> f64 {
    QUIET_S / median_reference_s.max(1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_is_deterministic() {
        assert_eq!(reference().1, EVENTS);
        assert_eq!(reference().1, EVENTS);
    }
}
