//! The hold model of [`EventQueue`]: the classic way to time a
//! pending-event set in isolation. The queue is filled to a fixed depth;
//! each step pops the earliest event and schedules its successor a random
//! delay ahead, and a share of steps also cancels a recently scheduled
//! event and replaces it, so the depth stays put. The profile (depth,
//! delay spread, cancel share) is taken from a workload's own counters,
//! so the number predicts what a queue change would do to that workload.

use amac_sim::{Duration, EventId, EventQueue, SimRng, Time};
use std::hint::black_box;
use std::time::Instant;

/// The shape of one workload's event queue.
#[derive(Clone, Copy, Debug)]
pub struct HoldProfile {
    /// Pending events held in the queue.
    pub depth: usize,
    /// Delays are drawn uniformly from `0..=spread_ticks`.
    pub spread_ticks: u64,
    /// Share of steps that also cancel and replace a pending event.
    pub cancel_frac: f64,
}

/// Pre-drawn delays and cancel decisions, cycled so the timed loop spends
/// no time in the random number generator.
const DRAWS: usize = 1 << 14;

/// Recently scheduled events a cancel picks from.
const RECENT: usize = 64;

/// Mean nanoseconds per queue operation (`schedule`, `pop` or `cancel`)
/// over at least `ops` operations of the hold model.
pub fn ns_per_op(profile: HoldProfile, ops: u64, seed: u64) -> f64 {
    let mut rng = SimRng::seed(seed);
    let spread = profile.spread_ticks.max(1);
    let delays: Vec<Duration> = (0..DRAWS)
        .map(|_| Duration::from_ticks(rng.below(spread + 1)))
        .collect();
    let cancels: Vec<bool> = (0..DRAWS)
        .map(|_| rng.chance(profile.cancel_frac))
        .collect();
    let picks: Vec<usize> = (0..DRAWS)
        .map(|_| rng.below(RECENT as u64) as usize)
        .collect();

    let mut queue: EventQueue<u64> = EventQueue::new();
    let mut recent: Vec<EventId> = Vec::with_capacity(RECENT);
    for i in 0..profile.depth.max(1) {
        let id = queue.schedule(Time::from_ticks(rng.below(spread + 1)), i as u64);
        if recent.len() < RECENT {
            recent.push(id);
        }
    }

    let started = Instant::now();
    let mut done = 0u64;
    let mut step = 0usize;
    while done < ops {
        let slot = step % DRAWS;
        step += 1;
        let (_, event) = queue
            .pop()
            .expect("the hold model keeps the queue non-empty");
        let id = queue.schedule_after(delays[slot], black_box(event));
        let len = recent.len();
        recent[step % len] = id;
        done += 2;
        if cancels[slot] {
            let pick = picks[slot] % len;
            if queue.cancel(recent[pick]) {
                recent[pick] = queue.schedule_after(delays[(slot + 1) % DRAWS], event);
                done += 1;
            }
            done += 1;
        }
    }
    started.elapsed().as_nanos() as f64 / done as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hold_model_runs_with_and_without_cancels() {
        for cancel_frac in [0.0, 0.5] {
            let profile = HoldProfile {
                depth: 100,
                spread_ticks: 8,
                cancel_frac,
            };
            let ns = ns_per_op(profile, 10_000, 3);
            assert!(ns > 0.0 && ns.is_finite(), "{ns}");
        }
    }
}
