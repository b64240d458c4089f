//! Algorithm 1: shadow-queue hill climbing.
//!
//! ```text
//! if request ∈ shadowQueue(i) then
//!     queue(i).size = queue(i).size + credit
//!     chosenQueue  = pickRandom({queues} - {queue(i)})
//!     chosenQueue.size = chosenQueue.size - credit
//! end if
//! ```
//!
//! The frequency of hits in queue *i*'s shadow queue is proportional to
//! `f_i · h_i'(m_i)` — the marginal utility of giving queue *i* more memory —
//! so repeatedly transferring a small, fixed credit from a uniformly random
//! queue to the one whose shadow queue was hit equalises the (frequency-
//! weighted) gradients across queues, which is the optimality condition of
//! the allocation problem (paper §4.1).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The credit-accounting half of Cliffhanger: byte targets for a fixed set
/// of queues that always sum to the initial total.
///
/// Credits and floors are *per queue*: a queue whose items are giant (a
/// 16–64 KB slab class) wins at least one chunk's worth of bytes per shadow
/// hit — with the global 1–4 KB credit it would need dozens of wins before a
/// single item fits again, so random-loser picks drained it far faster than
/// hill climbing could refill it (the slow-convergence failure mode of the
/// sharded experiments). Likewise a per-queue floor of one chunk keeps a
/// grown class able to hold at least one resident item, the same reason
/// Memcached's slab rebalancer moves whole pages.
#[derive(Debug, Clone)]
pub struct HillClimber {
    targets: Vec<u64>,
    /// Per-queue credit: how many bytes queue `i` wins per shadow hit (and a
    /// donor gives up when `i` wins).
    credits: Vec<u64>,
    /// Per-queue floor below which queue `i` never donates.
    floors: Vec<u64>,
    rng: StdRng,
    /// Number of credit transfers performed (diagnostics).
    transfers: u64,
}

/// The outcome of one shadow hit: which queue gained and which lost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Transfer {
    /// Queue index that received the credit.
    pub winner: usize,
    /// Queue index the credit was taken from.
    pub loser: usize,
    /// Bytes moved.
    pub bytes: u64,
}

impl HillClimber {
    /// Creates a climber with the given initial byte targets.
    ///
    /// `min_bytes` is the floor below which no queue is shrunk — the paper
    /// keeps every queue functional so its shadow queue can still signal
    /// that it wants memory back.
    pub fn new(initial_targets: Vec<u64>, credit_bytes: u64, min_bytes: u64, seed: u64) -> Self {
        assert!(credit_bytes > 0, "credit must be positive");
        let n = initial_targets.len();
        HillClimber {
            targets: initial_targets,
            credits: vec![credit_bytes; n],
            floors: vec![min_bytes; n],
            rng: StdRng::seed_from_u64(seed),
            transfers: 0,
        }
    }

    /// Splits `total_bytes` evenly across `queues` queues and builds a
    /// climber over that initial allocation.
    pub fn even_split(
        queues: usize,
        total_bytes: u64,
        credit_bytes: u64,
        min_bytes: u64,
        seed: u64,
    ) -> Self {
        assert!(queues > 0, "at least one queue is required");
        let share = total_bytes / queues as u64;
        let mut targets = vec![share; queues];
        // Hand any rounding remainder to the first queue so the sum is exact.
        targets[0] += total_bytes - share * queues as u64;
        Self::new(targets, credit_bytes, min_bytes, seed)
    }

    /// Handles a hit in queue `winner`'s shadow queue: moves one credit from
    /// a uniformly random other queue to `winner`. Returns the transfer, or
    /// `None` if no other queue can give up a credit without falling below
    /// the floor (in which case nothing changes, conserving the total).
    pub fn on_shadow_hit(&mut self, winner: usize) -> Option<Transfer> {
        let n = self.targets.len();
        if n < 2 || winner >= n {
            return None;
        }
        // The amount moved is the *winner's* credit: a queue of giant items
        // must win at least one chunk per hit or it can never re-admit.
        let credit = self.credits[winner];
        // Pick a uniformly random queue other than the winner, as in the
        // paper; if it cannot afford the credit, fall back to any queue that
        // can (still unbiased among affordable queues).
        let candidate = {
            let r = self.rng.gen_range(0..n - 1);
            if r >= winner {
                r + 1
            } else {
                r
            }
        };
        let (targets, floors) = (&self.targets, &self.floors);
        let affordable = |i: usize| targets[i] >= credit && targets[i] - credit >= floors[i];
        let loser = if affordable(candidate) {
            candidate
        } else {
            // The k-th affordable queue, counted twice rather than collected.
            let mut options = (0..n).filter(|&i| i != winner && affordable(i));
            let count = options.clone().count();
            if count == 0 {
                return None;
            }
            let k = self.rng.gen_range(0..count);
            options.nth(k).expect("k < count")
        };
        self.targets[winner] += credit;
        self.targets[loser] -= credit;
        self.transfers += 1;
        Some(Transfer {
            winner,
            loser,
            bytes: credit,
        })
    }

    /// Current byte targets.
    pub fn targets(&self) -> &[u64] {
        &self.targets
    }

    /// Target of one queue.
    pub fn target(&self, idx: usize) -> u64 {
        self.targets[idx]
    }

    /// Sum of all targets (invariant: never changes).
    pub fn total(&self) -> u64 {
        self.targets.iter().sum()
    }

    /// Number of queues managed.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// Whether the climber manages no queues.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// Number of credit transfers performed so far.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// Overrides the target of one queue (used when composing with an outer
    /// allocator, e.g. cross-application reassignment).
    pub fn set_target(&mut self, idx: usize, bytes: u64) {
        self.targets[idx] = bytes;
    }

    /// The credit queue `idx` wins per shadow hit.
    pub fn queue_credit(&self, idx: usize) -> u64 {
        self.credits[idx]
    }

    /// Overrides one queue's per-hit credit (e.g. one chunk for giant slab
    /// classes). Must be positive.
    pub fn set_queue_credit(&mut self, idx: usize, bytes: u64) {
        assert!(bytes > 0, "credit must be positive");
        self.credits[idx] = bytes;
    }

    /// The floor below which queue `idx` never donates.
    pub fn queue_floor(&self, idx: usize) -> u64 {
        self.floors[idx]
    }

    /// Overrides one queue's donation floor.
    pub fn set_queue_floor(&mut self, idx: usize, bytes: u64) {
        self.floors[idx] = bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn credits_move_from_random_loser_to_winner() {
        let mut hc = HillClimber::new(vec![1_000, 1_000, 1_000], 100, 0, 42);
        let t = hc.on_shadow_hit(0).expect("transfer must happen");
        assert_eq!(t.winner, 0);
        assert_ne!(t.loser, 0);
        assert_eq!(hc.target(0), 1_100);
        assert_eq!(hc.total(), 3_000);
        assert_eq!(hc.transfers(), 1);
    }

    #[test]
    fn total_memory_is_conserved() {
        let mut hc = HillClimber::even_split(8, 1 << 20, 4 << 10, 0, 7);
        let total = hc.total();
        assert_eq!(total, 1 << 20);
        for i in 0..10_000 {
            hc.on_shadow_hit(i % 8);
        }
        assert_eq!(hc.total(), total);
    }

    #[test]
    fn floor_is_respected() {
        let mut hc = HillClimber::new(vec![500, 500], 100, 400, 3);
        // Queue 1 can only give up one credit before hitting the floor.
        assert!(hc.on_shadow_hit(0).is_some());
        assert_eq!(hc.target(1), 400);
        assert!(
            hc.on_shadow_hit(0).is_none(),
            "no queue can afford a credit"
        );
        assert_eq!(hc.target(0), 600);
        assert_eq!(hc.total(), 1_000);
    }

    #[test]
    fn persistent_demand_shifts_memory_towards_the_hot_queue() {
        // Queue 0's shadow queue is hit 9 times as often as queue 1's; in
        // equilibrium queue 0 should hold most of the memory.
        let mut hc = HillClimber::even_split(2, 1 << 20, 4 << 10, 64 << 10, 11);
        for round in 0..5_000 {
            hc.on_shadow_hit(0);
            if round % 10 == 0 {
                hc.on_shadow_hit(1);
            }
        }
        assert!(
            hc.target(0) > 3 * hc.target(1),
            "hot queue should dominate: {:?}",
            hc.targets()
        );
        assert_eq!(hc.total(), 1 << 20);
        assert!(hc.target(1) >= 64 << 10, "floor must hold");
    }

    #[test]
    fn equal_demand_keeps_allocation_roughly_even() {
        // Under equal demand the allocation performs a zero-drift random
        // walk, so we only require that no queue collapses or takes over.
        let mut hc = HillClimber::even_split(4, 4 << 20, 4 << 10, 0, 5);
        for i in 0..40_000u64 {
            hc.on_shadow_hit((i % 4) as usize);
        }
        let mean = (4 << 20) as f64 / 4.0;
        for &t in hc.targets() {
            assert!(
                (t as f64) > 0.3 * mean && (t as f64) < 2.0 * mean,
                "allocation drifted too far from even: {:?}",
                hc.targets()
            );
        }
        assert_eq!(hc.total(), 4 << 20);
    }

    #[test]
    fn single_queue_and_out_of_range_are_noops() {
        let mut hc = HillClimber::new(vec![1_000], 100, 0, 1);
        assert!(hc.on_shadow_hit(0).is_none());
        let mut hc = HillClimber::new(vec![1_000, 1_000], 100, 0, 1);
        assert!(hc.on_shadow_hit(5).is_none());
        assert_eq!(hc.total(), 2_000);
    }

    #[test]
    fn even_split_accounts_for_rounding() {
        let hc = HillClimber::even_split(3, 1_000_001, 100, 0, 1);
        assert_eq!(hc.total(), 1_000_001);
        assert_eq!(hc.len(), 3);
    }

    #[test]
    #[should_panic(expected = "credit must be positive")]
    fn zero_credit_rejected() {
        let _ = HillClimber::new(vec![100], 0, 0, 1);
    }

    #[test]
    fn per_queue_credit_moves_a_full_chunk_per_win() {
        // Queue 1 models a giant slab class: its credit is one 64 KB chunk
        // while everyone else moves 1 KB at a time.
        let mut hc = HillClimber::new(vec![512 << 10, 16 << 10, 512 << 10], 1 << 10, 0, 9);
        hc.set_queue_credit(1, 64 << 10);
        assert_eq!(hc.queue_credit(1), 64 << 10);
        let t = hc.on_shadow_hit(1).expect("donors can afford a chunk");
        assert_eq!(t.winner, 1);
        assert_eq!(t.bytes, 64 << 10, "one win must move one full chunk");
        assert_eq!(hc.target(1), (16 << 10) + (64 << 10));
        assert_eq!(hc.total(), (512 << 10) + (16 << 10) + (512 << 10));
        // Other queues still move their own (small) credit.
        let t = hc.on_shadow_hit(0).unwrap();
        assert_eq!(t.bytes, 1 << 10);
    }

    #[test]
    fn per_queue_floor_pins_the_protected_queue() {
        let mut hc = HillClimber::new(vec![100 << 10, 64 << 10], 4 << 10, 0, 3);
        // Queue 1 holds exactly one 64 KB chunk; its floor protects it.
        hc.set_queue_floor(1, 64 << 10);
        assert_eq!(hc.queue_floor(1), 64 << 10);
        for _ in 0..100 {
            hc.on_shadow_hit(0);
        }
        assert_eq!(
            hc.target(1),
            64 << 10,
            "the floored queue must never donate below one chunk"
        );
        assert_eq!(hc.total(), (100 << 10) + (64 << 10));
    }

    #[test]
    fn no_transfer_when_no_donor_affords_the_chunk_credit() {
        let mut hc = HillClimber::new(vec![8 << 10, 4 << 10, 8 << 10], 1 << 10, 0, 5);
        hc.set_queue_credit(1, 64 << 10);
        assert!(
            hc.on_shadow_hit(1).is_none(),
            "nobody can donate a 64 KB chunk; totals must be conserved"
        );
        assert_eq!(hc.total(), 20 << 10);
    }

    /// When the random candidate cannot pay, the loser is drawn among the
    /// queues that can, each as often as the others.
    #[test]
    fn an_unaffordable_candidate_falls_back_to_any_affordable_queue() {
        let mut seen = [0u32; 6];
        for seed in 0..1_000 {
            // Queues 1 and 5 can give a credit; the candidate is one of the
            // three that cannot three times in five.
            let targets = vec![0, 1_000, 100, 100, 100, 1_000];
            let mut hc = HillClimber::new(targets, 100, 50, seed);
            if let Some(t) = hc.on_shadow_hit(0) {
                seen[t.loser] += 1;
            }
        }
        assert_eq!(seen[1] + seen[5], 1_000, "{seen:?}");
        assert!((400..600).contains(&seen[1]), "{seen:?}");
    }
}
