//! Request scheduling: dispatch policies and multi-chip sharding.
//!
//! The scheduler decides two things: *where* an arriving request goes (which
//! simulated chip, constrained by which chips host the requested model) and
//! *when* a queued request is issued into its chip's layer pipeline (FIFO
//! immediately, or held back by a batching window).

use crate::error::SimError;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// How queued requests are dispatched into a chip's pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Policy {
    /// Issue each request as soon as the pipeline can accept it; route
    /// round-robin across the replicas hosting the model.
    Fifo,
    /// Collect requests into batches: a batch is dispatched when it reaches
    /// `max_batch` requests or `window_s` seconds after its first request,
    /// whichever comes first. Routing is round-robin. Batching trades queueing
    /// delay for back-to-back pipeline occupancy — with TIMELY's layer
    /// pipeline a batch streams through at one initiation interval per
    /// request with a single pipeline fill.
    Batched {
        /// Maximum time the first request of a batch waits, in seconds.
        window_s: f64,
        /// Dispatch as soon as this many requests are pending.
        max_batch: usize,
    },
    /// Issue immediately like FIFO, but route each request to the hosting
    /// replica with the fewest outstanding requests — queued, plus one
    /// while its pipeline slot is occupied (join-the-shortest-queue). Ties
    /// go to the lowest chip index.
    ///
    /// On a replicated fleet of more than one chip the pick costs
    /// O(log chips) per arrival: a tournament tree keeps the fleet's
    /// minimum, and the busy bit expires through a heap of pipeline-free
    /// times drained before each pick (see `JsqIndex`). When each model has
    /// a single host the request goes straight to it.
    ShortestQueue,
}

impl Policy {
    /// Validates policy parameters structurally.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidPolicy`] for a negative or non-finite
    /// batching window or a zero batch size.
    pub fn check(&self) -> Result<(), SimError> {
        if let Policy::Batched {
            window_s,
            max_batch,
        } = *self
        {
            if !(window_s >= 0.0 && window_s.is_finite()) {
                return Err(SimError::InvalidPolicy(
                    "batch window must be >= 0".to_string(),
                ));
            }
            if max_batch == 0 {
                return Err(SimError::InvalidPolicy("max_batch must be > 0".to_string()));
            }
        }
        Ok(())
    }

    /// A short human-readable label for report tables.
    pub fn label(&self) -> String {
        match self {
            Policy::Fifo => "fifo".to_string(),
            Policy::Batched { max_batch, .. } => format!("batch{max_batch}"),
            Policy::ShortestQueue => "shortest-q".to_string(),
        }
    }
}

/// How models are placed across the fleet of simulated chips.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Sharding {
    /// Every chip holds every model's weights; any chip can serve any
    /// request. Maximizes routing freedom at the cost of per-chip crossbar
    /// capacity.
    Replicate,
    /// Model `m` lives only on chip `m mod chips`; requests for a model must
    /// go to its home chip. Minimizes per-chip weight footprint (a model-zoo
    /// deployment where the zoo does not fit on one chip).
    Partition,
}

/// The placement of models onto chips implied by a [`Sharding`] strategy.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetLayout {
    /// `hosts[m]` lists the chips (by index) that hold model `m`, ascending.
    hosts: Vec<Vec<usize>>,
    chips: usize,
}

impl FleetLayout {
    /// Builds the layout for `models` models over `chips` chips.
    ///
    /// # Panics
    ///
    /// Panics if `models` or `chips` is zero.
    pub fn build(models: usize, chips: usize, sharding: Sharding) -> Self {
        assert!(models > 0, "fleet needs at least one model");
        assert!(chips > 0, "fleet needs at least one chip");
        let hosts = match sharding {
            Sharding::Replicate => (0..models).map(|_| (0..chips).collect()).collect(),
            Sharding::Partition => (0..models).map(|m| vec![m % chips]).collect(),
        };
        Self { hosts, chips }
    }

    /// The chips hosting model `m`.
    pub fn hosts(&self, model: usize) -> &[usize] {
        &self.hosts[model]
    }

    /// Number of chips in the fleet.
    pub fn chips(&self) -> usize {
        self.chips
    }

    /// The models hosted on chip `c` (used to size per-chip weight budgets).
    pub fn models_on(&self, chip: usize) -> Vec<usize> {
        (0..self.hosts.len())
            .filter(|&m| self.hosts[m].contains(&chip))
            .collect()
    }
}

/// Round-robin routing state: picks a hosting chip for each arriving
/// request of FIFO and batched runs, and of join-the-shortest-queue runs
/// whose models each have one host (there the rotation always lands on
/// that host). Join-the-shortest-queue over a replicated fleet routes
/// through [`JsqIndex`] instead.
#[derive(Debug, Clone)]
pub(crate) struct Router {
    /// Per-model round-robin cursor.
    cursors: Vec<usize>,
}

impl Router {
    pub(crate) fn new(models: usize) -> Self {
        Self {
            cursors: vec![0; models],
        }
    }

    /// Chooses the destination chip for a request for `model`: the next
    /// host in the model's rotation.
    pub(crate) fn route(&mut self, model: usize, layout: &FleetLayout) -> usize {
        let hosts = layout.hosts(model);
        debug_assert!(!hosts.is_empty());
        let cursor = &mut self.cursors[model];
        let chip = hosts[*cursor % hosts.len()];
        *cursor = (*cursor + 1) % hosts.len();
        chip
    }
}

/// Join-the-shortest-queue index over a fleet whose chips all host every
/// model.
///
/// A chip's depth is its queued requests plus one while its pipeline slot
/// is occupied (`free_at_s > now`), so a busy chip ranks behind an idle one
/// even when both queues are empty. A tournament tree over the chips holds
/// `(depth, chip)` at its leaves and the lexicographic minimum of its
/// children at every inner node: the root is the pick, ties going to the
/// lowest chip index. A depth change updates one leaf-to-root path, so
/// routing costs O(log chips) instead of a scan over the fleet.
///
/// The busy bit clears when simulated time passes `free_at_s`, and no event
/// marks that moment. Every issue therefore pushes `(free_at_s, chip)` onto
/// a min-heap, and [`JsqIndex::shortest`] first drains every entry with
/// `free_at_s <= now`, recomputing that chip's leaf from its current state.
/// An exact tie `free_at_s == now` counts as free. A later issue on the same
/// chip leaves its earlier entry stale; draining it just recomputes the leaf
/// from the newer state, so stale entries are harmless.
#[derive(Debug, Clone)]
pub(crate) struct JsqIndex {
    /// Requests queued at each chip.
    queued: Vec<usize>,
    /// When each chip's pipeline slot frees up, in simulated seconds.
    free_at_s: Vec<f64>,
    /// Implicit binary tree of packed `(depth, chip)` keys: the root at 1,
    /// node `n`'s children at `2n` and `2n + 1`, chip `c`'s leaf at
    /// `leaves + c`. Padding leaves past the fleet hold `u64::MAX` and never
    /// win.
    tree: Vec<u64>,
    /// Leaf count: the fleet size rounded up to a power of two.
    leaves: usize,
    /// Pending busy-bit expiries, earliest first.
    expiries: BinaryHeap<Expiry>,
}

impl JsqIndex {
    /// An index over `chips` idle chips with empty queues.
    pub(crate) fn new(chips: usize) -> Self {
        let leaves = chips.next_power_of_two();
        let mut tree = vec![u64::MAX; 2 * leaves];
        for chip in 0..chips {
            tree[leaves + chip] = pack(0, chip);
        }
        for node in (1..leaves).rev() {
            tree[node] = tree[2 * node].min(tree[2 * node + 1]);
        }
        Self {
            queued: vec![0; chips],
            free_at_s: vec![0.0; chips],
            tree,
            leaves,
            expiries: BinaryHeap::new(),
        }
    }

    /// A request joined `chip`'s queue at `now_s`.
    pub(crate) fn enqueue(&mut self, chip: usize, now_s: f64) {
        self.queued[chip] += 1;
        self.update(chip, now_s);
    }

    /// `chip` issued its oldest queued request at `now_s`; its pipeline slot
    /// stays occupied until `free_at_s`.
    pub(crate) fn issue(&mut self, chip: usize, now_s: f64, free_at_s: f64) {
        self.queued[chip] = self.queued[chip].saturating_sub(1);
        self.free_at_s[chip] = free_at_s;
        self.expiries.push(Expiry {
            at_s: free_at_s,
            chip,
        });
        self.update(chip, now_s);
    }

    /// The chip with the fewest outstanding requests at `now_s`, ties going
    /// to the lowest index. `now_s` must not decrease between calls.
    // lint:hot busy-bit expiry drain: runs before every routing decision
    pub(crate) fn shortest(&mut self, now_s: f64) -> usize {
        while let Some(&Expiry { at_s, chip }) = self.expiries.peek() {
            if at_s > now_s {
                break;
            }
            self.expiries.pop();
            self.update(chip, now_s);
        }
        (self.tree[1] & u64::from(u32::MAX)) as usize
    }

    /// Recomputes `chip`'s leaf at `now_s` and its path to the root.
    // lint:hot tournament-tree update: one leaf-to-root path per depth change
    fn update(&mut self, chip: usize, now_s: f64) {
        let depth = self.queued[chip] + usize::from(self.free_at_s[chip] > now_s);
        let mut node = self.leaves + chip;
        self.tree[node] = pack(depth, chip);
        while node > 1 {
            node /= 2;
            let winner = self.tree[2 * node].min(self.tree[2 * node + 1]);
            // An unchanged inner node leaves every ancestor unchanged too.
            if self.tree[node] == winner {
                break;
            }
            self.tree[node] = winner;
        }
    }
}

/// Packs a `(depth, chip)` key into one integer with the same
/// lexicographic order, so the tree compares keys branch-free. Both halves
/// fit in 32 bits: a fleet of 2^32 chips, or a chip holding 2^32 queued
/// requests, would need hundreds of gigabytes of simulator state. The depth
/// saturates rather than wraps.
fn pack(depth: usize, chip: usize) -> u64 {
    (depth.min(u32::MAX as usize) as u64) << 32 | chip as u64
}

/// A pending busy-bit expiry of [`JsqIndex`], ordered by `at_s` alone so
/// that [`BinaryHeap`] (a max-heap) pops the earliest first. Equal times may
/// drain in any order: each drained chip is recomputed from its own state.
#[derive(Debug, Clone, Copy)]
struct Expiry {
    at_s: f64,
    chip: usize,
}

impl Ord for Expiry {
    fn cmp(&self, other: &Self) -> Ordering {
        other.at_s.total_cmp(&self.at_s)
    }
}

impl PartialOrd for Expiry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Expiry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Expiry {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn replicate_puts_every_model_everywhere() {
        let layout = FleetLayout::build(3, 4, Sharding::Replicate);
        for m in 0..3 {
            assert_eq!(layout.hosts(m), &[0, 1, 2, 3]);
        }
        assert_eq!(layout.models_on(2), vec![0, 1, 2]);
    }

    #[test]
    fn partition_assigns_each_model_one_home() {
        let layout = FleetLayout::build(5, 2, Sharding::Partition);
        assert_eq!(layout.hosts(0), &[0]);
        assert_eq!(layout.hosts(1), &[1]);
        assert_eq!(layout.hosts(4), &[0]);
        assert_eq!(layout.models_on(0), vec![0, 2, 4]);
        assert_eq!(layout.models_on(1), vec![1, 3]);
    }

    #[test]
    fn round_robin_cycles_through_hosts() {
        let layout = FleetLayout::build(1, 3, Sharding::Replicate);
        let mut router = Router::new(1);
        let picks: Vec<usize> = (0..6).map(|_| router.route(0, &layout)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn shortest_queue_picks_least_loaded_host() {
        let mut index = JsqIndex::new(3);
        for (chip, depth) in [(0, 5), (1, 1), (2, 3)] {
            for _ in 0..depth {
                index.enqueue(chip, 0.0);
            }
        }
        assert_eq!(index.shortest(0.0), 1);
        // Ties go to the lowest index.
        index.enqueue(1, 0.0);
        index.enqueue(1, 0.0);
        assert_eq!(index.shortest(0.0), 1);
        index.issue(0, 0.0, 0.0);
        index.issue(0, 0.0, 0.0);
        assert_eq!(index.shortest(0.0), 0);
        // An occupied pipeline slot counts as one outstanding request until
        // simulated time reaches its free time; reaching it exactly frees it.
        index.issue(0, 0.0, 1.0);
        index.issue(1, 0.0, 1.0);
        index.issue(2, 0.0, 0.5);
        assert_eq!(index.shortest(0.25), 0);
        assert_eq!(index.shortest(0.5), 2);
        index.enqueue(2, 0.5);
        assert_eq!(index.shortest(0.75), 0);
        index.enqueue(0, 0.75);
        assert_eq!(index.shortest(1.0), 1);
    }

    /// The linear scan the index replaces: the shallowest chip by
    /// `(queued + busy, chip)`.
    fn oracle_shortest(queued: &[usize], free_at_s: &[f64], now_s: f64) -> usize {
        (0..queued.len())
            .min_by_key(|&c| (queued[c] + usize::from(free_at_s[c] > now_s), c))
            .unwrap_or(usize::MAX)
    }

    proptest! {
        #[test]
        fn jsq_index_matches_the_linear_scan(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            for chips in [1usize, 2, 3, 64, 257] {
                let mut index = JsqIndex::new(chips);
                let mut queued = vec![0usize; chips];
                let mut free_at_s = vec![0.0f64; chips];
                let mut now_s = 0.0f64;
                // Coverage of the edges the index must get right.
                let (mut key_ties, mut exact_expiries, mut stale) = (0u32, 0u32, 0u32);
                for _ in 0..600 {
                    // Concentrate work on a few chips so depths differ, and
                    // keep times on a quarter grid so an expiry can equal
                    // `now` exactly.
                    let chip = if rng.gen_range(0..10u32) < 7 {
                        rng.gen_range(0..chips.min(4))
                    } else {
                        rng.gen_range(0..chips)
                    };
                    match rng.gen_range(0..4u32) {
                        0 => {
                            queued[chip] += 1;
                            index.enqueue(chip, now_s);
                        }
                        1 if queued[chip] > 0 => {
                            if free_at_s[chip] > now_s {
                                stale += 1;
                            }
                            let free = now_s + 0.25 * f64::from(rng.gen_range(0..5u32));
                            queued[chip] -= 1;
                            free_at_s[chip] = free;
                            index.issue(chip, now_s, free);
                        }
                        2 => now_s += 0.25 * f64::from(rng.gen_range(0..3u32)),
                        _ => {}
                    }
                    let expected = oracle_shortest(&queued, &free_at_s, now_s);
                    let key = |c: usize| queued[c] + usize::from(free_at_s[c] > now_s);
                    if (expected + 1..chips).any(|c| key(c) == key(expected)) {
                        key_ties += 1;
                    }
                    if free_at_s.iter().any(|&f| f == now_s && f > 0.0) {
                        exact_expiries += 1;
                    }
                    prop_assert_eq!(index.shortest(now_s), expected);
                }
                if chips > 1 {
                    prop_assert!(key_ties > 0, "no equal keys at {} chips", chips);
                }
                prop_assert!(exact_expiries > 0, "no exact expiry at {} chips", chips);
                prop_assert!(stale > 0, "no stale heap entry at {} chips", chips);
            }
        }
    }

    #[test]
    fn policy_labels_are_stable() {
        assert_eq!(Policy::Fifo.label(), "fifo");
        assert_eq!(
            Policy::Batched {
                window_s: 0.001,
                max_batch: 8
            }
            .label(),
            "batch8"
        );
        assert_eq!(Policy::ShortestQueue.label(), "shortest-q");
    }
}
