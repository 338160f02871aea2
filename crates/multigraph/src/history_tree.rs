//! The history-tree counting leader for `M(DBL)_2` executions: counting
//! by alternating *spine* sums instead of a `3^r`-column linear system.
//!
//! Di Luna–Viglietta 2022 ("Computing in Anonymous Dynamic Networks Is
//! Linear") showed that the leader's view of an anonymous dynamic
//! network organizes into a *history tree*: the root is the empty
//! history, and each node of depth `r` is one of the `3^r` ternary
//! histories a network node can have after `r` rounds. This repo
//! already materializes that tree — every delivery carries a
//! hash-consed [`HistoryId`] into a [`HistoryArena`], so tree nodes are
//! interned 4-byte handles, not allocations. What this module adds is a
//! *counting rule* on the tree that terminates by a linear-round
//! stabilization argument and never solves a linear system.
//!
//! # The spine-death counting rule
//!
//! Write `g_r(h)` for the number of network nodes whose history after
//! `r` rounds is `h`, and let `a_r(h)` / `b_r(h)` be the label-1 /
//! label-2 deliveries the leader receives in round `r` from nodes in
//! state `h`. A node in state `h` delivers on every label in its round-
//! `r` label set and moves to the child `h·S`; the nodes counted twice
//! by `a_r(h) + b_r(h)` are exactly the ones whose label set was
//! `{1, 2}`, i.e. the occupancy of the child `h·{1,2}`:
//!
//! ```text
//! g_r(h) = a_r(h) + b_r(h) − g_{r+1}(h·{1,2})
//! ```
//!
//! Apply this along the **spine** `T^r = ({1,2})^r` — the all-`{1,2}`
//! branch of the tree. With `d_r = a_r(T^r) + b_r(T^r)` (the *spine
//! deliveries* of round `r`, an observable) and `g_r = g_r(T^r)`, the
//! recurrence telescopes from `g_0 = n` (every node starts at the
//! root):
//!
//! ```text
//! n = d_0 − d_1 + d_2 − … + (−1)^{J−1} d_{J−1} + (−1)^J g_J
//! ```
//!
//! In the model every live node delivers at least one message per
//! round, so `g_J = 0` **iff** `d_J = 0`: at the first round whose
//! spine is silent, the alternating sum *is* the exact count. Spine
//! occupancy is monotone (`g_{r+1} ≤ g_r`, a node leaves the spine
//! forever at its first non-`{1,2}` round), hence `d_r = g_r + g_{r+1}`
//! is non-increasing — the stabilization signal cannot flicker, and on
//! the worst-case twin executions of even depth the spine dies exactly
//! at round `horizon + 1`, tying the kernel algorithm's `horizon + 2`
//! decision bound while doing `O(deliveries)` work per round instead of
//! touching a `3^r`-column system.
//!
//! Between rounds the leader also knows `n = S_r + (−1)^{r+1} g_{r+1}`
//! with `0 ≤ g_{r+1} ≤ ⌊d_r / 2⌋` (from `d_r = g_r + g_{r+1}` and
//! monotonicity), which yields a per-round candidate interval; the
//! leader maintains the running intersection, and an empty intersection
//! is proof the execution left the model.
//!
//! # What this rule does *not* give you
//!
//! This is a deliberately truncated reading of the history-tree method:
//! termination requires the spine to die. On executions that keep some
//! node receiving `{1, 2}` forever (e.g. a static all-`{1,2}` clique,
//! or worst-case twins of odd depth, whose deepest negative history is
//! the spine itself) the leader never decides and honestly reports
//! `Undecided` — unlike the full Di Luna–Viglietta construction, which
//! re-roots and cuts the tree. The kernel algorithm decides on every
//! `M(DBL)_2` execution; the crossover benchmark (`exp_crossover`)
//! measures what that generality costs.

use crate::faults::{GuardedLeader, Violation, ViolationKind};
use crate::history::{HistoryArena, HistoryId};
use crate::label::LabelSet;
use crate::soa::RoundColumns;
use anonet_trace::RoundEvent;
use core::fmt;

/// Errors of the history-tree leader.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum HistoryTreeError {
    /// A delivery carried a label other than 1 or 2 (`k = 2` only).
    BadLabel {
        /// The offending label.
        label: u8,
    },
    /// A delivery carried a state of the wrong length for its round.
    BadStateLength {
        /// The round being ingested.
        round: usize,
        /// The state length received.
        got: usize,
    },
    /// A delivery carried a state that is not a `k = 2` ternary history.
    NonTernaryState {
        /// The round being ingested.
        round: usize,
    },
    /// The spine sums contradict themselves — the alternating sum left
    /// the feasible interval, went negative at spine death, or
    /// overflowed. Impossible in-model; fault-injected executions
    /// surface here instead of producing a silently wrong count.
    InconsistentCensus {
        /// The round being ingested.
        round: usize,
    },
}

impl fmt::Display for HistoryTreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HistoryTreeError::BadLabel { label } => {
                write!(f, "delivery label {label} outside {{1, 2}}")
            }
            HistoryTreeError::BadStateLength { round, got } => {
                write!(f, "round {round} delivery carries a state of length {got}")
            }
            HistoryTreeError::NonTernaryState { round } => {
                write!(f, "round {round} delivery carries a non-ternary (k != 2) state")
            }
            HistoryTreeError::InconsistentCensus { round } => {
                write!(
                    f,
                    "round {round} spine sums are inconsistent (out-of-model execution)"
                )
            }
        }
    }
}

impl std::error::Error for HistoryTreeError {}

/// The online history-tree counting leader for `k = 2` executions: feed
/// it each round's delivery columns; it answers with the exact count at
/// the first round whose spine is silent (see the module docs for the
/// rule and its limits).
///
/// # Examples
///
/// ```
/// use anonet_multigraph::history_tree::HistoryTreeLeader;
/// use anonet_multigraph::simulate::simulate;
/// use anonet_multigraph::adversary::TwinBuilder;
///
/// let pair = TwinBuilder::new().build(40)?;
/// let exec = simulate(&pair.smaller, pair.horizon as usize + 4);
/// let mut leader = HistoryTreeLeader::new();
/// let mut decided = None;
/// for (r, round) in exec.rounds.iter().enumerate() {
///     if let Some(count) = leader.ingest(&exec.arena, round)? {
///         decided = Some((r as u32 + 1, count));
///         break;
///     }
/// }
/// // Even-depth twins: the spine dies at the kernel algorithm's own
/// // decision round.
/// assert_eq!(decided, Some((pair.horizon + 2, 40)));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct HistoryTreeLeader {
    round: usize,
    /// Alternating spine sum `S_r = Σ (−1)^j d_j` over ingested rounds.
    sum: i64,
    /// The spine history `T^round` of the last ingested round (the
    /// parent every on-spine delivery of the next round must extend).
    spine: HistoryId,
    /// `d_{round−1}` — the spine deliveries of the last ingested round.
    last_spine: u64,
    /// Running intersection of the per-round candidate intervals.
    cand: Option<(i64, i64)>,
    /// The *raw* interval of the last ingested round, before
    /// intersection (collapses to a point at decision).
    raw: Option<(i64, i64)>,
    /// Cumulative distinct `(label, state)` delivery classes — the size
    /// of the history-tree frontier the leader has materialized.
    classes: u64,
    decided: Option<u64>,
}

impl Default for HistoryTreeLeader {
    fn default() -> HistoryTreeLeader {
        HistoryTreeLeader::new()
    }
}

impl HistoryTreeLeader {
    /// A fresh leader with no observations.
    pub fn new() -> HistoryTreeLeader {
        HistoryTreeLeader {
            round: 0,
            sum: 0,
            spine: HistoryArena::empty(),
            last_spine: 0,
            cand: None,
            raw: None,
            classes: 0,
            decided: None,
        }
    }

    /// Number of ingested rounds.
    pub fn rounds(&self) -> usize {
        self.round
    }

    /// The decision, if already made.
    pub fn decision(&self) -> Option<u64> {
        self.decided
    }

    /// Spine deliveries `d_r` of the last ingested round (0 before any
    /// round).
    pub fn spine_deliveries(&self) -> u64 {
        self.last_spine
    }

    /// Cumulative distinct `(label, state)` delivery classes over all
    /// ingested rounds — the portion of the history tree the leader has
    /// actually walked (each class is one interned tree handle).
    pub fn classes(&self) -> u64 {
        self.classes
    }

    /// The candidate population interval consistent with everything
    /// seen so far (`None` before any round); the running intersection
    /// of the per-round spine bounds, collapsed to a point at decision.
    pub fn candidates(&self) -> Option<(i64, i64)> {
        self.cand
    }

    /// The *raw* candidate interval of the last ingested round alone,
    /// before intersection with earlier rounds (`None` before any
    /// round). These intervals do **not** always nest in-model: on the
    /// clean n=13 twin they go (13, 14) then (12, 13). The guarded
    /// runner's nesting screen ([`WatchedHistoryTree`]) therefore
    /// raises a false alarm on clean twins whose spine never dies.
    pub fn raw_candidates(&self) -> Option<(i64, i64)> {
        self.raw
    }

    /// Ingests one round of deliveries and returns the count if this
    /// round's spine was silent (the stabilization signal).
    ///
    /// `arena` must be the arena that produced the deliveries' state
    /// handles. Each delivery costs O(1): state length, ternary
    /// validity, parent and last label set are all cached per arena
    /// entry.
    ///
    /// # Errors
    ///
    /// Returns [`HistoryTreeError`] for malformed deliveries or
    /// self-contradictory spine sums; the leader's state is unspecified
    /// afterwards (verdict runners discard it).
    pub fn ingest(
        &mut self,
        arena: &HistoryArena,
        deliveries: &RoundColumns,
    ) -> Result<Option<u64>, HistoryTreeError> {
        let round = self.round;
        let mut spine_deliveries: u64 = 0;
        let mut next_spine: Option<HistoryId> = None;
        let mut new_classes: u64 = 0;
        let mut prev_class: Option<(u8, HistoryId)> = None;
        for d in deliveries.iter() {
            let got = arena.history_len(d.state);
            if got != round {
                return Err(HistoryTreeError::BadStateLength { round, got });
            }
            if !arena.is_ternary(d.state) {
                return Err(HistoryTreeError::NonTernaryState { round });
            }
            if d.label != 1 && d.label != 2 {
                return Err(HistoryTreeError::BadLabel { label: d.label });
            }
            // Round 0: the only length-0 history is the root T^0 (hash-
            // consing interns it once), so every delivery is on-spine.
            // Later rounds: on-spine iff the state extends the previous
            // spine by {1,2} — two O(1) cached lookups.
            let on_spine = round == 0
                || (arena.last(d.state) == Some(LabelSet::L12)
                    && arena.parent(d.state) == Some(self.spine));
            if on_spine {
                spine_deliveries += 1;
                next_spine = Some(d.state);
            }
            // Deliveries arrive in canonical (label, history) order, so
            // distinct classes are exactly the runs.
            if prev_class != Some((d.label, d.state)) {
                new_classes += 1;
                prev_class = Some((d.label, d.state));
            }
        }
        self.round += 1;
        self.classes = self.classes.saturating_add(new_classes);
        self.last_spine = spine_deliveries;
        if spine_deliveries == 0 {
            // Spine death: g_round = 0, the telescoped sum is exact.
            if self.sum < 0 {
                return Err(HistoryTreeError::InconsistentCensus { round });
            }
            if let Some((lo, hi)) = self.cand {
                if self.sum < lo || self.sum > hi {
                    return Err(HistoryTreeError::InconsistentCensus { round });
                }
            }
            self.cand = Some((self.sum, self.sum));
            self.raw = Some((self.sum, self.sum));
            self.decided = Some(self.sum as u64);
            return Ok(self.decided);
        }
        if let Some(s) = next_spine {
            self.spine = s;
        }
        let signed = i64::try_from(spine_deliveries)
            .map_err(|_| HistoryTreeError::InconsistentCensus { round })?;
        self.sum = self
            .sum
            .checked_add(if round.is_multiple_of(2) { signed } else { -signed })
            .ok_or(HistoryTreeError::InconsistentCensus { round })?;
        // n = S_round + (−1)^{round+1} g_{round+1}, 0 ≤ g_{round+1} ≤ ⌊d/2⌋.
        let slack = signed / 2;
        let (lo, hi) = if round.is_multiple_of(2) {
            (self.sum - slack, self.sum)
        } else {
            (self.sum, self.sum + slack)
        };
        let merged = match self.cand {
            None => (lo, hi),
            Some((plo, phi)) => (plo.max(lo), phi.min(hi)),
        };
        if merged.0 > merged.1 {
            return Err(HistoryTreeError::InconsistentCensus { round });
        }
        self.cand = Some(merged);
        self.raw = Some((lo, hi));
        Ok(None)
    }
}

/// The history-tree leader hardened with fail-closed screens: the
/// [`GuardedLeader`] that guarded history-tree sessions
/// ([`Guarded`](crate::faults::Guarded)) run.
///
/// The screens are deliberately `O(1)` per round on top of the leader's
/// own `O(deliveries)`, because this algorithm family exists to avoid
/// the kernel's observation system. Before the decision:
///
/// * an empty round is [`ViolationKind::Connectivity`] (in-model every
///   live node delivers at least one message, and an empty round would
///   otherwise read as spine death);
/// * a malformed delivery is [`ViolationKind::DeliveryIntegrity`], a
///   contradictory spine sum [`ViolationKind::CensusConservation`];
/// * a growing spine delivery count is
///   [`ViolationKind::CensusConservation`] (in-model `d_r = g_r +
///   g_{r+1}` is non-increasing);
/// * a raw candidate interval escaping its predecessor is
///   [`ViolationKind::CensusConservation`]. This screen is **not**
///   implied by the model: on a clean twin whose spine never dies the
///   raw intervals shift (n=13: (13, 14) then (12, 13)), so the screen
///   raises a false alarm at `horizon + 1`
///   (`tests/algorithm_agreement.rs` pins it). It also stops faulted
///   runs that would otherwise escape with a wrong count.
///
/// After the decision the spine is dead, so beyond well-formedness the
/// only thing left to watch is a full-spine history coming back from
/// the grave ([`ViolationKind::CensusConservation`]). A restart after
/// round 0 leaves the fresh leader expecting round-0 histories, so its
/// next non-empty round trips the integrity screen. Violations carry
/// the session round.
#[derive(Debug, Clone, Default)]
pub struct WatchedHistoryTree {
    leader: HistoryTreeLeader,
    prev_spine: Option<u64>,
    prev_raw: Option<(i64, i64)>,
}

impl GuardedLeader for WatchedHistoryTree {
    fn restart(&mut self) {
        *self = WatchedHistoryTree::default();
    }

    fn screen(
        &mut self,
        arena: &HistoryArena,
        deliveries: &RoundColumns,
        round: u32,
    ) -> Result<(RoundEvent, Option<u64>), Violation> {
        let violation = |kind| Violation { kind, round };
        if deliveries.is_empty() {
            return Err(violation(ViolationKind::Connectivity));
        }
        let step = self.leader.ingest(arena, deliveries).map_err(|e| {
            violation(match e {
                HistoryTreeError::InconsistentCensus { .. } => ViolationKind::CensusConservation,
                _ => ViolationKind::DeliveryIntegrity,
            })
        })?;
        let spine = self.leader.spine_deliveries();
        if self.prev_spine.is_some_and(|p| spine > p) {
            return Err(violation(ViolationKind::CensusConservation));
        }
        self.prev_spine = Some(spine);
        if let (Some((plo, phi)), Some((lo, hi))) = (self.prev_raw, self.leader.raw_candidates()) {
            if lo < plo || hi > phi {
                return Err(violation(ViolationKind::CensusConservation));
            }
        }
        self.prev_raw = self.leader.raw_candidates();
        let (lo, hi) = self.leader.candidates().unwrap_or((0, i64::MAX));
        let event = RoundEvent::new(round)
            .deliveries(deliveries.len() as u64)
            .candidates(lo, hi)
            .candidate_count((hi - lo + 1) as u64)
            .state_size(self.leader.classes())
            .spine(spine);
        Ok((event, step))
    }

    fn confirm(
        &mut self,
        arena: &HistoryArena,
        deliveries: &RoundColumns,
        round: u32,
    ) -> Result<(), Violation> {
        let violation = |kind| Violation { kind, round };
        if deliveries.is_empty() {
            return Err(violation(ViolationKind::Connectivity));
        }
        for d in deliveries.iter() {
            let well_formed = arena.history_len(d.state) == round as usize
                && arena.is_ternary(d.state)
                && (d.label == 1 || d.label == 2);
            if !well_formed {
                return Err(violation(ViolationKind::DeliveryIntegrity));
            }
            let resurrected = arena
                .masks(d.state)
                .iter()
                .all(|&mask| mask == LabelSet::L12.mask());
            if resurrected {
                return Err(violation(ViolationKind::CensusConservation));
            }
        }
        Ok(())
    }

    fn candidates(&self) -> Option<(i64, i64)> {
        self.leader.candidates()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::TwinBuilder;
    use crate::census::Census;
    use crate::multigraph::DblMultigraph;
    use crate::simulate::{simulate, Delivery};

    fn run_leader(m: &DblMultigraph, rounds: usize) -> (HistoryTreeLeader, Option<(u32, u64)>) {
        let exec = simulate(m, rounds);
        let mut leader = HistoryTreeLeader::new();
        for (r, round) in exec.rounds.iter().enumerate() {
            if let Some(count) = leader.ingest(&exec.arena, round).expect("in-model execution") {
                return (leader, Some((r as u32 + 1, count)));
            }
        }
        (leader, None)
    }

    #[test]
    fn counts_even_depth_twins_at_the_kernel_bound() {
        // n = (3^{2j} − 1)/2: the worst-case twin's deepest negative
        // history has even depth, the spine empties at horizon + 1, and
        // the rule ties the kernel algorithm's horizon + 2 decision.
        for n in [4u64, 40, 364] {
            let pair = TwinBuilder::new().build(n).expect("twins");
            let (_, decided) = run_leader(&pair.smaller, pair.horizon as usize + 4);
            assert_eq!(decided, Some((pair.horizon + 2, n)), "n={n}");
        }
    }

    #[test]
    fn easy_instances_decide_as_soon_as_the_spine_dies() {
        // Distinct singleton labels: nobody ever receives {1,2}, so the
        // spine dies in round 1 and the count is just d_0.
        let m = Census::from_counts(vec![3, 2, 0])
            .unwrap()
            .realize()
            .unwrap();
        let (_, decided) = run_leader(&m, 8);
        assert_eq!(decided, Some((2, 5)));
    }

    #[test]
    fn static_all_l12_networks_never_decide() {
        // The documented limitation: a clique delivering {1,2} forever
        // keeps the spine alive — the leader honestly stays undecided.
        let m = Census::from_counts(vec![0, 0, 4])
            .unwrap()
            .realize()
            .unwrap();
        let (leader, decided) = run_leader(&m, 10);
        assert_eq!(decided, None);
        assert_eq!(leader.decision(), None);
        let (lo, hi) = leader.candidates().expect("interval exists");
        assert!(lo <= 4 && 4 <= hi, "truth stays feasible: [{lo}, {hi}]");
    }

    #[test]
    fn candidate_intervals_nest_and_contain_truth() {
        let pair = TwinBuilder::new().build(40).expect("twins");
        let exec = simulate(&pair.smaller, pair.horizon as usize + 4);
        let mut leader = HistoryTreeLeader::new();
        let mut prev: Option<(i64, i64)> = None;
        for round in &exec.rounds {
            let step = leader.ingest(&exec.arena, round).unwrap();
            let (lo, hi) = leader.candidates().unwrap();
            assert!(lo <= 40 && 40 <= hi, "truth in [{lo}, {hi}]");
            if let Some((plo, phi)) = prev {
                assert!(lo >= plo && hi <= phi, "intersection only shrinks");
            }
            prev = Some((lo, hi));
            if step.is_some() {
                assert_eq!((lo, hi), (40, 40));
                break;
            }
        }
    }

    #[test]
    fn spine_deliveries_are_monotone_until_death() {
        let pair = TwinBuilder::new().build(364).expect("twins");
        let exec = simulate(&pair.smaller, pair.horizon as usize + 4);
        let mut leader = HistoryTreeLeader::new();
        let mut prev = u64::MAX;
        for round in &exec.rounds {
            let step = leader.ingest(&exec.arena, round).unwrap();
            assert!(leader.spine_deliveries() <= prev, "d_r non-increasing");
            prev = leader.spine_deliveries();
            if step.is_some() {
                assert_eq!(prev, 0);
                break;
            }
        }
    }

    #[test]
    fn rejects_malformed_deliveries() {
        let mut arena = HistoryArena::new();
        let mut leader = HistoryTreeLeader::new();
        let bad_label = RoundColumns::from_deliveries(&[Delivery {
            label: 3,
            state: HistoryArena::empty(),
        }]);
        assert_eq!(
            leader.ingest(&arena, &bad_label),
            Err(HistoryTreeError::BadLabel { label: 3 })
        );
        let mut leader = HistoryTreeLeader::new();
        let bad_len = RoundColumns::from_deliveries(&[Delivery {
            label: 1,
            state: arena.child(HistoryArena::empty(), LabelSet::L1),
        }]);
        assert_eq!(
            leader.ingest(&arena, &bad_len),
            Err(HistoryTreeError::BadStateLength { round: 0, got: 1 })
        );
    }

    #[test]
    fn off_spine_duplicates_do_not_move_the_count() {
        // A duplicated delivery whose history is off-spine leaves every
        // spine sum unchanged: the rule still reports the exact count —
        // the property the crossover benchmark's fault cells measure.
        let pair = TwinBuilder::new().build(40).expect("twins");
        let exec = simulate(&pair.smaller, pair.horizon as usize + 4);
        let mut leader = HistoryTreeLeader::new();
        let mut decided = None;
        for (r, round) in exec.rounds.iter().enumerate() {
            let step = if r == 1 {
                // Duplicate the first canonical delivery of round 1: its
                // state is {1} (all-1 masks sort first), off-spine.
                let mut duped = round.clone();
                let first = round.get(0);
                assert_ne!(
                    exec.arena.last(first.state),
                    Some(LabelSet::L12),
                    "duplicated delivery must be off-spine"
                );
                duped.push(first.label, first.state);
                duped.canonical_sort(&exec.arena);
                leader.ingest(&exec.arena, &duped).unwrap()
            } else {
                leader.ingest(&exec.arena, round).unwrap()
            };
            if let Some(count) = step {
                decided = Some((r as u32 + 1, count));
                break;
            }
        }
        assert_eq!(decided, Some((pair.horizon + 2, 40)));
    }

    #[test]
    fn spine_duplicates_fail_closed_not_wrong() {
        // Duplicating a *spine* delivery in round 1 makes d_1 exceed
        // d_0-consistency eventually: either the intersection empties
        // (typed error) or the final count disagrees with a later spine
        // sum. It must never silently pass through as 40.
        let pair = TwinBuilder::new().build(4).expect("twins");
        let exec = simulate(&pair.smaller, pair.horizon as usize + 4);
        let mut leader = HistoryTreeLeader::new();
        let mut outcome = Ok(None);
        for (r, round) in exec.rounds.iter().enumerate() {
            let step = if r == 1 {
                let spine_idx = (0..round.len())
                    .find(|&i| {
                        let d = round.get(i);
                        exec.arena.last(d.state) == Some(LabelSet::L12)
                    })
                    .expect("round 1 of a twin has spine deliveries");
                let mut duped = round.clone();
                let d = round.get(spine_idx);
                duped.push(d.label, d.state);
                duped.canonical_sort(&exec.arena);
                leader.ingest(&exec.arena, &duped)
            } else {
                leader.ingest(&exec.arena, round)
            };
            match step {
                Ok(None) => continue,
                other => {
                    outcome = other.map(|d| d.map(|c| (r as u32 + 1, c)));
                    break;
                }
            }
        }
        match outcome {
            Err(HistoryTreeError::InconsistentCensus { .. }) => {}
            Ok(Some((_, count))) => assert_ne!(count, 4, "perturbed spine cannot count 4"),
            other => panic!("unexpected outcome: {other:?}"),
        }
    }
}
