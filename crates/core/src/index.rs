//! Memory-indexed candidate selection for decision-driven schedulers.
//!
//! The dynamic and corrected heuristics of the paper (Sections 4.2–4.3) make
//! one decision per scheduled task: among the not-yet-scheduled tasks that
//! fit in the free memory, keep those inducing minimum idle time on the
//! processing unit, then break the tie with a criterion (largest/smallest
//! communication time, maximum acceleration ratio). Evaluating that rule by
//! scanning every remaining task makes each decision O(n) and the whole run
//! O(n²).
//!
//! [`CandidateIndex`] answers the communication-time queries in O(log n)
//! and the ratio query in O(√m · log n) worst case, where `m ≤ n` counts
//! the distinct communication times — O(log n) probes in all when those
//! are few, and O(log n) whenever the best-ratio fitting task is not
//! blocked behind the communication bound when they are many (see
//! [`best_ratio_candidate_within`](CandidateIndex::best_ratio_candidate_within)
//! for the exact bounds). It keeps the tasks of an instance sorted by
//! `(communication time, id)`, a task's *position*, and maintains two
//! structures over that order:
//!
//! * a **min-memory segment tree**: each node stores the smallest memory
//!   requirement among its still-present tasks, which lets directed descents
//!   find the leftmost/rightmost fitting task of any communication-time
//!   range in O(log n);
//! * the **ratio machinery**, which works on ranks. At build time every
//!   task gets a *ratio rank* in the MAMR order (acceleration ratio
//!   descending, id ascending) and a *memory rank* in the
//!   `(memory, position)` order. The memory ranks that fit under a
//!   free-memory threshold are a prefix, a task fits iff the memory at its
//!   rank does (one lookup, no search over the ranks), and the MAMR choice
//!   among any set of tasks is the fitting one with the smallest ratio
//!   rank. Every tree node stores the smallest ratio
//!   rank (its subtree's *champion*) and the smallest memory rank of its
//!   present tasks. The trees come in *groups*: consecutive position
//!   ranges, each with its own tree whose leaves follow memory rank, so a
//!   group's fitting tasks are a prefix of its leaves and their best is a
//!   prefix-minimum query. One group per run of equal communication time
//!   matches the bounds, since every communication-time bound cuts at a
//!   run boundary. One group per *bucket* of ⌈√m⌉ consecutive runs feeds
//!   an outer tree over the bucket roots. A range of runs is searched
//!   champion-first (stage 2 of the query): a subtree whose champion fits
//!   is taken without descending, a bucket or run whose champion is
//!   memory-blocked resolves exactly by its own prefix query, and the at
//!   most two partially covered boundary buckets resolve run by run.
//!   Memory-blocked high-ratio tasks therefore cost at most O(√m) exact
//!   O(log n) probes per query, even on continuous-communication traces
//!   under memory pressure. A third grouping, all tasks as one group,
//!   answers the query with the communication bound ignored (stage 1),
//!   which settles most queries of a many-run trace in one probe. It is
//!   kept only when the buckets outnumber `log2 n`: with fewer, stage 2
//!   alone takes O(log n) probes, and the third tree would only add a root
//!   walk to every removal. Quantized traces such as the paper's HF ranks
//!   (a few dozen transfer times) drop it; continuous ones such as its
//!   CCSD ranks keep it.
//!
//! Each grouping partitions the tasks and every structure stores O(1) words
//! per task, so the index takes O(n) memory and O(log n) per update (each
//! root walk stops at the first node a removal does not change);
//! construction is O(n) beyond its sorts.
//!
//! ```
//! use dts_core::index::CandidateIndex;
//! use dts_core::instances::table4;
//! use dts_core::{MemSize, TaskId, Time};
//!
//! let instance = table4(); // A..D with comm times 3, 1, 4, 5 and mem 3, 1, 4, 5
//! let mut index = CandidateIndex::new(&instance);
//! // Smallest communication time among tasks needing at most 4 bytes: B.
//! assert_eq!(index.min_comm_candidate(MemSize::from_bytes(4)), Some(TaskId(1)));
//! // Largest communication time <= 4 units among the same tasks: C.
//! let bound = Time::units_int(4);
//! assert_eq!(
//!     index.max_comm_candidate_within(MemSize::from_bytes(4), bound),
//!     Some(TaskId(2))
//! );
//! index.remove(TaskId(2));
//! assert_eq!(
//!     index.max_comm_candidate_within(MemSize::from_bytes(4), bound),
//!     Some(TaskId(0))
//! );
//! ```

use std::ops::Range;

use crate::instance::Instance;
use crate::memory::MemSize;
use crate::task::{Task, TaskId};
use crate::time::Time;

/// Sentinel stored in the min-memory tree for removed tasks and padding
/// leaves. `u128` so that it compares above every real memory requirement,
/// including a legitimate `u64::MAX`-byte task.
const MEM_ABSENT: u128 = u128::MAX;

/// A node of the ratio machinery's trees: the smallest ratio rank and the
/// smallest memory rank among the present tasks below it, both `u32::MAX`
/// when there are none. Ranks are below the task count, which fits in
/// `u32`, so `u32::MAX` is never a real rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Node {
    best: u32,
    min_mem: u32,
}

impl Node {
    const EMPTY: Node = Node {
        best: u32::MAX,
        min_mem: u32::MAX,
    };

    #[inline]
    fn join(self, other: Node) -> Node {
        Node {
            best: self.best.min(other.best),
            min_mem: self.min_mem.min(other.min_mem),
        }
    }
}

/// Joins the inner nodes of a bottom-up tree whose `size` leaves are
/// `tree[size..2 * size]`. Slot 1 is the root for every size (a one-leaf
/// tree keeps its leaf there).
fn build_tree(tree: &mut [Node], size: usize) {
    for i in (1..size).rev() {
        tree[i] = tree[2 * i].join(tree[2 * i + 1]);
    }
}

/// One step of a root walk: re-joins the parent of slot `i` of a bottom-up
/// tree and returns it, or returns 1 (the root, ending the walk) when the
/// parent does not change — then no ancestor above it changes either.
#[inline]
fn rejoin_parent(tree: &mut [Node], i: usize) -> usize {
    let parent = i >> 1;
    let node = tree[2 * parent].join(tree[2 * parent + 1]);
    if node == tree[parent] {
        return 1;
    }
    tree[parent] = node;
    parent
}

/// Stores `node` in slot `i` of a bottom-up tree and re-joins the path to
/// the root, up to the first ancestor that does not change.
fn set_leaf(tree: &mut [Node], mut i: usize, node: Node) {
    tree[i] = node;
    while i > 1 {
        i = rejoin_parent(tree, i);
    }
}

/// The smallest ratio rank among the first `k` leaves of a bottom-up tree
/// with `size` leaves.
fn prefix_best(tree: &[Node], size: usize, k: usize) -> u32 {
    let mut best = u32::MAX;
    let (mut l, mut r) = (size, size + k);
    while l < r {
        if l & 1 == 1 {
            best = best.min(tree[l].best);
            l += 1;
        }
        if r & 1 == 1 {
            r -= 1;
            best = best.min(tree[r].best);
        }
        l >>= 1;
        r >>= 1;
    }
    best
}

/// Smallest `r >= 1` with `r · r >= m`: the bucket width (in runs) that
/// balances the outer tree's leaf count against the boundary-bucket
/// resolution cost at √m each. O(√m) once per build.
fn isqrt_ceil(m: usize) -> usize {
    let mut r = 1usize;
    while r * r < m {
        r += 1;
    }
    r
}

/// Consecutive position ranges (*groups*), each with a bottom-up tree whose
/// leaves are the group's tasks in memory-rank order, so the tasks of a
/// group that fit in memory are a prefix of its leaves.
#[derive(Debug, Clone)]
struct Groups {
    /// First position of each group, then the task count.
    start: Vec<u32>,
    /// Group of each position.
    group_of: Vec<u32>,
    /// Leaf of each position in its group's tree.
    leaf_of: Vec<u32>,
    /// Memory rank of each leaf, concatenated: group `g` owns
    /// `start[g]..start[g + 1]` (ascending within a group).
    leaf_mem: Vec<u32>,
    /// The trees, concatenated: group `g` of `s` tasks owns the `2 s` slots
    /// from `2 * start[g]`, leaves in the upper half.
    tree: Vec<Node>,
}

impl Groups {
    /// Builds the groups beginning at `start` (ascending from 0, closed by
    /// the task count) in one pass over `by_mem`, the positions in
    /// memory-rank order; `ratio_rank` is the ratio rank of each position.
    fn new(start: Vec<u32>, by_mem: &[u32], ratio_rank: &[u32]) -> Self {
        let n = by_mem.len();
        let mut group_of = vec![0u32; n];
        for (g, w) in start.windows(2).enumerate() {
            group_of[w[0] as usize..w[1] as usize].fill(g as u32);
        }
        // The next unfilled leaf of each group, as a position.
        let mut next = start.clone();
        let mut leaf_of = vec![0u32; n];
        let mut leaf_mem = vec![0u32; n];
        let mut tree = vec![Node::EMPTY; 2 * n];
        for (rank, &pos) in by_mem.iter().enumerate() {
            let g = group_of[pos as usize] as usize;
            let (lo, size) = (start[g] as usize, (start[g + 1] - start[g]) as usize);
            let at = next[g] as usize;
            next[g] += 1;
            leaf_of[pos as usize] = (at - lo) as u32;
            leaf_mem[at] = rank as u32;
            tree[lo + size + at] = Node {
                best: ratio_rank[pos as usize],
                min_mem: rank as u32,
            };
        }
        let mut groups = Groups {
            start,
            group_of,
            leaf_of,
            leaf_mem,
            tree,
        };
        for g in 0..groups.len() {
            let span = groups.span(g);
            build_tree(&mut groups.tree[2 * span.start..2 * span.end], span.len());
        }
        groups
    }

    /// Number of groups.
    fn len(&self) -> usize {
        self.start.len() - 1
    }

    /// The positions of group `g`.
    #[inline]
    fn span(&self, g: usize) -> Range<usize> {
        self.start[g] as usize..self.start[g + 1] as usize
    }

    /// The root of group `g`'s tree.
    #[inline]
    fn root(&self, g: usize) -> Node {
        self.tree[2 * self.start[g] as usize + 1]
    }

    /// The smallest ratio rank among the present tasks of group `g` whose
    /// memory rank `fits`, a predicate that holds on a prefix of the
    /// memory ranks. O(log of the group size).
    fn best(&self, g: usize, fits: impl Fn(u32) -> bool) -> u32 {
        let span = self.span(g);
        let fit = self.leaf_mem[span.clone()].partition_point(|&r| fits(r));
        prefix_best(&self.tree[2 * span.start..2 * span.end], span.len(), fit)
    }

    /// Empties the leaf of the task at `pos` and returns its group's tree
    /// and the leaf's slot in it; the caller re-joins the leaf's root path.
    fn clear(&mut self, pos: usize) -> (&mut [Node], usize) {
        let g = self.group_of[pos] as usize;
        let span = self.span(g);
        let slot = span.len() + self.leaf_of[pos] as usize;
        let tree = &mut self.tree[2 * span.start..2 * span.end];
        tree[slot] = Node::EMPTY;
        (tree, slot)
    }

    /// The groups lying entirely inside the positions `lo..hi`.
    fn within(&self, lo: usize, hi: usize) -> Range<usize> {
        if lo >= hi {
            return 0..0;
        }
        let (a, b) = (self.group_of[lo] as usize, self.group_of[hi - 1] as usize);
        let first = a + usize::from(self.start[a] as usize != lo);
        let end = b + usize::from(self.start[b + 1] as usize == hi);
        first..end
    }
}

/// The ratio machinery of a full [`CandidateIndex`] (see the
/// [module documentation](self)).
#[derive(Debug, Clone)]
struct RatioIndex {
    /// Memory requirement at each memory rank (non-decreasing, so a
    /// free-memory threshold maps to a count of ranks).
    mem_sorted: Vec<u64>,
    /// Position of the task at each ratio rank.
    pos_by_ratio: Vec<u32>,
    /// Memory rank of the task at each ratio rank.
    mem_by_ratio: Vec<u32>,
    /// All tasks as one group: stage 1 of the query, the best fitting task
    /// with the communication bound ignored. Kept only where it pays
    /// ([`stage_one_pays`]).
    all: Option<Groups>,
    /// One group per run of equal communication time.
    runs: Groups,
    /// One group per bucket of ⌈√m⌉ consecutive runs.
    buckets: Groups,
    /// Bottom-up tree over the buckets: leaf `g` mirrors bucket `g`'s root.
    outer: Vec<Node>,
}

/// Whether stage 1 earns its upkeep on `n` tasks in `buckets` buckets: only
/// when the buckets outnumber `log2 n`. With fewer, stage 2 alone resolves
/// a query in about as many champion checks as stage 1's prefix query
/// costs, and the all-tasks tree would only add a third root walk to every
/// removal. The paper's HF ranks (rank 0: 17 distinct transfer times over
/// 483 tasks) fall below the line, its CCSD ranks (rank 0: 324 over 327)
/// above it.
fn stage_one_pays(buckets: usize, n: usize) -> bool {
    buckets > n.max(1).ilog2() as usize
}

impl RatioIndex {
    /// Ranks the tasks and builds the groupings; `order` holds the task
    /// index at each position and `pos_of` its inverse. `stage_one`
    /// overrides [`stage_one_pays`] when set.
    fn new(tasks: &[Task], order: &[u32], pos_of: &[u32], stage_one: Option<bool>) -> Self {
        let n = order.len();
        let task = |pos: u32| &tasks[order[pos as usize] as usize];

        // Ratio ranks: a stable sort keeps equal ratios in id order, and
        // `Time::ratio` never produces NaN, so `total_cmp` is the plain
        // numeric order.
        let ratio: Vec<f64> = tasks.iter().map(Task::acceleration_ratio).collect();
        let mut by_ratio: Vec<u32> = (0..n as u32).collect();
        by_ratio.sort_by(|&a, &b| ratio[b as usize].total_cmp(&ratio[a as usize]));
        let pos_by_ratio: Vec<u32> = by_ratio.iter().map(|&i| pos_of[i as usize]).collect();
        let mut ratio_rank = vec![0u32; n];
        for (rank, &pos) in pos_by_ratio.iter().enumerate() {
            ratio_rank[pos as usize] = rank as u32;
        }

        // Memory ranks: a stable sort of the positions by memory.
        let mut by_mem: Vec<u32> = (0..n as u32).collect();
        by_mem.sort_by_key(|&pos| task(pos).mem);
        let mut mem_by_ratio = vec![0u32; n];
        for (rank, &pos) in by_mem.iter().enumerate() {
            mem_by_ratio[ratio_rank[pos as usize] as usize] = rank as u32;
        }
        let mem_sorted = by_mem.iter().map(|&pos| task(pos).mem.bytes()).collect();

        // Equal-communication runs are contiguous in the (comm, id) order,
        // and buckets take every ⌈√m⌉-th run start.
        let run_start: Vec<u32> = (0..n as u32)
            .filter(|&pos| pos == 0 || task(pos).comm_time != task(pos - 1).comm_time)
            .chain([n as u32])
            .collect();
        let m = run_start.len() - 1;
        let bucket_start: Vec<u32> = run_start[..m]
            .iter()
            .step_by(isqrt_ceil(m))
            .copied()
            .chain([n as u32])
            .collect();

        let keep_all = stage_one.unwrap_or_else(|| stage_one_pays(bucket_start.len() - 1, n));
        let all = keep_all.then(|| Groups::new(vec![0, n as u32], &by_mem, &ratio_rank));
        let runs = Groups::new(run_start, &by_mem, &ratio_rank);
        let buckets = Groups::new(bucket_start, &by_mem, &ratio_rank);
        let count = buckets.len();
        let mut outer = vec![Node::EMPTY; 2 * count];
        for g in 0..count {
            outer[count + g] = buckets.root(g);
        }
        build_tree(&mut outer, count);
        RatioIndex {
            mem_sorted,
            pos_by_ratio,
            mem_by_ratio,
            all,
            runs,
            buckets,
            outer,
        }
    }

    /// Removes the task at `pos` from every grouping and the outer tree.
    /// The runs and buckets trees are walked in one loop, so the two
    /// dependent chains of joins overlap; each walk, like every other,
    /// stops at the first ancestor that does not change, and the outer
    /// tree is touched only if the bucket's root changed.
    fn remove(&mut self, pos: usize) {
        if let Some(all) = &mut self.all {
            let (tree, slot) = all.clear(pos);
            set_leaf(tree, slot, Node::EMPTY);
        }
        let g = self.buckets.group_of[pos] as usize;
        let root = self.buckets.root(g);
        let (runs, mut r) = self.runs.clear(pos);
        let (buckets, mut b) = self.buckets.clear(pos);
        while r > 1 || b > 1 {
            if r > 1 {
                r = rejoin_parent(runs, r);
            }
            if b > 1 {
                b = rejoin_parent(buckets, b);
            }
        }
        let root_now = buckets[1];
        if root_now != root {
            let count = self.buckets.len();
            set_leaf(&mut self.outer, count + g, root_now);
        }
    }

    /// The position of the best present task of the run-aligned position
    /// range `lo..hi` that needs at most `free` bytes, by the two-stage
    /// search of
    /// [`best_ratio_candidate_within`](CandidateIndex::best_ratio_candidate_within).
    fn best_in(&self, free: u64, lo: usize, hi: usize) -> Option<usize> {
        if lo >= hi {
            return None;
        }
        // Stage 1, where kept: the best fitting task regardless of
        // communication time. If it lands in the range it dominates the
        // whole query set; if nothing fits at all, the range holds no
        // candidate either. A one-run range skips it: stage 2 is then a
        // single run's champion check.
        let one_run = self.runs.group_of[lo] == self.runs.group_of[hi - 1];
        if let Some(all) = self.all.as_ref().filter(|_| !one_run) {
            let winner = all.best(0, |rank| self.fits(rank, free));
            if winner == u32::MAX {
                return None;
            }
            let pos = self.pos_by_ratio[winner as usize] as usize;
            if (lo..hi).contains(&pos) {
                return Some(pos);
            }
        }
        // Stage 2: the whole buckets of the range go champion-first
        // through the outer tree's canonical decomposition, then the runs
        // of the at most two partially covered boundary buckets one by one.
        let mut best = u32::MAX;
        let whole = self.buckets.within(lo, hi);
        let count = self.buckets.len();
        let (mut l, mut r) = (count + whole.start, count + whole.end);
        while l < r {
            if l & 1 == 1 {
                self.outer_search(l, free, &mut best);
                l += 1;
            }
            if r & 1 == 1 {
                r -= 1;
                self.outer_search(r, free, &mut best);
            }
            l >>= 1;
            r >>= 1;
        }
        let (mid_lo, mid_hi) = if whole.is_empty() {
            (hi, hi)
        } else {
            let first = |g: usize| self.buckets.start[g] as usize;
            (first(whole.start), first(whole.end))
        };
        for (a, b) in [(lo, mid_lo), (mid_hi, hi)] {
            for run in self.runs.within(a, b) {
                self.group_search(&self.runs, run, free, &mut best);
            }
        }
        (best != u32::MAX).then(|| self.pos_by_ratio[best as usize] as usize)
    }

    /// Settles a subtree by its root `node` where the root decides,
    /// tightening `best` in place: a subtree with no fitting present task
    /// or whose champion cannot beat `best` is skipped, and a fitting
    /// champion dominates its subtree and is taken. Returns `true` iff the
    /// champion is memory-blocked but would beat `best`, so the subtree
    /// must be searched below its root.
    fn must_descend(&self, node: Node, free: u64, best: &mut u32) -> bool {
        if node.best >= *best || !self.fits(node.min_mem, free) {
            return false;
        }
        if self.fits(self.mem_by_ratio[node.best as usize], free) {
            *best = node.best;
            return false;
        }
        true
    }

    /// Whether the task of memory rank `rank` needs at most `free` bytes;
    /// `false` for `u32::MAX`, the rank an empty node holds.
    #[inline]
    fn fits(&self, rank: u32, free: u64) -> bool {
        self.mem_sorted
            .get(rank as usize)
            .is_some_and(|&m| m <= free)
    }

    /// Champion check of group `g`, resolving a memory-blocked champion
    /// exactly by the group's prefix query.
    fn group_search(&self, groups: &Groups, g: usize, free: u64, best: &mut u32) {
        if self.must_descend(groups.root(g), free, best) {
            *best = (*best).min(groups.best(g, |rank| self.fits(rank, free)));
        }
    }

    /// Champion-first search of one outer subtree, whose leaves are the
    /// buckets.
    fn outer_search(&self, node: usize, free: u64, best: &mut u32) {
        let count = self.buckets.len();
        if node >= count {
            return self.group_search(&self.buckets, node - count, free, best);
        }
        if !self.must_descend(self.outer[node], free, best) {
            return;
        }
        let (a, b) = (2 * node, 2 * node + 1);
        // Search the better-ranked child first so the second is usually
        // pruned by the tightened `best`.
        let (first, second) = if self.outer[b].best < self.outer[a].best {
            (b, a)
        } else {
            (a, b)
        };
        self.outer_search(first, free, best);
        self.outer_search(second, free, best);
    }
}

/// An index over the not-yet-scheduled tasks of an instance, ordered by
/// `(communication time, id)` and searchable by memory threshold.
///
/// Construction is O(n) beyond its sorts; [`remove`](CandidateIndex::remove)
/// and the communication-time queries are O(log n), and the ratio query is
/// output-sensitive — see the [module documentation](self) for how the
/// queries map onto the paper's selection rules, and
/// [`best_ratio_candidate_within`](CandidateIndex::best_ratio_candidate_within)
/// for its exact bound.
///
/// Selection rules that never ask ratio queries — the
/// largest/smallest-communication criteria — should build the index with
/// [`comm_only`](CandidateIndex::comm_only), which skips the ratio
/// machinery and the per-task acceleration ratios entirely.
#[derive(Debug, Clone)]
pub struct CandidateIndex {
    /// Communication time at each position of the `(comm, id)` order
    /// (non-decreasing; includes removed tasks — positions are static).
    comm: Vec<Time>,
    /// Task id at each position.
    id_at: Vec<TaskId>,
    /// Position of each task id.
    pos_of: Vec<u32>,
    /// Which positions still hold a task.
    present: Vec<bool>,
    /// Number of tasks still present.
    len: usize,
    /// Leaf offset of the min-memory tree (`next_power_of_two` of the task
    /// count).
    base: usize,
    /// Min-memory segment tree over positions (`2 * base` slots).
    min_mem: Vec<u128>,
    /// The ratio machinery; `None` for
    /// [`comm_only`](CandidateIndex::comm_only) indexes.
    ratio: Option<RatioIndex>,
}

/// Task indices in `(communication time, index)` order: a stable sort on
/// the communication time keeps equal times in index order. `tasks` has
/// at most `u32::MAX` entries.
fn comm_order(tasks: &[Task]) -> Vec<u32> {
    let mut order: Vec<u32> = (0..tasks.len() as u32).collect();
    order.sort_by_key(|&i| tasks[i as usize].comm_time);
    order
}

impl CandidateIndex {
    /// Builds the full index over every task of `instance`, including the
    /// ratio machinery behind
    /// [`best_ratio_candidate_within`](CandidateIndex::best_ratio_candidate_within).
    ///
    /// # Panics
    ///
    /// Panics if the instance has more than `u32::MAX` tasks (positions and
    /// ids are stored as `u32`; such an instance could not be scheduled in
    /// memory anyway).
    pub fn new(instance: &Instance) -> Self {
        Self::build(instance, true, None)
    }

    /// [`new`](CandidateIndex::new) with stage 1 of the ratio query kept
    /// or dropped regardless of the rule that decides it, so tests can run
    /// every query against both layouts. Not part of the API.
    #[doc(hidden)]
    pub fn with_stage_one(instance: &Instance, keep: bool) -> Self {
        Self::build(instance, true, Some(keep))
    }

    /// Whether the ratio machinery keeps stage 1 of the ratio query (see
    /// [`best_ratio_candidate_within`](CandidateIndex::best_ratio_candidate_within)).
    /// Not part of the API.
    #[doc(hidden)]
    pub fn has_stage_one(&self) -> bool {
        self.ratio.as_ref().is_some_and(|ratio| ratio.all.is_some())
    }

    /// Builds the index without the ratio machinery or the per-task
    /// acceleration ratios — for selection rules that only need the
    /// communication-time queries.
    ///
    /// # Panics
    ///
    /// Same construction limits as [`new`](CandidateIndex::new); in
    /// addition, calling
    /// [`best_ratio_candidate_within`](CandidateIndex::best_ratio_candidate_within)
    /// on the resulting index panics.
    pub fn comm_only(instance: &Instance) -> Self {
        Self::build(instance, false, None)
    }

    fn build(instance: &Instance, with_ratio: bool, stage_one: Option<bool>) -> Self {
        let n = instance.len();
        assert!(
            u32::try_from(n).is_ok(),
            "CandidateIndex supports at most u32::MAX tasks"
        );
        let tasks = instance.tasks();
        let order = comm_order(tasks);

        let base = n.next_power_of_two().max(1);
        let mut comm = Vec::with_capacity(n);
        let mut id_at = Vec::with_capacity(n);
        let mut pos_of = vec![0u32; n];
        let mut min_mem = vec![MEM_ABSENT; 2 * base];
        for (pos, &i) in order.iter().enumerate() {
            let task = &tasks[i as usize];
            comm.push(task.comm_time);
            id_at.push(TaskId(i as usize));
            pos_of[i as usize] = pos as u32;
            min_mem[base + pos] = u128::from(task.mem.bytes());
        }
        for i in (1..base).rev() {
            min_mem[i] = min_mem[2 * i].min(min_mem[2 * i + 1]);
        }
        let ratio = with_ratio.then(|| RatioIndex::new(tasks, &order, &pos_of, stage_one));

        CandidateIndex {
            comm,
            id_at,
            pos_of,
            present: vec![true; n],
            len: n,
            base,
            min_mem,
            ratio,
        }
    }

    /// Number of tasks still present.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff every task has been removed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `true` iff `id` has not been removed yet.
    #[inline]
    pub fn contains(&self, id: TaskId) -> bool {
        self.present[self.pos_of[id.index()] as usize]
    }

    /// Removes a task from the index (it has been scheduled) and
    /// re-aggregates every tree along the root paths of its leaves, each
    /// up to the first node that does not change. O(log n).
    ///
    /// # Panics
    ///
    /// Panics if the task was already removed.
    pub fn remove(&mut self, id: TaskId) {
        let pos = self.pos_of[id.index()] as usize;
        assert!(self.present[pos], "task {id} removed twice");
        self.present[pos] = false;
        self.len -= 1;

        let mut i = self.base + pos;
        self.min_mem[i] = MEM_ABSENT;
        while i > 1 {
            i >>= 1;
            let min = self.min_mem[2 * i].min(self.min_mem[2 * i + 1]);
            if min == self.min_mem[i] {
                break;
            }
            self.min_mem[i] = min;
        }
        if let Some(ratio) = &mut self.ratio {
            ratio.remove(pos);
        }
    }

    /// The present task with the smallest `(communication time, id)` among
    /// those whose memory requirement is at most `free` — the SCMR choice,
    /// and the probe every selection starts from (it determines whether any
    /// task fits at all and what the minimum induced CPU idle time is).
    pub fn min_comm_candidate(&self, free: MemSize) -> Option<TaskId> {
        let limit = u128::from(free.bytes());
        if self.min_mem[1] > limit {
            return None;
        }
        let mut i = 1;
        while i < self.base {
            i = if self.min_mem[2 * i] <= limit {
                2 * i
            } else {
                2 * i + 1
            };
        }
        Some(self.id_at[i - self.base])
    }

    /// Among present tasks with memory requirement at most `free` and
    /// communication time at most `comm_bound`, the one with the largest
    /// communication time, ties broken by smallest id — the LCMR choice when
    /// some fitting task induces no CPU idle time.
    pub fn max_comm_candidate_within(&self, free: MemSize, comm_bound: Time) -> Option<TaskId> {
        let limit = u128::from(free.bytes());
        let hi = self.comm.partition_point(|&c| c <= comm_bound);
        let pos = self.rightmost_fitting(hi, limit)?;
        // `pos` has the maximum communication time, but among equal
        // communication times the rightmost position is the largest id; the
        // chosen task is the leftmost fitting one of the equal-comm block.
        let c = self.comm[pos];
        let lo_block = self.comm[..pos].partition_point(|&x| x < c);
        // The block holds the fitting task at `pos`, so the leftmost
        // fitting position from its start is at most `pos`; falling back
        // to `pos` is correct even if the search were ever to miss.
        let leftmost = self.leftmost_fitting(lo_block, limit).unwrap_or(pos);
        Some(self.id_at[leftmost])
    }

    /// Among present tasks with memory requirement at most `free` and
    /// communication time at most `comm_bound`, the one with the largest
    /// acceleration ratio, ties broken by smallest id — the MAMR choice.
    /// When no fitting task avoids CPU idle time, calling this with
    /// `comm_bound` equal to the minimum fitting communication time restricts
    /// the query to exactly the minimum-idle candidates (though
    /// [`best_ratio_candidate_at`](CandidateIndex::best_ratio_candidate_at)
    /// states that case more directly).
    ///
    /// The query runs in up to two stages, with `m` the number of distinct
    /// communication times and ⌈m/⌈√m⌉⌉ buckets of ⌈√m⌉ runs each.
    ///
    /// Stage 1 exists only when the buckets outnumber `log2 n`, and runs
    /// only when the bound admits more than one run. A prefix query over
    /// all tasks in memory-rank order yields the best-ratio fitting task
    /// with the communication bound ignored — whenever that winner also
    /// satisfies the bound (every decision where the processing-unit
    /// backlog covers the candidates' communication times), it dominates
    /// the constrained set and is returned after two O(log n) probes.
    ///
    /// Stage 2 searches the runs under the bound — whole buckets plus at
    /// most two partially covered boundary buckets — champion-first: a
    /// subtree with no fitting present task or an out-ranked champion is
    /// skipped, a fitting champion is taken without descending, and a
    /// bucket or boundary run whose champion is memory-blocked resolves
    /// exactly by its own prefix query. That is O(√m) champion checks and
    /// at worst as many O(log n) prefix queries: O(√m · log n) with stage
    /// 1, even on continuous-communication traces under memory pressure,
    /// and O(log² n) without it, since ⌈√m⌉ then stays within one of the
    /// bucket count, at most `log2 n`.
    ///
    /// # Panics
    ///
    /// Panics if the index was built with
    /// [`comm_only`](CandidateIndex::comm_only).
    pub fn best_ratio_candidate_within(&self, free: MemSize, comm_bound: Time) -> Option<TaskId> {
        let hi = self.comm.partition_point(|&c| c <= comm_bound);
        self.best_ratio_in_range(free, 0, hi)
    }

    /// Among present tasks with memory requirement at most `free` and
    /// communication time *exactly* `comm`, the one with the largest
    /// acceleration ratio, ties broken by smallest id.
    ///
    /// This is the MAMR choice when every fitting task induces CPU idle
    /// time: the candidates are then the fitting tasks whose communication
    /// time equals the minimum fitting communication time, and restricting
    /// the query to that single equal-communication run keeps the
    /// high-ratio *shorter*-communication tasks — which can never be
    /// candidates, since they do not fit — out of the search entirely.
    /// Being one run, it skips stage 1 of
    /// [`best_ratio_candidate_within`](CandidateIndex::best_ratio_candidate_within)
    /// and costs one champion check, plus one O(log n) prefix query when
    /// the run's champion does not fit.
    ///
    /// # Panics
    ///
    /// Panics if the index was built with
    /// [`comm_only`](CandidateIndex::comm_only).
    pub fn best_ratio_candidate_at(&self, free: MemSize, comm: Time) -> Option<TaskId> {
        let lo = self.comm.partition_point(|&c| c < comm);
        // The run from `lo` ends where its group does, if it has `comm`.
        let hi = match (&self.ratio, self.comm.get(lo)) {
            (Some(ratio), Some(&c)) if c == comm => {
                ratio.runs.span(ratio.runs.group_of[lo] as usize).end
            }
            _ => lo,
        };
        self.best_ratio_in_range(free, lo, hi)
    }

    /// The ratio query over the position range `[lo, hi)`, which is always
    /// aligned to equal-communication run boundaries.
    fn best_ratio_in_range(&self, free: MemSize, lo: usize, hi: usize) -> Option<TaskId> {
        let ratio = self.ratio.as_ref();
        assert!(
            ratio.is_some(),
            "ratio query on an index built with CandidateIndex::comm_only"
        );
        Some(self.id_at[ratio?.best_in(free.bytes(), lo, hi)?])
    }

    /// Leftmost position from `lo` on whose present task needs at most
    /// `limit` bytes: climbs from leaf `lo` through the maximal subtrees
    /// that start at or after it, left to right, to the first one holding
    /// a fitting task, then descends to its leftmost fitting leaf. O(log n)
    /// and no stack.
    fn leftmost_fitting(&self, lo: usize, limit: u128) -> Option<usize> {
        let mut i = self.base + lo;
        loop {
            while i & 1 == 0 {
                i >>= 1;
            }
            if self.min_mem[i] <= limit {
                while i < self.base {
                    i = 2 * i + usize::from(self.min_mem[2 * i] > limit);
                }
                return Some(i - self.base);
            }
            i += 1;
            // A power of two is the leftmost node of its level: the search
            // walked past the last leaf.
            if i.is_power_of_two() {
                return None;
            }
        }
    }

    /// Rightmost position below `hi` whose present task needs at most
    /// `limit` bytes: the mirror of
    /// [`leftmost_fitting`](CandidateIndex::leftmost_fitting), climbing
    /// from leaf `hi - 1` through the maximal subtrees that end at or
    /// before it, right to left.
    fn rightmost_fitting(&self, hi: usize, limit: u128) -> Option<usize> {
        if hi == 0 {
            return None;
        }
        let mut i = self.base + hi;
        loop {
            i -= 1;
            while i > 1 && i & 1 == 1 {
                i >>= 1;
            }
            if self.min_mem[i] <= limit {
                while i < self.base {
                    i = 2 * i + usize::from(self.min_mem[2 * i + 1] <= limit);
                }
                return Some(i - self.base);
            }
            // Past the leftmost node of its level: no leaf remains.
            if i.is_power_of_two() {
                return None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instances::table4;

    #[test]
    fn comm_order_sorts_by_time_then_index() {
        let task = |comm: u64| Task::new(Time(comm), Time(0), MemSize::ZERO);
        let tasks = [
            task(5),
            task(u64::MAX),
            task(5),
            task(1 << 32),
            task(0),
            task(u64::from(u32::MAX)),
        ];
        assert_eq!(comm_order(&tasks), [4, 0, 2, 5, 3, 1]);
        assert!(comm_order(&[]).is_empty());
    }

    #[test]
    fn queries_match_manual_expectations_on_table4() {
        // Table 4: A (comm 3, mem 3), B (comm 1, mem 1), C (comm 4, mem 4),
        // D (comm 5, mem 5); capacity 6.
        let inst = table4();
        let mut index = CandidateIndex::new(&inst);
        assert_eq!(index.len(), 4);
        assert!(!index.is_empty());

        // Everything fits under 6 free bytes; B has the smallest comm.
        let all = MemSize::from_bytes(6);
        assert_eq!(index.min_comm_candidate(all), Some(TaskId(1)));
        // Largest comm <= 4: C. Largest comm <= 10: D.
        assert_eq!(
            index.max_comm_candidate_within(all, Time::units_int(4)),
            Some(TaskId(2))
        );
        assert_eq!(
            index.max_comm_candidate_within(all, Time::units_int(10)),
            Some(TaskId(3))
        );
        // Best ratio (comp/comm: A 2/3, B 6, C 3/2, D 1/5) under bound 5: B.
        assert_eq!(
            index.best_ratio_candidate_within(all, Time::units_int(5)),
            Some(TaskId(1))
        );
        // Exactly comm 4: C. Exactly comm 2: no such task.
        assert_eq!(
            index.best_ratio_candidate_at(all, Time::units_int(4)),
            Some(TaskId(2))
        );
        assert_eq!(index.best_ratio_candidate_at(all, Time::units_int(2)), None);

        // With only one free byte, only B fits.
        let one = MemSize::from_bytes(1);
        assert_eq!(index.min_comm_candidate(one), Some(TaskId(1)));
        assert_eq!(
            index.max_comm_candidate_within(one, Time::units_int(10)),
            Some(TaskId(1))
        );
        assert_eq!(index.min_comm_candidate(MemSize::ZERO), None);

        // Removing B promotes A to the smallest-comm fitting task.
        index.remove(TaskId(1));
        assert!(!index.contains(TaskId(1)));
        assert!(index.contains(TaskId(0)));
        assert_eq!(index.len(), 3);
        assert_eq!(index.min_comm_candidate(all), Some(TaskId(0)));
        assert_eq!(
            index.best_ratio_candidate_within(all, Time::units_int(5)),
            Some(TaskId(2))
        );
        assert_eq!(index.min_comm_candidate(one), None);

        for id in [TaskId(0), TaskId(2), TaskId(3)] {
            index.remove(id);
        }
        assert!(index.is_empty());
        assert_eq!(index.min_comm_candidate(all), None);
        assert_eq!(
            index.max_comm_candidate_within(all, Time::units_int(10)),
            None
        );
        assert_eq!(
            index.best_ratio_candidate_within(all, Time::units_int(10)),
            None
        );
    }

    #[test]
    #[should_panic(expected = "removed twice")]
    fn double_removal_panics() {
        let inst = table4();
        let mut index = CandidateIndex::new(&inst);
        index.remove(TaskId(2));
        index.remove(TaskId(2));
    }

    #[test]
    fn blocked_champions_resolve_to_the_best_fitting_task() {
        // Ratios strictly decrease with id while memory alternates
        // huge/small, so under a small memory threshold the champion of
        // every run is blocked and the query must resolve runs exactly
        // instead of trusting their champions.
        let mut builder = crate::instance::InstanceBuilder::new().capacity(MemSize::from_bytes(50));
        for i in 0..9u64 {
            let mem = if i % 2 == 0 { 50 } else { 1 };
            // Alternate two communication times so several runs exist.
            builder = builder.task_units(
                &format!("t{i}"),
                (2 + (i % 2)) as f64,
                (36 - 2 * i) as f64,
                mem,
            );
        }
        let mut index = CandidateIndex::new(&builder.build().unwrap());
        let bound = Time::units_int(3);
        // Everything fits: the global champion (t0) wins outright.
        assert_eq!(
            index.best_ratio_candidate_within(MemSize::from_bytes(50), bound),
            Some(TaskId(0))
        );
        // Only the odd ids fit one byte; the best of those is t1.
        let one = MemSize::from_bytes(1);
        assert_eq!(
            index.best_ratio_candidate_within(one, bound),
            Some(TaskId(1))
        );
        // Restricting to comm == 3 (the odd ids' run) keeps t1 on top;
        // comm == 2 holds no fitting task at all.
        assert_eq!(
            index.best_ratio_candidate_at(one, Time::units_int(3)),
            Some(TaskId(1))
        );
        assert_eq!(index.best_ratio_candidate_at(one, Time::units_int(2)), None);
        // Removing t1 hands the query to the next fitting task down.
        index.remove(TaskId(1));
        assert_eq!(
            index.best_ratio_candidate_within(one, bound),
            Some(TaskId(3))
        );
    }

    #[test]
    fn continuous_comm_with_blocked_champions_agrees_with_a_scan() {
        // The bucketed-search regression domain: every communication time
        // is distinct (one run per task, so runs ≈ buckets² and every
        // query crosses bucket boundaries), ratios strictly decrease with
        // id, and memory alternates huge/tiny — under a tiny threshold
        // every champion on the way down is blocked. Each bound is checked
        // against a naive scan so partially covered boundary buckets,
        // whole-bucket outer searches and exact bucket resolutions all
        // agree, before and after removals.
        let n = 40u64;
        let mut builder =
            crate::instance::InstanceBuilder::new().capacity(MemSize::from_bytes(500));
        for i in 0..n {
            let mem = if i % 2 == 0 { 500 } else { 1 };
            // ratio = comp/comm = n - i, strictly decreasing in id.
            builder = builder.task_units(
                &format!("t{i}"),
                (i + 1) as f64,
                ((i + 1) * (n - i)) as f64,
                mem,
            );
        }
        let instance = builder.build().unwrap();
        let mut index = CandidateIndex::new(&instance);
        // The best present task under `free` whose communication time is at
        // most `bound`, or exactly `bound` when `exact`.
        let naive =
            |index: &CandidateIndex, free: u64, bound: u64, exact: bool| -> Option<TaskId> {
                let bound = Time::units_int(bound);
                (0..n as usize)
                    .filter(|&i| index.contains(TaskId(i)))
                    .map(|i| (i, instance.task(TaskId(i))))
                    .filter(|(_, t)| {
                        t.mem <= MemSize::from_bytes(free)
                            && (t.comm_time == bound || (!exact && t.comm_time < bound))
                    })
                    .min_by(|(a_id, a), (b_id, b)| {
                        b.acceleration_ratio()
                            .partial_cmp(&a.acceleration_ratio())
                            .expect("ratios are never NaN")
                            .then(a_id.cmp(b_id))
                    })
                    .map(|(i, _)| TaskId(i))
            };
        for round in 0..3 {
            for bound in 0..=n + 1 {
                for free in [0, 1, 500] {
                    let (mem, comm) = (MemSize::from_bytes(free), Time::units_int(bound));
                    assert_eq!(
                        index.best_ratio_candidate_within(mem, comm),
                        naive(&index, free, bound, false),
                        "within: round {round} free {free} bound {bound}"
                    );
                    // A single-run range, which mostly starts mid-bucket.
                    assert_eq!(
                        index.best_ratio_candidate_at(mem, comm),
                        naive(&index, free, bound, true),
                        "at: round {round} free {free} comm {bound}"
                    );
                }
            }
            // Knock out the heads of the tiny-memory chain between rounds.
            index.remove(TaskId(2 * round + 1));
        }
    }

    #[test]
    fn removing_a_one_task_bucket_updates_the_outer_tree() {
        // Thirteen distinct communication times make buckets of 4, 4, 4
        // and 1 runs. The last bucket's only task has the best ratio, so
        // its leaf is also its bucket's root: removing it must still
        // reach the outer tree, whose root would otherwise keep naming it.
        let mut builder = crate::instance::InstanceBuilder::new().capacity(MemSize::from_bytes(1));
        for i in 1..=13u64 {
            // ratio = comp / comm = i
            builder = builder.task_units(&format!("t{i}"), i as f64, (i * i) as f64, 1);
        }
        let instance = builder.build().unwrap();
        let (free, bound) = (MemSize::from_bytes(1), Time::units_int(13));
        for keep in [true, false] {
            let mut index = CandidateIndex::with_stage_one(&instance, keep);
            assert_eq!(
                index.best_ratio_candidate_within(free, bound),
                Some(TaskId(12))
            );
            index.remove(TaskId(12));
            assert_eq!(
                index.best_ratio_candidate_within(free, bound),
                Some(TaskId(11)),
                "stage one kept: {keep}"
            );
        }
    }

    #[test]
    fn ties_prefer_the_smallest_id() {
        // Three tasks with identical comm times and ratios: every query must
        // resolve ties toward the smallest id among those that fit.
        let inst = crate::instance::InstanceBuilder::new()
            .capacity(MemSize::from_bytes(10))
            .task_units("t0", 2.0, 4.0, 8)
            .task_units("t1", 2.0, 4.0, 2)
            .task_units("t2", 2.0, 4.0, 2)
            .build()
            .unwrap();
        let index = CandidateIndex::new(&inst);
        let bound = Time::units_int(2);
        let all = MemSize::from_bytes(10);
        assert_eq!(index.min_comm_candidate(all), Some(TaskId(0)));
        assert_eq!(index.max_comm_candidate_within(all, bound), Some(TaskId(0)));
        assert_eq!(
            index.best_ratio_candidate_within(all, bound),
            Some(TaskId(0))
        );
        // Exclude t0 by memory: the tie now resolves to t1.
        let small = MemSize::from_bytes(2);
        assert_eq!(index.min_comm_candidate(small), Some(TaskId(1)));
        assert_eq!(
            index.max_comm_candidate_within(small, bound),
            Some(TaskId(1))
        );
        assert_eq!(
            index.best_ratio_candidate_within(small, bound),
            Some(TaskId(1))
        );
        assert_eq!(index.best_ratio_candidate_at(small, bound), Some(TaskId(1)));
    }
}
