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
//! the distinct communication times — and in O(log n) whenever the
//! best-ratio fitting task is not blocked behind the communication bound,
//! the common case (see
//! [`best_ratio_candidate_within`](CandidateIndex::best_ratio_candidate_within)
//! for the exact bound). It keeps the tasks of an instance sorted by
//! `(communication time, id)` and maintains three structures over that
//! order:
//!
//! * a **min-memory segment tree**: each node stores the smallest memory
//!   requirement among its still-present tasks, which lets directed descents
//!   find the leftmost/rightmost fitting task of any communication-time
//!   range in O(log n);
//! * a **memory-order ratio tree**: a segment tree whose leaves are the
//!   tasks sorted by `(memory, position)`, aggregating the best present
//!   `(acceleration ratio, id)` pair. A memory threshold is a *canonical
//!   prefix* of this order, so "best ratio among all fitting tasks" is a
//!   plain prefix-maximum query — O(log n) worst case, no search;
//! * a **block-priority ratio tree**: the communication order splits into
//!   runs of equal communication time, and every communication-time bound
//!   cuts exactly at a run boundary. Each run keeps its own small
//!   memory-sorted prefix-maximum tree, consecutive runs group into
//!   ⌈√m⌉-wide *buckets* (m the run count) that each keep a second
//!   memory-sorted prefix-maximum tree over all their tasks, and an outer
//!   tree over the buckets stores each subtree's *champion* — its best
//!   present `(ratio, id)` — heap-ordered down every root path like a
//!   priority search tree over `(memory, ratio)`. A run-aligned range is
//!   searched champion-first through the outer tree: a champion that fits
//!   in memory dominates its whole subtree and is taken without
//!   descending, a blocked bucket resolves *exactly* via its own
//!   prefix-maximum tree, and the at most two partially covered boundary
//!   buckets resolve run by run via the per-run trees. Memory-blocked
//!   high-ratio tasks therefore cost at most O(√m) exact O(log n) probes
//!   per query — not one probe per distinct communication time, which
//!   degenerated to a linear scan on continuous-communication traces
//!   under memory pressure.
//!
//! All structures store O(1) words per task slot (the runs partition the
//! tasks and so do the buckets), so the index takes O(n) memory and
//! O(log n) per update, where the previous merge-sort ratio tree paid
//! O(n log n) memory and O(log² n) per update; construction is O(n)
//! beyond its sorts.
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

use crate::instance::Instance;
use crate::memory::MemSize;
use crate::task::{Task, TaskId};
use crate::time::Time;

/// Aggregate of the ratio trees: the best `(acceleration ratio, id)` pair
/// of a set of tasks, where "best" is the largest ratio and ties prefer
/// the smallest id — exactly the MAMR/OOMAMR choice rule.
/// [`Time::ratio`] never produces NaN, so `f64` comparisons are total here.
type RatioBest = (f64, u32);

/// Neutral element of [`RatioBest`]: worse than every real task (real ratios
/// are non-negative) and losing every id tie.
const RATIO_NEUTRAL: RatioBest = (f64::NEG_INFINITY, u32::MAX);

/// `true` iff `a` is a strictly better MAMR choice than `b` (larger ratio,
/// or the same ratio with a smaller id).
#[inline]
fn key_beats(a: RatioBest, b: RatioBest) -> bool {
    a.0 > b.0 || (a.0 == b.0 && a.1 < b.1)
}

#[inline]
fn key_combine(a: RatioBest, b: RatioBest) -> RatioBest {
    if key_beats(b, a) {
        b
    } else {
        a
    }
}

/// Sentinel stored in the min-memory trees for removed tasks and padding
/// leaves. `u128` so that it compares above every real memory requirement,
/// including a legitimate `u64::MAX`-byte task.
const MEM_ABSENT: u128 = u128::MAX;

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

/// Standard iterative prefix-maximum over a key segment tree with `size`
/// leaves (stored in `tree[size..2 size]`): the best key among the first
/// `k` leaves. Shared by the global memory-order tree and every per-run
/// and per-bucket tree.
fn prefix_best(tree: &[RatioBest], size: usize, k: usize) -> RatioBest {
    let mut best = RATIO_NEUTRAL;
    let (mut l, mut r) = (size, size + k);
    while l < r {
        if l & 1 == 1 {
            best = key_combine(best, tree[l]);
            l += 1;
        }
        if r & 1 == 1 {
            r -= 1;
            best = key_combine(best, tree[r]);
        }
        l >>= 1;
        r >>= 1;
    }
    best
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
/// [`comm_only`](CandidateIndex::comm_only), which skips the two ratio
/// trees and the per-task acceleration ratios entirely.
#[derive(Debug, Clone)]
pub struct CandidateIndex {
    /// Communication time at each position of the `(comm, id)` order
    /// (non-decreasing; includes removed tasks — positions are static).
    comm: Vec<Time>,
    /// Task id at each position.
    id_at: Vec<TaskId>,
    /// Memory requirement at each position.
    mem: Vec<u64>,
    /// Position of each task id.
    pos_of: Vec<u32>,
    /// Which positions still hold a task.
    present: Vec<bool>,
    /// Number of tasks still present.
    len: usize,
    /// Leaf offset of the min-memory and memory-order trees
    /// (`next_power_of_two` of the task count).
    base: usize,
    /// Min-memory segment tree over positions (`2 * base` slots).
    min_mem: Vec<u128>,
    /// Memory-order ratio tree, indexed like `min_mem`: leaf `r` holds the
    /// key of the task at rank `r` of the `(memory, position)` order
    /// (empty for [`comm_only`](CandidateIndex::comm_only) indexes, like
    /// every other ratio-machinery field below).
    mem_tree: Vec<RatioBest>,
    /// Memory requirement at each rank of the `(memory, position)` order
    /// (non-decreasing; a free-memory threshold maps to a prefix of it).
    mem_sorted: Vec<u64>,
    /// Rank of each position in the `(memory, position)` order.
    mem_rank_of: Vec<u32>,
    /// Equal-communication-time run containing each position.
    block_of_pos: Vec<u32>,
    /// First position of each run (`m + 1` entries, last one `n`).
    block_start: Vec<u32>,
    /// Rank of each position within its run's `(memory, position)` order.
    rank_in_block: Vec<u32>,
    /// Per-run sorted memory requirements, concatenated; run `b` owns
    /// `block_start[b]..block_start[b + 1]`.
    block_mem_sorted: Vec<u64>,
    /// Per-run prefix-maximum trees over the per-run memory order,
    /// concatenated; run `b` (size `s`) owns the `2 s` slots starting at
    /// `2 * block_start[b]`, leaves in the upper half.
    block_keys: Vec<RatioBest>,
    /// Per-run min-memory trees with the same layout as `block_keys`.
    block_min_mem: Vec<u128>,
    /// Bucket containing each run: consecutive runs group into ⌈√m⌉-wide
    /// buckets so a memory-blocked query resolves in O(√m · log n) probes
    /// worst case instead of one probe per run.
    bucket_of_block: Vec<u32>,
    /// First run of each bucket (`g + 1` entries, last one `m`).
    bucket_start_block: Vec<u32>,
    /// Rank of each position within its bucket's `(memory, position)`
    /// order.
    rank_in_bucket: Vec<u32>,
    /// Per-bucket sorted memory requirements, concatenated; bucket `g`
    /// owns the positions of [`bucket_pos_range`](Self::bucket_pos_range).
    bucket_mem_sorted: Vec<u64>,
    /// Per-bucket prefix-maximum trees over the per-bucket memory order,
    /// laid out like `block_keys` (the buckets also partition the tasks,
    /// so these pack into exactly 2n slots); each root feeds the outer
    /// tree's key leaf.
    bucket_keys: Vec<RatioBest>,
    /// Per-bucket min-memory trees with the same layout as `bucket_keys`;
    /// each root feeds the outer tree's min-memory leaf.
    bucket_min_mem: Vec<u128>,
    /// Leaf offset of the outer trees (`next_power_of_two` of the bucket
    /// count).
    outer_base: usize,
    /// Outer champion tree over the buckets: each node stores the best
    /// present key of its bucket range (leaf `g` mirrors bucket `g`'s
    /// root).
    outer_keys: Vec<RatioBest>,
    /// Outer min-memory tree over the buckets, indexed like `outer_keys`.
    outer_min_mem: Vec<u128>,
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
    /// ratio trees behind
    /// [`best_ratio_candidate_within`](CandidateIndex::best_ratio_candidate_within).
    ///
    /// # Panics
    ///
    /// Panics if the instance has more than `u32::MAX` tasks (positions and
    /// ids are stored as `u32`; such an instance could not be scheduled in
    /// memory anyway).
    pub fn new(instance: &Instance) -> Self {
        Self::build(instance, true)
    }

    /// Builds the index without the ratio trees or the per-task
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
        Self::build(instance, false)
    }

    fn build(instance: &Instance, with_ratio_trees: bool) -> Self {
        let n = instance.len();
        assert!(
            u32::try_from(n).is_ok(),
            "CandidateIndex supports at most u32::MAX tasks"
        );
        let tasks = instance.tasks();
        let order = comm_order(tasks);

        let mut comm = Vec::with_capacity(n);
        let mut id_at = Vec::with_capacity(n);
        let mut mem = Vec::with_capacity(n);
        let mut pos_of = vec![0u32; n];
        for (pos, &i) in order.iter().enumerate() {
            let task = &tasks[i as usize];
            comm.push(task.comm_time);
            id_at.push(TaskId(i as usize));
            mem.push(task.mem.bytes());
            pos_of[i as usize] = pos as u32;
        }

        let base = n.next_power_of_two().max(1);
        let mut min_mem = vec![MEM_ABSENT; 2 * base];
        for (pos, &m) in mem.iter().enumerate() {
            min_mem[base + pos] = u128::from(m);
        }
        for i in (1..base).rev() {
            min_mem[i] = min_mem[2 * i].min(min_mem[2 * i + 1]);
        }

        let mut index = CandidateIndex {
            comm,
            id_at,
            mem,
            pos_of,
            present: vec![true; n],
            len: n,
            base,
            min_mem,
            mem_tree: Vec::new(),
            mem_sorted: Vec::new(),
            mem_rank_of: Vec::new(),
            block_of_pos: Vec::new(),
            block_start: Vec::new(),
            rank_in_block: Vec::new(),
            block_mem_sorted: Vec::new(),
            block_keys: Vec::new(),
            block_min_mem: Vec::new(),
            bucket_of_block: Vec::new(),
            bucket_start_block: Vec::new(),
            rank_in_bucket: Vec::new(),
            bucket_mem_sorted: Vec::new(),
            bucket_keys: Vec::new(),
            bucket_min_mem: Vec::new(),
            outer_base: 0,
            outer_keys: Vec::new(),
            outer_min_mem: Vec::new(),
        };
        if with_ratio_trees {
            index.build_ratio_trees(instance);
        }
        index
    }

    /// Builds the ratio machinery: the memory-order tree, the per-run
    /// trees and the outer champion tree. O(n) beyond the
    /// `(memory, position)` sorts.
    fn build_ratio_trees(&mut self, instance: &Instance) {
        let n = self.comm.len();
        let base = self.base;
        let ratio: Vec<f64> = self
            .id_at
            .iter()
            .map(|&id| instance.task(id).acceleration_ratio())
            .collect();
        let key_of = |pos: usize| -> RatioBest { (ratio[pos], self.id_at[pos].index() as u32) };

        // Memory-order tree: leaves follow the global (memory, position)
        // sort so a free-memory threshold is a canonical prefix.
        let mut by_mem: Vec<u32> = (0..n as u32).collect();
        by_mem.sort_unstable_by_key(|&pos| (self.mem[pos as usize], pos));
        self.mem_sorted = Vec::with_capacity(n);
        self.mem_rank_of = vec![0u32; n];
        self.mem_tree = vec![RATIO_NEUTRAL; 2 * base];
        for (rank, &pos) in by_mem.iter().enumerate() {
            self.mem_sorted.push(self.mem[pos as usize]);
            self.mem_rank_of[pos as usize] = rank as u32;
            self.mem_tree[base + rank] = key_of(pos as usize);
        }
        for i in (1..base).rev() {
            self.mem_tree[i] = key_combine(self.mem_tree[2 * i], self.mem_tree[2 * i + 1]);
        }

        // Equal-communication runs. The (comm, id) order makes them
        // contiguous, and every communication bound cuts at a run boundary.
        self.block_of_pos = vec![0u32; n];
        self.block_start = vec![0u32];
        for pos in 0..n {
            if pos > 0 && self.comm[pos] != self.comm[pos - 1] {
                self.block_start.push(pos as u32);
            }
            self.block_of_pos[pos] = (self.block_start.len() - 1) as u32;
        }
        self.block_start.push(n as u32);
        let m = self.block_start.len() - 1;

        // Per-run memory-sorted prefix-maximum trees, flat: run `b` of
        // size `s` owns slots `2 * block_start[b] ..` (2s of them, leaves
        // in the upper half) — the runs partition the tasks, so the trees
        // pack into exactly 2n slots.
        self.rank_in_block = vec![0u32; n];
        self.block_mem_sorted = vec![0u64; n];
        self.block_keys = vec![RATIO_NEUTRAL; 2 * n];
        self.block_min_mem = vec![MEM_ABSENT; 2 * n];
        for b in 0..m {
            let (start, end) = (
                self.block_start[b] as usize,
                self.block_start[b + 1] as usize,
            );
            let s = end - start;
            let mut run: Vec<u32> = (start as u32..end as u32).collect();
            run.sort_unstable_by_key(|&pos| (self.mem[pos as usize], pos));
            let off = 2 * start;
            for (r, &pos) in run.iter().enumerate() {
                self.rank_in_block[pos as usize] = r as u32;
                self.block_mem_sorted[start + r] = self.mem[pos as usize];
                self.block_keys[off + s + r] = key_of(pos as usize);
                self.block_min_mem[off + s + r] = u128::from(self.mem[pos as usize]);
            }
            for i in (1..s).rev() {
                self.block_keys[off + i] = key_combine(
                    self.block_keys[off + 2 * i],
                    self.block_keys[off + 2 * i + 1],
                );
                self.block_min_mem[off + i] =
                    self.block_min_mem[off + 2 * i].min(self.block_min_mem[off + 2 * i + 1]);
            }
        }

        // ⌈√m⌉-wide buckets of consecutive runs. Communication bounds cut
        // at run boundaries, so a query covers at most two buckets
        // partially; everything between is whole buckets for the outer
        // tree.
        let runs_per_bucket = isqrt_ceil(m);
        self.bucket_of_block = vec![0u32; m];
        self.bucket_start_block = Vec::with_capacity(m / runs_per_bucket + 2);
        for b in 0..m {
            if b % runs_per_bucket == 0 {
                self.bucket_start_block.push(b as u32);
            }
            self.bucket_of_block[b] = (self.bucket_start_block.len() - 1) as u32;
        }
        self.bucket_start_block.push(m as u32);
        let g_count = self.bucket_start_block.len() - 1;

        // Per-bucket memory-sorted prefix-maximum trees, flat like the
        // per-run ones: bucket `g` of `s` positions owns 2s slots starting
        // at twice its first position — the buckets partition the tasks,
        // so the trees pack into exactly 2n slots again.
        self.rank_in_bucket = vec![0u32; n];
        self.bucket_mem_sorted = vec![0u64; n];
        self.bucket_keys = vec![RATIO_NEUTRAL; 2 * n];
        self.bucket_min_mem = vec![MEM_ABSENT; 2 * n];
        for g in 0..g_count {
            let (start, end) = self.bucket_pos_range(g);
            let s = end - start;
            let mut span: Vec<u32> = (start as u32..end as u32).collect();
            span.sort_unstable_by_key(|&pos| (self.mem[pos as usize], pos));
            let off = 2 * start;
            for (r, &pos) in span.iter().enumerate() {
                self.rank_in_bucket[pos as usize] = r as u32;
                self.bucket_mem_sorted[start + r] = self.mem[pos as usize];
                self.bucket_keys[off + s + r] = key_of(pos as usize);
                self.bucket_min_mem[off + s + r] = u128::from(self.mem[pos as usize]);
            }
            for i in (1..s).rev() {
                self.bucket_keys[off + i] = key_combine(
                    self.bucket_keys[off + 2 * i],
                    self.bucket_keys[off + 2 * i + 1],
                );
                self.bucket_min_mem[off + i] =
                    self.bucket_min_mem[off + 2 * i].min(self.bucket_min_mem[off + 2 * i + 1]);
            }
        }

        // Outer trees over the buckets; leaf `g` mirrors bucket `g`'s root.
        self.outer_base = g_count.next_power_of_two().max(1);
        self.outer_keys = vec![RATIO_NEUTRAL; 2 * self.outer_base];
        self.outer_min_mem = vec![MEM_ABSENT; 2 * self.outer_base];
        for g in 0..g_count {
            self.outer_keys[self.outer_base + g] = self.bucket_root_key(g);
            self.outer_min_mem[self.outer_base + g] = self.bucket_root_min_mem(g);
        }
        for i in (1..self.outer_base).rev() {
            self.outer_keys[i] = key_combine(self.outer_keys[2 * i], self.outer_keys[2 * i + 1]);
            self.outer_min_mem[i] = self.outer_min_mem[2 * i].min(self.outer_min_mem[2 * i + 1]);
        }
    }

    /// Root aggregate of run `b`'s key tree (its best present key). Local
    /// index 1 is the root for every run size — a size-1 run stores its
    /// single leaf there.
    #[inline]
    fn block_root_key(&self, b: usize) -> RatioBest {
        self.block_keys[2 * self.block_start[b] as usize + 1]
    }

    /// Root aggregate of run `b`'s min-memory tree.
    #[inline]
    fn block_root_min_mem(&self, b: usize) -> u128 {
        self.block_min_mem[2 * self.block_start[b] as usize + 1]
    }

    /// The position range `[start, end)` bucket `g` covers.
    #[inline]
    fn bucket_pos_range(&self, g: usize) -> (usize, usize) {
        (
            self.block_start[self.bucket_start_block[g] as usize] as usize,
            self.block_start[self.bucket_start_block[g + 1] as usize] as usize,
        )
    }

    /// Root aggregate of bucket `g`'s key tree (its best present key).
    #[inline]
    fn bucket_root_key(&self, g: usize) -> RatioBest {
        self.bucket_keys[2 * self.bucket_pos_range(g).0 + 1]
    }

    /// Root aggregate of bucket `g`'s min-memory tree.
    #[inline]
    fn bucket_root_min_mem(&self, g: usize) -> u128 {
        self.bucket_min_mem[2 * self.bucket_pos_range(g).0 + 1]
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
    /// re-aggregates every tree along the root paths of its leaves.
    /// O(log n).
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
            self.min_mem[i] = self.min_mem[2 * i].min(self.min_mem[2 * i + 1]);
        }
        if self.mem_tree.is_empty() {
            return;
        }

        // Memory-order tree.
        let mut i = self.base + self.mem_rank_of[pos] as usize;
        self.mem_tree[i] = RATIO_NEUTRAL;
        while i > 1 {
            i >>= 1;
            self.mem_tree[i] = key_combine(self.mem_tree[2 * i], self.mem_tree[2 * i + 1]);
        }

        // The position's run, then its bucket, then the outer trees above.
        let b = self.block_of_pos[pos] as usize;
        let start = self.block_start[b] as usize;
        let s = self.block_start[b + 1] as usize - start;
        let off = 2 * start;
        let mut i = s + self.rank_in_block[pos] as usize;
        self.block_keys[off + i] = RATIO_NEUTRAL;
        self.block_min_mem[off + i] = MEM_ABSENT;
        while i > 1 {
            i >>= 1;
            self.block_keys[off + i] = key_combine(
                self.block_keys[off + 2 * i],
                self.block_keys[off + 2 * i + 1],
            );
            self.block_min_mem[off + i] =
                self.block_min_mem[off + 2 * i].min(self.block_min_mem[off + 2 * i + 1]);
        }
        let g = self.bucket_of_block[b] as usize;
        let (gstart, gend) = self.bucket_pos_range(g);
        let s = gend - gstart;
        let off = 2 * gstart;
        let mut i = s + self.rank_in_bucket[pos] as usize;
        self.bucket_keys[off + i] = RATIO_NEUTRAL;
        self.bucket_min_mem[off + i] = MEM_ABSENT;
        while i > 1 {
            i >>= 1;
            self.bucket_keys[off + i] = key_combine(
                self.bucket_keys[off + 2 * i],
                self.bucket_keys[off + 2 * i + 1],
            );
            self.bucket_min_mem[off + i] =
                self.bucket_min_mem[off + 2 * i].min(self.bucket_min_mem[off + 2 * i + 1]);
        }
        let mut i = self.outer_base + g;
        self.outer_keys[i] = self.bucket_root_key(g);
        self.outer_min_mem[i] = self.bucket_root_min_mem(g);
        while i > 1 {
            i >>= 1;
            self.outer_keys[i] = key_combine(self.outer_keys[2 * i], self.outer_keys[2 * i + 1]);
            self.outer_min_mem[i] = self.outer_min_mem[2 * i].min(self.outer_min_mem[2 * i + 1]);
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
        let lo_block = self.comm.partition_point(|&x| x < c);
        // The block contains at least the fitting task just found at
        // `pos`, so falling back to `pos` is correct even if the scan
        // were ever to miss.
        let leftmost = self
            .leftmost_fitting(lo_block, pos + 1, limit)
            .unwrap_or(pos);
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
    /// The query runs in two stages. First, a prefix-maximum probe of the
    /// memory-order ratio tree yields the best-ratio fitting task with the
    /// communication bound ignored — whenever that winner also satisfies
    /// the bound (every decision where the processing-unit backlog covers
    /// the candidates' communication times), it dominates the constrained
    /// set and is returned after two O(log n) probes. Otherwise the range
    /// of equal-communication runs under the bound — whole ⌈√m⌉-run
    /// buckets plus at most two partially covered boundary buckets — is
    /// searched champion-first: a champion that fits is taken without
    /// descending, a subtree with no fitting present task is skipped
    /// (outer min-memory pruning), a bucket whose champion is
    /// memory-blocked resolves exactly via its own prefix-maximum tree,
    /// and the boundary buckets resolve their covered runs one at a time
    /// the same way. Worst case that is O(√m · log n) with `m` the number
    /// of distinct communication times — bounded even on
    /// continuous-communication traces under memory pressure, where the
    /// previous run-granular search paid one probe per distinct
    /// communication time and degenerated to a linear scan.
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
    /// Same staging and complexity as
    /// [`best_ratio_candidate_within`](CandidateIndex::best_ratio_candidate_within).
    ///
    /// # Panics
    ///
    /// Panics if the index was built with
    /// [`comm_only`](CandidateIndex::comm_only).
    pub fn best_ratio_candidate_at(&self, free: MemSize, comm: Time) -> Option<TaskId> {
        let lo = self.comm.partition_point(|&c| c < comm);
        let hi = self.comm.partition_point(|&c| c <= comm);
        self.best_ratio_in_range(free, lo, hi)
    }

    /// The two-stage ratio query over the position range `[lo, hi)`, which
    /// is always aligned to equal-communication run boundaries.
    fn best_ratio_in_range(&self, free: MemSize, lo: usize, hi: usize) -> Option<TaskId> {
        assert!(
            !self.mem_tree.is_empty(),
            "ratio query on an index built with CandidateIndex::comm_only"
        );
        if lo >= hi {
            return None;
        }
        let free = free.bytes();
        // Stage 1: the best fitting task regardless of communication time.
        // If it lands in the queried range it dominates the whole query
        // set; if nothing fits at all, the constrained set is empty too.
        let k = self.mem_sorted.partition_point(|&m| m <= free);
        let unconstrained = self.mem_prefix_best(k);
        if unconstrained == RATIO_NEUTRAL {
            return None;
        }
        let winner_pos = self.pos_of[unconstrained.1 as usize] as usize;
        if (lo..hi).contains(&winner_pos) {
            return Some(TaskId(unconstrained.1 as usize));
        }
        // Stage 2: the winner lies outside the range; search the runs of
        // the range. The range is run-aligned, so it decomposes into a
        // (possibly empty) span of whole buckets plus at most two
        // partially covered boundary buckets. The whole buckets go
        // champion-first through the outer tree (canonical decomposition
        // below: at most one node per side per level, so the fixed stack
        // suffices, cf. `directed_search`); the boundary buckets resolve
        // their at most ⌈√m⌉ covered runs each one run at a time.
        let limit = u128::from(free);
        let blo = self.block_of_pos[lo] as usize;
        let bhi = self.block_of_pos[hi - 1] as usize + 1;
        let glo = self.bucket_of_block[blo] as usize;
        let ghi = self.bucket_of_block[bhi - 1] as usize;
        let gfull_lo = if blo == self.bucket_start_block[glo] as usize {
            glo
        } else {
            glo + 1
        };
        let gfull_hi = if bhi == self.bucket_start_block[ghi + 1] as usize {
            ghi + 1
        } else {
            ghi
        };
        let mut best = RATIO_NEUTRAL;
        if gfull_lo < gfull_hi {
            let mut nodes = [0usize; 64];
            let mut n_nodes = 0;
            let (mut l, mut r) = (self.outer_base + gfull_lo, self.outer_base + gfull_hi);
            while l < r {
                if l & 1 == 1 {
                    nodes[n_nodes] = l;
                    n_nodes += 1;
                    l += 1;
                }
                if r & 1 == 1 {
                    r -= 1;
                    nodes[n_nodes] = r;
                    n_nodes += 1;
                }
                l >>= 1;
                r >>= 1;
            }
            for &node in &nodes[..n_nodes] {
                self.outer_search(node, limit, free, &mut best);
            }
        }
        for g in [glo, ghi] {
            if g >= gfull_lo && g < gfull_hi {
                // Fully covered: the outer search above handled it.
                continue;
            }
            let run_lo = blo.max(self.bucket_start_block[g] as usize);
            let run_hi = bhi.min(self.bucket_start_block[g + 1] as usize);
            for b in run_lo..run_hi {
                self.run_search(b, limit, free, &mut best);
            }
            if glo == ghi {
                break;
            }
        }
        (best != RATIO_NEUTRAL).then_some(TaskId(best.1 as usize))
    }

    /// Champion-first search of one outer subtree, tightening `best` in
    /// place: skips subtrees with no fitting present task or whose champion
    /// cannot out-rank `best`, accepts a fitting champion without
    /// descending, and resolves a memory-blocked bucket exactly via the
    /// bucket's prefix-maximum tree.
    fn outer_search(&self, node: usize, limit: u128, free: u64, best: &mut RatioBest) {
        // No present task of the subtree fits in the free memory…
        if self.outer_min_mem[node] > limit {
            return;
        }
        let champ = self.outer_keys[node];
        // …or even its best-ranked task would lose to the current best.
        if !key_beats(champ, *best) {
            return;
        }
        if self.mem[self.pos_of[champ.1 as usize] as usize] <= free {
            // The champion fits and dominates its whole subtree.
            *best = champ;
            return;
        }
        if node >= self.outer_base {
            // A bucket whose champion is memory-blocked: resolve it
            // exactly.
            let key = self.bucket_best(node - self.outer_base, free);
            if key_beats(key, *best) {
                *best = key;
            }
            return;
        }
        let (a, b) = (2 * node, 2 * node + 1);
        // Search the better-ranked child first so the second is usually
        // pruned by the tightened `best`.
        let (first, second) = if key_beats(self.outer_keys[b], self.outer_keys[a]) {
            (b, a)
        } else {
            (a, b)
        };
        self.outer_search(first, limit, free, best);
        self.outer_search(second, limit, free, best);
    }

    /// Champion check of one equal-communication run, tightening `best` in
    /// place — the boundary-bucket counterpart of
    /// [`outer_search`](Self::outer_search)'s leaf case: skip a run with
    /// no fitting present task or an out-ranked champion, take a fitting
    /// champion outright, resolve a memory-blocked one exactly via the
    /// run's prefix-maximum tree.
    fn run_search(&self, b: usize, limit: u128, free: u64, best: &mut RatioBest) {
        if self.block_root_min_mem(b) > limit {
            return;
        }
        let champ = self.block_root_key(b);
        if !key_beats(champ, *best) {
            return;
        }
        if self.mem[self.pos_of[champ.1 as usize] as usize] <= free {
            *best = champ;
            return;
        }
        let key = self.block_best(b, free);
        if key_beats(key, *best) {
            *best = key;
        }
    }

    /// Best present key among the tasks of run `b` with memory requirement
    /// at most `free`: a prefix-maximum over the run's memory-sorted
    /// leaves. O(log of the run size), worst case — the memory threshold
    /// is a canonical prefix of the run's leaf order.
    fn block_best(&self, b: usize, free: u64) -> RatioBest {
        let start = self.block_start[b] as usize;
        let s = self.block_start[b + 1] as usize - start;
        let k = self.block_mem_sorted[start..start + s].partition_point(|&m| m <= free);
        prefix_best(&self.block_keys[2 * start..], s, k)
    }

    /// Best present key among the tasks of bucket `g` with memory
    /// requirement at most `free`: a prefix-maximum over the bucket's
    /// memory-sorted leaves. O(log of the bucket size), worst case.
    fn bucket_best(&self, g: usize, free: u64) -> RatioBest {
        let (start, end) = self.bucket_pos_range(g);
        let s = end - start;
        let k = self.bucket_mem_sorted[start..end].partition_point(|&m| m <= free);
        prefix_best(&self.bucket_keys[2 * start..], s, k)
    }

    /// Best present key among the first `k` ranks of the global
    /// `(memory, position)` order — the fitting tasks under a memory
    /// threshold, communication bound ignored.
    fn mem_prefix_best(&self, k: usize) -> RatioBest {
        prefix_best(&self.mem_tree, self.base, k)
    }

    /// Leftmost position in `[lo, hi)` whose present task needs at most
    /// `limit` bytes.
    fn leftmost_fitting(&self, lo: usize, hi: usize, limit: u128) -> Option<usize> {
        self.directed_search(lo, hi, limit, false)
    }

    /// Rightmost position in `[0, hi)` whose present task needs at most
    /// `limit` bytes.
    fn rightmost_fitting(&self, hi: usize, limit: u128) -> Option<usize> {
        self.directed_search(0, hi, limit, true)
    }

    /// Finds the extremal fitting position of `[lo, hi)`: decomposes the
    /// range into O(log n) tree nodes, takes the first (in the requested
    /// direction) containing a fitting task, and descends into it. The
    /// decomposition pushes at most one node per side per tree level, so
    /// fixed 64-entry stacks hold it without touching the heap — this runs
    /// up to twice per scheduling decision.
    fn directed_search(&self, lo: usize, hi: usize, limit: u128, rightmost: bool) -> Option<usize> {
        let mut left_nodes = [0usize; 64];
        let mut n_left = 0;
        let mut right_nodes = [0usize; 64];
        let mut n_right = 0;
        let (mut l, mut r) = (self.base + lo, self.base + hi);
        while l < r {
            if l & 1 == 1 {
                left_nodes[n_left] = l;
                n_left += 1;
                l += 1;
            }
            if r & 1 == 1 {
                r -= 1;
                right_nodes[n_right] = r;
                n_right += 1;
            }
            l >>= 1;
            r >>= 1;
        }
        // `left_nodes` followed by reversed `right_nodes` is the in-order
        // decomposition; scan it from the requested end (`right_nodes` is
        // pushed deepest-first, i.e. already rightmost-first).
        let pick = if rightmost {
            right_nodes[..n_right]
                .iter()
                .chain(left_nodes[..n_left].iter().rev())
                .copied()
                .find(|&i| self.min_mem[i] <= limit)
        } else {
            left_nodes[..n_left]
                .iter()
                .chain(right_nodes[..n_right].iter().rev())
                .copied()
                .find(|&i| self.min_mem[i] <= limit)
        };
        let mut i = pick?;
        while i < self.base {
            let (first, second) = if rightmost {
                (2 * i + 1, 2 * i)
            } else {
                (2 * i, 2 * i + 1)
            };
            i = if self.min_mem[first] <= limit {
                first
            } else {
                second
            };
        }
        Some(i - self.base)
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
        let naive = |index: &CandidateIndex, free: u64, bound: u64| -> Option<TaskId> {
            (0..n as usize)
                .filter(|&i| index.contains(TaskId(i)))
                .map(|i| (i, instance.task(TaskId(i))))
                .filter(|(_, t)| {
                    t.mem <= MemSize::from_bytes(free) && t.comm_time <= Time::units_int(bound)
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
                    assert_eq!(
                        index.best_ratio_candidate_within(
                            MemSize::from_bytes(free),
                            Time::units_int(bound)
                        ),
                        naive(&index, free, bound),
                        "round {round} free {free} bound {bound}"
                    );
                }
            }
            // Knock out the heads of the tiny-memory chain between rounds.
            index.remove(TaskId(2 * round + 1));
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
