//! The 3-Partition → DT reduction of Theorem 2 (NP-completeness).
//!
//! Given a 3-Partition instance `A = {a_1, ..., a_3m}` with target
//! `b = (1/m) Σ a_i`, the reduction builds a DT instance with `4m + 1` tasks
//! (Table 1 of the paper):
//!
//! | task                | communication | computation |
//! |---------------------|---------------|-------------|
//! | `K_0`               | 0             | 3           |
//! | `K_1 .. K_{m-1}`    | `b' = b + 6x` | 3           |
//! | `K_m`               | `b' = b + 6x` | 0           |
//! | `A_i` (1 ≤ i ≤ 3m)  | 1             | `a_i + 2x`  |
//!
//! with `x = max a_i`, memory capacity `C = b' + 3` and target makespan
//! `L = m (b' + 3)`. The 3-Partition instance has a solution iff the DT
//! instance admits a schedule of makespan at most `L`.
//!
//! This module provides the forward construction, the schedule built from a
//! known partition (the pattern of Fig. 2), and the backward extraction of a
//! partition from any tight schedule — together they make the reduction an
//! executable artifact that the test-suite exercises on small instances.

use dts_core::prelude::*;

/// A 3-Partition instance: `3m` positive integers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreePartitionInstance {
    /// The multiset `A` of `3m` integers.
    pub values: Vec<u64>,
}

impl ThreePartitionInstance {
    /// Creates an instance; `values.len()` must be a positive multiple of 3
    /// and the sum must be divisible by `m`.
    pub fn new(values: Vec<u64>) -> Option<Self> {
        if values.is_empty() || !values.len().is_multiple_of(3) {
            return None;
        }
        let m = values.len() / 3;
        let total: u64 = values.iter().sum();
        if !total.is_multiple_of(m as u64) {
            return None;
        }
        Some(ThreePartitionInstance { values })
    }

    /// Number of triplets `m`.
    pub fn m(&self) -> usize {
        self.values.len() / 3
    }

    /// The per-triplet target `b`.
    pub fn target(&self) -> u64 {
        self.values.iter().sum::<u64>() / self.m() as u64
    }

    /// Largest element `x`.
    pub fn max_value(&self) -> u64 {
        *self.values.iter().max().expect("non-empty")
    }

    /// Exhaustively searches for a valid partition into triplets summing to
    /// the target. Exponential; only meant for the small instances used in
    /// tests. Returns the triplets as indices into `values`.
    pub fn solve(&self) -> Option<Vec<[usize; 3]>> {
        let m = self.m();
        let b = self.target();
        let mut used = vec![false; self.values.len()];
        let mut triplets = Vec::with_capacity(m);
        self.solve_rec(b, &mut used, &mut triplets)
            .then_some(triplets)
    }

    fn solve_rec(&self, b: u64, used: &mut Vec<bool>, triplets: &mut Vec<[usize; 3]>) -> bool {
        let first = match used.iter().position(|u| !u) {
            None => return true,
            Some(i) => i,
        };
        used[first] = true;
        for j in first + 1..self.values.len() {
            if used[j] || self.values[first] + self.values[j] > b {
                continue;
            }
            used[j] = true;
            for k in j + 1..self.values.len() {
                if used[k] || self.values[first] + self.values[j] + self.values[k] != b {
                    continue;
                }
                used[k] = true;
                triplets.push([first, j, k]);
                if self.solve_rec(b, used, triplets) {
                    return true;
                }
                triplets.pop();
                used[k] = false;
            }
            used[j] = false;
        }
        used[first] = false;
        false
    }
}

/// Output of the reduction: the DT instance plus the derived parameters.
#[derive(Debug, Clone)]
pub struct ReducedInstance {
    /// The DT instance with `4m + 1` tasks. Tasks `0..=m` are the `K_i`
    /// tasks in order; tasks `m + 1 + i` correspond to `a_i`.
    pub instance: Instance,
    /// The per-triplet target `b`.
    pub b: u64,
    /// The scaling constant `x = max a_i`.
    pub x: u64,
    /// The widened target `b' = b + 6x`.
    pub b_prime: u64,
    /// The target makespan `L = m (b' + 3)`.
    pub target_makespan: Time,
}

/// Builds the DT instance of Table 1 from a 3-Partition instance.
pub fn three_partition_to_dt(input: &ThreePartitionInstance) -> ReducedInstance {
    let m = input.m();
    let b = input.target();
    let x = input.max_value();
    let b_prime = b + 6 * x;

    let mut builder = InstanceBuilder::new()
        .label(format!("3par-reduction-m{m}"))
        .capacity(MemSize::from_bytes(b_prime + 3));

    // K_0: no communication, 3 units of computation.
    builder = builder.task(
        "K0",
        Task::new(Time::ZERO, Time::units_int(3), MemSize::ZERO),
    );
    // K_1 .. K_{m-1}: communication b', computation 3.
    for i in 1..m {
        builder = builder.task(
            &format!("K{i}"),
            Task::new(
                Time::units_int(b_prime),
                Time::units_int(3),
                MemSize::from_bytes(b_prime),
            ),
        );
    }
    // K_m: communication b', no computation.
    builder = builder.task(
        &format!("K{m}"),
        Task::new(
            Time::units_int(b_prime),
            Time::ZERO,
            MemSize::from_bytes(b_prime),
        ),
    );
    // A_i tasks: communication 1, computation a_i + 2x, memory 1.
    for (i, &a) in input.values.iter().enumerate() {
        builder = builder.task(
            &format!("A{}", i + 1),
            Task::new(
                Time::units_int(1),
                Time::units_int(a + 2 * x),
                MemSize::from_bytes(1),
            ),
        );
    }

    let instance = builder
        .build()
        .expect("reduction always yields a valid instance");
    ReducedInstance {
        instance,
        b,
        x,
        b_prime,
        target_makespan: Time::units_int(m as u64 * (b_prime + 3)),
    }
}

impl ReducedInstance {
    /// Task id of `K_i`.
    pub fn k_task(&self, i: usize) -> TaskId {
        TaskId(i)
    }

    /// Task id of `A_j` (1-based `j`, as in the paper).
    pub fn a_task(&self, j: usize) -> TaskId {
        let m = self.m();
        TaskId(m + j)
    }

    /// Number of triplets `m`.
    pub fn m(&self) -> usize {
        (self.instance.len() - 1) / 4
    }

    /// Builds the tight schedule of Fig. 2 from a known partition: the
    /// communications of triplet `TR_i` overlap the computation of `K_{i-1}`
    /// and their computations overlap the communication of `K_i`.
    ///
    /// The returned schedule has makespan exactly `L` and is feasible with
    /// capacity `b' + 3`.
    pub fn schedule_from_partition(&self, triplets: &[[usize; 3]]) -> Schedule {
        let m = self.m();
        assert_eq!(triplets.len(), m, "need exactly m triplets");
        let mut schedule = Schedule::with_capacity(self.instance.len());
        let segment = Time::units_int(self.b_prime + 3);

        for (i, triplet) in triplets.iter().enumerate() {
            let segment_start = segment * i as u64;
            // K_i task for this segment: K_0 computes during segment 0's
            // first 3 units; K_{i+1}'s communication spans the rest.
            if i == 0 {
                schedule.push(ScheduleEntry {
                    task: self.k_task(0),
                    comm_start: Time::ZERO,
                    comp_start: Time::ZERO,
                });
            }
            // Communication of K_{i+1} starts after the three A transfers of
            // this segment (each takes 1 unit).
            let k_next = self.k_task(i + 1);
            let k_comm_start = segment_start + Time::units_int(3);
            let k_comp_start = segment_start + segment; // start of next segment
            schedule.push(ScheduleEntry {
                task: k_next,
                comm_start: k_comm_start,
                comp_start: if i + 1 == m {
                    // K_m has zero computation; place it at its comm end.
                    k_comm_start + Time::units_int(self.b_prime)
                } else {
                    k_comp_start
                },
            });
            // The three A tasks: communications in the first 3 units of the
            // segment, computations back-to-back during K_{i+1}'s transfer.
            let mut comp_cursor = segment_start + Time::units_int(3);
            for (slot, &value_index) in triplet.iter().enumerate() {
                let task_id = self.a_task(value_index + 1);
                let comm_start = segment_start + Time::units_int(slot as u64);
                schedule.push(ScheduleEntry {
                    task: task_id,
                    comm_start,
                    comp_start: comp_cursor,
                });
                comp_cursor += self.instance.task(task_id).comp_time;
            }
        }
        schedule
    }

    /// Extracts a partition from a feasible schedule of makespan at most `L`:
    /// triplet `i` is the set of `A` tasks whose computation takes place
    /// during the communication of `K_{i+1}` (the argument of Theorem 2).
    /// Returns `None` if the schedule is not tight enough to decode.
    pub fn partition_from_schedule(&self, schedule: &Schedule) -> Option<Vec<Vec<usize>>> {
        let m = self.m();
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); m];
        for i in 1..=m {
            let k_entry = schedule.entry(self.k_task(i))?;
            let k_comm_end = k_entry.comm_start + self.instance.task(self.k_task(i)).comm_time;
            for j in 1..=(3 * m) {
                let a_id = self.a_task(j);
                let a_entry = schedule.entry(a_id)?;
                if a_entry.comp_start >= k_entry.comm_start && a_entry.comp_start < k_comm_end {
                    groups[i - 1].push(j - 1);
                }
            }
        }
        if groups.iter().all(|g| g.len() == 3) {
            Some(groups)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dts_core::feasibility::is_feasible;

    fn yes_instance() -> ThreePartitionInstance {
        // m = 2, b = 12: {5, 4, 3, 6, 4, 2} partitions into {5,4,3} and
        // {6,4,2}.
        ThreePartitionInstance::new(vec![5, 4, 3, 6, 4, 2]).unwrap()
    }

    #[test]
    fn construction_matches_table1() {
        let input = yes_instance();
        let reduced = three_partition_to_dt(&input);
        let m = input.m();
        assert_eq!(reduced.instance.len(), 4 * m + 1);
        assert_eq!(reduced.b, 12);
        assert_eq!(reduced.x, 6);
        assert_eq!(reduced.b_prime, 48);
        assert_eq!(
            reduced.instance.capacity(),
            MemSize::from_bytes(reduced.b_prime + 3)
        );
        assert_eq!(reduced.target_makespan, Time::units_int(2 * (48 + 3)));
        // Sum of communication times equals sum of computation times equals L.
        let stats = reduced.instance.stats();
        assert_eq!(stats.sum_comm, reduced.target_makespan);
        assert_eq!(stats.sum_comp, reduced.target_makespan);
    }

    #[test]
    fn solver_finds_partition_for_yes_instance() {
        let input = yes_instance();
        let triplets = input.solve().expect("this instance has a partition");
        let b = input.target();
        for t in &triplets {
            assert_eq!(t.iter().map(|&i| input.values[i]).sum::<u64>(), b);
        }
    }

    #[test]
    fn solver_rejects_no_instance() {
        // m = 2, sum = 24, but {1, 1, 1, 1, 1, 19} cannot form two triplets
        // of 12.
        let input = ThreePartitionInstance::new(vec![1, 1, 1, 1, 1, 19]).unwrap();
        assert!(input.solve().is_none());
    }

    #[test]
    fn partition_yields_tight_feasible_schedule() {
        let input = yes_instance();
        let reduced = three_partition_to_dt(&input);
        let triplets = input.solve().unwrap();
        let schedule = reduced.schedule_from_partition(&triplets);
        assert!(
            is_feasible(&reduced.instance, &schedule),
            "{:?}",
            dts_core::feasibility::validate(&reduced.instance, &schedule)
        );
        assert_eq!(
            schedule.makespan(&reduced.instance),
            reduced.target_makespan
        );
    }

    #[test]
    fn partition_round_trips_through_schedule() {
        let input = yes_instance();
        let reduced = three_partition_to_dt(&input);
        let triplets = input.solve().unwrap();
        let schedule = reduced.schedule_from_partition(&triplets);
        let decoded = reduced
            .partition_from_schedule(&schedule)
            .expect("tight schedule decodes to a partition");
        let b = input.target();
        for group in decoded {
            assert_eq!(group.len(), 3);
            assert_eq!(group.iter().map(|&i| input.values[i]).sum::<u64>(), b);
        }
    }

    #[test]
    fn malformed_three_partition_inputs_rejected() {
        assert!(ThreePartitionInstance::new(vec![]).is_none());
        assert!(ThreePartitionInstance::new(vec![1, 2]).is_none());
        // Sum not divisible by m.
        assert!(ThreePartitionInstance::new(vec![1, 1, 1, 1, 1, 2]).is_none());
    }
}
