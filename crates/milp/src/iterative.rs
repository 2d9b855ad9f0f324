//! The iterative `lp.k` heuristic (Section 4.5 of the paper).
//!
//! The submission order is split into consecutive windows of `k` tasks
//! ("the subsets are formed in the order in which tasks are submitted, which
//! is arbitrary"); each window is solved exactly by the same-order search
//! [`best_same_order`], warm-started from the [`Machine`] the previous
//! windows left (the counterpart of the paper fixing the events of tasks
//! that started before the window boundary).

use dts_core::prelude::*;
use dts_core::simulate::Machine;
use dts_flowshop::exact::best_same_order;

/// Configuration of the `lp.k` heuristic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LpKConfig {
    /// Window size `k`. The paper evaluates `k = 3, 4, 5, 6`.
    pub window: usize,
}

impl LpKConfig {
    /// The window sizes evaluated in Fig. 7 of the paper.
    pub const PAPER_WINDOW_SIZES: [usize; 4] = [3, 4, 5, 6];
}

impl Default for LpKConfig {
    fn default() -> Self {
        LpKConfig { window: 4 }
    }
}

/// Runs `lp.k`: windows of `config.window` tasks in submission order, each
/// solved exactly by [`best_same_order`] and concatenated, under the
/// execution model the instance carries. A window size of 0, or above 8
/// (the search is factorial), is a [`CoreError::Infeasible`] error.
///
/// ```
/// use dts_core::instances::table3;
/// use dts_milp::{lp_k, LpKConfig};
///
/// let instance = table3();
/// let schedule = lp_k(&instance, LpKConfig { window: 4 }).unwrap();
/// assert_eq!(schedule.len(), instance.len());
/// assert!(dts_core::feasibility::is_feasible(&instance, &schedule));
/// ```
pub fn lp_k(instance: &Instance, config: LpKConfig) -> Result<Schedule> {
    if config.window == 0 {
        return Err(CoreError::Infeasible("lp.k window must be positive".into()));
    }
    if config.window > 8 {
        return Err(CoreError::Infeasible(format!(
            "lp.k window of {} is too large for exact enumeration (max 8)",
            config.window
        )));
    }
    let ids = instance.task_ids();
    let mut machine = Machine::new(instance);
    let mut schedule = Schedule::with_capacity(instance.len());
    for window in ids.chunks(config.window) {
        let (entries, after) = best_same_order(instance, &machine, window);
        for entry in entries {
            schedule.push(entry);
        }
        machine = after;
    }
    Ok(schedule)
}

/// Convenience: runs `lp.k` for every window size of Fig. 7 and returns the
/// `(k, makespan)` pairs, in the order of
/// [`LpKConfig::PAPER_WINDOW_SIZES`]; the first failing size's error is
/// returned.
///
/// ```
/// use dts_core::instances::table3;
/// let sweep = dts_milp::lp_k_sweep(&table3()).unwrap();
/// assert_eq!(sweep.len(), 4);
/// assert_eq!(sweep[0].0, 3); // lp.3 first
/// ```
pub fn lp_k_sweep(instance: &Instance) -> Result<Vec<(usize, Time)>> {
    LpKConfig::PAPER_WINDOW_SIZES
        .iter()
        .map(|&k| {
            Ok((
                k,
                lp_k(instance, LpKConfig { window: k })?.makespan(instance),
            ))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dts_core::feasibility::is_feasible;
    use dts_core::instances::{random_instance_decoupled_memory, table3, table5};
    use dts_flowshop::johnson::johnson_makespan;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn lp_k_produces_feasible_complete_schedules() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..10 {
            let inst = random_instance_decoupled_memory(&mut rng, 17, 1.3);
            for k in LpKConfig::PAPER_WINDOW_SIZES {
                let sched = lp_k(&inst, LpKConfig { window: k }).unwrap();
                assert_eq!(sched.len(), inst.len());
                assert!(is_feasible(&inst, &sched), "lp.{k}");
                assert!(sched.makespan(&inst) >= johnson_makespan(&inst));
            }
        }
    }

    #[test]
    fn window_covering_the_whole_instance_is_exact_over_permutations() {
        // With a single window of size >= n, lp.k is the exact permutation
        // optimum of the (small) instance.
        let inst = table3();
        let sched = lp_k(&inst, LpKConfig { window: 6 }).unwrap();
        let exact = dts_flowshop::exact::optimal_same_order(&inst);
        assert_eq!(sched.makespan(&inst), exact.makespan);
    }

    #[test]
    fn larger_windows_do_not_hurt_on_paper_instances() {
        for inst in [table3(), table5()] {
            let sweep = lp_k_sweep(&inst).unwrap();
            assert_eq!(sweep.len(), 4);
            let m3 = sweep[0].1;
            let m6 = sweep[3].1;
            assert!(
                m6 <= m3,
                "{}: lp.6 should not be worse than lp.3",
                inst.label
            );
        }
    }

    #[test]
    fn invalid_window_sizes_rejected() {
        let inst = table3();
        assert!(lp_k(&inst, LpKConfig { window: 0 }).is_err());
        assert!(lp_k(&inst, LpKConfig { window: 9 }).is_err());
    }

    #[test]
    fn lp_k_is_generally_beaten_by_good_heuristics() {
        // The paper observes that most heuristics outperform the iterative
        // MILP. Individual random instances can go either way (lp.k is exact
        // inside each window), so check the aggregate statement: over a set
        // of instances, the best heuristic's total makespan does not exceed
        // lp.4's total makespan.
        let mut rng = StdRng::seed_from_u64(4242);
        let mut best_total = Time::ZERO;
        let mut lp4_total = Time::ZERO;
        for _ in 0..10 {
            let inst = random_instance_decoupled_memory(&mut rng, 20, 1.25);
            let (_, best) = dts_heuristics::best_heuristic(&inst).unwrap();
            best_total += best.makespan(&inst);
            lp4_total += lp_k(&inst, LpKConfig { window: 4 })
                .unwrap()
                .makespan(&inst);
        }
        assert!(best_total <= lp4_total);
    }
}
