//! ASCII Gantt rendering of schedules, mirroring the two-row
//! (communication resource / computation resource) figures of the paper.

use crate::instance::Instance;
use crate::schedule::Schedule;
use crate::time::Time;
use std::fmt::Write as _;

/// Options controlling the rendering.
#[derive(Debug, Clone, Copy)]
pub struct GanttOptions {
    /// Total width in characters of the time axis.
    pub width: usize,
    /// Whether to append the per-task start/end table below the chart.
    pub with_table: bool,
}

impl Default for GanttOptions {
    fn default() -> Self {
        GanttOptions {
            width: 72,
            with_table: false,
        }
    }
}

/// Renders a two-row ASCII Gantt chart of `schedule`.
///
/// The first row is the communication link, the second the processing unit.
/// Each task is drawn with the first character of its name (task ids when the
/// name is empty); idle periods are drawn with `.`.
pub fn render(instance: &Instance, schedule: &Schedule, options: GanttOptions) -> String {
    let makespan = schedule
        .makespan(instance)
        .max(schedule.comm_finish(instance));
    let mut out = String::new();
    if makespan.is_zero() || schedule.is_empty() {
        out.push_str("(empty schedule)\n");
        return out;
    }
    let width = options.width.max(10);
    let scale = |t: Time| -> usize {
        ((t.ticks() as u128 * width as u128) / makespan.ticks() as u128) as usize
    };

    let mut comm_row = vec!['.'; width];
    let mut comp_row = vec!['.'; width];
    for entry in schedule.entries() {
        let task = instance.task(entry.task);
        let glyph = instance.name(entry.task).chars().next().unwrap_or_else(|| {
            char::from_digit((entry.task.index() % 10) as u32, 10).unwrap_or('?')
        });
        let (cs, ce) = (
            scale(entry.comm_start),
            scale(entry.comm_start + task.comm_time),
        );
        for cell in comm_row.iter_mut().take(ce.min(width)).skip(cs) {
            *cell = glyph;
        }
        let (ps, pe) = (
            scale(entry.comp_start),
            scale(entry.comp_start + task.comp_time),
        );
        for cell in comp_row.iter_mut().take(pe.min(width)).skip(ps) {
            *cell = glyph;
        }
    }

    let _ = writeln!(out, "comm |{}|", comm_row.iter().collect::<String>());
    let _ = writeln!(out, "comp |{}|", comp_row.iter().collect::<String>());
    let _ = writeln!(out, "      0{:>w$}", makespan, w = width - 1);

    if options.with_table {
        let _ = writeln!(
            out,
            "{:>8} {:>10} {:>10} {:>10} {:>10}",
            "task", "comm[", "comm)", "comp[", "comp)"
        );
        let mut entries = schedule.entries().to_vec();
        entries.sort_by_key(|e| e.comm_start);
        for e in entries {
            let t = instance.task(e.task);
            let _ = writeln!(
                out,
                "{:>8} {:>10} {:>10} {:>10} {:>10}",
                instance.name(e.task),
                e.comm_start.to_string(),
                (e.comm_start + t.comm_time).to_string(),
                e.comp_start.to_string(),
                (e.comp_start + t.comp_time).to_string()
            );
        }
    }
    out
}

/// Renders with default options.
pub fn render_default(instance: &Instance, schedule: &Schedule) -> String {
    render(instance, schedule, GanttOptions::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;
    use crate::memory::MemSize;
    use crate::simulate::simulate_sequence;
    use crate::task::TaskId;

    #[test]
    fn renders_two_rows_and_axis() {
        let inst = InstanceBuilder::new()
            .capacity(MemSize::from_bytes(6))
            .task_units("A", 3.0, 2.0, 3)
            .task_units("B", 1.0, 3.0, 1)
            .build()
            .unwrap();
        let sched = simulate_sequence(&inst, &[TaskId(1), TaskId(0)]).unwrap();
        let text = render_default(&inst, &sched);
        assert!(text.contains("comm |"));
        assert!(text.contains("comp |"));
        assert!(text.contains('A'));
        assert!(text.contains('B'));
    }

    #[test]
    fn table_option_lists_every_task() {
        let inst = InstanceBuilder::new()
            .capacity(MemSize::from_bytes(6))
            .task_units("A", 3.0, 2.0, 3)
            .task_units("B", 1.0, 3.0, 1)
            .build()
            .unwrap();
        let sched = simulate_sequence(&inst, &[TaskId(1), TaskId(0)]).unwrap();
        let text = render(
            &inst,
            &sched,
            GanttOptions {
                width: 40,
                with_table: true,
            },
        );
        assert!(text.lines().count() >= 5);
        assert!(text.contains("task"));
    }

    #[test]
    fn empty_schedule_is_handled() {
        let inst = InstanceBuilder::new()
            .capacity(MemSize::from_bytes(6))
            .task_units("A", 3.0, 2.0, 3)
            .build()
            .unwrap();
        let text = render_default(&inst, &Schedule::new());
        assert!(text.contains("empty"));
    }
}
