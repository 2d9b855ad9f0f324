//! Allocation counts of the ingest path. Decoding a trace file with
//! `Trace::from_json` and converting it with `Trace::to_instance_scaled`
//! fill a few growing buffers (the task column, the name arena, the kind
//! column), so the number of allocations grows with the logarithm of the
//! task count, never with one allocation per task.
//!
//! This binary holds one test on purpose: the counting allocator below
//! counts only the calling thread, but a single test keeps the harness's
//! own threads out of the measured window as well.

use dts_chem::Trace;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

/// Counts allocations and reallocations made on the current thread.
struct Counting;

fn count() {
    // `try_with` fails only while the thread's locals are being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded as is; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A pretty-printed trace of `n` tasks with distinct names, like the
/// files `dts generate` writes.
fn trace_text(n: usize) -> String {
    let tasks: Vec<String> = (0..n)
        .map(|i| {
            format!(
                r#"    {{
      "name": "md({i})",
      "kind": "Contraction",
      "comm_micros": {},
      "comp_micros": {},
      "mem_bytes": {}
    }}"#,
                90 + i % 21,
                40 + i % 17,
                4096 + i % 1000
            )
        })
        .collect();
    format!(
        "{{\n  \"kernel\": \"MD\",\n  \"rank\": 0,\n  \"tasks\": [\n{}\n  ]\n}}",
        tasks.join(",\n")
    )
}

/// Allocations made by decoding `text` and converting it to an instance.
fn ingest_allocs(text: &str, n: usize) -> usize {
    let before = ALLOCS.with(Cell::get);
    let trace = Trace::from_json(text).expect("valid trace");
    let instance = trace.to_instance_scaled(1.5).expect("feasible at 1.5 mc");
    let after = ALLOCS.with(Cell::get);
    assert_eq!(instance.len(), n);
    assert_eq!(
        instance.name(dts_core::TaskId(n - 1)),
        format!("md({})", n - 1)
    );
    after - before
}

#[test]
fn ingest_allocates_per_buffer_not_per_task() {
    let small = trace_text(1_000);
    let large = trace_text(16_000);
    let few = ingest_allocs(&small, 1_000);
    let many = ingest_allocs(&large, 16_000);
    // Sixteen times the tasks add four doublings to each growing buffer;
    // one allocation per task would add 15 000.
    assert!(
        many - few <= 40,
        "{few} allocations for 1 000 tasks, {many} for 16 000"
    );
    assert!(few < 200, "{few} allocations for 1 000 tasks");
}
