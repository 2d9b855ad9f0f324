//! Allocation counts and peak heap of the ingest path. Decoding a trace
//! with `Trace::from_json` or `Trace::load` and converting it with
//! `Trace::to_instance_scaled` fill a few growing buffers (the task
//! column, the name arena, the kind column), so the number of allocations
//! grows with the logarithm of the task count, never with one allocation
//! per task. `Trace::load` reads its file through a fixed-size window, so
//! its peak heap is the decoded table plus about one window, not the size
//! of the file.
//!
//! This binary holds one test on purpose: the counting allocator below
//! counts only the calling thread, but a single test keeps the harness's
//! own threads out of the measured window as well.

use dts_chem::Trace;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    /// Bytes allocated and not yet freed on this thread.
    static LIVE: Cell<usize> = const { Cell::new(0) };
    /// The largest `LIVE` since the last [`reset_peak`].
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

/// Counts allocations and reallocations made on the current thread, and
/// the bytes they hold.
struct Counting;

/// Records a change of the live heap from `freed` to `allocated` bytes,
/// counting an allocation unless nothing was allocated.
fn count(freed: usize, allocated: usize) {
    // `try_with` fails only while the thread's locals are being torn down.
    if allocated > 0 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
    let _ = LIVE.try_with(|live| {
        // Memory allocated before the counters existed, or on another
        // thread, may be freed here: never count below zero.
        live.set(live.get().saturating_sub(freed) + allocated);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are
// const-initialized thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(0, layout.size());
        // SAFETY: forwarded as is; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(layout.size(), 0);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(layout.size(), new_size);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn live() -> usize {
    LIVE.with(Cell::get)
}

/// Restarts the peak at the current live heap.
fn reset_peak() {
    PEAK.with(|peak| peak.set(live()));
}

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

/// Checks the instance built from a trace of `n` tasks.
fn check(trace: Trace, n: usize) {
    let instance = trace.to_instance_scaled(1.5).expect("feasible at 1.5 mc");
    assert_eq!(instance.len(), n);
    assert!(instance
        .name(dts_core::TaskId(n - 1))
        .ends_with(&format!("md({})", n - 1)));
}

/// Allocations made by decoding `text` and converting it to an instance.
fn ingest_allocs(text: &str, n: usize) -> usize {
    let before = ALLOCS.with(Cell::get);
    check(Trace::from_json(text).expect("valid trace"), n);
    ALLOCS.with(Cell::get) - before
}

/// A trace file of `n` tasks with multibyte names, removed when dropped.
struct TraceFile {
    path: std::path::PathBuf,
    len: usize,
}

impl TraceFile {
    fn new(n: usize) -> Self {
        let path =
            std::env::temp_dir().join(format!("dts-ingest-allocs-{}-{n}.json", std::process::id()));
        let text = trace_text(n).replace("\"md(", &format!("\"{}md(", "é€😀".repeat(8)));
        std::fs::write(&path, &text).expect("temp file writes");
        TraceFile {
            path,
            len: text.len(),
        }
    }
}

impl Drop for TraceFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Allocations made by loading `file` and converting it to an instance.
fn load_allocs(file: &TraceFile, n: usize) -> usize {
    let before = ALLOCS.with(Cell::get);
    check(Trace::load(&file.path).expect("valid trace file"), n);
    ALLOCS.with(Cell::get) - before
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

    // The same holds when the trace is read from a file.
    let (small, large) = (TraceFile::new(1_000), TraceFile::new(16_000));
    let few = load_allocs(&small, 1_000);
    let many = load_allocs(&large, 16_000);
    assert!(
        many - few <= 40,
        "{few} allocations to load 1 000 tasks, {many} for 16 000"
    );
    assert!(few < 200, "{few} allocations to load 1 000 tasks");

    // Loading holds the decoded table and one 256 KiB window at a time,
    // never the file's text: the heap grows by what the trace keeps, and
    // at its peak by about one window more.
    // Names of 2-, 3- and 4-byte characters put characters across the
    // window's ends, which must not send the load to the whole-file path.
    let file = TraceFile::new(20_000);
    let before = live();
    reset_peak();
    let trace = Trace::load(&file.path).expect("valid trace file");
    let peak = PEAK.with(Cell::get) - before;
    let kept = live() - before;
    let window = 256 * 1024;
    assert!(
        peak <= kept + window + window / 4,
        "peak {peak} bytes over {kept} kept while loading a {}-byte file",
        file.len
    );
    assert!(
        peak < file.len,
        "peak {peak} bytes while loading a {}-byte file",
        file.len
    );
    check(trace, 20_000);
}
