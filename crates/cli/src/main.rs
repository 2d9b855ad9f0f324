//! `dts` — command-line interface for the transfer-sched workspace.
//!
//! Subcommands:
//!
//! * `dts generate <kernel-or-family> <dir> [n_ranks]` — generate a trace
//!   suite and write one JSON trace file per rank. Besides the chemistry
//!   kernels `hf` and `ccsd`, the synthetic corpus families of
//!   `dts_workloads` are accepted (`md`, `dense-la`, `tie-heavy`,
//!   `memory-cliff`, `transfer-bound`) with `--tasks <n>`, `--seed <s>`
//!   and (dense-la only) `--skew <x>`;
//! * `dts characterize <trace.json>` — print the Fig. 8 workload
//!   characterization of a trace;
//! * `dts run <trace.json> <heuristic> [factor]` — run one heuristic on a
//!   trace at a memory capacity of `factor · mc` and print the result;
//! * `--model <spec>` on `generate` and `run` selects the execution model
//!   (`explicit`, `duplex`, `streams:<k>`, `implicit[:<eff>]`): `generate`
//!   stamps it into the trace files, `run` overrides whatever the trace
//!   carries;
//! * `dts sweep <trace.json>` — run every heuristic across the paper's
//!   capacity sweep and print CSV rows;
//! * `dts trace export <trace.json> <out.json>` — convert a trace to the
//!   versioned on-disk format; `dts trace import <versioned.json>
//!   <out.json>` — strictly validate a versioned file and convert it back;
//! * `dts calibrate <trace.json>... [--backend <b>] [--out <file>]` — fit
//!   a cost model (regression or history) to the observed per-task
//!   durations of one or more traces, print a residual report, and
//!   optionally write a versioned dts-cost-model file;
//! * `--cost-model <file|analytic>` on `run`, `request` and `corpus`
//!   re-predicts every task duration through a saved model before
//!   scheduling (`analytic` forces the trace's native durations); `corpus`
//!   prints the re-predicted suite as a what-if view instead of diffing
//!   the golden file;
//! * `dts corpus [--update-golden] [--golden <path>]` — run the
//!   golden-metric scenario suite (every heuristic × every execution model
//!   over the full corpus) and diff it against the committed golden file;
//! * `dts serve [--addr <host:port>] [...]` — run the scheduling daemon
//!   (length-framed JSON over TCP, instance caching, admission control);
//!   it prints the bound address — `--addr 127.0.0.1:0` picks a free port;
//! * `dts request <addr> <trace.json|family> <heuristic> [factor]` — send
//!   one scheduling request to a running daemon and print the reply;
//! * `dts demo` — print the Gantt charts of the paper's Table 3–5 examples.

use dts_analysis::report::sweep_to_csv;
use dts_analysis::sweep::{capacity_factors, run_trace_sweep, SweepConfig};
use dts_chem::suite::{generate_partial_suite, SuiteConfig};
use dts_chem::{characterize, Kernel, Trace};
use dts_core::gantt;
use dts_core::metrics::ScheduleMetrics;
use dts_core::perfmodel::{self, CalibrationObservations};
use dts_core::{CoreError, CostModelSpec, ExecutionModel, MemSize, Task, Time};
use dts_flowshop::johnson::johnson_makespan;
use dts_heuristics::{run_heuristic, Heuristic};
use dts_server::{Client, Server, ServerConfig, SolveRequest, TraceSource};
use dts_workloads::corpus;
use dts_workloads::families::{generate_trace, GeneratorConfig, WorkloadFamily};
use dts_workloads::format;
use serde::{Deserialize, Value};
use std::io::{self, Write};
use std::process::ExitCode;

/// Extracts an optional `--model <spec>` / `--model=<spec>` flag from `args`
/// and returns the remaining positional arguments alongside the parsed
/// model. Bad specs (unknown names, `streams:0`, non-finite efficiencies)
/// surface as clean errors through [`ExecutionModel::parse`].
fn take_model_flag(args: &[String]) -> Result<(Vec<String>, Option<ExecutionModel>), String> {
    let mut rest = Vec::with_capacity(args.len());
    let mut model = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let spec = if arg == "--model" {
            iter.next()
                .ok_or("--model expects a value (explicit, duplex, streams:<k>, implicit[:<eff>])")?
                .as_str()
        } else if let Some(value) = arg.strip_prefix("--model=") {
            value
        } else {
            rest.push(arg.clone());
            continue;
        };
        model = Some(ExecutionModel::parse(spec).map_err(|e| e.to_string())?);
    }
    Ok((rest, model))
}

/// Extracts an optional `--<name> <value>` / `--<name>=<value>` flag from
/// `args`, returning the remaining arguments and the raw value.
fn take_value_flag(args: &[String], name: &str) -> Result<(Vec<String>, Option<String>), String> {
    let long = format!("--{name}");
    let assign = format!("--{name}=");
    let mut rest = Vec::with_capacity(args.len());
    let mut value = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if *arg == long {
            value = Some(
                iter.next()
                    .ok_or(format!("{long} expects a value"))?
                    .clone(),
            );
        } else if let Some(v) = arg.strip_prefix(&assign) {
            value = Some(v.to_string());
        } else {
            rest.push(arg.clone());
        }
    }
    Ok((rest, value))
}

/// Extracts an optional boolean `--<name>` flag from `args`.
fn take_bool_flag(args: &[String], name: &str) -> (Vec<String>, bool) {
    let long = format!("--{name}");
    let mut present = false;
    let rest = args
        .iter()
        .filter(|arg| {
            if **arg == long {
                present = true;
                false
            } else {
                true
            }
        })
        .cloned()
        .collect();
    (rest, present)
}

/// Why a command failed: a message for the `error:` line, or the
/// `io::Error` of a failed write to stdout.
type Failure = Box<dyn std::error::Error>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Every command writes through this one handle, so a write error is a
    // value, not the panic `println!` turns it into.
    let mut stdout = io::stdout().lock();
    let out: &mut dyn Write = &mut stdout;
    let result = match args.first().map(String::as_str) {
        Some("generate") => cmd_generate(out, &args[1..]),
        Some("characterize") => cmd_characterize(out, &args[1..]),
        Some("run") => cmd_run(out, &args[1..]),
        Some("sweep") => cmd_sweep(out, &args[1..]),
        Some("trace") => cmd_trace(out, &args[1..]),
        Some("calibrate") => cmd_calibrate(out, &args[1..]),
        Some("corpus") => cmd_corpus(out, &args[1..]),
        Some("serve") => cmd_serve(out, &args[1..]),
        Some("request") => cmd_request(out, &args[1..]),
        Some("demo") => cmd_demo(out),
        _ => {
            eprint!("{}", usage());
            return ExitCode::from(2);
        }
    };
    let Err(e) = result.and_then(|()| Ok(out.flush()?)) else {
        return ExitCode::SUCCESS;
    };
    // The reader went away (`dts sweep t.json | head`): nothing is left to
    // say to anyone, so stop quietly.
    if e.downcast_ref::<io::Error>()
        .is_some_and(|e| e.kind() == io::ErrorKind::BrokenPipe)
    {
        return ExitCode::SUCCESS;
    }
    eprintln!("error: {e}");
    ExitCode::FAILURE
}

/// The usage text, with every generator source enumerated: the chemistry
/// kernels first, then each synthetic family with its one-line shape
/// description from [`WorkloadFamily::description`].
fn usage() -> String {
    let mut families = String::new();
    for family in WorkloadFamily::ALL {
        families.push_str(&format!(
            "\x20   {:<15} {}\n",
            family.name(),
            family.description()
        ));
    }
    format!(
        "usage: dts <command>\n\
         \n\
         commands:\n\
         \x20 generate <source> <dir> [n_ranks]     generate a trace suite as JSON files\n\
         \x20 characterize <trace.json>             print the workload characterization\n\
         \x20 run <trace.json> <heuristic> [factor] run one heuristic at factor x mc\n\
         \x20 sweep <trace.json>                    run all heuristics across the capacity sweep (CSV)\n\
         \x20 trace export <trace.json> <out.json>  convert a trace to the versioned on-disk format\n\
         \x20 trace import <in.json> <out.json>     strictly validate a versioned trace file\n\
         \x20 calibrate <trace.json>...             fit a cost model to observed task durations\n\
         \x20 corpus [--update-golden]              run the golden-metric scenario suite\n\
         \x20 serve [--addr <host:port>]            run the scheduling daemon\n\
         \x20 request <addr> <source> <heuristic> [factor]  query a running daemon\n\
         \x20 demo                                  print the paper's example schedules\n\
         \n\
         generate sources:\n\
         \x20   hf              Hartree-Fock chemistry kernel (the paper's workload)\n\
         \x20   ccsd            CCSD chemistry kernel (the paper's workload)\n\
         {families}\
         \n\
         options (generate, run):\n\
         \x20 --model <spec>  execution model: explicit | duplex | streams:<k> | implicit[:<eff>]\n\
         options (run, request, corpus):\n\
         \x20 --cost-model <file|analytic>  re-predict task durations through a saved cost model\n\
         options (generate, synthetic families only):\n\
         \x20 --tasks <n>     tasks per rank (default per family)\n\
         \x20 --seed <s>      base seed of the suite (default 0)\n\
         \x20 --skew <x>      Zipf exponent, dense-la only (default 1.2)\n\
         \x20 --bandwidth <b> derive comm times from task memory at <b> bytes/s (±2% jitter)\n\
         options (calibrate):\n\
         \x20 --backend <b>   fitted backend: regression (default) | history\n\
         \x20 --out <file>    write the fitted dts-cost-model file here\n\
         options (corpus):\n\
         \x20 --golden <path> golden file to diff against (default: the committed one)\n\
         \x20 --update-golden rewrite the golden file from this build (the only sanctioned change path)\n\
         options (serve):\n\
         \x20 --addr <host:port>    bind address (default 127.0.0.1:7421; port 0 picks a free port)\n\
         \x20 --threads <n>         cold solves running at once (default: available parallelism)\n\
         \x20 --queue-depth <n>     cold solves admitted (running or waiting) before shedding (default 256)\n\
         \x20 --max-tasks <n>       per-request task-count ceiling (default 65536)\n\
         \x20 --cache-entries <n>   solved-instance cache bound (default 512)\n\
         options (request):\n\
         \x20 <source> is a trace JSON file or a synthetic family name\n\
         \x20 --model <spec>  execution-model override, as for run\n\
         \x20 --tasks/--seed/--skew/--rank  family parameters, as for generate\n"
    )
}

fn cmd_generate(out: &mut dyn Write, args: &[String]) -> Result<(), Failure> {
    let (args, model) = take_model_flag(args)?;
    let (args, tasks_flag) = take_value_flag(&args, "tasks")?;
    let (args, seed_flag) = take_value_flag(&args, "seed")?;
    let (args, skew_flag) = take_value_flag(&args, "skew")?;
    let (args, bandwidth_flag) = take_value_flag(&args, "bandwidth")?;
    let source = args.first().map(String::as_str).unwrap_or("");
    let kernel = match source {
        "hf" => Some(Kernel::HartreeFock),
        "ccsd" => Some(Kernel::Ccsd),
        _ => None,
    };
    let family = WorkloadFamily::from_name(source);
    if kernel.is_none() && family.is_none() {
        let names: Vec<&str> = WorkloadFamily::ALL.iter().map(|f| f.name()).collect();
        return Err(format!(
            "unknown generator source '{source}'; expected hf, ccsd, {}",
            names.join(", ")
        )
        .into());
    }
    if kernel.is_some() {
        // The chemistry suites are fixed reproductions of the paper's
        // workload: their size comes from the topology argument and they
        // have no tunable shape, so the synthetic-family flags are a
        // usage error, not a silent no-op.
        for (flag, value) in [
            ("--tasks", &tasks_flag),
            ("--seed", &seed_flag),
            ("--skew", &skew_flag),
            ("--bandwidth", &bandwidth_flag),
        ] {
            if value.is_some() {
                return Err(format!(
                    "{flag} only applies to the synthetic families, not the '{source}' kernel"
                )
                .into());
            }
        }
    }
    let dir = args.get(1).ok_or("expected an output directory")?;
    let n_ranks: usize = args
        .get(2)
        .map(|s| s.parse().map_err(|_| "n_ranks must be an integer"))
        .transpose()?
        .unwrap_or(6);
    if n_ranks == 0 {
        return Err("n_ranks must be at least 1".into());
    }
    if let Some(family) = family {
        return generate_family_suite(
            out,
            family,
            dir,
            n_ranks,
            &tasks_flag,
            &seed_flag,
            &skew_flag,
            &bandwidth_flag,
            model,
        );
    }
    let kernel = kernel.unwrap_or(Kernel::HartreeFock);
    // Small 6-rank topology for quick suites, the paper's full 150-rank
    // topology beyond that. `generate_partial_suite` silently clamps to
    // the topology size, so reject a request even the full topology cannot
    // honor instead of quietly writing fewer files than asked for.
    let mut config = SuiteConfig::small();
    if n_ranks > config.topology.n_processes() {
        config = SuiteConfig::default();
    }
    let max_ranks = config.topology.n_processes();
    if n_ranks > max_ranks {
        return Err(format!(
            "{n_ranks} ranks requested, but the largest topology has only {max_ranks} \
             processes ({} nodes x {} workers)",
            config.topology.nodes, config.topology.workers_per_node
        )
        .into());
    }
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let mut traces = generate_partial_suite(kernel, &config, n_ranks);
    if let Some(model) = model {
        // Stamp the requested execution model into every trace so later
        // `dts run` / `dts sweep` invocations honor it without repeating
        // the flag. `Explicit` is stamped too: it documents the choice.
        for trace in &mut traces {
            trace.model = Some(model);
        }
    }
    for trace in &traces {
        let path = format!(
            "{dir}/{}-rank{:03}.json",
            kernel.name().to_lowercase(),
            trace.rank
        );
        trace.save(&path).map_err(|e| e.to_string())?;
        writeln!(
            out,
            "wrote {path} ({} tasks, mc = {})",
            trace.len(),
            trace.min_capacity()
        )?;
    }
    writeln!(
        out,
        "generated {} of {n_ranks} requested ranks in {dir}",
        traces.len()
    )?;
    Ok(())
}

/// Generates `n_ranks` traces of a synthetic corpus family. The flags are
/// validated through [`GeneratorConfig::validate`], so `--skew` on a
/// family that does not support it fails with the same typed message the
/// library reports.
#[allow(clippy::too_many_arguments)]
fn generate_family_suite(
    out: &mut dyn Write,
    family: WorkloadFamily,
    dir: &str,
    n_ranks: usize,
    tasks_flag: &Option<String>,
    seed_flag: &Option<String>,
    skew_flag: &Option<String>,
    bandwidth_flag: &Option<String>,
    model: Option<ExecutionModel>,
) -> Result<(), Failure> {
    let mut config = GeneratorConfig::new(family);
    if let Some(tasks) = tasks_flag {
        config.n_tasks = tasks
            .parse()
            .map_err(|_| format!("--tasks must be a positive integer, got '{tasks}'"))?;
    }
    if let Some(seed) = seed_flag {
        config.seed = seed
            .parse()
            .map_err(|_| format!("--seed must be a non-negative integer, got '{seed}'"))?;
    }
    if let Some(skew) = skew_flag {
        config.skew = Some(
            skew.parse()
                .map_err(|_| format!("--skew must be a number, got '{skew}'"))?,
        );
    }
    if let Some(bandwidth) = bandwidth_flag {
        config.bandwidth = Some(bandwidth.parse().map_err(|_| {
            format!("--bandwidth must be a positive number of bytes per second, got '{bandwidth}'")
        })?);
    }
    config.validate().map_err(|e| e.to_string())?;
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    for rank in 0..n_ranks {
        let mut trace = generate_trace(&config, rank).map_err(|e| e.to_string())?;
        if let Some(model) = model {
            trace.model = Some(model);
        }
        let path = format!("{dir}/{}-rank{rank:03}.json", family.name());
        trace.save(&path).map_err(|e| e.to_string())?;
        writeln!(
            out,
            "wrote {path} ({} tasks, mc = {})",
            trace.len(),
            trace.min_capacity()
        )?;
    }
    writeln!(out, "generated {n_ranks} {family} ranks in {dir}")?;
    Ok(())
}

fn cmd_trace(out: &mut dyn Write, args: &[String]) -> Result<(), Failure> {
    let (verb, input, output) = match (args.first(), args.get(1), args.get(2)) {
        (Some(verb), Some(input), Some(output)) if args.len() == 3 => {
            (verb.as_str(), input, output)
        }
        _ => return Err("usage: dts trace <import|export> <input.json> <output.json>".into()),
    };
    match verb {
        "export" => {
            // Accept what `dts generate` writes, re-emit versioned.
            let trace = load_trace(input)?;
            format::export_file(&trace, output)
                .map_err(|e| format!("cannot export {input}: {e}"))?;
            writeln!(
                out,
                "exported {input} -> {output} (dts-trace v{}, {} tasks)",
                format::FORMAT_VERSION,
                trace.len()
            )?;
        }
        "import" => {
            // Strictly validate the versioned file, re-emit what the rest
            // of the toolchain (`dts run`, `dts sweep`) reads.
            let trace =
                format::import_file(input).map_err(|e| format!("cannot import {input}: {e}"))?;
            trace.save(output).map_err(|e| e.to_string())?;
            writeln!(
                out,
                "imported {input} -> {output} ({} tasks, kernel {}, mc = {})",
                trace.len(),
                trace.kernel,
                trace.min_capacity()
            )?;
        }
        other => {
            return Err(format!(
                "unknown trace subcommand '{other}'; expected 'import' or 'export'"
            )
            .into())
        }
    }
    Ok(())
}

/// Resolves a `--cost-model` argument: the literal `analytic` (any case)
/// or a path to a dts-cost-model file, strictly validated on load.
fn load_cost_model(arg: &str) -> Result<CostModelSpec, String> {
    if arg.eq_ignore_ascii_case("analytic") {
        return Ok(CostModelSpec::Analytic);
    }
    perfmodel::import_model_file(std::path::Path::new(arg)).map_err(|e| e.to_string())
}

/// Stamps a cost-model override into a trace before it materializes an
/// instance: a fitted spec replaces whatever the trace embeds, and an
/// explicit `analytic` clears it (forcing the native durations).
fn apply_cost_model_override(trace: &mut Trace, arg: &str) -> Result<(), String> {
    let spec = load_cost_model(arg)?;
    trace.cost_model = (!spec.is_analytic()).then_some(spec);
    Ok(())
}

fn cmd_calibrate(out: &mut dyn Write, args: &[String]) -> Result<(), Failure> {
    let (args, backend_flag) = take_value_flag(args, "backend")?;
    let (args, out_flag) = take_value_flag(&args, "out")?;
    if args.is_empty() {
        return Err(
            "expected at least one trace file; usage: dts calibrate <trace.json>... \
             [--backend regression|history] [--out <file>]"
                .into(),
        );
    }
    let backend = backend_flag.as_deref().unwrap_or("regression");
    let mut observations = CalibrationObservations::default();
    for path in &args {
        let mut trace = load_trace(path)?;
        // Calibration reads the trace's *native* durations: an embedded
        // cost model would make the fit chase its own predictions.
        trace.cost_model = None;
        let instance = trace
            .to_instance_scaled(1.0)
            .map_err(|e| format!("cannot build an instance from {path}: {e}"))?;
        observations.extend(perfmodel::observations_of(&instance));
        writeln!(out, "loaded             {path} ({} tasks)", instance.len())?;
    }
    let spec = match backend {
        "regression" => observations.fit_regression(),
        "history" => observations.fit_history(),
        other => {
            return Err(format!("unknown backend '{other}'; expected regression or history").into())
        }
    }
    .map_err(|e| e.to_string())?;
    // Residual report: how well the fitted model re-predicts the very
    // observations it was fitted from, per observation kind. The scaled
    // integer fields keep the lines stable and greppable (100 bp = 1 %,
    // 1_000_000 ppm = perfect R^2).
    let probe = |bytes| {
        Task::new(
            Time::from_micros(0),
            Time::from_micros(0),
            MemSize::from_bytes(bytes),
        )
    };
    let transfer = perfmodel::fit_quality(&observations.transfer, |bytes| {
        spec.transfer_time(&probe(bytes)).ticks()
    });
    let compute = perfmodel::fit_quality(&observations.compute, |bytes| {
        spec.compute_time(&probe(bytes)).ticks()
    });
    writeln!(out, "backend            {}", spec.backend_name())?;
    for (kind, report) in [("transfer fit", &transfer), ("compute fit", &compute)] {
        writeln!(
            out,
            "{kind:<18} samples={} skipped_zero={} mean_rel_err_bp={} r2_ppm={}",
            report.samples, report.skipped_zero, report.mean_rel_err_bp, report.r2_ppm
        )?;
    }
    if let Some(path) = out_flag {
        perfmodel::export_model_file(&spec, std::path::Path::new(&path))
            .map_err(|e| e.to_string())?;
        writeln!(out, "wrote              {path}")?;
    }
    Ok(())
}

fn cmd_corpus(out: &mut dyn Write, args: &[String]) -> Result<(), Failure> {
    let (args, update) = take_bool_flag(args, "update-golden");
    let (args, golden_flag) = take_value_flag(&args, "golden")?;
    let (args, cost_model_flag) = take_value_flag(&args, "cost-model")?;
    if let Some(stray) = args.first() {
        return Err(format!(
            "unexpected argument '{stray}'; usage: dts corpus [--update-golden] [--golden <path>] \
             [--cost-model <file|analytic>]"
        )
        .into());
    }
    if let Some(arg) = &cost_model_flag {
        let spec = load_cost_model(arg)?;
        if update {
            return Err(
                "--update-golden cannot be combined with --cost-model: the golden file \
                 pins the analytic baseline only"
                    .into(),
            );
        }
        if spec.is_analytic() {
            // `analytic` is exactly the golden configuration; fall through
            // to the normal golden diff below.
        } else {
            // What-if view: the same suite under re-predicted durations,
            // rendered in the golden format but never compared against
            // (or written to) the golden file.
            let current = corpus::run_corpus_with(Some(&spec)).map_err(|e| e.to_string())?;
            writeln!(
                out,
                "what-if corpus under the {} cost model ({} entries, not diffed against the golden):",
                spec.backend_name(),
                current.len()
            )?;
            write!(out, "{}", corpus::render_golden(&current))?;
            return Ok(());
        }
    }
    let golden_path = golden_flag
        .map(std::path::PathBuf::from)
        .unwrap_or_else(corpus::default_golden_path);
    let current = corpus::run_corpus().map_err(|e| e.to_string())?;
    if update {
        std::fs::write(&golden_path, corpus::render_golden(&current)).map_err(|e| e.to_string())?;
        writeln!(
            out,
            "blessed {} corpus entries into {}",
            current.len(),
            golden_path.display()
        )?;
        return Ok(());
    }
    let golden_json = std::fs::read_to_string(&golden_path).map_err(|e| {
        format!(
            "cannot read golden file {}: {e}\n(run `dts corpus --update-golden` to create it)",
            golden_path.display()
        )
    })?;
    let golden = corpus::parse_golden(&golden_json).map_err(|e| e.to_string())?;
    let report = corpus::compare(&current, &golden);
    if report.is_clean() {
        writeln!(
            out,
            "corpus clean: {} entries match {}",
            current.len(),
            golden_path.display()
        )?;
        Ok(())
    } else {
        Err(format!("corpus drifted from golden:\n{}", report.render()).into())
    }
}

/// Parses a numeric flag value with a flag-specific error message.
fn parse_flag<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("--{flag} expects a number, got '{value}'"))
}

fn cmd_serve(out: &mut dyn Write, args: &[String]) -> Result<(), Failure> {
    let (args, addr_flag) = take_value_flag(args, "addr")?;
    let (args, threads_flag) = take_value_flag(&args, "threads")?;
    let (args, depth_flag) = take_value_flag(&args, "queue-depth")?;
    let (args, tasks_flag) = take_value_flag(&args, "max-tasks")?;
    let (args, cache_flag) = take_value_flag(&args, "cache-entries")?;
    if let Some(stray) = args.first() {
        return Err(format!(
            "unexpected argument '{stray}'; usage: dts serve [--addr <host:port>] \
             [--threads <n>] [--queue-depth <n>] [--max-tasks <n>] [--cache-entries <n>]"
        )
        .into());
    }
    let mut config = ServerConfig {
        addr: addr_flag.unwrap_or_else(|| "127.0.0.1:7421".to_string()),
        ..ServerConfig::default()
    };
    if let Some(v) = threads_flag {
        config.threads = parse_flag("threads", &v)?;
    }
    if let Some(v) = depth_flag {
        config.queue_depth = parse_flag("queue-depth", &v)?;
    }
    if let Some(v) = tasks_flag {
        config.max_tasks = parse_flag("max-tasks", &v)?;
    }
    if let Some(v) = cache_flag {
        config.cache_entries = parse_flag("cache-entries", &v)?;
    }
    let handle = Server::start(config).map_err(|e| format!("cannot start daemon: {e}"))?;
    // The bound address is the first line of output, so scripts (and the
    // e2e tests) can bind port 0 and discover the port.
    writeln!(out, "dts serve listening on {}", handle.local_addr())?;
    out.flush()?;
    // Serve until killed; the daemon threads own all the work.
    loop {
        std::thread::park();
    }
}

fn cmd_request(out: &mut dyn Write, args: &[String]) -> Result<(), Failure> {
    let (args, model) = take_model_flag(args)?;
    let (args, cost_model_flag) = take_value_flag(&args, "cost-model")?;
    let (args, tasks_flag) = take_value_flag(&args, "tasks")?;
    let (args, seed_flag) = take_value_flag(&args, "seed")?;
    let (args, skew_flag) = take_value_flag(&args, "skew")?;
    let (args, rank_flag) = take_value_flag(&args, "rank")?;
    let addr = args
        .first()
        .ok_or("expected a daemon address (host:port)")?;
    let source_arg = args
        .get(1)
        .ok_or("expected a trace file or a family name")?;
    let heuristic_name = args.get(2).ok_or("expected a heuristic name")?;
    let factor: f64 = args
        .get(3)
        .map(|s| s.parse().map_err(|_| "factor must be a number"))
        .transpose()?
        .unwrap_or(1.5);
    let heuristic = Heuristic::from_name(heuristic_name)
        .ok_or_else(|| format!("unknown heuristic '{heuristic_name}'"))?;

    let source = if let Some(family) = WorkloadFamily::from_name(source_arg) {
        let mut config = GeneratorConfig::new(family);
        if let Some(tasks) = &tasks_flag {
            config.n_tasks = parse_flag("tasks", tasks)?;
        }
        if let Some(seed) = &seed_flag {
            config.seed = parse_flag("seed", seed)?;
        }
        if let Some(skew) = &skew_flag {
            config.skew = Some(parse_flag("skew", skew)?);
        }
        let rank = match &rank_flag {
            Some(rank) => parse_flag("rank", rank)?,
            None => 0,
        };
        TraceSource::Family { config, rank }
    } else {
        for (flag, value) in [
            ("--tasks", &tasks_flag),
            ("--seed", &seed_flag),
            ("--skew", &skew_flag),
            ("--rank", &rank_flag),
        ] {
            if value.is_some() {
                return Err(format!("{flag} only applies to family requests").into());
            }
        }
        // Mirror the daemon's typed error shape for a trace that cannot
        // even be loaded client-side: the bracketed code is the same
        // `invalid-trace` the daemon would answer with (`ErrorCode::
        // InvalidTrace`), so scripts dispatch on one spelling either way.
        TraceSource::Inline(Trace::load(source_arg).map_err(|e| {
            format!(
                "[{}] cannot load {source_arg}: {e}",
                dts_server::ErrorCode::InvalidTrace
            )
        })?)
    };

    let cost_model = match &cost_model_flag {
        // An explicit `analytic` is sent as `Some(Analytic)`: on the wire
        // it overrides (clears) whatever cost model the trace embeds,
        // which an absent field would leave in force.
        Some(arg) => Some(load_cost_model(arg)?),
        None => None,
    };
    let request = SolveRequest {
        source,
        heuristic,
        model,
        cost_model,
        factor,
    };
    let mut client = Client::connect(addr.as_str())
        .map_err(|e| format!("cannot reach daemon at {addr}: {e}"))?;
    let response = client.send_request(&request).map_err(|e| e.to_string())?;
    print_response(out, &response)
}

/// Renders a daemon response; error replies become the process error.
fn print_response(out: &mut dyn Write, response: &Value) -> Result<(), Failure> {
    let text = |name: &str| -> Result<String, String> {
        response
            .field(name)
            .ok()
            .and_then(|v| String::from_value(v).ok())
            .ok_or_else(|| format!("malformed daemon response: missing '{name}'"))
    };
    if text("status")? != "ok" {
        return Err(format!("daemon error [{}]: {}", text("code")?, text("message")?).into());
    }
    let cached = response
        .field("cached")
        .ok()
        .and_then(|v| bool::from_value(v).ok())
        .ok_or("malformed daemon response: missing 'cached'")?;
    let result = response
        .field("result")
        .map_err(|_| "malformed daemon response: missing 'result'")?;
    let result_text = |name: &str| -> Result<String, String> {
        result
            .field(name)
            .ok()
            .and_then(|v| String::from_value(v).ok())
            .ok_or_else(|| format!("malformed daemon response: missing result '{name}'"))
    };
    let result_u64 = |name: &str| -> Result<u64, String> {
        result
            .field(name)
            .ok()
            .and_then(|v| u64::from_value(v).ok())
            .ok_or_else(|| format!("malformed daemon response: missing result '{name}'"))
    };
    writeln!(out, "status             ok")?;
    writeln!(out, "cached             {cached}")?;
    writeln!(out, "digest             {}", text("digest")?)?;
    writeln!(out, "heuristic          {}", result_text("heuristic")?)?;
    writeln!(out, "model              {}", result_text("model")?)?;
    writeln!(out, "tasks              {}", result_u64("n_tasks")?)?;
    writeln!(out, "makespan           {} us", result_u64("makespan_us")?)?;
    writeln!(out, "comm idle          {} us", result_u64("comm_idle_us")?)?;
    writeln!(out, "comp idle          {} us", result_u64("comp_idle_us")?)?;
    Ok(())
}

fn load_trace(path: &str) -> Result<Trace, String> {
    Trace::load(path).map_err(|e| format!("cannot load {path}: {e}"))
}

fn cmd_characterize(out: &mut dyn Write, args: &[String]) -> Result<(), Failure> {
    let path = args.first().ok_or("expected a trace file")?;
    let trace = load_trace(path)?;
    let c = characterize(&trace).map_err(|e| e.to_string())?;
    writeln!(out, "kernel             {}", trace.kernel)?;
    writeln!(out, "rank               {}", trace.rank)?;
    writeln!(out, "tasks              {}", c.n_tasks)?;
    writeln!(out, "OMIM               {} us", c.omim.ticks())?;
    writeln!(out, "sum comm / OMIM    {:.4}", c.sum_comm_ratio)?;
    writeln!(out, "sum comp / OMIM    {:.4}", c.sum_comp_ratio)?;
    writeln!(out, "max / OMIM         {:.4}", c.max_ratio)?;
    writeln!(out, "sum / OMIM         {:.4}", c.sum_ratio)?;
    writeln!(
        out,
        "max overlap gain   {:.1} %",
        100.0 * c.max_overlap_gain()
    )?;
    writeln!(out, "mc                 {}", c.min_capacity)?;
    Ok(())
}

fn cmd_run(out: &mut dyn Write, args: &[String]) -> Result<(), Failure> {
    let (args, model_override) = take_model_flag(args)?;
    let (args, cost_model_flag) = take_value_flag(&args, "cost-model")?;
    let path = args.first().ok_or("expected a trace file")?;
    let heuristic_name = args.get(1).ok_or("expected a heuristic name")?;
    let factor: f64 = args
        .get(2)
        .map(|s| s.parse().map_err(|_| "factor must be a number"))
        .transpose()?
        .unwrap_or(1.5);
    // `to_instance_scaled` reports this too, but catching it before the
    // trace is even loaded gives a faster failure with the same message.
    if !factor.is_finite() || factor < 0.0 {
        return Err(CoreError::InvalidCapacityFactor(factor.to_string())
            .to_string()
            .into());
    }
    let heuristic = Heuristic::from_name(heuristic_name)
        .ok_or_else(|| format!("unknown heuristic '{heuristic_name}'"))?;
    let mut trace = load_trace(path)?;
    if let Some(arg) = &cost_model_flag {
        apply_cost_model_override(&mut trace, arg)?;
    }
    if let Some(model) = model_override {
        trace.model = Some(model);
    }
    let instance = trace
        .to_instance_scaled(factor)
        .map_err(|e| e.to_string())?;
    let omim = johnson_makespan(&instance);
    let schedule = run_heuristic(&instance, heuristic).map_err(|e| e.to_string())?;
    let makespan = schedule.makespan(&instance);
    writeln!(out, "heuristic          {heuristic}")?;
    writeln!(out, "model              {}", instance.model())?;
    writeln!(out, "cost model         {}", instance.cost_model())?;
    writeln!(
        out,
        "capacity           {} ({}x mc)",
        instance.capacity(),
        factor
    )?;
    writeln!(out, "makespan           {} us", makespan.ticks())?;
    writeln!(out, "OMIM               {} us", omim.ticks())?;
    writeln!(out, "ratio to optimal   {:.4}", makespan.ratio(omim))?;
    let metrics = ScheduleMetrics::of(&instance, &schedule);
    writeln!(
        out,
        "overlap fraction   {:.1} %",
        100.0 * metrics.overlap_fraction()
    )?;
    Ok(())
}

fn cmd_sweep(out: &mut dyn Write, args: &[String]) -> Result<(), Failure> {
    let path = args.first().ok_or("expected a trace file")?;
    let trace = load_trace(path)?;
    let config = SweepConfig {
        heuristics: Heuristic::ALL.to_vec(),
        factors: capacity_factors(),
    };
    let rows = run_trace_sweep(&trace, &config).map_err(|e| e.to_string())?;
    write!(out, "{}", sweep_to_csv(&rows))?;
    Ok(())
}

fn cmd_demo(out: &mut dyn Write) -> Result<(), Failure> {
    for (label, instance) in [
        ("Table 3 (capacity 6)", dts_core::instances::table3()),
        ("Table 4 (capacity 6)", dts_core::instances::table4()),
        ("Table 5 (capacity 9)", dts_core::instances::table5()),
    ] {
        writeln!(out, "== {label} ==")?;
        let omim = johnson_makespan(&instance);
        for heuristic in [Heuristic::OOSIM, Heuristic::MAMR, Heuristic::OOLCMR] {
            let schedule = run_heuristic(&instance, heuristic).map_err(|e| e.to_string())?;
            writeln!(
                out,
                "{} — makespan {} (OMIM {}):\n{}",
                heuristic,
                schedule.makespan(&instance),
                omim,
                gantt::render(
                    &instance,
                    &schedule,
                    gantt::GanttOptions {
                        width: 60,
                        with_table: false
                    }
                )
            )?;
        }
    }
    Ok(())
}
