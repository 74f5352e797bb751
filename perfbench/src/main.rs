//! `perfbench` — the powerscale workspace's end-to-end and per-layer
//! benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <multiply|serve-f64|cluster> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run builds its inputs from `--seed`, repeats whole rounds of the
//! workload's operations until `--seconds` have passed, checks every
//! output against a computation made apart from the program, and prints
//! one JSON object as its last line of standard output: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! See `README.md` next to this file for the metrics and inputs.

mod check;
mod cluster;
mod multiply;
mod probes;
mod serve;
mod spans;
mod util;

use spans::Tracer;
use std::collections::BTreeMap;
use std::process::ExitCode;
use util::{json_num, json_str, ScratchDir};

/// Every end-to-end metric: `(name, unit)`. Each workload reports all of
/// them; README.md gives each one's reading per workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("gflops", "GFLOP/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
];

/// Every per-layer metric: `(name, unit)`. Probes of a single layer run in
/// every traced run; counters read from a workload are 0 in the traced
/// runs of workloads that do not exercise that layer.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Workload figures the end-to-end set aggregates.
    ("multiply.blocked_gflops", "GFLOP/s"),
    ("multiply.strassen_gflops", "GFLOP/s"),
    ("multiply.winograd_gflops", "GFLOP/s"),
    ("multiply.caps_gflops", "GFLOP/s"),
    ("multiply.model_joules", "J"),
    ("serve.recovery_ms", "ms"),
    ("dist.bfs_s", "s"),
    ("dist.dfs_s", "s"),
    ("dist.bfs_recv_mb", "MB"),
    ("dist.dfs_recv_mb", "MB"),
    ("dist.bfs_eq8_ratio", "ratio"),
    ("dist.dfs_eq8_ratio", "ratio"),
    ("dist.makespan_ms", "ms"),
    // gemm
    ("gemm.microkernel_gflops", "GFLOP/s"),
    ("gemm.pack_gbps", "GB/s"),
    ("gemm.dgemm_1t_gflops", "GFLOP/s"),
    ("gemm.roofline", "ratio"),
    ("gemm.leaf_fused_gflops", "GFLOP/s"),
    // matrix
    ("matrix.add_gbps", "GB/s"),
    ("matrix.operand_gen_ms", "ms"),
    // pool
    ("pool.spawn_join_us", "us"),
    ("pool.stolen.blocked", "count"),
    ("pool.stolen.strassen", "count"),
    ("pool.stolen.winograd", "count"),
    ("pool.stolen.caps", "count"),
    ("pool.parks.blocked", "count"),
    ("pool.parks.strassen", "count"),
    ("pool.parks.winograd", "count"),
    ("pool.parks.caps", "count"),
    // strassen / caps / blocked event counts per call
    ("strassen.fp_adds", "count"),
    ("strassen.pack_mb", "MB"),
    ("strassen.kernel_calls", "count"),
    ("strassen.tasks_spawned", "count"),
    ("strassen.tasks_migrated", "count"),
    ("winograd.fp_adds", "count"),
    ("winograd.pack_mb", "MB"),
    ("caps.fp_adds", "count"),
    ("caps.pack_mb", "MB"),
    ("caps.comm_mb", "MB"),
    ("caps.tasks_spawned", "count"),
    ("caps.tasks_migrated", "count"),
    ("caps.steals_cross_group", "count"),
    ("blocked.pack_mb", "MB"),
    // harness power model
    ("harness.model_pkg_w.blocked", "W"),
    ("harness.model_pkg_w.strassen", "W"),
    ("harness.model_pkg_w.winograd", "W"),
    ("harness.model_pkg_w.caps", "W"),
    // serve
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p99_ms", "ms"),
    ("serve.exec_p50_ms", "ms"),
    ("serve.exec_p99_ms", "ms"),
    ("serve.multiply_p50_ms", "ms"),
    ("serve.multiply_p99_ms", "ms"),
    ("serve.exec_overhead_p50_ms", "ms"),
    ("serve.admitted", "count"),
    ("serve.completed", "count"),
    ("serve.degraded", "count"),
    ("serve.shed", "count"),
    ("serve.retried", "count"),
    ("serve.mixed_rps", "1/s"),
    ("serve.mixed_queue_wait_p50_ms", "ms"),
    // journal
    ("journal.record_us", "us"),
    ("journal.resume_ms", "ms"),
    ("journal.disk_kb", "KB"),
    ("journal.recovered", "count"),
    ("journal.replayed", "count"),
    ("journal.serve_rps", "1/s"),
    // net / dist
    ("net.scatter_mb", "MB"),
    ("net.algo_mb", "MB"),
    ("net.gather_mb", "MB"),
    ("net.msgs", "count"),
    ("net.peak_rank_mb", "MB"),
    ("net.comm_model_ms", "ms"),
    ("dist.compute_model_ms", "ms"),
    ("net.pingpong_gbps", "GB/s"),
    ("caps.node_local_s", "s"),
];

pub const WORKLOADS: &[&str] = &["multiply", "serve-f64", "cluster"];

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (products, requests, distributed products).
    pub attempted: u64,
    /// Attempted operations that returned no result.
    pub failed: u64,
    /// Output checks that failed, one line each.
    pub errors: Vec<String>,
    /// Median seconds of one set-up of the workload.
    pub setup_s: f64,
    /// Operations completed per second of operation wall time.
    pub ops_per_s: f64,
    /// Dense-equivalent `2n³` flops per second of operation wall time.
    pub gflops: f64,
    /// Median operation latency in milliseconds.
    pub op_p50_ms: f64,
    /// Tail latency in milliseconds: the 99th percentile of request
    /// latency when serving; the median latency of the slowest kind of
    /// operation for workloads of a few kinds repeated.
    pub op_tail_ms: f64,
    /// Per-layer figures read from the workload.
    pub layers: BTreeMap<&'static str, f64>,
}

/// Run parameters shared by the workloads.
pub struct Ctx<'a> {
    pub seed: u64,
    pub seconds: f64,
    pub tracer: &'a Tracer,
    pub scratch: &'a ScratchDir,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <u64> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown or missing --workload `{}`", args.workload));
    }
    Ok(args)
}

fn metric_json(name: &str, value: f64, unit: &str) -> String {
    format!(
        "{}: {{\"value\": {}, \"unit\": {}}}",
        json_str(name),
        json_num(value),
        json_str(unit)
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => return usage(&msg),
    };
    let scratch = match ScratchDir::new() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: cannot create the scratch directory: {e}");
            return ExitCode::from(2);
        }
    };
    let tracer = Tracer::new(args.trace);
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tracer: &tracer,
        scratch: &scratch,
    };

    let mut errors = check::self_test();
    for e in &errors {
        eprintln!("self-test: {e}");
    }
    let mut out = match args.workload.as_str() {
        "multiply" => multiply::run(&ctx),
        "serve-f64" => serve::run(&ctx),
        "cluster" => cluster::run(&ctx),
        _ => unreachable!("validated by parse_args"),
    };
    if args.trace {
        probes::run(&ctx, &mut out);
    }
    errors.append(&mut out.errors);
    for e in &errors {
        eprintln!("check failed: {e}");
    }
    let correct = errors.is_empty();

    let metrics: Vec<String> = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                metric_json(name, out.layers.get(name).copied().unwrap_or(0.0), unit)
            })
            .collect()
    } else {
        let values = [
            out.setup_s,
            out.ops_per_s,
            out.gflops,
            out.op_p50_ms,
            out.op_tail_ms,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| metric_json(name, v, unit))
            .collect()
    };
    if args.trace {
        let path = util::build_dir()
            .join("perfbench-spans")
            .join(format!("{}-seed{}.json", args.workload, args.seed));
        if let Err(e) = tracer.write_out(&path) {
            eprintln!(
                "perfbench: could not write spans to {}: {e}",
                path.display()
            );
        }
    }
    eprintln!(
        "{}: attempted {} failed {} checks {}",
        args.workload,
        out.attempted,
        out.failed,
        if correct { "passed" } else { "FAILED" }
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    drop(scratch);
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
