//! `cluster`: distributed CAPS of seeded n = 2048 operands on 7 simulated
//! ranks (scale-up and scale-out links), once memory-rich (all BFS) and
//! once under a per-rank budget of (n/2)² words, which forces the first
//! step to DFS. Every distributed product must equal the node-local CAPS
//! product bit for bit, as the cluster crate guarantees at every node
//! count and budget; that product is computed once per run, before the
//! timed loop, and Freivalds-checked.

use crate::check::{eq8_check, freivalds, rejects_corruptions, Family};
use crate::util::{median, secs, Rng};
use crate::{Ctx, Outcome};
use powerscale_cluster::measured::preset_node_flops_per_s;
use powerscale_cluster::presets::e3_1225_net;
use powerscale_cluster::{dist_caps_multiply, DistCapsConfig, DistOutcome};
use powerscale_machine::net::{NetConfig, NetReport, Phase};
use powerscale_matrix::{Matrix, MatrixGen};
use powerscale_serve::checksum_f64;
use std::time::Instant;

const N: usize = 2048;
const RANKS: usize = 7;
const SETUP_REPS: usize = 5;
/// Per-rank budget of the forced run, in words.
const BUDGET_WORDS: u64 = (N as u64 / 2) * (N as u64 / 2);

#[derive(Clone, Copy)]
enum Leg {
    Bfs,
    Dfs,
}

impl Leg {
    fn config(self) -> DistCapsConfig {
        DistCapsConfig {
            mem_limit_bytes: match self {
                Leg::Bfs => None,
                Leg::Dfs => Some(BUDGET_WORDS * 8),
            },
            ..DistCapsConfig::default()
        }
    }

    fn span(self) -> &'static str {
        match self {
            Leg::Bfs => "cluster.dist_caps_bfs",
            Leg::Dfs => "cluster.dist_caps_dfs",
        }
    }
}

fn phase_mb(report: &NetReport, phase: Phase) -> f64 {
    (0..report.config.nodes)
        .map(|r| report.recv_bytes(r, phase))
        .sum::<u64>() as f64
        / 1e6
}

/// Bitwise equality with the node-local product (checksum `want`) and
/// Eq. 8 on the metered traffic; returns measured traffic ÷ the Eq. 8
/// bound.
fn check_leg(leg: Leg, d: &DistOutcome, want: u64) -> Result<f64, String> {
    let got = checksum_f64(d.c.as_slice());
    if got != want {
        return Err(format!(
            "{}: product checksum {got:#x} differs from the node-local CAPS product's {want:#x}",
            leg.span()
        ));
    }
    let measured_words = d.report.max_recv_bytes(Phase::Algo) / 8;
    let (m_words, budgeted) = match leg {
        Leg::Bfs => (d.report.max_peak_bytes() / 8, false),
        Leg::Dfs => (BUDGET_WORDS, true),
    };
    eq8_check(N, RANKS, m_words, budgeted, measured_words)
}

/// The single-node CAPS product of the operands, with the configuration
/// the distributed legs use for their leaves: Freivalds-checked (with a
/// showing that the check rejects corruptions of it) and reduced to its
/// checksum, which every distributed product must match bit for bit.
fn node_local_reference(ctx: &Ctx<'_>, a: &Matrix, b: &Matrix, out: &mut Outcome) -> Option<u64> {
    let caps = DistCapsConfig::default().caps;
    let t0 = Instant::now();
    let c = ctx.tracer.span("caps.multiply_node_local", || {
        powerscale_caps::multiply(&a.view(), &b.view(), &caps, None, None)
    });
    out.layers.insert("caps.node_local_s", secs(t0));
    let c = match c {
        Ok(c) => c,
        Err(e) => {
            out.errors.push(format!("node-local CAPS failed: {e}"));
            return None;
        }
    };
    let family = Family::Strassen {
        cutoff: caps.cutoff,
    };
    ctx.tracer.span("check.freivalds", || {
        if let Err(e) = freivalds(a, b, &c, family, ctx.seed) {
            out.errors.push(format!("node-local CAPS: {e}"));
        }
        out.errors
            .extend(rejects_corruptions(a, b, &c, family, ctx.seed));
    });
    Some(checksum_f64(c.as_slice()))
}

pub fn run(ctx: &Ctx<'_>) -> Outcome {
    let t = ctx.tracer;
    let mut out = Outcome::default();
    let operand_seed = Rng::new(ctx.seed ^ 0xC1u64).next_u64();

    let mut setups = Vec::new();
    let mut state: Option<(Matrix, Matrix, NetConfig)> = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let s = t.span("setup", || {
            let mut gen = MatrixGen::new(operand_seed);
            let a = t.span("matrix.paper_operand", || gen.paper_operand(N));
            let b = t.span("matrix.paper_operand", || gen.paper_operand(N));
            (a, b, e3_1225_net(RANKS))
        });
        setups.push(secs(t0));
        state = Some(s);
    }
    let (a, b, net) = state.expect("at least one set-up");
    out.setup_s = median(&setups);

    let Some(want) = node_local_reference(ctx, &a, &b, &mut out) else {
        return out;
    };

    let legs = [Leg::Bfs, Leg::Dfs];
    let mut walls: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut last: [Option<DistOutcome>; 2] = [None, None];
    let mut ratios = [0.0; 2];
    let mut op_ms = Vec::new();
    let start = Instant::now();
    loop {
        for (i, &leg) in legs.iter().enumerate() {
            out.attempted += 1;
            let t0 = Instant::now();
            let result = t.span(leg.span(), || {
                dist_caps_multiply(&a, &b, &leg.config(), &net)
            });
            let wall = secs(t0);
            match result {
                Err(e) => {
                    out.failed += 1;
                    eprintln!("distributed multiply failed: {e}");
                }
                Ok(d) => {
                    match t.span("check.distributed", || check_leg(leg, &d, want)) {
                        Ok(ratio) => ratios[i] = ratio,
                        Err(e) => out.errors.push(e),
                    }
                    walls[i].push(wall);
                    op_ms.push(wall * 1e3);
                    last[i] = Some(d);
                }
            }
        }
        if secs(start) >= ctx.seconds {
            break;
        }
    }

    let flops = 2.0 * (N as f64).powi(3);
    let mut total = 0.0;
    let mut measured = 0;
    for (i, key) in ["dist.bfs_s", "dist.dfs_s"].into_iter().enumerate() {
        if !walls[i].is_empty() {
            let m = median(&walls[i]);
            eprintln!(
                "{key}: median {m:.4} s over {} products (min {:.4}, max {:.4})",
                walls[i].len(),
                walls[i].iter().copied().fold(f64::INFINITY, f64::min),
                walls[i].iter().copied().fold(0.0, f64::max)
            );
            total += m;
            measured += 1;
            out.op_tail_ms = out.op_tail_ms.max(m * 1e3);
            out.layers.insert(key, m);
        }
    }
    out.op_p50_ms = median(&op_ms);
    out.ops_per_s = measured as f64 / total;
    out.gflops = measured as f64 * flops / total / 1e9;

    let l = &mut out.layers;
    l.insert("dist.bfs_eq8_ratio", ratios[0]);
    l.insert("dist.dfs_eq8_ratio", ratios[1]);
    if let Some(d) = &last[0] {
        l.insert(
            "dist.bfs_recv_mb",
            d.report.max_recv_bytes(Phase::Algo) as f64 / 1e6,
        );
    }
    if let Some(d) = &last[1] {
        let rate = preset_node_flops_per_s();
        let r = &d.report;
        l.insert(
            "dist.dfs_recv_mb",
            r.max_recv_bytes(Phase::Algo) as f64 / 1e6,
        );
        l.insert("dist.makespan_ms", d.makespan_s(rate) * 1e3);
        l.insert("net.scatter_mb", phase_mb(r, Phase::Scatter));
        l.insert("net.algo_mb", phase_mb(r, Phase::Algo));
        l.insert("net.gather_mb", phase_mb(r, Phase::Gather));
        l.insert("net.msgs", r.total_msgs() as f64);
        l.insert("net.peak_rank_mb", r.max_peak_bytes() as f64 / 1e6);
        let comm = (0..r.config.nodes)
            .map(|k| r.comm_seconds(k))
            .fold(0.0, f64::max);
        l.insert("net.comm_model_ms", comm * 1e3);
        let compute = d.compute_seconds(rate).into_iter().fold(0.0, f64::max);
        l.insert("dist.compute_model_ms", compute * 1e3);
    }

    out
}
