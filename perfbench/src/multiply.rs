//! `multiply`: paper operands at n = 2048 multiplied over and over on a
//! 2-worker pool by blocked DGEMM, Strassen classic, Strassen-Winograd and
//! CAPS at their default configurations.

use crate::check::{freivalds, rejects_corruptions, Family};
use crate::util::{median, secs, Rng};
use crate::{Ctx, Outcome};
use powerscale_caps::CapsConfig;
use powerscale_counters::{Event, EventSet, Profile};
use powerscale_gemm::{dgemm, BlockingParams, GemmContext};
use powerscale_harness::{Algorithm, Harness, RunSpec};
use powerscale_matrix::{Matrix, MatrixGen};
use powerscale_pool::{PoolStats, ThreadPool};
use powerscale_strassen::StrassenConfig;
use std::time::Instant;

const N: usize = 2048;
const THREADS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Operand size of the untimed warm-up round.
const WARM_N: usize = 256;

#[derive(Debug, Clone, Copy)]
enum Alg {
    Blocked,
    Strassen,
    Winograd,
    Caps,
}

const ALGS: [Alg; 4] = [Alg::Blocked, Alg::Strassen, Alg::Winograd, Alg::Caps];

impl Alg {
    fn name(self) -> &'static str {
        match self {
            Alg::Blocked => "blocked",
            Alg::Strassen => "strassen",
            Alg::Winograd => "winograd",
            Alg::Caps => "caps",
        }
    }

    /// Per-layer metric names: rate, pool steals, pool parks, model watts.
    fn layer_keys(self) -> [&'static str; 4] {
        match self {
            Alg::Blocked => [
                "multiply.blocked_gflops",
                "pool.stolen.blocked",
                "pool.parks.blocked",
                "harness.model_pkg_w.blocked",
            ],
            Alg::Strassen => [
                "multiply.strassen_gflops",
                "pool.stolen.strassen",
                "pool.parks.strassen",
                "harness.model_pkg_w.strassen",
            ],
            Alg::Winograd => [
                "multiply.winograd_gflops",
                "pool.stolen.winograd",
                "pool.parks.winograd",
                "harness.model_pkg_w.winograd",
            ],
            Alg::Caps => [
                "multiply.caps_gflops",
                "pool.stolen.caps",
                "pool.parks.caps",
                "harness.model_pkg_w.caps",
            ],
        }
    }

    fn span(self) -> &'static str {
        match self {
            Alg::Blocked => "gemm.dgemm",
            Alg::Strassen => "strassen.multiply",
            Alg::Winograd => "strassen.multiply_winograd",
            Alg::Caps => "caps.multiply",
        }
    }

    fn family(self) -> Family {
        let cutoff = StrassenConfig::default().cutoff;
        match self {
            Alg::Blocked => Family::Conventional,
            Alg::Strassen => Family::Strassen { cutoff },
            Alg::Winograd => Family::Winograd { cutoff },
            Alg::Caps => Family::Strassen {
                cutoff: CapsConfig::default().cutoff,
            },
        }
    }

    /// The harness algorithm whose power-model class fits this executor.
    fn harness_algorithm(self) -> Algorithm {
        match self {
            Alg::Blocked => Algorithm::Blocked,
            Alg::Strassen | Alg::Winograd => Algorithm::Strassen,
            Alg::Caps => Algorithm::Caps,
        }
    }

    fn run(
        self,
        a: &Matrix,
        b: &Matrix,
        pool: &ThreadPool,
        events: Option<&EventSet>,
    ) -> Result<Matrix, String> {
        let (av, bv) = (a.view(), b.view());
        let r = match self {
            Alg::Blocked => {
                let mut c = Matrix::zeros(a.rows(), b.cols());
                let ctx = GemmContext {
                    pool: Some(pool),
                    events,
                    ..GemmContext::default()
                };
                dgemm(1.0, &av, &bv, 0.0, &mut c.view_mut(), &ctx).map(|()| c)
            }
            Alg::Strassen => powerscale_strassen::multiply(
                &av,
                &bv,
                &StrassenConfig::default(),
                Some(pool),
                events,
            ),
            Alg::Winograd => powerscale_strassen::multiply(
                &av,
                &bv,
                &StrassenConfig::default().winograd(),
                Some(pool),
                events,
            ),
            Alg::Caps => {
                powerscale_caps::multiply(&av, &bv, &CapsConfig::default(), Some(pool), events)
            }
        };
        r.map_err(|e| format!("{} multiply failed: {e}", self.name()))
    }
}

fn parks(s: &PoolStats) -> u64 {
    s.workers.iter().map(|w| w.parks).sum()
}

/// One algorithm's samples across the run.
#[derive(Default)]
struct Samples {
    walls: Vec<f64>,
    profile: Option<Profile>,
    stolen: u64,
    parks: u64,
}

pub fn run(ctx: &Ctx<'_>) -> Outcome {
    let t = ctx.tracer;
    let mut out = Outcome::default();
    let mut operand_seed = Rng::new(ctx.seed).next_u64();

    // Set-up: the operands and the pool. The blocking parameters are
    // derived from the host's caches once per process, so only the first
    // set-up pays for that.
    let mut setups = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let s = t.span("setup", || {
            let mut gen = MatrixGen::new(operand_seed);
            let a = t.span("matrix.paper_operand", || gen.paper_operand(N));
            let b = t.span("matrix.paper_operand", || gen.paper_operand(N));
            let pool = t.span("pool.new", || ThreadPool::new(THREADS));
            t.span("gemm.autotune", BlockingParams::default);
            (a, b, pool)
        });
        setups.push(secs(t0));
        state = Some(s);
    }
    let (a, b, pool) = state.expect("at least one set-up");
    out.setup_s = median(&setups);
    operand_seed = operand_seed.wrapping_add(1);

    // Untimed warm-up: arenas, pool threads and code paths.
    t.span("warmup", || {
        let mut gen = MatrixGen::new(operand_seed);
        let (wa, wb) = (gen.paper_operand(WARM_N), gen.paper_operand(WARM_N));
        for alg in ALGS {
            let _ = alg.run(&wa, &wb, &pool, None);
        }
    });

    let mut samples: Vec<Samples> = ALGS.iter().map(|_| Samples::default()).collect();
    let mut op_ms = Vec::new();
    let start = Instant::now();
    let mut round = 0u64;
    loop {
        for (alg, s) in ALGS.iter().zip(samples.iter_mut()) {
            out.attempted += 1;
            // Counters only in the traced run: the untraced run times the
            // plain library calls.
            let mut set = t.enabled().then(EventSet::with_all_events);
            if let Some(set) = &mut set {
                set.start().expect("fresh event set");
            }
            let before = t.enabled().then(|| pool.stats());
            let t0 = Instant::now();
            let result = t.span(alg.span(), || alg.run(&a, &b, &pool, set.as_ref()));
            let wall = secs(t0);
            match result {
                Err(e) => {
                    out.failed += 1;
                    eprintln!("{e}");
                }
                Ok(c) => {
                    let seed = ctx.seed ^ (round << 8) ^ *alg as u64;
                    t.span("check.freivalds", || {
                        if let Err(e) = freivalds(&a, &b, &c, alg.family(), seed) {
                            out.errors.push(format!("{}: {e}", alg.name()));
                        }
                        if round == 0 {
                            out.errors
                                .extend(rejects_corruptions(&a, &b, &c, alg.family(), seed));
                        }
                    });
                    s.walls.push(wall);
                    op_ms.push(wall * 1e3);
                    if let (Some(mut set), Some(before)) = (set, before) {
                        let after = pool.stats();
                        s.profile = Some(set.stop().expect("running event set"));
                        s.stolen = after.total_stolen() - before.total_stolen();
                        s.parks = parks(&after) - parks(&before);
                    }
                }
            }
        }
        round += 1;
        if secs(start) >= ctx.seconds {
            break;
        }
    }

    let flops = 2.0 * (N as f64).powi(3);
    let harness = Harness::default();
    let mut total_wall = 0.0;
    let mut measured = 0;
    let mut joules = 0.0;
    let mut slowest = 0.0f64;
    for (alg, s) in ALGS.iter().zip(&samples) {
        if s.walls.is_empty() {
            continue;
        }
        let wall = median(&s.walls);
        total_wall += wall;
        measured += 1;
        slowest = slowest.max(wall);
        eprintln!(
            "{:>8}: median {:.4} s over {} products (min {:.4}, max {:.4})",
            alg.name(),
            wall,
            s.walls.len(),
            s.walls.iter().copied().fold(f64::INFINITY, f64::min),
            s.walls.iter().copied().fold(0.0, f64::max)
        );
        let [rate_key, stolen_key, parks_key, watts_key] = alg.layer_keys();
        let l = &mut out.layers;
        l.insert(rate_key, flops / wall / 1e9);
        l.insert(stolen_key, s.stolen as f64);
        l.insert(parks_key, s.parks as f64);
        if let Some(p) = &s.profile {
            let spec = RunSpec::new(alg.harness_algorithm(), N, THREADS);
            let watts = harness.profile_power(spec, p);
            joules += watts * wall;
            l.insert(watts_key, watts);
            let mb = |e: Event| p.get(e) as f64 / 1e6;
            match alg {
                Alg::Blocked => {
                    l.insert("blocked.pack_mb", mb(Event::PackBytes));
                }
                Alg::Strassen => {
                    l.insert("strassen.fp_adds", p.get(Event::FpAdds) as f64);
                    l.insert("strassen.pack_mb", mb(Event::PackBytes));
                    l.insert("strassen.kernel_calls", p.get(Event::KernelCalls) as f64);
                    l.insert("strassen.tasks_spawned", p.get(Event::TasksSpawned) as f64);
                    l.insert(
                        "strassen.tasks_migrated",
                        p.get(Event::TasksMigrated) as f64,
                    );
                }
                Alg::Winograd => {
                    l.insert("winograd.fp_adds", p.get(Event::FpAdds) as f64);
                    l.insert("winograd.pack_mb", mb(Event::PackBytes));
                }
                Alg::Caps => {
                    l.insert("caps.fp_adds", p.get(Event::FpAdds) as f64);
                    l.insert("caps.pack_mb", mb(Event::PackBytes));
                    l.insert("caps.comm_mb", mb(Event::CommBytes));
                    l.insert("caps.tasks_spawned", p.get(Event::TasksSpawned) as f64);
                    l.insert("caps.tasks_migrated", p.get(Event::TasksMigrated) as f64);
                    l.insert(
                        "caps.steals_cross_group",
                        p.get(Event::StealsCrossGroup) as f64,
                    );
                }
            }
        }
    }
    out.layers.insert("multiply.model_joules", joules);
    out.op_p50_ms = median(&op_ms);
    out.op_tail_ms = slowest * 1e3;
    // One round's products over the sum of the per-algorithm median walls.
    out.ops_per_s = measured as f64 / total_wall;
    out.gflops = measured as f64 * flops / total_wall / 1e9;
    out
}
