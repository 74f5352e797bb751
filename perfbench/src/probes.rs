//! Probes of single layers, run in every traced run after the workload.
//! Each times one public entry point of a layer on fixed inputs, inside a
//! span of its own.

use crate::serve::REQUESTS;
use crate::spans::Tracer;
use crate::util::{median, median_timed, secs};
use crate::{Ctx, Outcome};
use powerscale_cluster::dist::Block;
use powerscale_cluster::presets::e3_1225_net;
use powerscale_gemm::pack::{pack_a, pack_b, packed_a_len, packed_b_len};
use powerscale_gemm::{
    dgemm, leaf_gemm_fused, Accum, BlockingParams, DtypeTier, GemmContext, Operand,
};
use powerscale_harness::Algorithm;
use powerscale_machine::net::run_spmd;
use powerscale_matrix::{ops, Matrix, MatrixGen};
use powerscale_pool::ThreadPool;
use powerscale_serve::queue::ExecPlan;
use powerscale_serve::{JobSpec, Journal, JournalRecord, ServeManifest};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Repeats `f` until at least `min_s` seconds have passed (and at least
/// three times); returns the median seconds per call.
fn per_call(min_s: f64, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < 3 || secs(start) < min_s {
        let t0 = Instant::now();
        f();
        times.push(secs(t0));
    }
    median(&times)
}

pub fn run(ctx: &Ctx<'_>, out: &mut Outcome) {
    let layers = &mut out.layers;
    let t = ctx.tracer;
    let pool = ThreadPool::new(2);
    let kernel = powerscale_gemm::select_kernel_for(DtypeTier::F64);
    let params = BlockingParams::autotuned_for(kernel);
    let mut gen = MatrixGen::new(ctx.seed ^ 0x9e0b);

    // gemm: the microkernel on packed, cache-resident slivers.
    let micro = t.span("probe.gemm.microkernel", || {
        microkernel_gflops(&mut gen, params)
    });
    layers.insert("gemm.microkernel_gflops", micro);

    // gemm: packing one autotuned block (A: mc×kc, B: kc×nc).
    let big = gen.paper_operand(1024);
    let (mc, kc, nc) = (
        params.mc.min(1024),
        params.kc.min(1024),
        params.nc.min(1024),
    );
    let mut pa = vec![0.0f64; packed_a_len(mc, kc, kernel.mr)];
    let mut pb = vec![0.0f64; packed_b_len(kc, nc, kernel.nr)];
    let av = big
        .sub_view((0, 0), (mc, kc))
        .expect("block inside the operand");
    let bv = big
        .sub_view((0, 0), (kc, nc))
        .expect("block inside the operand");
    let pack_s = t.span("probe.gemm.pack", || {
        per_call(0.1, || {
            pack_a::<f64>(&av, &mut pa, kernel.mr);
            pack_b::<f64>(&bv, &mut pb, kernel.nr);
            black_box((&pa, &pb));
        })
    });
    layers.insert(
        "gemm.pack_gbps",
        ((mc * kc + kc * nc) * 8) as f64 / pack_s / 1e9,
    );

    // gemm: whole dgemm on one thread and on the 2-worker pool, n = 1024.
    let b2 = gen.paper_operand(1024);
    let flops = 2.0 * 1024f64.powi(3);
    let mut c = Matrix::zeros(1024, 1024);
    let (one_t, ()) = t.span("probe.gemm.dgemm_1t", || {
        median_timed(3, || {
            let gctx = GemmContext {
                params,
                kernel,
                pool: None,
                events: None,
            };
            dgemm(1.0, &big.view(), &b2.view(), 0.0, &mut c.view_mut(), &gctx).expect("square");
        })
    });
    layers.insert("gemm.dgemm_1t_gflops", flops / one_t / 1e9);
    let (two_t, ()) = t.span("probe.gemm.dgemm_2t", || {
        median_timed(3, || {
            let gctx = GemmContext {
                params,
                kernel,
                pool: Some(&pool),
                events: None,
            };
            dgemm(1.0, &big.view(), &b2.view(), 0.0, &mut c.view_mut(), &gctx).expect("square");
        })
    });
    layers.insert("gemm.roofline", flops / two_t / 1e9 / (2.0 * micro));

    // gemm: the fused leaf at the recursion cutoff, X+Y operands, C += A·B.
    let leaf = 64;
    let q: Vec<Matrix> = (0..4).map(|_| gen.paper_operand(leaf)).collect();
    let mut lc = Matrix::zeros(leaf, leaf);
    let leaf_s = t.span("probe.gemm.leaf_fused", || {
        per_call(0.1, || {
            leaf_gemm_fused(
                Operand::Add(q[0].view(), q[1].view()),
                Operand::Add(q[2].view(), q[3].view()),
                &mut lc.view_mut(),
                Accum::Add,
                None,
            )
            .expect("leaf shapes agree");
        })
    });
    layers.insert(
        "gemm.leaf_fused_gflops",
        2.0 * (leaf as f64).powi(3) / leaf_s / 1e9,
    );

    // matrix: a parallel quadrant add on a 1024² quadrant of n = 2048.
    let whole = gen.paper_operand(2048);
    let mut dst = Matrix::zeros(1024, 1024);
    let x = whole.sub_view((0, 0), (1024, 1024)).expect("quadrant");
    let y = whole
        .sub_view((1024, 1024), (1024, 1024))
        .expect("quadrant");
    let add_s = t.span("probe.matrix.par_add_into", || {
        per_call(0.1, || {
            ops::par_add_into(&x, &y, &mut dst.view_mut(), Some(&pool)).expect("same shapes");
        })
    });
    layers.insert(
        "matrix.add_gbps",
        (3 * 1024 * 1024 * 8) as f64 / add_s / 1e9,
    );
    let gen_s = t.span("probe.matrix.paper_operand", || {
        per_call(0.05, || {
            black_box(gen.paper_operand(256));
        })
    });
    layers.insert("matrix.operand_gen_ms", gen_s * 1e3);

    // pool: scope + spawn of empty tasks.
    let tasks = 1000;
    let spawn_s = t.span("probe.pool.spawn_join", || {
        per_call(0.1, || {
            pool.scope(|s| {
                for _ in 0..tasks {
                    s.spawn(|_| {});
                }
            })
        })
    });
    layers.insert("pool.spawn_join_us", spawn_s / tasks as f64 * 1e6);
    drop(pool);

    journal(ctx, t, layers);
    let mut errors = t.span("probe.serve.mixed_tiers", || {
        crate::serve::mixed_tier_probe(ctx, layers)
    });
    out.errors.append(&mut errors);
    let mut errors = t.span("probe.serve.crash_resume", || {
        crate::serve::crash_resume_probe(ctx, layers)
    });
    out.errors.append(&mut errors);

    // net: a two-rank Block ping-pong on the scale-up link.
    let pp = pingpong_gbps(t);
    layers.insert("net.pingpong_gbps", pp);
}

/// Sustained GFLOP/s of the dispatched f64 kernel sweeping a packed
/// `96 × 96` tile block at depth `kc`, one thread.
fn microkernel_gflops(gen: &mut MatrixGen, params: BlockingParams) -> f64 {
    let kernel = powerscale_gemm::select_kernel_for(DtypeTier::F64);
    let (m, kc) = (96, params.kc);
    let a = gen.paper_operand(m.max(kc));
    let av = a.sub_view((0, 0), (m, kc)).expect("block");
    let bv = a.sub_view((0, 0), (kc, m)).expect("block");
    let mut pa = vec![0.0f64; packed_a_len(m, kc, kernel.mr)];
    let mut pb = vec![0.0f64; packed_b_len(kc, m, kernel.nr)];
    pack_a::<f64>(&av, &mut pa, kernel.mr);
    pack_b::<f64>(&bv, &mut pb, kernel.nr);
    let mut c = Matrix::zeros(m, m);
    let (a_strips, b_strips) = (m.div_ceil(kernel.mr), m.div_ceil(kernel.nr));
    let s = per_call(0.2, || {
        kernel.sweep_tiles(kc, &pa, &pb, a_strips, b_strips, 1.0, &mut c.view_mut());
    });
    2.0 * (m * m * kc) as f64 / s / 1e9
}

/// Journal write and recovery paths on a scratch directory: per-request
/// cost of `record_admitted` + `record_done`, and `resume` over a journal
/// of one serving batch with half its records done.
fn journal(ctx: &Ctx<'_>, t: &Tracer, layers: &mut BTreeMap<&'static str, f64>) {
    let dir = ctx.scratch.fresh("probe-journal");
    let manifest = ServeManifest {
        seed: ctx.seed,
        capacity: 64,
        threads: 2,
    };
    let journal = Journal::create(&dir, &manifest);
    let plan = ExecPlan {
        algorithm: Algorithm::Strassen,
        dtype: DtypeTier::F64,
        degraded: None,
    };
    let record = |id: u64, done: bool| {
        let spec = JobSpec::new(id, 128, Algorithm::Strassen);
        let mut rec = JournalRecord::pending(spec, plan);
        journal.record_admitted(&rec);
        if done {
            let mut resp = powerscale_serve::Response::failed(
                id,
                powerscale_serve::FailReason::WorkerPanic,
                1,
                String::new(),
            );
            resp.status = powerscale_serve::Status::Completed;
            resp.checksum = Some(id);
            rec.response = Some(resp);
            journal.record_done(&rec);
        }
    };
    let t0 = Instant::now();
    t.span("probe.journal.record", || {
        for id in 0..REQUESTS as u64 {
            record(id, id % 2 == 0);
        }
    });
    // Half the records were completed: count both writes of those.
    let writes = REQUESTS + REQUESTS / 2;
    layers.insert("journal.record_us", secs(t0) / writes as f64 * 2.0 * 1e6);
    let resume_s = t.span("probe.journal.resume", || {
        per_call(0.1, || {
            let (_, recs) = Journal::resume(&dir, &manifest).expect("journal just written");
            assert_eq!(recs.len(), REQUESTS);
        })
    });
    layers.insert("journal.resume_ms", resume_s * 1e3);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Bytes per second of a two-rank `Block` exchange (1 MiB each way,
/// repeated), host wall time.
fn pingpong_gbps(t: &Tracer) -> f64 {
    let net = e3_1225_net(2);
    let side = 362; // 362² doubles ≈ 1 MiB
    let reps = 50u64;
    let t0 = Instant::now();
    let res = t.span("probe.net.pingpong", || {
        run_spmd::<Block, (), _>(&net, |ep| {
            let peer = 1 - ep.rank();
            for r in 0..reps {
                if ep.rank() == 0 {
                    ep.send(peer, r, Block(Matrix::zeros(side, side)))?;
                    ep.recv(peer, r)?;
                } else {
                    let got = ep.recv(peer, r)?;
                    ep.send(peer, r, got)?;
                }
            }
            Ok(())
        })
    });
    let wall = secs(t0);
    match res {
        Ok((_, report)) => report.total_bytes() as f64 / wall / 1e9,
        Err(e) => {
            eprintln!("ping-pong failed: {e}");
            0.0
        }
    }
}
