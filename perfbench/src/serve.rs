//! `serve-f64`: a seeded closed batch of small f64 multiplies through
//! `Server::run` with 2 executors on 2 workers, with no journal, no chaos
//! and no deadlines, and algorithm hints spread over blocked/Strassen/CAPS.
//!
//! Every round serves the same batch on a fresh server, so rounds are
//! whole repetitions of the same operations.
//!
//! Two probes run in traced runs only, because their timing swings too
//! much for an end-to-end bound: [`mixed_tier_probe`] serves a batch whose
//! dtype tiers are split evenly over f64/mixed/f32, so executors wait on
//! the process-global dtype pin, and [`crash_resume_probe`] exercises the
//! journaled crash-and-resume path, whose timing on a shared disk swings
//! by several times between seconds.

use crate::check::{exactly_once, freivalds, request_operands, Family};
use crate::spans::Tracer;
use crate::util::{dir_bytes, median, quantile, secs, Rng};
use crate::{Ctx, Outcome};
use powerscale_gemm::{dgemm, BlockingParams, DtypeTier, GemmContext};
use powerscale_harness::{Algorithm, Harness};
use powerscale_matrix::Matrix;
use powerscale_serve::{checksum_f64, JobSpec, Response, ServeStats, Server, ServerConfig, Status};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Requests per batch.
pub const REQUESTS: usize = 1200;
/// Requests in each probe's batch.
const PROBE_REQUESTS: usize = 240;
/// One request in this many is a duplicate-content copy of another.
const DUP_EVERY: usize = 20;
/// Square shapes, drawn uniformly.
const SHAPES: [usize; 7] = [64, 96, 128, 160, 192, 224, 256];
const ALGORITHMS: [Algorithm; 3] = [Algorithm::Blocked, Algorithm::Strassen, Algorithm::Caps];
const TIERS: [DtypeTier; 3] = [DtypeTier::F64, DtypeTier::Mixed, DtypeTier::F32];
const THREADS: usize = 2;
const EXECUTORS: usize = 2;
/// Extra set-ups timed before the first round; `setup_s` is the median
/// over these and every round's own set-up.
const SETUP_REPS: usize = 15;

/// A batch of `requests` specs in a seeded submission order. Distinct
/// requests get a seeded shape, algorithm and operand seed, and tiers in
/// strict rotation; every `DUP_EVERY`-th request repeats an earlier
/// request's content (n, algorithm, tier, seed) under a new id, with the
/// copied requests chosen so tiers stay balanced.
fn make_batch(seed: u64, mixed_tiers: bool, requests: usize) -> Vec<JobSpec> {
    let mut rng = Rng::new(seed);
    let dups = requests / DUP_EVERY;
    let distinct = requests - dups;
    let mut specs: Vec<JobSpec> = (0..distinct)
        .map(|i| {
            let n = SHAPES[rng.below(SHAPES.len())];
            let alg = ALGORITHMS[rng.below(ALGORITHMS.len())];
            let tier = if mixed_tiers {
                TIERS[i % TIERS.len()]
            } else {
                DtypeTier::F64
            };
            JobSpec::new(i as u64, n, alg)
                .with_dtype(tier)
                .with_seed(rng.next_u64())
        })
        .collect();
    for j in 0..dups {
        let src = TIERS.len() * rng.below(distinct / TIERS.len()) + j % TIERS.len();
        let copy = JobSpec {
            id: (distinct + j) as u64,
            ..specs[src]
        };
        specs.push(copy);
    }
    rng.shuffle(&mut specs);
    specs
}

fn config(seed: u64) -> ServerConfig {
    ServerConfig {
        seed,
        threads: THREADS,
        executors: EXECUTORS,
        ..ServerConfig::default()
    }
}

/// Content of a request: everything its product depends on.
type Content = (usize, Algorithm, DtypeTier, u64);

fn content(spec: &JobSpec) -> Content {
    (spec.n, spec.algorithm, spec.dtype, spec.seed)
}

/// Reference results kept across rounds.
#[derive(Default)]
struct Verifier {
    /// f64 content → checksum of the benchmark's own product.
    f64_refs: HashMap<Content, u64>,
    /// mixed/f32 content → the first checksum served for it.
    seen: HashMap<Content, u64>,
}

impl Verifier {
    /// The benchmark's own f64 product for a request: operands rebuilt
    /// from the seed and multiplied through the library with the
    /// algorithm's default configuration, then Freivalds-checked.
    fn f64_reference(ctx: &Ctx<'_>, spec: &JobSpec) -> Result<u64, String> {
        let (a, b) = request_operands(spec.n, spec.seed);
        let harness = Harness::default();
        let (c, family) = match spec.algorithm {
            Algorithm::Blocked => {
                let mut c = Matrix::zeros(spec.n, spec.n);
                let kernel = powerscale_gemm::select_kernel_for(DtypeTier::F64);
                let gctx = GemmContext {
                    params: BlockingParams::autotuned_for(kernel),
                    kernel,
                    pool: None,
                    events: None,
                };
                dgemm(1.0, &a.view(), &b.view(), 0.0, &mut c.view_mut(), &gctx)
                    .map_err(|e| e.to_string())?;
                (c, Family::Conventional)
            }
            Algorithm::Strassen => (
                powerscale_strassen::multiply(&a.view(), &b.view(), &harness.strassen, None, None)
                    .map_err(|e| e.to_string())?,
                Family::Strassen {
                    cutoff: harness.strassen.cutoff,
                },
            ),
            Algorithm::Caps => (
                powerscale_caps::multiply(&a.view(), &b.view(), &harness.caps, None, None)
                    .map_err(|e| e.to_string())?,
                Family::Strassen {
                    cutoff: harness.caps.cutoff,
                },
            ),
        };
        freivalds(&a, &b, &c, family, ctx.seed ^ spec.seed)?;
        Ok(checksum_f64(c.as_slice()))
    }

    /// Checks every completed response of one round; returns failures.
    fn check(&mut self, ctx: &Ctx<'_>, specs: &[JobSpec], responses: &[Response]) -> Vec<String> {
        let mut errors = Vec::new();
        let by_id: HashMap<u64, &JobSpec> = specs.iter().map(|s| (s.id, s)).collect();
        for r in responses.iter().filter(|r| r.status == Status::Completed) {
            let spec = by_id[&r.id];
            if r.degraded.is_some() {
                errors.push(format!(
                    "request {} was served degraded ({:?})",
                    r.id, r.degraded
                ));
                continue;
            }
            let Some(sum) = r.checksum else {
                errors.push(format!("completed request {} carries no checksum", r.id));
                continue;
            };
            let key = content(spec);
            if spec.dtype == DtypeTier::F64 {
                let want = match self.f64_refs.get(&key) {
                    Some(&w) => w,
                    None => match ctx
                        .tracer
                        .span("check.reference", || Self::f64_reference(ctx, spec))
                    {
                        Ok(w) => {
                            self.f64_refs.insert(key, w);
                            w
                        }
                        Err(e) => {
                            errors.push(format!("request {}: reference product: {e}", r.id));
                            continue;
                        }
                    },
                };
                if sum != want {
                    errors.push(format!(
                        "request {} (n={}, {:?}): checksum {sum:#x} != reference {want:#x}",
                        r.id, spec.n, spec.algorithm
                    ));
                }
            } else {
                let first = *self.seen.entry(key).or_insert(sum);
                if sum != first {
                    errors.push(format!(
                        "request {} ({} n={}, {:?}): checksum differs from another request with the same content",
                        r.id, spec.dtype, spec.n, spec.algorithm
                    ));
                }
            }
        }
        errors
    }
}

/// Per-round figures.
#[derive(Default)]
struct Rounds {
    setup_s: Vec<f64>,
    rps: Vec<f64>,
    gflops: Vec<f64>,
    /// Each round's median and 99th-percentile request latency.
    p50_ms: Vec<f64>,
    p99_ms: Vec<f64>,
    queued_ms: Vec<f64>,
    exec_ms: Vec<f64>,
    wall_ms: Vec<f64>,
    overhead_ms: Vec<f64>,
    stats: ServeStats,
}

impl Rounds {
    /// Folds one round's completed responses in; `wall` covers every
    /// request of the batch.
    fn add(&mut self, specs: &[JobSpec], responses: &[Response], wall: f64) {
        let by_id: HashMap<u64, &JobSpec> = specs.iter().map(|s| (s.id, s)).collect();
        let mut latency = Vec::with_capacity(responses.len());
        let mut flops = 0.0;
        for r in responses.iter().filter(|r| r.status == Status::Completed) {
            flops += 2.0 * (by_id[&r.id].n as f64).powi(3);
            let (q, e, w) = (
                r.queued_ms.unwrap_or(0.0),
                r.exec_ms.unwrap_or(0.0),
                r.wall_ms.unwrap_or(0.0),
            );
            latency.push(q + e);
            self.queued_ms.push(q);
            self.exec_ms.push(e);
            self.wall_ms.push(w);
            self.overhead_ms.push(e - w);
        }
        self.rps.push(latency.len() as f64 / wall);
        self.gflops.push(flops / wall / 1e9);
        if !latency.is_empty() {
            self.p50_ms.push(quantile(&latency, 0.5));
            self.p99_ms.push(quantile(&latency, 0.99));
        }
    }

    fn finish(self, out: &mut Outcome) {
        out.setup_s = median(&self.setup_s);
        out.ops_per_s = median(&self.rps);
        out.gflops = median(&self.gflops);
        out.op_p50_ms = median(&self.p50_ms);
        out.op_tail_ms = median(&self.p99_ms);
        let l = &mut out.layers;
        if !self.queued_ms.is_empty() {
            l.insert("serve.queue_wait_p50_ms", quantile(&self.queued_ms, 0.5));
            l.insert("serve.queue_wait_p99_ms", quantile(&self.queued_ms, 0.99));
            l.insert("serve.exec_p50_ms", quantile(&self.exec_ms, 0.5));
            l.insert("serve.exec_p99_ms", quantile(&self.exec_ms, 0.99));
            l.insert("serve.multiply_p50_ms", quantile(&self.wall_ms, 0.5));
            l.insert("serve.multiply_p99_ms", quantile(&self.wall_ms, 0.99));
            l.insert(
                "serve.exec_overhead_p50_ms",
                quantile(&self.overhead_ms, 0.5),
            );
        }
        let s = &self.stats;
        l.insert("serve.admitted", s.admitted as f64);
        l.insert("serve.completed", s.completed as f64);
        l.insert("serve.degraded", s.degraded as f64);
        l.insert("serve.shed", s.shed as f64);
        l.insert("serve.retried", s.retried as f64);
    }
}

/// The round loop of `serve-f64`. The batch and a warm server are set up
/// `SETUP_REPS` times first, then the batch is served once untimed
/// (arenas, pool threads and the reference products), then
/// served again on a fresh server until `ctx.seconds` have passed. Every
/// round, warm-up included, is counted and checked; the metrics come from
/// the measured rounds.
pub fn run(ctx: &Ctx<'_>) -> Outcome {
    let t = ctx.tracer;
    let mut out = Outcome::default();
    let mut rounds = Rounds::default();
    let mut verifier = Verifier::default();
    let specs = make_batch(ctx.seed, false, REQUESTS);
    let ids: Vec<u64> = specs.iter().map(|s| s.id).collect();
    // Set-up is everything before a batch can be served: building the
    // batch, constructing the server and warming it up.
    let timed_setup = || {
        let t0 = Instant::now();
        let server = t.span("setup", || {
            black_box(make_batch(ctx.seed, false, REQUESTS));
            new_server(t, config(ctx.seed)).and_then(|s| warm_up(t, s, false))
        });
        (secs(t0), server)
    };
    for _ in 0..SETUP_REPS {
        let (s, server) = timed_setup();
        rounds.setup_s.push(s);
        t.span("serve.shutdown", || drop(server));
    }
    let mut start = Instant::now();
    for round in 0.. {
        let (setup_s, server) = timed_setup();
        let server = match server {
            Ok(s) => s,
            Err(e) => {
                out.errors.push(e);
                break;
            }
        };
        let warm = server.stats().clone();
        let (wall, responses, mut stats) = run_timed(t, server, &specs);
        stats.admitted -= warm.admitted;
        stats.completed -= warm.completed;
        account(&mut out, &ids, &responses);
        let mut errors = t.span("check.responses", || {
            verifier.check(ctx, &specs, &responses)
        });
        out.errors.append(&mut errors);
        if round == 0 {
            start = Instant::now();
            continue;
        }
        eprintln!("round {round}: {:.1} req/s", specs.len() as f64 / wall);
        rounds.setup_s.push(setup_s);
        rounds.add(&specs, &responses, wall);
        rounds.stats = stats;
        if secs(start) >= ctx.seconds {
            break;
        }
    }
    rounds.finish(&mut out);
    out
}

/// Requests a server answers before it serves a batch.
const WARM_REQUESTS: u64 = 6;

fn new_server(t: &Tracer, cfg: ServerConfig) -> Result<Server, String> {
    t.span("serve.server_new", || Server::new(cfg))
        .map_err(|e| format!("Server::new: {e:?}"))
}

/// Serves a fresh server a few small requests (every algorithm, and every
/// tier when the batch mixes them), so pool threads, arenas and kernel
/// dispatch are warm before the batch. Their ids lie above the batch's.
fn warm_up(t: &Tracer, mut server: Server, mixed_tiers: bool) -> Result<Server, String> {
    let warm = (0..WARM_REQUESTS).map(|i| {
        let k = i as usize;
        let tier = if mixed_tiers {
            TIERS[k % TIERS.len()]
        } else {
            DtypeTier::F64
        };
        JobSpec::new(u64::MAX - i, 64, ALGORITHMS[k % ALGORITHMS.len()]).with_dtype(tier)
    });
    let responses = t.span("serve.warmup", || server.run(warm));
    if responses.len() as u64 != WARM_REQUESTS
        || responses.iter().any(|r| r.status != Status::Completed)
    {
        return Err(format!("warm-up requests not all completed: {responses:?}"));
    }
    Ok(server)
}

/// Audits one round's response set and counts its operations.
fn account(out: &mut Outcome, ids: &[u64], responses: &[Response]) {
    out.attempted += ids.len() as u64;
    match exactly_once(ids, responses) {
        Ok(failed) => out.failed += failed.len() as u64,
        Err(e) => out.errors.push(e),
    }
}

/// One batch with dtype tiers split evenly over f64/mixed/f32, served
/// once on a warmed server: exactly-once delivery, f64 products against
/// the benchmark's own, and equal checksums for the duplicate-content
/// mixed/f32 requests. Executors serving different tiers wait on each
/// other through the process-global dtype pin, so its rate against
/// `serve-f64`'s is the pin's cost. Returns the checks that failed.
pub fn mixed_tier_probe(ctx: &Ctx<'_>, layers: &mut BTreeMap<&'static str, f64>) -> Vec<String> {
    let t = ctx.tracer;
    let specs = make_batch(ctx.seed ^ 0x3u64, true, PROBE_REQUESTS);
    let ids: Vec<u64> = specs.iter().map(|s| s.id).collect();
    let server = match new_server(t, config(ctx.seed)).and_then(|s| warm_up(t, s, true)) {
        Ok(s) => s,
        Err(e) => return vec![e],
    };
    let (wall, responses, _) = run_timed(t, server, &specs);
    let mut errors = Vec::new();
    match exactly_once(&ids, &responses) {
        Ok(failed) if failed.is_empty() => {}
        Ok(failed) => errors.push(format!("{} mixed-tier requests failed", failed.len())),
        Err(e) => errors.push(format!("mixed tiers: {e}")),
    }
    errors.extend(Verifier::default().check(ctx, &specs, &responses));
    let queued: Vec<f64> = responses.iter().filter_map(|r| r.queued_ms).collect();
    layers.insert("serve.mixed_rps", specs.len() as f64 / wall);
    layers.insert("serve.mixed_queue_wait_p50_ms", quantile(&queued, 0.5));
    errors
}

/// One journaled crash and recovery: a smaller f64 batch is served with
/// the write-ahead journal and halted after half its requests; a server
/// built with `resume` over that journal then gets every request again.
/// Checks exactly-once delivery across the crash, that every response
/// given before it is recovered verbatim, and every product against the
/// benchmark's own. Returns the checks that failed.
pub fn crash_resume_probe(ctx: &Ctx<'_>, layers: &mut BTreeMap<&'static str, f64>) -> Vec<String> {
    let t = ctx.tracer;
    let mut errors = Vec::new();
    let specs = make_batch(ctx.seed ^ 0x10u64, false, PROBE_REQUESTS);
    let ids: Vec<u64> = specs.iter().map(|s| s.id).collect();
    let halt = PROBE_REQUESTS / 2;
    let cfg = ServerConfig {
        journal_dir: Some(ctx.scratch.fresh("serve-journal")),
        halt_after: Some(halt),
        ..config(ctx.seed)
    };
    let first = match new_server(t, cfg.clone()) {
        Ok(s) => s,
        Err(e) => return vec![format!("on a fresh journal: {e}")],
    };
    let (wall1, before_crash, _) = run_timed(t, first, &specs);
    let dir = cfg.journal_dir.clone().expect("journaled config");
    layers.insert("journal.disk_kb", dir_bytes(&dir) as f64 / 1024.0);

    let resume = ServerConfig {
        resume: true,
        halt_after: None,
        ..cfg
    };
    let t0 = Instant::now();
    let second = t.span("serve.recover", || Server::new(resume));
    let recover_s = secs(t0);
    let second = match second {
        Ok(s) => s,
        Err(e) => return vec![format!("resume over the crashed journal: {e:?}")],
    };
    let (wall2, responses, stats) = run_timed(t, second, &specs);

    match exactly_once(&ids, &responses) {
        Ok(failed) if failed.is_empty() => {}
        Ok(failed) => errors.push(format!("{} journaled requests failed", failed.len())),
        Err(e) => errors.push(format!("across the crash: {e}")),
    }
    if before_crash.len() != halt {
        errors.push(format!(
            "halted run returned {} responses, expected exactly {halt}",
            before_crash.len()
        ));
    }
    if stats.recovered != before_crash.len() as u64 {
        errors.push(format!(
            "resume recovered {} responses, the halted run returned {}",
            stats.recovered,
            before_crash.len()
        ));
    }
    let after: HashMap<u64, &Response> = responses.iter().map(|r| (r.id, r)).collect();
    for r in &before_crash {
        if after.get(&r.id).map(|a| a.checksum) != Some(r.checksum) {
            errors.push(format!(
                "request {} answered before the crash was not recovered verbatim",
                r.id
            ));
        }
    }
    errors.extend(Verifier::default().check(ctx, &specs, &responses));
    layers.insert("serve.recovery_ms", recover_s * 1e3);
    layers.insert("journal.recovered", stats.recovered as f64);
    layers.insert("journal.replayed", stats.replayed as f64);
    layers.insert(
        "journal.serve_rps",
        PROBE_REQUESTS as f64 / (wall1 + recover_s + wall2),
    );
    errors
}

/// Serves `specs` on `server`, then shuts it down; returns the serving
/// wall time, the responses and the server's counters.
fn run_timed(
    t: &Tracer,
    mut server: Server,
    specs: &[JobSpec],
) -> (f64, Vec<Response>, ServeStats) {
    let t0 = Instant::now();
    let responses = t.span("serve.run", || server.run(specs.iter().copied()));
    let wall = secs(t0);
    let stats = server.stats().clone();
    t.span("serve.shutdown", || drop(server));
    (wall, responses, stats)
}
