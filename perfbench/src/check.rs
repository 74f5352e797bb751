//! Output checks made apart from the program: a seeded Freivalds test for
//! every product, the closed-form Eq. 8 bound for distributed traffic,
//! an exactly-once audit of serving responses, and a self-test showing
//! that each check rejects a corrupted input.

use crate::util::Rng;
use powerscale_matrix::{Matrix, MatrixGen};
use powerscale_serve::{Response, Status};
use std::collections::HashMap;

/// How a product was computed, for its rounding-error bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Conventional inner products (blocked DGEMM).
    Conventional,
    /// Strassen's classic 7-multiply recursion (also CAPS) to `cutoff`.
    Strassen { cutoff: usize },
    /// The Winograd arrangement to `cutoff`.
    Winograd { cutoff: usize },
}

/// Coefficient `c` of the element-wise forward error bound
/// `|C − fl(AB)| ≤ c · u · max|A| · max|B|` (Higham, *Accuracy and
/// Stability of Numerical Algorithms*, §23.2.2): `n²` for conventional
/// multiplication, `12^k(n₀² + 5n₀) − 5n` for `k` Strassen levels over
/// `n₀`-sized conventional leaves, `18^k(n₀² + 6n₀) − 6n` for Winograd.
/// Dimensions that do not halve evenly to the cutoff are padded by the
/// executors; the bound is taken at the padded size.
pub fn error_coefficient(n: usize, family: Family) -> f64 {
    let (cutoff, base, adds) = match family {
        Family::Conventional => return (n * n) as f64,
        Family::Strassen { cutoff } => (cutoff, 12.0f64, 5.0),
        Family::Winograd { cutoff } => (cutoff, 18.0f64, 6.0),
    };
    let mut n0 = powerscale_matrix::pad::next_recursive_size(n, cutoff);
    let padded = n0 as f64;
    let mut levels = 0;
    while n0 > cutoff && n0.is_multiple_of(2) {
        n0 /= 2;
        levels += 1;
    }
    if levels == 0 {
        return padded * padded;
    }
    let n0 = n0 as f64;
    base.powi(levels) * (n0 * n0 + adds * n0) - adds * padded
}

fn matvec(m: &Matrix, x: &[f64]) -> Vec<f64> {
    (0..m.rows())
        .map(|i| m.row(i).iter().zip(x).map(|(a, b)| a * b).sum())
        .collect()
}

/// `|M| x` for a non-negative `x`.
fn abs_matvec(m: &Matrix, x: &[f64]) -> Vec<f64> {
    (0..m.rows())
        .map(|i| m.row(i).iter().zip(x).map(|(a, b)| a.abs() * b).sum())
        .collect()
}

/// The λ of the probabilistic error bounds: a rounding-error sum of `m`
/// terms is taken to stay within `λ√m·u` of its worst-case scale (Higham
/// & Mary, *A New Approach to Probabilistic Rounding Error Analysis*,
/// 2019), and a ±1-weighted sum of `n` errors within `λ√n` times the
/// largest of them (Hoeffding; the signs are the check's own draw).
const LAMBDA: f64 = 6.0;

/// The per-row tolerance of [`freivalds`]: rounding of the three
/// matrix–vector products, `λ√n·u·(2|A||B|𝟙 + |C|𝟙)`, plus the product's
/// own error seen through a ±1 vector, `λ²·√ρ·u·|A||B|𝟙`, where `ρ` is the
/// family's worst-case growth over conventional multiplication
/// ([`error_coefficient`] ÷ n²) and enters under a square root like every
/// other count of independent rounding errors here.
fn freivalds_tolerance(a: &Matrix, b: &Matrix, c: &Matrix, family: Family) -> Vec<f64> {
    let n = a.rows();
    let nf = n as f64;
    let u = f64::EPSILON / 2.0;
    let ones = vec![1.0; n];
    let s = abs_matvec(a, &abs_matvec(b, &ones));
    let t = abs_matvec(c, &ones);
    let rho = error_coefficient(n, family) / (nf * nf);
    s.iter()
        .zip(&t)
        .map(|(s, t)| LAMBDA * u * (nf.sqrt() * (2.0 * s + t) + LAMBDA * rho.sqrt() * s))
        .collect()
}

/// Freivalds' test: for two seeded ±1 vectors `x`, checks every row of
/// `A(Bx) − Cx` against [`freivalds_tolerance`]. A single element of `C`
/// off by more than its row's tolerance is always caught; scattered
/// errors escape one vector with probability at most ½. At n = 2048 the
/// tolerance is below 1e-6 for every family on paper operands, so one
/// element off by 1e-6, or a product rounded to f32, is rejected
/// ([`rejects_corruptions`] shows it on every run's own products).
pub fn freivalds(
    a: &Matrix,
    b: &Matrix,
    c: &Matrix,
    family: Family,
    seed: u64,
) -> Result<(), String> {
    let n = a.rows();
    if b.shape() != (n, n) || c.shape() != (n, n) || a.cols() != n {
        return Err(format!(
            "product has shape {:?} for operands {:?} x {:?}",
            c.shape(),
            a.shape(),
            b.shape()
        ));
    }
    let tol = freivalds_tolerance(a, b, c, family);
    let mut rng = Rng::new(seed);
    for _ in 0..2 {
        let x = rng.signs(n);
        let abx = matvec(a, &matvec(b, &x));
        let cx = matvec(c, &x);
        let (mut worst, mut row) = (0.0f64, 0);
        for (i, ((p, q), t)) in abx.iter().zip(&cx).zip(&tol).enumerate() {
            let ratio = (p - q).abs() / t;
            if ratio.is_nan() || ratio > worst {
                (worst, row) = (ratio, i);
            }
            if ratio.is_nan() {
                break;
            }
        }
        if worst.is_nan() || worst > 1.0 {
            return Err(format!(
                "Freivalds residual {:.3e} in row {row} exceeds its bound {:.3e} (n = {n}, {family:?})",
                (abx[row] - cx[row]).abs(),
                tol[row]
            ));
        }
    }
    Ok(())
}

/// Shows that [`freivalds`] rejects realistic corruptions of a product it
/// accepts: one seeded element off by 1e-6, and the whole product rounded
/// to f32. Returns a line for each corruption that was accepted.
pub fn rejects_corruptions(
    a: &Matrix,
    b: &Matrix,
    c: &Matrix,
    family: Family,
    seed: u64,
) -> Vec<String> {
    let mut wrong = Vec::new();
    let n = c.rows();
    let mut rng = Rng::new(seed);
    let (i, j) = (rng.below(n), rng.below(n));
    let mut bumped = c.clone();
    bumped.set(i, j, c.get(i, j) + 1e-6);
    if freivalds(a, b, &bumped, family, seed).is_ok() {
        wrong.push(format!(
            "Freivalds accepted a product (n = {n}, {family:?}) with element ({i}, {j}) off by 1e-6"
        ));
    }
    let mut rounded = c.clone();
    for v in rounded.as_mut_slice() {
        *v = f64::from(*v as f32);
    }
    if freivalds(a, b, &rounded, family, seed).is_ok() {
        wrong.push(format!(
            "Freivalds accepted a product (n = {n}, {family:?}) rounded to f32"
        ));
    }
    wrong
}

/// Operands of a serving request, rebuilt from its seed the way the
/// `JobSpec` contract states: two consecutive `paper_operand(n)` draws.
pub fn request_operands(n: usize, seed: u64) -> (Matrix, Matrix) {
    let mut gen = MatrixGen::new(seed);
    let a = gen.paper_operand(n);
    let b = gen.paper_operand(n);
    (a, b)
}

/// ω₀ = log₂ 7.
pub fn omega0() -> f64 {
    7f64.log2()
}

/// Equation 8 in words: `max(n^ω₀ / (P·M^(ω₀/2−1)), n² / P^(2/ω₀))`.
pub fn eq8_bound_words(n: usize, p: usize, m_words: u64) -> f64 {
    let (n, p, m) = (n as f64, p as f64, m_words.max(1) as f64);
    let w = omega0();
    (n.powf(w) / (p * m.powf(w / 2.0 - 1.0))).max(n * n / p.powf(2.0 / w))
}

/// The per-cell gate on measured ÷ bound: 4× for schedules with a single
/// distribution level, 5× where a memory budget at `P ≥ 7` (or `P > 7`)
/// stacks two levels inside the bound's one `P^(2/ω₀)` factor.
pub fn eq8_gate(p: usize, budgeted: bool) -> f64 {
    if p > 7 || (p >= 7 && budgeted) {
        5.0
    } else {
        4.0
    }
}

/// Checks the largest per-rank Algo-phase received volume against Eq. 8.
/// `m_words` is the budget when one was set, else the measured per-rank
/// memory high-water mark. Returns measured ÷ bound.
pub fn eq8_check(
    n: usize,
    p: usize,
    m_words: u64,
    budgeted: bool,
    measured_words: u64,
) -> Result<f64, String> {
    let bound = eq8_bound_words(n, p, m_words);
    let ratio = measured_words as f64 / bound;
    let gate = eq8_gate(p, budgeted);
    if p > 1 && measured_words == 0 {
        return Err(format!("no Algo-phase traffic metered on {p} ranks"));
    }
    if ratio.is_nan() || ratio > gate {
        return Err(format!(
            "per-rank Algo traffic {measured_words} words is {ratio:.2}x the Eq. 8 bound \
             {bound:.0} (gate {gate}x; n={n}, P={p}, M={m_words})"
        ));
    }
    Ok(ratio)
}

/// Exactly-once audit: every submitted id has exactly one response and
/// no response names an id that was not submitted. Returns the ids whose
/// single response is not `Completed` (failed operations, not check
/// failures).
pub fn exactly_once(submitted: &[u64], responses: &[Response]) -> Result<Vec<u64>, String> {
    let mut seen: HashMap<u64, usize> = submitted.iter().map(|&id| (id, 0)).collect();
    for r in responses {
        match seen.get_mut(&r.id) {
            Some(count) => *count += 1,
            None => return Err(format!("response for id {} that was never submitted", r.id)),
        }
    }
    let mut missing: Vec<u64> = seen
        .iter()
        .filter(|(_, &c)| c == 0)
        .map(|(&id, _)| id)
        .collect();
    let mut dup: Vec<u64> = seen
        .iter()
        .filter(|(_, &c)| c > 1)
        .map(|(&id, _)| id)
        .collect();
    if !missing.is_empty() || !dup.is_empty() {
        missing.sort_unstable();
        dup.sort_unstable();
        return Err(format!(
            "exactly-once violated: {} ids without a response (first {:?}), {} with several (first {:?})",
            missing.len(),
            missing.first(),
            dup.len(),
            dup.first()
        ));
    }
    let mut failed: Vec<u64> = responses
        .iter()
        .filter(|r| r.status != Status::Completed)
        .map(|r| r.id)
        .collect();
    failed.sort_unstable();
    Ok(failed)
}

/// Shows that each check rejects a corrupted input: products of every
/// family with one element off by 1e-6 or rounded to f32, a response set
/// with one response dropped and one duplicated, a flipped checksum, and
/// inflated or missing distributed traffic. Returns a description of every
/// check that wrongly accepted.
pub fn self_test() -> Vec<String> {
    let mut wrong = Vec::new();
    let n = 128;
    let (a, b) = request_operands(n, 0x5e1f);
    let strassen = powerscale_strassen::StrassenConfig {
        cutoff: 32,
        ..Default::default()
    };
    let products = [
        (
            powerscale_gemm::multiply(&a.view(), &b.view()).map_err(|e| e.to_string()),
            Family::Conventional,
        ),
        (
            powerscale_strassen::multiply(&a.view(), &b.view(), &strassen, None, None)
                .map_err(|e| e.to_string()),
            Family::Strassen { cutoff: 32 },
        ),
        (
            powerscale_strassen::multiply(&a.view(), &b.view(), &strassen.winograd(), None, None)
                .map_err(|e| e.to_string()),
            Family::Winograd { cutoff: 32 },
        ),
    ];
    let mut c = None;
    for (product, family) in products {
        match product {
            Err(e) => wrong.push(format!("{family:?} product for the self-test failed: {e}")),
            Ok(p) => {
                if let Err(e) = freivalds(&a, &b, &p, family, 1) {
                    wrong.push(format!("Freivalds rejected a correct product: {e}"));
                }
                wrong.extend(rejects_corruptions(&a, &b, &p, family, 2));
                c = Some(p);
            }
        }
    }
    let Some(c) = c else { return wrong };

    let ids: Vec<u64> = (0..6).collect();
    let responses: Vec<Response> = ids
        .iter()
        .map(|&id| {
            let mut r = Response::failed(
                id,
                powerscale_serve::FailReason::WorkerPanic,
                1,
                String::new(),
            );
            r.status = Status::Completed;
            r
        })
        .collect();
    if exactly_once(&ids, &responses).is_err() {
        wrong.push("exactly-once audit rejected a complete response set".into());
    }
    if exactly_once(&ids, &responses[1..]).is_ok() {
        wrong.push("exactly-once audit accepted a dropped response".into());
    }
    let mut dup = responses.clone();
    dup.push(responses[3].clone());
    if exactly_once(&ids, &dup).is_ok() {
        wrong.push("exactly-once audit accepted a duplicated response".into());
    }

    let sum = powerscale_serve::checksum_f64(c.as_slice());
    let mut flipped = c.clone();
    let w = flipped.get(0, 0);
    flipped.set(0, 0, f64::from_bits(w.to_bits() ^ 1));
    if powerscale_serve::checksum_f64(flipped.as_slice()) == sum {
        wrong.push("checksum did not change when one bit of the product flipped".into());
    }

    let (n, p) = (512, 7);
    let bound = eq8_bound_words(n, p, (n * n) as u64);
    if eq8_check(n, p, (n * n) as u64, false, bound as u64).is_err() {
        wrong.push("Eq. 8 check rejected traffic equal to the bound".into());
    }
    if eq8_check(n, p, (n * n) as u64, false, (10.0 * bound) as u64).is_ok() {
        wrong.push("Eq. 8 check accepted traffic 10x the bound".into());
    }
    if eq8_check(n, p, (n * n) as u64, false, 0).is_ok() {
        wrong.push("Eq. 8 check accepted a run that metered no traffic".into());
    }
    wrong
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_test_rejects_every_corruption() {
        assert!(self_test().is_empty(), "{:?}", self_test());
    }

    #[test]
    fn error_coefficient_matches_closed_forms() {
        assert_eq!(error_coefficient(64, Family::Conventional), 4096.0);
        // One level over 64-sized leaves: 12 (64² + 5·64) − 5·128.
        assert_eq!(
            error_coefficient(128, Family::Strassen { cutoff: 64 }),
            12.0 * (4096.0 + 320.0) - 640.0
        );
        // At or below the cutoff the recursion is a single conventional leaf.
        assert_eq!(
            error_coefficient(64, Family::Winograd { cutoff: 64 }),
            4096.0
        );
    }

    #[test]
    fn eq8_memory_rich_is_the_bandwidth_term() {
        let (n, p) = (1024usize, 7usize);
        let bw = (n * n) as f64 / (p as f64).powf(2.0 / omega0());
        assert!((eq8_bound_words(n, p, u64::MAX / 2) - bw).abs() < 1e-6 * bw);
    }
}
