//! The GRAPE optimizer: L-BFGS-B.
//!
//! The paper's GRAPE tool offers "ADAM, BFGS, L-BFGS-B, and SLSQP" and the
//! authors "choose BFGS" (§IV-D). We run its limited-memory form with box
//! bounds on the control amplitudes (the `-B` part); the limited-memory
//! form is what any modern BFGS implementation runs on problems with
//! hundreds of parameters. Each iteration is one projected quasi-Newton
//! step:
//!
//! 1. **Free-variable set.** A coordinate is *active* when it sits on its
//!    bound and `−g` points out of the box, so no descent step can move
//!    it. The two-loop recursion sees only the free coordinates (the
//!    active entries of its input and of its result are zero), and so
//!    does the steepest-descent fallback. The stationarity test uses the
//!    same projected gradient.
//! 2. **Slope along the projected path.** Trial points are
//!    `P(x + α·d)`, with `P` the clamp onto the box. The line search's
//!    slope `φ'(α)` sums `gᵢ·dᵢ` over the coordinates the clamp left
//!    alone at that trial point: the derivative of the cost along the
//!    path actually taken. A clamped coordinate does not move with `α`,
//!    so it adds nothing to the slope.
//! 3. **Strong-Wolfe line search** (Nocedal & Wright, Algorithms 3.5 and
//!    3.6) whose zoom phase places each trial step by safeguarded cubic
//!    interpolation of the bracket ends (eq. 3.59).

/// Curvature pairs `(s, y)` the L-BFGS history retains.
const MEMORY: usize = 10;

/// Stopping criteria of the optimizer.
#[derive(Debug, Clone)]
pub struct StopCriteria {
    /// Hard iteration cap.
    pub max_iters: usize,
    /// Stop as soon as the cost drops to this value (GRAPE's fidelity
    /// target, `1e-4` in the paper).
    pub target_cost: f64,
    /// Stop when the ∞-norm of the projected gradient (the gradient on
    /// the coordinates a descent step can move) falls below this
    /// (stationary point, up to the bounds).
    pub grad_tol: f64,
    /// Give up after this many iterations without relative improvement of
    /// at least [`StopCriteria::min_rel_improvement`] (0 disables). This
    /// is what keeps infeasible latency probes cheap: a pulse that cannot
    /// reach the target plateaus long before `max_iters`.
    pub patience: usize,
    /// Relative cost improvement that counts as progress for the
    /// stagnation check.
    pub min_rel_improvement: f64,
}

impl Default for StopCriteria {
    fn default() -> Self {
        Self {
            max_iters: 300,
            target_cost: 1e-4,
            grad_tol: 1e-10,
            patience: 30,
            min_rel_improvement: 3e-3,
        }
    }
}

/// Tracks the stagnation rule of [`StopCriteria`].
#[derive(Debug, Clone)]
struct StagnationGuard {
    patience: usize,
    min_rel: f64,
    reference_cost: f64,
    since_improvement: usize,
}

impl StagnationGuard {
    fn new(stop: &StopCriteria, initial_cost: f64) -> Self {
        Self {
            patience: stop.patience,
            min_rel: stop.min_rel_improvement,
            reference_cost: initial_cost,
            since_improvement: 0,
        }
    }

    /// Feeds the cost after an iteration; returns `true` when stalled.
    fn stalled(&mut self, cost: f64) -> bool {
        if self.patience == 0 {
            return false;
        }
        if cost < self.reference_cost * (1.0 - self.min_rel) {
            self.reference_cost = cost;
            self.since_improvement = 0;
            false
        } else {
            self.since_improvement += 1;
            self.since_improvement >= self.patience
        }
    }
}

/// Result of an optimization run.
#[derive(Debug, Clone)]
pub(crate) struct OptimResult {
    /// Best parameter vector found.
    pub x: Vec<f64>,
    /// Cost at `x`.
    pub cost: f64,
    /// Iterations performed: accepted steps, so always `history.len()`.
    pub iterations: usize,
    /// Whether `target_cost` was reached.
    pub converged: bool,
    /// Cost recorded after every iteration.
    pub history: Vec<f64>,
}

/// Objective wrapper: returns `(cost, gradient)` at the given point.
pub(crate) type Objective<'a> = dyn FnMut(&[f64]) -> (f64, Vec<f64>) + 'a;

/// Whether the box `[−bound, bound]` holds a coordinate at `x` still when
/// it steps along `d`: it sits on a bound and `d` points out of the box.
/// With `d = −g` this is the active set.
fn pinned(x: f64, d: f64, bound: f64) -> bool {
    (x >= bound && d > 0.0) || (x <= -bound && d < 0.0)
}

/// Clamps every coordinate into its box.
fn project(x: &mut [f64], bounds: &[f64]) {
    for (v, &b) in x.iter_mut().zip(bounds) {
        *v = v.clamp(-b, b);
    }
}

/// L-BFGS-B: the two-loop recursion over the free-variable set and a
/// strong-Wolfe line search along the projected path (see the module
/// docs). `bounds[i]` is the half-width of coordinate `i`'s box
/// `[−bounds[i], bounds[i]]`; `f64::INFINITY` leaves it unbounded.
///
/// The Wolfe curvature condition guarantees `sᵀy > 0` for accepted
/// interior steps, keeping the inverse-Hessian approximation positive
/// definite; pairs that still fail a relative curvature test
/// (projection-clipped steps) are skipped, and the history is dropped
/// entirely if it goes stale. When the quasi-Newton direction finds no
/// step, one steepest-descent search on fresh history follows. The run
/// ends when the cost reaches `target_cost`, the projected gradient
/// reaches `grad_tol`, neither direction finds a step, the stagnation
/// rule fires, or `max_iters` steps have been accepted.
pub(crate) fn minimize(
    f: &mut Objective<'_>,
    bounds: &[f64],
    mut x: Vec<f64>,
    stop: &StopCriteria,
) -> OptimResult {
    debug_assert_eq!(bounds.len(), x.len(), "one bound per coordinate");
    let mut s_hist: Vec<Vec<f64>> = Vec::new();
    let mut y_hist: Vec<Vec<f64>> = Vec::new();
    let mut rho_hist: Vec<f64> = Vec::new();
    let mut history = Vec::new();
    let mut stale_pairs = 0usize;
    // Per-iteration buffers hoisted out of the loop: the two-loop
    // recursion runs hundreds of times per solve.
    let mut free: Vec<bool> = Vec::new();
    let mut q: Vec<f64> = Vec::new();
    let mut dir: Vec<f64> = Vec::new();
    let mut alphas: Vec<f64> = Vec::new();

    project(&mut x, bounds);
    let (mut cost, mut grad) = f(&x);
    let mut best_x = x.clone();
    let mut best_cost = cost;
    let mut guard = StagnationGuard::new(stop, cost);
    let finish = |x: Vec<f64>, cost: f64, history: Vec<f64>| OptimResult {
        x,
        cost,
        iterations: history.len(),
        converged: cost <= stop.target_cost,
        history,
    };

    for _ in 0..stop.max_iters {
        free.clear();
        free.extend(
            x.iter()
                .zip(&grad)
                .zip(bounds)
                .map(|((&xi, &gi), &b)| !pinned(xi, -gi, b)),
        );
        let projected_grad_norm = grad
            .iter()
            .zip(&free)
            .filter(|(_, &is_free)| is_free)
            .fold(0.0f64, |m, (g, _)| m.max(g.abs()));
        if cost <= stop.target_cost || projected_grad_norm <= stop.grad_tol {
            return finish(best_x, best_cost, history);
        }

        // Two-loop recursion for d = −H·g on the free coordinates.
        q.clear();
        q.extend(
            grad.iter()
                .zip(&free)
                .map(|(&g, &is_free)| if is_free { g } else { 0.0 }),
        );
        let m = s_hist.len();
        alphas.clear();
        alphas.resize(m, 0.0);
        for i in (0..m).rev() {
            let alpha = rho_hist[i] * dot(&s_hist[i], &q);
            alphas[i] = alpha;
            for (qk, yk) in q.iter_mut().zip(&y_hist[i]) {
                *qk -= alpha * yk;
            }
        }
        // Initial Hessian scaling γ = sᵀy / yᵀy.
        let gamma = if m > 0 {
            let sy = dot(&s_hist[m - 1], &y_hist[m - 1]);
            let yy = dot(&y_hist[m - 1], &y_hist[m - 1]);
            if yy > 0.0 {
                sy / yy
            } else {
                1.0
            }
        } else {
            1.0
        };
        for qk in q.iter_mut() {
            *qk *= gamma;
        }
        for i in 0..m {
            let beta = rho_hist[i] * dot(&y_hist[i], &q);
            for (qk, sk) in q.iter_mut().zip(&s_hist[i]) {
                *qk += (alphas[i] - beta) * sk;
            }
        }
        // Keep the free coordinates the clamp lets move, so that `g·d`
        // is the slope of the projected path at α = 0⁺.
        dir.clear();
        dir.extend(
            q.iter()
                .zip(&x)
                .zip(bounds)
                .zip(&free)
                .map(|(((&qi, &xi), &b), &is_free)| {
                    if is_free && !pinned(xi, -qi, b) {
                        -qi
                    } else {
                        0.0
                    }
                }),
        );
        // Ensure descent; fall back to steepest descent otherwise.
        if dot(&dir, &grad) >= 0.0 {
            steepest_descent(&mut dir, &grad, &free);
        }

        let mut attempt = wolfe_line_search(f, bounds, &x, cost, &grad, &dir);
        if attempt.is_none() && !s_hist.is_empty() {
            // Quasi-Newton direction failed: restart from steepest descent.
            s_hist.clear();
            y_hist.clear();
            rho_hist.clear();
            stale_pairs = 0;
            steepest_descent(&mut dir, &grad, &free);
            attempt = wolfe_line_search(f, bounds, &x, cost, &grad, &dir);
        }
        let Some((new_x, new_cost, new_grad)) = attempt else {
            // Stationary (up to the bounds) for our purposes.
            return finish(best_x, best_cost, history);
        };

        // Update curvature history with a relative-scale test.
        let s: Vec<f64> = new_x.iter().zip(&x).map(|(a, b)| a - b).collect();
        let yv: Vec<f64> = new_grad.iter().zip(&grad).map(|(a, b)| a - b).collect();
        let sy = dot(&s, &yv);
        let scale = dot(&s, &s).sqrt() * dot(&yv, &yv).sqrt();
        if sy > 1e-10 * scale.max(1e-300) {
            s_hist.push(s);
            y_hist.push(yv);
            rho_hist.push(1.0 / sy);
            stale_pairs = 0;
            if s_hist.len() > MEMORY {
                s_hist.remove(0);
                y_hist.remove(0);
                rho_hist.remove(0);
            }
        } else {
            stale_pairs += 1;
            if stale_pairs >= 3 {
                // History no longer reflects local curvature; restart.
                s_hist.clear();
                y_hist.clear();
                rho_hist.clear();
                stale_pairs = 0;
            }
        }

        x = new_x;
        cost = new_cost;
        grad = new_grad;
        history.push(cost);
        if cost < best_cost {
            best_cost = cost;
            best_x = x.clone();
        }
        if guard.stalled(best_cost) {
            return finish(best_x, best_cost, history);
        }
    }
    finish(best_x, best_cost, history)
}

/// Writes `−g` on the free coordinates, and 0 on the active ones, into
/// `dir`. A free coordinate on a bound has `−g` pointing into the box,
/// so every nonzero component moves.
fn steepest_descent(dir: &mut [f64], grad: &[f64], free: &[bool]) {
    for ((d, &g), &is_free) in dir.iter_mut().zip(grad).zip(free) {
        *d = if is_free { -g } else { 0.0 };
    }
}

/// One evaluated line-search point.
struct LsPoint {
    alpha: f64,
    x: Vec<f64>,
    cost: f64,
    grad: Vec<f64>,
    /// φ'(α): the slope of the cost along the projected path at `α`.
    dphi: f64,
}

/// Strong-Wolfe line search (Nocedal & Wright, Algorithms 3.5 and 3.6)
/// along the projected path `α ↦ P(x + α·d)`.
///
/// Every trial point is clamped into the box, and its slope sums
/// `∇f·d` over the coordinates the clamp left alone, so both Wolfe tests
/// measure the function the search actually walks. `dir` must be zero
/// on the coordinates the box pins at `x`, so that `∇f(x)·d` is the
/// slope at `α = 0⁺`. The bracketing phase doubles `α` from 1 up to 64;
/// the zoom phase shrinks the bracket by safeguarded cubic interpolation
/// ([`zoom`]). Returns `(x⁺, cost⁺, grad⁺)`, or `None` when `d` is not
/// a descent direction or no acceptable step exists.
fn wolfe_line_search(
    f: &mut Objective<'_>,
    bounds: &[f64],
    x: &[f64],
    cost0: f64,
    grad0: &[f64],
    dir: &[f64],
) -> Option<(Vec<f64>, f64, Vec<f64>)> {
    let c1 = 1e-4;
    let c2 = 0.9;
    let dphi0 = dot(grad0, dir);
    if dphi0 >= 0.0 {
        return None;
    }

    let mut eval = |alpha: f64| -> LsPoint {
        let mut trial: Vec<f64> = x
            .iter()
            .zip(dir)
            .map(|(&xi, &di)| xi + alpha * di)
            .collect();
        project(&mut trial, bounds);
        let (c, g) = f(&trial);
        let dphi = trial
            .iter()
            .zip(x)
            .zip(dir)
            .zip(&g)
            .filter(|(((&ti, &xi), &di), _)| ti == xi + alpha * di)
            .map(|((_, &di), &gi)| gi * di)
            .sum();
        LsPoint {
            alpha,
            x: trial,
            cost: c,
            grad: g,
            dphi,
        }
    };

    let accept = |p: LsPoint| Some((p.x, p.cost, p.grad));

    // Bracketing phase.
    let mut prev = LsPoint {
        alpha: 0.0,
        x: x.to_vec(),
        cost: cost0,
        grad: grad0.to_vec(),
        dphi: dphi0,
    };
    let mut alpha = 1.0;
    let alpha_max = 64.0;
    for i in 0..12 {
        let cur = eval(alpha);
        if cur.cost > cost0 + c1 * cur.alpha * dphi0 || (i > 0 && cur.cost >= prev.cost) {
            return zoom(&mut eval, cost0, dphi0, c1, c2, prev, cur).and_then(accept);
        }
        if cur.dphi.abs() <= -c2 * dphi0 {
            return accept(cur);
        }
        if cur.dphi >= 0.0 {
            return zoom(&mut eval, cost0, dphi0, c1, c2, cur, prev).and_then(accept);
        }
        if alpha >= alpha_max {
            // Sufficient decrease held all the way out; take the long step.
            return accept(cur);
        }
        prev = cur;
        alpha = (alpha * 2.0).min(alpha_max);
    }
    accept(prev).filter(|(_, c, _)| *c < cost0)
}

/// Zoom phase (Nocedal & Wright, Algorithm 3.6): keeps the Wolfe
/// invariants on the bracket `[lo, hi]`, places each trial step with
/// [`cubic_step`], and returns the first strong-Wolfe point. After 15
/// trials it falls back to `lo`, the best sufficient-decrease point seen.
fn zoom(
    eval: &mut impl FnMut(f64) -> LsPoint,
    cost0: f64,
    dphi0: f64,
    c1: f64,
    c2: f64,
    mut lo: LsPoint,
    mut hi: LsPoint,
) -> Option<LsPoint> {
    for _ in 0..15 {
        if (hi.alpha - lo.alpha).abs() < 1e-14 {
            break;
        }
        let cur = eval(cubic_step(&lo, &hi));
        if cur.cost > cost0 + c1 * cur.alpha * dphi0 || cur.cost >= lo.cost {
            hi = cur;
        } else {
            if cur.dphi.abs() <= -c2 * dphi0 {
                return Some(cur);
            }
            if cur.dphi * (hi.alpha - lo.alpha) >= 0.0 {
                hi = std::mem::replace(&mut lo, cur);
            } else {
                lo = cur;
            }
        }
    }
    if lo.alpha > 0.0 && lo.cost < cost0 {
        Some(lo)
    } else {
        None
    }
}

/// The minimizer of the cubic that matches `φ` and `φ'` at both bracket
/// ends (Nocedal & Wright eq. 3.59), safeguarded: the bracket midpoint
/// when that minimizer is not finite or lies outside the middle 80 % of
/// the bracket, so every trial cuts at least a tenth off the bracket.
fn cubic_step(lo: &LsPoint, hi: &LsPoint) -> f64 {
    let (a, b) = (lo.alpha, hi.alpha);
    let d1 = lo.dphi + hi.dphi - 3.0 * (lo.cost - hi.cost) / (a - b);
    let d2 = (b - a).signum() * (d1 * d1 - lo.dphi * hi.dphi).sqrt();
    let step = b - (b - a) * (hi.dphi + d2 - d1) / (hi.dphi - lo.dphi + 2.0 * d2);
    let margin = 0.1 * (b - a).abs();
    if step.is_finite() && step >= a.min(b) + margin && step <= a.max(b) - margin {
        step
    } else {
        0.5 * (a + b)
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Convex quadratic: f(x) = Σ cᵢ(xᵢ − aᵢ)².
    fn quadratic(c: Vec<f64>, a: Vec<f64>) -> impl FnMut(&[f64]) -> (f64, Vec<f64>) {
        move |x: &[f64]| {
            let cost: f64 = x
                .iter()
                .zip(&c)
                .zip(&a)
                .map(|((&xi, &ci), &ai)| ci * (xi - ai) * (xi - ai))
                .sum();
            let grad = x
                .iter()
                .zip(&c)
                .zip(&a)
                .map(|((&xi, &ci), &ai)| 2.0 * ci * (xi - ai))
                .collect();
            (cost, grad)
        }
    }

    /// Rosenbrock in 2D — a classic non-convex line-search stress test.
    fn rosenbrock(x: &[f64]) -> (f64, Vec<f64>) {
        let (a, b) = (1.0, 100.0);
        let cost = (a - x[0]).powi(2) + b * (x[1] - x[0] * x[0]).powi(2);
        let g0 = -2.0 * (a - x[0]) - 4.0 * b * x[0] * (x[1] - x[0] * x[0]);
        let g1 = 2.0 * b * (x[1] - x[0] * x[0]);
        (cost, vec![g0, g1])
    }

    /// No bounds on any of `n` coordinates.
    fn unbounded(n: usize) -> Vec<f64> {
        vec![f64::INFINITY; n]
    }

    /// Counts objective evaluations.
    fn counted<'a>(
        f: &'a mut impl FnMut(&[f64]) -> (f64, Vec<f64>),
        evals: &'a mut usize,
    ) -> impl FnMut(&[f64]) -> (f64, Vec<f64>) + 'a {
        move |x: &[f64]| {
            *evals += 1;
            f(x)
        }
    }

    #[test]
    fn solves_quadratic() {
        let stop = StopCriteria {
            max_iters: 2000,
            target_cost: 1e-10,
            grad_tol: 1e-12,
            patience: 0,
            min_rel_improvement: 0.0,
        };
        let mut f = quadratic(vec![1.0, 4.0, 0.5], vec![1.0, -2.0, 3.0]);
        let r = minimize(&mut f, &unbounded(3), vec![0.0; 3], &stop);
        assert!(r.converged, "cost {}", r.cost);
        assert!((r.x[0] - 1.0).abs() < 1e-3);
        assert!((r.x[1] + 2.0).abs() < 1e-3);
        assert!((r.x[2] - 3.0).abs() < 1e-3);
    }

    #[test]
    fn solves_rosenbrock() {
        let stop = StopCriteria {
            max_iters: 500,
            target_cost: 1e-8,
            grad_tol: 1e-12,
            patience: 0,
            min_rel_improvement: 0.0,
        };
        let r = minimize(&mut rosenbrock, &unbounded(2), vec![-1.2, 1.0], &stop);
        assert!(r.converged, "cost {}", r.cost);
        assert!(r.iterations < stop.max_iters);
    }

    #[test]
    fn projection_keeps_iterates_in_box() {
        let stop = StopCriteria {
            max_iters: 200,
            target_cost: 1e-12,
            grad_tol: 1e-14,
            ..StopCriteria::default()
        };
        // Unconstrained minimum at 5, box at [−1, 1] → solution clamps to 1.
        let mut f = quadratic(vec![1.0], vec![5.0]);
        let r = minimize(&mut f, &[1.0], vec![0.0], &stop);
        assert!((r.x[0] - 1.0).abs() < 1e-6, "got {}", r.x[0]);
    }

    #[test]
    fn bounded_quadratic_reaches_the_clamped_solution_cheaply() {
        // 64 coordinates in [−1, 1]; the even ones have their minimum
        // outside the box (±3), the odd ones inside it. The solution
        // clamps the even half to the bound next to its minimum.
        let n = 64;
        let c: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
        let a: Vec<f64> = (0..n)
            .map(|i| match i % 4 {
                0 => 3.0,
                2 => -3.0,
                _ => 0.8 * ((i as f64) * 0.7).sin(),
            })
            .collect();
        let want: Vec<f64> = a.iter().map(|&ai| ai.clamp(-1.0, 1.0)).collect();
        let stop = StopCriteria {
            max_iters: 200,
            target_cost: 0.0,
            grad_tol: 1e-9,
            patience: 0,
            min_rel_improvement: 0.0,
        };
        let mut evals = 0;
        let mut q = quadratic(c, a);
        let r = minimize(
            &mut counted(&mut q, &mut evals),
            &[1.0; 64],
            vec![0.0; n],
            &stop,
        );
        for (i, (&got, &w)) in r.x.iter().zip(&want).enumerate() {
            assert!((got - w).abs() < 1e-6, "x[{i}] = {got}, want {w}");
        }
        // 20 evaluations measured. Measuring the slope along the raw
        // direction instead took 167 and stopped 0.07 short of the
        // solution: the clamped half kept the curvature test from passing.
        assert!(
            evals <= 40,
            "{evals} evaluations in {} iterations",
            r.iterations
        );
    }

    #[test]
    fn start_on_an_active_bound_stops_without_searching() {
        // f = (x − 5)² from x0 = 1 on [−1, 1]: −g points out of the box,
        // so x0 is already the bounded minimum.
        let stop = StopCriteria::default();
        let mut evals = 0;
        let mut f = quadratic(vec![1.0], vec![5.0]);
        let r = minimize(&mut counted(&mut f, &mut evals), &[1.0], vec![1.0], &stop);
        assert_eq!(r.x, vec![1.0]);
        assert_eq!(r.iterations, 0);
        assert!(r.history.is_empty());
        assert!(evals <= 2, "{evals} evaluations");
    }

    #[test]
    fn iterations_equal_history_length_on_every_return_path() {
        let stop = |max_iters, target_cost, patience| StopCriteria {
            max_iters,
            target_cost,
            grad_tol: 1e-12,
            patience,
            min_rel_improvement: 3e-3,
        };
        // A gradient of the wrong sign: every "descent" step goes uphill,
        // so the line search finds no step.
        let mut uphill = |x: &[f64]| (x[0] * x[0], vec![-2.0 * x[0]]);
        let cases: [(&str, &mut Objective<'_>, f64, Vec<f64>, StopCriteria); 5] = [
            (
                "target reached",
                &mut quadratic(vec![1.0], vec![5.0]),
                1.0,
                vec![0.0],
                stop(100, 17.0, 0),
            ),
            (
                "stationary on the bound",
                &mut quadratic(vec![1.0], vec![5.0]),
                1.0,
                vec![1.0],
                stop(100, 0.0, 0),
            ),
            (
                "no step found",
                &mut uphill,
                f64::INFINITY,
                vec![1.0],
                stop(100, 0.0, 0),
            ),
            (
                "stalled",
                &mut rosenbrock,
                f64::INFINITY,
                vec![-1.2, 1.0],
                stop(500, 0.0, 2),
            ),
            (
                "iteration cap",
                &mut rosenbrock,
                f64::INFINITY,
                vec![-1.2, 1.0],
                stop(7, 0.0, 0),
            ),
        ];
        let mut iterations = Vec::new();
        for (name, f, bound, x0, criteria) in cases {
            let r = minimize(f, &vec![bound; x0.len()], x0, &criteria);
            assert_eq!(r.iterations, r.history.len(), "{name}");
            iterations.push(r.iterations);
        }
        // Neither the start on its bound nor the uphill gradient accepts
        // a step; the stall comes before the cap of 500.
        assert_eq!(iterations[1..3], [0, 0]);
        assert!(iterations[3] < 500, "stall path not taken");
        assert_eq!(iterations[4], 7);
    }

    /// A line-search point on a 1-D function.
    fn point(phi: &impl Fn(f64) -> (f64, f64), alpha: f64) -> LsPoint {
        let (cost, dphi) = phi(alpha);
        LsPoint {
            alpha,
            x: vec![alpha],
            cost,
            grad: vec![dphi],
            dphi,
        }
    }

    #[test]
    fn cubic_zoom_meets_strong_wolfe_within_three_trials() {
        // φ'(α) = (α − 0.7)(α + 0.01): a narrow strong-Wolfe window
        // around the minimizer 0.7 (|α − 0.7| ≲ 0.009 at c₂ = 0.9) that
        // bisection of [0, 1] needs six trials to hit.
        let phi = |a: f64| {
            let cost = a.powi(3) / 3.0 - 0.69 * a * a / 2.0 - 0.007 * a;
            (cost, (a - 0.7) * (a + 0.01))
        };
        let (lo, hi) = (point(&phi, 0.0), point(&phi, 1.0));
        let (cost0, dphi0) = (lo.cost, lo.dphi);
        let mut trials = 0;
        let mut eval = |alpha: f64| {
            trials += 1;
            point(&phi, alpha)
        };
        let found = zoom(&mut eval, cost0, dphi0, 1e-4, 0.9, lo, hi).expect("a Wolfe point");
        assert!(trials <= 3, "{trials} trials");
        assert!(found.cost <= cost0 + 1e-4 * found.alpha * dphi0);
        assert!(found.dphi.abs() <= -0.9 * dphi0, "α = {}", found.alpha);
    }

    #[test]
    fn immediate_convergence_reports_zero_iterations() {
        let stop = StopCriteria {
            max_iters: 100,
            target_cost: 1.0,
            grad_tol: 1e-12,
            ..StopCriteria::default()
        };
        let mut f = quadratic(vec![1.0], vec![0.0]);
        let r = minimize(&mut f, &unbounded(1), vec![0.1], &stop);
        assert_eq!(r.iterations, 0);
        assert!(r.converged);
    }

    #[test]
    fn history_is_monotone_for_lbfgs_best_tracking() {
        let stop = StopCriteria {
            max_iters: 50,
            target_cost: 0.0,
            grad_tol: 1e-14,
            ..StopCriteria::default()
        };
        let r = minimize(&mut rosenbrock, &unbounded(2), vec![-1.2, 1.0], &stop);
        // Line search guarantees non-increasing cost.
        for w in r.history.windows(2) {
            assert!(w[1] <= w[0] + 1e-9);
        }
    }
}
