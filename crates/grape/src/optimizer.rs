//! The GRAPE optimizer.
//!
//! The paper's GRAPE tool offers "ADAM, BFGS, L-BFGS-B, and SLSQP" and the
//! authors "choose BFGS" (§IV-D). We run L-BFGS with projected bounds (the
//! `-B` part) — the limited-memory form is what any modern BFGS
//! implementation runs on problems with hundreds of parameters.

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
    /// Stop when the gradient ∞-norm falls below this (stationary point).
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
    /// Iterations performed (accepted steps).
    pub iterations: usize,
    /// Whether `target_cost` was reached.
    pub converged: bool,
    /// Cost recorded after every iteration.
    pub history: Vec<f64>,
}

/// Objective wrapper: returns `(cost, gradient)` at the given point.
pub(crate) type Objective<'a> = dyn FnMut(&[f64]) -> (f64, Vec<f64>) + 'a;
/// Projection onto the feasible box (amplitude bounds).
pub(crate) type Projection<'a> = dyn Fn(&mut [f64]) + 'a;

fn inf_norm(v: &[f64]) -> f64 {
    v.iter().fold(0.0f64, |m, &x| m.max(x.abs()))
}

/// L-BFGS with two-loop recursion and a strong-Wolfe line search,
/// projecting onto the bound box at every trial point (projected
/// quasi-Newton). The Wolfe curvature condition guarantees `sᵀy > 0` for
/// accepted interior steps, keeping the inverse-Hessian approximation
/// positive definite; pairs that still fail a relative curvature test
/// (projection-clipped steps) are skipped, and the history is dropped
/// entirely if it goes stale.
pub(crate) fn minimize(
    f: &mut Objective<'_>,
    project: &Projection<'_>,
    mut x: Vec<f64>,
    stop: &StopCriteria,
) -> OptimResult {
    let mut s_hist: Vec<Vec<f64>> = Vec::new();
    let mut y_hist: Vec<Vec<f64>> = Vec::new();
    let mut rho_hist: Vec<f64> = Vec::new();
    let mut history = Vec::new();
    let mut stale_pairs = 0usize;
    // Per-iteration buffers hoisted out of the loop: the two-loop
    // recursion runs hundreds of times per solve.
    let mut q: Vec<f64> = Vec::new();
    let mut dir: Vec<f64> = Vec::new();
    let mut alphas: Vec<f64> = Vec::new();

    project(&mut x);
    let (mut cost, mut grad) = f(&x);
    let mut best_x = x.clone();
    let mut best_cost = cost;
    let mut guard = StagnationGuard::new(stop, cost);

    for t in 1..=stop.max_iters {
        if cost <= stop.target_cost || inf_norm(&grad) <= stop.grad_tol {
            return OptimResult {
                x: best_x,
                cost: best_cost,
                iterations: t - 1,
                converged: best_cost <= stop.target_cost,
                history,
            };
        }

        // Two-loop recursion for the search direction d = −H·g.
        q.clear();
        q.extend_from_slice(&grad);
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
        dir.clear();
        dir.extend(q.iter().map(|&v| -v));
        // Ensure descent; fall back to steepest descent otherwise.
        if dot(&dir, &grad) >= 0.0 {
            for (d, g) in dir.iter_mut().zip(&grad) {
                *d = -g;
            }
        }

        let mut attempt = wolfe_line_search(f, project, &x, cost, &grad, &dir);
        if attempt.is_none() && !s_hist.is_empty() {
            // Quasi-Newton direction failed: restart from steepest descent.
            s_hist.clear();
            y_hist.clear();
            rho_hist.clear();
            stale_pairs = 0;
            let sd: Vec<f64> = grad.iter().map(|&g| -g).collect();
            attempt = wolfe_line_search(f, project, &x, cost, &grad, &sd);
        }
        let Some((new_x, new_cost, new_grad)) = attempt else {
            // Stationary (up to the bounds) for our purposes.
            return OptimResult {
                x: best_x,
                cost: best_cost,
                iterations: t,
                converged: best_cost <= stop.target_cost,
                history,
            };
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
            return OptimResult {
                x: best_x,
                cost: best_cost,
                iterations: t,
                converged: best_cost <= stop.target_cost,
                history,
            };
        }
    }
    OptimResult {
        x: best_x,
        cost: best_cost,
        iterations: stop.max_iters,
        converged: best_cost <= stop.target_cost,
        history,
    }
}

/// One evaluated line-search point.
struct LsPoint {
    alpha: f64,
    x: Vec<f64>,
    cost: f64,
    grad: Vec<f64>,
    /// φ'(α) = ∇f(x_α)·d (with the raw direction; exact in the interior).
    dphi: f64,
}

/// Strong-Wolfe line search (Nocedal & Wright, Algorithm 3.5/3.6) with
/// box projection applied to every trial point. Returns
/// `(x⁺, cost⁺, grad⁺)` or `None` when no acceptable step exists.
fn wolfe_line_search(
    f: &mut Objective<'_>,
    project: &Projection<'_>,
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
        project(&mut trial);
        let (c, g) = f(&trial);
        let dphi = dot(&g, dir);
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

/// Zoom phase: maintains the Wolfe invariants on `[lo, hi]` and bisects.
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
        let alpha = 0.5 * (lo.alpha + hi.alpha);
        if (hi.alpha - lo.alpha).abs() < 1e-14 {
            break;
        }
        let cur = eval(alpha);
        if cur.cost > cost0 + c1 * cur.alpha * dphi0 || cur.cost >= lo.cost {
            hi = cur;
        } else {
            if cur.dphi.abs() <= -c2 * dphi0 {
                return Some(cur);
            }
            if cur.dphi * (hi.alpha - lo.alpha) >= 0.0 {
                hi = LsPoint {
                    alpha: lo.alpha,
                    x: lo.x.clone(),
                    cost: lo.cost,
                    grad: lo.grad.clone(),
                    dphi: lo.dphi,
                };
            }
            lo = cur;
        }
    }
    // Fall back to the best sufficient-decrease point seen.
    if lo.alpha > 0.0 && lo.cost < cost0 {
        Some(lo)
    } else {
        None
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

    /// The identity projection: an unbounded problem.
    fn unbounded(_: &mut [f64]) {}

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
        let r = minimize(&mut f, &unbounded, vec![0.0; 3], &stop);
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
        let r = minimize(&mut rosenbrock, &unbounded, vec![-1.2, 1.0], &stop);
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
        let project = |x: &mut [f64]| {
            for v in x.iter_mut() {
                *v = v.clamp(-1.0, 1.0);
            }
        };
        let mut f = quadratic(vec![1.0], vec![5.0]);
        let r = minimize(&mut f, &project, vec![0.0], &stop);
        assert!((r.x[0] - 1.0).abs() < 1e-6, "got {}", r.x[0]);
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
        let r = minimize(&mut f, &unbounded, vec![0.1], &stop);
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
        let r = minimize(&mut rosenbrock, &unbounded, vec![-1.2, 1.0], &stop);
        // Line search guarantees non-increasing cost.
        for w in r.history.windows(2) {
            assert!(w[1] <= w[0] + 1e-9);
        }
    }
}
