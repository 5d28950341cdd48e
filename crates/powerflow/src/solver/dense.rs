//! The dense Newton–Raphson solver, kept as the test oracle of the sparse
//! one: a dense Ybus, a dense Jacobian with all angle unknowns before all
//! magnitude unknowns, and a dense LU with partial pivoting.

#![allow(clippy::needless_range_loop)] // index loops mirror the textbook algorithms

use super::{branches_pu, extract_results, validate, NodeKind, SolveOptions, SolvedState};
use crate::complex::Complex;
use crate::error::PowerFlowError;
use crate::network::PowerNetwork;
use crate::results::PowerFlowResult;
use crate::topology::{SlackSource, Topology};

/// A dense row-major square matrix of `f64`.
#[derive(Debug, Clone)]
struct Matrix {
    n: usize,
    data: Vec<f64>,
}

impl Matrix {
    fn zeros(n: usize) -> Matrix {
        Matrix {
            n,
            data: vec![0.0; n * n],
        }
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.data[r * self.n + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        &mut self.data[r * self.n + c]
    }
}

/// An LU factorization with partial pivoting; `None` from
/// [`Lu::factorize`] when a pivot column has no entry of magnitude 1e-13.
struct Lu {
    lu: Matrix,
    pivots: Vec<usize>,
}

impl Lu {
    fn factorize(mut lu: Matrix) -> Option<Lu> {
        let n = lu.n;
        let mut pivots = vec![0usize; n];
        for k in 0..n {
            // Partial pivoting: largest |value| in column k at/below diagonal.
            let mut max_val = 0.0;
            let mut max_row = k;
            for i in k..n {
                let v = lu[(i, k)].abs();
                if v > max_val {
                    max_val = v;
                    max_row = i;
                }
            }
            if max_val < 1e-13 {
                return None;
            }
            pivots[k] = max_row;
            if max_row != k {
                for c in 0..n {
                    lu.data.swap(k * n + c, max_row * n + c);
                }
            }
            let pivot = lu[(k, k)];
            let (upper, lower) = lu.data.split_at_mut((k + 1) * n);
            let row_k = &upper[k * n + k + 1..];
            for row_i in lower.chunks_exact_mut(n) {
                let factor = row_i[k] / pivot;
                row_i[k] = factor;
                // Skipping exact-zero multipliers changes no result and
                // keeps the large oracle networks affordable.
                if factor == 0.0 {
                    continue;
                }
                for (x, &u) in row_i[k + 1..].iter_mut().zip(row_k) {
                    *x -= factor * u;
                }
            }
        }
        Some(Lu { lu, pivots })
    }

    fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.lu.n;
        let mut x = b.to_vec();
        for k in 0..n {
            x.swap(k, self.pivots[k]);
        }
        // Forward substitution (L has implicit unit diagonal).
        for i in 1..n {
            let mut sum = x[i];
            for j in 0..i {
                sum -= self.lu[(i, j)] * x[j];
            }
            x[i] = sum;
        }
        // Back substitution.
        for i in (0..n).rev() {
            let mut sum = x[i];
            for j in i + 1..n {
                sum -= self.lu[(i, j)] * x[j];
            }
            x[i] = sum / self.lu[(i, i)];
        }
        x
    }
}

/// Solves the AC power flow with the dense oracle, from a flat start.
pub(super) fn solve(
    net: &PowerNetwork,
    options: &SolveOptions,
) -> Result<PowerFlowResult, PowerFlowError> {
    validate(net)?;
    let topo = Topology::build(net);
    let state = solve_state(net, &topo, options)?;
    Ok(extract_results(
        net,
        &topo,
        &branches_pu(net, &topo),
        &state,
    ))
}

fn solve_state(
    net: &PowerNetwork,
    topo: &Topology,
    options: &SolveOptions,
) -> Result<SolvedState, PowerFlowError> {
    let s_base = net.sn_mva_base;
    let mut voltage = vec![Complex::ZERO; net.bus.len()];
    let mut iterations_max = 0usize;
    let branches = branches_pu(net, topo);

    for (island_index, island) in topo.islands.iter().enumerate() {
        let Some(slack) = island.slack else {
            continue;
        };
        let n = island.nodes.len();
        let mut local = vec![usize::MAX; net.bus.len()];
        for (i, &node) in island.nodes.iter().enumerate() {
            local[node] = i;
        }
        let local_of = |node: usize| Some(local[node]).filter(|&i| i != usize::MAX);

        // --- Ybus assembly -------------------------------------------------
        let mut y = vec![Complex::ZERO; n * n];
        for b in &branches {
            let (Some(i), Some(j)) = (local_of(b.from_node), local_of(b.to_node)) else {
                continue;
            };
            let t = b.tap;
            let half_charge = Complex::new(0.0, b.b_charge / 2.0);
            y[i * n + i] += b.ys / (t * t) + half_charge;
            y[j * n + j] += b.ys + half_charge;
            y[i * n + j] += -(b.ys / t);
            y[j * n + i] += -(b.ys / t);
        }
        for sh in &net.shunt {
            if !sh.in_service || !net.bus[sh.bus.index()].in_service {
                continue;
            }
            if let Some(i) = local_of(topo.bus_to_node[sh.bus.index()]) {
                y[i * n + i] += Complex::new(sh.p_mw / s_base, -sh.q_mvar / s_base);
            }
        }

        // --- Specified injections and node kinds ---------------------------
        let mut p_spec = vec![0.0f64; n];
        let mut q_spec = vec![0.0f64; n];
        let mut kind = vec![NodeKind::Pq; n];
        let mut v_set = vec![1.0f64; n];
        let mut theta_set = vec![0.0f64; n];
        let bus_in = |b: crate::network::BusId| net.bus[b.index()].in_service;
        let at = |b: crate::network::BusId| local_of(topo.bus_to_node[b.index()]);
        for l in net.load.iter().filter(|l| l.in_service && bus_in(l.bus)) {
            if let Some(i) = at(l.bus) {
                p_spec[i] -= l.p_mw * l.scaling / s_base;
                q_spec[i] -= l.q_mvar * l.scaling / s_base;
            }
        }
        for s in net.sgen.iter().filter(|s| s.in_service && bus_in(s.bus)) {
            if let Some(i) = at(s.bus) {
                p_spec[i] += s.p_mw * s.scaling / s_base;
                q_spec[i] += s.q_mvar * s.scaling / s_base;
            }
        }
        for g in net.gen.iter().filter(|g| g.in_service && bus_in(g.bus)) {
            if let Some(i) = at(g.bus) {
                p_spec[i] += g.p_mw / s_base;
                kind[i] = NodeKind::Pv;
                v_set[i] = g.vm_pu;
            }
        }
        let slack_node = match slack {
            SlackSource::ExtGrid(eid) => {
                let eg = &net.ext_grid[eid.index()];
                let i = local[topo.bus_to_node[eg.bus.index()]];
                v_set[i] = eg.vm_pu;
                theta_set[i] = eg.va_degree.to_radians();
                i
            }
            SlackSource::Gen(gid) => {
                let g = &net.gen[gid.index()];
                let i = local[topo.bus_to_node[g.bus.index()]];
                v_set[i] = g.vm_pu;
                theta_set[i] = 0.0;
                i
            }
        };
        kind[slack_node] = NodeKind::Slack;

        // --- Newton–Raphson -------------------------------------------------
        let mut vm = v_set.clone();
        let mut va = theta_set.clone();
        // Flat start for PQ nodes.
        for i in 0..n {
            if kind[i] == NodeKind::Pq {
                vm[i] = 1.0;
                va[i] = theta_set[slack_node];
            }
        }
        let g = |i: usize, j: usize| y[i * n + j].re;
        let b = |i: usize, j: usize| y[i * n + j].im;

        // Unknown ordering: angles for non-slack nodes, then magnitudes for PQ.
        let angle_nodes: Vec<usize> = (0..n).filter(|&i| kind[i] != NodeKind::Slack).collect();
        let mag_nodes: Vec<usize> = (0..n).filter(|&i| kind[i] == NodeKind::Pq).collect();
        let na = angle_nodes.len();
        let unknowns = na + mag_nodes.len();

        let mut converged = unknowns == 0;
        let mut iterations = 0usize;
        let mut max_mismatch = 0.0f64;
        while !converged && iterations < options.max_iterations {
            iterations += 1;
            let mut p_calc = vec![0.0f64; n];
            let mut q_calc = vec![0.0f64; n];
            for i in 0..n {
                for j in 0..n {
                    let (s, c) = (va[i] - va[j]).sin_cos();
                    p_calc[i] += vm[i] * vm[j] * (g(i, j) * c + b(i, j) * s);
                    q_calc[i] += vm[i] * vm[j] * (g(i, j) * s - b(i, j) * c);
                }
            }
            let mut f = vec![0.0f64; unknowns];
            for (r, &i) in angle_nodes.iter().enumerate() {
                f[r] = p_spec[i] - p_calc[i];
            }
            for (r, &i) in mag_nodes.iter().enumerate() {
                f[na + r] = q_spec[i] - q_calc[i];
            }
            max_mismatch = f.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            if !f.iter().all(|v| v.is_finite()) {
                max_mismatch = f64::INFINITY;
                break;
            }
            if max_mismatch < options.tolerance {
                converged = true;
                break;
            }

            // Entries between unconnected nodes are exactly zero; skipping
            // them changes no result and keeps large oracle networks
            // affordable.
            let coupled = |i: usize, j: usize| i == j || y[i * n + j] != Complex::ZERO;
            let mut jac = Matrix::zeros(unknowns);
            for (r, &i) in angle_nodes.iter().enumerate() {
                for (c, &j) in angle_nodes.iter().enumerate() {
                    if !coupled(i, j) {
                        continue;
                    }
                    jac[(r, c)] = if i == j {
                        -q_calc[i] - b(i, i) * vm[i] * vm[i]
                    } else {
                        let th = va[i] - va[j];
                        vm[i] * vm[j] * (g(i, j) * th.sin() - b(i, j) * th.cos())
                    };
                }
                for (c, &j) in mag_nodes.iter().enumerate() {
                    if !coupled(i, j) {
                        continue;
                    }
                    jac[(r, na + c)] = if i == j {
                        p_calc[i] / vm[i] + g(i, i) * vm[i]
                    } else {
                        let th = va[i] - va[j];
                        vm[i] * (g(i, j) * th.cos() + b(i, j) * th.sin())
                    };
                }
            }
            for (r, &i) in mag_nodes.iter().enumerate() {
                for (c, &j) in angle_nodes.iter().enumerate() {
                    if !coupled(i, j) {
                        continue;
                    }
                    jac[(na + r, c)] = if i == j {
                        p_calc[i] - g(i, i) * vm[i] * vm[i]
                    } else {
                        let th = va[i] - va[j];
                        -vm[i] * vm[j] * (g(i, j) * th.cos() + b(i, j) * th.sin())
                    };
                }
                for (c, &j) in mag_nodes.iter().enumerate() {
                    if !coupled(i, j) {
                        continue;
                    }
                    jac[(na + r, na + c)] = if i == j {
                        q_calc[i] / vm[i] - b(i, i) * vm[i]
                    } else {
                        let th = va[i] - va[j];
                        vm[i] * (g(i, j) * th.sin() - b(i, j) * th.cos())
                    };
                }
            }

            let lu = Lu::factorize(jac).ok_or(PowerFlowError::SingularJacobian {
                island: island_index,
            })?;
            let dx = lu.solve(&f);
            for (r, &i) in angle_nodes.iter().enumerate() {
                va[i] += dx[r];
            }
            for (r, &i) in mag_nodes.iter().enumerate() {
                vm[i] += dx[na + r];
            }
        }

        if !converged {
            return Err(PowerFlowError::DidNotConverge {
                iterations,
                max_mismatch,
            });
        }
        iterations_max = iterations_max.max(iterations);
        for (i, &node) in island.nodes.iter().enumerate() {
            voltage[node] = Complex::from_polar(vm[i], va[i]);
        }
    }

    Ok(SolvedState {
        voltage,
        iterations: iterations_max,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix(n: usize, entries: &[f64]) -> Matrix {
        Matrix {
            n,
            data: entries.to_vec(),
        }
    }

    #[test]
    fn lu_solves_with_row_exchange() {
        // Zero on the diagonal forces a row swap.
        let lu = Lu::factorize(matrix(2, &[0.0, 1.0, 1.0, 0.0])).expect("nonsingular");
        assert_eq!(lu.solve(&[3.0, 7.0]), vec![7.0, 3.0]);
        // 2x + y = 5 ; x - y = 1  =>  x = 2, y = 1
        let lu = Lu::factorize(matrix(2, &[2.0, 1.0, 1.0, -1.0])).expect("nonsingular");
        let x = lu.solve(&[5.0, 1.0]);
        assert!((x[0] - 2.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lu_detects_singular_matrix() {
        assert!(Lu::factorize(matrix(2, &[1.0, 2.0, 2.0, 4.0])).is_none());
    }
}
