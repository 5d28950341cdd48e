//! Micro-benchmarks of the power-flow substrate: Newton–Raphson solve time
//! vs network size — the cost that bounds the 100 ms step budget of the
//! paper's scalability claim (S1) — cold from a flat start, and warm with
//! one persistent solver as a range re-solves every step.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sgcr_powerflow::{solve, PowerNetwork, SolveOptions, Solver, TrackedNetwork};

/// A radial feeder network with `n` load buses.
fn feeder(n: usize) -> PowerNetwork {
    let mut net = PowerNetwork::new("bench");
    let mut prev = net.add_bus("b0", 110.0);
    net.add_ext_grid("grid", prev, 1.0, 0.0);
    for i in 1..=n {
        let bus = net.add_bus(&format!("b{i}"), 110.0);
        net.add_line(&format!("l{i}"), prev, bus, 2.0, 0.06, 0.12, 0.0, 1.0);
        net.add_load(&format!("ld{i}"), bus, 0.8, 0.2);
        prev = bus;
    }
    net
}

/// The multi-substation shape of the S1 experiment: star feeders per
/// substation, substations chained. A 22 kV chain collapses past about a
/// dozen substations, so larger shapes chain them in runs of eight, each run
/// starting at the first substation.
fn multisub_shape(substations: usize, feeders_per_sub: usize) -> PowerNetwork {
    let mut net = PowerNetwork::new("bench-multisub");
    let mut mains = Vec::new();
    for s in 0..substations {
        let main = net.add_bus(&format!("s{s}main"), 22.0);
        if s == 0 {
            net.add_ext_grid("grid", main, 1.0, 0.0);
        } else {
            let upstream = mains[if s % 8 == 0 { 0 } else { s - 1 }];
            net.add_line(
                &format!("tie{s}"),
                upstream,
                main,
                5.0,
                0.08,
                0.25,
                0.0,
                0.8,
            );
        }
        for f in 0..feeders_per_sub {
            let bus = net.add_bus(&format!("s{s}f{f}"), 22.0);
            net.add_line(&format!("s{s}lf{f}"), main, bus, 1.0, 0.15, 0.12, 0.0, 0.3);
            net.add_load(&format!("s{s}ld{f}"), bus, 0.1, 0.02);
        }
        mains.push(main);
    }
    net
}

fn bench_solve(c: &mut Criterion) {
    let mut group = c.benchmark_group("nr_solve_radial");
    for n in [5usize, 20, 50, 100] {
        let net = feeder(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &net, |b, net| {
            b.iter(|| solve(net).expect("converges"));
        });
    }
    group.finish();

    let mut group = c.benchmark_group("nr_solve_multisub");
    // The paper's S1 configuration is 5 substations x ~21 feeders.
    for (subs, feeders) in [
        (1usize, 21usize),
        (3, 21),
        (5, 21),
        (8, 21),
        (16, 21),
        (32, 21),
    ] {
        let net = multisub_shape(subs, feeders);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{subs}x{feeders}")),
            &net,
            |b, net| {
                b.iter(|| solve(net).expect("converges"));
            },
        );
    }
    group.finish();

    // One persistent solver, as each range step uses it: re-solving a
    // network not written since (answered from the solver's kept result of
    // its last call), and re-solving after one load moved by 1% (a warm
    // start).
    let options = SolveOptions::default();
    let mut group = c.benchmark_group("nr_resolve_warm");
    for (subs, feeders) in [(5usize, 21usize), (32, 21)] {
        let shape = format!("{subs}x{feeders}");
        let mut net = TrackedNetwork::new(multisub_shape(subs, feeders));
        let mut solver = Solver::new();
        solver.solve(&net, &options).expect("converges");
        let before = solver.stats();
        group.bench_function(&format!("unchanged/{shape}"), |b| {
            b.iter(|| solver.solve(&net, &options).expect("converges").iterations);
        });
        let after = solver.stats();
        let served = after.reused - before.reused;
        assert!(
            served > 0 && served == after.solves - before.solves,
            "unchanged/{shape}: every call answered from the record"
        );
        let base = net.load[0].p_mw;
        let mut step = 0u32;
        group.bench_function(&format!("one_load/{shape}"), |b| {
            b.iter(|| {
                step += 1;
                net.load[0].p_mw = base * (1.0 + 0.01 * f64::from(step % 2));
                solver.solve(&net, &options).expect("converges").iterations
            });
        });
        assert_eq!(
            solver.stats().reused,
            after.reused,
            "one_load/{shape}: no call answered from the record"
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_solve
}
criterion_main!(benches);
