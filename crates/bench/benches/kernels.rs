//! Criterion micro-benchmarks of the hot kernels.
//!
//! Run: `cargo bench -p dlb-bench --bench kernels`.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};

use dlb_bench::{sample_instance, NetworkKind};
use dlb_core::cost::total_cost;
use dlb_core::workload::{LoadDistribution, SpeedDistribution};
use dlb_core::{Assignment, Instance, LatencyMatrix};
use dlb_distributed::mine::{
    mine_step, partner_score, partner_scores, Candidates, PartnerSelection,
};
use dlb_distributed::transfer::calc_best_transfer;
use dlb_flow::ssp::min_cost_max_flow;
use dlb_flow::FlowNetwork;
use dlb_solver::projection::project_simplex;
use dlb_solver::waterfill::waterfill;

fn bench_transfer(c: &mut Criterion) {
    let mut group = c.benchmark_group("calc_best_transfer");
    for &m in &[50usize, 200] {
        let instance = sample_instance(
            m,
            NetworkKind::PlanetLab,
            LoadDistribution::Exponential,
            50.0,
            SpeedDistribution::paper_uniform(),
            1,
        );
        let a = Assignment::local(&instance);
        group.bench_with_input(BenchmarkId::from_parameter(m), &m, |b, _| {
            b.iter(|| calc_best_transfer(&instance, a.ledger(0), a.ledger(1), 0, 1))
        });
    }
    group.finish();
}

fn bench_mine_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("mine_step_exact");
    for &m in &[50usize, 200] {
        let instance = sample_instance(
            m,
            NetworkKind::PlanetLab,
            LoadDistribution::Exponential,
            50.0,
            SpeedDistribution::paper_uniform(),
            2,
        );
        let a = Assignment::local(&instance);
        group.bench_with_input(BenchmarkId::from_parameter(m), &m, |b, _| {
            b.iter_batched(
                || a.clone(),
                |mut a| mine_step(&instance, &mut a, 0, PartnerSelection::Exact, 1e-9, false),
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

/// One server's full `select=exact` scan at m = 5000 — the inner loop
/// of the O(m²) round: the scalar reference pair by pair against the
/// batch kernel (`Candidates::Range`), on the compact homogeneous
/// latency (a constant `c`) and on a dense table (row `c_i·` in place,
/// column `c_·i` gathered).
fn bench_partner_score_scan(c: &mut Criterion) {
    const M: usize = 5000;
    let mut group = c.benchmark_group("partner_score_scan");
    let speeds: Vec<f64> = (0..M).map(|j| 1.0 + (j % 5) as f64).collect();
    // Loads with no period a branch predictor could learn: which of
    // the reference's early returns a pair takes is data-dependent.
    let loads: Vec<f64> = (0..M as u64)
        .map(|j| (j.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 54) as f64)
        .collect();
    let mut table: Vec<f64> = (0..M * M).map(|e| 1.0 + ((e * 13) % 40) as f64).collect();
    for j in 0..M {
        table[j * M + j] = 0.0;
    }
    let nets = [
        ("homogeneous", LatencyMatrix::homogeneous(M, 20.0)),
        ("dense", LatencyMatrix::from_rows(M, table)),
    ];
    for (net, latency) in nets {
        let instance = Instance::new(speeds.clone(), vec![0.0; M], latency);
        let mut out = vec![0.0; M];
        group.bench_with_input(BenchmarkId::new("scalar", net), &instance, |b, instance| {
            b.iter(|| {
                for (j, score) in out.iter_mut().enumerate() {
                    *score = partner_score(instance, &loads, M / 2, j);
                }
                out[M - 1]
            })
        });
        group.bench_with_input(BenchmarkId::new("batch", net), &instance, |b, instance| {
            b.iter(|| {
                partner_scores(instance, &loads, M / 2, Candidates::Range(0..M), &mut out);
                out[M - 1]
            })
        });
    }
    group.finish();
}

fn bench_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("total_cost");
    for &m in &[200usize, 1000] {
        let instance = sample_instance(
            m,
            NetworkKind::Homogeneous,
            LoadDistribution::Uniform,
            50.0,
            SpeedDistribution::paper_uniform(),
            3,
        );
        let a = Assignment::local(&instance);
        group.bench_with_input(BenchmarkId::from_parameter(m), &m, |b, _| {
            b.iter(|| total_cost(&instance, &a))
        });
    }
    group.finish();
}

fn bench_waterfill(c: &mut Criterion) {
    let mut group = c.benchmark_group("waterfill");
    for &m in &[100usize, 1000] {
        let a: Vec<f64> = (0..m).map(|i| (i % 37) as f64).collect();
        let s: Vec<f64> = (0..m).map(|i| 1.0 + (i % 5) as f64).collect();
        group.bench_with_input(BenchmarkId::from_parameter(m), &m, |b, _| {
            b.iter(|| waterfill(&a, &s, 500.0))
        });
    }
    group.finish();
}

fn bench_projection(c: &mut Criterion) {
    let mut group = c.benchmark_group("project_simplex");
    for &m in &[100usize, 1000] {
        let v: Vec<f64> = (0..m)
            .map(|i| ((i * 31) % 100) as f64 / 10.0 - 5.0)
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(m), &m, |b, _| {
            b.iter_batched(
                || v.clone(),
                |mut v| project_simplex(&mut v, 1.0),
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_metric_close(c: &mut Criterion) {
    let mut group = c.benchmark_group("floyd_warshall");
    group.sample_size(20);
    for &m in &[100usize, 300] {
        let lat = NetworkKind::PlanetLab.build(m, 4);
        group.bench_with_input(BenchmarkId::from_parameter(m), &m, |b, _| {
            b.iter_batched(
                || lat.clone(),
                |mut lat| {
                    lat.metric_close();
                    lat
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_min_cost_flow(c: &mut Criterion) {
    let mut group = c.benchmark_group("min_cost_max_flow");
    group.sample_size(20);
    for &n in &[50usize, 200] {
        // Bipartite transport instance: n supplies, n demands.
        let build = move || {
            let mut g = FlowNetwork::new(2 * n + 2);
            let (s, t) = (2 * n, 2 * n + 1);
            for i in 0..n {
                g.add_edge(s, i, 10.0, 0.0);
                g.add_edge(n + i, t, 10.0, 0.0);
                for j in 0..n {
                    let cost = ((i * 7 + j * 13) % 50) as f64;
                    g.add_edge(i, n + j, f64::INFINITY, cost);
                }
            }
            (g, s, t)
        };
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter_batched(
                build,
                |(mut g, s, t)| min_cost_max_flow(&mut g, s, t, f64::INFINITY),
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

criterion_group!(
    kernels,
    bench_transfer,
    bench_mine_step,
    bench_partner_score_scan,
    bench_cost,
    bench_waterfill,
    bench_projection,
    bench_metric_close,
    bench_min_cost_flow
);
criterion_main!(kernels);
