//! The discrete-event simulator core.

use std::cmp::Ordering;

use dlb_core::rngutil::rng_for;
use dlb_core::Instance;
use rand::seq::SliceRandom;

use crate::discretize::DiscreteAssignment;

/// Service discipline of the simulated servers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Discipline {
    /// The analytic model's assumption: the server has its whole backlog
    /// available and processes it in a uniformly random order; a
    /// request's observed latency is its network delay plus its finish
    /// time in that order.
    RandomOrder,
    /// An honest execution: a relayed request only becomes available
    /// `c_ij` after the start; each server serves available requests
    /// first-come-first-served (simultaneous arrivals in owner-id
    /// order), possibly idling while requests are in flight.
    FifoArrival,
}

/// Simulation configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Service discipline.
    pub discipline: Discipline,
    /// RNG seed (ordering randomness).
    pub seed: u64,
}

/// Aggregate simulation output.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Sum over all requests of the observed latency — the measured
    /// `ΣC`.
    pub total_completion: f64,
    /// Per-organization sums (`C_i` measured).
    pub org_completion: Vec<f64>,
    /// Number of simulated requests.
    pub requests: u64,
    /// Time the last server went idle (makespan).
    pub makespan: f64,
}

/// Runs the simulator over a discrete placement.
pub fn run(instance: &Instance, placement: &DiscreteAssignment, config: &SimConfig) -> SimResult {
    let m = instance.len();
    let mut rng = rng_for(config.seed, 0x51E7);
    let mut total = 0.0;
    let mut org_completion = vec![0.0; m];
    let mut requests = 0u64;
    let mut makespan = 0.0f64;

    for j in 0..m {
        let speed = instance.speed(j);
        let service = 1.0 / speed;
        match config.discipline {
            Discipline::RandomOrder => {
                // Materialize the backlog, shuffle, serve back-to-back.
                let mut backlog: Vec<u32> = Vec::new();
                for k in 0..m {
                    for _ in 0..placement.counts[k][j] {
                        backlog.push(k as u32);
                    }
                }
                backlog.shuffle(&mut rng);
                let mut finish = 0.0;
                for owner in backlog {
                    finish += service;
                    let delay = instance.c(owner as usize, j);
                    let latency = finish + delay;
                    total += latency;
                    org_completion[owner as usize] += latency;
                    requests += 1;
                }
                makespan = makespan.max(finish);
            }
            Discipline::FifoArrival => {
                // Every request is known up front: `(arrival, owner)` in
                // owner order, stably sorted by arrival time.
                let mut arrivals: Vec<(f64, u32)> = Vec::new();
                for k in 0..m {
                    let delay = instance.c(k, j);
                    for _ in 0..placement.counts[k][j] {
                        arrivals.push((delay, k as u32));
                    }
                }
                arrivals.sort_by(|p, q| p.0.partial_cmp(&q.0).unwrap_or(Ordering::Equal));
                let mut server_free = 0.0f64;
                for (time, owner) in arrivals {
                    let start = server_free.max(time);
                    let finish = start + service;
                    server_free = finish;
                    // Observed latency includes the transfer time.
                    let latency = finish;
                    total += latency;
                    org_completion[owner as usize] += latency;
                    requests += 1;
                }
                makespan = makespan.max(server_free);
            }
        }
    }
    SimResult {
        total_completion: total,
        org_completion,
        requests,
        makespan,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discretize::discretize;
    use dlb_core::{Assignment, LatencyMatrix};

    fn instance2() -> Instance {
        Instance::new(
            vec![1.0, 2.0],
            vec![8.0, 4.0],
            LatencyMatrix::homogeneous(2, 3.0),
        )
    }

    #[test]
    fn single_server_random_order_average() {
        // n requests at speed s, no relaying: measured ΣC = Σ_{p=1..n} p/s,
        // whose mean per request is (n+1)/2s (analytic model: n/2s).
        let instance = Instance::new(vec![2.0], vec![10.0], LatencyMatrix::zero(1));
        let a = Assignment::local(&instance);
        let d = discretize(&instance, &a);
        let r = run(
            &instance,
            &d,
            &SimConfig {
                discipline: Discipline::RandomOrder,
                seed: 1,
            },
        );
        assert_eq!(r.requests, 10);
        let expected: f64 = (1..=10).map(|p| p as f64 / 2.0).sum();
        assert!((r.total_completion - expected).abs() < 1e-9);
        assert!((r.makespan - 5.0).abs() < 1e-9);
    }

    #[test]
    fn relayed_requests_pay_latency() {
        let instance = instance2();
        let mut a = Assignment::local(&instance);
        a.move_requests(0, 0, 1, 4.0);
        let d = discretize(&instance, &a);
        let r = run(
            &instance,
            &d,
            &SimConfig {
                discipline: Discipline::RandomOrder,
                seed: 2,
            },
        );
        // Total latency must exceed the same placement with c = 0.
        let instance0 = Instance::new(vec![1.0, 2.0], vec![8.0, 4.0], LatencyMatrix::zero(2));
        let r0 = run(
            &instance0,
            &d,
            &SimConfig {
                discipline: Discipline::RandomOrder,
                seed: 2,
            },
        );
        assert!((r.total_completion - r0.total_completion - 4.0 * 3.0).abs() < 1e-9);
    }

    #[test]
    fn fifo_server_idles_until_arrivals() {
        // All 5 requests are remote with delay 10; server serves at
        // speed 1: completions are 11, 12, 13, 14, 15.
        let mut lat = LatencyMatrix::zero(2);
        lat.set(0, 1, 10.0);
        lat.set(1, 0, 10.0);
        let instance = Instance::new(vec![1.0, 1.0], vec![5.0, 0.0], lat);
        let mut a = Assignment::local(&instance);
        a.move_requests(0, 0, 1, 5.0);
        let d = discretize(&instance, &a);
        let r = run(
            &instance,
            &d,
            &SimConfig {
                discipline: Discipline::FifoArrival,
                seed: 3,
            },
        );
        assert_eq!(r.requests, 5);
        assert!((r.total_completion - (11.0 + 12.0 + 13.0 + 14.0 + 15.0)).abs() < 1e-9);
        assert!((r.makespan - 15.0).abs() < 1e-9);
    }

    #[test]
    fn org_totals_sum_to_total() {
        let instance = instance2();
        let a = Assignment::local(&instance);
        let d = discretize(&instance, &a);
        for discipline in [Discipline::RandomOrder, Discipline::FifoArrival] {
            let r = run(
                &instance,
                &d,
                &SimConfig {
                    discipline,
                    seed: 4,
                },
            );
            let sum: f64 = r.org_completion.iter().sum();
            assert!((sum - r.total_completion).abs() < 1e-9);
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let instance = instance2();
        let a = Assignment::local(&instance);
        let d = discretize(&instance, &a);
        let cfg = SimConfig {
            discipline: Discipline::RandomOrder,
            seed: 9,
        };
        assert_eq!(run(&instance, &d, &cfg), run(&instance, &d, &cfg));
    }
}
