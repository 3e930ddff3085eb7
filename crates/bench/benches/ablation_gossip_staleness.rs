//! Ablation: the gossip control plane — dissemination cost, steady-state
//! bandwidth, and the engine on gossip-fed load views.
//!
//! The paper argues (§IV) that running the gossip layer ~`O(log m)`
//! times more often than the balancing algorithm gives every server
//! accurate load information. Here we (a) measure how many gossip
//! periods a cold-start dissemination actually takes and what it costs
//! on the wire, (b) measure steady-state traffic at Figure-2 scale
//! (m = 5000) — in both tables the delta-encoded sharded frames are
//! billed beside the same frames carrying full m-entry views, the
//! push-pull baseline — and (c) run the engine with partner scoring
//! fed by the delta-gossip protocol at a sweep of gossip periods
//! (`gossip=event:25ms` … `event:400ms`) against fresh scoring on the
//! same pruned selection, confirming convergence survives staleness.
//!
//! Run: `cargo bench -p dlb-bench --bench ablation_gossip_staleness`.
//! Writes the committed artifact `BENCH_gossip.json` at the repo root.

use dlb_distributed::mine::PartnerSelection;
use dlb_distributed::{Engine, EngineOptions};
use dlb_gossip::wire::view_bytes;
use dlb_gossip::{DeltaGossip, DeltaGossipConfig};
use dlb_scenario::results::{JsonlSink, Record};
use dlb_scenario::runner::GOSSIP_TOP_K;
use dlb_scenario::{GossipSpec, ScenarioSpec};

fn main() {
    let mut sink = JsonlSink::create_at(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_gossip.json"
    ))
    .expect("open BENCH_gossip.json");

    println!("\n== Gossip dissemination cost ==");
    println!(
        "{:>8} {:>8} {:>10} {:>14} {:>14} {:>14}",
        "m", "periods", "log2(m)", "MB shipped", "MB full-view", "virtual ms"
    );
    for &m in &[50usize, 200, 1000, 5000] {
        let loads: Vec<f64> = (0..m).map(|i| (i % 17) as f64).collect();
        // A cold start — every node knows only its own load — run to
        // full dissemination over 10 ms links: how long it takes in
        // periods and in *time*, and what went on the wire.
        let config = DeltaGossipConfig::default();
        let mut net = DeltaGossip::new(&loads, 3, config);
        let (complete, virtual_ms) = net.run_until_complete(60_000.0, |_, _| 10.0);
        assert!(complete, "m={m} must disseminate inside the budget");
        let periods = (virtual_ms / config.period_ms).ceil();
        let t = net.traffic();
        // The same frames, each carrying a whole m-entry view.
        let full_view_bytes = t.frames * view_bytes(m) as u64;
        sink.record(
            &Record::new("table_row")
                .str("table", "gossip_dissemination")
                .int("m", m as i64)
                .int("periods", periods as i64)
                .int("frames", t.frames as i64)
                .int("exchanges", t.exchanges as i64)
                .int("bytes", t.bytes as i64)
                .int("full_view_bytes", full_view_bytes as i64)
                .num("event_virtual_ms", virtual_ms),
        );
        println!(
            "{m:>8} {periods:>8} {:>10.1} {:>14.2} {:>14.2} {virtual_ms:>14.1}",
            (m as f64).log2(),
            t.bytes as f64 / 1e6,
            full_view_bytes as f64 / 1e6,
        );
    }

    println!("\n== Steady-state traffic at m = 5000 ==");
    // Steady state: the network is fully disseminated and 0.1% of the
    // servers see a load change per gossip period. Full-view push-pull
    // ships two complete m-entry views per exchange no matter what
    // changed — m exchanges per round. The delta plane ships hot
    // entries plus one rotating shard as fallback.
    let m = 5000usize;
    let churn = m / 1000;
    let loads: Vec<f64> = (0..m).map(|i| (i % 17) as f64).collect();
    let config = DeltaGossipConfig::default();
    let period = config.period_ms;
    let mut net = DeltaGossip::warm(&loads, 3, config);
    // Warm up the hot sets so the measurement window is steady state,
    // not the quiet post-warm start.
    for r in 0..40u64 {
        for k in 0..churn {
            net.publish(((r as usize) * 97 + k * 101) % m, r as f64 + k as f64);
        }
        let until = net.now_ms() + period;
        net.advance(until, |_, _| 10.0);
    }
    let before = net.traffic();
    let rounds = 20u64;
    for r in 40..40 + rounds {
        for k in 0..churn {
            net.publish(((r as usize) * 97 + k * 101) % m, r as f64 + k as f64);
        }
        let until = net.now_ms() + period;
        net.advance(until, |_, _| 10.0);
    }
    let t = net.traffic().since(&before);
    let delta_per_round = t.bytes / rounds;
    let full_per_round = (m as u64) * 2 * view_bytes(m) as u64;
    let reduction = full_per_round as f64 / delta_per_round as f64;
    assert!(
        reduction >= 10.0,
        "delta frames must cut steady-state traffic ≥10×: full {full_per_round} B/round \
         vs delta {delta_per_round} B/round ({reduction:.1}×)"
    );
    sink.record(
        &Record::new("table_row")
            .str("table", "gossip_steady_state")
            .int("m", m as i64)
            .int("churn_per_round", churn as i64)
            .int("full_view_bytes_per_round", full_per_round as i64)
            .int("delta_bytes_per_round", delta_per_round as i64)
            .num("reduction", reduction),
    );
    println!(
        "full-view {:.1} MB/round   delta {:.2} MB/round   reduction {reduction:.1}x",
        full_per_round as f64 / 1e6,
        delta_per_round as f64 / 1e6
    );

    println!("\n== Engine convergence under stale load views ==");
    println!("{:>16} {:>14} {:>10}", "gossip", "final ΣC", "iters");
    let base: ScenarioSpec = "algo=sequential net=pl m=100 seed=5 eps=1e-12 budget=200"
        .parse()
        .unwrap();
    let instance = base.build_instance();
    // Fresh scoring on the same forced-pruned selection every gossip
    // row uses, so the column isolates staleness.
    let mut fresh = Engine::new(
        instance.clone(),
        EngineOptions {
            seed: base.seed,
            selection: Some(PartnerSelection::Pruned {
                top_k: GOSSIP_TOP_K,
            }),
            ..Default::default()
        },
    );
    let report = fresh.run_to_convergence(base.eps, base.patience, base.budget);
    let reference = report.final_cost;
    let row = |label: &str, final_cost: f64, iterations: usize, bytes: u64| {
        // The acceptance bar: gossip-fed views land within 1% of fresh
        // scoring.
        let pct = (final_cost / reference - 1.0) * 100.0;
        assert!(
            pct.abs() < 1.0,
            "{label} scoring drifted {pct:+.3}% from fresh"
        );
        println!("{label:>16} {final_cost:>14.1} {iterations:>10}   ({pct:+.3}% vs fresh)");
        Record::new("table_row")
            .str("table", "engine_staleness")
            .str("gossip", label)
            .num("final_cost", final_cost)
            .int("iterations", iterations as i64)
            .int("gossip_bytes", bytes as i64)
            .num("pct_vs_fresh", pct)
    };
    sink.record(&row("fresh", reference, report.iterations, 0));
    for period_ms in [25.0, 100.0, 400.0] {
        let gossip = GossipSpec::Event { period_ms };
        let run = ScenarioSpec {
            gossip,
            ..base.clone()
        }
        .run_on(instance.clone());
        assert!(!run.gossip.is_quiet(), "event run must meter traffic");
        if period_ms == 100.0 {
            // The full run record too, so `dlb report` renders the
            // gossip_* columns straight from the committed artifact.
            sink.record(&Record::from_run("run", &run));
        }
        let label = format!("event:{period_ms}ms");
        let (cost, iterations) = (run.final_cost(), run.iterations);
        sink.record(&row(&label, cost, iterations, run.gossip.bytes));
    }
    println!("\nstale scoring degrades the result by well under a percent:");
    println!("the gossip layer only needs to keep up within a few iterations");
}
