//! The three workloads that run the whole ammBoost `System`:
//! `paper_default`, `fleet_routed` and `crowd_20k`.

use crate::checks;
use crate::pipeline::Pipeline;
use crate::report::{median, peak_rss_mb, time_reps, Metrics, Tally};
use crate::trace::Tracer;
use ammboost_core::config::{SnapshotPolicy, SystemConfig};
use ammboost_core::{System, SystemReport};
use ammboost_crypto::H256;
use ammboost_workload::{EngineMix, QuoteStyle, RouteStyle, TrafficSkew};
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum SystemWorkload {
    PaperDefault,
    FleetRouted,
    Crowd20k,
}

/// Block gas limit for `crowd_20k`: one sync pays out 20,000 users and
/// needs hundreds of millions of gas, more than the 30 M default block
/// holds (`Mainchain::submit` refuses a transaction larger than a block).
pub const CROWD_GAS_LIMIT: u64 = 2_000_000_000;

/// Sealed-view quotes compared with execution per round.
const QUOTE_SAMPLES: usize = 256;

/// Seed of the fixed `fleet_routed` fault probe (independent of `--seed`).
const PROBE_SEED: u64 = 0xFA17;

impl SystemWorkload {
    pub fn config(self, seed: u64) -> SystemConfig {
        let mut cfg = SystemConfig {
            seed,
            ..SystemConfig::default()
        };
        match self {
            SystemWorkload::PaperDefault => {}
            SystemWorkload::FleetRouted => {
                cfg.pools = 8;
                cfg.engine_mix = EngineMix::of(2, 1, 1);
                cfg.traffic_skew = TrafficSkew::Zipf { exponent: 1.0 };
                cfg.route_style = RouteStyle::routed(0.25, 3);
                cfg.quote_style = QuoteStyle::per_tx(2.0);
                cfg.users = 200;
                cfg.snapshot = SnapshotPolicy::every_epoch();
            }
            SystemWorkload::Crowd20k => {
                cfg.pools = 8;
                cfg.users = 20_000;
                cfg.snapshot = SnapshotPolicy::every_epoch();
                cfg.mainchain.gas_limit = CROWD_GAS_LIMIT;
            }
        }
        cfg
    }

    /// `System::new` repetitions timed per round for `setup_s`.
    fn setup_reps(self) -> usize {
        match self {
            SystemWorkload::Crowd20k => 20,
            _ => 60,
        }
    }

    /// Late-joiner restores timed per round: more where a restore takes
    /// milliseconds.
    fn restore_reps(self) -> usize {
        match self {
            SystemWorkload::PaperDefault => 100,
            SystemWorkload::FleetRouted => 50,
            SystemWorkload::Crowd20k => 20,
        }
    }

    /// Only `paper_default` runs without scheduled checkpoints; it
    /// checkpoints at genesis so its final checkpoint journals a delta.
    fn genesis_checkpoint(self) -> bool {
        self == SystemWorkload::PaperDefault
    }
}

/// Per-round samples of the untraced measurement.
#[derive(Default)]
struct Samples {
    setup_s: Vec<f64>,
    wall_tps: Vec<f64>,
    restore_s: Vec<f64>,
    snapshot_bytes: u64,
    delta_bytes: u64,
}

/// What one untraced round leaves for the traced comparison.
struct Round {
    report: SystemReport,
    root: H256,
    /// `System::run`, the final checkpoint and one restore.
    wall: Duration,
}

/// One round: timed set-ups, the timed `System::run` of the last one, the
/// on-demand final checkpoint, late-joiner restores and the checks.
fn system_round(
    w: SystemWorkload,
    cfg: &SystemConfig,
    samples: &mut Samples,
    tally: &mut Tally,
) -> Round {
    let mut sys = time_reps(w.setup_reps(), &mut samples.setup_s, || {
        System::new(cfg.clone())
    });
    if w.genesis_checkpoint() {
        sys.checkpoint(0);
    }
    let t = Instant::now();
    let report = sys.run();
    let run_wall = t.elapsed();
    let t = Instant::now();
    let stats = sys.checkpoint(report.epochs + 1);
    let checkpoint_wall = t.elapsed();
    samples
        .wall_tps
        .push(report.accepted as f64 / run_wall.as_secs_f64());
    samples.snapshot_bytes = stats.snapshot_bytes;
    samples.delta_bytes = stats.delta_bytes;

    let bytes = sys.last_snapshot().expect("checkpoint just taken").encode();
    let first = samples.restore_s.len();
    let restored =
        checks::timed_restore(&bytes, stats.root, w.restore_reps(), &mut samples.restore_s);
    let restore_s = median(&samples.restore_s[first..]);
    eprintln!(
        "round: wall_tps {:.0} run {:.3} s restore {:.6} s",
        samples.wall_tps.last().expect("sampled above"),
        run_wall.as_secs_f64(),
        restore_s
    );
    tally.ok(w.restore_reps() as u64);
    checks::restored_matches_live(tally, &restored, stats.root, sys.shards());
    drop(restored);

    check_report(w, tally, &report, &sys);
    checks::bank_matches_engines(tally, sys.bank(), sys.shards());
    let view = sys.quote_view().expect("a sealed view exists after run");
    checks::quotes_match_execution(tally, &view, QUOTE_SAMPLES, cfg.seed);
    tally.check(stats.delta_bytes > 0, || {
        "final checkpoint journaled no delta".into()
    });
    if w == SystemWorkload::FleetRouted {
        fault_probe(tally);
    }
    Round {
        report,
        root: stats.root,
        wall: run_wall + checkpoint_wall + Duration::from_secs_f64(restore_s),
    }
}

/// Checks on the run report: every submitted tx was decided, the queue
/// drained, routes executed 2–3 legs, and every rejection is the named
/// weighted-pool slippage fault.
fn check_report(w: SystemWorkload, tally: &mut Tally, r: &SystemReport, sys: &System) {
    tally.ok(r.submitted + r.quotes_served + r.quotes_failed);
    tally.check(r.accepted + r.rejected == r.submitted, || {
        format!(
            "accepted {} + rejected {} != submitted {}",
            r.accepted, r.rejected, r.submitted
        )
    });
    tally.check(r.leftover_queue == 0, || {
        format!("{} txs left queued", r.leftover_queue)
    });
    tally.check(
        r.route_legs_executed >= 2 * r.routes_accepted
            && r.route_legs_executed <= 3 * r.routes_accepted,
        || {
            format!(
                "{} legs for {} accepted routes (expected 2-3 each)",
                r.route_legs_executed, r.routes_accepted
            )
        },
    );
    let mut explained = 0u64;
    for shard in sys.shards().iter() {
        let weighted = shard.engine_kind() == ammboost_amm::EngineKind::Weighted;
        for (reason, n) in shard.reject_reasons() {
            if weighted && reason.contains("slippage protection") {
                explained += n;
            }
        }
    }
    tally.check(explained == r.rejected, || {
        format!(
            "{} of {} rejections differ from the weighted-pool slippage fault",
            r.rejected.abs_diff(explained),
            r.rejected
        )
    });
    if w != SystemWorkload::FleetRouted {
        tally.check(r.rejected == 0 && r.quotes_failed == 0, || {
            format!(
                "{} rejected txs, {} failed quotes",
                r.rejected, r.quotes_failed
            )
        });
    }
}

/// The two `fleet_routed` generator faults on fixed inputs: a small
/// fleet run at a seed of its own. Every ExactOutput token1→token0 swap
/// on a weighted 80/20 pool is refused (the generator caps its input at
/// twice the output, a bound that assumes a price near 1), and valuation
/// quotes target a position the sealed view does not hold. Both counts
/// are the same on every round, whatever `--seed` is.
fn fault_probe(tally: &mut Tally) {
    let mut cfg = SystemWorkload::FleetRouted.config(PROBE_SEED);
    cfg.daily_volume = 250_000;
    cfg.snapshot = SnapshotPolicy::default();
    let mut sys = System::new(cfg);
    let r = sys.run();
    tally.ops(r.submitted, r.rejected);
    tally.ops(r.quotes_served + r.quotes_failed, r.quotes_failed);
    tally.check(r.rejected > 0 && r.quotes_failed > 0, || {
        "the fault probe no longer reproduces both faults".into()
    });
}

/// `--trace 0`: whole rounds until `seconds` have passed; medians of the
/// samples pooled over the rounds.
pub fn run(w: SystemWorkload, seed: u64, seconds: f64, tally: &mut Tally) -> Metrics {
    let cfg = w.config(seed);
    let mut samples = Samples::default();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        system_round(w, &cfg, &mut samples, tally);
    }
    let mut m = Metrics::default();
    m.put("setup_s", median(&samples.setup_s), "s");
    m.put("wall_tps", median(&samples.wall_tps), "tx/s");
    m.put("restore_s", median(&samples.restore_s), "s");
    m.bytes("snapshot_bytes", samples.snapshot_bytes);
    m.bytes("delta_bytes", samples.delta_bytes);
    m.put("peak_rss_mb", peak_rss_mb(), "MiB");
    m
}

/// `--trace 1`: each round runs `System::run` untraced and then the same
/// pipeline stepped layer by layer with spans, and checks that both end
/// with the same counts and state root.
pub fn run_traced(w: SystemWorkload, seed: u64, seconds: f64, tally: &mut Tally) -> Metrics {
    let cfg = w.config(seed);
    let mut samples = Samples::default();
    let mut tracer = Tracer::default();
    let mut untraced = Duration::ZERO;
    let mut traced = Duration::ZERO;
    let mut rounds = 0;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        rounds += 1;
        let round = system_round(w, &cfg, &mut samples, tally);
        untraced += round.wall;
        let mut p = Pipeline::new(cfg.clone());
        if w.genesis_checkpoint() {
            // the same base checkpoint the untraced round took, outside
            // the traced span as it is outside the timed run there
            p.checkpoint(0);
            p.tr = Tracer::default();
        }
        let t = Instant::now();
        p.run();
        let out = p.checkpoint(round.report.epochs + 1).clone();
        let bytes = out.snapshot.encode();
        let restored = p.tr.time("state.sync.restore", || {
            checks::timed_restore(&bytes, out.stats.root, 1, &mut Vec::new())
        });
        traced += t.elapsed();
        check_parity(tally, &round.report, &p, round.root, out.stats.root);
        checks::restored_matches_live(tally, &restored, out.stats.root, &p.shards);
        checks::bank_matches_engines(tally, &p.bank, &p.shards);
        tracer.merge(&p.tr);
    }
    let mut m = Metrics::default();
    tracer.report(&mut m, traced, untraced, rounds);
    m
}

/// The stepped pipeline must end exactly where `System::run` ended.
fn check_parity(
    tally: &mut Tally,
    r: &SystemReport,
    p: &Pipeline,
    system_root: H256,
    stepped_root: H256,
) {
    let c = p.counts;
    let pairs = [
        ("submitted", r.submitted, c.submitted),
        ("accepted", r.accepted, c.accepted),
        ("rejected", r.rejected, c.rejected),
        ("leftover_queue", r.leftover_queue, c.leftover_queue),
        ("routes_accepted", r.routes_accepted, c.routes_accepted),
        ("route_legs", r.route_legs_executed, c.route_legs),
        ("quotes_served", r.quotes_served, c.quotes_served),
        ("quotes_failed", r.quotes_failed, c.quotes_failed),
        ("syncs_confirmed", r.syncs_confirmed, c.syncs_confirmed),
        ("mainchain_gas", r.mainchain_gas, p.chain.total_gas()),
        (
            "mainchain_growth_bytes",
            r.mainchain_growth_bytes,
            p.chain.growth_bytes(),
        ),
        (
            "sidechain_peak_bytes",
            r.sidechain_peak_bytes,
            p.ledger.peak_bytes(),
        ),
    ];
    for (name, system, stepped) in pairs {
        tally.check(system == stepped, || {
            format!("parity: {name} System::run {system} != stepped {stepped}")
        });
    }
    tally.check(system_root == stepped_root, || {
        format!("parity: state root {system_root:?} != stepped {stepped_root:?}")
    });
    let a = p.audit;
    tally.check(a.routes_bad_legs == 0, || {
        format!(
            "{} accepted routes executed outside 2-3 legs",
            a.routes_bad_legs
        )
    });
    tally.check(a.unexplained_rejections == 0, || {
        format!(
            "{} rejections are not the named slippage fault",
            a.unexplained_rejections
        )
    });
    tally.check(a.unexplained_quote_failures == 0, || {
        format!(
            "{} failed quotes are not valuations of unsealed positions",
            a.unexplained_quote_failures
        )
    });
}
