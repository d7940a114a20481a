//! Spans recorded from the benchmark's side of each layer call: busy
//! time per layer stage and counts at the same boundaries, kept in
//! memory and reported when the run ends.

use crate::report::Metrics;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Timed stages, named `<layer>.<stage>`; the layer is everything before
/// the last dot.
pub const STAGES: &[&str] = &[
    "consensus.election",
    "workload.generate",
    "core.shard.execute",
    "core.shard.begin_epoch",
    "core.shard.end_epoch",
    "core.view.publish",
    "core.view.quote",
    "sidechain.seal",
    "sidechain.summary",
    "sidechain.prune",
    "crypto.tsqc",
    "crypto.dkg",
    "mainchain.deposit",
    "mainchain.sync",
    "mainchain.chain",
    "state.checkpoint.stage",
    "state.checkpoint.commit",
    "state.store.commit",
    "state.store.fold",
    "state.sync.restore",
];

/// Layers whose busy time is reported as a share of the traced wall.
pub const LAYERS: &[&str] = &[
    "consensus",
    "workload",
    "core.shard",
    "core.view",
    "sidechain",
    "crypto",
    "mainchain",
    "state.checkpoint",
    "state.store",
    "state.sync",
];

/// Counters reported by the traced run, with their units.
pub const COUNTERS: &[(&str, &str)] = &[
    ("consensus.tickets", "count"),
    ("workload.txs", "count"),
    ("core.shard.txs", "count"),
    ("core.shard.rejected", "count"),
    ("core.view.quotes", "count"),
    ("core.view.quote_failed", "count"),
    ("sidechain.meta_blocks", "count"),
    ("sidechain.summary_bytes", "bytes"),
    ("sidechain.peak_bytes", "bytes"),
    ("crypto.tsqc_payload_bytes", "bytes"),
    ("mainchain.sync_payouts", "count"),
    ("mainchain.gas", "gas"),
    ("mainchain.growth_bytes", "bytes"),
    ("state.checkpoint.pages_dirty", "count"),
    ("state.checkpoint.pages_total", "count"),
    ("state.checkpoint.delta_bytes", "bytes"),
];

#[derive(Default)]
pub struct Tracer {
    busy: BTreeMap<&'static str, Duration>,
    counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    /// Adds the time since `start` to `stage`.
    pub fn span(&mut self, stage: &'static str, start: Instant) {
        debug_assert!(STAGES.contains(&stage), "unknown stage {stage}");
        *self.busy.entry(stage).or_default() += start.elapsed();
    }

    /// Times `f` as one span of `stage`.
    pub fn time<R>(&mut self, stage: &'static str, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = f();
        self.span(stage, t);
        out
    }

    pub fn add(&mut self, counter: &'static str, n: u64) {
        debug_assert!(
            COUNTERS.iter().any(|(c, _)| *c == counter),
            "unknown counter {counter}"
        );
        *self.counts.entry(counter).or_default() += n;
    }

    pub fn count(&self, counter: &str) -> u64 {
        self.counts.get(counter).copied().unwrap_or(0)
    }

    /// Folds another tracer's spans and counts into this one.
    pub fn merge(&mut self, other: &Tracer) {
        for (k, v) in &other.busy {
            *self.busy.entry(k).or_default() += *v;
        }
        for (k, v) in &other.counts {
            *self.counts.entry(k).or_default() += *v;
        }
    }

    /// Reports, per round, every stage's busy seconds and every counter,
    /// then each layer's share of `traced_wall`, the uncovered remainder
    /// and the tracing overhead against `untraced_wall`. Both walls and
    /// this tracer's spans and counts are sums over the same `rounds`.
    pub fn report(
        &self,
        m: &mut Metrics,
        traced_wall: Duration,
        untraced_wall: Duration,
        rounds: u32,
    ) {
        let per_round = |d: Duration| d / rounds;
        for stage in STAGES {
            let busy = self.busy.get(stage).copied().unwrap_or_default();
            m.seconds(&format!("{stage}_s"), per_round(busy));
        }
        for (counter, unit) in COUNTERS {
            m.put(counter, self.count(counter) as f64 / rounds as f64, unit);
        }
        let wall = traced_wall.as_secs_f64().max(f64::MIN_POSITIVE);
        let mut covered = Duration::ZERO;
        for layer in LAYERS {
            let busy: Duration = self
                .busy
                .iter()
                .filter(|(stage, _)| layer_of(stage) == *layer)
                .map(|(_, d)| *d)
                .sum();
            covered += busy;
            m.put(
                &format!("{layer}.share"),
                100.0 * busy.as_secs_f64() / wall,
                "%",
            );
        }
        let uncovered = traced_wall.saturating_sub(covered);
        m.seconds("trace.wall_s", per_round(traced_wall));
        m.seconds("trace.untraced_wall_s", per_round(untraced_wall));
        m.put(
            "trace.overhead_s",
            (traced_wall.as_secs_f64() - untraced_wall.as_secs_f64()) / rounds as f64,
            "s",
        );
        m.seconds("trace.uncovered_s", per_round(uncovered));
        m.put(
            "trace.uncovered.share",
            100.0 * uncovered.as_secs_f64() / wall,
            "%",
        );
    }
}

fn layer_of(stage: &str) -> &str {
    stage
        .rsplit_once('.')
        .map(|(layer, _)| layer)
        .unwrap_or(stage)
}
