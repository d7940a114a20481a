//! `node_1e5`: a sidechain node driven through the public node API
//! (`ShardMap`, `checkpoint_node`, `CheckpointStore::commit_delta`,
//! `restore_node`) at 10⁵ positions, with no mainchain. Every epoch is
//! sparse: a few thousand swaps and a few hundred collects or top-ups
//! touching under 1 % of the positions, then a checkpoint whose delta is
//! journaled. A late joiner restores the folded tip at the end.

use crate::checks;
use crate::report::{median, peak_rss_mb, time_reps, Metrics, Tally};
use crate::trace::Tracer;
use ammboost_amm::tx::{AmmTx, CollectTx, MintTx, SwapIntent, SwapTx};
use ammboost_amm::types::{PoolId, PositionId};
use ammboost_core::{checkpoint_node, restore_node, stage_node, ExecMode, ShardMap};
use ammboost_crypto::{Address, H256};
use ammboost_sidechain::block::{ExecutedTx, TxEffect};
use ammboost_sidechain::ledger::Ledger;
use ammboost_sim::rng::DetRng;
use ammboost_state::{CheckpointStore, Checkpointer};
use std::collections::HashMap;
use std::time::{Duration, Instant};

const POOLS: u32 = 8;
/// One position per user.
const USERS: u64 = 100_000;
const SWAPS_PER_EPOCH: usize = 4_000;
/// Collects and top-ups per epoch: 0.4 % of the positions.
const TOUCHES_PER_EPOCH: usize = 400;
/// Set-ups timed per run for `setup_s`; the last one is the node run.
const SETUP_REPS: usize = 3;
/// Late-joiner restores timed at the end of the run.
const RESTORE_REPS: usize = 3;
/// Mints executed per batch during set-up.
const MINT_BATCH: usize = 10_000;
const DEPOSIT: u128 = 1_000_000_000_000;
const GENESIS_LIQUIDITY: u128 = 4_000_000_000_000_000;
const QUOTE_SAMPLES: usize = 256;

pub struct Node {
    shards: ShardMap,
    ledger: Ledger,
    checkpointer: Checkpointer,
    store: CheckpointStore,
    /// `(owner, position, pool)`, one per user.
    positions: Vec<(Address, PositionId, PoolId)>,
    nonces: Vec<u64>,
    epoch: u64,
    rng: DetRng,
    submitted: u64,
    accepted: u64,
    rejected: u64,
    delta_bytes: Vec<u64>,
    /// Encoded size of the latest checkpoint.
    snapshot_bytes: u64,
}

fn user(i: u64) -> Address {
    Address::from_index(0x1E5_0000_0000 + i)
}

fn home_pool(i: u64) -> PoolId {
    PoolId((i % POOLS as u64) as u32)
}

impl Node {
    /// Mints one position per user across the pools, ends the first
    /// epoch and commits the first full checkpoint.
    pub fn setup(seed: u64) -> Node {
        let mut rng = DetRng::new(seed ^ 0x1E5);
        let mut shards = ShardMap::new((0..POOLS).map(PoolId));
        for pool in 0..POOLS {
            shards.seed_liquidity(
                PoolId(pool),
                Address::from_pubkey_bytes(b"genesis-lp"),
                -120_000,
                120_000,
                GENESIS_LIQUIDITY,
                GENESIS_LIQUIDITY,
            );
        }
        let home: HashMap<Address, PoolId> = (0..USERS).map(|i| (user(i), home_pool(i))).collect();
        let deposits = home.keys().map(|u| (*u, (DEPOSIT, DEPOSIT))).collect();
        shards.begin_epoch(deposits, |u| home.get(u).copied());

        let mints: Vec<AmmTx> = (0..USERS)
            .map(|i| {
                let center = (rng.range_u64(0, 40) as i32 - 20) * 60;
                let half_width = (1 + rng.range_u64(0, 20) as i32) * 60;
                AmmTx::Mint(MintTx {
                    user: user(i),
                    pool: home_pool(i),
                    position: None,
                    tick_lower: center - half_width,
                    tick_upper: center + half_width,
                    amount0_desired: rng.range_u128(100_000, 4_000_000),
                    amount1_desired: rng.range_u128(100_000, 4_000_000),
                    nonce: 1,
                })
            })
            .collect();
        let mut positions = Vec::with_capacity(USERS as usize);
        for chunk in mints.chunks(MINT_BATCH) {
            let batch: Vec<(&AmmTx, usize)> = chunk.iter().map(|tx| (tx, 0)).collect();
            for out in shards.execute_batch(&batch, 0, ExecMode::Auto) {
                let TxEffect::Mint { position, .. } = out.effect else {
                    panic!("set-up mint refused: {:?}", out.effect);
                };
                positions.push((out.tx.user(), position, out.tx.pool()));
            }
        }
        shards.end_epoch();
        let ledger = Ledger::new(H256::hash(b"node-1e5-genesis"));
        let mut checkpointer = Checkpointer::new();
        let first = checkpoint_node(&mut checkpointer, 1, &mut shards, &ledger);
        let mut store = CheckpointStore::new();
        store
            .commit(&first.snapshot, None)
            .expect("no crash point is scheduled");
        Node {
            shards,
            ledger,
            checkpointer,
            store,
            positions,
            nonces: vec![1; USERS as usize],
            epoch: 1,
            snapshot_bytes: 0,
            rng,
            submitted: 0,
            accepted: 0,
            rejected: 0,
            delta_bytes: Vec::new(),
        }
    }

    /// One sparse epoch's traffic: swaps by random users on their home
    /// pools plus collects and top-ups on random positions.
    fn traffic(&mut self) -> Vec<AmmTx> {
        let rng = &mut self.rng;
        let mut txs = Vec::with_capacity(SWAPS_PER_EPOCH + TOUCHES_PER_EPOCH);
        for _ in 0..SWAPS_PER_EPOCH {
            let i = rng.range_u64(0, USERS);
            txs.push(AmmTx::Swap(SwapTx {
                user: user(i),
                pool: home_pool(i),
                zero_for_one: rng.unit() < 0.5,
                intent: SwapIntent::ExactInput {
                    amount_in: rng.range_u128(1_000, 120_000),
                    min_amount_out: 0,
                },
                sqrt_price_limit: None,
                deadline_round: u64::MAX,
            }));
        }
        for _ in 0..TOUCHES_PER_EPOCH {
            let i = rng.range_u64(0, USERS) as usize;
            let (owner, position, pool) = self.positions[i];
            if rng.unit() < 0.5 {
                txs.push(AmmTx::Collect(CollectTx {
                    user: owner,
                    pool,
                    position,
                    amount0: u128::MAX,
                    amount1: u128::MAX,
                }));
            } else {
                self.nonces[i] += 1;
                txs.push(AmmTx::Mint(MintTx {
                    user: owner,
                    pool,
                    position: Some(position),
                    tick_lower: 0,
                    tick_upper: 0,
                    amount0_desired: rng.range_u128(10_000, 400_000),
                    amount1_desired: rng.range_u128(10_000, 400_000),
                    nonce: self.nonces[i],
                }));
            }
        }
        txs
    }

    /// Executes one epoch, checkpoints it and journals the delta. With a
    /// tracer, each layer call is a span and the checkpoint runs as its
    /// stage and commit halves.
    pub fn epoch(&mut self, tr: Option<&mut Tracer>) {
        let mut scratch = Tracer::default();
        let traced = tr.is_some();
        let tr = tr.unwrap_or(&mut scratch);
        self.epoch += 1;
        let txs = self.traffic();

        let t = Instant::now();
        self.shards.carry_over_epoch();
        tr.span("core.shard.begin_epoch", t);
        let batch: Vec<(&AmmTx, usize)> = txs.iter().map(|tx| (tx, 0)).collect();
        let t = Instant::now();
        let executed: Vec<ExecutedTx> =
            self.shards
                .execute_batch(&batch, self.epoch, ExecMode::Auto);
        tr.span("core.shard.execute", t);
        let accepted = executed.iter().filter(|e| e.accepted()).count() as u64;
        self.submitted += txs.len() as u64;
        self.accepted += accepted;
        self.rejected += txs.len() as u64 - accepted;
        tr.add("core.shard.txs", txs.len() as u64);
        tr.add("core.shard.rejected", txs.len() as u64 - accepted);
        let t = Instant::now();
        self.shards.end_epoch();
        tr.span("core.shard.end_epoch", t);

        let output = if traced {
            let t = Instant::now();
            let staged = stage_node(
                &mut self.checkpointer,
                self.epoch,
                &mut self.shards,
                &self.ledger,
            );
            tr.span("state.checkpoint.stage", t);
            let t = Instant::now();
            let output = staged.commit();
            self.checkpointer
                .note_committed(output.stats.epoch, output.stats.root);
            tr.span("state.checkpoint.commit", t);
            output
        } else {
            checkpoint_node(
                &mut self.checkpointer,
                self.epoch,
                &mut self.shards,
                &self.ledger,
            )
        };
        tr.add(
            "state.checkpoint.pages_dirty",
            output.stats.pages_dirty as u64,
        );
        tr.add(
            "state.checkpoint.pages_total",
            output.stats.pages_total as u64,
        );
        tr.add("state.checkpoint.delta_bytes", output.stats.delta_bytes);
        self.snapshot_bytes = output.stats.snapshot_bytes;
        let delta = output
            .delta
            .expect("every checkpoint after the first has a base");
        let t = Instant::now();
        self.store
            .commit_delta(&delta, None)
            .expect("the delta extends the committed tip");
        tr.span("state.store.commit", t);
        self.delta_bytes.push(delta.encoded_len() as u64);
    }

    /// Late-joiner restore of the folded tip, with the root checked
    /// against the journal's tip root.
    fn restore(&self, tr: &mut Tracer) -> ammboost_core::NodeRestore {
        let tip = self.store.tip_root().expect("a checkpoint is committed");
        let snapshot = tr.time("state.store.fold", || {
            self.store.latest().expect("tip folds")
        });
        let node = tr.time("state.sync.restore", || {
            restore_node(&snapshot).expect("folded tip restores")
        });
        assert_eq!(node.root, tip, "restored root differs from the journal tip");
        node
    }

    /// The end-of-run checks: restore round trip, a fresh full re-encode
    /// against the folded delta chain, sealed-view quotes against
    /// execution, and every transaction decided and accepted.
    fn check(&mut self, tally: &mut Tally, restored: &ammboost_core::NodeRestore, seed: u64) {
        let tip = self.store.tip_root().expect("a checkpoint is committed");
        checks::restored_matches_live(tally, restored, tip, &self.shards);
        let folded = self.store.latest().expect("tip folds").root();
        let mut fresh = Checkpointer::new();
        let full = checkpoint_node(&mut fresh, self.epoch, &mut self.shards, &self.ledger);
        tally.check(full.stats.root == folded && folded == tip, || {
            format!(
                "full re-encode root {:?} != folded chain root {folded:?}",
                full.stats.root
            )
        });
        let (view, _) = self.shards.publish_view(self.epoch);
        checks::quotes_match_execution(tally, &view, QUOTE_SAMPLES, seed);
        tally.ok(self.submitted);
        tally.check(self.accepted + self.rejected == self.submitted, || {
            "accepted + rejected != submitted".into()
        });
        tally.check(self.rejected == 0, || {
            format!("{} txs rejected", self.rejected)
        });
    }
}

/// Times `SETUP_REPS` set-ups and keeps the last node.
fn timed_setup(seed: u64) -> (f64, Node) {
    let mut samples = Vec::with_capacity(SETUP_REPS);
    let node = time_reps(SETUP_REPS, &mut samples, || Node::setup(seed));
    (median(&samples), node)
}

/// Epochs per round: one delta chain up to its fold into a full
/// snapshot (`store::DEFAULT_COMPACTION_THRESHOLD`).
const CYCLE: usize = 8;
/// Epochs run before the first round, so that every run ends with the
/// same number of unfolded deltas (`LEAD` of them) for the late joiner to
/// fold, whatever the number of rounds.
const LEAD: usize = 2;

/// `--trace 0`: `LEAD` epochs, then whole rounds of `CYCLE` epochs until
/// `seconds` have passed, then the checks. The tip has `LEAD` unfolded
/// deltas after the lead-in and after every round; one late-joiner
/// restore is timed there each time, and `RESTORE_REPS` more at the end,
/// so the samples spread over the run.
pub fn run(seed: u64, seconds: f64, tally: &mut Tally) -> Metrics {
    let (setup_s, mut node) = timed_setup(seed);
    let start = Instant::now();
    let mut busy = Duration::ZERO;
    let mut epochs = 0;
    let mut restore_samples = Vec::new();
    while epochs < LEAD || start.elapsed().as_secs_f64() < seconds {
        for _ in 0..if epochs == 0 { LEAD } else { CYCLE } {
            let t = Instant::now();
            node.epoch(None);
            busy += t.elapsed();
            epochs += 1;
        }
        assert_eq!(
            node.store.chain_len(),
            LEAD,
            "rounds end with LEAD unfolded deltas"
        );
        time_reps(1, &mut restore_samples, || {
            node.restore(&mut Tracer::default())
        });
    }
    let wall_tps = node.accepted as f64 / busy.as_secs_f64();
    let restored = time_reps(RESTORE_REPS, &mut restore_samples, || {
        node.restore(&mut Tracer::default())
    });
    tally.ok(restore_samples.len() as u64);
    node.check(tally, &restored, seed);

    let mut m = Metrics::default();
    m.put("setup_s", setup_s, "s");
    m.put("wall_tps", wall_tps, "tx/s");
    m.put("restore_s", median(&restore_samples), "s");
    m.bytes("snapshot_bytes", node.snapshot_bytes);
    let deltas = &node.delta_bytes;
    m.put(
        "delta_bytes",
        deltas.iter().sum::<u64>() as f64 / deltas.len().max(1) as f64,
        "bytes",
    );
    m.put("peak_rss_mb", peak_rss_mb(), "MiB");
    m
}

/// `--trace 1`: the same epochs twice from the same set-up seed, first
/// untraced and then traced, so the difference is the tracing overhead.
pub fn run_traced(seed: u64, seconds: f64, tally: &mut Tally) -> Metrics {
    let mut node = Node::setup(seed);
    let start = Instant::now();
    let mut epochs = 0;
    while epochs < LEAD || start.elapsed().as_secs_f64() < seconds / 2.0 {
        for _ in 0..if epochs == 0 { LEAD } else { CYCLE } {
            node.epoch(None);
            epochs += 1;
        }
    }
    let mut untraced = start.elapsed();
    let mut scratch = Tracer::default();
    let t = Instant::now();
    let restored = node.restore(&mut scratch);
    untraced += t.elapsed();
    drop(restored);
    drop(node);

    let mut tr = Tracer::default();
    let mut node = Node::setup(seed);
    let t = Instant::now();
    for _ in 0..epochs {
        node.epoch(Some(&mut tr));
    }
    let restored = node.restore(&mut tr);
    let traced = t.elapsed();
    tally.ok(1);
    node.check(tally, &restored, seed);
    let mut m = Metrics::default();
    tr.report(&mut m, traced, untraced, 1);
    m
}
