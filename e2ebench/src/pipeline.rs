//! The `System::run` pipeline stepped through the layers' public
//! functions, one span per layer call. It reproduces the fault-free path
//! of `ammboost_core::system::System` step for step — election, deposit
//! snapshots, traffic, batch execution, meta-block sealing, quotes,
//! summary, TSQC-certified sync with relock and DKG rotation,
//! confirmations with pruning, scheduled checkpoints and the queue drain
//! — so its accepted/rejected counts and final state root must equal the
//! real run's for the same configuration.

use crate::trace::Tracer;
use ammboost_amm::tx::{AmmTx, RouteTx, SwapIntent};
use ammboost_amm::types::PoolId;
use ammboost_amm::{EngineKind, SwapKind};
use ammboost_consensus::election::{draw_ticket, elect_committee, MinerRecord};
use ammboost_core::config::{DepositPolicy, SystemConfig};
use ammboost_core::{stage_node, QuoteView, ShardMap};
use ammboost_crypto::dkg::{run_ceremony, DkgConfig, DkgOutput};
use ammboost_crypto::tsqc::{partial_sign, QuorumCertificate};
use ammboost_crypto::vrf::VrfSecretKey;
use ammboost_crypto::{Address, H256};
use ammboost_mainchain::chain::{Mainchain, TxId, TxSpec};
use ammboost_mainchain::contracts::token_bank::SyncInput;
use ammboost_mainchain::contracts::{Erc20, TokenBank};
use ammboost_mainchain::gas::{GasMeter, TX_BASE};
use ammboost_sidechain::block::{ExecutedTx, MetaBlock, SummaryBlock, TxEffect};
use ammboost_sidechain::ledger::Ledger;
use ammboost_sidechain::summary::{PayoutEntry, PoolUpdate, PositionEntry};
use ammboost_sim::rng::DetRng;
use ammboost_sim::time::{SimDuration, SimTime};
use ammboost_state::{prune_to_snapshot, CheckpointOutput, Checkpointer, RetentionPolicy};
use ammboost_workload::{GeneratorConfig, QuoteRequest, TrafficGenerator};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

type UnsyncedEpoch = (u64, Vec<PayoutEntry>, Vec<PositionEntry>, Vec<PoolUpdate>);

/// Genesis liquidity per pool, as `System::new` seeds it.
const SEED_LIQUIDITY: u128 = 4_000_000_000_000_000;

/// Outcome counts of a stepped run, compared against `SystemReport`.
#[derive(Default, Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub submitted: u64,
    pub accepted: u64,
    pub rejected: u64,
    pub leftover_queue: u64,
    pub routes_accepted: u64,
    pub route_legs: u64,
    pub quotes_served: u64,
    pub quotes_failed: u64,
    pub syncs_confirmed: u64,
}

/// What the stepped run saw that `System::run` does not expose: per-tx
/// and per-quote outcomes, checked against the workload's expectations.
#[derive(Default, Debug, Clone, Copy)]
pub struct Audit {
    /// Accepted routes whose executed legs were outside 2..=3.
    pub routes_bad_legs: u64,
    /// Rejections that are not an ExactOutput token1→token0 swap on a
    /// weighted pool refused by slippage protection.
    pub unexplained_rejections: u64,
    /// Failed quotes that are not valuations of a position the sealed
    /// view does not hold.
    pub unexplained_quote_failures: u64,
}

pub struct Pipeline {
    cfg: SystemConfig,
    pub chain: Mainchain,
    pub bank: TokenBank,
    token0: Erc20,
    token1: Erc20,
    pub shards: ShardMap,
    pub ledger: Ledger,
    generator: TrafficGenerator,
    miners: Vec<MinerRecord>,
    miner_sks: Vec<VrfSecretKey>,
    registered_shares: DkgOutput,
    next_dkg: DkgOutput,
    queue: VecDeque<(SimTime, AmmTx, usize)>,
    unsynced: Vec<UnsyncedEpoch>,
    pending_syncs: Vec<TxId>,
    synced_through: u64,
    pub view: Arc<QuoteView>,
    pub checkpointer: Checkpointer,
    pub last_checkpoint: Option<CheckpointOutput>,
    pub counts: Counts,
    pub audit: Audit,
    pub tr: Tracer,
}

impl Pipeline {
    /// Assembles the components exactly as `System::new` does (deployment,
    /// faucet, genesis liquidity, miner identities, genesis view).
    pub fn new(cfg: SystemConfig) -> Pipeline {
        assert!(
            cfg.faults.is_empty(),
            "the stepped pipeline models the fault-free path"
        );
        let mut rng = DetRng::new(cfg.seed);
        let crypto_cfg = DkgConfig::for_faults(cfg.crypto_committee_faults);
        let genesis_dkg = run_ceremony(crypto_cfg, cfg.seed ^ 0xD16);
        let next_dkg = run_ceremony(crypto_cfg, cfg.seed ^ 0xD16 ^ 1);

        let mut bank = TokenBank::deploy(genesis_dkg.group_public_key);
        let mut token0 = Erc20::new("TKA");
        let mut token1 = Erc20::new("TKB");
        let pool_ids: Vec<PoolId> = (0..cfg.pools).map(PoolId).collect();
        for pool in &pool_ids {
            bank.create_pool(*pool, &mut GasMeter::new());
        }
        let generator = TrafficGenerator::new(GeneratorConfig {
            daily_volume: cfg.daily_volume,
            mix: cfg.mix,
            users: cfg.users,
            round_duration: cfg.round_duration,
            pools: pool_ids.clone(),
            skew: cfg.traffic_skew,
            route_style: cfg.route_style,
            engine_mix: cfg.engine_mix,
            deadline_slack_rounds: 1_000_000,
            max_positions_per_user: 1,
            liquidity_style: cfg.liquidity_style,
            quote_style: cfg.quote_style,
            seed: cfg.seed ^ 0x7AFF,
        });
        let per_user = cfg
            .deposit_amount
            .saturating_mul(cfg.epochs as u128 + 1)
            .saturating_mul(2);
        for user in generator.users() {
            token0.mint(user, per_user);
            token1.mint(user, per_user);
        }
        token0.mint(bank.address, SEED_LIQUIDITY * 2 * cfg.pools as u128);
        token1.mint(bank.address, SEED_LIQUIDITY * 2 * cfg.pools as u128);

        let mut shards = ShardMap::new_with_engines(generator.fleet());
        for pool in &pool_ids {
            shards.seed_liquidity(
                *pool,
                Address::from_pubkey_bytes(b"genesis-lp"),
                -120_000,
                120_000,
                SEED_LIQUIDITY,
                SEED_LIQUIDITY,
            );
        }
        let mut miners = Vec::with_capacity(cfg.miner_population);
        let mut miner_sks = Vec::with_capacity(cfg.miner_population);
        for i in 0..cfg.miner_population as u64 {
            let sk = VrfSecretKey::from_entropy(rng.entropy32());
            miners.push(MinerRecord {
                id: i,
                vrf_pk: sk.public_key(),
                stake: 100 + (i % 17) * 10,
            });
            miner_sks.push(sk);
        }
        let (view, _) = shards.publish_view(0);
        Pipeline {
            chain: Mainchain::new(cfg.mainchain),
            bank,
            token0,
            token1,
            shards,
            ledger: Ledger::new(H256::hash(b"mainchain-block-containing-token-bank")),
            generator,
            miners,
            miner_sks,
            registered_shares: genesis_dkg,
            next_dkg,
            queue: VecDeque::new(),
            unsynced: Vec::new(),
            pending_syncs: Vec::new(),
            synced_through: 0,
            view,
            checkpointer: Checkpointer::new(),
            last_checkpoint: None,
            counts: Counts::default(),
            audit: Audit::default(),
            tr: Tracer::default(),
            cfg,
        }
    }

    /// The run: deposits, every epoch, the queue drain and the final
    /// confirmations — `System::run` step for step.
    pub fn run(&mut self) {
        let t0 = SimTime::ZERO + SimDuration::from_secs(60);
        self.submit_deposits(SimTime::ZERO, 1);
        self.advance_chain(t0);
        for epoch in 1..=self.cfg.epochs {
            let epoch_start = t0 + self.cfg.epoch_duration().saturating_mul(epoch - 1);
            self.run_epoch(epoch, epoch_start);
        }
        let drain_end = self.drain_queue(t0 + self.cfg.run_duration());
        self.advance_chain(drain_end + SimDuration::from_secs(120));
        self.counts.leftover_queue = self.queue.len() as u64;
        self.tr
            .add("sidechain.peak_bytes", self.ledger.peak_bytes());
        self.tr.add("mainchain.gas", self.chain.total_gas());
        self.tr
            .add("mainchain.growth_bytes", self.chain.growth_bytes());
    }

    /// The on-demand checkpoint `System::checkpoint` takes after a run.
    pub fn checkpoint(&mut self, epoch: u64) -> &CheckpointOutput {
        self.scheduled_checkpoint(epoch);
        self.last_checkpoint
            .as_ref()
            .expect("checkpoint just taken")
    }

    fn run_epoch(&mut self, epoch: u64, epoch_start: SimTime) {
        let t = Instant::now();
        let seed = H256::hash_concat(&[
            b"epoch-seed",
            &self.cfg.seed.to_be_bytes(),
            &epoch.to_be_bytes(),
        ]);
        let committee_size = self.cfg.committee_size.min(self.miners.len());
        let tickets: Vec<_> = self
            .miners
            .iter()
            .zip(&self.miner_sks)
            .map(|(m, sk)| draw_ticket(sk, m.id, &seed, epoch))
            .collect();
        let committee = elect_committee(&self.miners, &tickets, &seed, epoch, committee_size)
            .expect("population exceeds committee size");
        std::hint::black_box(committee);
        self.tr.span("consensus.election", t);
        self.tr.add("consensus.tickets", tickets.len() as u64);

        assert!(
            self.synced_through + 1 >= epoch,
            "fault-free runs never carry over"
        );
        self.begin_epoch(epoch);
        if self.cfg.deposit_policy == DepositPolicy::PerEpoch && epoch < self.cfg.epochs {
            self.submit_deposits(epoch_start, epoch + 1);
        }

        for round in 0..self.cfg.rounds_per_epoch {
            let global_round = (epoch - 1) * self.cfg.rounds_per_epoch + round;
            let round_start = epoch_start + self.cfg.round_duration.saturating_mul(round);
            let round_end = round_start + self.cfg.round_duration;

            let t = Instant::now();
            let batch = self.generator.next_round(global_round);
            self.tr.span("workload.generate", t);
            let n = batch.len() as u64;
            self.tr.add("workload.txs", n);
            for (i, gtx) in batch.into_iter().enumerate() {
                let offset = SimDuration::from_millis(
                    self.cfg.round_duration.as_millis() * i as u64 / n.max(1),
                );
                self.queue
                    .push_back((round_start + offset, gtx.tx, gtx.wire_size));
                self.counts.submitted += 1;
            }
            self.serve_quotes();
            if round < self.cfg.rounds_per_epoch - 1 {
                let executed = self.execute_queued_batch(Some(round_end), global_round);
                let t = Instant::now();
                let block = MetaBlock::new(epoch, round, self.ledger.tip(), executed);
                self.ledger
                    .append_meta(block)
                    .expect("locally mined meta-block chains correctly");
                self.tr.span("sidechain.seal", t);
                self.tr.add("sidechain.meta_blocks", 1);
            }
            self.advance_chain(round_end);
        }
        self.close_epoch(epoch, epoch_start + self.cfg.epoch_duration());
    }

    /// SnapshotBank: the TokenBank deposit snapshot for `epoch`, routed
    /// to the shards.
    fn begin_epoch(&mut self, epoch: u64) {
        let t = Instant::now();
        let snapshot = self.bank.snapshot_deposits(epoch);
        self.tr.span("mainchain.deposit", t);
        let t = Instant::now();
        let generator = &self.generator;
        self.shards
            .begin_epoch(snapshot, |user| generator.pool_for(user));
        self.tr.span("core.shard.begin_epoch", t);
    }

    fn serve_quotes(&mut self) {
        if !self.cfg.quote_style.active() {
            return;
        }
        let t = Instant::now();
        let requests = self.generator.next_quotes();
        self.tr.span("workload.generate", t);
        let t = Instant::now();
        let view = &self.view;
        let mut served = 0u64;
        let mut failed = 0u64;
        let mut unexplained = 0u64;
        for req in requests {
            let outcome = match &req {
                QuoteRequest::Swap {
                    pool,
                    zero_for_one,
                    amount_in,
                } => view
                    .quote_swap(*pool, *zero_for_one, SwapKind::ExactInput(*amount_in), None)
                    .map(|_| ()),
                QuoteRequest::Route { hops, amount_in } => view
                    .simulate_route(&RouteTx {
                        user: Address::from_pubkey_bytes(b"quote-reader"),
                        hops: hops.clone(),
                        amount_in: *amount_in,
                        min_amount_out: 0,
                        deadline_round: u64::MAX,
                    })
                    .map(|_| ()),
                QuoteRequest::Valuation { pool, position } => {
                    view.value_position(*pool, position).map(|_| ())
                }
            };
            match outcome {
                Ok(()) => served += 1,
                Err(_) => {
                    failed += 1;
                    let explained = match &req {
                        QuoteRequest::Valuation { pool, position } => view
                            .pool(*pool)
                            .is_some_and(|engine| engine.position_info(position).is_none()),
                        _ => false,
                    };
                    if !explained {
                        unexplained += 1;
                    }
                }
            }
        }
        self.tr.span("core.view.quote", t);
        self.tr.add("core.view.quotes", served + failed);
        self.tr.add("core.view.quote_failed", failed);
        self.counts.quotes_served += served;
        self.counts.quotes_failed += failed;
        self.audit.unexplained_quote_failures += unexplained;
    }

    /// Pops the queue under the byte budget (and the arrival cutoff, when
    /// given), executes the batch across the shards and books outcomes.
    fn execute_queued_batch(
        &mut self,
        arrival_cutoff: Option<SimTime>,
        global_round: u64,
    ) -> Vec<ExecutedTx> {
        let mut popped: Vec<(SimTime, AmmTx, usize)> = Vec::new();
        let mut bytes = 0usize;
        while let Some((arrival, _, size)) = self.queue.front() {
            let past_cutoff = arrival_cutoff.is_some_and(|cutoff| *arrival >= cutoff);
            if past_cutoff || bytes + size > self.cfg.meta_block_bytes {
                break;
            }
            let entry = self.queue.pop_front().expect("front checked");
            bytes += entry.2;
            popped.push(entry);
        }
        let batch: Vec<(&AmmTx, usize)> = popped.iter().map(|(_, tx, size)| (tx, *size)).collect();
        let t = Instant::now();
        let executed = self
            .shards
            .execute_batch(&batch, global_round, self.cfg.exec_mode);
        self.tr.span("core.shard.execute", t);
        self.tr.add("core.shard.txs", executed.len() as u64);
        for out in &executed {
            if out.accepted() {
                self.counts.accepted += 1;
                match &out.effect {
                    TxEffect::Burn {
                        position,
                        deleted: true,
                        ..
                    } => self.generator.forget_position(*position),
                    TxEffect::Route { legs, .. } => {
                        self.counts.routes_accepted += 1;
                        self.counts.route_legs += legs.len() as u64;
                        if !(2..=3).contains(&legs.len()) {
                            self.audit.routes_bad_legs += 1;
                        }
                    }
                    _ => {}
                }
            } else {
                self.counts.rejected += 1;
                self.tr.add("core.shard.rejected", 1);
                if !self.is_named_slippage_fault(out) {
                    self.audit.unexplained_rejections += 1;
                }
            }
        }
        executed
    }

    /// The generator fault: an ExactOutput token1→token0 swap on a
    /// weighted pool, refused by slippage protection.
    fn is_named_slippage_fault(&self, out: &ExecutedTx) -> bool {
        let (AmmTx::Swap(swap), TxEffect::Rejected { reason }) = (&out.tx, &out.effect) else {
            return false;
        };
        matches!(swap.intent, SwapIntent::ExactOutput { .. })
            && !swap.zero_for_one
            && reason.contains("slippage")
            && self
                .shards
                .get(swap.pool)
                .is_some_and(|s| s.engine_kind() == EngineKind::Weighted)
    }

    fn close_epoch(&mut self, epoch: u64, epoch_end: SimTime) {
        let t = Instant::now();
        let (payouts, positions, pool_updates) = self.shards.end_epoch();
        self.tr.span("core.shard.end_epoch", t);
        self.publish_view(epoch);
        let t = Instant::now();
        let summary = SummaryBlock {
            epoch,
            parent: self.ledger.tip(),
            meta_refs: self
                .ledger
                .meta_blocks(epoch)
                .iter()
                .map(|m| m.id())
                .collect(),
            payouts: payouts.clone(),
            positions: positions.clone(),
            pools: pool_updates.clone(),
        };
        self.tr
            .add("sidechain.summary_bytes", summary.size_bytes() as u64);
        self.ledger
            .append_summary(summary)
            .expect("locally built summary chains correctly");
        self.tr.span("sidechain.summary", t);
        self.unsynced
            .push((epoch, payouts, positions, pool_updates));
        self.submit_sync(epoch, epoch_end);
        if self.cfg.snapshot.enabled() && epoch % self.cfg.snapshot.interval_epochs == 0 {
            self.scheduled_checkpoint(epoch);
            if !self.cfg.disable_pruning {
                let t = Instant::now();
                prune_to_snapshot(
                    &mut self.ledger,
                    epoch,
                    RetentionPolicy {
                        keep_epochs: self.cfg.snapshot.keep_epochs,
                    },
                );
                self.tr.span("sidechain.prune", t);
            }
        }
    }

    fn publish_view(&mut self, epoch: u64) {
        let t = Instant::now();
        let (view, _) = self.shards.publish_view(epoch);
        self.view = view;
        self.tr.span("core.view.publish", t);
    }

    /// A synchronous checkpoint split into its stage and commit halves.
    fn scheduled_checkpoint(&mut self, epoch: u64) {
        let t = Instant::now();
        let staged = stage_node(
            &mut self.checkpointer,
            epoch,
            &mut self.shards,
            &self.ledger,
        );
        self.tr.span("state.checkpoint.stage", t);
        let t = Instant::now();
        let output = staged.commit();
        self.checkpointer
            .note_committed(output.stats.epoch, output.stats.root);
        self.tr.span("state.checkpoint.commit", t);
        self.tr.add(
            "state.checkpoint.pages_dirty",
            output.stats.pages_dirty as u64,
        );
        self.tr.add(
            "state.checkpoint.pages_total",
            output.stats.pages_total as u64,
        );
        self.tr
            .add("state.checkpoint.delta_bytes", output.stats.delta_bytes);
        self.last_checkpoint = Some(output);
    }

    /// Builds, certifies and applies a sync over every unsynced epoch,
    /// relocks the payouts and rotates the committee keys.
    fn submit_sync(&mut self, through_epoch: u64, at: SimTime) {
        let t = Instant::now();
        let payouts = self.unsynced.last().expect("non-empty").1.clone();
        let mut merged: BTreeMap<_, PositionEntry> = BTreeMap::new();
        for (_, _, positions, _) in &self.unsynced {
            for p in positions {
                merged.insert(p.id, *p);
            }
        }
        let pools = self.unsynced.last().expect("non-empty").3.clone();
        let input = SyncInput {
            epoch: through_epoch,
            payouts,
            positions: merged.into_values().collect(),
            pools,
            next_vk: self.next_dkg.group_public_key,
        };
        self.tr.span("sidechain.summary", t);

        let t = Instant::now();
        let payload = input.abi_payload();
        let threshold = self.registered_shares.config.threshold;
        let partials: Vec<_> = self.registered_shares.key_shares[..threshold]
            .iter()
            .map(|ks| partial_sign(ks, &payload))
            .collect();
        let qc = QuorumCertificate::assemble(through_epoch, &payload, &partials, threshold)
            .expect("threshold partials available");
        self.tr.span("crypto.tsqc", t);
        self.tr
            .add("crypto.tsqc_payload_bytes", payload.len() as u64);

        let t = Instant::now();
        self.synced_through = through_epoch;
        let receipt = self
            .bank
            .sync(&input, &qc, &mut self.token0, &mut self.token1)
            .expect("committee-built sync must verify");
        if self.cfg.deposit_policy == DepositPolicy::OncePerRun {
            for p in &input.payouts {
                self.bank
                    .relock(
                        p.user,
                        p.amount0,
                        p.amount1,
                        through_epoch + 1,
                        &mut self.token0,
                        &mut self.token1,
                    )
                    .expect("payout was just dispensed");
            }
        }
        let tx_id = self.chain.submit(
            at,
            TxSpec {
                label: "sync".into(),
                gas: receipt.meter.total(),
                size_bytes: receipt.tx_size_bytes,
                depends_on: None,
            },
        );
        self.pending_syncs.push(tx_id);
        self.tr.span("mainchain.sync", t);
        self.tr
            .add("mainchain.sync_payouts", receipt.payouts_applied as u64);

        let t = Instant::now();
        self.registered_shares = self.next_dkg.clone();
        self.next_dkg = run_ceremony(
            DkgConfig::for_faults(self.cfg.crypto_committee_faults),
            self.cfg.seed ^ 0xD16 ^ (through_epoch + 2),
        );
        self.tr.span("crypto.dkg", t);
    }

    /// Advances the mainchain to `t` and handles confirmed syncs: a
    /// confirmation settles (and prunes) every unsynced epoch.
    fn advance_chain(&mut self, to: SimTime) {
        let t = Instant::now();
        self.chain.advance_to(to);
        let mut remaining = Vec::new();
        let mut confirmed = 0;
        for tx_id in std::mem::take(&mut self.pending_syncs) {
            if self.chain.confirmed_at(tx_id).is_some() {
                confirmed += 1;
            } else {
                remaining.push(tx_id);
            }
        }
        self.pending_syncs = remaining;
        self.tr.span("mainchain.chain", t);
        if confirmed == 0 {
            return;
        }
        self.counts.syncs_confirmed += confirmed;
        let t = Instant::now();
        for (e, _, _, _) in self.unsynced.drain(..) {
            if !self.cfg.disable_pruning {
                let _ = self.ledger.prune_epoch(e);
            }
        }
        self.tr.span("sidechain.prune", t);
    }

    /// Approvals plus a deposit per user backing `for_epoch`.
    fn submit_deposits(&mut self, at: SimTime, for_epoch: u64) {
        let t = Instant::now();
        let amount = self.cfg.deposit_amount;
        for user in self.generator.users() {
            let mut m_a0 = GasMeter::new();
            self.token0
                .approve(user, self.bank.address, amount, &mut m_a0);
            let a0 = self.chain.submit(
                at,
                TxSpec {
                    label: "approve".into(),
                    gas: m_a0.total() + TX_BASE,
                    size_bytes: 68,
                    depends_on: None,
                },
            );
            let mut m_a1 = GasMeter::new();
            self.token1
                .approve(user, self.bank.address, amount, &mut m_a1);
            let a1 = self.chain.submit(
                at,
                TxSpec {
                    label: "approve".into(),
                    gas: m_a1.total() + TX_BASE,
                    size_bytes: 68,
                    depends_on: Some(a0),
                },
            );
            let mut m_dep = GasMeter::new();
            self.bank
                .deposit(
                    user,
                    amount,
                    amount,
                    for_epoch,
                    &mut self.token0,
                    &mut self.token1,
                    &mut m_dep,
                )
                .expect("faucet funded users");
            self.chain.submit(
                at,
                TxSpec {
                    label: "deposit".into(),
                    gas: m_dep.total(),
                    size_bytes: 132,
                    depends_on: Some(a1),
                },
            );
        }
        self.tr.span("mainchain.deposit", t);
    }

    /// Mines rounds after the last epoch until the queue is empty, then
    /// settles the drained traffic with its own sync.
    fn drain_queue(&mut self, run_end: SimTime) -> SimTime {
        if self.queue.is_empty() {
            return run_end;
        }
        let drain_epoch = self.cfg.epochs + 1;
        assert!(
            self.synced_through >= self.cfg.epochs,
            "fault-free runs never carry over"
        );
        self.begin_epoch(drain_epoch);
        let mut t = run_end;
        let mut round = self.cfg.epochs * self.cfg.rounds_per_epoch;
        while !self.queue.is_empty() {
            self.execute_queued_batch(None, round);
            round += 1;
            t += self.cfg.round_duration;
        }
        self.advance_chain(t + SimDuration::from_secs(60));
        let tt = Instant::now();
        let (payouts, positions, pool_updates) = self.shards.end_epoch();
        self.tr.span("core.shard.end_epoch", tt);
        self.publish_view(drain_epoch);
        self.unsynced
            .push((drain_epoch, payouts, positions, pool_updates));
        self.submit_sync(drain_epoch, t + SimDuration::from_secs(60));
        self.advance_chain(t + SimDuration::from_secs(120));
        t
    }
}
