//! Correctness checks, each computed apart from the code it checks.

use crate::report::{time_reps, Tally};
use ammboost_amm::types::PoolId;
use ammboost_amm::{Engine, SwapKind};
use ammboost_core::{restore_node, NodeRestore, QuoteView, ShardMap};
use ammboost_crypto::{H256, U256};
use ammboost_mainchain::contracts::TokenBank;
use ammboost_sim::rng::DetRng;
use ammboost_state::snapshot::Snapshot;
use ammboost_state::Encode;

/// Restores `bytes` `reps` times as a late joiner would (decode, rebuild,
/// compare the root with the committed one), appending each time to
/// `samples`, and returns the last restored node.
pub fn timed_restore(
    bytes: &[u8],
    committed_root: H256,
    reps: usize,
    samples: &mut Vec<f64>,
) -> NodeRestore {
    time_reps(reps, samples, || {
        let snapshot = Snapshot::decode(bytes).expect("committed snapshot decodes");
        let node = restore_node(&snapshot).expect("committed snapshot restores");
        assert_eq!(
            node.root, committed_root,
            "restored root differs from the committed root"
        );
        node
    })
}

/// Restore round trip: the restored root is the committed one and every
/// restored shard exports byte-identical engine state and the same
/// processor state as the live shard.
pub fn restored_matches_live(
    tally: &mut Tally,
    restored: &NodeRestore,
    committed_root: H256,
    live: &ShardMap,
) {
    tally.check(restored.root == committed_root, || {
        format!(
            "restored root {:?} != committed {:?}",
            restored.root, committed_root
        )
    });
    tally.check(restored.shards.pool_ids() == live.pool_ids(), || {
        "restored pool set differs from the live one".into()
    });
    for shard in live.iter() {
        let id = shard.pool_id();
        let Some(back) = restored.shards.get(id) else {
            continue;
        };
        let same_bytes = back.pool().export_state().encode_to_vec()
            == shard.pool().export_state().encode_to_vec();
        tally.check(same_bytes, || format!("{id}: restored engine bytes differ"));
        tally.check(back.export_state() == shard.export_state(), || {
            format!("{id}: restored processor state differs")
        });
    }
}

/// After the final sync, TokenBank's per-pool reserve record equals each
/// live engine's balances.
pub fn bank_matches_engines(tally: &mut Tally, bank: &TokenBank, shards: &ShardMap) {
    for shard in shards.iter() {
        let id = shard.pool_id();
        let engine = shard.pool().balances();
        let recorded = bank.pool_reserves(&id);
        tally.check(recorded == Some((engine.amount0, engine.amount1)), || {
            format!("{id}: TokenBank reserves {recorded:?} != engine balances {engine:?}")
        });
    }
}

/// Sampled sealed-view quotes equal the same swap executed on a clone of
/// the sealed engine; on constant-product engines every executed swap
/// leaves `x·y` no smaller.
pub fn quotes_match_execution(tally: &mut Tally, view: &QuoteView, samples: usize, seed: u64) {
    let mut rng = DetRng::new(seed ^ 0x0bad_cafe_f00d);
    let pools: Vec<PoolId> = view.pool_ids().to_vec();
    for _ in 0..samples {
        let pool = pools[rng.range_u64(0, pools.len() as u64) as usize];
        let zero_for_one = rng.unit() < 0.5;
        let kind = if rng.unit() < 0.8 {
            SwapKind::ExactInput(rng.range_u128(1_000, 120_000))
        } else {
            SwapKind::ExactOutput(rng.range_u128(1_000, 100_000))
        };
        let quoted = view.quote_swap(pool, zero_for_one, kind, None);
        let mut engine = view
            .pool(pool)
            .expect("sampled from the view")
            .as_ref()
            .clone();
        let before = cp_reserves(&engine);
        let executed = engine.swap(zero_for_one, kind, None);
        let agree = match (&quoted, &executed) {
            (Ok(q), Ok(e)) => q == e,
            (Err(_), Err(_)) => true,
            _ => false,
        };
        // x·y over the reserves, only where the engine is constant-product
        // and the swap executed
        let k = |r: (u128, u128)| U256::from(r.0) * U256::from(r.1);
        let k_held = match (before, cp_reserves(&engine), &executed) {
            (Some(b), Some(a), Ok(_)) => k(a) >= k(b),
            _ => true,
        };
        tally.check(agree && k_held, || {
            format!(
                "{pool}: quote {quoted:?} vs execution {executed:?} for {kind:?} \
                 (constant-product x*y held: {k_held})"
            )
        });
    }
}

fn cp_reserves(engine: &Engine) -> Option<(u128, u128)> {
    match engine {
        Engine::Cp(cp) => {
            let r = cp.reserves();
            Some((r.amount0, r.amount1))
        }
        _ => None,
    }
}
