//! The query generator's draw sequence is pinned by golden hashes across
//! four workload families.
//!
//! (`chunk`-size invariance of the *feed* path is pinned on the engine
//! side, in `unit-sim`'s `streaming` suite — the stream itself has no
//! chunking; it yields specs one at a time.)

use unit_core::time::SimDuration;
use unit_workload::{generate_queries, stream_queries};
use unit_workload::{QueryTraceConfig, UpdateVolume};

/// A family of generator configurations spanning the knobs that change the
/// RNG draw sequence: bursts on/off, multi-item read sets on/off, and
/// popularity skew.
fn config_family(
    family: u8,
    seed: u64,
    n_items: usize,
    n_queries: usize,
    horizon_s: u64,
) -> QueryTraceConfig {
    let base = QueryTraceConfig {
        n_items,
        n_queries,
        horizon: SimDuration::from_secs(horizon_s),
        seed,
        ..QueryTraceConfig::default()
    };
    match family % 4 {
        0 => base, // the paper's cello-like defaults
        1 => QueryTraceConfig {
            burst_count: 0,
            burst_query_fraction: 0.0,
            ..base
        }, // pure Poisson
        2 => QueryTraceConfig {
            max_items_per_query: 1,
            ..base
        }, // single-item reads
        _ => QueryTraceConfig {
            zipf_exponent: 0.8,
            multi_item_p: 0.7,
            burst_query_fraction: 0.5,
            ..base
        }, // mild skew, fat read sets, heavy bursts
    }
}

#[test]
fn scaled_up_multiplies_queries_at_fixed_horizon() {
    let base = QueryTraceConfig {
        n_items: 32,
        n_queries: 50,
        horizon: SimDuration::from_secs(1_000),
        seed: 3,
        ..QueryTraceConfig::default()
    };
    let up = base.scaled_up(8);
    assert_eq!(up.n_queries, 400);
    assert_eq!(up.horizon, base.horizon);
    // Offered load scales with the multiplier.
    assert!((up.offered_utilization() / base.offered_utilization() - 8.0).abs() < 1e-9);
    assert_eq!(stream_queries(&up).len(), 400);
}

#[test]
fn table1_scales_remain_available_for_the_bench_recipe() {
    // EXPERIMENTS.md's scale-256 recipe leans on these two knobs together:
    // scaled_down shrinks the paper trace, scaled_up multiplies load.
    let cfg = QueryTraceConfig::default().scaled_down(8).scaled_up(256);
    assert_eq!(cfg.n_queries, 110_035 / 8 * 256);
    assert!(UpdateVolume::Med.total_updates() > 0);
}

/// FNV-1a fold of every [`QuerySpec`] field and the popularity profile of
/// one generated trace — the generator's golden fingerprint.
fn trace_hash(cfg: &QueryTraceConfig) -> u64 {
    let trace = generate_queries(cfg);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |v: u64| h = (h ^ v).wrapping_mul(0x0100_0000_01b3);
    for q in &trace.queries {
        fold(q.id.0);
        fold(q.arrival.0);
        fold(q.items.len() as u64);
        for d in &q.items {
            fold(u64::from(d.0));
        }
        fold(q.exec_time.0);
        fold(q.relative_deadline.0);
        fold(q.freshness_req.to_bits());
        fold(u64::from(q.pref_class));
    }
    for w in &trace.item_weights {
        fold(w.to_bits());
    }
    h
}

/// Golden trace hashes, one per `config_family`, captured from the
/// two-pass `generate_queries` that predates the single streamed generator.
/// To regenerate after an *intentional* change to the draw sequence:
///
/// ```text
/// GOLDEN_PRINT=1 cargo test -p unit-workload --test stream_identity -- --nocapture
/// ```
const GOLDEN_TRACE_HASHES: [u64; 4] = [
    0x510404df32cb1183,
    0xe17a339836283b9f,
    0x1a8a8b11c6af809a,
    0x9a9c861f0063dc3a,
];

#[test]
fn generated_traces_match_golden_hashes() {
    let print_mode = std::env::var_os("GOLDEN_PRINT").is_some();
    for family in 0u8..4 {
        let hash = trace_hash(&config_family(family, 0x5EED_600D, 64, 500, 5_000));
        if print_mode {
            println!("    0x{hash:016x},");
        } else {
            assert_eq!(
                hash,
                GOLDEN_TRACE_HASHES[usize::from(family)],
                "family {family}: generator draw sequence changed (got 0x{hash:016x})"
            );
        }
    }
}
