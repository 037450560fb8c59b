//! Fixture shaped like the streaming-ingestion and shard-stepping code
//! paths, carrying exactly one violation of each determinism rule.
pub fn feed_chunk(pending: &mut Vec<u64>, chunk: usize) -> u64 {
    let started = std::time::Instant::now(); // D2: wall clock in sim code
    let mut fed = 0;
    for _ in 0..chunk {
        fed += pending.pop().unwrap(); // D3: unannotated panic path
    }
    fed + started.elapsed().as_secs()
}

// D1: hash order would scramble the feed.
pub fn by_shard(routes: &std::collections::HashMap<u64, u32>) -> usize {
    routes.len()
}

pub fn epoch_done(progress: f64) -> bool {
    progress == 1.0 // D4: exact float equality
}

pub fn shard_of(shards: &[u32], txn: usize) -> u32 {
    shards[txn] // D6: indexing that can panic
}
