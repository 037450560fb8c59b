//! A1 fixture: malformed exemptions. Each is reported, and none of them
//! quietly stands in for a reasoned `#[expect]`.
pub fn validated(x: Option<u64>, y: Option<u64>, z: &[u64]) -> u64 {
    #[allow(clippy::unwrap_used)]
    let a = x.unwrap();
    #[expect(clippy::q9, reason = "there is no lint q9")]
    let b = y.unwrap();
    #[expect(clippy::indexing_slicing, reason = "stale: nothing here indexes")]
    let c = z.len() as u64;
    a + b + c
}
