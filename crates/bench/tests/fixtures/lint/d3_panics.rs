//! D3 fixture: panic-family calls, one carrying a justified exemption.
pub fn first(x: Option<u32>) -> u32 {
    x.unwrap()
}

#[expect(clippy::expect_used, reason = "fixture: justified exemption")]
pub fn second(x: Option<u32>) -> u32 {
    x.expect("checked by caller")
}

pub fn boom() {
    panic!("unconditional");
}
