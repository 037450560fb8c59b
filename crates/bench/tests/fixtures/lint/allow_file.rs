//! Fixture: one file-scoped exemption, with its reason, covers every site.
#![expect(clippy::disallowed_types, reason = "fixture: file-wide exemption")]
use std::collections::HashMap;

pub type Index = HashMap<u64, u32>;
