//! P1 fixture: Policy trait fns must document a complexity bound.
pub trait Policy {
    /// Documented hook. O(1).
    fn good(&self);

    /// Missing a complexity bound.
    fn bad(&self);

    fn naked(&self);
}

pub struct Greedy;

impl Greedy {
    pub fn outside_the_trait(&self) {}
}
