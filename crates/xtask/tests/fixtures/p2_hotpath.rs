// Fixture: per-event allocations inside a Policy impl hook — the shape
// that silently gives back the event-loop perf wins.
pub struct Greedy {
    seen: Vec<String>,
}

impl Policy for Greedy {
    fn on_query(&mut self, name: &str) {
        let label = format!("q-{name}");
        self.seen.push(label);
    }

    fn snapshot(&self) -> Vec<String> {
        self.seen.to_vec()
    }

    fn on_tick(&self) -> Vec<String> {
        if self.seen.is_empty() {
            return Vec::new(); // const, allocation-free: not a finding
        }
        self.seen.clone()
    }
}
