//! In-memory span and counter store for the traced run.
//!
//! Every instrumented call (see [`crate::probe`]) records into a
//! thread-local [`Local`] buffer — no lock on the hot path — and the buffer
//! is merged into the run's [`TraceSink`] when the wrapper that owns the
//! thread's work is dropped. Aggregates (count, total, log2 histogram) are
//! kept for every call; full spans `{name, start_ns, end_ns, parent,
//! query_id}` are kept for every query on the paced server workloads and for
//! one query (or call) in [`SAMPLE_EVERY`] on the high-volume ones. The sink
//! writes the spans as JSON lines when the benchmark ends.

use std::cell::RefCell;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// High-volume workloads keep full spans for one query or call in this many.
pub const SAMPLE_EVERY: u64 = 256;

/// Every instrumented boundary. The name is the span name in the span file
/// and the stem of the per-layer metric names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Op {
    /// Root span of one served query: admission-hook entry → outcome-hook entry.
    Service,
    PolicyArrival,
    PolicyOutcome,
    PolicyTick,
    PolicyVersion,
    PolicyUpdateCommit,
    MemBegin,
    MemRead,
    MemCommit,
    MemApply,
    MemObserveVersion,
    /// The worker's busy-wait for the query's service demand (derived: last
    /// read exit → commit entry).
    Spin,
    /// One `next()` of the wrapped streaming query generator.
    StreamNext,
}

impl Op {
    pub const COUNT: usize = 13;

    pub fn name(self) -> &'static str {
        match self {
            Op::Service => "server.service",
            Op::PolicyArrival => "core.policy.on_query_arrival",
            Op::PolicyOutcome => "core.policy.on_query_outcome",
            Op::PolicyTick => "core.policy.on_tick",
            Op::PolicyVersion => "core.policy.on_version_arrival",
            Op::PolicyUpdateCommit => "core.policy.on_update_commit",
            Op::MemBegin => "server.mem.begin",
            Op::MemRead => "server.mem.read",
            Op::MemCommit => "server.mem.commit",
            Op::MemApply => "server.mem.apply",
            Op::MemObserveVersion => "server.mem.observe_version",
            Op::Spin => "server.spin",
            Op::StreamNext => "workload.stream_next",
        }
    }

    /// Every op, in discriminant order (so `ALL[op as usize] == op`).
    const ALL: [Op; Op::COUNT] = [
        Op::Service,
        Op::PolicyArrival,
        Op::PolicyOutcome,
        Op::PolicyTick,
        Op::PolicyVersion,
        Op::PolicyUpdateCommit,
        Op::MemBegin,
        Op::MemRead,
        Op::MemCommit,
        Op::MemApply,
        Op::MemObserveVersion,
        Op::Spin,
        Op::StreamNext,
    ];
}

/// Count, total and log2-bucket histogram of one op's durations.
#[derive(Debug, Clone)]
pub struct OpStats {
    pub count: u64,
    pub sum_ns: u64,
    /// Bucket `b` counts durations in `[2^b, 2^(b+1))` ns (bucket 0 also
    /// takes 0 ns).
    pub hist: [u64; 40],
    /// Calls that returned an error (backend ops only).
    pub errors: u64,
}

impl Default for OpStats {
    fn default() -> Self {
        OpStats {
            count: 0,
            sum_ns: 0,
            hist: [0; 40],
            errors: 0,
        }
    }
}

impl OpStats {
    fn record(&mut self, ns: u64) {
        self.count += 1;
        self.sum_ns += ns;
        let bucket = (63 - (ns | 1).leading_zeros() as usize).min(39);
        self.hist[bucket] += 1;
    }

    fn merge(&mut self, other: &OpStats) {
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.errors += other.errors;
        for (a, b) in self.hist.iter_mut().zip(&other.hist) {
            *a += b;
        }
    }

    /// Mean duration in ns (0 when never called).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }
}

/// `parent` value of a span with no parent.
const NO_PARENT: u32 = u32::MAX;
/// `query` value of a span that belongs to no query.
pub const NO_QUERY: u64 = u64::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub op: Op,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same thread's buffer.
    parent: u32,
    pub query: u64,
}

/// Per-query stage totals of the served query currently open on this thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageSums {
    pub service_ns: u64,
    pub policy_ns: u64,
    pub backend_ns: u64,
    pub spin_ns: u64,
    /// Between one query's outcome-hook entry and the next one's
    /// admission-hook entry on the same thread: the outcome hook, the channel
    /// receive (idle wait included) and the tick check.
    pub between_ns: u64,
}

/// The query a worker thread is serving right now.
#[derive(Debug, Clone, Copy)]
struct OpenQuery {
    id: u64,
    start_ns: u64,
    /// Root span index when this query's spans are kept.
    root: Option<u32>,
    policy_ns: u64,
    backend_ns: u64,
    spin_ns: u64,
    last_read_end_ns: u64,
}

/// One thread's buffer.
#[derive(Default)]
pub struct Local {
    stats: [OpStats; Op::COUNT],
    spans: Vec<Span>,
    open: Option<OpenQuery>,
    stages: StageSums,
    /// When this thread's previous served query closed (0: none yet).
    last_close_ns: u64,
    signals: u64,
    calls: u64,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

impl Local {
    fn stat(&mut self, op: Op) -> &mut OpStats {
        &mut self.stats[op as usize]
    }

    fn push_span(&mut self, op: Op, start_ns: u64, end_ns: u64, parent: u32, query: u64) -> u32 {
        self.spans.push(Span {
            op,
            start_ns,
            end_ns,
            parent,
            query,
        });
        (self.spans.len() - 1) as u32
    }
}

/// The run-wide collector. Cheap to clone; wrappers hold a clone and merge
/// their thread's buffer into it on drop.
#[derive(Clone)]
pub struct TraceSink {
    epoch: Instant,
    /// Keep full spans for every query (paced server workloads) or sample.
    full_spans: bool,
    merged: Arc<Mutex<Merged>>,
}

#[derive(Default)]
struct Merged {
    stats: [OpStats; Op::COUNT],
    /// Span buffers, one per flush; parents index within their own buffer.
    span_buffers: Vec<Vec<Span>>,
    stages: StageSums,
    signals: u64,
}

/// What the sink holds once every wrapper has been dropped.
pub struct TraceSummary {
    pub stats: [OpStats; Op::COUNT],
    pub stages: StageSums,
    /// Control signals returned by `on_tick` hooks.
    pub signals: u64,
    pub spans: u64,
}

impl TraceSummary {
    pub fn op(&self, op: Op) -> &OpStats {
        &self.stats[op as usize]
    }
}

impl TraceSink {
    pub fn new(full_spans: bool) -> TraceSink {
        TraceSink {
            epoch: Instant::now(),
            full_spans,
            merged: Arc::new(Mutex::new(Merged::default())),
        }
    }

    /// Nanoseconds since the sink was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn keep(&self, key: u64) -> bool {
        self.full_spans || key % SAMPLE_EVERY == 0
    }

    /// Record one call outside any served query (updater, simulator hooks,
    /// generator). `query` tags the span when the hook knows its query.
    pub fn record(&self, op: Op, start_ns: u64, end_ns: u64, query: u64) {
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            l.stat(op).record(end_ns - start_ns);
            l.calls += 1;
            let key = if query == NO_QUERY { l.calls } else { query };
            if self.keep(key) {
                l.push_span(op, start_ns, end_ns, NO_PARENT, query);
            }
        });
    }

    pub fn record_error(&self, op: Op) {
        LOCAL.with(|l| l.borrow_mut().stat(op).errors += 1);
    }

    pub fn add_signals(&self, n: u64) {
        LOCAL.with(|l| l.borrow_mut().signals += n);
    }

    /// A served query enters its admission hook on this thread.
    pub fn open_query(&self, id: u64, start_ns: u64) {
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            if l.last_close_ns != 0 {
                l.stages.between_ns += start_ns.saturating_sub(l.last_close_ns);
            }
            let root = self
                .keep(id)
                .then(|| l.push_span(Op::Service, start_ns, start_ns, NO_PARENT, id));
            l.open = Some(OpenQuery {
                id,
                start_ns,
                root,
                policy_ns: 0,
                backend_ns: 0,
                spin_ns: 0,
                last_read_end_ns: 0,
            });
        });
    }

    /// Record one call made on behalf of the open query (if any): the span
    /// becomes a child of the query's root and its time is added to the
    /// matching stage.
    pub fn record_in_query(&self, op: Op, start_ns: u64, end_ns: u64) {
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            let dur = end_ns - start_ns;
            l.stat(op).record(dur);
            let Some(mut open) = l.open else {
                // Updater thread, or the outcome hook after the query closed.
                l.calls += 1;
                let key = l.calls;
                if self.keep(key) {
                    l.push_span(op, start_ns, end_ns, NO_PARENT, NO_QUERY);
                }
                return;
            };
            match op {
                Op::PolicyArrival => open.policy_ns += dur,
                Op::MemBegin | Op::MemRead | Op::MemCommit => {
                    if op == Op::MemCommit && open.last_read_end_ns != 0 {
                        // The worker spins between its last read and the commit.
                        let spin = start_ns.saturating_sub(open.last_read_end_ns);
                        open.spin_ns += spin;
                        l.stat(Op::Spin).record(spin);
                        if let Some(root) = open.root {
                            l.push_span(Op::Spin, open.last_read_end_ns, start_ns, root, open.id);
                        }
                    }
                    open.backend_ns += dur;
                    if op != Op::MemCommit {
                        open.last_read_end_ns = end_ns;
                    }
                }
                _ => {}
            }
            if let Some(root) = open.root {
                l.push_span(op, start_ns, end_ns, root, open.id);
            }
            l.open = Some(open);
        });
    }

    /// The open query reaches its outcome hook: close the root span and bank
    /// its stage totals.
    pub fn close_query(&self, id: u64, end_ns: u64) {
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            let Some(open) = l.open.take() else { return };
            if open.id != id {
                return;
            }
            let service = end_ns - open.start_ns;
            l.last_close_ns = end_ns;
            l.stat(Op::Service).record(service);
            l.stages.service_ns += service;
            l.stages.policy_ns += open.policy_ns;
            l.stages.backend_ns += open.backend_ns;
            l.stages.spin_ns += open.spin_ns;
            if let Some(root) = open.root {
                l.spans[root as usize].end_ns = end_ns;
            }
        });
    }

    /// Merge the calling thread's buffer into the sink.
    pub fn flush_thread(&self) {
        let local = LOCAL.with(|l| std::mem::take(&mut *l.borrow_mut()));
        let mut m = self.merged.lock().expect("trace sink poisoned");
        for (a, b) in m.stats.iter_mut().zip(&local.stats) {
            a.merge(b);
        }
        m.stages.service_ns += local.stages.service_ns;
        m.stages.policy_ns += local.stages.policy_ns;
        m.stages.backend_ns += local.stages.backend_ns;
        m.stages.spin_ns += local.stages.spin_ns;
        m.stages.between_ns += local.stages.between_ns;
        m.signals += local.signals;
        if !local.spans.is_empty() {
            m.span_buffers.push(local.spans);
        }
    }

    pub fn summary(&self) -> TraceSummary {
        let m = self.merged.lock().expect("trace sink poisoned");
        TraceSummary {
            stats: m.stats.clone(),
            stages: m.stages,
            signals: m.signals,
            spans: m.span_buffers.iter().map(|b| b.len() as u64).sum(),
        }
    }

    /// Write [`TraceSink::write_jsonl`]'s output to `path`, creating its
    /// directory.
    pub fn write_file(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        self.write_jsonl(&mut out, workload)?;
        out.flush()
    }

    /// Write the per-op aggregates and every kept span as JSON lines. Span
    /// ids are positions in the span sequence; `parent` refers to them.
    pub fn write_jsonl(&self, out: &mut impl Write, workload: &str) -> std::io::Result<()> {
        let m = self.merged.lock().expect("trace sink poisoned");
        writeln!(
            out,
            "{{\"kind\":\"header\",\"workload\":\"{workload}\",\"full_spans\":{},\"sample_every\":{SAMPLE_EVERY}}}",
            self.full_spans
        )?;
        for (op, s) in Op::ALL.iter().zip(&m.stats) {
            if s.count == 0 {
                continue;
            }
            let hist: Vec<String> = s.hist.iter().map(u64::to_string).collect();
            writeln!(
                out,
                "{{\"kind\":\"op\",\"name\":\"{}\",\"count\":{},\"sum_ns\":{},\"errors\":{},\"log2_ns_hist\":[{}]}}",
                op.name(),
                s.count,
                s.sum_ns,
                s.errors,
                hist.join(",")
            )?;
        }
        let mut base = 0u64;
        for buf in &m.span_buffers {
            for (i, s) in buf.iter().enumerate() {
                let parent = if s.parent == NO_PARENT {
                    "null".to_string()
                } else {
                    (base + u64::from(s.parent)).to_string()
                };
                let query = if s.query == NO_QUERY {
                    "null".to_string()
                } else {
                    s.query.to_string()
                };
                writeln!(
                    out,
                    "{{\"kind\":\"span\",\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"query_id\":{query}}}",
                    base + i as u64,
                    s.op.name(),
                    s.start_ns,
                    s.end_ns
                )?;
            }
            base += buf.len() as u64;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_telescope_and_spans_nest() {
        let sink = TraceSink::new(true);
        sink.open_query(7, 100);
        sink.record_in_query(Op::PolicyArrival, 100, 130);
        sink.record_in_query(Op::MemBegin, 140, 150);
        sink.record_in_query(Op::MemRead, 155, 165);
        sink.record_in_query(Op::MemCommit, 200, 210);
        sink.close_query(7, 220);
        sink.record(Op::PolicyVersion, 300, 310, NO_QUERY);
        sink.flush_thread();
        let s = sink.summary();
        assert_eq!(s.stages.service_ns, 120);
        assert_eq!(s.stages.policy_ns, 30);
        assert_eq!(s.stages.backend_ns, 30);
        assert_eq!(s.stages.spin_ns, 35);
        assert_eq!(s.op(Op::MemRead).count, 1);
        assert_eq!(s.op(Op::Spin).sum_ns, 35);
        assert_eq!(s.op(Op::Service).sum_ns, 120);
        // root + 4 children + spin + the free-standing version hook
        assert_eq!(s.spans, 7);
        let mut bytes = Vec::new();
        sink.write_jsonl(&mut bytes, "test").unwrap();
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.contains("\"name\":\"server.service\",\"start_ns\":100,\"end_ns\":220,\"parent\":null,\"query_id\":7"));
        assert!(text.contains(
            "\"name\":\"server.spin\",\"start_ns\":165,\"end_ns\":200,\"parent\":0,\"query_id\":7"
        ));
    }

    #[test]
    fn sampling_keeps_one_query_in_256_but_counts_all() {
        let sink = TraceSink::new(false);
        for id in 0..1024u64 {
            sink.open_query(id, id * 10);
            sink.record_in_query(Op::PolicyArrival, id * 10, id * 10 + 3);
            sink.close_query(id, id * 10 + 5);
        }
        sink.flush_thread();
        let s = sink.summary();
        assert_eq!(s.op(Op::Service).count, 1024);
        assert_eq!(s.op(Op::PolicyArrival).sum_ns, 3 * 1024);
        assert_eq!(s.spans, 2 * 4, "4 sampled queries, root + one child each");
    }
}
