//! Who holds a CPU: the EDF ready queue under the configured discipline,
//! preemption, lock acquisition with 2PL-HP restarts, and the one
//! assign/vacate pair every CPU change goes through. Pinned by
//! `tests/engine_behaviour.rs`.

use super::{RunningTxn, Simulator};
use crate::events::Event;
use crate::locks::{ReadAcquire, WriteAcquire};
use crate::txn::{TxnId, TxnKind, TxnState};
use unit_core::policy::Policy;
use unit_core::time::SimDuration;
use unit_core::types::DataId;

impl<P: Policy> Simulator<'_, P> {
    /// Re-evaluate CPU ownership: fill idle CPUs with the highest-priority
    /// ready transactions, preempting lower-priority incumbents when every
    /// CPU is busy. Loops until no dispatchable candidate outranks the
    /// worst incumbent, so on return the ready queue is empty or every CPU
    /// is busy (the non-idling law `validate_invariants` checks). O(D ·
    /// (n_cpus + log N_rq)) where D is the number of dispatch attempts this
    /// call actually performs (usually 0 or 1).
    pub(super) fn reschedule(&mut self) {
        if self.paused_until().is_some() {
            return; // crash window: nothing dispatches until recovery
        }
        while let Some(&key) = self.state.ready.iter().next() {
            if self.state.running.len() >= self.cfg.n_cpus {
                // All CPUs busy: preempt the lowest-priority incumbent if
                // the best ready candidate outranks it.
                #[expect(
                    clippy::expect_used,
                    reason = "running.len() >= n_cpus >= 1 on this branch"
                )]
                let (pos, worst_key) = self
                    .state
                    .running
                    .iter()
                    .enumerate()
                    .map(|(i, r)| (i, self.pkey(r.id)))
                    .max_by_key(|&(_, k)| k)
                    .expect("running is non-empty");
                if worst_key <= key {
                    return; // incumbents keep their CPUs
                }
                self.preempt_running(pos);
            }
            self.state.ready.remove(&key);
            self.try_dispatch(key.2);
        }
    }

    /// Put `id` on a free CPU under a fresh dispatch generation and
    /// schedule its completion. O(log N_ev).
    fn start_running(&mut self, id: TxnId) {
        let txn = self.state.txns.at_mut(id);
        txn.state = TxnState::Running;
        txn.blocked_on = None;
        let remaining = txn.remaining;
        let generation = self.state.next_generation;
        self.state.next_generation += 1;
        self.state.running.push(RunningTxn {
            id,
            started: self.state.clock,
            generation,
        });
        self.state.events.push(
            self.state.clock + remaining,
            Event::Completion {
                txn: id,
                generation,
            },
        );
    }

    /// Take the transaction at `running[pos]` off its CPU: charge the slice
    /// it ran to the CPU and the utilization window, and deduct it from the
    /// transaction's remaining demand (and, for update-class work, from the
    /// update backlog). The caller sets the new state: ready again
    /// (preemption, 2PL-HP restart) or finished (commit, firm-deadline
    /// abort). Its scheduled completion goes stale through the generation
    /// check. Returns the transaction and the slice. O(1).
    pub(super) fn vacate(&mut self, pos: usize) -> (TxnId, SimDuration) {
        let run = self.state.running.swap_remove(pos);
        let elapsed = self.state.clock.saturating_since(run.started);
        self.state.cpu_busy += elapsed;
        self.state.window_busy += elapsed;
        let txn = self.state.txns.at_mut(run.id);
        txn.remaining = txn.remaining.saturating_sub(elapsed);
        if !txn.is_query() {
            self.state.outstanding_update_work =
                self.state.outstanding_update_work.saturating_sub(elapsed);
        }
        (run.id, elapsed)
    }

    /// Preempt the transaction at `running[pos]` back into the ready queue;
    /// it keeps its locks and its progress. O(log N_rq).
    pub(super) fn preempt_running(&mut self, pos: usize) {
        let (id, _) = self.vacate(pos);
        let txn = self.state.txns.at_mut(id);
        debug_assert_eq!(txn.state, TxnState::Running);
        txn.state = TxnState::Ready;
        let key = self.pkey(id);
        self.state.ready.insert(key);
        self.sync_admitted_remaining(id);
        self.state.preemptions += 1;
    }

    /// Dispatch a candidate just taken off the ready queue: it runs once it
    /// holds its locks (injected background load takes none). Otherwise it
    /// blocked on a lock, or went back to the ready queue behind the
    /// on-demand refreshes it asked for.
    fn try_dispatch(&mut self, id: TxnId) {
        debug_assert!(self.state.running.len() < self.cfg.n_cpus);
        let txn = self.state.txns.at(id);
        let locked = txn.holds_locks
            || match txn.kind {
                TxnKind::Query { spec_idx, .. } => self.lock_query(id, spec_idx),
                TxnKind::Update { item, .. } => self.lock_update(id, item),
                TxnKind::Background => true,
            };
        if locked {
            self.start_running(id);
        }
    }

    /// Take a query's read locks. Before the query touches data the policy
    /// may demand refreshes for its stale items (ODU); those are
    /// update-class, so they run first and the query goes back to the
    /// ready queue. On a grant, the read set's freshness is captured: it
    /// is the freshness the query is judged by (§2.2).
    fn lock_query(&mut self, id: TxnId, spec_idx: usize) -> bool {
        if self.spawn_demand_refreshes(spec_idx) {
            self.state.txns.at_mut(id).state = TxnState::Ready;
            let key = self.pkey(id);
            self.state.ready.insert(key);
            return false;
        }
        let items = &self.state.queries.get(spec_idx).items;
        match self.state.locks.acquire_read(id, items) {
            ReadAcquire::Granted => {
                let f = self.state.freshness.read_set_freshness(items);
                self.policy
                    .on_query_dispatch(self.state.queries.get(spec_idx), f);
                self.state.dispatch_freshness_sum += f;
                self.state.dispatch_freshness_n += 1;
                let txn = self.state.txns.at_mut(id);
                txn.holds_locks = true;
                if let TxnKind::Query {
                    freshness_at_dispatch,
                    ..
                } = &mut txn.kind
                {
                    *freshness_at_dispatch = Some(f);
                }
                true
            }
            ReadAcquire::BlockedOn(d) => self.block_on(id, d),
        }
    }

    /// Take an update's write lock under 2PL-HP: lower-priority holders
    /// are evicted and restart.
    fn lock_update(&mut self, id: TxnId, item: DataId) -> bool {
        let my_key = self.pkey(id);
        let (txns, discipline) = (&self.state.txns, self.cfg.discipline);
        let result = self.state.locks.acquire_write(id, item, |holder: TxnId| {
            my_key < discipline.key(txns.at(holder))
        });
        match result {
            WriteAcquire::Granted { aborted } => {
                self.state.txns.at_mut(id).holds_locks = true;
                for victim in aborted {
                    self.restart_victim(victim);
                }
                true
            }
            WriteAcquire::BlockedOn(d) => self.block_on(id, d),
        }
    }

    /// Park `id` until the holder of item `d` releases it. Returns `false`
    /// (not dispatched) for the lock paths' convenience.
    fn block_on(&mut self, id: TxnId, d: DataId) -> bool {
        let txn = self.state.txns.at_mut(id);
        txn.state = TxnState::Blocked;
        txn.blocked_on = Some(d);
        self.state.blocked.push(id);
        false
    }

    /// A lock holder evicted by 2PL-HP: full restart (§3.1). Its locks were
    /// already released by the lock manager. With multiple CPUs the victim
    /// may be running concurrently — stop it first.
    fn restart_victim(&mut self, victim: TxnId) {
        if let Some(pos) = self.state.running.iter().position(|r| r.id == victim) {
            self.vacate(pos);
        }
        let key = self.pkey(victim);
        self.state.ready.remove(&key);
        let txn = self.state.txns.at_mut(victim);
        debug_assert_ne!(txn.state, TxnState::Finished, "finished txns hold no locks");
        let was_query = txn.is_query();
        let lost_progress = txn.exec_time.saturating_sub(txn.remaining);
        txn.restart();
        self.state.ready.insert(key);
        if was_query {
            self.sync_admitted_remaining(victim);
            self.state.query_restarts += 1;
        } else {
            // An update victim restarts with its full demand again.
            self.state.outstanding_update_work += lost_progress;
        }
    }

    /// Move every transaction blocked on one of the `freed` items back to
    /// the ready queue. O(B + W log N_rq).
    pub(super) fn unblock_waiters(&mut self, freed: &[DataId]) {
        if freed.is_empty() || self.state.blocked.is_empty() {
            return;
        }
        let mut unblocked = Vec::new();
        self.state.blocked.retain(|&b| {
            let txn = self.state.txns.at(b);
            match txn.blocked_on {
                Some(d) if freed.contains(&d) => {
                    unblocked.push(b);
                    false
                }
                _ => true,
            }
        });
        for id in unblocked {
            let txn = self.state.txns.at_mut(id);
            txn.state = TxnState::Ready;
            txn.blocked_on = None;
            let key = self.pkey(id);
            self.state.ready.insert(key);
        }
    }
}
