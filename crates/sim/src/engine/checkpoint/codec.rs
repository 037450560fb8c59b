//! The snapshot's value codecs: one `put_*`/`take_*` pair per record the
//! engine writes (query spec, heap event, transaction, outcome, outcome
//! counts). Tags are part of the snapshot format, so a layout change here
//! is a format change for [`super`] as a whole.

use crate::events::Event;
use crate::txn::{Txn, TxnId, TxnKind, TxnState};
use unit_core::checkpoint::{CheckpointError, Dec, Enc};
use unit_core::time::{SimDuration, SimTime};
use unit_core::types::{DataId, Outcome, QueryId, QuerySpec, TxnClass};
use unit_core::usm::OutcomeCounts;

/// Serialize one query spec (full fidelity — the in-flight slab is the
/// only place a caller-fed spec lives, so the snapshot must carry it).
pub(super) fn put_spec(enc: &mut Enc, spec: &QuerySpec) {
    enc.put_u64(spec.id.0);
    enc.put_u64(spec.arrival.0);
    enc.put_usize(spec.items.len());
    for d in &spec.items {
        enc.put_u32(d.0);
    }
    enc.put_u64(spec.exec_time.0);
    enc.put_u64(spec.relative_deadline.0);
    enc.put_f64(spec.freshness_req);
    enc.put_u32(spec.pref_class);
}

pub(super) fn take_spec(dec: &mut Dec<'_>) -> Result<QuerySpec, CheckpointError> {
    let id = QueryId(dec.take_u64()?);
    let arrival = SimTime(dec.take_u64()?);
    let n = dec.take_usize()?;
    let mut items = Vec::with_capacity(n.min(dec.remaining() / 4 + 1));
    for _ in 0..n {
        items.push(DataId(dec.take_u32()?));
    }
    Ok(QuerySpec {
        id,
        arrival,
        items,
        exec_time: SimDuration(dec.take_u64()?),
        relative_deadline: SimDuration(dec.take_u64()?),
        freshness_req: dec.take_f64()?,
        pref_class: dec.take_u32()?,
    })
}

/// Serialize one heap event behind its `(time, seq)` key. Tag 4 (the
/// heap-resident control tick) is retired and must not be reused.
pub(super) fn put_event(enc: &mut Enc, ev: &Event) {
    match ev {
        Event::QueryArrival { spec_idx } => {
            enc.put_u8(0);
            enc.put_usize(*spec_idx);
        }
        Event::VersionArrival { stream_idx } => {
            enc.put_u8(1);
            enc.put_usize(*stream_idx);
        }
        Event::Completion { txn, generation } => {
            enc.put_u8(2);
            enc.put_u64(txn.0);
            enc.put_u64(*generation);
        }
        Event::QueryDeadline { txn } => {
            enc.put_u8(3);
            enc.put_u64(txn.0);
        }
        Event::FaultTransition => enc.put_u8(5),
        Event::DelayedApply {
            item,
            exec,
            edf_deadline,
        } => {
            enc.put_u8(6);
            enc.put_u32(item.0);
            enc.put_u64(exec.0);
            enc.put_u64(edf_deadline.0);
        }
    }
}

pub(super) fn take_event(dec: &mut Dec<'_>) -> Result<Event, CheckpointError> {
    Ok(match dec.take_u8()? {
        0 => Event::QueryArrival {
            spec_idx: dec.take_usize()?,
        },
        1 => Event::VersionArrival {
            stream_idx: dec.take_usize()?,
        },
        2 => Event::Completion {
            txn: TxnId(dec.take_u64()?),
            generation: dec.take_u64()?,
        },
        3 => Event::QueryDeadline {
            txn: TxnId(dec.take_u64()?),
        },
        5 => Event::FaultTransition,
        6 => Event::DelayedApply {
            item: DataId(dec.take_u32()?),
            exec: SimDuration(dec.take_u64()?),
            edf_deadline: SimTime(dec.take_u64()?),
        },
        v => {
            return Err(CheckpointError::BadTag {
                value: v as u64,
                what: "event",
            })
        }
    })
}

pub(super) fn put_txn(enc: &mut Enc, txn: &Txn) {
    enc.put_u64(txn.id.0);
    enc.put_u8(match txn.class {
        TxnClass::Update => 0,
        TxnClass::Query => 1,
    });
    enc.put_u64(txn.edf_deadline.0);
    enc.put_u64(txn.exec_time.0);
    enc.put_u64(txn.remaining.0);
    enc.put_u8(match txn.state {
        TxnState::Ready => 0,
        TxnState::Running => 1,
        TxnState::Blocked => 2,
        TxnState::Finished => 3,
    });
    enc.put_bool(txn.holds_locks);
    enc.put_opt_u64(txn.blocked_on.map(|d| d.0 as u64));
    match &txn.kind {
        TxnKind::Query {
            spec_idx,
            freshness_at_dispatch,
            restarts,
        } => {
            enc.put_u8(0);
            enc.put_usize(*spec_idx);
            enc.put_opt_f64(*freshness_at_dispatch);
            enc.put_u32(*restarts);
        }
        TxnKind::Update { item, on_demand } => {
            enc.put_u8(1);
            enc.put_u32(item.0);
            enc.put_bool(*on_demand);
        }
        TxnKind::Background => enc.put_u8(2),
    }
}

pub(super) fn take_txn(dec: &mut Dec<'_>) -> Result<Txn, CheckpointError> {
    let id = TxnId(dec.take_u64()?);
    let class = match dec.take_u8()? {
        0 => TxnClass::Update,
        1 => TxnClass::Query,
        v => {
            return Err(CheckpointError::BadTag {
                value: v as u64,
                what: "txn class",
            })
        }
    };
    let edf_deadline = SimTime(dec.take_u64()?);
    let exec_time = SimDuration(dec.take_u64()?);
    let remaining = SimDuration(dec.take_u64()?);
    let state = match dec.take_u8()? {
        0 => TxnState::Ready,
        1 => TxnState::Running,
        2 => TxnState::Blocked,
        3 => TxnState::Finished,
        v => {
            return Err(CheckpointError::BadTag {
                value: v as u64,
                what: "txn state",
            })
        }
    };
    let holds_locks = dec.take_bool()?;
    let blocked_on = dec.take_opt_u64()?.map(|v| DataId(v as u32));
    let kind = match dec.take_u8()? {
        0 => TxnKind::Query {
            spec_idx: dec.take_usize()?,
            freshness_at_dispatch: dec.take_opt_f64()?,
            restarts: dec.take_u32()?,
        },
        1 => TxnKind::Update {
            item: DataId(dec.take_u32()?),
            on_demand: dec.take_bool()?,
        },
        2 => TxnKind::Background,
        v => {
            return Err(CheckpointError::BadTag {
                value: v as u64,
                what: "txn kind",
            })
        }
    };
    Ok(Txn {
        id,
        class,
        edf_deadline,
        exec_time,
        remaining,
        state,
        holds_locks,
        blocked_on,
        kind,
    })
}

pub(super) fn put_outcome(enc: &mut Enc, o: Outcome) {
    enc.put_u8(match o {
        Outcome::Success => 0,
        Outcome::Rejected => 1,
        Outcome::DeadlineMiss => 2,
        Outcome::DataStale => 3,
    });
}

pub(super) fn take_outcome(dec: &mut Dec<'_>) -> Result<Outcome, CheckpointError> {
    Ok(match dec.take_u8()? {
        0 => Outcome::Success,
        1 => Outcome::Rejected,
        2 => Outcome::DeadlineMiss,
        3 => Outcome::DataStale,
        v => {
            return Err(CheckpointError::BadTag {
                value: v as u64,
                what: "outcome",
            })
        }
    })
}

pub(super) fn put_counts(enc: &mut Enc, c: &OutcomeCounts) {
    for v in [c.success, c.rejected, c.deadline_miss, c.data_stale] {
        enc.put_u64(v);
    }
}

pub(super) fn take_counts(dec: &mut Dec<'_>) -> Result<OutcomeCounts, CheckpointError> {
    Ok(OutcomeCounts {
        success: dec.take_u64()?,
        rejected: dec.take_u64()?,
        deadline_miss: dec.take_u64()?,
        data_stale: dec.take_u64()?,
    })
}
