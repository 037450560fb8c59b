//! JSONL trace exporter.
//!
//! Hand-rendered with deterministic formatting: times and periods are raw
//! virtual-time ticks (integers), floats use Rust's shortest-roundtrip
//! `Display`, and event order is preserved — the same event stream always
//! produces byte-identical output (the golden tests pin this). One object
//! per line, nested for `Shard`-wrapped events.
//!
//! The bench harness writes it via `--trace-out`.

use crate::event::{outcome_name, ObsEvent};
use std::io;
use std::path::Path;
use unit_core::admission::AdmissionVerdict;
use unit_core::time::SimTime;

/// A float as a JSON value: shortest-roundtrip for finite values, `null`
/// for the non-finite ones JSON cannot carry. O(1).
fn jf(x: f64) -> String {
    if x.is_finite() {
        let mut s = format!("{x}");
        if !s.contains('.') && !s.contains('e') {
            // Keep a float-typed column float-looking ("1.0", not "1").
            s.push_str(".0");
        }
        s
    } else {
        "null".to_string()
    }
}

/// An optional instant as a JSON value. O(1).
fn jt(t: Option<SimTime>) -> String {
    match t {
        Some(t) => t.0.to_string(),
        None => "null".to_string(),
    }
}

fn verdict_json(v: &AdmissionVerdict) -> String {
    match v {
        AdmissionVerdict::Admitted => r#"{"type":"admitted"}"#.to_string(),
        AdmissionVerdict::NotPromising {
            projected_secs,
            deadline_secs,
        } => format!(
            r#"{{"type":"not_promising","projected_secs":{},"deadline_secs":{}}}"#,
            jf(*projected_secs),
            jf(*deadline_secs)
        ),
        AdmissionVerdict::EndangersSystem {
            endangered_cost,
            rejection_cost,
        } => format!(
            r#"{{"type":"endangers_system","endangered_cost":{},"rejection_cost":{}}}"#,
            jf(*endangered_cost),
            jf(*rejection_cost)
        ),
    }
}

/// One event as a single-line JSON object. O(size of the event).
pub fn event_to_json(ev: &ObsEvent) -> String {
    match ev {
        ObsEvent::Admission {
            time,
            query,
            decision,
            verdict,
            c_flex,
        } => {
            let decision = if decision.is_admit() {
                "admit"
            } else {
                "reject"
            };
            let verdict = verdict
                .as_ref()
                .map_or_else(|| "null".to_string(), verdict_json);
            let c_flex = c_flex.map_or_else(|| "null".to_string(), jf);
            format!(
                r#"{{"kind":"admission","t":{},"query":{},"decision":"{decision}","verdict":{verdict},"c_flex":{c_flex}}}"#,
                time.0, query.0
            )
        }
        ObsEvent::QueryOutcome {
            time,
            query,
            outcome,
        } => format!(
            r#"{{"kind":"outcome","t":{},"query":{},"outcome":"{}"}}"#,
            time.0,
            query.0,
            outcome_name(*outcome)
        ),
        ObsEvent::ControlTick {
            time,
            ready_queries,
            query_backlog_secs,
            update_backlog_secs,
            utilization,
            usm,
        } => format!(
            r#"{{"kind":"control_tick","t":{},"ready_queries":{ready_queries},"query_backlog_secs":{},"update_backlog_secs":{},"utilization":{},"usm":{}}}"#,
            time.0,
            jf(*query_backlog_secs),
            jf(*update_backlog_secs),
            jf(*utilization),
            jf(*usm)
        ),
        ObsEvent::ControlStep {
            time,
            c_flex,
            tac,
            lac,
            degrade,
            upgrade,
            degraded_items,
            ticket_sum,
        } => format!(
            r#"{{"kind":"control_step","t":{},"c_flex":{},"tac":{tac},"lac":{lac},"degrade":{degrade},"upgrade":{upgrade},"degraded_items":{degraded_items},"ticket_sum":{}}}"#,
            time.0,
            jf(*c_flex),
            jf(*ticket_sum)
        ),
        ObsEvent::TicketMass {
            time,
            item,
            ticket,
            old_period,
            new_period,
        } => format!(
            r#"{{"kind":"ticket_mass","t":{},"item":{},"ticket":{},"old_period":{},"new_period":{}}}"#,
            time.0,
            item.0,
            jf(*ticket),
            old_period.0,
            new_period.0
        ),
        ObsEvent::FaultWindow { time, phase, until } => format!(
            r#"{{"kind":"fault_window","t":{},"phase":"{}","until":{}}}"#,
            time.0,
            phase.name(),
            jt(*until)
        ),
        ObsEvent::ShardHealth {
            time,
            shard,
            phase,
            until,
        } => format!(
            r#"{{"kind":"shard_health","t":{},"shard":{shard},"phase":"{}","until":{}}}"#,
            time.0,
            phase.name(),
            jt(*until)
        ),
        ObsEvent::DispatcherRoute {
            time,
            query,
            shard,
            retries,
        } => format!(
            r#"{{"kind":"route","t":{},"query":{},"shard":{shard},"retries":{retries}}}"#,
            time.0, query.0
        ),
        ObsEvent::DispatcherReject {
            time,
            query,
            retries,
        } => format!(
            r#"{{"kind":"dispatcher_reject","t":{},"query":{},"retries":{retries}}}"#,
            time.0, query.0
        ),
        ObsEvent::ReplicaPropagate {
            time,
            item,
            leader,
            follower,
            version,
            emitted,
        } => format!(
            r#"{{"kind":"replica_propagate","t":{},"item":{},"leader":{leader},"follower":{follower},"version":{version},"emitted":{}}}"#,
            time.0, item.0, emitted.0
        ),
        ObsEvent::ReplicaRoute {
            time,
            query,
            shard,
            follower_items,
            claimed_transit,
        } => format!(
            r#"{{"kind":"replica_route","t":{},"query":{},"shard":{shard},"follower_items":{follower_items},"claimed_transit":{claimed_transit}}}"#,
            time.0, query.0
        ),
        ObsEvent::ReplicaPromote {
            time,
            item,
            from,
            to,
        } => format!(
            r#"{{"kind":"replica_promote","t":{},"item":{},"from":{from},"to":{to}}}"#,
            time.0, item.0
        ),
        ObsEvent::CheckpointTaken { time } => {
            format!(r#"{{"kind":"checkpoint_taken","t":{}}}"#, time.0)
        }
        ObsEvent::RestoreBegin { time, checkpoint } => format!(
            r#"{{"kind":"restore_begin","t":{},"checkpoint":{}}}"#,
            time.0, checkpoint.0
        ),
        ObsEvent::ReplayComplete { time, checkpoint } => format!(
            r#"{{"kind":"replay_complete","t":{},"checkpoint":{}}}"#,
            time.0, checkpoint.0
        ),
        ObsEvent::Shard { shard, seq, event } => format!(
            r#"{{"kind":"shard","shard":{shard},"seq":{seq},"event":{}}}"#,
            event_to_json(event)
        ),
    }
}

/// Render an event stream as JSONL (one JSON object per line, trailing
/// newline). O(total event size).
pub fn to_jsonl(events: &[ObsEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&event_to_json(ev));
        out.push('\n');
    }
    out
}

/// Write the stream as JSONL at `path`, creating parent directories
/// (conventionally under `results/`).
///
/// # Errors
/// Propagates filesystem errors.
pub fn write_jsonl(path: impl AsRef<Path>, events: &[ObsEvent]) -> io::Result<()> {
    write_text(path.as_ref(), &to_jsonl(events))
}

fn write_text(path: &Path, contents: &str) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    std::fs::write(path, contents)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::FaultPhase;
    use unit_core::policy::AdmissionDecision;
    use unit_core::time::SimDuration;
    use unit_core::types::{DataId, Outcome, QueryId};

    fn sample_events() -> Vec<ObsEvent> {
        vec![
            ObsEvent::Admission {
                time: SimTime::from_secs(1),
                query: QueryId(10),
                decision: AdmissionDecision::Reject,
                verdict: Some(AdmissionVerdict::NotPromising {
                    projected_secs: 12.5,
                    deadline_secs: 8.0,
                }),
                c_flex: Some(1.1),
            },
            ObsEvent::ControlTick {
                time: SimTime::from_secs(2),
                ready_queries: 3,
                query_backlog_secs: 4.5,
                update_backlog_secs: 0.25,
                utilization: 0.75,
                usm: 0.5,
            },
            ObsEvent::TicketMass {
                time: SimTime::from_secs(2),
                item: DataId(7),
                ticket: 2.5,
                old_period: SimDuration::from_secs(10),
                new_period: SimDuration::from_secs(11),
            },
            ObsEvent::Shard {
                shard: 1,
                seq: 4,
                event: Box::new(ObsEvent::QueryOutcome {
                    time: SimTime::from_secs(3),
                    query: QueryId(10),
                    outcome: Outcome::DeadlineMiss,
                }),
            },
            ObsEvent::ShardHealth {
                time: SimTime::from_secs(4),
                shard: 0,
                phase: FaultPhase::Down,
                until: Some(SimTime::from_secs(9)),
            },
        ]
    }

    #[test]
    fn jsonl_golden() {
        let expected = concat!(
            r#"{"kind":"admission","t":1000000,"query":10,"decision":"reject","verdict":{"type":"not_promising","projected_secs":12.5,"deadline_secs":8.0},"c_flex":1.1}"#,
            "\n",
            r#"{"kind":"control_tick","t":2000000,"ready_queries":3,"query_backlog_secs":4.5,"update_backlog_secs":0.25,"utilization":0.75,"usm":0.5}"#,
            "\n",
            r#"{"kind":"ticket_mass","t":2000000,"item":7,"ticket":2.5,"old_period":10000000,"new_period":11000000}"#,
            "\n",
            r#"{"kind":"shard","shard":1,"seq":4,"event":{"kind":"outcome","t":3000000,"query":10,"outcome":"deadline_miss"}}"#,
            "\n",
            r#"{"kind":"shard_health","t":4000000,"shard":0,"phase":"down","until":9000000}"#,
            "\n",
        );
        assert_eq!(to_jsonl(&sample_events()), expected);
    }

    fn replication_events() -> Vec<ObsEvent> {
        vec![
            ObsEvent::ReplicaRoute {
                time: SimTime::from_secs(5),
                query: QueryId(2),
                shard: 3,
                follower_items: 2,
                claimed_transit: 4,
            },
            ObsEvent::ReplicaPromote {
                time: SimTime::from_secs(5),
                item: DataId(1),
                from: 0,
                to: 2,
            },
            ObsEvent::Shard {
                shard: 6,
                seq: 0,
                event: Box::new(ObsEvent::ReplicaPropagate {
                    time: SimTime::from_secs(6),
                    item: DataId(1),
                    leader: 0,
                    follower: 2,
                    version: 3,
                    emitted: SimTime::from_secs(4),
                }),
            },
        ]
    }

    #[test]
    fn replication_jsonl_golden() {
        let expected = concat!(
            r#"{"kind":"replica_route","t":5000000,"query":2,"shard":3,"follower_items":2,"claimed_transit":4}"#,
            "\n",
            r#"{"kind":"replica_promote","t":5000000,"item":1,"from":0,"to":2}"#,
            "\n",
            r#"{"kind":"shard","shard":6,"seq":0,"event":{"kind":"replica_propagate","t":6000000,"item":1,"leader":0,"follower":2,"version":3,"emitted":4000000}}"#,
            "\n",
        );
        assert_eq!(to_jsonl(&replication_events()), expected);
    }

    #[test]
    fn recovery_jsonl_golden() {
        let events = [
            ObsEvent::CheckpointTaken {
                time: SimTime::from_secs(10),
            },
            ObsEvent::RestoreBegin {
                time: SimTime::from_secs(13),
                checkpoint: SimTime::from_secs(10),
            },
            ObsEvent::ReplayComplete {
                time: SimTime::from_secs(13),
                checkpoint: SimTime::from_secs(10),
            },
        ];
        let expected = concat!(
            r#"{"kind":"checkpoint_taken","t":10000000}"#,
            "\n",
            r#"{"kind":"restore_begin","t":13000000,"checkpoint":10000000}"#,
            "\n",
            r#"{"kind":"replay_complete","t":13000000,"checkpoint":10000000}"#,
            "\n",
        );
        assert_eq!(to_jsonl(&events), expected);
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(jf(f64::NAN), "null");
        assert_eq!(jf(f64::INFINITY), "null");
        assert_eq!(jf(1.0), "1.0");
        assert_eq!(jf(0.125), "0.125");
    }

    #[test]
    fn files_land_under_the_requested_directory() {
        let dir = std::env::temp_dir().join("unit_obs_export_test");
        let path = dir.join("nested").join("trace.jsonl");
        write_jsonl(&path, &sample_events()).unwrap();
        let read = std::fs::read_to_string(&path).unwrap();
        assert_eq!(read, to_jsonl(&sample_events()));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
