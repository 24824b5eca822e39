//! Full-run Chrome-trace export: worker lanes + simulated cluster +
//! serving events, from one [`ExecContext`].
//!
//! The partition-level exporter
//! ([`keystone_dataflow::metrics::chrome_trace_json`]) renders measured
//! `TaskSpan` lanes (`pid 1`) and the `SimClock` ledger (`pid 2`), which
//! already covers the `serve:`/`recovery:`/`speculative:` sim stages the
//! executor and serving layer charge. What it cannot see are the
//! node-level tracer events that live in this crate —
//! [`ServeBatch`](crate::trace::TraceEvent::ServeBatch) waves and
//! [`ServeReject`](crate::trace::TraceEvent::ServeReject) admissions —
//! because `keystone-core` depends on `keystone-dataflow`, not the other
//! way round. This module closes the gap: it lowers those tracer events
//! into [`ChromeExtra`] carriers and hands them to
//! [`chrome_trace_json_with`], which renders them as a third process
//! (`pid 3`, "serving (virtual)") on virtual-time lanes.

use keystone_dataflow::json::JVal;
use keystone_dataflow::metrics::{chrome_trace_json_with, ChromeExtra};

use crate::context::ExecContext;
use crate::trace::TraceEvent;

/// Lowers the context's serving-layer trace events into [`ChromeExtra`]
/// events: one complete event per dispatched wave on lane
/// `serve:batches` (spanning linger + execute from the wave's open to its
/// completion) and one instant per admission reject on lane
/// `serve:rejects`.
pub fn serving_extras(ctx: &ExecContext) -> Vec<ChromeExtra> {
    let mut extras = Vec::new();
    for traced in ctx.tracer.events() {
        match traced.event {
            TraceEvent::ServeBatch {
                batch,
                size,
                dispatch_secs,
                linger_secs,
                execute_secs,
            } => {
                let open_secs = (dispatch_secs - linger_secs).max(0.0);
                extras.push(ChromeExtra {
                    lane: "serve:batches".to_string(),
                    name: format!("batch-{batch}"),
                    start_us: (open_secs * 1e6).max(0.0) as u64,
                    dur_us: ((linger_secs + execute_secs) * 1e6).max(0.0) as u64,
                    args: vec![
                        ("size".to_string(), JVal::UInt(size as u64)),
                        ("linger_secs".to_string(), JVal::Num(linger_secs)),
                        ("execute_secs".to_string(), JVal::Num(execute_secs)),
                    ],
                });
            }
            TraceEvent::ServeReject {
                request,
                at_secs,
                queue_depth,
            } => {
                extras.push(ChromeExtra {
                    lane: "serve:rejects".to_string(),
                    name: format!("reject-{request}"),
                    start_us: (at_secs * 1e6).max(0.0) as u64,
                    dur_us: 0,
                    args: vec![
                        ("request".to_string(), JVal::UInt(request)),
                        ("queue_depth".to_string(), JVal::UInt(queue_depth as u64)),
                    ],
                });
            }
            _ => {}
        }
    }
    extras
}

/// Serializes the context's whole run — measured `TaskSpan` lanes, the
/// simulated-cluster ledger (fit, recovery, speculation, and serving
/// stages), and the serving layer's batch/reject events — as one
/// Perfetto-loadable Chrome trace-event JSON array.
pub fn chrome_trace_json(ctx: &ExecContext) -> String {
    chrome_trace_json_with(&ctx.metrics, &ctx.sim, &serving_extras(ctx))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_events_lower_to_virtual_lanes() {
        let ctx = ExecContext::default_cluster();
        ctx.tracer.record(TraceEvent::ServeBatch {
            batch: 0,
            size: 3,
            dispatch_secs: 0.5,
            linger_secs: 0.2,
            execute_secs: 1.0,
        });
        ctx.tracer.record(TraceEvent::ServeReject {
            request: 7,
            at_secs: 0.25,
            queue_depth: 4,
        });
        let extras = serving_extras(&ctx);
        assert_eq!(extras.len(), 2);
        assert_eq!(extras[0].lane, "serve:batches");
        assert_eq!(extras[0].start_us, 300_000); // open = dispatch - linger
        assert_eq!(extras[0].dur_us, 1_200_000); // linger + execute
        assert_eq!(extras[1].lane, "serve:rejects");
        assert_eq!(extras[1].start_us, 250_000);
        assert_eq!(extras[1].dur_us, 0);

        let json = chrome_trace_json(&ctx);
        assert!(json.contains("serving (virtual)"));
        assert!(json.contains("batch-0"));
        assert!(json.contains("reject-7"));
    }
}
