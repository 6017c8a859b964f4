//! Run reports: the measurements every experiment aggregates.
//!
//! A [`RunReport`] condenses a simulation outcome ([`bft_sim::runner::RunOutcome`])
//! into the quantities the paper's trade-offs are stated in: committed
//! requests, client-observed latency, message/byte complexity, per-replica
//! load balance, view changes, rollbacks, fast-path rates.

use serde::Serialize;

use bft_sim::{LatencyStats, Observation, ObservationLog, SimDuration, SimTime};

/// Aggregated results of one simulation run.
#[derive(Debug, Clone, Serialize)]
pub struct RunReport {
    /// Protocol under test.
    pub protocol: String,
    /// Replica count.
    pub n: usize,
    /// Fault threshold.
    pub f: usize,
    /// Requests accepted by clients.
    pub completed_requests: usize,
    /// Client-observed latency stats (None when nothing completed).
    pub latency: Option<LatencyStats>,
    /// Requests per virtual second.
    pub throughput_per_sec: f64,
    /// Messages sent by replicas.
    pub replica_msgs: u64,
    /// Bytes sent by replicas.
    pub replica_bytes: u64,
    /// Messages per committed request (message complexity in practice).
    pub msgs_per_commit: f64,
    /// Load imbalance ratio (max/mean per-replica traffic; 1.0 = uniform).
    pub load_imbalance: f64,
    /// Highest view reached (0 = no view change ever triggered).
    pub max_view: u64,
    /// Number of rollbacks observed (speculative protocols).
    pub rollbacks: usize,
    /// Fast-path acceptances at clients.
    pub fast_path_accepts: usize,
    /// Virtual end time of the run.
    pub end_time: SimTime,
}

impl RunReport {
    /// Build a report from a finished run.
    pub fn from_outcome(
        protocol: &str,
        n: usize,
        f: usize,
        outcome: &bft_sim::runner::RunOutcome,
    ) -> RunReport {
        Self::build(
            protocol,
            n,
            f,
            &outcome.log,
            &outcome.metrics,
            outcome.end_time,
        )
    }

    /// Build a report from log + metrics (for in-progress simulations).
    pub fn build(
        protocol: &str,
        n: usize,
        f: usize,
        log: &ObservationLog,
        metrics: &bft_sim::Metrics,
        end_time: SimTime,
    ) -> RunReport {
        let latencies: Vec<SimDuration> =
            log.client_latencies().into_iter().map(|(_, d)| d).collect();
        let completed = latencies.len();
        let fast_path_accepts = log.count(|e| {
            matches!(
                e.obs,
                Observation::ClientAccept {
                    fast_path: true,
                    ..
                }
            )
        });
        let rollbacks = log.count(|e| matches!(e.obs, Observation::Rollback { .. }));
        let replica_msgs = metrics.replica_msgs_sent();
        let secs = end_time.0 as f64 / 1e9;
        RunReport {
            protocol: protocol.to_string(),
            n,
            f,
            completed_requests: completed,
            latency: LatencyStats::from_samples(latencies),
            throughput_per_sec: if secs > 0.0 {
                completed as f64 / secs
            } else {
                0.0
            },
            replica_msgs,
            replica_bytes: metrics.replica_bytes_sent(),
            msgs_per_commit: if completed > 0 {
                replica_msgs as f64 / completed as f64
            } else {
                0.0
            },
            load_imbalance: metrics.load_imbalance(),
            max_view: log.max_view().0,
            rollbacks,
            fast_path_accepts,
            end_time,
        }
    }

    /// Mean latency in virtual milliseconds (0 if none).
    pub fn mean_latency_ms(&self) -> f64 {
        self.latency.map(|l| l.mean.as_millis_f64()).unwrap_or(0.0)
    }

    /// One formatted table row: protocol, n, commits, throughput, mean/p99
    /// latency, msgs/commit, imbalance.
    pub fn table_row(&self) -> String {
        format!(
            "{:<28} {:>3} {:>7} {:>10.1} {:>10.3} {:>10.3} {:>9.1} {:>6.2} {:>5}",
            self.protocol,
            self.n,
            self.completed_requests,
            self.throughput_per_sec,
            self.mean_latency_ms(),
            self.latency.map(|l| l.p99.as_millis_f64()).unwrap_or(0.0),
            self.msgs_per_commit,
            self.load_imbalance,
            self.max_view,
        )
    }

    /// Header matching [`Self::table_row`].
    pub fn table_header() -> String {
        format!(
            "{:<28} {:>3} {:>7} {:>10} {:>10} {:>10} {:>9} {:>6} {:>5}",
            "protocol", "n", "commits", "req/s", "mean-ms", "p99-ms", "msg/req", "imbal", "view"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bft_sim::{Metrics, NodeId};
    use bft_types::{ClientId, RequestId, Transaction, TxnResult};

    #[test]
    fn report_from_log() {
        let mut log = ObservationLog::default();
        let mut metrics = Metrics::default();
        for ts in 1..=10u64 {
            log.push(
                SimTime(ts * 1_000_000),
                NodeId::client(1),
                Observation::ClientAccept {
                    request: RequestId {
                        client: ClientId(1),
                        timestamp: ts,
                    },
                    sent_at: SimTime((ts - 1) * 1_000_000),
                    fast_path: ts % 2 == 0,
                    txn: Box::new(Transaction::default()),
                    result: Box::new(TxnResult { reads: vec![] }),
                },
            );
        }
        for _ in 0..40 {
            metrics.on_send(NodeId::replica(0), 100);
        }
        let report = RunReport::build("Demo", 4, 1, &log, &metrics, SimTime(10_000_000));
        assert_eq!(report.completed_requests, 10);
        assert_eq!(report.fast_path_accepts, 5);
        assert!((report.msgs_per_commit - 4.0).abs() < 1e-9);
        assert!((report.throughput_per_sec - 1000.0).abs() < 1e-6);
        assert!((report.mean_latency_ms() - 1.0).abs() < 1e-9);
        // header and row do not panic and align in field count
        assert_eq!(
            RunReport::table_header().split_whitespace().count(),
            report.table_row().split_whitespace().count()
        );
    }
}
