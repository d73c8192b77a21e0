//! Per-server traversal instrumentation.
//!
//! §VII-A: "we placed instruments inside the GraphTrek engine to collect
//! the statistics during the execution. In each server, we collected three
//! statistics: (1) redundant visits … (2) combined visits … (3) real I/O
//! visits … The sum of these three numbers equals the total vertex
//! requests received in one server during the traversal." These counters
//! regenerate Fig. 7; the queue/messaging counters support the remaining
//! analysis.
//!
//! Every counter is declared once, as a row of the `counters!` table
//! below; the structs and the dormancy groups are generated from it.

use crate::TravelId;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Cap on travels tracked per server; the oldest (smallest id) entries
/// are pruned beyond this, bounding memory across long multi-tenant runs.
const MAX_TRACKED_TRAVELS: usize = 512;

/// The machinery a counter measures. Each dormancy test switches one
/// machinery off and asserts every counter of its group is exactly zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    /// The paper's visit instruments plus queue and messaging counters.
    Traversal,
    /// Reliable delivery, chaos absorption and crash recovery.
    Fault,
    /// Coordinator failover (reported with [`Group::Fault`] too).
    Failover,
    /// Map propagation, write/ledger replication and shard migration.
    Placement,
    /// Failure detection, promotion, re-replication and replica reads.
    SelfHeal,
    /// MVCC view pinning, versioned reads and compaction deferral.
    Snapshot,
}

/// The counter table. Each row (`doc, name: Group`) generates a
/// [`ServerMetrics`] atomic, the same-named [`MetricsSnapshot`] field and
/// its share of `snapshot()`, `reset()` and [`MetricsSnapshot::named`].
/// gt-lint reads rows as counters: one never incremented is a finding.
macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident: $group:ident,)*) => {
        /// Lock-free counters for one backend server.
        #[derive(Debug, Default)]
        pub struct ServerMetrics {
            $($(#[$doc])* pub $name: AtomicU64,)*
            /// Per-travel splits of the visit and queue counters (bounded
            /// to [`MAX_TRACKED_TRAVELS`] entries).
            per_travel: Mutex<BTreeMap<TravelId, TravelMetrics>>,
        }

        /// Point-in-time copy of [`ServerMetrics`].
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct MetricsSnapshot {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl ServerMetrics {
            /// Plain-value snapshot.
            pub fn snapshot(&self) -> MetricsSnapshot {
                MetricsSnapshot {
                    $($name: self.$name.load(Ordering::Relaxed),)*
                }
            }

            /// Zero every counter (between experiment runs).
            pub fn reset(&self) {
                $(self.$name.store(0, Ordering::Relaxed);)*
                self.per_travel.lock().clear();
            }
        }

        impl MetricsSnapshot {
            /// Every counter as `(name, group, value)`, in table order.
            pub fn named(&self) -> Vec<(&'static str, Group, u64)> {
                vec![$((stringify!($name), Group::$group, self.$name),)*]
            }
        }
    };
}

counters! {
    /// Vertex requests whose `(travel, step, vertex)` triple hit the
    /// traversal-affiliate cache and were abandoned.
    redundant_visits: Traversal,
    /// Vertex requests served by merging with a same-vertex request at a
    /// different step (one disk access amortized over several steps).
    combined_visits: Traversal,
    /// Vertex requests that performed a real storage access.
    real_io_visits: Traversal,
    /// Traversal-request messages received.
    requests_received: Traversal,
    /// Traversal-request messages dispatched to downstream servers.
    requests_dispatched: Traversal,
    /// Result vertices sent toward the coordinator / report destination.
    results_sent: Traversal,
    /// High-water mark of the local request queue.
    queue_peak: Traversal,
    /// Straggler delay events injected on this server (Fig. 11 model).
    injected_delays: Traversal,
    /// Relay retransmissions sent (reliable-delivery layer; zero with
    /// chaos off).
    relay_retries: Fault,
    /// Relayed messages received more than once and deduped.
    redeliveries: Fault,
    /// Relayed messages discarded by epoch fencing (stale pre-crash
    /// incarnation of a peer).
    stale_epoch_dropped: Fault,
    /// Scripted crashes this server executed.
    crashes: Fault,
    /// Restart-and-recovery cycles this server completed.
    recoveries: Fault,
    /// Travels whose ledger this server rebuilt from a durable event
    /// stream (coordinator-failover takeovers).
    ledger_replays: Failover,
    /// Durable ledger events applied across all replays.
    ledger_events_replayed: Failover,
    /// Coordinator failovers this server absorbed as the successor.
    failovers: Failover,
    /// Per-travel re-announce reports received while recovering a
    /// ledger (one per live server per failover).
    reannounce_msgs: Failover,
    /// Relayed messages discarded by travel-epoch fencing (stale work
    /// from a pre-failover execution tree).
    stale_travel_epoch_dropped: Failover,
    /// Placement-map installs accepted by this server (epoch-fenced; a
    /// stale map is rejected and not counted).
    placement_updates: Placement,
    /// Graph mutations applied on this server as a replica (shipped from
    /// the partition primary).
    replica_writes: Placement,
    /// Durable travel-ledger blobs this server stored on behalf of a
    /// peer's ledger (coordinator-loss protection at rf >= 2).
    ledger_blobs_replicated: Placement,
    /// Migration snapshot/delta chunks sent by this server as a source.
    migrate_chunks_out: Placement,
    /// Migration snapshot/delta chunks applied by this server as a target.
    migrate_chunks_in: Placement,
    /// Sent-journal compactions performed (bounding per-travel memory).
    journal_compactions: Traversal,
    /// High-water mark of live sent-journal entries across all travels.
    journal_peak_entries: Traversal,
    /// Heartbeat messages this server sent to peers (failure detector).
    heartbeats_sent: SelfHeal,
    /// Heartbeat messages this server received from peers.
    heartbeats_recv: SelfHeal,
    /// Suspicions this server raised (phi crossed the threshold).
    suspicions_raised: SelfHeal,
    /// Suspicions the healer rejected because the peer was in fact alive
    /// (delay-induced false positives; the detector window then resets).
    false_suspicions: SelfHeal,
    /// Automatic promotions executed by the self-healing loop on behalf
    /// of partitions this server now primaries (no client involvement).
    auto_promotions: SelfHeal,
    /// Background re-replication flows this server completed as the new
    /// replica target (restoring `rf` copies after a promotion).
    rereplications: SelfHeal,
    /// Re-replication snapshot/delta chunks sent by this server as the
    /// source primary.
    rereplicate_chunks_out: SelfHeal,
    /// Re-replication snapshot/delta chunks applied by this server as the
    /// new replica target.
    rereplicate_chunks_in: SelfHeal,
    /// Point/frontier reads this server served (or the client routed) to
    /// a non-primary holder (replica-read routing).
    replica_reads: SelfHeal,
    /// Reads parked at a replica until its applied-write watermark caught
    /// up with the client's read barrier (read-your-replication rule).
    read_barrier_stalls: SelfHeal,
    /// Snapshot read views pinned on this server's store (mirrored from
    /// the store's MVCC machinery; one per admitted travel under
    /// snapshot isolation).
    views_pinned: Snapshot,
    /// High-water mark of simultaneously pinned views on this server.
    view_pin_peak: Snapshot,
    /// Versioned reads that skipped at least one version newer than the
    /// travel's read view (the isolation machinery actually mattered).
    stale_seq_reads: Snapshot,
    /// Store compactions deferred because a pinned view could still
    /// observe a version the merge would have dropped.
    compactions_deferred: Snapshot,
}

impl ServerMetrics {
    /// Record a new queue length, keeping the maximum.
    pub fn observe_queue_len(&self, len: usize) {
        self.queue_peak.fetch_max(len as u64, Ordering::Relaxed);
    }

    /// Update one travel's counters, creating (and bounding) the entry.
    pub fn travel_mut(&self, travel: TravelId, f: impl FnOnce(&mut TravelMetrics)) {
        let mut map = self.per_travel.lock();
        f(map.entry(travel).or_default());
        while map.len() > MAX_TRACKED_TRAVELS {
            map.pop_first();
        }
    }

    /// One travel's counters on this server (zeros if never seen).
    pub fn travel_snapshot(&self, travel: TravelId) -> TravelMetrics {
        self.per_travel
            .lock()
            .get(&travel)
            .copied()
            .unwrap_or_default()
    }

    /// Every tracked travel's counters on this server.
    pub fn travel_snapshots(&self) -> Vec<(TravelId, TravelMetrics)> {
        self.per_travel
            .lock()
            .iter()
            .map(|(&t, &m)| (t, m))
            .collect()
    }
}

/// One travel's share of a server's traversal work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TravelMetrics {
    /// Redundant visits attributed to this travel.
    pub redundant_visits: u64,
    /// Combined (merged-step) visits attributed to this travel.
    pub combined_visits: u64,
    /// Real storage accesses attributed to this travel.
    pub real_io_visits: u64,
    /// Total nanoseconds its requests sat in the local queue.
    pub queue_wait_ns: u64,
    /// Requests popped from the queue for this travel.
    pub queue_popped: u64,
}

impl TravelMetrics {
    /// Mean queue residency per popped request, in nanoseconds.
    pub fn mean_queue_wait_ns(&self) -> u64 {
        self.queue_wait_ns
            .checked_div(self.queue_popped)
            .unwrap_or(0)
    }

    /// Element-wise sum (aggregating one travel across servers).
    pub fn merge(&mut self, other: &TravelMetrics) {
        self.redundant_visits += other.redundant_visits;
        self.combined_visits += other.combined_visits;
        self.real_io_visits += other.real_io_visits;
        self.queue_wait_ns += other.queue_wait_ns;
        self.queue_popped += other.queue_popped;
    }
}

impl MetricsSnapshot {
    /// Total vertex requests = redundant + combined + real I/O (§VII-A's
    /// accounting identity).
    pub fn total_vertex_requests(&self) -> u64 {
        self.redundant_visits + self.combined_visits + self.real_io_visits
    }

    /// `(name, value)` of every row tagged with one of `groups`.
    fn select(&self, groups: &[Group]) -> Vec<(&'static str, u64)> {
        self.named()
            .into_iter()
            .filter(|(_, g, _)| groups.contains(g))
            .map(|(name, _, v)| (name, v))
            .collect()
    }

    /// Reliable-delivery, chaos and crash/failover counters (`Fault` and
    /// `Failover` rows): each is exactly zero with chaos off.
    pub fn fault_counters(&self) -> Vec<(&'static str, u64)> {
        self.select(&[Group::Fault, Group::Failover])
    }

    /// The `Failover` rows: zero on a healthy cluster even with reliable
    /// delivery on (retries are legitimate under load; a replay never is).
    pub fn failover_counters(&self) -> Vec<(&'static str, u64)> {
        self.select(&[Group::Failover])
    }

    /// The `Placement` rows: zero on a static rf-1 cluster with no
    /// `rebalance()`, `decommission()` or `promote()`.
    pub fn placement_counters(&self) -> Vec<(&'static str, u64)> {
        self.select(&[Group::Placement])
    }

    /// The `SelfHeal` rows: zero on a static cluster with detection and
    /// replica reads off (the defaults).
    pub fn self_heal_counters(&self) -> Vec<(&'static str, u64)> {
        self.select(&[Group::SelfHeal])
    }

    /// The `Snapshot` rows: zero with snapshot isolation off (the default).
    pub fn snapshot_counters(&self) -> Vec<(&'static str, u64)> {
        self.select(&[Group::Snapshot])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_identity() {
        let m = ServerMetrics::default();
        m.redundant_visits.fetch_add(3, Ordering::Relaxed);
        m.combined_visits.fetch_add(2, Ordering::Relaxed);
        m.real_io_visits.fetch_add(5, Ordering::Relaxed);
        let s = m.snapshot();
        assert_eq!(s.total_vertex_requests(), 10);
    }

    #[test]
    fn queue_peak_keeps_max() {
        let m = ServerMetrics::default();
        m.observe_queue_len(5);
        m.observe_queue_len(2);
        m.observe_queue_len(9);
        m.observe_queue_len(1);
        assert_eq!(m.snapshot().queue_peak, 9);
    }

    #[test]
    fn reset_zeroes_everything() {
        let m = ServerMetrics::default();
        m.real_io_visits.fetch_add(5, Ordering::Relaxed);
        m.observe_queue_len(7);
        m.travel_mut(3, |t| t.real_io_visits += 5);
        m.relay_retries.fetch_add(2, Ordering::Relaxed);
        m.redeliveries.fetch_add(3, Ordering::Relaxed);
        m.stale_epoch_dropped.fetch_add(1, Ordering::Relaxed);
        m.crashes.fetch_add(1, Ordering::Relaxed);
        m.recoveries.fetch_add(1, Ordering::Relaxed);
        m.ledger_replays.fetch_add(1, Ordering::Relaxed);
        m.ledger_events_replayed.fetch_add(9, Ordering::Relaxed);
        m.failovers.fetch_add(1, Ordering::Relaxed);
        m.reannounce_msgs.fetch_add(3, Ordering::Relaxed);
        m.stale_travel_epoch_dropped.fetch_add(4, Ordering::Relaxed);
        assert_eq!(m.snapshot().relay_retries, 2);
        assert_eq!(m.snapshot().redeliveries, 3);
        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
        assert_eq!(m.travel_snapshot(3), TravelMetrics::default());
    }

    #[test]
    fn per_travel_counters_are_isolated_and_merged() {
        let m = ServerMetrics::default();
        m.travel_mut(1, |t| {
            t.real_io_visits += 2;
            t.queue_wait_ns += 1000;
            t.queue_popped += 2;
        });
        m.travel_mut(2, |t| t.redundant_visits += 7);
        assert_eq!(m.travel_snapshot(1).real_io_visits, 2);
        assert_eq!(m.travel_snapshot(1).mean_queue_wait_ns(), 500);
        assert_eq!(m.travel_snapshot(2).redundant_visits, 7);
        assert_eq!(m.travel_snapshot(2).real_io_visits, 0);
        let mut agg = m.travel_snapshot(1);
        agg.merge(&m.travel_snapshot(2));
        assert_eq!(agg.real_io_visits, 2);
        assert_eq!(agg.redundant_visits, 7);
        assert_eq!(m.travel_snapshots().len(), 2);
    }

    /// Pins each dormancy group's membership: a table edit cannot drop a
    /// counter from a group and so make its zero-assertion vacuous.
    #[test]
    fn dormancy_groups_are_pinned() {
        let s = MetricsSnapshot::default();
        let names = |v: Vec<(&'static str, u64)>| -> Vec<&'static str> {
            v.into_iter().map(|(n, _)| n).collect()
        };
        let failover = [
            "ledger_replays",
            "ledger_events_replayed",
            "failovers",
            "reannounce_msgs",
            "stale_travel_epoch_dropped",
        ];
        let mut fault = vec![
            "relay_retries",
            "redeliveries",
            "stale_epoch_dropped",
            "crashes",
            "recoveries",
        ];
        fault.extend(failover);
        assert_eq!(names(s.fault_counters()), fault);
        assert_eq!(names(s.failover_counters()), failover);
        assert_eq!(
            names(s.placement_counters()),
            [
                "placement_updates",
                "replica_writes",
                "ledger_blobs_replicated",
                "migrate_chunks_out",
                "migrate_chunks_in",
            ]
        );
        assert_eq!(
            names(s.self_heal_counters()),
            [
                "heartbeats_sent",
                "heartbeats_recv",
                "suspicions_raised",
                "false_suspicions",
                "auto_promotions",
                "rereplications",
                "rereplicate_chunks_out",
                "rereplicate_chunks_in",
                "replica_reads",
                "read_barrier_stalls",
            ]
        );
        assert_eq!(
            names(s.snapshot_counters()),
            [
                "views_pinned",
                "view_pin_peak",
                "stale_seq_reads",
                "compactions_deferred",
            ]
        );
        let named = s.named();
        let unique: std::collections::BTreeSet<&str> = named.iter().map(|(n, _, _)| *n).collect();
        assert_eq!(named.len(), 39);
        assert_eq!(unique.len(), 39);
    }

    #[test]
    fn named_reads_the_snapshot_fields() {
        let m = ServerMetrics::default();
        m.crashes.fetch_add(2, Ordering::Relaxed);
        m.observe_queue_len(4);
        let s = m.snapshot();
        let value = |name| s.named().into_iter().find(|(n, _, _)| *n == name);
        assert_eq!(value("crashes"), Some(("crashes", Group::Fault, 2)));
        assert_eq!(
            value("queue_peak"),
            Some(("queue_peak", Group::Traversal, 4))
        );
        assert_eq!(s.fault_counters().iter().map(|(_, v)| v).sum::<u64>(), 2);
    }

    #[test]
    fn per_travel_map_is_bounded() {
        let m = ServerMetrics::default();
        for t in 0..2 * MAX_TRACKED_TRAVELS as u64 {
            m.travel_mut(t, |tm| tm.queue_popped += 1);
        }
        let snaps = m.travel_snapshots();
        assert_eq!(snaps.len(), MAX_TRACKED_TRAVELS);
        // The newest travels survive; the oldest were pruned.
        assert_eq!(snaps[0].0, MAX_TRACKED_TRAVELS as u64);
    }
}
