//! MVCC version machinery: sequence-number key suffixing, the shared
//! version clock, and the live-view pin registry.
//!
//! When a store is opened with a version clock, every write is stamped
//! with a monotonic sequence number by appending `(!seq)` big-endian to
//! the user key (RocksDB-style internal keys, inverted so that versions
//! of one user key sort newest-first). Reads then resolve against a
//! [`ReadView`]: the newest version with `seq <= view` wins, and a
//! tombstone version hides the key. Pinning a view in the
//! [`VersionState`] registry keeps compaction from dropping any version
//! the view can still observe.
//!
//! With no clock configured (the default) none of this exists on the
//! write or read path — keys are stored raw and every counter in
//! [`VersionStats`] stays exactly zero.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Bytes appended to a user key to form a versioned internal key.
pub const SUFFIX_LEN: usize = 8;

/// A consistent point-in-time read bound: versions with `seq <= seq`
/// are visible, anything newer is ignored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ReadView {
    /// Highest visible sequence number.
    pub seq: u64,
}

impl ReadView {
    /// A view that sees every committed version (latest-read).
    pub const LATEST: ReadView = ReadView { seq: u64::MAX };

    /// A view bounded at `seq`.
    pub fn at(seq: u64) -> ReadView {
        ReadView { seq }
    }
}

/// Append the inverted big-endian sequence suffix to `key`.
pub fn suffix_key(key: &mut Vec<u8>, seq: u64) {
    key.extend_from_slice(&(!seq).to_be_bytes());
}

/// Split a versioned internal key into `(user_key, seq)`.
///
/// Returns `None` for keys shorter than the suffix; under the
/// versioned-write discipline every stored key carries a suffix, so
/// `None` only appears on malformed input.
pub fn split_suffixed(key: &[u8]) -> Option<(&[u8], u64)> {
    if key.len() < SUFFIX_LEN {
        return None;
    }
    let (ukey, tail) = key.split_at(key.len() - SUFFIX_LEN);
    let raw: [u8; SUFFIX_LEN] = tail.try_into().ok()?;
    Some((ukey, !u64::from_be_bytes(raw)))
}

/// Monotonic counters describing the versioning machinery's activity.
/// All zero while versioning is disabled (the dormancy contract).
#[derive(Debug, Default)]
pub struct VersionStats {
    /// Read views pinned over the store's lifetime.
    pub views_pinned: AtomicU64,
    /// High-water mark of simultaneously pinned views.
    pub view_pin_peak: AtomicU64,
    /// Versioned reads that skipped at least one version newer than the
    /// read view (the isolation machinery actually mattered).
    pub stale_seq_reads: AtomicU64,
    /// Compactions deferred because a pinned view could still observe a
    /// version the merge would have dropped.
    pub compactions_deferred: AtomicU64,
}

impl VersionStats {
    /// Zero every counter (between experiment runs).
    pub fn reset(&self) {
        self.views_pinned.store(0, Ordering::Relaxed);
        self.view_pin_peak.store(0, Ordering::Relaxed);
        self.stale_seq_reads.store(0, Ordering::Relaxed);
        self.compactions_deferred.store(0, Ordering::Relaxed);
    }
}

/// Plain-value copy of [`VersionStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VersionStatsSnapshot {
    /// See [`VersionStats::views_pinned`].
    pub views_pinned: u64,
    /// See [`VersionStats::view_pin_peak`].
    pub view_pin_peak: u64,
    /// See [`VersionStats::stale_seq_reads`].
    pub stale_seq_reads: u64,
    /// See [`VersionStats::compactions_deferred`].
    pub compactions_deferred: u64,
}

/// Shared versioning state of one store: the (possibly cluster-global)
/// sequence clock, the pinned-view registry, and activity counters.
#[derive(Debug)]
pub struct VersionState {
    clock: Arc<AtomicU64>,
    /// seq → number of pins at that seq.
    pins: Mutex<BTreeMap<u64, u64>>,
    /// Counters (see [`VersionStats`]).
    pub stats: VersionStats,
}

impl VersionState {
    /// Wrap a sequence clock. Sharing one `Arc` across several stores
    /// makes their stamps globally comparable (one logical timeline).
    pub fn new(clock: Arc<AtomicU64>) -> VersionState {
        VersionState {
            clock,
            pins: Mutex::new(BTreeMap::new()),
            stats: VersionStats::default(),
        }
    }

    /// Allocate the next sequence number (strictly positive).
    pub fn alloc_seq(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// The most recently allocated sequence number.
    pub fn current_seq(&self) -> u64 {
        self.clock.load(Ordering::Acquire)
    }

    /// Advance the clock to at least `seq` (replica apply, WAL/segment
    /// recovery) without allocating.
    pub fn observe_seq(&self, seq: u64) {
        self.clock.fetch_max(seq, Ordering::AcqRel);
    }

    /// Pin `seq`: compaction will preserve every version a view at
    /// `seq` could observe until the matching [`Self::unpin`].
    pub fn pin(&self, seq: u64) {
        let mut pins = self.pins.lock();
        *pins.entry(seq).or_insert(0) += 1;
        let live: u64 = pins.values().sum();
        self.stats.views_pinned.fetch_add(1, Ordering::Relaxed);
        self.stats.view_pin_peak.fetch_max(live, Ordering::Relaxed);
    }

    /// Release one pin at `seq`. Unbalanced unpins are ignored.
    pub fn unpin(&self, seq: u64) {
        let mut pins = self.pins.lock();
        if let Some(n) = pins.get_mut(&seq) {
            *n -= 1;
            if *n == 0 {
                pins.remove(&seq);
            }
        }
    }

    /// The oldest pinned view, if any view is pinned.
    pub fn min_pinned(&self) -> Option<u64> {
        self.pins.lock().keys().next().copied()
    }

    /// Plain-value counter snapshot.
    pub fn stats_snapshot(&self) -> VersionStatsSnapshot {
        VersionStatsSnapshot {
            views_pinned: self.stats.views_pinned.load(Ordering::Relaxed),
            view_pin_peak: self.stats.view_pin_peak.load(Ordering::Relaxed),
            stale_seq_reads: self.stats.stale_seq_reads.load(Ordering::Relaxed),
            compactions_deferred: self.stats.compactions_deferred.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suffix_roundtrip_and_ordering() {
        let mut a = b"key".to_vec();
        let mut b = b"key".to_vec();
        suffix_key(&mut a, 5);
        suffix_key(&mut b, 9);
        // Newer version sorts first (inverted suffix).
        assert!(b < a);
        assert_eq!(split_suffixed(&a), Some((b"key".as_slice(), 5)));
        assert_eq!(split_suffixed(&b), Some((b"key".as_slice(), 9)));
        assert_eq!(split_suffixed(b"short"), None);
    }

    #[test]
    fn clock_alloc_and_observe() {
        let vs = VersionState::new(Arc::new(AtomicU64::new(0)));
        assert_eq!(vs.alloc_seq(), 1);
        assert_eq!(vs.alloc_seq(), 2);
        vs.observe_seq(10);
        assert_eq!(vs.current_seq(), 10);
        vs.observe_seq(4); // never moves backwards
        assert_eq!(vs.current_seq(), 10);
        assert_eq!(vs.alloc_seq(), 11);
    }

    #[test]
    fn pins_track_min_and_peak() {
        let vs = VersionState::new(Arc::new(AtomicU64::new(0)));
        assert_eq!(vs.min_pinned(), None);
        vs.pin(7);
        vs.pin(3);
        vs.pin(7);
        assert_eq!(vs.min_pinned(), Some(3));
        vs.unpin(3);
        assert_eq!(vs.min_pinned(), Some(7));
        vs.unpin(7);
        vs.unpin(7);
        assert_eq!(vs.min_pinned(), None);
        let s = vs.stats_snapshot();
        assert_eq!(s.views_pinned, 3);
        assert_eq!(s.view_pin_peak, 3);
        assert_eq!(s.compactions_deferred, 0);
    }
}
