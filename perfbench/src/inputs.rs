//! Seeded input schedules. Every query source, probe vertex and write the
//! benchmark issues comes from here, so one `--seed` always yields the
//! same operations in the same order. The graphs themselves are fixed
//! (each generator's own default seed): the seed varies what is asked of
//! a graph, not the graph.

/// splitmix64: small, fast and good enough to pick vertices.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream independent of the other streams drawn from `seed`.
    pub fn stream(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// One iteration of a traversal workload's closed loop: the timed
/// multi-step travel, then the point, 2-hop and write probes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TravelRound {
    pub source: u64,
    pub points: Vec<u64>,
    pub hops: Vec<u64>,
    /// Existing vertices the round's new vertices link to.
    pub write_targets: Vec<u64>,
}

/// The traversal workloads' schedule over a graph of `n_vertices`.
/// `probes` counts the point, 2-hop and write probes of each round.
pub fn travel_rounds(
    seed: u64,
    n_vertices: u64,
    probes: [usize; 3],
) -> impl Iterator<Item = TravelRound> {
    let mut rng = Rng::stream(seed, 1);
    std::iter::repeat_with(move || {
        let mut pick = |k: usize| (0..k).map(|_| rng.below(n_vertices)).collect::<Vec<_>>();
        let source = pick(1)[0];
        TravelRound {
            source,
            points: pick(probes[0]),
            hops: pick(probes[1]),
            write_targets: pick(probes[2]),
        }
    })
}

/// A door read of the metadata workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DoorQuery {
    /// `v(exec).rtn()`.
    Point(u64),
    /// `v(file).e('readBy').e('write')`.
    Hop(u64),
}

/// Door reads: point lookups and 2-hop provenance queries at 3:1.
pub fn door_queries(
    seed: u64,
    execs: (u64, u64),
    files: (u64, u64),
) -> impl Iterator<Item = DoorQuery> {
    let mut rng = Rng::stream(seed, 2);
    std::iter::repeat_with(move || {
        if rng.below(4) < 3 {
            DoorQuery::Point(execs.0 + rng.below(execs.1 - execs.0))
        } else {
            DoorQuery::Hop(files.0 + rng.below(files.1 - files.0))
        }
    })
}

/// The open-loop writer's `k`-th write: a new `File` vertex `new_id`
/// written by existing execution `exec`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DoorWrite {
    pub exec: u64,
    pub new_id: u64,
}

pub fn door_writes(
    seed: u64,
    execs: (u64, u64),
    first_new_id: u64,
) -> impl Iterator<Item = DoorWrite> {
    let mut rng = Rng::stream(seed, 3);
    (first_new_id..).map(move |new_id| DoorWrite {
        exec: execs.0 + rng.below(execs.1 - execs.0),
        new_id,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedules() {
        let a: Vec<_> = travel_rounds(7, 256, [30, 10, 90]).take(50).collect();
        let b: Vec<_> = travel_rounds(7, 256, [30, 10, 90]).take(50).collect();
        assert_eq!(a, b);
        let qa: Vec<_> = door_queries(7, (10, 500), (500, 900)).take(500).collect();
        let qb: Vec<_> = door_queries(7, (10, 500), (500, 900)).take(500).collect();
        assert_eq!(qa, qb);
        let wa: Vec<_> = door_writes(7, (10, 500), 1000).take(500).collect();
        let wb: Vec<_> = door_writes(7, (10, 500), 1000).take(500).collect();
        assert_eq!(wa, wb);
    }

    #[test]
    fn different_seeds_differ() {
        let a: Vec<_> = travel_rounds(1, 256, [30, 10, 90]).take(20).collect();
        let b: Vec<_> = travel_rounds(2, 256, [30, 10, 90]).take(20).collect();
        assert_ne!(a, b);
        let qa: Vec<_> = door_queries(1, (10, 500), (500, 900)).take(50).collect();
        let qb: Vec<_> = door_queries(2, (10, 500), (500, 900)).take(50).collect();
        assert_ne!(qa, qb);
    }

    #[test]
    fn schedules_stay_in_range_and_mix_three_to_one() {
        for r in travel_rounds(3, 256, [30, 10, 90]).take(100) {
            assert!(r.source < 256);
            assert!(r
                .points
                .iter()
                .chain(&r.hops)
                .chain(&r.write_targets)
                .all(|&v| v < 256));
        }
        let qs: Vec<_> = door_queries(3, (10, 500), (500, 900)).take(4000).collect();
        let points = qs
            .iter()
            .filter(|q| matches!(q, DoorQuery::Point(_)))
            .count();
        assert!((2800..3200).contains(&points), "points {points} of 4000");
        for q in qs {
            match q {
                DoorQuery::Point(v) => assert!((10..500).contains(&v)),
                DoorQuery::Hop(v) => assert!((500..900).contains(&v)),
            }
        }
        let ws: Vec<_> = door_writes(3, (10, 500), 1000).take(3).collect();
        assert_eq!(
            ws.iter().map(|w| w.new_id).collect::<Vec<_>>(),
            vec![1000, 1001, 1002]
        );
    }
}
