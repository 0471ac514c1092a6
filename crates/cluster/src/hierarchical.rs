//! Centroid-linkage agglomerative clustering with a distance threshold.
//!
//! This is the clustering method DLInfMA adopts for candidate-pool
//! construction: start with every stay point as its own cluster and
//! repeatedly merge the two clusters whose centroids are closest, until no
//! two centroids are within the distance threshold `D`. The centroid of each
//! final cluster becomes a location candidate.
//!
//! **Merge order.** Only pairs whose centroids pass the grid's
//! `distance_sq ≤ D²` test and then `dist < D` are candidates. Every step
//! merges the candidate pair with the smallest key
//! `(dist, survivor, absorbed)`, and the absorbed cluster's members are
//! appended to the survivor's. The survivor of a pair is whichever cluster
//! absorbed another more recently; when neither has merged yet, it is the
//! lower index. This total order fixes the merge sequence, survivor ids,
//! member order and centroid bits for any input and any worker count.
//!
//! **Algorithm.** The loop is Müllner's "generic" algorithm (*Modern
//! hierarchical, agglomerative clustering algorithms*, arXiv:1109.2378),
//! which stays exact for non-reducible linkages such as centroid. Each live
//! cluster caches its nearest neighbour: the smallest key over its pairs,
//! the partner, and the partner's last merge step. A priority queue holds
//! one current entry per cluster. A grid holds the live centroids only.
//! After merging `b` into `a`, one radius-`D` scan around `a`'s new centroid
//! sets `a`'s nearest neighbour and lowers the cached key of every neighbour
//! that `a` now beats. A cache whose partner was absorbed or has moved since
//! is only a lower bound; it is recomputed by a radius-`D` scan when it
//! reaches the head of the queue. A merge therefore costs a scan of its own
//! neighbourhood plus one scan per cluster whose cached neighbour it
//! invalidated, instead of re-pushing every pair within `D`.

use dlinfma_geo::{GridIndex, Point};
use dlinfma_obs::{self as obs, names};
use dlinfma_pool::Pool;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Below this many input points the parallel nearest-neighbour scan costs
/// more than it saves; [`merge_weighted_pooled`] falls back to the serial
/// scan.
const PARALLEL_PAIR_SCAN_MIN: usize = 512;

/// Queue pops between `cluster/heap-size` trace counter samples inside the
/// merge loop — frequent enough to see the queue drain, cheap enough not to
/// perturb it.
const HEAP_SAMPLE_EVERY: u64 = 1024;

/// Where one merge call spent its time, split between the parallel initial
/// nearest-neighbour scan and the sequential merge loop. `scan_cpu_ns` is
/// summed per-chunk worker time (equals `scan_wall_ns` modulo scheduling
/// overhead when serial); the engine aggregates these into the clustering
/// stage's CPU column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MergeStats {
    /// Wall-clock time of the initial nearest-neighbour scan, ns.
    pub scan_wall_ns: u64,
    /// Summed per-chunk CPU time of the scan, ns.
    pub scan_cpu_ns: u64,
    /// Wall-clock time of the merge loop, ns.
    pub merge_ns: u64,
    /// Merges performed.
    pub merges: u64,
    /// Queue entries popped without a merge: superseded by a newer entry of
    /// the same cluster, or holding a nearest neighbour that was absorbed or
    /// moved since it was cached and so had to be recomputed.
    pub stale: u64,
}

impl MergeStats {
    /// Folds another call's stats into this one (the engine sums the
    /// per-dirty-component merges of one ingest).
    pub fn accumulate(&mut self, other: &MergeStats) {
        self.scan_wall_ns += other.scan_wall_ns;
        self.scan_cpu_ns += other.scan_cpu_ns;
        self.merge_ns += other.merge_ns;
        self.merges += other.merges;
        self.stale += other.stale;
    }

    /// Total CPU attributed to the call: scan worker time plus the serial
    /// merge loop.
    pub fn cpu_ns(&self) -> u64 {
        self.scan_cpu_ns + self.merge_ns
    }
}

/// A point with a multiplicity, used for incremental pool merging where an
/// existing candidate summarizes many stay points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightedPoint {
    /// Centroid of the mass this entry represents.
    pub pos: Point,
    /// Number of original stay points it summarizes (≥ 1).
    pub weight: usize,
}

impl WeightedPoint {
    /// A unit-weight point.
    pub fn unit(pos: Point) -> Self {
        Self { pos, weight: 1 }
    }
}

/// A cluster produced by [`hierarchical_cluster`] / [`merge_weighted`].
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    /// Weighted centroid of all member mass.
    pub centroid: Point,
    /// Indices into the input slice of the members merged into this cluster.
    pub members: Vec<usize>,
    /// Total weight (number of original stay points).
    pub weight: usize,
}

/// The merge key of one candidate pair; smaller merges first.
#[derive(Debug, Clone, Copy)]
struct Link {
    dist: f64,
    survivor: usize,
    absorbed: usize,
}

impl Link {
    fn order(&self, other: &Link) -> Ordering {
        self.dist
            .total_cmp(&other.dist)
            .then_with(|| self.survivor.cmp(&other.survivor))
            .then_with(|| self.absorbed.cmp(&other.absorbed))
    }

    /// Keeps the smaller of `best` and `self` in `best`.
    fn keep_min(self, best: &mut Option<Link>) {
        if best.is_none_or(|b| self.order(&b).is_lt()) {
            *best = Some(self);
        }
    }
}

/// A cluster's cached nearest neighbour. Exact while neither the owner nor
/// `partner` has merged since it was computed; otherwise a lower bound.
#[derive(Debug, Clone, Copy)]
struct Nearest {
    link: Link,
    partner: usize,
    /// `partner`'s `merged_at` when `link` was computed.
    partner_merged_at: u64,
}

impl Nearest {
    /// `owner`'s view of `link`, stamped with the partner's current merge
    /// step.
    fn new(link: Link, owner: usize, active: &[Active]) -> Self {
        let partner = if link.survivor == owner {
            link.absorbed
        } else {
            link.survivor
        };
        Nearest {
            link,
            partner,
            partner_merged_at: active[partner].merged_at,
        }
    }
}

#[derive(Debug)]
struct Active {
    centroid: Point,
    weight: usize,
    members: Vec<usize>,
    /// Merge step (from 1) at which this cluster last absorbed another;
    /// 0 while it never has.
    merged_at: u64,
    alive: bool,
    nearest: Option<Nearest>,
    /// Bumped with every change of `nearest`; queue entries carrying an
    /// older version are superseded.
    version: u64,
}

/// Queue entry: `owner`'s cached nearest-neighbour key as of `version`.
/// Ordered so that `BinaryHeap` (a max-heap) pops the smallest key first.
#[derive(Debug)]
struct Queued {
    link: Link,
    owner: usize,
    version: u64,
}

impl Ord for Queued {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .link
            .order(&self.link)
            .then_with(|| other.owner.cmp(&self.owner))
            .then_with(|| other.version.cmp(&self.version))
    }
}

impl PartialOrd for Queued {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Queued {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Queued {}

/// Calls `f` with the link to every live cluster whose centroid lies within
/// `d` of `id`'s: the grid's `distance_sq ≤ d²`, then `dist < d`.
fn for_each_link(
    id: usize,
    active: &[Active],
    grid: &GridIndex<usize>,
    d: f64,
    mut f: impl FnMut(Link),
) {
    let me = &active[id];
    grid.for_each_within(&me.centroid, d, |_, &other| {
        if other == id {
            return;
        }
        let o = &active[other];
        let me_survives = me.merged_at > o.merged_at || (me.merged_at == o.merged_at && id < other);
        let (survivor, absorbed) = if me_survives {
            (id, other)
        } else {
            (other, id)
        };
        let dist = active[survivor]
            .centroid
            .distance(&active[absorbed].centroid);
        if dist < d {
            f(Link {
                dist,
                survivor,
                absorbed,
            });
        }
    });
}

/// `id`'s nearest neighbour among the live clusters, by a radius-`d` scan.
fn nearest_of(id: usize, active: &[Active], grid: &GridIndex<usize>, d: f64) -> Option<Nearest> {
    let mut best: Option<Link> = None;
    for_each_link(id, active, grid, d, |l| l.keep_min(&mut best));
    best.map(|link| Nearest::new(link, id, active))
}

/// Replaces `id`'s cached nearest neighbour and queues it under a new
/// version, superseding the cluster's earlier queue entries.
fn set_nearest(
    active: &mut [Active],
    queue: &mut BinaryHeap<Queued>,
    id: usize,
    nearest: Option<Nearest>,
) {
    let c = &mut active[id];
    c.nearest = nearest;
    c.version += 1;
    if let Some(n) = nearest {
        queue.push(Queued {
            link: n.link,
            owner: id,
            version: c.version,
        });
    }
}

/// Clusters unit-weight points; see [`merge_weighted`] for the general form.
///
/// Returns clusters whose member lists index into `points`. The union of all
/// member lists is exactly `0..points.len()`.
pub fn hierarchical_cluster(points: &[Point], distance_threshold: f64) -> Vec<Cluster> {
    let weighted: Vec<WeightedPoint> = points.iter().map(|&p| WeightedPoint::unit(p)).collect();
    merge_weighted(&weighted, distance_threshold)
}

/// Clusters weighted points with centroid linkage until no two cluster
/// centroids are closer than `distance_threshold`.
///
/// This single entry point serves both the initial pool construction (all
/// weights 1) and the paper's bi-weekly incremental update: pass the existing
/// candidates (with their accumulated stay-point counts as weights) together
/// with the new batch's points, and the same merge process combines them.
///
/// # Panics
/// Panics if `distance_threshold` is not finite and positive, or any weight
/// is zero.
pub fn merge_weighted(items: &[WeightedPoint], distance_threshold: f64) -> Vec<Cluster> {
    merge_weighted_impl(items, distance_threshold, None).0
}

/// [`merge_weighted`] with the initial nearest-neighbour scan fanned out
/// over `pool` — every point queries the grid for its radius-`D`
/// neighbours, which dominates large, sparse inputs. The merge loop itself
/// stays sequential (each merge changes the neighbours of the next). Each
/// point's nearest neighbour is a minimum under a total order, so which
/// worker computed it cannot change it, and the pooled and serial runs
/// produce bitwise-identical clusters.
pub fn merge_weighted_pooled(
    items: &[WeightedPoint],
    distance_threshold: f64,
    pool: &Pool,
) -> Vec<Cluster> {
    merge_weighted_impl(items, distance_threshold, Some(pool)).0
}

/// [`merge_weighted_pooled`] returning the call's [`MergeStats`] alongside
/// the clusters, for callers that attribute clustering wall/CPU time (the
/// incremental engine, the bench harness).
pub fn merge_weighted_pooled_stats(
    items: &[WeightedPoint],
    distance_threshold: f64,
    pool: &Pool,
) -> (Vec<Cluster>, MergeStats) {
    merge_weighted_impl(items, distance_threshold, Some(pool))
}

fn merge_weighted_impl(
    items: &[WeightedPoint],
    distance_threshold: f64,
    pool: Option<&Pool>,
) -> (Vec<Cluster>, MergeStats) {
    let _span = obs::span(names::CLUSTER_MERGE_WEIGHTED);
    assert!(
        distance_threshold.is_finite() && distance_threshold > 0.0,
        "distance threshold must be positive, got {distance_threshold}"
    );
    assert!(
        items.iter().all(|w| w.weight > 0),
        "weights must be positive"
    );

    let d = distance_threshold;
    let mut active: Vec<Active> = items
        .iter()
        .enumerate()
        .map(|(i, w)| Active {
            centroid: w.pos,
            weight: w.weight,
            members: vec![i],
            merged_at: 0,
            alive: true,
            nearest: None,
            version: 0,
        })
        .collect();

    // Live clusters only: merged-away centroids are removed, not skipped.
    let mut grid: GridIndex<usize> = GridIndex::new(d.max(1.0));
    for (i, a) in active.iter().enumerate() {
        grid.insert(a.centroid, i);
    }

    // The initial all-points nearest-neighbour scan is read-only, so it fans
    // out over the pool; results come back in index order.
    let mut stats = MergeStats::default();
    let scan_sw = obs::Stopwatch::start();
    let nearest: Vec<Option<Nearest>> = match pool {
        Some(p) if p.threads() > 1 && active.len() >= PARALLEL_PAIR_SCAN_MIN => {
            let ids: Vec<usize> = (0..active.len()).collect();
            let chunk = ids.len().div_ceil(p.threads() * 4).max(1);
            let lists = p.par_chunks(&ids, chunk, |_, ids| {
                let _scan_span = obs::trace_span(names::CLUSTER_PAIR_SCAN);
                let sw = obs::Stopwatch::start();
                let local: Vec<Option<Nearest>> = ids
                    .iter()
                    .map(|&id| nearest_of(id, &active, &grid, d))
                    .collect();
                (local, sw.elapsed_ns())
            });
            let mut all = Vec::with_capacity(active.len());
            for (l, cpu_ns) in lists {
                stats.scan_cpu_ns += cpu_ns;
                all.extend(l);
            }
            all
        }
        _ => {
            let _scan_span = obs::trace_span(names::CLUSTER_PAIR_SCAN);
            let all = (0..active.len())
                .map(|id| nearest_of(id, &active, &grid, d))
                .collect();
            stats.scan_cpu_ns = scan_sw.elapsed_ns();
            all
        }
    };
    stats.scan_wall_ns = scan_sw.elapsed_ns();
    let mut queue: BinaryHeap<Queued> = BinaryHeap::with_capacity(active.len());
    for (id, n) in nearest.into_iter().enumerate() {
        if n.is_some() {
            set_nearest(&mut active, &mut queue, id, n);
        }
    }

    let merge_span = obs::trace_span(names::CLUSTER_MERGE_LOOP);
    let merge_sw = obs::Stopwatch::start();
    let mut n_merges = 0u64;
    let mut n_stale = 0u64;
    let mut n_pops = 0u64;
    let mut lowered: Vec<Link> = Vec::new();
    while let Some(Queued { owner, version, .. }) = queue.pop() {
        n_pops += 1;
        if n_pops.is_multiple_of(HEAP_SAMPLE_EVERY) {
            obs::trace_counter(names::CLUSTER_HEAP_SIZE, queue.len() as f64);
        }
        let me = &active[owner];
        let Some(near) = me.nearest.filter(|_| me.alive && me.version == version) else {
            n_stale += 1;
            continue; // superseded
        };
        let partner = &active[near.partner];
        if !partner.alive || partner.merged_at != near.partner_merged_at {
            // Only a lower bound now: recompute and requeue.
            n_stale += 1;
            let fresh = nearest_of(owner, &active, &grid, d);
            set_nearest(&mut active, &mut queue, owner, fresh);
            continue;
        }

        // Every queued key bounds its owner's true nearest key from below,
        // and this one is exact, so it is the global minimum pair.
        n_merges += 1;
        let (a, b) = (near.link.survivor, near.link.absorbed);
        let (old_a, old_b) = (active[a].centroid, active[b].centroid);
        let (wa, wb) = (active[a].weight as f64, active[b].weight as f64);
        let new_centroid = Point::new(
            (old_a.x * wa + old_b.x * wb) / (wa + wb),
            (old_a.y * wa + old_b.y * wb) / (wa + wb),
        );
        grid.remove(&old_a, &a);
        grid.remove(&old_b, &b);
        grid.insert(new_centroid, a);
        let b_members = std::mem::take(&mut active[b].members);
        active[b].alive = false;
        active[a].members.extend(b_members);
        active[a].weight += active[b].weight;
        active[a].centroid = new_centroid;
        active[a].merged_at = n_merges;

        // One scan around the moved centroid: `a` survives every link it
        // finds (it merged last), so each link both bids for `a`'s nearest
        // and lowers the neighbour's cache when it beats it.
        let mut best: Option<Link> = None;
        lowered.clear();
        for_each_link(a, &active, &grid, d, |l| {
            l.keep_min(&mut best);
            if active[l.absorbed]
                .nearest
                .is_none_or(|n| l.order(&n.link).is_lt())
            {
                lowered.push(l);
            }
        });
        for l in lowered.drain(..) {
            let n = Nearest::new(l, l.absorbed, &active);
            set_nearest(&mut active, &mut queue, l.absorbed, Some(n));
        }
        let a_nearest = best.map(|link| Nearest::new(link, a, &active));
        set_nearest(&mut active, &mut queue, a, a_nearest);
    }
    stats.merge_ns = merge_sw.elapsed_ns();
    stats.merges = n_merges;
    stats.stale = n_stale;
    drop(merge_span);

    let out: Vec<Cluster> = active
        .into_iter()
        .filter(|a| a.alive)
        .map(|a| Cluster {
            centroid: a.centroid,
            members: a.members,
            weight: a.weight,
        })
        .collect();
    if obs::enabled() {
        obs::counter(names::CLUSTER_INPUTS).add(items.len() as u64);
        obs::counter(names::CLUSTER_MERGES).add(n_merges);
        obs::counter(names::CLUSTER_STALE_HEAP_ENTRIES).add(n_stale);
        obs::counter(names::CLUSTER_CLUSTERS_OUT).add(out.len() as u64);
    }
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn empty_input_gives_no_clusters() {
        assert!(hierarchical_cluster(&[], 40.0).is_empty());
    }

    #[test]
    fn single_point_is_its_own_cluster() {
        let out = hierarchical_cluster(&[Point::new(3.0, 4.0)], 40.0);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].centroid, Point::new(3.0, 4.0));
        assert_eq!(out[0].members, vec![0]);
        assert_eq!(out[0].weight, 1);
    }

    #[test]
    fn two_close_points_merge() {
        let out = hierarchical_cluster(&[Point::new(0.0, 0.0), Point::new(10.0, 0.0)], 40.0);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].centroid, Point::new(5.0, 0.0));
        assert_eq!(out[0].weight, 2);
    }

    #[test]
    fn two_far_points_stay_apart() {
        let out = hierarchical_cluster(&[Point::new(0.0, 0.0), Point::new(100.0, 0.0)], 40.0);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn threshold_is_exclusive_at_exactly_d() {
        // "until there does not exist two clusters such that the distance of
        // their centroids is smaller than D" — exactly D apart must NOT merge.
        let out = hierarchical_cluster(&[Point::new(0.0, 0.0), Point::new(40.0, 0.0)], 40.0);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn closest_pair_merges_first() {
        // Three collinear points: 0, 30, 100. The (0,30) pair merges to
        // centroid 15; 100 is 85 m from it, so it stays separate.
        let out = hierarchical_cluster(
            &[
                Point::new(0.0, 0.0),
                Point::new(30.0, 0.0),
                Point::new(100.0, 0.0),
            ],
            40.0,
        );
        assert_eq!(out.len(), 2);
        let mut centroids: Vec<f64> = out.iter().map(|c| c.centroid.x).collect();
        centroids.sort_by(f64::total_cmp);
        assert!((centroids[0] - 15.0).abs() < 1e-9);
        assert!((centroids[1] - 100.0).abs() < 1e-9);
    }

    #[test]
    fn chain_merges_through_moving_centroid() {
        // Points at 0, 35, 70: (0,35) merge -> 17.5; 70 is 52.5 away (> 40)
        // so the chain stops. Centroid movement matters.
        let out = hierarchical_cluster(
            &[
                Point::new(0.0, 0.0),
                Point::new(35.0, 0.0),
                Point::new(70.0, 0.0),
            ],
            40.0,
        );
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn dense_blob_becomes_one_cluster() {
        let mut rng = StdRng::seed_from_u64(1);
        let pts: Vec<Point> = (0..200)
            .map(|_| Point::new(rng.gen_range(-5.0..5.0), rng.gen_range(-5.0..5.0)))
            .collect();
        let out = hierarchical_cluster(&pts, 40.0);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].weight, 200);
        assert!(out[0].centroid.norm() < 2.0);
    }

    #[test]
    fn well_separated_blobs_stay_separate() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut pts = Vec::new();
        let centers = [
            Point::new(0.0, 0.0),
            Point::new(500.0, 0.0),
            Point::new(0.0, 500.0),
        ];
        for c in &centers {
            for _ in 0..50 {
                pts.push(Point::new(
                    c.x + rng.gen_range(-8.0..8.0),
                    c.y + rng.gen_range(-8.0..8.0),
                ));
            }
        }
        let out = hierarchical_cluster(&pts, 40.0);
        assert_eq!(out.len(), 3);
        for cl in &out {
            assert_eq!(cl.weight, 50);
            assert!(centers.iter().any(|c| cl.centroid.distance(c) < 10.0));
        }
    }

    #[test]
    fn members_partition_the_input() {
        let mut rng = StdRng::seed_from_u64(3);
        let pts: Vec<Point> = (0..150)
            .map(|_| Point::new(rng.gen_range(-300.0..300.0), rng.gen_range(-300.0..300.0)))
            .collect();
        let out = hierarchical_cluster(&pts, 40.0);
        let mut seen: Vec<usize> = out.iter().flat_map(|c| c.members.iter().copied()).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..150).collect::<Vec<_>>());
        for c in &out {
            assert_eq!(c.weight, c.members.len());
        }
    }

    #[test]
    fn weighted_merge_respects_mass() {
        // A heavy existing candidate at x=0 (weight 9) and a new unit point
        // at x=10 merge to x=1, not x=5.
        let items = [
            WeightedPoint {
                pos: Point::new(0.0, 0.0),
                weight: 9,
            },
            WeightedPoint::unit(Point::new(10.0, 0.0)),
        ];
        let out = merge_weighted(&items, 40.0);
        assert_eq!(out.len(), 1);
        assert!((out[0].centroid.x - 1.0).abs() < 1e-9);
        assert_eq!(out[0].weight, 10);
    }

    #[test]
    fn incremental_equals_rerun_for_separated_batches() {
        // When the two batches occupy disjoint areas, clustering batch 2 into
        // batch 1's candidates equals clustering everything at once.
        let batch1 = [Point::new(0.0, 0.0), Point::new(5.0, 0.0)];
        let batch2 = [Point::new(500.0, 0.0), Point::new(505.0, 0.0)];
        let pool1 = hierarchical_cluster(&batch1, 40.0);
        let mut items: Vec<WeightedPoint> = pool1
            .iter()
            .map(|c| WeightedPoint {
                pos: c.centroid,
                weight: c.weight,
            })
            .collect();
        items.extend(batch2.iter().map(|&p| WeightedPoint::unit(p)));
        let merged = merge_weighted(&items, 40.0);

        let all: Vec<Point> = batch1.iter().chain(batch2.iter()).copied().collect();
        let rerun = hierarchical_cluster(&all, 40.0);
        assert_eq!(merged.len(), rerun.len());
        let mut a: Vec<(i64, i64)> = merged
            .iter()
            .map(|c| (c.centroid.x.round() as i64, c.centroid.y.round() as i64))
            .collect();
        let mut b: Vec<(i64, i64)> = rerun
            .iter()
            .map(|c| (c.centroid.x.round() as i64, c.centroid.y.round() as i64))
            .collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "distance threshold must be positive")]
    fn invalid_threshold_panics() {
        let _ = hierarchical_cluster(&[Point::ZERO], 0.0);
    }

    #[test]
    fn pooled_scan_is_bitwise_identical_to_serial() {
        // Enough points to cross PARALLEL_PAIR_SCAN_MIN, dense enough that
        // many merges happen, across several worker counts.
        let mut rng = StdRng::seed_from_u64(7);
        let items: Vec<WeightedPoint> = (0..900)
            .map(|_| {
                WeightedPoint::unit(Point::new(
                    rng.gen_range(-400.0..400.0),
                    rng.gen_range(-400.0..400.0),
                ))
            })
            .collect();
        let serial = merge_weighted(&items, 40.0);
        for threads in [1, 2, 8] {
            let pool = Pool::new(threads);
            let pooled = merge_weighted_pooled(&items, 40.0, &pool);
            assert_eq!(serial.len(), pooled.len(), "threads={threads}");
            for (a, b) in serial.iter().zip(&pooled) {
                assert_eq!(a.members, b.members, "threads={threads}");
                assert_eq!(
                    a.centroid.x.to_bits(),
                    b.centroid.x.to_bits(),
                    "threads={threads}"
                );
                assert_eq!(
                    a.centroid.y.to_bits(),
                    b.centroid.y.to_bits(),
                    "threads={threads}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn no_two_final_centroids_within_d(
            pts in proptest::collection::vec((-500.0..500.0f64, -500.0..500.0f64), 0..120),
            d in 5.0..80.0f64,
        ) {
            let points: Vec<Point> = pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
            let out = hierarchical_cluster(&points, d);
            for i in 0..out.len() {
                for j in (i + 1)..out.len() {
                    prop_assert!(
                        out[i].centroid.distance(&out[j].centroid) >= d - 1e-9,
                        "centroids {} and {} are {} < {}",
                        i, j, out[i].centroid.distance(&out[j].centroid), d
                    );
                }
            }
        }

        #[test]
        fn members_always_partition(
            pts in proptest::collection::vec((-500.0..500.0f64, -500.0..500.0f64), 0..120),
            d in 5.0..80.0f64,
        ) {
            let points: Vec<Point> = pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
            let out = hierarchical_cluster(&points, d);
            let mut seen: Vec<usize> = out.iter().flat_map(|c| c.members.iter().copied()).collect();
            seen.sort_unstable();
            prop_assert_eq!(seen, (0..points.len()).collect::<Vec<_>>());
            let total: usize = out.iter().map(|c| c.weight).sum();
            prop_assert_eq!(total, points.len());
        }
    }

    /// Reference merge loop stating the pop rule directly: every step
    /// scans all live pairs, orients each survivor-first (the cluster that
    /// merged more recently, else the lower index), keeps those passing
    /// `distance_sq ≤ d²` and `dist < d`, and merges the smallest
    /// `(dist, survivor, absorbed)`. O(n³).
    fn naive_merge(items: &[WeightedPoint], d: f64) -> Vec<Cluster> {
        struct C {
            centroid: Point,
            weight: usize,
            members: Vec<usize>,
            merged_at: u64,
            alive: bool,
        }
        let mut cs: Vec<C> = items
            .iter()
            .enumerate()
            .map(|(i, w)| C {
                centroid: w.pos,
                weight: w.weight,
                members: vec![i],
                merged_at: 0,
                alive: true,
            })
            .collect();
        for step in 1u64.. {
            let mut best: Option<(f64, usize, usize)> = None;
            for s in 0..cs.len() {
                for a in 0..cs.len() {
                    if s == a || !cs[s].alive || !cs[a].alive {
                        continue;
                    }
                    let (cs_, ca) = (&cs[s], &cs[a]);
                    let s_survives =
                        cs_.merged_at > ca.merged_at || (cs_.merged_at == ca.merged_at && s < a);
                    if !s_survives || cs_.centroid.distance_sq(&ca.centroid) > d * d {
                        continue;
                    }
                    let dist = cs_.centroid.distance(&ca.centroid);
                    if dist >= d {
                        continue;
                    }
                    let beats = best.is_none_or(|(bd, bs, ba)| {
                        dist.total_cmp(&bd)
                            .then(s.cmp(&bs))
                            .then(a.cmp(&ba))
                            .is_lt()
                    });
                    if beats {
                        best = Some((dist, s, a));
                    }
                }
            }
            let Some((_, s, a)) = best else { break };
            let (ws, wa) = (cs[s].weight as f64, cs[a].weight as f64);
            let (ps, pa) = (cs[s].centroid, cs[a].centroid);
            let moved = std::mem::take(&mut cs[a].members);
            cs[a].alive = false;
            cs[s].centroid = Point::new(
                (ps.x * ws + pa.x * wa) / (ws + wa),
                (ps.y * ws + pa.y * wa) / (ws + wa),
            );
            cs[s].members.extend(moved);
            cs[s].weight += cs[a].weight;
            cs[s].merged_at = step;
        }
        cs.into_iter()
            .filter(|c| c.alive)
            .map(|c| Cluster {
                centroid: c.centroid,
                members: c.members,
                weight: c.weight,
            })
            .collect()
    }

    /// Thresholds for the oracle comparisons: below the lattice step (only
    /// duplicates merge), exactly on lattice distances (the strict `< D`
    /// boundary), between them, and the paper's 40 m.
    const ORACLE_D: [f64; 5] = [0.5, 5.0, 7.5, 12.5, 40.0];

    /// Weighted points on a 2.5 m lattice, so exact distance ties and
    /// duplicate points are common.
    fn lattice_items(cells: &[(u8, u8, u8)]) -> Vec<WeightedPoint> {
        cells
            .iter()
            .map(|&(x, y, w)| WeightedPoint {
                pos: Point::new(f64::from(x) * 2.5, f64::from(y) * 2.5),
                weight: usize::from(w),
            })
            .collect()
    }

    fn pools() -> &'static [Pool] {
        static POOLS: std::sync::OnceLock<Vec<Pool>> = std::sync::OnceLock::new();
        POOLS.get_or_init(|| [1, 2, 8].into_iter().map(Pool::new).collect())
    }

    fn same_clusters(want: &[Cluster], got: &[Cluster]) -> Result<(), String> {
        if want.len() != got.len() {
            return Err(format!("{} clusters, want {}", got.len(), want.len()));
        }
        for (i, (w, g)) in want.iter().zip(got).enumerate() {
            let same = w.members == g.members
                && w.weight == g.weight
                && w.centroid.x.to_bits() == g.centroid.x.to_bits()
                && w.centroid.y.to_bits() == g.centroid.y.to_bits();
            if !same {
                return Err(format!("cluster {i}: got {g:?}, want {w:?}"));
            }
        }
        Ok(())
    }

    fn check_against_oracle(items: &[WeightedPoint], d: f64) -> Result<(), String> {
        let want = naive_merge(items, d);
        same_clusters(&want, &merge_weighted(items, d)).map_err(|e| format!("serial: {e}"))?;
        for pool in pools() {
            same_clusters(&want, &merge_weighted_pooled(items, d, pool))
                .map_err(|e| format!("threads={}: {e}", pool.threads()))?;
        }
        Ok(())
    }

    #[test]
    fn oracle_agrees_on_hand_built_ties() {
        // A plus-shape of equidistant points around a duplicated centre,
        // then a chain whose merges move centroids onto exact ties.
        let pts = [
            (8, 8, 1),
            (8, 8, 1),
            (10, 8, 1),
            (6, 8, 1),
            (8, 10, 1),
            (8, 6, 2),
            (20, 8, 1),
            (22, 8, 1),
            (24, 8, 3),
            (26, 8, 1),
        ];
        let items = lattice_items(&pts);
        for d in ORACLE_D {
            check_against_oracle(&items, d).unwrap_or_else(|e| panic!("D={d}: {e}"));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn merge_loop_matches_naive_oracle(
            cells in proptest::collection::vec((0u8..16, 0u8..16, 1u8..4), 0..90),
            di in 0usize..5,
        ) {
            let items = lattice_items(&cells);
            let d = ORACLE_D[di];
            if let Err(e) = check_against_oracle(&items, d) {
                prop_assert!(false, "D={}: {}", d, e);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Large enough to cross `PARALLEL_PAIR_SCAN_MIN`, so the pooled
        /// runs take the parallel nearest-neighbour scan.
        #[test]
        fn parallel_scan_matches_naive_oracle(
            cells in proptest::collection::vec((0u8..40, 0u8..40, 1u8..4), 512..640),
            di in 0usize..5,
        ) {
            let items = lattice_items(&cells);
            let d = ORACLE_D[di];
            if let Err(e) = check_against_oracle(&items, d) {
                prop_assert!(false, "D={}: {}", d, e);
            }
        }
    }
}
