//! A uniform grid index for radius queries over large planar point sets.
//!
//! The candidate-pool construction and retrieval steps repeatedly ask "which
//! stay points / candidates lie within `r` meters of here?" over tens of
//! thousands of points. A uniform grid with cell size on the order of the
//! query radius answers those in near-constant time.

use crate::bbox::BBox;
use crate::point::Point;
use std::collections::HashMap;

/// A uniform grid over the plane bucketing items by their location.
///
/// Cells are addressed by `(floor(x / cell), floor(y / cell))`, so the grid
/// is unbounded and sparse: only occupied cells allocate storage.
#[derive(Debug, Clone)]
pub struct GridIndex<T> {
    cell: f64,
    cells: HashMap<(i64, i64), Vec<(Point, T)>>,
    len: usize,
}

impl<T> GridIndex<T> {
    /// Creates an empty index with the given cell size in meters.
    ///
    /// # Panics
    /// Panics if `cell_size` is not strictly positive and finite.
    pub fn new(cell_size: f64) -> Self {
        assert!(
            cell_size.is_finite() && cell_size > 0.0,
            "cell size must be positive, got {cell_size}"
        );
        Self {
            cell: cell_size,
            cells: HashMap::new(),
            len: 0,
        }
    }

    /// Builds an index from an iterator of located items.
    pub fn from_items(cell_size: f64, items: impl IntoIterator<Item = (Point, T)>) -> Self {
        let mut g = Self::new(cell_size);
        for (p, v) in items {
            g.insert(p, v);
        }
        g
    }

    fn key(&self, p: &Point) -> (i64, i64) {
        (
            (p.x / self.cell).floor() as i64,
            (p.y / self.cell).floor() as i64,
        )
    }

    /// Inserts an item at a location.
    pub fn insert(&mut self, p: Point, value: T) {
        self.cells.entry(self.key(&p)).or_default().push((p, value));
        self.len += 1;
    }

    /// Removes one item equal to `value` stored at exactly `p`, returning
    /// whether one was found. Items sharing the cell may be reordered.
    pub fn remove(&mut self, p: &Point, value: &T) -> bool
    where
        T: PartialEq,
    {
        let key = self.key(p);
        let Some(bucket) = self.cells.get_mut(&key) else {
            return false;
        };
        let Some(pos) = bucket.iter().position(|(q, v)| v == value && q == p) else {
            return false;
        };
        bucket.swap_remove(pos);
        if bucket.is_empty() {
            self.cells.remove(&key);
        }
        self.len -= 1;
        true
    }

    /// Number of stored items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no items are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Calls `f` for every item within `radius` meters of `center`
    /// (boundary inclusive).
    pub fn for_each_within(&self, center: &Point, radius: f64, mut f: impl FnMut(&Point, &T)) {
        let r_cells = (radius / self.cell).ceil() as i64;
        let (cx, cy) = self.key(center);
        let r2 = radius * radius;
        for gx in (cx - r_cells)..=(cx + r_cells) {
            for gy in (cy - r_cells)..=(cy + r_cells) {
                if let Some(bucket) = self.cells.get(&(gx, gy)) {
                    for (p, v) in bucket {
                        if p.distance_sq(center) <= r2 {
                            f(p, v);
                        }
                    }
                }
            }
        }
    }

    /// Collects references to all items within `radius` meters of `center`.
    pub fn within(&self, center: &Point, radius: f64) -> Vec<(&Point, &T)> {
        let mut out = Vec::new();
        // Rebind through raw pointers is unnecessary; just collect.
        self.for_each_within_ref(center, radius, &mut out);
        out
    }

    fn for_each_within_ref<'a>(
        &'a self,
        center: &Point,
        radius: f64,
        out: &mut Vec<(&'a Point, &'a T)>,
    ) {
        let r_cells = (radius / self.cell).ceil() as i64;
        let (cx, cy) = self.key(center);
        let r2 = radius * radius;
        for gx in (cx - r_cells)..=(cx + r_cells) {
            for gy in (cy - r_cells)..=(cy + r_cells) {
                if let Some(bucket) = self.cells.get(&(gx, gy)) {
                    for (p, v) in bucket {
                        if p.distance_sq(center) <= r2 {
                            out.push((p, v));
                        }
                    }
                }
            }
        }
    }

    /// Finds the nearest item to `center`, searching outward ring by ring.
    /// Returns `None` when the index is empty.
    pub fn nearest(&self, center: &Point) -> Option<(&Point, &T, f64)> {
        if self.is_empty() {
            return None;
        }
        let (cx, cy) = self.key(center);
        let mut best: Option<(&Point, &T, f64)> = None;
        let mut ring = 0i64;
        loop {
            let mut any_cell = false;
            for gx in (cx - ring)..=(cx + ring) {
                for gy in (cy - ring)..=(cy + ring) {
                    // Only the boundary of the ring is new.
                    if ring > 0
                        && gx > cx - ring
                        && gx < cx + ring
                        && gy > cy - ring
                        && gy < cy + ring
                    {
                        continue;
                    }
                    if let Some(bucket) = self.cells.get(&(gx, gy)) {
                        any_cell = true;
                        for (p, v) in bucket {
                            let d = p.distance(center);
                            if best.is_none_or(|(_, _, bd)| d < bd) {
                                best = Some((p, v, d));
                            }
                        }
                    }
                }
            }
            // A match found at ring k could still be beaten by a point in ring
            // k+1 only if best distance exceeds ring*cell; expand until safe.
            if let Some((_, _, bd)) = best {
                if bd <= ring as f64 * self.cell {
                    return best;
                }
            }
            ring += 1;
            // Termination: once the ring covers the whole occupied area and
            // we have a best, return it.
            if ring as f64 * self.cell > self.max_extent() + self.cell {
                return best;
            }
            let _ = any_cell;
        }
    }

    fn max_extent(&self) -> f64 {
        let max_abs = self
            .cells
            .keys()
            .map(|(x, y)| x.abs().max(y.abs()))
            .max()
            .unwrap_or(0);
        (max_abs + 1) as f64 * self.cell * 2.0
    }

    /// Iterates over all stored items in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&Point, &T)> {
        // lint: allow(L9, cells stay hashed for O1 ring lookups on the retrieval hot path; every consumer folds order-insensitively - see bounds)
        self.cells.values().flatten().map(|(p, v)| (p, v))
    }

    /// Bounding box of all stored points, or `None` when empty.
    pub fn bounds(&self) -> Option<BBox> {
        let mut it = self.iter();
        let (first, _) = it.next()?;
        let mut bb = BBox::new(*first, *first);
        for (p, _) in it {
            bb.expand(p);
        }
        Some(bb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    #[should_panic(expected = "cell size must be positive")]
    fn zero_cell_size_panics() {
        let _ = GridIndex::<u32>::new(0.0);
    }

    #[test]
    fn within_finds_exactly_the_close_points() {
        let mut g = GridIndex::new(10.0);
        g.insert(Point::new(0.0, 0.0), 0usize);
        g.insert(Point::new(5.0, 0.0), 1usize);
        g.insert(Point::new(25.0, 0.0), 2usize);
        let found: Vec<usize> = g
            .within(&Point::ZERO, 10.0)
            .into_iter()
            .map(|(_, v)| *v)
            .collect();
        assert_eq!(found.len(), 2);
        assert!(found.contains(&0) && found.contains(&1));
    }

    #[test]
    fn within_radius_boundary_inclusive() {
        let mut g = GridIndex::new(7.0);
        g.insert(Point::new(10.0, 0.0), ());
        assert_eq!(g.within(&Point::ZERO, 10.0).len(), 1);
        assert_eq!(g.within(&Point::ZERO, 9.999).len(), 0);
    }

    #[test]
    fn nearest_empty_is_none() {
        let g = GridIndex::<()>::new(5.0);
        assert!(g.nearest(&Point::ZERO).is_none());
    }

    #[test]
    fn nearest_single_item() {
        let mut g = GridIndex::new(5.0);
        g.insert(Point::new(100.0, 100.0), 7usize);
        let (_, v, d) = g.nearest(&Point::ZERO).unwrap();
        assert_eq!(*v, 7);
        assert!((d - 100.0 * std::f64::consts::SQRT_2).abs() < 1e-9);
    }

    #[test]
    fn nearest_matches_linear_scan() {
        let mut rng = StdRng::seed_from_u64(42);
        let pts: Vec<Point> = (0..300)
            .map(|_| Point::new(rng.gen_range(-500.0..500.0), rng.gen_range(-500.0..500.0)))
            .collect();
        let g = GridIndex::from_items(25.0, pts.iter().enumerate().map(|(i, p)| (*p, i)));
        for _ in 0..50 {
            let q = Point::new(rng.gen_range(-600.0..600.0), rng.gen_range(-600.0..600.0));
            let (_, _, d) = g.nearest(&q).unwrap();
            let best = pts.iter().map(|p| p.distance(&q)).fold(f64::MAX, f64::min);
            assert!((d - best).abs() < 1e-9, "grid {d} vs scan {best}");
        }
    }

    #[test]
    fn len_and_iter() {
        let mut g = GridIndex::new(1.0);
        assert!(g.is_empty());
        for i in 0..10 {
            g.insert(Point::new(i as f64, 0.0), i);
        }
        assert_eq!(g.len(), 10);
        assert_eq!(g.iter().count(), 10);
    }

    #[test]
    fn remove_drops_exactly_one_matching_item() {
        let mut g = GridIndex::new(10.0);
        let p = Point::new(3.0, 4.0);
        g.insert(p, 1usize);
        g.insert(p, 2usize);
        g.insert(p, 1usize);
        g.insert(Point::new(50.0, 0.0), 3usize);
        // Wrong location or wrong value: nothing removed.
        assert!(!g.remove(&Point::new(3.0, 5.0), &1));
        assert!(!g.remove(&p, &3));
        assert!(!g.remove(&Point::new(-80.0, 0.0), &1));
        assert_eq!(g.len(), 4);
        // One of the two duplicates goes; the other stays findable.
        assert!(g.remove(&p, &1));
        assert_eq!(g.len(), 3);
        let mut near: Vec<usize> = g.within(&p, 1.0).into_iter().map(|(_, v)| *v).collect();
        near.sort_unstable();
        assert_eq!(near, vec![1, 2]);
        assert!(g.remove(&p, &1));
        assert!(g.remove(&p, &2));
        assert!(!g.remove(&p, &2));
        assert!(g.within(&p, 1.0).is_empty());
        // An emptied cell no longer counts towards the occupied area.
        assert_eq!(g.len(), 1);
        assert_eq!(g.iter().count(), 1);
        assert_eq!(*g.nearest(&p).unwrap().1, 3);
        assert!(g.remove(&Point::new(50.0, 0.0), &3));
        assert!(g.is_empty());
        assert!(g.nearest(&p).is_none());
    }

    proptest! {
        #[test]
        fn remove_then_within_matches_linear_scan(
            pts in proptest::collection::vec((-200.0..200.0f64, -200.0..200.0f64), 0..60),
            drop_every in 1usize..5,
            qx in -250.0..250.0f64, qy in -250.0..250.0f64,
            r in 1.0..150.0f64,
        ) {
            let points: Vec<Point> = pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
            let mut g = GridIndex::from_items(20.0, points.iter().enumerate().map(|(i, p)| (*p, i)));
            for (i, p) in points.iter().enumerate().filter(|(i, _)| i % drop_every == 0) {
                prop_assert!(g.remove(p, &i));
            }
            let q = Point::new(qx, qy);
            let mut got: Vec<usize> = g.within(&q, r).into_iter().map(|(_, v)| *v).collect();
            got.sort_unstable();
            let want: Vec<usize> = points
                .iter()
                .enumerate()
                .filter(|(i, p)| i % drop_every != 0 && p.distance(&q) <= r)
                .map(|(i, _)| i)
                .collect();
            prop_assert_eq!(got, want);
            prop_assert_eq!(g.len(), points.len() - points.len().div_ceil(drop_every));
        }

        #[test]
        fn within_matches_linear_scan(
            pts in proptest::collection::vec((-200.0..200.0f64, -200.0..200.0f64), 0..60),
            qx in -250.0..250.0f64, qy in -250.0..250.0f64,
            r in 1.0..150.0f64,
            cell in 1.0..60.0f64,
        ) {
            let points: Vec<Point> = pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
            let g = GridIndex::from_items(cell, points.iter().enumerate().map(|(i, p)| (*p, i)));
            let q = Point::new(qx, qy);
            let mut got: Vec<usize> = g.within(&q, r).into_iter().map(|(_, v)| *v).collect();
            got.sort_unstable();
            let mut want: Vec<usize> = points
                .iter()
                .enumerate()
                .filter(|(_, p)| p.distance(&q) <= r)
                .map(|(i, _)| i)
                .collect();
            want.sort_unstable();
            prop_assert_eq!(got, want);
        }
    }
}
