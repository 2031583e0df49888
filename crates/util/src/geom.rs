//! 2-D geometry for deployment fields.
//!
//! The paper models a sensor network as nodes scattered in a planar
//! monitoring area with unit-disk radio reachability ("the radio range of a
//! sensor node only covers its immediate neighboring nodes", §5.1). All
//! coordinates are in metres.

use std::fmt;

/// A point in the deployment plane (metres).
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct Point {
    /// X coordinate in metres.
    pub x: f64,
    /// Y coordinate in metres.
    pub y: f64,
}

impl Point {
    /// Construct a point.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn dist(self, other: Point) -> f64 {
        self.dist_sq(other).sqrt()
    }

    /// Squared Euclidean distance (cheaper; use for comparisons).
    #[inline]
    pub fn dist_sq(self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Whether `other` lies within radio range `r` of `self` (inclusive).
    #[inline]
    pub fn within(self, other: Point, r: f64) -> bool {
        self.dist_sq(other) <= r * r
    }

    /// Midpoint between two points.
    #[inline]
    pub fn midpoint(self, other: Point) -> Point {
        Point::new((self.x + other.x) / 2.0, (self.y + other.y) / 2.0)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.1}, {:.1})", self.x, self.y)
    }
}

/// An axis-aligned rectangle, the deployment field boundary.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Rect {
    /// Minimum corner.
    pub min: Point,
    /// Maximum corner.
    pub max: Point,
}

impl Rect {
    /// A field spanning `[0,w] × [0,h]`.
    pub fn field(w: f64, h: f64) -> Self {
        assert!(
            w >= 0.0 && h >= 0.0,
            "field dimensions must be non-negative"
        );
        Rect {
            min: Point::new(0.0, 0.0),
            max: Point::new(w, h),
        }
    }

    /// Construct from two corners (normalised so `min <= max`).
    pub fn from_corners(a: Point, b: Point) -> Self {
        Rect {
            min: Point::new(a.x.min(b.x), a.y.min(b.y)),
            max: Point::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// Width of the rectangle.
    #[inline]
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height of the rectangle.
    #[inline]
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Area in square metres.
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Geometric centre.
    #[inline]
    pub fn center(&self) -> Point {
        self.min.midpoint(self.max)
    }

    /// Whether `p` lies inside (inclusive of the boundary).
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Clamp a point into the rectangle.
    pub fn clamp(&self, p: Point) -> Point {
        Point::new(
            p.x.clamp(self.min.x, self.max.x),
            p.y.clamp(self.min.y, self.max.y),
        )
    }

    /// The length of the diagonal — an upper bound on any in-field distance.
    #[inline]
    pub fn diagonal(&self) -> f64 {
        self.min.dist(self.max)
    }
}

/// Relative widening of a grid cell over the radio range it serves.
/// Coordinates pass through a subtraction and a division before they are
/// floored, so a pair exactly `range` apart could otherwise round into
/// cells two apart; with the margin, every pair [`linked`] accepts lies in
/// the same or adjacent cells on fields up to 10⁶ cells across.
const CELL_MARGIN: f64 = 1e-9;

/// The unit-disk edge predicate shared by every adjacency builder: `a` and
/// `b` are linked at radio range `range` when [`Point::within`] holds. A
/// range that is not positive links nothing.
#[inline]
pub fn linked(a: Point, b: Point, range: f64) -> bool {
    range > 0.0 && a.within(b, range)
}

/// A uniform grid of square cells anchored at `origin`. Its [`cell_of`]
/// is the one cell function the unit-disk kernel, the simulator's
/// adjacency cache (moves included) and its ranged transmissions share.
///
/// [`cell_of`]: CellGrid::cell_of
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CellGrid {
    origin: Point,
    side: f64,
}

impl CellGrid {
    /// A grid for neighbour search at radius `range`: cells a hair wider
    /// than `range`, so every point within `range` of `p` lies in the 3×3
    /// block around `p`'s cell. A non-positive range gets unit cells.
    pub fn for_range(origin: Point, range: f64) -> Self {
        let side = if range > 0.0 {
            range * (1.0 + CELL_MARGIN)
        } else {
            1.0
        };
        CellGrid { origin, side }
    }

    /// The cell holding `p`. Points below or left of the origin get
    /// negative coordinates.
    #[inline]
    pub fn cell_of(&self, p: Point) -> (i64, i64) {
        (
            ((p.x - self.origin.x) / self.side).floor() as i64,
            ((p.y - self.origin.y) / self.side).floor() as i64,
        )
    }

    /// How many cells on each side of a point's own cell hold everything
    /// within `r` of it: 1 for the range the grid was made for.
    #[inline]
    pub fn reach(&self, r: f64) -> i64 {
        (r / self.side).floor() as i64 + 1
    }
}

/// Points counting-sorted into a dense [`CellGrid`] anchored at their
/// minimum corner: the cells in row-major order, and each cell's points
/// contiguous and ascending by index.
#[derive(Clone, Debug)]
pub struct CellIndex {
    grid: CellGrid,
    range: f64,
    cols: usize,
    rows: usize,
    /// `start[c]..start[c + 1]` indexes `order` for cell `c`.
    start: Vec<u32>,
    /// Point indices in cell order.
    order: Vec<u32>,
}

impl CellIndex {
    /// Bucket `positions` for neighbour search at radius `range`.
    ///
    /// Cells are `range` wide unless the field's bounding box would need
    /// more than about four cells per point (a sparse field, or a cluster
    /// with a far outlier); then cells widen until it does not. A wider
    /// cell only adds candidates, so the adjacency stays exact.
    pub fn build(positions: &[Point], range: f64) -> Self {
        let n = positions.len();
        assert!(
            u32::try_from(n).is_ok_and(|n| n < u32::MAX),
            "a cell index holds fewer than u32::MAX points"
        );
        let (mut lo, mut hi) = (
            Point::new(f64::INFINITY, f64::INFINITY),
            Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
        );
        for p in positions {
            lo = Point::new(lo.x.min(p.x), lo.y.min(p.y));
            hi = Point::new(hi.x.max(p.x), hi.y.max(p.y));
        }
        if n == 0 {
            lo = Point::default();
            hi = lo;
        }
        let mut grid = CellGrid::for_range(lo, range);
        let extent = |g: &CellGrid| {
            let (cx, cy) = g.cell_of(hi);
            (cx.max(0) as usize + 1, cy.max(0) as usize + 1)
        };
        let (mut cols, mut rows) = extent(&grid);
        let cap = (4 * n + 64) as f64;
        while (cols as f64) * (rows as f64) > cap {
            grid.side *= 2.0;
            (cols, rows) = extent(&grid);
        }
        let cell_ix = |p: Point| {
            let (cx, cy) = grid.cell_of(p);
            cy.clamp(0, rows as i64 - 1) as usize * cols + cx.clamp(0, cols as i64 - 1) as usize
        };
        let mut start = vec![0u32; cols * rows + 1];
        for &p in positions {
            start[cell_ix(p) + 1] += 1;
        }
        for c in 0..cols * rows {
            start[c + 1] += start[c];
        }
        let mut fill = start.clone();
        let mut order = vec![0u32; n];
        for (i, &p) in positions.iter().enumerate() {
            let c = cell_ix(p);
            order[fill[c] as usize] = i as u32;
            fill[c] += 1;
        }
        CellIndex {
            grid,
            range,
            cols,
            rows,
            start,
            order,
        }
    }

    /// The grid the points were bucketed on.
    #[inline]
    pub fn grid(&self) -> CellGrid {
        self.grid
    }

    /// The radius the index was built for.
    #[inline]
    pub fn range(&self) -> f64 {
        self.range
    }

    /// The points bucketed in cell `c`, ascending; empty outside the
    /// field's extent.
    #[inline]
    pub fn cell(&self, c: (i64, i64)) -> &[u32] {
        let (cx, cy) = c;
        if cx < 0 || cy < 0 || cx as usize >= self.cols || cy as usize >= self.rows {
            return &[];
        }
        let c = cy as usize * self.cols + cx as usize;
        &self.order[self.start[c] as usize..self.start[c + 1] as usize]
    }

    /// Call `f(a, b, linked)` once for every unordered pair of indexed
    /// points whose first point lies in cell row `cy`: each cell against
    /// itself and its four forward neighbours, `a` and `b` in cell order,
    /// skipping cell pairs where neither cell holds a kept point. `f` sees
    /// rejected pairs too, so callers can count and append without a
    /// branch per pair.
    fn for_each_candidate(
        &self,
        cy: usize,
        pts: &[Point],
        has_kept: &[bool],
        mut f: impl FnMut(usize, usize, bool),
    ) {
        const FORWARD: [(i64, i64); 4] = [(1, 0), (-1, 1), (0, 1), (1, 1)];
        let r = self.range;
        let span = |c: usize| self.start[c] as usize..self.start[c + 1] as usize;
        for cx in 0..self.cols {
            let c = cy * self.cols + cx;
            let home = span(c);
            if home.is_empty() {
                continue;
            }
            if has_kept[c] {
                for a in home.clone() {
                    for b in a + 1..home.end {
                        f(a, b, pts[a].within(pts[b], r));
                    }
                }
            }
            for (dx, dy) in FORWARD {
                let (nx, ny) = (cx as i64 + dx, cy as i64 + dy);
                if nx < 0 || nx as usize >= self.cols || ny as usize >= self.rows {
                    continue;
                }
                let d = ny as usize * self.cols + nx as usize;
                if !has_kept[c] && !has_kept[d] {
                    continue;
                }
                for a in home.clone() {
                    for b in span(d) {
                        f(a, b, pts[a].within(pts[b], r));
                    }
                }
            }
        }
    }

    /// The unit-disk rows of the points `keep` selects; every other row
    /// is empty. `positions` must be the points the index was built from.
    ///
    /// Each pair is tested once per pass, with [`linked`]. The first pass
    /// counts the kept endpoints' degrees, which give the row offsets. The
    /// second goes one cell row at a time: it appends that row's linked
    /// pairs to a small reused buffer, then scatters them into their kept
    /// endpoints' rows. Neither pass branches on a test (every candidate
    /// is counted or written; only linked ones advance). Each row is then
    /// sorted ascending.
    pub fn adjacency(&self, positions: &[Point], keep: impl Fn(usize) -> bool) -> Adjacency {
        let n = positions.len();
        assert_eq!(
            n,
            self.order.len(),
            "positions differ from the indexed points"
        );
        let mut offsets = vec![0u32; n + 1];
        if self.range.is_nan() || self.range <= 0.0 {
            return Adjacency {
                offsets,
                targets: Vec::new(),
            };
        }
        let pts: Vec<Point> = self.order.iter().map(|&i| positions[i as usize]).collect();
        let kept: Vec<bool> = self.order.iter().map(|&i| keep(i as usize)).collect();
        let has_kept: Vec<bool> = (0..self.cols * self.rows)
            .map(|c| kept[self.start[c] as usize..self.start[c + 1] as usize].contains(&true))
            .collect();
        let mut degree = vec![0u32; n];
        let mut row_pairs = vec![0usize; self.rows];
        for (cy, linked_pairs) in row_pairs.iter_mut().enumerate() {
            self.for_each_candidate(cy, &pts, &has_kept, |a, b, w| {
                degree[a] += (w & kept[a]) as u32;
                degree[b] += (w & kept[b]) as u32;
                *linked_pairs += w as usize;
            });
        }
        for (&i, &d) in self.order.iter().zip(&degree) {
            offsets[i as usize + 1] = d;
        }
        drop(degree);
        let mut total = 0u64;
        for o in offsets.iter_mut() {
            total += *o as u64;
            *o = u32::try_from(total).expect("fewer than 2³² adjacency entries");
        }
        let mut fill = offsets.clone();
        let mut targets = vec![0u32; total as usize];
        // One spare slot: every candidate is written, only linked ones
        // advance the cursor.
        let mut pairs = vec![(0u32, 0u32); row_pairs.iter().max().map_or(0, |&m| m) + 1];
        for (cy, &linked_pairs) in row_pairs.iter().enumerate() {
            let mut len = 0;
            self.for_each_candidate(cy, &pts, &has_kept, |a, b, w| {
                pairs[len] = (a as u32, b as u32);
                len += w as usize;
            });
            debug_assert_eq!(len, linked_pairs);
            for &(a, b) in &pairs[..len] {
                for (from, to) in [(a, b), (b, a)] {
                    if kept[from as usize] {
                        let i = self.order[from as usize] as usize;
                        targets[fill[i] as usize] = self.order[to as usize];
                        fill[i] += 1;
                    }
                }
            }
        }
        for w in offsets.windows(2) {
            targets[w[0] as usize..w[1] as usize].sort_unstable();
        }
        Adjacency { offsets, targets }
    }
}

/// A graph in compressed sparse rows: row `i` is
/// `targets[offsets[i]..offsets[i + 1]]`, sorted ascending.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Adjacency {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl Adjacency {
    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the graph has no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Neighbours of vertex `i`, ascending.
    #[inline]
    pub fn row(&self, i: usize) -> &[u32] {
        &self.targets[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Neighbours of vertex `i` as indices, ascending.
    #[inline]
    pub fn neighbors(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        self.row(i).iter().map(|&j| j as usize)
    }
}

/// Build the unit-disk graph of `positions` at radio range `range`: row
/// `i` lists, ascending, every `j != i` [`linked`] to `i`.
///
/// Counting-sorts the points into a [`CellIndex`] and tests each pair in
/// neighbouring cells once, so construction is O(n) for bounded density;
/// fields in the experiments reach 100 000 nodes.
pub fn unit_disk_adjacency(positions: &[Point], range: f64) -> Adjacency {
    CellIndex::build(positions, range).adjacency(positions, |_| true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_euclidean() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.dist(b), 5.0);
        assert_eq!(a.dist_sq(b), 25.0);
        assert_eq!(a.dist(a), 0.0);
    }

    #[test]
    fn within_is_inclusive_of_the_boundary() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, 0.0);
        assert!(a.within(b, 10.0));
        assert!(!a.within(b, 9.999));
    }

    #[test]
    fn rect_contains_and_clamps() {
        let r = Rect::field(100.0, 50.0);
        assert!(r.contains(Point::new(0.0, 0.0)));
        assert!(r.contains(Point::new(100.0, 50.0)));
        assert!(!r.contains(Point::new(100.1, 0.0)));
        let clamped = r.clamp(Point::new(-5.0, 60.0));
        assert_eq!(clamped, Point::new(0.0, 50.0));
    }

    #[test]
    fn rect_geometry() {
        let r = Rect::field(100.0, 50.0);
        assert_eq!(r.area(), 5000.0);
        assert_eq!(r.center(), Point::new(50.0, 25.0));
        assert!((r.diagonal() - (100.0f64.powi(2) + 50.0f64.powi(2)).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn rect_from_corners_normalises() {
        let r = Rect::from_corners(Point::new(5.0, 9.0), Point::new(1.0, 2.0));
        assert_eq!(r.min, Point::new(1.0, 2.0));
        assert_eq!(r.max, Point::new(5.0, 9.0));
    }

    /// Seeded uniform stream in `[0, 1)` without pulling in `rand`.
    fn lcg(seed: u64) -> impl FnMut() -> f64 {
        let mut s = seed;
        move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// The definition the kernel must reproduce, pair by pair.
    fn brute_force(pts: &[Point], range: f64) -> Vec<Vec<u32>> {
        (0..pts.len())
            .map(|i| {
                (0..pts.len())
                    .filter(|&j| j != i && range > 0.0 && pts[i].within(pts[j], range))
                    .map(|j| j as u32)
                    .collect()
            })
            .collect()
    }

    fn assert_exact(pts: &[Point], range: f64, what: &str) {
        let fast = unit_disk_adjacency(pts, range);
        let want = brute_force(pts, range);
        assert_eq!(fast.len(), pts.len(), "{what}: row count");
        for (i, row) in want.iter().enumerate() {
            assert_eq!(fast.row(i), &row[..], "{what}: row {i}");
        }
    }

    #[test]
    fn adjacency_matches_brute_force() {
        // Seeded uniform fields.
        for seed in [1u64, 7, 0x9E37_79B9_7F4A_7C15] {
            let mut next = lcg(seed);
            let pts: Vec<Point> = (0..300)
                .map(|_| Point::new(next() * 100.0, next() * 100.0))
                .collect();
            for range in [3.0, 17.0, 60.0] {
                assert_exact(&pts, range, &format!("uniform seed {seed} range {range}"));
            }
        }
        // Clustered: many points per cell, plus coincident points.
        let mut next = lcg(5);
        let mut pts: Vec<Point> = (0..400)
            .map(|k| {
                let c = [(10.0, 10.0), (80.0, 35.0), (40.0, 90.0)][k % 3];
                Point::new(c.0 + next() * 6.0, c.1 + next() * 6.0)
            })
            .collect();
        pts.extend([Point::new(12.0, 12.0); 4]);
        assert_exact(&pts, 2.5, "clustered");
        assert_exact(&pts, 25.0, "clustered, wide range");
        // Lattices with neighbours exactly `range` apart, on the origin,
        // offset, and at negative coordinates.
        for (ox, oy, step) in [
            (0.0, 0.0, 7.0),
            (13.3, -2.7, 0.1),
            (-1000.25, -999.5, 2.5),
            (1.0e5 + 0.3, 4.0e4 - 0.7, 25.0),
        ] {
            let pts: Vec<Point> = (0..15)
                .flat_map(|i| {
                    (0..15).map(move |j| Point::new(ox + i as f64 * step, oy + j as f64 * step))
                })
                .collect();
            for range in [step, step * 2f64.sqrt(), step * 2.0] {
                assert_exact(
                    &pts,
                    range,
                    &format!("lattice at ({ox}, {oy}) range {range}"),
                );
            }
        }
        // Negative coordinates and a field that fits in one cell.
        let mut next = lcg(11);
        let neg: Vec<Point> = (0..120)
            .map(|_| Point::new(-50.0 - next() * 40.0, -next() * 40.0))
            .collect();
        assert_exact(&neg, 9.0, "negative coordinates");
        let one_cell: Vec<Point> = (0..40)
            .map(|_| Point::new(3.0 + next(), 4.0 + next()))
            .collect();
        assert_exact(&one_cell, 50.0, "one cell");
        assert_exact(&one_cell, 0.5, "one cell, short range");
        // A far outlier widens the cells without losing exactness.
        let mut outlier = one_cell.clone();
        outlier.push(Point::new(1.0e9, -1.0e9));
        assert_exact(&outlier, 0.5, "far outlier");
        // Tiny and degenerate inputs.
        for n in 0..=2 {
            let pts: Vec<Point> = (0..n).map(|k| Point::new(k as f64 * 3.0, 1.0)).collect();
            for range in [0.0, 2.9, 3.0, 10.0] {
                assert_exact(&pts, range, &format!("n = {n}, range {range}"));
            }
        }
    }

    #[test]
    fn owned_rows_equal_the_full_rows_masked() {
        let mut next = lcg(3);
        let pts: Vec<Point> = (0..500)
            .map(|_| Point::new(next() * 120.0, next() * 80.0))
            .collect();
        let index = CellIndex::build(&pts, 11.0);
        let full = index.adjacency(&pts, |_| true);
        assert_eq!(full, unit_disk_adjacency(&pts, 11.0));
        let strip = |i: usize| pts[i].x < 60.0;
        let two_in_three = |i: usize| i % 3 != 1;
        let none = |_: usize| false;
        let masks: [&dyn Fn(usize) -> bool; 3] = [&strip, &two_in_three, &none];
        for keep in masks {
            let owned = index.adjacency(&pts, keep);
            for i in 0..pts.len() {
                let want: &[u32] = if keep(i) { full.row(i) } else { &[] };
                assert_eq!(owned.row(i), want, "row {i}");
            }
        }
    }

    #[test]
    fn cell_index_buckets_every_point_once_ascending() {
        let mut next = lcg(9);
        let pts: Vec<Point> = (0..200)
            .map(|_| Point::new(next() * 50.0 - 25.0, next() * 50.0))
            .collect();
        let index = CellIndex::build(&pts, 6.0);
        let grid = index.grid();
        let mut seen = vec![0; pts.len()];
        for (i, &p) in pts.iter().enumerate() {
            let cell = index.cell(grid.cell_of(p));
            assert!(cell.windows(2).all(|w| w[0] < w[1]));
            assert!(cell.contains(&(i as u32)), "point {i} not in its cell");
            seen[i] += 1;
        }
        assert!(seen.iter().all(|&k| k == 1));
        assert!(index.cell((-1, 0)).is_empty());
        assert_eq!(grid.reach(6.0), 1);
        assert_eq!(grid.reach(12.5), 3);
    }

    #[test]
    fn adjacency_handles_degenerate_inputs() {
        assert!(unit_disk_adjacency(&[], 10.0).is_empty());
        let one = unit_disk_adjacency(&[Point::new(1.0, 1.0)], 10.0);
        assert_eq!((one.len(), one.row(0)), (1, &[][..]));
        let zero_range = unit_disk_adjacency(&[Point::new(0.0, 0.0); 3], 0.0);
        assert!((0..3).all(|i| zero_range.row(i).is_empty()));
    }
}
