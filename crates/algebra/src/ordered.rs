//! Rows kept in one strict total order and patched in place: the two
//! routines behind every materialization the engine maintains — the
//! snowcaps' binding relations and the view store's counted tuples.
//!
//! Both take the order as a closure and a sorted run of changes, find
//! each change from the back of the rows by a search that gallops from
//! the previous one ([`seek_back`]), and move only the rows behind the
//! first change, a block at a time. A point change therefore costs a handful of
//! comparisons, a bulk one that rivals the rows two per row, and rows
//! before the first change are never touched. What *equal* means is the
//! caller's: a snowcap has one row per binding, so an equal row never
//! arrives; the view store adds to and subtracts from a row's count.

use std::cmp::Ordering;
use std::ops::Range;

/// The place of a target among the ordered `rows[..end]`, `ord` giving a
/// row's order relative to it: `Ok(i)` when `rows[i]` equals the target,
/// else `Err(i)`, the index it would enter at. Probes `end - 1, end - 2,
/// end - 4, …` until a row is not greater, then bisects between the last
/// two probes: about `2·log₂ d` comparisons for a target `d` rows from
/// `end`.
pub fn seek_back<T>(
    rows: &[T],
    end: usize,
    mut ord: impl FnMut(&T) -> Ordering,
) -> Result<usize, usize> {
    let mut step = 1;
    while step <= end {
        match ord(&rows[end - step]) {
            Ordering::Greater => step *= 2,
            Ordering::Equal => return Ok(end - step),
            Ordering::Less => break,
        }
    }
    // Left on a row that is less, or ran out of rows: undecided are the
    // rows between the last two probes, the greater one first.
    let lo = if step <= end { end - step + 1 } else { 0 };
    rows[lo..end - step / 2].binary_search_by(ord).map(|i| lo + i).map_err(|i| lo + i)
}

/// `rows.partition_point(pred)`, probing rows `1, 2, 4, …` from the
/// front before bisecting between the last two probes: about `2·log₂ d`
/// tests for an answer `d` rows in — [`seek_back`]'s mirror, for
/// searches that walk forward through the rows.
pub fn seek_front<T>(rows: &[T], mut pred: impl FnMut(&T) -> bool) -> usize {
    let mut step = 1;
    while step <= rows.len() && pred(&rows[step - 1]) {
        step *= 2;
    }
    let lo = step / 2;
    lo + rows[lo..rows.len().min(step - 1)].partition_point(pred)
}

/// Moves the rows at `ranges` — ascending and disjoint — out of `rows`,
/// in order: the stretch from the first range's start to the last one's
/// end is drained, the rows between the ranges put back, so the rows
/// behind it move once, a block at a time, and the rows before it never.
pub fn take<T>(rows: &mut Vec<T>, ranges: &[Range<usize>]) -> Vec<T> {
    let (Some(first), Some(last)) = (ranges.first(), ranges.last()) else { return Vec::new() };
    let (mut taken, mut kept, mut next) = (Vec::new(), Vec::new(), ranges.iter().peekable());
    for (i, row) in (first.start..).zip(rows.drain(first.start..last.end)) {
        while next.next_if(|r| r.end <= i).is_some() {}
        if next.peek().is_some_and(|r| r.start <= i) {
            taken.push(row);
        } else {
            kept.push(row);
        }
    }
    rows.splice(first.start..first.start, kept);
    taken
}

/// Exchanges `block[..mid]` and `block[mid..]`, one of them `gap` slots
/// whose rows are in no order that matters — free slots, dropped rows:
/// a rotation while the gap is the smaller part (one block move, at
/// most twice the rows that had to move), else the rows that have to
/// move swapped with the far end of the gap, which leaves the rest of it
/// where it is. Either way a patch moves O(rows behind its first change).
fn exchange<T>(block: &mut [T], mid: usize, gap: usize) {
    if 2 * gap < block.len() {
        block.rotate_left(mid);
    } else {
        let (front, back) = block.split_at_mut(gap);
        front[..back.len()].swap_with_slice(back);
    }
}

/// Merges the strictly ordered run `new` into the strictly ordered
/// `rows`, from the largest new row down: one equal to an old row is
/// `fold`ed into it, the others enter, the old rows behind each shifted
/// into place once. Returns how many entered. An append past the last
/// row is one comparison and moves nothing.
pub fn absorb<T: Default>(
    rows: &mut Vec<T>,
    new: Vec<T>,
    mut cmp: impl FnMut(&T, &T) -> Ordering,
    mut fold: impl FnMut(&mut T, T),
) -> usize {
    let (mut end, mut entering) = (rows.len(), Vec::with_capacity(new.len()));
    for row in new.into_iter().rev() {
        let found = seek_back(rows, end, |t| cmp(t, &row));
        end = found.unwrap_or_else(|at| at);
        match found {
            Ok(at) => fold(&mut rows[at], row),
            Err(at) => entering.push((at, row)),
        }
    }
    // Old rows `..end` are not yet placed, slots `end..=end + left` are
    // free, and `left` entering rows go before this one.
    let (entered, mut end) = (entering.len(), rows.len());
    rows.resize_with(end + entered, T::default);
    for (placed, (at, row)) in entering.into_iter().enumerate() {
        let left = entered - placed - 1;
        exchange(&mut rows[at..=end + left], end - at, left + 1);
        rows[at + left] = row;
        end = at;
    }
    entered
}

/// Takes the strictly ordered run `lost` out of the strictly ordered
/// `rows`: each entry that equals a row is `take`n from it, and the rows
/// `take` reports empty are dropped by one forward compaction from the
/// first of them, the dropped rows carried to the end. An entry equal
/// to no row is ignored. Returns how many rows were dropped.
pub fn remove<T, L>(
    rows: &mut Vec<T>,
    lost: &[L],
    mut cmp: impl FnMut(&T, &L) -> Ordering,
    mut take: impl FnMut(&mut T, &L) -> bool,
) -> usize {
    let (mut holes, mut end) = (Vec::with_capacity(lost.len()), rows.len());
    for entry in lost.iter().rev() {
        let found = seek_back(rows, end, |t| cmp(t, entry));
        end = found.unwrap_or_else(|at| at);
        if found.is_ok() && take(&mut rows[end], entry) {
            holes.push(end);
        }
    }
    // Each stretch of rows between two holes moves left by the number of
    // holes before it (`holes` is descending).
    let ends = holes.iter().rev().skip(1).copied().chain([rows.len()]);
    for (before, (hole, end)) in holes.iter().rev().zip(ends).enumerate() {
        exchange(&mut rows[hole - before..end], before + 1, before + 1);
    }
    rows.truncate(rows.len() - holes.len());
    holes.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// Counted rows over integer keys, the view store's shape.
    type Row = (u32, u64);

    fn evens(n: u32) -> Vec<Row> {
        (0..n).map(|k| (2 * k, 1)).collect()
    }

    fn absorb_counted(rows: &mut Vec<Row>, new: Vec<Row>, calls: &Cell<usize>) -> usize {
        let cmp = |a: &Row, b: &Row| {
            calls.set(calls.get() + 1);
            a.0.cmp(&b.0)
        };
        absorb(rows, new, cmp, |row, new| row.1 += new.1)
    }

    fn remove_counted(rows: &mut Vec<Row>, lost: &[Row], calls: &Cell<usize>) -> usize {
        let cmp = |a: &Row, b: &Row| {
            calls.set(calls.get() + 1);
            a.0.cmp(&b.0)
        };
        remove(rows, lost, cmp, |row, lost| {
            row.1 = row.1.saturating_sub(lost.1);
            row.1 == 0
        })
    }

    fn strictly_ordered(rows: &[Row]) -> bool {
        rows.windows(2).all(|w| w[0].0 < w[1].0) && rows.iter().all(|r| r.1 > 0)
    }

    /// The writers follow |Δ|: comparisons counted, not time measured.
    #[test]
    fn a_point_patch_costs_a_logarithm_of_comparisons_wherever_it_lands() {
        let n = 10_000u32;
        let bound = 2 * (n as f64).log2().ceil() as usize + 4;
        for key in [1, 2 * 17 + 1, n + 1, 2 * n - 3] {
            let (mut rows, calls) = (evens(n), Cell::new(0));
            assert_eq!(absorb_counted(&mut rows, vec![(key, 1)], &calls), 1);
            assert!(calls.get() <= bound, "absorb at {key}: {} > {bound}", calls.get());
            assert_eq!(rows.len(), n as usize + 1);
            assert!(strictly_ordered(&rows));
            calls.set(0);
            assert_eq!(remove_counted(&mut rows, &[(key, 1)], &calls), 1);
            assert!(calls.get() <= bound, "remove at {key}: {} > {bound}", calls.get());
            assert_eq!(rows, evens(n));
        }
    }

    #[test]
    fn an_append_past_the_last_row_is_one_comparison_and_moves_nothing() {
        let (mut rows, calls) = (evens(10_000), Cell::new(0));
        rows.reserve(1);
        let first_row = rows.as_ptr();
        assert_eq!(absorb_counted(&mut rows, vec![(20_000, 3)], &calls), 1);
        assert_eq!(calls.get(), 1, "the last row is less: nothing behind the new one");
        assert_eq!(rows.as_ptr(), first_row);
        assert_eq!(rows[..10_000], evens(10_000));
        assert_eq!(rows[10_000], (20_000, 3));
    }

    #[test]
    fn a_run_that_rivals_the_rows_costs_two_comparisons_per_row() {
        let n = 5_000u32;
        let odds: Vec<Row> = (0..n).map(|k| (2 * k + 1, 1)).collect();
        let (mut rows, calls) = (evens(n), Cell::new(0));
        assert_eq!(absorb_counted(&mut rows, odds.clone(), &calls), n as usize);
        assert!(calls.get() <= 2 * n as usize, "absorb: {}", calls.get());
        assert_eq!(rows, (0..2 * n).map(|k| (k, 1)).collect::<Vec<_>>());
        calls.set(0);
        assert_eq!(remove_counted(&mut rows, &odds, &calls), n as usize);
        assert!(calls.get() <= 2 * n as usize, "remove: {}", calls.get());
        assert_eq!(rows, evens(n));
    }

    /// What the snowcaps never had: a row is a key with a count.
    #[test]
    fn equal_keys_add_to_and_subtract_from_the_count() {
        let (mut rows, calls) = (evens(4), Cell::new(0));
        // onto an existing key: the count grows, no row enters
        assert_eq!(absorb_counted(&mut rows, vec![(2, 2), (3, 1), (6, 4)], &calls), 1);
        assert_eq!(rows, vec![(0, 1), (2, 3), (3, 1), (4, 1), (6, 5)]);
        // part of a count keeps the row, all of it (or more) drops it,
        // and a key that is no row is ignored
        assert_eq!(remove_counted(&mut rows, &[(2, 1), (3, 1), (5, 9), (6, 7)], &calls), 2);
        assert_eq!(rows, vec![(0, 1), (2, 2), (4, 1)]);
        assert_eq!(remove_counted(&mut rows, &[(0, 1), (2, 2), (4, 1)], &calls), 3);
        assert!(rows.is_empty());
        assert_eq!(remove_counted(&mut rows, &[(1, 1)], &calls), 0);
        assert_eq!(absorb_counted(&mut rows, vec![(7, 1), (9, 2)], &calls), 2);
        assert_eq!(rows, vec![(7, 1), (9, 2)]);
    }

    #[test]
    fn seek_front_is_partition_point_in_a_logarithm_of_the_answer() {
        let rows: Vec<u32> = (0..1000).collect();
        for answer in [0, 1, 2, 3, 7, 8, 500, 999, 1000] {
            let calls = Cell::new(0);
            let pred = |r: &u32| {
                calls.set(calls.get() + 1);
                *r < answer
            };
            assert_eq!(seek_front(&rows, pred), answer as usize);
            let bound = 2 * (answer as f64 + 1.0).log2().ceil() as usize + 2;
            assert!(calls.get() <= bound, "answer {answer}: {} > {bound}", calls.get());
        }
        assert_eq!(seek_front(&[] as &[u32], |_| true), 0);
    }

    #[test]
    fn take_moves_the_ranges_out_in_order() {
        let mut rows: Vec<u32> = (0..10).collect();
        assert_eq!(take(&mut rows, &[1..3, 3..4, 7..10]), vec![1, 2, 3, 7, 8, 9]);
        assert_eq!(rows, vec![0, 4, 5, 6]);
        assert!(take(&mut rows, &[]).is_empty());
        assert_eq!(take(&mut rows, &[0..1, 1..4]), vec![0, 4, 5, 6]);
        assert!(rows.is_empty());
    }

    #[test]
    fn patches_agree_with_a_sorted_rebuild() {
        let mut rows: Vec<Row> = (0..200).map(|k| (3 * k, 1)).collect();
        let calls = Cell::new(0);
        for round in 0..40u32 {
            let new: Vec<Row> = (0..7).map(|k| (round * 13 + k * 41, 1)).collect();
            let mut want = rows.clone();
            for (key, c) in &new {
                match want.binary_search_by_key(key, |r| r.0) {
                    Ok(i) => want[i].1 += c,
                    Err(i) => want.insert(i, (*key, *c)),
                }
            }
            absorb_counted(&mut rows, new, &calls);
            assert_eq!(rows, want, "round {round}");
            let lost: Vec<Row> = rows.iter().skip(round as usize).step_by(9).copied().collect();
            want.retain(|r| !lost.contains(r));
            assert_eq!(remove_counted(&mut rows, &lost, &calls), lost.len());
            assert_eq!(rows, want, "round {round}");
        }
    }
}
