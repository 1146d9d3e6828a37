//! Baseline placement: no reordering.

use super::Placement;

/// The base architecture's placement: logical instruction `l` occupies
/// physical slot `l`, so clusters fill in program order.
///
/// # Panics
///
/// Panics if `n` exceeds [`ctcp_tracecache::MAX_TRACE_LEN`].
pub fn baseline_placement(n: usize) -> Placement {
    let mut p = Placement::zeroed(n);
    for (l, slot) in p.iter_mut().enumerate() {
        *slot = l as u8;
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity() {
        assert_eq!(baseline_placement(4), vec![0, 1, 2, 3]);
        assert_eq!(baseline_placement(0), Vec::<u8>::new());
    }
}
