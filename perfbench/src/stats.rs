//! Order statistics over measured samples.

/// Median of `v` (mean of the middle pair for an even count; 0 when
/// empty). Sorts `v` in place.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// The `p`-th percentile of whole-round samples, read as grouped data:
/// a sample `x` stands for a delivery somewhere in `[x − ½, x + ½)`, and
/// the percentile is interpolated inside the group it falls in (0 when
/// empty). Unlike a nearest-rank percentile it does not jump by a whole
/// round when a few samples move. Sorts `v` in place.
pub fn grouped_percentile(v: &mut [u64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable();
    let target = (p / 100.0) * v.len() as f64;
    let mut below = 0usize;
    for group in v.chunk_by(|a, b| a == b) {
        let upto = below + group.len();
        if upto as f64 >= target {
            let inside = (target - below as f64) / group.len() as f64;
            return group[0] as f64 - 0.5 + inside;
        }
        below = upto;
    }
    v[v.len() - 1] as f64 + 0.5
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        // 10 samples of 2 and 10 of 3: half lie in [1.5, 2.5).
        let mut v: Vec<u64> = [2; 10].into_iter().chain([3; 10]).collect();
        assert_eq!(grouped_percentile(&mut v, 50.0), 2.5);
        assert_eq!(grouped_percentile(&mut v, 25.0), 2.0);
        assert_eq!(grouped_percentile(&mut v, 100.0), 3.5);
    }
}
