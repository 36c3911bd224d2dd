//# lint-path: crates/query/src/engine.rs
// True positive: a hand-rolled thread scope outside the one fork-join.
pub fn sum_halves(a: &[u64], b: &[u64]) -> u64 {
    crossbeam::thread::scope(|s| {
        let ha = s.spawn(|_| a.iter().sum::<u64>());
        let hb = s.spawn(|_| b.iter().sum::<u64>());
        ha.join().unwrap_or(0) + hb.join().unwrap_or(0)
    })
    .unwrap_or(0)
}
