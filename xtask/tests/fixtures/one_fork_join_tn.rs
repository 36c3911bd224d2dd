//# lint-path: crates/compress/src/par.rs
// True negative: the one fork-join may name the scoped-thread crate.
pub fn sum_halves(a: &[u64], b: &[u64]) -> u64 {
    crossbeam::thread::scope(|s| {
        let ha = s.spawn(|_| a.iter().sum::<u64>());
        let hb = s.spawn(|_| b.iter().sum::<u64>());
        ha.join().unwrap_or(0) + hb.join().unwrap_or(0)
    })
    .unwrap_or(0)
}
