//# lint-path: crates/core/src/store.rs
// True positive: a library default read from the caller's shell.
pub fn default_shards() -> usize {
    std::env::var("ATS_SHARDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}
