//# lint-path: crates/core/src/store.rs
// True negative: the process's own arguments and the temp directory are
// not ambient configuration, and tests may read what they like.
pub fn first_arg() -> Option<String> {
    std::env::args().nth(1)
}

pub fn scratch() -> std::path::PathBuf {
    std::env::temp_dir().join("scratch")
}

#[cfg(test)]
mod tests {
    #[test]
    fn reads_env_in_tests() {
        let _ = std::env::var("HOME");
    }
}
