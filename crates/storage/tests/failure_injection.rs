//! Failure injection: the storage layer must detect, not propagate,
//! corrupted and half-written files, and the cache must stay correct
//! under churn and odd geometries.
//!
//! The store-directory suites at the bottom drive the crash-safety
//! contract: a save interrupted at *any* kill point leaves either the
//! previous valid store or a clean absence, and any
//! truncated/deleted/bit-flipped component surfaces as
//! `AtsError::Corrupt` — never a panic, an OOM, or a store that opens
//! and serves wrong data. Legacy v2 directories are read-only, so their
//! suite corrupts a copy of the committed golden fixture.

use ats_common::AtsError;
use ats_linalg::Matrix;
use ats_storage::file::{read_matrix, write_matrix, MatrixFileWriter};
use ats_storage::store_dir::{
    shard_dir_name, tblock_dir_name, validate_timeblocked_store_dir, write_sharded_manifest_into,
    write_timeblocked_manifest_into, ShardEntry, ShardedManifest, TimeBlockEntry,
    TimeBlockedManifest, MANIFEST_FILE, SHARD_FILES,
};
use ats_storage::synopsis::{SynopsisBuilder, SYNOPSIS_FILE};
use ats_storage::{CachedFile, MatrixFile, StoreWriter};
use std::path::Path;
use std::sync::Arc;

fn dir() -> ats_common::TestDir {
    ats_common::TestDir::new("ats-failinj")
}

/// The full check of a one-block (v2 or v3) store directory — the one
/// validator every store goes through — returning its block's manifest.
fn validate_one_block(dir: &Path) -> ats_common::Result<ShardedManifest> {
    let (top, mut blocks) = validate_timeblocked_store_dir(dir)?;
    assert_eq!(top.blocks.len(), 1, "a one-block store");
    Ok(blocks.remove(0))
}

/// Seal the one-block store staged in `w` with its manifest, then swap
/// it into place.
fn commit_one_block(w: StoreWriter, m: ShardedManifest) -> ats_common::Result<()> {
    write_sharded_manifest_into(w.path(), m)?;
    w.commit_dir()
}

/// Seal the time blocks staged in `w` with their block table, then swap
/// the store into place.
fn commit_block_table(w: StoreWriter, m: TimeBlockedManifest) -> ats_common::Result<()> {
    write_timeblocked_manifest_into(w.path(), m)?;
    w.commit_dir()
}

fn sample(n: usize, m: usize) -> Matrix {
    Matrix::from_fn(n, m, |i, j| (i * m + j) as f64 * 0.5)
}

#[test]
fn unfinished_writer_leaves_unopenable_file() {
    let dir = dir();
    let path = dir.file("unfinished.atsm");
    {
        let mut w = MatrixFileWriter::create(&path, 4).unwrap();
        w.append_row(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        // dropped without finish(): header stays zeroed
    }
    let err = match MatrixFile::open(&path) {
        Err(e) => e,
        Ok(_) => panic!("unfinished file must not open"),
    };
    assert!(err.to_string().contains("magic"), "{err}");
}

#[test]
fn bitflip_in_header_detected() {
    let dir = dir();
    let path = dir.file("bitflip.atsm");
    write_matrix(&path, &sample(5, 3)).unwrap();
    for byte in [9usize, 17, 25, 33] {
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[byte] ^= 0x01;
        let victim = dir.file(format!("bitflip-{byte}.atsm"));
        std::fs::write(&victim, &bytes).unwrap();
        assert!(
            MatrixFile::open(&victim).is_err(),
            "flip at {byte} accepted"
        );
    }
}

#[test]
fn truncation_at_every_boundary_detected() {
    let dir = dir();
    let path = dir.file("alltrunc.atsm");
    write_matrix(&path, &sample(4, 2)).unwrap();
    let full = std::fs::read(&path).unwrap();
    for cut in [0usize, 10, 47, 48, full.len() - 1] {
        let victim = dir.file(format!("alltrunc-{cut}.atsm"));
        std::fs::write(&victim, &full[..cut]).unwrap();
        assert!(MatrixFile::open(&victim).is_err(), "cut at {cut} accepted");
    }
}

#[test]
fn data_corruption_changes_values_but_not_safety() {
    let dir = dir();
    // Data-region corruption is not checksummed per cell (by design: the
    // header guards metadata); reads must still be memory-safe and
    // return *some* finite-or-not value rather than erroring.
    let path = dir.file("datacorrupt.atsm");
    let m = sample(10, 4);
    write_matrix(&path, &m).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    let off = 48 + 3 * 32 + 8; // row 3, col 1
    bytes[off] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();
    let f = MatrixFile::open(&path).unwrap();
    let row3 = f.read_row(3).unwrap();
    assert_ne!(row3[1], m[(3, 1)]);
    assert_eq!(row3[0], m[(3, 0)]);
    assert_eq!(f.read_row(2).unwrap(), m.row(2));
}

#[test]
fn cache_correct_under_heavy_churn() {
    let dir = dir();
    let path = dir.file("churn.atsm");
    let m = sample(128, 6);
    write_matrix(&path, &m).unwrap();
    let file = Arc::new(MatrixFile::open(&path).unwrap());
    let cf = CachedFile::row_aligned(Arc::clone(&file), 3); // absurdly small pool
                                                            // Pseudo-random access pattern, every row eventually touched.
    let mut i = 7usize;
    for step in 0..2000 {
        i = (i * 31 + 17) % 128;
        assert_eq!(cf.read_row(i).unwrap(), m.row(i), "row {i}");
        if step % 5 == 0 {
            // immediate re-read: must hit the tiny pool
            assert_eq!(cf.read_row(i).unwrap(), m.row(i));
        }
    }
    assert_eq!(cf.stats().cache_hits(), 400, "every re-read hits");
    assert_eq!(
        cf.stats().physical_reads(),
        2000,
        "every fresh row misses a 3-page pool"
    );
}

#[test]
fn cached_f32_file_roundtrips() {
    let dir = dir();
    let path = dir.file("cachedf32.atsm");
    let m = sample(20, 5);
    let mut w = MatrixFileWriter::create_f32(&path, 5).unwrap();
    for row in m.iter_rows() {
        w.append_row(row).unwrap();
    }
    w.finish().unwrap();
    let file = Arc::new(MatrixFile::open(&path).unwrap());
    let cf = CachedFile::row_aligned(file, 8);
    for i in 0..20 {
        let got = cf.read_row(i).unwrap();
        for (a, b) in got.iter().zip(m.row(i)) {
            assert!((a - b).abs() < 1e-3);
        }
    }
}

#[test]
fn tiny_pages_spanning_rows_under_churn() {
    let dir = dir();
    let path = dir.file("tinypages.atsm");
    let m = sample(40, 10); // 80-byte rows, one per page
    write_matrix(&path, &m).unwrap();
    let file = Arc::new(MatrixFile::open(&path).unwrap());
    let cf = CachedFile::row_aligned(file, 5); // a pool of 5 rows out of 40
    let mut i = 3usize;
    for _ in 0..500 {
        i = (i * 13 + 7) % 40;
        assert_eq!(cf.read_row(i).unwrap(), m.row(i));
    }
}

#[test]
fn empty_and_single_cell_files() {
    let dir = dir();
    let p1 = dir.file("empty2.atsm");
    let w = MatrixFileWriter::create(&p1, 3).unwrap();
    w.finish().unwrap();
    let f = MatrixFile::open(&p1).unwrap();
    assert_eq!(f.rows(), 0);
    assert!(f.read_row(0).is_err());

    let p2 = dir.file("single.atsm");
    let m = Matrix::from_rows(vec![vec![42.0]]).unwrap();
    write_matrix(&p2, &m).unwrap();
    assert!(read_matrix(&p2).unwrap().approx_eq(&m, 0.0));
}

#[test]
fn zero_length_file_rejected() {
    let dir = dir();
    let p = dir.file("zerolen.atsm");
    std::fs::write(&p, b"").unwrap();
    assert!(MatrixFile::open(&p).is_err());
}

#[test]
fn directory_instead_of_file_rejected() {
    let dir = dir();
    let d = dir.file("iamadir.atsm");
    std::fs::create_dir_all(&d).unwrap();
    assert!(MatrixFile::open(&d).is_err());
}

// ---------------------------------------------------------------------
// Legacy store-directory (format v2) corruption suite, over a scratch
// copy of the golden fixture the retired v2 writer produced. (Staging,
// fsync, and rename kill points are format-independent `StoreWriter`
// behaviour: the v3 and v4 suites below drive them.)
// ---------------------------------------------------------------------

/// The four top-level component files of a v2 directory.
const V2_FILES: [&str; 4] = ["u.atsm", "v.atsm", "lambda.atsm", "deltas.bin"];

fn v2_fixture_copy(dir: &ats_common::TestDir) -> std::path::PathBuf {
    dir.copy_of(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v2-store"),
        "store",
    )
}

#[test]
fn v2_every_component_truncation_deletion_bitflip_is_corrupt() {
    let dir = dir();
    let target = v2_fixture_copy(&dir);
    assert_eq!(validate_one_block(&target).unwrap().source_version, 2);

    for name in V2_FILES {
        let path = target.join(name);
        let pristine = std::fs::read(&path).unwrap();

        // Truncation at several depths, including to zero bytes.
        for cut in [0usize, 1, pristine.len() / 2, pristine.len() - 1] {
            std::fs::write(&path, &pristine[..cut]).unwrap();
            match validate_timeblocked_store_dir(&target) {
                Err(AtsError::Corrupt(_)) => {}
                other => panic!("{name} cut at {cut}: {other:?}"),
            }
        }

        // Bit flips at several offsets.
        for off in [0usize, pristine.len() / 3, pristine.len() - 1] {
            let mut bytes = pristine.clone();
            bytes[off] ^= 0x40;
            std::fs::write(&path, &bytes).unwrap();
            match validate_timeblocked_store_dir(&target) {
                Err(AtsError::Corrupt(_)) => {}
                other => panic!("{name} flip at {off}: {other:?}"),
            }
        }

        // Deletion.
        std::fs::remove_file(&path).unwrap();
        match validate_timeblocked_store_dir(&target) {
            Err(AtsError::Corrupt(_)) => {}
            other => panic!("{name} deleted: {other:?}"),
        }

        std::fs::write(&path, &pristine).unwrap();
        validate_timeblocked_store_dir(&target).unwrap();
    }
}

#[test]
fn v2_manifest_tampering_is_corrupt() {
    let dir = dir();
    let target = v2_fixture_copy(&dir);
    let path = target.join(MANIFEST_FILE);
    let pristine = std::fs::read(&path).unwrap();

    // Any single-byte flip anywhere in the manifest must be rejected.
    for off in 0..pristine.len() {
        let mut bytes = pristine.clone();
        bytes[off] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(
            validate_timeblocked_store_dir(&target).is_err(),
            "manifest flip at {off} accepted"
        );
    }

    // Deleting the manifest makes the directory a corrupt store, not a
    // mystery I/O failure.
    std::fs::remove_file(&path).unwrap();
    assert!(matches!(
        validate_timeblocked_store_dir(&target),
        Err(AtsError::Corrupt(_))
    ));
}

// ---------------------------------------------------------------------
// Sharded store-directory (format v3) kill-point and corruption suite.
// ---------------------------------------------------------------------

const DEMO_SHARDS: usize = 3;

fn demo_sharded_manifest() -> ShardedManifest {
    let entries = (0..DEMO_SHARDS)
        .map(|i| ShardEntry {
            start: i * 2,
            end: (i + 1) * 2,
            deltas: 0,
            crc_u: 0,
            crc_deltas: 0,
            crc_synopsis: None, // autodetected from the staged files
            append_sse: None,
        })
        .collect();
    ShardedManifest {
        method: "svdd".into(),
        rows: 2 * DEMO_SHARDS,
        cols: 3,
        k: 2,
        deltas: 0,
        bloom: false,
        crc_v: 0,
        crc_lambda: 0,
        shards: entries,
        source_version: 0, // filled in by write_sharded_manifest_into
    }
}

/// Every component file of a multi-shard save in the order the save
/// writes them: shared factors first, then each shard's partition
/// (`U`, deltas, and the zone-map synopsis).
fn sharded_component_files() -> Vec<String> {
    let mut files = vec!["v.atsm".to_string(), "lambda.atsm".to_string()];
    for i in 0..DEMO_SHARDS {
        for name in SHARD_FILES {
            files.push(format!("{}/{name}", shard_dir_name(i)));
        }
        files.push(format!("{}/{SYNOPSIS_FILE}", shard_dir_name(i)));
    }
    files
}

/// A real encoded 2-row synopsis, so the demo stores exercise the same
/// bytes the emitter writes (the corruption loops then cover it).
fn demo_synopsis_bytes(cols: usize, tag: f64) -> Vec<u8> {
    let mut b = SynopsisBuilder::new(2, cols).unwrap();
    for i in 0..2 {
        let row: Vec<f64> = (0..cols).map(|j| tag + (i * cols + j) as f64).collect();
        b.push_row(&row).unwrap();
    }
    b.finish().unwrap().encode()
}

/// Stage and commit a valid multi-shard store at `target`, returning the
/// committed bytes of shard 1's `u.atsm` as a probe value.
fn commit_demo_sharded_store(target: &Path, tag: f64) -> Vec<u8> {
    let w = StoreWriter::begin(target).unwrap();
    write_matrix(
        w.path().join("v.atsm"),
        &Matrix::from_fn(3, 2, |i, j| tag + (i + j) as f64),
    )
    .unwrap();
    write_matrix(
        w.path().join("lambda.atsm"),
        &Matrix::from_fn(1, 2, |_, j| (j + 1) as f64),
    )
    .unwrap();
    for s in 0..DEMO_SHARDS {
        let shard = w.path().join(shard_dir_name(s));
        std::fs::create_dir_all(&shard).unwrap();
        write_matrix(
            shard.join("u.atsm"),
            &Matrix::from_fn(2, 2, |i, j| tag + (s * 4 + i * 2 + j) as f64),
        )
        .unwrap();
        std::fs::write(shard.join("deltas.bin"), [tag as u8; 8]).unwrap();
        std::fs::write(shard.join(SYNOPSIS_FILE), demo_synopsis_bytes(3, tag)).unwrap();
    }
    commit_one_block(w, demo_sharded_manifest()).unwrap();
    let m = validate_one_block(target).unwrap();
    assert!(
        m.shards.iter().all(|s| s.crc_synopsis.is_some()),
        "every staged synopsis must be CRC-pinned by the commit"
    );
    std::fs::read(target.join(shard_dir_name(1)).join("u.atsm")).unwrap()
}

#[test]
fn sharded_kill_point_at_every_save_stage_preserves_old_store() {
    let dir = dir();
    let target = dir.file("store");
    let old_u1 = commit_demo_sharded_store(&target, 50.0);
    let files = sharded_component_files();

    // Crash after each component write of a new multi-shard save: the
    // staged temp dir holds a strict prefix of the new generation (no
    // manifest, no commit). The committed store stays valid and
    // byte-identical at every one of the kill points.
    for stage in 0..=files.len() {
        let staged = dir.file(format!(".store.tmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&staged);
        std::fs::create_dir_all(&staged).unwrap();
        for name in &files[..stage] {
            let path = staged.join(name);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(path, b"partial new generation").unwrap();
        }
        let m = validate_one_block(&target).unwrap_or_else(|e| panic!("stage {stage}: {e}"));
        assert_eq!(m.shards.len(), DEMO_SHARDS, "stage {stage}");
        assert_eq!(
            std::fs::read(target.join(shard_dir_name(1)).join("u.atsm")).unwrap(),
            old_u1,
            "stage {stage}: old store must be untouched"
        );
        std::fs::remove_dir_all(&staged).unwrap();
    }

    // A crash inside the swap window (old renamed aside, new not yet in
    // place) leaves a clean absence, not a torn store.
    let aside = dir.file(".store.old-sim");
    std::fs::rename(&target, &aside).unwrap();
    assert!(matches!(validate_one_block(&target), Err(AtsError::Io(_))));
    std::fs::rename(&aside, &target).unwrap();
    validate_one_block(&target).unwrap();
}

#[test]
fn sharded_interrupted_save_never_exposes_new_data_early() {
    // Even with every shard fully staged, the store at `target` is the
    // old generation until the commit rename lands.
    let dir = dir();
    let target = dir.file("store");
    let old_u1 = commit_demo_sharded_store(&target, 1.0);
    {
        let w = StoreWriter::begin(&target).unwrap();
        for name in sharded_component_files() {
            let path = w.path().join(&name);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(path, b"new generation, never committed").unwrap();
        }
        // Writer dropped without a commit: crash-before-rename.
    }
    validate_one_block(&target).unwrap();
    assert_eq!(
        std::fs::read(target.join(shard_dir_name(1)).join("u.atsm")).unwrap(),
        old_u1
    );
}

#[test]
fn sharded_commit_without_staged_shard_is_rejected() {
    // Committing with a manifest that names a shard whose files were
    // never staged must fail the commit and leave no store behind.
    let dir = dir();
    let target = dir.file("store");
    let w = StoreWriter::begin(&target).unwrap();
    write_matrix(
        w.path().join("v.atsm"),
        &Matrix::from_fn(3, 2, |i, j| (i + j) as f64),
    )
    .unwrap();
    write_matrix(
        w.path().join("lambda.atsm"),
        &Matrix::from_fn(1, 2, |_, j| (j + 1) as f64),
    )
    .unwrap();
    // Stage shard 0 only; the manifest claims DEMO_SHARDS of them.
    let shard0 = w.path().join(shard_dir_name(0));
    std::fs::create_dir_all(&shard0).unwrap();
    std::fs::write(shard0.join("u.atsm"), b"u").unwrap();
    std::fs::write(shard0.join("deltas.bin"), b"d").unwrap();
    match commit_one_block(w, demo_sharded_manifest()) {
        Err(AtsError::InvalidArgument(msg)) => assert!(msg.contains("shard 1"), "{msg}"),
        other => panic!("commit with missing shard: {other:?}"),
    }
    assert!(!target.exists(), "failed commit must not create the store");
}

#[test]
fn sharded_every_component_truncation_deletion_bitflip_is_corrupt() {
    let dir = dir();
    let target = dir.file("store");
    commit_demo_sharded_store(&target, 7.0);

    for name in sharded_component_files() {
        let path = target.join(&name);
        let pristine = std::fs::read(&path).unwrap();

        // Truncation at several depths, including to zero bytes.
        for cut in [0usize, 1, pristine.len() / 2, pristine.len() - 1] {
            std::fs::write(&path, &pristine[..cut]).unwrap();
            match validate_one_block(&target) {
                Err(AtsError::Corrupt(_)) => {}
                other => panic!("{name} cut at {cut}: {other:?}"),
            }
        }

        // Bit flips at several offsets.
        for off in [0usize, pristine.len() / 3, pristine.len() - 1] {
            let mut bytes = pristine.clone();
            bytes[off] ^= 0x40;
            std::fs::write(&path, &bytes).unwrap();
            match validate_one_block(&target) {
                Err(AtsError::Corrupt(_)) => {}
                other => panic!("{name} flip at {off}: {other:?}"),
            }
        }

        // Deletion.
        std::fs::remove_file(&path).unwrap();
        match validate_one_block(&target) {
            Err(AtsError::Corrupt(_)) => {}
            other => panic!("{name} deleted: {other:?}"),
        }

        std::fs::write(&path, &pristine).unwrap();
        validate_one_block(&target).unwrap();
    }

    // Losing a whole shard directory is corruption too.
    let shard = target.join(shard_dir_name(DEMO_SHARDS - 1));
    std::fs::remove_dir_all(&shard).unwrap();
    assert!(matches!(
        validate_one_block(&target),
        Err(AtsError::Corrupt(_))
    ));
}

#[test]
fn sharded_manifest_tampering_is_corrupt() {
    let dir = dir();
    let target = dir.file("store");
    commit_demo_sharded_store(&target, 3.0);
    let path = target.join(MANIFEST_FILE);
    let pristine = std::fs::read(&path).unwrap();

    // Any single-byte flip anywhere in the sharded manifest — version,
    // row ranges, per-shard CRCs, the self-checksum — must be rejected.
    for off in 0..pristine.len() {
        let mut bytes = pristine.clone();
        bytes[off] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(
            validate_one_block(&target).is_err(),
            "manifest flip at {off} accepted"
        );
    }

    std::fs::remove_file(&path).unwrap();
    assert!(matches!(
        validate_one_block(&target),
        Err(AtsError::Corrupt(_))
    ));
}

// ---------------------------------------------------------------------
// Time-blocked store-directory (format v4) kill-point and corruption
// suite: two time blocks, each a complete nested v3 store with two
// row shards.
// ---------------------------------------------------------------------

const DEMO_TBLOCKS: usize = 2;
const DEMO_BLOCK_COLS: usize = 3;
const DEMO_BLOCK_SHARDS: usize = 2;

fn demo_block_manifest() -> ShardedManifest {
    let entries = (0..DEMO_BLOCK_SHARDS)
        .map(|i| ShardEntry {
            start: i * 2,
            end: (i + 1) * 2,
            deltas: 0,
            crc_u: 0,
            crc_deltas: 0,
            crc_synopsis: None, // autodetected from the staged files
            append_sse: None,
        })
        .collect();
    ShardedManifest {
        method: "svdd".into(),
        rows: 2 * DEMO_BLOCK_SHARDS,
        cols: DEMO_BLOCK_COLS,
        k: 2,
        deltas: 0,
        bloom: false,
        crc_v: 0,
        crc_lambda: 0,
        shards: entries,
        source_version: 0, // filled in by write_sharded_manifest_into
    }
}

fn demo_timeblocked_manifest() -> TimeBlockedManifest {
    let blocks = (0..DEMO_TBLOCKS)
        .map(|b| TimeBlockEntry {
            start: b * DEMO_BLOCK_COLS,
            end: (b + 1) * DEMO_BLOCK_COLS,
            sse: Some(0.25),
            crc_manifest: 0, // filled in by write_timeblocked_manifest_into
        })
        .collect();
    TimeBlockedManifest {
        method: "svdd".into(),
        rows: 2 * DEMO_BLOCK_SHARDS,
        cols: DEMO_TBLOCKS * DEMO_BLOCK_COLS,
        bloom: false,
        blocks,
        source_version: 0, // stamped v4 by write_timeblocked_manifest_into
    }
}

/// Every file of a multi-block save in the order the save writes them:
/// per block, the shared factors, then each row shard's partition, then
/// the nested v3 manifest that seals the block.
fn timeblocked_component_files() -> Vec<String> {
    let mut files = Vec::new();
    for b in 0..DEMO_TBLOCKS {
        let block = tblock_dir_name(b);
        files.push(format!("{block}/v.atsm"));
        files.push(format!("{block}/lambda.atsm"));
        for s in 0..DEMO_BLOCK_SHARDS {
            for name in SHARD_FILES {
                files.push(format!("{block}/{}/{name}", shard_dir_name(s)));
            }
            files.push(format!("{block}/{}/{SYNOPSIS_FILE}", shard_dir_name(s)));
        }
        files.push(format!("{block}/{MANIFEST_FILE}"));
    }
    files
}

/// Stage the components of time block `b` under `dir/tblock-NNNN/` and
/// seal the block with its nested v3 manifest.
fn stage_demo_block(dir: &Path, b: usize, tag: f64) {
    let block = dir.join(tblock_dir_name(b));
    std::fs::create_dir_all(&block).unwrap();
    write_matrix(
        block.join("v.atsm"),
        &Matrix::from_fn(DEMO_BLOCK_COLS, 2, |i, j| tag + (b * 9 + i + j) as f64),
    )
    .unwrap();
    write_matrix(
        block.join("lambda.atsm"),
        &Matrix::from_fn(1, 2, |_, j| (j + 1) as f64),
    )
    .unwrap();
    for s in 0..DEMO_BLOCK_SHARDS {
        let shard = block.join(shard_dir_name(s));
        std::fs::create_dir_all(&shard).unwrap();
        write_matrix(
            shard.join("u.atsm"),
            &Matrix::from_fn(2, 2, |i, j| tag + (b * 31 + s * 4 + i * 2 + j) as f64),
        )
        .unwrap();
        std::fs::write(shard.join("deltas.bin"), [tag as u8 ^ b as u8; 8]).unwrap();
        std::fs::write(
            shard.join(SYNOPSIS_FILE),
            demo_synopsis_bytes(DEMO_BLOCK_COLS, tag + (b * 7 + s) as f64),
        )
        .unwrap();
    }
    write_sharded_manifest_into(&block, demo_block_manifest()).unwrap();
}

/// Stage and commit a valid two-block v4 store at `target`, returning
/// the committed bytes of block 1 / shard 1's `u.atsm` as a probe.
fn commit_demo_timeblocked_store(target: &Path, tag: f64) -> Vec<u8> {
    let w = StoreWriter::begin(target).unwrap();
    for b in 0..DEMO_TBLOCKS {
        stage_demo_block(w.path(), b, tag);
    }
    commit_block_table(w, demo_timeblocked_manifest()).unwrap();
    std::fs::read(
        target
            .join(tblock_dir_name(1))
            .join(shard_dir_name(1))
            .join("u.atsm"),
    )
    .unwrap()
}

#[test]
fn timeblocked_kill_point_at_every_save_stage_preserves_old_store() {
    let dir = dir();
    let target = dir.file("store");
    let old_u = commit_demo_timeblocked_store(&target, 60.0);
    let files = timeblocked_component_files();

    // Crash after each file write of a new multi-block save — including
    // after each block's nested manifest is sealed but before the
    // top-level commit. The committed store stays valid and
    // byte-identical at every kill point.
    for stage in 0..=files.len() {
        let staged = dir.file(format!(".store.tmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&staged);
        std::fs::create_dir_all(&staged).unwrap();
        for name in &files[..stage] {
            let path = staged.join(name);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(path, b"partial new generation").unwrap();
        }
        let (m, blocks) = validate_timeblocked_store_dir(&target)
            .unwrap_or_else(|e| panic!("stage {stage}: {e}"));
        assert_eq!(m.blocks.len(), DEMO_TBLOCKS, "stage {stage}");
        assert_eq!(blocks.len(), DEMO_TBLOCKS, "stage {stage}");
        assert_eq!(
            std::fs::read(
                target
                    .join(tblock_dir_name(1))
                    .join(shard_dir_name(1))
                    .join("u.atsm")
            )
            .unwrap(),
            old_u,
            "stage {stage}: old store must be untouched"
        );
        std::fs::remove_dir_all(&staged).unwrap();
    }

    // A crash inside the swap window leaves a clean absence, not a torn
    // multi-block store.
    let aside = dir.file(".store.old-sim");
    std::fs::rename(&target, &aside).unwrap();
    assert!(matches!(
        validate_timeblocked_store_dir(&target),
        Err(AtsError::Io(_))
    ));
    std::fs::rename(&aside, &target).unwrap();
    validate_timeblocked_store_dir(&target).unwrap();
}

#[test]
fn timeblocked_interrupted_save_never_exposes_new_data_early() {
    // Even with every block fully staged and sealed, the store at
    // `target` is the old generation until the commit rename lands.
    let dir = dir();
    let target = dir.file("store");
    let old_u = commit_demo_timeblocked_store(&target, 2.0);
    {
        let w = StoreWriter::begin(&target).unwrap();
        for b in 0..DEMO_TBLOCKS {
            stage_demo_block(w.path(), b, 77.0);
        }
        // Writer dropped without a commit: crash-before-rename.
    }
    validate_timeblocked_store_dir(&target).unwrap();
    assert_eq!(
        std::fs::read(
            target
                .join(tblock_dir_name(1))
                .join(shard_dir_name(1))
                .join("u.atsm")
        )
        .unwrap(),
        old_u
    );
}

#[test]
fn timeblocked_commit_without_staged_block_is_rejected() {
    // Committing with a block table that names a time block whose nested
    // store was never staged must fail the commit and leave nothing at
    // the target.
    let dir = dir();
    let target = dir.file("store");
    let w = StoreWriter::begin(&target).unwrap();
    stage_demo_block(w.path(), 0, 4.0); // block 1 never staged
    match commit_block_table(w, demo_timeblocked_manifest()) {
        Err(AtsError::InvalidArgument(msg)) => assert!(msg.contains("time block 1"), "{msg}"),
        other => panic!("commit with missing block: {other:?}"),
    }
    assert!(!target.exists(), "failed commit must not create the store");
}

#[test]
fn timeblocked_every_component_truncation_deletion_bitflip_is_corrupt() {
    let dir = dir();
    let target = dir.file("store");
    commit_demo_timeblocked_store(&target, 9.0);

    for name in timeblocked_component_files() {
        let path = target.join(&name);
        let pristine = std::fs::read(&path).unwrap();

        // Truncation at several depths, including to zero bytes.
        for cut in [0usize, 1, pristine.len() / 2, pristine.len() - 1] {
            std::fs::write(&path, &pristine[..cut]).unwrap();
            match validate_timeblocked_store_dir(&target) {
                Err(AtsError::Corrupt(_)) => {}
                other => panic!("{name} cut at {cut}: {other:?}"),
            }
        }

        // Bit flips at several offsets — in a nested manifest these must
        // trip the top-level block-table CRC, in a component file the
        // nested store's own CRCs.
        for off in [0usize, pristine.len() / 3, pristine.len() - 1] {
            let mut bytes = pristine.clone();
            bytes[off] ^= 0x40;
            std::fs::write(&path, &bytes).unwrap();
            match validate_timeblocked_store_dir(&target) {
                Err(AtsError::Corrupt(_)) => {}
                other => panic!("{name} flip at {off}: {other:?}"),
            }
        }

        // Deletion.
        std::fs::remove_file(&path).unwrap();
        match validate_timeblocked_store_dir(&target) {
            Err(AtsError::Corrupt(_)) => {}
            other => panic!("{name} deleted: {other:?}"),
        }

        std::fs::write(&path, &pristine).unwrap();
        validate_timeblocked_store_dir(&target).unwrap();
    }

    // Losing a whole time-block directory is corruption too.
    let block = target.join(tblock_dir_name(DEMO_TBLOCKS - 1));
    std::fs::remove_dir_all(&block).unwrap();
    assert!(matches!(
        validate_timeblocked_store_dir(&target),
        Err(AtsError::Corrupt(_))
    ));
}

#[test]
fn timeblocked_manifest_tampering_is_corrupt() {
    let dir = dir();
    let target = dir.file("store");
    commit_demo_timeblocked_store(&target, 5.0);
    let path = target.join(MANIFEST_FILE);
    let pristine = std::fs::read(&path).unwrap();

    // Any single-byte flip anywhere in the top-level manifest — version,
    // block ranges, SSE bits, nested-manifest CRCs, the self-checksum —
    // must be rejected.
    for off in 0..pristine.len() {
        let mut bytes = pristine.clone();
        bytes[off] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(
            validate_timeblocked_store_dir(&target).is_err(),
            "manifest flip at {off} accepted"
        );
    }
    std::fs::write(&path, &pristine).unwrap();

    // Swapping two blocks' nested manifests (both individually valid)
    // must trip the per-block CRC pinning in the block table.
    let m0 = target.join(tblock_dir_name(0)).join(MANIFEST_FILE);
    let m1 = target.join(tblock_dir_name(1)).join(MANIFEST_FILE);
    let (b0, b1) = (std::fs::read(&m0).unwrap(), std::fs::read(&m1).unwrap());
    std::fs::write(&m0, &b1).unwrap();
    std::fs::write(&m1, &b0).unwrap();
    assert!(matches!(
        validate_timeblocked_store_dir(&target),
        Err(AtsError::Corrupt(_))
    ));
    std::fs::write(&m0, &b0).unwrap();
    std::fs::write(&m1, &b1).unwrap();
    validate_timeblocked_store_dir(&target).unwrap();

    // Deleting the top-level manifest makes the directory a corrupt
    // store, not a mystery I/O failure.
    std::fs::remove_file(&path).unwrap();
    assert!(matches!(
        validate_timeblocked_store_dir(&target),
        Err(AtsError::Corrupt(_))
    ));
}

#[test]
fn crashed_save_litter_is_cleared_by_next_save() {
    // A stale temp directory from a crashed save of the same target must
    // not break or pollute the next successful save.
    let dir = dir();
    let target = dir.file("store");
    let staged = dir.file(format!(".store.tmp-{}", std::process::id()));
    std::fs::create_dir_all(&staged).unwrap();
    std::fs::write(staged.join("u.atsm"), b"stale crash litter").unwrap();

    commit_demo_sharded_store(&target, 5.0);
    validate_one_block(&target).unwrap();
    assert!(!staged.exists(), "stale temp dir must be consumed/cleared");
    let survivors: Vec<String> = std::fs::read_dir(dir.path())
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(survivors, vec!["store".to_string()], "{survivors:?}");
}
