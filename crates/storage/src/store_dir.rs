//! Store-directory format: versioned manifests, per-component CRCs, and
//! crash-safe atomic saves.
//!
//! A *store directory* is the on-disk home of a compressed store (the
//! paper's §4.1 serving layout). Three generations exist on disk; one
//! codec reads them all and only the last two are ever written:
//!
//! | version | layout | status |
//! |---|---|---|
//! | 2 | `u.atsm v.atsm lambda.atsm deltas.bin` at the top level | read-only: parsed as a one-shard v3 view |
//! | 3 | `v.atsm lambda.atsm` + `shard-NNNN/{u.atsm,deltas.bin,synopsis.bin}` | written for a one-block store |
//! | 4 | block table over `tblock-NNNN/`, each a complete nested v3 store | written for several time blocks |
//!
//! - **Atomic saves** ([`StoreWriter`]): every component is written into
//!   a hidden sibling temp directory, fsynced, and the whole directory is
//!   renamed into place in one step. A crash at *any* point leaves either
//!   the previous store or no store — never a torn one. In-place growth
//!   (the append paths) lands a new directory the same way and then
//!   replaces the manifest atomically ([`publish_manifest`]).
//! - **Validation** ([`validate_timeblocked_store_dir`],
//!   [`ShardedManifest::check_component`]): `manifest.txt` is a parsed,
//!   versioned document carrying the method, dimensions, and a CRC per
//!   component file; it is itself covered by a trailing self-checksum.
//!   Each component is checked against its CRC by one function, so
//!   truncation, deletion, or corruption surfaces as
//!   [`AtsError::Corrupt`] the same way whoever asks: the validators
//!   loop it over every component now ("touch everything"), an opened
//!   store calls it for each component the first time a query reads it
//!   (an open itself reads only the manifests).
//!
//! Manifests are line-oriented `key=value` text so they stay greppable:
//!
//! ```text
//! ats-store-version=3
//! method=svdd
//! rows=2000
//! cols=366
//! k=5
//! deltas=1423
//! bloom=true
//! crc.v.atsm=9f47c1d2e8a33b10
//! crc.lambda.atsm=...
//! shards=1
//! shard.0.rows=0..2000
//! shard.0.deltas=1423
//! shard.0.crc.u=...
//! shard.0.crc.deltas=...
//! shard.0.crc.synopsis=...
//! manifest-crc=...          # hash of every preceding byte
//! ```

use ats_common::codec::u64_from_usize;
use ats_common::hash::{hash_bytes, ByteHasher};
use ats_common::{AtsError, Result};
use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io::Read;
use std::path::{Path, PathBuf};

/// Legacy single-directory format version: read, never written.
const LEGACY_STORE_VERSION: u32 = 2;

/// Sharded store-directory format version (row-range shards).
pub const SHARDED_STORE_VERSION: u32 = 3;

/// Time-blocked store-directory format version: the time axis is
/// partitioned into column blocks, each a complete nested v3 store in
/// its own `tblock-NNNN/` subdirectory.
pub const TIMEBLOCKED_STORE_VERSION: u32 = 4;

/// Name of the manifest file inside a store directory.
pub const MANIFEST_FILE: &str = "manifest.txt";

/// Per-shard component files, living inside each `shard-NNNN/` subdir.
pub const SHARD_FILES: [&str; 2] = ["u.atsm", "deltas.bin"];

/// Bytes checksummed per read by [`file_crc`].
const CRC_BUF_BYTES: usize = 64 * 1024;

/// Checksum and length of a whole file's contents, streamed through a
/// fixed buffer so checking a component never holds a `U` file in memory.
fn stream_crc(path: &Path) -> Result<(u64, u64)> {
    let mut file = File::open(path)?;
    let mut hasher = ByteHasher::new();
    let mut buf = vec![0u8; CRC_BUF_BYTES];
    let mut len = 0u64;
    loop {
        let n = match file.read(&mut buf) {
            Ok(0) => return Ok((hasher.finish(), len)),
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        hasher.update(
            buf.get(..n)
                .ok_or_else(|| AtsError::internal("read returned more than the buffer holds"))?,
        );
        len += u64_from_usize(n);
    }
}

/// Checksum of a whole file's contents (the per-component CRC recorded
/// in the manifest), streamed through a fixed buffer.
pub fn file_crc(path: impl AsRef<Path>) -> Result<u64> {
    Ok(stream_crc(path.as_ref())?.0)
}

/// The outcome of reading a component file, with a file that does not
/// exist reported as the caller's `missing` error: corruption when
/// checking a committed store, a caller bug when committing a staged one.
fn or_missing<T>(read: Result<T>, missing: impl FnOnce() -> AtsError) -> Result<T> {
    match read {
        Err(AtsError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => Err(missing()),
        other => other,
    }
}

/// CRC of a component staged for commit; staging it is the caller's job.
fn staged_crc(path: &Path, what: &str) -> Result<u64> {
    or_missing(file_crc(path), || {
        AtsError::InvalidArgument(format!("commit without staged component {what}"))
    })
}

/// Read `dir/manifest.txt`. A missing directory surfaces as the
/// underlying I/O error ("clean absence"); a directory that exists but
/// has no manifest is a corrupt store.
fn read_manifest_text(dir: &Path) -> Result<String> {
    match fs::read_to_string(dir.join(MANIFEST_FILE)) {
        Ok(t) => Ok(t),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound && dir.is_dir() => {
            Err(AtsError::Corrupt(format!(
                "store at {} has no {MANIFEST_FILE} (not an ats store)",
                dir.display()
            )))
        }
        Err(e) => Err(e.into()),
    }
}

/// Append the `manifest-crc` self-checksum line to a manifest body.
fn seal(mut body: String) -> String {
    let csum = hash_bytes(body.as_bytes());
    body.push_str(&format!("manifest-crc={csum:016x}\n"));
    body
}

/// The `key=value` fields of a manifest whose self-checksum has been
/// verified. A schema *takes* the keys it defines; whatever is left at
/// [`Fields::finish`] is an unknown key. Every manifest version is read
/// through this one type, so duplicate, unknown, missing, and malformed
/// fields are rejected identically everywhere.
struct Fields<'a>(BTreeMap<&'a str, &'a str>);

impl<'a> Fields<'a> {
    fn parse(text: &'a str) -> Result<Self> {
        // The self-checksum covers every byte before its own line.
        let crc_line_start = text
            .rfind("manifest-crc=")
            .ok_or_else(|| AtsError::Corrupt("manifest missing self-checksum".into()))?;
        let (head, tail) = text
            .split_at_checked(crc_line_start)
            .ok_or_else(|| AtsError::internal("manifest-crc offset off a char boundary"))?;
        let tail = tail.strip_suffix('\n').unwrap_or(tail);
        let stored_crc = parse_hex_u64(
            tail.strip_prefix("manifest-crc=")
                .ok_or_else(|| AtsError::Corrupt("malformed manifest-crc line".into()))?,
        )?;
        let computed = hash_bytes(head.as_bytes());
        if stored_crc != computed {
            return Err(AtsError::Corrupt(format!(
                "manifest self-checksum mismatch: stored {stored_crc:#x}, computed {computed:#x}"
            )));
        }
        let mut map = BTreeMap::new();
        for line in head.lines().map(str::trim).filter(|l| !l.is_empty()) {
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| AtsError::Corrupt(format!("malformed manifest line {line:?}")))?;
            if map.insert(key, value).is_some() {
                return Err(AtsError::Corrupt(format!("duplicate manifest key {key:?}")));
            }
        }
        Ok(Fields(map))
    }

    /// Take an optional field.
    fn opt(&mut self, key: &str) -> Option<&'a str> {
        self.0.remove(key)
    }

    /// Take a required field.
    fn text(&mut self, key: &str) -> Result<&'a str> {
        self.opt(key)
            .ok_or_else(|| AtsError::Corrupt(format!("manifest missing {key}")))
    }

    fn number(&mut self, key: &str) -> Result<usize> {
        parse_usize(key, self.text(key)?)
    }

    fn hex(&mut self, key: &str) -> Result<u64> {
        parse_hex_u64(self.text(key)?)
    }

    fn opt_hex(&mut self, key: &str) -> Result<Option<u64>> {
        self.opt(key).map(parse_hex_u64).transpose()
    }

    fn flag(&mut self, key: &str) -> Result<bool> {
        match self.text(key)? {
            "true" => Ok(true),
            "false" => Ok(false),
            other => Err(AtsError::Corrupt(format!(
                "manifest {key} flag must be true|false, got {other:?}"
            ))),
        }
    }

    /// Take a `START..END` field and check it continues a partition:
    /// it must begin at `*next` and be non-empty. Advances `*next`.
    fn range(&mut self, key: &str, next: &mut usize) -> Result<(usize, usize)> {
        let value = self.text(key)?;
        let (a, b) = value.split_once("..").ok_or_else(|| {
            AtsError::Corrupt(format!("manifest {key}={value:?} is not START..END"))
        })?;
        let (start, end) = (parse_usize(key, a)?, parse_usize(key, b)?);
        if start != *next || end <= start {
            return Err(AtsError::Corrupt(format!(
                "manifest {key}={start}..{end} is not contiguous from {next}"
            )));
        }
        *next = end;
        Ok((start, end))
    }

    /// Reject whatever the schema did not take.
    fn finish(self) -> Result<()> {
        match self.0.keys().next() {
            Some(key) => Err(AtsError::Corrupt(format!("unknown manifest key {key:?}"))),
            None => Ok(()),
        }
    }
}

fn parse_usize(key: &str, value: &str) -> Result<usize> {
    value
        .parse()
        .map_err(|_| AtsError::Corrupt(format!("manifest {key}={value:?} is not a number")))
}

fn parse_hex_u64(value: &str) -> Result<u64> {
    u64::from_str_radix(value, 16)
        .map_err(|_| AtsError::Corrupt(format!("manifest checksum {value:?} is not hex")))
}

fn unsupported_version(version: usize, expected: &str) -> AtsError {
    AtsError::Corrupt(format!(
        "unsupported store format version {version} (expected {expected})"
    ))
}

/// Name of the subdirectory holding shard `index` inside a v3 store
/// directory (`shard-0000`, `shard-0001`, …).
pub fn shard_dir_name(index: usize) -> String {
    format!("shard-{index:04}")
}

/// One row-range shard recorded in a v3 manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardEntry {
    /// First (absolute) row of the shard, inclusive.
    pub start: usize,
    /// One past the last (absolute) row of the shard.
    pub end: usize,
    /// Number of outlier deltas in this shard's `deltas.bin`.
    pub deltas: usize,
    /// CRC of the shard's `u.atsm`.
    pub crc_u: u64,
    /// CRC of the shard's `deltas.bin`.
    pub crc_deltas: u64,
    /// CRC of the shard's `synopsis.bin` zone-map, when the shard
    /// carries one. `None` for stores written before the synopsis layer
    /// existed — they open unchanged and queries fall back to exact
    /// scans.
    pub crc_synopsis: Option<u64>,
    /// For shards created by the append path: the sum of squared
    /// reconstruction errors of the new rows under the frozen global
    /// `V/Λ` (they carry no deltas, so this is the honest error record).
    pub append_sse: Option<f64>,
}

impl ShardEntry {
    /// Number of rows in the shard.
    pub fn rows(&self) -> usize {
        self.end.saturating_sub(self.start)
    }
}

/// One CRC-pinned component file of a v2/v3 store (or of one block of a
/// v4 store), as its [`ShardedManifest`] names it. Shard components
/// carry the shard index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Component {
    /// The shared `v.atsm`.
    V,
    /// The shared `lambda.atsm`.
    Lambda,
    /// A shard's `u.atsm`.
    U(usize),
    /// A shard's `deltas.bin`.
    Deltas(usize),
    /// A shard's `synopsis.bin`.
    Synopsis(usize),
}

impl std::fmt::Display for Component {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Component::V => f.write_str("v.atsm"),
            Component::Lambda => f.write_str("lambda.atsm"),
            Component::U(i) => write!(f, "shard {i} u.atsm"),
            Component::Deltas(i) => write!(f, "shard {i} deltas.bin"),
            Component::Synopsis(i) => write!(f, "shard {i} synopsis.bin"),
        }
    }
}

/// Parsed, validated contents of a sharded (v3) `manifest.txt` — or a
/// legacy v2 manifest normalized into a single-shard view.
///
/// The v3 layout keeps `V` and `Λ` at the top level (they are global:
/// every shard reconstructs against the same factors) and gives each
/// row-range shard its own subdirectory with a `U` partition and a
/// delta partition:
///
/// ```text
/// store/
///   manifest.txt        # this document
///   v.atsm  lambda.atsm # shared factors
///   shard-0000/ u.atsm deltas.bin synopsis.bin
///   shard-0001/ u.atsm deltas.bin synopsis.bin
///   ...
/// ```
///
/// Delta rows inside a shard's `deltas.bin` are stored *relative to the
/// shard's start row*, so a v2 directory — whose single `deltas.bin`
/// is based at row 0 — is exactly a one-shard v3 store and parses as
/// one (`source_version = 2`, components at the top level).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedManifest {
    /// Compression method tag (`"svd"` or `"svdd"`).
    pub method: String,
    /// Total number of sequences (`N`) across all shards.
    pub rows: usize,
    /// Sequence length (`M`).
    pub cols: usize,
    /// Retained principal components.
    pub k: usize,
    /// Total number of outlier deltas across all shards.
    pub deltas: usize,
    /// Whether delta tables carry Bloom filters (§4.2).
    pub bloom: bool,
    /// CRC of the shared `v.atsm`.
    pub crc_v: u64,
    /// CRC of the shared `lambda.atsm`.
    pub crc_lambda: u64,
    /// Row-range shards, in ascending row order.
    pub shards: Vec<ShardEntry>,
    /// Format version the manifest was read from: 2 (normalized
    /// single-shard view of a legacy directory) or 3.
    pub source_version: u32,
}

impl ShardedManifest {
    /// Directory holding shard `index`'s component files: the store
    /// directory itself for a normalized v2 store, `shard-NNNN/` for v3.
    fn shard_dir(&self, base: &Path, index: usize) -> PathBuf {
        if self.source_version == LEGACY_STORE_VERSION {
            base.to_path_buf()
        } else {
            base.join(shard_dir_name(index))
        }
    }

    /// Index of the shard owning absolute row `row`, if in range.
    pub fn shard_of_row(&self, row: usize) -> Option<usize> {
        self.shards
            .iter()
            .position(|s| row >= s.start && row < s.end)
    }

    /// Serialize to the canonical v3 text form, including the trailing
    /// `manifest-crc` self-checksum line.
    pub fn encode(&self) -> String {
        let mut text = String::new();
        text.push_str(&format!("ats-store-version={SHARDED_STORE_VERSION}\n"));
        text.push_str(&format!("method={}\n", self.method));
        text.push_str(&format!("rows={}\n", self.rows));
        text.push_str(&format!("cols={}\n", self.cols));
        text.push_str(&format!("k={}\n", self.k));
        text.push_str(&format!("deltas={}\n", self.deltas));
        text.push_str(&format!("bloom={}\n", self.bloom));
        text.push_str(&format!("crc.v.atsm={:016x}\n", self.crc_v));
        text.push_str(&format!("crc.lambda.atsm={:016x}\n", self.crc_lambda));
        text.push_str(&format!("shards={}\n", self.shards.len()));
        for (i, s) in self.shards.iter().enumerate() {
            text.push_str(&format!("shard.{i}.rows={}..{}\n", s.start, s.end));
            text.push_str(&format!("shard.{i}.deltas={}\n", s.deltas));
            text.push_str(&format!("shard.{i}.crc.u={:016x}\n", s.crc_u));
            text.push_str(&format!("shard.{i}.crc.deltas={:016x}\n", s.crc_deltas));
            if let Some(crc) = s.crc_synopsis {
                text.push_str(&format!("shard.{i}.crc.synopsis={crc:016x}\n"));
            }
            if let Some(sse) = s.append_sse {
                text.push_str(&format!("shard.{i}.append-sse={:016x}\n", sse.to_bits()));
            }
        }
        seal(text)
    }

    /// Parse manifest text of either format: v3 natively, v2 normalized
    /// into a single-shard view. Self-checksum, strict schema (every
    /// key exactly once, no unknown keys), and shard-geometry checks
    /// (contiguous ascending ranges covering `0..rows`, per-shard delta
    /// counts summing to the total).
    pub fn parse(text: &str) -> Result<Self> {
        let mut fields = Fields::parse(text)?;
        let version = fields.number("ats-store-version")?;
        let manifest = Self::from_fields(version, &mut fields)?;
        fields.finish()?;
        Ok(manifest)
    }

    /// The v2/v3 schema over already-checksummed fields. The version is
    /// checked before any other key is read, so a manifest of another
    /// version fails by naming it, not by the first key it lacks.
    fn from_fields(version: usize, f: &mut Fields<'_>) -> Result<Self> {
        if !matches!(version, 2 | 3) {
            return Err(unsupported_version(version, "2 or 3"));
        }
        let method = f.text("method")?.to_string();
        let (rows, cols, k) = (f.number("rows")?, f.number("cols")?, f.number("k")?);
        let deltas = f.number("deltas")?;
        let bloom = f.flag("bloom")?;
        let (crc_v, crc_lambda) = (f.hex("crc.v.atsm")?, f.hex("crc.lambda.atsm")?);
        let (shards, source_version) = match version {
            // A v2 directory is one shard whose files sit at the top level.
            2 => {
                let only = ShardEntry {
                    start: 0,
                    end: rows,
                    deltas,
                    crc_u: f.hex("crc.u.atsm")?,
                    crc_deltas: f.hex("crc.deltas.bin")?,
                    crc_synopsis: None,
                    append_sse: None,
                };
                (vec![only], LEGACY_STORE_VERSION)
            }
            _ => {
                let count = f.number("shards")?;
                if count == 0 {
                    return Err(AtsError::Corrupt("manifest declares zero shards".into()));
                }
                let mut shards = Vec::new();
                let (mut next_start, mut delta_sum) = (0usize, 0usize);
                for i in 0..count {
                    let key = |field: &str| format!("shard.{i}.{field}");
                    let (start, end) = f.range(&key("rows"), &mut next_start)?;
                    let entry = ShardEntry {
                        start,
                        end,
                        deltas: f.number(&key("deltas"))?,
                        crc_u: f.hex(&key("crc.u"))?,
                        crc_deltas: f.hex(&key("crc.deltas"))?,
                        crc_synopsis: f.opt_hex(&key("crc.synopsis"))?,
                        append_sse: f.opt_hex(&key("append-sse"))?.map(f64::from_bits),
                    };
                    delta_sum = delta_sum.checked_add(entry.deltas).ok_or_else(|| {
                        AtsError::Corrupt("shard delta counts overflow usize".into())
                    })?;
                    shards.push(entry);
                }
                if next_start != rows {
                    return Err(AtsError::Corrupt(format!(
                        "shard ranges cover 0..{next_start} but manifest declares {rows} rows"
                    )));
                }
                if delta_sum != deltas {
                    return Err(AtsError::Corrupt(format!(
                        "shard delta counts sum to {delta_sum} but manifest declares {deltas}"
                    )));
                }
                (shards, SHARDED_STORE_VERSION)
            }
        };
        Ok(ShardedManifest {
            method,
            rows,
            cols,
            k,
            deltas,
            bloom,
            crc_v,
            crc_lambda,
            shards,
            source_version,
        })
    }

    /// Every component file this manifest pins, in the order the eager
    /// validator visits them: the shared factors, then each shard's `U`,
    /// deltas and (when it carries one) synopsis.
    pub fn components(&self) -> Vec<Component> {
        let mut out = vec![Component::V, Component::Lambda];
        for (i, s) in self.shards.iter().enumerate() {
            out.extend([Component::U(i), Component::Deltas(i)]);
            if s.crc_synopsis.is_some() {
                out.push(Component::Synopsis(i));
            }
        }
        out
    }

    /// Where component `c` lives under the store (or block) directory
    /// `dir`.
    pub fn component_path(&self, dir: impl AsRef<Path>, c: Component) -> PathBuf {
        let dir = dir.as_ref();
        match c {
            Component::V => dir.join("v.atsm"),
            Component::Lambda => dir.join("lambda.atsm"),
            Component::U(i) => self.shard_dir(dir, i).join("u.atsm"),
            Component::Deltas(i) => self.shard_dir(dir, i).join("deltas.bin"),
            Component::Synopsis(i) => self.shard_dir(dir, i).join(crate::synopsis::SYNOPSIS_FILE),
        }
    }

    /// The CRC this manifest pins for component `c`, if it pins one.
    fn pinned_crc(&self, c: Component) -> Option<u64> {
        let shard = |i: usize| self.shards.get(i);
        match c {
            Component::V => Some(self.crc_v),
            Component::Lambda => Some(self.crc_lambda),
            Component::U(i) => shard(i).map(|s| s.crc_u),
            Component::Deltas(i) => shard(i).map(|s| s.crc_deltas),
            Component::Synopsis(i) => shard(i).and_then(|s| s.crc_synopsis),
        }
    }

    /// The one per-component check: run `load` — which returns the
    /// checksum of the bytes it read together with whatever it keeps of
    /// them — on `c`'s file and compare with the pinned CRC. A missing
    /// file and a mismatch (truncation included) are both `Corrupt`.
    fn checked<T>(
        &self,
        dir: &Path,
        c: Component,
        load: impl FnOnce(&Path) -> Result<(u64, T)>,
    ) -> Result<T> {
        let expected = self
            .pinned_crc(c)
            .ok_or_else(|| AtsError::InvalidArgument(format!("the manifest pins no {c}")))?;
        let path = self.component_path(dir, c);
        let (got, kept) = or_missing(load(&path), || {
            AtsError::Corrupt(format!(
                "store component {c} is missing from {}",
                dir.display()
            ))
        })?;
        if got != expected {
            return Err(AtsError::Corrupt(format!(
                "store component {c} ({}) checksum mismatch: manifest {expected:#x}, file {got:#x}",
                path.display()
            )));
        }
        Ok(kept)
    }

    /// Stream component `c` under `dir` through the checksum and compare
    /// with the CRC this manifest pins, holding no more than a fixed
    /// buffer of it. Returns the number of bytes checksummed.
    ///
    /// The eager validators are a loop over this; a lazily validating
    /// store calls it for `u.atsm` — the one component that is paged,
    /// never decoded whole — the first time the shard is touched.
    pub fn check_component(&self, dir: impl AsRef<Path>, c: Component) -> Result<u64> {
        self.checked(dir.as_ref(), c, stream_crc)
    }

    /// Read component `c` under `dir` whole, checksum *those bytes*
    /// against the CRC this manifest pins, and hand them back for
    /// decoding: what gets decoded is what was checked. For the
    /// whole-file components (`deltas.bin`, `synopsis.bin`, `v.atsm`,
    /// `lambda.atsm`).
    pub fn read_component(&self, dir: impl AsRef<Path>, c: Component) -> Result<Vec<u8>> {
        self.read_component_into(dir, c, Vec::new())
    }

    /// [`Self::read_component`] into a buffer the caller
    /// already holds (its contents are discarded; it grows if the file
    /// is larger than its capacity).
    pub fn read_component_into(
        &self,
        dir: impl AsRef<Path>,
        c: Component,
        mut buf: Vec<u8>,
    ) -> Result<Vec<u8>> {
        self.checked(dir.as_ref(), c, |path| {
            buf.clear();
            File::open(path)?.read_to_end(&mut buf)?;
            Ok((hash_bytes(&buf), buf))
        })
    }

    /// Check every pinned component against the bytes under `dir`.
    fn check_components(&self, dir: &Path) -> Result<()> {
        for c in self.components() {
            self.check_component(dir, c)?;
        }
        Ok(())
    }
}

/// Name of the subdirectory holding time block `index` inside a v4 store
/// directory (`tblock-0000`, `tblock-0001`, …).
pub fn tblock_dir_name(index: usize) -> String {
    format!("tblock-{index:04}")
}

/// One time block (column range) recorded in a v4 manifest. Each block
/// is a complete nested v3 store over its column slice, living in its
/// own `tblock-NNNN/` subdirectory; the top-level manifest pins the
/// block's column range, its reconstruction SSE, and the CRC of the
/// nested manifest (whose own CRCs transitively cover the block's
/// component files).
#[derive(Debug, Clone, PartialEq)]
pub struct TimeBlockEntry {
    /// First (absolute) column of the block, inclusive.
    pub start: usize,
    /// One past the last (absolute) column of the block.
    pub end: usize,
    /// Sum of squared reconstruction errors of the block against its
    /// source slice, recorded at build/append time — the principled
    /// retrain trigger. `None` only for normalized v2/v3 stores, which
    /// never measured it.
    pub sse: Option<f64>,
    /// CRC of the nested `tblock-NNNN/manifest.txt` bytes.
    pub crc_manifest: u64,
}

impl TimeBlockEntry {
    /// Number of columns in the block.
    pub fn cols(&self) -> usize {
        self.end.saturating_sub(self.start)
    }
}

/// Parsed, validated contents of a time-blocked (v4) `manifest.txt` —
/// or a v2/v3 manifest normalized into a single-block view.
///
/// The v4 layout partitions the *time* axis into column blocks, each a
/// complete nested v3 store (own `V_b`/`Λ_b`, own row-range shards and
/// delta sets) over its column slice:
///
/// ```text
/// store/
///   manifest.txt                 # this document (block table + CRCs)
///   tblock-0000/                 # a full v3 store over cols 0..W
///     manifest.txt  v.atsm  lambda.atsm
///     shard-0000/ u.atsm deltas.bin synopsis.bin
///     ...
///   tblock-0001/                 # cols W..2W
///   ...
/// ```
///
/// A v2 or v3 directory is exactly a one-block v4 store whose block
/// directory *is* the store directory — [`TimeBlockedManifest::read`]
/// normalizes it (`source_version` keeps the original tag).
#[derive(Debug, Clone, PartialEq)]
pub struct TimeBlockedManifest {
    /// Compression method tag (`"svd"` or `"svdd"`), uniform across blocks.
    pub method: String,
    /// Total number of sequences (`N`) — every block covers all rows.
    pub rows: usize,
    /// Total sequence length (`M`) across all blocks.
    pub cols: usize,
    /// Whether delta tables carry Bloom filters (§4.2).
    pub bloom: bool,
    /// Time blocks, in ascending column order.
    pub blocks: Vec<TimeBlockEntry>,
    /// Format version the manifest was read from: 2 or 3 (normalized
    /// single-block view) or 4.
    pub source_version: u32,
}

impl TimeBlockedManifest {
    /// Directory holding block `index`'s nested store: the store
    /// directory itself for a normalized v2/v3 store, `tblock-NNNN/`
    /// for genuine v4.
    pub fn block_dir(&self, base: &Path, index: usize) -> PathBuf {
        if self.source_version == TIMEBLOCKED_STORE_VERSION {
            base.join(tblock_dir_name(index))
        } else {
            base.to_path_buf()
        }
    }

    /// Index of the block owning absolute column `col`, if in range.
    pub fn block_of_col(&self, col: usize) -> Option<usize> {
        self.blocks
            .iter()
            .position(|b| col >= b.start && col < b.end)
    }

    /// Serialize to the canonical v4 text form, including the trailing
    /// `manifest-crc` self-checksum line.
    pub fn encode(&self) -> String {
        let mut text = String::new();
        text.push_str(&format!("ats-store-version={TIMEBLOCKED_STORE_VERSION}\n"));
        text.push_str(&format!("method={}\n", self.method));
        text.push_str(&format!("rows={}\n", self.rows));
        text.push_str(&format!("cols={}\n", self.cols));
        text.push_str(&format!("bloom={}\n", self.bloom));
        text.push_str(&format!("tblocks={}\n", self.blocks.len()));
        for (i, b) in self.blocks.iter().enumerate() {
            text.push_str(&format!("tblock.{i}.cols={}..{}\n", b.start, b.end));
            if let Some(sse) = b.sse {
                text.push_str(&format!("tblock.{i}.sse={:016x}\n", sse.to_bits()));
            }
            text.push_str(&format!(
                "tblock.{i}.crc.manifest={:016x}\n",
                b.crc_manifest
            ));
        }
        seal(text)
    }

    /// Parse manifest text of any store format: v4 natively, v2/v3
    /// normalized into a single-block view whose nested-manifest CRC is
    /// the hash of the given text itself (the block directory *is* the
    /// store directory, so its manifest is this one).
    pub fn parse(text: &str) -> Result<Self> {
        let mut f = Fields::parse(text)?;
        let manifest = match f.number("ats-store-version")? {
            4 => {
                let method = f.text("method")?.to_string();
                let (rows, cols) = (f.number("rows")?, f.number("cols")?);
                let bloom = f.flag("bloom")?;
                let count = f.number("tblocks")?;
                if count == 0 {
                    return Err(AtsError::Corrupt(
                        "manifest declares zero time blocks".into(),
                    ));
                }
                let mut blocks = Vec::new();
                let mut next_start = 0usize;
                for i in 0..count {
                    let key = |field: &str| format!("tblock.{i}.{field}");
                    let (start, end) = f.range(&key("cols"), &mut next_start)?;
                    blocks.push(TimeBlockEntry {
                        start,
                        end,
                        sse: f.opt_hex(&key("sse"))?.map(f64::from_bits),
                        crc_manifest: f.hex(&key("crc.manifest"))?,
                    });
                }
                if next_start != cols {
                    return Err(AtsError::Corrupt(format!(
                        "time block ranges cover 0..{next_start} but manifest declares {cols} columns"
                    )));
                }
                TimeBlockedManifest {
                    method,
                    rows,
                    cols,
                    bloom,
                    blocks,
                    source_version: TIMEBLOCKED_STORE_VERSION,
                }
            }
            v @ (2 | 3) => {
                let m = ShardedManifest::from_fields(v, &mut f)?;
                TimeBlockedManifest {
                    method: m.method,
                    rows: m.rows,
                    cols: m.cols,
                    bloom: m.bloom,
                    blocks: vec![TimeBlockEntry {
                        start: 0,
                        end: m.cols,
                        sse: None,
                        crc_manifest: hash_bytes(text.as_bytes()),
                    }],
                    source_version: m.source_version,
                }
            }
            v => return Err(unsupported_version(v, "2, 3, or 4")),
        };
        f.finish()?;
        Ok(manifest)
    }

    /// Read `dir/manifest.txt` and parse it as any store format,
    /// normalizing v2/v3 into the single-block view.
    pub fn read(dir: impl AsRef<Path>) -> Result<Self> {
        Self::parse(&read_manifest_text(dir.as_ref())?)
    }

    /// Read every block's nested manifest, cross-checking each file's
    /// CRC against the top-level entry and its geometry against the
    /// block table (all rows, exactly the block's columns, the same
    /// method). The nested manifests' own CRCs cover the component
    /// files, so a match here pins the whole block tree.
    pub fn read_blocks(&self, base: impl AsRef<Path>) -> Result<Vec<ShardedManifest>> {
        let base = base.as_ref();
        let mut out = Vec::new();
        for (i, b) in self.blocks.iter().enumerate() {
            let path = self.block_dir(base, i).join(MANIFEST_FILE);
            let bytes = match fs::read(&path) {
                Ok(t) => t,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                    return Err(AtsError::Corrupt(format!(
                        "time block {i} manifest is missing from {}",
                        base.display()
                    )));
                }
                Err(e) => return Err(e.into()),
            };
            let got = hash_bytes(&bytes);
            if got != b.crc_manifest {
                return Err(AtsError::Corrupt(format!(
                    "time block {i} manifest checksum mismatch: manifest {:#x}, file {got:#x}",
                    b.crc_manifest
                )));
            }
            let text = String::from_utf8(bytes)
                .map_err(|_| AtsError::Corrupt(format!("time block {i} manifest is not UTF-8")))?;
            let nested = ShardedManifest::parse(&text)?;
            if nested.rows != self.rows {
                return Err(AtsError::Corrupt(format!(
                    "time block {i} covers {} rows but the store declares {}",
                    nested.rows, self.rows
                )));
            }
            if nested.cols != b.cols() {
                return Err(AtsError::Corrupt(format!(
                    "time block {i} holds {} columns but the block table declares {}..{}",
                    nested.cols, b.start, b.end
                )));
            }
            if nested.method != self.method {
                return Err(AtsError::Corrupt(format!(
                    "time block {i} method {:?} differs from the store's {:?}",
                    nested.method, self.method
                )));
            }
            out.push(nested);
        }
        Ok(out)
    }
}

/// Validate a store directory of any format: parse the top manifest
/// (normalizing v2/v3 into a single-block view), CRC-check every block's
/// nested manifest against it, and then cross-check every component
/// file of every block against its nested manifest.
///
/// Returns the normalized manifest and the per-block nested manifests.
/// A missing directory propagates as an I/O error; anything else is
/// [`AtsError::Corrupt`].
pub fn validate_timeblocked_store_dir(
    dir: impl AsRef<Path>,
) -> Result<(TimeBlockedManifest, Vec<ShardedManifest>)> {
    let dir = dir.as_ref();
    let manifest = TimeBlockedManifest::read(dir)?;
    let blocks = manifest.read_blocks(dir)?;
    for (i, nested) in blocks.iter().enumerate() {
        nested.check_components(&manifest.block_dir(dir, i))?;
    }
    Ok((manifest, blocks))
}

/// Fill a sharded manifest's CRCs from the component files staged under
/// `dir` (the v3 layout: `v.atsm`/`lambda.atsm` at the top,
/// `shard-NNNN/{u.atsm,deltas.bin}` per shard), stamp it v3, and write
/// `dir/manifest.txt`: the manifest of a one-block store, or of one
/// block of a v4 save.
pub fn write_sharded_manifest_into(dir: &Path, mut manifest: ShardedManifest) -> Result<()> {
    manifest.crc_v = staged_crc(&dir.join("v.atsm"), "v.atsm")?;
    manifest.crc_lambda = staged_crc(&dir.join("lambda.atsm"), "lambda.atsm")?;
    for (i, s) in manifest.shards.iter_mut().enumerate() {
        let shard = dir.join(shard_dir_name(i));
        s.crc_u = staged_crc(&shard.join("u.atsm"), &format!("shard {i} u.atsm"))?;
        s.crc_deltas = staged_crc(&shard.join("deltas.bin"), &format!("shard {i} deltas.bin"))?;
        // The synopsis is optional (legacy stores have none): pin it in
        // the manifest exactly when the emitter staged one.
        let synopsis = shard.join(crate::synopsis::SYNOPSIS_FILE);
        s.crc_synopsis = if synopsis.exists() {
            Some(staged_crc(&synopsis, &format!("shard {i} synopsis.bin"))?)
        } else {
            None
        };
    }
    manifest.source_version = SHARDED_STORE_VERSION;
    fs::write(dir.join(MANIFEST_FILE), manifest.encode())?;
    Ok(())
}

/// Fill a block table's nested-manifest CRCs from the `tblock-NNNN/`
/// directories staged under `dir` — each already a complete nested v3
/// store sealed by [`write_sharded_manifest_into`] — stamp it v4, and
/// write `dir/manifest.txt`.
pub fn write_timeblocked_manifest_into(
    dir: &Path,
    mut manifest: TimeBlockedManifest,
) -> Result<()> {
    for (i, b) in manifest.blocks.iter_mut().enumerate() {
        let path = dir.join(tblock_dir_name(i)).join(MANIFEST_FILE);
        b.crc_manifest = staged_crc(&path, &format!("time block {i} manifest"))?;
    }
    manifest.source_version = TIMEBLOCKED_STORE_VERSION;
    fs::write(dir.join(MANIFEST_FILE), manifest.encode())?;
    Ok(())
}

/// Atomically replace `dir/manifest.txt` with `text`: write a hidden
/// temp file, fsync it, rename it over the manifest, fsync the
/// directory. The publish step of both in-place append paths — until the
/// rename lands the store opens exactly as before.
pub fn publish_manifest(dir: &Path, text: &str) -> Result<()> {
    let tmp = dir.join(format!(".manifest.tmp-{}", std::process::id()));
    fs::write(&tmp, text)?;
    File::open(&tmp)?.sync_all()?;
    fs::rename(&tmp, dir.join(MANIFEST_FILE))?;
    sync_dir(dir)
}

/// Crash-safe store-directory writer: stage every component in a hidden
/// sibling temp directory, then swap it into place atomically.
///
/// ```text
/// begin(dir)    -> create  <parent>/.<name>.tmp-<pid>
/// (write components and manifests into writer.path(); the
///  write_*_manifest_into functions CRC what is staged)
/// commit_dir()  -> fsync everything, rename old dir aside,
///                  rename temp -> dir, fsync parent
/// drop w/o commit -> temp directory removed, target untouched
/// ```
///
/// The writer knows nothing about manifests: it stages and swaps.
///
/// A crash before the final rename leaves the previous store (or nothing,
/// if there was none) at `dir`; a crash inside the swap window leaves
/// `dir` absent — a clean, detectable absence, never a torn store.
pub struct StoreWriter {
    tmp: PathBuf,
    final_dir: PathBuf,
    committed: bool,
}

impl StoreWriter {
    /// Start a save targeting `final_dir`. Any stale temp directory from
    /// a previous crashed save of the same target is cleared.
    pub fn begin(final_dir: impl AsRef<Path>) -> Result<Self> {
        let final_dir = final_dir.as_ref().to_path_buf();
        let name = final_dir
            .file_name()
            .and_then(|n| n.to_str())
            .ok_or_else(|| {
                AtsError::InvalidArgument(format!(
                    "store path {} has no usable directory name",
                    final_dir.display()
                ))
            })?
            .to_string();
        if final_dir.exists() && !is_replaceable(&final_dir) {
            return Err(AtsError::InvalidArgument(format!(
                "{} exists and is not a store directory; refusing to replace it",
                final_dir.display()
            )));
        }
        let parent = parent_of(&final_dir);
        fs::create_dir_all(&parent)?;
        let tmp = parent.join(format!(".{name}.tmp-{}", std::process::id()));
        if tmp.exists() {
            fs::remove_dir_all(&tmp)?;
        }
        fs::create_dir_all(&tmp)?;
        Ok(StoreWriter {
            tmp,
            final_dir,
            committed: false,
        })
    }

    /// The staging directory to write component files into.
    pub fn path(&self) -> &Path {
        &self.tmp
    }

    /// Finish the save: fsync every staged byte (recursing into
    /// subdirectories), then rename the staged directory into place,
    /// retiring whatever sat at the target. What was staged — a whole
    /// store with its manifests, or a shard directory the parent store's
    /// manifest will pin — is the caller's business.
    pub fn commit_dir(mut self) -> Result<()> {
        // Durability point: every staged byte reaches disk before the
        // rename can expose the new directory.
        fsync_tree(&self.tmp)?;

        let parent = parent_of(&self.final_dir);
        let name = self
            .final_dir
            .file_name()
            .ok_or_else(|| {
                AtsError::InvalidArgument("store path has no final directory name".into())
            })?
            .to_string_lossy();
        let retired = parent.join(format!(".{name}.old-{}", std::process::id()));
        if retired.exists() {
            fs::remove_dir_all(&retired)?;
        }
        if self.final_dir.exists() {
            fs::rename(&self.final_dir, &retired)?;
        }
        fs::rename(&self.tmp, &self.final_dir)?;
        self.committed = true;
        if retired.exists() {
            let _ = fs::remove_dir_all(&retired);
        }
        sync_dir(&parent)?;
        Ok(())
    }
}

/// fsync every regular file under `dir` (recursively) and every
/// directory on the way back up — the durability sweep a sharded save
/// needs before its atomic rename.
fn fsync_tree(dir: &Path) -> Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            fsync_tree(&path)?;
        } else {
            File::open(&path)?.sync_all()?;
        }
    }
    sync_dir(dir)
}

impl Drop for StoreWriter {
    fn drop(&mut self) {
        if !self.committed {
            let _ = fs::remove_dir_all(&self.tmp);
        }
    }
}

fn parent_of(path: &Path) -> PathBuf {
    match path.parent() {
        Some(p) if p.as_os_str().is_empty() => PathBuf::from("."),
        Some(p) => p.to_path_buf(),
        None => PathBuf::from("."),
    }
}

/// A target we may replace: an empty directory, or something that looks
/// like a store or one of its shards (has a manifest or a `U` file).
/// Anything else is user data we refuse to clobber.
fn is_replaceable(dir: &Path) -> bool {
    if !dir.is_dir() {
        return false;
    }
    if dir.join(MANIFEST_FILE).exists() || dir.join("u.atsm").exists() {
        return true;
    }
    fs::read_dir(dir)
        .map(|mut d| d.next().is_none())
        .unwrap_or(false)
}

fn sync_dir(dir: &Path) -> Result<()> {
    #[cfg(unix)]
    {
        File::open(dir)?.sync_all()?;
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A legacy v2 manifest, byte for byte as the retired v2 writer laid
    /// it out (the committed fixture under `tests/fixtures/v2-store/`
    /// holds a real one).
    fn v2_text() -> String {
        seal(
            "ats-store-version=2\nmethod=svdd\nrows=200\ncols=21\nk=5\ndeltas=37\nbloom=true\n\
             crc.u.atsm=0000000000000001\ncrc.v.atsm=0000000000000002\n\
             crc.lambda.atsm=0000000000000003\ncrc.deltas.bin=0000000000000004\n"
                .to_string(),
        )
    }

    #[test]
    fn v2_manifest_bitflip_detected_everywhere() {
        let text = v2_text();
        for i in 0..text.len() {
            let mut bytes = text.clone().into_bytes();
            bytes[i] ^= 0x01;
            let Ok(s) = String::from_utf8(bytes) else {
                continue; // non-UTF8 flips fail at read_to_string instead
            };
            assert!(
                ShardedManifest::parse(&s).is_err(),
                "flip at byte {i} accepted: {s:?}"
            );
        }
    }

    #[test]
    fn v2_manifest_missing_or_duplicate_keys_rejected() {
        let text = v2_text();
        // Drop each line in turn (re-checksum so only the schema check fires).
        let lines: Vec<&str> = text.trim_end().lines().collect();
        for skip in 0..lines.len() - 1 {
            let mut body = String::new();
            for (i, l) in lines[..lines.len() - 1].iter().enumerate() {
                if i != skip {
                    body.push_str(l);
                    body.push('\n');
                }
            }
            assert!(
                ShardedManifest::parse(&seal(body)).is_err(),
                "missing line {:?} accepted",
                lines[skip]
            );
        }
        // Duplicate a line.
        let mut body: String = lines[..lines.len() - 1].join("\n");
        body.push('\n');
        body.push_str(lines[1]);
        body.push('\n');
        assert!(
            ShardedManifest::parse(&seal(body)).is_err(),
            "duplicate accepted"
        );
    }

    #[test]
    fn manifest_wrong_version_rejected() {
        let text = v2_text().replace("ats-store-version=2", "ats-store-version=1");
        let body = &text[..text.rfind("manifest-crc=").unwrap()];
        for err in [
            ShardedManifest::parse(&seal(body.to_string())).unwrap_err(),
            TimeBlockedManifest::parse(&seal(body.to_string())).unwrap_err(),
        ] {
            assert!(err.to_string().contains("version"), "{err}");
        }
    }

    #[test]
    fn sharded_parse_names_the_version_before_any_key() {
        // A top-level v4 manifest where a v2/v3 one belongs (say, a
        // nested manifest swapped for a top one) fails on its version.
        let err = ShardedManifest::parse(&timeblocked_manifest().encode()).unwrap_err();
        assert!(matches!(err, AtsError::Corrupt(_)), "{err}");
        assert!(
            err.to_string()
                .contains("unsupported store format version 4 (expected 2 or 3)"),
            "{err}"
        );
    }

    #[test]
    fn abandoned_writer_leaves_no_trace() {
        let t = ats_common::TestDir::new("ats-storedir");
        let target = t.file("store");
        {
            let w = StoreWriter::begin(&target).unwrap();
            stage_sharded_components(w.path(), 2);
            // dropped without commit
        }
        assert!(!target.exists());
        assert_eq!(std::fs::read_dir(t.path()).unwrap().count(), 0);
    }

    #[test]
    fn refuses_to_replace_non_store_directory() {
        let t = ats_common::TestDir::new("ats-storedir");
        let target = t.file("precious");
        std::fs::create_dir_all(&target).unwrap();
        std::fs::write(target.join("thesis.tex"), b"years of work").unwrap();
        assert!(StoreWriter::begin(&target).is_err());
        assert!(target.join("thesis.tex").exists());
    }

    #[test]
    fn missing_dir_is_io_not_corrupt() {
        let t = ats_common::TestDir::new("ats-storedir");
        let err = validate_timeblocked_store_dir(t.file("never-saved")).unwrap_err();
        assert!(matches!(err, AtsError::Io(_)), "{err}");
    }

    #[test]
    fn file_crc_streams_to_the_one_shot_checksum() {
        // Sizes straddling the streaming buffer: empty, one byte short,
        // exact, one over, and several buffers plus a tail.
        let t = ats_common::TestDir::new("ats-storedir");
        for len in [
            0,
            1,
            CRC_BUF_BYTES - 1,
            CRC_BUF_BYTES,
            CRC_BUF_BYTES + 1,
            3 * CRC_BUF_BYTES + 17,
        ] {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            let path = t.file(format!("blob-{len}"));
            std::fs::write(&path, &bytes).unwrap();
            assert_eq!(file_crc(&path).unwrap(), hash_bytes(&bytes), "len {len}");
        }
    }

    #[test]
    fn publish_manifest_replaces_atomically_and_leaves_no_temp() {
        let t = ats_common::TestDir::new("ats-storedir");
        std::fs::write(t.file(MANIFEST_FILE), "old").unwrap();
        publish_manifest(t.path(), "new").unwrap();
        assert_eq!(
            std::fs::read_to_string(t.file(MANIFEST_FILE)).unwrap(),
            "new"
        );
        assert_eq!(std::fs::read_dir(t.path()).unwrap().count(), 1);
    }

    fn sharded_manifest() -> ShardedManifest {
        ShardedManifest {
            method: "svdd".into(),
            rows: 200,
            cols: 21,
            k: 5,
            deltas: 37,
            bloom: true,
            crc_v: 11,
            crc_lambda: 12,
            shards: vec![
                ShardEntry {
                    start: 0,
                    end: 96,
                    deltas: 20,
                    crc_u: 21,
                    crc_deltas: 22,
                    crc_synopsis: Some(23),
                    append_sse: None,
                },
                ShardEntry {
                    start: 96,
                    end: 200,
                    deltas: 17,
                    crc_u: 31,
                    crc_deltas: 32,
                    crc_synopsis: None,
                    append_sse: Some(0.125),
                },
            ],
            source_version: SHARDED_STORE_VERSION,
        }
    }

    /// Seal the one-block store staged in `w` with `m` and swap it in.
    fn seal_one_block(w: StoreWriter, m: ShardedManifest) -> Result<()> {
        write_sharded_manifest_into(w.path(), m)?;
        w.commit_dir()
    }

    /// Validate the one-block store at `dir`, returning its manifest.
    fn validate_one_block(dir: &Path) -> Result<ShardedManifest> {
        let (top, mut blocks) = validate_timeblocked_store_dir(dir)?;
        assert_eq!((top.blocks.len(), blocks.len()), (1, 1));
        Ok(blocks.remove(0))
    }

    fn stage_sharded_components(dir: &Path, shards: usize) {
        for (i, name) in ["v.atsm", "lambda.atsm"].iter().enumerate() {
            std::fs::write(dir.join(name), format!("shared {i} payload")).unwrap();
        }
        for s in 0..shards {
            let shard = dir.join(shard_dir_name(s));
            std::fs::create_dir_all(&shard).unwrap();
            for (i, name) in SHARD_FILES.iter().enumerate() {
                std::fs::write(shard.join(name), format!("shard {s} file {i} payload")).unwrap();
            }
        }
    }

    #[test]
    fn sharded_manifest_roundtrip_preserves_append_sse_bits() {
        let m = sharded_manifest();
        let parsed = ShardedManifest::parse(&m.encode()).unwrap();
        assert_eq!(parsed, m);
        assert_eq!(parsed.shards[1].append_sse, Some(0.125));
    }

    #[test]
    fn sharded_manifest_bitflip_detected_everywhere() {
        let text = sharded_manifest().encode();
        for i in 0..text.len() {
            let mut bytes = text.clone().into_bytes();
            bytes[i] ^= 0x01;
            let Ok(s) = String::from_utf8(bytes) else {
                continue;
            };
            assert!(
                ShardedManifest::parse(&s).is_err(),
                "flip at byte {i} accepted: {s:?}"
            );
        }
    }

    #[test]
    fn v2_manifest_parses_as_single_shard_view() {
        let sharded = ShardedManifest::parse(&v2_text()).unwrap();
        assert_eq!(sharded.source_version, LEGACY_STORE_VERSION);
        assert_eq!((sharded.rows, sharded.cols, sharded.k), (200, 21, 5));
        assert_eq!(sharded.shards.len(), 1);
        let only = &sharded.shards[0];
        assert_eq!((only.start, only.end, only.deltas), (0, 200, 37));
        assert_eq!((only.crc_u, sharded.crc_v), (1, 2));
        assert_eq!((sharded.crc_lambda, only.crc_deltas), (3, 4));
        assert_eq!((only.crc_synopsis, only.append_sse), (None, None));
        // A v2 store's components live at the top level.
        let base = Path::new("store");
        assert_eq!(sharded.shard_dir(base, 0), base);
        // ...and it is a one-block store whose block directory is itself.
        let top = TimeBlockedManifest::parse(&v2_text()).unwrap();
        assert_eq!(top.source_version, LEGACY_STORE_VERSION);
        assert_eq!(top.block_dir(base, 0), base);
    }

    fn reencode(body: &str) -> String {
        seal(body.to_string())
    }

    #[test]
    fn sharded_manifest_geometry_violations_rejected() {
        let good = sharded_manifest();
        // Gap between shards.
        let mut m = good.clone();
        m.shards[1].start = 100;
        let text = reencode(&m.encode()[..m.encode().rfind("manifest-crc=").unwrap()]);
        assert!(ShardedManifest::parse(&text).is_err(), "gap accepted");
        // Delta counts don't sum to total.
        let mut m = good.clone();
        m.shards[0].deltas = 21;
        let text = reencode(&m.encode()[..m.encode().rfind("manifest-crc=").unwrap()]);
        assert!(ShardedManifest::parse(&text).is_err(), "bad sum accepted");
        // Last shard doesn't reach `rows`.
        let mut m = good.clone();
        m.shards[1].end = 150;
        let text = reencode(&m.encode()[..m.encode().rfind("manifest-crc=").unwrap()]);
        assert!(
            ShardedManifest::parse(&text).is_err(),
            "short cover accepted"
        );
        // Empty shard.
        let mut m = good.clone();
        m.shards[0].end = 0;
        m.shards[1].start = 0;
        let text = reencode(&m.encode()[..m.encode().rfind("manifest-crc=").unwrap()]);
        assert!(
            ShardedManifest::parse(&text).is_err(),
            "empty shard accepted"
        );
        // Unknown shard field.
        let body = good
            .encode()
            .replace("shard.0.deltas=", "shard.0.unknowns=");
        let text = reencode(&body[..body.rfind("manifest-crc=").unwrap()]);
        assert!(
            ShardedManifest::parse(&text).is_err(),
            "unknown key accepted"
        );
    }

    #[test]
    fn shard_of_row_routes_to_owner() {
        let m = sharded_manifest();
        assert_eq!(m.shard_of_row(0), Some(0));
        assert_eq!(m.shard_of_row(95), Some(0));
        assert_eq!(m.shard_of_row(96), Some(1));
        assert_eq!(m.shard_of_row(199), Some(1));
        assert_eq!(m.shard_of_row(200), None);
    }

    #[test]
    fn one_block_commit_swaps_atomically_and_validates() {
        let t = ats_common::TestDir::new("ats-storedir");
        let target = t.file("store");

        let w = StoreWriter::begin(&target).unwrap();
        stage_sharded_components(w.path(), 2);
        seal_one_block(w, sharded_manifest()).unwrap();
        let m = validate_one_block(&target).unwrap();
        assert_eq!(m.source_version, SHARDED_STORE_VERSION);
        assert_eq!(m.shards.len(), 2);
        assert_ne!(m.crc_v, 11, "commit recomputes real CRCs");
        assert_eq!(m.shards[1].append_sse, Some(0.125));

        // Replacing a sharded store with a differently-sharded one
        // leaves no stale shard directories behind.
        let w = StoreWriter::begin(&target).unwrap();
        stage_sharded_components(w.path(), 1);
        let mut m1 = sharded_manifest();
        m1.shards = vec![ShardEntry {
            start: 0,
            end: 200,
            deltas: 37,
            crc_u: 0,
            crc_deltas: 0,
            crc_synopsis: None,
            append_sse: None,
        }];
        seal_one_block(w, m1).unwrap();
        let got = validate_one_block(&target).unwrap();
        assert_eq!(got.shards.len(), 1);
        assert!(!target.join(shard_dir_name(1)).exists(), "stale shard dir");
    }

    #[test]
    fn sharded_manifest_without_staged_shard_refused() {
        let t = ats_common::TestDir::new("ats-storedir");
        let w = StoreWriter::begin(t.file("store")).unwrap();
        stage_sharded_components(w.path(), 1); // manifest declares 2
        let err = seal_one_block(w, sharded_manifest()).unwrap_err();
        assert!(matches!(err, AtsError::InvalidArgument(_)), "{err}");
        assert!(!t.file("store").exists());
    }

    #[test]
    fn validate_rejects_per_shard_corruption() {
        let t = ats_common::TestDir::new("ats-storedir");
        let target = t.file("store");
        let w = StoreWriter::begin(&target).unwrap();
        stage_sharded_components(w.path(), 2);
        seal_one_block(w, sharded_manifest()).unwrap();

        let victim = target.join(shard_dir_name(1)).join("u.atsm");
        let mut bytes = std::fs::read(&victim).unwrap();
        bytes[0] ^= 0x80;
        std::fs::write(&victim, &bytes).unwrap();
        let err = validate_timeblocked_store_dir(&target).unwrap_err();
        assert!(matches!(err, AtsError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("shard 1"), "{err}");

        std::fs::remove_file(&victim).unwrap();
        let err = validate_timeblocked_store_dir(&target).unwrap_err();
        assert!(matches!(err, AtsError::Corrupt(_)), "{err}");
    }

    #[test]
    fn staged_synopsis_is_pinned_and_corruption_detected() {
        // The manifest writer autodetects a staged synopsis.bin per shard:
        // shard 0 gets one (pinned by CRC), shard 1 stays legacy (None).
        let t = ats_common::TestDir::new("ats-storedir");
        let target = t.file("store");
        let w = StoreWriter::begin(&target).unwrap();
        stage_sharded_components(w.path(), 2);
        std::fs::write(
            w.path().join(shard_dir_name(0)).join("synopsis.bin"),
            b"synopsis payload",
        )
        .unwrap();
        seal_one_block(w, sharded_manifest()).unwrap();

        let m = validate_one_block(&target).unwrap();
        assert!(m.shards[0].crc_synopsis.is_some());
        assert_eq!(m.shards[1].crc_synopsis, None);

        // Truncate, bitflip, delete: each must surface as Corrupt — a
        // synopsis must never silently degrade to an unpruned store.
        let victim = target.join(shard_dir_name(0)).join("synopsis.bin");
        let original = std::fs::read(&victim).unwrap();
        std::fs::write(&victim, &original[..original.len() - 1]).unwrap();
        assert!(matches!(
            validate_timeblocked_store_dir(&target),
            Err(AtsError::Corrupt(_))
        ));
        let mut bytes = original.clone();
        bytes[3] ^= 0x40;
        std::fs::write(&victim, &bytes).unwrap();
        let err = validate_timeblocked_store_dir(&target).unwrap_err();
        assert!(err.to_string().contains("shard 0 synopsis.bin"), "{err}");
        std::fs::remove_file(&victim).unwrap();
        let err = validate_timeblocked_store_dir(&target).unwrap_err();
        assert!(err.to_string().contains("missing"), "{err}");
        std::fs::write(&victim, &original).unwrap();
        validate_one_block(&target).unwrap();
    }

    #[test]
    fn validate_accepts_the_v2_fixture_directory() {
        // Real bytes from the retired v2 writer (DESIGN.md §5c): every
        // CRC still checks out.
        let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v2-store");
        let (top, nested) = validate_timeblocked_store_dir(&fixture).unwrap();
        assert_eq!(top.source_version, LEGACY_STORE_VERSION);
        assert_eq!(top.blocks.len(), 1);
        let m = validate_one_block(&fixture).unwrap();
        assert_eq!(m.source_version, LEGACY_STORE_VERSION);
        assert_eq!((m.rows, m.cols, m.k, m.deltas), (40, 24, 2, 55));
        assert_eq!(m.shards.len(), 1);
        assert_eq!(nested, vec![m]);
    }

    fn timeblocked_manifest() -> TimeBlockedManifest {
        TimeBlockedManifest {
            method: "svdd".into(),
            rows: 200,
            cols: 21,
            bloom: true,
            blocks: vec![
                TimeBlockEntry {
                    start: 0,
                    end: 12,
                    sse: Some(0.5),
                    crc_manifest: 41,
                },
                TimeBlockEntry {
                    start: 12,
                    end: 21,
                    sse: Some(0.25),
                    crc_manifest: 42,
                },
            ],
            source_version: TIMEBLOCKED_STORE_VERSION,
        }
    }

    /// Stage one complete nested v3 store per block width under `dir`,
    /// writing each block's filled nested manifest.
    fn stage_timeblocked(dir: &Path, widths: &[usize]) {
        for (i, w) in widths.iter().enumerate() {
            let bdir = dir.join(tblock_dir_name(i));
            std::fs::create_dir_all(&bdir).unwrap();
            stage_sharded_components(&bdir, 2);
            let mut nested = sharded_manifest();
            nested.cols = *w;
            write_sharded_manifest_into(&bdir, nested).unwrap();
        }
    }

    #[test]
    fn timeblocked_manifest_roundtrip_preserves_sse_bits() {
        let m = timeblocked_manifest();
        let parsed = TimeBlockedManifest::parse(&m.encode()).unwrap();
        assert_eq!(parsed, m);
        assert_eq!(parsed.blocks[0].sse.unwrap().to_bits(), 0.5f64.to_bits());
    }

    #[test]
    fn timeblocked_manifest_bitflip_detected_everywhere() {
        let text = timeblocked_manifest().encode();
        for i in 0..text.len() {
            let mut bytes = text.clone().into_bytes();
            bytes[i] ^= 0x01;
            let Ok(s) = String::from_utf8(bytes) else {
                continue;
            };
            assert!(
                TimeBlockedManifest::parse(&s).is_err(),
                "flip at byte {i} accepted: {s:?}"
            );
        }
    }

    #[test]
    fn timeblocked_manifest_geometry_violations_rejected() {
        // Gap between blocks.
        let mut m = timeblocked_manifest();
        m.blocks[1].start = 13;
        assert!(TimeBlockedManifest::parse(&m.encode()).is_err());
        // Overlap.
        let mut m = timeblocked_manifest();
        m.blocks[1].start = 11;
        assert!(TimeBlockedManifest::parse(&m.encode()).is_err());
        // Not covering all columns.
        let mut m = timeblocked_manifest();
        m.blocks[1].end = 20;
        assert!(TimeBlockedManifest::parse(&m.encode()).is_err());
        // Empty block.
        let mut m = timeblocked_manifest();
        m.blocks[0].end = 0;
        assert!(TimeBlockedManifest::parse(&m.encode()).is_err());
        // Zero blocks.
        let mut m = timeblocked_manifest();
        m.blocks.clear();
        assert!(TimeBlockedManifest::parse(&m.encode()).is_err());
    }

    #[test]
    fn v3_manifest_parses_as_single_block_view() {
        let sharded = sharded_manifest();
        let text = sharded.encode();
        let m = TimeBlockedManifest::parse(&text).unwrap();
        assert_eq!(m.source_version, SHARDED_STORE_VERSION);
        assert_eq!(m.rows, sharded.rows);
        assert_eq!(m.cols, sharded.cols);
        assert_eq!(m.blocks.len(), 1);
        assert_eq!(m.blocks[0].start, 0);
        assert_eq!(m.blocks[0].end, sharded.cols);
        assert_eq!(m.blocks[0].sse, None);
        assert_eq!(
            m.blocks[0].crc_manifest,
            ats_common::hash::hash_bytes(text.as_bytes())
        );
        // The single block's components live in the store directory itself.
        let base = Path::new("store");
        assert_eq!(m.block_dir(base, 0), base);
        assert_eq!(m.block_of_col(0), Some(0));
        assert_eq!(m.block_of_col(sharded.cols), None);
    }

    #[test]
    fn timeblocked_commit_swaps_atomically_and_validates() {
        let t = ats_common::TestDir::new("ats-storedir");
        let target = t.file("store");
        let w = StoreWriter::begin(&target).unwrap();
        stage_timeblocked(w.path(), &[12, 9]);
        write_timeblocked_manifest_into(w.path(), timeblocked_manifest()).unwrap();
        w.commit_dir().unwrap();

        let (m, nested) = validate_timeblocked_store_dir(&target).unwrap();
        assert_eq!(m.source_version, TIMEBLOCKED_STORE_VERSION);
        assert_eq!(m.blocks.len(), 2);
        assert_eq!(nested.len(), 2);
        assert_ne!(
            m.blocks[0].crc_manifest, 41,
            "commit recomputes nested CRCs"
        );
        assert_eq!(nested[0].cols, 12);
        assert_eq!(nested[1].cols, 9);
        assert_eq!(m.block_of_col(11), Some(0));
        assert_eq!(m.block_of_col(12), Some(1));
        // Genuine v4: blocks live in tblock-NNNN subdirectories.
        assert_eq!(m.block_dir(&target, 1), target.join("tblock-0001"));
        // No temp litter next to the store.
        let names: Vec<String> = std::fs::read_dir(t.path())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["store".to_string()], "{names:?}");
    }

    #[test]
    fn block_table_without_staged_block_refused() {
        let t = ats_common::TestDir::new("ats-storedir");
        let target = t.file("store");
        let w = StoreWriter::begin(&target).unwrap();
        // Only block 0 staged; the manifest declares two.
        stage_timeblocked(w.path(), &[12]);
        let err = write_timeblocked_manifest_into(w.path(), timeblocked_manifest()).unwrap_err();
        drop(w);
        assert!(matches!(err, AtsError::InvalidArgument(_)), "{err}");
        assert!(err.to_string().contains("time block 1"), "{err}");
        assert!(!target.exists());
    }

    #[test]
    fn timeblocked_validate_detects_nested_tampering() {
        let t = ats_common::TestDir::new("ats-storedir");
        let target = t.file("store");
        let w = StoreWriter::begin(&target).unwrap();
        stage_timeblocked(w.path(), &[12, 9]);
        write_timeblocked_manifest_into(w.path(), timeblocked_manifest()).unwrap();
        w.commit_dir().unwrap();

        // Corrupt one byte of a nested component: per-block validation fails.
        let victim = target
            .join(tblock_dir_name(1))
            .join(shard_dir_name(0))
            .join("u.atsm");
        let mut bytes = std::fs::read(&victim).unwrap();
        bytes[0] ^= 0x01;
        std::fs::write(&victim, &bytes).unwrap();
        assert!(validate_timeblocked_store_dir(&target).is_err());
        bytes[0] ^= 0x01;
        std::fs::write(&victim, &bytes).unwrap();
        validate_timeblocked_store_dir(&target).unwrap();

        // Rewrite a nested manifest (self-consistent but different):
        // the top-level nested-manifest CRC catches the swap.
        let nested_path = target.join(tblock_dir_name(0)).join(MANIFEST_FILE);
        let mut nested =
            ShardedManifest::parse(&std::fs::read_to_string(&nested_path).unwrap()).unwrap();
        nested.k += 1;
        std::fs::write(&nested_path, nested.encode()).unwrap();
        let err = validate_timeblocked_store_dir(&target).unwrap_err();
        assert!(matches!(err, AtsError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("time block 0"), "{err}");

        // A whole missing block directory is corruption, not a crash.
        std::fs::remove_dir_all(target.join(tblock_dir_name(0))).unwrap();
        assert!(validate_timeblocked_store_dir(&target).is_err());
    }
}
