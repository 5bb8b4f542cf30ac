//! Persistent multi-attribute catalogs: a `.bixcat` manifest plus one
//! `BIXIDX2` index file per attribute.
//!
//! The manifest is deliberately tiny — it names the attributes and
//! their index files; all bitmap payload lives in the per-attribute
//! files (each self-checksummed, see [`BitmapIndex::save_to`]). Layout:
//!
//! ```text
//! "BIXCAT1\n"                       magic
//! attrs: u32 LE                     (≤ MAX_CATALOG_ATTRS)
//! rows:  u64 LE
//! per attribute:
//!   name_len: u32 LE, name bytes    identifier chars, ≤ 64 bytes
//!   file_len: u32 LE, file bytes    relative filename, ≤ 256 bytes
//! crc32 of everything above: u32 LE
//! ```
//!
//! Index files are stored *relative* to the manifest; the loader
//! rejects separators and `..` components so a hostile manifest cannot
//! read outside its own directory. The whole manifest is CRC-covered,
//! and attribute indexes verify/repair through the same
//! [`crate::degrade`] machinery as standalone indexes.

use crate::degrade::{RepairReport, VerifyReport};
use crate::persist::is_index_magic;
use crate::{BitmapIndex, IndexConfig, IndexedTable};
use bix_storage::crc32;
use std::fmt;
use std::io::{self, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"BIXCAT1\n";

/// Most attributes one catalog may declare — a hostile manifest cannot
/// make the loader allocate unboundedly.
pub const MAX_CATALOG_ATTRS: usize = 256;

const MAX_NAME_LEN: usize = 64;
const MAX_FILE_LEN: usize = 256;

/// A typed catalog failure.
#[derive(Debug)]
pub enum CatalogError {
    /// An underlying file operation failed.
    Io(io::Error),
    /// The file starts with neither the catalog nor an index magic, or
    /// the manifest is malformed past its magic.
    BadMagic,
    /// The manifest's trailing CRC does not match its contents.
    CrcMismatch,
    /// The manifest declares more attributes than [`MAX_CATALOG_ATTRS`].
    TooManyAttrs {
        /// Declared count.
        got: usize,
        /// The enforced cap.
        cap: usize,
    },
    /// An attribute name is empty, too long, or not an identifier.
    BadName {
        /// The offending name (lossily decoded, clipped).
        name: String,
    },
    /// An index filename is empty, too long, absolute, or escapes the
    /// manifest's directory.
    BadFileName {
        /// The offending filename (lossily decoded, clipped).
        name: String,
    },
    /// The same attribute name appears twice.
    DuplicateAttr {
        /// The repeated name.
        name: String,
    },
    /// An attribute index's row count disagrees with the manifest.
    RowsMismatch {
        /// The attribute whose index disagrees.
        attr: String,
        /// Rows in the index file.
        got: usize,
        /// Rows the manifest declares.
        want: u64,
    },
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::Io(e) => write!(f, "catalog i/o: {e}"),
            CatalogError::BadMagic => {
                write!(f, "neither a catalog nor an index file (bad magic)")
            }
            CatalogError::CrcMismatch => write!(f, "catalog manifest checksum mismatch"),
            CatalogError::TooManyAttrs { got, cap } => {
                write!(f, "manifest declares {got} attributes (cap {cap})")
            }
            CatalogError::BadName { name } => write!(f, "bad attribute name {name:?}"),
            CatalogError::BadFileName { name } => write!(f, "bad index filename {name:?}"),
            CatalogError::DuplicateAttr { name } => {
                write!(f, "attribute {name:?} declared twice")
            }
            CatalogError::RowsMismatch { attr, got, want } => {
                write!(f, "index for {attr:?} has {got} rows, manifest says {want}")
            }
        }
    }
}

impl std::error::Error for CatalogError {}

impl From<io::Error> for CatalogError {
    fn from(e: io::Error) -> CatalogError {
        CatalogError::Io(e)
    }
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= MAX_NAME_LEN
        && name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_')
        && !name.as_bytes()[0].is_ascii_digit()
}

fn valid_filename(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= MAX_FILE_LEN
        && !name.contains('/')
        && !name.contains('\\')
        && !name.contains("..")
}

fn clip_lossy(bytes: &[u8]) -> String {
    let s = String::from_utf8_lossy(&bytes[..bytes.len().min(48)]);
    s.into_owned()
}

/// A persistent multi-attribute catalog: an [`IndexedTable`] plus the
/// manifest bookkeeping that ties each attribute to its index file.
pub struct Catalog {
    table: IndexedTable,
    files: Vec<String>,
    /// Opened from a bare index file: [`Catalog::save`] writes that
    /// format back.
    bare: bool,
}

impl Catalog {
    /// Wraps an in-memory table; index filenames are derived from the
    /// manifest stem at save time.
    pub fn from_table(table: IndexedTable) -> Catalog {
        Catalog {
            table,
            files: Vec::new(),
            bare: false,
        }
    }

    /// Builds a catalog from whole columns: one `(name, column, config)`
    /// triple per attribute.
    ///
    /// # Panics
    ///
    /// Panics on column-length mismatches or duplicate names (same
    /// contract as [`IndexedTable::add_attribute`]).
    pub fn build(rows: usize, columns: &[(&str, &[u64], IndexConfig)]) -> Catalog {
        let mut table = IndexedTable::new(rows);
        for (name, column, config) in columns {
            table.add_attribute(name, column, config.clone());
        }
        Catalog::from_table(table)
    }

    /// The underlying table.
    pub fn table(&self) -> &IndexedTable {
        &self.table
    }

    /// The underlying table, mutably (evaluation needs `&mut`).
    pub fn table_mut(&mut self) -> &mut IndexedTable {
        &mut self.table
    }

    /// Consumes the catalog, yielding its table.
    pub fn into_table(self) -> IndexedTable {
        self.table
    }

    /// Saves the manifest at `path` and one `BIXIDX2` file per
    /// attribute beside it, named `<stem>.<attr>.bix` — or, for a
    /// catalog [`Catalog::open`]ed from a bare index file, that one index
    /// at `path` in its own format.
    pub fn save(&mut self, path: impl AsRef<Path>) -> Result<(), CatalogError> {
        let path = path.as_ref();
        if let Some(index) = self.table.single_index().filter(|_| self.bare) {
            return index.save(path).map_err(CatalogError::Io);
        }
        let dir = path.parent().map(Path::to_path_buf).unwrap_or_default();
        let stem = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "catalog".to_owned());
        let schema = self.table.schema();
        self.files = schema
            .attrs()
            .iter()
            .map(|a| format!("{stem}.{}.bix", a.name))
            .collect();
        for (i, file) in self.files.iter().enumerate() {
            let name = schema.attr(i).name.clone();
            let index = self
                .table
                .index(&name)
                .expect("schema attribute has an index");
            index.save(dir.join(file))?;
        }
        let mut manifest = Vec::new();
        manifest.extend_from_slice(MAGIC);
        manifest.extend_from_slice(&(schema.len() as u32).to_le_bytes());
        manifest.extend_from_slice(&(self.table.rows() as u64).to_le_bytes());
        for (a, file) in schema.attrs().iter().zip(&self.files) {
            manifest.extend_from_slice(&(a.name.len() as u32).to_le_bytes());
            manifest.extend_from_slice(a.name.as_bytes());
            manifest.extend_from_slice(&(file.len() as u32).to_le_bytes());
            manifest.extend_from_slice(file.as_bytes());
        }
        let crc = crc32(&manifest);
        let file = std::fs::File::create(path)?;
        let mut w = io::BufWriter::new(file);
        w.write_all(&manifest)?;
        w.write_all(&crc.to_le_bytes())?;
        w.flush()?;
        Ok(())
    }

    /// Opens either on-disk format, told apart by its magic: a `.bixcat`
    /// manifest (CRC-checked before any field is trusted, then every
    /// attribute index via [`BitmapIndex::load`]), or a single `BIXIDX2`
    /// index file as a one-attribute catalog whose attribute is
    /// [`crate::VALUE_ATTR`]. Any other file is [`CatalogError::BadMagic`].
    pub fn open(path: impl AsRef<Path>) -> Result<Catalog, CatalogError> {
        Catalog::open_with(path.as_ref(), false)
    }

    /// Like [`Catalog::open`] but indexes load through
    /// [`BitmapIndex::load_tolerant`], quarantining corrupt bitmaps
    /// instead of failing (a manifest itself must still be intact).
    pub fn open_tolerant(path: impl AsRef<Path>) -> Result<Catalog, CatalogError> {
        Catalog::open_with(path.as_ref(), true)
    }

    fn open_with(path: &Path, tolerant: bool) -> Result<Catalog, CatalogError> {
        let mut magic = Vec::with_capacity(MAGIC.len());
        std::fs::File::open(path)?
            .take(MAGIC.len() as u64)
            .read_to_end(&mut magic)?;
        if magic == MAGIC {
            return Catalog::load_manifest(path, tolerant);
        }
        if !is_index_magic(&magic) {
            return Err(CatalogError::BadMagic);
        }
        Ok(Catalog {
            table: load_index(path, tolerant)?.into(),
            files: Vec::new(),
            bare: true,
        })
    }

    fn load_manifest(path: &Path, tolerant: bool) -> Result<Catalog, CatalogError> {
        let bytes = std::fs::read(path)?;
        let entries = parse_manifest(&bytes)?;
        let dir = path.parent().map(Path::to_path_buf).unwrap_or_default();
        let (rows, entries) = entries;
        let mut table = IndexedTable::new(rows as usize);
        let mut files = Vec::with_capacity(entries.len());
        for (name, file) in entries {
            let index = load_index(&dir.join(&file), tolerant)?;
            if index.rows() as u64 != rows {
                return Err(CatalogError::RowsMismatch {
                    attr: name,
                    got: index.rows(),
                    want: rows,
                });
            }
            table.add_index(&name, index);
            files.push(file);
        }
        Ok(Catalog {
            table,
            files,
            bare: false,
        })
    }

    /// Verifies every attribute index's checksums, returning one report
    /// per attribute in schema order.
    pub fn verify(&mut self) -> Vec<(String, VerifyReport)> {
        self.table
            .indexes_mut()
            .map(|(name, index)| (name.to_owned(), index.verify()))
            .collect()
    }

    /// Repairs every attribute index, returning one report per
    /// attribute in schema order.
    pub fn repair(&mut self) -> Vec<(String, RepairReport)> {
        self.table
            .indexes_mut()
            .map(|(name, index)| (name.to_owned(), index.repair()))
            .collect()
    }

    /// The per-attribute index filenames recorded by the last
    /// [`Catalog::save`] or [`Catalog::open`] of a manifest, in schema
    /// order (empty for a bare index file).
    pub fn files(&self) -> &[String] {
        &self.files
    }
}

/// Loads one index file, strictly or tolerantly.
fn load_index(path: &Path, tolerant: bool) -> io::Result<BitmapIndex> {
    let reader = io::BufReader::new(std::fs::File::open(path)?);
    if tolerant {
        BitmapIndex::load_tolerant(reader)
    } else {
        BitmapIndex::load_from(reader)
    }
}

/// Parses and validates a manifest byte string.
fn parse_manifest(bytes: &[u8]) -> Result<(u64, Vec<(String, String)>), CatalogError> {
    // The trailing CRC covers everything before it; check it before
    // trusting any declared length.
    if bytes.len() < MAGIC.len() + 4 + 8 + 4 {
        return Err(CatalogError::BadMagic);
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err(CatalogError::BadMagic);
    }
    let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let declared = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
    if crc32(body) != declared {
        return Err(CatalogError::CrcMismatch);
    }
    let mut r = &body[MAGIC.len()..];
    let attrs = read_u32(&mut r)? as usize;
    if attrs > MAX_CATALOG_ATTRS {
        return Err(CatalogError::TooManyAttrs {
            got: attrs,
            cap: MAX_CATALOG_ATTRS,
        });
    }
    let rows = read_u64(&mut r)?;
    let mut entries = Vec::with_capacity(attrs);
    for _ in 0..attrs {
        let name_bytes = read_prefixed(&mut r, MAX_NAME_LEN, |b| CatalogError::BadName {
            name: clip_lossy(b),
        })?;
        let name = String::from_utf8(name_bytes.to_vec()).map_err(|e| CatalogError::BadName {
            name: clip_lossy(e.as_bytes()),
        })?;
        if !valid_name(&name) {
            return Err(CatalogError::BadName {
                name: clip_lossy(name.as_bytes()),
            });
        }
        let file_bytes = read_prefixed(&mut r, MAX_FILE_LEN, |b| CatalogError::BadFileName {
            name: clip_lossy(b),
        })?;
        let file =
            String::from_utf8(file_bytes.to_vec()).map_err(|e| CatalogError::BadFileName {
                name: clip_lossy(e.as_bytes()),
            })?;
        if !valid_filename(&file) {
            return Err(CatalogError::BadFileName {
                name: clip_lossy(file.as_bytes()),
            });
        }
        if entries.iter().any(|(n, _)| *n == name) {
            return Err(CatalogError::DuplicateAttr { name });
        }
        entries.push((name, file));
    }
    if !r.is_empty() {
        // Trailing bytes the CRC happened to cover are still malformed.
        return Err(CatalogError::BadMagic);
    }
    Ok((rows, entries))
}

fn read_u32(r: &mut &[u8]) -> Result<u32, CatalogError> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf).map_err(|_| CatalogError::BadMagic)?;
    Ok(u32::from_le_bytes(buf))
}

fn read_u64(r: &mut &[u8]) -> Result<u64, CatalogError> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf).map_err(|_| CatalogError::BadMagic)?;
    Ok(u64::from_le_bytes(buf))
}

fn read_prefixed<'a>(
    r: &mut &'a [u8],
    cap: usize,
    err: impl Fn(&[u8]) -> CatalogError,
) -> Result<&'a [u8], CatalogError> {
    let len = read_u32(r)? as usize;
    if len > cap || len > r.len() {
        return Err(err(&r[..r.len().min(cap)]));
    }
    let (head, tail) = r.split_at(len);
    *r = tail;
    Ok(head)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CodecKind, EncodingScheme, Planner, TableQuery};
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bixcat-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn star_columns() -> (Vec<u64>, Vec<u64>, Vec<u64>) {
        let rows = 200usize;
        let region: Vec<u64> = (0..rows).map(|i| (i * 7 % 8) as u64).collect();
        let store: Vec<u64> = (0..rows).map(|i| (i * 13 % 48) as u64).collect();
        let discount: Vec<u64> = (0..rows).map(|i| (i * i % 50) as u64).collect();
        (region, store, discount)
    }

    fn build_catalog() -> Catalog {
        let (region, store, discount) = star_columns();
        Catalog::build(
            region.len(),
            &[
                (
                    "region",
                    &region,
                    IndexConfig::one_component(8, EncodingScheme::Equality),
                ),
                (
                    "store",
                    &store,
                    IndexConfig::one_component(48, EncodingScheme::Interval)
                        .with_codec(CodecKind::Wah),
                ),
                (
                    "discount",
                    &discount,
                    IndexConfig::one_component(50, EncodingScheme::Interval),
                ),
            ],
        )
    }

    #[test]
    fn save_load_round_trips_and_queries_match() {
        let dir = temp_dir("roundtrip");
        let path = dir.join("star.bixcat");
        let mut cat = build_catalog();
        let q = TableQuery::parse(
            "region in {0, 1} and (discount >= 7 or not store = 12)",
            &cat.table().schema(),
        )
        .unwrap();
        let want = cat.table_mut().evaluate(&q);
        cat.save(&path).unwrap();
        assert_eq!(cat.files().len(), 3);

        let mut loaded = Catalog::open(&path).unwrap();
        assert_eq!(loaded.table().rows(), 200);
        assert_eq!(
            loaded.table().schema().attrs().len(),
            cat.table().schema().attrs().len()
        );
        let got = loaded.table_mut().evaluate(&q);
        assert_eq!(got.to_positions(), want.to_positions());

        // Plans built against the loaded schema execute identically too.
        let plan = Planner::new(&loaded.table().schema()).plan(&q).unwrap();
        let pool = crate::BufferPool::striped(1024, 2);
        let planned = crate::ParallelExecutor::new(1)
            .execute(
                loaded.table(),
                &[plan],
                &pool,
                &crate::CostModel::default(),
                &crate::EvalOptions::default(),
            )
            .unwrap();
        assert_eq!(
            planned.results[0].bitmap.to_positions(),
            want.to_positions()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_reads_either_format() {
        let dir = temp_dir("open");
        let path = dir.join("star.bixcat");
        let mut cat = build_catalog();
        cat.save(&path).unwrap();
        let opened = Catalog::open(&path).unwrap();
        assert_eq!(opened.table().schema().len(), 3);
        assert_eq!(opened.files(), cat.files());

        // A bare index file opens as the one-attribute table `value`.
        let index_path = dir.join(&cat.files()[0]);
        let opened = Catalog::open(&index_path).unwrap();
        assert_eq!(opened.table().attribute_names(), vec![crate::VALUE_ATTR]);
        assert_eq!(opened.table().rows(), 200);
        assert!(opened.table().single_index().is_some());
        // ... and saves back as a bare index file.
        let mut opened = Catalog::open_tolerant(&index_path).unwrap();
        let resaved = dir.join("resaved.bix");
        opened.save(&resaved).unwrap();
        assert_eq!(BitmapIndex::load(&resaved).unwrap().rows(), 200);

        // Neither format: the index loader's typed error.
        std::fs::write(dir.join("junk"), b"BIX").unwrap();
        assert!(Catalog::open(dir.join("junk")).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_corruption_is_typed() {
        let dir = temp_dir("corrupt");
        let path = dir.join("star.bixcat");
        build_catalog().save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();

        // Flip a body byte: CRC mismatch.
        bytes[12] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            Catalog::open(&path),
            Err(CatalogError::CrcMismatch)
        ));

        // Bad magic.
        bytes[12] ^= 0xff;
        bytes[0] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(Catalog::open(&path), Err(CatalogError::BadMagic)));

        // Truncation anywhere is an error, never a panic.
        bytes[0] ^= 0xff;
        for cut in 0..bytes.len() {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            assert!(Catalog::open(&path).is_err(), "cut={cut}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hostile_filenames_are_rejected() {
        // Hand-build a manifest whose index file escapes the directory.
        let dir = temp_dir("hostile");
        let path = dir.join("evil.bixcat");
        let mut body = Vec::new();
        body.extend_from_slice(MAGIC);
        body.extend_from_slice(&1u32.to_le_bytes());
        body.extend_from_slice(&8u64.to_le_bytes());
        {
            let (name, file) = ("a", "../escape.bix");
            body.extend_from_slice(&(name.len() as u32).to_le_bytes());
            body.extend_from_slice(name.as_bytes());
            body.extend_from_slice(&(file.len() as u32).to_le_bytes());
            body.extend_from_slice(file.as_bytes());
        }
        let crc = crc32(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        std::fs::write(&path, &body).unwrap();
        assert!(matches!(
            Catalog::open(&path),
            Err(CatalogError::BadFileName { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn index_corruption_fails_strict_load_but_not_tolerant() {
        let dir = temp_dir("tolerant");
        let path = dir.join("star.bixcat");
        let mut cat = build_catalog();
        cat.save(&path).unwrap();
        // Corrupt one byte deep inside an attribute's index payload.
        let victim = dir.join(&cat.files()[0]);
        let mut bytes = std::fs::read(&victim).unwrap();
        let at = bytes.len() - 9;
        bytes[at] ^= 0x40;
        std::fs::write(&victim, &bytes).unwrap();

        assert!(Catalog::open(&path).is_err());
        let mut salvaged = Catalog::open_tolerant(&path).unwrap();
        let reports = salvaged.verify();
        assert_eq!(reports.len(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_and_repair_cover_every_attribute() {
        let mut cat = build_catalog();
        let reports = cat.verify();
        assert_eq!(reports.len(), 3);
        assert!(reports.iter().all(|(_, r)| r.corrupt.is_empty()));
        let repairs = cat.repair();
        assert_eq!(repairs.len(), 3);
    }
}
