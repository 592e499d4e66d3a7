//! SQB — the paper's binary sequence-database format, version 3.
//!
//! Paper §IV: *"Sequence database files created using the Fasta format are
//! in fact text files, with sequences placed one after the other. For that
//! reason, it is not feasible to read specific sequences contained in the
//! file [...] a simple binary format was created with a few additional
//! fields. Using this format, both the master and workers are able to read
//! sequences in any position inside the file, directly. Additionally, the
//! memory allocation process is simplified due to the fact that all the
//! sequences sizes are known beforehand."*
//!
//! Version 3 also prepares the database for the inter-sequence kernel
//! once, when it is written, as SWAPHI does in its preprocessing: the
//! records are stored in *length order* (longest first, ties by their
//! original index), and their residues as one block per
//! [`BLOCK_RECORDS`] records of that order. Each block is the
//! [`crate::lanes`] stream of its records — 32 lanes, refilled on
//! four-column boundaries — so a search scores the file's columns where
//! they lie, and a slice of the length order cut on a multiple of
//! [`BLOCK_RECORDS`] is a range of whole blocks.
//!
//! Layout (all integers little-endian; DESIGN.md, "SQB version 3", is the
//! byte-level specification):
//!
//! ```text
//! +---------------------------------------------------------------+
//! | magic "SQB1" | version u16 = 3 | alphabet u8 | flags u8 = 0    |   header,
//! | n_sequences u64 | total_residues u64 | names_len u64           |   80 bytes
//! | columns u64 | residues_offset u64 | names_offset u64           |
//! | index_offset u64 | blocks_offset u64 | file_len u64            |
//! +---------------------------------------------------------------+
//! | block 0: columns × 32 cells | block 1 | ...                    |   residue area
//! +---------------------------------------------------------------+
//! | id 0 | description 0 | id 1 | description 1 | ...              |   names, in
//! +---------------------------------------------------------------+   length order
//! | (name_offset u64, residue_len u32, original u32, column u32,  |   index, in
//! |  lane u32, id_len u16, desc_len u16) * n_sequences             |   length order
//! +---------------------------------------------------------------+
//! | (first_column u64, columns u64, residues u64) * n_blocks       |   block table
//! +---------------------------------------------------------------+
//! ```
//!
//! Nothing in a file is left to trust: a reader re-deals each block from
//! its records' lengths and requires the stored starts and widths, checks
//! that the original indices are a permutation and that the order is the
//! length order, and checks every cell of the residue area ([`SqbImage`]
//! at open, [`SqbFile::read_all`] block by block). [`SqbImage`] then
//! hands out the columns in place; [`SqbFile`] is the owned, streaming
//! decode of the same file. Both give records by their original index.
//! [`encode`], [`write_file`] and [`SqbImage::from_records`] write it.

use crate::alphabet::Alphabet;
use crate::error::BioError;
use crate::lanes::{self, Start, BLOCK_RECORDS, LANES, PAD};
use crate::seq::{Sequence, SequenceSet};
use bytes::{Buf, BufMut};
use std::borrow::Borrow;
use std::cmp::Reverse;
use std::io::{Read, Seek, SeekFrom, Write};

/// File magic, first four bytes of every SQB file of any version.
pub const MAGIC: &[u8; 4] = b"SQB1";
/// Format version written and read by this build.
pub const VERSION: u16 = 3;
/// Size of the fixed header in bytes.
pub const HEADER_LEN: usize = 80;
/// Size of one index entry in bytes.
pub const INDEX_ENTRY_LEN: usize = 8 + 4 + 4 + 4 + 4 + 2 + 2;
/// Size of one block-table entry in bytes.
pub const BLOCK_ENTRY_LEN: usize = 3 * 8;
/// Buffer of the file reader and writer [`SqbFile::open`] and
/// [`write_file`] set up: a whole-database pass makes one system call
/// per 64 KiB, not per 8 KiB.
const FILE_BUFFER: usize = 1 << 16;

fn malformed(msg: impl Into<String>) -> BioError {
    BioError::MalformedSqb(msg.into())
}

/// Parsed and checked SQB header. The block offsets and the file length
/// follow from the four sizes; a header is accepted only when the stored
/// values are the derived ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Format version of the file.
    pub version: u16,
    /// Alphabet the residues are encoded in.
    pub alphabet: Alphabet,
    /// Number of sequence records.
    pub n_sequences: u64,
    /// Sum of residue counts over all records.
    pub total_residues: u64,
    /// Length of the names block in bytes.
    pub names_len: u64,
    /// Columns of all blocks together: the residue area holds
    /// `columns × 32` cells.
    pub columns: u64,
    /// Byte offset of the residue area (always [`HEADER_LEN`]).
    pub residues_offset: u64,
    /// Byte offset of the names block.
    pub names_offset: u64,
    /// Byte offset of the index.
    pub index_offset: u64,
    /// Byte offset of the block table.
    pub blocks_offset: u64,
    /// Length of the whole file.
    pub file_len: u64,
}

impl Header {
    /// The header of a file whose parts have these sizes; `None` when
    /// the file would outgrow 64-bit offsets.
    fn for_blocks(
        alphabet: Alphabet,
        n_sequences: u64,
        total_residues: u64,
        names_len: u64,
        columns: u64,
    ) -> Option<Header> {
        let residues_offset = HEADER_LEN as u64;
        let cells = columns.checked_mul(LANES as u64)?;
        let names_offset = residues_offset.checked_add(cells)?;
        let index_offset = names_offset.checked_add(names_len)?;
        let blocks_offset = n_sequences
            .checked_mul(INDEX_ENTRY_LEN as u64)
            .and_then(|index_len| index_offset.checked_add(index_len))?;
        let file_len = n_sequences
            .div_ceil(BLOCK_RECORDS as u64)
            .checked_mul(BLOCK_ENTRY_LEN as u64)
            .and_then(|table_len| blocks_offset.checked_add(table_len))?;
        Some(Header {
            version: VERSION,
            alphabet,
            n_sequences,
            total_residues,
            names_len,
            columns,
            residues_offset,
            names_offset,
            index_offset,
            blocks_offset,
            file_len,
        })
    }

    /// Parse the first bytes of a file. Magic and version are judged
    /// before the length, so a file of an older version (with a shorter
    /// header) is reported as such.
    fn parse(bytes: &[u8]) -> Result<Header, BioError> {
        let too_short = || malformed("file shorter than header");
        let mut buf = bytes;
        if buf.len() < MAGIC.len() + 2 {
            return Err(too_short());
        }
        let mut magic = [0u8; 4];
        buf.copy_to_slice(&mut magic);
        if &magic != MAGIC {
            return Err(malformed(format!(
                "bad magic {magic:?}, expected {MAGIC:?}"
            )));
        }
        let version = buf.get_u16_le();
        if version != VERSION {
            return Err(BioError::UnsupportedSqbVersion(version));
        }
        if bytes.len() < HEADER_LEN {
            return Err(too_short());
        }
        let alphabet_tag = buf.get_u8();
        let alphabet = Alphabet::from_tag(alphabet_tag)
            .ok_or_else(|| malformed(format!("unknown alphabet tag {alphabet_tag}")))?;
        if buf.get_u8() != 0 {
            return Err(malformed("reserved flags are set"));
        }
        let (n_sequences, total_residues, names_len, columns) = (
            buf.get_u64_le(),
            buf.get_u64_le(),
            buf.get_u64_le(),
            buf.get_u64_le(),
        );
        // A search orders its subjects by `u32` index.
        if n_sequences > u64::from(u32::MAX) {
            return Err(malformed(format!(
                "{n_sequences} records, more than the {} a database may hold",
                u32::MAX
            )));
        }
        let stored = [(); 5].map(|()| buf.get_u64_le());
        Header::for_blocks(alphabet, n_sequences, total_residues, names_len, columns)
            .filter(|h| stored == h.offsets())
            .ok_or_else(|| malformed("block offsets disagree with the record count and sizes"))
    }

    /// The stored offsets and length, in header order.
    fn offsets(&self) -> [u64; 5] {
        [
            self.residues_offset,
            self.names_offset,
            self.index_offset,
            self.blocks_offset,
            self.file_len,
        ]
    }

    fn put(&self, out: &mut Vec<u8>) {
        out.put_slice(MAGIC);
        out.put_u16_le(self.version);
        out.put_u8(self.alphabet.tag());
        out.put_u8(0); // flags, reserved
        let sizes = [
            self.n_sequences,
            self.total_residues,
            self.names_len,
            self.columns,
        ];
        for field in sizes.into_iter().chain(self.offsets()) {
            out.put_u64_le(field);
        }
    }

    /// Number of blocks: one per [`BLOCK_RECORDS`] records.
    pub fn n_blocks(&self) -> u64 {
        self.n_sequences.div_ceil(BLOCK_RECORDS as u64)
    }

    /// Cells of the residue area that hold no residue, as a share of
    /// the residues; 0 for an empty database.
    pub fn padding(&self) -> f64 {
        match self.total_residues {
            0 => 0.0,
            residues => {
                let cells = self.columns.saturating_mul(LANES as u64);
                cells.saturating_sub(residues) as f64 / residues as f64
            }
        }
    }

    /// A file of `actual` bytes is exactly the file this header describes.
    fn check_file_len(&self, actual: u64) -> Result<(), BioError> {
        match actual.cmp(&self.file_len) {
            std::cmp::Ordering::Equal => Ok(()),
            std::cmp::Ordering::Less => Err(malformed(format!(
                "truncated: {actual} of the {} bytes the header declares",
                self.file_len
            ))),
            std::cmp::Ordering::Greater => Err(malformed(format!(
                "{} bytes after the end the header declares",
                actual - self.file_len
            ))),
        }
    }
}

/// One index entry: a record of the length order — where its names
/// start, its length, its index in the order it was written in, and
/// where its block's stream starts it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct IndexEntry {
    /// Offset of the id (the description follows it) within the names block.
    name_offset: u64,
    /// Residue count of the record (enables pre-allocation).
    residue_len: u32,
    /// Index of the record in the order it was written in.
    original: u32,
    /// Where the record's lane takes it, within its block.
    start: Start,
    /// Length of the id in bytes.
    id_len: u16,
    /// Length of the description in bytes.
    desc_len: u16,
}

impl IndexEntry {
    /// Parse one entry from exactly [`INDEX_ENTRY_LEN`] bytes.
    fn parse(mut buf: &[u8]) -> IndexEntry {
        IndexEntry {
            name_offset: buf.get_u64_le(),
            residue_len: buf.get_u32_le(),
            original: buf.get_u32_le(),
            start: Start {
                column: buf.get_u32_le(),
                lane: buf.get_u32_le(),
            },
            id_len: buf.get_u16_le(),
            desc_len: buf.get_u16_le(),
        }
    }

    fn put(&self, out: &mut Vec<u8>) {
        out.put_u64_le(self.name_offset);
        out.put_u32_le(self.residue_len);
        out.put_u32_le(self.original);
        out.put_u32_le(self.start.column);
        out.put_u32_le(self.start.lane);
        out.put_u16_le(self.id_len);
        out.put_u16_le(self.desc_len);
    }

    fn names_len(&self) -> u64 {
        u64::from(self.id_len) + u64::from(self.desc_len)
    }

    fn len(&self) -> usize {
        self.residue_len as usize
    }

    /// Entry `p` of a raw index; `None` past its end.
    fn at(index: &[u8], p: usize) -> Option<IndexEntry> {
        let start = p.checked_mul(INDEX_ENTRY_LEN)?;
        let end = start.checked_add(INDEX_ENTRY_LEN)?;
        index.get(start..end).map(IndexEntry::parse)
    }

    /// Every entry of a raw index, in length order.
    fn all(index: &[u8]) -> impl ExactSizeIterator<Item = IndexEntry> + '_ {
        index.chunks_exact(INDEX_ENTRY_LEN).map(IndexEntry::parse)
    }
}

/// One block-table entry: where a block's stream lies in the residue
/// area, and how many of its cells are residues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockEntry {
    /// Column of the residue area the block's stream starts at.
    pub first_column: u64,
    /// Columns of the block's stream.
    pub columns: u64,
    /// Residues of the block's records.
    pub residues: u64,
}

impl BlockEntry {
    fn parse(mut buf: &[u8]) -> BlockEntry {
        BlockEntry {
            first_column: buf.get_u64_le(),
            columns: buf.get_u64_le(),
            residues: buf.get_u64_le(),
        }
    }

    fn put(&self, out: &mut Vec<u8>) {
        out.put_u64_le(self.first_column);
        out.put_u64_le(self.columns);
        out.put_u64_le(self.residues);
    }

    fn all(table: &[u8]) -> impl ExactSizeIterator<Item = BlockEntry> + '_ {
        table.chunks_exact(BLOCK_ENTRY_LEN).map(BlockEntry::parse)
    }

    /// Entry `b` of a raw block table; `None` past its end.
    fn at(table: &[u8], b: usize) -> Option<BlockEntry> {
        let start = b.checked_mul(BLOCK_ENTRY_LEN)?;
        table
            .get(start..start.checked_add(BLOCK_ENTRY_LEN)?)
            .map(BlockEntry::parse)
    }

    /// The byte range of the block's cells within the residue area.
    fn cells(&self) -> std::ops::Range<usize> {
        // Checked against the header's columns, which fit the file.
        let first = self.first_column as usize * LANES;
        first..first + self.columns as usize * LANES
    }
}

/// Each block of a raw block table with the index entries of its
/// records.
fn blocks_of<'a>(
    index: &'a [u8],
    table: &'a [u8],
) -> impl Iterator<Item = (BlockEntry, Vec<IndexEntry>)> + 'a {
    let records = index.chunks(BLOCK_RECORDS * INDEX_ENTRY_LEN);
    BlockEntry::all(table).zip(records.map(|records| IndexEntry::all(records).collect()))
}

/// The most residues one block may hold: every start column of its
/// stream stays below `u32::MAX` (a lane pads at most three columns per
/// record).
fn block_fits(residues: u64) -> bool {
    residues + 4 * BLOCK_RECORDS as u64 <= u64::from(u32::MAX)
}

/// Walk the index and the block table once and check that they describe
/// the file's layout: the names tile their block, the records come in
/// length order and their original indices are a permutation, and each
/// block's stored starts, width and residues are those its records
/// deal out to, tiling the residue area. `each` sees every entry. Returns
/// each original index's position in the length order.
fn check_layout(
    index: &[u8],
    table: &[u8],
    header: &Header,
    mut each: impl FnMut(&IndexEntry) -> Result<(), BioError>,
) -> Result<Vec<u32>, BioError> {
    let n = IndexEntry::all(index).len();
    let mut position_of = vec![u32::MAX; n];
    let (mut residues, mut names) = (0u64, 0u64);
    let mut previous: Option<(Reverse<u32>, u32)> = None;
    for (p, entry) in IndexEntry::all(index).enumerate() {
        if entry.name_offset != names {
            return Err(malformed("index entries do not tile the names block"));
        }
        let key = (Reverse(entry.residue_len), entry.original);
        if previous.is_some_and(|previous| previous >= key) {
            return Err(malformed(format!("record {p} breaks the length order")));
        }
        previous = Some(key);
        match position_of.get_mut(entry.original as usize) {
            Some(slot) if *slot == u32::MAX => *slot = p as u32,
            Some(_) => {
                return Err(malformed(format!(
                    "original index {} appears twice",
                    entry.original
                )))
            }
            None => {
                return Err(malformed(format!(
                    "original index {} of {n} records",
                    entry.original
                )))
            }
        }
        each(&entry)?;
        // Each sum stays below the next check's bound only if the file
        // is sound, so an overflowing one is corrupt.
        residues = residues
            .checked_add(u64::from(entry.residue_len))
            .ok_or_else(|| malformed("index residue lengths overflow"))?;
        names = names
            .checked_add(entry.names_len())
            .ok_or_else(|| malformed("index name lengths overflow"))?;
    }
    if residues != header.total_residues || names != header.names_len {
        return Err(malformed("index totals disagree with the header"));
    }
    let mut column = 0u64;
    for (b, (block, entries)) in blocks_of(index, table).enumerate() {
        let held: u64 = entries.iter().map(|e| u64::from(e.residue_len)).sum();
        if block.first_column != column || block.residues != held || !block_fits(held) {
            return Err(malformed(format!("block {b} disagrees with its records")));
        }
        let (starts, width) = lanes::deal(entries.iter().map(IndexEntry::len));
        if block.columns != width as u64 || entries.iter().map(|e| e.start).ne(starts) {
            return Err(malformed(format!(
                "block {b}'s stream is not the one its records deal out to"
            )));
        }
        column += block.columns;
    }
    if column != header.columns {
        return Err(malformed("the blocks do not tile the residue area"));
    }
    Ok(position_of)
}

/// Whether the cells of `block`, whose records are `entries`, hold
/// residues of `alphabet` exactly where the records lie.
fn block_is_sound(cells: &[u8], entries: &[IndexEntry], alphabet: Alphabet) -> bool {
    let records = entries.iter().map(|entry| (entry.start, entry.len()));
    lanes::cells_are_sound(cells, records, alphabet.size())
}

fn bad_cells() -> BioError {
    malformed("residue area holds a code out of range for the alphabet, or a pad inside a record")
}

/// Every code is a residue of `alphabet`. A max-fold, not `all`: it
/// vectorises.
fn codes_in_range(codes: &[u8], alphabet: Alphabet) -> bool {
    (codes.iter().fold(0u8, |max, &c| max.max(c)) as usize) < alphabet.size()
}

/// The id and description `entry` names in the names block; `None`
/// when either would leave the block or split a character.
fn names_of<'a>(names: &'a str, entry: &IndexEntry) -> Option<(&'a str, &'a str)> {
    let start = usize::try_from(entry.name_offset).ok()?;
    let mid = start.checked_add(usize::from(entry.id_len))?;
    let end = mid.checked_add(usize::from(entry.desc_len))?;
    Some((names.get(start..mid)?, names.get(mid..end)?))
}

fn bad_name() -> BioError {
    malformed("a name does not end on a character boundary of the names block")
}

fn names_not_utf8() -> BioError {
    malformed("names block is not UTF-8")
}

/// A whole SQB database held as the bytes of its file, checked once.
///
/// This is the database type of the search path: the CPU workers and
/// the simulated devices score its blocks' columns in place, and the
/// report resolves the ids of the hits it prints from the names block.
/// It is the paper's "read sequences in any position inside the file,
/// directly" with "all the sequences sizes known beforehand": after
/// [`SqbImage::open`] nothing is decoded or copied; a record's residues
/// are gathered from its lane only when asked for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SqbImage {
    bytes: Vec<u8>,
    header: Header,
    /// Each original index's position in the length order.
    position_of: Vec<u32>,
}

/// One record of an [`SqbImage`], borrowed from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record<'a> {
    /// The stream of the record's block.
    columns: &'a [u8],
    start: Start,
    len: usize,
    id: &'a [u8],
    description: &'a [u8],
}

impl<'a> Record<'a> {
    /// The encoded residues (what the kernels consume), gathered from
    /// the record's lane.
    pub fn residues(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len);
        lanes::gather(self.columns, self.start, self.len, &mut out);
        out
    }

    /// Number of residues.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the record holds no residues.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Record identifier.
    pub fn id(&self) -> &'a str {
        checked_str(self.id)
    }

    /// Free-text description, may be empty.
    pub fn description(&self) -> &'a str {
        checked_str(self.description)
    }
}

/// A name of a checked image as text: the names block is UTF-8 and
/// every name starts and ends on a character boundary of it.
fn checked_str(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("SqbImage names were checked when the image was opened")
}

/// One record of the length order, as the kernels need it: its index
/// in the order written, its length and where its block's stream
/// starts it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Index of the record in the order it was written in.
    pub original: u32,
    /// Residues of the record.
    pub len: u32,
    /// Column (within its block) and lane of the record's first residue.
    pub start: Start,
}

impl SqbImage {
    /// Read a file into one allocation and check it.
    pub fn open(path: impl AsRef<std::path::Path>) -> Result<SqbImage, BioError> {
        SqbImage::from_bytes(std::fs::read(path)?)
    }

    /// Take the bytes of an SQB file and check them: header, exact
    /// length, index, permutation, block table, every cell of the
    /// residue area, UTF-8 names. Everything an accessor relies on is
    /// established here.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<SqbImage, BioError> {
        let header = Header::parse(&bytes)?;
        header.check_file_len(bytes.len() as u64)?;
        let mut image = SqbImage {
            bytes,
            header,
            position_of: Vec::new(),
        };
        let names = std::str::from_utf8(image.names_block()).map_err(|_| names_not_utf8())?;
        image.position_of =
            check_layout(image.index_block(), image.block_table(), &header, |entry| {
                names_of(names, entry).map(drop).ok_or_else(bad_name)
            })?;
        for (block, entries) in blocks_of(image.index_block(), image.block_table()) {
            if !block_is_sound(&image.columns()[block.cells()], &entries, header.alphabet) {
                return Err(bad_cells());
            }
        }
        Ok(image)
    }

    /// Encode records, in the order given, into an image — how a FASTA
    /// file read record by record becomes a database. Each record is
    /// checked as it arrives (see [`encode`]) and only its residues and
    /// names are kept, one byte per residue beside a few dozen bytes per
    /// record, until the length order is known. The result passes
    /// through [`SqbImage::from_bytes`] like any file.
    pub fn from_records<S: Borrow<Sequence>>(
        alphabet: Alphabet,
        records: impl IntoIterator<Item = Result<S, BioError>>,
    ) -> Result<SqbImage, BioError> {
        let (mut residues, mut names) = (Vec::new(), Vec::new());
        // Per record: its sizes, and where its residues and names start.
        let (mut sizes, mut starts) = (Vec::new(), Vec::new());
        for record in records {
            let record = record?;
            let seq = record.borrow();
            sizes.push(sizes_of(seq, alphabet, sizes.len())?);
            starts.push((residues.len(), names.len()));
            residues.extend_from_slice(&seq.residues);
            names.extend_from_slice(seq.id.as_bytes());
            names.extend_from_slice(seq.description.as_bytes());
        }
        let codes = |i: usize| &residues[starts[i].0..][..sizes[i].residues as usize];
        let names = |i: usize| {
            let (id, rest) = names[starts[i].1..].split_at(usize::from(sizes[i].id));
            (id, &rest[..usize::from(sizes[i].description)])
        };
        let mut out = Vec::new();
        put_database(&mut out, alphabet, &sizes, codes, names)?;
        SqbImage::from_bytes(out)
    }

    /// Encode an in-memory set into an image.
    pub fn from_set(set: &SequenceSet) -> Result<SqbImage, BioError> {
        SqbImage::from_bytes(encode(set)?)
    }

    /// The checked header.
    pub fn header(&self) -> &Header {
        &self.header
    }

    /// Alphabet the residues are encoded in.
    pub fn alphabet(&self) -> Alphabet {
        self.header.alphabet
    }

    /// Number of records.
    #[inline]
    pub fn len(&self) -> usize {
        self.position_of.len()
    }

    /// True when the database holds no records.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.position_of.is_empty()
    }

    /// Total residue count, from the header.
    #[inline]
    pub fn total_residues(&self) -> u64 {
        self.header.total_residues
    }

    /// The file's bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    // `from_bytes` made `file_len == bytes.len()`, so the offsets below
    // fit `usize` and lie inside `bytes`.
    /// The residue area: every block's stream, one after the other, one
    /// [`LANES`]-cell column at a time.
    pub fn columns(&self) -> &[u8] {
        &self.bytes[self.header.residues_offset as usize..self.header.names_offset as usize]
    }

    fn names_block(&self) -> &[u8] {
        &self.bytes[self.header.names_offset as usize..self.header.index_offset as usize]
    }

    fn index_block(&self) -> &[u8] {
        &self.bytes[self.header.index_offset as usize..self.header.blocks_offset as usize]
    }

    fn block_table(&self) -> &[u8] {
        &self.bytes[self.header.blocks_offset as usize..]
    }

    /// Every block, in length order: block `b` holds records
    /// `b * BLOCK_RECORDS..` of it.
    pub fn blocks(&self) -> impl ExactSizeIterator<Item = BlockEntry> + '_ {
        BlockEntry::all(self.block_table())
    }

    /// Every record of the length order, as the kernels place it.
    pub fn placements(&self) -> impl ExactSizeIterator<Item = Placement> + '_ {
        IndexEntry::all(self.index_block()).map(|entry| Placement {
            original: entry.original,
            len: entry.residue_len,
            start: entry.start,
        })
    }

    /// Record `i` of the order the records were written in; `None` past
    /// the end.
    pub fn get(&self, i: usize) -> Option<Record<'_>> {
        let p = *self.position_of.get(i)? as usize;
        let entry = IndexEntry::at(self.index_block(), p)?;
        let block = BlockEntry::at(self.block_table(), p / BLOCK_RECORDS)?;
        let names = &self.names_block()[entry.name_offset as usize..];
        let (id, rest) = names.split_at(usize::from(entry.id_len));
        Some(Record {
            columns: &self.columns()[block.cells()],
            start: entry.start,
            len: entry.len(),
            id,
            description: &rest[..usize::from(entry.desc_len)],
        })
    }

    /// Every record, in the order they were written in.
    pub fn records(&self) -> impl ExactSizeIterator<Item = Record<'_>> + '_ {
        (0..self.len()).map(|i| {
            self.get(i)
                .expect("every original index has a checked position")
        })
    }
}

/// Serialise a [`SequenceSet`] into SQB bytes. A record the format
/// cannot hold — another alphabet, a residue code outside it, an id or
/// description over 65 535 bytes, more than `u32::MAX` residues, one
/// record past `u32::MAX` of them — is refused with
/// [`BioError::UnencodableSqb`].
pub fn encode(set: &SequenceSet) -> Result<Vec<u8>, BioError> {
    let mut out = Vec::new();
    write_set(&mut out, set)?;
    Ok(out)
}

/// Decode a full SQB byte buffer into an owned [`SequenceSet`].
pub fn decode(bytes: &[u8]) -> Result<SequenceSet, BioError> {
    SqbFile::from_seekable(std::io::Cursor::new(bytes))?.read_all()
}

/// Owned decode of an SQB *file*: loads header, index and block table
/// eagerly and checks them, then reads records on demand — one at a time
/// by seeking ([`SqbFile::read_sequence`]: a record's columns, from its
/// lane), or all of them with the residue area streamed front to back,
/// one block at a time ([`SqbFile::read_all`]). Residues and names are
/// checked as they are read. Never holds more of the file than the
/// index, the block table, the names block and one block.
pub struct SqbFile<F: Read + Seek> {
    file: F,
    header: Header,
    /// The index as stored, checked at open.
    index: Vec<u8>,
    /// The block table as stored, checked at open.
    table: Vec<u8>,
    /// Each original index's position in the length order.
    position_of: Vec<u32>,
}

impl SqbFile<std::io::BufReader<std::fs::File>> {
    /// Open an SQB file from a filesystem path.
    pub fn open(path: impl AsRef<std::path::Path>) -> Result<Self, BioError> {
        let file = std::fs::File::open(path)?;
        Self::from_seekable(std::io::BufReader::with_capacity(FILE_BUFFER, file))
    }
}

fn read_bytes(file: &mut impl Read, len: usize) -> Result<Vec<u8>, BioError> {
    let mut bytes = vec![0u8; len];
    file.read_exact(&mut bytes)?;
    Ok(bytes)
}

fn read_text(file: &mut impl Read, len: u16, what: &str) -> Result<String, BioError> {
    String::from_utf8(read_bytes(file, usize::from(len))?)
        .map_err(|_| malformed(format!("record {what} is not UTF-8")))
}

impl<F: Read + Seek> SqbFile<F> {
    /// Wrap any seekable byte source.
    pub fn from_seekable(mut file: F) -> Result<Self, BioError> {
        file.seek(SeekFrom::Start(0))?;
        let mut head = Vec::with_capacity(HEADER_LEN);
        file.by_ref()
            .take(HEADER_LEN as u64)
            .read_to_end(&mut head)?;
        let header = Header::parse(&head)?;
        header.check_file_len(file.seek(SeekFrom::End(0))?)?;

        file.seek(SeekFrom::Start(header.index_offset))?;
        // Index and table lie inside the file just measured, so their
        // sizes are bounded by real bytes, not by a number the header
        // claims.
        let len = |from: u64, to: u64| {
            usize::try_from(to - from).map_err(|_| malformed("index exceeds the address space"))
        };
        let index = read_bytes(&mut file, len(header.index_offset, header.blocks_offset)?)?;
        let table = read_bytes(&mut file, len(header.blocks_offset, header.file_len)?)?;
        let position_of = check_layout(&index, &table, &header, |_| Ok(()))?;
        Ok(SqbFile {
            file,
            header,
            index,
            table,
            position_of,
        })
    }

    /// The parsed header.
    pub fn header(&self) -> &Header {
        &self.header
    }

    /// Number of sequences in the file.
    pub fn len(&self) -> usize {
        self.position_of.len()
    }

    /// True when the file holds no sequences.
    pub fn is_empty(&self) -> bool {
        self.position_of.is_empty()
    }

    /// Record `i` of the order written, its index entry and its block.
    fn entry(&self, i: usize) -> Option<(IndexEntry, BlockEntry)> {
        let p = *self.position_of.get(i)? as usize;
        let entry = IndexEntry::at(&self.index, p)?;
        let block = BlockEntry::at(&self.table, p / BLOCK_RECORDS)?;
        Some((entry, block))
    }

    /// Residue length of record `i` without any file I/O.
    pub fn residue_len(&self, i: usize) -> Option<u32> {
        self.entry(i).map(|(entry, _)| entry.residue_len)
    }

    /// Seek to and read record `i` of the order written: the columns its
    /// lane runs through, then its names.
    pub fn read_sequence(&mut self, i: usize) -> Result<Sequence, BioError> {
        let (entry, block) = self
            .entry(i)
            .ok_or_else(|| malformed(format!("record {i} out of range")))?;
        let alphabet = self.header.alphabet;
        let column = block.first_column + u64::from(entry.start.column);
        self.file.seek(SeekFrom::Start(
            self.header.residues_offset + column * LANES as u64,
        ))?;
        // The block check at open put the record's columns inside the
        // residue area.
        let rows = read_bytes(&mut self.file, entry.len() * LANES)?;
        let lane = Start {
            column: 0,
            lane: entry.start.lane,
        };
        let mut residues = Vec::with_capacity(entry.len());
        lanes::gather(&rows, lane, entry.len(), &mut residues);
        if !codes_in_range(&residues, alphabet) {
            return Err(bad_cells());
        }
        self.file.seek(SeekFrom::Start(
            self.header.names_offset + entry.name_offset,
        ))?;
        let id = read_text(&mut self.file, entry.id_len, "id")?;
        let description = read_text(&mut self.file, entry.desc_len, "description")?;
        Ok(Sequence::from_codes(id, alphabet, residues).with_description(description))
    }

    /// Materialise every record, in the order written, with two seeks in
    /// all: the names block is read whole first (a few percent of the
    /// file, one UTF-8 check) and every record is allocated complete, in
    /// the order written — residues, id and description together
    /// (DESIGN.md §18) — then the residue area streams front to back one
    /// block at a time, each block's cells checked and each of its
    /// records' residues gathered from its lane into its place.
    pub fn read_all(&mut self) -> Result<SequenceSet, BioError> {
        let header = self.header;
        // Bounded by the file length `from_seekable` measured.
        let names_len = usize::try_from(header.names_len)
            .map_err(|_| malformed("names block exceeds the address space"))?;
        self.file.seek(SeekFrom::Start(header.names_offset))?;
        let names = String::from_utf8(read_bytes(&mut self.file, names_len)?)
            .map_err(|_| names_not_utf8())?;
        let mut sequences = Vec::with_capacity(self.len());
        for &p in &self.position_of {
            // `check_layout` made every original index a position.
            let entry = IndexEntry::at(&self.index, p as usize)
                .ok_or_else(|| malformed("a record is missing"))?;
            let (id, description) = names_of(&names, &entry).ok_or_else(bad_name)?;
            let residues = Vec::with_capacity(entry.len());
            sequences.push(
                Sequence::from_codes(id, header.alphabet, residues).with_description(description),
            );
        }
        drop(names);

        self.file.seek(SeekFrom::Start(header.residues_offset))?;
        let mut cells = Vec::new();
        for (block, entries) in blocks_of(&self.index, &self.table) {
            cells.resize(block.cells().len(), 0);
            self.file.read_exact(&mut cells)?;
            if !block_is_sound(&cells, &entries, header.alphabet) {
                return Err(bad_cells());
            }
            for entry in &entries {
                let residues = &mut sequences[entry.original as usize].residues;
                lanes::gather(&cells, entry.start, entry.len(), residues);
            }
        }
        SequenceSet::from_sequences(header.alphabet, sequences)
    }
}

/// Write a sequence set to an SQB file on disk.
pub fn write_file(set: &SequenceSet, path: impl AsRef<std::path::Path>) -> Result<(), BioError> {
    let file = std::fs::File::create(path)?;
    write_set(
        &mut std::io::BufWriter::with_capacity(FILE_BUFFER, file),
        set,
    )
}

/// Check `set` record by record and write it to `out`.
fn write_set(out: &mut impl Write, set: &SequenceSet) -> Result<(), BioError> {
    let sizes = set
        .iter()
        .enumerate()
        .map(|(count, seq)| sizes_of(seq, set.alphabet, count))
        .collect::<Result<Vec<_>, _>>()?;
    let codes = |i: usize| set.as_slice()[i].codes();
    let names = |i: usize| {
        let seq = &set.as_slice()[i];
        (seq.id.as_bytes(), seq.description.as_bytes())
    };
    put_database(out, set.alphabet, &sizes, codes, names)
}

/// The residue, id and description lengths of `seq`, the `count`th
/// record of a file of `alphabet`; refused with
/// [`BioError::UnencodableSqb`] when the format cannot hold it.
fn sizes_of(seq: &Sequence, alphabet: Alphabet, count: usize) -> Result<Sizes, BioError> {
    let refuse = |why: String| BioError::UnencodableSqb(format!("sequence {:?}: {why}", seq.id));
    if count >= u32::MAX as usize {
        return Err(refuse(format!(
            "the file already holds {} records",
            u32::MAX
        )));
    }
    if seq.alphabet != alphabet {
        return Err(refuse(format!(
            "alphabet {:?}, writer expects {alphabet:?}",
            seq.alphabet
        )));
    }
    if !codes_in_range(&seq.residues, alphabet) {
        return Err(refuse(format!(
            "residue code out of range for {alphabet:?}"
        )));
    }
    let too_long = |what: &str, len: usize, max: u64| {
        refuse(format!(
            "{what} of {len} bytes exceeds the format's {max}-byte field"
        ))
    };
    Ok(Sizes {
        residues: u32::try_from(seq.len())
            .map_err(|_| too_long("residues", seq.len(), u32::MAX.into()))?,
        id: u16::try_from(seq.id.len())
            .map_err(|_| too_long("id", seq.id.len(), u16::MAX.into()))?,
        description: u16::try_from(seq.description.len())
            .map_err(|_| too_long("description", seq.description.len(), u16::MAX.into()))?,
    })
}

/// What the index records of a record's size.
#[derive(Debug, Clone, Copy)]
struct Sizes {
    residues: u32,
    id: u16,
    description: u16,
}

/// Write a whole file: records `0..sizes.len()`, whose residues and
/// names `codes` and `names` give, put in length order and laid out one
/// block of [`BLOCK_RECORDS`] at a time.
fn put_database<'r>(
    out: &mut impl Write,
    alphabet: Alphabet,
    sizes: &[Sizes],
    codes: impl Fn(usize) -> &'r [u8],
    names: impl Fn(usize) -> (&'r [u8], &'r [u8]),
) -> Result<(), BioError> {
    // Longest first; a stable sort keeps ties in the order written.
    let mut order: Vec<u32> = (0..sizes.len() as u32).collect();
    order.sort_by_key(|&i| Reverse(sizes[i as usize].residues));
    let len = |i: &u32| sizes[*i as usize].residues as usize;
    let mut deals = Vec::with_capacity(order.len().div_ceil(BLOCK_RECORDS));
    for block in order.chunks(BLOCK_RECORDS) {
        let residues: u64 = block.iter().map(|i| len(i) as u64).sum();
        if !block_fits(residues) {
            return Err(BioError::UnencodableSqb(format!(
                "a block of {} records holds {residues} residues, more than its stream can start",
                block.len()
            )));
        }
        deals.push((lanes::deal(block.iter().map(len)), residues));
    }
    let columns: usize = deals.iter().map(|((_, width), _)| width).sum();
    let total_residues: u64 = deals.iter().map(|(_, residues)| residues).sum();
    let names_len: u64 = sizes
        .iter()
        .map(|s| u64::from(s.id) + u64::from(s.description))
        .sum();
    let header = Header::for_blocks(
        alphabet,
        sizes.len() as u64,
        total_residues,
        names_len,
        columns as u64,
    )
    .ok_or_else(|| BioError::UnencodableSqb("database outgrows 64-bit offsets".into()))?;
    let mut head = Vec::with_capacity(HEADER_LEN);
    header.put(&mut head);
    out.write_all(&head)?;

    let mut cells = Vec::new();
    for (block, ((starts, width), _)) in order.chunks(BLOCK_RECORDS).zip(&deals) {
        cells.clear();
        cells.resize(width * LANES, PAD);
        for (&i, &start) in block.iter().zip(starts) {
            lanes::place(&mut cells, start, codes(i as usize));
        }
        out.write_all(&cells)?;
    }
    let mut block = Vec::with_capacity(names_len as usize);
    for &i in &order {
        let (id, description) = names(i as usize);
        block.extend_from_slice(id);
        block.extend_from_slice(description);
    }
    out.write_all(&block)?;
    drop(block);
    let mut index = Vec::with_capacity(order.len() * INDEX_ENTRY_LEN);
    let mut name_offset = 0u64;
    let starts = deals.iter().flat_map(|((starts, _), _)| starts);
    for (&i, &start) in order.iter().zip(starts) {
        let size = sizes[i as usize];
        IndexEntry {
            name_offset,
            residue_len: size.residues,
            original: i,
            start,
            id_len: size.id,
            desc_len: size.description,
        }
        .put(&mut index);
        name_offset += u64::from(size.id) + u64::from(size.description);
    }
    out.write_all(&index)?;
    let mut table = Vec::with_capacity(deals.len() * BLOCK_ENTRY_LEN);
    let mut first_column = 0u64;
    for ((_, width), residues) in &deals {
        let columns = *width as u64;
        BlockEntry {
            first_column,
            columns,
            residues: *residues,
        }
        .put(&mut table);
        first_column += columns;
    }
    out.write_all(&table)?;
    out.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_set() -> SequenceSet {
        let mut set = SequenceSet::new(Alphabet::Protein);
        for (id, desc, text) in [
            ("q1", "first", "MKVLATGGAR"),
            ("q2", "", "MK"),
            ("q3", "third one", "ARNDCQEGHILKMFPSTWYV"),
        ] {
            let mut s = Sequence::from_text(id, Alphabet::Protein, text.as_bytes()).unwrap();
            s.description = desc.into();
            set.push(s).unwrap();
        }
        set
    }

    fn sample_bytes() -> Vec<u8> {
        encode(&sample_set()).unwrap()
    }

    /// A protein set of `lengths`, ids numbering the records.
    fn set_of(lengths: &[usize]) -> SequenceSet {
        let records = lengths.iter().enumerate().map(|(i, &n)| {
            let codes = (0..n).map(|k| ((i * 7 + k) % 20) as u8).collect();
            Sequence::from_codes(format!("s{i}"), Alphabet::Protein, codes)
        });
        SequenceSet::from_sequences(Alphabet::Protein, records.collect()).unwrap()
    }

    /// Overwrite the little-endian `u64` at `at`.
    fn patch_u64(bytes: &mut [u8], at: usize, value: u64) {
        bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
    }

    /// Overwrite the little-endian `u32` at `at`.
    fn patch_u32(bytes: &mut [u8], at: usize, value: u32) {
        bytes[at..at + 4].copy_from_slice(&value.to_le_bytes());
    }

    /// Both readers refuse `bytes` as malformed.
    fn assert_malformed(bytes: &[u8], what: &str) {
        for error in [
            SqbImage::from_bytes(bytes.to_vec()).unwrap_err(),
            decode(bytes).unwrap_err(),
        ] {
            assert!(
                matches!(error, BioError::MalformedSqb(_)),
                "{what}: {error}"
            );
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let set = sample_set();
        let bytes = encode(&set).unwrap();
        let back = decode(&bytes).unwrap();
        assert_eq!(back, set);
    }

    #[test]
    fn header_fields_are_consistent() {
        let set = sample_set();
        let image = SqbImage::from_set(&set).unwrap();
        let header = *image.header();
        assert_eq!(header.n_sequences, 3);
        assert_eq!(header.total_residues, set.total_residues());
        assert_eq!(header.alphabet, Alphabet::Protein);
        assert_eq!(header.version, VERSION);
        assert_eq!(header.residues_offset, HEADER_LEN as u64);
        // Three records on three lanes: the longest, 20 residues, sets
        // the width.
        assert_eq!(header.columns, 20);
        assert_eq!(header.names_offset, header.residues_offset + 20 * 32);
        // "q3third one" + "q1first" + "q2", in length order.
        assert_eq!(header.names_len, 11 + 7 + 2);
        assert_eq!(header.index_offset, header.names_offset + 20);
        assert_eq!(
            header.blocks_offset,
            header.index_offset + 3 * INDEX_ENTRY_LEN as u64
        );
        assert_eq!(
            header.file_len,
            header.blocks_offset + BLOCK_ENTRY_LEN as u64
        );
        assert_eq!(header.file_len, image.as_bytes().len() as u64);
        assert_eq!(header.n_blocks(), 1);
        assert_eq!(header.padding(), (640.0 - 32.0) / 32.0);
        assert_eq!(image.len(), 3);
        assert_eq!(image.total_residues(), 32);
    }

    #[test]
    fn records_are_stored_in_length_order_as_blocks_of_128() {
        // 300 records: three blocks, the last of 44; ties among lengths.
        let lengths: Vec<usize> = (0..300).map(|i| (i * 37) % 50).collect();
        let set = set_of(&lengths);
        let image = SqbImage::from_set(&set).unwrap();
        let placements: Vec<Placement> = image.placements().collect();
        let mut want: Vec<u32> = (0..300).collect();
        want.sort_by_key(|&i| Reverse(lengths[i as usize]));
        let order: Vec<u32> = placements.iter().map(|p| p.original).collect();
        assert_eq!(order, want, "longest first, ties in the order written");
        let blocks: Vec<BlockEntry> = image.blocks().collect();
        assert_eq!(blocks.len(), 3);
        let mut column = 0;
        for (block, records) in blocks.iter().zip(placements.chunks(BLOCK_RECORDS)) {
            let lens = records.iter().map(|p| p.len as usize);
            let (starts, width) = lanes::deal(lens);
            assert_eq!(block.first_column, column);
            assert_eq!(block.columns, width as u64);
            assert!(records.iter().map(|p| p.start).eq(starts));
            let residues: u64 = records.iter().map(|p| u64::from(p.len)).sum();
            assert_eq!(block.residues, residues);
            column += block.columns;
        }
        assert_eq!(column, image.header().columns);
        for (i, seq) in set.iter().enumerate() {
            assert_eq!(image.get(i).unwrap().residues(), seq.codes());
        }
    }

    #[test]
    fn random_access_reads_single_record() {
        let set = sample_set();
        let image = SqbImage::from_set(&set).unwrap();
        let r = image.get(1).unwrap();
        assert_eq!(r.id(), "q2");
        assert_eq!(r.description(), "");
        assert_eq!(Alphabet::Protein.decode(&r.residues()), "MK");
        // Lengths known without touching the residues.
        assert_eq!(image.get(0).unwrap().len(), 10);
        assert_eq!(image.get(2).unwrap().len(), 20);
        assert_eq!(image.get(2).unwrap().description(), "third one");
        assert!(image.get(3).is_none());
    }

    #[test]
    fn image_views_agree_with_the_owned_decode() {
        let set = sample_set();
        let image = SqbImage::from_set(&set).unwrap();
        assert_eq!(image.records().len(), set.len());
        for (record, seq) in image.records().zip(&set) {
            assert_eq!(record.id(), seq.id);
            assert_eq!(record.description(), seq.description);
            assert_eq!(record.residues(), seq.codes());
        }
        // The columns are the residue area of the one allocation.
        let columns = image.columns();
        assert_eq!(
            columns.as_ptr() as usize,
            image.as_bytes().as_ptr() as usize + HEADER_LEN
        );
        assert_eq!(columns.len(), 20 * LANES);
        let first = |i: usize| set.get(i).unwrap().codes()[0];
        assert_eq!(columns[..3], [first(2), first(0), first(1)]);
    }

    #[test]
    fn out_of_range_record_errors() {
        let bytes = sample_bytes();
        assert!(SqbImage::from_bytes(bytes.clone())
            .unwrap()
            .get(99)
            .is_none());
        let mut file = SqbFile::from_seekable(std::io::Cursor::new(bytes)).unwrap();
        assert!(matches!(
            file.read_sequence(99),
            Err(BioError::MalformedSqb(_))
        ));
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = sample_bytes();
        bytes[0] = b'X';
        assert_malformed(&bytes, "magic");
    }

    #[test]
    fn a_header_declaring_more_records_than_a_search_orders_is_rejected() {
        let mut bytes = sample_bytes();
        // `n_sequences` is the u64 after magic, version, alphabet, flags.
        bytes[8..16].copy_from_slice(&(u64::from(u32::MAX) + 1).to_le_bytes());
        for error in [
            decode(&bytes).unwrap_err(),
            SqbImage::from_bytes(bytes).unwrap_err(),
        ] {
            assert!(
                matches!(&error, BioError::MalformedSqb(why) if why.contains("4294967296 records")),
                "{error}"
            );
        }
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let mut bytes = sample_bytes();
        bytes[4] = 99;
        assert!(matches!(
            decode(&bytes),
            Err(BioError::UnsupportedSqbVersion(99))
        ));
        assert!(matches!(
            SqbImage::from_bytes(bytes),
            Err(BioError::UnsupportedSqbVersion(99))
        ));
    }

    #[test]
    fn version_1_file_is_rejected_by_its_version() {
        // The version-1 header of an empty protein database: 32 bytes,
        // shorter than a version-3 header.
        let mut v1 = Vec::new();
        v1.put_slice(MAGIC);
        v1.put_u16_le(1);
        v1.put_u8(Alphabet::Protein.tag());
        v1.put_u8(0);
        v1.put_u64_le(0); // n_sequences
        v1.put_u64_le(0); // total_residues
        v1.put_u64_le(32); // index_offset
        assert!(matches!(
            SqbImage::from_bytes(v1.clone()),
            Err(BioError::UnsupportedSqbVersion(1))
        ));
        let err = decode(&v1).unwrap_err();
        assert!(matches!(err, BioError::UnsupportedSqbVersion(1)));
        assert!(err.to_string().contains("swdual convert"), "{err}");
    }

    #[test]
    fn version_2_file_is_rejected_by_its_version() {
        // The version-2 file of one record "MK": a 64-byte header, the
        // residues in the order written, names, a 24-byte index entry.
        let mut v2 = Vec::new();
        v2.put_slice(MAGIC);
        v2.put_u16_le(2);
        v2.put_u8(Alphabet::Protein.tag());
        v2.put_u8(0);
        for field in [1, 2, 1, 64, 66, 67, 91] {
            v2.put_u64_le(field);
        }
        v2.put_slice(&[10, 11, b'a']);
        v2.put_slice(&[0; 16]);
        v2.put_u32_le(2);
        v2.put_u16_le(1);
        v2.put_u16_le(0);
        assert_eq!(v2.len(), 91);
        assert!(matches!(
            SqbImage::from_bytes(v2.clone()),
            Err(BioError::UnsupportedSqbVersion(2))
        ));
        let err = decode(&v2).unwrap_err();
        assert!(matches!(err, BioError::UnsupportedSqbVersion(2)));
        assert!(err.to_string().contains("re-run `swdual convert`"), "{err}");
    }

    #[test]
    fn truncated_file_is_rejected() {
        let bytes = sample_bytes();
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "cut={cut}");
            assert!(
                SqbImage::from_bytes(bytes[..cut].to_vec()).is_err(),
                "cut={cut}"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = sample_bytes();
        bytes.push(0);
        assert!(SqbImage::from_bytes(bytes.clone()).is_err());
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn corrupt_residue_code_is_rejected() {
        let mut bytes = sample_bytes();
        // Third residue of the first record written, "q1": the second
        // longest, so lane 1 from column 0.
        bytes[HEADER_LEN + 2 * LANES + 1] = 25;
        assert!(SqbImage::from_bytes(bytes.clone()).is_err());
        let mut file = SqbFile::from_seekable(std::io::Cursor::new(bytes)).unwrap();
        assert!(file.read_sequence(0).is_err());
        assert!(file.read_sequence(1).is_ok());
        assert!(file.read_all().is_err());
    }

    #[test]
    fn a_pad_inside_a_record_or_a_residue_in_a_pad_cell_is_rejected() {
        let good = sample_bytes();
        // A pad inside "q3" (lane 0), a residue where lane 2 ("q2", two
        // residues) has ended, and both at once: the count of pads is
        // then right, the cells are not.
        let inside = HEADER_LEN + 5 * LANES;
        let after = HEADER_LEN + 7 * LANES + 2;
        for cells in [vec![inside], vec![after], vec![inside, after]] {
            let mut bytes = good.clone();
            for at in cells {
                bytes[at] = if at == inside { PAD } else { 3 };
            }
            assert_malformed(&bytes, "cells");
        }
    }

    #[test]
    fn every_header_field_is_checked() {
        let good = sample_bytes();
        // alphabet tag, flags, then the nine u64 fields.
        let mut flipped = vec![(6, 0xEE), (7, 1)];
        flipped.extend((8..HEADER_LEN).step_by(8).map(|at| (at, 1)));
        for (at, xor) in flipped {
            let mut bytes = good.clone();
            bytes[at] ^= xor;
            assert!(SqbImage::from_bytes(bytes.clone()).is_err(), "byte {at}");
            assert!(decode(&bytes).is_err(), "byte {at}");
        }
    }

    #[test]
    fn index_that_does_not_tile_is_rejected() {
        let good = sample_bytes();
        let header = *SqbImage::from_bytes(good.clone()).unwrap().header();
        let second = header.index_offset as usize + INDEX_ENTRY_LEN;
        // Record 1 of the length order pointed back at record 0's names,
        // and past the block.
        for value in [0, u64::MAX - 3] {
            let mut bytes = good.clone();
            patch_u64(&mut bytes, second, value);
            assert_malformed(&bytes, "name offset");
        }
        // A length that no longer adds up to the header's total.
        let mut bytes = good.clone();
        bytes[second + 8] += 1;
        assert_malformed(&bytes, "length");
    }

    #[test]
    fn duplicate_or_out_of_range_positions_are_rejected() {
        let good = sample_bytes();
        let header = *SqbImage::from_bytes(good.clone()).unwrap().header();
        let original = |p: usize| header.index_offset as usize + p * INDEX_ENTRY_LEN + 12;
        // Records 0 and 1 of the length order both claim one original
        // index; one claims an index past the end; two swap theirs, which
        // breaks the tie order only where lengths tie (here they do not,
        // so the swap is a different, sound permutation of names).
        for (p, value) in [(0, 0), (1, 2), (2, 3), (2, u32::MAX)] {
            let mut bytes = good.clone();
            patch_u32(&mut bytes, original(p), value);
            assert_malformed(&bytes, "original index");
        }
    }

    #[test]
    fn ties_must_keep_the_order_written() {
        let set = set_of(&[5, 5, 5]);
        let good = encode(&set).unwrap();
        let header = *SqbImage::from_bytes(good.clone()).unwrap().header();
        let original = |p: usize| header.index_offset as usize + p * INDEX_ENTRY_LEN + 12;
        let mut bytes = good;
        patch_u32(&mut bytes, original(0), 1);
        patch_u32(&mut bytes, original(1), 0);
        assert_malformed(&bytes, "tie order");
    }

    #[test]
    fn a_block_table_or_start_the_dealer_would_not_write_is_rejected() {
        let good = encode(&set_of(&[9, 9, 7, 3, 0, 2])).unwrap();
        let header = *SqbImage::from_bytes(good.clone()).unwrap().header();
        let entry = |p: usize| header.index_offset as usize + p * INDEX_ENTRY_LEN;
        let table = header.blocks_offset as usize;
        let mut cases = Vec::new();
        // A start moved to another column, to another lane, off the lanes.
        for (at, value) in [(entry(2) + 16, 4), (entry(2) + 20, 7), (entry(3) + 20, 40)] {
            let mut bytes = good.clone();
            patch_u32(&mut bytes, at, value);
            cases.push(bytes);
        }
        // The block's first column, width and residues.
        for (at, value) in [(table, 1), (table + 8, 8), (table + 16, 29)] {
            let mut bytes = good.clone();
            patch_u64(&mut bytes, at, value);
            cases.push(bytes);
        }
        for bytes in cases {
            assert_malformed(&bytes, "layout");
        }
    }

    #[test]
    fn names_must_be_utf8_and_split_on_character_boundaries() {
        let mut set = SequenceSet::new(Alphabet::Protein);
        let seq = Sequence::from_text("é", Alphabet::Protein, b"MK")
            .unwrap()
            .with_description("ü");
        set.push(seq).unwrap();
        let good = encode(&set).unwrap();
        let image = SqbImage::from_bytes(good.clone()).unwrap();
        assert_eq!(image.get(0).unwrap().id(), "é");
        assert_eq!(image.get(0).unwrap().description(), "ü");
        let header = *image.header();
        let (names, index) = (header.names_offset as usize, header.index_offset as usize);

        // id_len 2 -> 1 and desc_len 2 -> 3: the totals still add up,
        // but the id would end inside a character.
        let mut bytes = good.clone();
        bytes[index + 24] = 1;
        bytes[index + 26] = 3;
        assert!(SqbImage::from_bytes(bytes.clone()).is_err());
        assert!(decode(&bytes).is_err());

        // A names block that is not UTF-8 at all.
        let mut bytes = good;
        bytes[names] = 0xFF;
        assert!(SqbImage::from_bytes(bytes.clone()).is_err());
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn empty_set_roundtrips() {
        let set = SequenceSet::new(Alphabet::Dna);
        let bytes = encode(&set).unwrap();
        assert_eq!(bytes.len(), HEADER_LEN);
        let back = decode(&bytes).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.alphabet, Alphabet::Dna);
        let image = SqbImage::from_bytes(bytes).unwrap();
        assert!(image.is_empty());
        assert_eq!(image.alphabet(), Alphabet::Dna);
        assert_eq!(image.records().len(), 0);
        assert_eq!(image.header().padding(), 0.0);
    }

    #[test]
    fn file_reader_seeks_records() {
        let set = sample_set();
        let cursor = std::io::Cursor::new(encode(&set).unwrap());
        let mut file = SqbFile::from_seekable(cursor).unwrap();
        assert_eq!(file.len(), 3);
        assert_eq!(file.residue_len(2), Some(20));
        assert_eq!(file.residue_len(3), None);
        // Read out of order to exercise seeking.
        assert_eq!(file.read_sequence(2).unwrap(), *set.get(2).unwrap());
        assert_eq!(file.read_sequence(0).unwrap().text(), "MKVLATGGAR");
        let all = file.read_all().unwrap();
        assert_eq!(all, set);
    }

    /// A byte source that counts the seeks made on it.
    struct CountingSeeks {
        inner: std::io::Cursor<Vec<u8>>,
        seeks: usize,
    }

    impl Read for CountingSeeks {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.inner.read(buf)
        }
    }

    impl Seek for CountingSeeks {
        fn seek(&mut self, pos: SeekFrom) -> std::io::Result<u64> {
            self.seeks += 1;
            self.inner.seek(pos)
        }
    }

    #[test]
    fn read_all_streams_without_a_seek_per_record() {
        let set = set_of(&(0..300).map(|i| i % 40).collect::<Vec<_>>());
        let source = CountingSeeks {
            inner: std::io::Cursor::new(encode(&set).unwrap()),
            seeks: 0,
        };
        let mut file = SqbFile::from_seekable(source).unwrap();
        let after_open = file.file.seeks;
        assert_eq!(file.read_all().unwrap(), set);
        assert_eq!(file.file.seeks - after_open, 2, "names block, residue area");
    }

    #[test]
    fn disk_roundtrip_and_open() {
        let dir = std::env::temp_dir().join("swdual_sqb_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.sqb");
        let set = sample_set();
        write_file(&set, &path).unwrap();
        let mut file = SqbFile::open(&path).unwrap();
        assert_eq!(file.read_all().unwrap(), set);
        let image = SqbImage::open(&path).unwrap();
        assert_eq!(image, SqbImage::from_set(&set).unwrap());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn streaming_writer_matches_batch_encoder() {
        // Records that arrive one at a time encode byte for byte as the
        // whole set does.
        let set = set_of(&(0..200).map(|i| (i * 13) % 70).collect::<Vec<_>>());
        let streamed = SqbImage::from_records(Alphabet::Protein, set.iter().map(Ok)).unwrap();
        assert_eq!(
            streamed,
            SqbImage::from_bytes(encode(&set).unwrap()).unwrap()
        );
        assert_eq!(streamed.len(), 200);
    }

    #[test]
    fn streaming_writer_rejects_wrong_alphabet() {
        let prot = Sequence::from_text("p", Alphabet::Protein, b"MKV").unwrap();
        assert!(matches!(
            SqbImage::from_records(Alphabet::Dna, [Ok(&prot)]),
            Err(BioError::UnencodableSqb(_))
        ));
    }

    #[test]
    fn writer_rejects_codes_outside_the_alphabet() {
        let mut seq = Sequence::from_text("p", Alphabet::Dna, b"ACGT").unwrap();
        seq.residues[2] = 200;
        let set = SequenceSet::from_sequences(Alphabet::Dna, vec![seq]).unwrap();
        assert!(matches!(encode(&set), Err(BioError::UnencodableSqb(_))));
    }

    #[test]
    fn streaming_writer_empty_file_is_valid() {
        let none: [Result<Sequence, BioError>; 0] = [];
        let image = SqbImage::from_records(Alphabet::Rna, none).unwrap();
        assert!(image.is_empty());
        assert_eq!(image.header().alphabet, Alphabet::Rna);
        let set = decode(&encode(&SequenceSet::new(Alphabet::Rna)).unwrap()).unwrap();
        assert!(set.is_empty());
        assert_eq!(set.alphabet, Alphabet::Rna);
    }

    #[test]
    fn oversized_id_is_rejected_not_corrupted() {
        let long = "x".repeat(u16::MAX as usize + 1);
        let fits = "x".repeat(u16::MAX as usize);
        let by_id = Sequence::from_text(long.clone(), Alphabet::Protein, b"MKV").unwrap();
        let by_description = Sequence::from_text("d", Alphabet::Protein, b"MKV")
            .unwrap()
            .with_description(long);
        for seq in [by_id, by_description] {
            // Every writer refuses the record: record by record, the
            // batch encoder and the file writer.
            assert!(matches!(
                SqbImage::from_records(Alphabet::Protein, [Ok(&seq)]),
                Err(BioError::UnencodableSqb(_))
            ));
            let set = SequenceSet::from_sequences(Alphabet::Protein, vec![seq]).unwrap();
            assert!(matches!(encode(&set), Err(BioError::UnencodableSqb(_))));
            let path = std::env::temp_dir().join("swdual_sqb_oversized.sqb");
            assert!(matches!(
                write_file(&set, &path),
                Err(BioError::UnencodableSqb(_))
            ));
            std::fs::remove_file(&path).ok();
            assert!(matches!(
                SqbImage::from_set(&set),
                Err(BioError::UnencodableSqb(_))
            ));
        }
        // The largest id the format holds round-trips.
        let seq = Sequence::from_text(fits, Alphabet::Protein, b"MKV").unwrap();
        let set = SequenceSet::from_sequences(Alphabet::Protein, vec![seq]).unwrap();
        assert_eq!(decode(&encode(&set).unwrap()).unwrap(), set);
    }

    #[test]
    fn from_records_stops_at_the_first_error() {
        let ok = Sequence::from_text("a", Alphabet::Protein, b"MKV").unwrap();
        let records = vec![Ok(ok.clone()), Err(BioError::EmptySet), Ok(ok.clone())];
        assert!(matches!(
            SqbImage::from_records(Alphabet::Protein, records),
            Err(BioError::EmptySet)
        ));
        let image = SqbImage::from_records(Alphabet::Protein, vec![Ok(&ok), Ok(&ok)]).unwrap();
        assert_eq!(image.len(), 2);
        assert_eq!(image.get(1).unwrap().id(), "a");
    }
}
