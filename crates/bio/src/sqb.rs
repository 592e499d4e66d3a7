//! SQB — the paper's binary sequence-database format, version 2.
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
//! Layout (all integers little-endian; DESIGN.md, "SQB version 2", is the
//! byte-level specification):
//!
//! ```text
//! +---------------------------------------------------------------+
//! | magic "SQB1" | version u16 = 2 | alphabet u8 | flags u8 = 0    |   header,
//! | n_sequences u64 | total_residues u64 | names_len u64           |   64 bytes
//! | residues_offset u64 | names_offset u64 | index_offset u64      |
//! | file_len u64                                                   |
//! +---------------------------------------------------------------+
//! | residues of record 0 | residues of record 1 | ...              |   residue block
//! +---------------------------------------------------------------+
//! | id 0 | description 0 | id 1 | description 1 | ...              |   names block
//! +---------------------------------------------------------------+
//! | (residue_offset u64, name_offset u64, residue_len u32,         |   index,
//! |  id_len u16, desc_len u16) * n_sequences                       |   24 bytes each
//! +---------------------------------------------------------------+
//! ```
//!
//! The blocks follow one another without gaps and the index entries tile
//! them in record order, so a reader checks a file without decoding it:
//! [`SqbImage`] reads it into one allocation, makes one pass over the
//! index, one range check over the residue block and one UTF-8 check of
//! the names block, and from then on hands out borrowed `&[u8]` residues.
//! [`SqbFile`] is the owned, streaming decode of the same file and
//! [`SqbWriter`] the streaming encoder; all three share one header and
//! index codec.

use crate::alphabet::Alphabet;
use crate::error::BioError;
use crate::seq::{Sequence, SequenceSet};
use bytes::{Buf, BufMut};
use std::borrow::Borrow;
use std::io::{Read, Seek, SeekFrom, Write};

/// File magic, first four bytes of every SQB file of any version.
pub const MAGIC: &[u8; 4] = b"SQB1";
/// Format version written and read by this build.
pub const VERSION: u16 = 2;
/// Size of the fixed header in bytes.
pub const HEADER_LEN: usize = 64;
/// Size of one index entry in bytes.
pub const INDEX_ENTRY_LEN: usize = 8 + 8 + 4 + 2 + 2;
/// Buffer of the file reader and writer [`SqbFile::open`] and
/// [`SqbWriter::create`] set up: a whole-database pass makes one system
/// call per 64 KiB, not per 8 KiB.
const FILE_BUFFER: usize = 1 << 16;

fn malformed(msg: impl Into<String>) -> BioError {
    BioError::MalformedSqb(msg.into())
}

/// Parsed and checked SQB header. The three block offsets and the file
/// length follow from the three sizes; a header is accepted only when
/// the stored values are the derived ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Format version of the file.
    pub version: u16,
    /// Alphabet the residues are encoded in.
    pub alphabet: Alphabet,
    /// Number of sequence records.
    pub n_sequences: u64,
    /// Sum of residue counts over all records: the residue block's length.
    pub total_residues: u64,
    /// Length of the names block in bytes.
    pub names_len: u64,
    /// Byte offset of the residue block (always [`HEADER_LEN`]).
    pub residues_offset: u64,
    /// Byte offset of the names block.
    pub names_offset: u64,
    /// Byte offset of the index.
    pub index_offset: u64,
    /// Length of the whole file.
    pub file_len: u64,
}

impl Header {
    /// The header of a file whose blocks have these sizes; `None` when
    /// the file would outgrow 64-bit offsets.
    fn for_blocks(
        alphabet: Alphabet,
        n_sequences: u64,
        total_residues: u64,
        names_len: u64,
    ) -> Option<Header> {
        let residues_offset = HEADER_LEN as u64;
        let names_offset = residues_offset.checked_add(total_residues)?;
        let index_offset = names_offset.checked_add(names_len)?;
        let file_len = n_sequences
            .checked_mul(INDEX_ENTRY_LEN as u64)
            .and_then(|index_len| index_offset.checked_add(index_len))?;
        Some(Header {
            version: VERSION,
            alphabet,
            n_sequences,
            total_residues,
            names_len,
            residues_offset,
            names_offset,
            index_offset,
            file_len,
        })
    }

    /// Parse the first bytes of a file. Magic and version are judged
    /// before the length, so a version-1 file (32-byte header) is
    /// reported as such.
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
        let (n_sequences, total_residues, names_len) =
            (buf.get_u64_le(), buf.get_u64_le(), buf.get_u64_le());
        // A search orders its subjects by `u32` index.
        if n_sequences > u64::from(u32::MAX) {
            return Err(malformed(format!(
                "{n_sequences} records, more than the {} a database may hold",
                u32::MAX
            )));
        }
        let stored = [
            buf.get_u64_le(),
            buf.get_u64_le(),
            buf.get_u64_le(),
            buf.get_u64_le(),
        ];
        Header::for_blocks(alphabet, n_sequences, total_residues, names_len)
            .filter(|h| {
                stored
                    == [
                        h.residues_offset,
                        h.names_offset,
                        h.index_offset,
                        h.file_len,
                    ]
            })
            .ok_or_else(|| malformed("block offsets disagree with the record count and sizes"))
    }

    fn put(&self, out: &mut Vec<u8>) {
        out.put_slice(MAGIC);
        out.put_u16_le(self.version);
        out.put_u8(self.alphabet.tag());
        out.put_u8(0); // flags, reserved
        for field in [
            self.n_sequences,
            self.total_residues,
            self.names_len,
            self.residues_offset,
            self.names_offset,
            self.index_offset,
            self.file_len,
        ] {
            out.put_u64_le(field);
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

/// One index entry: where a record's residues and names start inside
/// their blocks, and how long they are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct IndexEntry {
    /// Offset of the residues within the residue block.
    residue_offset: u64,
    /// Offset of the id (the description follows it) within the names block.
    name_offset: u64,
    /// Residue count of the record (enables pre-allocation).
    residue_len: u32,
    /// Length of the id in bytes.
    id_len: u16,
    /// Length of the description in bytes.
    desc_len: u16,
}

impl IndexEntry {
    /// Parse one entry from exactly [`INDEX_ENTRY_LEN`] bytes.
    fn parse(mut buf: &[u8]) -> IndexEntry {
        IndexEntry {
            residue_offset: buf.get_u64_le(),
            name_offset: buf.get_u64_le(),
            residue_len: buf.get_u32_le(),
            id_len: buf.get_u16_le(),
            desc_len: buf.get_u16_le(),
        }
    }

    fn put(&self, out: &mut Vec<u8>) {
        out.put_u64_le(self.residue_offset);
        out.put_u64_le(self.name_offset);
        out.put_u32_le(self.residue_len);
        out.put_u16_le(self.id_len);
        out.put_u16_le(self.desc_len);
    }

    fn names_len(&self) -> u64 {
        u64::from(self.id_len) + u64::from(self.desc_len)
    }

    /// Entry `i` of a raw index; `None` past its end.
    fn at(index: &[u8], i: usize) -> Option<IndexEntry> {
        let start = i.checked_mul(INDEX_ENTRY_LEN)?;
        let end = start.checked_add(INDEX_ENTRY_LEN)?;
        index.get(start..end).map(IndexEntry::parse)
    }

    /// Every entry of a raw index, in record order.
    fn all(index: &[u8]) -> impl ExactSizeIterator<Item = IndexEntry> + '_ {
        index.chunks_exact(INDEX_ENTRY_LEN).map(IndexEntry::parse)
    }
}

/// Walk the index once, handing every entry to `each`, and check that
/// the entries tile both blocks: each record starts where the previous
/// one ended and the last ones end at the header's totals. An index
/// that passes cannot point outside its blocks or at overlapping
/// ranges.
fn check_index(
    index: &[u8],
    header: &Header,
    mut each: impl FnMut(IndexEntry) -> Result<(), BioError>,
) -> Result<(), BioError> {
    let (mut residues, mut names) = (0u64, 0u64);
    for entry in IndexEntry::all(index) {
        if entry.residue_offset != residues || entry.name_offset != names {
            return Err(malformed("index entries do not tile their blocks"));
        }
        each(entry)?;
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
    Ok(())
}

/// Every code is a residue of `alphabet`. A max-fold, not `all`: it
/// vectorises, and a sound file is scanned to the end either way.
fn codes_in_range(codes: &[u8], alphabet: Alphabet) -> bool {
    (codes.iter().fold(0u8, |max, &c| max.max(c)) as usize) < alphabet.size()
}

fn bad_code() -> BioError {
    malformed("residue code out of range for alphabet")
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
/// the simulated devices score the residues in place, and the report
/// resolves the ids of the hits it prints from the names block. It is
/// the paper's "read sequences in any position inside the file,
/// directly" with "all the sequences sizes known beforehand": after
/// [`SqbImage::open`] nothing is decoded or copied, and every view is a
/// slice of the one allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SqbImage {
    bytes: Vec<u8>,
    header: Header,
}

/// One record of an [`SqbImage`], borrowed from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record<'a> {
    residues: &'a [u8],
    id: &'a [u8],
    description: &'a [u8],
}

impl<'a> Record<'a> {
    /// The encoded residues (what the kernels consume).
    #[inline]
    pub fn residues(&self) -> &'a [u8] {
        self.residues
    }

    /// Number of residues.
    #[inline]
    pub fn len(&self) -> usize {
        self.residues.len()
    }

    /// True when the record holds no residues.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.residues.is_empty()
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

impl SqbImage {
    /// Read a file into one allocation and check it.
    pub fn open(path: impl AsRef<std::path::Path>) -> Result<SqbImage, BioError> {
        SqbImage::from_bytes(std::fs::read(path)?)
    }

    /// Take the bytes of an SQB file and check them: header, exact
    /// length, index tiling, residue range, UTF-8 names. Everything an
    /// accessor relies on is established here.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<SqbImage, BioError> {
        let header = Header::parse(&bytes)?;
        header.check_file_len(bytes.len() as u64)?;
        let image = SqbImage { bytes, header };
        if !codes_in_range(image.residue_block(), header.alphabet) {
            return Err(bad_code());
        }
        let names = std::str::from_utf8(image.names_block()).map_err(|_| names_not_utf8())?;
        check_index(image.index_block(), &header, |entry| {
            names_of(names, &entry).map(drop).ok_or_else(bad_name)
        })?;
        Ok(image)
    }

    /// Encode records into an image — how a FASTA file or an in-memory
    /// set becomes a database. The result passes through
    /// [`SqbImage::from_bytes`] like any file.
    pub fn from_records<S: Borrow<Sequence>>(
        alphabet: Alphabet,
        records: impl IntoIterator<Item = Result<S, BioError>>,
    ) -> Result<SqbImage, BioError> {
        let mut writer = SqbWriter::new(std::io::Cursor::new(Vec::new()), alphabet)?;
        for record in records {
            writer.append(record?.borrow())?;
        }
        SqbImage::from_bytes(writer.finish()?.into_inner())
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
        // The index holds `n_sequences` entries and lies inside `bytes`.
        self.header.n_sequences as usize
    }

    /// True when the database holds no records.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.header.n_sequences == 0
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
    fn residue_block(&self) -> &[u8] {
        &self.bytes[self.header.residues_offset as usize..self.header.names_offset as usize]
    }

    fn names_block(&self) -> &[u8] {
        &self.bytes[self.header.names_offset as usize..self.header.index_offset as usize]
    }

    fn index_block(&self) -> &[u8] {
        &self.bytes[self.header.index_offset as usize..]
    }

    fn record(&self, entry: IndexEntry) -> Record<'_> {
        let names = &self.names_block()[entry.name_offset as usize..];
        let (id, rest) = names.split_at(usize::from(entry.id_len));
        Record {
            residues: &self.residue_block()[entry.residue_offset as usize..]
                [..entry.residue_len as usize],
            id,
            description: &rest[..usize::from(entry.desc_len)],
        }
    }

    /// Randomly access record `i`; `None` past the end.
    pub fn get(&self, i: usize) -> Option<Record<'_>> {
        IndexEntry::at(self.index_block(), i).map(|entry| self.record(entry))
    }

    /// Every record, in file order.
    pub fn records(&self) -> impl ExactSizeIterator<Item = Record<'_>> + '_ {
        IndexEntry::all(self.index_block()).map(|entry| self.record(entry))
    }
}

/// Serialise a [`SequenceSet`] into SQB bytes. Fails on a record the
/// format cannot hold (see [`SqbWriter::append`]).
pub fn encode(set: &SequenceSet) -> Result<Vec<u8>, BioError> {
    let names: usize = set
        .iter()
        .map(|s| s.id.len() + s.description.len() + INDEX_ENTRY_LEN)
        .sum();
    let capacity = HEADER_LEN + set.total_residues() as usize + names;
    let sink = std::io::Cursor::new(Vec::with_capacity(capacity));
    Ok(SqbWriter::new(sink, set.alphabet)?
        .write_set(set)?
        .into_inner())
}

/// Decode a full SQB byte buffer into an owned [`SequenceSet`].
pub fn decode(bytes: &[u8]) -> Result<SequenceSet, BioError> {
    SqbFile::from_seekable(std::io::Cursor::new(bytes))?.read_all()
}

/// Owned decode of an SQB *file*: loads header + index eagerly and
/// checks them, then reads records on demand — one at a time by seeking
/// ([`SqbFile::read_sequence`]: master and workers each fetch only the
/// sequences their tasks need), or all of them with the residue block
/// streamed front to back ([`SqbFile::read_all`]). Residues and names
/// are checked as they are read. Never holds more of the file than the
/// index, the names block and one record.
pub struct SqbFile<F: Read + Seek> {
    file: F,
    header: Header,
    /// The index as stored, checked at open.
    index: Vec<u8>,
}

impl SqbFile<std::io::BufReader<std::fs::File>> {
    /// Open an SQB file from a filesystem path.
    pub fn open(path: impl AsRef<std::path::Path>) -> Result<Self, BioError> {
        let file = std::fs::File::open(path)?;
        Self::from_seekable(std::io::BufReader::with_capacity(FILE_BUFFER, file))
    }
}

fn read_residues(file: &mut impl Read, len: u32, alphabet: Alphabet) -> Result<Vec<u8>, BioError> {
    let mut residues = vec![0u8; len as usize];
    file.read_exact(&mut residues)?;
    if codes_in_range(&residues, alphabet) {
        Ok(residues)
    } else {
        Err(bad_code())
    }
}

fn read_name(file: &mut impl Read, len: u16, what: &str) -> Result<String, BioError> {
    let mut name = vec![0u8; usize::from(len)];
    file.read_exact(&mut name)?;
    String::from_utf8(name).map_err(|_| malformed(format!("record {what} is not UTF-8")))
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
        // The index lies inside the file just measured, so its size is
        // bounded by real bytes, not by a number the header claims.
        let index_len = usize::try_from(header.file_len - header.index_offset)
            .map_err(|_| malformed("index exceeds the address space"))?;
        let mut index = vec![0u8; index_len];
        file.read_exact(&mut index)?;
        check_index(&index, &header, |_| Ok(()))?;
        Ok(SqbFile {
            file,
            header,
            index,
        })
    }

    /// The parsed header.
    pub fn header(&self) -> &Header {
        &self.header
    }

    /// Number of sequences in the file.
    pub fn len(&self) -> usize {
        self.index.len() / INDEX_ENTRY_LEN
    }

    /// True when the file holds no sequences.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Residue length of record `i` without any file I/O.
    pub fn residue_len(&self, i: usize) -> Option<u32> {
        IndexEntry::at(&self.index, i).map(|e| e.residue_len)
    }

    /// Seek to and read record `i`.
    pub fn read_sequence(&mut self, i: usize) -> Result<Sequence, BioError> {
        let entry = IndexEntry::at(&self.index, i)
            .ok_or_else(|| malformed(format!("record {i} out of range")))?;
        let alphabet = self.header.alphabet;
        self.file.seek(SeekFrom::Start(
            self.header.residues_offset + entry.residue_offset,
        ))?;
        let residues = read_residues(&mut self.file, entry.residue_len, alphabet)?;
        self.file.seek(SeekFrom::Start(
            self.header.names_offset + entry.name_offset,
        ))?;
        let id = read_name(&mut self.file, entry.id_len, "id")?;
        let description = read_name(&mut self.file, entry.desc_len, "description")?;
        Ok(Sequence::from_codes(id, alphabet, residues).with_description(description))
    }

    /// Materialise every record, in order, with two seeks in all: the
    /// names block is read whole first (a few percent of the file, one
    /// UTF-8 check), then the residue block streams front to back and
    /// every record is built complete as its residues arrive. Residues,
    /// id and description of a record are therefore allocated together:
    /// a set laid out as two long runs (all residues, then all names)
    /// left freed memory the allocator could not give to the next
    /// database image (DESIGN.md §18).
    pub fn read_all(&mut self) -> Result<SequenceSet, BioError> {
        let header = self.header;
        // Bounded by the file length `from_seekable` measured.
        let names_len = usize::try_from(header.names_len)
            .map_err(|_| malformed("names block exceeds the address space"))?;
        self.file.seek(SeekFrom::Start(header.names_offset))?;
        let mut names = vec![0u8; names_len];
        self.file.read_exact(&mut names)?;
        let names = String::from_utf8(names).map_err(|_| names_not_utf8())?;

        self.file.seek(SeekFrom::Start(header.residues_offset))?;
        let mut sequences = Vec::with_capacity(self.len());
        for entry in IndexEntry::all(&self.index) {
            let residues = read_residues(&mut self.file, entry.residue_len, header.alphabet)?;
            let (id, description) = names_of(&names, &entry).ok_or_else(bad_name)?;
            sequences.push(
                Sequence::from_codes(id, header.alphabet, residues).with_description(description),
            );
        }
        SequenceSet::from_sequences(header.alphabet, sequences)
    }
}

/// Write a sequence set to an SQB file on disk.
pub fn write_file(set: &SequenceSet, path: impl AsRef<std::path::Path>) -> Result<(), BioError> {
    SqbWriter::create(path, set.alphabet)?.write_set(set)?;
    Ok(())
}

/// Streaming SQB writer: residues go to the sink as records are
/// appended, names and index entries (a few dozen bytes per record)
/// are kept and written on [`SqbWriter::finish`], which then patches
/// the header — so a database conversion never needs the whole set in
/// memory, the property that makes the format practical for the
/// paper's 537k-sequence UniProt.
pub struct SqbWriter<W: Write + Seek> {
    out: W,
    alphabet: Alphabet,
    names: Vec<u8>,
    index: Vec<u8>,
    total_residues: u64,
}

impl SqbWriter<std::io::BufWriter<std::fs::File>> {
    /// Create a streaming writer at a filesystem path.
    pub fn create(path: impl AsRef<std::path::Path>, alphabet: Alphabet) -> Result<Self, BioError> {
        let file = std::fs::File::create(path)?;
        Self::new(
            std::io::BufWriter::with_capacity(FILE_BUFFER, file),
            alphabet,
        )
    }
}

impl<W: Write + Seek> SqbWriter<W> {
    /// Wrap any seekable sink. A placeholder header is written
    /// immediately and patched by [`SqbWriter::finish`].
    pub fn new(mut out: W, alphabet: Alphabet) -> Result<Self, BioError> {
        out.write_all(&[0u8; HEADER_LEN])?;
        Ok(SqbWriter {
            out,
            alphabet,
            names: Vec::new(),
            index: Vec::new(),
            total_residues: 0,
        })
    }

    /// Append one record. A record the format cannot hold — another
    /// alphabet, a residue code outside it, an id or description over
    /// 65 535 bytes, more than `u32::MAX` residues, one record past
    /// `u32::MAX` of them — is refused with [`BioError::UnencodableSqb`]
    /// and leaves the writer as it was.
    pub fn append(&mut self, seq: &Sequence) -> Result<(), BioError> {
        let refuse =
            |why: String| BioError::UnencodableSqb(format!("sequence {:?}: {why}", seq.id));
        if self.index.len() / INDEX_ENTRY_LEN >= u32::MAX as usize {
            return Err(refuse(format!(
                "the file already holds {} records",
                u32::MAX
            )));
        }
        if seq.alphabet != self.alphabet {
            return Err(refuse(format!(
                "alphabet {:?}, writer expects {:?}",
                seq.alphabet, self.alphabet
            )));
        }
        if !codes_in_range(&seq.residues, self.alphabet) {
            return Err(refuse(format!(
                "residue code out of range for {:?}",
                self.alphabet
            )));
        }
        let too_long = |what: &str, len: usize, max: u64| {
            refuse(format!(
                "{what} of {len} bytes exceeds the format's {max}-byte field"
            ))
        };
        let entry = IndexEntry {
            residue_offset: self.total_residues,
            name_offset: self.names.len() as u64,
            residue_len: u32::try_from(seq.len())
                .map_err(|_| too_long("residues", seq.len(), u32::MAX.into()))?,
            id_len: u16::try_from(seq.id.len())
                .map_err(|_| too_long("id", seq.id.len(), u16::MAX.into()))?,
            desc_len: u16::try_from(seq.description.len())
                .map_err(|_| too_long("description", seq.description.len(), u16::MAX.into()))?,
        };
        self.out.write_all(&seq.residues)?;
        entry.put(&mut self.index);
        self.names.extend_from_slice(seq.id.as_bytes());
        self.names.extend_from_slice(seq.description.as_bytes());
        self.total_residues += u64::from(entry.residue_len);
        Ok(())
    }

    /// Append every record of `set` and finish.
    fn write_set(mut self, set: &SequenceSet) -> Result<W, BioError> {
        for seq in set {
            self.append(seq)?;
        }
        self.finish()
    }

    /// Number of records appended so far.
    pub fn len(&self) -> usize {
        self.index.len() / INDEX_ENTRY_LEN
    }

    /// True when nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Write the names block and the index, patch the header, flush,
    /// and return the sink.
    pub fn finish(mut self) -> Result<W, BioError> {
        let header = Header::for_blocks(
            self.alphabet,
            self.len() as u64,
            self.total_residues,
            self.names.len() as u64,
        )
        .ok_or_else(|| BioError::UnencodableSqb("database outgrows 64-bit offsets".into()))?;
        self.out.write_all(&self.names)?;
        self.out.write_all(&self.index)?;
        let mut head = Vec::with_capacity(HEADER_LEN);
        header.put(&mut head);
        self.out.seek(SeekFrom::Start(0))?;
        self.out.write_all(&head)?;
        self.out.flush()?;
        Ok(self.out)
    }
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

    /// Overwrite the little-endian `u64` at `at`.
    fn patch_u64(bytes: &mut [u8], at: usize, value: u64) {
        bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
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
        assert_eq!(header.names_offset, header.residues_offset + 32);
        // "q1first" + "q2" + "q3third one"
        assert_eq!(header.names_len, 7 + 2 + 11);
        assert_eq!(header.index_offset, header.names_offset + 20);
        assert_eq!(header.file_len, image.as_bytes().len() as u64);
        assert_eq!(
            header.file_len,
            header.index_offset + 3 * INDEX_ENTRY_LEN as u64
        );
        assert_eq!(image.len(), 3);
        assert_eq!(image.total_residues(), 32);
    }

    #[test]
    fn random_access_reads_single_record() {
        let set = sample_set();
        let image = SqbImage::from_set(&set).unwrap();
        let r = image.get(1).unwrap();
        assert_eq!(r.id(), "q2");
        assert_eq!(r.description(), "");
        assert_eq!(Alphabet::Protein.decode(r.residues()), "MK");
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
        // Residues are slices of the one allocation, back to back.
        let base = image.as_bytes().as_ptr() as usize + HEADER_LEN;
        let mut at = base;
        for record in image.records() {
            assert_eq!(record.residues().as_ptr() as usize, at);
            at += record.len();
        }
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
        assert!(matches!(decode(&bytes), Err(BioError::MalformedSqb(_))));
        assert!(matches!(
            SqbImage::from_bytes(bytes),
            Err(BioError::MalformedSqb(_))
        ));
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
        // shorter than a version-2 header.
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
        // Third residue of the first record.
        bytes[HEADER_LEN + 2] = 250;
        assert!(SqbImage::from_bytes(bytes.clone()).is_err());
        let mut file = SqbFile::from_seekable(std::io::Cursor::new(bytes)).unwrap();
        assert!(file.read_sequence(0).is_err());
        assert!(file.read_sequence(1).is_ok());
        assert!(file.read_all().is_err());
    }

    #[test]
    fn every_header_field_is_checked() {
        let good = sample_bytes();
        // alphabet tag, flags, then the seven u64 fields.
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
        let index = SqbImage::from_bytes(good.clone())
            .unwrap()
            .header()
            .index_offset as usize;
        let second = index + INDEX_ENTRY_LEN;
        // Record 1 pointed back at record 0's residues (overlap), at
        // record 0's names, and past the block.
        for (at, value) in [(second, 0), (second + 8, 0), (second, u64::MAX - 3)] {
            let mut bytes = good.clone();
            patch_u64(&mut bytes, at, value);
            assert!(SqbImage::from_bytes(bytes.clone()).is_err());
            assert!(decode(&bytes).is_err());
        }
        // A length that no longer adds up to the header's total.
        let mut bytes = good.clone();
        bytes[second + 16] += 1;
        assert!(SqbImage::from_bytes(bytes.clone()).is_err());
        assert!(decode(&bytes).is_err());
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
        bytes[index + 20] = 1;
        bytes[index + 22] = 3;
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
        let set = sample_set();
        let source = CountingSeeks {
            inner: std::io::Cursor::new(encode(&set).unwrap()),
            seeks: 0,
        };
        let mut file = SqbFile::from_seekable(source).unwrap();
        let after_open = file.file.seeks;
        assert_eq!(file.read_all().unwrap(), set);
        assert_eq!(
            file.file.seeks - after_open,
            2,
            "names block, residue block"
        );
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
        let set = sample_set();
        let cursor = std::io::Cursor::new(Vec::new());
        let mut writer = SqbWriter::new(cursor, Alphabet::Protein).unwrap();
        for seq in &set {
            writer.append(seq).unwrap();
        }
        assert_eq!(writer.len(), 3);
        let cursor = writer.finish().unwrap();
        let streamed = cursor.into_inner();
        // Byte-identical to the in-memory encoder.
        assert_eq!(streamed, encode(&set).unwrap());
        assert_eq!(decode(&streamed).unwrap(), set);
    }

    #[test]
    fn streaming_writer_rejects_wrong_alphabet() {
        let cursor = std::io::Cursor::new(Vec::new());
        let mut writer = SqbWriter::new(cursor, Alphabet::Dna).unwrap();
        let prot = Sequence::from_text("p", Alphabet::Protein, b"MKV").unwrap();
        assert!(matches!(
            writer.append(&prot),
            Err(BioError::UnencodableSqb(_))
        ));
        assert!(writer.is_empty());
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
        let cursor = std::io::Cursor::new(Vec::new());
        let writer = SqbWriter::new(cursor, Alphabet::Rna).unwrap();
        let bytes = writer.finish().unwrap().into_inner();
        let set = decode(&bytes).unwrap();
        assert!(set.is_empty());
        assert_eq!(set.alphabet, Alphabet::Rna);
    }

    #[test]
    fn streaming_writer_to_disk() {
        let dir = std::env::temp_dir().join("swdual_sqb_stream");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.sqb");
        let set = sample_set();
        let mut writer = SqbWriter::create(&path, Alphabet::Protein).unwrap();
        for seq in &set {
            writer.append(seq).unwrap();
        }
        writer.finish().unwrap();
        let mut file = SqbFile::open(&path).unwrap();
        assert_eq!(file.read_all().unwrap(), set);
        std::fs::remove_file(&path).ok();
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
            // The streaming writer refuses the record and stays usable.
            let cursor = std::io::Cursor::new(Vec::new());
            let mut writer = SqbWriter::new(cursor, Alphabet::Protein).unwrap();
            assert!(matches!(
                writer.append(&seq),
                Err(BioError::UnencodableSqb(_))
            ));
            assert!(writer.is_empty());
            // So do the batch encoder and the file writer.
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
