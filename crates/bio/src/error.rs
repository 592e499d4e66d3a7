//! Error type shared by the parsing and encoding layers.

use std::fmt;

/// Errors produced while parsing, encoding or (de)serialising sequences.
#[derive(Debug)]
pub enum BioError {
    /// A residue character is not part of the target alphabet.
    InvalidResidue {
        /// The offending byte as found in the input.
        byte: u8,
        /// Byte offset of the residue within its sequence.
        position: usize,
    },
    /// A FASTA record was structurally malformed (e.g. data before the
    /// first `>` header).
    MalformedFasta(String),
    /// The SQB binary file failed a structural check (bad magic, truncated
    /// index, out-of-range offsets...).
    MalformedSqb(String),
    /// Version field of an SQB file is not supported by this build.
    UnsupportedSqbVersion(u16),
    /// A record or database cannot be written as SQB: another alphabet,
    /// a residue code outside it, an id or description over 65 535
    /// bytes, more than `u32::MAX` residues.
    UnencodableSqb(String),
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// A sequence set was empty where at least one record is required.
    EmptySet,
}

impl fmt::Display for BioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BioError::InvalidResidue { byte, position } => write!(
                f,
                "invalid residue byte 0x{byte:02x} ({:?}) at position {position}",
                *byte as char
            ),
            BioError::MalformedFasta(msg) => write!(f, "malformed FASTA: {msg}"),
            BioError::MalformedSqb(msg) => write!(f, "malformed SQB file: {msg}"),
            BioError::UnsupportedSqbVersion(v) => write!(
                f,
                "unsupported SQB format version {v} (this build reads version {}; \
                 re-run `swdual convert` on the source FASTA)",
                crate::sqb::VERSION
            ),
            BioError::UnencodableSqb(msg) => write!(f, "cannot write as SQB: {msg}"),
            BioError::Io(e) => write!(f, "I/O error: {e}"),
            BioError::EmptySet => write!(f, "sequence set is empty"),
        }
    }
}

impl std::error::Error for BioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BioError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for BioError {
    fn from(e: std::io::Error) -> Self {
        BioError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_informative() {
        let e = BioError::InvalidResidue {
            byte: b'!',
            position: 7,
        };
        let s = e.to_string();
        assert!(s.contains("0x21"));
        assert!(s.contains("position 7"));

        assert!(BioError::MalformedFasta("x".into())
            .to_string()
            .contains("FASTA"));
        assert!(BioError::UnsupportedSqbVersion(9).to_string().contains('9'));
        assert!(BioError::EmptySet.to_string().contains("empty"));
    }

    #[test]
    fn io_error_preserves_source() {
        use std::error::Error;
        let e = BioError::from(std::io::Error::other("boom"));
        assert!(e.source().is_some());
        assert!(e.to_string().contains("boom"));
    }
}
