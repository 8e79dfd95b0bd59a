//! Error type for trace construction and IO.

use std::error::Error;
use std::fmt;
use std::io;

/// Error produced while building, reading, or writing traces.
#[derive(Debug)]
#[non_exhaustive]
pub enum TraceError {
    /// An underlying IO failure.
    Io(io::Error),
    /// The input did not conform to the expected trace format.
    Format {
        /// Human-readable description of the malformation.
        reason: String,
        /// Byte or line offset at which it was detected, when known.
        offset: Option<u64>,
    },
    /// Records were supplied out of timestamp order.
    OutOfOrder {
        /// Timestamp of the previous record.
        previous: u64,
        /// Offending (earlier) timestamp.
        found: u64,
    },
    /// A checksummed chunk failed validation (bad sync marker, CRC
    /// mismatch, or inconsistent framing) in a `BWSS2` stream.
    Corrupt {
        /// Zero-based index of the chunk at which corruption was detected.
        chunk: u64,
        /// What failed.
        reason: String,
    },
    /// The input starts with none of the trace magics (`BWST`, `BWSS`,
    /// `BWS3`), so no decoder applies.
    UnknownFormat {
        /// The leading bytes found instead (at most four).
        found: Vec<u8>,
    },
}

impl TraceError {
    /// Creates a format error with no offset information.
    pub fn format(reason: impl Into<String>) -> Self {
        TraceError::Format {
            reason: reason.into(),
            offset: None,
        }
    }

    /// Creates a format error at a known offset.
    pub fn format_at(reason: impl Into<String>, offset: u64) -> Self {
        TraceError::Format {
            reason: reason.into(),
            offset: Some(offset),
        }
    }
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::Format {
                reason,
                offset: Some(o),
            } => {
                write!(f, "malformed trace at offset {o}: {reason}")
            }
            TraceError::Format {
                reason,
                offset: None,
            } => {
                write!(f, "malformed trace: {reason}")
            }
            TraceError::OutOfOrder { previous, found } => write!(
                f,
                "trace records out of order: timestamp {found} after {previous}"
            ),
            TraceError::Corrupt { chunk, reason } => {
                write!(f, "corrupt stream chunk {chunk}: {reason}")
            }
            TraceError::UnknownFormat { found } => write!(
                f,
                "unrecognised trace format: magic \"{}\" is none of BWST, BWSS, or BWS3",
                found.escape_ascii()
            ),
        }
    }
}

impl Error for TraceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_offset_when_known() {
        let e = TraceError::format_at("bad magic", 4);
        assert!(e.to_string().contains("offset 4"));
        let e = TraceError::format("truncated");
        assert!(e.to_string().contains("truncated"));
    }

    #[test]
    fn io_source_is_preserved() {
        let inner = io::Error::new(io::ErrorKind::UnexpectedEof, "eof");
        let e = TraceError::from(inner);
        assert!(e.source().is_some());
    }

    #[test]
    fn corrupt_display_names_the_chunk() {
        let e = TraceError::Corrupt {
            chunk: 7,
            reason: "checksum mismatch".into(),
        };
        let s = e.to_string();
        assert!(s.contains("chunk 7") && s.contains("checksum"), "{s}");
    }

    #[test]
    fn unknown_format_names_every_magic() {
        let s = TraceError::UnknownFormat {
            found: b"JU\xffK".to_vec(),
        }
        .to_string();
        assert!(
            s.contains("BWST") && s.contains("BWSS") && s.contains("BWS3"),
            "{s}"
        );
        assert!(s.contains("JU\\xffK"), "{s}");
    }

    #[test]
    fn out_of_order_display() {
        let e = TraceError::OutOfOrder {
            previous: 10,
            found: 5,
        };
        let s = e.to_string();
        assert!(s.contains('5') && s.contains("10"));
    }
}
