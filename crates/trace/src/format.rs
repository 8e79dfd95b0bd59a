//! The one boundary between the three on-disk trace encodings and the
//! in-memory [`Trace`].
//!
//! The analysis reads one thing — the dynamic conditional-branch stream
//! of `(pc, direction, timestamp)` records — so the encoding matters
//! only here. [`Format::detect`] names a buffer's encoding by its magic,
//! [`Format::write`] encodes a trace, and [`Format::decode`] turns bytes
//! of any encoding back into one. The CLI, the corpus runner, the daemon
//! and the benches all go through this type; none of them matches on a
//! magic itself.
//!
//! | format | magic | extension | module |
//! |---|---|---|---|
//! | [`Format::Bwst`] | `BWST` | `.bwst` | [`crate::io`] |
//! | [`Format::Bwss`] | `BWSS` | `.bwss` | [`crate::stream`] |
//! | [`Format::Bwss3`] | `BWS3` | `.bws3` | [`crate::columnar`] |
//!
//! # Example
//!
//! ```
//! use bwsa_obs::Obs;
//! use bwsa_trace::format::Format;
//! use bwsa_trace::stream::RecoveryPolicy;
//! use bwsa_trace::TraceBuilder;
//!
//! # fn main() -> Result<(), bwsa_trace::TraceError> {
//! let mut b = TraceBuilder::new("tiny");
//! b.record(0x400, true, 5).record(0x440, false, 9);
//! let trace = b.finish();
//! for format in Format::ALL {
//!     let mut bytes = Vec::new();
//!     format.write(&trace, &mut bytes)?;
//!     let found = Format::detect(&bytes)?;
//!     assert_eq!(found, format);
//!     let (back, report) = found.decode(&bytes, RecoveryPolicy::Strict, &Obs::noop())?;
//!     assert_eq!(back, trace);
//!     assert!(report.clean());
//! }
//! assert!(Format::detect(b"JUNK").is_err());
//! # Ok(())
//! # }
//! ```

use crate::columnar::{self, ColumnarFile};
use crate::stream::{self, RecoveryPolicy, SalvageReport, StreamReader, StreamWriter};
use crate::{failpoints, io, Trace, TraceError};
use bwsa_obs::Obs;
use std::io::Write;
use std::path::Path;

/// An on-disk trace encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Format {
    /// `BWST`: the whole-trace delta-encoded binary.
    Bwst,
    /// `BWSS`: the chunked, checksummed stream (`BWSS2`; the legacy
    /// `BWSS1` reads too).
    Bwss,
    /// `BWS3`: column blocks with a directory/index footer (`BWSS3`).
    Bwss3,
}

impl Format {
    /// Every format, in `--format` listing order.
    pub const ALL: [Format; 3] = [Format::Bwst, Format::Bwss, Format::Bwss3];

    /// The four bytes every file of this format starts with.
    fn magic(self) -> &'static [u8; 4] {
        match self {
            Format::Bwst => io::MAGIC,
            Format::Bwss => stream::MAGIC,
            Format::Bwss3 => columnar::MAGIC,
        }
    }

    /// The format whose magic `bytes` start with.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::UnknownFormat`], which names all three
    /// magics, when no format matches (including inputs shorter than a
    /// magic).
    pub fn detect(bytes: &[u8]) -> Result<Format, TraceError> {
        let head = &bytes[..bytes.len().min(4)];
        Format::ALL
            .into_iter()
            .find(|f| head == f.magic())
            .ok_or_else(|| TraceError::UnknownFormat {
                found: head.to_vec(),
            })
    }

    /// The format's command-line name: `bwst`, `bwss` or `bwss3`.
    fn name(self) -> &'static str {
        match self {
            Format::Bwst => "bwst",
            Format::Bwss => "bwss",
            Format::Bwss3 => "bwss3",
        }
    }

    /// The format with command-line name `name`, if any.
    pub fn from_name(name: &str) -> Option<Format> {
        Format::ALL.into_iter().find(|f| f.name() == name)
    }

    /// The file extension files of this format carry: `bwst`, `bwss` or
    /// `bws3`.
    pub fn extension(self) -> &'static str {
        match self {
            Format::Bwst => "bwst",
            Format::Bwss => "bwss",
            Format::Bwss3 => "bws3",
        }
    }

    /// The format `path`'s extension names, if any.
    pub fn from_extension(path: &Path) -> Option<Format> {
        let ext = path.extension()?.to_str()?;
        Format::ALL.into_iter().find(|f| f.extension() == ext)
    }

    /// Encodes `trace` in this format.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] on write failure.
    pub fn write<W: Write>(self, trace: &Trace, sink: W) -> Result<(), TraceError> {
        match self {
            Format::Bwst => io::write_binary(trace, sink),
            Format::Bwss => {
                let mut w = StreamWriter::new(sink, &trace.meta().name)?;
                for record in trace.records() {
                    w.push(*record)?;
                }
                w.finish(trace.meta().total_instructions)
            }
            Format::Bwss3 => columnar::write_columnar(trace, sink),
        }
    }

    /// Decodes `bytes`, which must be in this format, into a [`Trace`].
    ///
    /// `BWSS` and `BWS3` honour `policy` (salvage drops damaged chunks or
    /// blocks and tallies them in the report); `BWST` has no redundancy
    /// to salvage with and always decodes strictly, firing the
    /// `trace.read_binary` failpoint first. `obs` receives
    /// `trace.records_read` (and, for `BWSS`, the stream reader's chunk
    /// and CRC counters).
    ///
    /// # Errors
    ///
    /// Returns the format's decode error: [`TraceError::Format`] for a
    /// malformed header or torn file, [`TraceError::Corrupt`] for a
    /// damaged chunk or block under [`RecoveryPolicy::Strict`].
    pub fn decode(
        self,
        bytes: &[u8],
        policy: RecoveryPolicy,
        obs: &Obs,
    ) -> Result<(Trace, SalvageReport), TraceError> {
        let (trace, report) = match self {
            Format::Bwst => {
                bwsa_resilience::failpoint!(failpoints::READ_BINARY);
                (io::decode_binary(bytes)?, SalvageReport::default())
            }
            Format::Bwss => {
                let mut reader =
                    StreamReader::with_recovery(bytes, policy)?.with_observer(obs.clone());
                let mut trace = Trace::new(reader.name().to_owned());
                for record in reader.by_ref() {
                    trace.push(record?)?;
                }
                if let Some(total) = reader.total_instructions() {
                    trace.meta_mut().total_instructions = total;
                }
                return Ok((trace, reader.salvage_report().clone()));
            }
            Format::Bwss3 => ColumnarFile::parse(bytes)?.decode(policy)?,
        };
        obs.add("trace.records_read", trace.len() as u64);
        Ok((trace, report))
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::TraceBuilder;

    fn sample() -> Trace {
        let mut b = TraceBuilder::new("fmt");
        for i in 0..500u64 {
            b.record(0x1000 + (i % 13) * 4, i % 3 == 0, i * 2 + 1);
        }
        let mut trace = b.finish();
        trace.meta_mut().total_instructions = 7777;
        trace
    }

    #[test]
    fn every_format_roundtrips_and_is_detected() {
        let trace = sample();
        for format in Format::ALL {
            let mut bytes = Vec::new();
            format.write(&trace, &mut bytes).unwrap();
            assert_eq!(Format::detect(&bytes).unwrap(), format);
            for policy in [RecoveryPolicy::Strict, RecoveryPolicy::Salvage] {
                let (back, report) = format.decode(&bytes, policy, &Obs::noop()).unwrap();
                assert_eq!(back, trace, "{format:?}");
                assert!(report.clean(), "{format:?}");
            }
        }
    }

    #[test]
    fn names_and_extensions_map_both_ways() {
        for format in Format::ALL {
            assert_eq!(Format::from_name(format.name()), Some(format));
            let path = format!("dir/t.{}", format.extension());
            assert_eq!(Format::from_extension(path.as_ref()), Some(format));
        }
        assert_eq!(Format::from_name("bws3"), None);
        assert_eq!(Format::from_extension("t.txt".as_ref()), None);
        assert_eq!(Format::from_extension("bwst".as_ref()), None);
    }

    #[test]
    fn unknown_and_short_magics_are_one_typed_error() {
        for junk in [&b"JUNK and more"[..], b"BWS", b"", b"bwst"] {
            match Format::detect(junk) {
                Err(TraceError::UnknownFormat { found }) => {
                    assert_eq!(found, &junk[..junk.len().min(4)]);
                }
                other => panic!("{junk:?}: expected UnknownFormat, got {other:?}"),
            }
        }
    }

    #[test]
    fn decode_counts_records_read_for_every_format() {
        let trace = sample();
        for format in Format::ALL {
            let mut bytes = Vec::new();
            format.write(&trace, &mut bytes).unwrap();
            let obs = Obs::recording();
            format.decode(&bytes, RecoveryPolicy::Strict, &obs).unwrap();
            let metrics = obs.snapshot().unwrap();
            assert_eq!(metrics.counter("trace.records_read"), 500, "{format:?}");
        }
    }
}
