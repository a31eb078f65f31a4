//! The append-only write-ahead log.
//!
//! # Framing
//!
//! ```text
//! wal    := magic "RDFWAL02"          (8 bytes)
//!           frame*
//! frame  := payload_len (u32 LE)
//!           payload_crc (u32 LE, CRC-32/IEEE)
//!           payload
//! ```
//!
//! Each frame holds one [`WalRecord`] — a mutation batch stamped with the
//! `stats_generation` the dataset reaches once the batch applies. Records
//! are written *before* the in-memory mutation (write-ahead), so a frame's
//! presence proves intent; its CRC proves completeness. A record carries
//! triples only: an `InsertGraph` replays through
//! [`crate::Dataset::insert_graph`] and an `AppendTriples` through
//! [`crate::Dataset::append_triples`], exactly as the live commit did. A log of another revision (`RDFWAL<n>`, `n ≠ 2`) is refused
//! as [`StorageError::UnsupportedVersion`]`(n)`.
//!
//! # Torn tails and prefix consistency
//!
//! A crash mid-append leaves a torn final frame: short header, short
//! payload, or CRC mismatch. [`scan`] decodes the longest valid prefix of
//! whole frames and reports `valid_len` — the byte offset the store
//! truncates back to on recovery. Everything before the tear is replayed;
//! the tear itself is discarded. A torn *file header* (fewer than 8 bytes)
//! means the store crashed while creating the log before any record could
//! exist, so it recovers as empty. A full-length header that isn't the
//! magic is not a tear — it's another revision or corruption, and surfaces
//! as a typed error rather than silent data loss.

use crate::term::Triple;

use super::format::{put_term, put_uvarint, read_term, wrong_magic, Reader};
use super::StorageError;

/// File magic for the write-ahead log.
pub const WAL_MAGIC: &[u8; 8] = b"RDFWAL02";

const REC_APPEND: u8 = 0;
const REC_INSERT_GRAPH: u8 = 1;

/// One logged mutation batch. `gen` is the dataset's `stats_generation`
/// *after* the batch applies; replay skips records whose generation the
/// snapshot already covers.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// `Dataset::append_triples` on an existing graph.
    AppendTriples {
        /// Post-apply stats generation.
        gen: u64,
        /// Target graph URI.
        uri: String,
        /// The appended batch, in append order.
        triples: Vec<Triple>,
    },
    /// `Dataset::insert_graph`, logged in canonical (SPO-sorted) order.
    InsertGraph {
        /// Post-apply stats generation.
        gen: u64,
        /// Graph URI.
        uri: String,
        /// The graph's triples in `iter_triples` (SPO) order.
        triples: Vec<Triple>,
    },
}

impl WalRecord {
    /// The post-apply stats generation this record carries.
    pub fn gen(&self) -> u64 {
        match self {
            WalRecord::AppendTriples { gen, .. } | WalRecord::InsertGraph { gen, .. } => *gen,
        }
    }

    fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let (tag, gen, uri, triples) = match self {
            WalRecord::AppendTriples { gen, uri, triples } => (REC_APPEND, *gen, uri, triples),
            WalRecord::InsertGraph { gen, uri, triples } => (REC_INSERT_GRAPH, *gen, uri, triples),
        };
        out.push(tag);
        put_uvarint(&mut out, gen);
        put_uvarint(&mut out, uri.len() as u64);
        out.extend_from_slice(uri.as_bytes());
        put_uvarint(&mut out, triples.len() as u64);
        for t in triples {
            put_term(&mut out, &t.subject);
            put_term(&mut out, &t.predicate);
            put_term(&mut out, &t.object);
        }
        out
    }

    /// Frame this record for appending: `[len][crc][payload]`.
    pub fn encode_frame(&self) -> Vec<u8> {
        let payload = self.encode_payload();
        let mut out = Vec::with_capacity(payload.len() + 8);
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&super::format::crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    fn decode_payload(payload: &[u8]) -> Result<WalRecord, StorageError> {
        let mut r = Reader::new(payload, "wal record");
        let tag = r.take(1)?[0];
        let gen = r.uvarint()?;
        let uri_len = r.uvarint()? as usize;
        let uri = std::str::from_utf8(r.take(uri_len)?)
            .map_err(|_| StorageError::Corrupt {
                section: "wal record",
                detail: "invalid UTF-8 in graph URI".into(),
            })?
            .to_string();
        let count = r.uvarint()? as usize;
        if count > r.remaining() / 3 + 1 {
            return Err(StorageError::Corrupt {
                section: "wal record",
                detail: format!("triple count {count} exceeds payload"),
            });
        }
        let mut triples = Vec::with_capacity(count);
        for _ in 0..count {
            let subject = read_term(&mut r)?;
            let predicate = read_term(&mut r)?;
            let object = read_term(&mut r)?;
            triples.push(Triple {
                subject,
                predicate,
                object,
            });
        }
        if !r.is_empty() {
            return Err(StorageError::Corrupt {
                section: "wal record",
                detail: "trailing bytes after triples".into(),
            });
        }
        match tag {
            REC_APPEND => Ok(WalRecord::AppendTriples { gen, uri, triples }),
            REC_INSERT_GRAPH => Ok(WalRecord::InsertGraph { gen, uri, triples }),
            other => Err(StorageError::Corrupt {
                section: "wal record",
                detail: format!("unknown record tag {other}"),
            }),
        }
    }
}

/// Result of scanning a WAL image: the decoded whole-frame prefix and how
/// much of the file it spans.
#[derive(Debug)]
pub struct WalScan {
    /// Records in the valid prefix, in log order.
    pub records: Vec<WalRecord>,
    /// Byte length of the valid prefix (magic + whole frames). Recovery
    /// truncates the file to this length.
    pub valid_len: u64,
    /// Bytes past `valid_len` — the torn tail (0 when the log is clean).
    pub torn_bytes: u64,
}

/// Scan a WAL image, decoding the longest valid prefix.
///
/// Torn tails (incomplete final frame) are expected after a crash and are
/// reported, not errored. A present-but-wrong magic *is* an error: the
/// file exists and is whole enough to judge, and it is not a log this
/// build reads (another revision, or not a log at all).
pub fn scan(bytes: &[u8]) -> Result<WalScan, StorageError> {
    if bytes.len() < WAL_MAGIC.len() {
        // Torn during initial header write: no frame can exist yet.
        return Ok(WalScan {
            records: Vec::new(),
            valid_len: 0,
            torn_bytes: bytes.len() as u64,
        });
    }
    let magic = &bytes[..WAL_MAGIC.len()];
    if magic != WAL_MAGIC {
        return Err(wrong_magic(magic, "RDFWAL", "wal header"));
    }
    let mut records = Vec::new();
    let mut pos = WAL_MAGIC.len();
    loop {
        let rest = &bytes[pos..];
        if rest.is_empty() {
            break;
        }
        if rest.len() < 8 {
            break; // torn frame header
        }
        let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
        let crc = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
        if rest.len() < 8 + len {
            break; // torn payload
        }
        let payload = &rest[8..8 + len];
        if super::format::crc32(payload) != crc {
            break; // torn or bit-rotted frame: cut here, keep the prefix
        }
        match WalRecord::decode_payload(payload) {
            Ok(rec) => records.push(rec),
            // CRC passed but the payload doesn't parse — treat as a tear
            // boundary too: everything before it is intact and replayable.
            Err(_) => break,
        }
        pos += 8 + len;
    }
    Ok(WalScan {
        valid_len: pos as u64,
        torn_bytes: (bytes.len() - pos) as u64,
        records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Term;

    fn rec(gen: u64) -> WalRecord {
        WalRecord::AppendTriples {
            gen,
            uri: "http://g".into(),
            triples: vec![Triple::new(
                Term::iri("http://x/s"),
                Term::iri("http://x/p"),
                Term::integer(gen as i64),
            )],
        }
    }

    fn log_of(records: &[WalRecord]) -> Vec<u8> {
        let mut bytes = WAL_MAGIC.to_vec();
        for r in records {
            bytes.extend_from_slice(&r.encode_frame());
        }
        bytes
    }

    #[test]
    fn roundtrip_multiple_records() {
        let recs = vec![
            rec(1),
            WalRecord::InsertGraph {
                gen: 2,
                uri: "http://h".into(),
                triples: vec![Triple::new(
                    Term::iri("http://x/a"),
                    Term::iri("http://x/b"),
                    Term::string("v"),
                )],
            },
            rec(3),
        ];
        let bytes = log_of(&recs);
        let scan = scan(&bytes).unwrap();
        assert_eq!(scan.records, recs);
        assert_eq!(scan.valid_len, bytes.len() as u64);
        assert_eq!(scan.torn_bytes, 0);
    }

    #[test]
    fn every_truncation_recovers_a_prefix() {
        let recs = vec![rec(1), rec(2), rec(3)];
        let bytes = log_of(&recs);
        for cut in 0..bytes.len() {
            let scan = scan(&bytes[..cut]).unwrap();
            // The recovered records are exactly some prefix of the input.
            assert!(scan.records.len() <= recs.len());
            assert_eq!(scan.records[..], recs[..scan.records.len()]);
            assert!(scan.valid_len as usize <= cut);
            assert_eq!(scan.torn_bytes as usize, cut - scan.valid_len as usize);
        }
    }

    #[test]
    fn corrupt_frame_cuts_the_log_there() {
        let recs = vec![rec(1), rec(2), rec(3)];
        let mut bytes = log_of(&recs);
        // Flip a bit inside the second frame's payload.
        let first_len = WAL_MAGIC.len() + rec(1).encode_frame().len();
        bytes[first_len + 12] ^= 0x40;
        let scan = scan(&bytes).unwrap();
        assert_eq!(scan.records, vec![rec(1)]);
        assert_eq!(scan.valid_len as usize, first_len);
        assert!(scan.torn_bytes > 0);
    }

    #[test]
    fn wrong_magic_is_corruption_not_a_tear() {
        let err = scan(b"NOTAWAL0rest").unwrap_err();
        assert!(matches!(err, StorageError::Corrupt { .. }));
    }

    #[test]
    fn short_header_recovers_empty() {
        let scan = scan(b"RDF").unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(scan.valid_len, 0);
        assert_eq!(scan.torn_bytes, 3);
    }
}
