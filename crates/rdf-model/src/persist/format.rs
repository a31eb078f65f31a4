//! The versioned binary snapshot format.
//!
//! # Layout
//!
//! ```text
//! snapshot := magic "RDFSNAP4"            (8 bytes)
//!             body_crc                    (u32 LE, CRC-32/IEEE of body)
//!             body
//! body     := uvarint version (= 4)
//!             uvarint stats_generation
//!             section<terms>              (the one interner, id order)
//!             uvarint graph_count
//!             graph*                      (sorted by URI)
//! graph    := string uri
//!             index                       (SPO slab)
//! index    := uvarint triple_count
//!             uvarint block_count
//!             block_header*               (fixed 24 bytes each, contiguous)
//!             block_payload*              (concatenated)
//! block_header := min_s min_p min_o count payload_len crc   (6 × u32 LE)
//! ```
//!
//! Every id in a graph — slab entry or block header — is an index into the
//! body's one term table; a graph carries no dictionary of its own and no
//! storage settings. A graph is stored once, as its SPO slab: the decoder
//! checks it strictly ascending and hands it to the index's one
//! constructor, which derives POS and OSP by permuting and sorting it, so
//! the three orderings of a loaded graph hold the same triples by
//! construction. Every other revision is refused by magic: `RDFSNAP<n>` for
//! `n ≠ 4` is [`StorageError::UnsupportedVersion`]`(n)`.
//!
//! Block headers are a flat array of fixed-size records sorted by their
//! `min` triple — exactly the shape a pager needs to `partition_point` to
//! the block covering a key without touching any payload. Each payload is
//! independently CRC-framed and delta/varint-encoded: the first triple of
//! a block is raw, every later one is a per-component zigzag delta against
//! its predecessor (slab neighbours share long id prefixes, so deltas are
//! mostly one byte).
//!
//! The whole-body CRC makes corruption detection airtight: *any* bit flip
//! anywhere in the file — headers, counts, URIs, payloads — surfaces as a
//! typed [`StorageError::Corrupt`], never as a panic or a silently wrong
//! dataset. The per-block CRCs are redundant with it today but are the
//! unit of verification once blocks are read individually.
//!
//! Term encoding: a tag byte (IRI / blank / plain / lang-tagged / typed
//! literal) followed by length-prefixed UTF-8 strings. Typed-literal
//! decode re-derives the cached [`crate::term::TypedValue`] through
//! [`Literal::typed`], so value semantics survive the round trip.
//!
//! Determinism: every container serialized here iterates in a canonical
//! order (the interner in id order, graphs in URI order, slabs as stored), so
//! encoding the same logical dataset twice yields identical bytes — the
//! property behind the "snapshot of a snapshot is byte-identical"
//! guarantee.

use crate::dataset::Dataset;
use crate::graph::TripleIndex;
use crate::interner::{Interner, TermId};
use crate::term::{Literal, Term};

use super::StorageError;

/// File magic: 8 bytes, format name + major layout revision.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"RDFSNAP4";
/// Body version written by this encoder.
pub const SNAPSHOT_VERSION: u64 = 4;
/// Triples per index block.
const BLOCK_TRIPLES: usize = 1024;
/// Bytes per index block header (6 × u32 LE).
const BLOCK_HEADER_BYTES: usize = 24;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320) — hand-rolled, no deps.
// Slicing-by-8: eight derived tables let the hot loop consume 8 bytes per
// iteration, which matters because the snapshot verifies a whole-body CRC
// over megabytes before decoding anything.

const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

const CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

/// CRC-32/IEEE of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// The error for a file whose magic is not the one this build writes:
/// another revision of the same format — `name` followed by decimal digits,
/// as in `RDFSNAP2` or `RDFWAL01` — is [`StorageError::UnsupportedVersion`]
/// of that number; anything else is corruption.
pub(crate) fn wrong_magic(magic: &[u8], name: &str, section: &'static str) -> StorageError {
    let revision = magic
        .strip_prefix(name.as_bytes())
        .filter(|digits| digits.iter().all(u8::is_ascii_digit))
        .and_then(|digits| std::str::from_utf8(digits).ok()?.parse().ok());
    match revision {
        Some(n) => StorageError::UnsupportedVersion(n),
        None => StorageError::Corrupt {
            section,
            detail: "bad magic".into(),
        },
    }
}

// ---------------------------------------------------------------------------
// Varints.

/// Append a LEB128 unsigned varint.
pub fn put_uvarint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Zigzag-map a signed value then varint it.
pub fn put_ivarint(out: &mut Vec<u8>, v: i64) {
    put_uvarint(out, ((v << 1) ^ (v >> 63)) as u64);
}

fn put_u32_le(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_uvarint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Bounds-checked reader over a byte slice; every failure is a typed
/// [`StorageError::Corrupt`] naming the section being decoded.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    section: &'static str,
}

impl<'a> Reader<'a> {
    /// Reader over `buf`, blaming `section` in error messages.
    pub fn new(buf: &'a [u8], section: &'static str) -> Self {
        Reader {
            buf,
            pos: 0,
            section,
        }
    }

    fn corrupt(&self, detail: impl Into<String>) -> StorageError {
        StorageError::Corrupt {
            section: self.section,
            detail: detail.into(),
        }
    }

    /// Bytes left.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when fully consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Take `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], StorageError> {
        if self.remaining() < n {
            return Err(self.corrupt(format!("need {n} bytes, have {}", self.remaining())));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn byte(&mut self) -> Result<u8, StorageError> {
        Ok(self.take(1)?[0])
    }

    /// Read a LEB128 unsigned varint.
    pub fn uvarint(&mut self) -> Result<u64, StorageError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.byte()?;
            if shift == 63 && b > 1 {
                return Err(self.corrupt("varint overflows u64"));
            }
            v |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(self.corrupt("varint too long"));
            }
        }
    }

    /// Read a zigzag signed varint.
    pub fn ivarint(&mut self) -> Result<i64, StorageError> {
        let z = self.uvarint()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    fn u32_le(&mut self) -> Result<u32, StorageError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn str(&mut self) -> Result<&'a str, StorageError> {
        let len = self.uvarint()? as usize;
        if len > self.remaining() {
            return Err(self.corrupt(format!("string length {len} exceeds payload")));
        }
        std::str::from_utf8(self.take(len)?).map_err(|_| self.corrupt("invalid UTF-8 in string"))
    }
}

// ---------------------------------------------------------------------------
// Checksummed sections: uvarint payload_len, u32 crc, payload.

fn put_section(out: &mut Vec<u8>, payload: &[u8]) {
    put_uvarint(out, payload.len() as u64);
    put_u32_le(out, crc32(payload));
    out.extend_from_slice(payload);
}

fn read_section<'a>(r: &mut Reader<'a>, section: &'static str) -> Result<Reader<'a>, StorageError> {
    let len = r.uvarint()? as usize;
    if len > r.remaining() {
        return Err(StorageError::Corrupt {
            section,
            detail: format!("section length {len} exceeds payload"),
        });
    }
    let crc = r.u32_le()?;
    let payload = r.take(len)?;
    if crc32(payload) != crc {
        return Err(StorageError::Corrupt {
            section,
            detail: "checksum mismatch".into(),
        });
    }
    Ok(Reader::new(payload, section))
}

// ---------------------------------------------------------------------------
// Term codec.

const TAG_IRI: u8 = 0;
const TAG_BLANK: u8 = 1;
const TAG_PLAIN: u8 = 2;
const TAG_LANG: u8 = 3;
const TAG_TYPED: u8 = 4;

/// Append one term (tag + length-prefixed strings).
pub fn put_term(out: &mut Vec<u8>, term: &Term) {
    match term {
        Term::Iri(iri) => {
            out.push(TAG_IRI);
            put_str(out, iri);
        }
        Term::Blank(label) => {
            out.push(TAG_BLANK);
            put_str(out, label);
        }
        Term::Literal(lit) => {
            if let Some(lang) = &lit.language {
                out.push(TAG_LANG);
                put_str(out, &lit.lexical);
                put_str(out, lang);
            } else if let Some(dt) = &lit.datatype {
                out.push(TAG_TYPED);
                put_str(out, &lit.lexical);
                put_str(out, dt);
            } else {
                out.push(TAG_PLAIN);
                put_str(out, &lit.lexical);
            }
        }
    }
}

/// Decode one term; typed/lang literals re-derive their cached value view.
pub fn read_term(r: &mut Reader<'_>) -> Result<Term, StorageError> {
    let tag = r.byte()?;
    match tag {
        TAG_IRI => Ok(Term::iri(r.str()?)),
        TAG_BLANK => Ok(Term::blank(r.str()?)),
        TAG_PLAIN => Ok(Term::string(r.str()?)),
        TAG_LANG => {
            let lexical = r.str()?;
            let lang = r.str()?;
            Ok(Term::from(Literal::lang_string(lexical, lang)))
        }
        TAG_TYPED => {
            let lexical = r.str()?;
            let dt = r.str()?;
            Ok(Term::from(Literal::typed(lexical, dt)))
        }
        other => Err(r.corrupt(format!("unknown term tag {other}"))),
    }
}

fn encode_interner(interner: &Interner) -> Vec<u8> {
    let mut payload = Vec::new();
    put_uvarint(&mut payload, interner.len() as u64);
    for (_, term) in interner.iter() {
        put_term(&mut payload, term);
    }
    payload
}

fn decode_interner(r: &mut Reader<'_>, section: &'static str) -> Result<Interner, StorageError> {
    let mut sec = read_section(r, section)?;
    let count = sec.uvarint()? as usize;
    // Each term is ≥ 2 bytes (tag + length); a huge count in a short
    // section is corruption, caught before any allocation is sized by it.
    if count > sec.remaining() {
        return Err(StorageError::Corrupt {
            section,
            detail: format!("term count {count} exceeds payload"),
        });
    }
    let mut terms = Vec::with_capacity(count);
    for _ in 0..count {
        terms.push(read_term(&mut sec)?);
    }
    if !sec.is_empty() {
        return Err(StorageError::Corrupt {
            section,
            detail: "trailing bytes after terms".into(),
        });
    }
    Interner::from_terms(terms).ok_or(StorageError::Corrupt {
        section,
        detail: "duplicate term in interner table".into(),
    })
}

// ---------------------------------------------------------------------------
// Index (slab) codec.

type Key = (TermId, TermId, TermId);

fn encode_triples_delta(out: &mut Vec<u8>, triples: &[Key]) {
    let mut prev: Option<Key> = None;
    for &(s, p, o) in triples {
        match prev {
            None => {
                put_uvarint(out, u64::from(s.0));
                put_uvarint(out, u64::from(p.0));
                put_uvarint(out, u64::from(o.0));
            }
            Some((ps, pp, po)) => {
                put_ivarint(out, i64::from(s.0) - i64::from(ps.0));
                put_ivarint(out, i64::from(p.0) - i64::from(pp.0));
                put_ivarint(out, i64::from(o.0) - i64::from(po.0));
            }
        }
        prev = Some((s, p, o));
    }
}

fn read_id(r: &mut Reader<'_>, max_id: u64) -> Result<TermId, StorageError> {
    let v = r.uvarint()?;
    if v >= max_id {
        return Err(r.corrupt(format!("term id {v} out of range (interner has {max_id})")));
    }
    Ok(TermId(v as u32))
}

fn read_id_delta(r: &mut Reader<'_>, prev: TermId, max_id: u64) -> Result<TermId, StorageError> {
    let v = i64::from(prev.0) + r.ivarint()?;
    if v < 0 || v as u64 >= max_id {
        return Err(r.corrupt(format!("term id {v} out of range (interner has {max_id})")));
    }
    Ok(TermId(v as u32))
}

fn decode_triples_delta(
    r: &mut Reader<'_>,
    count: usize,
    max_id: u64,
) -> Result<Vec<Key>, StorageError> {
    // Each triple costs ≥ 3 bytes; reject counts a corrupt header inflated.
    if count > r.remaining() / 3 + 1 {
        return Err(r.corrupt(format!("triple count {count} exceeds payload")));
    }
    let mut triples = Vec::with_capacity(count);
    let mut prev: Option<Key> = None;
    for _ in 0..count {
        let key = match prev {
            None => (
                read_id(r, max_id)?,
                read_id(r, max_id)?,
                read_id(r, max_id)?,
            ),
            Some((ps, pp, po)) => (
                read_id_delta(r, ps, max_id)?,
                read_id_delta(r, pp, max_id)?,
                read_id_delta(r, po, max_id)?,
            ),
        };
        triples.push(key);
        prev = Some(key);
    }
    Ok(triples)
}

fn encode_index(out: &mut Vec<u8>, slab: &[Key]) {
    put_uvarint(out, slab.len() as u64);
    let blocks: Vec<&[Key]> = slab.chunks(BLOCK_TRIPLES).collect();
    put_uvarint(out, blocks.len() as u64);
    let mut payloads = Vec::new();
    for block in &blocks {
        let start = payloads.len();
        encode_triples_delta(&mut payloads, block);
        let payload = &payloads[start..];
        let (min_s, min_p, min_o) = block[0];
        put_u32_le(out, min_s.0);
        put_u32_le(out, min_p.0);
        put_u32_le(out, min_o.0);
        put_u32_le(out, block.len() as u32);
        put_u32_le(out, payload.len() as u32);
        put_u32_le(out, crc32(payload));
    }
    out.extend_from_slice(&payloads);
}

fn decode_index(
    r: &mut Reader<'_>,
    section: &'static str,
    max_id: u64,
) -> Result<Vec<Key>, StorageError> {
    let corrupt = |detail: String| StorageError::Corrupt { section, detail };
    let total = r.uvarint()? as usize;
    let block_count = r.uvarint()? as usize;
    if block_count > r.remaining() / BLOCK_HEADER_BYTES + 1 {
        return Err(corrupt(format!(
            "block count {block_count} exceeds payload"
        )));
    }
    struct Header {
        min: Key,
        count: usize,
        payload_len: usize,
        crc: u32,
    }
    let mut headers = Vec::with_capacity(block_count);
    for _ in 0..block_count {
        let min = (
            TermId(r.u32_le()?),
            TermId(r.u32_le()?),
            TermId(r.u32_le()?),
        );
        let count = r.u32_le()? as usize;
        let payload_len = r.u32_le()? as usize;
        let crc = r.u32_le()?;
        headers.push(Header {
            min,
            count,
            payload_len,
            crc,
        });
    }
    if total > r.remaining() / 3 + 1 {
        return Err(corrupt(format!("triple count {total} exceeds payload")));
    }
    let mut slab: Vec<Key> = Vec::with_capacity(total);
    for h in &headers {
        let payload = r.take(h.payload_len)?;
        if crc32(payload) != h.crc {
            return Err(corrupt("block checksum mismatch".into()));
        }
        let mut block_r = Reader::new(payload, section);
        let triples = decode_triples_delta(&mut block_r, h.count, max_id)?;
        if !block_r.is_empty() {
            return Err(corrupt("trailing bytes in block payload".into()));
        }
        match triples.first() {
            Some(&first) if first == h.min => {}
            _ => return Err(corrupt("block header min diverges from payload".into())),
        }
        slab.extend_from_slice(&triples);
    }
    if slab.len() != total {
        return Err(corrupt(format!(
            "index holds {} triples, header claims {total}",
            slab.len()
        )));
    }
    // The slab contract: strictly ascending. Downstream `partition_point`
    // scans silently misbehave on unsorted data, so a logically corrupt
    // (but CRC-valid) file must be rejected here.
    if slab.windows(2).any(|w| w[0] >= w[1]) {
        return Err(corrupt("slab not strictly ascending".into()));
    }
    Ok(slab)
}

// ---------------------------------------------------------------------------
// Graph + dataset codec.

fn encode_graph(out: &mut Vec<u8>, uri: &str, graph: &TripleIndex) {
    put_str(out, uri);
    encode_index(out, graph.spo_slab());
}

fn decode_graph(r: &mut Reader<'_>, max_id: u64) -> Result<(String, TripleIndex), StorageError> {
    let uri = r.str()?.to_string();
    let spo = decode_index(r, "spo index", max_id)?;
    Ok((uri, TripleIndex::from_spo(spo)))
}

/// Serialize a dataset into snapshot bytes (deterministic: same logical
/// dataset, same bytes).
pub fn encode_dataset(dataset: &Dataset) -> Vec<u8> {
    let mut body = Vec::new();
    put_uvarint(&mut body, SNAPSHOT_VERSION);
    put_uvarint(&mut body, dataset.stats_generation());
    put_section(&mut body, &encode_interner(dataset.interner()));
    put_uvarint(&mut body, dataset.len() as u64);
    for (uri, graph) in dataset.graphs() {
        encode_graph(&mut body, uri, graph);
    }
    let mut out = Vec::with_capacity(body.len() + 12);
    out.extend_from_slice(SNAPSHOT_MAGIC);
    put_u32_le(&mut out, crc32(&body));
    out.extend_from_slice(&body);
    out
}

/// Decode snapshot bytes back into a dataset. Every malformation — torn
/// file, flipped bit, bad counts, out-of-range ids — is a typed
/// [`StorageError`], never a panic.
pub fn decode_dataset(bytes: &[u8]) -> Result<Dataset, StorageError> {
    let mut r = Reader::new(bytes, "snapshot header");
    let magic = r.take(SNAPSHOT_MAGIC.len())?;
    if magic != SNAPSHOT_MAGIC {
        return Err(wrong_magic(magic, "RDFSNAP", "snapshot header"));
    }
    let body_crc = r.u32_le()?;
    let body = r.take(r.remaining())?;
    if crc32(body) != body_crc {
        return Err(StorageError::Corrupt {
            section: "snapshot body",
            detail: "checksum mismatch".into(),
        });
    }
    let mut r = Reader::new(body, "snapshot body");
    let version = r.uvarint()?;
    if version != SNAPSHOT_VERSION {
        return Err(StorageError::UnsupportedVersion(version));
    }
    let generation = r.uvarint()?;
    let interner = decode_interner(&mut r, "dataset interner")?;
    let graph_count = r.uvarint()? as usize;
    if graph_count > r.remaining() + 1 {
        return Err(StorageError::Corrupt {
            section: "snapshot body",
            detail: format!("graph count {graph_count} exceeds payload"),
        });
    }
    let max_id = interner.len() as u64;
    let mut dataset = Dataset::with_interner(interner);
    for _ in 0..graph_count {
        let (uri, graph) = decode_graph(&mut r, max_id)?;
        if dataset.graph(&uri).is_some() {
            return Err(StorageError::Corrupt {
                section: "graph",
                detail: format!("duplicate graph {uri}"),
            });
        }
        // The slab already holds this interner's ids.
        dataset.install(uri, graph);
    }
    if !r.is_empty() {
        return Err(StorageError::Corrupt {
            section: "snapshot body",
            detail: "trailing bytes after graphs".into(),
        });
    }
    dataset.set_stats_generation(generation);
    Ok(dataset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::term::Triple;

    #[test]
    fn crc32_known_vectors() {
        // Standard CRC-32/IEEE check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn varint_roundtrip() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_uvarint(&mut buf, v);
            let mut r = Reader::new(&buf, "test");
            assert_eq!(r.uvarint().unwrap(), v);
            assert!(r.is_empty());
        }
        for v in [0i64, -1, 1, -64, 64, i64::MIN, i64::MAX] {
            let mut buf = Vec::new();
            put_ivarint(&mut buf, v);
            let mut r = Reader::new(&buf, "test");
            assert_eq!(r.ivarint().unwrap(), v);
        }
    }

    #[test]
    fn term_codec_roundtrip() {
        use crate::vocab::xsd;
        let terms = [
            Term::iri("http://x/a"),
            Term::blank("b0"),
            Term::string("plain"),
            Term::from(Literal::lang_string("hallo", "de")),
            Term::from(Literal::typed("42", xsd::INTEGER)),
            Term::from(Literal::typed("2010-01-01", xsd::DATE_TIME)),
            Term::string("weird \" \\ \n chars ☃"),
        ];
        for t in &terms {
            let mut buf = Vec::new();
            put_term(&mut buf, t);
            let mut r = Reader::new(&buf, "test");
            let back = read_term(&mut r).unwrap();
            assert_eq!(&back, t);
            assert!(r.is_empty());
            // Value semantics must survive (the cached parse is re-derived).
            if let (Term::Literal(a), Term::Literal(b)) = (t, &back) {
                assert_eq!(a.as_f64(), b.as_f64());
            }
        }
    }

    /// Graph `a` was installed with ten triples and then appended one;
    /// graph `b` was installed empty, so its one triple was appended.
    fn sample_dataset() -> Dataset {
        let mut g = Graph::new();
        for i in 0..10 {
            g.insert(&Triple::new(
                Term::iri(format!("http://x/s{i}")),
                Term::iri("http://x/p"),
                Term::integer(i),
            ));
        }
        let mut ds = Dataset::new();
        ds.insert_graph("http://a", g);
        ds.insert_graph("http://b", Graph::new());
        ds.append_triples(
            "http://b",
            vec![Triple::new(
                Term::iri("http://x/s1"),
                Term::iri("http://x/q"),
                Term::string("appended"),
            )],
        )
        .unwrap();
        ds.append_triples(
            "http://a",
            vec![Triple::new(
                Term::iri("http://x/s0"),
                Term::iri("http://x/q"),
                Term::iri("http://x/s9"),
            )],
        )
        .unwrap();
        ds
    }

    #[test]
    fn dataset_roundtrip_and_byte_stability() {
        let ds = sample_dataset();
        let bytes = encode_dataset(&ds);
        let back = decode_dataset(&bytes).unwrap();
        assert_eq!(back.stats_generation(), ds.stats_generation());
        assert_eq!(
            back.graph_uris().collect::<Vec<_>>(),
            ds.graph_uris().collect::<Vec<_>>()
        );
        for uri in ["http://a", "http://b"] {
            // All three slabs, not only the stored SPO one.
            assert_eq!(ds.graph(uri), back.graph(uri));
        }
        assert!(ds.interner().iter().eq(back.interner().iter()));
        // Snapshot of the snapshot: byte-identical.
        assert_eq!(encode_dataset(&back), bytes);
    }

    #[test]
    fn a_revision_1_file_is_refused_by_magic() {
        // Whatever follows an old magic — nothing, garbage, or a
        // well-formed current body — the answer is the typed error naming
        // the revision: 1 (a dictionary per graph), 2 (a merge threshold
        // and counter per graph) and 3 (stored POS, OSP and delta sections)
        // alike.
        let good = encode_dataset(&sample_dataset());
        for (magic, revision) in [(b"RDFSNAP1", 1), (b"RDFSNAP2", 2), (b"RDFSNAP3", 3)] {
            let mut relabelled = good.clone();
            relabelled[..8].copy_from_slice(magic);
            let mut garbage = magic.to_vec();
            garbage.extend_from_slice(b"\xff\xff\xff");
            for bytes in [&magic[..], &garbage, &relabelled] {
                assert_eq!(
                    decode_dataset(bytes).err(),
                    Some(StorageError::UnsupportedVersion(revision))
                );
            }
        }
        // The WAL refuses its old revision the same way.
        let mut old_wal = b"RDFWAL01".to_vec();
        old_wal.extend_from_slice(&good[8..]);
        assert_eq!(
            super::super::wal::scan(&old_wal).err(),
            Some(StorageError::UnsupportedVersion(1))
        );
        // Not this format's magic at all is corruption, not a revision.
        for bytes in [&b"RDFSNAPX"[..], b"RDFSNAP-", b"GARBAGE3"] {
            assert!(matches!(
                decode_dataset(bytes),
                Err(StorageError::Corrupt { .. })
            ));
        }
    }

    #[test]
    fn empty_dataset_roundtrip() {
        let ds = Dataset::new();
        let bytes = encode_dataset(&ds);
        let back = decode_dataset(&bytes).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.stats_generation(), 0);
        assert_eq!(encode_dataset(&back), bytes);
    }

    #[test]
    fn every_bit_flip_is_a_typed_error() {
        let bytes = encode_dataset(&sample_dataset());
        // Exhaustive over bytes, one bit each — any flip must surface as a
        // typed error (the whole-body CRC guarantees detection).
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 1 << (i % 8);
            match decode_dataset(&bad) {
                Err(StorageError::Corrupt { .. }) | Err(StorageError::UnsupportedVersion(_)) => {}
                other => panic!("flip at byte {i}: expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn truncations_are_typed_errors() {
        let bytes = encode_dataset(&sample_dataset());
        for len in 0..bytes.len() {
            match decode_dataset(&bytes[..len]) {
                Err(StorageError::Corrupt { .. }) => {}
                other => panic!("truncation to {len}: expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn multi_block_index_roundtrip() {
        // Enough triples to span several blocks.
        let mut g = Graph::new();
        for i in 0..(BLOCK_TRIPLES * 2 + 77) {
            g.insert(&Triple::new(
                Term::iri(format!("http://x/s{i:06}")),
                Term::iri("http://x/p"),
                Term::iri(format!("http://x/o{:06}", i / 3)),
            ));
        }
        let mut ds = Dataset::new();
        ds.insert_graph("http://big", g);
        let bytes = encode_dataset(&ds);
        let back = decode_dataset(&bytes).unwrap();
        assert_eq!(ds.graph("http://big"), back.graph("http://big"));
        assert_eq!(encode_dataset(&back), bytes);
    }
}
