//! PGCS — the versioned, fixed-layout, CRC-guarded columnar graph
//! snapshot.
//!
//! The file bytes *are* the columnar tables of [`ColumnarGraph`]: a fixed
//! 288-byte header (magic, version, CRC-32, element counts, and a
//! 16-entry section table) followed by the sections themselves, each
//! 8-byte aligned. Loading a snapshot therefore costs a header check plus
//! one CRC pass — **no per-element deserialisation** — which is what lets
//! `pg-store` recovery and follower bootstrap `mmap` a snapshot and start
//! serving immediately; elements are only materialised when a session is
//! first validated ([`SnapshotView::thaw`], the one decoder: it
//! validates every column and element as it builds the graph).
//!
//! The normative layout table lives in `docs/replication.md` and is
//! machine-checked against the constants below by the store's
//! `spec_parity` test. Summary:
//!
//! | field | bytes |
//! |---|---|
//! | magic `"PGCS"` | 0..4 |
//! | version (`u32` LE, currently 1) | 4..8 |
//! | CRC-32 of bytes `16..end` | 8..12 |
//! | section count (16) | 12..16 |
//! | node slots, edge slots, symbols, values (`u32` each) | 16..32 |
//! | section table: 16 × (offset `u64`, len `u64`) | 32..288 |
//!
//! Sections, in table order: `node_alive`, `node_label`,
//! `node_prop_start`, `node_prop_keys`, `node_prop_vals`, `edge_alive`,
//! `edge_label`, `edge_src`, `edge_dst`, `edge_prop_start`,
//! `edge_prop_keys`, `edge_prop_vals`, `sym_start`, `sym_heap`,
//! `val_start`, `val_heap`. All numeric columns are `u32` LE; the heaps
//! are raw UTF-8 and concatenated [`crate::binary`] value encodings, with
//! `*_start` prefix-sum columns delimiting entries. The derived CSR
//! adjacency is *not* stored: thaw yields the mutable graph, and the CSR
//! is built only when a graph is frozen into columns.
//!
//! A snapshot with a recognisable magic but a newer version fails with
//! [`SnapshotError::UnsupportedVersion`] — never a silent fallback and
//! never a torn-tail truncation.

use std::borrow::Cow;
use std::fmt;

use crate::binary::{self, BinError};
use crate::columnar::{sort_props, ColumnarGraph, GraphSink, Props};
use crate::symbols::{Sym, SymbolTable};
use crate::{PropertyGraph, Value};

/// Magic prefix of every PGCS snapshot.
pub const MAGIC: [u8; 4] = *b"PGCS";
/// Current (and only) format version.
pub const VERSION: u32 = 1;
/// Number of sections in the table.
pub const SECTION_COUNT: usize = 16;
/// Total header length: 32 fixed bytes + 16 × 16-byte table entries.
pub const HEADER_LEN: usize = 32 + SECTION_COUNT * 16;

/// Section names, in table order (used by `pgschema store inspect` and
/// the docs parity check).
pub const SECTION_NAMES: [&str; SECTION_COUNT] = [
    "node_alive",
    "node_label",
    "node_prop_start",
    "node_prop_keys",
    "node_prop_vals",
    "edge_alive",
    "edge_label",
    "edge_src",
    "edge_dst",
    "edge_prop_start",
    "edge_prop_keys",
    "edge_prop_vals",
    "sym_start",
    "sym_heap",
    "val_start",
    "val_heap",
];

/// Errors raised by snapshot parsing and thawing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The bytes do not start with the PGCS magic.
    BadMagic,
    /// The version field names a format this build does not understand.
    UnsupportedVersion {
        /// The version found in the header.
        found: u32,
    },
    /// The file is shorter than its header (or a section) requires.
    Truncated,
    /// The CRC-32 over the body does not match the header.
    BadCrc,
    /// A structural invariant of the layout is violated.
    Layout(&'static str),
    /// An element failed to decode during thaw.
    Element(BinError),
    /// A live edge references an out-of-range or dead node slot.
    DanglingEdge {
        /// Index of the offending edge slot.
        edge_index: usize,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a PGCS snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported snapshot version {found} (this build reads {VERSION})"
                )
            }
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadCrc => write!(f, "snapshot CRC mismatch"),
            SnapshotError::Layout(what) => write!(f, "snapshot layout invalid: {what}"),
            SnapshotError::Element(e) => write!(f, "snapshot element invalid: {e}"),
            SnapshotError::DanglingEdge { edge_index } => {
                write!(f, "live edge slot {edge_index} references a missing node")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<BinError> for SnapshotError {
    fn from(e: BinError) -> Self {
        SnapshotError::Element(e)
    }
}

/// One section table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Section {
    /// Byte offset from the start of the snapshot.
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
}

/// The decoded fixed header of a PGCS snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphHeader {
    /// Format version.
    pub version: u32,
    /// CRC-32 recorded in the header.
    pub crc: u32,
    /// Raw node slot count (tombstones included).
    pub node_slots: u32,
    /// Raw edge slot count.
    pub edge_slots: u32,
    /// Distinct interned strings.
    pub symbols: u32,
    /// Distinct interned values.
    pub values: u32,
    /// The section table, in [`SECTION_NAMES`] order.
    pub sections: [Section; SECTION_COUNT],
}

impl GraphHeader {
    /// Decodes and structurally validates the header of `bytes` — magic,
    /// version, section bounds. Does **not** verify the CRC (see
    /// [`crc_ok`](Self::crc_ok)); `pgschema store inspect` uses this to
    /// describe snapshots whose body is damaged.
    pub fn parse(bytes: &[u8]) -> Result<GraphHeader, SnapshotError> {
        if bytes.len() < 8 {
            return Err(SnapshotError::Truncated);
        }
        if bytes[0..4] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u32_at(bytes, 4);
        if version != VERSION {
            return Err(SnapshotError::UnsupportedVersion { found: version });
        }
        if bytes.len() < HEADER_LEN {
            return Err(SnapshotError::Truncated);
        }
        if u32_at(bytes, 12) as usize != SECTION_COUNT {
            return Err(SnapshotError::Layout("section count"));
        }
        let mut sections = [Section { offset: 0, len: 0 }; SECTION_COUNT];
        let mut cursor = HEADER_LEN as u64;
        for (i, s) in sections.iter_mut().enumerate() {
            let base = 32 + i * 16;
            s.offset = u64_at(bytes, base);
            s.len = u64_at(bytes, base + 8);
            // Sections are laid out in table order, non-overlapping,
            // within the file.
            if s.offset < cursor {
                return Err(SnapshotError::Layout("section overlap"));
            }
            let end = s
                .offset
                .checked_add(s.len)
                .ok_or(SnapshotError::Layout("section end overflow"))?;
            if end > bytes.len() as u64 {
                return Err(SnapshotError::Truncated);
            }
            cursor = end;
        }
        let header = GraphHeader {
            version,
            crc: u32_at(bytes, 8),
            node_slots: u32_at(bytes, 16),
            edge_slots: u32_at(bytes, 20),
            symbols: u32_at(bytes, 24),
            values: u32_at(bytes, 28),
            sections,
        };
        header.check_section_sizes()?;
        Ok(header)
    }

    /// Whether the recorded CRC matches `bytes` — one linear pass, the
    /// only whole-file work a snapshot load performs.
    pub fn crc_ok(&self, bytes: &[u8]) -> bool {
        bytes.len() >= 16 && crc32(&bytes[16..]) == self.crc
    }

    /// O(1) consistency checks of section lengths against the counts.
    fn check_section_sizes(&self) -> Result<(), SnapshotError> {
        let n = self.node_slots as u64;
        let m = self.edge_slots as u64;
        let s = &self.sections;
        let want = [
            n,                             // node_alive
            n * 4,                         // node_label
            (n + 1) * 4,                   // node_prop_start
            s[3].len,                      // node_prop_keys (checked against prop_start below)
            s[3].len,                      // node_prop_vals parallel to keys
            m,                             // edge_alive
            m * 4,                         // edge_label
            m * 4,                         // edge_src
            m * 4,                         // edge_dst
            (m + 1) * 4,                   // edge_prop_start
            s[10].len,                     // edge_prop_keys
            s[10].len,                     // edge_prop_vals
            (self.symbols as u64 + 1) * 4, // sym_start
            s[13].len,                     // sym_heap (delimited by sym_start)
            (self.values as u64 + 1) * 4,  // val_start
            s[15].len,                     // val_heap
        ];
        if s.iter()
            .zip(&want)
            .any(|(section, &expected)| section.len != expected)
        {
            return Err(SnapshotError::Layout("section length"));
        }
        if !s[3].len.is_multiple_of(4) || !s[10].len.is_multiple_of(4) {
            return Err(SnapshotError::Layout("prop column alignment"));
        }
        Ok(())
    }
}

/// A parsed, CRC-verified view over snapshot bytes. Holding a view costs
/// nothing per element; [`thaw`](Self::thaw) materialises the graph.
#[derive(Debug)]
pub struct SnapshotView<'a> {
    bytes: &'a [u8],
    header: GraphHeader,
}

impl<'a> SnapshotView<'a> {
    /// Validates the header, section bounds and CRC of `bytes`.
    pub fn parse(bytes: &'a [u8]) -> Result<SnapshotView<'a>, SnapshotError> {
        let header = GraphHeader::parse(bytes)?;
        if !header.crc_ok(bytes) {
            return Err(SnapshotError::BadCrc);
        }
        Ok(SnapshotView { bytes, header })
    }

    /// The decoded header.
    pub fn header(&self) -> &GraphHeader {
        &self.header
    }

    fn section(&self, ix: usize) -> &'a [u8] {
        let s = self.header.sections[ix];
        &self.bytes[s.offset as usize..(s.offset + s.len) as usize]
    }

    /// A numeric section, read in place.
    fn words(&self, ix: usize) -> Words<'a> {
        Words(self.section(ix))
    }

    /// Decodes the columns into the mutable [`PropertyGraph`] the
    /// snapshot was written from, tombstones included — the one PGCS
    /// decoder. Every element is validated (UTF-8 symbols, value
    /// encodings, prefix-sum columns, symbol and value ids, edge
    /// endpoints); this is the per-element work a mapped snapshot defers
    /// until a session is first used. Columns are read where they lie in
    /// the image, never copied out.
    pub fn thaw(&self) -> Result<PropertyGraph, SnapshotError> {
        let symbols = self.decode_symbols()?;
        let values = binary::decode_values(self.section(15), self.header.values as usize)?;
        check_prefix(self.words(14), self.header.sections[15].len)?;
        let resolve = |s: Sym| {
            symbols
                .try_resolve(s)
                .ok_or(SnapshotError::Layout("symbol out of range"))
        };
        let (node_alive, edge_alive) = (self.section(0), self.section(5));
        let node_label = self.words(1);
        let node_props = [self.words(2), self.words(3), self.words(4)];
        if node_props[0].get(0) != 0 {
            return Err(SnapshotError::Layout("prop start origin"));
        }
        let mut g = PropertyGraph::with_capacity(node_alive.len(), edge_alive.len());
        let mut props = Props::new();
        for (ix, &alive) in node_alive.iter().enumerate() {
            let label = resolve(node_label.sym(ix))?;
            element_props(&mut props, &symbols, &values, node_props, ix)?;
            GraphSink::node(&mut g, alive != 0, label, &mut props);
        }

        let edge_label = self.words(6);
        let edge_src = self.words(7);
        let edge_dst = self.words(8);
        let edge_props = [self.words(9), self.words(10), self.words(11)];
        let n = node_alive.len() as u32;
        for (ix, &alive) in edge_alive.iter().enumerate() {
            let (src, dst, alive) = (edge_src.get(ix), edge_dst.get(ix), alive != 0);
            if src >= n || dst >= n {
                return Err(SnapshotError::Layout("edge endpoint out of range"));
            }
            if alive && (node_alive[src as usize] == 0 || node_alive[dst as usize] == 0) {
                return Err(SnapshotError::DanglingEdge { edge_index: ix });
            }
            let label = resolve(edge_label.sym(ix))?;
            element_props(&mut props, &symbols, &values, edge_props, ix)?;
            GraphSink::edge(&mut g, alive, (src, dst), label, &mut props);
        }
        // Every prop entry has exactly one owner: the per-element ranges
        // are in order and in bounds, so it is enough that each start
        // column begins at 0 and ends at its key column's length.
        if edge_props[0].get(0) != 0 {
            return Err(SnapshotError::Layout("prop start origin"));
        }
        if node_props[0].get(node_alive.len()) as usize != node_props[1].len() {
            return Err(SnapshotError::Layout("node prop extent"));
        }
        if edge_props[0].get(edge_alive.len()) as usize != edge_props[1].len() {
            return Err(SnapshotError::Layout("edge prop extent"));
        }
        Ok(g)
    }

    fn decode_symbols(&self) -> Result<SymbolTable, SnapshotError> {
        let sym_start = self.words(12);
        let heap = self.section(13);
        check_prefix(sym_start, heap.len() as u64)?;
        if sym_start.last().unwrap_or(0) as usize != heap.len() {
            return Err(SnapshotError::Layout("symbol heap extent"));
        }
        let mut strings = Vec::with_capacity(sym_start.len().saturating_sub(1));
        for (a, b) in sym_start.iter().zip(sym_start.iter().skip(1)) {
            let s = std::str::from_utf8(&heap[a as usize..b as usize])
                .map_err(|_| SnapshotError::Layout("symbol not UTF-8"))?;
            strings.push(s.to_owned());
        }
        Ok(SymbolTable::from_strings(strings))
    }
}

/// One element's properties from its `[start, keys, vals]` columns, put
/// in name order: the image holds them in symbol order.
fn element_props<'s>(
    props: &mut Props<'s>,
    symbols: &'s SymbolTable,
    values: &[Value],
    [start, keys, vals]: [Words<'_>; 3],
    ix: usize,
) -> Result<(), SnapshotError> {
    let (a, b) = (start.get(ix) as usize, start.get(ix + 1) as usize);
    if a > b || b > keys.len() || b > vals.len() {
        return Err(SnapshotError::Layout("prop range"));
    }
    for i in a..b {
        let (Some(name), Some(value)) = (
            symbols.try_resolve(keys.sym(i)),
            values.get(vals.get(i) as usize),
        ) else {
            return Err(SnapshotError::Layout("prop entry out of range"));
        };
        props.push((Cow::Borrowed(name), value.clone()));
    }
    sort_props(props);
    Ok(())
}

/// A column of `u32` LE words, read where it lies in the image. Header
/// checks size every section to a whole number of words.
#[derive(Clone, Copy)]
struct Words<'a>(&'a [u8]);

impl<'a> Words<'a> {
    fn len(self) -> usize {
        self.0.len() / 4
    }

    fn get(self, ix: usize) -> u32 {
        let at = 4 * ix;
        u32::from_le_bytes(self.0[at..at + 4].try_into().expect("a word is four bytes"))
    }

    fn sym(self, ix: usize) -> Sym {
        Sym::from_index(self.get(ix) as usize)
    }

    fn last(self) -> Option<u32> {
        self.len().checked_sub(1).map(|ix| self.get(ix))
    }

    fn iter(self) -> impl Iterator<Item = u32> + 'a {
        (0..self.len()).map(move |ix| self.get(ix))
    }
}

/// A prefix-sum column must start at 0, be monotone, and stay in bounds.
fn check_prefix(start: Words<'_>, bound_bytes: u64) -> Result<(), SnapshotError> {
    if start.iter().next().is_some_and(|f| f != 0) {
        return Err(SnapshotError::Layout("prefix origin"));
    }
    if start.iter().zip(start.iter().skip(1)).any(|(a, b)| a > b) {
        return Err(SnapshotError::Layout("prefix not monotone"));
    }
    if start.last().is_some_and(|last| last as u64 > bound_bytes) {
        return Err(SnapshotError::Layout("prefix out of bounds"));
    }
    Ok(())
}

/// Encodes a frozen graph as PGCS bytes.
pub fn encode(cg: &ColumnarGraph) -> Vec<u8> {
    // Build the heaps first so section lengths are known.
    let mut sym_start: Vec<u32> = Vec::with_capacity(cg.symbols.len() + 1);
    let mut sym_heap: Vec<u8> = Vec::new();
    sym_start.push(0);
    for s in cg.symbols.strings() {
        sym_heap.extend_from_slice(s.as_bytes());
        sym_start.push(sym_heap.len() as u32);
    }
    let mut val_start: Vec<u32> = Vec::with_capacity(cg.values.len() + 1);
    let mut val_heap: Vec<u8> = Vec::new();
    val_start.push(0);
    for v in cg.values.values() {
        binary::encode_value(&mut val_heap, v);
        val_start.push(val_heap.len() as u32);
    }

    let bools = |col: &[bool]| col.iter().map(|&b| b as u8).collect::<Vec<u8>>();
    let u32s = |col: &[u32]| {
        let mut out = Vec::with_capacity(col.len() * 4);
        for &v in col {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    };
    let syms = |col: &[Sym]| {
        let mut out = Vec::with_capacity(col.len() * 4);
        for &s in col {
            out.extend_from_slice(&(s.index() as u32).to_le_bytes());
        }
        out
    };

    let sections: [Vec<u8>; SECTION_COUNT] = [
        bools(&cg.node_alive),
        syms(&cg.node_label),
        u32s(&cg.node_prop_start),
        syms(&cg.node_prop_keys),
        u32s(&cg.node_prop_vals),
        bools(&cg.edge_alive),
        syms(&cg.edge_label),
        u32s(&cg.edge_src),
        u32s(&cg.edge_dst),
        u32s(&cg.edge_prop_start),
        syms(&cg.edge_prop_keys),
        u32s(&cg.edge_prop_vals),
        u32s(&sym_start),
        sym_heap,
        u32s(&val_start),
        val_heap,
    ];

    let mut out = vec![0u8; HEADER_LEN];
    out[0..4].copy_from_slice(&MAGIC);
    out[4..8].copy_from_slice(&VERSION.to_le_bytes());
    // CRC patched at the end.
    out[12..16].copy_from_slice(&(SECTION_COUNT as u32).to_le_bytes());
    out[16..20].copy_from_slice(&(cg.node_alive.len() as u32).to_le_bytes());
    out[20..24].copy_from_slice(&(cg.edge_alive.len() as u32).to_le_bytes());
    out[24..28].copy_from_slice(&(cg.symbols.len() as u32).to_le_bytes());
    out[28..32].copy_from_slice(&(cg.values.len() as u32).to_le_bytes());
    for (i, section) in sections.iter().enumerate() {
        // 8-byte alignment keeps numeric columns directly addressable.
        while !out.len().is_multiple_of(8) {
            out.push(0);
        }
        let offset = out.len() as u64;
        let base = 32 + i * 16;
        out[base..base + 8].copy_from_slice(&offset.to_le_bytes());
        out[base + 8..base + 16].copy_from_slice(&(section.len() as u64).to_le_bytes());
        out.extend_from_slice(section);
    }
    let crc = crc32(&out[16..]);
    out[8..12].copy_from_slice(&crc.to_le_bytes());
    out
}

/// Freezes and encodes a graph in one step.
pub fn graph_to_snapshot_bytes(g: &PropertyGraph) -> Vec<u8> {
    encode(&ColumnarGraph::freeze(g))
}

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

// CRC-32 (IEEE 802.3, reflected), slicing-by-8 — the workspace's one
// checksum: `PGCS` images here, WAL frames and snapshot containers in
// `pg-store`. The standard library ships none and the workspace is
// offline; the `0xCBF43926` check value keeps the on-disk formats
// auditable with external tooling (`cksum -o 3`, `zlib.crc32`, …).
// Eight bytes per step through eight derived tables (`tables[k][b]` =
// crc of byte `b` followed by `k` zero bytes); byte-identical to the
// classic loop, several times the throughput — snapshot recovery is one
// CRC pass over an mmap'd multi-megabyte file, so this is its hot loop.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = build_tables();

/// The CRC-32 of `data` (`crc32(b"123456789") == 0xCBF43926`).
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in chunks.remainder() {
        crc = t[0][((crc ^ byte as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EdgeId, GraphBuilder, Value};

    fn sample() -> PropertyGraph {
        let mut g = GraphBuilder::new()
            .node("a", "User")
            .prop("a", "login", "alice")
            .prop("a", "score", 0.0f64)
            .node("b", "User")
            .prop("b", "login", "bob")
            .prop("b", "score", -0.0f64)
            .node("s", "Session")
            .edge("a", "b", "follows")
            .edge("s", "a", "user")
            .build()
            .unwrap();
        g.set_edge_property(EdgeId::from_index(0), "since", Value::Int(2019));
        let doomed = g.add_node("Doomed");
        g.set_node_property(doomed, "nan", Value::Float(f64::NAN));
        let e = g.add_edge(doomed, doomed, "selfie").unwrap();
        g.remove_edge(e).unwrap();
        g.remove_node(doomed).unwrap();
        g
    }

    #[test]
    fn round_trip_preserves_everything() {
        let g = sample();
        let bytes = graph_to_snapshot_bytes(&g);
        let view = SnapshotView::parse(&bytes).unwrap();
        assert_eq!(view.header().version, VERSION);
        assert_eq!(view.header().node_slots as usize, g.node_index_bound());
        assert_eq!(view.thaw().unwrap(), g);
    }

    #[test]
    fn encoding_is_deterministic() {
        let g = sample();
        assert_eq!(graph_to_snapshot_bytes(&g), graph_to_snapshot_bytes(&g));
    }

    #[test]
    fn negative_zero_and_nan_survive_bit_exactly() {
        let g = sample();
        let bytes = graph_to_snapshot_bytes(&g);
        let back = SnapshotView::parse(&bytes).unwrap().thaw().unwrap();
        let b = back
            .nodes()
            .find(|n| n.property("login") == Some(&Value::from("bob")))
            .expect("node b");
        let Some(Value::Float(x)) = b.property("score") else {
            panic!()
        };
        assert_eq!(x.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn wrong_magic_and_version_are_explicit() {
        let g = sample();
        let mut bytes = graph_to_snapshot_bytes(&g);
        bytes[0] = b'X';
        assert_eq!(
            GraphHeader::parse(&bytes).unwrap_err(),
            SnapshotError::BadMagic
        );
        let mut bytes = graph_to_snapshot_bytes(&g);
        bytes[4..8].copy_from_slice(&9u32.to_le_bytes());
        assert_eq!(
            GraphHeader::parse(&bytes).unwrap_err(),
            SnapshotError::UnsupportedVersion { found: 9 }
        );
        assert!(SnapshotError::UnsupportedVersion { found: 9 }
            .to_string()
            .contains("unsupported snapshot version"));
    }

    #[test]
    fn every_truncation_and_bit_flip_is_rejected() {
        let g = sample();
        let bytes = graph_to_snapshot_bytes(&g);
        for cut in 0..bytes.len() {
            assert!(
                SnapshotView::parse(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes parsed"
            );
        }
        // Flipping any byte of the body breaks the CRC; flipping the
        // header breaks magic/version/crc/layout checks.
        for at in (0..bytes.len()).step_by(7) {
            let mut bad = bytes.clone();
            bad[at] ^= 0x40;
            let r = SnapshotView::parse(&bad);
            assert!(r.is_err(), "flip at {at} parsed");
        }
    }

    #[test]
    fn corrupt_columns_fail_thaw_not_parse() {
        // A snapshot can be CRC-clean yet structurally hostile (a buggy
        // writer): thaw must reject it. Build each by encoding a graph,
        // overwriting words of one column, then re-CRC-ing.
        let g = sample();
        let bytes = graph_to_snapshot_bytes(&g);
        let header = SnapshotView::parse(&bytes).unwrap().header().clone();
        let corrupt = |section: usize, words: &[(usize, u32)]| {
            let mut bad = bytes.clone();
            let base = header.sections[section].offset as usize;
            for &(ix, word) in words {
                bad[base + 4 * ix..base + 4 * ix + 4].copy_from_slice(&word.to_le_bytes());
            }
            let crc = crc32(&bad[16..]);
            bad[8..12].copy_from_slice(&crc.to_le_bytes());
            SnapshotView::parse(&bad).unwrap().thaw()
        };
        // Node 0's label an out-of-range symbol.
        assert!(corrupt(1, &[(0, u32::MAX)]).is_err());
        // A prop-start column that does not begin at 0, or that ends
        // short of its key column, leaves properties with no owner.
        let (n, m) = (header.node_slots as usize, header.edge_slots as usize);
        for (section, slots, extent) in [(2, n, "node prop extent"), (9, m, "edge prop extent")] {
            assert_eq!(
                corrupt(section, &[(0, 1)]),
                Err(SnapshotError::Layout("prop start origin"))
            );
            let zeros: Vec<(usize, u32)> = (0..=slots).map(|ix| (ix, 0)).collect();
            assert_eq!(corrupt(section, &zeros), Err(SnapshotError::Layout(extent)));
        }
    }

    #[test]
    fn empty_graph_snapshot() {
        let g = PropertyGraph::new();
        let bytes = graph_to_snapshot_bytes(&g);
        let view = SnapshotView::parse(&bytes).unwrap();
        assert_eq!(view.thaw().unwrap(), g);
    }

    #[test]
    fn crc_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc_sliced_agrees_with_bytewise_at_every_length() {
        // The classic byte-at-a-time loop is the oracle.
        let bytewise = |data: &[u8]| {
            let mut crc = !0u32;
            for &byte in data {
                crc = CRC_TABLES[0][((crc ^ byte as u32) & 0xFF) as usize] ^ (crc >> 8);
            }
            !crc
        };
        let data: Vec<u8> = (0..257u32).map(|i| (i * 131 + 7) as u8).collect();
        for len in 0..data.len() {
            assert_eq!(crc32(&data[..len]), bytewise(&data[..len]), "length {len}");
        }
    }

    #[test]
    fn crc_single_bit_flips_change_the_checksum() {
        let data = b"the quick brown fox".to_vec();
        let reference = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), reference);
            }
        }
    }
}
