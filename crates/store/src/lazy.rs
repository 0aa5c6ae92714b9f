//! Deferred graph materialization for snapshot recovery.
//!
//! A `PGS2` snapshot embeds each session's graph as verbatim `PGCS`
//! columnar bytes (see [`crate::snapshot`]). Recovery validates the
//! container and each graph header/CRC, then hands the caller a
//! [`LazyGraph`] that *points into* the snapshot backing — nothing is
//! deserialized until someone actually needs the graph. Sessions that
//! are never touched again (dormant on a follower, or compacted away)
//! never pay a per-element decode; re-encoding them into the next
//! snapshot ships the mapped bytes verbatim via [`GraphPayload::Pgcs`].

use std::io;
use std::ops::Range;
use std::sync::Arc;

use pgraph::snapshot::SnapshotView;
use pgraph::PropertyGraph;

use crate::mmap::Mapping;

/// Shared immutable bytes underlying one decoded snapshot: either an
/// `mmap` of the snapshot file (recovery) or a heap buffer (snapshots
/// received over HTTP, e.g. follower bootstrap). Cloned per session;
/// the bytes live until the last [`LazyGraph`] drops.
#[derive(Clone, Debug)]
pub(crate) enum Backing {
    Heap(Arc<Vec<u8>>),
    Map(Arc<Mapping>),
}

impl Backing {
    pub(crate) fn bytes(&self) -> &[u8] {
        match self {
            Backing::Heap(v) => v,
            Backing::Map(m) => m,
        }
    }
}

/// A recovered session graph that may not have been deserialized yet.
///
/// `Loaded` holds a materialized [`PropertyGraph`]; `Mapped` holds a
/// validated `PGCS` byte range inside a snapshot `Backing`. The graph
/// header and CRC were checked at decode time, so [`LazyGraph::load`]
/// failures indicate actual corruption races, not routine conditions.
#[derive(Clone, Debug)]
pub struct LazyGraph(Inner);

#[derive(Clone, Debug)]
enum Inner {
    Loaded(PropertyGraph),
    Mapped {
        backing: Backing,
        range: Range<usize>,
    },
}

impl From<PropertyGraph> for LazyGraph {
    fn from(g: PropertyGraph) -> Self {
        LazyGraph(Inner::Loaded(g))
    }
}

impl LazyGraph {
    pub(crate) fn mapped(backing: Backing, range: Range<usize>) -> Self {
        LazyGraph(Inner::Mapped { backing, range })
    }

    /// Still zero-copy: no per-element decode has happened yet.
    pub fn is_mapped(&self) -> bool {
        matches!(self.0, Inner::Mapped { .. })
    }

    /// The materialized graph, if one exists.
    pub fn loaded(&self) -> Option<&PropertyGraph> {
        match &self.0 {
            Inner::Loaded(g) => Some(g),
            Inner::Mapped { .. } => None,
        }
    }

    /// The raw `PGCS` bytes, if still mapped. Snapshot writers use this
    /// to re-ship an untouched graph without a decode/encode cycle.
    pub fn pgcs(&self) -> Option<&[u8]> {
        match &self.0 {
            Inner::Loaded(_) => None,
            Inner::Mapped { backing, range } => Some(&backing.bytes()[range.clone()]),
        }
    }

    fn thaw(bytes: &[u8]) -> io::Result<PropertyGraph> {
        SnapshotView::parse(bytes)
            .and_then(|v| v.thaw())
            .map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("snapshot graph thaw failed: {e}"),
                )
            })
    }

    /// Materialize in place (idempotent) and return the graph mutably.
    pub fn load(&mut self) -> io::Result<&mut PropertyGraph> {
        if let Inner::Mapped { backing, range } = &self.0 {
            let g = Self::thaw(&backing.bytes()[range.clone()])?;
            self.0 = Inner::Loaded(g);
        }
        match &mut self.0 {
            Inner::Loaded(g) => Ok(g),
            Inner::Mapped { .. } => unreachable!("just loaded"),
        }
    }

    /// Materialize by value, releasing the backing reference.
    pub fn into_graph(mut self) -> io::Result<PropertyGraph> {
        self.load()?;
        match self.0 {
            Inner::Loaded(g) => Ok(g),
            Inner::Mapped { .. } => unreachable!("just loaded"),
        }
    }
}

impl PartialEq for LazyGraph {
    /// Structural graph equality; a mapped side is thawed into a
    /// temporary for the comparison (tests compare recovered state —
    /// the cost is irrelevant there, and a thaw failure is `!=`).
    fn eq(&self, other: &Self) -> bool {
        let materialize = |lg: &LazyGraph| -> Option<PropertyGraph> {
            match &lg.0 {
                Inner::Loaded(g) => Some(g.clone()),
                Inner::Mapped { backing, range } => {
                    Self::thaw(&backing.bytes()[range.clone()]).ok()
                }
            }
        };
        match (materialize(self), materialize(other)) {
            (Some(a), Some(b)) => a == b,
            _ => false,
        }
    }
}

impl PartialEq<PropertyGraph> for LazyGraph {
    fn eq(&self, other: &PropertyGraph) -> bool {
        match &self.0 {
            Inner::Loaded(g) => g == other,
            Inner::Mapped { backing, range } => {
                Self::thaw(&backing.bytes()[range.clone()]).is_ok_and(|g| &g == other)
            }
        }
    }
}

/// A writer-side view of one session's graph, as accepted by the
/// snapshot encoder ([`crate::SnapshotCapture::add_session`]).
///
/// `Pgcs` bytes are embedded verbatim — a dormant mapped session flows
/// from one snapshot generation into the next without ever being
/// deserialized.
#[derive(Clone, Copy, Debug)]
pub enum GraphPayload<'a> {
    /// A live graph; encoded to `PGCS` columnar bytes by the writer.
    Graph(&'a PropertyGraph),
    /// Verbatim, already-validated `PGCS` bytes.
    Pgcs(&'a [u8]),
}

impl<'a> From<&'a PropertyGraph> for GraphPayload<'a> {
    fn from(g: &'a PropertyGraph) -> Self {
        GraphPayload::Graph(g)
    }
}

impl<'a> From<&'a LazyGraph> for GraphPayload<'a> {
    fn from(lg: &'a LazyGraph) -> Self {
        match &lg.0 {
            Inner::Loaded(g) => GraphPayload::Graph(g),
            Inner::Mapped { backing, range } => GraphPayload::Pgcs(&backing.bytes()[range.clone()]),
        }
    }
}
