//! The compiled-schema cache every reactor core shares.
//!
//! Validation is bounded in *data* complexity: the schema is fixed and
//! the graph varies, and clients post the same schema text request after
//! request. The cache compiles each distinct `(language, exact source
//! text)` once — parse, PG-Schema lowering, build, consistency check,
//! classification — and hands every later request the same [`PgSchema`],
//! whose symbol space the engines in turn compile once, on its first
//! validation.
//!
//! Bounded by two constants, not by configuration: at most
//! [`MAX_ENTRIES`] schemas and [`MAX_SOURCE_BYTES`] of source text in
//! all; the least recently used entry goes first, and a text larger than
//! the byte cap is compiled but never kept, so one large body cannot
//! pin its compiled form. Errors are not cached. The lock is held for a
//! lookup or an insert, never across a compile: two cores that miss the
//! same text at once both compile it, and the second insert is dropped.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use pg_pgschema::SchemaLanguage;
use pg_schema::PgSchema;

/// Most compiled schemas the cache holds.
pub(crate) const MAX_ENTRIES: usize = 64;

/// Most source bytes, summed over the cached texts. A compiled schema
/// grows with its text (its symbol rows with types × constraint sites),
/// so this is what bounds the cache's memory.
pub(crate) const MAX_SOURCE_BYTES: usize = 1 << 20;

/// A posted schema, compiled: what every request naming its text shares.
pub(crate) struct CompiledSchema {
    /// The schema the engines validate against (sessions hold it too).
    pub(crate) schema: Arc<PgSchema>,
    /// Its canonical SDL — what a durable session persists.
    pub(crate) sdl: String,
}

/// One cached text: its language, the exact source, the compiled form.
type Entry = (SchemaLanguage, Box<str>, Arc<CompiledSchema>);

/// See the module docs.
#[derive(Default)]
pub(crate) struct SchemaCache {
    lru: Mutex<Lru>,
    hits: AtomicU64,
    misses: AtomicU64,
}

#[derive(Default)]
struct Lru {
    /// Least recently used first. Few enough to scan: a lookup compares
    /// bytes only against texts of the same length.
    entries: Vec<Entry>,
    /// Source bytes of the cached texts.
    source_bytes: usize,
}

impl SchemaCache {
    /// The compiled form of `source`: the cached one, or a fresh compile
    /// ([`pg_pgschema::load_schema`]) that is cached if it succeeds.
    pub(crate) fn load(
        &self,
        source: &str,
        lang: SchemaLanguage,
    ) -> Result<Arc<CompiledSchema>, Box<dyn std::error::Error>> {
        if let Some(hit) = self.lru().get(source, lang) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(hit);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let (schema, sdl) = pg_pgschema::load_schema(source, lang)?;
        let compiled = Arc::new(CompiledSchema {
            schema: Arc::new(schema),
            sdl,
        });
        self.lru().insert(source, lang, Arc::clone(&compiled));
        Ok(compiled)
    }

    fn lru(&self) -> std::sync::MutexGuard<'_, Lru> {
        self.lru
            .lock()
            .expect("a core panicked while holding the schema cache")
    }

    /// Lookups answered from the cache.
    pub(crate) fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that compiled (failed compiles included).
    pub(crate) fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

impl Lru {
    fn position(&self, source: &str, lang: SchemaLanguage) -> Option<usize> {
        self.entries
            .iter()
            .rposition(|(l, text, _)| *l == lang && **text == *source)
    }

    /// The entry for `source`, moved to the most recently used end.
    fn get(&mut self, source: &str, lang: SchemaLanguage) -> Option<Arc<CompiledSchema>> {
        let entry = self.entries.remove(self.position(source, lang)?);
        let compiled = Arc::clone(&entry.2);
        self.entries.push(entry);
        Some(compiled)
    }

    fn insert(&mut self, source: &str, lang: SchemaLanguage, compiled: Arc<CompiledSchema>) {
        if source.len() > MAX_SOURCE_BYTES || self.position(source, lang).is_some() {
            return;
        }
        self.source_bytes += source.len();
        self.entries.push((lang, source.into(), compiled));
        while self.entries.len() > MAX_ENTRIES || self.source_bytes > MAX_SOURCE_BYTES {
            let (_, evicted, _) = self.entries.remove(0);
            self.source_bytes -= evicted.len();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sdl(i: usize) -> String {
        format!("type T{i} {{ x: Int }}")
    }

    fn cached(cache: &SchemaCache) -> Vec<Box<str>> {
        let lru = cache.lru();
        let bytes: usize = lru.entries.iter().map(|(_, text, _)| text.len()).sum();
        assert_eq!(lru.source_bytes, bytes);
        lru.entries
            .iter()
            .map(|(_, text, _)| text.clone())
            .collect()
    }

    #[test]
    fn hits_share_one_compiled_schema_and_errors_are_not_kept() {
        let cache = SchemaCache::default();
        let a = cache.load(&sdl(1), SchemaLanguage::Sdl).unwrap();
        let b = cache.load(&sdl(1), SchemaLanguage::Sdl).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.sdl, sdl(1));
        // The same text under the other language is another key (and
        // here not even a valid PG-Schema text).
        assert!(cache.load(&sdl(1), SchemaLanguage::PgSchema).is_err());
        assert!(cache.load(&sdl(1), SchemaLanguage::PgSchema).is_err());
        assert_eq!((cache.hits(), cache.misses()), (1, 3));
        assert_eq!(cached(&cache).len(), 1);
    }

    #[test]
    fn the_least_recently_used_entry_goes_first() {
        let cache = SchemaCache::default();
        let first = cache.load(&sdl(0), SchemaLanguage::Sdl).unwrap();
        for i in 1..MAX_ENTRIES {
            cache.load(&sdl(i), SchemaLanguage::Sdl).unwrap();
        }
        // Touch the first, then overflow by one: the second goes.
        cache.load(&sdl(0), SchemaLanguage::Sdl).unwrap();
        cache.load(&sdl(MAX_ENTRIES), SchemaLanguage::Sdl).unwrap();
        let texts = cached(&cache);
        assert_eq!(texts.len(), MAX_ENTRIES);
        assert!(texts.contains(&sdl(0).into()));
        assert!(!texts.contains(&sdl(1).into()));
        let again = cache.load(&sdl(0), SchemaLanguage::Sdl).unwrap();
        assert!(Arc::ptr_eq(&first, &again));
    }

    #[test]
    fn source_bytes_are_bounded() {
        let cache = SchemaCache::default();
        // Past the cap alone: compiled, not kept.
        let huge = format!("{}{}", sdl(0), " ".repeat(MAX_SOURCE_BYTES));
        cache.load(&huge, SchemaLanguage::Sdl).unwrap();
        assert!(cached(&cache).is_empty());
        // Two texts of just over half the cap cannot both stay.
        let half = |i| format!("{}{}", sdl(i), " ".repeat(MAX_SOURCE_BYTES / 2));
        cache.load(&half(1), SchemaLanguage::Sdl).unwrap();
        cache.load(&half(2), SchemaLanguage::Sdl).unwrap();
        assert_eq!(cached(&cache), vec![half(2).into_boxed_str()]);
    }
}
