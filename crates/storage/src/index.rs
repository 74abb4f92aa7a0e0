//! Ordered secondary indexes over packed keys.
//!
//! An index holds one entry for every `(key, row id)` pair that **some
//! version** of a row carries. Because the engine is multi-versioned the
//! entries are a *superset* of what any particular snapshot can see:
//! readers always re-fetch the row through the table's visibility check
//! and re-verify the key. Entries for vacuumed versions are dropped when
//! the table is vacuumed.
//!
//! An entry is bytes: the key packed by its index's [`KeyLayout`], then
//! the row id, eight bytes big-endian. A packed key sorts as the key's
//! values do under [`Value::total_cmp`], column by column, and a key's
//! leading columns pack to a byte prefix of the whole key's packing, so
//! byte order is `(key, row id)` order and the entries under one key, or
//! one key prefix, are one run of the tree. An index whose columns all
//! have a fixed width keeps each entry in the tree's own node as an
//! array of big-endian words, which compare as the bytes do: nothing is
//! allocated per entry. DESIGN.md §5.12, "… and in the indexes".
//!
//! A commit inserts its entries one at a time ([`IndexStore::insert`]).
//! Recovery and vacuum stage them ([`IndexStore::stage`]) and build each
//! tree once from the sorted run ([`IndexStore::build`]); DESIGN.md §5.1,
//! "Indexes are built once".

use std::collections::{btree_set, BTreeSet};
use std::ops::Bound;

use crate::row::{RowId, SharedRow};
use crate::schema::{IndexDef, TableDef};
use crate::util::btree_bytes;
use crate::value::{DataType, Value, ValueRef};

/// A packed key: what an index orders by, and the cursor
/// [`crate::Transaction::index_prev`] hands back.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct IndexKey(Box<[u8]>);

impl IndexKey {
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }
}

/// One indexed column: its type and whether it may hold NULL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Column {
    ty: DataType,
    nullable: bool,
}

/// The sign bit of a 64-bit word.
const SIGN: u64 = 1 << 63;

impl Column {
    /// Bytes every value of this column packs to, unless it is text or
    /// bytes.
    fn fixed_len(self) -> Option<usize> {
        let width = match self.ty {
            DataType::Text | DataType::Bytes => return None,
            DataType::Bool => 1,
            _ => 8,
        };
        Some(width + usize::from(self.nullable))
    }

    /// Pack `v`, or write nothing and say `false` if no row of this
    /// column can hold it (another type, or NULL in a `NOT NULL` column).
    fn pack(self, v: ValueRef<'_>, out: &mut impl KeyOut) -> bool {
        if v.is_null() {
            if self.nullable {
                // Presence byte 0, then zeros: a fixed width stays fixed.
                out.extend(&[0; 9][..self.fixed_len().unwrap_or(1)]);
            }
            return self.nullable;
        }
        if v.data_type() != Some(self.ty) {
            return false;
        }
        if self.nullable {
            out.extend(&[1]);
        }
        match v {
            ValueRef::Int(x) | ValueRef::Timestamp(x) => {
                out.extend(&(x as u64 ^ SIGN).to_be_bytes())
            }
            ValueRef::Id(x) => out.extend(&x.to_be_bytes()),
            ValueRef::Float(x) => {
                let bits = x.to_bits();
                let ordered = if bits & SIGN == 0 { bits | SIGN } else { !bits };
                out.extend(&ordered.to_be_bytes());
            }
            ValueRef::Bool(b) => out.extend(&[u8::from(b)]),
            ValueRef::Text(s) => pack_escaped(s.as_bytes(), out),
            ValueRef::Bytes(b) => pack_escaped(b, out),
            ValueRef::Null => unreachable!("handled above"),
        }
        true
    }

    /// Read one value [`Column::pack`] wrote, advancing `input`.
    fn unpack(self, input: &mut &[u8]) -> Option<Value> {
        if self.nullable && take(input, 1)?[0] == 0 {
            take(input, self.fixed_len().map_or(0, |len| len - 1))?;
            return Some(Value::Null);
        }
        let word = |input: &mut &[u8]| -> Option<u64> {
            Some(u64::from_be_bytes(take(input, 8)?.try_into().ok()?))
        };
        Some(match self.ty {
            DataType::Int => Value::Int((word(input)? ^ SIGN) as i64),
            DataType::Timestamp => Value::Timestamp((word(input)? ^ SIGN) as i64),
            DataType::Id => Value::Id(word(input)?),
            DataType::Float => {
                let ordered = word(input)?;
                let bits = if ordered & SIGN != 0 {
                    ordered ^ SIGN
                } else {
                    !ordered
                };
                Value::Float(f64::from_bits(bits))
            }
            DataType::Bool => Value::Bool(take(input, 1)?[0] != 0),
            DataType::Text => Value::Text(String::from_utf8(unpack_escaped(input)?).ok()?),
            DataType::Bytes => Value::Bytes(unpack_escaped(input)?),
        })
    }
}

/// Text and bytes: every `0x00` written `0x00 0xFF`, then `0x00 0x01`.
/// The terminator sorts below any byte that can follow it, so a string
/// sorts below its extensions, and below anything after its columns.
fn pack_escaped(bytes: &[u8], out: &mut impl KeyOut) {
    let mut runs = bytes.split(|&b| b == 0);
    out.extend(runs.next().unwrap_or_default());
    for run in runs {
        out.extend(&[0, 0xFF]);
        out.extend(run);
    }
    out.extend(&[0, 1]);
}

fn unpack_escaped(input: &mut &[u8]) -> Option<Vec<u8>> {
    let mut out = Vec::new();
    loop {
        match take(input, 1)?[0] {
            0 => match take(input, 1)?[0] {
                0xFF => out.push(0),
                1 => return Some(out),
                _ => return None,
            },
            b => out.push(b),
        }
    }
}

/// The first `n` bytes of `input`, which moves past them.
fn take<'a>(input: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    if input.len() < n {
        return None;
    }
    let (head, rest) = input.split_at(n);
    *input = rest;
    Some(head)
}

/// How an index packs its keys: per column, fixed-width big-endian
/// numbers with the sign (and for floats the IEEE total order) folded
/// into unsigned order, one byte for a `Bool`, escaped and terminated
/// text and bytes, and a presence byte on nullable columns only. Byte
/// order of two packed keys is the lexicographic [`Value::total_cmp`]
/// order of the keys, and packing a key's leading columns gives a byte
/// prefix of packing the whole key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyLayout {
    columns: Vec<Column>,
}

/// Where a bound sorts among packed keys; see [`KeyLayout::probe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Probe {
    /// It is a whole key: its packing.
    Exact,
    /// It sorts just below every key its packing prefixes (a prefix, or a
    /// value below every value its column can hold).
    Below,
    /// It sorts just above every key its packing prefixes (a value above
    /// every value its column can hold, or more values than columns).
    Above,
}

impl KeyLayout {
    /// A layout for columns of these types and nullability, in key order.
    pub fn new(columns: impl IntoIterator<Item = (DataType, bool)>) -> KeyLayout {
        KeyLayout {
            columns: columns
                .into_iter()
                .map(|(ty, nullable)| Column { ty, nullable })
                .collect(),
        }
    }

    /// The layout of `index` over `table`'s columns.
    fn of(table: &TableDef, index: &IndexDef) -> KeyLayout {
        KeyLayout::new(index.columns.iter().map(|&pos| {
            let col = &table.columns[pos];
            (col.ty, col.nullable)
        }))
    }

    /// Bytes every key packs to, unless a column is text or bytes.
    pub fn fixed_len(&self) -> Option<usize> {
        self.columns.iter().map(|c| c.fixed_len()).sum()
    }

    /// The packing of `key`, a whole key or its leading columns; `None`
    /// when no stored key can start with it (a value its column cannot
    /// hold, or more values than columns).
    pub fn encode(&self, key: &[Value]) -> Option<Vec<u8>> {
        let mut out = KeyBuf::default();
        self.pack_prefix(key, &mut out)
            .then(|| out.as_slice().to_vec())
    }

    /// The whole key `packed` holds; `None` unless it is exactly one
    /// key's packing.
    pub fn decode(&self, mut packed: &[u8]) -> Option<Vec<Value>> {
        let key = self
            .columns
            .iter()
            .map(|c| c.unpack(&mut packed))
            .collect::<Option<Vec<_>>>()?;
        packed.is_empty().then_some(key)
    }

    /// [`KeyLayout::encode`] into `out`; whether every value packed.
    fn pack_prefix(&self, key: &[Value], out: &mut KeyBuf) -> bool {
        key.len() <= self.columns.len()
            && self
                .columns
                .iter()
                .zip(key)
                .all(|(c, v)| c.pack(v.view(), out))
    }

    /// Pack as much of `key` as sorts like a key prefix, and say where
    /// the whole of `key` sorts relative to what was packed — so that a
    /// bound holding values no column can hold (a mixed-type probe, NULL
    /// in a `NOT NULL` column, a key longer than the index) still
    /// bounds exactly what [`Value::total_cmp`] says it does.
    fn probe(&self, key: &[Value], out: &mut KeyBuf) -> Probe {
        for (i, v) in key.iter().enumerate() {
            let Some(&col) = self.columns.get(i) else {
                return Probe::Above;
            };
            if col.pack(v.view(), out) {
                continue;
            }
            let rank = v.data_type().map_or(0, DataType::rank);
            if rank > col.ty.rank() {
                return Probe::Above;
            }
            if col.nullable && !v.is_null() {
                // Above the column's NULLs, below its values.
                out.extend(&[1]);
            }
            return Probe::Below;
        }
        if key.len() == self.columns.len() {
            Probe::Exact
        } else {
            Probe::Below
        }
    }
}

/// Where a key is packed.
trait KeyOut {
    fn extend(&mut self, bytes: &[u8]);
}

/// A fixed-width entry being packed: the bytes of its words, which it
/// fills from the front, zeros past its end.
struct WordBytes {
    bytes: [u8; WORDS_MAX],
    len: usize,
}

impl Default for WordBytes {
    fn default() -> Self {
        WordBytes {
            bytes: [0; WORDS_MAX],
            len: 0,
        }
    }
}

impl WordBytes {
    /// The entry as `N` big-endian words.
    fn words<const N: usize>(&self) -> [u64; N] {
        std::array::from_fn(|i| {
            let word = self.bytes[8 * i..8 * i + 8]
                .try_into()
                .expect("eight bytes");
            u64::from_be_bytes(word)
        })
    }
}

impl KeyOut for WordBytes {
    #[inline]
    fn extend(&mut self, bytes: &[u8]) {
        self.bytes[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
    }
}

/// A key being packed: on the stack while it is short, as every key of
/// the TeNDaX schema is, so packing one allocates nothing.
#[derive(Clone)]
pub(crate) struct KeyBuf {
    len: usize,
    stack: [u8; KeyBuf::STACK],
    heap: Vec<u8>,
}

impl Default for KeyBuf {
    fn default() -> Self {
        KeyBuf {
            len: 0,
            stack: [0; KeyBuf::STACK],
            heap: Vec::new(),
        }
    }
}

impl std::fmt::Debug for KeyBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl KeyOut for KeyBuf {
    fn extend(&mut self, bytes: &[u8]) {
        let end = self.len + bytes.len();
        if end <= Self::STACK {
            self.stack[self.len..end].copy_from_slice(bytes);
        } else {
            if self.len <= Self::STACK {
                self.heap.extend_from_slice(&self.stack[..self.len]);
            }
            self.heap.extend_from_slice(bytes);
        }
        self.len = end;
    }
}

impl KeyBuf {
    const STACK: usize = 48;

    fn from_slice(bytes: &[u8]) -> KeyBuf {
        let mut buf = KeyBuf::default();
        buf.extend(bytes);
        buf
    }

    pub(crate) fn as_slice(&self) -> &[u8] {
        if self.len <= Self::STACK {
            &self.stack[..self.len]
        } else {
            &self.heap
        }
    }

    /// The least byte string above every string this one prefixes;
    /// `None` if there is none (it is empty or all `0xFF`).
    fn successor(&self) -> Option<KeyBuf> {
        let bytes = self.as_slice();
        let last = bytes.iter().rposition(|&b| b != 0xFF)?;
        let mut next = KeyBuf::from_slice(&bytes[..last]);
        next.extend(&[bytes[last] + 1]);
        Some(next)
    }
}

/// A range of entries, in bytes: what a prefix or a pair of `&[Value]`
/// bounds becomes once packed — from an inclusive lower end (the empty
/// string is below every entry) up to an exclusive upper end, if any.
#[derive(Debug, Clone)]
pub(crate) struct EntryRange {
    from: KeyBuf,
    until: Option<KeyBuf>,
}

impl EntryRange {
    /// `None` for a range no entry can fall in.
    fn new(from: KeyBuf, until: Option<KeyBuf>) -> Option<EntryRange> {
        let empty = until
            .as_ref()
            .is_some_and(|until| from.as_slice() >= until.as_slice());
        (!empty).then_some(EntryRange { from, until })
    }

    /// The entries whose key starts with `prefix`.
    fn prefix(prefix: KeyBuf) -> EntryRange {
        EntryRange {
            until: prefix.successor(),
            from: prefix,
        }
    }

    /// This range, less every entry at or above `key`.
    pub(crate) fn below(self, key: &IndexKey) -> Option<EntryRange> {
        let until = match self.until {
            Some(until) if until.as_slice() <= key.as_bytes() => until,
            _ => KeyBuf::from_slice(key.as_bytes()),
        };
        EntryRange::new(self.from, Some(until))
    }

    /// Whether `entry` (a packed key and row id) falls in the range.
    pub(crate) fn contains(&self, entry: &[u8]) -> bool {
        entry >= self.from.as_slice()
            && self
                .until
                .as_ref()
                .is_none_or(|until| entry < until.as_slice())
    }

    fn bounds(&self) -> (Bound<&[u8]>, Bound<&[u8]>) {
        let until = self.until.as_ref().map(KeyBuf::as_slice);
        (
            Bound::Included(self.from.as_slice()),
            until.map_or(Bound::Unbounded, Bound::Excluded),
        )
    }

    /// The range as bounds on the words of entries `entry_len` bytes
    /// long. An end no longer than the entries is zero-padded, as they
    /// are: an entry compares with it as its bytes do, and one it
    /// prefixes is at or above it. A longer end is cut to the entries'
    /// length and its inclusion flips, since an entry equal to the cut
    /// is a proper prefix of the end, so below it: `entry >= from` iff
    /// `entry > cut`, and `entry < until` iff `entry <= cut`.
    fn word_bounds<S: Slot>(&self, entry_len: usize) -> (Bound<S>, Bound<S>) {
        let from = self.from.as_slice();
        let from = if from.len() <= entry_len {
            Bound::Included(S::fill(from))
        } else {
            Bound::Excluded(S::fill(&from[..entry_len]))
        };
        let until = self.until.as_ref().map_or(Bound::Unbounded, |until| {
            let until = until.as_slice();
            if until.len() <= entry_len {
                Bound::Excluded(S::fill(until))
            } else {
                Bound::Included(S::fill(&until[..entry_len]))
            }
        });
        (from, until)
    }
}

/// A stored entry: big-endian words, zero-padded past the entry's
/// length (entries of one fixed-width layout all have the same length,
/// so padding never decides an order), or a boxed slice. Words compare
/// as integers in the order their bytes do, so the tree and the sort of
/// a bulk build compare words, not bytes.
trait Slot: Ord + Sized {
    fn fill(entry: &[u8]) -> Self;

    /// The key and row id of the entry `entry_len` bytes long this slot
    /// holds, read in place.
    fn split(&self, entry_len: Option<usize>) -> (EntryKey<'_>, RowId);

    /// Sort entries staged for a build.
    fn sort_staged(staged: &mut Vec<Self>) {
        staged.sort_unstable();
    }
}

/// The widest fixed-width entry, in bytes.
const WORDS_MAX: usize = 32;

impl<const N: usize> Slot for [u64; N] {
    fn fill(entry: &[u8]) -> Self {
        let mut bytes = WordBytes::default();
        bytes.extend(entry);
        bytes.words()
    }

    fn split(&self, entry_len: Option<usize>) -> (EntryKey<'_>, RowId) {
        let len = entry_len.expect("words hold fixed-width entries") - 8;
        // The row id's eight bytes, wherever they fall across two words.
        let (at, shift) = (len / 8, 8 * (len % 8));
        let row = match shift {
            0 => self[at],
            _ => self[at] << shift | self[at + 1] >> (64 - shift),
        };
        let key = EntryKey::Words { words: self, len };
        (key, RowId(row))
    }

    /// Fixed-width entries are sorted using the order they were staged
    /// in. Recovery and vacuum stage a table's entries in row-id order,
    /// so the entries under one key are in order already and only how
    /// the keys interleave is not: they are dealt out by the first byte
    /// in which any two differ (a stable pass, [`deal`]), and a share
    /// still out of order is dealt out again by its own. Where one key
    /// or key prefix makes a share, it is one run, and costs a check.
    /// Nothing is assumed that is not checked: a share out of order for
    /// any reason (a row patched in a segment after the base) is sorted
    /// in turn.
    fn sort_staged(staged: &mut Vec<Self>) {
        if staged.is_sorted() {
            return;
        }
        let mut dealt = vec![[0; N]; staged.len()];
        let starts = deal(staged, &mut dealt);
        sort_shares(&mut dealt, staged, &starts);
        *staged = dealt;
    }
}

impl Slot for Box<[u8]> {
    fn fill(entry: &[u8]) -> Self {
        entry.into()
    }

    fn split(&self, _: Option<usize>) -> (EntryKey<'_>, RowId) {
        let (key, row) = self.split_at(self.len() - 8);
        let row = row.try_into().expect("an entry ends in a row id");
        (EntryKey::Bytes(key), RowId(u64::from_be_bytes(row)))
    }
}

/// A packed key read in place: the leading `len` bytes of a
/// fixed-width entry's words, or bytes (a boxed entry's key, or an
/// [`IndexKey`]'s).
#[derive(Debug, Clone, Copy)]
pub(crate) enum EntryKey<'a> {
    Words { words: &'a [u64], len: usize },
    Bytes(&'a [u8]),
}

impl EntryKey<'_> {
    /// Whether the key is exactly `bytes`.
    pub(crate) fn is(&self, bytes: &[u8]) -> bool {
        match *self {
            EntryKey::Bytes(key) => key == bytes,
            EntryKey::Words { words, len } => {
                len == bytes.len()
                    && (bytes.chunks(8).zip(words))
                        .all(|(chunk, word)| *chunk == word.to_be_bytes()[..chunk.len()])
            }
        }
    }

    pub(crate) fn to_vec(self) -> Vec<u8> {
        match self {
            EntryKey::Bytes(key) => key.to_vec(),
            EntryKey::Words { words, len } => {
                let bytes = words.iter().flat_map(|word| word.to_be_bytes());
                bytes.take(len).collect()
            }
        }
    }
}

/// One index's entries of one slot type: the tree, and the entries
/// staged for the next bulk build.
#[derive(Debug, Clone)]
struct Tree<S> {
    set: BTreeSet<S>,
    /// Packed by [`IndexStore::stage`]; empty outside a build.
    staged: Vec<S>,
}

impl<S: Slot> Tree<S> {
    fn new() -> Self {
        Tree {
            set: BTreeSet::new(),
            staged: Vec::new(),
        }
    }

    /// Insert `slot` into the tree, or stage it for the next build.
    #[inline]
    fn add(&mut self, slot: S, stage: bool) {
        if stage {
            self.staged.push(slot);
        } else {
            self.set.insert(slot);
        }
    }

    /// Put every staged entry in the tree, sorted. Into an empty tree —
    /// recovery's first build of a table, vacuum's after its clear — the
    /// sorted run is the tree, built bottom-up (`BTreeSet`'s
    /// `FromIterator` checks a sorted run in one pass, drops repeats and
    /// fills its nodes); into a built one (what the segments after a base
    /// staged) the entries are inserted as a commit inserts them. On the
    /// benchmark's files a segment stages 1–10 % of its base's entries on
    /// `typing_tcp` and `big_doc_churn`, where merging them in instead
    /// made an open 1–4.7 ms slower, and 19–48 % on `typing_durable`,
    /// where merging was 0.1–0.2 ms faster.
    fn build(&mut self) {
        if self.staged.is_empty() {
            return;
        }
        let mut staged = std::mem::take(&mut self.staged);
        S::sort_staged(&mut staged);
        debug_assert!(staged.is_sorted(), "a sorted run builds the tree");
        if self.set.is_empty() {
            self.set = staged.into_iter().collect();
        } else {
            self.set.extend(staged);
        }
    }
}

/// Deal `entries` out into `to` by the first byte in which any two of
/// them differ, keeping their order within each share: where each share
/// starts in `to`, share `b` at `starts[b]..starts[b + 1]`.
fn deal<const N: usize>(entries: &[[u64; N]], to: &mut [[u64; N]]) -> [usize; 257] {
    let first = entries[0];
    let mut diff = [0u64; N];
    for e in entries {
        for ((d, a), b) in diff.iter_mut().zip(e).zip(&first) {
            *d |= a ^ b;
        }
    }
    // Entries all alike make one share.
    let word = diff.iter().position(|&d| d != 0).unwrap_or(0);
    let shift = 56 - diff[word].leading_zeros().min(63) / 8 * 8;
    let byte = |e: &[u64; N]| (e[word] >> shift) as u8 as usize;
    let mut starts = [0usize; 257];
    for e in entries {
        starts[byte(e) + 1] += 1;
    }
    for b in 0..256 {
        starts[b + 1] += starts[b];
    }
    let mut at = starts;
    for e in entries {
        let b = byte(e);
        to[at[b]] = *e;
        at[b] += 1;
    }
    starts
}

/// Sort the shares of `entries` that [`deal`] left out of order, dealing
/// each out again by its own first differing byte (through the same
/// range of `scratch`) until every share is in order; a small share is
/// sorted outright.
fn sort_shares<const N: usize>(
    entries: &mut [[u64; N]],
    scratch: &mut [[u64; N]],
    starts: &[usize; 257],
) {
    for share in starts.windows(2) {
        let (from, to) = (share[0], share[1]);
        let share = &mut entries[from..to];
        if share.is_sorted() {
            continue;
        }
        if share.len() <= RADIX_MIN {
            share.sort_unstable();
            continue;
        }
        let scratch = &mut scratch[from..to];
        let starts = deal(share, scratch);
        share.copy_from_slice(scratch);
        sort_shares(share, scratch, &starts);
    }
}

/// Entries a share holds at most to be sorted outright, not dealt out.
const RADIX_MIN: usize = 64;

/// The entries, in the narrowest slot their layout fits: every index
/// of the TeNDaX schema but the unique names fits one of the words.
#[derive(Debug, Clone)]
enum Entries {
    W16(Tree<[u64; 2]>),
    W24(Tree<[u64; 3]>),
    W32(Tree<[u64; 4]>),
    Boxed(Tree<Box<[u8]>>),
}

/// An ordered walk over a range of [`Entries`].
enum Walk<'a> {
    W16(btree_set::Range<'a, [u64; 2]>),
    W24(btree_set::Range<'a, [u64; 3]>),
    W32(btree_set::Range<'a, [u64; 4]>),
    Boxed(btree_set::Range<'a, Box<[u8]>>),
}

/// Run `$body` on whichever variant `$value` of `$ty` holds.
macro_rules! each_width {
    ($ty:ident, $value:expr, $bind:ident => $body:expr) => {
        match $value {
            $ty::W16($bind) => $body,
            $ty::W24($bind) => $body,
            $ty::W32($bind) => $body,
            $ty::Boxed($bind) => $body,
        }
    };
}

/// A [`Walk`] and the length of the entries it walks.
struct Entry<'a>(Walk<'a>, Option<usize>);

impl<'a> Iterator for Entry<'a> {
    type Item = (EntryKey<'a>, RowId);

    fn next(&mut self) -> Option<Self::Item> {
        let len = self.1;
        each_width!(Walk, &mut self.0, r => r.next().map(|slot| slot.split(len)))
    }
}

impl DoubleEndedIterator for Entry<'_> {
    fn next_back(&mut self) -> Option<Self::Item> {
        let len = self.1;
        each_width!(Walk, &mut self.0, r => r.next_back().map(|slot| slot.split(len)))
    }
}

/// One secondary index over a table.
#[derive(Debug, Clone)]
pub struct IndexStore {
    def: IndexDef,
    layout: KeyLayout,
    /// Bytes of every entry (key and row id) when the layout is fixed.
    entry_len: Option<usize>,
    entries: Entries,
}

impl IndexStore {
    pub fn new(def: IndexDef, table: &TableDef) -> Self {
        let layout = KeyLayout::of(table, &def);
        let entry_len = layout.fixed_len().map(|len| len + 8);
        let entries = match entry_len {
            Some(..=16) => Entries::W16(Tree::new()),
            Some(..=24) => Entries::W24(Tree::new()),
            Some(..=32) => Entries::W32(Tree::new()),
            _ => Entries::Boxed(Tree::new()),
        };
        IndexStore {
            def,
            layout,
            entry_len,
            entries,
        }
    }

    pub fn definition(&self) -> &IndexDef {
        &self.def
    }

    /// Pack the key `row` carries into `out`.
    fn pack_row(&self, row: &SharedRow, out: &mut KeyBuf) {
        let value = |pos| row.get(pos).unwrap_or(ValueRef::Null);
        pack_values(&self.def, &self.layout, value, out);
    }

    /// The packed key `row` carries.
    pub fn key_of(&self, row: &SharedRow) -> IndexKey {
        let mut key = KeyBuf::default();
        self.pack_row(row, &mut key);
        IndexKey(key.as_slice().into())
    }

    /// Whether `row` carries exactly `key` (the packed key of one of this
    /// index's entries): the re-verification every index reader owes the
    /// superset, packed on the stack.
    pub(crate) fn key_matches(&self, row: &SharedRow, key: EntryKey<'_>) -> bool {
        let mut packed = KeyBuf::default();
        self.pack_row(row, &mut packed);
        key.is(packed.as_slice())
    }

    /// Record that `row` has a version, `version`, carrying its key: one
    /// insert into the tree, as a commit publishes the version.
    pub fn insert(&mut self, row: RowId, version: &SharedRow) {
        let value = |pos| version.get(pos).unwrap_or(ValueRef::Null);
        self.add(row, value, false);
    }

    /// Pack the entry [`IndexStore::insert`] would for a version whose
    /// value at each position `value` gives, but only stage it for the
    /// next [`IndexStore::build`]: recovery packs a version's entries
    /// where the decoder laid its values out, and builds each tree once.
    pub(crate) fn stage<'v>(&mut self, row: RowId, value: impl Fn(usize) -> ValueRef<'v>) {
        self.add(row, value, true);
    }

    /// Pack the entry recording that `row` has a version, whose value at
    /// each position `value` gives, carrying its key — a fixed-width one
    /// straight into its words — and insert or `stage` it.
    #[inline]
    fn add<'v>(&mut self, row: RowId, value: impl Fn(usize) -> ValueRef<'v>, stage: bool) {
        let (def, layout) = (&self.def, &self.layout);
        if let Entries::Boxed(tree) = &mut self.entries {
            let mut entry = KeyBuf::default();
            pack_values(def, layout, value, &mut entry);
            entry.extend(&row.0.to_be_bytes());
            return tree.add(entry.as_slice().into(), stage);
        }
        let mut entry = WordBytes::default();
        pack_values(def, layout, value, &mut entry);
        entry.extend(&row.0.to_be_bytes());
        match &mut self.entries {
            Entries::W16(tree) => tree.add(entry.words(), stage),
            Entries::W24(tree) => tree.add(entry.words(), stage),
            Entries::W32(tree) => tree.add(entry.words(), stage),
            Entries::Boxed(_) => unreachable!("handled above"),
        }
    }

    /// Put every staged entry in the tree, sorted using the order it was
    /// staged in. The one builder recovery and vacuum share.
    pub(crate) fn build(&mut self) {
        each_width!(Entries, &mut self.entries, tree => tree.build());
    }

    /// The entries whose key starts with `prefix` (the whole key, or its
    /// leading columns); `None` when no entry can.
    pub(crate) fn prefix(&self, prefix: &[Value]) -> Option<EntryRange> {
        let mut packed = KeyBuf::default();
        self.layout
            .pack_prefix(prefix, &mut packed)
            .then(|| EntryRange::prefix(packed))
    }

    /// The entries whose key is `key`.
    pub(crate) fn exactly(&self, key: &IndexKey) -> EntryRange {
        EntryRange::prefix(KeyBuf::from_slice(key.as_bytes()))
    }

    /// The entries whose key lies within the bounds, compared as
    /// [`Value::total_cmp`] compares key vectors; `None` when none can.
    pub(crate) fn bounds(&self, lo: Bound<&[Value]>, hi: Bound<&[Value]>) -> Option<EntryRange> {
        let from = match lo {
            Bound::Unbounded => KeyBuf::default(),
            Bound::Included(key) | Bound::Excluded(key) => {
                let mut packed = KeyBuf::default();
                match self.layout.probe(key, &mut packed) {
                    Probe::Below => packed,
                    Probe::Exact if matches!(lo, Bound::Included(_)) => packed,
                    Probe::Exact | Probe::Above => packed.successor()?,
                }
            }
        };
        let until = match hi {
            Bound::Unbounded => None,
            Bound::Included(key) | Bound::Excluded(key) => {
                let mut packed = KeyBuf::default();
                match self.layout.probe(key, &mut packed) {
                    Probe::Below => Some(packed),
                    Probe::Exact if matches!(hi, Bound::Excluded(_)) => Some(packed),
                    Probe::Exact | Probe::Above => packed.successor(),
                }
            }
        };
        EntryRange::new(from, until)
    }

    /// The entries in `range` — none for `None` — as `(packed key, row
    /// id)`, in that order.
    pub(crate) fn entries<'a>(
        &'a self,
        range: Option<&EntryRange>,
    ) -> impl DoubleEndedIterator<Item = (EntryKey<'a>, RowId)> + 'a {
        debug_assert!(
            each_width!(Entries, &self.entries, tree => tree.staged.is_empty()),
            "an index is read only once its staged entries are built"
        );
        let walk = range.map(|range| {
            let len = self.entry_len.unwrap_or_default();
            let walk = match &self.entries {
                Entries::W16(tree) => Walk::W16(tree.set.range(range.word_bounds::<[u64; 2]>(len))),
                Entries::W24(tree) => Walk::W24(tree.set.range(range.word_bounds::<[u64; 3]>(len))),
                Entries::W32(tree) => Walk::W32(tree.set.range(range.word_bounds::<[u64; 4]>(len))),
                Entries::Boxed(tree) => Walk::Boxed(tree.set.range::<[u8], _>(range.bounds())),
            };
            Entry(walk, self.entry_len)
        });
        walk.into_iter().flatten()
    }

    /// Number of `(key, row)` entries.
    pub fn entry_count(&self) -> usize {
        each_width!(Entries, &self.entries, tree => tree.set.len())
    }

    /// Heap bytes this index holds: its tree, and the boxed entries of a
    /// layout with text or bytes in it.
    pub fn resident_bytes(&self) -> usize {
        let boxed = match &self.entries {
            Entries::Boxed(tree) => tree.set.iter().map(|entry| entry.len()).sum(),
            _ => 0,
        };
        each_width!(Entries, &self.entries, tree => btree_bytes(tree.set.len(), slot_size(&tree.set)))
            + boxed
    }

    /// Drop everything (used by vacuum rebuild).
    pub fn clear(&mut self) {
        each_width!(Entries, &mut self.entries, tree => tree.set.clear());
    }
}

/// Pack into `out` the key, under index `def` laid out as `layout`, of the
/// stored row whose value at each position `value` gives.
#[inline]
fn pack_values<'v>(
    def: &IndexDef,
    layout: &KeyLayout,
    value: impl Fn(usize) -> ValueRef<'v>,
    out: &mut impl KeyOut,
) {
    for (&pos, col) in def.columns.iter().zip(&layout.columns) {
        let packed = col.pack(value(pos), out);
        assert!(packed, "a stored row holds values its schema admits");
    }
}

/// The size of one slot of `set`'s tree.
fn slot_size<T>(_: &BTreeSet<T>) -> usize {
    std::mem::size_of::<T>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::Row;

    fn table() -> TableDef {
        TableDef::new("t")
            .column("a", DataType::Id)
            .column("b", DataType::Text)
            .index("by_ab", &["a", "b"])
            .index("by_a", &["a"])
            .index("by_ba", &["b", "a"])
    }

    fn idx(name: &str) -> IndexStore {
        let t = table();
        let def = t.find_index(name).unwrap().clone();
        IndexStore::new(def, &t)
    }

    fn row(a: u64, b: &str) -> SharedRow {
        Row::new(vec![Value::Id(a), Value::Text(b.into())]).into_shared()
    }

    fn key(a: u64, b: &str) -> Vec<Value> {
        vec![Value::Id(a), Value::Text(b.into())]
    }

    fn rows(i: &IndexStore, range: Option<EntryRange>) -> Vec<u64> {
        i.entries(range.as_ref()).map(|(_, r)| r.0).collect()
    }

    #[test]
    fn insert_is_idempotent_and_lookup_follows_row_ids() {
        let mut i = idx("by_ab");
        i.insert(RowId(11), &row(1, "x"));
        i.insert(RowId(10), &row(1, "x"));
        i.insert(RowId(12), &row(2, "y"));
        i.insert(RowId(10), &row(1, "x"));
        assert_eq!(i.entry_count(), 3);
        assert_eq!(rows(&i, i.prefix(&key(1, "x"))), [10, 11]);
        assert_eq!(rows(&i, i.prefix(&[Value::Id(1)])), [10, 11]);
        assert_eq!(rows(&i, i.prefix(&[])), [10, 11, 12]);
        assert!(
            i.prefix(&[Value::Int(1)]).is_none(),
            "no Id column holds an Int"
        );
        i.clear();
        assert_eq!((i.entry_count(), rows(&i, i.prefix(&[])).len()), (0, 0));
    }

    #[test]
    fn fixed_layouts_keep_entries_in_the_node() {
        let i = idx("by_a");
        assert!(matches!(i.entries, Entries::W16(_)));
        assert_eq!(i.layout.fixed_len(), Some(8));
        assert!(matches!(idx("by_ab").entries, Entries::Boxed(_)));
        let mut i = i;
        for r in 0..100 {
            i.insert(RowId(r), &row(r % 3, "x"));
        }
        assert_eq!(i.resident_bytes(), btree_bytes(100, 16));
        let mut t = idx("by_ab");
        t.insert(RowId(1), &row(1, "x"));
        assert_eq!(
            t.resident_bytes(),
            btree_bytes(1, 16) + 8 + 3 + 8,
            "a boxed entry counts its bytes"
        );
    }

    #[test]
    fn key_of_and_key_matches_pack_in_index_order() {
        let i = idx("by_ba");
        let r = row(7, "t");
        let packed = i.key_of(&r);
        assert_eq!(
            i.layout.decode(packed.as_bytes()),
            Some(vec![Value::Text("t".into()), Value::Id(7)])
        );
        assert!(i.key_matches(&r, EntryKey::Bytes(packed.as_bytes())));
        assert!(!i.key_matches(&row(8, "t"), EntryKey::Bytes(packed.as_bytes())));
    }

    #[test]
    fn ranges_walk_both_ways_in_key_then_row_order() {
        let mut i = idx("by_ab");
        for a in 1..=5u64 {
            i.insert(RowId(a), &row(a, "k"));
        }
        let lo = key(2, "");
        let hi = key(4, "\u{10FFFF}");
        let range = i.bounds(Bound::Included(&lo), Bound::Included(&hi));
        assert_eq!(rows(&i, range.clone()), [2, 3, 4]);
        let back: Vec<u64> = i.entries(range.as_ref()).rev().map(|(_, r)| r.0).collect();
        assert_eq!(back, [4, 3, 2]);
        let all = i.bounds(Bound::Unbounded, Bound::Unbounded);
        assert_eq!(rows(&i, all), [1, 2, 3, 4, 5]);
        // A whole-key bound: inclusive takes the key, exclusive does not.
        let three = key(3, "k");
        assert_eq!(
            rows(&i, i.bounds(Bound::Excluded(&three), Bound::Unbounded)),
            [4, 5]
        );
        assert_eq!(
            rows(&i, i.bounds(Bound::Unbounded, Bound::Included(&three))),
            [1, 2, 3]
        );
        // A prefix bound sorts below its extensions.
        let p = [Value::Id(3)];
        assert_eq!(
            rows(&i, i.bounds(Bound::Excluded(&p), Bound::Unbounded)),
            [3, 4, 5]
        );
        assert_eq!(
            rows(&i, i.bounds(Bound::Unbounded, Bound::Included(&p))),
            [1, 2]
        );
        // Bounds the wrong way round name nothing.
        assert!(i
            .bounds(Bound::Included(&hi), Bound::Excluded(&lo))
            .is_none());
    }

    #[test]
    fn mixed_type_bounds_sort_as_total_cmp_says() {
        let mut i = idx("by_ab");
        for a in 1..=3u64 {
            i.insert(RowId(a), &row(a, "k"));
        }
        // Null and Bool sort below every Id; Text above every Id.
        let below = [Value::Null];
        let above = [Value::Text("x".into())];
        assert_eq!(
            rows(&i, i.bounds(Bound::Included(&below), Bound::Unbounded)),
            [1, 2, 3]
        );
        assert_eq!(
            rows(&i, i.bounds(Bound::Unbounded, Bound::Included(&below))),
            [] as [u64; 0]
        );
        assert!(i
            .bounds(Bound::Included(&above), Bound::Unbounded)
            .is_none());
        assert_eq!(
            rows(&i, i.bounds(Bound::Unbounded, Bound::Excluded(&above))),
            [1, 2, 3]
        );
        // In a later column: (2, Bytes) is above every (2, Text).
        let mid = [Value::Id(2), Value::Bytes(vec![])];
        assert_eq!(
            rows(&i, i.bounds(Bound::Included(&mid), Bound::Unbounded)),
            [3]
        );
        // More values than columns: above the key they extend.
        let long = [Value::Id(2), Value::Text("k".into()), Value::Null];
        assert_eq!(
            rows(&i, i.bounds(Bound::Unbounded, Bound::Included(&long))),
            [1, 2]
        );
    }

    #[test]
    fn below_caps_a_range_at_a_key() {
        let mut i = idx("by_a");
        for a in 1..=5u64 {
            i.insert(RowId(a), &row(a, "k"));
        }
        let three = i.key_of(&row(3, "k"));
        let all = i.prefix(&[]).unwrap();
        assert_eq!(rows(&i, all.clone().below(&three)), [1, 2]);
        assert_eq!(
            rows(&i, i.prefix(&[Value::Id(4)]).unwrap().below(&three)),
            [] as [u64; 0]
        );
        assert!(all.contains(&[0; 16]));
        assert!(!i
            .prefix(&[Value::Id(4)])
            .unwrap()
            .contains(three.as_bytes()));
        assert_eq!(rows(&i, Some(i.exactly(&three))), [3]);
    }

    #[test]
    fn successor_skips_trailing_ff() {
        let s = KeyBuf::from_slice(&[1, 0xFF, 0xFF]).successor().unwrap();
        assert_eq!(s.as_slice(), [2]);
        assert!(KeyBuf::from_slice(&[0xFF]).successor().is_none());
        assert!(KeyBuf::default().successor().is_none());
        let long = KeyBuf::from_slice(&[7; 60]);
        assert_eq!(long.as_slice(), [7; 60]);
        assert_eq!(long.successor().unwrap().as_slice().len(), 60);
    }
}
