//! Schedules and the reference model.
//!
//! A schedule is drawn completely from the seed before anything runs:
//! the generator tracks document lengths and carets itself, so every
//! position it emits is valid when the op is issued and the drivers
//! never read a document inside the timed path. Edit kinds are
//! stratified (exact counts per kind, shuffled order), so two seeds type
//! the same number of characters and differ only in where and when.

use crate::rng::{Rng, Zipf};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a, the receipts' hash.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(FNV_OFFSET)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn num(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// The words documents are made of; search terms and the
/// content-contains folder draw from the same list.
pub const VOCAB: [&str; 24] = [
    "database",
    "editor",
    "document",
    "transaction",
    "character",
    "collaboration",
    "metadata",
    "lineage",
    "folder",
    "mining",
    "search",
    "workflow",
    "keystroke",
    "commit",
    "version",
    "session",
    "cursor",
    "paste",
    "history",
    "ranking",
    "cluster",
    "review",
    "awareness",
    "realtime",
];

/// Exactly `n` characters of vocabulary words separated by spaces.
pub fn words_text(rng: &mut Rng, n: usize) -> String {
    let mut out = String::with_capacity(n + 16);
    while out.len() < n {
        out.push_str(VOCAB[rng.below(VOCAB.len())]);
        out.push(' ');
    }
    out.truncate(n);
    out
}

/// One keystroke-sized edit. `del > 0` deletes `del` characters at
/// `pos`; otherwise `text` is inserted at `pos`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edit {
    pub typist: u8,
    pub doc: u16,
    pub pos: u32,
    pub del: u32,
    pub text: String,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    InsChar,
    InsWord,
    Backspace,
    DelWord,
}

/// Shares of the four edit kinds, in parts per hundred.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub ins_char: usize,
    pub ins_word: usize,
    pub backspace: usize,
    pub del_word: usize,
}

#[derive(Debug, Clone, Copy)]
pub struct EditCfg {
    pub mix: Mix,
    /// Consecutive edits that stay in one document.
    pub burst: usize,
    /// Documents `0..active_docs` receive edits, Zipf-popular.
    pub active_docs: usize,
    pub zipf_s: f64,
    /// Typists 0 and 1 alternate edit by edit; otherwise typist 0 types
    /// everything.
    pub alternate: bool,
    /// A caret jumps to a fresh position once in this many edits.
    pub jump_every: usize,
}

/// Draws edits one at a time, tracking lengths and both typists' carets.
#[derive(Debug)]
pub struct EditGen {
    rng: Rng,
    cfg: EditCfg,
    lens: Vec<usize>,
    carets: Vec<[usize; 2]>,
    kinds: Vec<Kind>,
    /// Lengths still to hand out, for inserted and for deleted words.
    word_lens: [Vec<usize>; 2],
    /// The document of each burst: exact Zipf shares, shuffled order.
    burst_docs: Vec<usize>,
    next_burst: usize,
    next_kind: usize,
    burst_left: usize,
    doc: usize,
    turn: u8,
}

const WORD_LENS: [usize; 6] = [3, 4, 5, 6, 7, 8];

impl EditGen {
    pub fn new(seed: u64, cfg: EditCfg, lens: &[usize], total_edits: usize) -> EditGen {
        let mut rng = Rng::fork(seed, 1);
        let m = cfg.mix;
        assert_eq!(
            m.ins_char + m.ins_word + m.backspace + m.del_word,
            100,
            "mix is in parts per hundred"
        );
        let mut kinds = Vec::with_capacity(total_edits);
        for (kind, share) in [
            (Kind::InsWord, m.ins_word),
            (Kind::Backspace, m.backspace),
            (Kind::DelWord, m.del_word),
        ] {
            kinds.extend(std::iter::repeat_n(kind, total_edits * share / 100));
        }
        kinds.resize(total_edits, Kind::InsChar);
        rng.shuffle(&mut kinds);
        // One multiset of lengths per word kind, exactly as long as that
        // kind's count: every seed types and deletes the same total.
        let mut lens_for = |kind: Kind| {
            let n = kinds.iter().filter(|&&k| k == kind).count();
            let mut lens: Vec<usize> = (0..n).map(|i| WORD_LENS[i % 6]).collect();
            rng.shuffle(&mut lens);
            lens
        };
        let word_lens = [lens_for(Kind::InsWord), lens_for(Kind::DelWord)];
        let carets = lens
            .iter()
            .map(|&l| [rng.below(l + 1), rng.below(l + 1)])
            .collect();
        let bursts = total_edits.div_ceil(cfg.burst);
        let mut burst_docs = Zipf::new(cfg.active_docs, cfg.zipf_s).apportion(bursts);
        rng.shuffle(&mut burst_docs);
        EditGen {
            burst_docs,
            next_burst: 0,
            rng,
            cfg,
            lens: lens.to_vec(),
            carets,
            kinds,
            word_lens,
            next_kind: 0,
            burst_left: 0,
            doc: 0,
            turn: 0,
        }
    }

    pub fn lens(&self) -> &[usize] {
        &self.lens
    }

    /// Account for `n` characters some other op inserted at `pos`.
    pub fn note_insert(&mut self, doc: usize, pos: usize, n: usize) {
        self.lens[doc] += n;
        for c in &mut self.carets[doc] {
            if *c > pos {
                *c += n;
            }
        }
    }

    fn note_delete(&mut self, doc: usize, pos: usize, n: usize) {
        self.lens[doc] -= n;
        for c in &mut self.carets[doc] {
            if *c >= pos + n {
                *c -= n;
            } else if *c > pos {
                *c = pos;
            }
        }
    }

    pub fn next_edit(&mut self) -> Edit {
        if self.burst_left == 0 {
            self.doc = self.burst_docs[self.next_burst];
            self.next_burst += 1;
            self.burst_left = self.cfg.burst;
        }
        self.burst_left -= 1;
        let doc = self.doc;
        let typist = if self.cfg.alternate {
            self.turn ^= 1;
            self.turn ^ 1
        } else {
            0
        } as usize;
        let kind = self.kinds[self.next_kind];
        self.next_kind += 1;
        let (need, n) = match kind {
            Kind::InsChar => (0, 1),
            Kind::InsWord => (0, self.word_lens[0].pop().expect("one length per word")),
            Kind::DelWord => {
                let l = self.word_lens[1].pop().expect("one length per word");
                (l, l)
            }
            Kind::Backspace => (1, 1),
        };
        let len = self.lens[doc];
        assert!(len >= need + 8, "document {doc} ran too short for the mix");
        let mut caret = self.carets[doc][typist].min(len);
        if caret < need || self.rng.below(self.cfg.jump_every) == 0 {
            caret = self.rng.between(need, len);
        }
        match kind {
            Kind::InsChar | Kind::InsWord => {
                let text = if kind == Kind::InsChar {
                    if self.rng.below(6) == 0 {
                        " ".to_string()
                    } else {
                        ((b'a' + self.rng.below(26) as u8) as char).to_string()
                    }
                } else {
                    let w = VOCAB[self.rng.below(VOCAB.len())];
                    let mut t: String = w.chars().cycle().take(n - 1).collect();
                    t.push(' ');
                    t
                };
                self.carets[doc][typist] = caret;
                self.note_insert(doc, caret, n);
                self.carets[doc][typist] = caret + n;
                Edit {
                    typist: typist as u8,
                    doc: doc as u16,
                    pos: caret as u32,
                    del: 0,
                    text,
                }
            }
            Kind::Backspace | Kind::DelWord => {
                let pos = caret - n;
                self.carets[doc][typist] = caret;
                self.note_delete(doc, pos, n);
                Edit {
                    typist: typist as u8,
                    doc: doc as u16,
                    pos: pos as u32,
                    del: n as u32,
                    text: String::new(),
                }
            }
        }
    }
}

impl Edit {
    fn hash(&self, h: &mut Fnv) {
        h.num(self.typist as u64);
        h.num(self.doc as u64);
        h.num(self.pos as u64);
        h.num(self.del as u64);
        h.bytes(self.text.as_bytes());
    }

    pub fn inserted_bytes(&self) -> u64 {
        self.text.len() as u64
    }
}

/// Measured and warm-up rounds of a run of `seconds` at `rounds_per_s`.
/// Run length is a count, never a timer, so every count repeats exactly;
/// the rates are chosen so that the measured phase takes about
/// `seconds` on the reference container. Warm-up is a twentieth more.
pub fn run_rounds(rounds_per_s: f64, seconds: u64) -> (usize, usize) {
    let measured = ((rounds_per_s * seconds as f64).round() as usize).max(8);
    (measured, (measured / 20).max(2))
}

// ------------------------------------------------------------ TCP rounds

/// One round of a TCP workload: a run of edits, then the watcher
/// re-opens `open_doc`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpRound {
    pub edits: Vec<Edit>,
    pub open_doc: u16,
}

pub fn gen_tcp(
    seed: u64,
    lens: &[usize],
    rounds: usize,
    edits_per_round: usize,
    cfg: EditCfg,
) -> Vec<TcpRound> {
    let mut gen = EditGen::new(seed, cfg, lens, rounds * edits_per_round);
    // The watcher re-opens the documents in turn, so every seed opens
    // each document equally often.
    (0..rounds)
        .map(|r| {
            let open_doc = (r % cfg.active_docs) as u16;
            let edits: Vec<Edit> = (0..edits_per_round).map(|_| gen.next_edit()).collect();
            TcpRound { edits, open_doc }
        })
        .collect()
}

pub fn digest_tcp(rounds: &[TcpRound]) -> u64 {
    let mut h = Fnv::new();
    for r in rounds {
        for e in &r.edits {
            e.hash(&mut h);
        }
        h.num(r.open_doc as u64);
    }
    h.0
}

// ------------------------------------------------------ services rounds

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Paste {
    pub by: u8,
    pub src_doc: u16,
    pub src_pos: u32,
    pub len: u32,
    pub dst_doc: u16,
    pub dst_pos: u32,
}

pub const STATES: [&str; 3] = ["draft", "review", "final"];
pub const FOLDERS: usize = 6;

/// One round of `workspace_services`: every op class once, edits many
/// times, always in this order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceRound {
    pub edits: Vec<Edit>,
    pub paste: Paste,
    pub state_doc: u16,
    pub state: u8,
    pub folder: u8,
    pub search_doc: u16,
    pub term: u8,
    pub task_doc: u16,
    pub task_by: u8,
    pub task_to: u8,
    pub open_doc: u16,
}

pub fn gen_services(
    seed: u64,
    lens: &[usize],
    users: usize,
    rounds: usize,
    edits_per_round: usize,
    cfg: EditCfg,
) -> Vec<ServiceRound> {
    let mut gen = EditGen::new(seed, cfg, lens, rounds * edits_per_round);
    let mut rng = Rng::fork(seed, 2);
    let zipf = Zipf::new(lens.len(), cfg.zipf_s);
    (0..rounds)
        .map(|r| {
            let edits: Vec<Edit> = (0..edits_per_round).map(|_| gen.next_edit()).collect();
            let src_doc = zipf.sample(&mut rng);
            let dst_doc = (src_doc + 1 + rng.below(lens.len() - 1)) % lens.len();
            let len = rng.between(6, 24);
            let src_len = gen.lens()[src_doc];
            assert!(src_len > len, "paste source ran too short");
            let src_pos = rng.below(src_len - len);
            let dst_pos = rng.below(gen.lens()[dst_doc] + 1);
            gen.note_insert(dst_doc, dst_pos, len);
            ServiceRound {
                edits,
                paste: Paste {
                    by: (r % 2) as u8,
                    src_doc: src_doc as u16,
                    src_pos: src_pos as u32,
                    len: len as u32,
                    dst_doc: dst_doc as u16,
                    dst_pos: dst_pos as u32,
                },
                state_doc: rng.below(lens.len()) as u16,
                state: rng.below(STATES.len()) as u8,
                folder: (r % FOLDERS) as u8,
                // Searched, routed and opened documents go round in
                // turn (co-prime strides), so every seed touches each
                // document equally often.
                search_doc: ((r * 7 + 3) % lens.len()) as u16,
                term: rng.below(VOCAB.len()) as u8,
                task_doc: ((r * 5 + 1) % lens.len()) as u16,
                task_by: rng.below(users) as u8,
                task_to: rng.below(users) as u8,
                open_doc: ((r * 3 + 2) % lens.len()) as u16,
            }
        })
        .collect()
}

pub fn digest_services(rounds: &[ServiceRound]) -> u64 {
    let mut h = Fnv::new();
    for r in rounds {
        for e in &r.edits {
            e.hash(&mut h);
        }
        let p = &r.paste;
        for v in [
            p.by as u64,
            p.src_doc as u64,
            p.src_pos as u64,
            p.len as u64,
            p.dst_doc as u64,
            p.dst_pos as u64,
            r.state_doc as u64,
            r.state as u64,
            r.folder as u64,
            r.search_doc as u64,
            r.term as u64,
            r.task_doc as u64,
            r.task_by as u64,
            r.task_to as u64,
            r.open_doc as u64,
        ] {
            h.num(v);
        }
    }
    h.0
}

// -------------------------------------------------------- reference model

/// The trivially correct sequential model every output is compared with:
/// one `Vec<char>` per document, ops applied in schedule order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Model {
    pub docs: Vec<Vec<char>>,
}

impl Model {
    pub fn new(texts: &[String]) -> Model {
        Model {
            docs: texts.iter().map(|t| t.chars().collect()).collect(),
        }
    }

    pub fn apply(&mut self, e: &Edit) {
        let d = &mut self.docs[e.doc as usize];
        let pos = e.pos as usize;
        if e.del > 0 {
            d.drain(pos..pos + e.del as usize);
        } else {
            d.splice(pos..pos, e.text.chars());
        }
    }

    pub fn paste(&mut self, p: &Paste) {
        let s = p.src_pos as usize;
        let clip: Vec<char> = self.docs[p.src_doc as usize][s..s + p.len as usize].to_vec();
        let at = p.dst_pos as usize;
        self.docs[p.dst_doc as usize].splice(at..at, clip);
    }

    pub fn text(&self, doc: usize) -> String {
        self.docs[doc].iter().collect()
    }

    #[cfg(test)]
    pub fn len(&self, doc: usize) -> usize {
        self.docs[doc].len()
    }

    /// FNV over every document's text: the convergence receipt.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for d in 0..self.docs.len() {
            h.bytes(self.text(d).as_bytes());
            h.bytes(&[0]);
        }
        h.0
    }
}

/// The same receipt computed from texts read back from the system.
pub fn digest_texts(texts: &[String]) -> u64 {
    let mut h = Fnv::new();
    for t in texts {
        h.bytes(t.as_bytes());
        h.bytes(&[0]);
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    const CFG: EditCfg = EditCfg {
        mix: Mix {
            ins_char: 55,
            ins_word: 8,
            backspace: 30,
            del_word: 7,
        },
        burst: 8,
        active_docs: 4,
        zipf_s: 1.1,
        alternate: true,
        jump_every: 16,
    };

    fn lens() -> Vec<usize> {
        vec![400, 300, 200, 100]
    }

    #[test]
    fn same_seed_same_schedule_and_digest() {
        let a = gen_tcp(42, &lens(), 30, 40, CFG);
        let b = gen_tcp(42, &lens(), 30, 40, CFG);
        assert_eq!(a, b);
        assert_eq!(digest_tcp(&a), digest_tcp(&b));
        let c = gen_tcp(43, &lens(), 30, 40, CFG);
        assert_ne!(digest_tcp(&a), digest_tcp(&c));
        let s = gen_services(42, &lens(), 3, 10, 16, CFG);
        assert_eq!(s, gen_services(42, &lens(), 3, 10, 16, CFG));
        assert_ne!(
            digest_services(&s),
            digest_services(&gen_services(43, &lens(), 3, 10, 16, CFG))
        );
    }

    #[test]
    fn kinds_are_stratified_across_seeds() {
        let count = |seed| {
            let rounds = gen_tcp(seed, &lens(), 25, 40, CFG);
            let edits: Vec<&Edit> = rounds.iter().flat_map(|r| &r.edits).collect();
            let typed: u64 = edits.iter().map(|e| e.inserted_bytes()).sum();
            let deleted: u64 = edits.iter().map(|e| e.del as u64).sum();
            let words = edits.iter().filter(|e| e.text.len() > 1).count();
            (typed, deleted, words)
        };
        assert_eq!(count(1).2, 80);
        assert_eq!(count(1).2, count(2).2);
        // Word lengths come from one multiset per kind, so every seed
        // types and deletes exactly as many characters.
        assert_eq!(count(1).0, count(2).0);
        assert_eq!(count(1).1, count(2).1);
    }

    #[test]
    fn every_position_is_valid_for_the_model() {
        let texts: Vec<String> = lens()
            .iter()
            .map(|&l| words_text(&mut Rng::new(l as u64), l))
            .collect();
        let mut model = Model::new(&texts);
        for r in gen_services(9, &lens(), 3, 40, 32, CFG) {
            for e in &r.edits {
                let len = model.len(e.doc as usize);
                assert!(e.pos as usize + e.del as usize <= len);
                model.apply(e);
            }
            let p = &r.paste;
            assert!((p.src_pos + p.len) as usize <= model.len(p.src_doc as usize));
            assert!(p.dst_pos as usize <= model.len(p.dst_doc as usize));
            assert_ne!(p.src_doc, p.dst_doc);
            model.paste(p);
        }
    }

    #[test]
    fn model_applies_inserts_deletes_and_pastes() {
        let mut m = Model::new(&["hello world".to_string(), "abc".to_string()]);
        m.apply(&Edit {
            typist: 0,
            doc: 0,
            pos: 5,
            del: 0,
            text: ",".into(),
        });
        assert_eq!(m.text(0), "hello, world");
        m.apply(&Edit {
            typist: 1,
            doc: 0,
            pos: 0,
            del: 7,
            text: String::new(),
        });
        assert_eq!(m.text(0), "world");
        m.paste(&Paste {
            by: 0,
            src_doc: 0,
            src_pos: 1,
            len: 3,
            dst_doc: 1,
            dst_pos: 1,
        });
        assert_eq!(m.text(1), "aorlbc");
        assert_eq!(m.digest(), digest_texts(&["world".into(), "aorlbc".into()]));
        let before = m.digest();
        m.apply(&Edit {
            typist: 0,
            doc: 1,
            pos: 0,
            del: 1,
            text: String::new(),
        });
        assert_ne!(m.digest(), before);
    }

    #[test]
    fn one_typist_when_not_alternating() {
        let cfg = EditCfg {
            alternate: false,
            active_docs: 1,
            ..CFG
        };
        let rounds = gen_tcp(5, &lens(), 10, 24, cfg);
        assert!(rounds
            .iter()
            .flat_map(|r| &r.edits)
            .all(|e| e.typist == 0 && e.doc == 0));
        let alt = gen_tcp(5, &lens(), 10, 24, CFG);
        let typists: Vec<u8> = alt[0].edits.iter().map(|e| e.typist).collect();
        assert_eq!(&typists[..4], &[0, 1, 0, 1]);
    }
}
