//! Data lineage: document content provenance (Figure 1 of the paper).
//!
//! "Meta data about all editing and all copy-paste actions is stored with
//! the document … We use this meta data to visualize data lineage."
//! The graph is built from the paste-edge totals the commit stream keeps
//! over the `paste_events` table (document-level provenance,
//! [`TextDb::paste_edges`]) and the per-character `src_doc`/`src_char`
//! references (character-level provenance chains).

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::Write as _;

use tendax_text::{CharId, DocId, PasteSource, Result, TextDb, UserId};

use crate::json;

/// A lineage node: a TeNDaX document or an external source.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum LineageNode {
    Document { doc: u64, name: String },
    External { source: String },
}

impl LineageNode {
    pub fn label(&self) -> String {
        match self {
            LineageNode::Document { name, .. } => name.clone(),
            LineageNode::External { source } => format!("<{source}>"),
        }
    }
}

/// An aggregated copy-paste edge between two nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineageEdge {
    pub from: LineageNode,
    pub to: LineageNode,
    /// Total characters transferred over all paste events.
    pub chars: usize,
    /// Number of paste events.
    pub events: usize,
}

/// The document provenance graph.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LineageGraph {
    pub nodes: Vec<LineageNode>,
    pub edges: Vec<LineageEdge>,
}

impl LineageGraph {
    /// Build the full graph: the document list, and the paste-edge
    /// totals the commit stream keeps ([`TextDb::paste_edges`]).
    pub fn build(tdb: &TextDb) -> Result<LineageGraph> {
        let mut names: BTreeMap<DocId, String> = (tdb.list_documents()?.into_iter())
            .map(|info| (info.id, info.name))
            .collect();
        let mut externals: BTreeSet<String> = BTreeSet::new();
        // A document the list predates (or a source that is gone) is
        // looked up on its own, and joins the nodes.
        let mut node = |d: DocId| LineageNode::Document {
            doc: d.0,
            name: (names.entry(d))
                .or_insert_with(|| {
                    (tdb.document_info(d).map(|i| i.name))
                        .unwrap_or_else(|_| format!("doc#{}", d.0))
                })
                .clone(),
        };
        // In source-then-target order, which is the order of the
        // `(from, to)` nodes: documents by id, then external sources.
        let edges = (tdb.paste_edges()?.into_iter())
            .map(|e| {
                let from = match e.source {
                    PasteSource::Document(src) => node(src),
                    PasteSource::External(source) => {
                        if !externals.contains(&source) {
                            externals.insert(source.clone());
                        }
                        LineageNode::External { source }
                    }
                };
                LineageEdge {
                    from,
                    to: node(e.target),
                    chars: e.chars,
                    events: e.events,
                }
            })
            .collect();
        let nodes = (names.into_iter())
            .map(|(doc, name)| LineageNode::Document { doc: doc.0, name })
            .chain(
                externals
                    .into_iter()
                    .map(|source| LineageNode::External { source }),
            )
            .collect();
        Ok(LineageGraph { nodes, edges })
    }

    /// Documents (and sources) that `doc` transitively drew content from.
    pub fn ancestors(&self, doc: DocId) -> Vec<LineageNode> {
        self.reach(doc, false)
    }

    /// Documents that transitively drew content from `doc`.
    pub fn descendants(&self, doc: DocId) -> Vec<LineageNode> {
        self.reach(doc, true)
    }

    fn reach(&self, doc: DocId, forward: bool) -> Vec<LineageNode> {
        let start = LineageNode::Document {
            doc: doc.0,
            name: self
                .nodes
                .iter()
                .find_map(|n| match n {
                    LineageNode::Document { doc: d, name } if *d == doc.0 => Some(name.clone()),
                    _ => None,
                })
                .unwrap_or_else(|| format!("doc#{}", doc.0)),
        };
        let mut seen = BTreeSet::new();
        let mut queue = VecDeque::from([start.clone()]);
        while let Some(cur) = queue.pop_front() {
            for e in &self.edges {
                let (src, dst) = (&e.from, &e.to);
                let (here, next) = if forward { (src, dst) } else { (dst, src) };
                if *here == cur && !seen.contains(next) && *next != start {
                    seen.insert(next.clone());
                    queue.push_back(next.clone());
                }
            }
        }
        seen.into_iter().collect()
    }

    /// Deterministic ASCII rendering (the Figure 1 analogue).
    pub fn render_ascii(&self) -> String {
        let mut out = String::from("Data Lineage\n============\n");
        if self.edges.is_empty() {
            out.push_str("(no copy-paste provenance recorded)\n");
            return out;
        }
        let mut by_target: BTreeMap<String, Vec<&LineageEdge>> = BTreeMap::new();
        for e in &self.edges {
            by_target.entry(e.to.label()).or_default().push(e);
        }
        for (target, edges) in by_target {
            out.push_str(&format!("[{target}]\n"));
            for e in edges {
                out.push_str(&format!(
                    "  <-- {} chars in {} paste(s) from [{}]\n",
                    e.chars,
                    e.events,
                    e.from.label()
                ));
            }
        }
        out
    }

    /// Layered ASCII DAG: sources on the top layer, each document below
    /// the deepest of its sources (the Figure 1 screenshot's layout,
    /// roughly). Cycles (mutual pasting) are cut at the back edge.
    pub fn render_layered(&self) -> String {
        use std::collections::BTreeMap;
        // Longest-path layering with cycle cutting.
        let mut layer: BTreeMap<String, usize> = BTreeMap::new();
        fn depth(
            node: &str,
            edges: &[LineageEdge],
            layer: &mut BTreeMap<String, usize>,
            visiting: &mut Vec<String>,
        ) -> usize {
            if let Some(&d) = layer.get(node) {
                return d;
            }
            if visiting.iter().any(|v| v == node) {
                return 0; // back edge: cut the cycle
            }
            visiting.push(node.to_owned());
            let d = edges
                .iter()
                .filter(|e| e.to.label() == node)
                .map(|e| depth(&e.from.label(), edges, layer, visiting) + 1)
                .max()
                .unwrap_or(0);
            visiting.pop();
            layer.insert(node.to_owned(), d);
            d
        }
        for n in &self.nodes {
            let label = n.label();
            let mut visiting = Vec::new();
            depth(&label, &self.edges, &mut layer, &mut visiting);
        }
        let mut by_layer: BTreeMap<usize, Vec<String>> = BTreeMap::new();
        for (node, d) in &layer {
            by_layer.entry(*d).or_default().push(node.clone());
        }
        let mut out = String::from("Data Lineage (layered)\n======================\n");
        for (d, mut nodes) in by_layer {
            nodes.sort();
            out.push_str(&format!("layer {d}: {}\n", nodes.join("  ")));
            for node in &nodes {
                for e in self.edges.iter().filter(|e| &e.to.label() == node) {
                    out.push_str(&format!(
                        "         {} --{}--> {}\n",
                        e.from.label(),
                        e.chars,
                        node
                    ));
                }
            }
        }
        out
    }

    /// Graphviz DOT output.
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph lineage {\n  rankdir=LR;\n");
        for n in &self.nodes {
            let shape = match n {
                LineageNode::Document { .. } => "box",
                LineageNode::External { .. } => "ellipse",
            };
            out.push_str(&format!("  \"{}\" [shape={shape}];\n", n.label()));
        }
        for e in &self.edges {
            out.push_str(&format!(
                "  \"{}\" -> \"{}\" [label=\"{} chars\"];\n",
                e.from.label(),
                e.to.label(),
                e.chars
            ));
        }
        out.push_str("}\n");
        out
    }

    /// JSON export (bench harness artifact).
    pub fn to_json(&self) -> String {
        fn node(out: &mut String, n: &LineageNode) {
            match n {
                LineageNode::Document { doc, name } => {
                    out.push_str("{\"Document\":{\"doc\":");
                    out.push_str(&doc.to_string());
                    out.push_str(",\"name\":");
                    json::write_str(out, name);
                    out.push_str("}}");
                }
                LineageNode::External { source } => {
                    out.push_str("{\"External\":{\"source\":");
                    json::write_str(out, source);
                    out.push_str("}}");
                }
            }
        }
        let mut out = String::from("{\n  \"nodes\": [");
        for (i, n) in self.nodes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            node(&mut out, n);
        }
        out.push_str("\n  ],\n  \"edges\": [");
        for (i, e) in self.edges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"from\":");
            node(&mut out, &e.from);
            out.push_str(",\"to\":");
            node(&mut out, &e.to);
            let _ = write!(out, ",\"chars\":{},\"events\":{}}}", e.chars, e.events);
        }
        out.push_str("\n  ]\n}");
        out
    }
}

/// One hop in a character's provenance chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProvenanceHop {
    pub doc: DocId,
    pub doc_name: String,
    pub char: CharId,
    pub author: UserId,
    pub created_at: i64,
    /// External origin, if this is where the chain leaves TeNDaX.
    pub external: Option<String>,
}

/// Follow one character's copy-paste chain back to its origin.
///
/// Returns the hops from the character itself (first) back to the
/// original keystroke or external source (last).
pub fn char_provenance(tdb: &TextDb, doc: DocId, char_id: CharId) -> Result<Vec<ProvenanceHop>> {
    let t = tdb.tables();
    let txn = tdb.database().begin();
    let mut hops = Vec::new();
    let mut cur_doc = doc;
    let mut cur_char = char_id;
    while let Some(row) = txn.get(t.chars, cur_char.row())? {
        let [author, created_at, src_doc, src_char, external] = row.cols([3, 4, 10, 11, 12]);
        let author = UserId::from_value(author);
        let created_at = created_at.as_timestamp().unwrap_or(0);
        let src_doc = DocId::from_value(src_doc);
        let src_char = CharId::from_value(src_char);
        let external = external.as_text().map(str::to_owned);
        let name = tdb
            .document_info(cur_doc)
            .map(|i| i.name)
            .unwrap_or_else(|_| format!("doc#{}", cur_doc.0));
        let is_external = external.is_some();
        hops.push(ProvenanceHop {
            doc: cur_doc,
            doc_name: name,
            char: cur_char,
            author,
            created_at,
            external,
        });
        if is_external || src_doc.is_none() || src_char.is_none() {
            break;
        }
        cur_doc = src_doc;
        cur_char = src_char;
        if hops.len() > 64 {
            break; // defensive bound against cyclic provenance
        }
    }
    Ok(hops)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> (TextDb, UserId, DocId, DocId, DocId) {
        let tdb = TextDb::in_memory();
        let u = tdb.create_user("alice").unwrap();
        let a = tdb.create_document("origin", u).unwrap();
        let b = tdb.create_document("middle", u).unwrap();
        let c = tdb.create_document("final", u).unwrap();
        let mut ha = tdb.open(a, u).unwrap();
        ha.insert_text(0, "original words").unwrap();
        let clip = ha.copy(0, 8).unwrap();
        let mut hb = tdb.open(b, u).unwrap();
        hb.paste(0, &clip).unwrap();
        hb.paste_external(8, " web", "https://example.org").unwrap();
        let clip2 = hb.copy(0, 4).unwrap();
        let mut hc = tdb.open(c, u).unwrap();
        hc.paste(0, &clip2).unwrap();
        (tdb, u, a, b, c)
    }

    #[test]
    fn graph_aggregates_paste_events() {
        let (tdb, _u, a, b, c) = corpus();
        let g = LineageGraph::build(&tdb).unwrap();
        // origin->middle, external->middle, middle->final
        assert_eq!(g.edges.len(), 3);
        let oe = g.edges.iter().find(|e| e.from.label() == "origin").unwrap();
        assert_eq!(oe.chars, 8);
        assert_eq!(oe.events, 1);
        assert!(g.edges.iter().any(
            |e| matches!(&e.from, LineageNode::External { source } if source.contains("example"))
        ));
        let _ = (a, b, c);
    }

    #[test]
    fn ancestors_and_descendants_are_transitive() {
        let (tdb, _u, a, b, c) = corpus();
        let g = LineageGraph::build(&tdb).unwrap();
        let anc = g.ancestors(c);
        let labels: Vec<String> = anc.iter().map(|n| n.label()).collect();
        assert!(labels.contains(&"middle".to_string()));
        assert!(labels.contains(&"origin".to_string()));
        assert!(labels.iter().any(|l| l.contains("example")));

        let desc = g.descendants(a);
        let labels: Vec<String> = desc.iter().map(|n| n.label()).collect();
        assert!(labels.contains(&"middle".to_string()));
        assert!(labels.contains(&"final".to_string()));
        assert!(g.descendants(c).is_empty());
        let _ = b;
    }

    #[test]
    fn renderings_are_deterministic_and_complete() {
        let (tdb, ..) = corpus();
        let g = LineageGraph::build(&tdb).unwrap();
        let ascii = g.render_ascii();
        assert!(ascii.contains("Data Lineage"));
        assert!(ascii.contains("[middle]"));
        assert!(ascii.contains("8 chars"));
        let dot = g.to_dot();
        assert!(dot.starts_with("digraph lineage"));
        assert!(dot.contains("\"origin\" -> \"middle\""));
        let json = g.to_json();
        assert!(json.contains("\"edges\""));
        // Determinism.
        assert_eq!(ascii, LineageGraph::build(&tdb).unwrap().render_ascii());
    }

    #[test]
    fn layered_rendering_orders_by_provenance_depth() {
        let (tdb, ..) = corpus();
        let g = LineageGraph::build(&tdb).unwrap();
        let layered = g.render_layered();
        // origin has no sources: layer 0; middle draws from origin:
        // layer 1; final draws from middle: layer 2.
        let l0 = layered.find("layer 0").unwrap();
        let l1 = layered.find("layer 1").unwrap();
        let l2 = layered.find("layer 2").unwrap();
        let origin = layered.find("origin").unwrap();
        let middle_line = layered
            .lines()
            .find(|l| l.starts_with("layer") && l.contains("middle"))
            .unwrap();
        let final_line = layered
            .lines()
            .find(|l| l.starts_with("layer") && l.contains("final"))
            .unwrap();
        assert!(l0 < l1 && l1 < l2);
        assert!(origin > l0 && origin < l1);
        assert!(middle_line.starts_with("layer 1"));
        assert!(final_line.starts_with("layer 2"));
    }

    #[test]
    fn layered_rendering_survives_paste_cycles() {
        let tdb = TextDb::in_memory();
        let u = tdb.create_user("u").unwrap();
        let a = tdb.create_document("a", u).unwrap();
        let b = tdb.create_document("b", u).unwrap();
        let mut ha = tdb.open(a, u).unwrap();
        ha.insert_text(0, "alpha text").unwrap();
        let mut hb = tdb.open(b, u).unwrap();
        hb.insert_text(0, "beta text").unwrap();
        // Mutual pasting: a -> b and b -> a.
        let ca = ha.copy(0, 5).unwrap();
        hb.paste(0, &ca).unwrap();
        let cb = hb.copy(5, 4).unwrap();
        ha.paste(0, &cb).unwrap();
        let g = LineageGraph::build(&tdb).unwrap();
        // Must terminate and include both documents.
        let layered = g.render_layered();
        assert!(layered.contains("a"));
        assert!(layered.contains("b"));
    }

    #[test]
    fn empty_graph_renders_placeholder() {
        let tdb = TextDb::in_memory();
        let g = LineageGraph::build(&tdb).unwrap();
        assert!(g.render_ascii().contains("no copy-paste provenance"));
    }

    #[test]
    fn char_provenance_follows_the_chain() {
        let (tdb, u, a, _b, c) = corpus();
        // First char of "final" came from middle, which came from origin.
        let hc = tdb.open(c, u).unwrap();
        let id = hc.char_at(0).unwrap();
        let hops = char_provenance(&tdb, c, id).unwrap();
        assert_eq!(hops.len(), 3);
        assert_eq!(hops[0].doc_name, "final");
        assert_eq!(hops[1].doc_name, "middle");
        assert_eq!(hops[2].doc_name, "origin");
        assert_eq!(hops[2].doc, a);
        assert!(hops[2].external.is_none());
    }

    #[test]
    fn char_provenance_stops_at_external() {
        let (tdb, u, _a, b, _c) = corpus();
        let hb = tdb.open(b, u).unwrap();
        // Position 8 starts " web" (external paste).
        let id = hb.char_at(8).unwrap();
        let hops = char_provenance(&tdb, b, id).unwrap();
        assert_eq!(hops.len(), 1);
        assert_eq!(hops[0].external.as_deref(), Some("https://example.org"));
    }
}
