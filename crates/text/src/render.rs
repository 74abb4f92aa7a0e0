//! Rendering: the editor's display path, console edition.
//!
//! The GUI editors of the demo render styled, structured text; this
//! module is the headless equivalent. [`DocHandle::render_markup`]
//! produces a deterministic inline-markup rendering of the visible text
//! with style runs, structure elements, notes and embedded objects —
//! enough to verify the full layout pipeline end to end without a
//! toolkit.

use std::collections::HashMap;

use crate::document::DocHandle;
use crate::error::Result;
use crate::ids::StyleId;

impl DocHandle {
    /// Render the document as inline markup:
    ///
    /// * style runs: `[s:NAME]…[/s]`
    /// * structure elements: `«KIND»…«/KIND»`
    /// * notes: `⟦…⟧{author#N: TEXT}`
    /// * objects: the anchor renders as `[obj:NAME]`
    pub fn render_markup(&self) -> Result<String> {
        let styles: HashMap<StyleId, String> = self
            .textdb()
            .list_styles()?
            .into_iter()
            .map(|(id, name, _)| (id, name))
            .collect();
        let structures = self.structures()?;
        let notes = self.notes()?;
        let objects = self.objects()?;
        let object_at: HashMap<usize, String> = objects
            .iter()
            .filter_map(|o| o.position.map(|p| (p, o.name.clone())))
            .collect();

        // Per-position annotation points.
        let mut open_struct: HashMap<usize, Vec<String>> = HashMap::new();
        let mut close_struct: HashMap<usize, Vec<String>> = HashMap::new();
        for s in &structures {
            if let Some((a, b)) = s.span {
                open_struct.entry(a).or_default().push(s.kind.clone());
                close_struct.entry(b).or_default().push(s.kind.clone());
            }
        }
        let mut open_note: HashMap<usize, usize> = HashMap::new();
        let mut close_note: HashMap<usize, Vec<String>> = HashMap::new();
        for n in &notes {
            if let Some((a, b)) = n.span {
                *open_note.entry(a).or_default() += 1;
                close_note
                    .entry(b)
                    .or_default()
                    .push(format!("{{author#{}: {}}}", n.author.0, n.text));
            }
        }

        let mut out = String::with_capacity(self.len() * 2);
        let mut current_style = StyleId::NONE;
        let mut infos = Vec::with_capacity(self.len());
        self.chain.for_each_visible(|_, info| infos.push(info));
        for (pos, info) in infos.into_iter().enumerate() {
            // Structure openings before the character.
            if let Some(kinds) = open_struct.get(&pos) {
                for k in kinds {
                    out.push_str(&format!("«{k}»"));
                }
            }
            // Note openings.
            if let Some(&n) = open_note.get(&pos) {
                for _ in 0..n {
                    out.push('⟦');
                }
            }
            // Style transitions.
            if info.style != current_style {
                if !current_style.is_none() {
                    out.push_str("[/s]");
                }
                if !info.style.is_none() {
                    let name = styles
                        .get(&info.style)
                        .cloned()
                        .unwrap_or_else(|| format!("style#{}", info.style.0));
                    out.push_str(&format!("[s:{name}]"));
                }
                current_style = info.style;
            }
            // The character (object anchors render as their object).
            if info.ch == '\u{FFFC}' {
                let name = object_at
                    .get(&pos)
                    .cloned()
                    .unwrap_or_else(|| "?".to_owned());
                out.push_str(&format!("[obj:{name}]"));
            } else {
                out.push(info.ch);
            }
            // Note closings after the character.
            if let Some(tags) = close_note.get(&pos) {
                for tag in tags {
                    out.push('⟧');
                    out.push_str(tag);
                }
            }
            // Structure closings.
            if let Some(kinds) = close_struct.get(&pos) {
                for k in kinds.iter().rev() {
                    out.push_str(&format!("«/{k}»"));
                }
            }
        }
        if !current_style.is_none() {
            out.push_str("[/s]");
        }
        Ok(out)
    }

    /// Plain-text export with structure elements as line prefixes
    /// (`# heading1`, `- list_item`, …) — a minimal document exporter.
    pub fn render_outline(&self) -> Result<String> {
        let structures = self.structures()?;
        let text = self.text();
        let chars: Vec<char> = text.chars().collect();
        let mut out = String::new();
        let mut covered = vec![false; chars.len()];
        for s in &structures {
            let Some((a, b)) = s.span else { continue };
            let prefix = match s.kind.as_str() {
                "heading1" => "# ",
                "heading2" => "## ",
                "heading3" => "### ",
                "list_item" => "- ",
                _ => "",
            };
            let segment: String = chars[a..=b.min(chars.len() - 1)].iter().collect();
            out.push_str(prefix);
            out.push_str(segment.trim_end_matches('\n'));
            out.push('\n');
            for c in covered.iter_mut().take(b + 1).skip(a) {
                *c = true;
            }
        }
        // Remaining (unstructured) text as a trailing body block.
        let body: String = chars
            .iter()
            .enumerate()
            .filter(|(i, _)| !covered[*i])
            .map(|(_, c)| *c)
            .collect();
        let body = body.trim();
        if !body.is_empty() {
            out.push_str(body);
            out.push('\n');
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use crate::ids::StyleId;
    use crate::textdb::TextDb;

    fn setup() -> (TextDb, crate::ids::UserId, crate::document::DocHandle) {
        let tdb = TextDb::in_memory();
        let u = tdb.create_user("alice").unwrap();
        let d = tdb.create_document("doc", u).unwrap();
        let h = tdb.open(d, u).unwrap();
        (tdb, u, h)
    }

    #[test]
    fn plain_text_renders_unchanged() {
        let (_tdb, _u, mut h) = setup();
        h.insert_text(0, "plain text").unwrap();
        assert_eq!(h.render_markup().unwrap(), "plain text");
    }

    #[test]
    fn style_runs_are_bracketed() {
        let (tdb, u, mut h) = setup();
        let bold = tdb.define_style("bold", "w=b", u).unwrap();
        h.insert_text(0, "ab cd ef").unwrap();
        h.apply_style(3, 2, bold).unwrap();
        assert_eq!(h.render_markup().unwrap(), "ab [s:bold]cd[/s] ef");
        // Style to the end of the document closes at EOF.
        h.apply_style(6, 2, bold).unwrap();
        assert_eq!(
            h.render_markup().unwrap(),
            "ab [s:bold]cd[/s] [s:bold]ef[/s]"
        );
    }

    #[test]
    fn structure_notes_and_objects_render() {
        let (_tdb, _u, mut h) = setup();
        h.insert_text(0, "Title body").unwrap();
        h.set_structure(0, 5, "heading1").unwrap();
        h.add_note(6, 4, "check").unwrap();
        h.insert_object(10, "image", "pic", vec![1]).unwrap();
        let m = h.render_markup().unwrap();
        assert_eq!(
            m,
            "«heading1»Title«/heading1» ⟦body⟧{author#1: check}[obj:pic]"
        );
    }

    #[test]
    fn unknown_style_renders_with_id() {
        let (_tdb, _u, mut h) = setup();
        h.insert_text(0, "x").unwrap();
        // Apply a style id that has no definition row.
        h.apply_style(0, 1, StyleId(999)).unwrap();
        assert_eq!(h.render_markup().unwrap(), "[s:style#999]x[/s]");
    }

    #[test]
    fn outline_export() {
        let (_tdb, _u, mut h) = setup();
        h.insert_text(0, "Heading\nsome body text\nItem one")
            .unwrap();
        h.set_structure(0, 7, "heading1").unwrap();
        h.set_structure(23, 8, "list_item").unwrap();
        let o = h.render_outline().unwrap();
        assert!(o.contains("# Heading"));
        assert!(o.contains("- Item one"));
        assert!(o.contains("some body text"));
    }
}
