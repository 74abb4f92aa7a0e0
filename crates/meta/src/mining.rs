//! Visual and text mining (Figure 2 of the paper).
//!
//! "The information visualization plug-in provides a graphical overview
//! of all documents … It is possible to navigate the document and meta
//! data dimensions to gain an understanding of the entire document
//! space." Here the document space is a feature matrix over creation-
//! process metadata; a 2-component PCA (power iteration, no external
//! linear algebra) projects it to the plane, k-means groups it, and an
//! ASCII scatter plot stands in for the GUI canvas. Text mining surfaces
//! each document's characteristic terms by tf-idf.

use std::fmt::Write as _;

use tendax_text::{DocId, Result, TextDb};

use crate::json;
use crate::search::{tokenize, InvertedIndex};

/// Metadata dimensions of the document space, in feature-vector order.
pub const FEATURE_NAMES: [&str; 8] = [
    "size",
    "tuples",
    "authors",
    "readers",
    "ops",
    "copied_in",
    "external_in",
    "age",
];

/// One document's raw feature vector.
#[derive(Debug, Clone, PartialEq)]
pub struct DocFeatures {
    pub doc: u64,
    pub name: String,
    pub features: Vec<f64>,
}

/// Collect the feature matrix from the metadata tables.
pub fn collect_features(tdb: &TextDb) -> Result<Vec<DocFeatures>> {
    let now = tdb.now() as f64;
    let mut out = Vec::new();
    for info in tdb.list_documents()? {
        let s = tdb.doc_stats(info.id)?;
        out.push(DocFeatures {
            doc: info.id.0,
            name: info.name,
            features: vec![
                s.size as f64,
                s.tuples as f64,
                s.authors.len() as f64,
                s.readers.len() as f64,
                s.ops as f64,
                s.copied_in as f64,
                s.external_in as f64,
                now - info.created_at as f64,
            ],
        });
    }
    Ok(out)
}

/// Column-wise z-score normalization (constant columns become zero).
pub fn normalize(matrix: &mut [DocFeatures]) {
    if matrix.is_empty() {
        return;
    }
    let dims = matrix[0].features.len();
    let n = matrix.len() as f64;
    for d in 0..dims {
        let mean = matrix.iter().map(|r| r.features[d]).sum::<f64>() / n;
        let var = matrix
            .iter()
            .map(|r| (r.features[d] - mean).powi(2))
            .sum::<f64>()
            / n;
        let sd = var.sqrt();
        for r in matrix.iter_mut() {
            r.features[d] = if sd > 1e-12 {
                (r.features[d] - mean) / sd
            } else {
                0.0
            };
        }
    }
}

/// First two principal components via power iteration with deflation.
/// Returns one `(x, y)` per row. Deterministic (fixed start vector).
pub fn pca_2d(matrix: &[DocFeatures]) -> Vec<(f64, f64)> {
    let n = matrix.len();
    if n == 0 {
        return Vec::new();
    }
    let dims = matrix[0].features.len();
    // Covariance (rows already centered by normalize()).
    let mut cov = vec![vec![0.0f64; dims]; dims];
    for r in matrix {
        for (i, row) in cov.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                *cell += r.features[i] * r.features[j];
            }
        }
    }
    for row in &mut cov {
        for v in row.iter_mut() {
            *v /= n as f64;
        }
    }

    let pc1 = power_iteration(&cov, 0);
    deflate(&mut cov, &pc1);
    let pc2 = power_iteration(&cov, 1);

    matrix
        .iter()
        .map(|r| {
            let x = dot(&r.features, &pc1);
            let y = dot(&r.features, &pc2);
            (x, y)
        })
        .collect()
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn power_iteration(m: &[Vec<f64>], seed: usize) -> Vec<f64> {
    let dims = m.len();
    // Deterministic start: unit vector rotated by the seed.
    let mut v: Vec<f64> = (0..dims)
        .map(|i| {
            if (i + seed).is_multiple_of(2) {
                1.0
            } else {
                0.5
            }
        })
        .collect();
    for _ in 0..200 {
        let mut next = vec![0.0; dims];
        for i in 0..dims {
            next[i] = dot(&m[i], &v);
        }
        let norm = next.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm < 1e-12 {
            return vec![0.0; dims];
        }
        for x in &mut next {
            *x /= norm;
        }
        v = next;
    }
    v
}

fn deflate(m: &mut [Vec<f64>], v: &[f64]) {
    // lambda = v' M v
    let dims = m.len();
    let mut mv = vec![0.0; dims];
    for i in 0..dims {
        mv[i] = dot(&m[i], v);
    }
    let lambda = dot(v, &mv);
    for i in 0..dims {
        for j in 0..dims {
            m[i][j] -= lambda * v[i] * v[j];
        }
    }
}

/// Deterministic k-means over 2-D points. Returns a cluster id per point.
pub fn kmeans(points: &[(f64, f64)], k: usize, iterations: usize) -> Vec<usize> {
    let n = points.len();
    if n == 0 || k == 0 {
        return vec![0; n];
    }
    let k = k.min(n);
    // Deterministic init: evenly spaced points in x-order.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| points[a].0.total_cmp(&points[b].0));
    let mut centers: Vec<(f64, f64)> = (0..k).map(|i| points[order[i * n / k]]).collect();
    let mut assign = vec![0usize; n];
    for _ in 0..iterations.max(1) {
        // Assign.
        for (i, p) in points.iter().enumerate() {
            assign[i] = (0..k)
                .min_by(|&a, &b| dist2(*p, centers[a]).total_cmp(&dist2(*p, centers[b])))
                .expect("k >= 1");
        }
        // Update.
        let mut sums = vec![(0.0, 0.0, 0usize); k];
        for (i, p) in points.iter().enumerate() {
            let s = &mut sums[assign[i]];
            s.0 += p.0;
            s.1 += p.1;
            s.2 += 1;
        }
        for (c, s) in centers.iter_mut().zip(&sums) {
            if s.2 > 0 {
                *c = (s.0 / s.2 as f64, s.1 / s.2 as f64);
            }
        }
    }
    assign
}

fn dist2(a: (f64, f64), b: (f64, f64)) -> f64 {
    (a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)
}

/// One document placed in the visual document space.
#[derive(Debug, Clone, PartialEq)]
pub struct SpacePoint {
    pub doc: u64,
    pub name: String,
    pub x: f64,
    pub y: f64,
    pub cluster: usize,
}

/// The 2-D document-space layout (Figure 2 analogue).
#[derive(Debug, Clone)]
pub struct DocumentSpace {
    pub points: Vec<SpacePoint>,
    pub clusters: usize,
}

impl DocumentSpace {
    /// Build the full pipeline: features → normalize → PCA → k-means.
    pub fn build(tdb: &TextDb, k: usize) -> Result<DocumentSpace> {
        let mut features = collect_features(tdb)?;
        normalize(&mut features);
        let coords = pca_2d(&features);
        let clusters = kmeans(&coords, k, 25);
        let points = features
            .into_iter()
            .zip(coords)
            .zip(&clusters)
            .map(|((f, (x, y)), &cluster)| SpacePoint {
                doc: f.doc,
                name: f.name,
                x,
                y,
                cluster,
            })
            .collect();
        Ok(DocumentSpace {
            points,
            clusters: k,
        })
    }

    /// ASCII scatter plot: each document is drawn as its cluster digit.
    pub fn render_ascii(&self, width: usize, height: usize) -> String {
        let mut out = String::from("Visual Mining — document space\n");
        if self.points.is_empty() {
            out.push_str("(no documents)\n");
            return out;
        }
        let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut min_y, mut max_y) = (f64::INFINITY, f64::NEG_INFINITY);
        for p in &self.points {
            min_x = min_x.min(p.x);
            max_x = max_x.max(p.x);
            min_y = min_y.min(p.y);
            max_y = max_y.max(p.y);
        }
        let spread_x = (max_x - min_x).max(1e-9);
        let spread_y = (max_y - min_y).max(1e-9);
        let mut grid = vec![vec![' '; width]; height];
        // A grid with no cell holds no point: the frame alone is drawn.
        let plotted = if width == 0 || height == 0 {
            &[][..]
        } else {
            &self.points[..]
        };
        for p in plotted {
            let cx = (((p.x - min_x) / spread_x) * (width - 1) as f64).round() as usize;
            let cy = (((p.y - min_y) / spread_y) * (height - 1) as f64).round() as usize;
            let glyph = char::from_digit((p.cluster % 10) as u32, 10).unwrap_or('#');
            grid[height - 1 - cy][cx] = glyph;
        }
        out.push_str(&"-".repeat(width + 2));
        out.push('\n');
        for row in grid {
            out.push('|');
            out.extend(row);
            out.push_str("|\n");
        }
        out.push_str(&"-".repeat(width + 2));
        out.push('\n');
        out
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"points\": [");
        for (i, p) in self.points.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    {{\"doc\":{},\"name\":", p.doc);
            json::write_str(&mut out, &p.name);
            out.push_str(",\"x\":");
            json::write_f64(&mut out, p.x);
            out.push_str(",\"y\":");
            json::write_f64(&mut out, p.y);
            let _ = write!(out, ",\"cluster\":{}}}", p.cluster);
        }
        let _ = write!(out, "\n  ],\n  \"clusters\": {}\n}}", self.clusters);
        out
    }
}

/// Edit-activity timeline: logged operations per time bucket for one
/// document (another "document and meta data dimension" to navigate).
/// Returns `buckets` counts covering `[first_op_ts, last_op_ts]`.
pub fn activity_timeline(tdb: &TextDb, doc: DocId, buckets: usize) -> Result<Vec<usize>> {
    let t = tdb.tables();
    let txn = tdb.database().begin();
    let ts: Vec<i64> = txn
        .index_lookup(t.oplog, "oplog_by_doc_ts", &[doc.value()])?
        .into_iter()
        .filter_map(|(_, row)| row.get(2).and_then(|v| v.as_timestamp()))
        .collect();
    let buckets = buckets.max(1);
    let mut out = vec![0usize; buckets];
    if ts.is_empty() {
        return Ok(out);
    }
    let lo = *ts.iter().min().expect("non-empty");
    let hi = *ts.iter().max().expect("non-empty");
    let span = (hi - lo).max(1) as f64;
    for t in ts {
        let frac = (t - lo) as f64 / span;
        let idx = ((frac * buckets as f64) as usize).min(buckets - 1);
        out[idx] += 1;
    }
    Ok(out)
}

/// Co-authorship graph: pairs of users who both authored characters in
/// at least one common document, with the number of shared documents.
/// Edges are ordered `(smaller id, larger id)` and sorted by weight.
pub fn collaboration_graph(
    tdb: &TextDb,
) -> Result<Vec<(tendax_text::UserId, tendax_text::UserId, usize)>> {
    use std::collections::BTreeMap;
    let mut weights: BTreeMap<(u64, u64), usize> = BTreeMap::new();
    for info in tdb.list_documents()? {
        let authors = tdb.doc_stats(info.id)?.authors;
        for i in 0..authors.len() {
            for j in i + 1..authors.len() {
                let (a, b) = (
                    authors[i].0.min(authors[j].0),
                    authors[i].0.max(authors[j].0),
                );
                *weights.entry((a, b)).or_default() += 1;
            }
        }
    }
    let mut out: Vec<_> = weights
        .into_iter()
        .map(|((a, b), w)| (tendax_text::UserId(a), tendax_text::UserId(b), w))
        .collect();
    out.sort_by(|x, y| y.2.cmp(&x.2).then(x.0.cmp(&y.0)));
    Ok(out)
}

/// Text mining: the `k` most characteristic terms of a document by
/// tf-idf against the whole corpus.
pub fn top_terms(tdb: &TextDb, doc: DocId, k: usize) -> Result<Vec<(String, f64)>> {
    let mut index = InvertedIndex::default();
    let mut target_text = String::new();
    for info in tdb.list_documents()? {
        let text = tdb.document_text(info.id)?;
        if info.id == doc {
            target_text = text.clone();
        }
        index.add_document(info.id, &text);
    }
    let mut terms: Vec<String> = tokenize(&target_text);
    terms.sort();
    terms.dedup();
    let mut scored: Vec<(String, f64)> = terms
        .into_iter()
        .map(|t| {
            let w = index.tf_idf(&t, doc);
            (t, w)
        })
        .collect();
    scored.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    scored.truncate(k);
    Ok(scored)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tendax_text::TextDb;

    fn feat(doc: u64, v: &[f64]) -> DocFeatures {
        DocFeatures {
            doc,
            name: format!("d{doc}"),
            features: v.to_vec(),
        }
    }

    #[test]
    fn normalize_centers_and_scales() {
        let mut m = vec![feat(1, &[1.0, 5.0]), feat(2, &[3.0, 5.0])];
        normalize(&mut m);
        assert!((m[0].features[0] + 1.0).abs() < 1e-9);
        assert!((m[1].features[0] - 1.0).abs() < 1e-9);
        // Constant column collapses to zero.
        assert_eq!(m[0].features[1], 0.0);
        assert_eq!(m[1].features[1], 0.0);
    }

    #[test]
    fn pca_separates_distinct_groups() {
        // Two tight groups far apart along a diagonal.
        let mut m = Vec::new();
        for i in 0..5u64 {
            m.push(feat(i, &[0.0 + i as f64 * 0.01, 0.0]));
        }
        for i in 0..5u64 {
            m.push(feat(100 + i, &[10.0 + i as f64 * 0.01, 10.0]));
        }
        normalize(&mut m);
        let coords = pca_2d(&m);
        // Group means along PC1 must be clearly separated.
        let g1: f64 = coords[..5].iter().map(|c| c.0).sum::<f64>() / 5.0;
        let g2: f64 = coords[5..].iter().map(|c| c.0).sum::<f64>() / 5.0;
        assert!((g1 - g2).abs() > 1.0, "groups not separated: {g1} vs {g2}");
    }

    #[test]
    fn kmeans_clusters_separated_groups() {
        let mut points = Vec::new();
        for i in 0..10 {
            points.push((i as f64 * 0.01, 0.0));
            points.push((100.0 + i as f64 * 0.01, 0.0));
        }
        let assign = kmeans(&points, 2, 20);
        // All members of each spatial group share one label, and the
        // two groups differ.
        let a = assign[0];
        let b = assign[1];
        assert_ne!(a, b);
        for i in (0..20).step_by(2) {
            assert_eq!(assign[i], a);
            assert_eq!(assign[i + 1], b);
        }
    }

    #[test]
    fn kmeans_edge_cases() {
        assert!(kmeans(&[], 3, 5).is_empty());
        assert_eq!(kmeans(&[(1.0, 1.0)], 5, 5), vec![0]);
        assert_eq!(kmeans(&[(1.0, 1.0), (2.0, 2.0)], 0, 5), vec![0, 0]);
    }

    fn corpus() -> TextDb {
        let tdb = TextDb::in_memory();
        let u = tdb.create_user("u").unwrap();
        for i in 0..6 {
            let d = tdb.create_document(&format!("doc{i}"), u).unwrap();
            let mut h = tdb.open(d, u).unwrap();
            if i < 3 {
                h.insert_text(0, "short note").unwrap();
            } else {
                h.insert_text(0, &"long report with much more content ".repeat(5))
                    .unwrap();
            }
        }
        tdb
    }

    #[test]
    fn document_space_builds_and_renders() {
        let tdb = corpus();
        let space = DocumentSpace::build(&tdb, 2).unwrap();
        assert_eq!(space.points.len(), 6);
        let ascii = space.render_ascii(40, 12);
        assert!(ascii.contains("Visual Mining"));
        // At least one cluster digit appears in the plot.
        assert!(ascii.chars().any(|c| c.is_ascii_digit()));
        // Short docs and long docs land in different clusters.
        let c_short = space.points[0].cluster;
        let c_long = space.points[5].cluster;
        assert_ne!(c_short, c_long);
        let json = space.to_json();
        assert!(json.contains("\"points\""));
    }

    #[test]
    fn a_plot_with_no_rows_or_no_columns_is_an_empty_frame() {
        let space = DocumentSpace::build(&corpus(), 2).unwrap();
        let header = "Visual Mining — document space\n";
        assert_eq!(
            space.render_ascii(0, 2),
            format!("{header}--\n||\n||\n--\n")
        );
        assert_eq!(space.render_ascii(3, 0), format!("{header}-----\n-----\n"));
        assert_eq!(space.render_ascii(0, 0), format!("{header}--\n--\n"));
    }

    #[test]
    fn empty_space_renders_placeholder() {
        let tdb = TextDb::in_memory();
        let space = DocumentSpace::build(&tdb, 3).unwrap();
        assert!(space.render_ascii(10, 5).contains("no documents"));
    }

    #[test]
    fn activity_timeline_buckets_ops() {
        let tdb = TextDb::in_memory();
        let u = tdb.create_user("u").unwrap();
        let d = tdb.create_document("doc", u).unwrap();
        let mut h = tdb.open(d, u).unwrap();
        // Early burst, then a late edit.
        for _ in 0..5 {
            h.insert_text(0, "x").unwrap();
        }
        for _ in 0..40 {
            tdb.now(); // advance the logical clock
        }
        h.insert_text(0, "y").unwrap();

        let timeline = activity_timeline(&tdb, d, 4).unwrap();
        assert_eq!(timeline.iter().sum::<usize>(), 6);
        assert_eq!(timeline[3], 1); // the late edit lands in the last bucket
        assert!(timeline[0] >= 4);
        // Empty document: all-zero buckets.
        let empty = tdb.create_document("empty", u).unwrap();
        assert_eq!(activity_timeline(&tdb, empty, 3).unwrap(), vec![0, 0, 0]);
    }

    #[test]
    fn collaboration_graph_counts_shared_documents() {
        let tdb = TextDb::in_memory();
        let a = tdb.create_user("a").unwrap();
        let b = tdb.create_user("b").unwrap();
        let c = tdb.create_user("c").unwrap();
        for i in 0..2 {
            let d = tdb.create_document(&format!("ab{i}"), a).unwrap();
            let mut ha = tdb.open(d, a).unwrap();
            ha.insert_text(0, "from a ").unwrap();
            let mut hb = tdb.open(d, b).unwrap();
            hb.insert_text(0, "from b ").unwrap();
        }
        let d = tdb.create_document("bc", b).unwrap();
        let mut hb = tdb.open(d, b).unwrap();
        hb.insert_text(0, "b ").unwrap();
        let mut hc = tdb.open(d, c).unwrap();
        hc.insert_text(0, "c ").unwrap();

        let graph = collaboration_graph(&tdb).unwrap();
        assert_eq!(graph.len(), 2);
        assert_eq!(graph[0], (a, b, 2)); // strongest edge first
        assert_eq!(graph[1], (b, c, 1));
    }

    #[test]
    fn top_terms_finds_characteristic_words() {
        let tdb = TextDb::in_memory();
        let u = tdb.create_user("u").unwrap();
        let d1 = tdb.create_document("a", u).unwrap();
        let d2 = tdb.create_document("b", u).unwrap();
        let mut h = tdb.open(d1, u).unwrap();
        h.insert_text(0, "zebra zebra zebra common word").unwrap();
        let mut h = tdb.open(d2, u).unwrap();
        h.insert_text(0, "common word everywhere").unwrap();
        let terms = top_terms(&tdb, d1, 2).unwrap();
        assert_eq!(terms[0].0, "zebra");
        assert!(terms[0].1 > terms[1].1);
    }
}
