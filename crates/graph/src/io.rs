//! Binary dataset serialization.
//!
//! The paper loads OGB/KONECT datasets from disk before scattering them to
//! the GPUs; a reproduction that only ever generates graphs in memory
//! would not serve downstream users. This module defines a compact
//! little-endian binary format for a [`SyntheticDataset`] (graph +
//! features + labels + splits) with a magic/version header, so generated
//! stand-ins can be saved once and reloaded by every experiment binary.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic "WGDS"  u32 version  u64 num_nodes  u64 num_edges
//! u32 feature_dim  u32 num_classes  u32 kind_tag  u64 scale
//! offsets: (num_nodes+1) × u64
//! targets: num_edges × u64
//! features: num_nodes·feature_dim × f32
//! labels: num_nodes × u32
//! train/val/test: u64 len + len × u64 each
//! ```

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::csr::Csr;
use crate::datasets::{DatasetKind, SyntheticDataset};
use crate::NodeId;

const MAGIC: &[u8; 4] = b"WGDS";
const VERSION: u32 = 1;

fn kind_tag(kind: DatasetKind) -> u32 {
    match kind {
        DatasetKind::OgbnProducts => 0,
        DatasetKind::OgbnPapers100M => 1,
        DatasetKind::Friendster => 2,
        DatasetKind::UkDomain => 3,
    }
}

fn kind_from_tag(tag: u32) -> io::Result<DatasetKind> {
    Ok(match tag {
        0 => DatasetKind::OgbnProducts,
        1 => DatasetKind::OgbnPapers100M,
        2 => DatasetKind::Friendster,
        3 => DatasetKind::UkDomain,
        _ => return Err(bad(format!("unknown dataset kind tag {tag}"))),
    })
}

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn write_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn write_u64_slice(w: &mut impl Write, s: &[u64]) -> io::Result<()> {
    for &v in s {
        write_u64(w, v)?;
    }
    Ok(())
}

/// Bytes of the fixed header, magic through `scale`.
const HEADER_BYTES: u64 = 44;

/// Take `count` items of `item_bytes` each from the `left` bytes the file
/// still holds, before anything sized by `count` is allocated: a corrupt
/// header then fails naming `field` instead of aborting on the
/// allocation.
fn take_bytes(left: &mut u64, field: &str, count: u64, item_bytes: u64) -> io::Result<usize> {
    let exceeds = || bad(format!("{field} count {count} exceeds the file"));
    let need = count.checked_mul(item_bytes).filter(|&n| n <= *left);
    *left -= need.ok_or_else(exceeds)?;
    usize::try_from(count).map_err(|_| exceeds())
}

fn read_u64_vec(r: &mut impl Read, n: usize) -> io::Result<Vec<u64>> {
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(read_u64(r)?);
    }
    Ok(out)
}

/// Save a dataset to `path`.
pub fn save_dataset(dataset: &SyntheticDataset, path: impl AsRef<Path>) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(MAGIC)?;
    write_u32(&mut w, VERSION)?;
    write_u64(&mut w, dataset.num_nodes() as u64)?;
    write_u64(&mut w, dataset.num_edges() as u64)?;
    write_u32(&mut w, dataset.feature_dim as u32)?;
    write_u32(&mut w, dataset.num_classes as u32)?;
    write_u32(&mut w, kind_tag(dataset.kind))?;
    write_u64(&mut w, dataset.scale)?;
    write_u64_slice(&mut w, dataset.graph.offsets())?;
    write_u64_slice(&mut w, dataset.graph.targets())?;
    for &f in &dataset.features {
        w.write_all(&f.to_le_bytes())?;
    }
    for &l in &dataset.labels {
        write_u32(&mut w, l)?;
    }
    for split in [&dataset.train, &dataset.val, &dataset.test] {
        write_u64(&mut w, split.len() as u64)?;
        write_u64_slice(&mut w, split)?;
    }
    w.flush()
}

/// Load a dataset from `path`, validating the header and structural
/// invariants.
pub fn load_dataset(path: impl AsRef<Path>) -> io::Result<SyntheticDataset> {
    let file = File::open(path)?;
    let mut left = file.metadata()?.len().saturating_sub(HEADER_BYTES);
    let mut r = BufReader::new(file);
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(bad("not a WGDS dataset file".into()));
    }
    let version = read_u32(&mut r)?;
    if version != VERSION {
        return Err(bad(format!("unsupported WGDS version {version}")));
    }
    let nodes = read_u64(&mut r)?;
    let edges = read_u64(&mut r)?;
    let feature_dim = read_u32(&mut r)? as usize;
    let num_classes = read_u32(&mut r)? as usize;
    let kind = kind_from_tag(read_u32(&mut r)?)?;
    let scale = read_u64(&mut r)?;
    // Labels, then offsets: `nodes` is bounded before `nodes + 1` is formed.
    let num_nodes = take_bytes(&mut left, "num_nodes", nodes, 4)?;
    take_bytes(&mut left, "num_nodes", nodes + 1, 8)?;
    let num_edges = take_bytes(&mut left, "num_edges", edges, 8)?;
    // Saturated, a product past u64 fails the byte check.
    let values = nodes.saturating_mul(feature_dim as u64);
    let feature_values = take_bytes(&mut left, "num_nodes * feature_dim", values, 4)?;

    let offsets = read_u64_vec(&mut r, num_nodes + 1)?;
    if offsets.first() != Some(&0) || offsets.last() != Some(&(num_edges as u64)) {
        return Err(bad("corrupt offsets".into()));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(bad("offsets not monotone".into()));
    }
    let targets = read_u64_vec(&mut r, num_edges)?;
    if targets.iter().any(|&t| t as usize >= num_nodes) {
        return Err(bad("edge target out of range".into()));
    }

    let mut features = Vec::with_capacity(feature_values);
    let mut fb = [0u8; 4];
    for _ in 0..feature_values {
        r.read_exact(&mut fb)?;
        features.push(f32::from_le_bytes(fb));
    }
    let mut labels = Vec::with_capacity(num_nodes);
    for _ in 0..num_nodes {
        let l = read_u32(&mut r)?;
        if l as usize >= num_classes {
            return Err(bad(format!("label {l} out of range")));
        }
        labels.push(l);
    }
    // A mini-batch's seeds are one split's nodes, each at most once, and
    // training needs at least one: refuse what the pipeline cannot run.
    let mut splits: Vec<Vec<NodeId>> = Vec::with_capacity(3);
    let mut seen = vec![false; num_nodes];
    for name in ["train", "val", "test"] {
        take_bytes(&mut left, "split length", 1, 8)?;
        let len = take_bytes(&mut left, "split", read_u64(&mut r)?, 8)?;
        let s = read_u64_vec(&mut r, len)?;
        if name == "train" && s.is_empty() {
            return Err(bad("train split is empty".into()));
        }
        seen.fill(false);
        for &v in &s {
            let slot = seen
                .get_mut(v as usize)
                .ok_or_else(|| bad(format!("{name} split node {v} out of range")))?;
            if std::mem::replace(slot, true) {
                return Err(bad(format!("{name} split repeats node {v}")));
            }
        }
        splits.push(s);
    }
    let test = splits.pop().unwrap();
    let val = splits.pop().unwrap();
    let train = splits.pop().unwrap();

    Ok(SyntheticDataset {
        kind,
        scale,
        graph: Csr::from_parts(offsets, targets),
        features,
        feature_dim,
        labels,
        num_classes,
        train,
        val,
        test,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("wgds-test-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let d = SyntheticDataset::generate(DatasetKind::OgbnProducts, 3000, 77);
        let path = tmp("roundtrip");
        save_dataset(&d, &path).unwrap();
        let back = load_dataset(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back.kind, d.kind);
        assert_eq!(back.scale, d.scale);
        assert_eq!(back.graph, d.graph);
        assert_eq!(back.features, d.features);
        assert_eq!(back.labels, d.labels);
        assert_eq!(back.train, d.train);
        assert_eq!(back.val, d.val);
        assert_eq!(back.test, d.test);
        assert_eq!(back.num_classes, d.num_classes);
    }

    #[test]
    fn rejects_garbage() {
        let path = tmp("garbage");
        std::fs::write(&path, b"definitely not a dataset").unwrap();
        let err = load_dataset(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(err.to_string().contains("not a WGDS"));
    }

    #[test]
    fn rejects_truncation() {
        let d = SyntheticDataset::generate(DatasetKind::Friendster, 50_000, 1);
        let path = tmp("trunc");
        save_dataset(&d, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(load_dataset(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_header_counts_the_file_cannot_hold() {
        let d = SyntheticDataset::generate(DatasetKind::OgbnProducts, 3000, 5);
        let path = tmp("counts");
        save_dataset(&d, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // (byte offset of the field, value, field the error must name)
        let splits_at = bytes.len() - 8 * (d.train.len() + d.val.len() + d.test.len() + 3);
        for (at, value, field) in [
            (8, 1u64 << 40, "num_nodes"),
            (16, 1u64 << 40, "num_edges"),
            (splits_at, 1u64 << 40, "split"),
            (splits_at, u64::MAX, "split"),
        ] {
            let mut b = bytes.clone();
            b[at..at + 8].copy_from_slice(&value.to_le_bytes());
            std::fs::write(&path, &b).unwrap();
            let err = load_dataset(&path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{field}: {err}");
            assert!(err.to_string().contains(field), "{field}: {err}");
        }
        // A 44-byte header alone, claiming 2^40 nodes.
        let mut b = bytes[..HEADER_BYTES as usize].to_vec();
        b[8..16].copy_from_slice(&(1u64 << 40).to_le_bytes());
        std::fs::write(&path, &b).unwrap();
        let err = load_dataset(&path).unwrap_err();
        assert!(err.to_string().contains("num_nodes"), "{err}");
        // A feature width the file cannot hold.
        let mut b = bytes.clone();
        b[24..28].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, &b).unwrap();
        let err = load_dataset(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(err.to_string().contains("feature_dim"), "{err}");
    }

    /// `d` saved with its splits replaced, then loaded.
    fn load_with_splits(name: &str, train: &[NodeId], val: &[NodeId]) -> io::Result<()> {
        let mut d = SyntheticDataset::generate(DatasetKind::OgbnProducts, 1000, 3);
        d.train = train.to_vec();
        d.val = val.to_vec();
        let path = tmp(name);
        save_dataset(&d, &path).unwrap();
        let loaded = load_dataset(&path).map(|_| ());
        std::fs::remove_file(&path).ok();
        loaded
    }

    #[test]
    fn rejects_an_empty_train_split() {
        let err = load_with_splits("empty-train", &[], &[1, 2]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("train split is empty"), "{err}");
    }

    #[test]
    fn rejects_a_split_that_repeats_a_node() {
        let err = load_with_splits("repeat-train", &[13, 13], &[1]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(
            err.to_string().contains("train split repeats node 13"),
            "{err}"
        );
        let err = load_with_splits("repeat-val", &[13], &[4, 5, 4]).unwrap_err();
        assert!(
            err.to_string().contains("val split repeats node 4"),
            "{err}"
        );
        // A node in two splits is not a repeat.
        load_with_splits("shared", &[13], &[13]).unwrap();
    }

    #[test]
    fn rejects_wrong_version() {
        let d = SyntheticDataset::generate(DatasetKind::UkDomain, 50_000, 2);
        let path = tmp("version");
        save_dataset(&d, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4] = 99; // bump version field
        std::fs::write(&path, &bytes).unwrap();
        let err = load_dataset(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(err.to_string().contains("version"));
    }
}
