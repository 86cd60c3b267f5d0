//! The CLI operations: encode/decode/repair/inspect over files on disk.
//!
//! Layout on disk: encoding `FILE` into `DIR` produces
//! `DIR/object.manifest` plus one `DIR/block_<i>.bin` per block, each
//! holding that block's bytes for every coding group, concatenated in
//! group order (so a block file is what one storage server would hold).
//!
//! Every operation is streaming: the object flows through the
//! [`galloper_erasure::stream`] drivers one coding group at a time, so
//! peak memory is a handful of group-sized buffers regardless of the
//! object's size. One group is in flight at a time; its encode fans its
//! rows across threads internally.
//!
//! Encode runs the zero-copy pipeline: source bytes enter the encoder
//! straight from a file mapping ([`crate::ingest::Mmap`]) when the input
//! is a regular, non-empty file the kernel agrees to map, and from one
//! recycled page-aligned read buffer otherwise (pipes, procfs, targets
//! without `mmap`); each encoded group leaves through **one write per
//! block file** ([`BlockFileSink`]). The stages feed the `pipeline.*`
//! metrics:
//!
//! | metric | kind | meaning |
//! |---|---|---|
//! | `pipeline.bytes_in` | counter | source bytes entering encode |
//! | `pipeline.bytes_out` | counter | encoded bytes written to block files |
//! | `pipeline.read_us` | histogram | per-message source read latency (unmapped inputs only) |
//! | `pipeline.write_us` | histogram | per-group block-file write latency |

use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use galloper_codes::BuildError;
use galloper_erasure::stream::{AlignedBuf, GroupSink, StreamError, StripeDecoder, StripeEncoder};
use galloper_erasure::{ErasureCode, LinearCode, ObjectManifest, RebuildPlan, RepairPlan};
use galloper_obs::{counter, global};

use crate::ingest::Mmap;
use crate::{build_code, CodeSpec, Manifest, ManifestError};

use core::fmt;

/// Errors surfaced by the CLI operations.
#[derive(Debug)]
#[non_exhaustive]
pub enum CliError {
    /// The manifest's code spec could not be built.
    Spec(BuildError),
    /// Manifest parse failure.
    Manifest(ManifestError),
    /// Coding failure (undecodable, wrong sizes, …).
    Code(galloper_erasure::CodeError),
    /// Filesystem failure.
    Io(std::io::Error),
    /// A block file has the wrong size for the manifest.
    CorruptBlock {
        /// Block index.
        block: usize,
        /// Bytes found on disk.
        got: usize,
        /// Bytes expected.
        expected: usize,
    },
    /// The requested repair needs source blocks that are missing on disk.
    MissingSources(Vec<usize>),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Spec(e) => write!(f, "invalid code spec: {e}"),
            CliError::Manifest(e) => write!(f, "manifest error: {e}"),
            CliError::Code(e) => write!(f, "coding error: {e}"),
            CliError::Io(e) => write!(f, "i/o error: {e}"),
            CliError::CorruptBlock {
                block,
                got,
                expected,
            } => {
                write!(f, "block {block} has {got} bytes, expected {expected}")
            }
            CliError::MissingSources(s) => write!(f, "repair sources missing on disk: {s:?}"),
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CliError::Spec(e) => Some(e),
            CliError::Manifest(e) => Some(e),
            CliError::Code(e) => Some(e),
            CliError::Io(e) => Some(e),
            CliError::CorruptBlock { .. } | CliError::MissingSources(_) => None,
        }
    }
}

impl From<BuildError> for CliError {
    fn from(e: BuildError) -> Self {
        CliError::Spec(e)
    }
}

impl From<ManifestError> for CliError {
    fn from(e: ManifestError) -> Self {
        CliError::Manifest(e)
    }
}

impl From<galloper_erasure::CodeError> for CliError {
    fn from(e: galloper_erasure::CodeError) -> Self {
        CliError::Code(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<StreamError<std::io::Error>> for CliError {
    fn from(e: StreamError<std::io::Error>) -> Self {
        match e {
            StreamError::Code(e) => CliError::Code(e),
            StreamError::Sink(e) => CliError::Io(e),
            other => CliError::Io(std::io::Error::other(other.to_string())),
        }
    }
}

impl From<StreamError> for CliError {
    fn from(e: StreamError) -> Self {
        match e {
            StreamError::Code(e) => CliError::Code(e),
            other => CliError::Io(std::io::Error::other(other.to_string())),
        }
    }
}

fn block_path(dir: &Path, block: usize) -> PathBuf {
    dir.join(format!("block_{block}.bin"))
}

fn manifest_path(dir: &Path) -> PathBuf {
    dir.join("object.manifest")
}

/// The manifest of the encoded directory `dir` and the code it records,
/// refused unless its `num_groups` is the count its `object_len` fills —
/// otherwise a decode would write coding padding as object bytes.
fn open_dir(dir: &Path) -> Result<(Manifest, LinearCode), CliError> {
    let manifest = Manifest::from_text(&fs::read_to_string(manifest_path(dir))?)?;
    let code = build_code(&manifest.spec)?;
    let expected = manifest.object_len.div_ceil(code.message_len()).max(1);
    if manifest.num_groups != expected {
        return Err(ManifestError::GroupCount {
            num_groups: manifest.num_groups,
            expected,
        }
        .into());
    }
    Ok((manifest, code))
}

/// A [`GroupSink`] appending each block's bytes to its own file — one
/// unbuffered `write` per block file per group. Feeds
/// `pipeline.bytes_out` / `pipeline.write_us`.
#[derive(Debug)]
pub struct BlockFileSink {
    files: Vec<fs::File>,
}

impl BlockFileSink {
    /// A sink appending to `files` (one per block, in block order).
    pub fn new(files: Vec<fs::File>) -> BlockFileSink {
        BlockFileSink { files }
    }

    /// A sink creating `block_<i>.bin` files in `dir` for an `n`-block
    /// code.
    ///
    /// # Errors
    ///
    /// Any file-creation failure.
    pub fn create(dir: &Path, n: usize) -> io::Result<BlockFileSink> {
        let mut files = Vec::with_capacity(n);
        for b in 0..n {
            files.push(fs::File::create(block_path(dir, b))?);
        }
        Ok(BlockFileSink::new(files))
    }
}

impl GroupSink for BlockFileSink {
    type Error = io::Error;

    fn group(&mut self, _group: usize, blocks: &[AlignedBuf]) -> Result<(), io::Error> {
        let t0 = Instant::now();
        let mut bytes = 0u64;
        for (file, block) in self.files.iter_mut().zip(blocks) {
            file.write_all(block)?;
            bytes += block.len() as u64;
        }
        counter!("pipeline.bytes_out", bytes);
        global()
            .histogram("pipeline.write_us")
            .record(t0.elapsed().as_micros() as u64);
        Ok(())
    }
}

/// Encodes `input` into `out_dir` with the given code, writing one block
/// file per block and a manifest. Returns the manifest.
///
/// The input streams through a [`StripeEncoder`] one coding group at a
/// time. A regular, non-empty file the kernel agrees to map is encoded
/// directly out of the mapping ([`StripeEncoder::push_messages`] — zero
/// staging copies). Anything else — a pipe, a procfs file (which reports
/// length 0), a file that refuses to map, any file on a target without
/// `mmap` — is read to EOF through one recycled page-aligned buffer.
/// Both arms write identical bytes, and peak memory is a few coding
/// groups regardless of input size.
///
/// # Errors
///
/// [`CliError`] on invalid spec, I/O failure, or coding failure.
pub fn encode_file(input: &Path, out_dir: &Path, spec: &CodeSpec) -> Result<Manifest, CliError> {
    let code = build_code(spec)?;
    fs::create_dir_all(out_dir)?;
    let sink = BlockFileSink::create(out_dir, code.num_blocks())?;
    let mut encoder = StripeEncoder::new(&code, sink);
    let message_len = code.message_len();
    // Whole messages encode straight out of `bytes`; only a ragged tail
    // is staged by `push`.
    let mut ingest = |bytes: &[u8]| {
        counter!("pipeline.bytes_in", bytes.len() as u64);
        let whole = bytes.chunks_exact(message_len);
        let tail = whole.remainder();
        let msgs: Vec<&[u8]> = whole.collect();
        encoder.push_messages(&msgs)?;
        encoder.push(tail)
    };
    let mut file = fs::File::open(input)?;

    // `map` answers `None` for length 0, which is also what pipes and
    // procfs report whatever they hold; a refused mapping is not an
    // error either, because reading always works.
    let mapped = if file.metadata()?.is_file() {
        Mmap::map(&file).ok().flatten()
    } else {
        None
    };
    if let Some(map) = mapped {
        ingest(map.as_slice())?;
    } else {
        let read_hist = global().histogram("pipeline.read_us");
        let mut buf = AlignedBuf::zeroed(message_len);
        loop {
            let t0 = Instant::now();
            let filled = read_full(&mut file, &mut buf)?;
            read_hist.record(t0.elapsed().as_micros() as u64);
            if filled == 0 {
                break;
            }
            ingest(&buf[..filled])?;
        }
    }
    let (object, sink) = encoder.finish()?;
    drop(sink);
    let manifest = Manifest {
        spec: spec.clone(),
        object_len: object.object_len,
        num_groups: object.num_groups,
    };
    fs::write(manifest_path(out_dir), manifest.to_text())?;
    Ok(manifest)
}

/// Reads until `buf` is full or EOF, returning the bytes read (a short
/// count only at end of file).
fn read_full<R: Read>(r: &mut R, buf: &mut [u8]) -> io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

/// Opens the block file for `block`, verifying its size. Returns `None`
/// for a missing file (an erasure).
fn open_block(
    dir: &Path,
    block: usize,
    expected_len: usize,
) -> Result<Option<io::BufReader<fs::File>>, CliError> {
    match fs::File::open(block_path(dir, block)) {
        Ok(file) => {
            let got = file.metadata()?.len() as usize;
            if got != expected_len {
                return Err(CliError::CorruptBlock {
                    block,
                    got,
                    expected: expected_len,
                });
            }
            Ok(Some(io::BufReader::new(file)))
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e.into()),
    }
}

/// Decodes the object from the block files in `dir` (missing files are
/// treated as erasures) and writes it to `output`.
///
/// Groups stream through a [`StripeDecoder`]: each group's block bytes
/// are read into `num_blocks` reused buffers, range-read (present
/// stripes copied, a missing block's recovered), and appended to the
/// output — the whole object is never resident.
///
/// # Errors
///
/// [`CliError`] if the surviving blocks cannot be decoded or on I/O
/// failure.
pub fn decode_file(dir: &Path, output: &Path) -> Result<(), CliError> {
    let (manifest, code) = open_dir(dir)?;
    let n = code.num_blocks();
    let group_len = code.block_len();
    let file_len = group_len * manifest.num_groups;
    let mut readers = Vec::with_capacity(n);
    for b in 0..n {
        readers.push(open_block(dir, b, file_len)?);
    }

    let mut decoder = StripeDecoder::new(
        &code,
        ObjectManifest {
            object_len: manifest.object_len,
            num_groups: manifest.num_groups,
        },
    );
    let mut out = io::BufWriter::new(fs::File::create(output)?);
    let mut group_bufs: Vec<Vec<u8>> = (0..n).map(|_| vec![0u8; group_len]).collect();
    for _ in 0..manifest.num_groups {
        for (reader, buf) in readers.iter_mut().zip(group_bufs.iter_mut()) {
            if let Some(r) = reader {
                r.read_exact(buf)?;
            }
        }
        let available: Vec<Option<&[u8]>> = readers
            .iter()
            .zip(group_bufs.iter())
            .map(|(r, buf)| r.is_some().then_some(buf.as_slice()))
            .collect();
        out.write_all(&decoder.next_group(&available)?)?;
    }
    decoder.finish()?;
    out.flush()?;
    Ok(())
}

/// Rebuilds block `target`'s file in `dir` from its repair plan's source
/// files, group by group. Returns the number of source blocks read.
///
/// A local repair: only the plan's source files are opened — the
/// disk-I/O frugality that locally repairable codes exist for — through
/// the same rebuild pass as [`fsck`], so the block streams to a
/// temporary file that replaces the target at the end.
///
/// # Errors
///
/// [`CliError::MissingSources`] if a required source file is absent;
/// other variants on I/O or coding failure.
pub fn repair_block(dir: &Path, target: usize) -> Result<usize, CliError> {
    let (manifest, code) = open_dir(dir)?;
    let others: Vec<bool> = (0..code.num_blocks()).map(|b| b != target).collect();
    let plan = RebuildPlan::new(&code, &[target], &others)?;
    rebuild_files(dir, &code, manifest.num_groups, &plan)?;
    Ok(plan.reads().len())
}

/// The one rebuild pass over an encoded directory: streams the block
/// files `plan` reads through [`RebuildPlan::apply`] one group at a
/// time, writing each rebuilt block to its own temporary file, and
/// renames those into place once every group is through. Only the
/// [`reads`](RebuildPlan::reads) files are opened, and memory is one
/// group buffer per file read. A failed pass leaves no temporary file.
fn rebuild_files(
    dir: &Path,
    code: &LinearCode,
    num_groups: usize,
    plan: &RebuildPlan,
) -> Result<(), CliError> {
    let targets = plan.targets();
    let group_len = code.block_len();
    let mut readers = Vec::with_capacity(plan.reads().len());
    let mut missing = Vec::new();
    for &b in plan.reads() {
        match open_block(dir, b, group_len * num_groups)? {
            Some(r) => readers.push(r),
            None => missing.push(b),
        }
    }
    if !missing.is_empty() {
        return Err(CliError::MissingSources(missing));
    }

    let tmp: Vec<PathBuf> = targets
        .iter()
        .map(|b| dir.join(format!("block_{b}.bin.tmp")))
        .collect();
    let placed = (|| -> Result<(), CliError> {
        let mut outs = tmp
            .iter()
            .map(fs::File::create)
            .collect::<io::Result<Vec<_>>>()?;
        let mut bufs: Vec<Vec<u8>> = readers.iter().map(|_| vec![0u8; group_len]).collect();
        for _ in 0..num_groups {
            let mut blocks: Vec<Option<&[u8]>> = vec![None; code.num_blocks()];
            for ((reader, buf), &b) in readers.iter_mut().zip(&mut bufs).zip(plan.reads()) {
                reader.read_exact(buf)?;
                blocks[b] = Some(&**buf);
            }
            // One write per rebuilt block; they come back in ascending
            // order, as `targets`.
            let rebuilt = plan.apply(code, &blocks)?;
            for (out, bytes) in outs.iter_mut().zip(rebuilt.iter().flatten()) {
                out.write_all(bytes)?;
            }
        }
        drop(outs);
        for (path, &b) in tmp.iter().zip(&targets) {
            fs::rename(path, block_path(dir, b))?;
        }
        Ok(())
    })();
    if placed.is_err() {
        for path in &tmp {
            let _ = fs::remove_file(path);
        }
    }
    placed
}

/// The one presence scan over an encoded directory: each block file's
/// size on disk (`None` when missing) and the availability mask a code
/// takes. A file at any size but the one the manifest implies is an
/// erasure, exactly like the DFS's CRC check reclassifying a corrupt
/// block.
fn scan_blocks(dir: &Path, expected: usize, n: usize) -> (Vec<Option<u64>>, Vec<bool>) {
    let sizes: Vec<Option<u64>> = (0..n)
        .map(|b| fs::metadata(block_path(dir, b)).ok().map(|m| m.len()))
        .collect();
    let present = sizes.iter().map(|&s| s == Some(expected as u64)).collect();
    (sizes, present)
}

/// The health line both reports end with (or start from): how many
/// blocks are present and whether the object is healthy, `degraded`
/// (still decodable) or unrecoverable.
fn health_line(code: &LinearCode, present: &[bool], degraded: &str) -> String {
    let (have, n) = (present.iter().filter(|&&p| p).count(), present.len());
    let state = if have == n {
        "fully healthy"
    } else if code.can_decode(present) {
        degraded
    } else {
        "UNRECOVERABLE"
    };
    format!("{have} of {n} blocks present; object is {state}\n")
}

/// Checks an encoded directory's health: which block files are present,
/// whether the object is still decodable, and which lost blocks local
/// repairs rebuild without a decode.
///
/// Returns `(report, decodable)`.
///
/// # Errors
///
/// [`CliError`] on manifest problems or unreadable block files.
pub fn check(dir: &Path) -> Result<(String, bool), CliError> {
    let (manifest, code) = open_dir(dir)?;
    let n = code.num_blocks();
    let expected = code.block_len() * manifest.num_groups;
    let (sizes, present) = scan_blocks(dir, expected, n);
    let mut report = health_line(&code, &present, "DEGRADED but decodable");
    for (b, size) in sizes.iter().enumerate() {
        match size {
            None => report.push_str(&format!("  block {b}: MISSING\n")),
            Some(got) if !present[b] => report.push_str(&format!(
                "  block {b}: WRONG SIZE ({got} bytes, expected {expected})\n"
            )),
            Some(_) => {}
        }
    }
    let lost: Vec<usize> = (0..n).filter(|&b| !present[b]).collect();
    let plan = RebuildPlan::new(&code, &lost, &present)?;
    let decodable = plan.stranded().is_empty();
    if !lost.is_empty() && decodable {
        // A chained target's plan reads an earlier target, so the order
        // matters when the blocks are repaired one at a time.
        let repairable: Vec<usize> = plan.local().iter().map(RepairPlan::target).collect();
        report.push_str(&format!(
            "locally repairable now, in this order: {repairable:?} \
             (run `galloper repair <dir> <block>` for each, or `galloper fsck <dir> --repair`)\n"
        ));
    }
    Ok((report, decodable))
}

/// Filesystem-check over an encoded directory: verifies every block
/// file, and with `repair` set rebuilds whatever is missing or the
/// wrong size.
///
/// Returns `(report, healthy)` where `healthy` reflects the state
/// *after* any repairs.
///
/// The repair is one [`RebuildPlan`] for the directory's loss pattern —
/// local plans chained to a fixed point, one decode + re-encode per group
/// for what no chain reaches — run in one pass over the block files it
/// reads. Wrong-sized block files are deleted first under `repair`.
///
/// # Errors
///
/// [`CliError`] on manifest problems or I/O failure.
pub fn fsck(dir: &Path, repair: bool) -> Result<(String, bool), CliError> {
    let (manifest, code) = open_dir(dir)?;
    let n = code.num_blocks();
    let expected = code.block_len() * manifest.num_groups;
    let (sizes, mut present) = scan_blocks(dir, expected, n);
    let mut report = String::new();
    for (b, size) in sizes.iter().enumerate() {
        match size {
            None => report.push_str(&format!("block {b}: missing\n")),
            Some(got) if !present[b] => {
                report.push_str(&format!(
                    "block {b}: wrong size ({got} bytes, expected {expected})"
                ));
                if repair {
                    // Cleared so the rebuild writes a fresh, full-sized one.
                    fs::remove_file(block_path(dir, b))?;
                    report.push_str(" — removed, will rebuild");
                }
                report.push('\n');
            }
            Some(_) => {}
        }
    }

    if repair {
        let lost: Vec<usize> = (0..n).filter(|&b| !present[b]).collect();
        let plan = RebuildPlan::new(&code, &lost, &present)?;
        rebuild_files(dir, &code, manifest.num_groups, &plan)?;
        for step in plan.local() {
            let (b, fan_in) = (step.target(), step.fan_in());
            report.push_str(&format!(
                "block {b}: rebuilt locally from {fan_in} sources\n"
            ));
        }
        for b in plan.decoded() {
            report.push_str(&format!("block {b}: rebuilt via full decode\n"));
        }
        plan.targets().into_iter().for_each(|b| present[b] = true);
    }
    let hint = "DEGRADED but decodable (run `galloper fsck <dir> --repair`)";
    report.push_str(&health_line(&code, &present, hint));
    Ok((report, present.iter().all(|&p| p)))
}

/// Renders a human-readable description of an encoded directory: the
/// code, the per-block roles, data fractions, and repair fan-ins.
///
/// # Errors
///
/// [`CliError`] on manifest or spec problems.
pub fn inspect(dir: &Path) -> Result<String, CliError> {
    let (manifest, code) = open_dir(dir)?;
    let layout = code.layout();
    let mut out = String::new();
    out.push_str(&format!(
        "{} code: k={} l={} g={} | {} blocks x {} bytes | {} groups | object {} bytes | overhead {:.2}x\n",
        manifest.spec.family,
        manifest.spec.k,
        manifest.spec.l,
        manifest.spec.g,
        code.num_blocks(),
        code.block_len() * manifest.num_groups,
        manifest.num_groups,
        manifest.object_len,
        code.storage_overhead(),
    ));
    for b in 0..code.num_blocks() {
        let plan = code.repair_plan(b)?;
        out.push_str(&format!(
            "  block {b}: {:?}, {:.1}% original data, repairs from {} blocks {:?}\n",
            code.block_role(b),
            layout.data_fraction(b) * 100.0,
            plan.fan_in(),
            plan.sources(),
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn galloper_spec() -> CodeSpec {
        CodeSpec::galloper(4, 2, 1, 1024)
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("galloper-cli-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn encode_decode_roundtrip_on_disk() {
        let dir = tempdir("roundtrip");
        let input = dir.join("input.bin");
        let data: Vec<u8> = (0..100_000).map(|i| (i % 251) as u8).collect();
        fs::write(&input, &data).unwrap();

        let out = dir.join("encoded");
        let manifest = encode_file(&input, &out, &galloper_spec()).unwrap();
        assert_eq!(manifest.object_len, data.len());

        // Destroy two block files (g + 1 = 2 tolerance).
        fs::remove_file(out.join("block_0.bin")).unwrap();
        fs::remove_file(out.join("block_6.bin")).unwrap();

        let restored = dir.join("restored.bin");
        decode_file(&out, &restored).unwrap();
        assert_eq!(fs::read(&restored).unwrap(), data);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_input_roundtrips() {
        let dir = tempdir("empty");
        let input = dir.join("input.bin");
        fs::write(&input, []).unwrap();
        let out = dir.join("encoded");
        let manifest = encode_file(&input, &out, &galloper_spec()).unwrap();
        assert_eq!(manifest.object_len, 0);
        assert_eq!(manifest.num_groups, 1, "an empty object still has a group");
        let restored = dir.join("restored.bin");
        decode_file(&out, &restored).unwrap();
        assert_eq!(fs::read(&restored).unwrap(), Vec::<u8>::new());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn repair_rewrites_identical_block() {
        let dir = tempdir("repair");
        let input = dir.join("input.bin");
        let data: Vec<u8> = (0..50_000).map(|i| (i % 241) as u8).collect();
        fs::write(&input, &data).unwrap();
        let out = dir.join("encoded");
        encode_file(&input, &out, &galloper_spec()).unwrap();

        let original = fs::read(out.join("block_1.bin")).unwrap();
        fs::remove_file(out.join("block_1.bin")).unwrap();
        let fan_in = repair_block(&out, 1).unwrap();
        assert_eq!(fan_in, 2, "local repair reads the group");
        assert_eq!(fs::read(out.join("block_1.bin")).unwrap(), original);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn repair_reports_missing_sources() {
        let dir = tempdir("missing");
        let input = dir.join("input.bin");
        fs::write(&input, vec![7u8; 10_000]).unwrap();
        let out = dir.join("encoded");
        encode_file(&input, &out, &galloper_spec()).unwrap();
        fs::remove_file(out.join("block_1.bin")).unwrap();
        fs::remove_file(out.join("block_2.bin")).unwrap();
        match repair_block(&out, 1) {
            Err(CliError::MissingSources(m)) => assert_eq!(m, vec![2]),
            other => panic!("expected MissingSources, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_block_is_detected() {
        let dir = tempdir("corrupt");
        let input = dir.join("input.bin");
        fs::write(&input, vec![1u8; 20_000]).unwrap();
        let out = dir.join("encoded");
        encode_file(&input, &out, &galloper_spec()).unwrap();
        fs::write(out.join("block_3.bin"), b"short").unwrap();
        match decode_file(&out, &dir.join("out.bin")) {
            Err(CliError::CorruptBlock { block: 3, .. }) => {}
            other => panic!("expected CorruptBlock, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_group_count_must_match_object_len() {
        let dir = tempdir("groups");
        let input = dir.join("input.bin");
        fs::write(&input, vec![5u8; 30_000]).unwrap();
        let out = dir.join("encoded");
        let manifest = encode_file(&input, &out, &galloper_spec()).unwrap();
        assert_eq!(manifest.num_groups, 2);
        let text = fs::read_to_string(manifest_path(&out)).unwrap();
        let edited = text.replace("object_len = 30000", "object_len = 9000000");
        fs::write(manifest_path(&out), edited).unwrap();
        let restored = dir.join("restored.bin");
        match decode_file(&out, &restored) {
            Err(CliError::Manifest(ManifestError::GroupCount {
                num_groups: 2,
                expected: 314,
            })) => {}
            other => panic!("expected GroupCount, got {other:?}"),
        }
        assert!(!restored.exists(), "no output for a refused manifest");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn inspect_mentions_every_block() {
        let dir = tempdir("inspect");
        let input = dir.join("input.bin");
        fs::write(&input, vec![9u8; 1000]).unwrap();
        let out = dir.join("encoded");
        encode_file(&input, &out, &galloper_spec()).unwrap();
        let text = inspect(&out).unwrap();
        for b in 0..7 {
            assert!(text.contains(&format!("block {b}:")), "{text}");
        }
        assert!(text.contains("galloper code"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn check_reports_health_transitions() {
        let dir = tempdir("check");
        let input = dir.join("input.bin");
        fs::write(&input, vec![5u8; 30_000]).unwrap();
        let out = dir.join("encoded");
        encode_file(&input, &out, &galloper_spec()).unwrap();

        let (report, ok) = check(&out).unwrap();
        assert!(ok);
        assert!(report.contains("fully healthy"), "{report}");

        fs::remove_file(out.join("block_1.bin")).unwrap();
        let (report, ok) = check(&out).unwrap();
        assert!(ok);
        assert!(report.contains("DEGRADED"), "{report}");
        assert!(report.contains("MISSING"), "{report}");
        assert!(
            report.contains("[1]"),
            "block 1 must be listed repairable: {report}"
        );

        fs::remove_file(out.join("block_0.bin")).unwrap();
        fs::remove_file(out.join("block_6.bin")).unwrap();
        let (report, ok) = check(&out).unwrap();
        assert!(!ok);
        assert!(report.contains("UNRECOVERABLE"), "{report}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsck_reports_without_touching_anything() {
        let dir = tempdir("fsck-report");
        let input = dir.join("input.bin");
        fs::write(&input, vec![3u8; 25_000]).unwrap();
        let out = dir.join("encoded");
        encode_file(&input, &out, &galloper_spec()).unwrap();

        let (report, healthy) = fsck(&out, false).unwrap();
        assert!(healthy);
        assert!(report.contains("fully healthy"), "{report}");

        fs::remove_file(out.join("block_2.bin")).unwrap();
        let (report, healthy) = fsck(&out, false).unwrap();
        assert!(!healthy);
        assert!(report.contains("block 2: missing"), "{report}");
        assert!(report.contains("--repair"), "{report}");
        assert!(
            !out.join("block_2.bin").exists(),
            "report-only mode must not rebuild"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsck_repair_heals_local_damage() {
        let dir = tempdir("fsck-local");
        let input = dir.join("input.bin");
        let data: Vec<u8> = (0..40_000).map(|i| (i % 239) as u8).collect();
        fs::write(&input, &data).unwrap();
        let out = dir.join("encoded");
        encode_file(&input, &out, &galloper_spec()).unwrap();
        let original = fs::read(out.join("block_1.bin")).unwrap();

        // One missing block and one truncated block, in different local
        // groups so plans alone cover both.
        fs::remove_file(out.join("block_1.bin")).unwrap();
        fs::write(out.join("block_3.bin"), b"garbage").unwrap();

        let (report, healthy) = fsck(&out, true).unwrap();
        assert!(healthy, "{report}");
        assert!(report.contains("block 1: rebuilt locally"), "{report}");
        assert!(report.contains("block 3: wrong size"), "{report}");
        assert!(report.contains("block 3: rebuilt locally"), "{report}");
        assert!(!report.contains("full decode"), "{report}");
        assert_eq!(fs::read(out.join("block_1.bin")).unwrap(), original);

        let restored = dir.join("restored.bin");
        decode_file(&out, &restored).unwrap();
        assert_eq!(fs::read(&restored).unwrap(), data);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsck_repair_falls_back_to_full_decode() {
        let dir = tempdir("fsck-decode");
        let input = dir.join("input.bin");
        let data: Vec<u8> = (0..30_000).map(|i| (i % 233) as u8).collect();
        fs::write(&input, &data).unwrap();
        let out = dir.join("encoded");
        encode_file(&input, &out, &galloper_spec()).unwrap();

        // Blocks 0 and 1 are each other's local-plan sources in the
        // (4, 2, 1) Galloper layout, so no local chain heals this pair.
        let originals: Vec<Vec<u8>> = (0..2)
            .map(|b| fs::read(out.join(format!("block_{b}.bin"))).unwrap())
            .collect();
        fs::remove_file(out.join("block_0.bin")).unwrap();
        fs::remove_file(out.join("block_1.bin")).unwrap();

        let (report, healthy) = fsck(&out, true).unwrap();
        assert!(healthy, "{report}");
        assert!(report.contains("rebuilt via full decode"), "{report}");
        for (b, original) in originals.iter().enumerate() {
            assert_eq!(
                &fs::read(out.join(format!("block_{b}.bin"))).unwrap(),
                original,
                "block {b} re-encode must be byte-identical"
            );
        }
        // Re-pinned (was: two named temporaries absent): no temporary
        // of any name is left — the directory holds exactly the n block
        // files and the manifest.
        assert_eq!(fs::read_dir(&out).unwrap().count(), 7 + 1);
        assert!((0..7).all(|b| out.join(format!("block_{b}.bin")).exists()));
        assert!(out.join("object.manifest").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsck_repair_reports_unrecoverable_damage() {
        let dir = tempdir("fsck-lost");
        let input = dir.join("input.bin");
        fs::write(&input, vec![8u8; 12_000]).unwrap();
        let out = dir.join("encoded");
        encode_file(&input, &out, &galloper_spec()).unwrap();
        // All four data blocks gone: three parities cannot carry them.
        for b in [0, 1, 2, 3] {
            fs::remove_file(out.join(format!("block_{b}.bin"))).unwrap();
        }
        let (report, healthy) = fsck(&out, true).unwrap();
        assert!(!healthy);
        assert!(report.contains("UNRECOVERABLE"), "{report}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rs_roundtrip_via_cli_ops() {
        let dir = tempdir("rs");
        let input = dir.join("input.bin");
        let data: Vec<u8> = (0..10_000).map(|i| (i % 199) as u8).collect();
        fs::write(&input, &data).unwrap();
        let spec = CodeSpec::rs(4, 2, 2048);
        let out = dir.join("encoded");
        encode_file(&input, &out, &spec).unwrap();
        fs::remove_file(out.join("block_2.bin")).unwrap();
        fs::remove_file(out.join("block_5.bin")).unwrap();
        let restored = dir.join("restored.bin");
        decode_file(&out, &restored).unwrap();
        assert_eq!(fs::read(&restored).unwrap(), data);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn spec_errors_carry_their_source() {
        let err = encode_file(Path::new("/nonexistent"), Path::new("/tmp/x"), &{
            let mut s = galloper_spec();
            s.family = "raid0".into();
            s
        })
        .unwrap_err();
        assert!(matches!(err, CliError::Spec(_)));
        assert!(std::error::Error::source(&err).is_some());
    }
}
