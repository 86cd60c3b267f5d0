//! The zero-copy contract: how the input reaches the encoder is
//! invisible in the output.
//!
//! `galloper encode` maps a regular, non-empty, mappable input and
//! encodes straight out of the mapping; anything else (a pipe, a procfs
//! or sysfs file) is read to EOF through one recycled page-aligned
//! buffer. The property this suite pins: for every code family and input
//! lengths chosen to straddle the message boundary (empty, one byte,
//! message ± 1, several groups plus a ragged tail), both arms produce
//! block files and a manifest byte-identical to each other and to the
//! one-shot [`ObjectCodec`] oracle, and the encoded directory decodes
//! back to the exact input.

use std::fs;
use std::io::Write as _;
use std::path::Path;
use std::process::{Command, Stdio};

use galloper_cli::{build_code, decode_file, encode_file, CodeSpec, Manifest};
use galloper_erasure::{ErasureCode, ObjectCodec};
use galloper_testkit::TestRng;

const GALLOPER: &str = env!("CARGO_BIN_EXE_galloper");

fn families() -> Vec<(&'static str, CodeSpec)> {
    vec![
        ("rs", CodeSpec::rs(4, 2, 96)),
        ("pyramid", CodeSpec::pyramid(4, 2, 1, 96)),
        ("carousel", CodeSpec::carousel(4, 2, 96)),
        ("galloper", CodeSpec::galloper(4, 2, 1, 96)),
        ("galloper-asl", CodeSpec::galloper_asl(4, 2, 1, 96)),
    ]
}

/// Every file in `dir` as `(name, bytes)`, sorted by name — block files
/// and the manifest together, so a comparison covers both.
fn snapshot(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = fs::read_dir(dir)
        .expect("read encoded dir")
        .map(|e| {
            let e = e.expect("dir entry");
            let name = e.file_name().into_string().expect("utf-8 file name");
            (name, fs::read(e.path()).expect("read encoded file"))
        })
        .collect();
    files.sort();
    files
}

/// Runs `galloper encode /dev/stdin <dir>` with `data` piped in — an
/// input with no length to ask for and nothing to map, so the reading
/// arm is the only way through.
fn encode_piped(data: &[u8], dir: &Path, spec: &CodeSpec) -> Vec<(String, Vec<u8>)> {
    let mut child = Command::new(GALLOPER)
        .args(["encode", "/dev/stdin"])
        .arg(dir)
        .args(["--family", &spec.family])
        .args(["-k", &spec.k.to_string()])
        .args(["-l", &spec.l.to_string()])
        .args(["-g", &spec.g.to_string()])
        .args(["--stripe-size", &spec.stripe_size.to_string()])
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .spawn()
        .expect("spawn galloper encode");
    // Dropping the handle after the write closes the pipe: EOF.
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(data)
        .expect("feed stdin");
    assert!(child.wait().expect("wait for encode").success());
    snapshot(dir)
}

/// What the one-shot oracle says `dir` must hold for `data`.
fn oracle(data: &[u8], spec: &CodeSpec) -> Vec<(String, Vec<u8>)> {
    let object = ObjectCodec::new(build_code(spec).expect("valid spec"))
        .encode_object(data)
        .expect("oracle encode");
    let manifest = Manifest {
        spec: spec.clone(),
        object_len: object.manifest.object_len,
        num_groups: object.manifest.num_groups,
    };
    let mut files = vec![(
        "object.manifest".to_string(),
        manifest.to_text().into_bytes(),
    )];
    for b in 0..object.groups[0].len() {
        let block = object.groups.iter().flat_map(|g| g[b].iter().copied());
        files.push((format!("block_{b}.bin"), block.collect()));
    }
    files.sort();
    files
}

#[test]
fn mapped_and_piped_inputs_write_the_oracles_blocks_and_manifest() {
    let tmp = tempdir("zero-copy-arms");
    let mut rng = TestRng::new(0xC0DE);
    for (family, spec) in families() {
        let message_len = build_code(&spec).expect("valid spec").message_len();
        for len in [
            0,
            1,
            message_len - 1,
            message_len,
            message_len + 1,
            3 * message_len + 7,
        ] {
            let case = tmp.join(format!("{family}-{len}"));
            fs::create_dir_all(&case).expect("create case dir");
            let input = case.join("input.bin");
            let data = rng.bytes(len);
            fs::write(&input, &data).expect("write input");

            let piped = encode_piped(&data, &case.join("piped"), &spec);
            // The binary spells out defaults the constructors above leave
            // to the builder; encode the file under the spec it recorded.
            let recorded = Manifest::from_text(
                &fs::read_to_string(case.join("piped/object.manifest")).expect("read manifest"),
            )
            .expect("parse manifest")
            .spec;
            encode_file(&input, &case.join("mapped"), &recorded).expect("encode");
            let mapped = snapshot(&case.join("mapped"));

            assert_eq!(
                piped, mapped,
                "{family} len={len}: piped differs from mapped"
            );
            assert_eq!(
                mapped,
                oracle(&data, &recorded),
                "{family} len={len}: output differs from the one-shot oracle"
            );

            let back = case.join("decoded.bin");
            decode_file(&case.join("piped"), &back).expect("decode");
            assert_eq!(
                fs::read(&back).expect("read decoded"),
                data,
                "{family} len={len}: decode of the encoded directory is not the input"
            );
        }
    }
    let _ = fs::remove_dir_all(&tmp);
}

/// Regular files that cannot be mapped: sysfs attributes report a length
/// but refuse `mmap` (`ENODEV`), procfs files report length 0 whatever
/// they hold. Both must encode what reading them returns.
#[test]
fn unmappable_regular_files_are_read_instead() {
    let tmp = tempdir("zero-copy-unmappable");
    let spec = CodeSpec::galloper(4, 2, 1, 96);
    for path in [
        "/sys/kernel/mm/transparent_hugepage/enabled",
        "/proc/version",
    ] {
        let Ok(data) = fs::read(path) else {
            continue; // not on this host
        };
        let dir = tmp.join(path.replace('/', "_"));
        let manifest = encode_file(Path::new(path), &dir, &spec).expect("encode");
        assert_eq!(manifest.object_len, data.len(), "{path}");
        let back = tmp.join("decoded.bin");
        decode_file(&dir, &back).expect("decode");
        assert_eq!(fs::read(&back).expect("read decoded"), data, "{path}");
    }
    let _ = fs::remove_dir_all(&tmp);
}

fn tempdir(label: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("galloper-{label}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create temp dir");
    dir
}
