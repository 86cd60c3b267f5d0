//! Read-only file mappings for the zero-copy encode pipeline.
//!
//! `galloper encode` ([`crate::encode_file`]) feeds whole coding groups
//! straight from the source file into the
//! [`StripeEncoder`](galloper_erasure::stream::StripeEncoder) with no
//! intermediate staging copy. A regular, non-empty input is mapped
//! read-only ([`Mmap`]) and encoded directly out of the page cache;
//! whenever that cannot work — a pipe or procfs file (length 0), a
//! filesystem that refuses to map, a non-Unix or 32-bit target —
//! `encode_file` reads the input to EOF through one recycled
//! page-aligned buffer instead. The choice is made from the input, not
//! by an option, and both arms write identical bytes.
//!
//! This module owns the crate's only `unsafe` code (crate policy:
//! `deny(unsafe_code)` with a written safety argument at every allowed
//! site). The raw `mmap(2)`/`munmap(2)` calls are declared directly —
//! the workspace deliberately carries no FFI-binding dependency — and
//! are confined to 64-bit Unix targets where the declared ABI
//! (`off_t` = `i64`) is correct.

#[cfg(all(unix, target_pointer_width = "64"))]
mod sys {
    //! Read-only private file mappings over raw `mmap(2)`.

    use std::ffi::{c_int, c_void};
    use std::fs;
    use std::io;
    use std::os::unix::io::AsRawFd;
    use std::ptr::NonNull;

    const PROT_READ: c_int = 1;
    const MAP_PRIVATE: c_int = 2;

    #[allow(unsafe_code)]
    // SAFETY: these are the C library's own `mmap`/`munmap`, declared with
    // the 64-bit Unix ABI (`off_t` = `i64`); the enclosing module is
    // compiled only for such targets. Rust programs on Unix always link
    // libc, so the symbols resolve without any added dependency.
    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    /// A read-only, private memory mapping of a whole file.
    ///
    /// The mapping's length is captured at `map` time. Like every
    /// mmap-consuming tool, reads fault in pages lazily from the page
    /// cache; truncating the file from another process while the map is
    /// live turns reads past the new end into `SIGBUS` — `encode`
    /// assumes the input is stable for the duration, the same contract
    /// `read(2)`-based ingest has for a consistent result.
    #[derive(Debug)]
    pub struct Mmap {
        ptr: NonNull<u8>,
        len: usize,
    }

    // SAFETY: the mapping is read-only (`PROT_READ`) and `Mmap` uniquely
    // owns it; concurrent shared reads and cross-thread moves are as safe
    // as for `&[u8]`/`Box<[u8]>`.
    #[allow(unsafe_code)]
    unsafe impl Send for Mmap {}
    #[allow(unsafe_code)]
    unsafe impl Sync for Mmap {}

    impl Mmap {
        /// Maps `file` read-only. Returns `Ok(None)` for an empty file
        /// (zero-length mappings are invalid).
        ///
        /// # Errors
        ///
        /// The OS error when the kernel refuses the mapping.
        #[allow(unsafe_code)]
        pub fn map(file: &fs::File) -> io::Result<Option<Mmap>> {
            let len = file.metadata()?.len();
            if len == 0 {
                return Ok(None);
            }
            let len = usize::try_from(len)
                .map_err(|_| io::Error::other("file too large to map on this target"))?;
            // SAFETY: a fresh PROT_READ/MAP_PRIVATE mapping of `len > 0`
            // bytes over a valid open fd; we pass a null hint so the
            // kernel chooses the address. The result is checked against
            // MAP_FAILED (-1) before use.
            let raw = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if raw == usize::MAX as *mut c_void {
                return Err(io::Error::last_os_error());
            }
            let ptr = NonNull::new(raw.cast::<u8>())
                .ok_or_else(|| io::Error::other("mmap returned null"))?;
            Ok(Some(Mmap { ptr, len }))
        }

        /// The mapped bytes.
        #[allow(unsafe_code)]
        pub fn as_slice(&self) -> &[u8] {
            // SAFETY: `ptr` is a live PROT_READ mapping of exactly `len`
            // bytes (established in `map`, released only in `drop`), and
            // file-backed pages are initialized memory.
            unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
        }
    }

    impl Drop for Mmap {
        #[allow(unsafe_code)]
        fn drop(&mut self) {
            // SAFETY: unmapping exactly the region returned by `mmap` in
            // `map`, at most once. Failure is ignored as in every mmap
            // wrapper: the only causes are invalid arguments, which the
            // type's invariants rule out.
            unsafe {
                munmap(self.ptr.as_ptr().cast(), self.len);
            }
        }
    }
}

#[cfg(all(unix, target_pointer_width = "64"))]
pub use sys::Mmap;

/// Stub for targets without mapping support: [`Mmap::map`] always
/// reports unsupported, and `encode_file` reads the input instead.
#[cfg(not(all(unix, target_pointer_width = "64")))]
#[derive(Debug)]
pub struct Mmap {}

#[cfg(not(all(unix, target_pointer_width = "64")))]
impl Mmap {
    /// Always fails: mapping is unsupported on this target.
    ///
    /// # Errors
    ///
    /// [`std::io::ErrorKind::Unsupported`], unconditionally.
    pub fn map(_file: &std::fs::File) -> std::io::Result<Option<Mmap>> {
        Err(std::io::Error::from(std::io::ErrorKind::Unsupported))
    }

    /// The mapped bytes (unreachable on this target).
    pub fn as_slice(&self) -> &[u8] {
        &[]
    }
}

#[cfg(all(test, unix, target_pointer_width = "64"))]
mod tests {
    use super::*;
    use std::fs;
    use std::io::Write as _;

    #[test]
    fn mmap_reflects_file_contents_and_handles_empty() {
        let path = std::env::temp_dir().join(format!("galloper-mmap-{}", std::process::id()));
        let data: Vec<u8> = (0..10_000).map(|i| (i % 251) as u8).collect();
        let mut f = fs::File::create(&path).unwrap();
        f.write_all(&data).unwrap();
        drop(f);
        let f = fs::File::open(&path).unwrap();
        let map = Mmap::map(&f).unwrap().expect("non-empty file maps");
        assert_eq!(map.as_slice(), &data[..]);
        drop(map);

        fs::write(&path, []).unwrap();
        let f = fs::File::open(&path).unwrap();
        assert!(Mmap::map(&f).unwrap().is_none(), "empty files do not map");
        let _ = fs::remove_file(&path);
    }
}
