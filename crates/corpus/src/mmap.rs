//! Read-only memory mapping with a copying fallback.
//!
//! The one `unsafe` island of the workspace: a direct `mmap`/`munmap`
//! FFI (the offline shim policy rules out the `libc`/`memmap2` crates).
//! The mapping is `PROT_READ` + `MAP_PRIVATE` over an immutable input
//! file, so handing out `&[u8]` for the mapping's lifetime is sound in
//! the same sense `memmap2` is: the kernel owns the pages, nothing in
//! this process writes them, and the pointer lives exactly as long as
//! the owning [`MappedFile`]. If the file is truncated concurrently by
//! an outside process, reads may fault — corpora are treated as
//! immutable once written, as with any mmap-based reader.
//!
//! When the map cannot be established (exotic filesystem, non-unix
//! target), [`MappedFile::open`] silently falls back to `fs::read`;
//! callers can observe which path was taken via
//! [`MappedFile::is_mapped`] but never need to care.

use std::io;
use std::path::Path;

/// A corpus file's bytes: memory-mapped when possible, owned otherwise.
pub struct MappedFile {
    inner: Inner,
}

enum Inner {
    #[cfg(unix)]
    Mapped(sys::Mapping),
    Owned(Vec<u8>),
}

impl MappedFile {
    /// Opens `path` read-only, preferring a private read-only map of a
    /// regular file. Anything else — a pipe, a zero-size `/proc` file,
    /// a regular file the kernel will not map — is read to the end, so
    /// a file is empty only when no bytes come back (zero-length `mmap`
    /// is an error by spec).
    pub fn open(path: &Path) -> io::Result<Self> {
        let mut file = std::fs::File::open(path)?;
        #[cfg(unix)]
        {
            let meta = file.metadata()?;
            if meta.is_file() && meta.len() > 0 {
                if let Some(mapping) = sys::Mapping::map(&file, meta.len() as usize) {
                    return Ok(MappedFile { inner: Inner::Mapped(mapping) });
                }
            }
        }
        let mut bytes = Vec::new();
        io::Read::read_to_end(&mut file, &mut bytes)?;
        Ok(MappedFile { inner: Inner::Owned(bytes) })
    }

    /// The file's bytes.
    pub fn bytes(&self) -> &[u8] {
        match &self.inner {
            #[cfg(unix)]
            Inner::Mapped(m) => m.bytes(),
            Inner::Owned(v) => v,
        }
    }

    /// Whether the bytes come from an actual memory map (false on the
    /// read fallback).
    pub fn is_mapped(&self) -> bool {
        match &self.inner {
            #[cfg(unix)]
            Inner::Mapped(_) => true,
            Inner::Owned(_) => false,
        }
    }

    /// File length in bytes.
    pub fn len(&self) -> usize {
        self.bytes().len()
    }

    /// True for a zero-length file.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(unix)]
#[allow(unsafe_code)]
mod sys {
    use std::ffi::{c_int, c_long, c_void};
    use std::os::unix::io::AsRawFd;

    const PROT_READ: c_int = 1;
    const MAP_PRIVATE: c_int = 2;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            length: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: c_long,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, length: usize) -> c_int;
    }

    /// An established read-only private mapping.
    pub(super) struct Mapping {
        ptr: *mut c_void,
        len: usize,
    }

    // SAFETY: the mapping is PROT_READ/MAP_PRIVATE over an immutable
    // file and this process never writes or remaps it; sharing the
    // read-only view across threads is as sound as sharing a `&[u8]`.
    unsafe impl Send for Mapping {}
    unsafe impl Sync for Mapping {}

    impl Mapping {
        /// Maps `len` bytes of `file`; `None` when the kernel refuses
        /// (callers fall back to reading).
        pub(super) fn map(file: &std::fs::File, len: usize) -> Option<Self> {
            let map_failed = usize::MAX as *mut c_void;
            // SAFETY: arguments follow the mmap contract (NULL hint,
            // non-zero length, valid open fd, zero offset); the result
            // is checked against MAP_FAILED before use.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr == map_failed || ptr.is_null() {
                return None;
            }
            Some(Mapping { ptr, len })
        }

        pub(super) fn bytes(&self) -> &[u8] {
            // SAFETY: `ptr` is a live PROT_READ mapping of exactly
            // `len` bytes, valid until Drop; the returned slice borrows
            // `self`, so it cannot outlive the mapping.
            unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
        }
    }

    impl Drop for Mapping {
        fn drop(&mut self) {
            // SAFETY: `ptr`/`len` describe the exact region mapped in
            // `map`, unmapped exactly once here.
            unsafe {
                munmap(self.ptr, self.len);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("lpr-mmap-{}-{}", name, std::process::id()))
    }

    #[test]
    fn maps_file_contents_exactly() {
        let path = tmp("contents");
        let payload: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        std::fs::write(&path, &payload).unwrap();
        let map = MappedFile::open(&path).unwrap();
        assert_eq!(map.bytes(), payload.as_slice());
        assert_eq!(map.len(), payload.len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_is_empty_slice() {
        let path = tmp("empty");
        std::fs::write(&path, b"").unwrap();
        let map = MappedFile::open(&path).unwrap();
        assert!(map.is_empty());
        assert!(!map.is_mapped(), "zero-length files use the owned path");
        std::fs::remove_file(&path).ok();
    }

    #[cfg(unix)]
    #[test]
    fn a_pipe_is_read_to_the_end() {
        let path = tmp("fifo");
        std::fs::remove_file(&path).ok();
        let made = std::process::Command::new("mkfifo").arg(&path).status().unwrap();
        assert!(made.success(), "mkfifo failed");
        let payload: Vec<u8> = (0..=255u8).cycle().take(100_000).collect();
        let writer = {
            let (path, payload) = (path.clone(), payload.clone());
            std::thread::spawn(move || std::fs::write(&path, payload))
        };
        let map = MappedFile::open(&path).unwrap();
        writer.join().unwrap().unwrap();
        assert!(!map.is_mapped());
        assert_eq!(map.bytes(), payload.as_slice(), "a pipe reports length 0 but is not empty");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_an_error() {
        assert!(MappedFile::open(&tmp("missing-never-written")).is_err());
    }

    #[test]
    fn mapping_is_shareable_across_threads() {
        let path = tmp("threads");
        std::fs::write(&path, vec![7u8; 4096]).unwrap();
        let map = MappedFile::open(&path).unwrap();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| assert!(map.bytes().iter().all(|&b| b == 7)));
            }
        });
        std::fs::remove_file(&path).ok();
    }
}
