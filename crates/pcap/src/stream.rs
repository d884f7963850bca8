//! Chunked streaming engines: the lossy readers.
//!
//! [`LossyPcapStream`] and [`LossyPcapNgStream`] make every lossy decode
//! decision over a **bounded rolling window** fed from any [`Read`] source,
//! so a multi-gigabyte sniffer trace decodes in O(window) memory. An
//! in-memory capture is read by passing a `&[u8]` as the source.
//!
//! # The window invariant
//!
//! Every structural decision the lossy engines make — "does this record's
//! body run past end-of-stream?", "does the stream end exactly after this
//! candidate?", "is the following header also sane?" — looks at most
//! `2 * MAX_SANE_CAPLEN + 64` bytes past the current position:
//!
//! * a classic record occupies at most `RECORD_HEADER_LEN +
//!   MAX_SANE_CAPLEN` bytes, and resync double-confirmation peeks one more
//!   record header past it;
//! * a pcapng block occupies at most `2 * MAX_SANE_CAPLEN` bytes
//!   (the strict reader's own bound).
//!
//! [`ChunkedSource`] guarantees that after a refill the window holds at
//! least that many bytes *or* the source is exhausted and the window is
//! exactly the remainder of the stream. Under that invariant every
//! boundary test against `window.len()` means precisely what it would mean
//! against the length of the whole stream, so a decode is
//! decision-for-decision identical — including every [`IngestReport`]
//! counter — for *any* chunking of the underlying reads. The tests at the
//! bottom enforce this by differencing a trickled read against a
//! whole-buffer read over clean and chaos-corrupted captures at several
//! read granularities.
//!
//! # Live (non-blocking) sources
//!
//! A tailed live capture cannot satisfy the invariant: the last bytes of a
//! growing file are a partial window with no end-of-stream in sight. Sources
//! that return [`std::io::ErrorKind::WouldBlock`] surface this as
//! [`FillStatus::Partial`], and the [`LossyPcapStream::poll_packet`] /
//! [`LossyPcapNgStream::poll_packet`] entry points then follow one rule: on
//! a partial window, either act on a **fully-validated in-window record**
//! (a decision unchanged by any extension of the window, so the batch
//! engine over the final bytes makes it identically) or change nothing and
//! report [`Polled::Pending`]. Resynchronization after corruption always
//! waits for a full (or end-of-stream) window. Consequently a poll-driven
//! decode of a growing file converges, byte-for-byte in records and
//! accounting, to the whole-stream decode of the final file contents.

use crate::format::{
    LinkType, PacketRef, PcapError, GLOBAL_HEADER_LEN, MAGIC_BE, MAGIC_LE, MAGIC_NS_BE,
    MAGIC_NS_LE, MAX_SANE_CAPLEN, RECORD_HEADER_LEN,
};
use crate::lossy::IngestReport;
use crate::pcapng::{
    parse_epb_ref, parse_idb, parse_spb_ref, Interface, NgPacketRef, BT_EPB, BT_IDB, BT_SHB,
    BT_SPB, BYTE_ORDER_MAGIC,
};
use std::io::Read;

/// Resync plausibility: a candidate record's whole-seconds timestamp must be
/// within this many seconds of the last good record (captures are sessions,
/// not decades).
const RESYNC_TS_TOLERANCE_S: u64 = 86_400;

/// The minimum number of bytes a non-exhausted window must hold: the
/// largest lookahead any engine decision needs (see the module docs).
pub const WINDOW_TARGET: usize = 2 * (MAX_SANE_CAPLEN as usize) + 64;

/// Refill high-water mark: topping up to twice the window target halves the
/// number of compaction memmoves per byte consumed.
const REFILL_TARGET: usize = 2 * WINDOW_TARGET;

/// Granularity of reads from the underlying source.
const READ_CHUNK: usize = 64 * 1024;

/// What a [`ChunkedSource::fill`] achieved.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FillStatus {
    /// The window invariant holds: at least [`WINDOW_TARGET`] bytes, or
    /// end-of-stream with the window the exact remainder.
    Full,
    /// The source would block: the window is a prefix (possibly empty) of
    /// the eventual remainder and must not drive structural decisions.
    Partial,
}

/// Outcome of a single non-blocking [`LossyPcapStream::poll_packet`] /
/// [`LossyPcapNgStream::poll_packet`].
#[derive(Debug)]
pub enum Polled<T> {
    /// The next surviving record.
    Packet(T),
    /// The source would block before enough bytes were visible to decide;
    /// nothing changed — poll again once the source may have more bytes.
    Pending,
    /// True end of stream.
    End,
}

/// A bounded rolling byte window over any [`Read`] source.
///
/// Invariant: after [`ChunkedSource::fill`] returns [`FillStatus::Full`],
/// either the window holds at least [`WINDOW_TARGET`] bytes, or
/// [`ChunkedSource::eof`] is true and the window is exactly the unconsumed
/// remainder of the stream.
pub struct ChunkedSource<R> {
    inner: R,
    buf: Vec<u8>,
    pos: usize,
    chunk: Vec<u8>,
    eof: bool,
}

impl<R: Read> ChunkedSource<R> {
    /// Wraps a byte source. No bytes are read until the first [`fill`].
    ///
    /// [`fill`]: ChunkedSource::fill
    pub fn new(inner: R) -> ChunkedSource<R> {
        ChunkedSource {
            inner,
            buf: Vec::new(),
            pos: 0,
            chunk: Vec::new(),
            eof: false,
        }
    }

    /// Tops the window up to at least [`WINDOW_TARGET`] bytes (reading ahead
    /// to twice that), unless the source is exhausted first. Cheap no-op when
    /// the window is already full enough.
    ///
    /// A source that returns [`std::io::ErrorKind::WouldBlock`] before the
    /// target is met yields [`FillStatus::Partial`]: the window then holds a
    /// prefix of the eventual remainder and the invariant does **not** hold.
    /// Blocking sources never produce `Partial`.
    pub fn fill(&mut self) -> Result<FillStatus, PcapError> {
        if self.eof || self.buf.len() - self.pos >= WINDOW_TARGET {
            return Ok(FillStatus::Full);
        }
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        if self.chunk.is_empty() {
            self.chunk.resize(READ_CHUNK, 0);
        }
        while self.buf.len() < REFILL_TARGET {
            match self.inner.read(&mut self.chunk) {
                Ok(0) => {
                    self.eof = true;
                    break;
                }
                Ok(n) => self.buf.extend_from_slice(&self.chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    return Ok(if self.buf.len() >= WINDOW_TARGET {
                        FillStatus::Full
                    } else {
                        FillStatus::Partial
                    });
                }
                Err(e) => return Err(PcapError::Io(e)),
            }
        }
        Ok(FillStatus::Full)
    }

    /// The bytes currently visible at the stream position.
    pub fn window(&self) -> &[u8] {
        &self.buf[self.pos..]
    }

    /// Advances the stream position by `n` bytes (which must be within the
    /// current window).
    pub fn consume(&mut self, n: usize) {
        debug_assert!(n <= self.buf.len() - self.pos);
        self.pos += n;
    }

    /// True once the underlying source has reported end-of-stream; the
    /// window then holds exactly the remaining bytes.
    pub fn eof(&self) -> bool {
        self.eof
    }
}

pub(crate) struct ClassicHeader {
    pub(crate) big_endian: bool,
    pub(crate) nanos: bool,
    pub(crate) link: LinkType,
}

pub(crate) fn u32_end(big_endian: bool, bytes: &[u8], off: usize) -> u32 {
    let b = [bytes[off], bytes[off + 1], bytes[off + 2], bytes[off + 3]];
    if big_endian {
        u32::from_be_bytes(b)
    } else {
        u32::from_le_bytes(b)
    }
}

fn parse_global_header(bytes: &[u8]) -> Result<ClassicHeader, PcapError> {
    if bytes.len() < GLOBAL_HEADER_LEN {
        return Err(PcapError::TruncatedFile);
    }
    let magic = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    let (big_endian, nanos) = match magic {
        MAGIC_LE => (false, false),
        MAGIC_NS_LE => (false, true),
        MAGIC_BE => (true, false),
        MAGIC_NS_BE => (true, true),
        other => return Err(PcapError::BadMagic(other)),
    };
    let major = {
        let b = [bytes[4], bytes[5]];
        if big_endian {
            u16::from_be_bytes(b)
        } else {
            u16::from_le_bytes(b)
        }
    };
    if major != 2 {
        let minor = {
            let b = [bytes[6], bytes[7]];
            if big_endian {
                u16::from_be_bytes(b)
            } else {
                u16::from_le_bytes(b)
            }
        };
        return Err(PcapError::UnsupportedVersion(major, minor));
    }
    Ok(ClassicHeader {
        big_endian,
        nanos,
        link: LinkType::from_code(u32_end(big_endian, bytes, 20)),
    })
}

/// Why a record at the window head could not be taken as-is.
enum RecordFailure {
    /// The header's lengths are impossible.
    BadHeader,
    /// The header parses but the body runs past end-of-stream.
    PastEof,
}

/// Basic record-header validation at the window head — exactly what the
/// strict reader checks, so clean files decode identically in both modes.
/// Returns `(timestamp_us, orig_len, end)` with `end` one past the body.
fn record_head(w: &[u8], h: &ClassicHeader) -> Result<(u64, u32, usize), RecordFailure> {
    let ts_sec = u32_end(h.big_endian, w, 0) as u64;
    let ts_frac = u32_end(h.big_endian, w, 4) as u64;
    let caplen = u32_end(h.big_endian, w, 8);
    let orig_len = u32_end(h.big_endian, w, 12);
    if caplen > MAX_SANE_CAPLEN || caplen > orig_len {
        return Err(RecordFailure::BadHeader);
    }
    let end = RECORD_HEADER_LEN + caplen as usize;
    if end > w.len() {
        return Err(RecordFailure::PastEof);
    }
    let micros = if h.nanos { ts_frac / 1000 } else { ts_frac };
    Ok((ts_sec * 1_000_000 + micros, orig_len, end))
}

/// Resync plausibility at the window head: stricter than [`record_head`] so
/// a scan does not lock onto payload bytes that merely look like a header.
fn plausible_record(w: &[u8], h: &ClassicHeader, last_sec: Option<u64>) -> bool {
    if w.len() < RECORD_HEADER_LEN {
        return false;
    }
    let ts_sec = u32_end(h.big_endian, w, 0) as u64;
    let ts_frac = u32_end(h.big_endian, w, 4) as u64;
    let caplen = u32_end(h.big_endian, w, 8);
    let orig_len = u32_end(h.big_endian, w, 12);
    let frac_bound = if h.nanos { 1_000_000_000 } else { 1_000_000 };
    if ts_frac >= frac_bound
        || caplen > MAX_SANE_CAPLEN
        || caplen > orig_len
        || orig_len > MAX_SANE_CAPLEN
    {
        return false;
    }
    if let Some(last) = last_sec {
        if ts_sec.abs_diff(last) > RESYNC_TS_TOLERANCE_S {
            return false;
        }
    }
    let next = RECORD_HEADER_LEN + caplen as usize;
    if next > w.len() {
        return false;
    }
    // Double confirmation: the stream must end exactly here, or the next
    // header must also look sane. (`next == w.len()` implies eof: a
    // non-exhausted window always holds more than one record's lookahead.)
    if next == w.len() {
        return true;
    }
    if next + RECORD_HEADER_LEN > w.len() {
        return false; // trailing sliver that can't be a record
    }
    let n_frac = u32_end(h.big_endian, w, next + 4) as u64;
    let n_caplen = u32_end(h.big_endian, w, next + 8);
    let n_orig = u32_end(h.big_endian, w, next + 12);
    n_frac < frac_bound && n_caplen <= MAX_SANE_CAPLEN && n_caplen <= n_orig
}

/// A lossy, resynchronizing classic-pcap reader over any byte stream, in
/// O(window) memory. Records *and* [`IngestReport`] accounting are the same
/// for any chunking of the source's reads. Only an unusable global header
/// (bad magic, truncated, wrong version) is a hard error — there is nothing
/// to recover without it.
pub struct LossyPcapStream<R> {
    src: ChunkedSource<R>,
    header: ClassicHeader,
    report: IngestReport,
    last_sec: Option<u64>,
    just_resynced: bool,
    /// Mid-resync-scan across a [`Polled::Pending`] return: re-entry resumes
    /// the scan instead of re-counting the resync entry.
    resyncing: bool,
    pending: usize,
}

impl<R: Read> LossyPcapStream<R> {
    /// Wraps a byte stream and validates the global header — the one part
    /// of the file without which there is nothing to recover. On a live
    /// (`WouldBlock`) source this waits until the header bytes arrive or the
    /// source ends.
    pub fn new(inner: R) -> Result<LossyPcapStream<R>, PcapError> {
        let mut src = ChunkedSource::new(inner);
        loop {
            let status = src.fill()?;
            if status == FillStatus::Full || src.window().len() >= GLOBAL_HEADER_LEN {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let header = parse_global_header(src.window())?;
        src.consume(GLOBAL_HEADER_LEN);
        Ok(LossyPcapStream {
            src,
            header,
            report: IngestReport::default(),
            last_sec: None,
            just_resynced: false,
            resyncing: false,
            pending: 0,
        })
    }

    /// The file's data-link type.
    pub fn link(&self) -> LinkType {
        self.header.link
    }

    /// The accounting so far; final once `next_packet` returns `Ok(None)`.
    pub fn report(&self) -> &IngestReport {
        &self.report
    }

    /// The next surviving record; `Ok(None)` at end of stream. The returned
    /// [`PacketRef`] borrows the internal window and is invalidated by the
    /// next call.
    ///
    /// Blocking-source convenience over [`LossyPcapStream::poll_packet`]: a
    /// non-blocking source that reports [`Polled::Pending`] surfaces here as
    /// a [`std::io::ErrorKind::WouldBlock`] error.
    pub fn next_packet(&mut self) -> Result<Option<PacketRef<'_>>, PcapError> {
        match self.poll_packet()? {
            Polled::Packet(p) => Ok(Some(p)),
            Polled::End => Ok(None),
            Polled::Pending => Err(PcapError::Io(std::io::ErrorKind::WouldBlock.into())),
        }
    }

    /// Non-blocking decode step; see the module docs on live sources. On
    /// [`Polled::Pending`] no observable state (position, accounting)
    /// changes, so any interleaving of polls converges to the whole-stream
    /// decode of the final bytes.
    pub fn poll_packet(&mut self) -> Result<Polled<PacketRef<'_>>, PcapError> {
        self.src.consume(self.pending);
        self.pending = 0;
        let (timestamp_us, orig_len, end) = loop {
            if self.resyncing {
                loop {
                    if self.src.fill()? == FillStatus::Partial {
                        return Ok(Polled::Pending);
                    }
                    let w = self.src.window();
                    if w.len() < RECORD_HEADER_LEN {
                        // Trailing sliver too small for a record: the
                        // scan discards it without a truncated-tail
                        // flag, same as a whole-stream decode.
                        self.report.bytes_skipped += w.len() as u64;
                        let n = w.len();
                        self.src.consume(n);
                        return Ok(Polled::End);
                    }
                    if plausible_record(w, &self.header, self.last_sec) {
                        break;
                    }
                    self.src.consume(1);
                    self.report.bytes_skipped += 1;
                }
                self.resyncing = false;
                self.just_resynced = true;
            }
            let status = self.src.fill()?;
            let len = self.src.window().len();
            if len == 0 {
                return Ok(match status {
                    FillStatus::Full => Polled::End,
                    FillStatus::Partial => Polled::Pending,
                });
            }
            if len < RECORD_HEADER_LEN {
                if status == FillStatus::Partial {
                    return Ok(Polled::Pending);
                }
                // The window invariant makes this end-of-stream by
                // construction: too few bytes for a record header.
                self.report.truncated_tail = true;
                self.report.bytes_skipped += len as u64;
                self.src.consume(len);
                return Ok(Polled::End);
            }
            match record_head(self.src.window(), &self.header) {
                Ok(rec) => {
                    // In-window sane record: a whole-stream decode over any
                    // extension of this window decodes it identically, so
                    // emitting is safe even on a partial window.
                    self.last_sec = Some(rec.0 / 1_000_000);
                    if self.just_resynced {
                        self.report.records_recovered += 1;
                        self.just_resynced = false;
                    } else {
                        self.report.records_ok += 1;
                    }
                    break rec;
                }
                Err(_) if status == FillStatus::Partial => {
                    // A body not yet arrived looks like PastEof, and even a
                    // bad header must not start a resync before the scan's
                    // full-window lookahead is available.
                    return Ok(Polled::Pending);
                }
                Err(failure) => {
                    if matches!(failure, RecordFailure::PastEof) {
                        self.report.truncated_tail = true;
                    }
                    self.report.resyncs += 1;
                    self.report.blocks_skipped += 1;
                    self.src.consume(1);
                    self.report.bytes_skipped += 1;
                    self.resyncing = true;
                }
            }
        };
        self.pending = end;
        let data = &self.src.window()[RECORD_HEADER_LEN..end];
        Ok(Polled::Packet(PacketRef {
            timestamp_us,
            orig_len,
            data,
        }))
    }
}

/// Block-length sanity at the window head, shared by in-stride parsing and
/// resync scanning: lead length in range and aligned, body inside the
/// stream, trailing length equal to the lead.
fn ng_block_sane(w: &[u8], big_endian: bool) -> Option<usize> {
    if w.len() < 12 {
        return None;
    }
    let total_len = u32_end(big_endian, w, 4) as usize;
    if total_len < 12 || !total_len.is_multiple_of(4) || total_len as u32 > MAX_SANE_CAPLEN * 2 {
        return None;
    }
    if total_len > w.len() {
        return None;
    }
    let trailing = u32_end(big_endian, w, total_len - 4) as usize;
    if trailing != total_len {
        return None;
    }
    Some(total_len)
}

/// Validates an SHB candidate at the window head; returns
/// `(big_endian, total_len)`.
fn ng_shb_sane(w: &[u8]) -> Option<(bool, usize)> {
    if w.len() < 12 {
        return None;
    }
    if u32::from_le_bytes([w[0], w[1], w[2], w[3]]) != BT_SHB {
        return None;
    }
    let magic_le = u32::from_le_bytes([w[8], w[9], w[10], w[11]]);
    let big_endian = match magic_le {
        BYTE_ORDER_MAGIC => false,
        m if m == BYTE_ORDER_MAGIC.swap_bytes() => true,
        _ => return None,
    };
    let total_len = ng_block_sane(w, big_endian)?;
    if total_len < 28 {
        return None;
    }
    // Version major must be 1.
    let major = {
        let b = [w[12], w[13]];
        if big_endian {
            u16::from_be_bytes(b)
        } else {
            u16::from_le_bytes(b)
        }
    };
    if major != 1 {
        return None;
    }
    Some((big_endian, total_len))
}

/// Which packet-bearing block type the scan loop stopped on.
enum NgBlockKind {
    Epb,
    Spb,
}

/// A lossy, resynchronizing pcapng reader over any byte stream, in
/// O(window) memory. Total: a stream with no recoverable section yields zero
/// packets with every byte accounted as skipped; only source I/O can error.
pub struct LossyPcapNgStream<R> {
    src: ChunkedSource<R>,
    report: IngestReport,
    big_endian: bool,
    started: bool,
    interfaces: Vec<Option<Interface>>,
    just_resynced: bool,
    /// Mid-resync-scan across a [`Polled::Pending`] return; see
    /// [`LossyPcapStream`].
    resyncing: bool,
    pending: usize,
}

impl<R: Read> LossyPcapNgStream<R> {
    /// Wraps a byte stream. Nothing is validated up front: pcapng recovery
    /// can start mid-stream at any Section Header Block.
    pub fn new(inner: R) -> LossyPcapNgStream<R> {
        LossyPcapNgStream {
            src: ChunkedSource::new(inner),
            report: IngestReport::default(),
            big_endian: false,
            started: false,
            interfaces: Vec::new(),
            just_resynced: false,
            resyncing: false,
            pending: 0,
        }
    }

    /// The accounting so far; final once `next_packet` returns `Ok(None)`.
    pub fn report(&self) -> &IngestReport {
        &self.report
    }

    /// The next surviving packet; `Ok(None)` at end of stream. The returned
    /// [`NgPacketRef`] borrows the internal window and is invalidated by the
    /// next call.
    ///
    /// Blocking-source convenience over [`LossyPcapNgStream::poll_packet`]:
    /// a non-blocking source that reports [`Polled::Pending`] surfaces here
    /// as a [`std::io::ErrorKind::WouldBlock`] error.
    pub fn next_packet(&mut self) -> Result<Option<NgPacketRef<'_>>, PcapError> {
        match self.poll_packet()? {
            Polled::Packet(p) => Ok(Some(p)),
            Polled::End => Ok(None),
            Polled::Pending => Err(PcapError::Io(std::io::ErrorKind::WouldBlock.into())),
        }
    }

    /// Non-blocking decode step; see the module docs on live sources. On
    /// [`Polled::Pending`] no observable state (position, accounting)
    /// changes, so any interleaving of polls converges to the whole-stream
    /// decode of the final bytes.
    pub fn poll_packet(&mut self) -> Result<Polled<NgPacketRef<'_>>, PcapError> {
        self.src.consume(self.pending);
        self.pending = 0;
        let (kind, total_len) = loop {
            if self.resyncing {
                loop {
                    if self.src.fill()? == FillStatus::Partial {
                        return Ok(Polled::Pending);
                    }
                    let w = self.src.window();
                    if w.len() < 12 {
                        self.report.bytes_skipped += w.len() as u64;
                        let n = w.len();
                        self.src.consume(n);
                        return Ok(Polled::End);
                    }
                    if ng_shb_sane(w).is_some() {
                        break;
                    }
                    if self.started {
                        let block_type = u32_end(self.big_endian, w, 0);
                        if matches!(block_type, BT_IDB | BT_EPB | BT_SPB)
                            && ng_block_sane(w, self.big_endian).is_some()
                        {
                            break;
                        }
                    }
                    self.src.consume(1);
                    self.report.bytes_skipped += 1;
                }
                self.resyncing = false;
                self.just_resynced = true;
            }
            let status = self.src.fill()?;
            let len = self.src.window().len();
            if len == 0 {
                return Ok(match status {
                    FillStatus::Full => Polled::End,
                    FillStatus::Partial => Polled::Pending,
                });
            }
            if len < 12 {
                if status == FillStatus::Partial {
                    return Ok(Polled::Pending);
                }
                self.report.truncated_tail = true;
                self.report.bytes_skipped += len as u64;
                self.src.consume(len);
                return Ok(Polled::End);
            }
            // SHB first: its type is identifiable before endianness is known.
            if let Some((be, shb_len)) = ng_shb_sane(self.src.window()) {
                self.big_endian = be;
                self.started = true;
                self.interfaces.clear();
                self.src.consume(shb_len);
                continue;
            }
            let in_stride = if self.started {
                ng_block_sane(self.src.window(), self.big_endian)
            } else {
                None
            };
            match in_stride {
                Some(total_len) => {
                    let block_type = u32_end(self.big_endian, self.src.window(), 0);
                    match block_type {
                        BT_IDB => {
                            let parsed =
                                parse_idb(self.big_endian, &self.src.window()[8..total_len - 4]);
                            match parsed {
                                Ok(iface) => self.interfaces.push(Some(iface)),
                                Err(_) => {
                                    // Keep interface ids aligned: the slot
                                    // exists but is unusable; its packets
                                    // are skipped.
                                    self.interfaces.push(None);
                                    self.report.blocks_skipped += 1;
                                }
                            }
                            self.src.consume(total_len);
                        }
                        BT_EPB | BT_SPB => {
                            let body = &self.src.window()[8..total_len - 4];
                            let decodes = if block_type == BT_EPB {
                                parse_epb_ref(self.big_endian, body, &self.interfaces).is_ok()
                            } else {
                                parse_spb_ref(self.big_endian, body, &self.interfaces).is_ok()
                            };
                            if decodes {
                                if self.just_resynced {
                                    self.report.records_recovered += 1;
                                    self.just_resynced = false;
                                } else {
                                    self.report.records_ok += 1;
                                }
                                let kind = if block_type == BT_EPB {
                                    NgBlockKind::Epb
                                } else {
                                    NgBlockKind::Spb
                                };
                                break (kind, total_len);
                            }
                            self.report.blocks_skipped += 1;
                            self.src.consume(total_len);
                        }
                        _ => self.src.consume(total_len), // unknown: skipped by length
                    }
                }
                None if status == FillStatus::Partial => {
                    // The head may be a block whose tail has not arrived
                    // yet (and a resync needs full-window lookahead): wait.
                    return Ok(Polled::Pending);
                }
                None => {
                    // Resync: scan for the next self-consistent known block
                    // (the scan itself runs at the top of the outer loop).
                    self.report.resyncs += 1;
                    self.report.blocks_skipped += 1;
                    self.src.consume(1);
                    self.report.bytes_skipped += 1;
                    self.resyncing = true;
                }
            }
        };
        self.pending = total_len;
        let body = &self.src.window()[8..total_len - 4];
        let pkt = match kind {
            NgBlockKind::Epb => parse_epb_ref(self.big_endian, body, &self.interfaces),
            NgBlockKind::Spb => parse_spb_ref(self.big_endian, body, &self.interfaces),
        }
        .expect("block decoded in the scan loop");
        Ok(Polled::Packet(pkt))
    }
}

/// Drains a lossy classic stream: link type, surviving packets, and the
/// final report.
#[cfg(test)]
pub(crate) fn drain_classic<R: Read>(
    src: R,
) -> Result<(LinkType, Vec<crate::PcapPacket>, IngestReport), PcapError> {
    let mut s = LossyPcapStream::new(src)?;
    let mut out = Vec::new();
    while let Some(p) = s.next_packet()? {
        out.push(p.to_owned());
    }
    Ok((s.link(), out, s.report))
}

/// Drains a lossy pcapng stream over a source that cannot fail: surviving
/// packets and the final report.
#[cfg(test)]
pub(crate) fn drain_ng<R: Read>(src: R) -> (Vec<crate::NgPacket>, IngestReport) {
    let mut s = LossyPcapNgStream::new(src);
    let mut out = Vec::new();
    while let Some(p) = s.next_packet().expect("source cannot fail") {
        out.push(p.to_owned());
    }
    (out, s.report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{corrupt_bytes, ChaosConfig, ChaosRng};
    use crate::pcapng::PcapNgWriter;
    use crate::writer::PcapWriter;
    use crate::PcapPacket;

    /// A reader that hands out at most `max` bytes per call, to exercise
    /// every possible record-straddles-chunk-boundary alignment.
    struct SmallReads<'a> {
        bytes: &'a [u8],
        pos: usize,
        max: usize,
    }

    impl Read for SmallReads<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.max).min(self.bytes.len() - self.pos);
            buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    fn small(bytes: &[u8], max: usize) -> SmallReads<'_> {
        SmallReads { bytes, pos: 0, max }
    }

    fn classic_file(n: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = PcapWriter::new(&mut buf, LinkType::Radiotap, 0).unwrap();
        for i in 0..n {
            let data: Vec<u8> = (0..40).map(|b| (b + i) as u8).collect();
            w.write_packet(1_000_000 + i as u64 * 1_000, &data).unwrap();
        }
        buf
    }

    fn ng_file(n: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = PcapNgWriter::new(&mut buf, LinkType::Radiotap, 0).unwrap();
        for i in 0..n {
            let data: Vec<u8> = (0..40).map(|b| (b + i) as u8).collect();
            w.write_packet(1_000_000 + i as u64 * 1_000, &data).unwrap();
        }
        buf
    }

    #[test]
    fn classic_chunking_is_invisible_on_clean_files() {
        let buf = classic_file(60);
        let whole = drain_classic(&buf[..]).unwrap();
        for max in [1, 7, 64, 4096] {
            let trickled = drain_classic(small(&buf, max)).unwrap();
            assert_eq!(trickled, whole, "read granularity {max}");
        }
        assert!(whole.2.is_clean());
    }

    #[test]
    fn ng_chunking_is_invisible_on_clean_files() {
        let buf = ng_file(60);
        let whole = drain_ng(&buf[..]);
        for max in [1, 7, 64, 4096] {
            assert_eq!(drain_ng(small(&buf, max)), whole, "read granularity {max}");
        }
        assert!(whole.1.is_clean());
    }

    #[test]
    fn classic_chunking_is_invisible_under_chaos() {
        for seed in 0..40u64 {
            let mut buf = classic_file(30);
            let mut rng = ChaosRng::new(seed);
            let cfg = ChaosConfig {
                bit_flips_per_kb: 4.0,
                truncate: 0.3,
                garbage_insert: 0.5,
                length_blast: 0.5,
            };
            corrupt_bytes(&mut buf, GLOBAL_HEADER_LEN, &cfg, &mut rng);
            let whole = drain_classic(&buf[..]).unwrap();
            for max in [1, 13, 256] {
                let trickled = drain_classic(small(&buf, max)).unwrap();
                assert_eq!(trickled, whole, "seed {seed} granularity {max}");
            }
        }
    }

    #[test]
    fn ng_chunking_is_invisible_under_chaos() {
        for seed in 0..40u64 {
            let mut buf = ng_file(30);
            let mut rng = ChaosRng::new(seed ^ 0xA5A5);
            let cfg = ChaosConfig {
                bit_flips_per_kb: 4.0,
                truncate: 0.3,
                garbage_insert: 0.5,
                length_blast: 0.5,
            };
            corrupt_bytes(&mut buf, 0, &cfg, &mut rng);
            let whole = drain_ng(&buf[..]);
            for max in [1, 13, 256] {
                let trickled = drain_ng(small(&buf, max));
                assert_eq!(trickled, whole, "seed {seed} granularity {max}");
            }
        }
    }

    #[test]
    fn classic_stream_reports_header_errors() {
        assert!(matches!(
            LossyPcapStream::new(&[0u8; 40][..]).err(),
            Some(PcapError::BadMagic(_))
        ));
        assert!(matches!(
            LossyPcapStream::new(&[1u8, 2, 3][..]).err(),
            Some(PcapError::TruncatedFile)
        ));
    }

    #[test]
    fn packet_refs_borrow_then_convert() {
        let buf = classic_file(3);
        let mut s = LossyPcapStream::new(&buf[..]).unwrap();
        let p = s.next_packet().unwrap().unwrap();
        assert_eq!(p.timestamp_us, 1_000_000);
        assert_eq!(p.data.len(), 40);
        assert!(!p.is_truncated());
        let owned = p.to_owned();
        assert_eq!(owned.data, p.data);
        assert_eq!(s.link(), LinkType::Radiotap);
    }

    /// A reader that serves bytes in small slices with a `WouldBlock` error
    /// interleaved before every successful read, imitating a tailed file
    /// that grows while being polled.
    struct BlockyReads<'a> {
        bytes: &'a [u8],
        pos: usize,
        max: usize,
        block_next: bool,
    }

    impl Read for BlockyReads<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.block_next && self.pos < self.bytes.len() {
                self.block_next = false;
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            self.block_next = true;
            let n = buf.len().min(self.max).min(self.bytes.len() - self.pos);
            buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    fn poll_classic(bytes: &[u8], max: usize) -> (Vec<PcapPacket>, IngestReport) {
        let src = BlockyReads {
            bytes,
            pos: 0,
            max,
            block_next: false,
        };
        let mut s = LossyPcapStream::new(src).unwrap();
        let mut out = Vec::new();
        loop {
            match s.poll_packet().unwrap() {
                Polled::Packet(p) => out.push(p.to_owned()),
                Polled::Pending => continue, // next poll sees more bytes
                Polled::End => break,
            }
        }
        (out, *s.report())
    }

    fn poll_ng(bytes: &[u8], max: usize) -> (Vec<crate::NgPacket>, IngestReport) {
        let src = BlockyReads {
            bytes,
            pos: 0,
            max,
            block_next: true,
        };
        let mut s = LossyPcapNgStream::new(src);
        let mut out = Vec::new();
        loop {
            match s.poll_packet().unwrap() {
                Polled::Packet(p) => out.push(p.to_owned()),
                Polled::Pending => continue,
                Polled::End => break,
            }
        }
        (out, *s.report())
    }

    #[test]
    fn classic_polling_converges_to_whole_read_on_clean_files() {
        let buf = classic_file(60);
        let (_, pkts, report) = drain_classic(&buf[..]).unwrap();
        for max in [7, 64, 4096] {
            let polled = poll_classic(&buf, max);
            assert_eq!(polled, (pkts.clone(), report), "granularity {max}");
        }
    }

    #[test]
    fn ng_polling_converges_to_whole_read_on_clean_files() {
        let buf = ng_file(60);
        let whole = drain_ng(&buf[..]);
        for max in [7, 64, 4096] {
            assert_eq!(poll_ng(&buf, max), whole, "granularity {max}");
        }
    }

    #[test]
    fn classic_polling_converges_to_whole_read_under_chaos() {
        for seed in 0..25u64 {
            let mut buf = classic_file(30);
            let mut rng = ChaosRng::new(seed);
            let cfg = ChaosConfig {
                bit_flips_per_kb: 4.0,
                truncate: 0.3,
                garbage_insert: 0.5,
                length_blast: 0.5,
            };
            corrupt_bytes(&mut buf, GLOBAL_HEADER_LEN, &cfg, &mut rng);
            let (_, pkts, report) = drain_classic(&buf[..]).unwrap();
            for max in [13, 256] {
                let polled = poll_classic(&buf, max);
                assert_eq!(
                    polled,
                    (pkts.clone(), report),
                    "seed {seed} granularity {max}"
                );
            }
        }
    }

    #[test]
    fn ng_polling_converges_to_whole_read_under_chaos() {
        for seed in 0..25u64 {
            let mut buf = ng_file(30);
            let mut rng = ChaosRng::new(seed ^ 0x5A5A);
            let cfg = ChaosConfig {
                bit_flips_per_kb: 4.0,
                truncate: 0.3,
                garbage_insert: 0.5,
                length_blast: 0.5,
            };
            corrupt_bytes(&mut buf, 0, &cfg, &mut rng);
            let whole = drain_ng(&buf[..]);
            for max in [13, 256] {
                assert_eq!(poll_ng(&buf, max), whole, "seed {seed} granularity {max}");
            }
        }
    }

    #[test]
    fn next_packet_surfaces_pending_as_would_block() {
        let buf = classic_file(3);
        // A source that blocks forever after the header: next_packet must
        // fail with WouldBlock, not spin or misreport end-of-stream.
        struct HeaderThenBlock<'a>(&'a [u8], usize);
        impl Read for HeaderThenBlock<'_> {
            fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
                if self.1 >= GLOBAL_HEADER_LEN {
                    return Err(std::io::ErrorKind::WouldBlock.into());
                }
                let n = out.len().min(GLOBAL_HEADER_LEN - self.1);
                out[..n].copy_from_slice(&self.0[self.1..self.1 + n]);
                self.1 += n;
                Ok(n)
            }
        }
        let mut s = LossyPcapStream::new(HeaderThenBlock(&buf, 0)).unwrap();
        match s.next_packet() {
            Err(PcapError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::WouldBlock),
            other => panic!("expected WouldBlock, got {other:?}"),
        }
        assert!(
            s.report().is_clean(),
            "a pending poll must not change accounting"
        );
    }

    #[test]
    fn chunked_source_window_invariant_holds() {
        // A stream longer than one refill: every fill either tops the window
        // past WINDOW_TARGET or exhausts the source.
        let bytes: Vec<u8> = (0..(REFILL_TARGET + 1234)).map(|i| i as u8).collect();
        let mut src = ChunkedSource::new(small(&bytes, 50_000));
        let mut seen = Vec::new();
        loop {
            src.fill().unwrap();
            assert!(
                src.window().len() >= WINDOW_TARGET || src.eof(),
                "window invariant violated"
            );
            if src.window().is_empty() {
                break;
            }
            let take = src.window().len().min(100_000);
            seen.extend_from_slice(&src.window()[..take]);
            src.consume(take);
        }
        assert_eq!(seen, bytes, "no bytes lost or duplicated across refills");
    }
}
