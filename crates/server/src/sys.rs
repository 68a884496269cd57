//! Readiness waiting: the daemon's one `unsafe` block.
//!
//! `std` exposes no `poll`/`epoll`, and this workspace builds offline
//! with no `libc` crate, so the event loop declares `poll(2)` itself
//! against the C library `std` already links. Everything unsafe about
//! that stays here: [`wait`] is a safe wrapper over one call.
//!
//! Unix only (the declaration and the flag values are POSIX; Linux and
//! the BSDs share them).

use std::io;
use std::os::fd::RawFd;
use std::time::{Duration, Instant};

/// Data to read (or, on a listener, a connection to accept).
pub(crate) const POLLIN: i16 = 0x001;
/// Writing will not block.
pub(crate) const POLLOUT: i16 = 0x004;
/// Error condition (reported whether requested or not).
pub(crate) const POLLERR: i16 = 0x008;
/// Hang-up (reported whether requested or not).
pub(crate) const POLLHUP: i16 = 0x010;
/// The descriptor is not open (reported whether requested or not).
pub(crate) const POLLNVAL: i16 = 0x020;

/// One `struct pollfd`: a descriptor, the events asked for, and the
/// events [`wait`] found.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

impl PollFd {
    /// Watches `fd` for `events` (a mask of the `POLL*` flags; 0 still
    /// reports errors and hang-ups).
    pub(crate) fn new(fd: RawFd, events: i16) -> Self {
        Self {
            fd,
            events,
            revents: 0,
        }
    }

    /// The events the last [`wait`] reported for this descriptor.
    pub(crate) fn revents(&self) -> i16 {
        self.revents
    }
}

#[cfg(any(target_os = "linux", target_os = "android"))]
type Nfds = std::ffi::c_ulong;
#[cfg(not(any(target_os = "linux", target_os = "android")))]
type Nfds = std::ffi::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout: std::ffi::c_int) -> std::ffi::c_int;
}

/// Blocks until at least one descriptor in `fds` is ready or `timeout`
/// passes (`None` waits indefinitely), then returns how many descriptors
/// have non-zero [`PollFd::revents`]. A signal interrupting the wait
/// restarts it with whatever time is left.
///
/// # Errors
///
/// Propagates `poll` failures other than `EINTR` (`ENOMEM`, or more
/// descriptors than the process may open).
pub(crate) fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let deadline = timeout.map(|t| Instant::now() + t);
    let nfds = Nfds::try_from(fds.len()).map_err(|_| io::Error::other("too many descriptors"))?;
    loop {
        let millis = match deadline {
            None => -1,
            Some(deadline) => ceil_millis(deadline.saturating_duration_since(Instant::now())),
        };
        // SAFETY: `fds` is a live, exclusively borrowed slice of
        // `#[repr(C)]` values laid out as `struct pollfd`, and `nfds` is
        // its length, so the kernel reads and writes only inside it. A
        // descriptor that is closed or negative is not undefined
        // behavior: `poll` reports it as `POLLNVAL` or skips it.
        let n = unsafe { poll(fds.as_mut_ptr(), nfds, millis) };
        if n >= 0 {
            return Ok(n as usize);
        }
        let error = io::Error::last_os_error();
        if error.kind() != io::ErrorKind::Interrupted {
            return Err(error);
        }
    }
}

/// `d` in whole milliseconds, rounded up so a sub-millisecond wait does
/// not become a busy 0 ms poll, capped at what `poll` accepts.
fn ceil_millis(d: Duration) -> std::ffi::c_int {
    let millis = d.as_nanos().div_ceil(1_000_000);
    std::ffi::c_int::try_from(millis).unwrap_or(std::ffi::c_int::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::io::Write;
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn a_pipe_holding_a_byte_reports_readable() {
        let (reader, mut writer) = std::io::pipe().unwrap();
        writer.write_all(b"x").unwrap();
        let mut fds = [PollFd::new(reader.as_raw_fd(), POLLIN)];
        let ready = wait(&mut fds, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(ready, 1);
        assert_eq!(fds[0].revents() & POLLIN, POLLIN);
    }

    #[test]
    fn an_empty_pipe_times_out_in_bounded_time() {
        let (reader, _writer) = std::io::pipe().unwrap();
        let mut fds = [PollFd::new(reader.as_raw_fd(), POLLIN)];
        let started = Instant::now();
        let ready = wait(&mut fds, Some(Duration::from_millis(20))).unwrap();
        let waited = started.elapsed();
        assert_eq!(ready, 0);
        assert_eq!(fds[0].revents(), 0);
        assert!(
            waited >= Duration::from_millis(20),
            "woke early: {waited:?}"
        );
        assert!(waited < Duration::from_secs(5), "overslept: {waited:?}");
    }

    #[test]
    fn a_closed_peer_reports_hang_up_or_readable_eof() {
        let (reader, writer) = std::io::pipe().unwrap();
        drop(writer);
        let mut fds = [PollFd::new(reader.as_raw_fd(), POLLIN)];
        assert_eq!(wait(&mut fds, Some(Duration::from_secs(5))).unwrap(), 1);
        assert_ne!(fds[0].revents() & (POLLHUP | POLLIN), 0);

        // The same over a socket pair, asking for no events at all: a
        // hang-up is reported regardless.
        let (local, remote) = UnixStream::pair().unwrap();
        drop(remote);
        let mut fds = [PollFd::new(local.as_raw_fd(), 0)];
        assert_eq!(wait(&mut fds, Some(Duration::from_secs(5))).unwrap(), 1);
        assert_ne!(fds[0].revents() & POLLHUP, 0);
    }

    #[test]
    fn an_empty_set_with_a_timeout_returns() {
        let started = Instant::now();
        assert_eq!(wait(&mut [], Some(Duration::from_millis(5))).unwrap(), 0);
        assert!(started.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn a_sub_millisecond_timeout_rounds_up_not_down() {
        assert_eq!(ceil_millis(Duration::ZERO), 0);
        assert_eq!(ceil_millis(Duration::from_micros(1)), 1);
        assert_eq!(ceil_millis(Duration::from_millis(7)), 7);
        assert_eq!(
            ceil_millis(Duration::from_secs(u64::MAX)),
            std::ffi::c_int::MAX
        );
    }
}
