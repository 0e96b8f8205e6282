//! Open-loop request generation against an in-process service: the
//! connection's input is fed on a fixed schedule regardless of how the
//! service keeps up, and each response line is timestamped as it is
//! written. Latency is measured from when a request was *due*, so a
//! stall that delays later sends is charged to those requests.

use std::io::{self, BufRead, Read, Write};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A `BufRead` over lines arriving on a channel: reads block until the
/// generator sends the next line, and end when it hangs up.
pub struct ChannelReader {
    rx: Receiver<String>,
    buf: Vec<u8>,
    pos: usize,
}

impl ChannelReader {
    /// Reads the lines `rx` delivers (each gets a trailing newline).
    pub fn new(rx: Receiver<String>) -> Self {
        ChannelReader {
            rx,
            buf: Vec::new(),
            pos: 0,
        }
    }
}

impl Read for ChannelReader {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let avail = self.fill_buf()?;
        let n = avail.len().min(out.len());
        out[..n].copy_from_slice(&avail[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for ChannelReader {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.pos >= self.buf.len() {
            match self.rx.recv() {
                Ok(line) => {
                    self.buf = line.into_bytes();
                    self.buf.push(b'\n');
                    self.pos = 0;
                }
                Err(_) => return Ok(&[]),
            }
        }
        Ok(&self.buf[self.pos..])
    }

    fn consume(&mut self, amt: usize) {
        self.pos = (self.pos + amt).min(self.buf.len());
    }
}

/// The response side of the connection: collects complete lines with
/// the instant their newline was written.
#[derive(Clone, Default)]
pub struct StampedWriter {
    inner: Arc<Mutex<Stamped>>,
}

#[derive(Default)]
struct Stamped {
    partial: Vec<u8>,
    lines: Vec<(Instant, String)>,
}

impl StampedWriter {
    /// The lines written so far, with their timestamps.
    pub fn take(&self) -> Vec<(Instant, String)> {
        std::mem::take(&mut self.lock().lines)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Stamped> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl Write for StampedWriter {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        let now = Instant::now();
        let mut s = self.lock();
        for &b in bytes {
            if b == b'\n' {
                let line = String::from_utf8_lossy(&s.partial).into_owned();
                s.partial.clear();
                s.lines.push((now, line));
            } else {
                s.partial.push(b);
            }
        }
        Ok(bytes.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// One open-loop request's timeline, in seconds since the session
/// origin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// When the schedule said to send it.
    pub due: f64,
    /// When the generator actually sent it.
    pub sent: f64,
    /// When the service acknowledged it (`accepted`).
    pub accepted: Option<f64>,
    /// When its final record (`done`) arrived.
    pub done: Option<f64>,
}

/// Aggregate lateness and latency of a set of requests.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Lateness {
    /// Due → done, seconds, for every completed request.
    pub latency: Vec<f64>,
    /// Due → accepted, seconds.
    pub admit_wait: Vec<f64>,
    /// Accepted → done, seconds.
    pub exec: Vec<f64>,
    /// Largest due → sent lag of the generator, seconds.
    pub gen_lag_max: f64,
    /// Requests without a `done` record (they miss every latency limit).
    pub missing: usize,
}

/// Accounts a schedule's timings: latency counts from the due time, not
/// the send time, so generator stalls are charged to the requests they
/// delayed.
pub fn lateness(timings: &[Timing]) -> Lateness {
    let mut out = Lateness::default();
    for t in timings {
        out.gen_lag_max = out.gen_lag_max.max(t.sent - t.due);
        if let Some(acc) = t.accepted {
            out.admit_wait.push(acc - t.due);
        }
        match t.done {
            Some(done) => {
                out.latency.push(done - t.due);
                if let Some(acc) = t.accepted {
                    out.exec.push(done - acc);
                }
            }
            None => out.missing += 1,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_counts_from_due_time_not_send_time() {
        let timings = [
            Timing {
                due: 0.000,
                sent: 0.000,
                accepted: Some(0.001),
                done: Some(0.010),
            },
            // The generator stalled 40 ms before sending this one.
            Timing {
                due: 0.010,
                sent: 0.050,
                accepted: Some(0.051),
                done: Some(0.060),
            },
        ];
        let l = lateness(&timings);
        assert!((l.latency[1] - 0.050).abs() < 1e-12);
        assert!((l.admit_wait[1] - 0.041).abs() < 1e-12);
        assert!((l.exec[1] - 0.009).abs() < 1e-12);
        assert!((l.gen_lag_max - 0.040).abs() < 1e-12);
        assert_eq!(l.missing, 0);
    }

    #[test]
    fn unfinished_requests_are_missing_not_fast() {
        let timings = [Timing {
            due: 0.0,
            sent: 0.0,
            accepted: Some(0.001),
            done: None,
        }];
        let l = lateness(&timings);
        assert!(l.latency.is_empty());
        assert_eq!(l.missing, 1);
        assert_eq!(l.admit_wait.len(), 1);
    }

    #[test]
    fn channel_reader_yields_lines_until_hangup() {
        let (tx, rx) = std::sync::mpsc::channel();
        tx.send("a".to_string()).unwrap();
        tx.send("bc".to_string()).unwrap();
        drop(tx);
        let lines: Vec<String> = ChannelReader::new(rx).lines().map(|l| l.unwrap()).collect();
        assert_eq!(lines, ["a", "bc"]);
    }

    #[test]
    fn stamped_writer_splits_on_newlines() {
        let mut w = StampedWriter::default();
        w.write_all(b"{\"x\":1}").unwrap();
        w.write_all(b"\n{\"y\"").unwrap();
        w.write_all(b":2}\n").unwrap();
        let lines: Vec<String> = w.take().into_iter().map(|(_, l)| l).collect();
        assert_eq!(lines, ["{\"x\":1}", "{\"y\":2}"]);
    }
}
