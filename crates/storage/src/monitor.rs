//! Device monitoring — the `blktrace` stand-in.
//!
//! The paper's monitoring module "collects physical disk status using
//! blktrace and reports it to the management module"; the flush policy
//! fires when "the bandwidth usage of a block device is lower than one
//! tenth of its capacity". [`DeviceMonitor`] provides exactly that signal
//! — a sliding-window completed-bytes rate compared against device
//! capacity, which the policy engine samples once per control tick — plus
//! per-direction completion counters.

use iorch_metrics::WindowedRate;
use iorch_simcore::{SimDuration, SimTime};

use crate::request::{IoKind, IoRequest};

/// The paper's idleness threshold: bandwidth below 1/10 of capacity.
pub const IDLE_BANDWIDTH_FRACTION: f64 = 0.1;

/// Online statistics about one block device.
#[derive(Clone, Debug)]
pub struct DeviceMonitor {
    capacity_bw: u64,
    completed_bytes: WindowedRate,
    reads: u64,
    writes: u64,
    read_bytes: u64,
    write_bytes: u64,
}

impl DeviceMonitor {
    /// Monitor for a device with the given aggregate bandwidth capacity,
    /// sampling bandwidth over `window`.
    pub fn new(capacity_bw: u64, window: SimDuration) -> Self {
        DeviceMonitor {
            capacity_bw,
            completed_bytes: WindowedRate::new(window),
            reads: 0,
            writes: 0,
            read_bytes: 0,
            write_bytes: 0,
        }
    }

    /// Record a completed request.
    pub fn on_complete(&mut self, now: SimTime, req: &IoRequest) {
        self.completed_bytes.record(now, req.len);
        match req.kind {
            IoKind::Read => {
                self.reads += 1;
                self.read_bytes += req.len;
            }
            IoKind::Write => {
                self.writes += 1;
                self.write_bytes += req.len;
            }
        }
    }

    /// Bandwidth over the sampling window as a fraction of capacity.
    pub fn bandwidth_fraction(&mut self, now: SimTime) -> f64 {
        if self.capacity_bw == 0 {
            return 0.0;
        }
        self.completed_bytes.rate_per_sec(now) / self.capacity_bw as f64
    }

    /// The paper's flush trigger: usage below one tenth of capacity.
    pub fn is_underutilized(&mut self, now: SimTime) -> bool {
        self.bandwidth_fraction(now) < IDLE_BANDWIDTH_FRACTION
    }

    /// (reads, writes) completed so far.
    pub fn op_counts(&self) -> (u64, u64) {
        (self.reads, self.writes)
    }

    /// (read bytes, write bytes) completed so far.
    pub fn byte_counts(&self) -> (u64, u64) {
        (self.read_bytes, self.write_bytes)
    }

    /// Device bandwidth capacity in bytes/s.
    pub fn capacity_bw(&self) -> u64 {
        self.capacity_bw
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{RequestId, StreamId};

    fn req(kind: IoKind, len: u64) -> IoRequest {
        IoRequest {
            id: RequestId(0),
            kind,
            stream: StreamId(0),
            offset: 0,
            len,
            submitted: SimTime::ZERO,
        }
    }

    #[test]
    fn idle_device_is_underutilized() {
        let mut m = DeviceMonitor::new(1_000_000, SimDuration::from_millis(100));
        assert!(m.is_underutilized(SimTime::from_millis(500)));
        assert_eq!(m.bandwidth_fraction(SimTime::from_millis(500)), 0.0);
    }

    #[test]
    fn busy_device_is_not_underutilized() {
        // Capacity 1 MB/s, window 100ms -> 100_000 bytes fill the window.
        let mut m = DeviceMonitor::new(1_000_000, SimDuration::from_millis(100));
        let t = SimTime::from_millis(200);
        m.on_complete(t, &req(IoKind::Read, 50_000));
        // 50_000 bytes / 0.1s = 500_000 B/s = 50% of capacity.
        assert!((m.bandwidth_fraction(t) - 0.5).abs() < 1e-9);
        assert!(!m.is_underutilized(t));
        // After the window slides past, it is idle again.
        assert!(m.is_underutilized(SimTime::from_millis(400)));
    }

    #[test]
    fn threshold_is_one_tenth() {
        let mut m = DeviceMonitor::new(1_000_000, SimDuration::from_millis(100));
        let t = SimTime::from_millis(100);
        m.on_complete(t, &req(IoKind::Write, 9_000)); // 9% of capacity
        assert!(m.is_underutilized(t));
        m.on_complete(t, &req(IoKind::Write, 2_000)); // now 11%
        assert!(!m.is_underutilized(t));
    }

    #[test]
    fn counters_split_by_direction() {
        let mut m = DeviceMonitor::new(1_000_000, SimDuration::from_millis(100));
        m.on_complete(SimTime::ZERO, &req(IoKind::Read, 100));
        m.on_complete(SimTime::ZERO, &req(IoKind::Write, 200));
        m.on_complete(SimTime::ZERO, &req(IoKind::Write, 300));
        assert_eq!(m.op_counts(), (1, 2));
        assert_eq!(m.byte_counts(), (100, 500));
    }
}
