//! Network transfer-time models.

/// A token-bucket filter (TBF), the Linux traffic-control queuing
/// discipline the paper uses to emulate slow networks (§5.2, Figure 9).
/// Tokens refill at `rate` bytes/second up to `burst` bytes; a transfer
/// departing when the bucket is empty waits for tokens.
#[derive(Clone, Copy, Debug)]
pub struct TokenBucket {
    /// Sustained rate in bytes per second.
    pub rate: f64,
    /// Bucket depth in bytes.
    pub burst: f64,
}

impl TokenBucket {
    /// Creates a bucket.
    ///
    /// # Panics
    ///
    /// Panics if `rate` or `burst` is non-positive.
    pub fn new(rate: f64, burst: f64) -> Self {
        assert!(rate > 0.0, "rate must be positive");
        assert!(burst > 0.0, "burst must be positive");
        Self { rate, burst }
    }
}

/// Stateful token-bucket shaper: tracks the token level across transfers.
#[derive(Clone, Copy, Debug)]
pub struct TokenBucketState {
    bucket: TokenBucket,
    tokens: f64,
    last_time: f64,
}

impl TokenBucketState {
    /// Starts with a full bucket at time 0.
    pub fn new(bucket: TokenBucket) -> Self {
        Self {
            bucket,
            tokens: bucket.burst,
            last_time: 0.0,
        }
    }

    /// Returns the completion time of a transfer of `bytes` starting at
    /// `start`, consuming tokens; earlier of burst capacity or line rate.
    pub fn shape(&mut self, start: f64, bytes: f64) -> f64 {
        // Refill.
        let t = start.max(self.last_time);
        self.tokens =
            (self.tokens + (t - self.last_time) * self.bucket.rate).min(self.bucket.burst);
        self.last_time = t;
        if bytes <= self.tokens {
            self.tokens -= bytes;
            t
        } else {
            let deficit = bytes - self.tokens;
            self.tokens = 0.0;
            let done = t + deficit / self.bucket.rate;
            self.last_time = done;
            done
        }
    }
}

/// A point-to-point network model: per-message latency plus serialized
/// bandwidth, optionally shaped by a token bucket.
///
/// # Example
///
/// ```
/// use spp_comm::NetworkModel;
///
/// // 25 Gbps, 50 µs latency (the paper's cluster SLA).
/// let net = NetworkModel::new(25e9 / 8.0, 50e-6);
/// let t = net.transfer_time(3_125_000.0); // 1 ms of wire time
/// assert!((t - 0.00105).abs() < 1e-6);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct NetworkModel {
    /// Link bandwidth in bytes per second.
    pub bandwidth: f64,
    /// Per-message latency in seconds.
    pub latency: f64,
    /// Optional token-bucket shaping (slow-network experiments).
    pub tbf: Option<TokenBucket>,
}

impl NetworkModel {
    /// Creates an unshaped model.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth` is non-positive or `latency` negative.
    pub fn new(bandwidth: f64, latency: f64) -> Self {
        assert!(bandwidth > 0.0, "bandwidth must be positive");
        assert!(latency >= 0.0, "latency must be non-negative");
        Self {
            bandwidth,
            latency,
            tbf: None,
        }
    }

    /// The paper's cluster: AWS g5.8xlarge, 25 Gbps SLA, ~50 µs latency.
    pub fn aws_25gbps() -> Self {
        Self::new(25e9 / 8.0, 50e-6)
    }

    /// Adds token-bucket shaping at `rate_gbps` (Figure 9's slow networks).
    pub fn with_tbf_gbps(mut self, rate_gbps: f64) -> Self {
        let rate = rate_gbps * 1e9 / 8.0;
        self.tbf = Some(TokenBucket::new(rate, rate * 0.01));
        self
    }

    /// Effective sustained rate (bandwidth, capped by the TBF rate).
    pub fn effective_rate(&self) -> f64 {
        match self.tbf {
            Some(t) => self.bandwidth.min(t.rate),
            None => self.bandwidth,
        }
    }

    /// Time to move `bytes` point-to-point (latency + serialization at the
    /// effective rate). Stateless steady-state approximation of the TBF.
    pub fn transfer_time(&self, bytes: f64) -> f64 {
        self.latency + bytes / self.effective_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_adds_latency_and_serialization() {
        let net = NetworkModel::new(1e9, 1e-3);
        let t = net.transfer_time(1e9);
        assert!((t - 1.001).abs() < 1e-9);
    }

    #[test]
    fn tbf_caps_rate() {
        let net = NetworkModel::new(1e9, 0.0).with_tbf_gbps(1.0); // 125 MB/s
        assert!((net.effective_rate() - 125e6).abs() < 1.0);
        let t = net.transfer_time(125e6);
        assert!((t - 1.0).abs() < 1e-9);
    }

    #[test]
    fn tbf_faster_than_line_rate_is_ignored() {
        let net = NetworkModel::new(1e6, 0.0).with_tbf_gbps(100.0);
        assert_eq!(net.effective_rate(), 1e6);
    }

    #[test]
    fn stateful_bucket_burst_then_throttle() {
        let mut s = TokenBucketState::new(TokenBucket::new(100.0, 50.0));
        // First 50 bytes ride the burst: complete immediately.
        assert_eq!(s.shape(0.0, 50.0), 0.0);
        // Next 100 bytes must wait for refill: 1 second at rate 100.
        let done = s.shape(0.0, 100.0);
        assert!((done - 1.0).abs() < 1e-9);
        // After a long idle period the bucket refills to burst.
        let done2 = s.shape(100.0, 50.0);
        assert_eq!(done2, 100.0);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        NetworkModel::new(0.0, 0.0);
    }
}
