// Package cloudsim turns a plain ObjectStore into a behavioural model of a
// remote storage cloud: size-dependent PUT/GET latency, jitter, transient
// failures and whole-provider outages.
//
// The latency model is calibrated from the paper's Table 3 (PostgreSQL,
// plain objects, Lisbon → S3 US East): 386 kB objects took ≈692 ms and
// 10 081 kB objects ≈7 707 ms, i.e. a fixed per-request cost of roughly
// 400 ms plus ≈1.4 MB/s of effective upload bandwidth.
//
// The store sleeps its modelled latency on one of two clocks: a
// simclock.SimClock, where it costs virtual time (every measurement and
// simulation runs here, through sim.Rig), or the wall clock at 1:1 (the
// cmd/cloudsim server and the examples). The zero Profile is an instant
// store.
package cloudsim

import (
	"sync"
	"time"
)

// Profile describes the network behaviour between the primary site and the
// storage cloud.
type Profile struct {
	// BaseLatency is the fixed per-operation round-trip cost.
	BaseLatency time.Duration
	// UploadBandwidth is the effective PUT throughput in bytes/second.
	UploadBandwidth float64
	// DownloadBandwidth is the effective GET throughput in bytes/second.
	DownloadBandwidth float64
	// JitterFraction adds ±fraction of uniform noise to each latency.
	JitterFraction float64
}

// WANProfile models the paper's testbed: an academic network in Lisbon
// talking to Amazon S3 in US East (N. Virginia).
func WANProfile() Profile {
	return Profile{
		BaseLatency:       400 * time.Millisecond,
		UploadBandwidth:   1.4e6, // ≈1.4 MB/s effective, fitted from Table 3
		DownloadBandwidth: 6.0e6, // downloads are a few× faster than uploads
		JitterFraction:    0.10,
	}
}

// LANProfile models recovering inside the provider's region (an EC2 VM in
// the same region as the bucket), as used by Figure 7's second series.
func LANProfile() Profile {
	return Profile{
		BaseLatency:       8 * time.Millisecond,
		UploadBandwidth:   80e6,
		DownloadBandwidth: 120e6,
		JitterFraction:    0.05,
	}
}

// PutLatency returns the modelled latency for uploading size bytes.
func (p Profile) PutLatency(size int64) time.Duration {
	return p.BaseLatency + transfer(size, p.UploadBandwidth)
}

// GetLatency returns the modelled latency for downloading size bytes.
func (p Profile) GetLatency(size int64) time.Duration {
	return p.BaseLatency + transfer(size, p.DownloadBandwidth)
}

// transfer is the time size bytes take at bandwidth bytes/second; a zero
// bandwidth adds no transfer term.
func transfer(size int64, bandwidth float64) time.Duration {
	if bandwidth <= 0 {
		return 0
	}
	return time.Duration(float64(size) / bandwidth * float64(time.Second))
}

// jittered applies the profile's jitter to d, u being uniform in [0, 1).
func (p Profile) jittered(d time.Duration, u float64) time.Duration {
	if p.JitterFraction <= 0 {
		return d
	}
	f := 1 + p.JitterFraction*(2*u-1)
	return time.Duration(float64(d) * f)
}

// opRand draws the store's randomness per operation instead of from one
// shared stream: an operation's values hash (seed, op, object name, the
// clock reading, how many identical operations came before it at that
// reading). Operations racing within one instant of a simulation clock
// draw the same values whatever order they reach the store in, where a
// shared stream would deal them out in goroutine-scheduling order.
type opRand struct {
	seed uint64

	mu   sync.Mutex
	at   int64             // the clock reading seen counts
	seen map[string]uint64 // identical operations already drawn at `at`
}

// draw returns two independent uniform values in [0, 1) for one operation:
// the failure roll and the jitter.
func (r *opRand) draw(op, name string, now time.Time) (fail, jitter float64) {
	at := now.UnixNano()
	key := op + "\x00" + name
	r.mu.Lock()
	if at != r.at || r.seen == nil {
		r.at, r.seen = at, make(map[string]uint64)
	}
	n := r.seen[key]
	r.seen[key] = n + 1
	r.mu.Unlock()
	h := uint64(14695981039346656037) // FNV-1a
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	h ^= r.seed*0x9E3779B97F4A7C15 ^ uint64(at)*0xBF58476D1CE4E5B9 ^ (n+1)*0x94D049BB133111EB
	return unit(mix(h ^ 1)), unit(mix(h ^ 2))
}

// mix is the splitmix64 finalizer.
func mix(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	return h ^ h>>31
}

func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }
