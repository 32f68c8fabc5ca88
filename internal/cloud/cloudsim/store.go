package cloudsim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"github.com/ginja-dr/ginja/internal/cloud"
	"github.com/ginja-dr/ginja/internal/simclock"
)

// ErrOutage is returned for every operation while the simulated provider
// is down (see Store.StartOutage), modelling the cloud outages of [28].
var ErrOutage = errors.New("cloudsim: provider outage")

// ErrInjected is the transient failure injected with FailureRate.
var ErrInjected = errors.New("cloudsim: injected transient failure")

// Options configures a simulated cloud store.
type Options struct {
	// Profile is the network behaviour model. The zero Profile is an
	// instant store: no round trip and no transfer time.
	Profile Profile
	// FailureRate is the probability (0..1) that an operation fails with
	// ErrInjected before reaching the backing store.
	FailureRate float64
	// Seed seeds the jitter/failure draws for reproducible runs (see
	// opRand: on a simulation clock they are a function of the seed and the
	// operation, not of the order concurrent operations arrive in).
	Seed int64
	// Clock supplies the latency-model sleeps. nil means the wall clock,
	// which sleeps the modelled latency in full; deterministic simulations
	// install a *simclock.SimClock so modelled latency costs virtual time
	// instead of real time.
	Clock simclock.Clock
}

// Store wraps an ObjectStore with the behavioural model.
type Store struct {
	inner cloud.ObjectStore
	opts  Options
	rand  *opRand
	clk   simclock.Clock

	down     atomic.Bool
	failBits atomic.Uint64 // current FailureRate as math.Float64bits
}

var _ cloud.ObjectStore = (*Store)(nil)

// New wraps inner with the simulated network behaviour in opts.
func New(inner cloud.ObjectStore, opts Options) *Store {
	if opts.Clock == nil {
		opts.Clock = simclock.Real()
	}
	s := &Store{inner: inner, opts: opts, rand: &opRand{seed: uint64(opts.Seed)}, clk: opts.Clock}
	s.failBits.Store(math.Float64bits(opts.FailureRate))
	return s
}

// StartOutage makes every subsequent operation fail with ErrOutage until
// EndOutage is called. This models a provider-scale disaster.
func (s *Store) StartOutage() { s.down.Store(true) }

// EndOutage restores service.
func (s *Store) EndOutage() { s.down.Store(false) }

// Down reports whether the simulated provider is currently unavailable.
func (s *Store) Down() bool { return s.down.Load() }

// SetFailureRate changes the transient-failure probability at runtime, so
// fault schedules can open and close flaky windows mid-run.
func (s *Store) SetFailureRate(rate float64) { s.failBits.Store(math.Float64bits(rate)) }

// FailureRate returns the current transient-failure probability.
func (s *Store) FailureRate() float64 { return math.Float64frombits(s.failBits.Load()) }

// gate admits one operation: it fails during an outage, or when the
// operation's failure roll lands under the current FailureRate. The
// admitted operation's jitter draw is returned.
func (s *Store) gate(ctx context.Context, op, name string) (jitter float64, err error) {
	if s.down.Load() {
		return 0, fmt.Errorf("%s: %w", op, ErrOutage)
	}
	fail, jitter := s.rand.draw(op, name, s.clk.Now())
	if fail < s.FailureRate() {
		return 0, fmt.Errorf("%s: %w", op, ErrInjected)
	}
	return jitter, ctx.Err()
}

// sleep waits out a modelled latency on the store's clock and honours
// context cancellation.
func (s *Store) sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	return simclock.SleepCtx(ctx, s.clk, d)
}

// Put implements cloud.ObjectStore with modelled upload latency.
func (s *Store) Put(ctx context.Context, name string, data []byte) error {
	u, err := s.gate(ctx, "put", name)
	if err != nil {
		return err
	}
	d := s.opts.Profile.jittered(s.opts.Profile.PutLatency(int64(len(data))), u)
	if err := s.sleep(ctx, d); err != nil {
		return err
	}
	return s.inner.Put(ctx, name, data)
}

// Get implements cloud.ObjectStore with modelled download latency.
func (s *Store) Get(ctx context.Context, name string) ([]byte, error) {
	u, err := s.gate(ctx, "get", name)
	if err != nil {
		return nil, err
	}
	data, err := s.inner.Get(ctx, name)
	if err != nil {
		return nil, err
	}
	d := s.opts.Profile.jittered(s.opts.Profile.GetLatency(int64(len(data))), u)
	if err := s.sleep(ctx, d); err != nil {
		return nil, err
	}
	return data, nil
}

// List implements cloud.ObjectStore; LISTs pay only the base latency.
func (s *Store) List(ctx context.Context, prefix string) ([]cloud.ObjectInfo, error) {
	if _, err := s.gate(ctx, "list", prefix); err != nil {
		return nil, err
	}
	if err := s.sleep(ctx, s.opts.Profile.BaseLatency); err != nil {
		return nil, err
	}
	return s.inner.List(ctx, prefix)
}

// Delete implements cloud.ObjectStore; DELETEs pay only the base latency.
func (s *Store) Delete(ctx context.Context, name string) error {
	if _, err := s.gate(ctx, "delete", name); err != nil {
		return err
	}
	if err := s.sleep(ctx, s.opts.Profile.BaseLatency); err != nil {
		return err
	}
	return s.inner.Delete(ctx, name)
}
