package sim

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"sync"

	"github.com/ginja-dr/ginja/internal/cloud"
	"github.com/ginja-dr/ginja/internal/simclock"
)

// errCrashed is what the crash store returns for a dead site's operations.
var errCrashed = errors.New("sim: primary site crashed")

// crashStore cuts a crashed site off from the cloud: every operation on a
// name under a killed prefix fails. A real dead machine stops mid-upload,
// it does not keep draining its queue while the replacement site
// recovers; and when the dead machine was one tenant of a fleet, the
// rest of the fleet — sharing the same bucket — keeps working. The solo
// run kills "", which is every name.
//
// Given a clock, it also records the site's trace: (virtual time, op,
// name) of every operation it is asked for, the crashed ones included.
type crashStore struct {
	inner cloud.ObjectStore
	clk   simclock.Clock // nil: no trace

	mu    sync.Mutex
	dead  []string // killed name prefixes
	trace []string
}

func (c *crashStore) kill(prefix string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dead = append(c.dead, prefix)
}

func (c *crashStore) revive(prefix string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dead = slices.DeleteFunc(c.dead, func(p string) bool { return p == prefix })
}

// traceHash is the FNV-1a hash of the trace in (time, op, name) order —
// the order goroutines racing within one virtual instant issue their
// operations in is not part of the schedule.
func (c *crashStore) traceHash() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	slices.Sort(c.trace)
	h := fnv.New64a()
	for _, line := range c.trace {
		h.Write([]byte(line)) //nolint:errcheck // hash writes never fail
	}
	return h.Sum64()
}

func (c *crashStore) check(op, name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.clk != nil {
		c.trace = append(c.trace, fmt.Sprintf("%020d %s %s\n", c.clk.Now().UnixNano(), op, name))
	}
	if slices.ContainsFunc(c.dead, func(p string) bool { return strings.HasPrefix(name, p) }) {
		return errCrashed
	}
	return nil
}

func (c *crashStore) Put(ctx context.Context, name string, data []byte) error {
	if err := c.check("put", name); err != nil {
		return err
	}
	return c.inner.Put(ctx, name, data)
}

func (c *crashStore) Get(ctx context.Context, name string) ([]byte, error) {
	if err := c.check("get", name); err != nil {
		return nil, err
	}
	return c.inner.Get(ctx, name)
}

func (c *crashStore) List(ctx context.Context, prefix string) ([]cloud.ObjectInfo, error) {
	if err := c.check("list", prefix); err != nil {
		return nil, err
	}
	return c.inner.List(ctx, prefix)
}

func (c *crashStore) Delete(ctx context.Context, name string) error {
	if err := c.check("delete", name); err != nil {
		return err
	}
	return c.inner.Delete(ctx, name)
}
