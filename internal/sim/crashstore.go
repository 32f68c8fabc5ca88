package sim

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"

	"github.com/ginja-dr/ginja/internal/cloud"
)

// errCrashed is what the crash store returns for a dead site's operations.
var errCrashed = errors.New("sim: primary site crashed")

// crashStore cuts a crashed site off from the cloud: every operation on a
// name under a killed prefix fails. A real dead machine stops mid-upload,
// it does not keep draining its queue while the replacement site
// recovers; and when the dead machine was one tenant of a fleet, the
// rest of the fleet — sharing the same bucket — keeps working. The solo
// run kills "", which is every name.
type crashStore struct {
	inner cloud.ObjectStore

	mu   sync.Mutex
	dead []string // killed name prefixes
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

func (c *crashStore) check(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if slices.ContainsFunc(c.dead, func(p string) bool { return strings.HasPrefix(name, p) }) {
		return errCrashed
	}
	return nil
}

func (c *crashStore) Put(ctx context.Context, name string, data []byte) error {
	if err := c.check(name); err != nil {
		return err
	}
	return c.inner.Put(ctx, name, data)
}

func (c *crashStore) Get(ctx context.Context, name string) ([]byte, error) {
	if err := c.check(name); err != nil {
		return nil, err
	}
	return c.inner.Get(ctx, name)
}

func (c *crashStore) List(ctx context.Context, prefix string) ([]cloud.ObjectInfo, error) {
	if err := c.check(prefix); err != nil {
		return nil, err
	}
	return c.inner.List(ctx, prefix)
}

func (c *crashStore) Delete(ctx context.Context, name string) error {
	if err := c.check(name); err != nil {
		return err
	}
	return c.inner.Delete(ctx, name)
}
