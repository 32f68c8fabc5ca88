package cloud

import (
	"context"
	"sync"
)

// OpCounts is a snapshot of the operations a MeteredStore has served.
type OpCounts struct {
	Puts, Gets, Lists, Deletes int64
	// BytesUp / BytesDown are total payload bytes uploaded and downloaded.
	BytesUp, BytesDown int64
	// StoredBytes is the current total payload held by the store.
	StoredBytes int64
	// PeakStoredBytes is the maximum StoredBytes observed since creation
	// (or the last Reset).
	PeakStoredBytes int64
}

// MeteredStore wraps an ObjectStore, counting operations and payload
// bytes, and tracking the store's occupancy so that a monthly bill
// can be computed against a PriceSheet. This is the accounting substrate
// behind the reproduction of Figure 4 and Tables 2–3.
type MeteredStore struct {
	inner  ObjectStore
	prices PriceSheet

	mu     sync.Mutex
	counts OpCounts
	sizes  map[string]int64
}

var _ ObjectStore = (*MeteredStore)(nil)

// NewMeteredStore wraps inner, pricing operations with prices.
func NewMeteredStore(inner ObjectStore, prices PriceSheet) *MeteredStore {
	return &MeteredStore{inner: inner, prices: prices, sizes: make(map[string]int64)}
}

// Put implements ObjectStore.
func (m *MeteredStore) Put(ctx context.Context, name string, data []byte) error {
	if err := m.inner.Put(ctx, name, data); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.counts.Puts++
	m.counts.BytesUp += int64(len(data))
	m.counts.StoredBytes += int64(len(data)) - m.sizes[name]
	m.sizes[name] = int64(len(data))
	if m.counts.StoredBytes > m.counts.PeakStoredBytes {
		m.counts.PeakStoredBytes = m.counts.StoredBytes
	}
	return nil
}

// Get implements ObjectStore.
func (m *MeteredStore) Get(ctx context.Context, name string) ([]byte, error) {
	data, err := m.inner.Get(ctx, name)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.counts.Gets++
	m.counts.BytesDown += int64(len(data))
	return data, nil
}

// List implements ObjectStore.
func (m *MeteredStore) List(ctx context.Context, prefix string) ([]ObjectInfo, error) {
	infos, err := m.inner.List(ctx, prefix)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	m.counts.Lists++
	m.mu.Unlock()
	return infos, nil
}

// Delete implements ObjectStore.
func (m *MeteredStore) Delete(ctx context.Context, name string) error {
	if err := m.inner.Delete(ctx, name); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.counts.Deletes++
	m.counts.StoredBytes -= m.sizes[name]
	delete(m.sizes, name)
	return nil
}

// Counts returns a snapshot of the metering counters.
func (m *MeteredStore) Counts() OpCounts {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counts
}

// Reset zeroes the operation counters. Occupancy tracking is preserved so
// storage cost remains correct across benchmark phases.
func (m *MeteredStore) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	stored := m.counts.StoredBytes
	m.counts = OpCounts{StoredBytes: stored, PeakStoredBytes: stored}
}

// Bill prices the recorded activity: operation charges plus one month of
// storage for the *current* occupancy. It answers "what would a month of
// exactly this behaviour cost".
func (m *MeteredStore) Bill() Bill {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.counts
	return Bill{
		Storage:    m.prices.StorageCost(c.StoredBytes),
		Uploads:    m.prices.UploadCost(c.Puts, c.BytesUp),
		Downloads:  m.prices.DownloadCost(c.Gets, c.BytesDown),
		Lists:      float64(c.Lists) * m.prices.PerLIST,
		Deletes:    float64(c.Deletes) * m.prices.PerDELETE,
		priceSheet: m.prices,
	}
}

// Bill is an itemised monthly invoice for a MeteredStore.
type Bill struct {
	Storage   float64 // $ for one month of current occupancy
	Uploads   float64 // $ for PUT operations + ingress
	Downloads float64 // $ for GET operations + egress
	Lists     float64
	Deletes   float64

	priceSheet PriceSheet
}

// Total returns the invoice total in dollars.
func (b Bill) Total() float64 {
	return b.Storage + b.Uploads + b.Downloads + b.Lists + b.Deletes
}
