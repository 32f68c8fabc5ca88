package main

import (
	"context"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ginja-dr/ginja/internal/cloud"
	"github.com/ginja-dr/ginja/internal/cloud/s3http"
)

// captureBudget bounds the sealed objects a traced run keeps for the
// sealer/codec replay.
const (
	captureBudget  = 32 << 20
	captureObjects = 48
)

// meterStore is the cloud.ObjectStore handed to core.New. It always counts
// operations and bytes and tracks how many bytes the bucket holds (the cost
// metrics need them in every run); with a tracer it also times every call,
// records spans and keeps a sample of sealed objects for replay.
type meterStore struct {
	inner cloud.ObjectStore
	tr    *tracer

	putCount, putBytes      atomic.Int64
	getCount, getBytes      atomic.Int64
	listCount, deleteCount  atomic.Int64
	errors                  atomic.Int64
	putNs, getNs            atomic.Int64
	listNs, deleteNs        atomic.Int64
	inflight, inflightMax   atomic.Int64
	mu                      sync.Mutex
	sizes                   map[string]int64 // object → stored size
	curBytes, peakBytes     int64
	putLat                  []uint32 // ns, traced only
	captured                [][]byte // sealed objects kept for replay
	capturedBytes, putsSeen int64
	stride                  int64
}

func newMeterStore(inner cloud.ObjectStore, tr *tracer) *meterStore {
	return &meterStore{inner: inner, tr: tr, sizes: make(map[string]int64), stride: 1}
}

// resetPeak restarts bucket-peak tracking from the bytes held now.
func (m *meterStore) resetPeak() {
	m.mu.Lock()
	m.peakBytes = m.curBytes
	m.mu.Unlock()
}

// resetPutLatency drops the PUT latency samples taken so far.
func (m *meterStore) resetPutLatency() {
	m.mu.Lock()
	m.putLat = m.putLat[:0]
	m.mu.Unlock()
}

// putLatency returns the PUT latency samples sorted ascending.
func (m *meterStore) putLatency() []uint32 {
	m.mu.Lock()
	out := append([]uint32(nil), m.putLat...)
	m.mu.Unlock()
	sortUint32(out)
	return out
}

func (m *meterStore) bucketBytes() (cur, peak int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.curBytes, m.peakBytes
}

func (m *meterStore) Put(ctx context.Context, name string, data []byte) error {
	m.putCount.Add(1)
	m.putBytes.Add(int64(len(data)))
	var sp int
	var t0 time.Time
	if m.tr != nil {
		if n := m.inflight.Add(1); n > m.inflightMax.Load() {
			m.inflightMax.Store(n) // racy max; off by one at worst
		}
		sp = m.tr.beginCloud("cloud.put", name)
		t0 = time.Now()
	}
	err := m.inner.Put(ctx, name, data)
	if m.tr != nil {
		d := time.Since(t0)
		m.tr.endCloud(sp)
		m.inflight.Add(-1)
		m.putNs.Add(int64(d))
	}
	if err != nil {
		m.errors.Add(1)
		return err
	}
	m.mu.Lock()
	m.curBytes += int64(len(data)) - m.sizes[name]
	m.sizes[name] = int64(len(data))
	if m.curBytes > m.peakBytes {
		m.peakBytes = m.curBytes
	}
	if m.tr != nil {
		m.putLat = append(m.putLat, uint32(min(time.Since(t0), time.Duration(^uint32(0)))))
		m.capture(data)
	}
	m.mu.Unlock()
	return nil
}

// capture keeps every stride-th sealed object, halving the kept set and
// doubling the stride whenever it fills, so the sample spans the whole run
// within a fixed budget. Callers hold mu.
func (m *meterStore) capture(data []byte) {
	m.putsSeen++
	if m.putsSeen%m.stride != 0 {
		return
	}
	if len(m.captured) >= captureObjects {
		kept := m.captured[:0]
		m.capturedBytes = 0
		for i, c := range m.captured {
			if i%2 == 1 {
				kept = append(kept, c)
				m.capturedBytes += int64(len(c))
			}
		}
		m.captured = kept
		m.stride *= 2
		if m.putsSeen%m.stride != 0 {
			return
		}
	}
	if m.capturedBytes+int64(len(data)) > captureBudget {
		return
	}
	m.captured = append(m.captured, append([]byte(nil), data...))
	m.capturedBytes += int64(len(data))
}

// timed counts, times and traces one call that is not a PUT.
func (m *meterStore) timed(span, object string, count, ns *atomic.Int64, call func() error) error {
	count.Add(1)
	sp := m.tr.beginCloud(span, object)
	t0 := time.Now()
	err := call()
	ns.Add(int64(time.Since(t0)))
	m.tr.endCloud(sp)
	if err != nil {
		m.errors.Add(1)
	}
	return err
}

func (m *meterStore) Get(ctx context.Context, name string) (data []byte, err error) {
	err = m.timed("cloud.get", name, &m.getCount, &m.getNs, func() error {
		data, err = m.inner.Get(ctx, name)
		return err
	})
	m.getBytes.Add(int64(len(data)))
	return data, err
}

func (m *meterStore) List(ctx context.Context, prefix string) (infos []cloud.ObjectInfo, err error) {
	err = m.timed("cloud.list", prefix, &m.listCount, &m.listNs, func() error {
		infos, err = m.inner.List(ctx, prefix)
		return err
	})
	return infos, err
}

func (m *meterStore) Delete(ctx context.Context, name string) error {
	err := m.timed("cloud.delete", name, &m.deleteCount, &m.deleteNs, func() error {
		return m.inner.Delete(ctx, name)
	})
	if err != nil {
		return err
	}
	m.mu.Lock()
	m.curBytes -= m.sizes[name]
	delete(m.sizes, name)
	m.mu.Unlock()
	return nil
}

// httpBackend is sync_commit's store: a real net/http server on loopback in
// front of a MemStore, reached through s3http.Client — real sockets and the
// HTTP stack are on the commit's blocking path.
type httpBackend struct {
	srv       *http.Server
	transport *http.Transport
	client    *s3http.Client
	served    chan struct{}

	tr       *tracer
	requests atomic.Int64
	putCount atomic.Int64
	putNs    atomic.Int64
}

func newHTTPBackend(mem *cloud.MemStore, tr *tracer) (*httpBackend, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	b := &httpBackend{tr: tr, served: make(chan struct{})}
	inner := s3http.NewHandler(mem)
	b.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b.requests.Add(1)
		if tr == nil || r.Method != http.MethodPut {
			inner.ServeHTTP(w, r)
			return
		}
		sp := tr.beginServer(strings.TrimPrefix(r.URL.Path, "/o/"))
		t0 := time.Now()
		inner.ServeHTTP(w, r)
		b.putNs.Add(int64(time.Since(t0)))
		b.putCount.Add(1)
		tr.end(sp)
	})}
	go func() {
		defer close(b.served)
		b.srv.Serve(l) //nolint:errcheck // returns ErrServerClosed on close
	}()
	b.transport = &http.Transport{MaxIdleConnsPerHost: 16}
	b.client = s3http.NewClient("http://"+l.Addr().String(), &http.Client{Transport: b.transport})
	return b, nil
}

func (b *httpBackend) close() {
	b.transport.CloseIdleConnections()
	b.srv.Close() //nolint:errcheck // best-effort teardown of a loopback listener
	<-b.served
}
