package sealer

import (
	"bytes"
	"compress/zlib"
	"context"
	"crypto/cipher"
	crand "crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// rowPayload is n bytes of seeded, JSON-like row text: compressible, and
// different in every segment.
func rowPayload(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	var b bytes.Buffer
	b.Grow(n + 64)
	for b.Len() < n {
		fmt.Fprintf(&b, `{"id":%d,"qty":%d,"name":"item-%x"},`, rng.Int63(), rng.Intn(100), rng.Int31())
	}
	return b.Bytes()[:n]
}

// segmentEdgeSizes are the payload sizes around every place the segmented
// body writer changes shape, plus a checkpoint-sized and a part-sized one.
var segmentEdgeSizes = []int{0, 1, segmentSize - 1, segmentSize, segmentSize + 1,
	2*segmentSize - 1, 2*segmentSize + 1, 6_700_000, 20 << 20}

func TestSegmentedRoundTrip(t *testing.T) {
	big := rowPayload(20<<20, 1)
	for name, s := range configs(t) {
		for _, n := range segmentEdgeSizes {
			sealed, err := s.Seal(big[:n])
			if err != nil {
				t.Fatalf("%s/%d: Seal: %v", name, n, err)
			}
			got, err := s.Open(sealed)
			if err != nil {
				t.Fatalf("%s/%d: Open: %v", name, n, err)
			}
			if !bytes.Equal(got, big[:n]) {
				t.Fatalf("%s/%d: round trip mismatch", name, n)
			}
		}
	}
}

// zlibEnvelope is a compressed envelope as the pre-segment sealer wrote
// it: one zlib.Writer pass over the whole payload, encrypted when s
// encrypts, under s's MAC key.
func zlibEnvelope(t *testing.T, s *Sealer, payload []byte) []byte {
	t.Helper()
	var z bytes.Buffer
	zw, err := zlib.NewWriterLevel(&z, zlib.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	zw.Write(payload) //nolint:errcheck // bytes.Buffer
	zw.Close()        //nolint:errcheck // bytes.Buffer
	out := append([]byte(nil), magic...)
	if !s.opts.Encrypt {
		out = append(out, flagCompressed)
		out = append(out, z.Bytes()...)
		return s.sum(out, out)
	}
	out = append(out, flagCompressed|flagEncrypted)
	iv := make([]byte, ivSize)
	if _, err := crand.Read(iv); err != nil {
		t.Fatal(err)
	}
	out = append(out, iv...)
	body := make([]byte, z.Len())
	cipher.NewCTR(s.block, iv).XORKeyStream(body, z.Bytes())
	out = append(out, body...)
	return s.sum(out, out)
}

// TestOldObjectsOpen keeps what the bucket already holds readable: an object
// sealed as one stock zlib.Writer pass, compress/flate's bytes, opens with
// today's Open under every configuration that holds its keys.
func TestOldObjectsOpen(t *testing.T) {
	big := rowPayload(2*segmentSize+777, 5)
	for name, s := range configs(t) {
		for _, n := range []int{0, 1, 180, 100 << 10, segmentSize + 1, len(big)} {
			got, err := s.Open(zlibEnvelope(t, s, big[:n]))
			if err != nil || !bytes.Equal(got, big[:n]) {
				t.Fatalf("%s/%d: Open = %v, equal=%v", name, n, err, bytes.Equal(got, big[:n]))
			}
		}
	}
}

// TestSealedBytesAreAFunctionOfThePayload pins the format: the body of a
// compress-only object is a stock zlib stream, and its bytes are the same
// at every GOMAXPROCS.
func TestSealedBytesAreAFunctionOfThePayload(t *testing.T) {
	s, err := New(Options{Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	big := rowPayload(3*segmentSize+12345, 2)
	for _, n := range []int{0, 1, 180, 8 << 10, 100 << 10, segmentSize, segmentSize + 1, len(big)} {
		payload := big[:n]
		var first []byte
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			sealed, err := s.Seal(payload)
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = sealed
			} else if !bytes.Equal(sealed, first) {
				t.Fatalf("%d bytes: sealed object differs between GOMAXPROCS 1 and %d", n, procs)
			}
		}
		zr, err := zlib.NewReader(bytes.NewReader(first[len(magic)+1 : len(first)-macSize]))
		if err != nil {
			t.Fatalf("%d bytes: zlib.NewReader: %v", n, err)
		}
		got, err := io.ReadAll(zr)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("%d bytes: stock zlib reader: err=%v, equal=%v", n, err, bytes.Equal(got, payload))
		}
	}
}

// envelopeBody returns the body of an object s sealed — what lies between
// the header and the MAC — decrypted under the object's own IV if s
// encrypts.
func envelopeBody(s *Sealer, sealed []byte) []byte {
	body := sealed[len(magic)+1 : len(sealed)-macSize]
	if !s.Encrypting() {
		return body
	}
	out := make([]byte, len(body)-ivSize)
	cipher.NewCTR(s.block, body[:ivSize]).XORKeyStream(out, body[ivSize:])
	return out
}

// TestEnvelopeChain pins the chain that encrypts and MACs a multi-segment
// body behind its deflate: under every encrypting configuration and at
// GOMAXPROCS 1, 2 and 8, the body decrypted under the object's own IV is
// the body the same options without encryption seal, and Open accepts the
// object.
func TestEnvelopeChain(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	big := rowPayload(20<<20, 8)
	for name, s := range configs(t) {
		if !s.Encrypting() {
			continue
		}
		unencrypted, err := New(Options{Compress: s.Compressing()})
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{0, 1, segmentSize - 1, segmentSize + 1, 6_700_000, 20 << 20} {
			want, err := unencrypted.Seal(big[:n])
			if err != nil {
				t.Fatal(err)
			}
			for _, procs := range []int{1, 2, 8} {
				runtime.GOMAXPROCS(procs)
				sealed, err := s.Seal(big[:n])
				if err != nil {
					t.Fatalf("%s/%d/GOMAXPROCS %d: Seal: %v", name, n, procs, err)
				}
				if !bytes.Equal(envelopeBody(s, sealed), envelopeBody(unencrypted, want)) {
					t.Fatalf("%s/%d/GOMAXPROCS %d: decrypted body differs from the unencrypted one", name, n, procs)
				}
				if got, err := s.Open(sealed); err != nil || !bytes.Equal(got, big[:n]) {
					t.Fatalf("%s/%d/GOMAXPROCS %d: Open = %v, equal=%v", name, n, procs, err, bytes.Equal(got, big[:n]))
				}
			}
		}
	}
}

// TestSealFromMatchesSeal: a payload filled segment by segment, on as many
// goroutines as deflate it, seals to Seal's bytes — the body under the
// object's own IV when encrypting — and each fill covers its segment
// exactly once.
func TestSealFromMatchesSeal(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	big := rowPayload(20<<20, 9)
	for name, s := range configs(t) {
		for _, n := range segmentEdgeSizes {
			payload := big[:n]
			var filled atomic.Int64
			got, err := s.SealFrom(context.Background(), n, func(dst []byte, off int) {
				if s.Compressing() && (off%segmentSize != 0 || len(dst) != min(segmentSize, n-off)) {
					t.Errorf("%s/%d: fill(%d bytes, %d) is not one segment", name, n, len(dst), off)
				}
				filled.Add(int64(copy(dst, payload[off:])))
			})
			if err != nil {
				t.Fatalf("%s/%d: SealFrom: %v", name, n, err)
			}
			want, err := s.Seal(payload)
			if err != nil {
				t.Fatal(err)
			}
			if filled.Load() != int64(n) || !bytes.Equal(envelopeBody(s, got), envelopeBody(s, want)) {
				t.Fatalf("%s/%d: filled %d bytes, body equal %v", name, n, filled.Load(),
					bytes.Equal(envelopeBody(s, got), envelopeBody(s, want)))
			}
			if back, err := s.Open(got); err != nil || !bytes.Equal(back, payload) {
				t.Fatalf("%s/%d: Open = %v, equal=%v", name, n, err, bytes.Equal(back, payload))
			}
		}
	}
}

// TestChainGainsFreedHelper: a multi-segment seal that starts while the
// helper budget is lent out deflates alone until a slot frees; then it
// takes the slot at its next segment boundary, so its two remaining
// segments are filled at the same time, and its bytes are Seal's.
func TestChainGainsFreedHelper(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2)) // a budget of one helper
	s, err := New(Options{Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	payload := rowPayload(3*segmentSize, 7)
	want, err := s.Seal(payload)
	if err != nil {
		t.Fatal(err)
	}
	var lent atomic.Bool
	helpers.Add(1) // the budget is lent out
	lent.Store(true)
	defer func() {
		if lent.Swap(false) {
			helpers.Add(-1)
		}
	}()
	var (
		entered  atomic.Int32
		together = make(chan struct{})
		alone    atomic.Bool
	)
	got, err := s.SealFrom(context.Background(), len(payload), func(dst []byte, off int) {
		switch {
		case off == 0:
			if lent.Swap(false) {
				helpers.Add(-1) // the slot frees while segment 0 is filled
			}
		case entered.Add(1) == 2:
			close(together)
		default:
			select {
			case <-together:
			case <-time.After(5 * time.Second):
				alone.Store(true)
			}
		}
		copy(dst, payload[off:])
	})
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("SealFrom: err=%v, Seal's bytes %v", err, bytes.Equal(got, want))
	}
	if alone.Load() {
		t.Fatal("segments 1 and 2 were filled one after the other: the chain never took the freed helper slot")
	}
}

func TestSegmentedTamperingDetected(t *testing.T) {
	payload := rowPayload(3*segmentSize+999, 3)
	for name, s := range configs(t) {
		sealed, err := s.Seal(payload)
		if err != nil {
			t.Fatal(err)
		}
		// One flipped byte inside each quarter of the body, i.e. in every
		// segment's share of it.
		for q := 0; q < 4; q++ {
			bad := append([]byte(nil), sealed...)
			bad[len(bad)/8+q*len(bad)/4] ^= 0x40
			if _, err := s.Open(bad); !errors.Is(err, ErrIntegrity) {
				t.Errorf("%s: flipped byte in quarter %d: Open = %v, want ErrIntegrity", name, q, err)
			}
		}
	}
}

// TestConcurrentSealsStayInsideHelperBudget runs many multi-segment Seals at
// once (under -race in `make race`), half of them encrypting, while sampling
// the process-wide helper count: it never exceeds GOMAXPROCS-1 and returns
// to zero, every compress-only Seal still produces the same bytes, and every
// encrypting one the same header and decrypted body under a valid MAC.
func TestConcurrentSealsStayInsideHelperBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	s, err := New(Options{Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := New(Options{Compress: true, Encrypt: true, Password: "pw"})
	if err != nil {
		t.Fatal(err)
	}
	payload := rowPayload(8<<20, 4)
	want, err := s.Seal(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := s.Open(want); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: err=%v", err)
	}
	stop := make(chan struct{})
	sampled := make(chan int32)
	go func() {
		var peak int32
		for {
			select {
			case <-stop:
				sampled <- peak
				return
			case <-time.After(20 * time.Microsecond):
				peak = max(peak, helpers.Load())
			}
		}
	}()
	encWant, err := enc.Seal(payload)
	if err != nil {
		t.Fatal(err)
	}
	header, wantBody := encWant[:len(magic)+1], envelopeBody(s, want)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i%2 == 0 {
				if sealed, err := s.Seal(payload); err != nil || !bytes.Equal(sealed, want) {
					t.Errorf("concurrent Seal: err=%v, same bytes=%v", err, bytes.Equal(sealed, want))
				}
				return
			}
			// An encrypting Seal draws a fresh IV, so its bytes differ run
			// to run: its header must match, its body decrypt to the
			// compress-only one, and its MAC cover it.
			sealed, err := enc.Seal(payload)
			if err != nil {
				t.Errorf("concurrent encrypting Seal: %v", err)
				return
			}
			mac := len(sealed) - macSize
			if !bytes.Equal(sealed[:len(header)], header) || !bytes.Equal(envelopeBody(enc, sealed), wantBody) ||
				!bytes.Equal(enc.sum(nil, sealed[:mac]), sealed[mac:]) {
				t.Errorf("concurrent encrypting Seal: header, decrypted body or MAC differs")
			}
		}()
	}
	wg.Wait()
	close(stop)
	if peak := <-sampled; peak < 1 || peak > 3 {
		t.Fatalf("saw at most %d helpers live at once, want some and never more than GOMAXPROCS-1 = 3", peak)
	}
	if n := helpers.Load(); n != 0 {
		t.Fatalf("%d helpers still counted after every Seal returned", n)
	}
}

// cancelAfter is a context whose Err turns to context.Canceled on its
// (n+1)-th call: SealContext asks once before each segment's deflate, so it
// cancels a Seal after exactly n segments when one goroutine deflates.
type cancelAfter struct {
	context.Context
	n atomic.Int32
}

func (c *cancelAfter) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

func cancelledAfter(n int32) *cancelAfter {
	c := &cancelAfter{Context: context.Background()}
	c.n.Store(n)
	return c
}

// TestSealContextStopsBetweenSegments cancels multi-segment Seals part way.
// On four cores, with helpers deflating, each returns the context's error
// and every helper goes back to the budget. On one core, with the
// collector off so the pool keeps what it is given, exactly the three
// deflated segments' buffers are back in the pool.
func TestSealContextStopsBetweenSegments(t *testing.T) {
	payload := rowPayload(8*segmentSize, 11)
	for _, opts := range []Options{{Compress: true}, {Compress: true, Encrypt: true, Password: "pw"}} {
		s, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
			for n := int32(0); n < 8; n++ {
				if sealed, err := s.SealContext(cancelledAfter(n), payload); sealed != nil || !errors.Is(err, context.Canceled) {
					t.Fatalf("cancelled after %d segments: %d bytes, err %v, want the context's error", n, len(sealed), err)
				}
				if h := helpers.Load(); h != 0 {
					t.Fatalf("%d helpers still counted after a cancelled Seal returned", h)
				}
			}
		}()
		sealed, err := s.SealContext(cancelledAfter(8), payload)
		if err != nil {
			t.Fatalf("a Seal cancelled after its last segment: %v", err)
		}
		if got, err := s.Open(sealed); err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("round trip after cancelled Seals: err=%v", err)
		}
	}
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for cap(*segPool.Get().(*[]byte)) > 0 { // drain: a fresh buffer is empty
	}
	s, err := New(Options{Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SealContext(cancelledAfter(3), payload); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Seal: err %v", err)
	}
	for i := 0; i < 4; i++ {
		if pooled := cap(*segPool.Get().(*[]byte)) > 0; pooled != (i < 3) {
			t.Fatalf("pool buffer %d: pooled %v, want the 3 deflated segments' buffers and no more", i, pooled)
		}
	}
}
