package sealer

import (
	"bytes"
	"compress/flate"
	"hash/adler32"
	"math/rand"
	"runtime/debug"
	"testing"
)

// stdlibDeflate is the reference: compress/flate at BestSpeed, one Write,
// then Close (last) or Flush.
func stdlibDeflate(tb testing.TB, seg []byte, last bool) []byte {
	tb.Helper()
	var b bytes.Buffer
	fw, err := flate.NewWriter(&b, flate.BestSpeed)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := fw.Write(seg); err != nil {
		tb.Fatal(err)
	}
	if last {
		err = fw.Close()
	} else {
		err = fw.Flush()
	}
	if err != nil {
		tb.Fatal(err)
	}
	return b.Bytes()
}

// deflateKinds generate n bytes of one kind of data from a seed.
var deflateKinds = map[string]func(n int, seed int64) []byte{
	"random": func(n int, seed int64) []byte {
		b := make([]byte, n)
		rand.New(rand.NewSource(seed)).Read(b)
		return b
	},
	"zeros": func(n int, _ int64) []byte { return make([]byte, n) },
	"rows":  rowPayload,
	"period": func(n int, seed int64) []byte {
		rng := rand.New(rand.NewSource(seed))
		unit := make([]byte, 1+rng.Intn(7))
		rng.Read(unit)
		b := make([]byte, n)
		for i := range b {
			b[i] = unit[i%len(unit)]
		}
		return b
	},
	"far": farMatches,
}

// farMatches is n bytes of letters in which, past the first 33 000, runs of
// about 250 bytes repeat from 24–32 KiB back: the longest codes and extra
// bits RFC 1951 has, back to back, across block boundaries.
func farMatches(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	for i := 0; i < n; {
		if i < 33_000 {
			b[i] = 'a' + byte(rng.Intn(26))
			i++
			continue
		}
		d := 24_577 + rng.Intn(maxMatchOffset-24_577+1)       // offset code 29: 13 extra bits
		for end := min(i+227+rng.Intn(31), n); i < end; i++ { // length code 284: 5 extra bits
			b[i] = b[i-d]
		}
		if i < n {
			b[i] = 'a' + byte(rng.Intn(26)) // a literal between runs
			i++
		}
	}
	return b
}

var deflateSizes = []int{0, 1, 16, 17, 127, 128, 65534, 65535, 65536, 131070,
	segmentSize - 1, segmentSize, segmentSize + 1}

func TestDeflateMatchesStdlib(t *testing.T) {
	for kind, gen := range deflateKinds {
		for _, n := range deflateSizes {
			seg := gen(n, int64(n))
			for _, last := range []bool{false, true} {
				want := stdlibDeflate(t, seg, last)
				got := deflateSegment(nil, seg, last)
				if !bytes.Equal(got, want) {
					t.Errorf("%s/%d/last=%v: %d bytes, compress/flate wrote %d; first difference at byte %d",
						kind, n, last, len(got), len(want), firstDiff(got, want))
				}
			}
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestDeflateEncoderReuse runs one pooled-size encoder over many segments
// in a row, including one that forces the table base to wrap: reuse must
// never let an earlier segment's table entries reach the output.
func TestDeflateEncoderReuse(t *testing.T) {
	e := newEncoder()
	for i := 0; i < 40; i++ {
		seg := deflateKinds[[]string{"rows", "period", "zeros", "far"}[i%4]](1000+i*7919, int64(i))
		if i == 20 {
			e.cur = 1<<31 - 1 - 2*maxMatchOffset - int32(len(seg)/2)
		}
		if got, want := e.deflate(nil, seg, i%2 == 0), stdlibDeflate(t, seg, i%2 == 0); !bytes.Equal(got, want) {
			t.Fatalf("segment %d (%d bytes): differs from compress/flate at byte %d", i, len(seg), firstDiff(got, want))
		}
	}
}

// FuzzDeflateMatchesStdlib's seeds are testdata/fuzz/FuzzDeflateMatchesStdlib:
// the empty stream, the small-tail cases and two farMatches inputs, one a
// whole block and one crossing into a second.
func FuzzDeflateMatchesStdlib(f *testing.F) {
	f.Fuzz(func(t *testing.T, seg []byte, last bool) {
		if got, want := deflateSegment(nil, seg, last), stdlibDeflate(t, seg, last); !bytes.Equal(got, want) {
			t.Fatalf("%d bytes, last=%v: differs from compress/flate at byte %d", len(seg), last, firstDiff(got, want))
		}
	})
}

// TestAdler32Combine folds per-piece checksums of random splits — empty
// pieces and pieces longer than the 65 521 modulus included — and checks
// the result against one pass.
func TestAdler32Combine(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 300_000)
	rng.Read(data)
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(len(data) + 1)
		sum, rest := uint32(1), data[:n]
		for len(rest) > 0 || rng.Intn(3) == 0 {
			k := min(len(rest), []int{0, 1, rng.Intn(100), 65_521, 65_522, rng.Intn(200_000)}[rng.Intn(6)])
			sum = adler32Combine(sum, adler32.Checksum(rest[:k]), k)
			rest = rest[k:]
			if len(rest) == 0 && rng.Intn(2) == 0 {
				break
			}
		}
		if want := adler32.Checksum(data[:n]); sum != want {
			t.Fatalf("trial %d (%d bytes): combined %08x, one pass %08x", trial, n, sum, want)
		}
	}
}

// raceEnabled is set by race_test.go under -race.
var raceEnabled bool

// TestSealAllocatesOnlyItsOutput pins the hot path: a compressed
// one-segment Seal allocates exactly once, the buffer it returns. The
// collector is off while it measures, because a collection empties the
// pools and the refill is not Seal's cost.
func TestSealAllocatesOnlyItsOutput(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	s, err := New(Options{Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, payload := range [][]byte{benchPayload(), walBatch(), rowPayload(segmentSize, 6)} {
		if n := testing.AllocsPerRun(20, func() {
			if _, err := s.Seal(payload); err != nil {
				t.Fatal(err)
			}
		}); n != 1 {
			t.Errorf("%d-byte Seal: %v allocs, want 1", len(payload), n)
		}
	}
}

// walBatch is a 96 KiB batch of WAL-like 8 KiB pages: a few hundred bytes
// of records each, zero-filled to the page end.
func walBatch() []byte {
	rng := rand.New(rand.NewSource(9))
	b := make([]byte, 96<<10)
	for p := 0; p < len(b); p += 8 << 10 {
		copy(b[p:], rowPayload(200+rng.Intn(1500), int64(p)))
	}
	return b
}

func BenchmarkDeflateSegment(b *testing.B) {
	for name, seg := range map[string][]byte{"rows1m": rowPayload(segmentSize, 1), "wal96k": walBatch()} {
		b.Run(name+"/sealer", func(b *testing.B) {
			b.SetBytes(int64(len(seg)))
			b.ReportAllocs()
			var dst []byte
			for i := 0; i < b.N; i++ {
				dst = deflateSegment(dst[:0], seg, true)
			}
		})
		b.Run(name+"/flate", func(b *testing.B) {
			fw, err := flate.NewWriter(nil, flate.BestSpeed)
			if err != nil {
				b.Fatal(err)
			}
			var buf bytes.Buffer
			b.SetBytes(int64(len(seg)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				fw.Reset(&buf)
				fw.Write(seg) //nolint:errcheck // bytes.Buffer
				fw.Close()    //nolint:errcheck // bytes.Buffer
			}
		})
	}
}
