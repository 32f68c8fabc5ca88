package sealer

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	stdadler32 "hash/adler32"
	"io"
	"math/rand"
	"runtime/debug"
	"testing"
)

// stdlibDeflate is the size reference: compress/flate at BestSpeed, one
// Write, then Close (last) or Flush.
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

// probeAhead is 2 053 random letters, a 260-letter record, 100 letters, the
// record again and 64 letters. Where nothing matches, the probe positions
// depend only on lengths, and these put the one hit on the repeat a few
// bytes before its end: backward extension reaches the repeat's start, so
// the first 258-byte piece ends before positions the hit's own probe has
// indexed. The search resumes there and must refuse them as candidates;
// one equal to the probe position is a match at offset 0.
func probeAhead() []byte {
	rng := rand.New(rand.NewSource(2053))
	b := make([]byte, 2053+260+100+260+64)
	for i := range b {
		b[i] = 'a' + byte(rng.Intn(26))
	}
	copy(b[2053+260+100:], b[2053:2053+260])
	return b
}

var deflateSizes = []int{0, 1, 16, 17, 127, 128, 65534, 65535, 65536, 131070,
	segmentSize - 1, segmentSize, segmentSize + 1}

// inflate decodes a stream deflateSegment wrote. A stream that is not
// last ends in a sync marker, so a final empty stored block closes it.
func inflate(tb testing.TB, stream []byte, last bool) []byte {
	tb.Helper()
	if !last {
		stream = append(stream[:len(stream):len(stream)], 0x01, 0x00, 0x00, 0xff, 0xff)
	}
	got, err := io.ReadAll(flate.NewReader(bytes.NewReader(stream)))
	if err != nil {
		tb.Fatalf("inflate: %v", err)
	}
	return got
}

// TestDeflateNoLargerThanStdlib pins what the encoder buys in bytes: every
// stream inflates back, the total over every size × data-kind pair and the
// payloads the sealer benchmarks use is no larger than compress/flate
// BestSpeed's, and no single input costs more than 10 % + 16 bytes over it.
func TestDeflateNoLargerThanStdlib(t *testing.T) {
	inputs := map[string][]byte{"benchPayload": benchPayload(), "benchDumpPayload": benchDumpPayload(),
		"walBatch": walBatch(), "rows6.7m": rowPayload(6_700_000, 1), "probeAhead": probeAhead()}
	for kind, gen := range deflateKinds {
		for _, n := range deflateSizes {
			inputs[fmt.Sprintf("%s/%d", kind, n)] = gen(n, int64(n))
		}
	}
	var total, stdTotal int
	for name, seg := range inputs {
		for _, last := range []bool{false, true} {
			got, want := deflateSegment(nil, seg, last), stdlibDeflate(t, seg, last)
			if !bytes.Equal(inflate(t, got, last), seg) {
				t.Fatalf("%s/last=%v: does not inflate back", name, last)
			}
			if len(got) > len(want)+len(want)/10+16 {
				t.Errorf("%s/last=%v: %d bytes, compress/flate %d", name, last, len(got), len(want))
			}
			total, stdTotal = total+len(got), stdTotal+len(want)
		}
	}
	if total > stdTotal {
		t.Errorf("%d bytes in all, compress/flate %d", total, stdTotal)
	}
	t.Logf("%d bytes in all, compress/flate %d (%.2f %%)", total, stdTotal, 100*float64(total)/float64(stdTotal))
}

// TestDeflateBytesArePinned pins the encoder's exact output: the SHA-256 of
// every stream deflateSegment writes for a fixed corpus, each input coded as
// a sync-flushed and as a final segment. A change that only makes the coder
// faster leaves it alone; one that moves a single bit does not.
func TestDeflateBytesArePinned(t *testing.T) {
	const want = "7d77c622d2dceffa89c7313dea56988803db7931599ea863ebfe998bb309a5f4"
	h := sha256.New()
	for _, seg := range [][]byte{rowPayload(segmentSize, 1), walBatch(), benchDumpPayload(), probeAhead(),
		make([]byte, 70_000), rowPayload(3*segmentSize, 3)} {
		for _, last := range []bool{false, true} {
			out := deflateSegment(nil, seg, last)
			fmt.Fprintf(h, "%d:", len(out))
			h.Write(out)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("deflate output digest %s, want %s", got, want)
	}
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
		last := i%2 == 0
		got, want := e.deflate(nil, seg, last), newEncoder().deflate(nil, seg, last)
		if !bytes.Equal(got, want) {
			t.Fatalf("segment %d (%d bytes): a reused encoder wrote %d bytes, a fresh one %d", i, len(seg), len(got), len(want))
		}
		if !bytes.Equal(inflate(t, got, last), seg) {
			t.Fatalf("segment %d (%d bytes): does not inflate back", i, len(seg))
		}
	}
}

// FuzzDeflateRoundTrip's seeds are testdata/fuzz/FuzzDeflateRoundTrip: the
// empty stream, the small-tail cases, two farMatches inputs, one a whole
// block and one crossing into a second, and probeAhead.
func FuzzDeflateRoundTrip(f *testing.F) {
	f.Fuzz(func(t *testing.T, seg []byte, last bool) {
		if got := inflate(t, deflateSegment(nil, seg, last), last); !bytes.Equal(got, seg) {
			t.Fatalf("%d bytes, last=%v: inflated to %d different bytes", len(seg), last, len(got))
		}
	})
}

// TestAdler32Combine checksums random splits — empty pieces, pieces longer
// than the 65 521 modulus and runs of 0xff longer than nmax included — with
// the sealer's adler32, checks each piece against hash/adler32, and folds
// them into the checksum of the whole.
func TestAdler32Combine(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 300_000)
	rng.Read(data)
	for i := 100_000; i < 120_000; i++ {
		data[i] = 0xff // the largest sums between two reductions
	}
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(len(data) + 1)
		sum, rest := uint32(1), data[:n]
		for len(rest) > 0 || rng.Intn(3) == 0 {
			k := min(len(rest), []int{0, 1, rng.Intn(100), 65_521, 65_522, rng.Intn(200_000)}[rng.Intn(6)])
			piece := adler32(rest[:k])
			if want := stdadler32.Checksum(rest[:k]); piece != want {
				t.Fatalf("trial %d: %d-byte piece: %08x, hash/adler32 %08x", trial, k, piece, want)
			}
			sum = adler32Combine(sum, piece, k)
			rest = rest[k:]
			if len(rest) == 0 && rng.Intn(2) == 0 {
				break
			}
		}
		if want := stdadler32.Checksum(data[:n]); sum != want {
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
	for _, row := range []named[[]byte]{{"rows1m", rowPayload(segmentSize, 1)}, {"wal96k", walBatch()}} {
		name, seg := row.name, row.v
		b.Run(name+"/sealer", func(b *testing.B) {
			b.SetBytes(int64(len(seg)))
			b.ReportAllocs()
			var dst []byte
			for i := 0; i < b.N; i++ {
				dst = deflateSegment(dst[:0], seg, true)
			}
			b.ReportMetric(float64(len(dst))/float64(len(seg)), "sealed/raw")
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
			b.ReportMetric(float64(buf.Len())/float64(len(seg)), "sealed/raw")
		})
	}
}
