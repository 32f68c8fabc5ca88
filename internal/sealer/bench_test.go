package sealer

import (
	"bytes"
	"testing"
)

func benchPayload() []byte {
	// A WAL-page-like payload: structured, moderately compressible.
	return bytes.Repeat([]byte("update stock set qty=42 where id=123;"), 220) // ≈8 KiB
}

func benchDumpPayload() []byte {
	// A dump-part-like payload: bigger, page-structured.
	page := append(bytes.Repeat([]byte{0}, 128), bytes.Repeat([]byte("row-data-0123456789"), 47)...)
	return bytes.Repeat(page, 256) // ≈256 KiB
}

// named is one row of a benchmark table. Tables are slices, not maps, so
// that sub-benchmarks run in the same order every time.
type named[T any] struct {
	name string
	v    T
}

func benchPayloads() []named[[]byte] {
	// part6m is one bulk_cycle checkpoint, part20m a full dump part: the
	// multi-segment payloads (run with -cpu 1,2 to see what the helpers buy).
	return []named[[]byte]{{"wal8k", benchPayload()}, {"dump256k", benchDumpPayload()},
		{"part6m", rowPayload(6_700_000, 1)}, {"part20m", rowPayload(20<<20, 2)}}
}

func benchConfigs(b *testing.B) []named[*Sealer] {
	b.Helper()
	mk := func(o Options) *Sealer {
		s, err := New(o)
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	return []named[*Sealer]{
		{"plain", NewPlain()},
		{"comp", mk(Options{Compress: true})},
		{"crypt", mk(Options{Encrypt: true, Password: "pw"})},
		{"c+c", mk(Options{Compress: true, Encrypt: true, Password: "pw"})},
	}
}

func BenchmarkSeal(b *testing.B) {
	for _, p := range benchPayloads() {
		for _, c := range benchConfigs(b) {
			payload, s := p.v, c.v
			b.Run(p.name+"/"+c.name, func(b *testing.B) {
				b.SetBytes(int64(len(payload)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := s.Seal(payload); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkOpen(b *testing.B) {
	for _, p := range benchPayloads() {
		for _, c := range benchConfigs(b) {
			payload, s := p.v, c.v
			b.Run(p.name+"/"+c.name, func(b *testing.B) {
				sealed, err := s.Seal(payload)
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(len(payload)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := s.Open(sealed); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
