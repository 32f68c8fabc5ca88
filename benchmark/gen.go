package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/fnv"
	"math/rand"
	"strconv"
)

// poolSize is the length of the seeded byte pool every payload is cut from.
const poolSize = 4 << 20

// gen is the one seeded source of payload bytes. The pool is JSON-like row
// text (what minidb's TPC-C WAL carries) tuned so zlib shrinks it ≈3.5×,
// the ratio TPC-C WAL measures in this repo (9.07 MB raw → 2.46 MB sealed).
// The program under test only ever sees bytes cut from it.
type gen struct {
	rng  *rand.Rand
	pool []byte
}

func newGen(seed int64) *gen {
	g := &gen{rng: rand.New(rand.NewSource(seed))}
	g.pool = makePool(g.rng)
	return g
}

// fork returns a generator sharing the pool with its own stream, so the
// protected and the bare client of one run issue the identical op stream.
func (g *gen) fork(stream int64) *gen {
	return &gen{rng: rand.New(rand.NewSource(stream)), pool: g.pool}
}

// makePool writes rows of fixed keys and random values. Value widths set the
// compression ratio: keys and punctuation repeat, digits and hex do not.
func makePool(rng *rand.Rand) []byte {
	const hexDigits = "0123456789abcdef"
	pool := make([]byte, 0, poolSize+256)
	for len(pool) < poolSize {
		pool = append(pool, `{"w_id":`...)
		pool = strconv.AppendInt(pool, int64(rng.Intn(10)), 10)
		pool = append(pool, `,"d_id":`...)
		pool = strconv.AppendInt(pool, int64(rng.Intn(10)), 10)
		pool = append(pool, `,"c_id":`...)
		pool = strconv.AppendInt(pool, int64(rng.Intn(3000)), 10)
		pool = append(pool, `,"ol_amount":`...)
		pool = strconv.AppendInt(pool, int64(rng.Intn(1000000)), 10)
		pool = append(pool, `,"ol_dist_info":"`...)
		for i := 0; i < 24; i++ {
			pool = append(pool, hexDigits[rng.Intn(16)])
		}
		pool = append(pool, `","c_credit":"GC","c_data":"`...)
		for i := 0; i < 16; i++ {
			pool = append(pool, hexDigits[rng.Intn(16)])
		}
		pool = append(pool, `"}`...)
	}
	return pool[:poolSize]
}

// bytes returns n pool bytes starting at a random offset. The slice aliases
// the pool: callers copy it into their page or file buffer.
func (g *gen) bytes(n int) []byte {
	off := g.rng.Intn(poolSize - n)
	return g.pool[off : off+n]
}

// fill overwrites buf with pool bytes in record-sized cuts.
func (g *gen) fill(buf []byte) {
	for len(buf) > 0 {
		n := 512 + g.rng.Intn(3584)
		if n > len(buf) {
			n = len(buf)
		}
		copy(buf, g.bytes(n))
		buf = buf[n:]
	}
}

// opDigest hashes an op stream: path, offset, length and a payload hash per
// write. Same seed → same digest; it is how the test file shows the inputs
// depend on -seed and on nothing else.
type opDigest struct {
	h   [32]byte
	n   int64
	buf []byte
}

func (d *opDigest) add(path string, off int64, data []byte) {
	f := fnv.New64a()
	f.Write(data) //nolint:errcheck // hash writes never fail
	d.buf = append(d.buf[:0], d.h[:]...)
	d.buf = append(d.buf, path...)
	d.buf = binary.LittleEndian.AppendUint64(d.buf, uint64(off))
	d.buf = binary.LittleEndian.AppendUint64(d.buf, uint64(len(data)))
	d.buf = binary.LittleEndian.AppendUint64(d.buf, f.Sum64())
	d.h = sha256.Sum256(d.buf)
	d.n++
}

func (d *opDigest) String() string { return hex.EncodeToString(d.h[:8]) }
