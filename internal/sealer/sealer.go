// Package sealer implements the object envelope of paper §5.4/§6:
// optional ZLIB compression (fastest level), optional AES-128 encryption
// (CTR mode) with a password-derived key that never leaves memory, and a
// mandatory MAC over every object (HMAC-SHA-1, like the prototype's
// SHA-1 MACs) so that recovery can validate object integrity (§5.4,
// "Backup verification", step 1).
//
// Envelope layout:
//
//	magic(4) "GJA1" | flags(1) | iv(16, if encrypted) | payload | mac(20)
//
// The MAC covers everything before it (encrypt-then-MAC).
//
// A compressed payload is one RFC 1950 stream, but Seal builds it from
// fixed 1 MiB segments deflated concurrently (pigz's construction): every
// segment is compressed on its own and all but the last end in a sync
// flush — a byte-aligned, empty, non-final stored block — so the
// concatenation 0x78 0x01 ‖ segments ‖ Adler-32(payload) is a single valid
// stream that Open, or any stock zlib reader, inflates unchanged; segment
// boundaries cannot be recovered from it, which is why Open stays serial.
// Each segment's goroutine also takes that segment's Adler-32, and the
// serial rest of the envelope — folding those checksums (adler32Combine),
// AES-CTR and the MAC — runs segment by segment behind the deflate, in
// order, on whichever goroutine completes the in-order prefix (see chain),
// so Seal never walks the whole payload on one core. The goroutines a seal
// adds come from one process-wide budget of GOMAXPROCS-1 helpers, never
// waited for: a seal borrows a free slot before each of its segments, so
// one that started while every slot was lent out gains a helper as soon as
// another seal hands one back (see lend).
//
// The deflate encoder (deflate.go, huffman.go) compresses a whole
// in-memory segment in 65 535-byte blocks with compress/flate BestSpeed's
// per-block choice of dynamic, literals-only or stored coding, its Huffman
// builder and its closing markers, but its own matcher (a denser
// Snappy-style one, see match), so its bytes are not compress/flate's: on
// row-like data they are ≈ 11 % fewer, and TestDeflateNoLargerThanStdlib
// keeps them no more than compress/flate's in total. Any inflater reads
// them (that test and FuzzDeflateRoundTrip inflate every stream with
// compress/flate), so Open keeps compress/zlib, and objects sealed by one
// stock zlib.Writer pass, as before, still open. The encoder is fast
// because it reads the segment in place, counts the block histogram while
// matching and writes bits straight into the output slice; it cannot fail.
// The sealed size is part of a DB object's name and simulated schedules
// must reproduce, so the output is a function of the payload (and the IV)
// only — never of GOMAXPROCS, of how many helpers were free, or of
// scheduling.
package sealer

import (
	"bytes"
	"compress/zlib"
	"context"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha1"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"io"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// Envelope constants.
const (
	flagCompressed = 1 << 0
	flagEncrypted  = 1 << 1

	ivSize  = aes.BlockSize
	macSize = sha1.Size
	keySize = 16 // AES-128, as in the prototype (§6)

	// kdfIterations for the PBKDF2 password derivation.
	kdfIterations = 4096

	// segmentSize is the unit of parallel compression. Not a knob: it
	// decides the sealed bytes. A boundary costs the 5-byte sync marker and
	// the lost 32 KiB window (+0.03 % on row-like data); smaller segments
	// would only buy load balance.
	segmentSize = 1 << 20
)

var magic = []byte("GJA1")

// Errors returned by Open.
var (
	// ErrIntegrity reports a MAC mismatch: the object was corrupted or
	// tampered with in the cloud.
	ErrIntegrity = errors.New("sealer: MAC verification failed")
	// ErrFormat reports a malformed envelope.
	ErrFormat = errors.New("sealer: malformed object envelope")
)

// defaultMACSeed generates the MAC key when no password is configured
// (paper §5.4: "a default string (a configuration parameter) is used to
// generate this key").
const defaultMACSeed = "ginja-default-integrity-key"

// Options configures a Sealer.
type Options struct {
	// Compress enables ZLIB compression: a zlib stream from the sealer's own
	// fast deflate encoder, in the spirit of the prototype's "ZLIB
	// configured for fastest operation".
	Compress bool
	// Encrypt enables AES-128-CTR encryption. Requires Password.
	Encrypt bool
	// Password derives the encryption and MAC keys. May be set without
	// Encrypt to authenticate objects with a secret MAC key.
	Password string
	// MACSeed overrides the default MAC-key string used when no password
	// is provided.
	MACSeed string
}

// Sealer seals byte payloads into tamper-evident (optionally compressed
// and encrypted) cloud objects and opens them back.
//
// Seal/Open are allocation-pooled: deflate encoder and zlib reader state,
// HMAC state and compression buffers are recycled via sync.Pool, and the
// AES block cipher is built once at construction. At high update rates the
// per-object seal cost would otherwise be dominated by re-allocating that
// state (an encoder's hash table alone is 128 KiB). Both methods remain
// safe for concurrent use.
type Sealer struct {
	opts   Options
	encKey []byte
	macKey []byte

	block   cipher.Block // non-nil iff a password is configured
	macPool sync.Pool    // *hmac states keyed with macKey
}

// Key-independent scratch state is pooled at package level and shared by
// every Sealer in the process: a fleet of a thousand tenants recycles one
// set of deflate encoders and buffers across all of them instead of
// keeping a thousand idle copies warm. Only the HMAC pool stays
// per-Sealer — its states are bound to that sealer's MAC key.
var (
	bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}
	segPool = sync.Pool{New: func() any { return new([]byte) }} // deflated segments
	encPool = sync.Pool{New: func() any { return newEncoder() }}
	zrPool  sync.Pool // io.ReadCloser + zlib.Resetter

	// helpers counts the goroutines currently lent to multi-segment Seal
	// calls, process-wide (see lend).
	helpers atomic.Int32
)

// New builds a Sealer. Encryption without a password is rejected.
func New(opts Options) (*Sealer, error) {
	if opts.Encrypt && opts.Password == "" {
		return nil, errors.New("sealer: encryption requires a password")
	}
	s := &Sealer{opts: opts}
	if opts.Password != "" {
		// Both keys come from the password (paper §5.4: "the provided
		// password is also used to generate the MAC key").
		s.encKey = pbkdf2SHA256([]byte(opts.Password), []byte("ginja-enc"), kdfIterations, keySize)
		s.macKey = pbkdf2SHA256([]byte(opts.Password), []byte("ginja-mac"), kdfIterations, keySize)
		block, err := aes.NewCipher(s.encKey)
		if err != nil {
			return nil, fmt.Errorf("sealer: %w", err)
		}
		s.block = block
	} else {
		seed := opts.MACSeed
		if seed == "" {
			seed = defaultMACSeed
		}
		s.macKey = pbkdf2SHA256([]byte(seed), []byte("ginja-mac"), 1, keySize)
	}
	s.macPool.New = func() any { return hmac.New(sha1.New, s.macKey) }
	return s, nil
}

// NewPlain returns a Sealer with neither compression nor encryption (MAC
// only) — the "plain" configuration of the paper's experiments.
func NewPlain() *Sealer {
	s, err := New(Options{})
	if err != nil {
		panic(err) // unreachable: no options set
	}
	return s
}

// Compressing reports whether compression is enabled.
func (s *Sealer) Compressing() bool { return s.opts.Compress }

// Encrypting reports whether encryption is enabled.
func (s *Sealer) Encrypting() bool { return s.opts.Encrypt }

// sum wraps a pooled HMAC state: reset, feed data, append the tag to dst.
func (s *Sealer) sum(dst, data []byte) []byte {
	mac := s.macPool.Get().(hash.Hash)
	mac.Reset()
	mac.Write(data) //nolint:errcheck // hash writes never fail
	dst = mac.Sum(dst)
	s.macPool.Put(mac)
	return dst
}

// Seal envelopes payload for upload. The returned buffer is freshly
// allocated at exact size — it is never recycled, so callers may retain
// it — but all intermediate state (compressor, HMAC, scratch) is pooled.
// A compressed payload longer than one segment is deflated on every idle
// core and encrypted and MAC'd behind the deflate (see chain); the bytes
// do not depend on how many cores there were.
func (s *Sealer) Seal(payload []byte) ([]byte, error) {
	return s.SealContext(context.Background(), payload)
}

// SealContext is Seal that stops a compressed payload's deflate between
// segments once ctx is done, and returns ctx's error.
func (s *Sealer) SealContext(ctx context.Context, payload []byte) ([]byte, error) {
	return s.seal(ctx, source{payload: payload, n: len(payload)})
}

// SealFrom is SealContext over an n-byte payload that fill produces on
// demand: fill(dst, off) writes payload bytes [off, off+len(dst)) into dst.
// A compressed payload is filled one segment at a time, into a pooled
// segment buffer, on the goroutine that deflates that segment, and the
// buffer goes back to the pool once deflated; a plain one is filled
// straight into the output. A view, when given, is asked for each
// compressed segment first: view(off, end) returns payload bytes
// [off, end) where they already lie, which are deflated in place and only
// read, or nil, and then the segment is filled. fill and view may run on
// several goroutines at once, always for disjoint ranges. The sealed bytes
// are Seal's for the same payload: segment boundaries sit at fixed payload
// offsets.
func (s *Sealer) SealFrom(ctx context.Context, n int, fill func(dst []byte, off int), view ...func(off, end int) []byte) ([]byte, error) {
	src := source{fill: fill, n: n}
	if len(view) > 0 {
		src.view = view[0]
	}
	return s.seal(ctx, src)
}

// source is a payload being sealed: in memory, or produced by fill (and
// view, when set).
type source struct {
	payload []byte
	fill    func(dst []byte, off int) // nil when payload holds the bytes
	view    func(off, end int) []byte
	n       int
}

// seal is Seal, SealContext and SealFrom. A plain body goes straight to its
// final position and is encrypted there, in place; a compressed one is a
// chain of one or more deflated segments.
func (s *Sealer) seal(ctx context.Context, src source) ([]byte, error) {
	if s.opts.Compress {
		return s.sealChain(ctx, src)
	}
	size := len(magic) + 1 + src.n + macSize
	if s.opts.Encrypt {
		size += ivSize
	}
	out, err := s.header(make([]byte, 0, size), 0)
	if err != nil {
		return nil, err
	}
	start := len(out)
	out = out[:start+src.n]
	if src.fill != nil {
		src.fill(out[start:], 0)
	} else {
		copy(out[start:], src.payload)
	}
	if s.opts.Encrypt {
		cipher.NewCTR(s.block, out[start-ivSize:start]).XORKeyStream(out[start:], out[start:])
	}
	return s.sum(out, out), nil
}

// header appends the envelope's header to dst: the magic, flags (plus
// flagEncrypted when encrypting) and, when encrypting, a fresh IV.
func (s *Sealer) header(dst []byte, flags byte) ([]byte, error) {
	dst = append(dst, magic...)
	if !s.opts.Encrypt {
		return append(dst, flags), nil
	}
	dst = append(dst, flags|flagEncrypted)
	dst = dst[:len(dst)+ivSize]
	if _, err := rand.Read(dst[len(dst)-ivSize:]); err != nil {
		return nil, fmt.Errorf("sealer: iv: %w", err)
	}
	return dst, nil
}

// sealChain seals a compressed payload. The output's size is known only
// once every segment is deflated, so each segment is encrypted and MAC'd in
// its own buffer as soon as it and every earlier one are deflated (see
// chain), and then copied into the output, the one allocation of a
// steady-state call.
func (s *Sealer) sealChain(ctx context.Context, src source) ([]byte, error) {
	c := chainPool.Get().(*chain)
	defer c.release()
	head, err := s.header(c.head[:0], flagCompressed)
	if err != nil {
		return nil, err
	}
	c.ctx, c.src, c.sum = ctx, src, 1 // 1: Adler-32 of nothing
	c.mac = s.macPool.Get().(hash.Hash)
	defer s.macPool.Put(c.mac)
	c.mac.Reset()
	c.mac.Write(head) //nolint:errcheck // hash writes never fail
	if s.opts.Encrypt {
		c.ctr = cipher.NewCTR(s.block, head[len(head)-ivSize:])
	}
	head = append(head, 0x78, 0x01) // RFC 1950: deflate, 32 KiB window, fastest
	c.seal(head[len(head)-2:])
	if err := c.deflate(); err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(head)+c.size+4+macSize)
	out = append(out, head...)
	for _, seg := range c.segs {
		out = append(out, *seg.buf...)
		segPool.Put(seg.buf)
	}
	out = binary.BigEndian.AppendUint32(out, c.sum)
	c.seal(out[len(out)-4:])
	return c.mac.Sum(out), nil
}

// deflateSegment appends seg's raw deflate stream to dst, using a pooled
// encoder. Every segment but the stream's last ends in a sync flush, which
// leaves the output byte-aligned and the stream open.
func deflateSegment(dst, seg []byte, last bool) []byte {
	e := encPool.Get().(*encoder)
	dst = e.deflate(dst, seg, last)
	encPool.Put(e)
	return dst
}

// segment is one deflated segment of a compressed payload.
type segment struct {
	buf *[]byte // pooled; the deflated bytes
	n   int     // raw length
	sum uint32  // Adler-32 of the raw bytes
}

// compressSegment deflates raw into a pooled buffer and checksums it.
func compressSegment(raw []byte, last bool) segment {
	buf := segPool.Get().(*[]byte)
	*buf = deflateSegment((*buf)[:0], raw, last)
	return segment{buf: buf, n: len(raw), sum: adler32(raw)}
}

// adler32 returns the Adler-32 checksum of b (RFC 1950). hash/adler32 adds
// one byte at a time, and its s2 += s1 chain runs about one byte per cycle;
// this folds 16 bytes per step, s2 += 16·s1 + Σ(16−i)·bᵢ and s1 += Σbᵢ, with
// both sums taken over 16-bit lanes of two 64-bit words, and reduces modulo
// 65521 once per nmax bytes, the longest run the sums survive in 32 bits.
func adler32(b []byte) uint32 {
	const (
		mod  = 65521
		nmax = 5552 // 347 steps of 16
		// lanes holds four bytes of a word, each in its own 16-bit lane.
		lanes = 0x00ff00ff00ff00ff
		// Multiplied by a lanes word, these sum its lanes, lowest first,
		// into the top lane with the weights 1, 1, 1, 1 and, for the even and
		// odd bytes of eight, 8, 6, 4, 2 and 7, 5, 3, 1: Σ(8−i)·bᵢ. No lane
		// sum reaches 2¹⁶, so none carries into the next.
		ones = 0x0001000100010001
		even = 0x0008000600040002
		odd  = 0x0007000500030001
	)
	s1, s2 := uint32(1), uint32(0)
	for len(b) > 0 {
		n := min(len(b), nmax)
		p := b[:n]
		b = b[n:]
		for ; len(p) >= 16; p = p[16:] {
			w0, w1 := binary.LittleEndian.Uint64(p), binary.LittleEndian.Uint64(p[8:])
			e0, o0 := w0&lanes, w0>>8&lanes
			e1, o1 := w1&lanes, w1>>8&lanes
			sum0 := uint32((e0 + o0) * ones >> 48)
			sum1 := uint32((e1 + o1) * ones >> 48)
			weighted := uint32(((e0+e1)*even + (o0+o1)*odd) >> 48)
			s2 += 16*s1 + 8*sum0 + weighted
			s1 += sum0 + sum1
		}
		for _, c := range p {
			s1 += uint32(c)
			s2 += s1
		}
		s1 %= mod
		s2 %= mod
	}
	return s2<<16 | s1
}

// adler32Combine returns the Adler-32 of a‖b from the Adler-32 of a, that of
// b and the length of b (zlib's adler32_combine).
func adler32Combine(sumA, sumB uint32, lenB int) uint32 {
	const mod = 65521
	rem := uint64(lenB % mod)
	a1, b1 := uint64(sumA&0xffff), uint64(sumA>>16)
	a2, b2 := uint64(sumB&0xffff), uint64(sumB>>16)
	// a = a1 + a2 - 1 and b = b1 + b2 + lenB·(a1 - 1), both mod 65521.
	a := (a1 + a2 + mod - 1) % mod
	b := (rem*a1 + b1 + b2 + mod - rem) % mod
	return uint32(b<<16 | a)
}

// borrowHelper claims one slot of the helper budget, or reports that none
// is free; it never waits.
func borrowHelper() bool {
	limit := int32(runtime.GOMAXPROCS(0)) - 1
	for n := helpers.Load(); n < limit; n = helpers.Load() {
		if helpers.CompareAndSwap(n, n+1) {
			return true
		}
	}
	return false
}

// chain is a compressed Seal: the payload's segments, deflated on as many
// goroutines as the helper budget allows, and the serial rest — one CTR
// stream and one MAC state, through which every deflated segment must pass
// in order, plus the running Adler-32 and body size. Whichever goroutine
// extends the deflated in-order prefix chains it, unless another goroutine
// is already chaining; the bytes are the same whoever does. Chains are
// pooled, so a one-segment Seal allocates only its output.
type chain struct {
	head [4 + 1 + ivSize + 2]byte // magic, flags, IV, zlib header
	ctx  context.Context
	src  source
	ctr  cipher.Stream // nil when not encrypting
	mac  hash.Hash
	sum  uint32 // Adler-32 of the raw bytes of the chained segments
	size int    // deflated bytes of the chained segments

	claim   atomic.Int32 // the next segment to deflate
	workers atomic.Int32 // goroutines deflating: the caller and its helpers
	wg      sync.WaitGroup

	mu      sync.Mutex
	segs    []segment // guarded by mu until deflate returns; buf nil until deflated
	next    int       // guarded by mu: the first segment not yet chained
	running bool      // guarded by mu: a goroutine is chaining
}

var (
	chainPool = sync.Pool{New: func() any { return new(chain) }}
	// rawPool holds the segment buffers SealFrom fills.
	rawPool = sync.Pool{New: func() any { b := make([]byte, segmentSize); return &b }}
)

// release drops what c refers to and returns it to the pool.
func (c *chain) release() {
	clear(c.segs)
	c.ctx, c.src, c.ctr, c.mac = nil, source{}, nil, nil
	c.size, c.next = 0, 0
	chainPool.Put(c)
}

// seal encrypts b in place, when encrypting, and feeds it to the MAC.
func (c *chain) seal(b []byte) {
	if c.ctr != nil {
		c.ctr.XORKeyStream(b, b)
	}
	c.mac.Write(b) //nolint:errcheck // hash writes never fail
}

// finish records segment i as deflated, then chains every deflated segment
// from c.next on, unless another goroutine is doing so: that one sees
// segment i when it takes the lock again.
func (c *chain) finish(i int, seg segment) {
	c.mu.Lock()
	c.segs[i] = seg
	if c.running {
		c.mu.Unlock()
		return
	}
	c.running = true
	for c.next < len(c.segs) && c.segs[c.next].buf != nil {
		seg := c.segs[c.next]
		c.mu.Unlock()
		c.seal(*seg.buf)
		c.sum = adler32Combine(c.sum, seg.sum, seg.n)
		c.size += len(*seg.buf)
		c.mu.Lock()
		c.next++
	}
	c.running = false
	c.mu.Unlock()
}

// deflate compresses the payload into c.segs, one pooled buffer per
// segment, and chains every segment. The calling goroutine compresses
// segments itself and borrows helpers (see lend). Which goroutine
// compresses or chains which segment does not reach the output. Once ctx
// is done no segment starts, and an unfinished payload's buffers go back.
func (c *chain) deflate() error {
	n := max(1, (c.src.n+segmentSize-1)/segmentSize)
	c.segs = slices.Grow(c.segs[:0], n)[:n]
	c.claim.Store(0)
	c.workers.Store(1)
	c.work()
	c.wg.Wait()
	if c.next == n {
		return nil
	}
	for _, seg := range c.segs {
		if seg.buf != nil {
			segPool.Put(seg.buf)
		}
	}
	return c.ctx.Err()
}

// lend borrows a helper for each unclaimed segment beyond the goroutines
// already deflating, without ever blocking for one, while fewer than
// GOMAXPROCS-1 are lent out process-wide: on one core nothing is spawned,
// and five part workers sealing a dump at once — or a fleet of a thousand
// tenants — cannot oversubscribe the machine. It runs before every
// segment, so a chain that started while the budget was lent out takes a
// slot that frees at its next segment boundary. Only a goroutine that
// deflate still waits for calls it, so the group's Add never races its Wait.
func (c *chain) lend() {
	for int(c.workers.Load()) < len(c.segs)-int(c.claim.Load()) && borrowHelper() {
		c.workers.Add(1)
		c.wg.Add(1)
		go c.help()
	}
}

// help is a borrowed helper's share of deflate.
func (c *chain) help() {
	defer c.wg.Done()
	defer helpers.Add(-1)
	defer c.workers.Add(-1)
	c.work()
}

// work deflates and chains unclaimed segments until none is left or ctx is
// done. A SealFrom segment is deflated in place when the view holds it, or
// filled into a pooled buffer first, which goes back as soon as it is
// deflated.
func (c *chain) work() {
	n := len(c.segs)
	for c.lend(); ; c.lend() {
		i := int(c.claim.Add(1)) - 1
		if i >= n || c.ctx.Err() != nil {
			return
		}
		off, end := i*segmentSize, min((i+1)*segmentSize, c.src.n)
		if c.src.fill == nil {
			c.finish(i, compressSegment(c.src.payload[off:end], i == n-1))
			continue
		}
		if c.src.view != nil {
			if in := c.src.view(off, end); in != nil {
				c.finish(i, compressSegment(in, i == n-1))
				continue
			}
		}
		raw := rawPool.Get().(*[]byte)
		c.src.fill((*raw)[:end-off], off)
		seg := compressSegment((*raw)[:end-off], i == n-1)
		rawPool.Put(raw)
		c.finish(i, seg)
	}
}

// Open verifies and unwraps a sealed object. The result never aliases
// sealed, so callers may reuse their input buffer.
func (s *Sealer) Open(sealed []byte) ([]byte, error) {
	if len(sealed) < len(magic)+1+macSize {
		return nil, ErrFormat
	}
	if !bytes.Equal(sealed[:len(magic)], magic) {
		return nil, ErrFormat
	}
	body := sealed[:len(sealed)-macSize]
	wantMAC := sealed[len(sealed)-macSize:]
	var tag [macSize]byte
	if !hmac.Equal(s.sum(tag[:0], body), wantMAC) {
		return nil, ErrIntegrity
	}
	flags := sealed[len(magic)]
	payload := body[len(magic)+1:]
	if flags&flagEncrypted != 0 {
		if !s.opts.Encrypt {
			return nil, errors.New("sealer: object is encrypted but no password configured")
		}
		if len(payload) < ivSize {
			return nil, ErrFormat
		}
		iv := payload[:ivSize]
		enc := payload[ivSize:]
		dec := make([]byte, len(enc))
		cipher.NewCTR(s.block, iv).XORKeyStream(dec, enc)
		payload = dec
	} else if flags&flagCompressed == 0 {
		// Plain: nothing below produces a fresh buffer, and the result
		// must not alias sealed.
		payload = append([]byte(nil), payload...)
	}
	if flags&flagCompressed != 0 {
		out, err := s.decompress(payload)
		if err != nil {
			return nil, fmt.Errorf("sealer: decompress: %w", err)
		}
		payload = out
	}
	return payload, nil
}

// decompress inflates data with a pooled zlib reader, returning a fresh
// exact-size buffer.
func (s *Sealer) decompress(data []byte) ([]byte, error) {
	br := bytes.NewReader(data)
	var zr io.ReadCloser
	if pooled := zrPool.Get(); pooled != nil {
		zr = pooled.(io.ReadCloser)
		if err := zr.(zlib.Resetter).Reset(br, nil); err != nil {
			return nil, err
		}
	} else {
		var err error
		zr, err = zlib.NewReader(br)
		if err != nil {
			return nil, err
		}
	}
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	_, err := buf.ReadFrom(zr)
	if cerr := zr.Close(); err == nil {
		err = cerr
	}
	zrPool.Put(zr)
	if err != nil {
		bufPool.Put(buf)
		return nil, err
	}
	out := make([]byte, buf.Len())
	copy(out, buf.Bytes())
	bufPool.Put(buf)
	return out, nil
}

// pbkdf2SHA256 is PBKDF2 (RFC 2898) with HMAC-SHA-256, implemented here
// because the repository is stdlib-only.
func pbkdf2SHA256(password, salt []byte, iterations, keyLen int) []byte {
	prf := func(data []byte) []byte {
		h := hmac.New(sha256.New, password)
		h.Write(data) //nolint:errcheck // hash writes never fail
		return h.Sum(nil)
	}
	numBlocks := (keyLen + sha256.Size - 1) / sha256.Size
	out := make([]byte, 0, numBlocks*sha256.Size)
	for block := 1; block <= numBlocks; block++ {
		u := prf(append(append([]byte(nil), salt...), byte(block>>24), byte(block>>16), byte(block>>8), byte(block)))
		sum := append([]byte(nil), u...)
		for i := 1; i < iterations; i++ {
			u = prf(u)
			for j := range sum {
				sum[j] ^= u[j]
			}
		}
		out = append(out, sum...)
	}
	return out[:keyLen]
}
