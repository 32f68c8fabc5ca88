// Copyright 2009 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.
//
// The block-choice rules, the code-length coding and the block and bit
// writers below (writeBlock, writeHuff, generateCodegen, dynamicSize,
// writeDynamicHeader, bitWriter and the code tables) follow the Go standard
// library's compress/flate at level BestSpeed (deflate.go's encSpeed and
// huffman_bit_writer.go; the LICENSE file is the Go distribution's),
// restructured to compress one whole in-memory segment. The matcher is not
// the stdlib's. It is a Snappy-style hash matcher in the manner of
// klauspost/compress's level 1 (a 5-byte hash into a table of positions,
// several probes per 8-byte load, backward extension of every hit), with
// its own probe pattern.

package sealer

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
)

// Constants of RFC 1951 and of the encoder. Every one of them shapes the
// output; none is a tuning knob.
const (
	blockSize       = 65535 // the unit of matching and coding
	maxMatchOffset  = 1 << 15
	maxMatchLength  = 258
	baseMatchLength = 3
	minMatchLength  = 4 // the matcher's: a hit compares 4 bytes
	inputMargin     = 8 // the matcher stops this far before a block's end: it loads 8 bytes
	// A closing block shorter than smallBlock skips the matcher: up to
	// storedTail bytes are stored, the rest Huffman-coded as literals.
	smallBlock = 128
	storedTail = 16

	// The hash table holds one position per hash of the 5 bytes there.
	tableBits = 15
	tableSize = 1 << tableBits
	hashMul   = 0x9e3779b97f4a7c15 // 2⁶⁴/φ: spreads the 40 hashed bits over the top ones

	maxNumLit        = 286
	offsetCodeCount  = 30
	codegenCodeCount = 19
	endBlockMarker   = 256
	lengthCodesStart = 257
	badCode          = 255
)

// lengthCodes maps a match length minus 3 to its length code minus 257.
var lengthCodes = [256]uint8{
	0, 1, 2, 3, 4, 5, 6, 7, 8, 8,
	9, 9, 10, 10, 11, 11, 12, 12, 12, 12,
	13, 13, 13, 13, 14, 14, 14, 14, 15, 15,
	15, 15, 16, 16, 16, 16, 16, 16, 16, 16,
	17, 17, 17, 17, 17, 17, 17, 17, 18, 18,
	18, 18, 18, 18, 18, 18, 19, 19, 19, 19,
	19, 19, 19, 19, 20, 20, 20, 20, 20, 20,
	20, 20, 20, 20, 20, 20, 20, 20, 20, 20,
	21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
	21, 21, 21, 21, 21, 21, 22, 22, 22, 22,
	22, 22, 22, 22, 22, 22, 22, 22, 22, 22,
	22, 22, 23, 23, 23, 23, 23, 23, 23, 23,
	23, 23, 23, 23, 23, 23, 23, 23, 24, 24,
	24, 24, 24, 24, 24, 24, 24, 24, 24, 24,
	24, 24, 24, 24, 24, 24, 24, 24, 24, 24,
	24, 24, 24, 24, 24, 24, 24, 24, 24, 24,
	25, 25, 25, 25, 25, 25, 25, 25, 25, 25,
	25, 25, 25, 25, 25, 25, 25, 25, 25, 25,
	25, 25, 25, 25, 25, 25, 25, 25, 25, 25,
	25, 25, 26, 26, 26, 26, 26, 26, 26, 26,
	26, 26, 26, 26, 26, 26, 26, 26, 26, 26,
	26, 26, 26, 26, 26, 26, 26, 26, 26, 26,
	26, 26, 26, 26, 27, 27, 27, 27, 27, 27,
	27, 27, 27, 27, 27, 27, 27, 27, 27, 27,
	27, 27, 27, 27, 27, 27, 27, 27, 27, 27,
	27, 27, 27, 27, 27, 28,
}

// offsetCodes maps a match offset minus 1 below 256 to its offset code.
var offsetCodes = [256]uint8{
	0, 1, 2, 3, 4, 4, 5, 5, 6, 6, 6, 6, 7, 7, 7, 7,
	8, 8, 8, 8, 8, 8, 8, 8, 9, 9, 9, 9, 9, 9, 9, 9,
	10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
	11, 11, 11, 11, 11, 11, 11, 11, 11, 11, 11, 11, 11, 11, 11, 11,
	12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12,
	12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 12,
	13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13,
	13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13,
	14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14,
	14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14,
	14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14,
	14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14, 14,
	15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15,
	15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15,
	15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15,
	15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15,
}

// The extra bits and base value of each length code (minus 257) and of each
// offset code.
var (
	lengthExtraBits = [29]uint8{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2,
		3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0}
	lengthBase = [29]uint32{0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16, 20, 24, 28,
		32, 40, 48, 56, 64, 80, 96, 112, 128, 160, 192, 224, 255}
	offsetExtraBits = [offsetCodeCount]uint8{0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6,
		7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13}
	offsetBase = [offsetCodeCount]uint32{0x0000, 0x0001, 0x0002, 0x0003, 0x0004,
		0x0006, 0x0008, 0x000c, 0x0010, 0x0018, 0x0020, 0x0030, 0x0040, 0x0060,
		0x0080, 0x00c0, 0x0100, 0x0180, 0x0200, 0x0300, 0x0400, 0x0600, 0x0800,
		0x0c00, 0x1000, 0x1800, 0x2000, 0x3000, 0x4000, 0x6000}
	// codegenOrder is the order in which code-length code lengths are sent.
	codegenOrder = [codegenCodeCount]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}
)

// huffOffset is the offset code of a literals-only block: one code of
// length 1 for offset code 0, so that the tree can be sent.
var huffOffset = func() *huffmanEncoder {
	h := new(huffmanEncoder)
	h.codes[0] = hcode{code: 0, len: 1}
	return h
}()

// huffOffsetFreq is the offset histogram compress/flate sizes a
// literals-only block with.
var huffOffsetFreq = []int32{1}

func offsetCode(xoff uint32) uint8 {
	if xoff < 256 {
		return offsetCodes[xoff]
	}
	if xoff>>7 < 256 {
		return offsetCodes[xoff>>7] + 14
	}
	return offsetCodes[xoff>>14] + 28
}

// seq is one match of a block and the run of literals before it.
type seq struct {
	lits  uint32 // literal bytes between the previous match (or block start) and this one
	xoff  uint16 // offset - 1
	xlen  uint8  // length - 3
	ocode uint8  // offset code of xoff
}

// lenCode is a length code with its extra bits already appended.
type lenCode struct {
	code, len uint32
}

// encoder is the state of one deflateSegment call. It is large (the hash
// table alone is 128 KiB) and pooled; nothing in it reaches the output
// except through the segment being compressed.
type encoder struct {
	// table maps a hash of 5 bytes to the last position seen with it, plus
	// cur. The candidate's bytes are read back from the segment.
	table [tableSize]int32
	// cur is added to a position to make a table offset. It grows past every
	// offset stored for an earlier segment by more than maxMatchOffset, so an
	// old entry can never match and the table needs no clearing between
	// calls — only when cur nears the int32 limit.
	cur int32

	seqs     [blockSize/minMatchLength + 1]seq
	nseqs    int
	litFreq  [maxNumLit]int32
	offFreq  [offsetCodeCount]int32
	lit, off huffmanEncoder
	cg       huffmanEncoder // the code-length code
	codegen  [maxNumLit + offsetCodeCount + 1]uint8
	cgFreq   [codegenCodeCount]int32
	lenCodes [256]lenCode
}

func newEncoder() *encoder {
	// A zero entry sits more than maxMatchOffset before any position.
	return &encoder{cur: maxMatchOffset + 1}
}

// deflate appends to dst a raw deflate stream (RFC 1951) of seg. It ends
// in an empty stored block, final if last and otherwise a sync marker that
// leaves the stream byte-aligned and open. The bytes are a function of seg
// alone. seg must be shorter than 1 GiB; Seal never passes more than a
// segment.
func (e *encoder) deflate(dst, seg []byte, last bool) []byte {
	if int64(e.cur)+int64(len(seg)) > math.MaxInt32-2*maxMatchOffset {
		clear(e.table[:])
		e.cur = maxMatchOffset + 1
	}
	w := bitWriter{dst: dst}
	for start := 0; start < len(seg); start += blockSize {
		end := min(start+blockSize, len(seg))
		switch n := end - start; {
		case end < len(seg) || n >= smallBlock:
			e.writeBlock(&w, seg, start, end)
		case n <= storedTail:
			w.writeStored(seg[start:end], false)
		default:
			e.writeHuff(&w, seg[start:end])
		}
	}
	e.cur += int32(len(seg)) + maxMatchOffset + 1
	// The closing empty stored block: final on Close, a sync marker otherwise.
	w.writeStored(nil, last)
	return w.dst
}

// match finds the matches of the block seg[start:end], which may reach
// back into the previous block, and counts the block's literal/length and
// offset histogram as it goes. It returns the number of tokens (literals
// plus matches) the block codes.
//
// The search loads 8 bytes at s, probes s, s+1 and s+3, and steps 7
// further, and more the longer the current run of literals (Snappy's
// skipping). {0, 1, 3} is a perfect difference set modulo 7: whatever the
// offset of a repeat and wherever the steps fall, some probe lands that
// offset after an earlier one, so probing three positions in seven still
// finds repeats at every offset. A hit is extended backward over the
// pending literals, then forward; after it, s-2 and s are indexed and s is
// tried at once, so a run of matches costs no search.
func (e *encoder) match(seg []byte, start, end int32) int {
	clear(e.litFreq[:])
	clear(e.offFreq[:])
	src := seg[:end] // no load looks past the block
	table, cur, litFreq, offFreq, seqs := &e.table, e.cur, &e.litFreq, &e.offFreq, e.seqs[:0]
	sLimit := end - inputMargin
	nextEmit, s := start, start
	for {
		var t int32 // the earlier position src[s:] matches, at least 4 bytes
		for {
			nextS := s + 7 + (s-nextEmit)>>6
			if nextS > sLimit {
				goto emitRemainder
			}
			cv := load64(src, s)
			h0, h1, h3 := hash5(cv), hash5(cv>>8), hash5(cv>>24)
			c0, c1, c3 := table[h0]-cur, table[h1]-cur, table[h3]-cur
			table[h0], table[h1], table[h3] = s+cur, s+1+cur, s+3+cur
			if inWindow(s, c0) && uint32(cv) == load32(src, c0) {
				t = c0
				break
			}
			if inWindow(s+1, c1) && uint32(cv>>8) == load32(src, c1) {
				s, t = s+1, c1
				break
			}
			if inWindow(s+3, c3) && uint32(cv>>24) == load32(src, c3) {
				s, t = s+3, c3
				break
			}
			s = nextS
		}
		for s > nextEmit && t > 0 && src[s-1] == src[t-1] {
			s, t = s-1, t-1
		}

		lits := uint32(s - nextEmit)
		for _, c := range src[nextEmit:s] {
			litFreq[c]++
		}
		for {
			// The match goes out in pieces of at most 258 bytes (RFC 1951's
			// longest); a tail shorter than 4 is left to the literals.
			n := minMatchLength + matchLen(src, s+minMatchLength, t+minMatchLength, end)
			xoff := uint32(s - t - 1)
			oc := offsetCode(xoff)
			for ; n >= minMatchLength; n -= maxMatchLength {
				l := min(n, maxMatchLength)
				litFreq[lengthCodesStart+int(lengthCodes[l-baseMatchLength])]++
				offFreq[oc]++
				seqs = append(seqs, seq{lits: lits, xoff: uint16(xoff), xlen: uint8(l - baseMatchLength), ocode: oc})
				lits = 0
				s += l
			}
			nextEmit = s
			if s >= sLimit {
				goto emitRemainder
			}
			x := load64(src, s-2)
			table[hash5(x)] = s - 2 + cur
			x >>= 16
			h := hash5(x)
			t = table[h] - cur
			table[h] = s + cur
			if !inWindow(s, t) || uint32(x) != load32(src, t) {
				s++
				break
			}
		}
	}

emitRemainder:
	for _, c := range src[nextEmit:] {
		litFreq[c]++
	}
	e.nseqs = len(seqs)
	n := int(end - start)
	for _, q := range seqs {
		n -= int(q.xlen) + baseMatchLength - 1
	}
	return n
}

// inWindow reports whether a table candidate t can be matched from s: it
// lies 1 to maxMatchOffset bytes before s. A probe indexes up to s+3 before
// it tests, and a match may end short of that, so a candidate at or after
// s is possible and must be refused like one too far back.
func inWindow(s, t int32) bool { return uint32(s-t-1) < maxMatchOffset }

func load32(b []byte, i int32) uint32 { return binary.LittleEndian.Uint32(b[i:]) }

func load64(b []byte, i int32) uint64 { return binary.LittleEndian.Uint64(b[i:]) }

// hash5 hashes the low 5 bytes of u to a table index.
func hash5(u uint64) uint32 { return uint32((u << 24) * hashMul >> (64 - tableBits)) }

// matchLen returns how many bytes of b[s:limit] equal those at b[t:], t < s.
func matchLen(b []byte, s, t, limit int32) int32 {
	n := int32(0)
	for ; s+n+8 <= limit; n += 8 {
		if x := load64(b, s+n) ^ load64(b, t+n); x != 0 {
			return n + int32(bits.TrailingZeros64(x)>>3)
		}
	}
	for s+n < limit && b[s+n] == b[t+n] {
		n++
	}
	return n
}

// writeBlock codes seg[start:end] the way compress/flate's encSpeed does:
// as literals if matching removed less than 1/16 of the tokens, else with
// a dynamic code, unless storing is smaller than that code plus 1/16.
func (e *encoder) writeBlock(w *bitWriter, seg []byte, start, end int) {
	n := end - start
	if e.match(seg, int32(start), int32(end)) > n-n>>4 {
		e.writeHuff(w, seg[start:end])
		return
	}
	e.litFreq[endBlockMarker] = 1
	numLit := maxNumLit
	for e.litFreq[numLit-1] == 0 {
		numLit--
	}
	numOff := offsetCodeCount
	for numOff > 0 && e.offFreq[numOff-1] == 0 {
		numOff--
	}
	if numOff == 0 {
		// No match: one offset code still has to be sent for the tree.
		e.offFreq[0] = 1
		numOff = 1
	}
	e.lit.generate(e.litFreq[:], 15)
	e.off.generate(e.offFreq[:], 15)
	size, numCodegens := e.dynamicSize(&e.off, e.offFreq[:], numLit, numOff)
	if (n+5)*8 < size+size>>4 {
		w.writeStored(seg[start:end], false)
		return
	}
	e.writeDynamicHeader(w, &e.off, numLit, numOff, numCodegens)

	extra := 0
	for lc := 8; lc < numLit-lengthCodesStart; lc++ {
		extra += int(e.litFreq[lengthCodesStart+lc]) * int(lengthExtraBits[lc])
	}
	for oc := 4; oc < numOff; oc++ {
		extra += int(e.offFreq[oc]) * int(offsetExtraBits[oc])
	}
	lit, off := &e.lit.codes, &e.off.codes
	for xlen := range e.lenCodes {
		lc := lengthCodes[xlen]
		c := lit[lengthCodesStart+int(lc)]
		e.lenCodes[xlen] = lenCode{
			code: uint32(c.code) | (uint32(xlen)-lengthBase[lc])<<c.len,
			len:  uint32(c.len) + uint32(lengthExtraBits[lc]),
		}
	}

	// The token loop keeps the bit accumulator in locals and stores it, 8
	// bytes at a time, straight into dst, which is grown once for the block.
	// Every store is unconditional and leaves fewer than 8 bits pending (see
	// flush); a store follows at most three literals (45 bits) or one match
	// (a 15-bit length code with 5 extra bits and a 15-bit offset code with
	// 13), so nothing overflows 64.
	dst := slices.Grow(w.dst, (size+extra)/8+8)
	o := len(dst)
	dst = dst[:cap(dst)]
	acc, nb := w.bits, w.nbits
	p := start
	for _, q := range e.seqs[:e.nseqs] {
		o, acc, nb = putLiterals(dst, o, acc, nb, lit, seg[p:p+int(q.lits)])
		p += int(q.lits) + int(q.xlen) + baseMatchLength
		lc := e.lenCodes[q.xlen]
		oc := q.ocode
		h := off[oc]
		acc |= uint64(lc.code)<<nb | (uint64(h.code)|uint64(uint32(q.xoff)-offsetBase[oc])<<h.len)<<(nb+uint(lc.len))
		nb += uint(lc.len) + uint(h.len) + uint(offsetExtraBits[oc])
		o, acc, nb = flush(dst, o, acc, nb)
	}
	w.dst, w.bits, w.nbits = dst[:o], acc, nb
	w.writeLiterals(lit, seg[p:end])
}

// flush stores acc at dst[o:] with one 8-byte store and keeps back the nb&7
// bits of its unfinished byte; the bytes past the finished ones are
// overwritten by the next store or append.
func flush(dst []byte, o int, acc uint64, nb uint) (int, uint64, uint) {
	binary.LittleEndian.PutUint64(dst[o:], acc)
	n := nb >> 3
	return o + int(n), acc >> (n << 3), nb & 7
}

// putLiterals codes b with lit at dst[o:], three literals per store.
// Fewer than 8 bits may be pending, and dst needs 8 bytes of room past the
// coded bits.
func putLiterals(dst []byte, o int, acc uint64, nb uint, lit *[maxNumLit]hcode, b []byte) (int, uint64, uint) {
	for ; len(b) >= 3; b = b[3:] {
		h0, h1, h2 := lit[b[0]], lit[b[1]], lit[b[2]]
		acc |= uint64(h0.code) << nb
		nb += uint(h0.len)
		acc |= uint64(h1.code) << nb
		nb += uint(h1.len)
		acc |= uint64(h2.code) << nb
		nb += uint(h2.len)
		o, acc, nb = flush(dst, o, acc, nb)
	}
	for _, c := range b {
		h := lit[c]
		acc |= uint64(h.code) << nb
		nb += uint(h.len)
	}
	return flush(dst, o, acc, nb)
}

// writeHuff codes block as literals only (compress/flate's writeBlockHuff),
// or stores it if that gains less than 1/16.
func (e *encoder) writeHuff(w *bitWriter, block []byte) {
	clear(e.litFreq[:])
	for _, c := range block {
		e.litFreq[c]++
	}
	e.litFreq[endBlockMarker] = 1
	e.lit.generate(e.litFreq[:], 15)
	size, numCodegens := e.dynamicSize(huffOffset, huffOffsetFreq, endBlockMarker+1, 1)
	if (len(block)+5)*8 < size+size>>4 {
		w.writeStored(block, false)
		return
	}
	e.writeDynamicHeader(w, huffOffset, endBlockMarker+1, 1, numCodegens)
	w.dst = slices.Grow(w.dst, size/8+8)
	w.writeLiterals(&e.lit.codes, block)
}

// generateCodegen writes the run-length coded code lengths of the first
// numLit literal/length codes and numOff offset codes (RFC 1951 3.2.7) to
// e.codegen, terminated by badCode, and counts its symbols in e.cgFreq.
// Codes 0-15 are single byte codes. Codes 16-18 are followed by additional
// information.
func (e *encoder) generateCodegen(off *huffmanEncoder, numLit, numOff int) {
	clear(e.cgFreq[:])
	// codegen holds a copy of the lengths first and the result after; the
	// output is always shorter than the input consumed so far.
	codegen := e.codegen[:]
	for i := range numLit {
		codegen[i] = uint8(e.lit.codes[i].len)
	}
	for i := range numOff {
		codegen[numLit+i] = uint8(off.codes[i].len)
	}
	codegen[numLit+numOff] = badCode

	size := codegen[0]
	count := 1
	outIndex := 0
	for inIndex := 1; size != badCode; inIndex++ {
		// INVARIANT: We have seen "count" copies of size that have not yet
		// had output generated for them.
		nextSize := codegen[inIndex]
		if nextSize == size {
			count++
			continue
		}
		// We need to generate codegen indicating "count" of size.
		if size != 0 {
			codegen[outIndex] = size
			outIndex++
			e.cgFreq[size]++
			count--
			for count >= 3 {
				n := min(6, count)
				codegen[outIndex] = 16
				outIndex++
				codegen[outIndex] = uint8(n - 3)
				outIndex++
				e.cgFreq[16]++
				count -= n
			}
		} else {
			for count >= 11 {
				n := min(138, count)
				codegen[outIndex] = 18
				outIndex++
				codegen[outIndex] = uint8(n - 11)
				outIndex++
				e.cgFreq[18]++
				count -= n
			}
			if count >= 3 {
				// count >= 3 && count <= 10
				codegen[outIndex] = 17
				outIndex++
				codegen[outIndex] = uint8(count - 3)
				outIndex++
				e.cgFreq[17]++
				count = 0
			}
		}
		count--
		for ; count >= 0; count-- {
			codegen[outIndex] = size
			outIndex++
			e.cgFreq[size]++
		}
		// Set up invariant for next time through the loop.
		size = nextSize
		count = 1
	}
	// Marker indicating the end of the codegen.
	codegen[outIndex] = badCode
}

// dynamicSize builds the code-length code for e.lit and off and returns
// compress/flate's estimate of the dynamic block in bits — header and
// codes, but no extra bits — and the number of code-length codes to send.
func (e *encoder) dynamicSize(off *huffmanEncoder, offFreq []int32, numLit, numOff int) (size, numCodegens int) {
	e.generateCodegen(off, numLit, numOff)
	e.cg.generate(e.cgFreq[:], 7)
	numCodegens = codegenCodeCount
	for numCodegens > 4 && e.cgFreq[codegenOrder[numCodegens-1]] == 0 {
		numCodegens--
	}
	header := 3 + 5 + 5 + 4 + (3 * numCodegens) +
		e.cg.bitLength(e.cgFreq[:]) +
		int(e.cgFreq[16])*2 +
		int(e.cgFreq[17])*3 +
		int(e.cgFreq[18])*7
	return header + e.lit.bitLength(e.litFreq[:]) + off.bitLength(offFreq), numCodegens
}

// writeDynamicHeader starts a non-final dynamic block whose codes are e.lit
// and off, as generateCodegen left them in e.codegen.
func (e *encoder) writeDynamicHeader(w *bitWriter, off *huffmanEncoder, numLit, numOff, numCodegens int) {
	w.writeBits(4, 3) // BFINAL 0, BTYPE 10
	w.writeBits(uint32(numLit-257), 5)
	w.writeBits(uint32(numOff-1), 5)
	w.writeBits(uint32(numCodegens-4), 4)
	for _, c := range codegenOrder[:numCodegens] {
		w.writeBits(uint32(e.cg.codes[c].len), 3)
	}
	for i := 0; e.codegen[i] != badCode; i++ {
		cw := e.codegen[i]
		w.writeCode(e.cg.codes[cw])
		switch cw {
		case 16:
			i++
			w.writeBits(uint32(e.codegen[i]), 2)
		case 17:
			i++
			w.writeBits(uint32(e.codegen[i]), 3)
		case 18:
			i++
			w.writeBits(uint32(e.codegen[i]), 7)
		}
	}
}

// bitWriter appends an LSB-first bit stream to dst: the bits not yet
// stored wait in the low nbits of bits.
type bitWriter struct {
	dst   []byte
	bits  uint64
	nbits uint
}

func (w *bitWriter) writeBits(b uint32, nb uint) {
	w.bits |= uint64(b) << w.nbits
	w.nbits += nb
	for w.nbits >= 8 {
		w.dst = append(w.dst, byte(w.bits))
		w.bits >>= 8
		w.nbits -= 8
	}
}

func (w *bitWriter) writeCode(c hcode) { w.writeBits(uint32(c.code), uint(c.len)) }

// writeStored writes a stored block of b, at most blockSize bytes; final
// marks the stream's last block.
func (w *bitWriter) writeStored(b []byte, final bool) {
	flag := uint32(0)
	if final {
		flag = 1
	}
	w.writeBits(flag, 3)
	w.writeBits(0, (8-w.nbits)&7) // to a byte boundary
	n := uint16(len(b))
	w.dst = append(w.dst, byte(n), byte(n>>8), byte(^n), byte(^n>>8))
	w.dst = append(w.dst, b...)
}

// writeLiterals codes b with the literal codes lit, then the end-of-block
// code. dst must have room for all of it plus 8 bytes.
func (w *bitWriter) writeLiterals(lit *[maxNumLit]hcode, b []byte) {
	o, acc, nb := putLiterals(w.dst[:cap(w.dst)], len(w.dst), w.bits, w.nbits, lit, b)
	w.dst, w.bits, w.nbits = w.dst[:o], acc, nb
	w.writeCode(lit[endBlockMarker])
}
