// Copyright 2009 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.
//
// The matcher, block-choice rules and block writers below follow the Go
// standard library's compress/flate at level BestSpeed (deflatefast.go,
// deflate.go's encSpeed and huffman_bit_writer.go; the LICENSE file is the
// Go distribution's), restructured to compress one whole in-memory segment.

package sealer

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
)

// Constants of RFC 1951 and of compress/flate's BestSpeed level. Every one
// of them shapes the output; none is a tuning knob.
const (
	blockSize       = 65535 // BestSpeed's unit of matching and coding
	maxMatchOffset  = 1 << 15
	maxMatchLength  = 258
	baseMatchLength = 3
	inputMargin     = 16 - 1 // the matcher stops this far before a block's end
	// A closing block shorter than smallBlock skips the matcher: up to
	// storedTail bytes are stored, the rest Huffman-coded as literals.
	smallBlock = 128
	storedTail = 16

	tableBits  = 14
	tableSize  = 1 << tableBits
	tableMask  = tableSize - 1
	tableShift = 32 - tableBits

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

// tableEntry is a slot of the matcher's hash table: four bytes of the
// segment and their position plus the encoder's base.
type tableEntry struct {
	val    uint32
	offset int32
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
	table [tableSize]tableEntry
	// cur is added to a position to make a table offset. It grows past every
	// offset stored for an earlier segment by more than maxMatchOffset, so an
	// old entry can never match and the table needs no clearing between
	// calls — only when cur nears the int32 limit.
	cur int32

	seqs     [blockSize/4 + 1]seq // a match covers at least 4 bytes
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

// deflate appends to dst the raw deflate stream compress/flate's BestSpeed
// writer produces for one Write of seg followed by Close (last) or Flush.
// seg must be shorter than 1 GiB; Seal never passes more than a segment.
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

// match runs BestSpeed's Snappy-style matcher over the block seg[start:end],
// which may reach back into the previous block, and counts the block's
// literal/length and offset histogram as it goes. It returns the number of
// tokens (literals plus matches) compress/flate would have queued.
func (e *encoder) match(seg []byte, start, end int32) int {
	clear(e.litFreq[:])
	clear(e.offFreq[:])
	src := seg[:end] // no load looks past the block
	table, cur, litFreq, offFreq, seqs := &e.table, e.cur, &e.litFreq, &e.offFreq, e.seqs[:0]
	sLimit := end - inputMargin
	nextEmit, s := start, start
	cv := load32(src, s)
	nextHash := hash4(cv)

	for {
		// Heuristic match skipping, as in Snappy: after 32 bytes without a
		// match look at every other byte, after 32 more every third, and so on.
		skip := int32(32)
		nextS := s
		var candidate tableEntry
		for {
			s = nextS
			step := skip >> 5
			nextS = s + step
			skip += step
			if nextS > sLimit {
				goto emitRemainder
			}
			candidate = table[nextHash&tableMask]
			now := load32(src, nextS)
			table[nextHash&tableMask] = tableEntry{offset: s + cur, val: cv}
			nextHash = hash4(now)
			if s-(candidate.offset-cur) <= maxMatchOffset && cv == candidate.val {
				break
			}
			cv = now
		}

		lits := s - nextEmit
		for _, c := range src[nextEmit:s] {
			litFreq[c]++
		}
		for {
			// A 4-byte match at s: extend it, then see whether another starts
			// right after it.
			s += 4
			t := candidate.offset - cur + 4
			l := matchLen(src, s, t, min(s+maxMatchLength-4, end))
			xlen := l + 4 - baseMatchLength
			xoff := uint32(s - t - 1)
			oc := offsetCode(xoff)
			litFreq[lengthCodesStart+int(lengthCodes[xlen])]++
			offFreq[oc]++
			seqs = append(seqs, seq{lits: uint32(lits), xoff: uint16(xoff), xlen: uint8(xlen), ocode: oc})
			lits = 0
			s += l
			nextEmit = s
			if s >= sLimit {
				goto emitRemainder
			}
			x := load64(src, s-1)
			prevHash := hash4(uint32(x))
			table[prevHash&tableMask] = tableEntry{offset: cur + s - 1, val: uint32(x)}
			x >>= 8
			currHash := hash4(uint32(x))
			candidate = table[currHash&tableMask]
			table[currHash&tableMask] = tableEntry{offset: cur + s, val: uint32(x)}
			if s-(candidate.offset-cur) > maxMatchOffset || uint32(x) != candidate.val {
				cv = uint32(x >> 8)
				nextHash = hash4(cv)
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

func load32(b []byte, i int32) uint32 { return binary.LittleEndian.Uint32(b[i:]) }

func load64(b []byte, i int32) uint64 { return binary.LittleEndian.Uint64(b[i:]) }

func hash4(u uint32) uint32 { return (u * 0x1e35a7bd) >> tableShift }

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

	// The token loop keeps the bit accumulator in locals and stores whole
	// 32-bit words straight into dst, which is grown once for the block.
	// Before every add fewer than 32 bits are pending and no add exceeds 28
	// (a 15-bit offset code and 13 extra bits), so nothing overflows 64.
	dst := slices.Grow(w.dst, (size+extra)/8+8)
	o := len(dst)
	dst = dst[:cap(dst)]
	acc, nb := w.bits, w.nbits
	p := start
	for _, q := range e.seqs[:e.nseqs] {
		for _, c := range seg[p : p+int(q.lits)] {
			h := lit[c]
			acc |= uint64(h.code) << nb
			nb += uint(h.len)
			if nb >= 32 {
				binary.LittleEndian.PutUint32(dst[o:], uint32(acc))
				o, acc, nb = o+4, acc>>32, nb-32
			}
		}
		p += int(q.lits) + int(q.xlen) + baseMatchLength
		lc := e.lenCodes[q.xlen]
		acc |= uint64(lc.code) << nb
		nb += uint(lc.len)
		if nb >= 32 {
			binary.LittleEndian.PutUint32(dst[o:], uint32(acc))
			o, acc, nb = o+4, acc>>32, nb-32
		}
		oc := q.ocode
		h := off[oc]
		acc |= (uint64(h.code) | uint64(uint32(q.xoff)-offsetBase[oc])<<h.len) << nb
		nb += uint(h.len) + uint(offsetExtraBits[oc])
		if nb >= 32 {
			binary.LittleEndian.PutUint32(dst[o:], uint32(acc))
			o, acc, nb = o+4, acc>>32, nb-32
		}
	}
	w.dst, w.bits, w.nbits = dst[:o], acc, nb
	w.writeLiterals(lit, seg[p:end])
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
	dst := w.dst
	o := len(dst)
	dst = dst[:cap(dst)]
	acc, nb := w.bits, w.nbits
	for _, c := range b {
		h := lit[c]
		acc |= uint64(h.code) << nb
		nb += uint(h.len)
		if nb >= 32 {
			binary.LittleEndian.PutUint32(dst[o:], uint32(acc))
			o, acc, nb = o+4, acc>>32, nb-32
		}
	}
	w.dst, w.bits, w.nbits = dst[:o], acc, nb
	w.writeCode(lit[endBlockMarker])
}
