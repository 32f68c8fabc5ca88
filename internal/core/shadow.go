package core

import "bytes"

// walShadows trims each WAL write against its file's shadow, the untrimmed
// copy of the file's highest write in the last batch that touched it. A
// new epoch clears every shadow, and every DB object's ts is a cut, so a
// recovery that replays a trimmed write replays its shadow (DESIGN.md §12).
type walShadows struct {
	epoch int64
	files map[string]FileWrite
	spare [][]byte // buffers of cleared shadows, reused
}

// trim cuts plan's writes against the shadows of epoch, then makes each
// file's highest write in merged, the batch plan was packed from, its
// shadow. Every object stays, even one whose writes all shrink to nothing.
func (s *walShadows) trim(epoch int64, plan [][]FileWrite, merged []FileWrite) {
	if epoch != s.epoch {
		for _, sh := range s.files {
			s.spare = append(s.spare, sh.Data)
		}
		clear(s.files)
		s.epoch = epoch
	}
	for _, group := range plan {
		for i := range group {
			if sh, ok := s.files[group[i].Path]; ok {
				trimAgainst(&group[i], sh)
			}
		}
	}
	for i, w := range merged {
		if i+1 < len(merged) && merged[i+1].Path == w.Path {
			continue
		}
		sh, ok := s.files[w.Path]
		if n := len(s.spare); !ok && n > 0 {
			sh.Data, s.spare = s.spare[n-1], s.spare[:n-1]
		}
		s.files[w.Path] = FileWrite{Path: w.Path, Offset: w.Offset, Data: append(sh.Data[:0], w.Data...)}
	}
}

// trimAgainst drops w's leading bytes that equal sh if w starts inside it,
// then its trailing bytes that do if w ends inside it.
func trimAgainst(w *FileWrite, sh FileWrite) {
	if w.Offset >= sh.Offset && w.Offset < sh.End() {
		n := common(w.Data, sh.Data[w.Offset-sh.Offset:], false)
		w.Offset, w.Data = w.Offset+int64(n), w.Data[n:]
	}
	if lo, end := max(w.Offset, sh.Offset), w.End(); end <= sh.End() && end > lo {
		w.Data = w.Data[:len(w.Data)-common(w.Data[lo-w.Offset:], sh.Data[lo-sh.Offset:end-sh.Offset], true)]
	}
}

// common counts the bytes a and b share at their start, or at their end
// if back, comparing 64-byte blocks first.
func common(a, b []byte, back bool) int {
	at := func(i, n int) ([]byte, []byte) {
		if back {
			return a[len(a)-i-n : len(a)-i], b[len(b)-i-n : len(b)-i]
		}
		return a[i : i+n], b[i : i+n]
	}
	i := 0
	for _, k := range [...]int{64, 1} {
		for i+k <= min(len(a), len(b)) && bytes.Equal(at(i, k)) {
			i += k
		}
	}
	return i
}
