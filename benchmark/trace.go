package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one traced interval at a layer seam. Spans of one client write
// share a trace id; a cloud operation outside any client write is its own
// trace and carries the object name instead.
type span struct {
	Trace   int64  `json:"trace"`
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Object  string `json:"object,omitempty"`
}

// maxSpans bounds the in-memory trace; spans past it are counted, not kept.
const maxSpans = 400_000

// tracer keeps spans in memory until the run ends. The client path
// (client.write ⊃ vfs.local_write, core.on_write ⊃ dbevent.classify) is
// synchronous on the writing goroutine, so an explicit stack gives parents;
// cloud spans come from uploader goroutines and are linked by object name.
type tracer struct {
	epoch time.Time
	// linkCloud is set where commits are synchronous (sync_commit): the cloud
	// op that ends inside a sampled client write is that write's child, and
	// cloud ops ending outside one are not kept.
	linkCloud bool

	sampled atomic.Bool // a sampled client write is in progress
	mu      sync.Mutex
	spans   []span
	stack   []int          // open client-path spans (indices into spans)
	puts    map[string]int // object name → open cloud span
	dropped int64
}

func newTracer(linkCloud bool) *tracer {
	return &tracer{epoch: time.Now(), linkCloud: linkCloud, puts: make(map[string]int)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// push appends an open span; callers hold mu. Returns -1 when full.
func (t *tracer) push(s span) int {
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	s.ID = int64(len(t.spans) + 1)
	if s.Trace == 0 {
		s.Trace = s.ID
	}
	s.StartNs = t.now()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// beginClient opens the root span of a sampled client write.
func (t *tracer) beginClient(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	i := t.push(span{Name: name})
	if i >= 0 {
		t.stack = append(t.stack[:0], i)
		t.sampled.Store(true)
	}
	return i
}

func (t *tracer) endClient(i int) {
	if i < 0 {
		return
	}
	t.mu.Lock()
	t.spans[i].EndNs = t.now()
	t.stack = t.stack[:0]
	t.sampled.Store(false)
	t.mu.Unlock()
}

// begin opens a child span on the client path; a no-op (-1) unless a
// sampled client write is in progress. Safe on a nil tracer.
func (t *tracer) begin(name string) int {
	if t == nil || !t.sampled.Load() {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.stack) == 0 {
		return -1
	}
	top := t.spans[t.stack[len(t.stack)-1]]
	i := t.push(span{Name: name, Parent: top.ID, Trace: top.Trace})
	if i >= 0 {
		t.stack = append(t.stack, i)
	}
	return i
}

func (t *tracer) end(i int) {
	if i < 0 {
		return
	}
	t.mu.Lock()
	t.spans[i].EndNs = t.now()
	if n := len(t.stack); n > 0 && t.stack[n-1] == i {
		t.stack = t.stack[:n-1]
	}
	t.mu.Unlock()
}

// beginCloud opens a cloud.* span for an object-store call.
func (t *tracer) beginCloud(name, object string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	i := t.push(span{Name: name, Object: object})
	if i >= 0 && name == "cloud.put" {
		t.puts[object] = i
	}
	return i
}

// endCloud closes a cloud span. Under linkCloud it becomes the child of the
// deepest open client-path span, or is discarded when none is being traced.
func (t *tracer) endCloud(i int) {
	if i < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[i]
	s.EndNs = t.now()
	if s.Name == "cloud.put" {
		delete(t.puts, s.Object)
	}
	if !t.linkCloud {
		return
	}
	if len(t.stack) == 0 {
		s.Name = "" // discarded at write-out, with its children
		return
	}
	top := t.spans[t.stack[len(t.stack)-1]]
	s.Parent, s.Trace = top.ID, top.Trace
}

// beginServer opens the s3http.server span under the cloud.put in flight for
// the same object.
func (t *tracer) beginServer(object string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok := t.puts[object]
	if !ok {
		return -1
	}
	return t.push(span{Name: "s3http.server", Parent: t.spans[p].ID, Trace: t.spans[p].Trace, Object: object})
}

// root records a whole-operation span (core.boot, core.recover).
func (t *tracer) root(name string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if i := t.push(span{Name: name}); i >= 0 {
		t.spans[i].StartNs = int64(start.Sub(t.epoch))
		t.spans[i].EndNs = t.spans[i].StartNs + int64(d)
	}
	t.mu.Unlock()
}

// finished returns the kept spans: closed, not discarded, and — fixing up
// children of a linked cloud.put — carrying their parent's trace id.
func (t *tracer) finished() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	gone := make(map[int64]bool)
	trace := make(map[int64]int64, len(t.spans))
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.Name == "" || s.EndNs == 0 || gone[s.Parent] {
			gone[s.ID] = true
			continue
		}
		if tr, ok := trace[s.Parent]; ok {
			s.Trace = tr
		}
		trace[s.ID] = s.Trace
		out = append(out, s)
	}
	return out
}

func writeTrace(path string, spans []span, dropped int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Dropped int64  `json:"dropped_spans"`
		Spans   []span `json:"spans"`
	}{dropped, spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// layerShare is one layer's self time inside a client write.
type layerShare struct {
	Layer  string `json:"layer"`
	SelfNs int64  `json:"self_ns"`
}

// medianCommit picks the traced client write of median duration and splits
// it into per-layer self times: a layer's self time is its span minus the
// part of that interval its children cover. The shares add up to the
// client.write span exactly; what no child covers inside core.on_write stays
// with core.
func medianCommit(spans []span) (total int64, shares []layerShare) {
	type commit struct {
		root span
		kids []span
	}
	byTrace := make(map[int64]*commit)
	for _, s := range spans {
		if s.Name == "client.write" {
			byTrace[s.Trace] = &commit{root: s}
		}
	}
	for _, s := range spans {
		if c, ok := byTrace[s.Trace]; ok && s.Name != "client.write" {
			c.kids = append(c.kids, s)
		}
	}
	if len(byTrace) == 0 {
		return 0, nil
	}
	commits := make([]*commit, 0, len(byTrace))
	for _, c := range byTrace {
		commits = append(commits, c)
	}
	sort.Slice(commits, func(i, j int) bool {
		di, dj := commits[i].root.EndNs-commits[i].root.StartNs, commits[j].root.EndNs-commits[j].root.StartNs
		if di != dj {
			return di < dj
		}
		return commits[i].root.ID < commits[j].root.ID
	})
	c := commits[len(commits)/2]

	// covered is how much of parent's interval the named spans cover
	// together: children may overlap (S=1 lets the next update's PUT start
	// while this one's is in flight) and a cloud.put may start in the gap
	// before the client write that waits for it, so intervals are clamped
	// to the parent and merged before they are summed.
	covered := func(parent span, names ...string) int64 {
		var iv [][2]int64
		for _, k := range c.kids {
			for _, name := range names {
				if k.Name == name {
					lo, hi := max(k.StartNs, parent.StartNs), min(k.EndNs, parent.EndNs)
					if hi > lo {
						iv = append(iv, [2]int64{lo, hi})
					}
				}
			}
		}
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var sum, end int64
		for _, x := range iv {
			if x[1] > end {
				sum += x[1] - max(x[0], end)
				end = x[1]
			}
		}
		return sum
	}
	total = c.root.EndNs - c.root.StartNs
	var onWrite span
	for _, k := range c.kids {
		if k.Name == "core.on_write" {
			onWrite = k
		}
	}
	localNs := covered(c.root, "vfs.local_write")
	onNs := covered(c.root, "core.on_write")
	putNs := covered(onWrite, "cloud.put")
	serverNs := covered(onWrite, "s3http.server")
	onKids := covered(onWrite, "dbevent.classify", "cloud.put")
	shares = []layerShare{
		{"vfs (intercept self)", total - localNs - onNs},
		{"vfs.local_write", localNs},
		{"dbevent.classify", onKids - putNs},
		{"core (on_write self: enqueue, batch cut, seal, ack, unblock)", onNs - onKids},
		{"s3http client (cloud.put self)", putNs - serverNs},
		{"s3http.server", serverNs},
	}
	return total, shares
}
