package core

import (
	"fmt"
	"math/bits"
	"strings"
	"testing"
)

// The world around the checkpoint queue, in live_test.go's page model (WAL
// write w sets page w % livePages to w). Checkpoint end k follows WAL writes
// 2k-1 and 2k, so its object, or the chain element it plans, has ts 2k; the
// boot dump is end 0 at ts 0. An object is named by the end whose ts it
// has: a merged checkpoint takes the newest end's.
const (
	qMaxEnds = 8
	qWindow  = 4 // CheckpointUploaders × MaxObjectSize, in size units
)

// qSizes are an end's own sizes: one that merges with anything but the
// largest, one that fills the window when merged with the first, and one
// past the window alone.
var qSizes = [...]int64{1, 3, 5}

// qTried is what a superseded checkpoint's upload tried: one part.
var qTried = []string{"part"}

type qStep func(ckptQueue, qEvent) (ckptQueue, []qAction)

type qEndPhase uint8

const (
	endIdle    qEndPhase = iota
	endSnapped           // the snapshot is taken; qMu is released while the union merges and the rule runs
	endWaiting           // the commit would outgrow the window: parked until the queue changes
)

type qLoop uint8

const (
	loopIdle   qLoop = iota
	loopCkpt         // uploading a checkpoint
	loopElem         // uploading a chain element
	loopLanded       // the element landed; sweeping
)

// qWorld is the shell and the bucket around the queue, kept apart from the
// queue so that a wrong step shows as a broken invariant rather than as a
// confused harness.
type qWorld struct {
	q ckptQueue

	ends   int       // ends begun
	phase  qEndPhase // of end ends
	size   int64     // its own size, once chosen
	snap   qAction   // its snapshot
	commit qEvent    // its parked commit

	loop     qLoop
	cur      int  // the object the loop holds
	cut      bool // a crossing cancelled it
	exited   bool
	failed   bool
	inFlight int // chain elements queued or uploading and not landed
	planned  int // the last chain element planned: the dirty map's reset

	carries [qMaxEnds + 1]uint16    // by object: the ends whose writes it carries
	content [qMaxEnds + 1]pageState // by object: the pages it carries (-1: not carried)
	typ     [qMaxEnds + 1]DBObjectType
	base    [qMaxEnds + 1]int // by delta: its base

	landed    uint16 // objects recorded in the view
	reserved  uint16 // objects holding a generation reservation
	committed uint16 // ends whose commit returned
	settled   uint16 // ends that landed, merged into an object that landed, or superseded by an element that landed
	dropped   uint16 // ends a crossing dropped unsent
	tried     uint16 // superseded checkpoints with a part in the bucket
	orphans   uint16 // those the view recorded as orphans

	syncOn     bool
	syncTarget int64
	syncEnds   uint16 // the ends committed when the sync was issued

	bad string // the first broken invariant
}

type qMove uint8

const (
	mEnd qMove = iota
	mCkpt1
	mCkpt3
	mCkpt5
	mDump
	mDelta
	mRecommit
	mNext
	mLanded
	mDone
	mSuperseded
	mFail
	mSync
	mClose
	qMoves
)

var qMoveNames = [qMoves]string{"end", "ckpt1", "ckpt3", "ckpt5", "dump", "delta", "recommit",
	"next", "landed", "done", "superseded", "fail", "sync", "close"}

func newQWorld() qWorld {
	w := qWorld{q: ckptQueue{window: qWindow}, landed: 1, settled: 1, carries: [qMaxEnds + 1]uint16{1}}
	w.typ[0], w.content[0] = Dump, truthAt(0)
	return w
}

func (w *qWorld) enabled(m qMove) bool {
	switch m {
	case mEnd:
		return w.phase == endIdle && w.ends < qMaxEnds
	case mCkpt1, mCkpt3, mCkpt5:
		return w.phase == endSnapped && (w.size == 0 || w.size == qSizes[m-mCkpt1])
	case mDump, mDelta:
		return w.phase == endSnapped && w.snap.rule
	case mRecommit: // the shell re-offers its commit once a wake finds the open checkpoint gone
		return w.phase == endWaiting && w.q.open.seq != w.commit.base
	case mNext:
		return w.loop == loopIdle && !w.exited && (w.q.elem.seq != 0 || w.q.open.seq != 0 || w.q.closed)
	case mLanded:
		return w.loop == loopElem
	case mDone:
		return w.loop == loopCkpt || w.loop == loopLanded
	case mSuperseded:
		return w.loop == loopCkpt && w.cut
	case mFail:
		return w.loop != loopIdle
	case mSync:
		return !w.syncOn
	default: // mClose
		return !w.q.closed
	}
}

func (w *qWorld) fail(format string, args ...any) {
	if w.bad == "" {
		w.bad = fmt.Sprintf(format, args...)
	}
}

// run feeds ev to st and does what the shell does with the actions that
// concern no caller; it returns the caller's.
func (w *qWorld) run(st qStep, ev qEvent) (reply qAction, acts []qAction) {
	w.q, acts = st(w.q, ev)
	for _, a := range acts {
		switch id := int(a.obj.ts / 2); a.kind {
		case actAbsorb:
			w.reserved &^= 1 << id
			if a.queued && a.into != Checkpoint {
				w.dropped |= w.carries[id]
			}
			if len(a.tried) > 0 {
				w.orphans |= 1 << id
			}
		case actCancel:
			w.cut = true
		case actQueued, actWake:
		default:
			reply = a
		}
	}
	return reply, acts
}

func (w *qWorld) snapshot(st qStep) {
	reply, _ := w.run(st, qEvent{kind: evSnapshot})
	w.snapped(reply)
}

func (w *qWorld) snapped(snap qAction) {
	w.snap, w.phase = snap, endSnapped
	if w.snap.rule != (w.inFlight == 0) {
		w.fail("the 150 %% rule may run: %v, with %d chain elements in flight", w.snap.rule, w.inFlight)
	}
}

// offer hands in the end's commit.
func (w *qWorld) offer(st qStep, ev qEvent) []qAction {
	reply, acts := w.run(st, ev)
	switch reply.kind {
	case actSnapshot: // the open checkpoint left: rebuild without it
		w.snapped(reply)
	case actWait:
		w.phase, w.commit = endWaiting, ev
	default:
		w.phase = endIdle
		w.committed |= 1 << w.ends
	}
	return acts
}

// own is what end k's checkpoint carries: the pages WAL writes 2k-1 and 2k
// dirtied.
func own(k int) pageState { return dirtied(2*k-2, 2*k) }

// dirtied is the pages WAL writes from+1 … to set, at their values at to.
func dirtied(from, to int) (s pageState) {
	s = pageState{-1, -1, -1}
	for w := int64(from + 1); w <= int64(to); w++ {
		s[w%livePages] = w
	}
	return s
}

func overlay(s *pageState, o pageState) {
	for i, v := range o {
		if v >= 0 {
			s[i] = v
		}
	}
}

// hist lists the landed objects in ts order, as the view does.
func (w *qWorld) hist() []DBObjectInfo {
	var h []DBObjectInfo
	for j := 0; j <= qMaxEnds; j++ {
		if w.landed&(1<<j) != 0 {
			d := DBObjectInfo{Ts: int64(2 * j), Type: w.typ[j]}
			if d.Type == Delta {
				d.BaseTs = int64(2 * w.base[j])
			}
			h = append(h, d)
		}
	}
	return h
}

// tip is the chain tip planChainElement reads from the view's live set.
func (w *qWorld) tip() int {
	db, _, _ := live(w.hist(), nil, -1)
	tip := 0
	for _, d := range db {
		if d.Type != Checkpoint {
			tip = int(d.Ts / 2)
		}
	}
	return tip
}

// crash checks the bucket as a crash now leaves it: live(-1)'s plan over
// the landed objects, applied with the page model both by position
// (modelApply) and by what each object really carries, yields the truth
// at the plan's last ts.
func (w *qWorld) crash() {
	hist := w.hist()
	db, _, err := live(hist, nil, -1)
	if err != nil {
		w.fail("recovery after a crash here: %v", err)
		return
	}
	pos, real := pageState{-1, -1, -1}, pageState{-1, -1, -1}
	for _, d := range db {
		for i := range hist {
			if hist[i].Ts == d.Ts {
				modelApply(&pos, hist, i)
			}
		}
		overlay(&real, w.content[d.Ts/2])
	}
	tip := db[len(db)-1].Ts
	if truth := truthAt(tip); pos != truth || real != truth {
		w.fail("a crash here recovers %s: pages %v (by position %v), want %v at ts %d",
			planSig(db, nil), real, pos, truth, tip)
	}
}

func (w *qWorld) apply(st qStep, m qMove) {
	prev := w.q
	k := w.ends
	var acts []qAction
	switch m {
	case mEnd:
		w.ends++
		w.reserved |= 1 << w.ends
		w.size = 0
		w.snapshot(st)
	case mCkpt1, mCkpt3, mCkpt5:
		w.size = qSizes[m-mCkpt1]
		obj := dbObject{ts: int64(2 * k), typ: Checkpoint, bufBytes: w.size}
		w.typ[k], w.carries[k], w.content[k] = Checkpoint, 1<<k, own(k)
		if b := w.snap.obj; b.seq != 0 {
			j := int(b.ts / 2)
			obj.bufBytes += b.bufBytes
			w.carries[k] |= w.carries[j]
			w.content[k] = w.content[j]
			overlay(&w.content[k], own(k))
		}
		acts = w.offer(st, qEvent{kind: evCommit, obj: obj, base: w.snap.obj.seq})
	case mDump, mDelta:
		obj := dbObject{ts: int64(2 * k), typ: Dump, bufBytes: 1}
		w.content[k] = truthAt(int64(2 * k))
		if m == mDelta {
			obj.typ = Delta
			w.base[k] = w.tip()
			obj.baseTs = int64(2 * w.base[k])
			w.content[k] = dirtied(2*w.planned, 2*k)
		}
		w.typ[k], w.carries[k], w.planned = obj.typ, 1<<(k+1)-1, k
		w.inFlight++
		acts = w.offer(st, qEvent{kind: evCommit, obj: obj, base: w.snap.obj.seq})
		if prev.open.seq != 0 && (w.q.open.seq == prev.open.seq ||
			!containsAct(acts, qAction{kind: actAbsorb, obj: prev.open, into: obj.typ})) {
			w.fail("a crossing left the open checkpoint (end %d) queued", prev.open.ts/2)
		}
		if w.loop == loopCkpt && !containsAct(acts, qAction{kind: actCancel, into: obj.typ}) {
			w.fail("a crossing left the checkpoint uploading (end %d) uncancelled", w.cur)
		}
	case mRecommit:
		w.offer(st, w.commit)
	case mNext:
		reply, _ := w.run(st, qEvent{kind: evNext})
		switch id := int(reply.obj.ts / 2); reply.kind {
		case actExit:
			w.exited = true
		case actUpload:
			w.loop, w.cur, w.cut = loopCkpt, id, false
			if reply.obj.typ != Checkpoint {
				w.loop = loopElem
			} else if w.carries[id]&w.dropped != 0 {
				w.fail("checkpoint end %d ships after a crossing dropped it", id)
			}
		}
	case mLanded:
		w.run(st, qEvent{kind: evLanded})
		w.loop, w.inFlight = loopLanded, w.inFlight-1
		w.landed |= 1 << w.cur
		w.reserved &^= 1 << w.cur
		w.settled |= w.carries[w.cur]
		w.crash()
	case mDone:
		w.run(st, qEvent{kind: evDone})
		if w.loop == loopCkpt {
			w.landed |= 1 << w.cur
			w.reserved &^= 1 << w.cur
			w.settled |= w.carries[w.cur]
			w.crash()
		} else { // the element's sweep deletes the orphans the view recorded
			w.tried &^= w.orphans
			w.orphans = 0
			if w.tried != 0 {
				w.fail("superseded checkpoint parts %b outlive the chain element's sweep", w.tried)
			}
		}
		w.loop = loopIdle
	case mSuperseded:
		w.tried |= 1 << w.cur // it tried one part: the part may be in the bucket
		w.run(st, qEvent{kind: evSuperseded, tried: qTried})
		w.loop = loopIdle
		if w.q.done != prev.done {
			w.fail("done advanced %d → %d on a superseded checkpoint", prev.done, w.q.done)
		}
	case mFail:
		w.run(st, qEvent{kind: evFailed})
		w.failed = true
	case mSync:
		w.syncOn, w.syncTarget, w.syncEnds = true, w.q.seq, w.committed
	case mClose:
		w.run(st, qEvent{kind: evClose})
	}
	w.invariants(st)
}

func waits(_ ckptQueue, acts []qAction) bool { return containsAct(acts, qAction{kind: actWait}) }

func containsAct(acts []qAction, want qAction) bool {
	for _, a := range acts {
		if a.kind == want.kind && a.into == want.into && a.obj.seq == want.obj.seq {
			return true
		}
	}
	return false
}

// invariants checks what must hold after every step.
func (w *qWorld) invariants(st qStep) {
	q := &w.q
	if w.inFlight > 1 {
		w.fail("%d chain elements queued or uploading", w.inFlight)
	}
	if q.open.seq != 0 {
		id := int(q.open.ts / 2)
		if q.elem.seq != 0 && q.open.seq < q.elem.seq {
			w.fail("the open checkpoint (seq %d) sits before the chain element (seq %d)", q.open.seq, q.elem.seq)
		}
		if first := bits.TrailingZeros16(w.carries[id]); first <= w.planned {
			w.fail("the open checkpoint carries end %d across the chain element of end %d", first, w.planned)
		}
		if bits.OnesCount16(w.carries[id]) > 1 && q.open.bufBytes > q.window {
			w.fail("the open checkpoint grew to %d, past the window %d", q.open.bufBytes, q.window)
		}
	}
	want := uint16(0)
	if w.phase != endIdle {
		want |= 1 << w.ends
	}
	if q.open.seq != 0 {
		want |= 1 << (q.open.ts / 2)
	}
	if q.elem.seq != 0 {
		want |= 1 << (q.elem.ts / 2)
	}
	if w.loop == loopCkpt || w.loop == loopElem {
		want |= 1 << w.cur
	}
	if w.reserved != want {
		w.fail("generation reservations held by %b, want %b (the end in progress and the objects queued or uploading)",
			w.reserved, want)
	}
	if w.syncOn && !waits(st(w.q, qEvent{kind: evSync, base: w.syncTarget})) {
		w.syncOn = false
		if late := w.syncEnds &^ w.settled; late != 0 {
			w.fail("a sync returned before ends %b landed, merged into an object that landed, or were superseded by one", late)
		}
	}
	if w.loop == loopIdle && q.elem.seq == 0 && q.open.seq == 0 && q.done != q.seq {
		w.fail("nothing queued or uploading, yet done %d ≠ seq %d: a sync would wait forever", q.done, q.seq)
	}
	if stray := w.tried &^ w.orphans; stray != 0 {
		w.fail("superseded checkpoint parts %b are in the bucket and unrecorded: no sweep deletes them", stray)
	}
}

// qWalk walks every sequence of up to depth moves from w, calling visit
// after each move; visit returns false to stop the walk.
func qWalk(w qWorld, st qStep, depth int, seq []qMove, visit func(w *qWorld, seq []qMove) bool) bool {
	if depth == 0 || w.failed {
		return true
	}
	for m := qMove(0); m < qMoves; m++ {
		if !w.enabled(m) {
			continue
		}
		next := w
		next.apply(st, m)
		s := append(seq, m)
		if !visit(&next, s) || next.bad == "" && !qWalk(next, st, depth-1, s, visit) {
			return false
		}
	}
	return true
}

func qSeqString(seq []qMove) string {
	var b strings.Builder
	for i, m := range seq {
		if i > 0 {
			b.WriteString(" → ")
		}
		b.WriteString(qMoveNames[m])
	}
	return b.String()
}

// qStateKey is a queue state up to payload: what the loop holds and which
// objects sit in the two slots.
type qStateKey struct {
	up              upState
	cut             DBObjectType
	cur, elem, open [3]int64 // seq, ts, bufBytes
	elemTyp         DBObjectType
	seq, done       int64
	closed          bool
}

func keyOf(q ckptQueue) qStateKey {
	o := func(d dbObject) [3]int64 { return [3]int64{d.seq, d.ts, d.bufBytes} }
	return qStateKey{q.up, q.cut, o(q.cur), o(q.elem), o(q.open), q.elem.typ, q.seq, q.done, q.closed}
}

const qDepth = 10

// TestCkptQueueExhaustive walks every sequence of up to qDepth events
// through step: checkpoint ends (a snapshot, then a commit as a checkpoint
// of each size in qSizes against the window, or as a dump or delta when
// the snapshot let the 150 % rule run), the loop taking the head, an
// element's landing, an object done, an upload failing or returning
// superseded, sync and close. After every step it checks:
//
//   - the 150 % rule may run exactly while no chain element is queued or
//     uploading unlanded, and at most one is;
//   - the open checkpoint sits after the element, carries no end from
//     before the last element planned, and grows past the window only as
//     one end alone (a larger merge waits);
//   - a crossing drops the open checkpoint unsent and cancels the
//     checkpoint uploading; a dropped end never ships;
//   - generation reservations are held by exactly the end in progress and
//     the objects queued or uploading;
//   - a sync returns only once every end committed before it landed, was
//     merged into an object that landed, or was superseded by an element
//     that landed; done never advances on a superseded checkpoint, and an
//     idle, empty queue has done = seq;
//   - a superseded checkpoint's tried parts are recorded as orphans, and
//     the element's sweep leaves none;
//   - after every landing, a crash recovers live(-1) of the landed objects
//     to the truth at its last ts, applied with modelApply and with what
//     each object really carries.
//
// Each mutation in qMutations breaks one rule the checkpointer once
// broke or was built to keep; the walk must find it, and logs its shortest
// failing sequence.
func TestCkptQueueExhaustive(t *testing.T) {
	seqs, keys := 0, map[qStateKey]struct{}{}
	qWalk(newQWorld(), step, qDepth, nil, func(w *qWorld, seq []qMove) bool {
		seqs++
		keys[keyOf(w.q)] = struct{}{}
		if w.bad != "" {
			t.Fatalf("%s: %s", qSeqString(seq), w.bad)
		}
		return true
	})
	t.Logf("%d sequences of up to %d events, %d distinct queue states", seqs, qDepth, len(keys))

	for _, mu := range qMutations {
		var found []qMove
		var why string
		for depth := 1; depth <= qDepth && found == nil; depth++ {
			qWalk(newQWorld(), mu.step, depth, nil, func(w *qWorld, seq []qMove) bool {
				if w.bad != "" {
					found, why = append([]qMove(nil), seq...), w.bad
				}
				return found == nil
			})
		}
		if found == nil {
			t.Errorf("mutation %q: no sequence of up to %d events breaks an invariant", mu.name, qDepth)
			continue
		}
		t.Logf("mutation %q fails after %d events: %s: %s", mu.name, len(found), qSeqString(found), why)
	}
}

// crossing reports a chain element's commit.
func crossing(ev qEvent) bool { return ev.kind == evCommit && ev.obj.typ != Checkpoint }

var qMutations = []struct {
	name string
	step qStep
}{
	{"no element-in-flight guard", func(q ckptQueue, ev qEvent) (ckptQueue, []qAction) {
		q2, acts := step(q, ev)
		if ev.kind == evSnapshot {
			acts[0].rule = true
		}
		return q2, acts
	}},
	{"the guard not cleared on landing", func(q ckptQueue, ev qEvent) (ckptQueue, []qAction) {
		if ev.kind == evLanded {
			return q, nil
		}
		return step(q, ev)
	}},
	{"the open checkpoint not dropped at a crossing", func(q ckptQueue, ev qEvent) (ckptQueue, []qAction) {
		q2, acts := step(q, ev)
		if crossing(ev) && q.open.seq != 0 {
			q2.open = q.open
			acts = acts[1:] // its drop
		}
		return q2, acts
	}},
	{"the open checkpoint kept behind the element, so later ends merge across it", func(q ckptQueue, ev qEvent) (ckptQueue, []qAction) {
		q2, acts := step(q, ev)
		if crossing(ev) && q.open.seq != 0 {
			q2.seq++
			q2.open = q.open
			q2.open.seq = q2.seq
		}
		return q2, acts
	}},
	{"done advanced on a superseded checkpoint", func(q ckptQueue, ev qEvent) (ckptQueue, []qAction) {
		q2, acts := step(q, ev)
		if ev.kind == evSuperseded {
			q2.done = q.cur.seq
		}
		return q2, acts
	}},
	{"a superseded checkpoint's tried parts not recorded as orphans", func(q ckptQueue, ev qEvent) (ckptQueue, []qAction) {
		ev.tried = nil
		return step(q, ev)
	}},
}
