package core

// ckptQueue is the checkpointer's upload queue (DESIGN.md §19) as a value:
// what the upload loop holds, at most one queued chain element and, after
// it, at most one open checkpoint (finished, not yet taken). A seq of 0
// marks an empty slot. seq numbers queued objects, an absorb keeping the
// open checkpoint's; done is the seq of the last object uploaded, recorded
// and swept. step makes every queue decision; the shell (checkpointer.go)
// holds qMu, merges, plans, gates and does the I/O, and does only what step
// returns. TestCkptQueueExhaustive walks every short event sequence.
type ckptQueue struct {
	up              upState
	cur, elem, open dbObject     // cur: what the loop holds, payload dropped
	cut             DBObjectType // the element a crossing cancelled cur for
	seq, done       int64
	closed          bool
	window          int64 // CheckpointUploaders × MaxObjectSize: what absorbs may grow the open checkpoint to
}

type upState uint8

const (
	upIdle   upState = iota
	upCkpt           // a checkpoint, under a context a crossing cancels
	upElem           // a chain element, not landed
	upLanded         // a chain element that landed (supersede ran), sweeping
)

// elemInFlight: until a queued or uploading element lands, the view's total
// is unchanged, so the 150 % rule must not run.
func (q ckptQueue) elemInFlight() bool { return q.elem.seq != 0 || q.up == upElem }

// depth counts the queued objects (seqs are 0 or positive).
func (q ckptQueue) depth() int64 { return min(q.elem.seq, 1) + min(q.open.seq, 1) }

type qEventKind uint8

const (
	evSnapshot   qEventKind = iota // an end reads the open checkpoint and the guard
	evCommit                       // the end hands in obj, merged with the open checkpoint of seq base (0: none)
	evNext                         // the idle loop asks for the head
	evLanded                       // the loop's element landed
	evDone                         // the loop's object is uploaded, recorded and swept
	evSuperseded                   // a crossing cancelled the loop's checkpoint upload; tried: the parts it attempted
	evFailed                       // the loop's upload or sweep failed
	evSync                         // sync waits until every object queued by seq base is processed
	evClose                        // stop: drain, then exit
)

type qEvent struct {
	kind  qEventKind
	obj   dbObject
	base  int64
	tried []string
}

type qActKind uint8

// Actions the shell does itself (queued … wake), then replies to the caller.
const (
	actNone     qActKind = iota
	actQueued            // obj's bytes join the queue
	actAbsorb            // obj is absorbed into into: abandoned, tried recorded as orphans; queued: its bytes leave the queue
	actCancel            // cancel the loop's checkpoint: superseded{into}
	actWake              // wake every waiter
	actSnapshot          // to an end: merge with obj (seq 0: none); rule: the 150 % rule may run
	actWait              // park until the queue changes, then offer the event again
	actUpload            // to the loop: upload obj
	actExit              // to the loop: stop
)

type qAction struct {
	kind   qActKind
	obj    dbObject
	into   DBObjectType
	tried  []string
	queued bool
	rule   bool
}

var wake = qAction{kind: actWake}

// step is the queue's one transition: the state after ev, and what the
// shell must do about it, in order.
func step(q ckptQueue, ev qEvent) (ckptQueue, []qAction) {
	switch ev.kind {
	case evSnapshot:
		return q, []qAction{{kind: actSnapshot, obj: q.open, rule: !q.elemInFlight()}}
	case evCommit:
		return q.commit(ev.obj, ev.base)
	case evNext:
		switch {
		case q.elem.seq != 0:
			q.up, q.cur, q.elem = upElem, q.elem, dbObject{}
		case q.open.seq != 0:
			q.up, q.cur, q.open = upCkpt, q.open, dbObject{}
		case q.closed:
			return q, []qAction{{kind: actExit}}
		default:
			return q, []qAction{{kind: actWait}}
		}
		obj := q.cur
		q.cur.writes, q.cur.plan, q.cur.hold = nil, nil, nil
		return q, []qAction{{kind: actUpload, obj: obj}, wake}
	case evLanded:
		q.up = upLanded
		return q, nil
	case evDone:
		q.done, q.up, q.cut, q.cur = q.cur.seq, upIdle, "", dbObject{}
		return q, []qAction{wake}
	case evSuperseded: // done stays: the element's landing settles cur
		a := qAction{kind: actAbsorb, obj: q.cur, into: q.cut, tried: ev.tried}
		q.up, q.cut, q.cur = upIdle, "", dbObject{}
		return q, []qAction{a, wake}
	case evFailed:
		q.closed = true
		return q, []qAction{{kind: actExit}}
	case evSync:
		if q.done < ev.base {
			return q, []qAction{{kind: actWait}}
		}
		return q, nil
	default: // evClose
		q.closed = true
		return q, []qAction{wake}
	}
}

// commit queues an end's object. A chain element drops the open checkpoint
// unsent and cancels the checkpoint uploading, if any; nothing merges across
// it, because the open checkpoint always sits after it. A checkpoint opens
// one, or replaces the open one it was merged with — or, if the loop took
// that meanwhile, the end snapshots again and rebuilds without it. An end
// that would grow the open checkpoint past the window waits instead.
func (q ckptQueue) commit(obj dbObject, base int64) (ckptQueue, []qAction) {
	var acts []qAction
	switch {
	case obj.typ != Checkpoint:
		if q.open.seq != 0 {
			acts = append(acts, qAction{kind: actAbsorb, obj: q.open, into: obj.typ, queued: true})
			q.open = dbObject{}
		}
		if q.up == upCkpt {
			q.cut = obj.typ
			acts = append(acts, qAction{kind: actCancel, into: obj.typ})
		}
	case base == 0:
	case q.open.seq != base: // the loop took it: snapshot again
		return step(q, qEvent{kind: evSnapshot})
	case obj.bufBytes <= q.window:
		obj.seq = base
		acts = []qAction{{kind: actAbsorb, obj: q.open, into: Checkpoint, queued: true}, {kind: actQueued, obj: obj}}
		q.open = obj
		return q, acts
	default:
		return q, []qAction{{kind: actWait}}
	}
	q.seq++
	obj.seq = q.seq
	if obj.typ == Checkpoint {
		q.open = obj
	} else {
		q.elem = obj
	}
	return q, append(acts, qAction{kind: actQueued, obj: obj}, wake)
}
