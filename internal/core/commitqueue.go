package core

import (
	"errors"
	"sync"
	"time"

	"github.com/ginja-dr/ginja/internal/obs"
	"github.com/ginja-dr/ginja/internal/simclock"
)

// ErrQueueClosed is returned by Put after the queue has been closed.
var ErrQueueClosed = errors.New("core: commit queue closed")

// update is one intercepted WAL write pending cloud synchronization.
type update struct {
	path string
	off  int64
	data []byte
	at   time.Time
	// pooled, when non-nil, is the recyclable buffer backing data; the
	// queue returns it to walBufPool once the update is released (its
	// object durable), making the steady-state submit copy allocation-free.
	pooled *[]byte
}

// walBufPool recycles the per-update payload copies made in
// pipeline.submit. A buffer is only returned to the pool by removeFront,
// i.e. after the update's WAL object is durable in the cloud — by then no
// aggregated write, encode buffer or sealed object aliases it.
var walBufPool = sync.Pool{New: func() any { return new([]byte) }}

// commitQueue is the paper's CommitQueue (§6): capacity-S holding area for
// pending WAL writes. Put blocks while more than S updates are
// unacknowledged or the Safety timeout TS has expired (Algorithm 2 line
// 7); nextBatch hands up to B updates to the Aggregator, waiting for a
// full batch or the Batch timeout TB (lines 9-12). Items are only removed
// by the Unlocker once their uploads are safe (lines 20-22).
//
// All timers and timestamps come from the configured Clock, so the TB/TS
// machinery runs identically under the wall clock and under a virtual
// simulation clock.
//
// Storage is a single slice with a head index: removeFront advances head
// instead of reslicing, so once every pending update is released the
// backing array is reused from position 0. Under steady load the queue
// therefore stops allocating entirely (reslicing items[n:] would leak
// front capacity and force a fresh backing array every few batches).
type commitQueue struct {
	clk simclock.Clock

	mu      sync.Mutex
	notFull *simclock.Cond // Put waiters (Safety)
	more    *simclock.Cond // Aggregator waiting for a batch
	emptied *simclock.Cond // drain waiters (queue fully acknowledged)

	items []update
	head  int // items[head:] are pending (unacknowledged)
	taken int // items[:taken] already handed to the Aggregator (taken ≥ head)

	batch         int
	safety        int
	batchTimeout  time.Duration
	safetyTimeout time.Duration

	tbExpired bool
	tsExpired bool
	draining  int // drain calls waiting: each cuts partial batches
	tbTimer   simclock.Timer
	tsTimer   simclock.Timer
	closed    bool

	// blockedTotal accumulates the time commits spent blocked on Safety —
	// the quantity that shows up as throughput loss in Figure 5.
	blockedTotal time.Duration

	// lossHist, when set, observes each released update's realized
	// data-loss window (enqueue → cloud ack) — the histogram behind
	// ginja_data_loss_window_seconds. Observation happens in removeFront,
	// i.e. exactly when the cloud acknowledgement arrives, so the RPO
	// watermark and this histogram advance on the same event.
	lossHist *obs.Histogram
}

func newCommitQueue(p Params) *commitQueue {
	q := &commitQueue{
		clk:           p.clock(),
		batch:         p.Batch,
		safety:        p.Safety,
		batchTimeout:  p.BatchTimeout,
		safetyTimeout: p.SafetyTimeout,
	}
	q.notFull = simclock.NewCond(q.clk, &q.mu)
	q.more = simclock.NewCond(q.clk, &q.mu)
	q.emptied = simclock.NewCond(q.clk, &q.mu)
	// Both timers are armed lazily — TB only while unsent items are
	// pending, TS only while any item is unacknowledged — so an idle queue
	// schedules no timers at all.
	q.tbTimer = q.clk.NewFuncTimer(q.onTB)
	q.tsTimer = q.clk.NewFuncTimer(q.onTS)
	return q
}

// liveLocked returns the number of unacknowledged updates. Callers hold mu.
func (q *commitQueue) liveLocked() int { return len(q.items) - q.head }

// onTB fires the Batch timeout: if updates are pending and unsent, let the
// Aggregator take a partial batch (TaskTB, Algorithm 2 lines 23-25).
func (q *commitQueue) onTB() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	if len(q.items)-q.taken > 0 {
		q.tbExpired = true
		q.more.Broadcast()
	}
	// Not rearmed here: tbExpired stays sticky until the Aggregator takes
	// the partial batch (nextBatch rearms if unsent items remain), and put
	// arms the timer again when the queue goes from empty to non-empty.
}

// onTS fires the Safety timeout: if the oldest pending update has waited
// longer than TS, block the DBMS (TaskTS, Algorithm 2 lines 26-28).
func (q *commitQueue) onTS() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	if q.liveLocked() > 0 && q.clk.Since(q.items[q.head].at) >= q.safetyTimeout {
		q.tsExpired = true
		q.notFull.Broadcast() // waiters re-check and keep blocking
		// Stay expired without re-arming: only removeFront clears the
		// condition, and it re-arms for the new front item.
		return
	}
	q.rearmTSLocked()
}

func (q *commitQueue) rearmTSLocked() {
	if q.liveLocked() == 0 {
		q.tsTimer.Stop()
		return
	}
	d := q.clk.Until(q.items[q.head].at.Add(q.safetyTimeout))
	if d < time.Millisecond {
		d = time.Millisecond
	}
	q.tsTimer.Reset(d)
}

// put enqueues one update and blocks until the Safety contract allows the
// write to return to the DBMS. It reports how long the caller was blocked.
func (q *commitQueue) put(u update) (time.Duration, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return 0, ErrQueueClosed
	}
	u.at = q.clk.Now()
	q.items = append(q.items, u)
	if len(q.items)-q.taken == 1 {
		q.tbTimer.Reset(q.batchTimeout)
	}
	if q.liveLocked() == 1 {
		q.rearmTSLocked()
	}
	q.more.Broadcast()
	var blocked time.Duration
	for !q.closed && (q.liveLocked() > q.safety || q.tsExpired) {
		start := q.clk.Now()
		q.notFull.Wait()
		blocked += q.clk.Since(start)
	}
	q.blockedTotal += blocked
	if q.closed {
		return blocked, ErrQueueClosed
	}
	return blocked, nil
}

// nextBatch blocks until B unsent updates exist (or one is, and TB
// expired, a drain waits or the queue is closing) and copies them into buf
// (usually the caller's reused batch slice) without removing them. It
// returns ok=false when the queue is closed and fully drained of unsent
// items.
func (q *commitQueue) nextBatch(buf []update) ([]update, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		pending := len(q.items) - q.taken
		if pending >= q.batch || (pending > 0 && (q.tbExpired || q.draining > 0 || q.closed)) {
			n := pending
			if n > q.batch {
				n = q.batch
			}
			out := append(buf[:0], q.items[q.taken:q.taken+n]...)
			q.taken += n
			q.tbExpired = false
			if !q.closed {
				if len(q.items)-q.taken > 0 {
					q.tbTimer.Reset(q.batchTimeout)
				} else {
					q.tbTimer.Stop()
				}
			}
			return out, true
		}
		if q.closed {
			return nil, false
		}
		q.more.Wait()
	}
}

// removeFront releases the oldest n updates after the Unlocker has
// confirmed their durability, unblocking DBMS writers, recycling their
// pooled payload buffers and resetting the Safety timeout (Algorithm 2
// lines 20-22).
func (q *commitQueue) removeFront(n int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if n > q.liveLocked() {
		n = q.liveLocked()
	}
	var ackAt time.Time
	if q.lossHist != nil && n > 0 {
		ackAt = q.clk.Now()
	}
	for i := q.head; i < q.head+n; i++ {
		if q.lossHist != nil {
			q.lossHist.ObserveDuration(ackAt.Sub(q.items[i].at))
		}
		if bp := q.items[i].pooled; bp != nil {
			walBufPool.Put(bp)
		}
		q.items[i] = update{} // drop references for GC / pool safety
	}
	q.head += n
	if q.taken < q.head {
		q.taken = q.head
	}
	switch {
	case q.head == len(q.items):
		// Fully drained: rewind so the backing array is reused from 0.
		q.items = q.items[:0]
		q.taken, q.head = 0, 0
	case q.head >= 256 && q.head*2 >= cap(q.items):
		// Long-lived backlog: compact so the array stays bounded by ~2×
		// the live set instead of growing with total throughput.
		m := copy(q.items, q.items[q.head:])
		for i := m; i < len(q.items); i++ {
			q.items[i] = update{}
		}
		q.items = q.items[:m]
		q.taken -= q.head
		q.head = 0
	}
	q.tsExpired = false
	if !q.closed {
		q.rearmTSLocked()
	}
	q.notFull.Broadcast()
	if q.liveLocked() == 0 {
		q.emptied.Broadcast()
	}
}

// setKnobs installs new effective Batch/BatchTimeout values from the
// adaptive controller. Taking mu gives every reader (nextBatch's cut,
// put's timer arming) a consistent snapshot of the pair. Shrinking the
// batch must wake a parked Aggregator — pending items that were short of
// the old B may already fill the new one — and re-aim the TB timer at the
// new deadline while unsent items are waiting.
func (q *commitQueue) setKnobs(batch int, batchTimeout time.Duration) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || (batch == q.batch && batchTimeout == q.batchTimeout) {
		return
	}
	q.batch = batch
	q.batchTimeout = batchTimeout
	if len(q.items)-q.taken > 0 {
		q.tbTimer.Reset(q.batchTimeout)
		q.more.Broadcast()
	}
}

// size returns the number of unacknowledged updates.
func (q *commitQueue) size() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.liveLocked()
}

// oldestPendingAt returns the enqueue time of the oldest unacknowledged
// update — the RPO watermark. ok is false when nothing is pending (RPO is
// zero: the cloud holds everything the DBMS has committed). The watermark
// moves only in removeFront, i.e. on cloud acknowledgement, never on
// enqueue; its age is the data the paper's `e_dl` bounds.
func (q *commitQueue) oldestPendingAt() (time.Time, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.liveLocked() == 0 {
		return time.Time{}, false
	}
	return q.items[q.head].at, true
}

// blockedDuration returns the cumulative time Put callers spent blocked.
func (q *commitQueue) blockedDuration() time.Duration {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.blockedTotal
}

// drain waits until every enqueued update has been acknowledged and
// removed, or the timeout elapses, cutting partial batches meanwhile. It
// parks on a condition variable that removeFront signals when the queue
// empties — no polling — with a clock-driven timer bounding the wait, so
// it is cheap in production and instantaneous under a simulation clock.
func (q *commitQueue) drain(timeout time.Duration) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.liveLocked() == 0 {
		return true
	}
	timedOut := false
	t := q.clk.NewFuncTimer(func() {
		q.mu.Lock()
		timedOut = true
		q.emptied.Broadcast()
		q.mu.Unlock()
	})
	t.Reset(timeout)
	defer t.Stop()
	q.draining++
	defer func() { q.draining-- }()
	q.more.Broadcast()
	for q.liveLocked() > 0 && !timedOut && !q.closed {
		q.emptied.Wait()
	}
	return q.liveLocked() == 0
}

// close wakes every waiter with ErrQueueClosed and stops the timers. The
// Aggregator still drains unsent items before exiting.
func (q *commitQueue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.closed = true
	q.tbTimer.Stop()
	q.tsTimer.Stop()
	q.notFull.Broadcast()
	q.more.Broadcast()
	q.emptied.Broadcast()
}
